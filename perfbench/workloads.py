"""One run of one benchmark workload, in a fresh process.

``run.py`` starts this script once per set-up sample, timed run and
traced run; it prints one JSON object as its last stdout line::

    python3 perfbench/workloads.py --workload secure-release --seed 1 \\
        --seconds 10 --mode timed

Modes: ``setup`` stops after set-up; ``timed`` runs as many schedule
items as take ``--seconds`` normalised seconds at the workload's nominal
cost (at least ``min_items``, whole cycles only), so a seed fixes the
work of a run, and then checks every output; ``untraced`` and ``traced``
run ``trace_items`` items, the latter with the layer wrappers installed.

Every workload is a closed loop from this one process: the next request
goes out when the previous one (for service-mix, the previous step on
both connections) has answered. Between requests a guarded reference
window runs (``refloop.py``); each request's wall time is scaled by the
windows either side of it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import random
import resource
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import refloop  # noqa: E402  (stdlib only)

#: |fixed - plaintext| allowed by the engine parity matrix.
QUANTIZATION_TOLERANCE = 0.5
#: Schedules are generated this long; runs stop well before.
MAX_ITEMS = 160


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def core_periphery(num_banks: int, core_size: int, seed: int):
    from repro.crypto.rng import DeterministicRNG
    from repro.graphgen import CorePeripheryParams, core_periphery_network

    params = CorePeripheryParams(num_banks=num_banks, core_size=core_size)
    return core_periphery_network(params, DeterministicRNG(seed))


class Workload:
    """Shared shape: set up, answer requests, check them afterwards."""

    name = ""
    #: nominal normalised seconds of one schedule item
    item_s = 0.8
    #: at least 40 requests, so ``latency_p75_s`` has 10 samples beyond it
    min_items = 40
    #: runs hold whole cycles only, so the mix is fixed
    cycle = 1
    #: items in a traced (or untraced comparison) run
    trace_items = 6

    def planned(self, seconds: float) -> int:
        items = max(self.min_items, math.ceil(seconds / self.item_s))
        return -(-items // self.cycle) * self.cycle

    def __init__(self, seed: int, tracer=None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        self.watch: List[refloop.ProcessWatch] = []

    def teardown(self) -> Dict[str, Any]:
        return {}

    def kill(self) -> None:
        """Stop whatever the workload started, after a failure."""


class SecureRelease(Workload):
    """The full protocol: one bitsliced secure EN release per request."""

    name = "secure-release"
    banks = 6

    def setup(self) -> None:
        from repro import StressTest

        self.StressTest = StressTest
        self.schedule = [
            (core_periphery(self.banks, 2, self.rng.getrandbits(40)), self.rng.getrandbits(30))
            for _ in range(MAX_ITEMS)
        ]
        warm = (core_periphery(self.banks, 2, self.rng.getrandbits(40)), 1)
        self.request(warm)

    def session(self, item, engine: str, **options):
        network, seed = item
        return (
            self.StressTest(network)
            .program("eisenberg-noe")
            .engine(engine, **options)
            .preset("demo")
            .seed(seed)
            .degree_bound(self.banks)
        )

    def request(self, item):
        return self.session(item, "secure", backend="bitsliced").run(iterations=3)

    def check(self, item, result) -> bool:
        fixed = self.session(item, "fixed").run(iterations=3)
        return result.pre_noise_aggregate == fixed.aggregate

    def released(self, result) -> list:
        return [result.aggregate, result.pre_noise_aggregate]

    def traffic_mb(self, item, result) -> float:
        return result.traffic.total_bytes_sent / self.banks / 1e6


class ClearDryrun(Workload):
    """The analyst's check in the clear: the fixed engine, three sizes."""

    name = "clear-dryrun"
    #: one cycle of sizes. Weighted 1:2:2, N=12 spans the 20th to 60th
    #: percentile and N=16 the 60th to 100th, so p50 and p75 each sit
    #: well inside one size's requests instead of at the edge of one
    cycle_sizes = (8, 12, 12, 16, 16)
    cycle = len(cycle_sizes)
    item_s = 0.7
    #: a request's normalised time scatters by about 10%, so 22 requests
    #: of each of N=12 and N=16 hold p50 and p75 still
    min_items = 55
    trace_items = cycle

    def setup(self) -> None:
        from repro import StressTest

        self.StressTest = StressTest
        self.schedule = [
            (n, core_periphery(n, 2, self.rng.getrandbits(40)))
            for _ in range(MAX_ITEMS // self.cycle)
            for n in self.cycle_sizes
        ]
        for n in sorted(set(self.cycle_sizes)):  # one warm-up per circuit shape
            self.request((n, core_periphery(n, 2, self.rng.getrandbits(40))))

    def session(self, item, engine: str):
        n, network = item
        return (
            self.StressTest(network)
            .program("eisenberg-noe")
            .engine(engine)
            .preset("demo")
            .degree_bound(n)
        )

    def request(self, item):
        return self.session(item, "fixed").run(iterations=3)

    def check(self, item, result) -> bool:
        exact = self.session(item, "plaintext").run(iterations=3)
        return abs(result.aggregate - exact.aggregate) <= QUANTIZATION_TOLERANCE

    def released(self, result) -> list:
        return [result.aggregate]

    def traffic_mb(self, item, result) -> float:
        return result.traffic.total_bytes_sent / item[0] / 1e6


# ------------------------------------------------------------- service-mix --

#: Ledger size: every fresh release fits, every over-budget document not.
SERVICE_BUDGET = 8.0  # MAX_ITEMS segments of 8 fresh releases spend 3.84
WINDOW_EPSILON = 0.001
OVER_BUDGET_EPSILON = 3.0  # x3 windows > SERVICE_BUDGET on an empty ledger
SERVICE_SHAPES = {50: 10, 200: 20}  # banks -> core size


class ServiceMix(Workload):
    """The service: notarize, single-flight, cache, admission, engine.

    The schedule is a list of steps. A step of one request goes out on
    the two connections in turn; an identical pair goes out on both at
    once, and single-flight coalesces it into one engine run. A segment
    holds these 20 requests, in a seeded order:

    * 8 cheap ones: a malformed request (bad JSON or a schema violation),
      an over-budget document, and six repeats of N=50 releases (cache
      hits);
    * 6 fresh N=50 releases (each a ledger charge and a cache store): four
      single ones and one identical pair;
    * 3 repeats of N=200 releases;
    * 3 fresh N=200 releases.

    Each group is a band of latencies, and the groups are sized so that
    ``latency_p50_s``, ``latency_p75_s`` and ``latency_p90_s`` fall a
    third of the way into the second, third and fourth band: the mix is
    fixed per segment, so a percentile never sits on the edge between two
    kinds of request, whatever the seed. Repeats pick uniformly among
    same-size documents released in earlier steps. Two different
    releases never run at once: when they did, their latencies followed
    the load on the other vCPU, which the reference loop cannot see.

    A reference window follows every step, once both connections are
    idle, so each step is normalised like an in-process request.
    """

    name = "service-mix"
    #: items are 20-request segments; at least 100 requests per run, so
    #: ``latency_p90_s`` has 10 samples beyond it
    item_s = 0.6
    min_items = 5
    trace_items = 6

    def __init__(self, seed: int, tracer=None, trace_service: bool = False) -> None:
        super().__init__(seed, tracer)
        self.trace_service = trace_service
        self.proc: Optional[subprocess.Popen] = None
        self.released_docs: Dict[int, List[dict]] = {banks: [] for banks in SERVICE_SHAPES}
        self.counter = 0
        self.turn = 0

    # -- documents --

    def document(self, banks: int, epsilon: float = WINDOW_EPSILON) -> dict:
        self.counter += 1
        return {
            "version": 1,
            "name": f"mix-{self.counter}",
            "network": {
                "generator": "core-periphery",
                "params": {"num_banks": banks, "core_size": SERVICE_SHAPES[banks]},
                "seed": self.rng.getrandbits(40),
            },
            "program": "eisenberg-noe",
            "engine": {
                "name": "plaintext",
                "options": {
                    "release": "windowed",
                    "windows": [1, 1, 1],
                    "window_epsilon": epsilon,
                },
            },
            "preset": "demo",
            "iterations": 3,
            "seed": self.rng.getrandbits(30),
        }

    def fresh(self, banks: int) -> dict:
        doc = self.document(banks)
        return {"kind": "fresh", "line": self.line(doc), "banks": banks, "doc": doc}

    def repeat(self, banks: int) -> dict:
        doc = self.rng.choice(self.released_docs[banks])
        return {"kind": "repeat", "line": self.line(doc), "banks": banks, "doc": doc}

    def malformed(self) -> dict:
        if self.rng.random() < 0.5:
            return {"kind": "bad-json", "line": b'{"op": "submit", "scenario": {\n'}
        doc = self.document(50)
        doc["network"]["params"]["num_banks"] = 100_000  # over the AST cap
        return {"kind": "rejected", "line": self.line(doc)}

    def over_budget(self) -> dict:
        doc = self.document(50, epsilon=OVER_BUDGET_EPSILON)
        # affordable for the run itself, not for the service's ledger
        doc["overrides"] = {"output_epsilon": 3 * OVER_BUDGET_EPSILON}
        return {"kind": "over-budget", "line": self.line(doc)}

    @staticmethod
    def line(doc: dict) -> bytes:
        return json.dumps({"op": "submit", "scenario": doc}).encode() + b"\n"

    def segment(self) -> List[list]:
        steps = [
            lambda: [self.malformed()],
            lambda: [self.over_budget()],
            *[lambda: [self.repeat(50)]] * 6,
            *[lambda: [self.fresh(50)]] * 4,
            lambda: [self.fresh(50)] * 2,
            *[lambda: [self.repeat(200)]] * 3,
            *[lambda: [self.fresh(200)]] * 3,
        ]
        self.rng.shuffle(steps)
        return [self.remember(make()) for make in steps]

    def remember(self, step: List[dict]) -> List[dict]:
        """Make a step's fresh releases repeatable from the next step on."""
        for req in step[:1] if len(step) == 2 and step[0] is step[1] else step:
            if req["kind"] == "fresh":
                self.released_docs[req["banks"]].append(req["doc"])
        return step

    # -- set-up --

    def setup(self) -> None:
        command = [sys.executable, os.path.join(HERE, "service_launcher.py")]
        if self.trace_service:
            command.append("--trace")
        command += ["--budget", str(SERVICE_BUDGET), "--workers", "2"]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE)
        banner = self.proc.stdout.readline().decode().split()
        if banner[:1] != ["LISTENING"]:
            raise RuntimeError(f"service did not start: {banner}")
        self.port = int(banner[1])
        self.watch = [refloop.ProcessWatch(self.proc.pid)]
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.conns = self.loop.run_until_complete(
            asyncio.gather(*(self.connect() for _ in range(2)))
        )
        # one warm-up per request shape
        warm = [[self.fresh(50)], [self.fresh(50)] * 2, [self.fresh(200)]]
        warm = [self.remember(step) for step in warm]
        warm += [[self.repeat(50)], [self.repeat(200)], [self.malformed()], [self.over_budget()]]
        for step in warm:
            self.request(step)
        self.schedule = [self.segment() for _ in range(MAX_ITEMS)]

    async def connect(self):
        # a connected socket, so asyncio needs no resolver thread
        sock = socket.create_connection(("127.0.0.1", self.port))
        return await asyncio.open_connection(sock=sock, limit=1 << 24)

    async def send(self, conn, line: bytes):
        reader, writer = conn
        start = time.perf_counter()
        writer.write(line)
        await writer.drain()
        response = await reader.readline()
        return response, time.perf_counter() - start

    def request(self, step: List[dict]) -> List[tuple]:
        if len(step) == 1:
            self.turn += 1
        conns = self.conns[self.turn % 2:] + self.conns[: self.turn % 2]
        sends = [self.send(conn, req["line"]) for conn, req in zip(conns, step)]
        return self.loop.run_until_complete(asyncio.gather(*sends))

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def teardown(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for row in handle:
                if row.startswith("VmHWM:"):
                    out["service_rss_mb"] = int(row.split()[1]) / 1024.0
        self.request([{"line": b'{"op": "shutdown"}\n'}])
        for _, writer in self.conns:
            writer.close()
        self.loop.close()
        stdout, _ = self.proc.communicate(timeout=60)
        for row in stdout.decode().splitlines():
            if row.startswith("SPANS "):
                out["service_trace"] = json.loads(row[len("SPANS "):])
        return out

    # -- checks --

    def check_step(self, step: List[dict], answers: List[tuple], first: Dict[str, Any]) -> List[bool]:
        ok = []
        for req, (raw, _) in zip(step, answers):
            body = json.loads(raw)
            kind = req["kind"]
            if kind == "bad-json":
                ok.append(body.get("status") == "error" and body.get("error") == "ServiceProtocolError")
            elif kind in ("rejected", "over-budget"):
                ok.append(body.get("status") == kind)
            else:
                good = body.get("status") == "released"
                if kind == "repeat":
                    good = good and body.get("cached") is True
                known = first.setdefault(body.get("fingerprint"), body.get("result"))
                ok.append(good and known == body.get("result"))
        return ok


WORKLOADS = {w.name: w for w in (SecureRelease, ClearDryrun, ServiceMix)}


# ------------------------------------------------------------------ runner --


def run(args) -> Dict[str, Any]:
    ref = refloop.ReferenceClock()
    entry_ref = ref.reference()
    entered = time.perf_counter()
    traced = args.mode == "traced"
    cls = WORKLOADS[args.workload]
    if cls is ServiceMix:
        workload = ServiceMix(args.seed, trace_service=traced)
    else:
        tracer = None
        if traced:
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
        workload = cls(args.seed, tracer)
    try:
        return measure(args, workload, ref, entry_ref, entered)
    finally:
        workload.kill()


def measure(args, workload, ref, entry_ref, entered) -> Dict[str, Any]:
    tracer = workload.tracer
    workload.setup()
    setup_wall = time.perf_counter() - entered
    ref.watch = workload.watch
    out: Dict[str, Any] = {"workload": workload.name, "mode": args.mode}
    if args.mode == "setup":
        out["setup_s"] = setup_wall * ref.scale(entry_ref, ref.reference())
        out.update(workload.teardown())
        return out

    items = workload.planned(args.seconds) if args.mode == "timed" else workload.trace_items
    gc.collect()
    before = ref.reference()
    out["setup_s"] = setup_wall * ref.scale(entry_ref, before)
    if tracer is not None:
        tracer.reset()
    if isinstance(workload, ServiceMix):
        phase = timed_service(workload, ref, before, items)
    else:
        phase = timed_inprocess(workload, ref, before, items)
    trace = None
    if tracer is not None:
        tracer.request_id = None
        trace = tracer.dump()
    out.update(workload.teardown())
    out["processes"] = 2 if "service_rss_mb" in out else 1
    out["peak_rss_mb"] = peak_rss_mb() + out.pop("service_rss_mb", 0.0)
    out["ref_loop_ms"] = [s * 1e3 for s in ref.samples]

    # untimed: check every output
    checked = phase.pop("check")()
    if "service_trace" in out:
        trace = out.pop("service_trace")
    if trace is not None:
        out["layers"] = layer_metrics(trace, phase)
    out.update(phase)
    out.update(checked)
    return out


def layer_metrics(trace: Dict[str, Any], phase: Dict[str, Any]) -> Dict[str, float]:
    """Per-request layer self times and the phase's exact counters."""
    import bisect

    import layers

    requests = len(phase["latencies_s"])
    if "windows" in phase:
        windows = phase["windows"]
        starts = [window[0] for window in windows]

        def scale_of(start, _request):
            at = bisect.bisect_right(starts, start) - 1
            if at < 0 or start > windows[at][1]:
                return None
            return windows[at][2]

    else:
        scales = phase["scales"]

        def scale_of(_start, request):
            return scales[request] if request is not None else None

    totals = layers.summarize(trace, scale_of)
    out: Dict[str, float] = {}
    for name, value in totals.items():
        if name.endswith("_s"):
            out[name] = value / requests
        elif name in layers.EXACT_COUNTERS:
            out[name] = value
    layer_sum = sum(out[f"{layer}_s"] for layer in layers.SPAN_LAYERS)
    if "windows" in phase:
        # the service works on two connections: what the spans and the
        # queue waits do not cover is transport, event loop and waiting
        out["bench.request_s"] = sum(phase["latencies_s"]) / requests
        out["bench.unattributed_s"] = out["bench.request_s"] - layer_sum - out["engine.queue_wait_s"]
    else:
        out["bench.unattributed_s"] = out.pop("bench.request_s")
        roots = [
            (span[2] - span[1]) * scales[span[4]]
            for span in trace["spans"]
            if span[0] == "bench.request"
        ]
        out["bench.request_s"] = sum(roots) / requests
    out["bench.layer_sum_s"] = layer_sum
    return out


def timed_inprocess(workload, ref, before, items_planned: int) -> Dict[str, Any]:
    tracer = workload.tracer
    items, results, walls, norms, scales = [], [], [], [], []
    for index, item in enumerate(workload.schedule[:items_planned]):

        def call(item=item, index=index):
            if tracer is None:
                return workload.request(item)
            tracer.request_id = index
            span = tracer.begin("bench.request")
            try:
                return workload.request(item)
            finally:
                tracer.end(span)

        try:
            result, wall, norm, after = ref.timed(before, call)
        except refloop.WindowError:
            raise
        except Exception as exc:  # a failed request counts against the run
            print(f"request {index} failed: {exc!r}", file=sys.stderr)
            result, wall, norm = None, 0.0, 0.0
            after = ref.reference()
        scales.append(ref.scale(before, after))
        before = after
        items.append(item)
        results.append(result)
        walls.append(wall)
        norms.append(norm)

    def check() -> Dict[str, Any]:
        ok = [r is not None and workload.check(i, r) for i, r in zip(items, results)]
        released = [v for r in results if r is not None for v in workload.released(r)]
        traffic = [workload.traffic_mb(i, r) for i, r in zip(items, results) if r is not None]
        return {
            "correct_requests": sum(ok),
            "digest": hashlib.sha256(repr(released).encode()).hexdigest()[:16],
            "traffic_mb_per_bank": sum(traffic) / max(1, len(traffic)),
            "releases": len(traffic),
        }

    return {
        "attempted": len(items),
        "latencies_s": [n for n, r in zip(norms, results) if r is not None],
        "walls_s": [w for w, r in zip(walls, results) if r is not None],
        "phase_s": sum(norms),
        "scales": scales,
        "check": check,
    }


def timed_service(workload, ref, before, items_planned: int) -> Dict[str, Any]:
    steps = [step for segment in workload.schedule[:items_planned] for step in segment]
    answers, norms, walls, windows = [], [], [], []
    for step in steps:
        start = time.perf_counter()
        answer = workload.request(step)
        end = time.perf_counter()
        after = ref.reference()
        scale = ref.scale(before, after)
        before = after
        windows.append([start, end, scale])
        answers.append(answer)
        for _, latency in answer:
            walls.append(latency)
            norms.append(latency * scale)

    def check() -> Dict[str, Any]:
        first: Dict[str, Any] = {}
        ok, traffic, released = [], [], []
        for step, answer in zip(steps, answers):
            ok.extend(workload.check_step(step, answer, first))
            for req, (raw, _) in zip(step, answer):
                if req["kind"] in ("fresh", "repeat"):
                    traffic.append((len(req["line"]) + len(raw)) / req["banks"] / 1e6)
                    released.append(json.loads(raw).get("result", {}).get("aggregate"))
        ok.append(matches_library(steps, answers))
        return {
            "correct_requests": sum(ok[:-1]) if ok[-1] else 0,
            "digest": hashlib.sha256(repr(released).encode()).hexdigest()[:16],
            "traffic_mb_per_bank": sum(traffic) / max(1, len(traffic)),
            "releases": len(traffic),
        }

    return {
        "attempted": len(norms),
        "latencies_s": norms,
        "walls_s": walls,
        "phase_s": sum((end - start) * scale for start, end, scale in windows),
        "windows": windows,
        "check": check,
    }


def matches_library(steps, answers, per_shape: int = 2) -> bool:
    """The first fresh releases of each size equal a direct library run."""
    from repro import StressTest
    from repro.service.server import result_payload

    seen: Dict[int, int] = {}
    for step, answer in zip(steps, answers):
        for req, (raw, _) in zip(step, answer):
            if req["kind"] != "fresh" or seen.get(req["banks"], 0) >= per_shape:
                continue
            seen[req["banks"]] = seen.get(req["banks"], 0) + 1
            doc = req["doc"]
            network = doc["network"]
            params = network["params"]
            result = (
                StressTest(core_periphery(params["num_banks"], params["core_size"], network["seed"]))
                .program("eisenberg-noe")
                .engine("plaintext", **doc["engine"]["options"])
                .preset("demo")
                .seed(doc["seed"])
                .run(iterations=doc["iterations"])
            )
            expected = json.loads(json.dumps(result_payload(result)))
            if json.loads(raw).get("result") != expected:
                print(f"service release {doc['name']} differs from the library", file=sys.stderr)
                return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), default="timed")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
