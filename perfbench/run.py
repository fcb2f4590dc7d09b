"""The repo's benchmark: one command, every metric, every output checked.

::

    python3 perfbench/run.py --workload secure-release --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of one timed run, ``--trace
1`` the per-layer metrics of the traced runs. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it list every metric with its unit and sample count. Workloads,
metrics and the timing rule are described in ``perfbench/README.md``.

This script only imports the standard library; each run happens in fresh
``workloads.py`` processes, which import ``repro`` from ``src/``. It exits
non-zero, without a result line, if any of them fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from layers import EXACT_COUNTERS  # stdlib only until install() runs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("secure-release", "clear-dryrun", "service-mix")
#: set-up is measured this many times, each in a fresh process
SETUP_SAMPLES = 3
#: a percentile is reported from a run with at least this many samples
#: beyond it; below that the output marks it as under-sampled
SAMPLES_BEYOND = 10
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "latency_p90_s": "s",
    "throughput_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "traffic_mb_per_bank": "MB",
}

PER_LAYER = {
    "group.exp_calls": "count",
    "elgamal.encrypt_s": "s",
    "elgamal.decrypt_s": "s",
    "dlog.recover_calls": "count",
    "dlog.recover_s": "s",
    "transfer.execute_calls": "count",
    "transfer.execute_s": "s",
    "ot.ensure_s": "s",
    "ot.transfers": "count",
    "gmw.offline_s": "s",
    "gmw.online_s": "s",
    "gmw.batches": "count",
    "gmw.ot_count": "count",
    "bitslice.pack_s": "s",
    "noise.circuit_build_s": "s",
    "circuit.build_calls": "count",
    "circuit.build_s": "s",
    "circuit.layerize_calls": "count",
    "circuit.layerize_s": "s",
    "circuit.stats_calls": "count",
    "circuit.stats_s": "s",
    "circuit.eval_calls": "count",
    "circuit.eval_gates": "count",
    "circuit.eval_s": "s",
    "session.resolve_s": "s",
    "lifecycle.run_s": "s",
    "rounds.route_s": "s",
    "service.notarize_calls": "count",
    "service.notarize_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_s": "s",
    "cache.store_s": "s",
    "admission.precharge_calls": "count",
    "admission.precharge_s": "s",
    "admission.refused": "count",
    "engine.exec_s": "s",
    "engine.queue_wait_s": "s",
    "bench.ref_loop_ms": "ms",
    "bench.raw_latency_p50_s": "s",
    "bench.request_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.nondeterministic_counters": "count",
}


def child(args, mode: str) -> Dict[str, Any]:
    """Run one ``workloads.py`` process; its last stdout line is JSON."""
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    # its own process group, so a hung run and its service die together
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} {mode} run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:34s} {value:14.6f} {unit:6s} {note}")


def timed(args) -> Dict[str, Any]:
    setups = [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = child(args, "timed")
    setups.append(run["setup_s"])
    latencies = run["latencies_s"]
    samples = len(latencies)
    correct = run["correct_requests"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": correct / run["phase_s"],
        "success_ratio": correct / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
        "traffic_mb_per_bank": run["traffic_mb_per_bank"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "throughput_per_s": f"n={correct} over {run['phase_s']:.3f} s",
        "success_ratio": f"{correct} of {run['attempted']}",
        "peak_rss_mb": f"{run['processes']} process(es)",
        "traffic_mb_per_bank": f"n={run['releases']} releases",
    }
    for q in (50, 75, 90):
        name = f"latency_p{q}_s"
        metrics[name] = percentile(latencies, q)
        beyond = int(samples * (100 - q) / 100)
        notes[name] = f"n={samples}, {beyond} beyond"
        if beyond < SAMPLES_BEYOND:
            notes[name] += " (under-sampled: below the 10-beyond rule)"
    walls = run["walls_s"]
    print(f"# {args.workload} seed {args.seed}: {run['attempted']} requests, "
          f"{correct} correct, digest {run['digest']}")
    for name, unit in END_TO_END.items():
        show(name, metrics[name], unit, notes.get(name, ""))
    refs = run["ref_loop_ms"]
    print(f"# raw wall p50 {percentile(walls, 50):.6f} s, p75 {percentile(walls, 75):.6f} s; "
          f"reference loop median {statistics.median(refs):.3f} ms "
          f"(min {min(refs):.3f}, max {max(refs):.3f}, {len(refs)} windows)")
    return {
        "correct": correct == run["attempted"],
        "attempted": run["attempted"],
        "failed": run["attempted"] - correct,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def traced(args) -> Dict[str, Any]:
    plain = child(args, "untraced")
    first = child(args, "traced")
    second = child(args, "traced")
    layers = dict(first["layers"])
    mismatched = [name for name in EXACT_COUNTERS if layers[name] != second["layers"][name]]
    for name in mismatched:
        print(f"# NONDETERMINISTIC {name}: {layers[name]} then {second['layers'][name]}")
    layers["bench.nondeterministic_counters"] = len(mismatched)
    layers["bench.ref_loop_ms"] = statistics.median(first["ref_loop_ms"])
    layers["bench.raw_latency_p50_s"] = percentile(first["walls_s"], 50)
    layers["bench.trace_overhead_ratio"] = (
        percentile(first["latencies_s"], 50) / percentile(plain["latencies_s"], 50)
    )
    spans, wait = layers["bench.layer_sum_s"], layers["engine.queue_wait_s"]
    unattributed = layers["bench.unattributed_s"]
    print(f"# {args.workload} traced: {first['attempted']} requests; layer self times "
          f"{spans:.6f} s + queue wait {wait:.6f} s + unattributed {unattributed:.6f} s = "
          f"{spans + wait + unattributed:.6f} s, request wall {layers['bench.request_s']:.6f} s")
    for name, unit in PER_LAYER.items():
        show(name, layers[name], unit)
    runs = (plain, first, second)
    return {
        "correct": all(r["correct_requests"] == r["attempted"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["attempted"] - r["correct_requests"] for r in runs),
        "metrics": {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="DStress reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    result = traced(args) if args.trace else timed(args)
    print(f"# {time.perf_counter() - started:.1f} s in all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
