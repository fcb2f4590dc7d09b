"""Layer tracing from outside the program, for the traced benchmark run.

:func:`install` wraps public functions and methods of ``repro`` — at the
defining module and at every module that imported them — so each call
records a span (name, start, end, parent, request id) in memory, or,
for very frequent calls, only bumps a counter. Nothing under ``src/`` is
touched, and the timed runs never install these wrappers.

A layer's self time is its span time minus the time its child spans
cover. Self times of every span under one request add up to that
request's wall time, so a request's unattributed time is its root
span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, kind, module, class or None, attribute). ``span`` layers are
#: timed and counted; ``count`` layers are only counted.
TARGETS: List[Tuple[str, str, str, Optional[str], str]] = [
    ("group.exp", "count", "repro.crypto.group", "CyclicGroup", "exp"),
    ("group.exp", "count", "repro.crypto.group", "CyclicGroup", "power_of_g"),
    ("elgamal.encrypt", "span", "repro.crypto.elgamal", "ExponentialElGamal", "encrypt_int"),
    ("elgamal.encrypt", "span", "repro.crypto.elgamal", "ExponentialElGamal",
     "encrypt_int_with_ephemeral"),
    ("elgamal.encrypt", "span", "repro.transfer.protocol", "MessageTransferProtocol",
     "sender_encrypt"),
    ("elgamal.decrypt", "span", "repro.crypto.elgamal", "ExponentialElGamal", "decrypt_int"),
    ("elgamal.decrypt", "span", "repro.transfer.protocol", "MessageTransferProtocol",
     "receiver_decrypt"),
    ("dlog.recover", "span", "repro.crypto.dlog", "DlogTable", "recover"),
    ("dlog.recover", "span", "repro.crypto.dlog", "BabyStepGiantStep", "recover"),
    ("transfer.execute", "span", "repro.transfer.protocol", "MessageTransferProtocol", "execute"),
    ("ot.ensure", "span", "repro.crypto.ot_extension", "IKNPOTExtension", "ensure"),
    ("ot.transfers", "count", "repro.crypto.ot", "ObliviousTransfer", "transfer"),
    ("ot.transfers", "count", "repro.crypto.ot", "ObliviousTransfer", "transfer_bit"),
    ("gmw.offline", "span", "repro.mpc.bitslice", "OfflinePoolBuilder", "build"),
    ("gmw.online", "span", "repro.mpc.bitslice", "BitslicedGMWEngine", "evaluate_batch"),
    ("bitslice.pack", "span", "repro.mpc.bitslice", None, "pack_lane_axis"),
    ("noise.circuit_build", "span", "repro.mpc.noise_circuit", None,
     "build_noised_sum_bits_circuit"),
    ("noise.circuit_build", "span", "repro.mpc.noise_circuit", None, "build_partial_sum_circuit"),
    ("circuit.build", "span", "repro.core.program", "VertexProgram", "build_update_circuit"),
    ("circuit.layerize", "span", "repro.mpc.circuit", None, "layerize"),
    ("circuit.stats", "span", "repro.mpc.circuit", "Circuit", "stats"),
    ("circuit.eval", "span", "repro.mpc.circuit", "Circuit", "evaluate"),
    ("session.resolve", "span", "repro.api.session", "StressTest", "resolve"),
    ("lifecycle.run", "span", "repro.core.lifecycle", None, "run_lifecycle"),
    ("rounds.route", "span", "repro.core.rounds", None, "route_messages"),
    ("service.notarize", "span", "repro.service.scenario_ast", None, "notarize"),
    ("cache.lookup", "span", "repro.api.cache", "ScenarioCacheBase", "lookup"),
    ("cache.store", "span", "repro.api.cache", "ScenarioCacheBase", "store"),
    ("admission.precharge", "span", "repro.privacy.admission", None, "precharge"),
    ("engine.exec", "span", "repro.api.session", None, "execute_resolved"),
]

#: Every layer with a span, in report order.
SPAN_LAYERS = sorted({t[0] for t in TARGETS if t[1] == "span"})
#: Modules imported before patching, so every import site exists.
_PRELOAD = sorted({t[2] for t in TARGETS}) + ["repro", "repro.service.server"]


class Tracer:
    """In-memory spans and counters; one span stack per thread.

    A span is ``[name, start, end, parent index or -1, request id, extra]``;
    ``extra`` carries the call's own count (gates evaluated, a cache hit,
    a refused charge), so counts over any time window come from spans.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: calls of ``count`` layers (too frequent for a span each)
        self.counts: Counter = Counter()
        #: [time, seconds] from the end of a precharge to its engine run
        self.queue_waits: List[list] = []
        self.request_id: Any = None
        self._precharged: Dict[str, float] = {}
        self._resolved: Dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget everything recorded so far (warm-up requests)."""
        self.spans.clear()
        self.counts.clear()
        self.queue_waits.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request_id, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    # ----------------------------------------------------------- wrappers --

    def span_wrapper(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "engine.exec":
                tracer.exec_started(args[0])
            index = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(index)
                tracer.observe(index, args, kwargs, None, exc)
                raise
            tracer.end(index)
            tracer.observe(index, args, kwargs, result, None)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def count_wrapper(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(tracer._local, layer, 0)
            if not depth:  # power_of_g calling exp is one exponentiation
                with tracer._lock:
                    tracer.counts[layer] += 1
            setattr(tracer._local, layer, depth + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(tracer._local, layer, depth)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def observe(self, index: int, args, kwargs, result, exc) -> None:
        """Per-layer extras read off a call's arguments and result."""
        span = self.spans[index]
        layer = span[0]
        if layer == "circuit.eval":
            span[5] = len(args[0].gates)
        elif layer == "cache.lookup":
            span[5] = int(result is not None)
        elif layer == "admission.precharge":
            span[5] = int(exc is not None)
            if exc is None and kwargs.get("fingerprint") is not None:
                self._precharged[kwargs["fingerprint"]] = span[2]
        elif layer == "service.notarize" and result is not None:
            self._resolved[id(result.resolved)] = result.fingerprint
        elif layer == "engine.exec" and result is not None:
            span[5] = int(result.extras.get("gmw_ot_count", 0))

    def exec_started(self, resolved: Any) -> None:
        """Close the queue wait of a notarized run that is starting."""
        fingerprint = self._resolved.pop(id(resolved), None)
        charged = self._precharged.pop(fingerprint, None) if fingerprint else None
        if charged is not None:
            now = time.perf_counter()
            self.queue_waits.append([now, now - charged])

    def dump(self) -> Dict[str, Any]:
        """A snapshot; spans recorded later do not show up in it."""
        return {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "queue_waits": list(self.queue_waits),
        }


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span, index-aligned with ``spans``."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def outermost(spans: List[list], index: int) -> bool:
    """Whether a span is not nested in a span of its own layer (an
    override calling its base is one call)."""
    parent = spans[index][3]
    return parent < 0 or spans[parent][0] != spans[index][0]


#: Exact work counters: the schedule fixes them, so repeated traced runs
#: of one seed must agree on every one.
EXACT_COUNTERS = (
    "group.exp_calls",
    "dlog.recover_calls",
    "transfer.execute_calls",
    "ot.transfers",
    "gmw.batches",
    "gmw.ot_count",
    "circuit.build_calls",
    "circuit.layerize_calls",
    "circuit.stats_calls",
    "circuit.eval_calls",
    "circuit.eval_gates",
    "service.notarize_calls",
    "admission.precharge_calls",
    "admission.refused",
    "cache.lookups",
    "cache.hit_ratio",
)


def summarize(
    trace: Dict[str, Any],
    scale_of: Callable[[float, Any], Optional[float]],
) -> Dict[str, float]:
    """Totals of one traced phase, in normalised seconds.

    ``scale_of(start, request_id)`` gives the normalisation factor of the
    request or segment a span started in, or ``None`` to leave the span
    out (it ran outside the traced phase). Returns ``<layer>_s`` self
    times, ``<layer>_calls`` counts and the per-layer extras, summed over
    the phase; ``bench.request`` is the harness's root span.
    """
    spans = trace["spans"]
    own = self_times(spans)
    totals: Dict[str, float] = {f"{layer}_s": 0.0 for layer in SPAN_LAYERS}
    totals.update({f"{layer}_calls": 0 for layer in SPAN_LAYERS})
    totals.update({"bench.request_s": 0.0, "bench.request_calls": 0})
    extras = {"circuit.eval": "circuit.eval_gates", "cache.lookup": "cache.hits",
              "admission.precharge": "admission.refused", "engine.exec": "gmw.ot_count"}
    totals.update({name: 0 for name in extras.values()})
    for index, span in enumerate(spans):
        scale = scale_of(span[1], span[4])
        if scale is None:
            continue
        layer = span[0]
        totals[f"{layer}_s"] += own[index] * scale
        if outermost(spans, index):
            totals[f"{layer}_calls"] += 1
        if layer in extras:
            totals[extras[layer]] += span[5]
    totals["engine.queue_wait_s"] = sum(
        wait * (scale_of(at, None) or 0.0) for at, wait in trace["queue_waits"]
    )
    totals["group.exp_calls"] = trace["counts"].get("group.exp", 0)
    totals["ot.transfers"] = trace["counts"].get("ot.transfers", 0)
    totals["gmw.batches"] = totals["gmw.online_calls"]
    totals["cache.lookups"] = totals["cache.lookup_calls"]
    totals["cache.hit_ratio"] = totals["cache.hits"] / max(1, totals["cache.lookups"])
    return totals


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` for ``tracer``."""
    for name in _PRELOAD:
        importlib.import_module(name)
    for layer, kind, module_name, class_name, attr in TARGETS:
        make = tracer.span_wrapper if kind == "span" else tracer.count_wrapper
        module = sys.modules[module_name]
        if class_name is None:
            original = getattr(module, attr)
            wrapped = make(layer, original)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "") or "").startswith("repro") and (
                    getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapped)
            continue
        for cls in _subclasses(getattr(module, class_name)):
            original = cls.__dict__.get(attr)
            if callable(original) and not hasattr(original, "__perfbench_wrapped__"):
                setattr(cls, attr, make(layer, original))
