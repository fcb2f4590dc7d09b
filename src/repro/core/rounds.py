"""The round scheduler: the §3.6 execution skeleton, engine-independent.

Every DStress execution — float reference, clear circuit evaluation, the
secure protocol's simulation harness, and the sharded backend — walks the
same schedule: ``n`` computation+communication rounds (update every
vertex, route the out-slot messages to the matching in-slots, observe the
aggregate) followed by one final computation step. This module owns that
skeleton so backends only supply the three varying pieces:

* ``superstep`` — advance *all* vertices one computation step. The
  plaintext engines update vertices sequentially
  (:func:`sequential_superstep`); the sharded engine fans the same work
  across a process pool and merges at the barrier.
* ``route`` — deliver outboxes to inboxes. :func:`route_messages`
  implements the §3.6 slot-to-slot delivery for any payload type (floats
  or raw fixed-point words). Since the transport subsystem landed it is a
  thin wrapper over :meth:`~repro.core.transport.Transport.deliver_outboxes`;
  pass ``transport=`` to route a run over a metered/simulated bus instead
  of the default in-memory one.
* ``observe`` — record the designated aggregate after each round (the
  convergence trajectory).

Determinism contract: :meth:`RoundLoop.advance` calls ``superstep`` exactly
``iterations + 1`` times with identical inputs regardless of who computes
the superstep, so two backends whose supersteps are pointwise equal
produce bit-identical trajectories and final states.

:func:`run_rounds_async` is the same schedule reshaped for the async
engine: one pipeline per vertex over a :class:`~repro.core.transport.Transport`,
where a vertex starts its round ``r + 1`` computation as soon as *its own*
round-``r`` inbox is complete — overlapping computation of ready vertices
with in-flight deliveries of slow ones — while trajectories and final
states are still assembled in sorted-vertex order, so the result is
bit-identical to :class:`RoundLoop` for pointwise-equal updates.
"""

from __future__ import annotations

import asyncio
import copy
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.core.graph import DistributedGraph
from repro.core.transport import InMemoryTransport, Transport
from repro.exceptions import ConfigurationError
from repro.obs.trace import current_recorder, timed_phase
from repro.simulation.netsim import PhaseTimer

__all__ = [
    "run_rounds_async",
    "route_messages",
    "sequential_superstep",
    "RoundLoop",
    "SecureRoundScheduler",
]

#: Default bus behind :func:`route_messages`: stateless for the synchronous
#: full-round path, so one shared instance serves every sequential engine.
_DEFAULT_TRANSPORT = InMemoryTransport()

#: Per-vertex state payload (float registers or raw fixed-point registers).
S = TypeVar("S")
#: Message payload (float or raw fixed-point word).
M = TypeVar("M")

#: states, inboxes -> new states, outboxes (all keyed by vertex id).
Superstep = Callable[[Dict[int, S], Dict[int, List[M]]], Tuple[Dict[int, S], Dict[int, List[M]]]]


def route_messages(
    graph: DistributedGraph,
    outboxes: Dict[int, List[M]],
    fill: M,
    transport: Optional[Transport] = None,
) -> Dict[int, List[M]]:
    """Deliver out-slot messages to the matching in-slots (§3.6).

    Unused in-slots hold ``fill`` (the encoded no-op message), so every
    vertex always receives exactly ``degree_bound`` messages and the
    communication pattern leaks nothing about the true degree.

    Delivery is transport-backed: ``transport=None`` routes over the
    shared zero-delay :class:`~repro.core.transport.InMemoryTransport`
    (exactly the historical dict shuffle); passing a
    :class:`~repro.core.transport.SimulatedWanTransport` meters the same
    round into its :class:`~repro.simulation.netsim.TrafficMeter` and
    accounts the link delays without changing a single payload.
    """
    bus = transport if transport is not None else _DEFAULT_TRANSPORT
    return bus.deliver_outboxes(graph, outboxes, fill)


def sequential_superstep(
    vertex_ids: List[int],
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]],
) -> Superstep:
    """A superstep that updates vertices one by one, in id order.

    The id order fixes dict insertion order of the produced state map,
    which in turn fixes the float summation order of the observers — the
    property the sharded backend's merge step must (and does) preserve to
    stay bit-identical.
    """

    def superstep(states, inboxes):
        new_states: Dict[int, S] = {}
        outboxes: Dict[int, List[M]] = {}
        for vertex_id in vertex_ids:
            new_states[vertex_id], outboxes[vertex_id] = update(
                vertex_id, states[vertex_id], inboxes[vertex_id]
            )
        return new_states, outboxes

    return superstep


class RoundLoop:
    """The sequential §3.6 schedule, resumable across release windows.

    Owns the (states, inboxes, pending outboxes) triple between windows so
    a release policy can interleave aggregate/noise/release stages with
    the round schedule without the engine re-deriving resumption state.
    ``advance(n)`` runs ``n`` more computation steps and returns the new
    trajectory entries; span numbering continues exactly where the
    previous window stopped, so a windowed run's trace is the one-shot
    trace with extra release stages in between.

    ``phases`` (optional) accumulates per-phase wall-clock through the
    shared :func:`~repro.obs.trace.timed_phase` path — the same recorder
    code path every engine uses, so ``RunResult.phases`` means the same
    thing everywhere. Telemetry reads only the injectable clock: it never
    touches the RNG or reorders work, so traced runs stay bit-identical.
    """

    def __init__(
        self,
        superstep: Superstep,
        route: Callable[[Dict[int, List[M]]], Dict[int, List[M]]],
        observe: Callable[[Dict[int, S]], float],
        states: Dict[int, S],
        inboxes: Dict[int, List[M]],
        phases: Optional[PhaseTimer] = None,
    ) -> None:
        self.superstep = superstep
        self.route = route
        self.observe = observe
        self.states = states
        self.inboxes = inboxes
        self.phases = phases
        self.steps = 0
        self.pending: Optional[Dict[int, List[M]]] = None
        self.trajectory: List[float] = []

    def advance(self, rounds: int) -> List[float]:
        """Run ``rounds`` more computation steps; return their trajectory.

        The first call runs ``rounds`` computation+communication rounds,
        then one final computation step, whose outgoing messages stay
        pending (a one-shot run discards them). A later call first routes
        those pending outboxes — the communication half of the previous
        final step, spanned as that step's round — then runs ``rounds - 1``
        full rounds and a final computation step. So ``advance(a)`` then
        ``advance(b)`` is step-for-step identical to ``advance(a + b)``:
        supersteps see the same inputs in the same order, and trajectories
        and final states concatenate bit-identically.
        """
        if rounds < 0:
            raise ConfigurationError("iteration count cannot be negative")
        recorder = current_recorder()
        phases = self.phases
        round_index = self.steps + 1 if self.pending is not None else 0
        trajectory: List[float] = []
        remaining = rounds
        if self.pending is not None:
            if rounds < 1:
                raise ConfigurationError(
                    "a resumed window needs at least one computation step"
                )
            with recorder.span("round", round=round_index - 1):
                with timed_phase(phases, "communication"):
                    self.inboxes = self.route(self.pending)
            remaining -= 1
        for _ in range(remaining):
            with recorder.span("round", round=round_index):
                with timed_phase(phases, "computation"):
                    self.states, outboxes = self.superstep(self.states, self.inboxes)
                with timed_phase(phases, "communication"):
                    self.inboxes = self.route(outboxes)
            trajectory.append(self.observe(self.states))
            round_index += 1
        with recorder.span("round", round=round_index):
            with timed_phase(phases, "computation"):
                self.states, self.pending = self.superstep(self.states, self.inboxes)
        trajectory.append(self.observe(self.states))
        self.steps += rounds
        self.trajectory.extend(trajectory)
        return trajectory


async def run_rounds_async(
    graph: DistributedGraph,
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]],
    observe: Callable[[Dict[int, S]], float],
    states: Dict[int, S],
    inboxes: Dict[int, List[M]],
    iterations: int,
    transport: Transport,
    fill: M,
    max_tasks: Optional[int] = None,
    overlap: bool = True,
    phases: Optional[PhaseTimer] = None,
    first_round: int = 0,
    resume_outboxes: Optional[Dict[int, List[M]]] = None,
) -> Tuple[Dict[int, S], List[float], Dict[int, List[M]]]:
    """The §3.6 schedule as per-vertex pipelines over a transport.

    Returns ``(final_states, trajectory, final_outboxes)`` with the same
    resumption contract as :meth:`RoundLoop.advance`: pass the previous window's
    ``final_outboxes`` back as ``resume_outboxes`` (with ``first_round``
    set to the steps already taken plus one) to continue the schedule
    across release windows. The pending outboxes are routed synchronously
    through :meth:`~repro.core.transport.Transport.deliver_outboxes`
    before the per-vertex pipelines start — the §3.6 step boundary at a
    window edge is a full barrier anyway, so nothing is lost to overlap.

    Each vertex runs its own task: compute round ``r``, push the round's
    out-edge messages onto the bus, then await its complete round-``r``
    inbox (:meth:`~repro.core.transport.Transport.gather_round` — the
    round barrier) before computing round ``r + 1``. Nothing synchronizes
    *across* vertices between rounds, so a vertex whose neighbors already
    delivered computes ahead while slow links are still in flight — the
    communication/computation overlap the paper's WAN deployment assumes.

    ``max_tasks`` bounds how many vertex pipelines may occupy the compute
    section at once: an :class:`asyncio.Semaphore` around the compute
    step, with an explicit suspension point inside so the gate genuinely
    contends (a synchronous-only critical section would always release
    before anyone else could attempt acquire, making the bound a no-op).
    Different ``max_tasks`` values therefore produce genuinely different
    task interleavings — and identical results, which is what the parity
    matrix asserts. The gate covers the compute section only; the message
    waits must stay concurrent or a one-task schedule would deadlock on
    its own barrier. ``overlap=False`` degrades to the fully
    sequential schedule — every send awaited one at a time, in vertex-id
    order — which is the honest WAN baseline the async engine is measured
    against.

    Bit-identity argument: a vertex's round-``r`` inbox is complete if and
    only if it holds exactly the deliveries ``route_messages`` would have
    produced (transports never alter payloads or slots), so every
    ``update`` call sees the same ``(state, inbox)`` it sees under
    :class:`RoundLoop`; per-round states are recorded per vertex and
    re-assembled in sorted-vertex order before ``observe`` runs, so float
    summation order matches the sequential engines exactly.
    """
    if iterations < 0:
        raise ConfigurationError("iteration count cannot be negative")
    if max_tasks is not None and max_tasks < 1:
        raise ConfigurationError("max_tasks must be at least 1")
    # Note on phase semantics under overlap: per-pipeline communication
    # waits run concurrently, so the summed "communication" seconds can
    # legitimately exceed wall-clock — that over-count *is* the overlap
    # the engine exists to exploit (documented in DESIGN.md).
    recorder = current_recorder()
    vertex_ids = graph.vertex_ids
    transport.open(graph, fill)
    if resume_outboxes is not None:
        if iterations < 1:
            raise ConfigurationError(
                "a resumed window needs at least one computation step"
            )
        # the communication half of the previous window's last computation
        # step: a full barrier sits at the window edge anyway, so routing
        # it synchronously loses no overlap
        with recorder.span("round", round=first_round - 1):
            with timed_phase(phases, "communication"):
                inboxes = transport.deliver_outboxes(graph, resume_outboxes, fill)
        full_rounds = iterations - 1
    else:
        full_rounds = iterations
    # (out_slot -> (dst, in_slot)) per vertex, precomputed once: senders
    # resolve the destination slot, the transport only moves payloads.
    routes: Dict[int, List[Tuple[int, int]]] = {
        vid: [
            (dst, graph.vertex(dst).in_slot(vid))
            for dst in graph.vertex(vid).out_neighbors
        ]
        for vid in vertex_ids
    }
    # round -> vertex -> state-after-that-computation-step. A round is
    # observed (in sorted-vertex order, preserving the reference float
    # summation order) as soon as every vertex has recorded it, and its
    # state map is freed — vertices record their rounds in order, so
    # rounds complete in order and retained state is bounded by how far
    # the fastest pipeline runs ahead of the slowest (O(vertices) when
    # progress is balanced; a source vertex with no in-edges can race
    # ahead and retain one entry per round it leads by).
    round_states: List[Dict[int, S]] = [{} for _ in range(full_rounds + 1)]
    num_vertices = len(vertex_ids)
    trajectory: List[float] = []
    final_outboxes: Dict[int, List[M]] = {}

    def record(round_index: int, vid: int, state: S) -> None:
        # snapshot, don't alias: observation is deferred until the whole
        # round completes, and an update that mutates its state dict in
        # place (instead of returning a fresh one) would otherwise leak a
        # fast vertex's future rounds into an earlier observation — the
        # sequential scheduler observes immediately, so async must see
        # the same values. A shallow copy covers the flat register maps
        # every engine uses.
        round_states[round_index][vid] = copy.copy(state)
        next_round = len(trajectory)
        while next_round <= full_rounds and len(round_states[next_round]) == num_vertices:
            per_round = round_states[next_round]
            trajectory.append(observe({v: per_round[v] for v in vertex_ids}))
            if next_round < full_rounds:  # the final round backs final_states
                round_states[next_round] = {}
            next_round += 1

    if overlap:
        gate = asyncio.Semaphore(max_tasks) if max_tasks is not None else None

        async def vertex_pipeline(vid: int) -> None:
            state = states[vid]
            inbox = inboxes[vid]
            for round_index in range(full_rounds):
                with recorder.span("round", round=first_round + round_index, vertex=vid):
                    if gate is not None:
                        async with gate:
                            # the yield makes the gate real: the holder
                            # suspends here, so other pipelines actually
                            # queue on acquire while this slot is occupied
                            await asyncio.sleep(0)
                            with timed_phase(phases, "computation"):
                                state, outbox = update(vid, state, inbox)
                    else:
                        with timed_phase(phases, "computation"):
                            state, outbox = update(vid, state, inbox)
                    record(round_index, vid, state)
                    sends = [
                        transport.send(vid, dst, in_slot, outbox[out_slot], round_index)
                        for out_slot, (dst, in_slot) in enumerate(routes[vid])
                    ]
                    with timed_phase(phases, "communication"):
                        if sends:
                            await asyncio.gather(*sends)
                        inbox = await transport.gather_round(vid, round_index)
            with recorder.span("round", round=first_round + full_rounds, vertex=vid):
                with timed_phase(phases, "computation"):
                    state, final_outboxes[vid] = update(vid, state, inbox)
                record(full_rounds, vid, state)

        # first failure cancels the siblings: a transport fault (dropped
        # delivery, dead peer) raises in one pipeline while the others are
        # parked on their own barriers — on a real-socket bus each would
        # otherwise sit out its full I/O timeout before the error surfaces
        tasks = [asyncio.ensure_future(vertex_pipeline(vid)) for vid in vertex_ids]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
    else:
        # Sequential reference schedule over the same bus: compute every
        # vertex, then await every send one at a time, then gather — no
        # overlap anywhere, so wall-clock pays the full sum of link delays.
        current = dict(states)
        current_inboxes = dict(inboxes)
        for round_index in range(full_rounds):
            with recorder.span("round", round=first_round + round_index):
                outboxes: Dict[int, List[M]] = {}
                with timed_phase(phases, "computation"):
                    for vid in vertex_ids:
                        current[vid], outboxes[vid] = update(
                            vid, current[vid], current_inboxes[vid]
                        )
                        record(round_index, vid, current[vid])
                with timed_phase(phases, "communication"):
                    for vid in vertex_ids:
                        for out_slot, (dst, in_slot) in enumerate(routes[vid]):
                            await transport.send(
                                vid, dst, in_slot, outboxes[vid][out_slot], round_index
                            )
                    for vid in vertex_ids:
                        current_inboxes[vid] = await transport.gather_round(
                            vid, round_index
                        )
        with recorder.span("round", round=first_round + full_rounds):
            with timed_phase(phases, "computation"):
                for vid in vertex_ids:
                    current[vid], final_outboxes[vid] = update(
                        vid, current[vid], current_inboxes[vid]
                    )
                    record(full_rounds, vid, current[vid])

    final_states = {vid: round_states[full_rounds][vid] for vid in vertex_ids}
    return final_states, trajectory, final_outboxes


class SecureRoundScheduler:
    """Overlap per-block crypto deliveries with the blocks still computing.

    The secure engine's rounds have a different shape from the plaintext
    ones: the expensive unit is not a vertex update but a *block batch* —
    the OT-extension bits a block's GMW evaluation puts on the wire, or a
    §3.5 transfer's aggregates. The values of those batches must be
    computed in the sequential engine's exact order (every fork of the
    :class:`~repro.crypto.rng.DeterministicRNG` consumes parent stream, so
    reordering crypto work would change the transcript and break
    bit-identity with ``engine="secure"``); what *can* overlap is the
    wire time. This scheduler is that overlap: :meth:`dispatch` hands a
    finished batch's per-link bytes to the bus as an asyncio task and
    returns to the caller immediately, so block ``b + 1``'s OT
    computation proceeds while block ``b``'s bytes are still in flight on
    a :class:`~repro.core.transport.SimulatedWanTransport`;
    :meth:`barrier` is the §3.6 step boundary — computation steps and
    communication steps never interleave.

    ``max_tasks`` bounds how many batch deliveries may be in flight at
    once (an :class:`asyncio.Semaphore` acquired inside the task, so
    dispatch itself never blocks the computing coroutine).
    ``overlap=False`` awaits every link of every batch one at a time —
    the honest sequential baseline, paying the full sum of link delays —
    which is what ``benchmarks/bench_secure_async.py`` measures the
    overlap against.
    """

    def __init__(
        self,
        transport: Transport,
        max_tasks: Optional[int] = None,
        overlap: bool = True,
    ) -> None:
        if max_tasks is not None and max_tasks < 1:
            raise ConfigurationError("max_tasks must be at least 1")
        self.transport = transport
        self.overlap = bool(overlap)
        self._gate = asyncio.Semaphore(max_tasks) if max_tasks is not None else None
        self._pending: Set[asyncio.Task] = set()

    async def _deliver(
        self, link_bytes: Dict[Tuple[int, int], float], round_index: int, kind: str
    ) -> None:
        conveys = [
            self.transport.convey(src, dst, num_bytes, round_index, kind=kind)
            for (src, dst), num_bytes in sorted(link_bytes.items())
        ]
        if not conveys:
            return
        if self._gate is None:
            await asyncio.gather(*conveys)
        else:
            async with self._gate:
                await asyncio.gather(*conveys)

    async def dispatch(
        self,
        link_bytes: Dict[Tuple[int, int], float],
        round_index: int,
        kind: str = "crypto",
    ) -> None:
        """Put one block batch on the wire.

        Overlapping mode schedules the delivery and yields once (so the
        new task actually enters its link waits before the caller resumes
        computing); sequential mode awaits every link in sorted order.
        """
        if not self.overlap:
            for (src, dst), num_bytes in sorted(link_bytes.items()):
                await self.transport.convey(src, dst, num_bytes, round_index, kind=kind)
            return
        task = asyncio.ensure_future(self._deliver(link_bytes, round_index, kind))
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)
        # let the fresh task reach its first await so its link delays are
        # genuinely in flight while the caller's next block computes
        await asyncio.sleep(0)

    async def barrier(self) -> None:
        """Await all in-flight deliveries (the §3.6 step boundary).

        Propagates the first delivery failure — a faulted convey raises
        here, at the step that depended on it, instead of hanging. Every
        task is awaited even on failure (``return_exceptions=True``), so
        sibling faults are consumed rather than logged as unretrieved.
        """
        pending = list(self._pending)
        self._pending.clear()
        if not pending:
            return
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

    async def drain(self) -> None:
        """Consume every in-flight delivery, suppressing their failures.

        The cleanup path for a driver already unwinding another error:
        abandoned tasks would otherwise surface as "exception was never
        retrieved" noise over the real traceback.
        """
        pending = list(self._pending)
        self._pending.clear()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
