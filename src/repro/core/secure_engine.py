"""The DStress secure execution engine (§3.3–§3.6).

Runs a vertex program over a distributed graph such that no coalition of
at most ``k`` nodes learns anything beyond the differentially-private
output:

1. **Setup** — the trusted party assigns blocks and issues block
   certificates; each node forwards certificates to its in-neighbors.
2. **Initialization** — every node XOR-shares its vertex's initial state
   (and ``D`` no-op inbox slots) among its block.
3. **Computation steps** — each block evaluates the program's update
   circuit under GMW; inputs and outputs stay shared.
4. **Communication steps** — each outgoing message's shares move along the
   edge through the §3.5 transfer protocol (subshares, exponential
   ElGamal, even geometric noise), landing as fresh shares at the
   receiving block.
5. **Aggregation + noising** — contribution registers are re-shared to
   the aggregation tree; the root block samples two-sided geometric noise
   inside MPC (Dwork-style bit sampler) and reveals only the noised sum.

All network traffic is metered per node *and per directed link*; timings
are recorded per phase. The engine is a faithful simulation: every byte it
reports corresponds to a protocol message of the real deployment.

The §3.6 schedule is written once, as :meth:`SecureEngine._schedule`: a
generator over one window's block batches (a GMW evaluation's
OT-extension bits, a transfer's aggregates) with a barrier marker at the
end of every step. The ``secure`` engine drains it; ``secure-async``
hands each batch to a :class:`~repro.core.rounds.SecureRoundScheduler`
that conveys the bytes over a :class:`~repro.core.transport.Transport`
while later blocks are still computing. Every
:meth:`~repro.crypto.rng.DeterministicRNG.fork` consumes parent stream,
so the order of crypto work is the transcript; both consumers walk the
same generator, so their released outputs are bit-identical by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple

from repro.core.aggregation import AggregationPlan, plan_groups, reshare_word
from repro.core.config import DStressConfig
from repro.core.convergence import TrajectoryConvergence
from repro.core.graph import DistributedGraph
from repro.core.node import SimulatedNode
from repro.core.program import NO_OP_MESSAGE, VertexProgram
from repro.core.setup import AGGREGATION_BLOCK_ID, BlockAssignment, TrustedParty
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.ot import SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.mpc.gmw import GMWEngine
from repro.mpc.noise_circuit import (
    build_noised_sum_bits_circuit,
    build_partial_sum_circuit,
    geometric_bits_seed_width,
)
from repro.obs.metrics import absorb_gmw
from repro.obs.trace import current_recorder, timed_phase
from repro.privacy.edge_privacy import per_iteration_epsilon, transfer_sensitivity
from repro.sharing.xor import reconstruct_value, share_value
from repro.simulation.netsim import PhaseTimer, TrafficMeter
from repro.transfer.protocol import MessageTransferProtocol

__all__ = ["SecureRunResult", "SecureEngine", "check_secure_options"]

#: Ordered directed link with a byte payload: the unit the transport
#: conveys for the secure path.
LinkBytes = Dict[Tuple[int, int], float]

#: One item of :meth:`SecureEngine._schedule`: ``(step, kind, batch)``
#: with ``kind`` ``"ot"`` or ``"transfer"``; ``batch is None`` marks the
#: barrier that ends a §3.6 computation or communication step.
ScheduleItem = Tuple[int, str, Optional[LinkBytes]]


def check_secure_options(
    engine: str, backend: str, bucket_bounds: Optional[Sequence[int]] = None
) -> Optional[Tuple[int, ...]]:
    """Validate the secure engines' shared options at construction.

    Returns ``bucket_bounds`` as a sorted tuple of distinct bounds (or
    ``None`` for the uniform degree bound). Whether the largest bucket
    covers the graph's maximum degree is a property of the graph, so
    :meth:`SecureEngine._assign_buckets` checks that at setup.
    """
    if backend not in ("scalar", "bitsliced"):
        raise ConfigurationError(
            f"engine {engine!r} has no backend {backend!r}; "
            "choose 'scalar' or 'bitsliced'"
        )
    if bucket_bounds is None:
        return None
    if (
        not isinstance(bucket_bounds, (list, tuple))
        or not bucket_bounds
        or any(
            isinstance(b, bool) or not isinstance(b, int) or b < 1
            for b in bucket_bounds
        )
    ):
        raise ConfigurationError(
            f"engine {engine!r} needs bucket_bounds as a non-empty list of "
            f"positive ints, got {bucket_bounds!r}"
        )
    return tuple(sorted(set(bucket_bounds)))


def _record_link(
    meter: TrafficMeter, link_bytes: LinkBytes, src: int, dst: int, num_bytes: float
) -> None:
    """Meter one directed send and accumulate it into a batch's link map."""
    meter.record_send(src, dst, num_bytes)
    key = (src, dst)
    link_bytes[key] = link_bytes.get(key, 0.0) + num_bytes


@dataclass
class SecureRunResult(TrajectoryConvergence):
    """Everything a DStress run produces.

    ``noisy_output`` is the only value a real deployment would release.
    ``pre_noise_output`` and ``noise_raw`` exist so tests and benchmarks
    can verify correctness and noise calibration; they are reconstructed
    by the simulation harness, not by any protocol participant.
    """

    noisy_output: float
    pre_noise_output: float
    noise_raw: int
    iterations: int
    traffic: TrafficMeter
    phases: PhaseTimer
    num_vertices: int
    num_edges: int
    transfer_count: int = 0
    gmw_ot_count: int = 0
    gmw_and_gates_per_step: int = 0
    output_epsilon: float = 0.0
    edge_epsilon_per_iteration: Optional[float] = None
    aggregation_levels: int = 1
    #: Simulation-only diagnostic: pre-noise aggregate after each
    #: computation step, reconstructed by the harness from the XOR shares.
    #: No protocol participant ever sees these values; a real deployment
    #: releases only ``noisy_output``.
    trajectory: List[float] = field(default_factory=list)

    @property
    def mean_traffic_per_node(self) -> float:
        return self.traffic.mean_node_total_bytes()


@dataclass
class _RunContext:
    """Mutable state of one execution.

    Built once by :meth:`SecureEngine._begin_run` and advanced window by
    window by :meth:`SecureEngine._schedule`, whichever consumer drains it.
    """

    graph: DistributedGraph
    iterations: int
    nodes: Dict[int, SimulatedNode]
    assignment: BlockAssignment
    vertex_bound: Dict[int, int]
    circuits: Dict[int, object]
    circuit_and_gates: int
    gmw: GMWEngine
    state_shares: Dict[int, Dict[str, List[int]]]
    inbox_shares: Dict[int, List[List[int]]]
    outbox_shares: Dict[int, List[List[int]]] = field(default_factory=dict)
    meter: TrafficMeter = field(default_factory=TrafficMeter)
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    rng: DeterministicRNG = field(default_factory=DeterministicRNG)
    trajectory: List[float] = field(default_factory=list)
    total_ots: int = 0
    transfer_count: int = 0
    #: Computation steps executed so far. Lets a windowed run resume the
    #: §3.6 schedule exactly where the previous window stopped (the round
    #: span numbering continues, so the transcript order is unchanged).
    steps: int = 0


class SecureEngine:
    """Executes vertex programs under the full DStress protocol stack.

    ``backend`` selects the GMW gate evaluator: ``"scalar"`` (default) is
    the per-gate Python loop; ``"bitsliced"`` packs every computation
    step's blocks into numpy uint64 lanes with an offline/online phase
    split (see :mod:`repro.mpc.bitslice`). Both produce bit-identical
    released outputs, shares, and metered traffic — the parity matrix
    asserts it — so the choice is purely a throughput knob.
    """

    def __init__(
        self,
        program: VertexProgram,
        config: Optional[DStressConfig] = None,
        backend: str = "scalar",
    ) -> None:
        check_secure_options("secure", backend)
        self.backend = backend
        self.program = program
        self.config = config if config is not None else DStressConfig()
        if program.fmt.total_bits != self.config.fmt.total_bits:
            raise ConfigurationError("program and config fixed-point formats disagree")
        self.elgamal = ExponentialElGamal(
            self.config.group, dlog_half_width=self.config.dlog_half_width
        )
        self.transfer = MessageTransferProtocol(
            self.elgamal,
            message_bits=self.config.fmt.total_bits,
            noise_alpha=self.config.edge_noise_alpha,
        )

    # ----------------------------------------------------------- schedule --

    def _schedule(
        self, ctx: _RunContext, rounds: int, first: bool
    ) -> Generator[ScheduleItem, None, None]:
        """Advance the §3.6 schedule by ``rounds`` computation steps.

        Yields ``(step, kind, batch)`` for every block batch in transcript
        order, and ``(step, kind, None)`` at the end of every computation
        or communication step. A consumer may drain it (``secure``) or put
        each batch on a bus and await the step barrier at each marker
        (``secure-async``); either way the crypto runs in the same order.

        A fresh window runs ``rounds`` full (computation + communication)
        steps plus the final computation step. A resumed window first runs
        the communication step the previous window's final computation
        left pending, so the windowed schedule's crypto order — and hence
        the transcript — is bit-identical to one uninterrupted run of the
        same total length. Round span numbering continues across windows.
        """
        if not first and rounds < 1:
            raise ConfigurationError(
                "a resumed window needs at least one computation step"
            )
        recorder = current_recorder()
        base = ctx.steps
        if not first:
            with recorder.span("round", round=base - 1):
                yield from self._step(ctx, base - 1, "transfer")
        full = rounds if first else rounds - 1
        for step in range(base, base + full):
            with recorder.span("round", round=step):
                yield from self._step(ctx, step, "ot")
                ctx.trajectory.append(self._simulated_aggregate(ctx))
                yield from self._step(ctx, step, "transfer")
        # Final computation step (§3.6).
        with recorder.span("round", round=base + full):
            yield from self._step(ctx, base + full, "ot")
        ctx.trajectory.append(self._simulated_aggregate(ctx))
        ctx.steps = base + full + 1

    def _step(self, ctx: _RunContext, step: int, kind: str) -> Iterator[ScheduleItem]:
        """One §3.6 step's block batches, then its barrier marker."""
        if kind == "ot":
            phase, blocks = "computation", self._computation_blocks(ctx)
        else:
            phase, blocks = "communication", self._communication_transfers(ctx)
        with timed_phase(ctx.phases, phase):
            for batch in blocks:
                yield step, kind, batch
            yield step, kind, None

    # --------------------------------------------------------- run phases --

    def _begin_run(
        self,
        graph: DistributedGraph,
        iterations: int,
        bucket_bounds: Optional[Sequence[int]],
        phases: PhaseTimer,
    ) -> _RunContext:
        """Setup + initialization (§3.4, §3.6 init): everything before the
        first computation step.

        ``phases`` is the lifecycle's timer, shared between its stage
        timings and the engine's fine-grained phases.
        """
        config = self.config
        program = self.program
        fmt = program.fmt
        bits = fmt.total_bits
        word_bytes = (bits + 7) / 8.0
        rng = DeterministicRNG(config.seed)
        meter = TrafficMeter()
        vertex_bound = self._assign_buckets(graph, bucket_bounds)

        # ---------------------------------------------------------- setup --
        with timed_phase(phases, "setup"):
            nodes, assignment = self._setup_blocks(graph, config, rng, meter, bits)

        # --------------------------------------------------------- init --
        with timed_phase(phases, "initialization"):
            state_shares, inbox_shares = self._share_initial_state(
                graph, config, program, vertex_bound, assignment, rng, meter,
                word_bytes,
            )

        circuits = {
            bound: program.build_update_circuit(bound)
            for bound in sorted(set(vertex_bound.values()))
        }
        if self.backend == "bitsliced":
            # Imported lazily: numpy is an optional dependency and the
            # scalar path must keep working without it.
            from repro.mpc.bitslice import BitslicedGMWEngine

            gmw: GMWEngine = BitslicedGMWEngine(
                config.block_size,
                ot=SimulatedObliviousTransfer(config.group),
                mode=config.gmw_mode,
            )
        else:
            gmw = GMWEngine(
                config.block_size,
                ot=SimulatedObliviousTransfer(config.group),
                mode=config.gmw_mode,
            )
        return _RunContext(
            graph=graph,
            iterations=iterations,
            nodes=nodes,
            assignment=assignment,
            vertex_bound=vertex_bound,
            circuits=circuits,
            circuit_and_gates=circuits[max(circuits)].stats().and_gates,
            gmw=gmw,
            state_shares=state_shares,
            inbox_shares=inbox_shares,
            meter=meter,
            phases=phases,
            rng=rng,
        )

    def _setup_blocks(
        self,
        graph: DistributedGraph,
        config: DStressConfig,
        rng: DeterministicRNG,
        meter: TrafficMeter,
        bits: int,
    ) -> Tuple[Dict[int, SimulatedNode], BlockAssignment]:
        """§3.4 setup: node keys, block assignment, certificate forwarding."""
        nodes: Dict[int, SimulatedNode] = {
            v: SimulatedNode.create(v, self.elgamal, bits, graph.degree_bound, rng)
            for v in graph.vertex_ids
        }
        tp = TrustedParty(self.elgamal, rng)
        assignment = tp.assign_blocks(graph.vertex_ids, config.collusion_bound)
        certificates = {
            v: tp.build_block_certificates(
                v,
                [nodes[m].member_keys for m in assignment.blocks[v]],
                nodes[v].neighbor_keys,
            )
            for v in graph.vertex_ids
        }
        # Each node forwards certificate `slot` of its own block to the
        # in-neighbor on that slot; leftover slots stay with the owner
        # (used for padded self-transfers when configured).
        for view in graph.vertices():
            for slot, neighbor in enumerate(view.in_neighbors):
                nodes[neighbor].neighbor_certificates[view.vertex_id] = certificates[
                    view.vertex_id
                ][slot]
                cert_bytes = (
                    config.block_size * bits * self.elgamal.group.element_size_bytes
                )
                meter.record_send(view.vertex_id, neighbor, cert_bytes)
        return nodes, assignment

    def _share_initial_state(
        self,
        graph: DistributedGraph,
        config: DStressConfig,
        program: VertexProgram,
        vertex_bound: Dict[int, int],
        assignment: BlockAssignment,
        rng: DeterministicRNG,
        meter: TrafficMeter,
        word_bytes: float,
    ) -> Tuple[Dict[int, Dict[str, List[int]]], Dict[int, List[List[int]]]]:
        """§3.6 init: XOR-share every vertex's state and no-op inbox slots."""
        fmt = program.fmt
        bits = fmt.total_bits
        block_size = config.block_size
        state_shares: Dict[int, Dict[str, List[int]]] = {}
        inbox_shares: Dict[int, List[List[int]]] = {}
        raw_no_op = fmt.encode(NO_OP_MESSAGE)
        for view in graph.vertices():
            v = view.vertex_id
            bound = vertex_bound[v]
            initial = program.initial_state(view, bound)
            raw = program.encode_state(initial)
            shares: Dict[str, List[int]] = {}
            for reg in program.state_registers(bound):
                shares[reg] = share_value(fmt.to_unsigned(raw[reg]), bits, block_size, rng)
                self._meter_share_distribution(meter, v, assignment.blocks[v], word_bytes)
            state_shares[v] = shares
            inbox_shares[v] = []
            for _ in range(bound):
                inbox_shares[v].append(
                    share_value(fmt.to_unsigned(raw_no_op), bits, block_size, rng)
                )
                self._meter_share_distribution(meter, v, assignment.blocks[v], word_bytes)
        return state_shares, inbox_shares

    def _assemble_result(
        self, ctx: _RunContext, noisy_raw: int, pre_noise_raw: int, levels: int
    ) -> SecureRunResult:
        """Wrap a finished context and its last release into the result."""
        config = self.config
        fmt = self.program.fmt
        bits = fmt.total_bits
        edge_eps = None
        if config.edge_noise_alpha is not None:
            delta = transfer_sensitivity(config.collusion_bound)
            eps_transfer = -math.log(config.edge_noise_alpha) * delta / 2.0
            edge_eps = per_iteration_epsilon(config.collusion_bound, bits, eps_transfer)

        return SecureRunResult(
            noisy_output=noisy_raw * fmt.resolution,
            pre_noise_output=pre_noise_raw * fmt.resolution,
            noise_raw=noisy_raw - pre_noise_raw,
            iterations=ctx.iterations,
            traffic=ctx.meter,
            phases=ctx.phases,
            num_vertices=ctx.graph.num_vertices,
            num_edges=ctx.graph.num_edges,
            transfer_count=ctx.transfer_count,
            gmw_ot_count=ctx.total_ots,
            gmw_and_gates_per_step=ctx.circuit_and_gates,
            output_epsilon=config.output_epsilon,
            edge_epsilon_per_iteration=edge_eps,
            aggregation_levels=levels,
            trajectory=ctx.trajectory,
        )

    # ------------------------------------------------------------ phases --

    def _simulated_aggregate(self, ctx: _RunContext) -> float:
        """Reconstruct the pre-noise aggregate (simulation-only diagnostic).

        The harness — not any protocol participant — XORs the shares back
        together so results can expose a convergence trajectory comparable
        to :class:`~repro.core.engine.PlaintextRun`.
        """
        fmt = self.program.fmt
        register = self.program.aggregate_register
        raw = 0
        for v in ctx.graph.vertex_ids:
            raw += fmt.from_unsigned(
                reconstruct_value(ctx.state_shares[v][register], fmt.total_bits)
            )
        return fmt.decode(raw)

    def _assign_buckets(
        self, graph: DistributedGraph, bucket_bounds: Optional[Sequence[int]]
    ) -> Dict[int, int]:
        """Map each vertex to its degree bound (§3.7 buckets).

        Without buckets every vertex pads to the global degree bound.
        With buckets (sorted positive ints, validated by
        :func:`check_secure_options`), each vertex gets the smallest
        bucket that holds its actual degree; the largest bucket must cover
        the graph's maximum degree so any degree is placeable.
        """
        if bucket_bounds is None:
            return {v: graph.degree_bound for v in graph.vertex_ids}
        if bucket_bounds[-1] < graph.max_degree():
            raise ConfigurationError(
                f"largest bucket {bucket_bounds[-1]} must cover the graph's "
                f"maximum degree {graph.max_degree()}"
            )
        assignment = {}
        for view in graph.vertices():
            degree = max(view.in_degree, view.out_degree, 1)
            assignment[view.vertex_id] = next(b for b in bucket_bounds if b >= degree)
        return assignment

    def _meter_share_distribution(
        self, meter: TrafficMeter, src: int, members: List[int], word_bytes: float
    ) -> None:
        for member in members:
            if member != src:
                meter.record_send(src, member, word_bytes)

    def _computation_blocks(self, ctx: _RunContext) -> Iterator[LinkBytes]:
        """One §3.6 computation step, block by block.

        Evaluates each vertex block's update circuit under GMW (in vertex
        order — the transcript order) and yields the block's OT batch as
        per-link bytes *after* metering it, so a driver can overlap the
        delivery of block ``b`` with the evaluation of block ``b + 1``
        simply by consuming the generator one item at a time.

        With ``backend="bitsliced"`` the per-vertex evaluations are
        batched into numpy lanes but the generator's contract — one link
        batch per vertex, in vertex order, identical bytes — is unchanged,
        so both drivers (and the secure-async scheduler) consume it
        without knowing which backend ran.
        """
        if self.backend == "bitsliced":
            yield from self._computation_blocks_bitsliced(ctx)
            return
        for v in ctx.graph.vertex_ids:
            circuit = ctx.circuits[ctx.vertex_bound[v]]
            result = ctx.gmw.evaluate(circuit, self._block_inputs(ctx, v), ctx.rng)
            yield self._emit_block(ctx, v, result)

    def _computation_blocks_bitsliced(self, ctx: _RunContext) -> Iterator[LinkBytes]:
        """The bit-sliced computation step: offline, online, then emit.

        **Offline** walks the vertices in vertex order — the transcript
        order — drawing each block's per-gate randomness from ``ctx.rng``
        exactly as a scalar ``gmw.evaluate`` call would (same forks, same
        bytes), accumulating lane pools per circuit bound. **Online**
        evaluates each bound's vertices as lanes of one RNG-free batch.
        Results are then metered and yielded vertex by vertex, so state
        updates, traffic accumulation order, and the per-link batches this
        generator hands the round scheduler are bit-identical to the
        scalar path's.
        """
        gmw = ctx.gmw

        with timed_phase(ctx.phases, "gmw-offline"):
            builders: Dict[int, object] = {}
            batch_inputs: Dict[int, List[Dict[str, List[int]]]] = {}
            batch_vertices: Dict[int, List[int]] = {}
            for v in ctx.graph.vertex_ids:
                bound = ctx.vertex_bound[v]
                builder = builders.get(bound)
                if builder is None:
                    builder = builders[bound] = gmw.pool_builder(ctx.circuits[bound])
                    batch_inputs[bound] = []
                    batch_vertices[bound] = []
                builder.add_instance(ctx.rng)
                batch_inputs[bound].append(self._block_inputs(ctx, v))
                batch_vertices[bound].append(v)

        with timed_phase(ctx.phases, "gmw-online"):
            results: Dict[int, object] = {}
            for bound, builder in builders.items():
                batch = gmw.evaluate_batch(
                    ctx.circuits[bound], batch_inputs[bound], pools=builder.build()
                )
                results.update(zip(batch_vertices[bound], batch))

        for v in ctx.graph.vertex_ids:
            yield self._emit_block(ctx, v, results[v])

    def _block_inputs(self, ctx: _RunContext, v: int) -> Dict[str, List[int]]:
        """Vertex ``v``'s update-circuit inputs: its state and inbox shares."""
        shared_inputs = dict(ctx.state_shares[v])
        for slot in range(ctx.vertex_bound[v]):
            shared_inputs[f"msg_in_{slot}"] = ctx.inbox_shares[v][slot]
        return shared_inputs

    def _emit_block(self, ctx: _RunContext, v: int, result) -> LinkBytes:
        """Store vertex ``v``'s GMW outputs as its new state and outbox
        shares, meter the block's traffic, and return it as per-link bytes."""
        bound = ctx.vertex_bound[v]
        ctx.state_shares[v] = {
            reg: result.output_shares[reg] for reg in self.program.state_registers(bound)
        }
        ctx.outbox_shares[v] = [
            result.output_shares[f"msg_out_{slot}"] for slot in range(bound)
        ]
        members = ctx.assignment.blocks[v]
        link_bytes = self._meter_gmw(ctx.meter, members, result)
        per_member_ots = result.traffic.ot_count // max(1, len(members))
        for member in members:
            ctx.meter.node(member).ot_transfers += per_member_ots
        ctx.total_ots += result.traffic.ot_count
        return link_bytes

    def _communication_transfers(self, ctx: _RunContext) -> Iterator[LinkBytes]:
        """One §3.6 communication step, transfer by transfer.

        Executes the §3.5 protocol for each directed edge (in vertex/slot
        order — again the transcript order) and yields each transfer's
        wire bytes at link granularity. Local no-op padding (the cheap
        non-``pad_transfers`` mode) stays inside the generator: it moves
        share words between block members but is not an edge transfer.
        """
        config = self.config
        fmt = self.program.fmt
        graph = ctx.graph
        for view in graph.vertices():
            u = view.vertex_id
            for out_slot, v in enumerate(view.out_neighbors):
                in_slot = graph.vertex(v).in_slot(u)
                certificate = ctx.nodes[u].neighbor_certificates[v]
                neighbor_key = ctx.nodes[v].neighbor_keys[in_slot]
                receiver_members = ctx.assignment.blocks[v]
                receiver_keys = [ctx.nodes[m].member_keys for m in receiver_members]
                result = self.transfer.execute(
                    ctx.outbox_shares[u][out_slot],
                    certificate,
                    neighbor_key,
                    receiver_keys,
                    ctx.rng,
                )
                ctx.inbox_shares[v][in_slot] = result.receiver_shares
                ctx.transfer_count += 1
                yield self._meter_transfer(ctx.meter, u, v, ctx.assignment, result.traffic)
            if config.pad_transfers:
                yield from self._padded_self_transfers(ctx, view)
            else:
                # Unused inbox slots revert to fresh no-op shares from the
                # owner (cheap local padding; see DESIGN.md).
                raw_no_op = fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE))
                for slot in range(view.in_degree, ctx.vertex_bound[view.vertex_id]):
                    ctx.inbox_shares[view.vertex_id][slot] = share_value(
                        raw_no_op, fmt.total_bits, config.block_size, ctx.rng
                    )
                    self._meter_share_distribution(
                        ctx.meter,
                        view.vertex_id,
                        ctx.assignment.blocks[view.vertex_id],
                        (fmt.total_bits + 7) / 8.0,
                    )

    def _padded_self_transfers(self, ctx: _RunContext, view) -> Iterator[LinkBytes]:
        """Run full no-op transfers on unused slots (degree hiding)."""
        config = self.config
        fmt = self.program.fmt
        v = view.vertex_id
        for slot in range(view.in_degree, ctx.vertex_bound[v]):
            certificate = ctx.nodes[v].neighbor_certificates.get(("self", slot))
            if certificate is None:
                # Leftover certificate for this slot, retained by the owner.
                certificate = self._own_certificate(ctx.nodes, ctx.assignment, v, slot)
                ctx.nodes[v].neighbor_certificates[("self", slot)] = certificate
            shares = share_value(
                fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE)),
                fmt.total_bits,
                config.block_size,
                ctx.rng,
            )
            receiver_keys = [ctx.nodes[m].member_keys for m in ctx.assignment.blocks[v]]
            result = self.transfer.execute(
                shares, certificate, ctx.nodes[v].neighbor_keys[slot], receiver_keys,
                ctx.rng,
            )
            ctx.inbox_shares[v][slot] = result.receiver_shares
            ctx.transfer_count += 1
            yield self._meter_transfer(ctx.meter, v, v, ctx.assignment, result.traffic)

    def _own_certificate(self, nodes, assignment, v: int, slot: int):
        """Rebuild the leftover certificate for slot ``slot`` of node ``v``.

        In a deployment the node would simply have kept the certificate the
        TP sent; the simulation reconstructs it on demand to avoid storing
        all D certificates for every node.
        """
        # The certificate contents only depend on member keys and the
        # neighbor key, both of which the owner legitimately holds.
        from repro.crypto.keys import SchnorrSigner
        from repro.transfer.certificates import build_certificate

        signer = SchnorrSigner(self.elgamal.group)
        throwaway = signer.keygen(DeterministicRNG(f"self-cert-{v}-{slot}"))
        return build_certificate(
            self.elgamal,
            signer,
            throwaway,
            owner=v,
            edge_slot=slot,
            member_keys=[nodes[m].member_keys for m in assignment.blocks[v]],
            neighbor_key=nodes[v].neighbor_keys[slot],
            rng=DeterministicRNG(f"self-cert-rng-{v}-{slot}"),
        )

    def _meter_transfer(
        self, meter: TrafficMeter, u: int, v: int, assignment: BlockAssignment, traffic
    ) -> LinkBytes:
        """Distribute §5.3 role traffic onto the simulated nodes; returns
        the same traffic as per-link bytes for the transport dispatch."""
        link_bytes: LinkBytes = {}
        for member in assignment.blocks[u]:
            if member != u:
                _record_link(meter, link_bytes, member, u, traffic.sender_member_bytes)
        if u != v:
            _record_link(meter, link_bytes, u, v, traffic.node_u_sent_bytes)
        for member in assignment.blocks[v]:
            if member != v:
                _record_link(meter, link_bytes, v, member, traffic.receiver_member_bytes)
        # Exponentiation counts per role (cost model input).
        bits = traffic.message_bits
        for member in assignment.blocks[u]:
            meter.node(member).exponentiations += traffic.block_size * (bits + 1)
        meter.node(u).exponentiations += traffic.block_size * bits  # noise terms
        meter.node(v).exponentiations += traffic.block_size  # adjust
        for member in assignment.blocks[v]:
            meter.node(member).exponentiations += bits  # decryption
        return link_bytes

    # -------------------------------------------------------- aggregation --

    def _aggregation_tree(
        self, ctx: _RunContext
    ) -> Tuple[List[List[int]], int, int, int]:
        """Re-share contribution registers up the aggregation tree.

        Returns the root block's input shares, their bit width, the tree
        depth, and the simulation-only pre-noise aggregate (raw LSBs).
        """
        graph = ctx.graph
        gmw = ctx.gmw
        state_shares = ctx.state_shares
        assignment = ctx.assignment
        meter = ctx.meter
        rng = ctx.rng
        config = self.config
        program = self.program
        fmt = program.fmt
        bits = fmt.total_bits

        plan = AggregationPlan(
            groups=plan_groups(graph.vertex_ids, config.aggregation_fanout),
            value_bits=bits,
        )
        root_members = assignment.blocks[AGGREGATION_BLOCK_ID]

        def reshare_to(
            share_words: List[int], width: int, src_members: List[int], dst_members: List[int]
        ) -> List[int]:
            fresh = reshare_word(share_words, width, len(dst_members), rng)
            for src in src_members:
                for dst in dst_members:
                    if src != dst:
                        meter.record_send(src, dst, (width + 7) / 8.0)
            return fresh

        register = program.aggregate_register
        pre_noise_raw = 0
        for v in graph.vertex_ids:
            pre_noise_raw += fmt.from_unsigned(
                reconstruct_value(state_shares[v][register], bits)
            )

        if plan.is_hierarchical:
            group_width = plan.group_sum_bits
            group_sum_shares: List[List[int]] = []
            for group in plan.groups:
                # The group's aggregation block: reuse the first member's
                # block (already a uniformly random k+1 subset).
                group_block = assignment.blocks[group[0]]
                circuit = build_partial_sum_circuit(len(group), bits, group_width)
                shared_inputs = {}
                for index, v in enumerate(group):
                    shared_inputs[f"state_{index}"] = reshare_to(
                        state_shares[v][register], bits, assignment.blocks[v], group_block
                    )
                result = gmw.evaluate(circuit, shared_inputs, rng)
                self._meter_gmw(meter, group_block, result)
                group_sum_shares.append(
                    reshare_to(
                        result.output_shares["partial_sum"],
                        group_width,
                        group_block,
                        root_members,
                    )
                )
            root_inputs = group_sum_shares
            root_width = group_width
            levels = 2
        else:
            root_inputs = [
                reshare_to(state_shares[v][register], bits, assignment.blocks[v], root_members)
                for v in graph.vertex_ids
            ]
            root_width = bits
            levels = 1
        return root_inputs, root_width, levels, pre_noise_raw

    def _noise_and_reveal(
        self,
        ctx: _RunContext,
        root_inputs: List[List[int]],
        root_width: int,
        epsilon: Optional[float] = None,
    ) -> int:
        """Root-block noised sum: in-MPC geometric sampler, then reveal."""
        gmw = ctx.gmw
        meter = ctx.meter
        rng = ctx.rng
        config = self.config
        program = self.program
        root_members = ctx.assignment.blocks[AGGREGATION_BLOCK_ID]

        alpha = config.noise_alpha_for(program.sensitivity, epsilon)
        magnitude_bits = config.noise_magnitude_bits_for(program.sensitivity, epsilon)
        root_circuit = build_noised_sum_bits_circuit(
            num_inputs=len(root_inputs),
            value_bits=root_width,
            alpha=alpha,
            magnitude_bits=magnitude_bits,
            precision_bits=config.noise_precision_bits,
        )
        seed_width = geometric_bits_seed_width(magnitude_bits, config.noise_precision_bits)
        shared_inputs = {f"state_{i}": shares for i, shares in enumerate(root_inputs)}
        # Every root member contributes its own uniform word as its share of
        # the seed; XOR of the shares is the seed, so one honest member
        # suffices for uniformity (§3.6 "combine the random shares").
        shared_inputs["seed"] = [rng.fork(f"seed-{m}").randbits(seed_width) for m in root_members]
        result = gmw.evaluate(root_circuit, shared_inputs, rng)
        self._meter_gmw(meter, root_members, result)

        noised_raw = result.reveal("noised_sum", signed=True)
        # Revealing the output: every root member publishes its share.
        out_width = result.bus_widths["noised_sum"]
        for member in root_members:
            for other in root_members:
                if member != other:
                    meter.record_send(member, other, (out_width + 7) / 8.0)
        return noised_raw

    def _meter_gmw(self, meter: TrafficMeter, members: List[int], result) -> LinkBytes:
        """Attribute a GMW evaluation's wire traffic to the member nodes.

        Uses the engine's per-ordered-pair accounting
        (:attr:`~repro.mpc.gmw.GMWTraffic.pair_bits`), so every OT-extension
        byte lands on a directed *link* between two real block members —
        node totals are unchanged (the pair map sums to the per-party
        totals by construction) but link-level hot spots become visible
        and the secure-async driver can dispatch the returned map.
        """
        link_bytes: LinkBytes = {}
        for (i, j), pair_bytes in result.traffic.pair_bytes().items():
            _record_link(meter, link_bytes, members[i], members[j], pair_bytes)
        for member in members:
            meter.node(member).gmw_evaluations += 1
        recorder = current_recorder()
        if recorder.enabled:
            # pair indices are block-local; attribute the bits to the real
            # member node ids so the series lines up with traffic.link.bytes
            absorb_gmw(
                recorder.metrics,
                {
                    (members[i], members[j]): bits
                    for (i, j), bits in result.traffic.pair_bits.items()
                },
            )
        return link_bytes
