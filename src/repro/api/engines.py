"""Engine backends: one protocol, four implementations.

An :class:`Engine` turns ``(program, graph, iterations, config)`` into a
:class:`~repro.api.result.RunResult`. The four built-ins wrap the seed's
previously-disjoint entry points:

=============  ==========================================================
``plaintext``  :meth:`PlaintextEngine.run_float` — the float oracle
``fixed``      :meth:`PlaintextEngine.run_fixed` — clear circuit eval
``secure``     :class:`SecureEngine` — the full DStress protocol
``naive-mpc``  the §5.5 monolithic-MPC baseline (computes the same
               function centrally, projects the monolithic GMW cost)
``sharded``    float mode partitioned across worker processes within one
               run (:class:`~repro.api.sharded.ShardedEngine`)
``async``      float mode as per-vertex asyncio pipelines over a
               transport bus, overlapping computation with deliveries
               (:class:`~repro.api.async_engine.AsyncEngine`)
``secure-async``  the full protocol with per-block OT batches dispatched
               over the transport bus, bit-identical to ``secure``
               (:class:`~repro.api.secure_async.SecureAsyncEngine`)
=============  ==========================================================

All built-ins compute the *same function* pre-noise on the same graph
(the engine-parity tests assert it), so sweeps can trade fidelity for
speed by swapping one string. New backends (remote, ...) implement
:class:`Engine` and call :func:`~repro.api.registry.register_engine`.

Every built-in executes through the shared run lifecycle
(:func:`repro.core.lifecycle.run_lifecycle`): the backend contributes a
:class:`~repro.core.lifecycle.LifecycleCore` with the five stage bodies
(``setup``/``rounds``/``aggregate``/``noise``/``release``) while the
spine owns budget admission, stage timings, the ``run`` trace span, and
release bookkeeping. All engines therefore accept the release options
``release="oneshot"|"windowed"``, ``windows=[...]``, and
``window_epsilon=...`` — windowed continual release publishes one noised
value per round window and charges the accountant per window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple, Union

from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.config import DStressConfig
from repro.core.engine import PlaintextEngine, PlaintextRun
from repro.core.graph import DistributedGraph
from repro.core.lifecycle import (
    LifecycleCore,
    OneShotRelease,
    ReleasePolicy,
    RunState,
    resolve_release_policy,
    run_lifecycle,
)
from repro.core.program import VertexProgram
from repro.core.secure_engine import SecureEngine, check_secure_options
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.obs.clock import now as clock_now
from repro.obs.metrics import record_run
from repro.obs.trace import timed_phase
from repro.privacy.budget import PrivacyAccountant
from repro.privacy.mechanisms import two_sided_geometric_sample
from repro.simulation.naive_baseline import estimate_monolithic_seconds
from repro.simulation.netsim import TrafficMeter, meter_from_rounds

__all__ = [
    "Engine",
    "PlaintextFloatEngine",
    "PlaintextFixedEngine",
    "SecureDStressEngine",
    "NaiveMPCEngine",
    "validate_intra_run_width",
]


def validate_intra_run_width(width, owner: str) -> int:
    """The one rule for what counts as a valid intra-run width.

    Shared by :attr:`Engine.intra_run_width` and the batch planner so the
    two layers can never drift on the rule or the error text.
    """
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise ConfigurationError(
            f"engine {owner!r} declared an invalid shard width / task "
            f"concurrency {width!r}; intra-run width must be a positive int"
        )
    return width


class Engine(ABC):
    """One way of executing a vertex program over a distributed graph."""

    #: Registry name (also stamped on every result this engine produces).
    name: str = "abstract"
    #: Whether :meth:`execute` noises and releases an output — i.e. whether
    #: a run through this engine consumes differential-privacy budget. The
    #: session and batch layers charge the shared accountant based on this.
    #: A windowed release policy forces it on (continual release always
    #: publishes), which :meth:`_configure_release` reflects per instance.
    releases_output: bool = False

    @abstractmethod
    def execute(
        self,
        program: VertexProgram,
        graph: DistributedGraph,
        iterations: int,
        config: DStressConfig,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> RunResult:
        """Run ``program`` for ``iterations`` rounds and normalize the result."""

    def _configure_release(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        """Resolve the constructor's release options into a policy.

        Called by every built-in ``__init__``; a policy that forces a
        release (windowed) flips ``releases_output`` on for this instance
        so the admission layers price the run correctly.
        """
        policy = resolve_release_policy(release, windows, window_epsilon)
        self._release_policy = policy
        self.releases_output = bool(type(self).releases_output or policy.forces_release)

    @property
    def release_policy(self) -> ReleasePolicy:
        """When (and at what budget) this engine's runs release output.

        Defaults to one-shot for engines (including third-party ones) that
        never called :meth:`_configure_release`.
        """
        policy = getattr(self, "_release_policy", None)
        return policy if policy is not None else OneShotRelease()

    def release_label(self, program_name: str) -> str:
        """Audit-ledger label for this engine's releases of ``program_name``."""
        return f"{program_name}-release"

    @property
    def intra_run_width(self) -> int:
        """Widest parallelism one run of this engine deploys internally.

        The batch layer multiplies this into its worker planning so
        ``workers x width`` never oversubscribes the CPU budget. The
        default recognizes the two conventional declarations — process
        ``shards`` (sharded) and asyncio ``tasks`` (async) — and raises
        on an invalid declared value, so every caller (not just the
        batch planner) gets a loud per-engine error rather than a
        nonsensical width. Engines whose ``shards``/``tasks`` attributes
        mean something else should override this property.
        """
        declared = []
        for attr in ("shards", "tasks"):
            value = getattr(self, attr, None)
            if value is None:
                continue
            # any declared value is validated — a non-int declaration
            # (tasks="16") silently meaning width 1 would hide the
            # misdeclaration and defeat the oversubscription cap
            declared.append(validate_intra_run_width(value, self.name))
        return max(declared) if declared else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# -------------------------------------------------------- shared helpers --


def _central_release_noise(
    program: VertexProgram,
    config: DStressConfig,
    pre_noise: float,
    epsilon: float,
    end: int,
    fork_label: Optional[str] = None,
) -> Tuple[float, int]:
    """Central two-sided geometric output noise (plaintext-family engines).

    The secure engine samples this mechanism inside MPC; the plaintext
    family (when a windowed policy forces releases) and the naive baseline
    sample it centrally. The fork is keyed by the cumulative release round
    ``end``, so window ``j`` of any windowed schedule draws the same noise
    as the release at round ``end`` of every other schedule reaching it —
    the bit-identity the windowed property test pins. ``fork_label``
    overrides the key for the naive baseline's historical one-shot stream.
    """
    label = fork_label if fork_label is not None else f"windowed-release-{end}"
    rng = DeterministicRNG(config.seed).fork(label)
    noise_raw = two_sided_geometric_sample(
        config.noise_alpha_for(program.sensitivity, epsilon), rng
    )
    return pre_noise + noise_raw * program.fmt.resolution, noise_raw


def _from_plaintext(
    engine_name: str,
    program: VertexProgram,
    run: PlaintextRun,
    iterations: int,
    started: float,
    graph: Optional[DistributedGraph] = None,
    record: bool = True,
) -> RunResult:
    """Normalize a PlaintextRun, carrying its phase timings and — when the
    graph is known — a synthesized per-link traffic meter, so every
    engine's RunResult exposes the same telemetry shape.

    ``record=False`` defers the ambient-recorder absorption to callers
    (the lifecycle driver, which records once per run) that still attach
    extras afterwards.
    """
    traffic = None
    if graph is not None:
        # round-synchronous byte profile is exact arithmetic: one
        # fixed-point message per directed edge per routed round
        traffic = meter_from_rounds(graph, iterations, program.fmt.total_bits / 8.0)
    result = RunResult(
        engine=engine_name,
        program=program.name,
        aggregate=run.aggregate,
        trajectory=list(run.trajectory),
        iterations=iterations,
        wall_seconds=clock_now() - started,
        traffic=traffic,
        phases=run.phases,
        final_states=run.final_states,
        raw=run,
    )
    if record:
        record_run(result)
    return result


class _CentralNoiseCore(LifecycleCore):
    """Noise stage shared by the plaintext-family cores.

    Expects ``self.program`` / ``self.config`` on the concrete core. The
    default one-shot policy never releases for these engines (``epsilon``
    is ``None`` and the exact value passes through); a windowed policy
    noises each window centrally.
    """

    program: VertexProgram
    config: DStressConfig

    def noise(self, state, pre_noise, epsilon, end):
        if epsilon is None:
            return pre_noise, None
        return _central_release_noise(self.program, self.config, pre_noise, epsilon, end)


# ----------------------------------------------------- plaintext engines --


class _PlaintextCore(_CentralNoiseCore):
    """Float/fixed oracle stages over a resumable
    :class:`~repro.core.rounds.RoundLoop`."""

    def __init__(self, engine, program, graph, config, fixed: bool) -> None:
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config
        self.fixed = fixed
        self.inner = PlaintextEngine(program)
        self.loop = None

    def setup(self, state: RunState) -> None:
        start = self.inner.start_fixed if self.fixed else self.inner.start_float
        self.loop = start(self.graph, state.phases)

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.loop.advance(rounds)
        state.trajectory = list(self.loop.trajectory)

    def aggregate(self, state: RunState) -> float:
        observe = (
            self.inner._aggregate_raw if self.fixed else self.inner._aggregate_float
        )
        return observe(self.loop.states)

    def finalize(self, state: RunState, started: float) -> RunResult:
        finish = self.inner.finish_fixed if self.fixed else self.inner.finish_float
        run = finish(self.loop)
        return _from_plaintext(
            self.engine.name,
            self.program,
            run,
            state.rounds_done,
            started,
            graph=self.graph,
            record=False,
        )


class PlaintextFloatEngine(Engine):
    """The float reference semantics (what a trusted regulator computes)."""

    name = "plaintext"

    def __init__(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _PlaintextCore(self, program, graph, config, fixed=False)
        return run_lifecycle(self, core, program, config, iterations, accountant)


class PlaintextFixedEngine(Engine):
    """Clear evaluation of the MPC circuits — the secure engine's oracle."""

    name = "fixed"

    def __init__(
        self,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _PlaintextCore(self, program, graph, config, fixed=True)
        return run_lifecycle(self, core, program, config, iterations, accountant)


# --------------------------------------------------------- secure engine --


class _SecureCore(LifecycleCore):
    """The full protocol's stages, driving :class:`SecureEngine` windows.

    The two classes are designed together: the core walks the engine's
    internals (``_begin_run``/``_schedule``/``_aggregation_tree``/
    ``_noise_and_reveal``) in the transcript order. This core drains each
    window's schedule; the async variant in :mod:`repro.api.secure_async`
    overrides :meth:`run_window` to dispatch its batches over a bus.
    """

    def __init__(self, engine, program, graph, config) -> None:
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config
        self.inner = SecureEngine(
            program, config, backend=getattr(engine, "backend", "scalar")
        )
        self.ctx = None
        self.tree = None
        self.levels = 1
        self.noisy_raw = 0
        self.pre_noise_raw = 0

    def setup(self, state: RunState) -> None:
        self.ctx = self.inner._begin_run(
            self.graph, sum(state.windows), self.engine.bucket_bounds, state.phases
        )

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        for _ in self.inner._schedule(self.ctx, rounds, first):
            pass
        state.trajectory = list(self.ctx.trajectory)

    def aggregate(self, state: RunState) -> float:
        # the aggregation tree consumes shared randomness, so it runs once
        # per window and hands its root inputs forward to the noise stage
        with timed_phase(self.ctx.phases, "aggregation"):
            self.tree = self.inner._aggregation_tree(self.ctx)
        self.pre_noise_raw = self.tree[3]
        return self.pre_noise_raw * self.program.fmt.resolution

    def noise(self, state, pre_noise, epsilon, end):
        root_inputs, root_width, self.levels, pre_noise_raw = self.tree
        with timed_phase(self.ctx.phases, "aggregation"):
            self.noisy_raw = self.inner._noise_and_reveal(
                self.ctx, root_inputs, root_width, epsilon
            )
        fmt = self.program.fmt
        return self.noisy_raw * fmt.resolution, self.noisy_raw - pre_noise_raw

    def finalize(self, state: RunState, started: float) -> RunResult:
        secure = self.inner._assemble_result(
            self.ctx, self.noisy_raw, self.pre_noise_raw, self.levels
        )
        return RunResult(
            engine=self.engine.name,
            program=self.program.name,
            aggregate=secure.noisy_output,
            trajectory=list(secure.trajectory),
            iterations=state.rounds_done,
            wall_seconds=clock_now() - started,
            pre_noise_aggregate=secure.pre_noise_output,
            noise_raw=secure.noise_raw,
            epsilon=self.config.output_epsilon,
            traffic=secure.traffic,
            phases=secure.phases,
            extras={
                "transfer_count": float(secure.transfer_count),
                "gmw_ot_count": float(secure.gmw_ot_count),
                "aggregation_levels": float(secure.aggregation_levels),
            },
            raw=secure,
        )


class SecureDStressEngine(Engine):
    """The full DStress protocol stack (§3.3–§3.6).

    ``backend="bitsliced"`` swaps the per-gate GMW loop for the numpy
    lane evaluator with its offline/online phase split
    (:mod:`repro.mpc.bitslice`); released outputs and metered traffic are
    bit-identical to the default ``"scalar"`` backend.

    ``bucket_bounds`` enables the §3.7 degree-bucket optimization:
    instead of padding every vertex's circuit to the global degree bound
    D, each vertex uses the smallest bucket that fits its degree (e.g.
    ``[10, 100]``). This reveals each vertex's bucket — roughly its size
    class, which the paper notes is acceptable — in exchange for much
    cheaper MPC steps at low-degree vertices. The computed value is
    unchanged; the cost, and hence the noise draw order, is not.
    """

    name = "secure"
    releases_output = True

    def __init__(
        self,
        backend: str = "scalar",
        bucket_bounds: Optional[Sequence[int]] = None,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.bucket_bounds = check_secure_options(self.name, backend, bucket_bounds)
        self.backend = backend
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _SecureCore(self, program, graph, config)
        return run_lifecycle(self, core, program, config, iterations, accountant)


# -------------------------------------------------------- naive baseline --


class _NaiveCore(_PlaintextCore):
    """The monolithic baseline: fixed-circuit stages + central noise +
    the cubic cost projection."""

    def __init__(self, engine, program, graph, config) -> None:
        super().__init__(engine, program, graph, config, fixed=True)

    def noise(self, state, pre_noise, epsilon, end):
        if epsilon is None:
            return pre_noise, None
        # the historical one-shot noise stream is pinned (seeded results
        # depend on it); windowed releases key their forks by round
        label = (
            "naive-output-noise"
            if self.engine.release_policy.kind == "oneshot"
            else None
        )
        return _central_release_noise(
            self.program, self.config, pre_noise, epsilon, end, fork_label=label
        )

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        if self.engine.estimate_cost:
            parties = min(self.config.block_size, self.engine.max_parties)
            projected, fit = estimate_monolithic_seconds(
                self.graph.num_vertices,
                state.rounds_done,
                self.program.fmt,
                parties=parties,
                sample_sizes=self.engine.sample_sizes,
            )
            result.extras["projected_mpc_seconds"] = projected
            result.extras["fit_coefficient"] = fit.coefficient
        # the monolithic baseline computes centrally: no per-link round
        # traffic exists, but the meter is present (empty) so every
        # engine's RunResult exposes the same key scheme
        result.traffic = TrafficMeter()
        return result


class NaiveMPCEngine(Engine):
    """The §5.5 monolithic-MPC strawman, as an engine backend.

    The baseline computes the *same* DP release as DStress, just as one
    giant circuit among all participants — which is exactly why the paper
    rejects it: the cost is O(N^3) per iteration. Running that circuit for
    real is infeasible beyond a handful of banks even in the paper's
    Wysteria prototype, so this adapter does what §5.5 does:

    * computes the aggregate centrally (the monolithic circuit's output
      equals the reference semantics) and noises it with the same
      two-sided geometric mechanism the DStress aggregation block samples
      in MPC;
    * measures *real* GMW matrix multiplies at small N, fits the cubic,
      and reports the projected monolithic runtime for this graph in
      ``extras["projected_mpc_seconds"]`` (the "287 years" number).

    Set ``estimate_cost=False`` to skip the GMW calibration when only the
    release value matters.
    """

    name = "naive-mpc"
    releases_output = True

    def __init__(
        self,
        estimate_cost: bool = True,
        sample_sizes: Sequence[int] = (2, 3),
        max_parties: int = 3,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.estimate_cost = estimate_cost
        self.sample_sizes = tuple(sample_sizes)
        self.max_parties = max_parties
        self._configure_release(release, windows, window_epsilon)

    def release_label(self, program_name: str) -> str:
        return f"{program_name}-naive-release"

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _NaiveCore(self, program, graph, config)
        return run_lifecycle(self, core, program, config, iterations, accountant)


register_engine("plaintext", PlaintextFloatEngine, aliases=("float", "clear"))
register_engine("fixed", PlaintextFixedEngine, aliases=("plaintext-fixed",))
register_engine("secure", SecureDStressEngine, aliases=("dstress",))
register_engine("naive-mpc", NaiveMPCEngine, aliases=("naive", "monolithic"))
