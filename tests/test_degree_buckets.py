"""Tests for the §3.7 degree-bucket optimization in the secure engines."""

import pytest

from repro import StressTest
from repro.api import Scenario, ScenarioCache, get_engine, run_fingerprint
from repro.core.config import DStressConfig
from repro.core.engine import PlaintextEngine
from repro.crypto.group import TOY_GROUP_64
from repro.exceptions import ConfigurationError
from repro.finance import Bank, EisenbergNoeProgram, FinancialNetwork
from repro.mpc.fixedpoint import FixedPointFormat

FMT = FixedPointFormat(16, 8)


def hub_network() -> FinancialNetwork:
    """One hub bank owing three others, which owe nothing: degrees 3/1."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=1.0))  # hub, under-reserved
    for i in (1, 2, 3):
        net.add_bank(Bank(i, cash=1.0))
        net.add_debt(0, i, 2.0)
    net.add_bank(Bank(4, cash=0.2))
    net.add_debt(4, 0, 1.0)
    return net


def config(**overrides):
    defaults = dict(
        collusion_bound=2,
        fmt=FMT,
        group=TOY_GROUP_64,
        dlog_half_width=300,
        edge_noise_alpha=0.4,
        output_epsilon=0.5,
        seed=13,
    )
    defaults.update(overrides)
    return DStressConfig(**defaults)


def session(engine="secure", cfg=None, **options) -> StressTest:
    return (
        StressTest(hub_network())
        .program("eisenberg-noe")
        .configure(cfg if cfg is not None else config())
        .degree_bound(3)
        .engine(engine, **options)
    )


def oracle(iterations):
    graph = hub_network().to_en_graph(degree_bound=3)
    return PlaintextEngine(EisenbergNoeProgram(FMT)).run_fixed(graph, iterations)


#: The hub network at ``degree_bound=3``, seed 13, three iterations, as
#: the retired sequential driver released it (both GMW backends agree):
#: noisy output, noise LSBs, pre-noise output, OTs, transfers, total bytes.
GOLDEN = {
    (1, 3): (13.6484375, 2059, 5.60546875, 430344, 12, 7844717.375),
    None: (15.81640625, 2614, 5.60546875, 607560, 12, 11034881.375),
}


def _released(result):
    secure = result.raw
    return (
        result.aggregate,
        result.noise_raw,
        result.pre_noise_aggregate,
        secure.gmw_ot_count,
        secure.transfer_count,
        result.traffic.total_bytes_sent,
    )


class TestGoldenPin:
    @pytest.mark.parametrize("backend", ["scalar", "bitsliced"])
    @pytest.mark.parametrize("buckets", [(1, 3), None], ids=["buckets", "uniform"])
    def test_secure_release_is_pinned(self, backend, buckets):
        bounds = list(buckets) if buckets is not None else None
        result = session(backend=backend, bucket_bounds=bounds).run(iterations=3)
        assert _released(result) == GOLDEN[buckets]

    def test_secure_async_release_is_pinned(self):
        result = session(
            "secure-async", backend="bitsliced", bucket_bounds=[1, 3]
        ).run(iterations=3)
        assert _released(result) == GOLDEN[(1, 3)]


class TestBuckets:
    def test_bucketed_output_matches_uniform(self):
        """Buckets change cost, never the computed value."""
        uniform = session(backend="bitsliced").run(iterations=3)
        bucketed = session(backend="bitsliced", bucket_bounds=[1, 3]).run(iterations=3)
        assert bucketed.pre_noise_aggregate == uniform.pre_noise_aggregate
        assert bucketed.pre_noise_aggregate == pytest.approx(
            oracle(3).aggregate, abs=1e-12
        )

    def test_buckets_reduce_ot_count(self):
        """Low-degree vertices run the small circuit: fewer OTs overall.

        The EN circuit's divider is degree-independent, so per-vertex
        savings are bounded; 4 of 5 vertices on the small circuit still
        shaves ~30% here (and far more at the paper's D=100)."""
        uniform = session(backend="bitsliced").run(iterations=2)
        bucketed = session(backend="bitsliced", bucket_bounds=[1, 3]).run(iterations=2)
        assert bucketed.raw.gmw_ot_count < 0.75 * uniform.raw.gmw_ot_count

    def test_largest_bucket_must_cover_max_degree(self):
        with pytest.raises(ConfigurationError, match="maximum degree 3"):
            session(bucket_bounds=[1, 2]).run(iterations=1)

    def test_single_bucket_equals_uniform(self):
        uniform = session(backend="bitsliced").run(iterations=2)
        single = session(backend="bitsliced", bucket_bounds=[3]).run(iterations=2)
        assert single.raw.gmw_ot_count == uniform.raw.gmw_ot_count
        assert single.aggregate == uniform.aggregate

    def test_buckets_with_padded_transfers(self):
        """Padding interacts with buckets: each vertex pads to its own
        bucket bound, not the global one."""
        graph = hub_network().to_en_graph(degree_bound=3)
        result = session(
            cfg=config(pad_transfers=True), backend="bitsliced", bucket_bounds=[1, 3]
        ).run(iterations=1)
        # transfers = real edges (4) + padding up to each vertex's bound.
        assert result.raw.transfer_count >= graph.num_edges
        assert result.pre_noise_aggregate == pytest.approx(
            oracle(1).aggregate, abs=1e-12
        )


class TestBucketOption:
    @pytest.mark.parametrize("engine", ["secure", "secure-async"])
    @pytest.mark.parametrize(
        "bounds", [[0, 3], [], [True, 3], [1.5, 3], "13", 3, [-1]]
    )
    def test_invalid_bucket_values(self, engine, bounds):
        with pytest.raises(ConfigurationError, match=f"engine '{engine}'"):
            get_engine(engine, bucket_bounds=bounds)

    @pytest.mark.parametrize("engine", ["secure", "secure-async"])
    def test_invalid_backend_refused_at_construction(self, engine):
        with pytest.raises(ConfigurationError, match=f"engine '{engine}' has no backend"):
            get_engine(engine, backend="vectorized")

    def test_bounds_stored_sorted(self):
        assert get_engine("secure", bucket_bounds=[3, 1, 3]).bucket_bounds == (1, 3)
        assert get_engine("secure-async").bucket_bounds is None

    def test_fingerprint_keys_on_bucket_bounds(self):
        uniform = run_fingerprint(session().resolve(iterations=3))
        bucketed = run_fingerprint(session(bucket_bounds=[1, 3]).resolve(iterations=3))
        reordered = run_fingerprint(session(bucket_bounds=[3, 1]).resolve(iterations=3))
        assert None not in (uniform, bucketed)
        assert uniform != bucketed
        assert bucketed == reordered

    def test_cache_never_serves_uniform_release_to_buckets(self):
        cache = ScenarioCache()
        template = session(backend="bitsliced")
        first = template.run_many([Scenario("uniform", iterations=3)], cache=cache)
        second = template.run_many(
            [
                Scenario(
                    "bucketed",
                    iterations=3,
                    engine="secure",
                    engine_options={"backend": "bitsliced", "bucket_bounds": [1, 3]},
                )
            ],
            cache=cache,
        )
        assert (second.cache_hits, second.cache_misses) == (0, 1)
        assert first.by_name("uniform").result.aggregate == GOLDEN[None][0]
        assert second.by_name("bucketed").result.aggregate == GOLDEN[(1, 3)][0]
