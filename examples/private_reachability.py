"""Writing a custom vertex program: private k-hop reachability.

DStress is not finance-specific — §3.1 lists cloud reliability, criminal
intelligence and social-science graphs as applications. This example
implements a new vertex program from scratch against the public API: count
how many organizations an outage/compromise starting at some seed set can
reach within n hops, without any organization revealing its dependencies.

The program per vertex: state ``reached`` (0/1, seeds start at 1) and
``contribution`` (the aggregate register); each round a vertex tells its
out-neighbors whether it has been reached, and becomes reached if any
in-neighbor was. The released output is the differentially private count
of reached vertices.

Run: python examples/private_reachability.py
"""

from typing import Dict, List, Tuple

from repro import (
    DStressConfig,
    DistributedGraph,
    FixedPointFormat,
    PlaintextEngine,
    StressTest,
    VertexProgram,
    VertexView,
)
from repro.crypto.group import TOY_GROUP_64
from repro.mpc.circuit import Circuit


class ReachabilityProgram(VertexProgram):
    """Breadth-first reachability as a DStress vertex program."""

    @property
    def name(self) -> str:
        return "k-hop-reachability"

    @property
    def sensitivity(self) -> float:
        # Adding/removing one edge can change the count by at most the
        # number of vertices it newly connects; for a degree-bounded DAG
        # segment we declare a conservative unit-per-vertex bound of 1
        # per protected relationship (demo value).
        return 1.0

    @property
    def aggregate_register(self) -> str:
        return "contribution"

    def state_registers(self, degree_bound: int) -> List[str]:
        return ["reached", "contribution"]

    def initial_state(self, vertex: VertexView, degree_bound: int) -> Dict[str, float]:
        seed = vertex.data.get("seed", 0.0)
        return {"reached": seed, "contribution": seed}

    def float_update(
        self, state: Dict[str, float], messages: List[float], degree_bound: int
    ) -> Tuple[Dict[str, float], List[float]]:
        reached = state["reached"]
        if any(m > 0.5 for m in messages):
            reached = 1.0
        new_state = {"reached": reached, "contribution": reached}
        return new_state, [reached] * degree_bound

    def build_update_circuit(self, degree_bound: int) -> Circuit:
        builder = self.new_builder()
        fmt = self.fmt
        reached = builder.fx_input("reached")
        builder.fx_input("contribution")
        messages = [builder.fx_input(f"msg_in_{t}") for t in range(degree_bound)]

        half = builder.fx_const(0.5)
        one = builder.fx_const(1.0)
        incoming = [builder.lt_signed(half, message) for message in messages]
        already = builder.lt_signed(half, reached)
        now_reached = builder.or_tree(incoming + [already])
        reached_bus = builder.mux(now_reached, one, builder.fx_const(0.0))

        builder.output_bus("reached", reached_bus)
        builder.output_bus("contribution", reached_bus)
        for t in range(degree_bound):
            builder.output_bus(f"msg_out_{t}", reached_bus)
        return builder.circuit


def build_dependency_graph() -> DistributedGraph:
    """Eight organizations; 0 and 1 are initially compromised."""
    graph = DistributedGraph(degree_bound=2)
    seeds = {0, 1}
    for org in range(8):
        graph.add_vertex(org, seed=1.0 if org in seeds else 0.0)
    for src, dst in [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 7)]:
        graph.add_edge(src, dst)
    return graph


def main() -> None:
    fmt = FixedPointFormat(16, 8)
    program = ReachabilityProgram(fmt)
    graph = build_dependency_graph()
    hops = 4

    clear = PlaintextEngine(program).run_float(graph, iterations=hops)
    print(f"exact organizations reached within {hops} hops: {clear.aggregate:.0f}")

    config = DStressConfig(
        collusion_bound=2,
        fmt=fmt,
        group=TOY_GROUP_64,
        dlog_half_width=300,
        edge_noise_alpha=0.4,
        output_epsilon=0.8,
        seed=11,
    )
    result = (
        StressTest()
        .graph(graph)
        .program(program)
        .engine("secure")
        .configure(config)
        .run(iterations=hops)
    )
    print(f"released (DP) count:  {result.aggregate:.2f}")
    print(
        f"protocol work: {result.raw.gmw_ot_count:,} OTs, "
        f"{result.raw.transfer_count} edge transfers, "
        f"{result.traffic.total_bytes_sent / 1e6:.2f} MB total"
    )


if __name__ == "__main__":
    main()
