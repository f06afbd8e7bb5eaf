"""Tests for the multicommodity-flow LP baseline."""

import pytest

pytest.importorskip("scipy")

from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumUser
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.baselines.mcf import MCFRouter
from repro.routing.nfusion import AlgNFusion
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

from tests.conftest import make_diamond_network, make_line_network


@pytest.fixture
def models():
    return LinkModel(fixed_p=0.5), SwapModel(q=0.9)


class TestMCFRouter:
    def test_routes_line_demand(self, line_network, models):
        link, swap = models
        demands = DemandSet([Demand(0, 3, 4)])
        result = MCFRouter().route(line_network, demands, link, swap)
        assert result.num_routed == 1
        flow = result.plan.flow_for(0)
        assert flow.paths[0] == (3, 0, 1, 2, 4)
        assert result.total_rate > 0

    def test_uses_both_diamond_arms(self, models):
        link, swap = models
        network = make_diamond_network()
        demands = DemandSet([Demand(0, 0, 1)])
        result = MCFRouter(max_width=4).route(network, demands, link, swap)
        flow = result.plan.flow_for(0)
        assert flow is not None
        # The LP should spread flow across both arms (a flow-like graph)
        # or at least widen one of them beyond width 1.
        widths = list(flow.edge_widths().values())
        assert flow.num_paths == 2 or max(widths) >= 2

    def test_capacity_respected(self, models):
        link, swap = models
        rng = ensure_rng(31)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 6, rng)
        result = MCFRouter().route(network, demands, link, swap)
        usage = result.plan.qubits_used()
        for switch in network.switches():
            assert usage.get(switch, 0) <= network.qubit_capacity(switch)

    def test_rates_are_probabilities(self, models):
        link, swap = models
        rng = ensure_rng(32)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 5, rng)
        result = MCFRouter().route(network, demands, link, swap)
        for rate in result.demand_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_two_users_one_edge_has_no_equality_rows(self, models):
        """No switches and no bystander users: the LP has only the
        source out-flow row, and ``A_eq`` is left out."""
        link, swap = models
        network = QuantumNetwork()
        network.add_node(QuantumUser(0, Point(0.0, 0.0)))
        network.add_node(QuantumUser(1, Point(1000.0, 0.0)))
        network.add_edge(0, 1)
        demands = DemandSet([Demand(0, 0, 1)])
        result = MCFRouter().route(network, demands, link, swap)
        flow = result.plan.flow_for(0)
        assert flow.paths == [(0, 1)]
        assert flow.edge_widths() == {(0, 1): 3}
        assert result.total_rate == 0.875

    def test_beats_nothing_route_when_disconnected(self, models):
        link, swap = models
        network = make_line_network()
        network.remove_edge(1, 2)
        demands = DemandSet([Demand(0, 3, 4)])
        result = MCFRouter().route(network, demands, link, swap)
        assert result.num_routed == 0
        assert result.total_rate == 0.0

    def test_alg_n_fusion_outperforms_lp_rounding(self, models):
        """The paper's algorithm should beat the LP surrogate (which
        optimises a linear proxy and loses to rounding)."""
        link, swap = models
        rng = ensure_rng(33)
        network = build_network(NetworkConfig(num_switches=30, num_users=6), rng)
        demands = generate_demands(network, 8, rng)
        mcf = MCFRouter().route(network, demands, link, swap).total_rate
        alg = AlgNFusion().route(network, demands, link, swap).total_rate
        assert alg >= mcf
