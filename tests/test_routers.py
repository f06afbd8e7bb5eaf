"""Unit and integration tests for ALG-N-FUSION and the baselines."""

import pytest

from repro.experiments.harness import sample_seeds
from repro.experiments.scenarios import as_scenario
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.baselines import (
    B1Router,
    MCFRouter,
    QCastNRouter,
    QCastRouter,
)
from repro.routing.nfusion import AlgNFusion
from repro.utils.rng import ensure_rng

from tests.conftest import make_diamond_network

ROUTERS = [AlgNFusion(), QCastRouter(), QCastNRouter(), B1Router(),
           MCFRouter()]


def small_instance(seed=1, num_switches=30, num_states=8):
    rng = ensure_rng(seed)
    network = build_network(
        NetworkConfig(num_switches=num_switches, num_users=6), rng
    )
    demands = generate_demands(network, num_states, rng)
    return network, demands


def paper_grid_seed12_instance():
    """Sample 0 of ``paper-grid`` at seed 12, built the way the sweep
    harness builds a task's instance.  MCF once planned 12 qubits on
    its 10-qubit switch 13 here, by widening a shared edge for free."""
    setting = as_scenario("paper-grid").setting(num_networks=1, seed=12)
    rng = ensure_rng(sample_seeds(setting)[0])
    network = build_network(setting.network, rng)
    demands = generate_demands(network, setting.num_states, rng)
    return network, demands, setting.link_model(), setting.swap_model()


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
class TestEveryRouter:
    def test_result_consistency(self, router):
        network, demands = small_instance()
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        result = router.route(network, demands, link, swap)
        assert result.total_rate == pytest.approx(sum(result.demand_rates.values()))
        assert 0 <= result.num_routed <= len(demands)
        for rate in result.demand_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_capacity_respected(self, router):
        # Instances loop inside the test, so each router keeps its id.
        instances = {
            "small": (*small_instance(seed=2), LinkModel(fixed_p=0.5),
                      SwapModel(q=0.9)),
            "paper-grid seed 12": paper_grid_seed12_instance(),
        }
        for label, (network, demands, link, swap) in instances.items():
            result = router.route(network, demands, link, swap)
            usage = result.plan.qubits_used()
            for switch in network.switches():
                assert usage.get(switch, 0) <= network.qubit_capacity(
                    switch
                ), f"{label}: switch {switch} over capacity"

    def test_routes_are_valid_flow_graphs(self, router):
        network, demands = small_instance(seed=3)
        link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.8)
        result = router.route(network, demands, link, swap)
        demand_by_id = {d.demand_id: d for d in demands}
        for flow in result.plan.flows():
            demand = demand_by_id[flow.demand_id]
            assert flow.source == demand.source
            assert flow.destination == demand.destination
            for path in flow.paths:
                for a, b in zip(path, path[1:]):
                    assert network.has_edge(a, b)

    def test_deterministic(self, router):
        network, demands = small_instance(seed=4)
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        a = router.route(network, demands, link, swap)
        b = router.route(network, demands, link, swap)
        assert a.total_rate == pytest.approx(b.total_rate)
        assert a.demand_rates == b.demand_rates

    def test_rate_monotone_in_q(self, router):
        network, demands = small_instance(seed=5)
        link = LinkModel(fixed_p=0.5)
        low = router.route(network, demands, link, SwapModel(q=0.3)).total_rate
        high = router.route(network, demands, link, SwapModel(q=0.9)).total_rate
        assert high >= low


class TestOrderings:
    def test_alg_n_fusion_dominates_baselines(self):
        """The paper's central claim at the default-style setting."""
        link, swap = LinkModel(fixed_p=0.3), SwapModel(q=0.9)
        wins = 0
        for seed in (1, 2, 3):
            network, demands = small_instance(seed=seed, num_switches=40)
            rates = {
                r.name: r.route(network, demands, link, swap).total_rate
                for r in [AlgNFusion(), QCastRouter(), QCastNRouter(), B1Router()]
            }
            if all(
                rates["ALG-N-FUSION"] >= rates[name] * 0.99
                for name in ("Q-CAST", "Q-CAST-N", "B1")
            ):
                wins += 1
        assert wins >= 2  # dominance may flip on one noisy sample

    def test_nfusion_beats_classic_swapping_at_low_p(self):
        link, swap = LinkModel(fixed_p=0.15), SwapModel(q=0.9)
        network, demands = small_instance(seed=6, num_switches=40)
        alg = AlgNFusion().route(network, demands, link, swap).total_rate
        qcast = QCastRouter().route(network, demands, link, swap).total_rate
        assert alg > 2.0 * qcast  # the n-fusion advantage regime

    def test_qcast_uses_width_one_only(self):
        network, demands = small_instance(seed=7)
        link, swap = LinkModel(fixed_p=0.5), SwapModel()
        result = QCastRouter().route(network, demands, link, swap)
        for flow in result.plan.flows():
            assert flow.num_paths == 1
            assert set(flow.edge_widths().values()) == {1}
        # Q-CAST is Q-CAST-N restricted to width 1.
        width_one = QCastNRouter(max_width=1).route(
            network, demands, link, swap
        )
        assert result.demand_rates == width_one.demand_rates
        assert [(f.demand_id, f.paths) for f in result.plan.flows()] == [
            (f.demand_id, f.paths) for f in width_one.plan.flows()
        ]

    def test_b1_respects_its_caps(self):
        network, demands = small_instance(seed=8)
        result = B1Router().route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        for flow in result.plan.flows():
            assert flow.num_paths <= 2
            assert max(flow.edge_widths().values()) <= 2
            for node in flow.nodes():
                if network.node(node).is_switch:
                    assert flow.fusion_arity(node) <= 4

    def test_alg3_only_is_no_better_than_full(self):
        network, demands = small_instance(seed=9)
        link, swap = LinkModel(fixed_p=0.4), SwapModel()
        full = AlgNFusion().route(network, demands, link, swap).total_rate
        partial = AlgNFusion(include_alg4=False).route(
            network, demands, link, swap
        ).total_rate
        assert full >= partial - 1e-9

    def test_admission_policies_both_work(self):
        network, demands = small_instance(seed=10)
        link, swap = LinkModel(fixed_p=0.4), SwapModel()
        eff = AlgNFusion(admission_policy="efficiency").route(
            network, demands, link, swap
        )
        wf = AlgNFusion(admission_policy="widest_first").route(
            network, demands, link, swap
        )
        assert eff.total_rate > 0
        assert wf.total_rate > 0

    def test_unknown_policy_raises(self):
        network, demands = small_instance(seed=11)
        with pytest.raises(ValueError):
            AlgNFusion(admission_policy="bogus").route(
                network, demands, LinkModel(fixed_p=0.5), SwapModel()
            )


class TestDiamondScenario:
    def test_alg_merges_diamond_into_flow_graph(self):
        network = make_diamond_network()
        demands = DemandSet([Demand(0, 0, 1)])
        link, swap = LinkModel(fixed_p=0.3), SwapModel(q=0.9)
        result = AlgNFusion().route(network, demands, link, swap)
        flow = result.plan.flow_for(0)
        assert flow is not None
        # Both arms should be used: either as branches or via Alg-4 widths.
        assert len(flow.edges()) >= 3
        assert result.total_rate > QCastRouter().route(
            network, demands, link, swap
        ).total_rate
