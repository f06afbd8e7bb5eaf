"""Tests for time-slotted simulation."""

import pytest

from repro.exceptions import SimulationError
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.plan import RoutingPlan
from repro.simulation.timeline import TimeSlottedSimulator
from repro.utils.rng import ensure_rng


def diamond_plan(width=1):
    plan = RoutingPlan()
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path([0, 2, 3, 1], width=width)
    flow.add_path([0, 4, 5, 1], width=width)
    plan.add_flow(flow)
    return plan


class TestTimeSlottedSimulator:
    def test_throughput_matches_analytic_rate(self, diamond_network):
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        plan = diamond_plan()
        analytic = plan.total_rate(diamond_network, link, swap)
        sim = TimeSlottedSimulator(diamond_network, link, swap, ensure_rng(1))
        result = sim.run(plan, num_slots=20_000)
        assert result.throughput_per_slot == pytest.approx(analytic, abs=0.02)
        assert result.total_delivered == result.delivered_per_demand[0]

    def test_waiting_time_is_geometric(self, diamond_network):
        """Mean waiting time over many short runs ~ 1 / rate."""
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        plan = diamond_plan()
        rate = plan.total_rate(diamond_network, link, swap)
        sim = TimeSlottedSimulator(diamond_network, link, swap, ensure_rng(2))
        waits = []
        for _ in range(400):
            result = sim.run(plan, num_slots=200)
            wait = result.waiting_time[0]
            if wait is not None:
                waits.append(wait)
        mean_wait = sum(waits) / len(waits)
        assert mean_wait == pytest.approx(1.0 / rate, rel=0.15)

    def test_never_succeeding_demand(self, diamond_network):
        sim = TimeSlottedSimulator(
            diamond_network, LinkModel(fixed_p=0.0), SwapModel(q=1.0),
            ensure_rng(3),
        )
        result = sim.run(diamond_plan(), num_slots=50)
        assert result.total_delivered == 0
        assert result.waiting_time[0] is None
        assert result.mean_waiting_time() is None

    def test_slot_validation(self, diamond_network):
        sim = TimeSlottedSimulator(diamond_network, rng=ensure_rng(1))
        with pytest.raises(SimulationError):
            sim.run(diamond_plan(), num_slots=0)
