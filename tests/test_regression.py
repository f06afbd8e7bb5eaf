"""Pinned-instance regression tests.

``tests/data/regression_instance.json`` is a frozen topology + demand
set; the rates below were produced by the reviewed implementation.  Any
change to the routing algorithms that shifts these numbers is either a
bug or a deliberate algorithmic change — in the latter case regenerate
the pins (``python -m repro.experiments regen-regression`` rewrites the
fixture bit-exactly from its frozen recipe) and document the change.
"""

import pathlib

import pytest

from repro.experiments.regression import (
    REGRESSION_NUM_DEMANDS,
    build_regression_instance,
    regenerate_regression_fixture,
)
from repro.network.serialization import load_instance, save_instance
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.baselines import B1Router, QCastNRouter, QCastRouter
from repro.routing.baselines.mcf import MCFRouter
from repro.routing.nfusion import AlgNFusion

INSTANCE = pathlib.Path(__file__).parent / "data" / "regression_instance.json"

PINNED_RATES = {
    "ALG-N-FUSION": 4.072143172698226,
    "Q-CAST": 0.9676800000000001,
    "Q-CAST-N": 3.567133129380986,
    "B1": 2.699442708480001,
    "MCF": 2.0499023462399997,
}

ROUTERS = {
    "ALG-N-FUSION": AlgNFusion,
    "Q-CAST": QCastRouter,
    "Q-CAST-N": QCastNRouter,
    "B1": B1Router,
    "MCF": MCFRouter,
}


@pytest.fixture(scope="module")
def instance():
    return load_instance(INSTANCE)


@pytest.mark.parametrize("name", sorted(PINNED_RATES))
def test_pinned_rate(name, instance):
    network, demands = instance
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    result = ROUTERS[name]().route(network, demands, link, swap)
    assert result.total_rate == pytest.approx(PINNED_RATES[name], rel=1e-9)


def test_instance_is_stable(instance):
    network, demands = instance
    assert network.num_nodes == 36
    assert len(demands) == REGRESSION_NUM_DEMANDS
    assert network.is_connected()


def test_fixture_matches_recipe(tmp_path):
    """The committed fixture is exactly what the frozen recipe produces."""
    regenerated = regenerate_regression_fixture(tmp_path / "instance.json")
    assert regenerated.read_bytes() == INSTANCE.read_bytes()


def test_fixture_serialization_round_trip(tmp_path, instance):
    """Saving the loaded fixture reproduces the committed bytes."""
    network, demands = instance
    path = tmp_path / "round_trip.json"
    save_instance(path, network, demands)
    assert path.read_bytes() == INSTANCE.read_bytes()


def test_recipe_routes_like_fixture(instance):
    """The in-memory recipe and the loaded fixture route identically."""
    network, demands = instance
    built_network, built_demands = build_regression_instance()
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    loaded = AlgNFusion().route(network, demands, link, swap)
    built = AlgNFusion().route(built_network, built_demands, link, swap)
    assert loaded.total_rate == built.total_rate
    assert loaded.demand_rates == built.demand_rates
