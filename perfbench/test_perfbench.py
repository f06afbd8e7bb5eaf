"""Cheap self-tests of the benchmark itself (inputs, checks, spans)."""

import dataclasses
import math

import pytest

from perfbench import tracing
from perfbench.worker import measure
from perfbench.workloads import (WORKLOADS, UnitResult, Workload,
                                 check_route, check_serve, tail)


def _sweep_key(passes):
    return [(t.setting_index, t.sample_index, t.router_index, t.sample_seed,
             t.setting)
            for instances in passes for tasks in instances for t in tasks]


def _serve_key(inputs):
    return [(tuple(unit.network.edge_keys()), tuple(unit.events),
             tuple(unit.timeline))
            for _, unit in sorted(inputs.built.items())]


@pytest.mark.parametrize("name, key", [
    ("topology-sweep", _sweep_key),
    ("route-800", _sweep_key),
    ("serve-faults", _serve_key),
])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, key):
    workload = WORKLOADS[name]
    units = workload.units_for(3.0)
    first = key(workload.setup(3, units))
    assert first == key(workload.setup(3, units))
    assert first != key(workload.setup(4, units))


def _small_route():
    from repro.network.builder import NetworkConfig, build_network
    from repro.network.demands import generate_demands
    from repro.quantum import LinkModel, SwapModel
    from repro.routing.registry import make_router
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(5)
    network = build_network(NetworkConfig(num_switches=20, num_users=6), rng)
    demands = generate_demands(network, 4, rng)
    result = make_router("alg-n-fusion").route(network, demands)
    plan_rate = result.plan.total_rate(network, LinkModel(), SwapModel())
    return network, demands, result, plan_rate


def test_route_checker_accepts_a_route_and_rejects_perturbed_rates():
    network, demands, result, plan_rate = _small_route()
    assert check_route(network, demands, result, plan_rate) == []
    nudged = dataclasses.replace(result, total_rate=result.total_rate * 1.001)
    assert check_route(network, demands, nudged, plan_rate)
    some_id = next(iter(result.demand_rates))
    too_high = dataclasses.replace(
        result, demand_rates={**result.demand_rates, some_id: 1.25})
    assert check_route(network, demands, too_high, plan_rate)


def test_serve_checker_rejects_broken_accounting():
    from repro.service import ServeMetrics, ServeRun

    good = ServeMetrics(arrivals=10, admitted=4, rejected=6,
                        admission_ratio=0.4, throughput=1.5, mean_held=2.0,
                        mean_hold=3.0, disruptions=3, repaired=2, dropped=1,
                        repair_ratio=2 / 3)
    run = ServeRun(metrics=good, latencies_s=[0.001] * 12,
                   mode="incremental", repair_latencies_s=[0.002] * 3)
    assert check_serve(run, 12, faults=True) == []
    for change in ({"dropped": 2}, {"admitted": 11},
                   {"throughput": 2.5}, {"admission_ratio": 1.5}):
        bad = dataclasses.replace(run, metrics=dataclasses.replace(
            good, **change))
        assert check_serve(bad, 12, faults=True), change
    assert check_serve(run, 12, faults=False)


class _FixedOutput(Workload):
    name = "fixed"

    def run_unit(self, inputs, index, tracer=None):
        return UnitResult(ops=1, failed=0, wall_s=0.0, op_times_s=[0.0],
                          output=0.1 * (index + 1))


def test_a_perturbed_pin_fails_the_unit():
    workload = _FixedOutput()
    results = measure(workload, None, 2, pins=[0.1, 0.2])
    assert [r.failed for r in results] == [0, 0]
    perturbed = [0.1, math.nextafter(0.2, 1.0)]
    results = measure(workload, None, 2, pins=perturbed)
    assert [r.failed for r in results] == [0, 1]
    assert "pinned" in results[1].problems[0]


def test_self_times_subtract_the_union_of_children():
    rec = tracing.Recorder()
    root = rec.add("harness.task", 20.0, 30.0, -1, 0)
    # Overlapping children count once, clipped to the parent.
    rec.add("network.build", 19.0, 24.0, root, 0)
    rec.add("network.demands", 22.0, 26.0, root, 0)
    selfs = tracing.self_times(rec.parent, rec.start, rec.end)
    assert selfs == pytest.approx([4.0, 5.0, 4.0])


def test_layer_self_times_of_a_nested_span_tree_add_up_to_op_wall():
    rec = tracing.Recorder()
    root = rec.add("harness.task", 0.0, 10.0, -1, 0)
    route = rec.add("router.b1", 1.0, 4.0, root, 0)
    rec.add("alg2.select", 2.0, 3.0, route, 0)
    rec.add("router.q-cast", 5.0, 9.0, root, 0)
    other = rec.add("harness.task", 20.0, 30.0, -1, 1)
    rec.add("network.build", 21.0, 26.0, other, 1)
    rec.add("network.build", 40.0, 41.0, -1, -1)  # set-up, not an op
    selfs = tracing.self_times(rec.parent, rec.start, rec.end)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0, 5.0, 5.0, 1.0])

    layer_of = {t.span: t.layer for t in tracing.TARGETS}
    summary = tracing.summarize(rec, layer_of, ("harness.task",))
    assert summary["op_wall"] == pytest.approx(20.0)
    layers = summary["layer_self"]
    assert layers["experiments.harness"] == pytest.approx(8.0)
    assert layers["routing.baselines"] == pytest.approx(6.0)
    assert layers["routing.alg2_path_selection"] == pytest.approx(1.0)
    assert layers["network"] == pytest.approx(5.0)
    assert sum(layers.values()) == pytest.approx(summary["op_wall"])
    assert summary["stats"]["network.build"].count == 2


def _target(span):
    return next(t for t in tracing.TARGETS if t.span == span)


def test_coverage_guard_fails_loudly_and_patches_are_undone():
    import repro.routing.alg2_path_selection as alg2
    import repro.routing.nfusion as nfusion

    original = alg2.select_paths
    missing = tracing.Target("gone", "network",
                             "repro.network.builder:no_such_function")
    with pytest.raises(tracing.CoverageError):
        tracing.Tracer((_target("alg2.select"), missing),
                       hook_events=False)
    assert nfusion.select_paths is original

    tracer = tracing.Tracer((_target("alg2.select"),), hook_events=False)
    try:
        assert nfusion.select_paths is alg2.select_paths is not original
        with pytest.raises(tracing.CoverageError, match="alg2.select"):
            tracing.check_fired(tracer.rec, ("alg2.select",))
    finally:
        tracer.close()
    assert nfusion.select_paths is original is alg2.select_paths


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail(list(range(100)), 90.0) == 89
    assert tail(list(range(19)), 50.0) is None
    assert tail(list(range(1000)), 99.0) == 989
