"""The benchmark's workloads: input generation, timed ops and checks.

Every input is a pure function of the benchmark seed.  A workload runs
in *units* (one sweep pass, or one serve replication).  The number of
units is fixed by the run length alone — ``ceil(seconds /
unit_seconds)``, where ``unit_seconds`` is a unit's nominal cost — so a
run does the same work whatever the machine's speed: rates and ratios
repeat exactly for a seed, and a fast run never covers a different
mix of ops than a slow one.

Load model: one client, closed loop.  The next op starts when the
previous one returns; a serve replication replays its simulated event
stream as fast as the program handles it, so the Poisson rate sets
ledger occupancy, not wall-clock load.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

# Traced functions are called through their modules (``harness.``,
# ``builder.``, ``serve_loop.``, ``fault_model.``) so that the traced
# run's patches, applied after this import, take effect.
from repro.experiments import harness
from repro.experiments.runner import standard_specs
from repro.experiments.scenarios import as_scenario
from repro.experiments.topology_compare import DEFAULT_COMPARE_SCENARIOS
from repro.network import builder
from repro.routing.registry import make_router, parse_router_specs
from repro.service import faults as fault_model
from repro.service import loop as serve_loop
from repro.service.arrivals import parse_arrivals, poisson_events
from repro.utils.rng import ensure_rng

SERVE_SCENARIO = "paper-default"
SERVE_ARRIVALS = "poisson:rate=2.0,hold=exp:mean=30"
SERVE_ROUTER = "alg-n-fusion:include_alg4=false"
SERVE_REPLAN = "incremental"
SERVE_DURATION = 200.0
SERVE_WARMUP = 20.0
SERVE_FAULTS = "faults:link_mtbf=60,link_mttr=15,switch_p=0.01"
SERVE_REPAIR = "reroute:retries=2,backoff=exp:base=0.5"
ROUTE_800_SCENARIO = "waxman:switches=800"

#: Spans every ALG-N-FUSION route fires, batch or online.
_NFUSION_SPANS = (
    "compiled.compile", "compiled.search", "compiled.batch",
    "alg2.select", "alg3.admit", "flow_graph.eq1", "flow_graph.add_path",
    "flow_graph.copy",
)


@dataclass
class UnitResult:
    """One unit's timings, output and check outcome."""

    ops: int
    failed: int
    wall_s: float
    op_times_s: List[float]
    output: object = None
    quality: Tuple = ()
    problems: List[str] = field(default_factory=list)
    repair_times_s: List[float] = field(default_factory=list)


class CapturingRouter:
    """Forwards ``route`` to a router and keeps the last call's inputs
    and result, so the plan can be checked after the op is timed."""

    def __init__(self, router) -> None:
        self.router = router
        self.last = None

    def route(self, network, demands, link_model=None, swap_model=None):
        result = self.router.route(network, demands, link_model, swap_model)
        self.last = (network, demands, result, link_model, swap_model)
        return result


def check_route(network, demands, result,
                plan_rate: Optional[float] = None) -> List[str]:
    """Structural invariants of one routed instance.

    *plan_rate* is the routed plan's rate evaluated afresh (Equation 1,
    no shared rate cache); the router's ``total_rate`` must match it.
    """
    problems = []
    total_rate = result.total_rate
    if not (math.isfinite(total_rate) and total_rate >= 0.0):
        problems.append(f"total rate {total_rate!r} is not a finite >= 0")
    if plan_rate is not None and not math.isclose(
            total_rate, plan_rate, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"total rate {total_rate!r} != the plan's "
                        f"re-evaluated rate {plan_rate!r}")
    demand_ids = {demand.demand_id for demand in demands}
    for demand_id, rate in result.demand_rates.items():
        if demand_id not in demand_ids:
            problems.append(f"rate for unknown demand {demand_id}")
        if not 0.0 <= rate <= 1.0:
            problems.append(f"demand {demand_id} rate {rate!r} outside [0, 1]")
    for node, used in result.plan.qubits_used().items():
        capacity = network.qubit_capacity(node)
        if capacity is not None and used > capacity:
            problems.append(f"node {node} uses {used} qubits of {capacity}")
    return problems


def check_serve(run, arrivals: int, faults: bool) -> List[str]:
    """Structural invariants of one serve replication."""
    m = run.metrics
    problems = []
    if run.mode != SERVE_REPLAN:
        problems.append(f"replan mode {run.mode!r}, expected {SERVE_REPLAN}")
    if len(run.latencies_s) != arrivals:
        problems.append(f"{len(run.latencies_s)} latencies for {arrivals} "
                        "arrivals")
    if not 0 <= m.admitted <= m.arrivals <= arrivals:
        problems.append(f"admitted {m.admitted} / arrivals {m.arrivals}")
    if m.rejected != m.arrivals - m.admitted:
        problems.append(f"rejected {m.rejected} != arrivals - admitted")
    if m.repaired + m.dropped != m.disruptions:
        problems.append(f"repaired {m.repaired} + dropped {m.dropped} != "
                        f"disruptions {m.disruptions}")
    for name in ("admission_ratio", "repair_ratio"):
        if not 0.0 <= getattr(m, name) <= 1.0:
            problems.append(f"{name} {getattr(m, name)!r} outside [0, 1]")
    # Every flow's rate is in [0, 1], so the rate integral cannot
    # exceed the occupancy integral.
    if not 0.0 <= m.throughput <= m.mean_held * (1 + 1e-9) + 1e-12:
        problems.append(f"throughput {m.throughput!r} outside "
                        f"[0, mean_held={m.mean_held!r}]")
    if not faults and (m.disruptions or run.repair_latencies_s):
        problems.append("disruptions without faults")
    return problems


def tail(values: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank *pct* percentile, or ``None`` when fewer than ten
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Workload:
    """Base class: a named unit stream built from one seed."""

    name = ""
    #: Nominal wall time of one unit on a 2-vCPU x86-64 VM (Python
    #: 3.11), which sizes a run: ``units_for(seconds)``.
    unit_seconds = 1.0
    #: Tail percentile of op latency (``None``: too few ops for any).
    tail_pct: Optional[float] = None
    #: Span names whose total is the op wall time.
    roots: Tuple[str, ...] = ()
    #: Spans (or hook counts) that must fire in a traced run.
    expected: Tuple[str, ...] = ()
    faults = False

    def units_for(self, seconds: float) -> int:
        """Units in a run of *seconds* (at least one)."""
        return max(1, math.ceil(seconds / self.unit_seconds - 1e-9))

    def setup(self, seed: int, units: int):
        raise NotImplementedError

    def run_unit(self, inputs, index: int, tracer=None) -> UnitResult:
        raise NotImplementedError

    def quality(self, results: Sequence[UnitResult]) -> Dict[str, float]:
        raise NotImplementedError


class SweepWorkload(Workload):
    """Sweep tasks through ``enumerate_tasks`` + ``execute_task``.

    One unit is one pass: a new sample of every scenario, routed by
    every router.  One op is one sampled instance: its ``execute_task``
    calls for all the routers (the first builds the instance, the rest
    recall it), i.e. one column of the comparison table.  Whole passes
    weigh every router and scenario equally in every run, and an op
    holds the same router mix everywhere, so its median does not jump
    between the fast and the slow routers' clusters.
    """

    scenarios: Tuple[str, ...] = ()

    def routers(self) -> List[CapturingRouter]:
        raise NotImplementedError

    def setup(self, seed: int, units: int):
        routers = self.routers()
        settings = [
            as_scenario(name).setting(num_networks=units, seed=seed)
            for name in self.scenarios
        ]
        tasks = harness.enumerate_tasks(settings, [routers] * len(settings))
        # passes[sample][scenario] lists that instance's tasks, one per
        # router, in router order.
        passes = [[[] for _ in settings] for _ in range(units)]
        for task in tasks:
            passes[task.sample_index][task.setting_index].append(task)
        return passes

    def run_unit(self, passes, index: int, tracer=None) -> UnitResult:
        instances = passes[index]
        unit = UnitResult(ops=len(instances), failed=0, wall_s=0.0,
                          op_times_s=[], output=[], quality=(0, 0.0, 0, 0))
        for tasks in instances:
            if tracer is not None:
                tracer.rec.new_op()
            op_wall = 0.0
            problems = []
            for task in tasks:
                begin = perf_counter()
                try:
                    outcome = harness.execute_task(task)
                except Exception as exc:  # a failed op, counted below
                    outcome = None
                    problems.append(f"task {task.key}: {exc!r}")
                op_wall += perf_counter() - begin
                unit.output.append(outcome.total_rate if outcome else None)
                if outcome is None:
                    continue
                network, demands, result, link_model, swap_model = (
                    task.router.last)
                # The traced worker skips the re-evaluation, whose
                # Equation-1 spans would read as routing work; its
                # untraced twin checks the same units.
                plan_rate = (None if tracer is not None else
                             result.plan.total_rate(network, link_model,
                                                    swap_model))
                problems += [f"task {task.key}: {p}" for p in check_route(
                    network, demands, result, plan_rate)]
                routes, rate, routed, demanded = unit.quality
                unit.quality = (routes + 1, rate + outcome.total_rate,
                                routed + result.num_routed,
                                demanded + len(demands))
            unit.wall_s += op_wall
            unit.op_times_s.append(op_wall)
            if problems:
                unit.failed += 1
                unit.problems += problems
        return unit

    def quality(self, results: Sequence[UnitResult]) -> Dict[str, float]:
        routes = sum(r.quality[0] for r in results)
        rate = sum(r.quality[1] for r in results)
        routed = sum(r.quality[2] for r in results)
        demanded = sum(r.quality[3] for r in results)
        return {
            "entanglement_rate": rate / routes if routes else 0.0,
            "admission_ratio": routed / demanded if demanded else 0.0,
        }


class TopologySweep(SweepWorkload):
    """The ``topology-compare`` grid at paper scale, cold."""

    name = "topology-sweep"
    unit_seconds = 10.0  # one pass: 8 instances x 5 routers
    tail_pct = None  # 16 ops per run: too few for any tail
    roots = ("harness.task",)
    expected = ("harness.task", "network.build", "network.demands",
                *_NFUSION_SPANS, "alg4.assign", "router.alg-n-fusion",
                "router.q-cast", "router.q-cast-n", "router.b1",
                "router.mcf", "mcf.linprog")

    scenarios = DEFAULT_COMPARE_SCENARIOS

    def routers(self):
        return [CapturingRouter(spec.build())
                for spec in standard_specs(include_mcf=True)]


class Route800(SweepWorkload):
    """ALG-N-FUSION alone on fresh 800-switch Waxman instances."""

    name = "route-800"
    scenarios = (ROUTE_800_SCENARIO,)
    # A route takes ~2.8 s; 2.0 buys 10 routes per 20 s run (~28 s),
    # the fewest that keep instance-to-instance variation steady.
    unit_seconds = 2.0
    tail_pct = None  # too few routes per run for any tail
    roots = ("harness.task",)
    expected = ("harness.task", "network.build", "network.demands",
                *_NFUSION_SPANS, "alg4.assign", "router.alg-n-fusion")

    def routers(self):
        return [CapturingRouter(make_router("alg-n-fusion"))]


@dataclass
class ServeInput:
    network: object
    events: list
    timeline: list
    arrivals: int


class ServeInputs:
    """Every replication's inputs, built at set-up.  A used replication
    is dropped, with the snapshot memo its network holds."""

    def __init__(self, workload: "ServeWorkload", seed: int,
                 units: int) -> None:
        self.workload = workload
        self.scenario = as_scenario(SERVE_SCENARIO)
        self.setting = self.scenario.setting(num_networks=units, seed=seed)
        self.built: Dict[int, ServeInput] = {
            index: self._build(sample_seed)
            for index, sample_seed in enumerate(
                harness.sample_seeds(self.setting))
        }

    def take(self, index: int) -> ServeInput:
        return self.built.pop(index)

    def _build(self, seed: int) -> ServeInput:
        network = builder.build_network(self.scenario.network_config(),
                                ensure_rng(seed))
        events = poisson_events(parse_arrivals(SERVE_ARRIVALS), seed,
                                len(network.users()), SERVE_DURATION)
        timeline = []
        if self.workload.faults:
            timeline = fault_model.fault_events(
                fault_model.parse_faults(SERVE_FAULTS), seed, len(network.edge_keys()),
                len(network.switches()), SERVE_DURATION)
        arrivals = sum(1 for event in events if event.time < SERVE_DURATION)
        return ServeInput(network, events, timeline, arrivals)


class ServeWorkload(Workload):
    """``run_serve`` replications; one op is one arrival."""

    name = "serve"
    unit_seconds = 1.25
    tail_pct = 99.0
    roots = ("service.run",)
    expected = ("service.run", "service.route_arrival", "service.release",
                "router.alg-n-fusion.online", *_NFUSION_SPANS,
                "network.build", "events.arrival", "events.departure",
                "service.departures")

    def setup(self, seed: int, units: int) -> ServeInputs:
        return ServeInputs(self, seed, units)

    def run_unit(self, inputs: ServeInputs, index: int,
                 tracer=None) -> UnitResult:
        unit = inputs.take(index)
        router = parse_router_specs(SERVE_ROUTER)[0].build()
        setting = inputs.setting
        if tracer is not None:
            tracer.rec.horizon = SERVE_DURATION
        begin = perf_counter()
        try:
            run = serve_loop.run_serve(
                unit.network, setting.link_model(), setting.swap_model(),
                router, unit.events, SERVE_DURATION, SERVE_WARMUP,
                SERVE_REPLAN, faults=unit.timeline,
                repair=SERVE_REPAIR if self.faults else None,
            )
        except Exception as exc:  # every arrival of the unit failed
            wall = perf_counter() - begin
            return UnitResult(unit.arrivals, unit.arrivals, wall, [],
                              problems=[f"replication {index}: {exc!r}"])
        wall = perf_counter() - begin
        problems = [f"replication {index}: {p}"
                    for p in check_serve(run, unit.arrivals, self.faults)]
        m = run.metrics
        return UnitResult(
            ops=unit.arrivals,
            failed=unit.arrivals if problems else 0,
            wall_s=wall,
            op_times_s=list(run.latencies_s),
            output=dataclasses.asdict(m),
            quality=(m.throughput, m.admitted, m.arrivals, m.repaired,
                     m.disruptions),
            problems=problems,
            repair_times_s=list(run.repair_latencies_s),
        )

    def quality(self, results: Sequence[UnitResult]) -> Dict[str, float]:
        rows = [r.quality for r in results if r.quality]
        admitted = sum(row[1] for row in rows)
        arrivals = sum(row[2] for row in rows)
        repaired = sum(row[3] for row in rows)
        disruptions = sum(row[4] for row in rows)
        return {
            "entanglement_rate": (
                sum(row[0] for row in rows) / len(rows) if rows else 0.0),
            "admission_ratio": admitted / arrivals if arrivals else 0.0,
            "repair_ratio": repaired / disruptions if disruptions else 0.0,
        }


class ServeFaults(ServeWorkload):
    """``serve`` plus link/switch faults and reroute repair."""

    name = "serve-faults"
    faults = True
    unit_seconds = 8.0
    expected = ServeWorkload.expected + (
        "service.mark_edge", "service.mark_switch", "faults.timeline",
        "events.fault", "faults.disruptions", "faults.repaired",
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (TopologySweep(), Route800(), ServeWorkload(),
                     ServeFaults())
}
