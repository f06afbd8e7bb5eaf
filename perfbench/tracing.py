"""Spans around the program's public functions, recorded from outside.

The traced run wraps public functions and methods of ``repro`` at run
time; nothing under ``src/`` changes.  A module-level function is
patched in its defining module and in every ``repro`` module that
imported the same object, so ``select_paths`` is traced whether
``repro.routing.nfusion`` or ``repro.routing.baselines.b1`` calls it.

Each span records its name, start, end, parent span and an op id that
every span of one route or one serve event shares.  Spans stay in
memory (flat arrays) and are written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover.

Coverage guard: patching a target that no longer exists raises
:class:`CoverageError`, and so does a run in which a span the workload
expects never fired, so a renamed or deleted function fails the traced
run loudly instead of reporting a zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import types
from array import array
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class CoverageError(RuntimeError):
    """A wrapped function is missing, or an expected span never fired."""


@dataclass(frozen=True)
class Target:
    """One traced function: span name, owning layer and location.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``.
    """

    span: str
    layer: str
    where: str


#: Every traced function.  Layers are the program's modules.
TARGETS: Tuple[Target, ...] = (
    Target("network.build", "network",
           "repro.network.builder:build_network"),
    Target("network.demands", "network",
           "repro.network.demands:generate_demands"),
    Target("compiled.compile", "routing.compiled",
           "repro.routing.compiled:CompiledNetwork.__init__"),
    Target("compiled.search", "routing.compiled",
           "repro.routing.compiled:CompiledNetwork.run_search"),
    Target("compiled.batch", "routing.compiled",
           "repro.routing.compiled:WidthSearchBatch.search_widths"),
    Target("alg2.select", "routing.alg2_path_selection",
           "repro.routing.alg2_path_selection:select_paths"),
    Target("alg3.admit", "routing.alg3_merge",
           "repro.routing.alg3_merge:admit_paths_efficiency"),
    Target("flow_graph.eq1", "routing.flow_graph",
           "repro.routing.flow_graph:FlowLikeGraph.entanglement_rate"),
    Target("flow_graph.add_path", "routing.flow_graph",
           "repro.routing.flow_graph:FlowLikeGraph.add_path"),
    Target("flow_graph.copy", "routing.flow_graph",
           "repro.routing.flow_graph:FlowLikeGraph.copy"),
    Target("alg4.assign", "routing.alg4_residual",
           "repro.routing.alg4_residual:assign_remaining_qubits"),
    Target("router.alg-n-fusion", "routing.nfusion",
           "repro.routing.nfusion:AlgNFusion.route"),
    Target("router.alg-n-fusion.online", "routing.nfusion",
           "repro.routing.nfusion:AlgNFusion.route_online"),
    Target("router.q-cast", "routing.baselines",
           "repro.routing.baselines.qcast:QCastRouter.route"),
    Target("router.q-cast-n", "routing.baselines",
           "repro.routing.baselines.qcast_n:QCastNRouter.route"),
    Target("router.b1", "routing.baselines",
           "repro.routing.baselines.b1:B1Router.route"),
    Target("router.mcf", "routing.baselines",
           "repro.routing.baselines.mcf:MCFRouter.route"),
    # MCFRouter.route imports linprog from scipy.optimize at call time.
    Target("mcf.linprog", "routing.baselines", "scipy.optimize:linprog"),
    Target("harness.task", "experiments.harness",
           "repro.experiments.harness:execute_task"),
    Target("service.run", "service.loop", "repro.service.loop:run_serve"),
    Target("service.route_arrival", "service.loop",
           "repro.service.loop:ServeSession.route_arrival"),
    Target("service.release", "service.loop",
           "repro.service.loop:ServeSession.release_flow"),
    Target("service.mark_edge", "service.loop",
           "repro.service.loop:ServeSession.mark_edge"),
    Target("service.mark_switch", "service.loop",
           "repro.service.loop:ServeSession.mark_switch"),
    Target("faults.timeline", "service.faults",
           "repro.service.faults:fault_events"),
)

LAYERS: Tuple[str, ...] = (
    "network",
    "routing.compiled",
    "routing.alg2_path_selection",
    "routing.alg3_merge",
    "routing.flow_graph",
    "routing.alg4_residual",
    "routing.nfusion",
    "routing.baselines",
    "experiments.harness",
    "service.loop",
    "service.faults",
)

#: The event-heap pop of the serving loop, hooked (not spanned) to give
#: every serve event its own op id and to classify it.
EVENT_POP = "repro.service.loop:heappop"


class Recorder:
    """In-memory span store: one flat array per span field."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        #: Kind of the serve event being handled (set by the heap hook).
        self.event_kind = ""
        #: Events at or after this simulated time are not handled.
        self.horizon = float("inf")
        self.counts: Dict[str, int] = {}
        self._next_op = 0

    def name_id(self, name: str) -> int:
        """The integer id of span *name* (allocated on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_op(self) -> int:
        """Start a new op: spans recorded from now on share its id."""
        self.op_id = self._next_op
        self._next_op += 1
        return self.op_id

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def add(self, name: str, start: float, end: float, parent: int,
            op: int) -> int:
        """Append one finished span (used by tests and tools)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def __len__(self) -> int:
        return len(self.start)


def _wrap(rec: Recorder, nid: int, fn: Callable,
          after: Optional[Callable]) -> Callable:
    names, parents, ops = rec.name, rec.parent, rec.op
    starts, ends = rec.start, rec.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = rec.current
        index = len(starts)
        names.append(nid)
        parents.append(parent)
        ops.append(rec.op_id)
        starts.append(0.0)
        ends.append(0.0)
        rec.current = index
        begin = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = perf_counter()
            starts[index] = begin
            rec.current = parent
        if after is not None:
            after(rec, result)
        return result

    return traced


def _after_route_arrival(rec: Recorder, result) -> None:
    if rec.event_kind == "arrival":
        rec.count("service.admitted", result is not None)
    else:
        rec.count("faults.repaired", result is not None)


def _after_release(rec: Recorder, result) -> None:
    if rec.event_kind == "departure":
        rec.count("service.departures")
    else:
        rec.count("faults.disruptions")


_AFTER = {
    "service.route_arrival": _after_route_arrival,
    "service.release": _after_release,
}


def _event_hook(rec: Recorder, pop: Callable) -> Callable:
    from repro.service.faults import FaultEvent

    def hooked(heap):
        item = pop(heap)
        time, payload = item[0], item[-1]
        if time < rec.horizon:
            if isinstance(payload, FaultEvent):
                kind = "fault"
            elif isinstance(payload, int):
                kind = "departure"
            elif isinstance(payload, tuple):
                kind = "arrival"
            else:
                kind = "retry"
            rec.event_kind = kind
            rec.count("events." + kind)
            rec.new_op()
        return item

    return hooked


def _resolve(where: str):
    """``(owner, attribute)`` for a ``module:name`` or
    ``module:Class.method`` location; raises :class:`CoverageError`."""
    module_name, _, qualname = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise CoverageError(f"cannot import {module_name} for {where}: "
                            f"{exc}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"traced location {where} is gone")
    if not callable(getattr(owner, attr, None)):
        raise CoverageError(f"traced function {where} is gone")
    return owner, attr


def _import_all_repro() -> List:
    """Import every ``repro`` module (so propagation sees them all)."""
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        modules.append(importlib.import_module(info.name))
    return modules


class Tracer:
    """Patches every target with a span wrapper; :meth:`close` undoes it."""

    def __init__(self, targets: Sequence[Target] = TARGETS,
                 hook_events: bool = True) -> None:
        self.rec = Recorder()
        self.layer_of: Dict[str, str] = {}
        self._undo: List[Tuple[object, str, object]] = []
        modules = _import_all_repro()
        try:
            for target in targets:
                self._patch(target, modules)
            if hook_events:
                owner, attr = _resolve(EVENT_POP)
                self._set(owner, attr,
                          _event_hook(self.rec, getattr(owner, attr)))
        except BaseException:
            self.close()
            raise

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, target: Target, modules: Sequence) -> None:
        owner, attr = _resolve(target.where)
        original = getattr(owner, attr)
        self.layer_of[target.span] = target.layer
        nid = self.rec.name_id(target.span)
        wrapper = _wrap(self.rec, nid, original, _AFTER.get(target.span))
        self._set(owner, attr, wrapper)
        if not isinstance(owner, types.ModuleType):
            return
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._set(module, name, wrapper)

    def close(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Analysis


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span)."""
    children: Dict[int, List[int]] = {}
    for index, owner in enumerate(parent):
        if owner >= 0:
            children.setdefault(owner, []).append(index)
    result = []
    for index in range(len(start)):
        lo, hi = start[index], end[index]
        covered = 0.0
        reach = lo
        for child in sorted(children.get(index, ()), key=start.__getitem__):
            c_lo, c_hi = max(start[child], reach), min(end[child], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        result.append((hi - lo) - covered)
    return result


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: Optional[List[float]] = None


def summarize(rec: Recorder, layer_of: Dict[str, str],
              roots: Sequence[str]) -> Dict:
    """Per-name stats, per-layer self time and the op wall time.

    Only spans under a root span (one op) count towards layers and op
    wall time; set-up spans are reported per name only.
    """
    selfs = self_times(rec.parent, rec.start, rec.end)
    root_ids = {rec.name_id(name) for name in roots}
    under_root: List[bool] = []
    stats: Dict[str, SpanStats] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    op_wall = 0.0
    for index, nid in enumerate(rec.name):
        owner = rec.parent[index]
        is_root = nid in root_ids and (owner < 0 or not under_root[owner])
        inside = is_root or (owner >= 0 and under_root[owner])
        under_root.append(inside)
        name = rec.names[nid]
        duration = rec.end[index] - rec.start[index]
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats(
                durations=[] if name.startswith("router.") else None
            )
        entry.count += 1
        entry.total_s += duration
        entry.self_s += selfs[index]
        if entry.durations is not None:
            entry.durations.append(duration)
        if inside:
            layer_self[layer_of[name]] += selfs[index]
        if is_root:
            op_wall += duration
    return {"stats": stats, "layer_self": layer_self, "op_wall": op_wall}


def check_fired(rec: Recorder, expected: Sequence[str]) -> None:
    """Raise :class:`CoverageError` if an expected span never fired."""
    fired = {rec.names[nid] for nid in set(rec.name)}
    fired.update(key for key, value in rec.counts.items() if value)
    missing = sorted(set(expected) - fired)
    if missing:
        raise CoverageError(
            "expected spans never fired: " + ", ".join(missing)
            + " (a traced function was renamed, deleted or bypassed)"
        )


def layer_metrics(summary: Dict, counts: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metric values (every name, zero where unused)."""
    stats: Dict[str, SpanStats] = summary["stats"]

    def get(name: str) -> SpanStats:
        return stats.get(name) or SpanStats(durations=[])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_wall = summary["op_wall"]
    routes = sum(get(n).count for n in stats if n.startswith("router."))
    tasks = get("harness.task").count
    m: Dict[str, float] = {
        "network.build_s": get("network.build").self_s
        + get("network.demands").self_s,
        "network.builds": get("network.build").count,
        "compiled.compile_s": get("compiled.compile").self_s,
        "compiled.compiles": get("compiled.compile").count,
        "compiled.search_s": get("compiled.search").self_s,
        "compiled.searches": get("compiled.search").count,
        "compiled.batch_s": get("compiled.batch").self_s,
        "compiled.batches": get("compiled.batch").count,
        "compiled.searches_per_route": ratio(
            get("compiled.search").count, routes),
        "alg2.select_s": get("alg2.select").self_s,
        "alg2.selects": get("alg2.select").count,
        "alg3.admit_s": get("alg3.admit").self_s,
        "alg3.admits": get("alg3.admit").count,
        "flow_graph.eq1_s": get("flow_graph.eq1").self_s,
        "flow_graph.eq1_calls": get("flow_graph.eq1").count,
        "flow_graph.add_path_s": get("flow_graph.add_path").self_s,
        "flow_graph.copies": get("flow_graph.copy").count,
        "alg4.assign_s": get("alg4.assign").self_s,
        "nfusion.route_s": get("router.alg-n-fusion").self_s
        + get("router.alg-n-fusion.online").self_s,
    }
    for key in ("alg-n-fusion", "q-cast", "q-cast-n", "b1", "mcf"):
        durations = get("router." + key).durations
        if key == "alg-n-fusion":
            durations = durations + get("router." + key + ".online").durations
        m[f"router.{key}.route_ms_p50"] = (
            median(durations) * 1000.0 if durations else 0.0
        )
    m.update({
        "mcf.route_s": get("router.mcf").self_s,
        "mcf.linprog_s": get("mcf.linprog").self_s,
        "harness.tasks": tasks,
        "harness.builds_per_task": ratio(get("network.build").count, tasks),
        "service.loop_s": get("service.run").self_s,
        "service.route_arrival_s": get("service.route_arrival").self_s,
        "service.release_s": get("service.release").self_s,
        "service.releases": get("service.release").count,
        "service.mark_s": get("service.mark_edge").self_s
        + get("service.mark_switch").self_s,
        "service.arrivals": counts.get("events.arrival", 0),
        "service.admitted": counts.get("service.admitted", 0),
        "service.departures": counts.get("service.departures", 0),
        "faults.timeline_s": get("faults.timeline").self_s,
        "faults.events": counts.get("events.fault", 0),
        "faults.disruptions": counts.get("faults.disruptions", 0),
        "faults.repair_attempts": get("service.route_arrival").count
        - counts.get("events.arrival", 0),
        "faults.repaired": counts.get("faults.repaired", 0),
    })
    m["faults.dropped"] = m["faults.disruptions"] - m["faults.repaired"]
    m["faults.attempts_per_repair"] = ratio(
        m["faults.repair_attempts"], m["faults.repaired"])
    for layer, value in summary["layer_self"].items():
        m["share." + layer] = ratio(value, op_wall)
    m["layers.accounted"] = ratio(
        sum(summary["layer_self"].values()), op_wall)
    return m


def write_spans(rec: Recorder, path) -> None:
    """Write every span (columnar JSON, gzip) for offline analysis."""
    document = {
        "names": rec.names,
        "name": rec.name.tolist(),
        "parent": rec.parent.tolist(),
        "op": rec.op.tolist(),
        "start": rec.start.tolist(),
        "end": rec.end.tolist(),
        "counts": rec.counts,
    }
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle)
