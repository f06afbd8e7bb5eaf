"""MCF — multicommodity-flow LP baseline (extension).

Chakraborty et al. ([37] in the paper) route entanglement by solving a
multicommodity-flow linear program.  This baseline adapts that approach
to the paper's model as an additional comparator:

* **Variables** — directed per-demand arc flows ``f[d, (a, b)] >= 0``
  measuring how many parallel links demand *d* places on edge ``{a, b}``
  in direction ``a -> b``.
* **Constraints** — flow conservation at switches (per demand), a source
  out-flow of at most ``max_width`` per demand, and switch qubit
  capacities shared across demands (each unit of flow through a switch
  consumes one qubit per incident direction).
* **Objective** — maximise total delivered flow minus a per-arc cost
  ``-log(p_e * q)``, the LP surrogate for the multiplicative rate metric.

The fractional solution is decomposed into at most ``max_paths`` paths
per demand — each walk follows the highest-flow out-arc, falling back to
BFS over positive-flow arcs, and takes the walked path's bottleneck flow,
rounded, as its width — and each path is admitted
through Algorithm 3's :func:`~repro.routing.alg3_merge.try_admit`, the
same ledger admission ALG-N-FUSION uses: a path that widens an edge the
demand's flow already holds is charged the extra qubits, so a plan never
exceeds a switch's capacity.  The reported entanglement rate is computed
by the identical Equation 1 code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import RoutingError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg3_merge import try_admit
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, path_entanglement_rate
from repro.routing.nfusion import RoutingResult
from repro.routing.paths import PathCandidate
from repro.routing.plan import RoutingPlan
from repro.routing.registry import register_router

Arc = Tuple[int, int]
#: ``(A, b)`` of one constraint block; ``(None, None)`` when it is empty.
_Matrix = Tuple[Optional[object], Optional[np.ndarray]]


@register_router("mcf")
@dataclass
class MCFRouter:
    """LP-relaxation multicommodity-flow router."""

    max_width: int = 3
    max_paths: int = 3
    cost_weight: float = 0.15
    name: str = "MCF"

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
    ) -> RoutingResult:
        """Solve the LP, decompose, admit, and report analytic rates."""
        try:
            from scipy.optimize import linprog
        except ImportError as exc:  # pragma: no cover - scipy is a test dep
            raise RoutingError(
                "MCFRouter requires scipy; install the [test] extra"
            ) from exc
        link_model = link_model or LinkModel()
        swap_model = swap_model or SwapModel()
        demand_list = list(demands)
        arcs = self._arcs(network)
        num_arcs = len(arcs)
        num_vars = len(demand_list) * num_arcs
        # incident[node]: (arc index, +1.0 leaving / -1.0 entering), in
        # ascending arc order — every LP row below reads its nonzeros here.
        incident: Dict[int, List[Tuple[int, float]]] = {
            node: [] for node in network.nodes()
        }
        for i, (a, b) in enumerate(arcs):
            incident[a].append((i, 1.0))
            incident[b].append((i, -1.0))

        q = swap_model.success_probability(2)
        costs: List[float] = []
        for a, b in arcs:
            p = link_model.success_probability(network.edge_length(a, b))
            costs.append(
                self.cost_weight * -math.log(max(p, 1e-9) * max(q, 1e-9))
            )
        objective = np.tile(costs, len(demand_list))
        # Reward delivered flow: -1 per unit leaving the source, +1 per
        # unit re-entering it.
        for d, demand in enumerate(demand_list):
            for i, sign in incident[demand.source]:
                objective[d * num_arcs + i] -= sign

        (a_eq, b_eq), (a_ub, b_ub) = self._constraints(
            network, demand_list, incident, num_arcs
        )
        bounds = [(0.0, float(self.max_width))] * num_vars
        solution = linprog(
            objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        flows_vector = (
            solution.x if solution.status == 0 and solution.x is not None
            else np.zeros(num_vars)
        )

        ledger = QubitLedger(network)
        rate_cache = ChannelRateCache(network, link_model)
        flows: Dict[int, FlowLikeGraph] = {}
        for d, demand in enumerate(demand_list):
            segment = flows_vector[d * num_arcs:(d + 1) * num_arcs].tolist()
            arc_flow = {
                arc: flow for arc, flow in zip(arcs, segment) if flow > 1e-6
            }
            self._decompose_and_admit(
                network, link_model, swap_model, demand, arc_flow, flows,
                ledger, rate_cache,
            )
        plan = RoutingPlan()
        for flow in flows.values():
            plan.add_flow(flow)
        return RoutingResult.from_plan(
            self.name, plan, ledger, network, link_model, swap_model,
            rate_cache,
        )

    # ------------------------------------------------------------------

    def _arcs(self, network: QuantumNetwork) -> List[Arc]:
        arcs: List[Arc] = []
        for edge in network.edges():
            arcs.append((edge.u, edge.v))
            arcs.append((edge.v, edge.u))
        return arcs

    def _constraints(
        self,
        network: QuantumNetwork,
        demand_list: List[Demand],
        incident: Dict[int, List[Tuple[int, float]]],
        num_arcs: int,
    ) -> Tuple[_Matrix, _Matrix]:
        """``((A_eq, b_eq), (A_ub, b_ub))`` read off the incidence map.

        Variable ``d * num_arcs + i`` is demand *d*'s flow on arc *i*.
        Equality rows, per demand: conservation (out - in) at every
        switch, then zero flow at every user other than the demand's
        endpoints (users only source or sink).  ``(None, None)`` when
        there are none.  Inequality rows: one capacity row per switch —
        each unit of undirected width costs the switch one qubit and
        arcs double-count direction, so 0.5 per incident arc of every
        demand — then each demand's source out-flow, capped at
        ``max_width``.
        """
        switches = network.switches()
        bases = [d * num_arcs for d in range(len(demand_list))]
        eq, ub = _LPRows(), _LPRows()
        for base, demand in zip(bases, demand_list):
            for node in switches:
                eq.add([(base + i, sign) for i, sign in incident[node]], 0.0)
            for user in network.users():
                if user not in (demand.source, demand.destination):
                    eq.add([(base + i, 1.0) for i, _ in incident[user]], 0.0)
        for node in switches:
            ub.add(
                [(base + i, 0.5) for base in bases for i, _ in incident[node]],
                float(network.qubit_capacity(node)),
            )
        for base, demand in zip(bases, demand_list):
            ub.add(
                [(base + i, sign) for i, sign in incident[demand.source]],
                float(self.max_width),
            )
        num_vars = len(demand_list) * num_arcs
        return (
            eq.matrix(num_vars) if eq.rhs else (None, None),
            ub.matrix(num_vars),
        )

    def _decompose_and_admit(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        demand: Demand,
        arc_flow: Dict[Arc, float],
        flows: Dict[int, FlowLikeGraph],
        ledger: QubitLedger,
        rate_cache: ChannelRateCache,
    ) -> None:
        """Peel up to ``max_paths`` paths off *arc_flow*; each path's
        width is its bottleneck flow, rounded (at least 1), and each is
        admitted into *flows* through Algorithm 3's :func:`try_admit`,
        which charges *ledger* for new edges and for widening shared
        ones."""
        remaining = dict(arc_flow)
        for _ in range(self.max_paths):
            path = self._extract_path(network, demand, remaining)
            if path is None:
                break
            bottleneck = min(
                remaining[(a, b)] for a, b in zip(path, path[1:])
            )
            width = max(1, int(round(bottleneck)))
            for a, b in zip(path, path[1:]):
                remaining[(a, b)] -= bottleneck
                if remaining[(a, b)] <= 1e-6:
                    del remaining[(a, b)]
            nodes = tuple(path)
            rate = path_entanglement_rate(
                network, link_model, swap_model, nodes, width, rate_cache
            )
            try_admit(
                network, demand,
                PathCandidate(demand.demand_id, nodes, width, rate),
                flows, ledger,
            )

    def _extract_path(
        self,
        network: QuantumNetwork,
        demand: Demand,
        remaining: Dict[Arc, float],
    ) -> Optional[List[int]]:
        """A source-destination path through the residual flow: follow
        the highest-flow out-arc (never revisiting a node), or, if that
        walk stalls, the BFS path over arcs with positive flow."""
        path = self._greedy_walk(network, demand, remaining)
        if path is not None:
            return path
        return self._bfs_walk(network, demand, remaining)

    def _greedy_walk(self, network, demand, remaining):
        path = [demand.source]
        seen = {demand.source}
        current = demand.source
        for _ in range(network.num_nodes):
            if current == demand.destination:
                return path
            candidates = [
                (flow, arc)
                for arc, flow in remaining.items()
                if arc[0] == current and arc[1] not in seen
            ]
            if not candidates:
                return None
            _, best = max(candidates, key=lambda item: item[0])
            current = best[1]
            path.append(current)
            seen.add(current)
        return None

    def _bfs_walk(self, network, demand, remaining):
        parents = {demand.source: None}
        frontier = [demand.source]
        while frontier:
            node = frontier.pop(0)
            if node == demand.destination:
                path = [node]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            for arc in remaining:
                if arc[0] == node and arc[1] not in parents:
                    parents[arc[1]] = node
                    frontier.append(arc[1])
        return None


class _LPRows:
    """LP constraint rows collected in order, as sparse COO triplets."""

    def __init__(self) -> None:
        self.data: List[float] = []
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.rhs: List[float] = []

    def add(self, entries: List[Tuple[int, float]], rhs: float) -> None:
        """Append one row: its ``(variable, coefficient)`` nonzeros."""
        row = len(self.rhs)
        for col, coeff in entries:
            self.data.append(coeff)
            self.rows.append(row)
            self.cols.append(col)
        self.rhs.append(rhs)

    def matrix(self, num_vars: int) -> _Matrix:
        """The rows as ``(csr_matrix, rhs vector)``."""
        from scipy.sparse import csr_matrix

        shape = (len(self.rhs), num_vars)
        return (
            csr_matrix((self.data, (self.rows, self.cols)), shape=shape),
            np.array(self.rhs),
        )
