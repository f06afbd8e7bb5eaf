"""ALG-N-FUSION — the paper's complete entanglement routing algorithm.

Composes the three steps of Section IV-C:

1. **Path set construction** — Algorithm 2 (Yen + Algorithm 1) builds up
   to ``h`` candidate paths per width for every demand, ignoring resource
   contention between candidates.
2. **Route determination** — Algorithm 3 admits paths widest-and-best
   first, merging same-demand paths into flow-like graphs and charging the
   qubit ledger.
3. **Residual assignment** — Algorithm 4 spends leftover qubits on extra
   parallel links where they raise the entanglement rate most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg2_path_selection import default_max_width, select_paths
from repro.routing.alg3_merge import admit_paths, admit_paths_efficiency
from repro.routing.alg4_residual import assign_remaining_qubits
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.plan import RoutingPlan
from repro.routing.registry import register_router


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of running a routing algorithm on one network + demand set.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name (used in experiment tables).
    plan:
        The chosen routes.
    total_rate:
        Network entanglement rate (expected number of shared states).
    demand_rates:
        Analytic per-demand rates; unrouted demands are absent.
    remaining_qubits:
        Free switch qubits left after routing.
    """

    algorithm: str
    plan: RoutingPlan
    total_rate: float
    demand_rates: Dict[int, float]
    remaining_qubits: int

    @property
    def num_routed(self) -> int:
        """Number of demands that received a route."""
        return len(self.demand_rates)

    @classmethod
    def from_plan(
        cls,
        algorithm: str,
        plan: RoutingPlan,
        ledger: QubitLedger,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        rate_cache: ChannelRateCache,
    ) -> "RoutingResult":
        """The result of a finished *plan* whose charges are in *ledger*:
        per-demand Equation-1 rates, their sum and the free qubits."""
        demand_rates = plan.demand_rates(
            network, link_model, swap_model, rate_cache
        )
        return cls(
            algorithm=algorithm,
            plan=plan,
            total_rate=sum(demand_rates.values()),
            demand_rates=demand_rates,
            remaining_qubits=ledger.total_free_switch_qubits(),
        )


@register_router("alg-n-fusion", aliases=("nfusion", "alg-n"))
@dataclass
class AlgNFusion:
    """The paper's ALG-N-FUSION router.

    Parameters
    ----------
    h:
        Number of candidate paths per width per demand (Algorithm 2's h).
    max_width:
        Largest channel width to consider; defaults to half the largest
        switch capacity (an intermediate switch needs 2w qubits).
    include_alg4:
        Disable to obtain the paper's "Alg-3" ablation series.
    """

    h: int = 3
    max_width: Optional[int] = None
    include_alg4: bool = True
    refill_rounds: int = 2
    admission_policy: str = "efficiency"
    max_hops: Optional[int] = None
    name: str = "ALG-N-FUSION"

    @property
    def algorithm_label(self) -> str:
        """The series label ``route()`` will report, knowable upfront."""
        return self.name if self.include_alg4 else f"{self.name} (Alg-3 only)"

    def with_fidelity_constraint(self, fidelity_model, min_fidelity: float
                                 ) -> "AlgNFusion":
        """A copy whose candidate paths all meet *min_fidelity* end-to-end
        under *fidelity_model* (a hop-count bound in the Werner-product
        model — see :class:`repro.quantum.fidelity.FidelityModel`)."""
        from dataclasses import replace

        return replace(self, max_hops=fidelity_model.max_hops(min_fidelity))

    def _admit(self, network, link_model, swap_model, demands, path_sets,
               flows, ledger, rate_cache=None) -> int:
        """Dispatch one admission sweep to the configured policy."""
        if self.admission_policy == "efficiency":
            return admit_paths_efficiency(
                network, link_model, swap_model, demands, path_sets, flows,
                ledger, rate_cache=rate_cache,
            )
        if self.admission_policy == "widest_first":
            return admit_paths(network, demands, path_sets, flows, ledger)
        raise ValueError(
            f"unknown admission_policy {self.admission_policy!r}; "
            "expected 'efficiency' or 'widest_first'"
        )

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
    ) -> RoutingResult:
        """Compute routes for *demands* and return the analytic result."""
        link_model = link_model or LinkModel()
        return self._plan(
            network, demands, link_model, swap_model or SwapModel(),
            QubitLedger(network), ChannelRateCache(network, link_model),
            frozenset(), frozenset(),
        )

    def route_online(
        self,
        network: QuantumNetwork,
        demand,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
        *,
        ledger: QubitLedger,
        rate_cache: Optional[ChannelRateCache] = None,
        banned_nodes: FrozenSet[int] = frozenset(),
        banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> RoutingResult:
        """Route ONE arriving demand against the residual in *ledger*.

        ``banned_nodes``/``banned_edges`` mask elements out of every
        candidate search (the serving loop passes its down-element
        sets) — decision-identical to routing on a residual view from
        which those elements were removed.

        The serving loop's incremental re-planning interface.  It runs
        the same pipeline as :meth:`route`, only over the caller's
        ledger, so it is decision-identical to :meth:`route` on a
        network whose switch capacities are the ledger's remaining
        counts, and the ``incremental`` and ``resnapshot`` serving
        modes produce the same flows and rates bit-for-bit.  The
        difference is cost: the session-long *rate_cache* (with the
        compiled snapshot and journal-patched relay-feasibility flags
        hanging off it) carries over between arrivals instead of being
        rebuilt per arrival.

        Admitted qubits stay reserved in *ledger* when this returns;
        releasing them when the flow departs is the caller's job.
        """
        link_model = link_model or LinkModel()
        if rate_cache is None:
            rate_cache = ChannelRateCache(network, link_model)
        return self._plan(
            network, DemandSet([demand]), link_model,
            swap_model or SwapModel(), ledger, rate_cache, banned_nodes,
            banned_edges,
        )

    def _plan(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: LinkModel,
        swap_model: SwapModel,
        ledger: QubitLedger,
        rate_cache: ChannelRateCache,
        banned_nodes: FrozenSet[int],
        banned_edges: FrozenSet[Tuple[int, int]],
    ) -> RoutingResult:
        """Steps I-III over *ledger*; one memoised *rate_cache* serves
        every search, admission sweep and rate evaluation."""
        max_width = self.max_width or default_max_width(network, ledger)
        flows: Dict[int, FlowLikeGraph] = {}
        # Step I selects candidate paths against the ledger as it stands
        # (reuse across candidates allowed) and Step II admits them.
        # Candidates can then be blocked by contention while qubits
        # remain elsewhere, so each refill round re-selects paths for
        # every demand against the *residual* ledger — a residual path
        # can serve an unrouted demand or merge into an existing flow
        # as an extra branch — and runs the same admission policy.
        # This keeps ALG-N-FUSION a strict superset of the baselines
        # (see "Implementation decisions" in the README; the paper's
        # Algorithm 3 leaves the contention-blocked case unspecified).
        for _ in range(1 + self.refill_rounds):
            path_sets = {}
            for demand in demands:
                selected = select_paths(
                    network,
                    link_model,
                    swap_model,
                    demand,
                    h=self.h,
                    max_width=max_width,
                    ledger=ledger,
                    max_hops=self.max_hops,
                    rate_cache=rate_cache,
                    banned_nodes=banned_nodes,
                    banned_edges=banned_edges,
                )
                if selected:
                    path_sets[demand.demand_id] = selected
            if not path_sets:
                break
            if self._admit(network, link_model, swap_model, demands,
                           path_sets, flows, ledger, rate_cache) == 0:
                break

        plan = RoutingPlan()
        for flow in flows.values():
            plan.add_flow(flow)

        # Step III: spend the leftovers.
        if self.include_alg4:
            assign_remaining_qubits(
                network, link_model, swap_model, plan, ledger,
                rate_cache=rate_cache,
            )
        return RoutingResult.from_plan(
            self.algorithm_label, plan, ledger, network, link_model,
            swap_model, rate_cache,
        )
