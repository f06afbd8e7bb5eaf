#!/usr/bin/env python3
"""Operational view: time slots, waiting times and online arrivals.

Two extensions beyond the paper's one-shot evaluation:

1. **Time-slotted throughput** — the routed plan is executed over many
   slots; per-slot delivery and waiting time (slots until a pair first
   shares a state) are measured and compared with the analytic rate.
2. **Online serving** — demands arrive as a Poisson process, hold their
   qubits for an exponential time and depart; each arrival is routed
   against the capacity earlier flows left behind
   (:func:`repro.service.run_serve`).  ALG-N-FUSION and the
   classic-swapping Q-CAST serve the same event stream.

Run:  python examples/online_operation.py
"""

from repro import (
    AlgNFusion,
    LinkModel,
    NetworkConfig,
    QCastRouter,
    SwapModel,
    build_network,
    generate_demands,
)
from repro.service import parse_arrivals, poisson_events, run_serve
from repro.simulation.timeline import TimeSlottedSimulator
from repro.utils.rng import ensure_rng
from repro.utils.tables import AsciiTable


def timeline_demo(network, link, swap) -> None:
    demands = generate_demands(network, 8, ensure_rng(2))
    result = AlgNFusion().route(network, demands, link, swap)
    simulator = TimeSlottedSimulator(network, link, swap, ensure_rng(3))
    run = simulator.run(result.plan, num_slots=2000)
    print("=== time-slotted execution (2000 slots) ===")
    print(f"analytic rate     : {result.total_rate:.3f} states/slot")
    print(f"measured          : {run.throughput_per_slot:.3f} states/slot")
    mean_wait = run.mean_waiting_time()
    print(f"mean waiting time : {mean_wait:.1f} slots to first state\n"
          if mean_wait else "no demand ever succeeded\n")


def online_demo(network, link, swap) -> None:
    duration, warmup = 60.0, 10.0
    spec = parse_arrivals("poisson:rate=2.0,hold=exp:mean=5")
    events = poisson_events(spec, 4, len(network.users()), duration)
    print(f"=== online arrivals (Poisson rate 2, mean hold 5, "
          f"window [{warmup:g}, {duration:g})) ===")
    table = AsciiTable(
        ["router", "arrivals", "admitted", "ratio", "E[states]"]
    )
    # Algorithm 4 stays off, as in `serve`: spending every leftover qubit
    # on the current flows would starve the arrivals behind them.
    for router in (AlgNFusion(include_alg4=False), QCastRouter()):
        metrics = run_serve(
            network, link, swap, router, events, duration, warmup
        ).metrics
        table.add_row(
            [router.name, metrics.arrivals, metrics.admitted,
             metrics.admission_ratio, metrics.throughput]
        )
    print(table.render())
    print(
        "\nSame arrivals, same network: Q-CAST fits more single width-1 "
        "paths, while the n-fusion router's wider flow-like graphs "
        "deliver more entanglement per unit time (E[states])."
    )


def main() -> None:
    network = build_network(NetworkConfig(num_switches=40, num_users=8),
                            ensure_rng(1))
    link, swap = LinkModel(fixed_p=0.45), SwapModel(q=0.9)
    timeline_demo(network, link, swap)
    online_demo(network, link, swap)


if __name__ == "__main__":
    main()
