#!/usr/bin/env python3
"""Provisioning study: where should an ISP build next?

Uses the Equation 4 machinery to answer two of the paper's operator
questions for the Sprint backbone:

1. Which new PoP-to-PoP links most reduce aggregated bit-risk miles,
   and what do diminishing returns look like (Figures 9-10)?
2. For a regional network (Digex), which new peering relationship
   best reduces its interdomain outage exposure (Figure 11)?

Run:
    python examples/provisioning_study.py
"""

from repro import (
    ProvisioningAnalyzer,
    RiskModel,
    best_new_peering,
    corpus_merge,
    network_by_name,
)


def intradomain_study() -> None:
    network = network_by_name("Sprint")
    model = RiskModel.for_network(network)
    analyzer = ProvisioningAnalyzer(network, model)

    print(f"== New links for {network.name} "
          f"({network.pop_count} PoPs, {network.link_count} links) ==\n")
    print("Top five single-link candidates (Equation 4 ranking):")
    for rank, rec in enumerate(analyzer.rank_candidates(top=5), start=1):
        a = rec.candidate.pop_a.split(":", 1)[1]
        b = rec.candidate.pop_b.split(":", 1)[1]
        saving = 1.0 - rec.fraction_of_baseline
        print(f"  {rank}. {a:20s} <-> {b:20s} "
              f"{rec.candidate.length_miles:7.0f} mi  saves {saving:.2%}")

    print("\nGreedy build-out (aggregate bit-risk vs original):")
    for k, rec in enumerate(analyzer.greedy_links(5), start=1):
        a = rec.candidate.pop_a.split(":", 1)[1].split(",")[0]
        b = rec.candidate.pop_b.split(":", 1)[1].split(",")[0]
        print(f"  after {k} link(s): {rec.fraction_of_baseline:.4f} "
              f"(added {a} <-> {b})")


def interdomain_study() -> None:
    topology, model = corpus_merge()
    print("\n== New peering for the Digex regional network ==\n")
    current = topology.peering.peers_of("Digex")
    print(f"Current transit providers: {', '.join(current)}")
    candidates = topology.candidate_peer_networks("Digex")
    print(f"Co-located candidate peers: {', '.join(candidates)}")
    rec = best_new_peering(topology, model, "Digex")
    if rec is None:
        print("No candidate peerings available.")
        return
    saving = 1.0 - rec.fraction_of_baseline
    print(f"Best new peer: {rec.peer} "
          f"(cuts lower-bound bit-risk miles by {saving:.2%})")


def main() -> None:
    intradomain_study()
    interdomain_study()


if __name__ == "__main__":
    main()
