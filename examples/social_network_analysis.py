#!/usr/bin/env python3
"""Social network analysis: influencer ranking and broker detection.

The paper's motivating workload (§I): "analyses of social networks" on
graphs too big for DRAM.  This example builds a twitter-like power-law
follower graph, then:

1. ranks influencers with PageRank (Algorithm 4's bloom-filter active lists,
   run to convergence), and
2. finds information brokers with betweenness centrality (forward BFS plus
   per-level sort-reduce backtracing, §V-A),

comparing the hardware-accelerated GraFBoost against the software GraFSoft
on identical work.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro.algorithms.bc import run_betweenness_centrality
from repro.algorithms.pagerank import run_pagerank_alg4
from repro.engine.config import make_system
from repro.graph.datasets import build_graph
from repro.graph.formats import FlashCSR
from repro.perf.report import human_seconds

SCALE = 2.0 ** -14


def rank_influencers(kind: str, graph) -> tuple[np.ndarray, float]:
    """Converged PageRank on one system; returns (ranks, simulated seconds)."""
    system = make_system(kind, SCALE, num_vertices_hint=graph.num_vertices)
    out_graph = system.load_graph(graph, prefix="follows")
    in_graph = FlashCSR.write(system.store, "followed-by", graph.reversed())
    engine = system.engine_for(out_graph, graph.num_vertices)
    result = run_pagerank_alg4(engine, in_graph, iterations=30, tol=1e-8)
    return result.final_values(), result.elapsed_s


def main() -> None:
    print("Building a twitter-like follower graph ...")
    graph = build_graph("twitter", SCALE, seed=7)
    print(f"  {graph.num_vertices:,} users, {graph.num_edges:,} follow edges")

    print("\n== Influencer ranking (PageRank, Algorithm 4 custom actives) ==")
    times = {}
    ranks = None
    for kind in ("grafboost", "grafsoft"):
        ranks, elapsed = rank_influencers(kind, graph)
        times[kind] = elapsed
        print(f"  {kind:10s}: {human_seconds(elapsed)} simulated")
    print(f"  accelerator speedup: {times['grafsoft'] / times['grafboost']:.2f}x")

    top = np.argsort(ranks)[::-1][:5]
    degrees = graph.out_degrees()
    print("  top influencers (vertex, rank, followees):")
    for user in top:
        print(f"    user {int(user):6d}  rank={ranks[user]:.6f}  follows {int(degrees[user])}")

    print("\n== Broker detection (betweenness centrality) ==")
    system = make_system("grafboost", SCALE, num_vertices_hint=graph.num_vertices)
    flash_graph = system.load_graph(graph)
    engine = system.engine_for(flash_graph, graph.num_vertices)
    root = int(top[0])
    bc = run_betweenness_centrality(engine, root)
    print(f"  traversal: {bc.num_supersteps} supersteps, "
          f"{bc.total_traversed_edges:,} edges")
    print(f"  forward {human_seconds(bc.forward.elapsed_s)} + "
          f"backtrace {human_seconds(bc.backtrace_elapsed_s)} simulated")
    brokers = np.argsort(bc.centrality)[::-1][:5]
    print(f"  top brokers reachable from user {root}:")
    for vertex in brokers:
        print(f"    user {int(vertex):6d}  tree descendants={bc.centrality[vertex]:.0f}")


if __name__ == "__main__":
    main()
