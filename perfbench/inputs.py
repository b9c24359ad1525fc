"""Seeded workload inputs, generated by the benchmark and never by gaindex.

``random_graphs`` copies the distribution of
``gaindex.enumeration.random_connected`` (order uniform in [3, 12], edge
probability uniform in [0.25, 0.75], edges resampled until the graph is
connected) without calling it, so a change to that function cannot change
the workload.  ``permuted_graph6`` shuffles the committed file of every
connected graph with 2 <= n <= 7; the seed changes only the line order.
"""

from __future__ import annotations

import random
from pathlib import Path

N_LOW, N_HIGH = 3, 12
P_LOW, P_HIGH = 0.25, 0.75
GRAPH6_FILE = Path(__file__).resolve().parent / "data" / "connected_n2_7.g6"


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Edges of G(n, p), resampled until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if _connected(n, edges):
            return edges


def random_graphs(seed: int, count: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """``count`` connected graphs as ``(n, edges)``, in a seeded order.

    Each graph's n and p are uniform as in ``random_connected``, but drawn
    stratified rather than independently: every order appears equally often
    (count / 10 times), and each order gets one p from each of the equal
    slices of [0.25, 0.75].  The cost of a graph depends mostly on n and p,
    so this keeps the cost of the whole sample, and with it the metrics,
    from moving with the seed.
    """
    rng = random.Random(seed)
    orders = N_HIGH - N_LOW + 1
    slices = -(-count // orders)
    plan = [
        (N_LOW + i % orders, P_LOW + (P_HIGH - P_LOW) * (i // orders + rng.random()) / slices)
        for i in range(count)
    ]
    rng.shuffle(plan)
    return [(n, connected_edges(rng, n, p)) for n, p in plan]


def graph6_lines() -> list[str]:
    return GRAPH6_FILE.read_text().split()


def permuted_graph6(seed: int) -> list[str]:
    lines = graph6_lines()
    random.Random(seed).shuffle(lines)
    return lines
