"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments and of the
``random.Random`` it is handed, so one seed always gives the same graphs.
"""

from __future__ import annotations

import random
from collections import Counter
from math import factorial

from flowtri import dag as dagmod
from flowtri import planar as plmod


def route_union(rng: random.Random, n: int, k: int, p: float) -> dagmod.Dag:
    """Union of k random s-t routes over inner vertices 1..n.

    Each route visits each inner vertex with probability p, and the draw is
    repeated until every inner vertex lies on at least two routes.  Every
    route brings its own edges, so in-degree equals out-degree everywhere
    (the routes are a decomposition) and no inner vertex has a sole in- or
    out-edge (no idle edges).
    """
    while True:
        routes = [[v for v in range(1, n + 1) if rng.random() < p] for _ in range(k)]
        cover = Counter(v for r in routes for v in r)
        if all(cover[v] >= 2 for v in range(1, n + 1)):
            break
    steps = sorted((a, b, i) for i, r in enumerate(routes)
                   for a, b in zip([0] + r, r + [n + 1]))
    return dagmod.make_dag(n, [(f"e{j:02d}", a, b) for j, (a, b, _) in enumerate(steps)])


def chain(k: int, m: int) -> dagmod.Dag:
    """k consecutive bundles of m parallel edges (a product of simplices)."""
    return dagmod.make_dag(k - 1, [(f"b{i}.{j}", i, i + 1)
                                   for i in range(k) for j in range(m)])


def chain_simplices(k: int, m: int) -> int:
    """Normalized volume of chain(k, m): (k(m-1))! / ((m-1)!)^k."""
    return factorial(k * (m - 1)) // factorial(m - 1) ** k


def graded_poset(rng: random.Random, ranks: int, lo: int, hi: int) -> plmod.Poset:
    """A graded poset with ``ranks`` ranks of lo..hi elements each.

    Covers join consecutive ranks only, along a random monotone staircase
    through each pair of ranks.  So every element is covered by or covers a
    neighbour rank, all maximal chains have length ``ranks``, and no two
    covers cross in the layered drawing that ``planar.poset_to_dag`` traces
    (elements sit left to right by name within a rank).
    """
    layers = [[f"{chr(97 + r)}{i}" for i in range(rng.randint(lo, hi))]
              for r in range(ranks)]
    covers = []
    for low, high in zip(layers, layers[1:]):
        i = j = 0
        covers.append((low[0], high[0]))
        while (i, j) != (len(low) - 1, len(high) - 1):
            step = rng.choice([(1, 0), (0, 1), (1, 1)])
            i = min(i + step[0], len(low) - 1)
            j = min(j + step[1], len(high) - 1)
            covers.append((low[i], high[j]))
    return plmod.make_poset([p for layer in layers for p in layer], covers)


def linear_extensions(poset: plmod.Poset) -> int:
    """Number of linear extensions, by a memoized walk over down-sets."""
    below = {p: set(poset.down_covers[p]) for p in poset.elements}
    memo: dict[frozenset, int] = {}

    def count(placed: frozenset) -> int:
        if len(placed) == len(poset.elements):
            return 1
        if placed not in memo:
            memo[placed] = sum(count(placed | {p}) for p in poset.elements
                               if p not in placed and below[p] <= placed)
        return memo[placed]

    return count(frozenset())
