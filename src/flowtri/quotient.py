"""Projection of the flow polytope along the route simplex.

Coordinates live in one block per inner vertex, indexed by the labels of
its incoming routes.  The projection sends an edge's basis vector to the
head-block minus tail-block basis vectors at the edge's label, which kills
the span of the decomposition routes; its image is a reflexive polytope
whose facets come from facet transversals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from math import prod
from operator import mul
from typing import Iterable, Mapping, Sequence

from .dag import Dag
from .equatorial import Transversal, equatorial_facets
from .geometry import rank
from .routes import Route, enumerate_routes, route_table


def edge_labels(decomp: Sequence[Route]) -> dict[str, int]:
    """Edge id -> 1-based index of the decomposition route owning it."""
    return {eid: i + 1 for i, r in enumerate(decomp) for eid in r}


@dataclass(frozen=True)
class LeveledSpace:
    """Product of per-inner-vertex blocks with route-label coordinates.

    ``slots`` maps each edge to its (head slot, tail slot): the coordinates
    of its label in its head's and its tail's block, ``dim`` for the sink's
    and the source's end, which have no block."""

    blocks: tuple[tuple[int, tuple[int, ...]], ...]   # (vertex, sorted labels)
    slots: Mapping[str, tuple[int, int]]              # edge -> (head slot, tail slot)

    @cached_property
    def dim(self) -> int:
        return sum(len(labels) for _, labels in self.blocks)

    @property
    def quotient_dim(self) -> int:
        """Dimension of the block-sum-zero subspace: sum of indeg(v) - 1."""
        return sum(len(labels) - 1 for _, labels in self.blocks)


def leveled_space(dag: Dag, decomp: Sequence[Route]) -> LeveledSpace:
    """One block per inner vertex, holding the labels of its in-edges, and
    each edge's slot pair (``LeveledSpace.slots``), which the route images
    and the functionals read."""
    labels = edge_labels(decomp)
    blocks, index = [], {}
    for v in dag.inner_vertices:
        inlv = tuple(sorted({labels[e.id] for e in dag.in_edges(v)}))
        if len(inlv) != dag.indeg(v):
            raise AssertionError(f"two in-edges of {v} carry the same route label")
        blocks.append((v, inlv))
        index.update(((v, l), len(index)) for l in inlv)
    dim, slots = len(index), {}
    for e in dag.edges:         # only the sink's end and the source's have no block
        l = labels[e.id]
        slots[e.id] = (index[(e.head, l)] if e.head <= dag.inner_count else dim,
                       index[(e.tail, l)] if e.tail else dim)
    return LeveledSpace(tuple(blocks), slots)


def phi(space: LeveledSpace, route: Route) -> tuple[int, ...]:
    """Linear projection of a route's indicator vector: each edge adds its
    label's basis vector in its head block and subtracts it in its tail
    block (source and sink have no block), read from the slot table, where
    slot ``dim`` takes the source's and the sink's ends and is dropped."""
    vec = [0] * (space.dim + 1)
    for head, tail in map(space.slots.__getitem__, route):
        vec[head] += 1
        vec[tail] -= 1
    vec.pop()
    return tuple(vec)


_BITS = bytes.maketrans(b"01", b"\0\1")


def _coefficients(mask: int, dim: int) -> tuple[int, ...]:
    """The 0/1 tuple of the low ``dim`` bits of ``mask``, bit 0 first."""
    return tuple(bin(mask | 1 << dim)[:2:-1].encode().translate(_BITS))


class _Lanes:
    """Exact packed evaluation of many integer functionals at once.

    Lane j of a packed int holds functional j's value at one point, in a
    field of w = 8 * ``size`` bits: the int is sum_j value_j << (w * j), and
    ``columns[k]`` is that sum for the k-th unit vector, so a point's packed
    values are sum_k x_k * columns[k].  At a point whose coordinates are at
    most ``bound`` in absolute value every value is at most
    V = bound * max_j sum_k |coeff_j[k]|, and w is the least whole number
    of bytes with V < H = 2**(w - 1).  Adding the bias H to every lane then puts
    each lane in [H - V, H + V], inside [0, 2**w), so no lane borrows from
    or carries into its neighbour: the biased int's bytes are the lanes,
    and a lane of value >= 1 is one whose high bit is set once H - 1 is
    added instead.  Any width is exact, 64 bits or more.
    A coefficient that is not a whole number raises ``ValueError``.
    """

    def __init__(self, functionals: Sequence[Sequence[int]], dim: int, bound: int) -> None:
        values = set(chain.from_iterable(functionals))
        for c in values:
            if c != int(c):
                raise ValueError(f"coefficient {c} is not an integer")
        widest = max(1, bound) * max((sum(map(abs, c)) for c in functionals), default=0)
        size = self.size = int(widest).bit_length() // 8 + 1
        half = 1 << (8 * size - 1)
        count = self.count = len(functionals)
        ones = int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")
        self.bias = self.high = half * ones      # H in every lane: also the high bits
        self.below = self.bias - ones            # H - 1 in every lane
        code = {c: (int(c) + half).to_bytes(size, "little") for c in values}
        self.columns = [int.from_bytes(b"".join(map(code.__getitem__, lane)), "little")
                        - self.bias for lane in zip(*functionals)] or [0] * dim

    def pack(self, point: Sequence[int], start: int = 0) -> int:
        """Packed values of every functional at ``point``, whose entries are
        the coordinates from ``start`` on (the others are 0)."""
        return sum(map(mul, point, islice(self.columns, start, None)))

    def tiers(self, packed: int) -> tuple[int, int]:
        """The high bits of the lanes of ``packed`` with value >= 1, and of
        those with value >= 2: H - 1 is added to every lane, then 1 taken
        from each lane already >= 1, which are >= H - 1 before it, so no
        lane borrows."""
        positive = (packed + self.below) & self.high
        return positive, (packed + self.below - (positive >> 8 * self.size - 1)) & self.high

    def unpack(self, packed: int) -> list[int]:
        """The lanes of ``packed``, from one ``to_bytes`` of the biased int:
        each lane's top byte less H's (0x80), then its lower bytes, most
        significant first."""
        size = self.size
        raw = (packed + self.bias).to_bytes(size * self.count, "little")
        values = [b - 0x80 for b in raw[size - 1::size]]
        for i in range(size - 2, -1, -1):
            values = [v << 8 | b for v, b in zip(values, raw[i::size])]
        return values


@dataclass(frozen=True)
class QuotientPolytope:
    """The quotient's vertices and facets; ``cli.cmd_quotient`` prints them."""
    space: LeveledSpace
    decomp: tuple[Route, ...]                            # the decomposition routes R_i
    routes: tuple[Route, ...]                            # enumerate_routes(dag)
    vertices: tuple[tuple[int, tuple[int, ...]], ...]   # (route index, coords)
    facets: tuple[tuple[Transversal, tuple[int, ...]], ...]  # (m, F_m)


def _functionals(space: LeveledSpace, decomp: Sequence[Route],
                 transversals: Iterable[Transversal]) -> dict[Transversal, tuple[int, ...]]:
    """The 0/1 functional F_m of each of ``transversals``: its support, the
    (vertex, label) pairs reached by the pre-transversal prefix of each
    decomposition route (every prefix edge ends at an inner vertex), is the
    union of one prefix mask of head slots per route: masks of distinct
    labels, so disjoint, and summed."""
    before = {}
    for route in decomp:
        mask = 0
        for eid in route:
            before[eid] = mask
            mask |= 1 << space.slots[eid][0]
    return {m: _coefficients(sum(map(before.__getitem__, m)), space.dim)
            for m in transversals}


def check_transversal_identity(q: QuotientPolytope
                               ) -> tuple[int, tuple[tuple[Route, Transversal, int, int], ...]]:
    """The facet identity F_m . phi(s) = 1 - (number of edges of m on s) for
    every route s and every transversal m: the number of (s, m) pairs, and
    the failing rows (s, m, lhs, rhs), routes in enumeration order and
    transversals in product order within each route.  ``q`` (from
    ``quotient_facets``) supplies the routes, their images and the
    decomposition R_1, ..., R_k.

    F_m is 1 on the head slots of R_i's edges before m_i, for each i: slots
    that are distinct, as R_i enters each inner vertex once and the routes'
    labels differ.  So, with x the image of s, F_m . x - (1 - |m & s|) =
    sum_i b_i(s, m_i) - 1, where b_i(s, e) is the sum of x over the head
    slots of R_i's edges before e, plus [e in s].  That is 0 for every m
    exactly when each b_i(s, .) is constant along R_i and the constants,
    [R_i's first edge in s], sum to 1: if b_i takes two values, the two
    transversals that differ only there differ in value, so one fails; if
    the constants sum to c != 1, every m fails by c - 1.  So one pass over
    the decomposition's edges decides route s, exactly for every pair: the
    step from e to the next edge f of R_i, through v = head(e), changes b_i
    by x[(v, i)] + [f in s] - [e in s].  Only a failing route walks the
    transversals, with exact ints, to list its rows.

    At the true image every step is 0, as phi(s) at slot (v, i) is
    [s enters v by R_i's edge] - [s leaves v by R_i's edge]: R_i's edges
    are the ones labelled i.  And the constants sum to 1, as s begins with
    one source edge, which begins exactly one R_i.  ``quotient_facets`` sets
    each image to ``phi`` over the same slot table, so on its output this
    check cannot fail: it guards only images altered after construction."""
    decomp, images, slots = q.decomp, dict(q.vertices), q.space.slots
    steps = [(slots[e][0], e, f) for route in decomp for e, f in zip(route, route[1:])]
    origin = (0,) * q.space.dim
    failures: list[tuple[Route, Transversal, int, int]] = []
    for i, s in enumerate(q.routes):
        x, on = images.get(i, origin), set(s)
        if sum(r[0] in on for r in decomp) == 1 and all(
                x[k] == (e in on) - (f in on) for k, e, f in steps):
            continue
        for m, coeffs in _functionals(q.space, decomp, product(*decomp)).items():
            lhs, rhs = sum(map(mul, coeffs, x)), 1 - len(on.intersection(m))
            if lhs != rhs:
                failures.append((s, m, lhs, rhs))
    return len(q.routes) * prod(map(len, decomp)), tuple(failures)


def quotient_facets(dag: Dag, decomp: Sequence[Route]) -> QuotientPolytope:
    """Full vertex/facet description: the images of the routes outside the
    decomposition, keyed by route index (the decomposition routes project
    to the origin), and one facet per distinct functional of an equatorial
    facet's transversal; the dimension is cross-checked.

    The images and the functionals are read from the space's slot table:
    one ``phi`` per route and one sum of prefix masks per facet transversal
    (``_functionals``).  The images' rank is taken by forward-only Bareiss
    elimination, with no early stop.

    The facet map (``equatorial_facets``, which also checks that the graph
    is Gorenstein) is built first and read as it comes; the transversal
    kept per functional does not depend on its order: by the identity
    F_m . phi(s) = 1 - |m & s| (``check_transversal_identity``), the facet
    of m is the set of routes s where F_m is 1, so two facets share a
    functional only where that identity fails, and otherwise each facet
    keeps its own first transversal."""
    table = route_table(dag, enumerate_routes(dag))
    facet_map = equatorial_facets(dag, decomp, table)
    space = leveled_space(dag, decomp)
    members = set(decomp)
    verts = []
    for i, r in enumerate(table.routes):
        img = phi(space, r)
        if r not in members:
            verts.append((i, img))
        elif any(img):
            raise AssertionError(f"decomposition route {r} does not project to 0")
    if len({c for _, c in verts}) != len(verts):
        raise AssertionError("projected vertices are not distinct")
    seen: dict[tuple[int, ...], Transversal] = {}
    for m, c in _functionals(space, decomp, facet_map.values()).items():
        seen.setdefault(c, m)
    facets = tuple((m, c) for c, m in sorted(seen.items()))
    want = space.quotient_dim
    got = rank([c for _, c in verts])
    if got != want:
        raise AssertionError(f"quotient rank {got} != expected dimension {want}")
    return QuotientPolytope(space, tuple(decomp), table.routes, tuple(verts), facets)


@dataclass(frozen=True)
class ReflexiveReport:
    issues: tuple[str, ...]
    interior_points: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _block_points(lo: Sequence[int], hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Integer tuples in the box [lo, hi] whose entries sum to 0, in
    lexicographic order: each tuple of the others' box, with minus its sum
    as the last entry when that lies in the last range."""
    if not lo:
        return [()]
    first, last = -hi[-1], -lo[-1]
    return [t + (-s,) for t in product(*[range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1])])
            if first <= (s := sum(t)) <= last]


def verify_reflexive(q: QuotientPolytope) -> ReflexiveReport:
    """Origin must be the only lattice point of the block-sum-zero lattice
    strictly inside every facet, and vertices must be simple enough.  A
    facet with a non-integral coefficient is reported alone, before any
    point is scanned.

    The candidates are the lattice points of the vertices' bounding box,
    listed block by block: the product, in block order, of each block's
    zero-sum tuples visits them in lexicographic order.  Each tuple carries
    its packed partial facet values (``_Lanes``), so a point is interior when
    the sum of its parts, plus H - 1 in every lane, has no lane's high bit
    set.  The same lanes check each vertex with two popcounts
    (``_Lanes.tiers``): a vertex lies on the facets whose value is >= 1 and
    not >= 2, and only a vertex with a value >= 2 is unpacked, to name the
    facets it violates.  It is exact because every facet value in the box,
    the vertices included, is at most max |vertex coordinate| *
    max sum |coeff| < H = 2**(w - 1) in absolute value, for the lane width
    w."""
    coords = [v for _, v in q.vertices] or [(0,) * q.space.dim]
    lo, hi = list(map(min, zip(*coords))), list(map(max, zip(*coords)))
    try:
        lanes = _Lanes([c for _, c in q.facets], q.space.dim, max(map(abs, lo + hi), default=0))
    except ValueError:          # _Lanes checks each distinct coefficient once
        return ReflexiveReport(tuple(f"facet for {m} is not integral" for m, coeffs in q.facets
                                     if any(c != int(c) for c in coeffs)), ())
    dim, issues, on = q.space.quotient_dim, [], []
    for i, v in q.vertices:
        packed = lanes.pack(v)
        positive, above = lanes.tiers(packed)
        if above:
            issues.extend(f"vertex {i} violates facet {m}"
                          for (m, _), value in zip(q.facets, lanes.unpack(packed)) if value > 1)
        on.append((i, positive.bit_count() - above.bit_count()))
    # a leading empty block adds H - 1 to every lane of every point once
    blocks, partials, pos = [[()]], [[lanes.below]], 0
    for _, labels in q.space.blocks:
        points = _block_points(lo[pos:pos + len(labels)], hi[pos:pos + len(labels)])
        blocks.append(points)
        partials.append([lanes.pack(t, pos) for t in points])
        pos += len(labels)
    # the last block varies fastest: each prefix's parts are summed once
    last, last_values, high = blocks.pop(), partials.pop(), lanes.high
    interior: list[tuple[int, ...]] = []
    for parts, packed in zip(product(*blocks), product(*partials)):
        base = sum(packed)
        interior.extend(tuple(chain(*parts, t)) for t, value in zip(last, last_values)
                        if not (base + value) & high)
    if interior != [tuple([0] * q.space.dim)]:
        issues.append(f"interior lattice points {interior}, expected only the origin")
    issues.extend(f"vertex {i} lies on {n} facets, expected at least {dim}"
                  for i, n in on if n < dim)
    return ReflexiveReport(tuple(issues), tuple(interior))
