"""Exact lattice geometry: unimodularity, triangulation checks, h-vectors
from f-vectors and Ehrhart counting.

Everything is exact integer arithmetic.  A simplex or face is an int mask
over its complex's vertex list: bit i stands for vertex i.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from math import comb, prod
from operator import mul
from typing import Collection, Iterable, Sequence

from .dag import Dag, dimension

Vector = tuple[int, ...]
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))     # for ``_canonical``


# ---------------------------------------------------------------------------
# Integer linear algebra

def _row_reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Returns the rows and the pivot columns.  The rows are D times the
    reduced row echelon form, pivot rows first, where D is the last pivot:
    every division is exact because each entry is a minor of the input.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    ncol = len(m[0]) if m else 0
    for c in range(ncol):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, pr = m[r][c], m[r]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], pr)]
        prev = p
        pivots.append(c)
    return m, pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix."""
    return len(_row_reduce(rows)[1])


def is_unimodular_simplex(vertices: Sequence[Vector]) -> bool:
    """True iff the difference lattice of the vertices is saturated, that is
    the simplex is unimodular with respect to the lattice of its affine span;
    ``ValueError`` when the vertices are affinely dependent.

    Unimodular column operations (Euclid on column pairs) bring the
    difference rows to lower-triangular form; they map Z^n onto itself, so
    they keep whether the rows' lattice is saturated.  The rows are then
    independent iff no diagonal entry is 0, and saturated iff each is +-1.
    Row i is reduced once the rows before it are, and those are 0 past
    their diagonal, so a column operation on columns >= i leaves them be.
    """
    v0 = vertices[0]
    rows = [[a - b for a, b in zip(v, v0)] for v in vertices[1:]]
    if len(rows) > len(v0):
        raise ValueError("affinely dependent vertices")
    unimodular = True
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            while row[j]:
                q = row[i] // row[j]
                for r in rows[i:]:
                    r[i], r[j] = r[j], r[i] - q * r[j]
        if not row[i]:
            raise ValueError("affinely dependent vertices")
        unimodular = unimodular and abs(row[i]) == 1
    return unimodular


# ---------------------------------------------------------------------------
# Simplicial complexes

def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask(indices: Iterable[int]) -> int:
    """The mask with bit i set for each i in ``indices``."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _canonical(masks: Collection[int]) -> list[int]:
    """``masks`` sorted by the bit-reversed mask, descending: the lowest bit
    two masks differ in puts the mask holding it first, so masks of one size
    sort as their member tuples do.  Not across sizes ((0, 1) comes before
    (0,)): faces of mixed sizes sort by ``_members``."""
    width = (max(masks, default=0).bit_length() + 7) // 8
    return sorted(masks, key=lambda m: m.to_bytes(width, "little").translate(_BIT_REVERSED),
                  reverse=True)


def join_with_simplex(simplex: int, faces: Sequence[int], size: int) -> tuple[int, ...]:
    """The join of the simplex mask ``simplex`` with the complex of the
    maximal ``faces``: simplex | F for each face F (the simplex alone for no
    faces), in canonical order; each must have ``size`` vertices, else
    ``AssertionError``."""
    joined = [simplex | f for f in faces or (0,)]
    for f in joined:
        if f.bit_count() != size:
            raise AssertionError(f"join simplex {_members(f)} has size {f.bit_count()}, "
                                 f"expected {size}")
    return tuple(_canonical(joined))


def euler_characteristic(fv: Sequence[int]) -> int:
    """f_0 - f_1 + f_2 - ... of an f-vector (f_-1, f_0, ...)."""
    return sum((-1) ** k * f for k, f in enumerate(fv[1:]))


def h_from_f(fv: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of sum_k f_k z^{k+1} (1-z)^{d-1-k} for an f-vector
    (f_-1, ..., f_{d-1}), trailing zeros dropped."""
    d = len(fv) - 1            # maximal face size
    h = [0] * (d + 1)
    for k in range(-1, d):
        fk = fv[k + 1]
        for j in range(d - 1 - k + 1):
            h[k + 1 + j] += fk * comb(d - 1 - k, j) * (-1) ** j
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return tuple(h)


# ---------------------------------------------------------------------------
# Triangulations

@dataclass(frozen=True)
class Triangulation:
    """A simplicial complex, stored by its maximal simplices, whose vertices
    carry exact lattice coordinates.

    ``simplices`` are int masks over the vertices (bit i is vertex i);
    ``labels[i]`` names vertex i (e.g. a route); ``coords[i]`` is its
    integer coordinate vector in the carrier polytope's ambient space.
    """

    simplices: tuple[int, ...]
    labels: tuple
    coords: tuple[Vector, ...]


@dataclass(frozen=True)
class TriangulationReport:
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _vertex_functionals(pts: Sequence[Vector]) -> list[tuple[int, Vector]]:
    """One integer affine functional ``(c, a)`` per vertex of a
    full-dimensional simplex in Z^d: x -> c + a.x is the vertex's
    barycentric coordinate times |det| of the difference matrix, so it
    vanishes on the opposite facet and is positive at the vertex."""
    u0 = pts[0]
    d = len(u0)
    m, _ = _row_reduce([[a - b for a, b in zip(u, u0)] + [int(i == j) for j in range(d)]
                        for i, u in enumerate(pts[1:])])
    scale = m[0][0] if d else 1        # [scale * I | scale * inverse]
    if scale < 0:
        scale, m = -scale, [[-x for x in row] for row in m]
    cols = [[row[d + j] for row in m] for j in range(d)]
    a0 = [-sum(col[k] for col in cols) for k in range(d)]
    return [(c - sum(map(mul, a, u0)), tuple(a))
            for c, a in [(scale, a0)] + [(0, col) for col in cols]]


def verify_triangulation(tri: Triangulation, dim: int,
                         normalized_volume: int) -> TriangulationReport:
    """Check that the maximal simplices of ``tri`` triangulate
    conv(tri.coords), a polytope of dimension ``dim``.

    ``normalized_volume`` is the carrier's d! * (Ehrhart leading
    coefficient); for a unimodular triangulation it must equal the number
    of maximal simplices.  Besides purity, unimodularity and that count,
    the ridge (pseudo-manifold) check of De Loera-Rambau-Santos,
    *Triangulations* (2010), Ch. 4 runs in integer coordinates on a chart
    of aff(conv(coords)): every ridge lies in at most two simplices, the
    apexes of a ridge in two simplices lie strictly on opposite sides of
    it, and every point lies on the apex side of a ridge in one simplex,
    which is then on the boundary.  It needs a nonempty pure complex of
    nondegenerate simplices whose points span ``dim`` dimensions.

    Never raises on malformed input; each fault is an issue, which names a
    simplex or ridge by its member tuple: no simplices; a simplex that is
    not an int mask of vertices, has the wrong number of vertices or none,
    names a vertex without coordinates, or is degenerate or not unimodular;
    a count other than the normalized volume; points spanning another
    dimension; a ridge in more than two simplices, between two simplices on
    one side of it, or in one simplex and off the boundary.
    """
    simplices = tri.simplices
    issues: list[str] = [] if simplices else ["no simplices"]
    members: list[tuple[int, ...]] = []      # of the well-formed simplices
    for s in simplices:
        vs = _members(s) if type(s) is int and s >= 0 else s   # else named as given
        if vs is s:
            fault = "is not a mask of vertex indices"
        elif len(vs) != dim + 1:
            fault = f"has {len(vs)} vertices, expected {dim + 1}"
        elif not vs:
            fault = "has no vertices"
        elif s >> len(tri.coords):
            fault = "names a vertex without coordinates"
        else:
            try:
                if not is_unimodular_simplex([tri.coords[v] for v in vs]):
                    issues.append(f"simplex {vs} is not unimodular")
                members.append(vs)
                continue
            except ValueError:
                fault = "is degenerate"
        issues.append(f"simplex {vs!r} {fault}")
    if len(simplices) != normalized_volume:
        issues.append(f"{len(simplices)} simplices but normalized volume {normalized_volume}")
    if not members or len(members) < len(simplices):
        return TriangulationReport(tuple(issues))
    v0 = tri.coords[0]
    _, pivots = _row_reduce([[a - b for a, b in zip(p, v0)] for p in tri.coords])
    if len(pivots) != dim:
        issues.append(f"the points span dimension {len(pivots)}, expected {dim}")
        return TriangulationReport(tuple(issues))
    chart = [tuple(p[c] for c in pivots) for p in tri.coords]
    functionals = [_vertex_functionals([chart[v] for v in s]) for s in members]
    ridges: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for k, s in enumerate(members):        # ridge -> (simplex, omitted position)
        for i in range(len(s)):
            ridges[s[:i] + s[i + 1:]].append((k, i))
    for r, owners in ridges.items():
        if len(owners) > 2:
            issues.append(f"ridge {r} lies in {len(owners)} simplices")
            continue
        (k, i), *other = owners
        c, a = functionals[k][i]
        if other:
            (l, j), = other
            t = members[l]
            if c + sum(map(mul, a, chart[t[j]])) >= 0:
                issues.append(f"simplices {members[k]} and {t} lie on the same side "
                              f"of ridge {r}")
        elif any(c + sum(map(mul, a, x)) < 0 for x in chart):
            issues.append(f"ridge {r} of simplex {members[k]} is not on the boundary")
    return TriangulationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Ehrhart counting for flow polytopes

def count_lattice_points(dag: Dag, t: int, interior: bool = False) -> int:
    """Integer flows of strength t, ``lattice_counts(dag, t, interior)[t]``;
    0 for t < 0."""
    return lattice_counts(dag, t, interior)[t] if t >= 0 else 0


# Dilates per pass.  Lane j of a start weight costs w * j bits, so a pass's
# start weights hold w * LANES**2 / 2 bits; past LANES dilates a new pass
# begins.  On G(1010) (dimension 1009) a process running ``ehrhart_hstar``
# peaked at 17 MB and took 0.3 s this way, and 148 MB and 4 s in one pass
# (2-vCPU VM).
LANES = 32


def lattice_counts(dag: Dag, top: int, interior: bool = False) -> tuple[int, ...]:
    """(L(0), ..., L(top)): the integer flows of strength t for every
    t <= top, counted LANES dilates to a pass.  The interior variant asks
    for flow >= 1 on every edge (interior of the flow cone at height t,
    which is the relative interior of the dilated polytope when no edge is
    idle).  () for top < 0."""
    lo = 1 if interior else 0
    counts: list[int] = []
    for first in range(0, top + 1, LANES):
        counts += _lattice_pass(dag, lo, first, min(top, first + LANES - 1))
    return tuple(counts)


def _lattice_pass(dag: Dag, lo: int, first: int, top: int) -> list[int]:
    """The counts of dilates first, ..., top (lower bound ``lo`` on every
    edge) from one Kostant partition-function DP over the vertices.

    A state is the flow still to leave the current vertex v and the inflow
    already sent to each later inner vertex, as the base-(top + 1) digits
    of one int: digit 0 is the flow left at v, digit i the inflow pending
    at v + i.  The digits of a state reached at strength t sum to at most
    t <= top, so none carries: sending x units to ``head`` adds
    x * (base**(head - v) - 1), and once v's last head has taken what is
    left, ``s // base`` drops v's digit.  k parallel edges that carry x
    units with lower bound lo can do so in C(x - k*lo + k - 1, k - 1) ways.

    The dilates are the lanes of the weights: a weight is
    sum_j count_j << (w * j), where count_j is the number of partial flows
    of strength first + j that reach the state, and the start state t (all
    of t left at the source, nothing pending) has weight
    1 << (w * (t - first)).  A partial flow of strength t is fixed by how
    each vertex handled so far splits its inflow f <= t over its o
    out-edges, heads not yet handled taking the rest, so there are at most
    M = prod_v C(top + o_v - 1, o_v - 1) of them, and w = bitlen(M).  Every
    count, and every sum or binomial multiple of counts the pass forms,
    counts distinct partial flows of one strength, so it is at most M <
    2**w.  The weights are only added and multiplied by binomials, which
    are not negative, so no lane borrows or carries into the next, and the
    last weight's lanes are the counts.  The states live in this call only.
    """
    sink, base = dag.sink, top + 1
    width = prod(comb(top + o - 1, o - 1) for o in map(dag.outdeg, range(sink)) if o
                 ).bit_length()
    states: dict[int, int] = {t: 1 << (width * (t - first)) for t in range(first, base)}
    for v in range(sink):
        groups = sorted(Counter(e.head for e in dag.out_edges(v)).items())
        if not groups:                # a dead end: no flow may reach v
            states = {s // base: n for s, n in states.items() if not s % base}
        for j, (head, k) in enumerate(groups):
            least = lo * k
            # ways[x] = C(x - least + k - 1, k - 1), each from the one before
            ways = [0] * least + list(accumulate(range(1, base - least),
                                                 lambda c, i: c * (i + k - 1) // i, initial=1))
            nxt: dict[int, int] = defaultdict(int)
            if j < len(groups) - 1:   # x = least, ..., left units go to head
                step = base ** (head - v) - 1
                for s, n in states.items():
                    key = s + least * step
                    for c in ways[least:s % base + 1]:
                        nxt[key] += n * c
                        key += step
            else:                     # the last head takes all that is left
                shift = base ** (head - v - 1) if head != sink else 0
                for s, n in states.items():
                    left = s % base
                    if left >= least:     # v's digit, now 0, is dropped
                        nxt[s // base + left * shift] += n * ways[left]
            states = nxt
    packed = states.get(0, 0)
    mask = (1 << width) - 1
    return [packed >> (width * j) & mask for j in range(base - first)]


@dataclass(frozen=True)
class HStarData:
    counts: tuple[int, ...]           # L(0), ..., L(d)
    h_star: tuple[int, ...]
    degree: int
    codegree: int

    def to_json(self) -> dict:
        return {"L": list(self.counts), "h_star": list(self.h_star),
                "degree": self.degree, "codegree": self.codegree}


def ehrhart_hstar(dag: Dag) -> HStarData:
    """L(0..d) from one ``lattice_counts`` pass, the h*-vector, its degree
    and the codegree.  h*[0] must be 1 and no entry negative, and the
    interior counts of dilates 1..codegree, from a second pass, must be
    positive exactly at the codegree; else ``AssertionError``."""
    d = dimension(dag)
    counts = lattice_counts(dag, d)
    h = list(counts)            # h*(z) = (1 - z)^(d+1) * sum_t L(t) z^t, cut at z^d
    for _ in range(d + 1):
        for j in range(d, 0, -1):
            h[j] -= h[j - 1]
    if h[0] != 1 or any(x < 0 for x in h):
        raise AssertionError(f"implausible h*-vector {h}")
    degree = max(j for j in range(d + 1) if h[j] != 0)
    codegree = d + 1 - degree
    # independent cross-check via interior points of successive dilates
    interior = lattice_counts(dag, codegree, interior=True)
    if any((interior[t] > 0) != (t == codegree) for t in range(1, codegree + 1)):
        raise AssertionError("codegree disagrees with interior point counts")
    return HStarData(counts, tuple(h), degree, codegree)


def normalized_volume(dag: Dag) -> int:
    return sum(ehrhart_hstar(dag).h_star)

