"""Exact lattice geometry: rank and determinant, h-vectors from f-vectors
and Ehrhart counting.

Everything is exact integer arithmetic.  A simplex or face is an int mask
over its complex's vertex list: bit i stands for vertex i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Collection, Iterable, Sequence

from .dag import Dag, degree_equality, dimension, idle_edges, validate


# ---------------------------------------------------------------------------
# Integer linear algebra

def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Forward-only fraction-free elimination (Bareiss) of an integer
    matrix: the number of pivots, and the last pivot times the sign of the
    row order the pivots were taken in.  Each step takes the first row with
    a nonzero entry in the leading column as pivot, eliminates that column
    from the rows not yet used as pivots and drops the column and the rows
    that become 0.  Every entry stays a minor of the input, so each
    division by the previous pivot is exact, and when every row of a square
    matrix is a pivot, the last pivot is the determinant of its rows in
    pivot order, so the signed one is its determinant: popping the pivot
    from position k of the rows left moves it past k of them, k
    transpositions."""
    m = [r for r in rows if any(r)]
    found, prev, sign = 0, 1, 1
    while m:
        k = next((i for i, r in enumerate(m) if r[0]), None)
        if k is None:                   # a zero column: drop it
            m = [r[1:] for r in m]
            continue
        pivot = m.pop(k)
        p, tail = pivot[0], pivot[1:]
        m = [row for r in m
             if any(row := [(p * a - r[0] * b) // prev for a, b in zip(r[1:], tail)])]
        found, prev, sign = found + 1, p, -sign if k & 1 else sign
    return found, sign * prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix: the pivots that ``_bareiss`` finds
    in the matrix or in its transpose, whichever has fewer rows."""
    m = [r for r in rows if any(r)]
    if m and len(m) > len(m[0]):
        m = [c for c in zip(*m) if any(c)]
    return _bareiss(m)[0]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, 1 for the empty one: the
    signed last pivot of ``_bareiss`` when every row is a pivot, else 0."""
    found, last = _bareiss(rows)
    return last if found == len(rows) else 0


# ---------------------------------------------------------------------------
# Simplicial complexes

def _members(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, descending: a face over
    ``routes.graph_table`` lists its routes in enumeration order."""
    out = []
    while mask:
        out.append(top := mask.bit_length() - 1)
        mask ^= 1 << top
    return tuple(out)


def _mask(indices: Iterable[int]) -> int:
    """The mask with bit i set for each i in ``indices``."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _canonical(masks: Collection[int]) -> list[int]:
    """``masks`` descending as ints: masks of one size in the order of their
    ``_members`` tuples.  Not across sizes: (1, 0) comes before (1,)."""
    return sorted(masks, reverse=True)


def join_with_simplex(simplex: int, faces: Sequence[int], size: int) -> tuple[int, ...]:
    """The join of the simplex mask ``simplex`` with the complex of the
    maximal ``faces``: simplex | F for each face F (the simplex alone for no
    faces), in the faces' order; each must have ``size`` vertices, else
    ``AssertionError``.  Callers pass faces of size - |simplex| in canonical
    order, so the check rejects a face meeting the simplex, and simplex | F
    is simplex + F: the join keeps the faces' int order, canonical order."""
    joined = tuple(simplex | f for f in faces or (0,))
    for f in joined:
        if f.bit_count() != size:
            raise AssertionError(f"join simplex {_members(f)} has size {f.bit_count()}, "
                                 f"expected {size}")
    return joined


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
# Ehrhart counting for flow polytopes

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


def _lattice_pass(dag: Dag, lo: int, first: int, top: int,
                  inject: Sequence[int] = ()) -> list[int]:
    """The counts of dilates first, ..., top (lower bound ``lo`` on every
    edge) from one Kostant partition-function DP over the vertices, with
    ``inject[v]`` more units leaving vertex v than enter it for each v <
    len(inject), on top of the dilate's strength at the source.  The
    Ehrhart dilates inject nothing; ``normalized_volume``'s Lidskii count
    is the one dilate 0 with injections.

    A state is the flow still to leave the current vertex v and the inflow
    already sent to each later inner vertex, as the base-B digits of one
    int: digit 0 is the flow left at v, digit i the inflow pending at v + i.
    Every unit a state holds entered at the source or was injected at a
    vertex handled so far, so its digits sum to at most top + sum(inject)
    = B - 1 and none carries: v's injection adds to digit 0 when v comes
    up, sending x units to ``head`` adds x * (B**(head - v) - 1), and once
    v's last head has taken what is left, ``s // B`` drops v's digit.  k
    parallel edges that carry x units with lower bound lo can do so in
    C(x - k*lo + k - 1, k - 1) ways.

    The dilates are the lanes of the weights: a weight is
    sum_j count_j << (w * j), where count_j is the number of partial flows
    of strength first + j that reach the state, and the start state t (all
    of t left at the source, nothing pending) has weight
    1 << (w * (t - first)).  A partial flow of strength t is fixed by how
    each vertex handled so far splits its outflow f <= B - 1 over its o
    out-edges, heads not yet handled taking the rest, so there are at most
    M = prod_v C(B + o_v - 2, o_v - 1) of them, and w = bitlen(M).  Every
    count, and every sum or binomial multiple of counts the pass forms,
    counts distinct partial flows of one strength, so it is at most M <
    2**w.  The weights are only added and multiplied by binomials, which
    are not negative, so no lane borrows or carries into the next, and the
    last weight's lanes are the counts.  The states live in this call only.

    Each vertex's bundles are read once into rows: a bundle of k edges
    to ``head`` has ways[x - k*lo] = C(x - k*lo + k - 1, k - 1) for
    k*lo <= x < B, all 1 when k = 1, and either the offset x units add to a
    state (any bundle but the last) or the place of head's digit once v's
    is dropped (the last, which takes all that is left).
    """
    sink, base = dag.sink, top + sum(inject) + 1
    width = prod(comb(base + o - 2, o - 1) for o in map(dag.outdeg, range(sink)) if o
                 ).bit_length()
    states: dict[int, int] = {t: 1 << (width * (t - first)) for t in range(first, top + 1)}
    for v in range(sink):
        if v < len(inject) and inject[v]:
            states = {s + inject[v]: n for s, n in states.items()}
        bundles: dict[int, int] = {}
        for e in dag.out_edges(v):
            bundles[e.head] = bundles.get(e.head, 0) + 1
        if not bundles:               # a dead end: no flow may reach v
            states = {s // base: n for s, n in states.items() if not s % base}
            continue
        *rows, (head, k) = sorted(bundles.items())
        for row_head, row_k in rows:  # x = least, ..., left units go to row_head
            least, step = lo * row_k, base ** (row_head - v) - 1
            ways = [comb(i + row_k - 1, row_k - 1) for i in range(base - least)]
            nxt: dict[int, int] = {}
            for s, n in states.items():
                span = s % base - least + 1
                if span <= 0:
                    continue
                key = s + least * step
                if row_k == 1:
                    for _ in range(span):
                        nxt[key] = nxt.get(key, 0) + n
                        key += step
                else:
                    for c in ways[:span]:
                        nxt[key] = nxt.get(key, 0) + n * c
                        key += step
            states = nxt
        # the last head takes all that is left; v's digit, now 0, is dropped
        least, shift = lo * k, base ** (head - v - 1) if head != sink else 0
        ways = [comb(i + k - 1, k - 1) for i in range(base - least)]
        nxt = {}
        for s, n in states.items():
            left = s % base
            if left >= least:
                key = s // base + left * shift
                nxt[key] = nxt.get(key, 0) + (n * ways[left - least] if k > 1 else n)
        states = nxt
    packed = states.get(0, 0)
    mask = (1 << width) - 1
    return [packed >> (width * j) & mask for j in range(top + 1 - first)]


@dataclass(frozen=True)
class HStarData:
    """The Ehrhart data of a flow polytope; ``cli.cmd_analyze`` prints it."""
    counts: tuple[int, ...]           # L(0), ..., L(d)
    h_star: tuple[int, ...]
    degree: int
    codegree: int


def ehrhart_hstar(dag: Dag) -> HStarData:
    """L(0..d) from one ``lattice_counts`` pass, the h*-vector, its degree
    and the codegree.  h*[0] must be 1 and no entry negative, and the
    interior counts of dilates 1..codegree, from a second pass, must be
    positive exactly at the codegree, and on an idle-free graph h* must be
    palindromic (Stanley 1978: P is Gorenstein) exactly when
    ``degree_equality`` holds; else ``AssertionError``.  An idle edge can
    unbalance a vertex without changing P, so such graphs are not
    checked."""
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
    palindromic = h[:degree + 1] == h[degree::-1]
    if not idle_edges(dag) and palindromic != degree_equality(dag):
        raise AssertionError(f"h* {h[:degree + 1]} palindromic is {palindromic} but "
                             f"degree_equality is {not palindromic}")
    return HStarData(counts, tuple(h), degree, codegree)


def normalized_volume(dag: Dag) -> int:
    """The normalized volume of the flow polytope of ``dag`` by the Lidskii
    formula (Baldoni-Vergne, *Kostant partition functions and flow
    polytopes*, 2008): the number of integer flows with nothing leaving the
    source and indeg(v) - 1 units injected at each inner vertex v, from one
    single-lane ``_lattice_pass``.  It equals sum(h*) of ``ehrhart_hstar``.
    ``ValueError`` for a graph that ``validate`` rejects."""
    if not (report := validate(dag)).ok:
        raise ValueError(f"invalid graph: {report.violations}")
    return _lattice_pass(dag, 0, 0, 0, [0] + [dag.indeg(v) - 1 for v in dag.inner_vertices])[0]

