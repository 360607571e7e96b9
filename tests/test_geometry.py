import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtri import geometry
from flowtri.dag import (D1, D2, D3, G, bypass, contract_idle_edges,
                         degree_equality, dimension, gorenstein_completion,
                         idle_edges, make_dag, random_dag, validate, zigzag)
from flowtri.dkk import dkk_triangulation, verify_dkk_triangulation
from flowtri.equatorial import equatorial_sphere, joined_simplices
from flowtri.geometry import (LANES, Triangulation, _canonical, _lattice_pass, _mask,
                              _member_order, _members, count_lattice_points, determinant,
                              ehrhart_hstar, join_with_simplex, lattice_counts,
                              normalized_volume, rank)
from flowtri.planar import make_poset, maximal_equatorial_chains, rank_constant_filters
from flowtri.routes import (decomposition_framing, enumerate_routes,
                            route_decomposition)
from tests.conftest import (RU341, RU351, RU441, RU452, brute_count_lattice_points,
                            bundle_dag, chain, complex_euler_characteristic, complex_from_faces,
                            equatorial_flow_triangulation, equatorial_order_triangulation,
                            f_vector, gauss_jordan_rank, h_polynomial, hstar_by_binomials,
                            interpolate_polynomial, is_gorenstein, is_pure,
                            is_unimodular_simplex, lp_triangulation_ok, maximal_minor_gcd,
                            members, per_dilate_count_lattice_points, random_balanced_dag,
                            ridges_in_two_facets, route_unions, simplices_meet_in_common_face,
                            smith_divisors, swapped_vertex, trimmed, verify_triangulation,
                            with_simplices)
from tests.conftest import determinant as laplace_determinant


def test_smith_divisors_known_matrices():
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_divisors([[1, 2], [2, 4]]) == [1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3), st.permutations([0, 1, 2]))
def test_smith_divisors_invariant_under_row_permutation(rows, perm):
    assert smith_divisors(rows) == smith_divisors([rows[i] for i in perm])


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0]]) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=4), st.integers(0, 3))
def test_rank_matches_smith_divisor_count(rows, copies):
    """Fraction-free elimination against the Smith form, with repeated and
    combined rows so that low ranks come up."""
    rows = rows + [[a + 2 * b for a, b in zip(rows[0], r)] for r in rows[:copies]]
    assert rank(rows) == len(smith_divisors(rows))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda width: st.lists(
    st.lists(st.integers(-2, 2), min_size=width, max_size=width), max_size=12)),
       st.integers(0, 6))
def test_forward_rank_matches_gauss_jordan(rows, copies):
    """The forward-only elimination, on the matrix or on its transpose when
    that has fewer rows, against full Gauss-Jordan elimination: tall, wide
    and square matrices, with combined rows so that low ranks come up."""
    rows = rows + [[a - b for a, b in zip(rows[0], r)] for r in rows[1:copies + 1]]
    assert rank(rows) == gauss_jordan_rank(rows)


@st.composite
def square_matrices(draw) -> list[list[int]]:
    """0 x 0 to 6 x 6 integer matrices, with a row or a column made 0, or a
    row made the difference of two others, now and then, so that singular
    matrices of every shape come up."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        rows[i] = [a - b for a, b in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_determinant_matches_laplace_expansion(rows):
    """The signed last Bareiss pivot against Laplace expansion, sign
    included."""
    assert determinant(rows) == laplace_determinant(rows)


def test_determinant_known_matrices():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert determinant([[1, 2], [2, 4]]) == 0


def test_unimodular_simplex():
    assert is_unimodular_simplex([(0, 0), (1, 0), (0, 1)])
    assert not is_unimodular_simplex([(0, 0), (2, 0), (0, 1)])
    # lower-dimensional simplex in a bigger ambient space, lattice basis
    assert is_unimodular_simplex([(0, 0, 0), (1, 0, 1)])


@st.composite
def vertex_lists(draw) -> list[tuple[int, ...]]:
    """1 to n + 2 integer points in Z^n (n <= 5), so more difference rows
    than columns come up, with up to two vertices repeated (a repeat of the
    first vertex is a zero row)."""
    n = draw(st.integers(0, 5))
    point = st.tuples(*[st.integers(-3, 3)] * n)
    vertices = draw(st.lists(point, min_size=1, max_size=n + 2))
    for i in draw(st.lists(st.integers(0, len(vertices) - 1), max_size=2)):
        vertices.insert(draw(st.integers(0, len(vertices))), vertices[i])
    return vertices


@settings(max_examples=300, deadline=None)
@given(vertex_lists())
def test_unimodular_simplex_matches_maximal_minors(vertices):
    """The column pass is unimodular iff the maximal minors of the
    difference rows have gcd 1, and raises iff they are all 0."""
    rows = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    g = maximal_minor_gcd(rows)
    if g == 0:
        with pytest.raises(ValueError, match="affinely dependent"):
            is_unimodular_simplex(vertices)
    else:
        assert is_unimodular_simplex(vertices) == (g == 1)


def test_unimodular_simplex_on_a_dense_matrix():
    """A 7 x 7 difference matrix on which the Smith form's entries grew past
    5 M bits in 20 passes: the column pass decides it at once."""
    vertices = [(3, -3, -6, 6, -9, 3, 4), (-9, 5, -1, -2, 9, -6, 1), (-9, -9, -9, 8, -9, 3, -3),
                (4, -9, 7, -2, 5, 6, 8), (-2, 2, -2, -2, 5, 0, -9), (4, 8, -6, -4, 0, -6, 1),
                (7, 4, 7, -3, 0, 0, 9), (6, 7, 3, 9, -8, 6, -2)]
    rows = [[a - b for a, b in zip(v, vertices[0])] for v in vertices[1:]]
    assert is_unimodular_simplex(vertices) == (maximal_minor_gcd(rows) == 1)


def test_common_face_lp():
    a = [(0, 0), (1, 0), (0, 1)]
    b = [(1, 0), (0, 1), (1, 1)]
    shared = [(1, 0), (2, 1)]
    assert simplices_meet_in_common_face(a, b, shared)
    # overlapping interiors: same square split the other way
    c = [(0, 0), (1, 1), (1, 0)]
    assert not simplices_meet_in_common_face(a, c, [(0, 0), (1, 2)])


def test_complex_basics():
    cpx = complex_from_faces([("x", "y"), ("y", "z"), ("x",)])
    assert cpx.maximal_faces == (("x", "y"), ("y", "z"))
    assert f_vector(cpx) == (1, 3, 2)
    assert complex_euler_characteristic(cpx) == 1
    assert is_pure(cpx)
    # boundary of a triangle: a 1-sphere
    circle = complex_from_faces([(0, 1), (1, 2), (0, 2)])
    assert complex_euler_characteristic(circle) == 0
    assert h_polynomial(circle) == (1, 1, 1)
    assert ridges_in_two_facets(circle)


def test_interpolate_polynomial():
    assert interpolate_polynomial([1, 3, 5]) == [1, 2, 0]
    assert interpolate_polynomial([1]) == [1]
    sq = interpolate_polynomial([1, 2, 5, 10])
    assert sq == [1, 0, 1, 0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_interpolate_round_trip(coeffs):
    n = len(coeffs)
    values = [sum(c * t**i for i, c in enumerate(coeffs)) for t in range(n)]
    got = interpolate_polynomial(values)
    got += [Fraction(0)] * (n - len(got))
    assert got[:n] == [Fraction(c) for c in coeffs]


def test_lattice_point_counts_catalog():
    d1 = D1()
    assert [count_lattice_points(d1, t) for t in range(1, 4)] == [4, 9, 16]
    assert count_lattice_points(d1, 2, interior=True) == 1
    assert count_lattice_points(d1, 1, interior=True) == 0
    assert count_lattice_points(G(3), 1) == 3
    assert count_lattice_points(G(3), 3, interior=True) == 1


def assert_counts_match_brute_force(dag):
    """For every t <= d + 1, the one-pass counts, the per-dilate DP and
    ``count_lattice_points`` against the point-by-point count."""
    top = dimension(dag) + 1
    for interior in (False, True):
        brute = tuple(brute_count_lattice_points(dag, t, interior) for t in range(top + 1))
        assert lattice_counts(dag, top, interior) == brute, interior
        assert tuple(per_dilate_count_lattice_points(dag, t, interior)
                     for t in range(top + 1)) == brute, interior
        for t in range(top + 1):
            assert count_lattice_points(dag, t, interior) == brute[t], (t, interior)


# Bundles of 1-4 parallel edges at a vertex's first (not last) and last
# heads.  At lo = 1, b4's four-edge bundle at s asks for more than dilates
# 1-4 hold, and "dead-end" has no way out of vertex 1.
BUNDLE_DAGS = {
    "b4": bundle_dag(1, [(0, 1, 4), (0, 2, 1), (1, 2, 2)]),
    "b3": bundle_dag(1, [(0, 1, 3), (0, 2, 2), (1, 2, 1)]),
    "b2": bundle_dag(2, [(0, 1, 2), (0, 3, 1), (1, 2, 1), (1, 3, 2), (2, 3, 1)]),
    "b14": bundle_dag(1, [(0, 1, 1), (0, 2, 1), (1, 2, 4)]),
    "b23": bundle_dag(1, [(0, 1, 2), (1, 2, 3)]),
    "dead-end": bundle_dag(2, [(0, 1, 2), (0, 2, 3), (2, 3, 2)]),
}


@pytest.mark.parametrize("dag", [G(1), G(2), G(3), G(4), D1(), D2(), D3(), zigzag(),
                                 bypass(), chain(2, 3), chain(3, 2), chain(2, 4),
                                 *BUNDLE_DAGS.values()],
                         ids=["G1", "G2", "G3", "G4", "D1", "D2", "D3", "zigzag",
                              "bypass", "chain2x3", "chain3x2", "chain2x4", *BUNDLE_DAGS])
def test_lattice_point_dp_matches_brute_force_catalog(dag):
    assert_counts_match_brute_force(dag)


def test_bundle_counts_past_one_pass():
    """Dilates 0..LANES + 3 of a two-bundle graph in two passes, and one
    pass over a range that crosses LANES, against both oracles."""
    dag = bundle_dag(1, [(0, 1, 2), (0, 2, 1), (1, 2, 1)])
    top = LANES + 3
    for lo in (0, 1):
        brute = [brute_count_lattice_points(dag, t, bool(lo)) for t in range(top + 1)]
        assert list(lattice_counts(dag, top, bool(lo))) == brute, lo
        assert [per_dilate_count_lattice_points(dag, t, bool(lo))
                for t in range(top + 1)] == brute, lo
        assert _lattice_pass(dag, lo, LANES - 2, top) == brute[LANES - 2:], lo


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("kind", ["unbalanced", "idle-edge", "balanced"])
def test_lattice_point_dp_matches_brute_force_random(kind, seed):
    """Raw random_dag draws (mostly unbalanced, often with idle edges),
    their Gorenstein completions (balanced, idle edges kept) and the
    completions with idle edges contracted."""
    rng = random.Random(seed)
    if kind == "unbalanced":
        dag = random_dag(rng, 8)
    else:
        dag = gorenstein_completion(random_dag(rng, 6))
        assert degree_equality(dag)
        if kind == "balanced":
            try:
                dag, _ = contract_idle_edges(dag)
            except ValueError:
                return                     # contracts to a single point
            assert not idle_edges(dag)
    assert_counts_match_brute_force(dag)


@pytest.mark.parametrize("k,m", [(12, 2), (13, 2), (6, 3), (4, 4), (3, 5), (2, 7)])
def test_chain_counts_closed_form_at_scale(k, m):
    """chain k x m is a product of k (m-1)-simplices: L(t) = C(t+m-1, m-1)^k,
    and C(t-1, m-1)^k points have every edge positive; its normalized
    volume is the multinomial (k(m-1))! / ((m-1)!)^k.  Dim 12-13, where a
    point-by-point count would visit up to 10^10 flows."""
    dag = chain(k, m)
    top = dimension(dag) + 1
    assert top - 1 == k * (m - 1) in (12, 13)
    counts = tuple(comb(t + m - 1, m - 1) ** k for t in range(top + 1))
    interior = (0,) + tuple(comb(t - 1, m - 1) ** k for t in range(1, top + 1))
    assert lattice_counts(dag, top) == counts         # every dilate in one pass
    assert lattice_counts(dag, top, interior=True) == interior
    assert normalized_volume(dag) == factorial(k * (m - 1)) // factorial(m - 1) ** k
    for t in range(top + 1):
        assert count_lattice_points(dag, t) == counts[t]
        assert count_lattice_points(dag, t, interior=True) == interior[t]


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_parallel_edge_counts_closed_form(k):
    """G(k), k parallel s -> t edges, is a (k-1)-simplex: L(t) = C(t+k-1, k-1),
    and C(t-1, k-1) points have every edge positive.  Three passes of
    LANES dilates each."""
    top = 2 * LANES + 3
    assert lattice_counts(G(k), top) == tuple(comb(t + k - 1, k - 1) for t in range(top + 1))
    assert lattice_counts(G(k), top, interior=True) == \
        (0,) + tuple(comb(t - 1, k - 1) for t in range(1, top + 1))


def test_lattice_counts_on_fuzz_seed_0_ninth_draw():
    """The ninth graph ``flowtri fuzz --seed 0 --max-edges 14`` draws,
    completed: 25 edges, dim 22, 172 routes; every dilate to 23 in one pass
    against the per-dilate DP."""
    rng = random.Random(0)
    for _ in range(9):
        drawn = random_dag(rng, 14)
    dag = gorenstein_completion(drawn)
    top = dimension(dag) + 1
    assert (len(dag.edges), top - 1) == (25, 22)
    for interior in (False, True):
        assert lattice_counts(dag, top, interior) == tuple(
            per_dilate_count_lattice_points(dag, t, interior) for t in range(top + 1))
    assert lattice_counts(dag, 1)[1] == len(enumerate_routes(dag)) == 172


def test_hstar_of_a_simplex_of_dimension_1009():
    """G(1010): 32 passes for L(0..1009) and 32 for the interior counts up
    to the codegree 1010, each with lanes of C(t+1009, 1009)."""
    hs = ehrhart_hstar(G(1010))
    assert trimmed(hs.h_star) == (1,) and hs.codegree == 1010
    assert hs.counts[::101] == tuple(comb(t + 1009, 1009) for t in range(0, 1010, 101))


@pytest.mark.parametrize("dag", [G(1), G(3), D1(), D2(), zigzag(), bypass()],
                         ids=["G1", "G3", "D1", "D2", "zigzag", "bypass"])
def test_lattice_counts_at_the_ends(dag):
    """No dilate below 0, and dilate 0 holds the zero flow alone, which is
    not interior on a graph with edges."""
    assert count_lattice_points(dag, -1) == count_lattice_points(dag, -1, interior=True) == 0
    assert lattice_counts(dag, -1) == ()
    assert lattice_counts(dag, 0) == (1,)
    assert lattice_counts(dag, 0, interior=True) == (0,)


def test_lattice_counts_through_a_dead_end():
    """Vertex 1 has no out-edge, so no flow may enter it: only the route
    s -> 2 -> t carries flow."""
    dag = make_dag(2, [("a", 0, 1), ("b", 0, 2), ("c", 2, 3)])
    assert lattice_counts(dag, 3) == (1, 1, 1, 1)
    assert lattice_counts(dag, 3, interior=True) == (0, 0, 0, 0)
    assert_counts_match_brute_force(dag)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_injected_pass_matches_brute_force(seed):
    """Random injections, lower bounds and dilate ranges on raw random_dag
    draws (unbalanced, idle edges) and on the bundle graphs (a dead end
    too): the pass against the point-by-point count extended to a netflow
    vector."""
    rng = random.Random(seed)
    for dag in (random_dag(rng, 7), rng.choice(list(BUNDLE_DAGS.values()))):
        inject = [0] + [rng.randint(0, 2) for _ in dag.inner_vertices]
        top = rng.randint(0, 3)
        first = rng.randint(0, top)
        for lo in (0, 1):
            assert _lattice_pass(dag, lo, first, top, inject) == [
                brute_count_lattice_points(dag, t, bool(lo), inject)
                for t in range(first, top + 1)], (dag, lo, inject)


@pytest.mark.parametrize("dag", [G(1), G(3), D1(), D2(), D3(), zigzag(), bypass(),
                                 chain(2, 3), chain(3, 2), chain(2, 4)],
                         ids=["G1", "G3", "D1", "D2", "D3", "zigzag", "bypass",
                              "chain2x3", "chain3x2", "chain2x4"])
def test_lidskii_count_matches_brute_force(dag):
    """The flows with indeg(v) - 1 units injected at each inner vertex v
    and none leaving the source, visited one by one."""
    inject = [0] + [dag.indeg(v) - 1 for v in dag.inner_vertices]
    assert normalized_volume(dag) == brute_count_lattice_points(dag, 0, False, inject)


def assert_volume_is_hstar_sum(dag):
    assert normalized_volume(dag) == sum(ehrhart_hstar(dag).h_star), dag


def test_lidskii_volume_is_hstar_sum_random():
    """200 idle-free balanced draws and 200 raw random_dag draws that
    ``validate`` takes (mostly unbalanced, often with idle edges)."""
    rng = random.Random(406)
    for _ in range(200):
        assert_volume_is_hstar_sum(random_balanced_dag(rng, max_edges=9))
    drawn = 0
    while drawn < 200:
        dag = random_dag(rng, 9)
        if validate(dag).ok:
            assert_volume_is_hstar_sum(dag)
            drawn += 1


@settings(max_examples=40, deadline=None)
@given(route_unions())
def test_lidskii_volume_is_hstar_sum_route_unions(dag):
    assert_volume_is_hstar_sum(dag)


def test_normalized_volume_rejects_an_invalid_graph():
    """A dead inner vertex (no out-edge, then no in-edge) and a graph with
    no source edge: ``validate`` rejects each, and so does the count."""
    for dag in (make_dag(2, [("a", 0, 1), ("b", 0, 2), ("c", 2, 3)]),
                make_dag(2, [("a", 0, 2), ("b", 1, 2), ("c", 2, 3)]),
                make_dag(0, [])):
        assert not validate(dag).ok
        with pytest.raises(ValueError, match="invalid graph"):
            normalized_volume(dag)


# a route union of four s-t routes: balanced, idle-free, dim 13, 348 routes
BIG = make_dag(6, [("e00", 0, 1), ("e01", 0, 1), ("e02", 0, 1), ("e03", 0, 1),
                   ("e04", 1, 2), ("e05", 1, 2), ("e06", 1, 3), ("e07", 1, 5),
                   ("e08", 2, 3), ("e09", 2, 5), ("e10", 3, 4), ("e11", 3, 4),
                   ("e12", 4, 5), ("e13", 4, 7), ("e14", 5, 6), ("e15", 5, 6),
                   ("e16", 5, 6), ("e17", 6, 7), ("e18", 6, 7), ("e19", 6, 7)])


def test_gorenstein_at_scale():
    """ehrhart_hstar checks h* and the codegree against interior counts,
    and palindromicity against degree equality."""
    assert dimension(BIG) == 13 and len(enumerate_routes(BIG)) == 348
    assert degree_equality(BIG) and not idle_edges(BIG)
    assert is_gorenstein(BIG)
    hs = ehrhart_hstar(BIG)
    assert trimmed(hs.h_star) == (1, 334, 12859, 133244, 499604, 767116, 499604,
                                  133244, 12859, 334, 1)
    assert hs.codegree == BIG.outdeg(0) == 4
    assert hs.counts[-1] == 633354052800


VOLUME_CATALOG = {"G1": G(1), "G3": G(3), "G7": G(7), "D1": D1(), "D2": D2(), "D3": D3(),
                  "zigzag": zigzag(), "bypass": bypass(), "BIG": BIG, "RU351": RU351,
                  "RU441": RU441, "RU341": RU341, "RU452": RU452,
                  **{f"chain{k}x{m}": chain(k, m)
                     for k, m in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3))}}


@pytest.mark.parametrize("name", sorted(VOLUME_CATALOG))
def test_lidskii_volume_is_hstar_sum_catalog(name):
    """The catalog, the chains and the route unions of ROADMAP's walls
    (dim 10-14)."""
    assert_volume_is_hstar_sum(VOLUME_CATALOG[name])


def test_hstar_catalog():
    assert trimmed(ehrhart_hstar(G(3)).h_star) == (1,)
    assert trimmed(ehrhart_hstar(D1()).h_star) == (1, 1)
    assert trimmed(ehrhart_hstar(D2()).h_star) == (1, 4, 1)
    assert trimmed(ehrhart_hstar(D3()).h_star) == (1, 4, 1)
    assert trimmed(ehrhart_hstar(zigzag()).h_star) == (1, 3, 1)
    hs = ehrhart_hstar(bypass())
    assert trimmed(hs.h_star) == (1, 3, 1)
    assert hs.degree == 2 and hs.codegree == 3
    assert normalized_volume(D2()) == 6
    assert is_gorenstein(D1()) and is_gorenstein(D3())
    assert is_gorenstein(bypass())
    # unbalanced and idle-free: h* = (1, 2), not palindromic
    assert not is_gorenstein(make_dag(1, [("a", 0, 1), ("b", 0, 1),
                                          ("c", 1, 2), ("d", 1, 2), ("e", 1, 2)]))
    # an idle edge can hide the balance without changing the polytope
    assert is_gorenstein(make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)]))


def test_palindromy_check_fires_on_a_broken_count(monkeypatch):
    """Negative control: a rebound ``lattice_counts`` that adds
    z / (1 - z)^(d+1) to the Ehrhart series lifts h*_1 by one, so D1's h*
    becomes (1, 2) with its codegree check still passing, while D1 is
    balanced and idle-free."""
    real = geometry.lattice_counts

    def lifted(dag, top, interior=False):
        counts, d = real(dag, top, interior), dimension(dag)
        return counts if interior else tuple(
            c + (comb(t - 1 + d, d) if t else 0) for t, c in enumerate(counts))

    monkeypatch.setattr(geometry, "lattice_counts", lifted)
    with pytest.raises(AssertionError, match=r"h\* \[1, 2\] palindromic is False but "
                                             r"degree_equality is True"):
        ehrhart_hstar(D1())


def test_palindromy_check_skips_idle_edges():
    """s => 1 -> t is a segment, so its h* = (1) is palindromic, while the
    idle edge 1 -> t leaves vertex 1 unbalanced: no check, no error."""
    dag = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    assert idle_edges(dag) == ("c",) and not degree_equality(dag)
    assert trimmed(ehrhart_hstar(dag).h_star) == (1,)


def test_hstar_differences_match_binomial_oracle():
    rng = random.Random(23)
    dags = [G(3), D1(), D2(), D3(), zigzag(), bypass(), BIG]
    dags += [chain(k, m) for k, m in ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3))]
    dags += [random_balanced_dag(rng, max_edges=8) for _ in range(25)]
    for dag in dags:
        hs = ehrhart_hstar(dag)
        assert hs.h_star == hstar_by_binomials(hs.counts), dag


def test_hstar_palindromic_for_balanced_dags():
    rng = random.Random(17)
    for _ in range(25):
        dag = random_balanced_dag(rng, max_edges=8)
        hs = ehrhart_hstar(dag)
        assert trimmed(hs.h_star) == trimmed(hs.h_star)[::-1]
        assert hs.codegree == dag.outdeg(0)
        assert sum(hs.h_star) == normalized_volume(dag)


def test_verify_triangulation_accepts_dkk():
    for dag in (D1(), D2(), D3()):
        framing = decomposition_framing(dag, route_decomposition(dag))
        tri = dkk_triangulation(dag, framing)
        dim = len(dag.edges) - dag.inner_count - 1
        assert verify_triangulation(tri, dim, normalized_volume(dag)).ok


def dkk_and_equatorial(dag):
    """The DKK and the equatorial triangulation of the route decomposition;
    just one when they have the same simplices."""
    decomp = route_decomposition(dag)
    dkk = dkk_triangulation(dag, decomposition_framing(dag, decomp))
    eq = equatorial_flow_triangulation(dag, decomp)
    return [dkk] if eq.simplices == dkk.simplices else [dkk, eq]


def assert_ridge_check_matches_lp(tri, dim, volume, ok):
    """The ridge check and the pairwise-LP oracle both give verdict ``ok``."""
    assert verify_triangulation(tri, dim, volume).ok is ok
    assert lp_triangulation_ok(tri, dim, volume) is ok


@pytest.mark.parametrize("dag", [D1(), D2(), D3(), zigzag(), bypass(), G(3), chain(2, 3),
                                 chain(3, 2), chain(4, 2), chain(2, 4)],
                         ids=["D1", "D2", "D3", "zigzag", "bypass", "G3", "chain2x3",
                              "chain3x2", "chain4x2", "chain2x4"])
def test_ridge_check_matches_lp_oracle_catalog(dag):
    for tri in dkk_and_equatorial(dag):
        assert_ridge_check_matches_lp(tri, dimension(dag), normalized_volume(dag), True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ridge_check_matches_lp_oracle_random(seed):
    dag = random_balanced_dag(random.Random(seed), max_edges=8)
    for tri in dkk_and_equatorial(dag):
        assert_ridge_check_matches_lp(tri, dimension(dag), normalized_volume(dag), True)


@pytest.mark.parametrize("dag", [D2(), zigzag(), chain(4, 2)],
                         ids=["D2", "zigzag", "chain4x2"])
def test_ridge_check_and_lp_oracle_reject_corruptions(dag):
    dim, vol = dimension(dag), normalized_volume(dag)
    for tri in dkk_and_equatorial(dag):
        dropped = with_simplices(tri, tri.simplices[1:])
        doubled = with_simplices(tri, tri.simplices + tri.simplices[:1])
        for bad in (dropped, doubled, swapped_vertex(tri)):
            assert_ridge_check_matches_lp(bad, dim, vol, False)
        # the ridges alone catch them even when the count is made to match
        assert any("not on the boundary" in i for i in
                   verify_triangulation(dropped, dim, vol - 1).issues)
        assert any("lies in 3 simplices" in i for i in
                   verify_triangulation(doubled, dim, vol + 1).issues)
    d1 = D1()
    square = equatorial_flow_triangulation(d1, route_decomposition(d1))
    overlap = with_simplices(square, map(_mask, ((0, 1, 2), (0, 1, 3))))
    assert_ridge_check_matches_lp(overlap, 2, 2, False)
    assert "simplices (0, 1, 2) and (0, 1, 3) lie on the same side of ridge (0, 1)" \
        in verify_triangulation(overlap, 2, 2).issues


@pytest.mark.parametrize("k,m", [(5, 2), (3, 3)])
def test_verify_triangulation_at_scale(k, m):
    """chain k x m is a product of k (m-1)-simplices; its DKK triangulation
    has (k(m-1))! / ((m-1)!)^k simplices: 120 for 5 x 2 (57.7 s of LP
    pairs) and 90 for 3 x 3."""
    dag = chain(k, m)
    tri = dkk_triangulation(dag, decomposition_framing(dag, route_decomposition(dag)))
    count = factorial(k * (m - 1)) // factorial(m - 1) ** k
    assert len(tri.simplices) == count == normalized_volume(dag)
    assert verify_triangulation(tri, dimension(dag), count).ok


def test_verify_triangulation_reports_malformed_input():
    d1 = D1()
    square = equatorial_flow_triangulation(d1, route_decomposition(d1))
    empty = verify_triangulation(with_simplices(square, ()), 2, 2)
    assert empty.issues == ("no simplices", "0 simplices but normalized volume 2")
    short = verify_triangulation(with_simplices(square, map(_mask, ((0, 1, 2), (1, 3), ()))),
                                 2, 2)
    assert short.issues[:2] == ("simplex (1, 3) has 2 vertices, expected 3",
                                "simplex () has 0 vertices, expected 3")
    two = tuple(map(_mask, ((0, 1, 2), (0, 1, 3))))
    # vertex 3 put on vertex 0
    flat = Triangulation(two, square.labels, square.coords[:3] + square.coords[:1])
    assert verify_triangulation(flat, 2, 2).issues == ("simplex (0, 1, 3) is degenerate",)
    stray = verify_triangulation(with_simplices(square, map(_mask, ((0, 1, 2), (0, 1, 9)))),
                                 2, 2)
    assert stray.issues == ("simplex (0, 1, 9) names a vertex without coordinates",)
    lifted = Triangulation(square.simplices, square.labels, square.coords + ((2, 0, 0, 0),))
    assert verify_triangulation(lifted, 2, 2).issues == (
        "the points span dimension 3, expected 2",)
    point = (with_simplices(square, (0,)), -1, 1)
    assert verify_triangulation(*point).issues == ("simplex () has no vertices",)
    cases = [point]
    for entry in ((0, 1, 3), True, -11, "0b1011"):     # no int mask of vertices
        case = (with_simplices(square, (two[0], entry)), 2, 2)
        assert verify_triangulation(*case).issues == (
            f"simplex {entry!r} is not a mask of vertex indices",)
        cases.append(case)
    for case in cases[1:]:          # D1 has dimension 2 and volume 2
        assert verify_dkk_triangulation(d1, case[0]) == verify_triangulation(*case)
    with pytest.raises(ValueError, match="invalid graph"):
        verify_dkk_triangulation(make_dag(1, [("a", 0, 2)]), square)
    cube = chain(3, 2)
    tri = dkk_triangulation(cube, decomposition_framing(cube, route_decomposition(cube)))
    face = _mask(i for i, x in enumerate(tri.coords) if x[0] == 1)   # a square
    assert face.bit_count() == 4
    bad = verify_triangulation(with_simplices(tri, (face,) + tri.simplices[1:]), 3, 6)
    assert bad.issues == (f"simplex {_members(face)} is degenerate",)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda size: st.lists(
    st.sets(st.integers(0, 100), min_size=size, max_size=size).map(_mask), max_size=40)))
def test_canonical_order_is_the_member_order_within_a_size(masks):
    """Masks of one size sort by their bit-reversed value, descending, as
    their member tuples sort; across sizes they do not."""
    assert _canonical(masks) == sorted(masks, key=_members)
    assert _canonical([_mask((0,)), _mask((0, 1))]) == [_mask((0, 1)), _mask((0,))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(0, 70), max_size=8).map(_mask), max_size=40))
@example([_mask((0,)), _mask((0, 1)), 0, _mask((1,)), _mask((0, 2))])
def test_member_order_is_the_member_order_across_sizes(masks):
    """The key ``_member_order`` sorts masks of mixed sizes, the empty one
    included, as their member tuples sort."""
    assert sorted(masks, key=_member_order) == sorted(masks, key=_members)


def test_join_with_an_empty_complex_or_a_wrong_size():
    """The join with no faces, or with the empty face alone, is the simplex,
    on the flow side (G(3): T_eq is the empty face) and on the order side
    (a chain poset: no equatorial chains); a simplex of the wrong size
    raises."""
    simplex = _mask((2, 0, 1))
    assert join_with_simplex(simplex, (), 3) == join_with_simplex(simplex, (0,), 3) == (simplex,)
    g3 = G(3)
    decomp = route_decomposition(g3)
    routes, _, _, sphere = equatorial_sphere(g3, decomp)
    assert members(sphere.maximal_faces) == ((),)
    assert members(joined_simplices(g3, routes, decomp, sphere)) == ((0, 1, 2),)
    chain3 = make_poset("abc", [("a", "b"), ("b", "c")])
    assert maximal_equatorial_chains(chain3) == ()
    sigma = rank_constant_filters(chain3)
    assert equatorial_order_triangulation(chain3).simplices == (sigma,)
    with pytest.raises(AssertionError, match=r"join simplex \(0, 1, 2\) has size 3"):
        join_with_simplex(_mask((0,)), (_mask((1,)), _mask((1, 2))), 2)
    with pytest.raises(AssertionError, match="expected 2"):
        join_with_simplex(_mask((0,)), (), 2)
