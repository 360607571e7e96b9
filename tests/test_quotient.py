import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import count, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri import quotient
from flowtri.dag import D1, D2, D3, G, bypass, make_dag, zigzag
from flowtri.equatorial import equatorial_facets
from flowtri.geometry import rank
from flowtri.quotient import (_block_points, _functionals, check_transversal_identity,
                              edge_labels, leveled_space, phi, quotient_facets,
                              ReflexiveReport, verify_reflexive)
from flowtri.routes import NotGorensteinError, enumerate_routes, route_decomposition
from tests.conftest import (RU351, all_routes, box_scan_verify_reflexive, chain, dense_pairs_and_failures,
                            dense_transversal_identity, dict_phi, filtered_block_points,
                            gauss_jordan_rank, random_balanced_dag, route_unions, scaled,
                            sliced_functionals, slot_index, unpacking_verify_reflexive)
from tests.test_geometry import BIG


def test_edge_labels_and_space_d2():
    d2 = D2()
    decomp = route_decomposition(d2)
    labels = edge_labels(decomp)
    assert labels == {"a": 1, "c": 1, "e": 1, "b": 2, "d": 2, "f": 2}
    space = leveled_space(d2, decomp)
    assert space.blocks == ((1, (1, 2)), (2, (1, 2)))
    assert space.dim == 4


def test_phi_kills_decomposition_routes():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        for r in decomp:
            assert all(v == 0 for v in phi(leveled_space(dag, decomp), r))


def test_quotient_d1_is_segment():
    d1 = D1()
    q = quotient_facets(d1, route_decomposition(d1))
    coords = {c for _, c in q.vertices}
    assert coords == {(1, -1), (-1, 1)}
    assert len(q.facets) == 2


def test_quotient_hexagons():
    for dag in (D2(), D3()):
        q = quotient_facets(dag, route_decomposition(dag))
        assert len(q.vertices) == 6
        assert len(q.facets) == 6
        assert len(q.facets) == len(equatorial_facets(
            dag, route_decomposition(dag), all_routes(dag)))


def assert_one_facet_per_equatorial_facet(dag):
    """No two equatorial facets share a functional, so the quotient keeps
    each facet's own transversal, whatever order it reads the facets in."""
    decomp = route_decomposition(dag)
    q = quotient_facets(dag, decomp)
    facets = equatorial_facets(dag, decomp, all_routes(dag))
    assert len(q.facets) == len(facets)
    assert {m for m, _ in q.facets} == set(facets.values())


@pytest.mark.parametrize("dag", [RU351, BIG], ids=["RU351", "BIG"])
def test_quotient_facet_count_matches_equatorial_facets_at_scale(dag):
    assert_one_facet_per_equatorial_facet(dag)


@settings(max_examples=40, deadline=None)
@given(dag=route_unions())
def test_quotient_facet_count_matches_equatorial_facets_route_unions(dag):
    assert_one_facet_per_equatorial_facet(dag)


def test_quotient_reflexive():
    for dag in (D1(), D2(), D3()):
        q = quotient_facets(dag, route_decomposition(dag))
        rep = verify_reflexive(q)
        assert rep.ok, rep.issues
        assert rep.interior_points == ((0,) * q.space.dim,)


def test_scaled_quotient_fails_reflexivity():
    d2 = D2()
    q = quotient_facets(d2, route_decomposition(d2))
    assert not verify_reflexive(scaled(q, 2)).ok


def check_against_oracles(q):
    """The block-by-block scan and the route-by-route identity test against the
    dense box scan and dense dot products, on q and on its dilations by 2
    and 3; the dilations must fail unless q has no vertex to dilate."""
    assert check_transversal_identity(q) == dense_pairs_and_failures(q)
    report = verify_reflexive(q)
    assert report.ok, report.issues
    assert report == box_scan_verify_reflexive(q)
    for factor in (2, 3):
        bad = scaled(q, factor)
        assert check_transversal_identity(bad) == dense_pairs_and_failures(bad)
        report = verify_reflexive(bad)
        assert report == box_scan_verify_reflexive(bad)
        assert report.ok == (not q.vertices)


CATALOG_CASES = [
    (G(3), None), (D1(), None), (D1(), (("a", "d"), ("b", "c"))), (D2(), None),
    (D3(), None), (zigzag(), None), (bypass(), None)]
CATALOG_IDS = ["G3", "D1", "D1-crossed", "D2", "D3", "zigzag", "bypass"]
CATALOG = pytest.mark.parametrize("dag,decomp", CATALOG_CASES, ids=CATALOG_IDS)


@CATALOG
def test_reflexivity_matches_box_scan_oracle_catalog(dag, decomp):
    check_against_oracles(quotient_facets(dag, decomp or route_decomposition(dag)))


def scaled_functionals(q, factor):
    """Every facet coefficient times ``factor``: a reflexivity control."""
    return replace(q, facets=tuple((m, tuple(factor * c for c in coeffs))
                                   for m, coeffs in q.facets))


@CATALOG
def test_packed_lanes_at_width_edges(dag, decomp):
    """Negative, wide and wider-than-64-bit values against the dense
    oracles: vertices scaled by -1, 128, 200, 2**63 and 2**70 for the
    identity test, coefficients scaled by 128, 300, 2**63 and 2**70 for the
    interior scan.  A value of 128 or 2**63 fills a whole 8- or 64-bit
    lane, so those factors catch a lane one bit too narrow."""
    q = quotient_facets(dag, decomp or route_decomposition(dag))
    for factor in (-1, 128, 200, 2**63, 2**70):
        bad = scaled(q, factor)
        assert check_transversal_identity(bad) == dense_pairs_and_failures(bad)
    for factor in (128, 300, 2**63, 2**70):
        wide = scaled_functionals(q, factor)
        assert verify_reflexive(wide) == box_scan_verify_reflexive(wide)


@CATALOG
def test_identity_keeps_a_single_lane_difference(dag, decomp):
    """One coordinate of one route image raised or lowered by 1 or by 2**64,
    on every coordinate of every image, breaks the identity at that route
    alone, for the transversals whose functional is nonzero there: the
    failures must be exactly the dense oracle's."""
    q = quotient_facets(dag, decomp or route_decomposition(dag))
    for j, (i, image) in enumerate(q.vertices):
        for k in range(q.space.dim):
            for delta in (1, -1, 2**64, -2**64):
                vertices = list(q.vertices)
                vertices[j] = (i, image[:k] + (image[k] + delta,) + image[k + 1:])
                bad = replace(q, vertices=tuple(vertices))
                assert check_transversal_identity(bad) == dense_pairs_and_failures(bad)


@pytest.mark.parametrize("dag,decomp", CATALOG_CASES + [(BIG, None)],
                         ids=CATALOG_IDS + ["BIG"])
def test_identity_unpacks_nothing_when_it_holds(dag, decomp, monkeypatch):
    """Every route passes its one pass over the decomposition's steps, so
    no transversal is walked."""
    q = quotient_facets(dag, decomp or route_decomposition(dag))

    def walk(*routes):
        raise AssertionError(f"walked the transversals of {routes}")

    monkeypatch.setattr(quotient, "product", walk)
    assert check_transversal_identity(q) == (len(q.routes) * prod(map(len, q.decomp)), ())


def check_fast_paths(dag, decomp=None, dilate=True):
    """The slot-table images and functionals, the forward-only rank, the
    zero-sum block points and the popcount vertex check against the code
    they replace (conftest's oracles); the vertex check also on the
    ``scaled_functionals`` controls and, with ``dilate``, on dilations by
    -1, 2 and 3 (whose interior scans grow with the box)."""
    decomp = decomp or route_decomposition(dag)
    q = quotient_facets(dag, decomp)
    space = q.space
    images = [dict_phi(dag, decomp, space, r) for r in q.routes]
    assert [phi(space, r) for r in q.routes] == images
    assert q.vertices == tuple((i, img) for i, (r, img) in enumerate(zip(q.routes, images))
                               if r not in decomp)
    want = sliced_functionals(space, decomp)
    assert all(coeffs == want[m] for m, coeffs in q.facets)
    rows = [c for _, c in q.vertices]
    assert rank(rows) == gauss_jordan_rank(rows) == space.quotient_dim
    coords = rows or [(0,) * space.dim]
    lo, hi, pos = list(map(min, zip(*coords))), list(map(max, zip(*coords))), 0
    for _, labels in space.blocks:
        box = lo[pos:pos + len(labels)], hi[pos:pos + len(labels)]
        assert _block_points(*box) == filtered_block_points(*box)
        pos += len(labels)
    controls = [q] + [scaled_functionals(q, f) for f in (128, 2**70)]
    if dilate:
        controls += [scaled(q, f) for f in (-1, 2, 3)]
    for control in controls:
        assert verify_reflexive(control) == unpacking_verify_reflexive(control)
        assert check_transversal_identity(control) == dense_pairs_and_failures(control)
    assert verify_reflexive(q).ok


@CATALOG
def test_fast_paths_match_replaced_code_catalog(dag, decomp):
    check_fast_paths(dag, decomp)


@pytest.mark.parametrize("k,m", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_fast_paths_match_replaced_code_chains(k, m):
    check_fast_paths(chain(k, m))


@pytest.mark.parametrize("dag", [RU351, BIG], ids=["RU351", "BIG"])
def test_fast_paths_match_replaced_code_at_scale(dag):
    """RU351 (dim 10, 144 transversals) and BIG (dim 13, 560): undilated,
    since a dilated box's interior scan grows past a test's budget."""
    check_fast_paths(dag, dilate=False)


@settings(max_examples=30, deadline=None)
@given(dag=route_unions())
def test_fast_paths_match_replaced_code_route_unions(dag):
    check_fast_paths(dag)


@settings(max_examples=20, deadline=None)
@given(dag=route_unions(max_inner=2))
def test_reflexivity_matches_box_scan_oracle_route_unions(dag):
    """At most 8 coordinates, so the dense box scan stays small; the
    dilations run against it in the catalog and random tests."""
    q = quotient_facets(dag, route_decomposition(dag))
    for control in (q, scaled_functionals(q, 300)):
        assert verify_reflexive(control) == box_scan_verify_reflexive(control)


@settings(max_examples=200, deadline=None)
@given(box=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)), max_size=4))
def test_block_points_match_filtered_box(box):
    lo = [a for a, _ in box]
    hi = [a + w for a, w in box]
    assert _block_points(lo, hi) == filtered_block_points(lo, hi)


@pytest.mark.parametrize("dag,decomp", CATALOG_CASES + [(chain(3, 3), None), (RU351, None),
                                                        (BIG, None)],
                         ids=CATALOG_IDS + ["chain3x3", "RU351", "BIG"])
def test_passing_vertex_check_unpacks_nothing(dag, decomp, monkeypatch):
    """A vertex is unpacked only to name the facets it violates, so a
    passing ``verify_reflexive`` unpacks no lane."""
    q = quotient_facets(dag, decomp or route_decomposition(dag))

    def unpack(self, packed):
        raise AssertionError(f"unpacked {packed}")

    monkeypatch.setattr(quotient._Lanes, "unpack", unpack)
    assert verify_reflexive(q).ok


def test_decomposition_route_off_the_origin_raises(monkeypatch):
    """An image step that moves every route by one unit in the first
    coordinate breaks the first invariant of ``quotient_facets``."""
    real = quotient.phi
    monkeypatch.setattr(quotient, "phi", lambda space, route: (1,) + real(space, route)[1:])
    d2 = D2()
    decomp = route_decomposition(d2)
    with pytest.raises(AssertionError,
                       match=rf"^decomposition route {re.escape(str(decomp[0]))} "
                             r"does not project to 0$"):
        quotient_facets(d2, decomp)


def test_coinciding_vertices_raise(monkeypatch):
    """An image step that sends every route outside the decomposition to
    one point breaks the second invariant."""
    d2 = D2()
    decomp = route_decomposition(d2)
    real = quotient.phi

    def image(space, route):
        return real(space, route) if route in decomp else (1,) + (0,) * (space.dim - 1)

    monkeypatch.setattr(quotient, "phi", image)
    with pytest.raises(AssertionError, match="^projected vertices are not distinct$"):
        quotient_facets(d2, decomp)


def test_rank_below_quotient_dim_raises(monkeypatch):
    """An image step that puts the routes outside the decomposition at
    distinct points of one line breaks the third invariant: D2's quotient
    has dimension 2."""
    d2 = D2()
    decomp = route_decomposition(d2)
    real, step = quotient.phi, count(1)

    def image(space, route):
        if route in decomp:
            return real(space, route)
        n = next(step)
        return (n, -n) + (0,) * (space.dim - 2)

    monkeypatch.setattr(quotient, "phi", image)
    with pytest.raises(AssertionError, match="^quotient rank 1 != expected dimension 2$"):
        quotient_facets(d2, decomp)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reflexivity_matches_box_scan_oracle_random(seed):
    dag = random_balanced_dag(random.Random(seed))
    check_against_oracles(quotient_facets(dag, route_decomposition(dag)))


def test_quotient_at_scale():
    """BIG's flow polytope has dimension 13 and its quotient dimension 10,
    in 16 coordinates: the dense box scan visits 3^16 points, about 30 s, so
    no oracle runs here."""
    q = quotient_facets(BIG, route_decomposition(BIG))
    assert q.space.dim == 16 and sum(len(l) - 1 for _, l in q.space.blocks) == 10
    report = verify_reflexive(q)
    assert report.ok, report.issues
    assert report.interior_points == ((0,) * q.space.dim,)
    assert check_transversal_identity(q) == (348 * prod(map(len, q.decomp)), ())


def test_transversal_identity_exhaustive_catalog():
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        q = quotient_facets(dag, decomp)
        rows = dense_transversal_identity(q)
        for s, m, lhs, rhs in rows:
            assert lhs == rhs, (s, m, lhs, rhs)
        assert [(s, m) for s, m, _, _ in rows] == list(
            product(enumerate_routes(dag), product(*decomp)))
        pairs = len(enumerate_routes(dag)) * prod(map(len, decomp))
        assert check_transversal_identity(q) == dense_pairs_and_failures(q) == (pairs, ())


def test_transversal_identity_value_example():
    """The identity holds on D1, so its values show only once the vertices
    are doubled: each lhs doubles and each rhs stays."""
    d1 = D1()
    decomp = route_decomposition(d1)          # ((a, c), (b, d))
    pairs, failures = check_transversal_identity(scaled(quotient_facets(d1, decomp), 2))
    assert pairs == 16
    # route (a, d) crosses the transversal (a, d) twice: rhs = 1 - 2
    assert (("a", "d"), ("a", "d"), -2, -1) in failures
    # and dodges the transversal (c, b) entirely: rhs = 1
    assert (("a", "d"), ("c", "b"), 2, 1) in failures
    # an empty "route" begins no decomposition route: the constants sum to 0
    q = quotient_facets(d1, decomp)
    _, failures = check_transversal_identity(replace(q, routes=q.routes + ((),)))
    assert failures == tuple(((), m, 0, 1) for m in product(*decomp))


def test_non_integral_facet_is_reported_not_raised():
    """A halved facet is reported as not integral, before any point is
    scanned; facets of integral Fractions scan like ints."""
    d2 = D2()
    q = quotient_facets(d2, route_decomposition(d2))
    (m, coeffs), *rest = q.facets
    halved = replace(q, facets=((m, tuple(Fraction(c, 2) for c in coeffs)), *rest))
    assert verify_reflexive(halved) == ReflexiveReport(
        (f"facet for {m} is not integral",), ())
    whole = replace(q, facets=tuple((m, tuple(map(Fraction, c))) for m, c in q.facets))
    assert verify_reflexive(whole) == verify_reflexive(q)
    assert verify_reflexive(q).ok


def test_functional_support():
    d2 = D2()
    decomp = route_decomposition(d2)          # ((a, c, e), (b, d, f))
    space = leveled_space(d2, decomp)
    coeffs = _functionals(space, decomp, [("e", "b")])[("e", "b")]
    assert coeffs == sliced_functionals(space, decomp)[("e", "b")]
    support = {pair for pair, k in slot_index(space).items() if coeffs[k]}
    # prefix of route 1 before e passes vertices 1 and 2 at label 1
    assert support == {(1, 1), (2, 1)}


def test_quotient_rejects_unbalanced():
    unbalanced = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    with pytest.raises(NotGorensteinError):
        quotient_facets(unbalanced, ())
