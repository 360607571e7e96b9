"""Top-level acceptance gate: ten end-to-end checks, one summary line each."""

import json
import random
from itertools import product

import pytest

from flowtri.cli import main
from flowtri.dag import (D1, D2, D3, G, bypass, dag_to_json, degree_equality,
                         dimension, random_dag)
from flowtri.dkk import dkk_triangulation
from flowtri.equatorial import differs_from_dkk, equatorial_facets, framing_count
from flowtri.geometry import (Triangulation, _mask, count_lattice_points, ehrhart_hstar,
                              normalized_volume)
from flowtri.planar import PlanarEmbedding, verify_equivalence
from flowtri.quotient import (check_transversal_identity, quotient_facets,
                              verify_reflexive)
from flowtri.routes import (NotGorensteinError, decomposition_framing,
                            enumerate_routes, is_route_decomposition,
                            route_decomposition)
from tests.conftest import (Complex, complex_euler_characteristic,
                            dense_pairs_and_failures,
                            dense_transversal_identity,
                            equatorial_flow_triangulation, f_vector,
                            h_polynomial, has_route_partition, is_pure, members,
                            random_balanced_dag, ridges_in_two_facets, scaled,
                            sphere, stacked_rotations, trimmed, verify_triangulation)


def report(n: int, desc: str, ok: bool) -> None:
    print(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def catalog():
    return [G(1), G(2), G(3), D1(), D2(), D3(), bypass()]


def test_criterion_1_decomposition_iff_degree_equality():
    rng = random.Random(101)
    ok = True
    for dag in catalog() + [random_dag(rng, max_edges=8) for _ in range(200)]:
        balanced = degree_equality(dag)
        try:
            decomp = route_decomposition(dag)
            succeeded = is_route_decomposition(dag, decomp)
        except NotGorensteinError:
            succeeded = False
        ok = ok and succeeded == balanced == has_route_partition(dag)
    report(1, "route decomposition <=> degree equality (catalog + 200 random,"
              " partition-search oracle)", ok)


def test_criterion_2_h_equals_h_star():
    want = {2: (1, 1), 4: (1, 4, 1), 6: (1, 4, 1)}
    rng = random.Random(102)
    ok = True
    named = [D1(), D2(), D3()]
    for k, dag in enumerate(named + [random_balanced_dag(rng, max_edges=9)
                                     for _ in range(50)]):
        decomp = route_decomposition(dag)
        framing = decomposition_framing(dag, decomp)
        hstar = trimmed(ehrhart_hstar(dag).h_star)
        h_dkk = trimmed(h_polynomial(Complex(members(dkk_triangulation(dag, framing).simplices))))
        h_eq = trimmed(h_polynomial(
            Complex(members(equatorial_flow_triangulation(dag, decomp).simplices))))
        ok = ok and h_dkk == h_eq == hstar
        if k < 3:
            ok = ok and hstar == want[normalized_volume(dag)]
    report(2, "h(DKK) = h(equatorial flow) = h* on D1/D2/D3 + 50 random"
              " balanced DAGs", ok)


def test_criterion_3_bypass_numerator():
    hs = ehrhart_hstar(bypass())
    ok = (trimmed(hs.h_star) == (1, 3, 1) and dimension(bypass()) == 4
          and hs.degree == 2 and hs.codegree == 3)
    report(3, "two-chord catalog graph: Ehrhart numerator 1+3z+z^2, degree 2,"
              " codegree 3", ok)


def test_criterion_4_sphere_structure():
    ok = True
    for dag, euler, fv in ((D1(), 2, (1, 2)), (D2(), 0, (1, 6, 6)),
                           (D3(), 0, (1, 6, 6))):
        s = sphere(dag, route_decomposition(dag))
        faces = Complex(members(s.maximal_faces))
        ok = ok and is_pure(faces) and ridges_in_two_facets(faces)
        ok = ok and complex_euler_characteristic(faces) == euler
        ok = ok and f_vector(faces) == s.f_vector == fv
    report(4, "equatorial spheres: pure pseudomanifolds, S^0 for D1 and"
              " hexagons (6 vertices, 6 edges) for D2/D3", ok)


def test_criterion_5_not_dkk():
    d3, d1 = D3(), D1()
    dec3, dec1 = route_decomposition(d3), route_decomposition(d1)
    tri3 = equatorial_flow_triangulation(d3, dec3)
    sweep = differs_from_dkk(d3, tri3.labels, tri3.simplices)
    ok = (framing_count(d3) == 36 and sweep.framings_checked == 36
          and not sweep.matching_framings)
    ok = ok and (dkk_triangulation(d1, decomposition_framing(d1, dec1)).simplices
                 == equatorial_flow_triangulation(d1, dec1).simplices)
    report(5, "D3 equatorial flow triangulation differs from all 36 framed"
              " triangulations; D1's coincides with its framed one", ok)


def test_criterion_6_transversal_identity():
    ok = True
    counts = []
    for dag in (D1(), D2(), D3()):
        decomp = route_decomposition(dag)
        q = quotient_facets(dag, decomp)
        pairs, failures = check_transversal_identity(q)
        ok = ok and (pairs, failures) == dense_pairs_and_failures(q) and not failures
        rows = dense_transversal_identity(q)
        ok = ok and [(s, m) for s, m, _, _ in rows] == list(
            product(enumerate_routes(dag), product(*decomp)))
        counts.append(pairs)
    ok = ok and counts == [16, 72, 72]
    report(6, "facet-functional identity holds for every (route, transversal)"
              f" pair: {counts[0]}+{counts[1]}+{counts[2]} pairs, zero"
              " failures", ok)


def test_criterion_7_reflexive_quotient():
    ok = True
    d1 = D1()
    q1 = quotient_facets(d1, route_decomposition(d1))
    ok = ok and {c for _, c in q1.vertices} == {(1, -1), (-1, 1)}
    ok = ok and len(q1.facets) == 2 and verify_reflexive(q1).ok
    for dag in (D2(), D3()):
        decomp = route_decomposition(dag)
        q = quotient_facets(dag, decomp)
        ok = ok and len(q.vertices) == 6 and len(q.facets) == 6
        ok = ok and verify_reflexive(q).ok
        ok = ok and len(q.facets) == len(equatorial_facets(dag, decomp, q.routes))
    for dag in (d1, D2(), D3()):
        q = quotient_facets(dag, route_decomposition(dag))
        want = sum(dag.indeg(v) - 1 for v in dag.inner_vertices)
        ok = ok and sum(len(ls) - 1 for _, ls in q.space.blocks) == want
    report(7, "quotient polytopes: segment for D1, hexagons for D2/D3, all"
              " reflexive with matching facet counts and dimensions", ok)


def test_criterion_8_codegree_is_route_count():
    ok = True
    for dag in (D1(), D2(), D3(), G(1), G(2), G(3), G(4)):
        codeg = dag.outdeg(0)
        first = next(t for t in range(1, codeg + 2)
                     if count_lattice_points(dag, t, interior=True) > 0)
        ok = ok and first == codeg == ehrhart_hstar(dag).codegree
    report(8, "smallest dilate with an interior lattice point = outdeg(s):"
              " 2 (D1, D2), 3 (D3), k (Gk)", ok)


def test_criterion_9_strongly_planar_equivalence():
    from flowtri.planar import order_polytope_count, planar_dual
    ok = True
    for dag in (D1(), D2()):
        emb = PlanarEmbedding(stacked_rotations(dag))
        dual = planar_dual(dag, emb)
        ok = ok and order_polytope_count(dual.poset, 4) == [
            count_lattice_points(dag, t) for t in range(1, 5)]
        rep = verify_equivalence(dag, emb, dual)
        ok = ok and rep.ok
    report(9, "stacked D1/D2: flow and order polytope lattice counts agree"
              " (t=1..4); chain and equatorial order triangulations map"
              " simplex-for-simplex onto the flow ones", ok)


def test_criterion_10_negative_controls(tmp_path, capsys):
    d2 = D2()
    decomp = route_decomposition(d2)
    tri = equatorial_flow_triangulation(d2, decomp)
    missing = Triangulation(tri.simplices[1:], tri.labels,
                            tri.coords)      # dropped simplex: volume short
    d1 = D1()
    square = equatorial_flow_triangulation(d1, route_decomposition(d1))
    overlap = Triangulation((_mask((0, 1, 2)), _mask((0, 1, 3))),
                            square.labels, square.coords)  # interiors overlap
    bad_tri = not verify_triangulation(missing, dimension(d2),
                                       normalized_volume(d2)).ok and \
        not verify_triangulation(overlap, dimension(d1),
                                 normalized_volume(d1)).ok

    doubled = scaled(quotient_facets(d2, decomp), 2)
    bad_quotient = not verify_reflexive(doubled).ok

    from flowtri.dag import make_dag
    unbalanced = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps(dag_to_json(unbalanced)))
    code = main(["equatorial", str(path)])
    out = capsys.readouterr().out
    bad_cli = code == 1 and "not Gorenstein" in out

    report(10, "negative controls: corrupted triangulation, doubled quotient"
               " and unbalanced CLI input are all rejected",
           bad_tri and bad_quotient and bad_cli)
