import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtri.dag import (D1, D2, D3, Dag, G, bypass, contract_idle_edges,
                         dag_from_json, dag_to_json, degree_equality,
                         dimension, gorenstein_completion, idle_edges,
                         make_dag, random_dag, validate, zigzag)
from tests.conftest import rescan_contract_idle_edges


def test_catalog_shapes():
    for k in (1, 2, 3, 5):
        g = G(k)
        assert g.inner_count == 0
        assert len(g.edges) == k
        assert degree_equality(g)
        assert dimension(g) == k - 1
    assert len(D1().edges) == 4 and D1().inner_count == 1
    assert len(D2().edges) == 6 and D2().inner_count == 2
    assert len(D3().edges) == 6 and D3().inner_count == 1
    assert dimension(D1()) == 2
    assert dimension(D2()) == 3
    assert dimension(D3()) == 4


def test_degree_equality_catalog():
    assert degree_equality(D1())
    assert degree_equality(D2())
    assert degree_equality(D3())
    assert degree_equality(zigzag())
    assert degree_equality(bypass())
    assert not degree_equality(make_dag(1, [("a", 0, 1), ("b", 0, 1),
                                            ("c", 1, 2)]))


def test_validate_rejects_bad_graphs():
    assert not validate(make_dag(1, [("a", 0, 2)])).ok  # vertex 1 isolated
    assert not validate(make_dag(1, [])).ok  # no edges at all
    assert not validate(make_dag(0, [])).ok  # no edges, not even an inner vertex
    assert not validate(make_dag(-1, [])).ok  # negative inner count
    assert not validate(make_dag(1, [("a", 0, 1), ("a", 1, 2)])).ok  # dup id
    assert not validate(make_dag(1, [("a", 1, 1), ("b", 0, 1), ("c", 1, 2)])).ok
    assert not validate(make_dag(1, [("a", 2, 1), ("b", 0, 1), ("c", 1, 2)])).ok


def test_completion_balances_every_inner_vertex():
    rng = random.Random(7)
    for _ in range(100):
        dag = random_dag(rng)
        done = gorenstein_completion(dag)
        assert degree_equality(done)
        assert {e.id for e in dag.edges} <= {e.id for e in done.edges}
        if degree_equality(dag):
            assert done == dag


def test_idle_edges_and_contraction():
    chain = make_dag(1, [("a", 0, 1), ("b", 1, 2)])
    assert idle_edges(chain) == ("a", "b")
    out, log = contract_idle_edges(chain)   # collapses to a single edge
    assert out.inner_count == 0 and len(out.edges) == 1
    assert log["a"] is None
    assert idle_edges(D2()) == ()
    assert idle_edges(D3()) == ()

    dag = make_dag(2, [("a", 0, 1), ("b", 0, 1), ("p", 1, 2),
                       ("c", 2, 3), ("d", 2, 3)])
    out, log = contract_idle_edges(dag)
    assert idle_edges(out) == ()
    assert degree_equality(out)
    assert dimension(out) == dimension(dag)
    assert log  # at least one contraction happened


def contraction(contract, dag):
    try:
        return contract(dag)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def random_forward_dag(rng: random.Random) -> Dag:
    """Forward edges over 1-7 inner vertices, valid or not (an inner vertex
    may lack in- or out-edges), with shuffled ids so that id order and
    vertex order disagree."""
    inner = rng.randint(1, 7)
    pairs = []
    for _ in range(rng.randint(1, 3 * inner + 3)):
        tail = rng.randint(0, inner)
        pairs.append((tail, rng.randint(tail + 1, inner + 1)))
    ids = [f"e{i}" for i in range(len(pairs))]
    rng.shuffle(ids)
    return make_dag(inner, [(i, a, b) for i, (a, b) in zip(ids, pairs)])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contraction_matches_rescan_oracle(seed):
    """The edge-set contraction picks the same idle edge at every step as
    the full rescan: same graph, same map, same error."""
    rng = random.Random(seed)
    for dag in (random_forward_dag(rng), random_forward_dag(rng),
                gorenstein_completion(random_dag(rng))):
        assert contraction(contract_idle_edges, dag) == contraction(
            rescan_contract_idle_edges, dag)


def test_json_round_trip():
    rng = random.Random(11)
    for dag in (D1(), D2(), D3(), zigzag(), bypass(),
                *[random_dag(rng) for _ in range(20)]):
        blob = json.dumps(dag_to_json(dag))
        assert dag_from_json(json.loads(blob)) == dag


def test_json_schema_fields():
    blob = dag_to_json(D1())
    assert set(blob) == {"inner_count", "edges"}
    assert blob["edges"][0].keys() == {"id", "tail", "head"}
    tails = {e["tail"] for e in blob["edges"]}
    heads = {e["head"] for e in blob["edges"]}
    assert "s" in tails and "t" in heads
