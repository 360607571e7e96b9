import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtri import cli
from flowtri.cli import main
from flowtri.dag import (D1, D2, D3, G, bypass, dag_from_json, dag_to_json,
                         gorenstein_completion, make_dag, random_dag, zigzag)
from flowtri.planar import PlanarEmbedding, embedding_to_json
from flowtri.routes import enumerate_routes
from tests.conftest import (chain, member_list_report, route_unions, stacked_rotations,
                            zigzag_rotations)


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps(dag_to_json(D1())))
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(dag_to_json(D2())))
    return str(path)


@pytest.fixture
def unbalanced_file(tmp_path):
    dag = make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)])
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps(dag_to_json(dag)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze(capsys, d1_file):
    code, out, _ = run(capsys, ["analyze", d1_file])
    assert code == 0
    report = json.loads(out)
    assert report["degree_equality"] is True
    assert report["dimension"] == 2
    assert report["routes"] == 4
    assert report["ehrhart"]["h_star"] == [1, 1, 0]


def test_decompose(capsys, d2_file, unbalanced_file):
    code, out, _ = run(capsys, ["decompose", d2_file])
    assert code == 0
    report = json.loads(out)
    assert report["decomposition"] == [["a", "c", "e"], ["b", "d", "f"]]
    assert report["size"] == report["outdeg_source"] == 2
    code, out, _ = run(capsys, ["decompose", unbalanced_file])
    assert code == 1
    assert "error" in json.loads(out)


def test_dkk(capsys, d1_file):
    code, out, _ = run(capsys, ["dkk", d1_file])
    report = json.loads(out)
    assert code == 0 and report["triangulation_ok"]
    assert len(report["simplices"]) == 2
    assert sorted(report["exceptional_routes"]) == [["a", "c"], ["b", "d"]]


def test_dkk_explicit_decomposition(capsys, d1_file, tmp_path):
    dec = tmp_path / "dec.json"
    dec.write_text(json.dumps([["a", "d"], ["b", "c"]]))
    code, out, _ = run(capsys, ["dkk", d1_file, "--decomposition", str(dec)])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["a", "d"]]))
    code, _, err = run(capsys, ["dkk", d1_file, "--decomposition", str(bad)])
    assert code == 2
    assert "error" in json.loads(err)


def test_equatorial(capsys, d2_file):
    code, out, _ = run(capsys, ["equatorial", d2_file, "--exhaustive-dkk"])
    report = json.loads(out)
    assert code == 0
    assert report["h_equals_h_star"]
    assert len(report["facets"]) == 6
    assert report["sphere"]["f_vector"] == [1, 6, 6]
    assert report["dkk_comparison"]["framings_checked"] == 16
    assert report["sphere"]["euler_characteristic"] == 0


def test_equatorial_unbalanced_fails(capsys, unbalanced_file):
    code, out, _ = run(capsys, ["equatorial", unbalanced_file])
    assert code == 1
    assert "error" in json.loads(out)


def test_quotient(capsys, d2_file):
    code, out, _ = run(capsys, ["quotient", d2_file])
    report = json.loads(out)
    assert code == 0
    assert report["reflexive"] is True
    assert report["identity_failures"] == []
    assert report["identity_pairs"] == 8 * 9
    assert report["dimension"] == 2


def test_order(capsys, d2_file, tmp_path):
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(embedding_to_json(
        D2(), PlanarEmbedding(stacked_rotations(D2())))))
    code, out, _ = run(capsys, ["order", d2_file, str(emb), "--max-dilate", "3"])
    report = json.loads(out)
    assert code == 0
    assert report["lattice_counts_agree"]
    assert report["equivalence"]["ok"]
    assert len(report["lattice_counts"]) == 3


def test_order_bad_embedding_is_invalid_input(capsys, d2_file, tmp_path):
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps({"rotations": {"s": ["a"]}}))
    code, _, err = run(capsys, ["order", d2_file, str(emb)])
    assert code == 2
    assert "error" in json.loads(err)


def test_invalid_graph_file(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    assert "error" in json.loads(err)
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, ["analyze", str(missing)])
    assert code == 2


def test_structurally_invalid_graph_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "backwards.json"
    path.write_text(json.dumps(dag_to_json(make_dag(
        1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2), ("d", 1, 0)]))))
    assert path.read_text().count('"head": "s"') == 1     # an edge from 1 back to s
    for command in ("analyze", "dkk"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        message = json.loads(err)["error"]
        assert message.startswith("invalid graph: ") and "'d'" in message


IDLE = {"inner_count": 1, "edges": [{"id": "a", "tail": "s", "head": 1},
                                    {"id": "b", "tail": 1, "head": "t"}]}
D1_EMBEDDING = embedding_to_json(D1(), PlanarEmbedding(stacked_rotations(D1())))
GRAPH_COMMANDS = ("analyze", "decompose", "dkk", "equatorial", "quotient", "order")


def with_head_of_a(head) -> dict:
    """D1's graph document with edge a's head (inner vertex 1) replaced."""
    doc = dag_to_json(D1())
    return dict(doc, edges=[dict(e, head=head) if e["id"] == "a" else e
                            for e in doc["edges"]])


def with_alias(vertex: str, alias: str) -> dict:
    """D1's embedding with the rotation at ``vertex`` listed again under
    ``alias``, another name of the same vertex."""
    rotations = D1_EMBEDDING["rotations"]
    return {"rotations": {**rotations, alias: rotations[vertex]}}


# name -> (graph, --decomposition document or None, embedding, subcommands)
BAD_INPUTS = {
    "edgeless graph": ({"inner_count": 0, "edges": []}, None, D1_EMBEDDING,
                       GRAPH_COMMANDS),
    "negative inner_count": ({"inner_count": -1, "edges": []}, None, D1_EMBEDDING,
                             GRAPH_COMMANDS),
    "inner_count -2": (dict(dag_to_json(D1()), inner_count=-2), None, D1_EMBEDDING,
                       GRAPH_COMMANDS),
    "idle edges": (IDLE, None, {"rotations": {"s": ["a"], "1": ["b", "a"], "t": ["b"]}},
                   ("equatorial", "quotient", "order")),
    "decomposition 5": (dag_to_json(D1()), 5, None, ("dkk", "equatorial", "quotient")),
    "decomposition [1, 2]": (dag_to_json(D1()), [1, 2], None,
                             ("dkk", "equatorial", "quotient")),
    "rotations list": (dag_to_json(D1()), None, {"rotations": []}, ("order",)),
    "inner_count 1.7": (dict(dag_to_json(D1()), inner_count=1.7), None, D1_EMBEDDING,
                        GRAPH_COMMANDS),
    "inner_count true": (dict(dag_to_json(D1()), inner_count=True), None, D1_EMBEDDING,
                         GRAPH_COMMANDS),
    'inner_count "1"': (dict(dag_to_json(D1()), inner_count="1"), None, D1_EMBEDDING,
                        GRAPH_COMMANDS),
    "head 1.9": (with_head_of_a(1.9), None, D1_EMBEDDING, GRAPH_COMMANDS),
    "head true": (with_head_of_a(True), None, D1_EMBEDDING, GRAPH_COMMANDS),
    "rotation string": (dag_to_json(D1()), None,
                        {"rotations": {"s": ["b", "a"], "1": "dcab", "t": ["c", "d"]}},
                        ("order",)),
    # passes the rotation checks, but the faces above and below the edges
    # form a cycle, so the dual is no poset
    "cyclic dual": (dag_to_json(D2()), None,
                    {"rotations": {"s": ["a", "b"], "1": ["a", "b", "d", "c"],
                                   "2": ["c", "d", "f", "e"], "t": ["e", "f"]}},
                    ("order",)),
    "rotations at s and 0": (dag_to_json(D1()), None, with_alias("s", "0"), ("order",)),
    "rotations at 1 and 01": (dag_to_json(D1()), None, with_alias("1", "01"), ("order",)),
    "rotations at t and 2": (dag_to_json(D1()), None, with_alias("t", "2"), ("order",)),
    "inner_count 1000000": ({"inner_count": 1000000,
                             "edges": [{"id": "a", "tail": "s", "head": "t"}]},
                            None, D1_EMBEDDING, GRAPH_COMMANDS),
}


@pytest.mark.parametrize("name,command", [(name, command)
                                          for name, case in BAD_INPUTS.items()
                                          for command in case[3]])
def test_bad_input_exits_2_with_json_error(capsys, tmp_path, name, command):
    graph, decomposition, embedding, _ = BAD_INPUTS[name]
    argv = [command, str(tmp_path / "graph.json")]
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    if command == "order":
        argv.append(str(tmp_path / "emb.json"))
        (tmp_path / "emb.json").write_text(json.dumps(embedding))
    if decomposition is not None:
        argv += ["--decomposition", str(tmp_path / "dec.json")]
        (tmp_path / "dec.json").write_text(json.dumps(decomposition))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    message = json.loads(err)["error"]
    if name == "idle edges":
        assert "'a', 'b'" in message
    if name == "inner_count 1000000":
        assert "inner_count" in message and len(message) < 200
    if name.startswith("rotations at "):
        assert message.startswith("bad embedding: two rotations name vertex ")


def test_exhaustive_dkk_past_framing_bound_exits_2(capsys, tmp_path, monkeypatch):
    chain = make_dag(2, [(f"b{i}.{j}", i, i + 1) for i in range(3) for j in range(4)])
    path = tmp_path / "chain3x4.json"
    path.write_text(json.dumps(dag_to_json(chain)))

    def unreachable(*args):
        raise AssertionError("triangulation built before the framing bound was checked")

    monkeypatch.setattr(cli.eqmod, "equatorial_sphere", unreachable)
    code, out, err = run(capsys, ["equatorial", str(path), "--exhaustive-dkk"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "331776 framings" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [["fuzz", "--max-edges", "1"],
                                  ["fuzz", "--max-edges", "3"],
                                  ["fuzz", "--count", "-1"],
                                  ["order", "{graph}", "{embedding}", "--max-dilate", "-2"],
                                  ["fuzz", "--max-edges", str(cli.MAX_FUZZ_EDGES + 1)],
                                  ["fuzz", "--max-edges", str(10**20)]])
def test_out_of_range_integer_option_exits_2(capsys, tmp_path, argv):
    (tmp_path / "g.json").write_text(json.dumps(dag_to_json(D1())))
    (tmp_path / "e.json").write_text(json.dumps(D1_EMBEDDING))
    argv = [a.format(graph=tmp_path / "g.json", embedding=tmp_path / "e.json")
            for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and argv[-2] in json.loads(err)["error"]


def test_smallest_accepted_integer_options(capsys, tmp_path):
    code, out, _ = run(capsys, ["fuzz", "--max-edges", "4", "--count", "5"])
    assert code == 0 and json.loads(out)["graphs"] == 5
    code, out, _ = run(capsys, ["fuzz", "--count", "0"])
    assert code == 0 and json.loads(out)["graphs"] == 0
    code, out, _ = run(capsys, ["fuzz", "--max-edges", str(cli.MAX_FUZZ_EDGES), "--count", "0"])
    assert code == 0 and json.loads(out)["graphs"] == 0
    (tmp_path / "g.json").write_text(json.dumps(dag_to_json(D1())))
    (tmp_path / "e.json").write_text(json.dumps(D1_EMBEDDING))
    code, out, _ = run(capsys, ["order", str(tmp_path / "g.json"),
                                str(tmp_path / "e.json"), "--max-dilate", "0"])
    assert code == 0 and json.loads(out)["lattice_counts"] == []


@pytest.mark.parametrize("argv", [["bogus"], ["fuzz", "--max-edges", "x"], ["order"], []])
def test_bad_command_line_exits_2_with_json_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"].startswith("flowtri")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: flowtri order")


def test_order_past_the_recursion_limit(capsys, tmp_path):
    """G(k)'s dual is a chain of k-1 elements: one complete chain of k
    filters, no equatorial chain, and one maximal clique of all k routes,
    none of them found by recursion."""
    dag = G(sys.getrecursionlimit() + 10)
    graph, emb = tmp_path / "g.json", tmp_path / "e.json"
    graph.write_text(json.dumps(dag_to_json(dag)))
    emb.write_text(json.dumps(embedding_to_json(dag, PlanarEmbedding(stacked_rotations(dag)))))
    code, out, _ = run(capsys, ["order", str(graph), str(emb)])
    report = json.loads(out)
    assert code == 0 and report["equivalence"]["ok"]
    assert report["equivalence"]["flow_simplices"] == 1


def test_analyze_on_a_path_past_the_recursion_limit(capsys, tmp_path):
    """The path s -> 1 -> ... -> 1010 -> t contracts to its last edge and
    has one route, found without recursion."""
    n = 1010
    dag = make_dag(n, [(f"p{i:04d}", i, i + 1) for i in range(n + 1)])
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps(dag_to_json(dag)))
    code, out, _ = run(capsys, ["analyze", str(graph)])
    report = json.loads(out)
    assert code == 0
    assert report["routes"] == 1 and report["dimension"] == 0
    assert report["contraction"]["edges_removed"] == n


def test_analyze_counts_routes_as_flows_of_strength_one(capsys, tmp_path):
    """``analyze`` reads the route count from L(1), or from one count at
    strength 1 for a point (dim 0); the catalog and random graphs, balanced
    or not, against ``enumerate_routes``."""
    rng = random.Random(11)
    drawn = [random_dag(rng, 8) for _ in range(20)]
    dags = [G(1), G(3), D1(), D2(), D3(), zigzag(), bypass(), chain(2, 3),
            make_dag(2, [("a", 0, 1), ("b", 1, 2), ("c", 2, 3)])]
    dags += drawn + [gorenstein_completion(d) for d in drawn]
    graph = tmp_path / "g.json"
    for dag in dags:
        graph.write_text(json.dumps(dag_to_json(dag)))
        code, out, _ = run(capsys, ["analyze", str(graph)])
        assert code == 0
        assert json.loads(out)["routes"] == len(enumerate_routes(dag)), dag


def implausible_counts(monkeypatch, interior_only: bool) -> None:
    """Rebind ``lattice_counts`` to give every dilate 2 points, or only the
    interior counts 1 point at every dilate."""
    real = cli.geo.lattice_counts

    def fake(dag, top, interior=False):
        if interior_only and not interior:
            return real(dag, top)
        return (1 if interior_only else 2,) * (top + 1)

    monkeypatch.setattr(cli.geo, "lattice_counts", fake)


@pytest.mark.parametrize("interior_only,message", [
    (False, "implausible h*-vector [2, -4, 2]"),
    (True, "codegree disagrees with interior point counts"),
])
def test_ehrhart_invariant_exits_1_with_json_error(capsys, d1_file, monkeypatch,
                                                   interior_only, message):
    implausible_counts(monkeypatch, interior_only)
    code, out, err = run(capsys, ["analyze", d1_file])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {"error": f"invariant failed: {message}"}


def test_fuzz_ehrhart_failure_carries_replayable_graph(capsys, monkeypatch):
    implausible_counts(monkeypatch, interior_only=False)
    code, out, _ = run(capsys, ["fuzz", "--seed", "3", "--count", "4", "--max-edges", "6"])
    report = json.loads(out)
    assert code == 1 and report["failures"]
    rng = random.Random(3)
    drawn = [random_dag(rng, 6) for _ in range(4)]
    for failure in report["failures"]:
        assert failure["message"].startswith("invariant failed: implausible h*-vector [2, ")
        assert dag_from_json(json.loads(failure["graph"])) == drawn[failure["index"]]


def test_endless_input_under_a_memory_limit_exits_2(tmp_path):
    """``flowtri analyze /dev/zero`` reads until memory runs out; under an
    address-space limit, set in the child alone, that is an input error."""
    limit = 256 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "flowtri.cli", "analyze", "/dev/zero"],
                          capture_output=True, timeout=60, preexec_fn=limit_memory,
                          env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert json.loads(proc.stderr) == {"error": "cannot read /dev/zero: out of memory"}


def test_recursion_error_exits_2_with_json_error(capsys, d1_file, monkeypatch):
    """``cli.main`` still turns a ``RecursionError`` into an input error."""
    def too_deep(args, dag, report):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_analyze", too_deep)
    code, out, err = run(capsys, ["analyze", d1_file])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "recursion" in json.loads(err)["error"]


def test_broken_invariant_exits_1_with_json_error(capsys, d2_file, monkeypatch):
    def broken(adj, facets, size):
        raise AssertionError("injected")

    monkeypatch.setattr(cli.eqmod, "t_eq", broken)
    code, out, err = run(capsys, ["equatorial", d2_file])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {"error": "invariant failed: injected"}


def test_rebound_subcommand_takes_effect(capsys, d1_file, monkeypatch):
    run(capsys, ["analyze", d1_file])          # the parser is built by now

    def stub(args, dag, report):
        report["stub"] = args.graph
        return 0

    monkeypatch.setattr(cli, "cmd_analyze", stub)
    code, out, _ = run(capsys, ["analyze", d1_file])
    report = json.loads(out)
    assert code == 0 and report["stub"] == d1_file
    assert set(report) == {"command", "digest", "stub"}


def test_not_gorenstein_report_is_the_header_and_the_error(capsys, d1_file, monkeypatch):
    """A subcommand that fills part of its report and then meets a graph that
    is not Gorenstein prints the header and the error, nothing it filled."""
    def half_done(args, dag, report):
        report["dimension"] = 1
        raise cli.rmod.NotGorensteinError("not Gorenstein: stub")

    monkeypatch.setattr(cli, "cmd_analyze", half_done)
    code, out, err = run(capsys, ["analyze", d1_file])
    report = json.loads(out)
    assert (code, err, report["error"]) == (1, "", "not Gorenstein: stub")
    assert set(report) == {"command", "digest", "error"}


def test_byte_identical_output(capsys, d2_file):
    _, first, _ = run(capsys, ["equatorial", d2_file])
    _, second, _ = run(capsys, ["equatorial", d2_file])
    assert first == second


def test_closed_stdout_exits_without_traceback(tmp_path):
    """A reader that stops early (``| head -c 20``) breaks the pipe mid-report."""
    path = tmp_path / "chain4x3.json"
    path.write_text(json.dumps(dag_to_json(chain(4, 3))))     # 3.4 MB of report
    proc = subprocess.Popen([sys.executable, "-m", "flowtri.cli", "equatorial", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert proc.stdout.read(20) == b'{\n  "command": "equa'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE
    assert err == b""               # no traceback, no "Exception ignored" at exit


def run_child(argv: list[str], **popen) -> tuple[int, dict]:
    """Run the CLI on ``argv`` in a subprocess, killed if it still runs
    after 20 s; its exit code and its report."""
    proc = subprocess.Popen([sys.executable, "-m", "flowtri.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
                            **popen)
    try:
        out, err = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"flowtri {' '.join(argv)} still running after 20 s")
    assert err == b"", err
    return proc.returncode, json.loads(out)


@pytest.mark.parametrize("command,graph,code", [
    ("analyze", D1(), 0),
    ("decompose", make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)]), 1),
])
def test_graph_read_once_from_a_fifo(tmp_path, command, graph, code):
    """A named pipe can be read once: the digest and, for an unbalanced
    graph, the error report come from the bytes of that one read."""
    data = json.dumps(dag_to_json(graph)).encode()
    fifo = str(tmp_path / "graph.fifo")
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:       # the child died without reading
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got, report = run_child([command, fifo])
    finally:
        if writer.is_alive():         # the child never opened the FIFO: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=20)
    assert not writer.is_alive()
    assert got == code and ("error" in report) == bool(code)
    assert report["command"] == command
    assert report["digest"] == hashlib.sha256(data).hexdigest()[:16]


def test_graph_read_once_from_dev_fd():
    """``flowtri analyze <(cat g.json)`` passes the graph as /dev/fd/N."""
    data = json.dumps(dag_to_json(D1())).encode()
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(data)                # fits the pipe's buffer: the write does not block
    try:
        got, report = run_child(["analyze", f"/dev/fd/{r}"], pass_fds=(r,))
    finally:
        os.close(r)
    assert got == 0 and report["digest"] == hashlib.sha256(data).hexdigest()[:16]


# JSON values of the types reports hold, with one leaf list shared at
# several places and depths: the writer renders an all-str or all-int list
# by one join wherever it meets it.
TEXT = st.text() | st.text(st.characters(categories=["Cs", "Cc", "Lo"]))
SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
          | st.integers(max_value=-1) | TEXT)
LEAF_LIST = st.lists(TEXT, min_size=1, max_size=4) | st.lists(st.integers(), min_size=1,
                                                               max_size=4)


def json_trees(leaf):
    """JSON trees whose lists may come as tuples, which print as lists."""
    return st.recursive(
        leaf, lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.lists(st.integers() | st.booleans(), max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=4).map(tuple)
        | st.dictionaries(TEXT, kids, max_size=4)
        | st.dictionaries(st.integers() | st.booleans(), kids, max_size=4)
        | st.dictionaries(st.none(), kids, max_size=1),
        max_leaves=20)


# A leaf that stands for the shared list: the tree strategy is built once,
# and each draw puts its shared list where the placeholder landed.
PLACEHOLDER = object()
SHARED_TREES = json_trees(SCALAR | st.just(PLACEHOLDER))


def put_shared(tree, shared):
    if tree is PLACEHOLDER:
        return shared
    if isinstance(tree, (list, tuple)):
        return type(tree)(put_shared(t, shared) for t in tree)
    if isinstance(tree, dict):
        return {k: put_shared(t, shared) for k, t in tree.items()}
    return tree


@st.composite
def shared_json(draw):
    shared = draw(LEAF_LIST)
    tree = put_shared(draw(SHARED_TREES), shared)
    return {"tree": tree, "twice": [shared, shared], "deeper": [[shared], {"0": shared}]}


@settings(max_examples=300, deadline=None)
@given(shared_json() | json_trees(SCALAR))
@example([{1: "a"}, {True: "b"}])              # equal key tuples, printed "1" and "true"
@example([{"k": 1}, {"k": "x"}, {"k": None}])  # a record column of mixed scalars
@example({"0": (1, 2), "1": (), "10": (3,)})   # shaped like quotient's polytope.vertices
@example([[["a"], []], [["b", "c"]]])          # a column of lists of lists
@example([{}, {}])                             # empty records
def test_json_writer_matches_json_dumps(value):
    out = io.StringIO()
    cli._write_json(value, out.write)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)


# Lists of records, dicts sharing one key set, which the writer renders a
# column at a time from one ``%`` template per key set: keys that a template
# must escape, non-str keys, rows in any key order, empty dicts, and columns
# of one leaf type, of mixed types, of leaf lists and of nested values.
STR_KEY = st.sampled_from(["%", "%s", "%%d", '"', "\\", "é", "☃", "", "a"]) | TEXT
STR_KEYS = st.lists(STR_KEY, unique=True, max_size=4)
OTHER_KEYS = (st.lists(st.integers(-3, 3) | st.booleans(), unique=True, max_size=3)
              | st.lists(st.none(), max_size=1))
LEAF_COLUMNS = st.sampled_from([
    TEXT, st.integers(), st.lists(TEXT, max_size=3),
    st.lists(st.integers(), max_size=3).map(tuple), st.lists(st.integers(), max_size=0)])
OTHER_COLUMNS = st.sampled_from([
    st.booleans(), SCALAR, st.lists(st.integers() | TEXT, max_size=3),
    st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=2),
    st.dictionaries(TEXT, SCALAR, max_size=2), json_trees(SCALAR)])


@st.composite
def record_lists(draw):
    """A list of records, which may hold one column the writer does not
    batch, and one row short of a key."""
    keys = draw(OTHER_KEYS if draw(st.integers(0, 4)) == 0 else STR_KEYS)
    values = {key: draw(LEAF_COLUMNS) for key in keys}
    if keys and draw(st.booleans()):
        values[draw(st.sampled_from(keys))] = draw(OTHER_COLUMNS)
    rows = [{key: draw(values[key]) for key in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(0, 6)))]
    if rows and keys and draw(st.integers(0, 3)) == 0:
        rows.append({key: value for key, value in rows[0].items() if key != keys[0]})
    return draw(st.sampled_from([rows, tuple(rows), {"k": [rows, {"%s": rows}]}]))


@settings(max_examples=200, deadline=None)
@given(record_lists())
def test_json_writer_renders_record_lists(value):
    out = io.StringIO()
    cli._write_json(value, out.write)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)


class Name(str):
    pass


class Pair(NamedTuple):
    """A tuple subclass that is not ``Faces``."""
    a: int
    b: int


@pytest.mark.parametrize("bad", [1.5, {1, 2}, Name("x"), Fraction(1, 2), Pair(1, 2)])
def test_json_writer_rejects_other_types(bad):
    for value in (bad, [bad], {"k": [bad, 1]}):
        with pytest.raises(TypeError):
            cli._write_json(value, io.StringIO().write)


def test_json_writer_rejects_str_subclass_keys_in_records():
    for value in ([{Name("k"): 1}], [{"k": 1}, {Name("k"): 2}], [{"k": 1, Name("j"): 2}]):
        with pytest.raises(TypeError):
            cli._write_json(value, io.StringIO().write)


# Faces as flat int masks over one route list, shared at several depths:
# the writer renders each route once per depth and each face by one join.
ROUTE_LIST = st.lists(st.lists(TEXT, max_size=3), max_size=6)


@st.composite
def faces_reports(draw) -> tuple[dict, dict]:
    """A report holding ``Faces``, and the same report with member lists."""
    routes = draw(ROUTE_LIST)
    mask = st.integers(0, (1 << len(routes)) - 1)
    one, many = draw(mask), draw(st.lists(mask, max_size=4))

    def lists(m: int, routes=routes) -> list:   # top bit first, as a graph's table lists routes
        return [routes[i] for i in range(len(routes) - 1, -1, -1) if m >> i & 1]

    def report(face, faces, twin) -> dict:
        """``twin`` is ``face`` over another route list."""
        return {"one": face(one), "many": faces(many), "empty": [face(0), faces([])],
                "deeper": [[faces(many)], {"0": face(one)}],
                # records of one face over one route list, as equatorial's facets
                "records": [{"routes": face(m), "transversal": [str(i)]}
                            for i, m in enumerate(many)],
                "twins": [{"routes": face(one)}, {"routes": twin(one)}],
                "sequences": [{"faces": faces(many), "n": 0}, {"faces": faces([one]), "n": 1}]}
    other = [[*r, "x"] for r in routes]
    return (report(lambda m: cli.Faces(routes, m), lambda ms: cli.Faces(routes, ms),
                   lambda m: cli.Faces(other, m)),
            report(lists, lambda ms: list(map(lists, ms)), lambda m: lists(m, other)))


def text_of(value) -> str:
    out = io.StringIO()
    cli._write_text(value, out.write)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(faces_reports())
def test_faces_render_as_their_member_lists(pair):
    faces, lists = pair
    out = io.StringIO()
    cli._write_json(faces, out.write)
    assert out.getvalue() == json.dumps(lists, indent=2, sort_keys=True)
    assert text_of(faces) == text_of(lists)


def printed_and_member_list_report(command: str, dag) -> tuple[str, str]:
    """The stdout of ``flowtri <command>`` on ``dag``, and the report with
    member lists that ``member_list_report`` rebuilds, given the
    triangulation and verdict of the certificate run the CLI made, and
    checked for canonical face order.  The report is rendered by
    ``cli._write_json``, which ``test_json_writer_matches_json_dumps`` pins
    to ``json.dumps(value, indent=2, sort_keys=True)`` on plain values:
    ``json.dumps`` with an indent takes the pure-Python encoder, most of
    the check's time on large draws."""
    raw = json.dumps(dag_to_json(dag)).encode()
    out = io.StringIO()
    certify = cli.dkkmod.verify_dkk_triangulation
    checks: list = []

    def recorded(dag, tri):
        checks.append((tri, certify(dag, tri)))
        return checks[-1][1]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_bytes(raw)
        cli.dkkmod.verify_dkk_triangulation = recorded
        try:
            with redirect_stdout(out):
                assert main([command, str(path)]) == 0
        finally:
            cli.dkkmod.verify_dkk_triangulation = certify
    assert len(checks) == (command == "dkk")
    report = member_list_report(command, dag, hashlib.sha256(raw).hexdigest()[:16],
                                checks[0] if checks else None)
    assert_in_canonical_order(command, dag, report)
    expected = io.StringIO()
    cli._write_json(report, expected.write)
    return out.getvalue(), expected.getvalue() + "\n"


@pytest.mark.parametrize("command", ["dkk", "equatorial"])
@pytest.mark.parametrize("name", ["G3", "D1", "D2", "D3", "zigzag", "bypass"])
def test_catalog_prints_the_member_list_report(command, name):
    """Also checks the printed face order (``assert_in_canonical_order``)."""
    printed, expected = printed_and_member_list_report(command, CATALOG[name][0])
    assert printed == expected


@settings(max_examples=30, deadline=None)
@given(route_unions(), st.sampled_from(["dkk", "equatorial"]))
def test_route_unions_print_the_member_list_report(dag, command):
    """Also checks the printed face order (``assert_in_canonical_order``)."""
    printed, expected = printed_and_member_list_report(command, dag)
    assert printed == expected


def assert_in_canonical_order(command: str, dag, report: dict) -> None:
    """Every face list in ``report``, the member-list report that
    ``flowtri <command>`` on ``dag`` must print byte for byte, read as
    indices into ``enumerate_routes``: each face's routes ascend, and each
    list of faces is lexicographic, the order the paper prints.  Checking
    the report, not a parse of the stdout it equals, saves decoding the
    stdout, most of the check's time on large draws."""
    index = {r: i for i, r in enumerate(enumerate_routes(dag))}
    if command == "dkk":
        lists = [report["simplices"], [report["exceptional_routes"]]]
    else:
        lists = [report["simplices"], report["sphere"]["maximal_faces"],
                 [f["routes"] for f in report["facets"]]]
    for faces in lists:
        named = [[index[tuple(r)] for r in face] for face in faces]
        assert all(a < b for face in named for a, b in zip(face, face[1:])), named
        assert named == sorted(named), named


@pytest.mark.parametrize("command", ["dkk", "equatorial"])
def test_equatorial_streams_its_report(tmp_path, monkeypatch, command):
    """The report of chain 4x3 (1.8 MB from ``dkk``, 3.4 MB from
    ``equatorial``) leaves in many writes, none of them holding a tenth of
    it."""
    path = tmp_path / "chain4x3.json"
    path.write_text(json.dumps(dag_to_json(chain(4, 3))))
    writes: list[str] = []

    class Recorder:
        def write(self, text: str) -> int:
            writes.append(text)
            return len(text)

        def flush(self) -> None:
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main([command, str(path)]) == 0
    out = "".join(writes)
    size = {"dkk": 1_800_000, "equatorial": 3_000_000}[command]
    assert len(out) > size and len(json.loads(out)["simplices"]) == 2520
    assert max(map(len, writes)) < len(out) / 10


@pytest.mark.parametrize("argv,builds", [(["equatorial"], 1),
                                         (["equatorial", "--exhaustive-dkk"], 1),
                                         (["quotient"], 1), (["dkk"], 2)],
                         ids=["equatorial", "equatorial-exhaustive", "quotient", "dkk"])
def test_each_run_builds_its_route_tables_once(capsys, monkeypatch, d2_file, argv, builds):
    """``equatorial`` builds one route table per run, which the coherence
    graph, the facets, the join and every framing of the sweep read, and
    ``quotient`` one; ``dkk`` builds two: the triangulation's, and the
    certificate's over the triangulation's labels."""
    real, calls = cli.rmod.route_table, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli.rmod, cli.dkkmod, cli.eqmod, cli.qmod, cli.plmod):
        if vars(module).get("route_table") is real:
            monkeypatch.setattr(module, "route_table", counted)
    code, _, err = run(capsys, [argv[0], d2_file, *argv[1:]])
    assert (code, err, len(calls)) == (0, "", builds)


def test_text_format_keeps_nested_lists_apart(capsys, tmp_path):
    a, c, b, d = "acbd"
    nested = [[[a, c], [b, d]], [[a, c, b, d]], [a, c, b, d], [[], [a, c, b, d]], []]
    assert len({text_of({"x": v}) for v in nested}) == len(nested)
    assert text_of({"x": ((a, c), (b, d)), "y": ()}) == text_of({"x": nested[0], "y": []})
    assert text_of({"x": [[a, c], [b, d]], "y": []}) == (
        "x:\n  - - a\n    - c\n  - - b\n    - d\ny: []\n")
    assert text_of({"f": [{"r": [[a]], "t": [c]}, {"r": [], "t": [d]}]}) == (
        "f:\n  - r:\n      - - a\n    t:\n      - c\n  - r: []\n    t:\n      - d\n")
    path = tmp_path / "two-routes.json"
    path.write_text(json.dumps(dag_to_json(make_dag(1, [("a", 0, 1), ("b", 0, 1),
                                                        ("c", 1, 2), ("d", 1, 2)]))))
    code, out, _ = run(capsys, ["decompose", str(path), "--format", "text"])
    assert code == 0
    assert "decomposition:\n  - - a\n    - c\n  - - b\n    - d\n" in out


def test_text_format(capsys, d1_file):
    code, out, _ = run(capsys, ["analyze", d1_file, "--format", "text"])
    assert code == 0
    assert "degree_equality: True" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_fuzz(capsys):
    code, out, _ = run(capsys, ["fuzz", "--seed", "1", "--count", "10",
                                "--max-edges", "7"])
    report = json.loads(out)
    assert code == 0
    assert report["failures"] == []
    assert report["balanced_checked"] >= 1


def test_fuzz_failure_carries_replayable_graph(capsys, monkeypatch):
    monkeypatch.setattr(cli.rmod, "is_route_decomposition", lambda dag, decomp: False)
    code, out, _ = run(capsys, ["fuzz", "--seed", "3", "--count", "4", "--max-edges", "6"])
    report = json.loads(out)
    assert code == 1 and report["failures"]
    rng = random.Random(3)
    drawn = [random_dag(rng, 6) for _ in range(4)]
    for failure in report["failures"]:
        assert failure["message"].startswith("invariant failed: peel ")
        assert failure["message"].endswith(" is not a route decomposition")
        assert ": " not in failure["graph"] and ", " not in failure["graph"]
        assert dag_from_json(json.loads(failure["graph"])) == drawn[failure["index"]]


# Malformed input of every kind, fed to every subcommand in-process: the
# CLI must answer with an exit code, never with an exception.
KEY = st.sampled_from(["s", "t", "1", "2", "id", "edges", "rotations", "inner_count"])
JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
                    | st.text("st012ab", max_size=3),
                    lambda kids: st.lists(kids, max_size=4)
                    | st.dictionaries(KEY, kids, max_size=4),
                    max_leaves=8)
# undecodable files and arrays nested past the parser's recursion limit
RAW = st.binary(max_size=6) | st.integers(1, 5000).map(lambda n: b"[" * n + b"]" * n)
EDGE_ID = st.sampled_from("abcdef")
END = st.sampled_from(["s", "t", 0, 1, 2, 3, "1", "02", 1.5, True, None, "x"])
CATALOG = {"G3": (G(3), stacked_rotations(G(3))), "D1": (D1(), stacked_rotations(D1())),
           "D2": (D2(), stacked_rotations(D2())), "D3": (D3(), stacked_rotations(D3())),
           "zigzag": (zigzag(), zigzag_rotations()),
           "bypass": (bypass(), stacked_rotations(bypass()))}


@st.composite
def rotated_catalog(draw) -> tuple[dict, dict]:
    """A catalog graph and its rotations, each permuted or cyclically
    shifted, and maybe reversed, vertex by vertex."""
    dag, rotations = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    out = {}
    for v, rot in rotations.items():
        k = draw(st.integers(0, len(rot) - 1))
        rot = draw(st.permutations(rot)) if draw(st.booleans()) else rot[k:] + rot[:k]
        out[v] = tuple(reversed(rot)) if draw(st.booleans()) else tuple(rot)
    return dag_to_json(dag), embedding_to_json(dag, PlanarEmbedding(out))


GRAPH = JSON | RAW | st.fixed_dictionaries({
    "inner_count": st.integers(-2, 4) | JSON,
    "edges": st.lists(st.fixed_dictionaries({"id": EDGE_ID, "tail": END, "head": END}),
                      max_size=7)})
EMBEDDING = JSON | RAW | st.fixed_dictionaries({"rotations": st.dictionaries(
    st.sampled_from(["s", "t", "1", "2", "3", "x"]), st.lists(EDGE_ID, max_size=4),
    max_size=5)})
DECOMPOSITION = JSON | RAW | st.lists(st.lists(EDGE_ID, max_size=4), max_size=3)
INT = st.integers(-3, 5).map(str)


@st.composite
def cli_case(draw) -> tuple[list[str], dict]:
    """argv with {graph}/{embedding}/{decomposition} placeholders, and the
    documents to write for them (bytes as they are, the rest as JSON)."""
    command = draw(st.sampled_from(GRAPH_COMMANDS + ("fuzz",)))
    if command == "fuzz":
        return ["fuzz", "--seed", draw(INT), "--count", draw(st.integers(-1, 2).map(str)),
                "--max-edges", draw(INT)], {}
    graph, embedding = draw(rotated_catalog() | st.tuples(GRAPH, EMBEDDING))
    docs = {"graph": graph}
    argv = [command, "{graph}"]
    if command == "order":
        docs["embedding"] = embedding
        argv += ["{embedding}", "--max-dilate", draw(INT)]
    elif command in ("dkk", "equatorial", "quotient") and draw(st.booleans()):
        docs["decomposition"] = draw(DECOMPOSITION)
        argv += ["--decomposition", "{decomposition}"]
    if command == "equatorial" and draw(st.booleans()):
        argv.append("--exhaustive-dkk")
    return argv, docs


@settings(max_examples=150, deadline=None)
@given(cli_case())
def test_malformed_input_never_escapes_main(case):
    argv, docs = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        paths = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        code = main([a.format(**paths) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in out + err
    if code == 2 or not out:          # exit 2, or exit 1 on a broken invariant
        assert code != 0 and out == "" and err.count("\n") == 1
        assert "error" in json.loads(err)
