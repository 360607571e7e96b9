"""Self-checks of the benchmark: generators, oracle, tracer and contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.bootstrap()

import gen  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from flowtri import dkk, equatorial  # noqa: E402
from flowtri import planar as plmod  # noqa: E402

MANIFEST = wl.load_manifest()


def quick_invocations(tmp_path: Path) -> list[wl.Invocation]:
    """The reference graphs of every workload plus the cheapest order graph."""
    out = []
    for w in wl.WORKLOADS.values():
        invs, _ = wl.build_inputs(w, 0, tmp_path / w.name, MANIFEST)
        out += [inv for inv in invs if inv.label.startswith("chain")]
    costs = {f"pool-{e['candidate']}": e["cost_ms"] for e in MANIFEST["order-planar"]["pool"]}
    invs, _ = wl.build_inputs(wl.WORKLOADS["order-planar"], 0, tmp_path / "order", MANIFEST)
    return out + [min(invs, key=lambda inv: costs[inv.label])]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    w = wl.WORKLOADS[name]
    a, digest_a = wl.build_inputs(w, 7, tmp_path / "a", MANIFEST)
    b, digest_b = wl.build_inputs(w, 7, tmp_path / "b", MANIFEST)
    assert digest_a == digest_b
    assert [inv.label for inv in a] == [inv.label for inv in b]
    for name_ in (p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name_).read_bytes() == (tmp_path / "b" / name_).read_bytes()
    digests = {wl.build_inputs(w, s, tmp_path / f"s{s}", MANIFEST)[1] for s in range(5)}
    assert len(digests) > 1, "different seeds should draw different graph sets"


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_draws_are_cost_balanced(name):
    w = wl.WORKLOADS[name]
    pool = MANIFEST[name]["pool"]
    target = w.picks * sum(e["cost_ms"] for e in pool) / len(pool)
    for seed in range(20):
        picks = wl.select(w, seed, MANIFEST)
        assert len({e["candidate"] for e in picks}) == w.picks
        # a seed with no draw within BALANCE in DRAWS tries keeps its closest one
        assert abs(sum(e["cost_ms"] for e in picks) - target) <= 2 * wl.BALANCE * target


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_pool_graph_regenerates(name):
    w = wl.WORKLOADS[name]
    for entry in MANIFEST[name]["pool"]:
        assert wl.sha(wl.candidate(w, entry["candidate"]).graph) == entry["graph"]


def test_generators_match_closed_forms():
    import random

    from flowtri import dag as dagmod
    from flowtri import geometry as geo

    for k, m in ((2, 3), (3, 2), (2, 4)):
        assert geo.normalized_volume(gen.chain(k, m)) == gen.chain_simplices(k, m)
    chain3 = plmod.make_poset("abc", [("a", "b"), ("b", "c")])
    assert gen.linear_extensions(chain3) == 1
    assert gen.linear_extensions(plmod.make_poset("abcd", [])) == 24
    dag = gen.route_union(random.Random(3), 4, 4, 0.7)
    assert dagmod.validate(dag).ok and dagmod.degree_equality(dag)
    assert not dagmod.idle_edges(dag)
    assert gen.route_union(random.Random(3), 4, 4, 0.7) == dag


def test_oracle_accepts_recorded_outputs_and_rejects_others(tmp_path):
    for inv in quick_invocations(tmp_path):
        code, out = run.invoke(inv.argv)
        assert wl.check(inv, code, out) is None, inv.label
        assert wl.check(inv, 1, out) is not None
        assert wl.check(inv, code, out.replace("true", "false", 1)) is not None
    inv = next(i for i in quick_invocations(tmp_path) if i.argv[0] == "dkk")
    code, out = run.invoke(inv.argv)
    report = json.loads(out)
    report["simplices"].pop()
    bad = json.dumps(report, indent=2, sort_keys=True) + "\n"
    # a wrong answer with a matching digest is still caught by the closed form
    inv.stdout_sha = hashlib.sha256(bad.encode()).hexdigest()
    assert "closed form" in wl.check(inv, 0, bad)


def test_traced_and_untraced_stdout_are_byte_identical(tmp_path):
    invs = quick_invocations(tmp_path)
    plain = [run.invoke(inv.argv) for inv in invs]
    originals = (dkk.max_cliques, equatorial.max_cliques, equatorial.t_eq)
    with spans.Tracer() as tracer:
        assert equatorial.max_cliques is not originals[1]
        traced = [run.invoke(inv.argv) for inv in invs]
    assert traced == plain
    assert (dkk.max_cliques, equatorial.max_cliques, equatorial.t_eq) == originals
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "equatorial.t_eq", "planar.verify_equivalence"} <= names
    assert not names & spans.TOO_FINE


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    invs = quick_invocations(tmp_path)
    with spans.Tracer() as tracer:
        p = run.Pass(invs, tracer)
    assert not p.failures
    metrics = spans.layer_metrics(tracer, 1, p.stdout_bytes)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    uncovered = p.wall - roots
    assert self_sum == pytest.approx(roots, rel=1e-9)
    assert 0 <= uncovered < 0.05 * p.wall
    assert self_sum + uncovered == pytest.approx(p.wall, rel=1e-9)
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))


def test_benchmark_json_matches_the_runner(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    with spans.Tracer() as tracer:
        run.Pass(quick_invocations(tmp_path)[:1], tracer)
    layer = dict(spans.layer_metrics(tracer, 1, 0), **dict.fromkeys(run.TRACE_EXTRA, 0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: spans.unit(k) for k in layer}


def test_runner_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "order-planar", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_fails_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quotient", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
