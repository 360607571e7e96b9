"""Command-line surface: deterministic JSON/text reports over all modules."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from . import dag as dagmod
from . import dkk as dkkmod
from . import equatorial as eqmod
from . import geometry as geo
from . import planar as plmod
from . import quotient as qmod
from . import routes as rmod

OK, FAILED, INVALID = 0, 1, 2
BROKEN_PIPE = 141           # 128 + SIGPIPE, as a shell reports a writer killed by it
MAX_FUZZ_EDGES = 64         # fuzz run time grows steeply past about 13 edges


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A bad command line is an ``InputError``, not a usage text."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load_json(path: str) -> tuple[object, bytes]:
    """The JSON document in ``path`` and the bytes it was parsed from, read
    once, so a pipe or a FIFO works as well as a regular file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), raw
    except (OSError, ValueError, RecursionError) as exc:    # undecodable or too deep
        raise InputError(f"cannot read {path}: {exc}") from exc
    except MemoryError as exc:          # an endless input, such as /dev/zero
        raise InputError(f"cannot read {path}: out of memory") from exc


def _load_graph(path: str) -> tuple[dagmod.Dag, str]:
    """The validated graph in ``path`` and its digest, the first 16 hex
    digits of the sha256 of the file's bytes."""
    doc, raw = _load_json(path)
    try:
        dag = dagmod.dag_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph file {path}: {exc}") from exc
    report = dagmod.validate(dag)
    if not report.ok:
        raise InputError("invalid graph: " + "; ".join(
            f"{kind}: {message}" for kind, message in report.violations))
    return dag, hashlib.sha256(raw).hexdigest()[:16]


def _load_decomposition(dag: dagmod.Dag, path: str | None) -> tuple[rmod.Route, ...]:
    if path is None:
        return rmod.route_decomposition(dag)
    data, _ = _load_json(path)
    if not isinstance(data, list) or not all(
            isinstance(r, list) and all(isinstance(e, str) for e in r) for r in data):
        raise InputError(f"{path} is not a JSON list of routes of edge ids")
    decomp = tuple(tuple(r) for r in data)
    if not rmod.is_route_decomposition(dag, decomp):
        raise InputError(f"{path} is not a route decomposition of the graph")
    return decomp


def _require_idle_free(dag: dagmod.Dag) -> None:
    """Equatorial facets are defined on idle-free graphs only."""
    idle = dagmod.idle_edges(dag)
    if idle:
        raise InputError(f"idle edges present (contract them first): {list(idle)}")


_LEAF_ENCODERS = {str: encode_basestring_ascii, int: int.__repr__}


def _scalar(value) -> str:
    """The JSON text of a str, int, bool or None; ``TypeError`` otherwise."""
    encode = _LEAF_ENCODERS.get(type(value))
    if encode is not None:
        return encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class Faces(NamedTuple):
    """Faces as int masks over a route list, as a report holds them: bit i of
    a mask stands for ``routes[i]``, a sequence of edge ids.  ``masks`` is one
    face, printed as the list of its routes, or a sequence of faces, printed
    as a list of such lists."""

    routes: Sequence[Sequence[str]]
    masks: int | Sequence[int]

    def lists(self) -> list:
        """The member lists the faces print as."""
        if type(self.masks) is int:
            return [self.routes[i] for i in geo._members(self.masks)]
        return [Faces(self.routes, m).lists() for m in self.masks]


WRITE_PIECES = 4096     # pieces joined into one ``write``


def _write_json(value, write) -> None:
    """Write ``value`` as ``json.dumps`` renders it with indent 2 and sorted
    keys, with each ``Faces`` rendered as its member lists.

    Only exact dict, list, tuple (rendered as a list), str, int, bool and
    None values and ``Faces`` are accepted; floats, sets and subclasses
    raise ``TypeError``.  A list or tuple whose items are all str or all int
    is rendered by one join.  Each route of a ``Faces`` is rendered once per
    depth, memoised by the route list's id and depth, so routes shared by
    many faces cost one rendering, and a face is one join over its members'
    texts (an empty face is ``[]``).
    ``value`` keeps every memoised route list alive for the call.
    Pieces are joined into one ``write`` per few thousand, a face counting
    as two pieces per route, so an unbuffered stdout does not take a system
    call per piece and no write holds more than a slice of the output.
    """
    route_memo: dict[tuple[int, int], list[str]] = {}
    parts: list[str] = []
    put = parts.append

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    def face_text(routes, depth: int):
        """The function from a mask to its face's text at ``depth``."""
        key = (id(routes), depth + 1)
        texts = route_memo.get(key)
        if texts is None:
            inner = "\n" + "  " * (depth + 2)
            close = "\n" + "  " * (depth + 1) + "]"
            texts = route_memo[key] = [
                "[" + inner + ("," + inner).join(map(encode_basestring_ascii, r)) + close
                if r else "[]" for r in routes]
        get = texts.__getitem__
        inner = "\n" + "  " * (depth + 1)
        opened, sep, close = "[" + inner, "," + inner, "\n" + "  " * depth + "]"
        members = geo._members
        return lambda m: opened + sep.join(map(get, members(m))) + close if m else "[]"

    def walk(value, depth: int) -> None:
        kind = type(value)
        if kind is Faces:
            masks = value.masks
            if type(masks) is int:
                put(face_text(value.routes, depth)(masks))
                return
            if not masks:
                put("[]")
                return
            face = face_text(value.routes, depth + 1)
            inner = "\n" + "  " * (depth + 1)
            step = WRITE_PIECES // (2 * masks[0].bit_count() + 2) + 1
            put("[" + inner)
            for lo in range(0, len(masks), step):
                if lo:
                    put("," + inner)
                put(("," + inner).join(map(face, masks[lo:lo + step])))
                flush()
            put("\n" + "  " * depth + "]")
            return
        if kind in (list, tuple) and value:
            kinds = set(map(type, value))
            encode = _LEAF_ENCODERS.get(kinds.pop()) if len(kinds) == 1 else None
            inner = "\n" + "  " * (depth + 1)
            if encode is not None:
                put("[" + inner + ("," + inner).join(map(encode, value))
                    + "\n" + "  " * depth + "]")
                return
            put("[" + inner)
            for i, item in enumerate(value):
                if i:
                    put("," + inner)
                walk(item, depth + 1)
            put("\n" + "  " * depth + "]")
        elif kind is dict and value:
            inner = "\n" + "  " * (depth + 1)
            put("{" + inner)
            for i, (k, item) in enumerate(sorted(value.items())):
                name = k if type(k) is str else _scalar(k)
                put(("," + inner if i else "") + encode_basestring_ascii(name) + ": ")
                walk(item, depth + 1)
            put("\n" + "  " * depth + "}")
        else:
            put("[]" if kind in (list, tuple) else "{}" if kind is dict else _scalar(value))
            return
        if len(parts) > WRITE_PIECES:
            flush()

    walk(value, 0)
    flush()


def _write_text(value, write) -> None:
    """Write ``value`` as indented text: a dict as one ``key: value`` line
    per key, sorted, and a list or tuple as one ``- item`` line per item.  A
    nonempty one goes on the lines after its key, two spaces deeper, or
    starts on its item's ``- `` line, so every item of a nested list keeps
    its own marker.  Other values print as ``str`` does; an empty list or
    tuple as ``[]``, an empty dict as ``{}``, and ``Faces`` as their lists."""
    def render(value, indent: str, lead: str) -> None:
        # ``lead`` begins the first line: ``indent``, or the parent item's marker
        is_dict = type(value) is dict
        for i, (k, v) in enumerate(sorted(value.items()) if is_dict else enumerate(value)):
            head = (indent if i else lead) + (f"{k}:" if is_dict else "-")
            if type(v) is Faces:
                v = v.lists()
            kind = type(v)
            if kind not in (dict, list, tuple) or not v:
                write(f"{head} {'{}' if kind is dict else '[]' if kind in (list, tuple) else v}\n")
            elif is_dict:
                write(head + "\n")
                render(v, indent + "  ", indent + "  ")
            else:
                render(v, indent + "  ", head + " ")

    render(value, "", "")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(report, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        _write_text(report, sys.stdout.write)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_analyze(args, dag: dagmod.Dag, report: dict) -> int:
    try:
        contracted, mapping = dagmod.contract_idle_edges(dag)
        report["contraction"] = {
            "edges_removed": len(dag.edges) - len(contracted.edges),
            "edge_map": mapping,
        }
    except ValueError:
        report["contraction"] = "graph contracts to a single edge-free point"
    report["degree_equality"] = dagmod.degree_equality(dag)
    report["dimension"] = dagmod.dimension(dag)
    hs = geo.ehrhart_hstar(dag)
    # the integer flows of strength 1 are the routes; a point (dim 0) has no L(1)
    report["routes"] = hs.counts[1] if len(hs.counts) > 1 else geo.lattice_counts(dag, 1)[1]
    report["ehrhart"] = {"L": hs.counts, "h_star": hs.h_star,
                         "degree": hs.degree, "codegree": hs.codegree}
    return OK


def cmd_decompose(args, dag: dagmod.Dag, report: dict) -> int:
    decomp = rmod.route_decomposition(dag)
    report["decomposition"] = decomp
    report["size"] = len(decomp)
    report["outdeg_source"] = dag.outdeg(0)
    return OK


def cmd_dkk(args, dag: dagmod.Dag, report: dict) -> int:
    decomp = _load_decomposition(dag, args.decomposition)
    framing = rmod.decomposition_framing(dag, decomp)
    tri = dkkmod.dkk_triangulation(dag, framing)
    report["routes"] = len(tri.labels)
    report["simplices"] = Faces(tri.labels, tri.simplices)
    report["exceptional_routes"] = dkkmod.exceptional_routes(tri)
    check = dkkmod.verify_dkk_triangulation(dag, tri)
    report["triangulation_ok"] = check.ok
    report["issues"] = check.issues
    return OK if check.ok else FAILED


def _h_against_h_star(dag: dagmod.Dag, fv) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """h of the equatorial sphere with f-vector ``fv`` (and of its join with
    the route simplex, a cone), the graph's h*, and whether they agree."""
    h = geo.h_from_f(fv)
    h_star = geo.ehrhart_hstar(dag).h_star
    return h, h_star, h == h_star[:len(h)] and not any(h_star[len(h):])


def cmd_equatorial(args, dag: dagmod.Dag, report: dict) -> int:
    decomp = _load_decomposition(dag, args.decomposition)
    _require_idle_free(dag)
    if args.exhaustive_dkk and (framings := eqmod.framing_count(dag)) > eqmod.MAX_FRAMINGS:
        raise InputError(f"--exhaustive-dkk: {framings} framings, "
                         f"more than the bound of {eqmod.MAX_FRAMINGS}")
    report["decomposition"] = decomp
    table, _, facets, sphere = eqmod.equatorial_sphere(dag, decomp)
    labels = table.routes
    report["facets"] = [{"transversal": facets[rs], "routes": Faces(labels, rs)}
                        for rs in geo._canonical(facets)]
    report["sphere"] = {
        "maximal_faces": Faces(labels, sphere.maximal_faces),
        "f_vector": sphere.f_vector,
        "euler_characteristic": geo.euler_characteristic(sphere.f_vector),
    }
    simplices = eqmod.joined_simplices(dag, table, decomp, sphere)
    report["simplices"] = Faces(labels, simplices)
    h, h_star, agree = _h_against_h_star(dag, sphere.f_vector)
    report["h_vector"] = h
    report["h_star"] = h_star
    report["h_equals_h_star"] = agree
    code = OK if agree else FAILED
    if args.exhaustive_dkk:
        matches = eqmod.matching_framings(dag, table, simplices)
        report["dkk_comparison"] = {
            "framings_checked": framings,
            "matching_framings": len(matches),
            "verdict": ("is a DKK triangulation" if matches
                        else "not a DKK triangulation for any framing"),
        }
    return code


def cmd_quotient(args, dag: dagmod.Dag, report: dict) -> int:
    decomp = _load_decomposition(dag, args.decomposition)
    _require_idle_free(dag)
    q = qmod.quotient_facets(dag, decomp)
    blocks = q.space.blocks
    report["polytope"] = {
        "blocks": {str(v): labels for v, labels in blocks},
        "vertices": {str(i): c for i, c in q.vertices},
        "facets": [{"coeffs": c, "rhs": 1, "transversal": m} for m, c in q.facets],
        "subspace": [f"sum of block {v} = 0" for v, _ in blocks],
    }
    report["dimension"] = q.space.quotient_dim
    refl = qmod.verify_reflexive(q)
    report["reflexive"] = refl.ok
    report["reflexive_issues"] = refl.issues
    pairs, failures = qmod.check_transversal_identity(q)
    report["identity_pairs"] = pairs
    report["identity_failures"] = [
        {"route": s, "transversal": m, "lhs": lhs, "rhs": rhs}
        for s, m, lhs, rhs in failures]
    return OK if refl.ok and not failures else FAILED


def cmd_order(args, dag: dagmod.Dag, report: dict) -> int:
    if args.max_dilate < 0:
        raise InputError(f"--max-dilate {args.max_dilate} is negative")
    try:
        emb = plmod.embedding_from_json(dag, _load_json(args.embedding)[0])
        dual = plmod.planar_dual(dag, emb)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad embedding: {exc}") from exc
    poset = dual.poset
    report["poset"] = plmod.poset_to_json(poset)
    report["graded"] = poset.graded
    report["ranks"] = poset.heights if poset.graded else {}
    flows = geo.lattice_counts(dag, args.max_dilate)
    counts = [{"t": t, "flow": flows[t], "order": order}
              for t, order in enumerate(plmod.order_polytope_count(poset, args.max_dilate), 1)]
    report["lattice_counts"] = counts
    counts_ok = all(c["flow"] == c["order"] for c in counts)
    report["lattice_counts_agree"] = counts_ok
    if not dagmod.degree_equality(dag):
        report["equivalence"] = "skipped: degree equality fails"
        return OK if counts_ok else FAILED
    _require_idle_free(dag)
    ver = plmod.verify_equivalence(dag, emb, dual)
    report["equivalence"] = {
        "ok": ver.ok,
        "issues": ver.issues,
        "decomposition": ver.decomposition,
        "flow_simplices": ver.flow_simplices,
        "order_simplices": ver.order_simplices,
    }
    return OK if counts_ok and ver.ok else FAILED


def _fuzz_failure(k: int, drawn: dagmod.Dag, message: str) -> dict:
    """A fuzz failure with the drawn graph as compact JSON, for replay."""
    return {"index": k, "message": message,
            "graph": json.dumps(dagmod.dag_to_json(drawn), separators=(",", ":"))}


def cmd_fuzz(args, _, report: dict) -> int:
    if args.max_edges < 4:            # 3 inner vertices need 4 edges
        raise InputError(f"--max-edges {args.max_edges} is below 4")
    if args.max_edges > MAX_FUZZ_EDGES:
        raise InputError(f"--max-edges {args.max_edges} is above {MAX_FUZZ_EDGES}")
    if args.count < 0:
        raise InputError(f"--count {args.count} is negative")
    rng = random.Random(args.seed)
    failures = []
    balanced = 0
    for k in range(args.count):
        drawn = dag = dagmod.random_dag(rng, args.max_edges)
        if not dagmod.degree_equality(dag):
            try:
                rmod.route_decomposition(dag)
                failures.append(_fuzz_failure(k, drawn, "decomposition of unbalanced graph"))
            except rmod.NotGorensteinError:
                pass
            dag = dagmod.gorenstein_completion(dag)
        try:
            dag, _ = dagmod.contract_idle_edges(dag)
        except ValueError:
            continue              # contracts to a single point
        balanced += 1
        try:
            decomp = rmod.route_decomposition(dag)       # certified by the peel
            table, _, _, sphere = eqmod.equatorial_sphere(dag, decomp)
            eqmod.joined_simplices(dag, table, decomp, sphere)     # checks the join's sizes
            h, h_star, agree = _h_against_h_star(dag, sphere.f_vector)
        except AssertionError as exc:     # a broken invariant, kept with its graph
            failures.append(_fuzz_failure(k, drawn, f"invariant failed: {exc}"))
            continue
        if not agree:
            failures.append(_fuzz_failure(k, drawn, f"h-vector {h} != h* {h_star}"))
    report.update(seed=args.seed, graphs=args.count, balanced_checked=balanced,
                  failures=failures)
    return OK if not failures else FAILED


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="flowtri",
                description="Equatorial flow triangulations of Gorenstein flow polytopes")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        sp = sub.add_parser(name)
        if extra.get("graph", True):
            sp.add_argument("graph", help="graph JSON file")
        if extra.get("decomposition"):
            sp.add_argument("--decomposition", help="route decomposition JSON file")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        return sp

    add("analyze")
    add("decompose")
    add("dkk", decomposition=True)
    eq = add("equatorial", decomposition=True)
    eq.add_argument("--exhaustive-dkk", action="store_true")
    add("quotient", decomposition=True)
    order = add("order")
    order.add_argument("embedding", help="embedding JSON file")
    order.add_argument("--max-dilate", type=int, default=4)
    fuzz = add("fuzz", graph=False)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=25)
    fuzz.add_argument("--max-edges", type=int, default=8)
    return p


def main(argv=None) -> int:
    """Run one subcommand, which fills a copy of the report header and returns
    its exit code; the only place where exceptions become exit codes, and the
    one place that reads the graph file and builds the report header."""
    try:
        args = _parser().parse_args(argv)
        header: dict = {"command": args.command}
        dag = None
        if args.command != "fuzz":
            dag, header["digest"] = _load_graph(args.graph)
        report = dict(header)
        # looked up on every call, so a rebound cmd_* takes effect
        code = globals()[f"cmd_{args.command}"](args, dag, report)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return INVALID
    except RecursionError as exc:      # input whose walk nests past the interpreter's limit
        print(json.dumps({"error": f"input too deep to process: {exc}"}, sort_keys=True),
              file=sys.stderr)
        return INVALID
    except rmod.NotGorensteinError as exc:
        report, code = {**header, "error": str(exc)}, FAILED
    except AssertionError as exc:      # a broken invariant of the library
        print(json.dumps({"error": f"invariant failed: {exc}"}, sort_keys=True),
              file=sys.stderr)
        return FAILED
    try:
        _emit(report, args.format)
        sys.stdout.flush()              # a closed pipe raises here, not at exit
    except BrokenPipeError:             # the reader stopped early, as ``| head`` does
        # The interpreter flushes stdout again at exit: point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
