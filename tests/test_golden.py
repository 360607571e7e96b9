"""Golden stdout digests for every subcommand on the catalog graphs.

Each case runs ``cli.main`` in-process and compares the exit code and the
sha256 of stdout with values recorded at commit 1ca9209, the parent of the
change that added this file.  A change that is meant to keep the CLI output
byte-identical must keep this file passing unchanged; a change that alters
output on purpose re-records the affected digests and names its commit and
its reason.
"""

import hashlib
import json

import pytest

from flowtri.cli import main
from flowtri.dag import D1, D2, D3, G, bypass, dag_to_json, make_dag, zigzag
from flowtri.planar import (PlanarEmbedding, embedding_to_json, make_poset,
                            poset_to_dag)
from tests.conftest import RU351, chain, stacked_rotations, zigzag_rotations
from tests.test_geometry import BIG

# A 9-element graded poset with 3 ranks of 3 elements (the perfbench
# generator's graded_poset(Random(2), 3, 3, 3), written out).
GRADED9, GRADED9_EMBEDDING = poset_to_dag(make_poset(
    ["a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1", "c2"],
    [("a0", "b0"), ("a0", "b1"), ("a1", "b1"), ("a2", "b2"), ("b0", "c0"),
     ("b1", "c1"), ("b1", "c2"), ("b2", "c2")]))

GRAPHS = {"G3": G(3), "D1": D1(), "D2": D2(), "D3": D3(), "zigzag": zigzag(),
          "bypass": bypass(), "chain4x3": chain(4, 3), "chain3x3": chain(3, 3),
          "unbalanced": make_dag(1, [("a", 0, 1), ("b", 0, 1), ("c", 1, 2)]),
          "graded9": GRADED9, "BIG": BIG, "chain4x2": chain(4, 2),
          "RU351": RU351}
ROTATIONS = {"G3": stacked_rotations(G(3)), "D1": stacked_rotations(D1()),
             "D2": stacked_rotations(D2()), "D3": stacked_rotations(D3()),
             "zigzag": zigzag_rotations(), "graded9": GRADED9_EMBEDDING.rotations}
DECOMPOSITIONS = {"D1-crossed": [["a", "d"], ["b", "c"]]}

# case id -> (argv with {graph}/{embedding}/{decomposition} placeholders)
CASES = {}
for _name in ("G3", "D1", "D2", "D3", "zigzag", "bypass"):
    for _cmd in ("analyze", "decompose", "dkk", "equatorial", "quotient"):
        CASES[f"{_cmd}-{_name}"] = [_cmd, "{graph:%s}" % _name]
    CASES[f"equatorial-exhaustive-{_name}"] = ["equatorial", "{graph:%s}" % _name,
                                               "--exhaustive-dkk"]
for _name in ROTATIONS:
    CASES[f"order-{_name}"] = ["order", "{graph:%s}" % _name,
                               "{embedding:%s}" % _name]
for _cmd in ("decompose", "dkk", "equatorial", "quotient"):
    CASES[f"{_cmd}-unbalanced"] = [_cmd, "{graph:unbalanced}"]
for _cmd in ("dkk", "equatorial", "quotient"):
    CASES[f"{_cmd}-D1-crossed"] = [_cmd, "{graph:D1}", "--decomposition",
                                   "{decomposition:D1-crossed}"]
CASES["analyze-D2-text"] = ["analyze", "{graph:D2}", "--format", "text"]
# Text cases for dkk, equatorial, quotient and order, recorded at commit
# bf3988a: they pin the --format text rendering, which shares no code with
# the JSON writer.  The four were re-recorded on top of commit 175b969,
# when each list item got its own "- " marker so nested lists keep their
# bounds.
for _cmd, _name in (("dkk", "D3"), ("equatorial", "D3"), ("quotient", "zigzag")):
    CASES[f"{_cmd}-{_name}-text"] = [_cmd, "{graph:%s}" % _name, "--format", "text"]
CASES["order-zigzag-text"] = ["order", "{graph:zigzag}", "{embedding:zigzag}",
                              "--format", "text"]
# The two shortened fuzz cases date from when Ehrhart counts visited every
# lattice point and seed 0's eighth graph alone took about 20 s.  The default
# run's digest was recorded at commit 9780ee1; it equals the --max-edges 6
# digest because every drawn graph passes and the report omits --max-edges.
CASES["fuzz-seed0"] = ["fuzz", "--seed", "0"]
CASES["fuzz-seed0-count7"] = ["fuzz", "--seed", "0", "--count", "7"]
CASES["fuzz-seed0-max-edges6"] = ["fuzz", "--seed", "0", "--max-edges", "6"]
# Two cases at scale, recorded at commit dae2249 (where they took about 10 s
# and 4.5 s): chain 4x3 has 81 routes and 2,520 simplices, and chain 3x3 has
# 1,296 framings for the exhaustive sweep.
CASES["equatorial-chain4x3"] = ["equatorial", "{graph:chain4x3}"]
CASES["equatorial-exhaustive-chain3x3"] = ["equatorial", "{graph:chain3x3}",
                                           "--exhaustive-dkk"]
# Two quotient cases at scale, recorded at commit c2a0171: BIG has 16
# coordinates, 348 routes and 460 facets; chain 4x2 has 16 routes.
CASES["quotient-BIG"] = ["quotient", "{graph:BIG}"]
CASES["quotient-chain4x2"] = ["quotient", "{graph:chain4x2}"]
# A dim-10 quotient case, recorded at commit 1f76a7d: the route union RU351
# (perfbench's gen.route_union(Random(1), 3, 5, .5), written out in
# conftest) has 9 coordinates, 51 routes and 108 facets.
CASES["quotient-RU351"] = ["quotient", "{graph:RU351}"]
# Two dkk cases at scale, recorded at commit af9d1ed, where checking the
# triangulation took about 1.1 s on chain 4x3 (2,520 simplices) and 0.02 s on
# chain 3x3 (90 simplices).
CASES["dkk-chain3x3"] = ["dkk", "{graph:chain3x3}"]
CASES["dkk-chain4x3"] = ["dkk", "{graph:chain4x3}"]
# order-graded9 (the ROTATIONS loop above) was recorded at commit 64aaaf7,
# where it took about 0.4 s: its equatorial triangulations have 1,024
# simplices each.

# case id -> (exit code, sha256 of stdout)
GOLDEN = {
    'analyze-D1': (0, 'b3df2d348bfd346b11696c65d7d64970220369a168806b2d9d6c9e24abdc9423'),
    'analyze-D2': (0, '39c1a9b49e8976297c7e7165c55e3d453c9b6e43b8264ba01e7317529bed4adb'),
    'analyze-D2-text': (0, 'cc52552c293bab0c1e6db5170a756be6b5ff6bb477760a37f69aae08a255c6ca'),
    'analyze-D3': (0, '865b4df4cc72f8677debbffa14d45b22120a4ab4db84d9ee874da1868ac887a7'),
    'analyze-G3': (0, '3ae2925f131c02f45e6fe8ada5f4b932ecd657fdffc9e42b081a7b11218b6f4e'),
    'analyze-bypass': (0, '897855fd723f1128707f5b7a67552edfede0a9e1faae36ce9c22d8ece01a901b'),
    'analyze-zigzag': (0, '3382de9781e379eb23cceb750d47861e472ebe56653041c01696c7c2d328bb3f'),
    'decompose-D1': (0, 'b5061d70c27318039640ae804e8bce84f7e9d80c523bead9242bf3914d897c97'),
    'decompose-D2': (0, 'a97734b706e2a66a334ffff9db494ab281cb3e4092255d72f62104b87a23d28c'),
    'decompose-D3': (0, '1882b1cfeb743fbc3eb0c535b2733a365926bbe514377148927cdef30b3ad54e'),
    'decompose-G3': (0, 'd44d2527cc2e53a02b6e95b7ce8c610878aed8a38d1cbf4aa9badb5e9fa1e54c'),
    'decompose-bypass': (0, 'b2b7e11cbb3292e63fab20b4d2b1f268bb19f0ff3a4c6daa4d94367fafc68821'),
    'decompose-unbalanced': (1, 'cd0ac4ab2ff3d1bada2fbbe0a4f2b7395e2d2d19a1edf124b2139528d50295a2'),
    'decompose-zigzag': (0, 'e9ac89ff8eb7d5ec31aac8d36d170587e7ce423a456cb6cda17cd4a2ed193c8d'),
    'dkk-D1': (0, '2bb677716267a9fa5495945b08e850a61f5ab3951ac3e45f3b4316595f87668f'),
    'dkk-D1-crossed': (0, 'a558ae89e178e0ec23c633985b331f2eb12036e1ef0c20d027aa1cf79b2d819b'),
    'dkk-D2': (0, '3bc2fe270e1dfd2ace0eb5186d660a23650263d04fd45cfbbab55ae92c766a82'),
    'dkk-D3': (0, '93a145778c3da9f439a6d35d4d505e9d26733ea382b67de8d80e948cce14420e'),
    'dkk-D3-text': (0, '4a5134ba53749a9e9bab871edf615a3f8c9c18f6b7769d8f8ee225a4c7238cdf'),
    'dkk-G3': (0, 'cad9ce7deb00aad8fd9cc6e1a16fc0169381f122d8b14c29ef4e1c64a08be19d'),
    'dkk-bypass': (0, '8fd03517bbc1dbfd4fd7015618f532e343f20839a6bb1e303a6c12d57e79722a'),
    'dkk-chain3x3': (0, 'ea9b392a8d7e74d9e1aae25eddeb5c6afe77c2457577105f3b99444950f3b9b7'),
    'dkk-chain4x3': (0, '91ad3228e390f546d02404320749ee7a909165f5176b4987c4c855253c833bc3'),
    'dkk-unbalanced': (1, '9320875e44314e5c7ed0d3d353b768ad92a84ac5765c342143f15776ff0496a5'),
    'dkk-zigzag': (0, '0414ca1bbf9bdc3d18e46be66fe723fe33e36dc20acedb3a9e04bef7ea8a0094'),
    'equatorial-D1': (0, '2fbb8fe7780787ce6c217a4172f47315d6bed404aff791e1db926f928d48f5db'),
    'equatorial-D1-crossed': (0, 'e654dc0ff15914059f2e49fdd53af2b470f09da90f52dc758fd04ea5736d66bb'),
    'equatorial-D2': (0, '5fb9fe5c772ba3c63cad3ad65a68450e070a210b0a0c641ec9bc32b58c020b61'),
    'equatorial-D3': (0, 'dfce62c1959d158b47cfcff548580a652fbbc22772986d9c5cca983c4e1a4be6'),
    'equatorial-D3-text': (0, '07103bc5c9861243c506a533f61e4250579cd8e2a56907985453c6acf505c7cc'),
    'equatorial-G3': (0, 'f0f82e5af378984d818d9dbe7ab7e070b593d7112eae22fbf55a7ca6884a6403'),
    'equatorial-bypass': (0, 'b75718f6be2fac383c52c5f1863e10b829c018dbf8e971a0d98c2c769cbaf1d1'),
    'equatorial-chain4x3': (0, '64db59a33dd74ece055461f4057b8199ba9bc318537e87984527453acd31605a'),
    'equatorial-exhaustive-D1': (0, 'd8bdd1a5f3cf00457dd8a6b826839ea40abee74de4dc178e9f2843d0cb1fd767'),
    'equatorial-exhaustive-D2': (0, '93513fb54974f00a82ca864a26a6c12b11af8a8c65dff77da2e5dedc8939bebc'),
    'equatorial-exhaustive-D3': (0, '751c8584f5c0c722320a999930568ffafd388a1ab2905d2043b547458b76a696'),
    'equatorial-exhaustive-G3': (0, '8589d08b6e9ff4dc8be2de8836091d77718242eaba1b3b959e7c24f671a96173'),
    'equatorial-exhaustive-bypass': (0, 'e7f62709dcbed556afd5b5042f2582a7ea4f60b0677a5137f12ebc33313d2ac0'),
    'equatorial-exhaustive-chain3x3': (0, '46307b0d654846a50acca23d6783f53e84e958a2795402b517444731fdc99f57'),
    'equatorial-exhaustive-zigzag': (0, 'ba464fb4c2fd4fa716546e054a9212dd7a9b1e764b6763aa8fab6629b39c0546'),
    'equatorial-unbalanced': (1, '8c22d39bdaa0b7223e3f6683e001510c47028ca1676325a6a39c0c832ee3eb00'),
    'equatorial-zigzag': (0, 'aac0b6578b4ca6728ec81793b1f3fbb245f1b1c28781b9c8dd4f5a96c5374949'),
    'fuzz-seed0': (0, '7d7bca4fa8deac190ed9ee233aac854da9b5b8881c9ed4a6d6a3b87b25cac205'),
    'fuzz-seed0-count7': (0, '2e31c44f4a18ad3809a735067ce0fc09f38d2eb4a0ff0ea3cc059fec39a4b5f6'),
    'fuzz-seed0-max-edges6': (0, '7d7bca4fa8deac190ed9ee233aac854da9b5b8881c9ed4a6d6a3b87b25cac205'),
    'order-D1': (0, '0b09446e43e71320d8db9a39532f6974b54b27969b73282e55a60eb066374f32'),
    'order-D2': (0, 'aec86c234ebc2751f053598f925ea8abe1dc1f492973b20a8f030648476f0962'),
    'order-D3': (0, '727c87e1e3f5af02b45140efd11f333777f14f74defc2cd3bf9174576ebe3d89'),
    'order-graded9': (0, '5cc54e471704749389d092c2fc757d247cf86068fa24151cfbdeaec313141064'),
    'order-G3': (0, 'd72844d65b8967a7afb5429ddacdfcf0777bf2c684e827e90097d82c889a6b45'),
    'order-zigzag': (0, 'bb944f0c8e8353dc8c7f85de9ac243173bed2430d45a83090938a52c7dec05cd'),
    'order-zigzag-text': (0, 'eef4434f1abb9334d1a5ed00b23e306c49cefd854b8a12a82e40090d14a31bef'),
    'quotient-BIG': (0, 'a09aacc81ed12e5e465a07b1ae32f5911139594c8c0f37d1bf4fd497a7479316'),
    'quotient-D1': (0, 'ca9b58edf7f59401d303df9c79a2a3983c304d5a04a0eea7bb182f6ee128b044'),
    'quotient-D1-crossed': (0, '25a754d77d2c3f20c1cf74d2a13e9e9f7857a3b987baf4bcfe6b8234b8301b67'),
    'quotient-D2': (0, 'af247084384c828726862bdbd2656d413080c5c101afa1876b779283645d9213'),
    'quotient-D3': (0, '0d7af303fd34870ad2a51b24c606f518d8855ac9f319a0fafe0cc2db2f31c007'),
    'quotient-G3': (0, 'c899a5eb468e8e95e96323f2387e71a819b23dd0c98f4b6b54af3b57ce6b4e4e'),
    'quotient-bypass': (0, '2f98154fca3fc2b98d337e47bbd544982e7bfd96cffb4459817d85c66de6154a'),
    'quotient-chain4x2': (0, '02d1071e46c18c2161f3a4205aa9450ffe3e6d5fb5e37caedeaea18c85231e73'),
    'quotient-RU351': (0, '3f2db727f5c5e0170a8631197add82b0fa636e85c09055887c9a1aa9e6a35c49'),
    'quotient-unbalanced': (1, '8977fe45fdc1d49a1963f4124c67770be2c4fd5084fd4bca52ff667c08ac0cf2'),
    'quotient-zigzag': (0, 'e1251b9f14fa860707a414a01c27cb98050d16f63e5b32d26e26056d3670f90f'),
    'quotient-zigzag-text': (0, '298d439b131393d59bfab25b075ab537e6705dc4e06ed9605e8ebe5d3b4499ef'),
}


def materialize(argv, tmp_path):
    """Write the files an argv refers to and return the concrete argv."""
    out = []
    for arg in argv:
        if not arg.startswith("{"):
            out.append(arg)
            continue
        kind, name = arg.strip("{}").split(":")
        path = tmp_path / f"{kind}-{name}.json"
        if kind == "graph":
            doc = dag_to_json(GRAPHS[name])
        elif kind == "embedding":
            doc = embedding_to_json(GRAPHS[name], PlanarEmbedding(ROTATIONS[name]))
        else:
            doc = DECOMPOSITIONS[name]
        path.write_text(json.dumps(doc))
        out.append(str(path))
    return out


def run_case(case, tmp_path, capsys):
    code = main(materialize(CASES[case], tmp_path))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case, tmp_path, capsys):
    assert run_case(case, tmp_path, capsys) == GOLDEN[case]
