import ast
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def run(*args):
    r = subprocess.run(
        [sys.executable, "-m", "delooper.cli", *args],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )
    return r.returncode, r.stdout


def corpus(name):
    return os.path.join(CORPUS, name)


@pytest.mark.parametrize(
    "args,expected",
    [
        (("verify", "corpus/s1.sset.json"), 0),
        (("verify", "corpus/delta1.sset.json"), 0),
        (("verify", "corpus/zs1.dsab.json"), 0),
        (("verify", "corpus/fibrant_full.dsab.json"), 0),
        (("moore", "corpus/zs1.dsab.json"), 0),
        (("match", "corpus/zs1.dsab.json", "-n", "1"), 0),
        (("reedy", "corpus/fibrant.dsab.json"), 0),
        (("reedy", "corpus/zs1.dsab.json"), 1),
        (("extend", "corpus/zs1.dsab.json"), 0),
        (("perm", "enum", "2"), 0),
        (("perm", "label", "3:0,0,0"), 0),
        (("perm", "schema", "3:0,0,0"), 0),
        (("simplex", "index", "2"), 0),
        (("deloop", "corpus/eta_chain.pialg.json"), 1),
        (("deloop", "corpus/loop_s3.pialg.json"), 0),
        (
            (
                "star-check",
                "--f",
                "corpus/star_f.freehom.json",
                "--g",
                "corpus/star_g.freehom.json",
                "--h",
                "corpus/star_h.targetmap.json",
                "--target",
                "corpus/star_target.dsab.json",
            ),
            0,
        ),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json"), 0),
        (("e2", "corpus/resolution.bisab.json"), 0),
        (("perm", "enum", "9"), 2),
        (("perm", "label", "garbage"), 2),
        (("verify", "corpus/does_not_exist.json"), 2),
        (("deloop", "corpus/s1.sset.json"), 2),
    ],
)
def test_exit_code_contract(args, expected):
    rc, out = run(*args)
    assert rc == expected, out


def test_reports_are_json_with_witnesses():
    rc, out = run("deloop", "corpus/eta_chain.pialg.json")
    rep = json.loads(out)
    assert rc == 1
    assert rep["verdict"] == "obstruction"
    assert rep["witnesses"]
    assert rep["degree"] == 6


def test_reports_deterministic():
    rc1, out1 = run("moore", "corpus/zs1.dsab.json")
    rc2, out2 = run("moore", "corpus/zs1.dsab.json")
    rep1, rep2 = json.loads(out1), json.loads(out2)
    rep1.pop("timing_s")
    rep2.pop("timing_s")
    assert rep1 == rep2


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("perm", "enum", "6"), "aa5f3722cebe5329c2f9c7269ed2c50f00c7faec7098b8cfb399db207c08612a"),
        (("perm", "schema", "5:0,0,0,0,0"), "13188277598d2a82b4725aaf5e8d07546c71645e909bf2ebfb36728c2023014f"),
        (("simplex", "index", "6"), "eba0675149ce88cbce9a1a278090053693f2f533c4422047435fed7db0c2b363"),
    ],
)
def test_combinatorial_reports_pinned(argv, digest, capsys):
    """Reports, apart from timing_s, hash to the digests of the plain
    recursive enumeration: same face counts, same equation order."""
    from delooper import cli

    assert cli.main(list(argv)) == 0
    rep = json.loads(capsys.readouterr().out)
    rep.pop("timing_s")
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("perm", "schema", "10:" + ",".join(["0"] * 10)),
        ("perm", "label", "9:" + ",".join(["0"] * 9)),
        ("simplex", "index", "11"),
        ("simplex", "index", "40"),
    ],
)
def test_enumeration_bounds_fail_fast(argv, capsys):
    from delooper import cli

    started = time.perf_counter()
    assert cli.main(list(argv)) == 2
    assert time.perf_counter() - started < 1.0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "input-error"
    assert "beyond practical bound" in rep["error"]


def test_moore_window_flag():
    # global flags precede the subcommand
    rc, out = run("--window", "0,1", "moore", "corpus/zs1.dsab.json")
    rep = json.loads(out)
    assert rc == 0
    assert rep["homotopy"] == {"0": [], "1": [0]}


def test_global_cap_flag_truncates():
    rc, out = run("--cap", "2", "moore", "corpus/zs1.dsab.json")
    rep = json.loads(out)
    assert rc == 0
    assert rep["caps"] == 2
    assert rep["homotopy"] == {"0": [], "1": [0]}


def test_synthesize_emits_verifiable_object(tmp_path):
    rc, out = run("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json")
    rep = json.loads(out)
    assert rc == 0
    path = tmp_path / "out.dsab.json"
    with open(path, "w") as fh:
        json.dump(rep["object"], fh)
    rc2, out2 = run("verify", str(path))
    assert rc2 == 0


def _star_bundle(tmp_path):
    """star-check files over a target whose level 1 is Z/2 + Z/3 on two
    generators, so its Smith coordinates (Z/1 + Z/6) differ from the
    generator coordinates the files use. f = g = inversion on F(S^1), and h
    sends the loop cell to the generator vector (1, 1), of order 6."""
    from delooper import schemas
    from delooper.abelian import PresentedGroup
    from delooper.intlin import Mat
    from delooper.moore import ChainComplex, dold_kan
    from delooper.simplicial import sphere
    from delooper.star import milnor_F, power_hom

    S1 = sphere(1, 2)
    groups = [PresentedGroup.free(0), PresentedGroup.from_factors([2, 3]), PresentedGroup.free(0)]
    diffs = {1: Mat(0, 2, []), 2: Mat(2, 0, [[], []])}
    target = dold_kan(ChainComplex(groups=groups, diffs=diffs), 2)
    cell = next(x for x in S1.elements[1] if x != "*")
    tables = [{"*": []}, {"*": [0, 0], cell: [1, 1]}, {"*": [0] * target.rank(2)}]
    for j in range(2):
        tables[2][S1.degeneracy(1, j, cell)] = target.degeneracy(1, j).apply([1, 1])
    inversion = power_hom(milnor_F(S1), -1)
    files = {
        "s1.sset.json": schemas.sset_to_json(S1),
        "target.dsab.json": schemas.dsab_to_json(target),
        "h.targetmap.json": {"format": 1, "kind": "targetmap", "src": "s1.sset.json", "tables": tables},
        "inv.freehom.json": {
            "format": 1,
            "kind": "freehom",
            "src": "s1.sset.json",
            "dst": "s1.sset.json",
            "tables": [{g: [list(l) for l in w] for g, w in level.items()} for level in inversion.tables],
        },
    }
    for name, data in files.items():
        schemas.save(str(tmp_path / name), data)
    argv = ["star-check", "--target", str(tmp_path / "target.dsab.json"), "--h", str(tmp_path / "h.targetmap.json")]
    argv += ["--f", str(tmp_path / "inv.freehom.json"), "--g", str(tmp_path / "inv.freehom.json")]
    return argv, target, cell


def test_star_check_reads_generator_coordinates(tmp_path):
    argv, _, _ = _star_bundle(tmp_path)
    rc, out = run(*argv)
    assert rc == 0, out
    assert json.loads(out)["verdict"] == "holds"


def test_star_check_failure_witness_in_generator_coordinates(tmp_path, monkeypatch, capsys):
    """Condition (*) holds on every group target. With inversion replaced by
    doubling the retraction is no longer multiplicative: f # g sends the
    cell to h(cell) while f . (g . h) sends it to 4 h(cell), and the report
    must give both in the files' generator coordinates."""
    from delooper import cli
    from delooper.star import AbelianTarget

    argv, target, cell = _star_bundle(tmp_path)
    monkeypatch.setattr(AbelianTarget, "inv", lambda self, n, a: self.mul(n, a, a))
    assert cli.main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "fails"
    n, a, lhs, rhs = ast.literal_eval(rep["witnesses"][0])
    assert (n, a) == (1, cell)
    G = target.levels[1]
    assert list(lhs) == G.canon_vector([4, 4]) != list(G.canon([4, 4]))
    assert list(rhs) == G.canon_vector([1, 1]) != list(G.canon([1, 1]))
