"""Smoke runs of the experiment scripts with small arguments.

build_corpus.py writes the corpus/ next to its scripts/ directory, so it
runs from a copy in a temporary tree and its output is compared with the
committed corpus/.
"""

import filecmp
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "script,args,last_line",
    [
        ("perm_census.py", ["--kmax", "3", "--dim-max", "4", "--len-max", "3"], "all match the vertex counts"),
        ("synthesis_roundtrip.py", ["--seeds", "2"], "perturbed stage tier"),
        ("deloop_demo.py", [], "matches the bundled 3-sphere rows: True"),
    ],
)
def test_script_runs(script, args, last_line):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert last_line in r.stdout.strip().splitlines()[-1]


def test_build_corpus_reproduces_committed_corpus(tmp_path):
    os.mkdir(tmp_path / "scripts")
    shutil.copy(os.path.join(ROOT, "scripts", "build_corpus.py"), tmp_path / "scripts")
    os.symlink(os.path.abspath(os.path.join(ROOT, "src")), tmp_path / "src")
    r = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "build_corpus.py")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    committed = os.path.join(ROOT, "corpus")
    names = sorted(os.listdir(committed))
    assert len(names) == 16
    assert sorted(os.listdir(tmp_path / "corpus")) == names
    match, mismatch, errors = filecmp.cmpfiles(committed, tmp_path / "corpus", names, shallow=False)
    assert (mismatch, errors) == ([], [])
