"""Smoke runs of the experiment scripts with small arguments.

build_corpus.py is left out: it rewrites corpus/.
"""

import os
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
