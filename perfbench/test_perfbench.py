"""Smoke tests for the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from delooper import abelian, intlin  # noqa: E402

ORIGINAL_SNF = intlin.smith_normal_form
ORIGINAL_KERNEL = intlin.kernel_mod_lattice


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_phase(name, count):
    workloads, run_one, pool, workdir = run.set_up(name, 7)
    try:
        phase = run.Phase(run_one, pool[:count])
        phase.one_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return workloads, phase


@pytest.mark.parametrize("name", ["star_targets", "cli_corpus"])
def test_tiny_workload_has_no_failures(name):
    _, phase = _tiny_phase(name, 3)
    assert phase.attempted == 3
    assert phase.failed == 0, phase.errors


def test_untraced_run_leaves_library_unpatched():
    _tiny_phase("cli_corpus", 1)
    assert intlin.smith_normal_form is ORIGINAL_SNF
    assert abelian.kernel_mod_lattice is ORIGINAL_KERNEL
    assert not hasattr(intlin.SmithSolver.__init__, "__wrapped__")


def test_traced_star_targets_counts_layers():
    workloads, run_one, pool, workdir = run.set_up("star_targets", 7)
    shutil.rmtree(workdir, ignore_errors=True)
    tr = tracer.Tracer()
    tr.install(extra_modules=[workloads])
    try:
        # every binding of a wrapped function is replaced, not only the defining one
        assert abelian.kernel_mod_lattice is intlin.kernel_mod_lattice
        assert intlin.kernel_mod_lattice.__wrapped__ is ORIGINAL_KERNEL
        phase = run.Phase(run_one, pool[:2])
        phase.one_pass()
    finally:
        tr.uninstall()
    tr.finish()
    assert intlin.smith_normal_form is ORIGINAL_SNF
    assert abelian.kernel_mod_lattice is ORIGINAL_KERNEL
    assert phase.failed == 0, phase.errors
    m = tr.metrics(1)
    assert m["intlin.snf_calls"][0] >= m["intlin.solver_inits"][0]
    assert m["abelian.canon_calls"][0] > 0
    assert m["star.star_calls"][0] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_every_metric(trace, section):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_corpus", "--seed", "3",
            "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_bare_directory_fails_without_result():
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_corpus", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
