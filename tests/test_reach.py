"""src/ holds what some path reaches: every module-level function and class
method of src/delooper is entered by a documented path, or KEPT says why it
stays.

The paths are the ``delooper`` commands of README's "Command line" block,
the scripts at the arguments tests/test_scripts.py gives them (plus
``synthesis_roundtrip.py --strict-tie``) and ``scripts/build_corpus.py`` in a
temporary tree. Running this file as a script runs them all in one
interpreter under ``sys.setprofile`` and prints every code object of
src/delooper that was entered; the test starts it as a fresh subprocess, so
no ``functools.cache`` or ``cached_property`` filled by an earlier test can
hide a call.

Functions are matched to code objects by file, first line and name (Python
3.10 has no ``co_qualname``); a decorated function's code starts at its first
decorator. Dunder methods are exempt. perfbench/ is not a traced path: names
only it reaches are kept here for it.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src", "delooper")

# Why a name stays although no path reaches it: each reason starts with one of these.
REASONS = (
    "acceptance criterion",  # tests/test_acceptance.py calls it, directly or as named
    "test-facing",  # README: the one home of a construction that only tests (or library users) reach
    "perfbench",  # perfbench/workloads.py calls it or perfbench/tracer.py SPANS wraps it by name
    "error path",  # reached only on failing input, by the test named
    "export",  # of delooper/__init__.py
)

# name -> reason; a class covers its methods
KEPT = {
    "abelian.PresentedGroup.canon_vector": "perfbench: SPANS abelian.canon_vector",
    "abelian.PresentedGroup.elements": "perfbench: SPANS abelian.elements",
    "abelian.PresentedGroup.order": "acceptance criterion 4 bounds each target level's order",
    "delta_core.degenerate_subobject": "export",
    "delta_core.extension_counit": "test-facing: the counit of the free degeneracy extension",
    "generators.random_small_strict_object": "acceptance criterion 8 draws its objects",
    "intlin.Mat.is_zero": "acceptance criterion 8, through random_small_strict_object",
    "intlin.SmithSolver.contains_column": "acceptance criterion 8, through retract_complement",
    "moore.BisimplicialAbelianGroup.row": "test-facing: the rows that verify checks",
    "moore.BisimplicialAbelianGroup.verify": "test-facing: the one check of a grid's identities, "
    "which the tests of the bisab loader and of the grid generators read",
    "moore.chain_homology_factors": "acceptance criterion 7, the Eilenberg-Zilber side",
    "moore.double_moore_total_complex": "acceptance criterion 7; perfbench: SPANS moore.total_complex",
    "permutohedron.FaceLattice.vertices": "acceptance criterion 3",
    "permutohedron.PermutohedronFace.refines": "test-facing: face containment in P_k",
    "pi_algebra.Obstruction.recheck": "acceptance criterion 1, through reverify_obstruction",
    "pi_algebra.comonad_T": "export",
    "pi_algebra.counit_is_surjective": "test-facing: the counit of comonad_T is onto",
    "pi_algebra.indecomposables": "export",
    "pi_algebra.q_matrix": "acceptance criterion 8, through retract_complement",
    "pi_algebra.retract_complement": "acceptance criterion 8; export",
    "pi_algebra.reverify_obstruction": "acceptance criterion 1",
    "simplicial.FiniteSimplicialSet.identity": "acceptance criterion 4, through enumerate_pointed_maps",
    "simplicial.FiniteSimplicialSet.nondegenerate": "acceptance criterion 4; perfbench: workloads.py",
    "simplicial.SimplicialSetMap.is_valid": "acceptance criterion 4, through enumerate_pointed_maps",
    "simplicial.Violation.describe": "error path: test_delta_core.py::test_identity_violation_texts_pinned",
    "simplicial.enumerate_pointed_maps": "acceptance criterion 4 and 5; perfbench: workloads.py",
    "simplicial.word_text": "error path: test_delta_core.py::test_identity_violation_texts_pinned",
    "simplicial.zero_sphere": "export",
    "star.AbelianTarget.canon": "acceptance criterion 4; perfbench: SPANS star.target_canon",
    "star.AbelianTarget.generators": "error path: test_star.py::test_functoriality_rejects_non_multiplicative",
    "star.AbelianTarget.inv": "acceptance criterion 4, on the inverse letters of power_hom(F, -1)",
    "star.AbelianTarget.mul": "acceptance criterion 4, through is_strictly_multiplicative",
    "star.FiniteGroupLevel": "test-facing: a level of a nonabelian target, checked by Light's test",
    "star.FiniteGroupTarget": "test-facing: a nonabelian group target",
    "star._homomorphism_witness": "error path: test_star.py::test_functoriality_rejects_non_multiplicative",
    "star._presentation_holds": "acceptance criterion 4, through is_strictly_multiplicative",
    "star.check_functoriality": "acceptance criterion 4; perfbench: workloads.py; export",
    "star.codiscrete_target": "test-facing: the vertex-power target of a finite group",
    "star.conjugation_hom": "test-facing: a homomorphism of F(A) that is no induced map",
    "star.induced_hom": "acceptance criterion 4 and 5; perfbench: workloads.py",
    "star.is_strictly_multiplicative": "acceptance criterion 4; perfbench: SPANS star.multiplicative",
    "star.retraction_mbar": "export",
    "star.word_inv": "acceptance criterion 4, on the inverse letters of power_hom(F, -1)",
    "synthesis.SynthesisFailure.describe": "error path: test_cli.py::test_exit_code_contract, "
    "on synth_not_well_defined",
}


def readme_commands(readme):
    """The argv of each ``delooper`` command in README's "Command line" block."""
    text = readme.split("\n## Command line\n", 1)[1]
    block = text.split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "delooper", line
            commands.append(argv[1:])
    return commands


def script_runs():
    """(script, argv) of every script run: test_scripts.py's smoke runs and
    the strict-tie round trip. Run as a script, this file's directory is on
    sys.path."""
    from test_scripts import SMOKE_RUNS

    strict = ("synthesis_roundtrip.py", ["--seeds", "2", "--strict-tie"])
    return [(script, args) for script, args, _ in SMOKE_RUNS] + [strict]


def _run_script(path, argv):
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), (path, argv, exc.code)


def trace():
    """Every (file name, first line, name) of a code object of src/delooper
    that the paths enter."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from delooper import cli

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        commands = readme_commands(f.read())
    runs = script_runs()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.mkdir(os.path.join(tmp, "scripts"))
        corpus_script = shutil.copy(os.path.join(ROOT, "scripts", "build_corpus.py"), os.path.join(tmp, "scripts"))
        os.symlink(os.path.join(ROOT, "src"), os.path.join(tmp, "src"))
        sys.setprofile(profile)
        try:
            for argv in commands:
                cli.main(argv)
            for script, argv in runs:
                _run_script(os.path.join(ROOT, "scripts", script), argv)
            _run_script(corpus_script, [])
        finally:
            sys.setprofile(None)
    return {
        (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
        for c in entered
        if os.path.dirname(os.path.realpath(c.co_filename)) == SRC
    }


def defined():
    """(functions, classes): dotted name -> (file name, first line, name)
    for every module-level function and non-dunder class method of
    src/delooper, and dotted name -> its methods' dotted names for every
    class."""
    functions, classes = {}, {}

    def key(file, node):
        return file, min([node.lineno] + [d.lineno for d in node.decorator_list]), node.name

    for file in sorted(os.listdir(SRC)):
        if not file.endswith(".py"):
            continue
        module = file[:-3]
        with open(os.path.join(SRC, file), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = key(file, node)
            elif isinstance(node, ast.ClassDef):
                methods = classes[f"{module}.{node.name}"] = []
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or item.name.startswith("__") and item.name.endswith("__"):
                        continue
                    name = f"{module}.{node.name}.{item.name}"
                    assert name not in functions, f"{name} is defined twice"
                    functions[name] = key(file, item)
                    methods.append(name)
    return functions, classes


def unreached():
    """(every dotted name, every class, the names no path reaches), from one
    fresh traced subprocess."""
    r = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    entered = {tuple(e) for e in json.loads(r.stdout)}
    functions, classes = defined()
    return functions, classes, {name for name, key in functions.items() if key not in entered}


def test_kept_reasons_are_of_the_listed_kinds():
    assert [name for name, reason in KEPT.items() if not reason.startswith(REASONS)] == []


def test_src_holds_what_a_path_reaches():
    functions, classes, missed = unreached()
    covered = {m for name in KEPT for m in classes.get(name, [name])}
    assert sorted(missed - covered) == [], "unreached and not in KEPT"
    assert sorted(n for n in KEPT if n not in functions and n not in classes) == [], "in KEPT but not defined"
    assert sorted(n for n in KEPT if not missed & set(classes.get(n, [n]))) == [], "in KEPT but reached"


if __name__ == "__main__":
    json.dump(sorted(trace()), sys.stdout)
