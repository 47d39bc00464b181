import ast
import collections
import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(ROOT, "corpus")


def run(*args):
    r = subprocess.run(
        [sys.executable, "-m", "delooper.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return r.returncode, r.stdout


def corpus(name):
    return os.path.join(CORPUS, name)


def star_check(**files):
    """star-check argv on the corpus files, with some replaced."""
    paths = {
        "f": "corpus/star_f.freehom.json",
        "g": "corpus/star_g.freehom.json",
        "h": "corpus/star_h.targetmap.json",
        "target": "corpus/star_target.dsab.json",
        **files,
    }
    return ("star-check", *itertools.chain.from_iterable((f"--{k}", v) for k, v in paths.items()))


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
        (star_check(), 0),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json"), 0),
        (("e2", "corpus/resolution.bisab.json"), 0),
        (("perm", "enum", "9"), 2),
        (("perm", "label", "garbage"), 2),
        (("verify", "corpus/does_not_exist.json"), 2),
        (("deloop", "corpus/s1.sset.json"), 2),
        # a file of a kind the subcommand does not read is an input error
        (("e2", "corpus/zs1.dsab.json"), 2),
        (("moore", "corpus/s1.sset.json"), 2),
        (("extend", "corpus/s1.sset.json"), 2),
        (("match", "corpus/s1.sset.json", "-n", "1"), 2),
        (("reedy", "corpus/s1.sset.json"), 2),
        (("synthesize", "--input", "corpus/s1.sset.json", "--hdeg", "corpus/fibrant.hdeg.json"), 2),
        (("moore", "corpus/resolution.bisab.json"), 2),
        (("verify", "corpus/resolution.bisab.json"), 2),
        (("--cap", "-1", "moore", "corpus/zs1.dsab.json"), 2),
        # a JSON file whose top level is not an object is an input error
        (("verify", "tests/data/top_level_list.json"), 2),
        (("deloop", "tests/data/top_level_list.json"), 2),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "tests/data/top_level_list.json"), 2),
        (("--table", "tests/data/top_level_list.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        # --window takes two degrees; moore's lo must not exceed hi, e2's pair is unordered
        (("--window", "3,1", "moore", "corpus/zs1.dsab.json"), 2),
        (("--window=0,-1", "moore", "corpus/zs1.dsab.json"), 2),
        (("--window=0,-1", "e2", "corpus/resolution.bisab.json"), 2),
        (("--window", "1", "moore", "corpus/zs1.dsab.json"), 2),
        (("--window", "1,0", "e2", "corpus/resolution.bisab.json"), 0),
        # a level key or level list outside the file's cap is an input error
        (("verify", "tests/data/dsab_face_past_cap.json"), 2),
        (("verify", "tests/data/dsab_degeneracy_past_cap.json"), 2),
        (("verify", "tests/data/dsab_short_levels.json"), 2),
        (("verify", "tests/data/sset_face_past_cap.json"), 2),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "tests/data/hdeg_key_past_cap.json"), 2),
        (("e2", "tests/data/bisab_key_past_cap.json"), 2),
        # a star-check table with too few levels, a missing or an unknown
        # simplex, or a source past the target's cap is an input error
        (star_check(f="tests/data/freehom_short_tables.json"), 2),
        (star_check(h="tests/data/targetmap_short_tables.json"), 2),
        (star_check(h="tests/data/targetmap_missing_simplex.json"), 2),
        (star_check(h="tests/data/targetmap_unknown_simplex.json"), 2),
        (star_check(target="tests/data/star_target_cap2.dsab.json"), 2),
        # a star-check table, level or entry of the wrong JSON type is an input error
        (star_check(h="tests/data/targetmap_level_list.json"), 2),
        (star_check(h="tests/data/targetmap_vector_int.json"), 2),
        (star_check(f="tests/data/freehom_word_int.json"), 2),
        (star_check(h="tests/data/targetmap_tables_int.json"), 2),
        # a global flag the subcommand does not read is a usage error
        (("--cap", "1", *star_check()), 2),
        (("--cap", "1", "synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json"), 2),
        (("--window", "0,1", "verify", "corpus/zs1.dsab.json"), 2),
        (("--cap", "1", "e2", "corpus/resolution.bisab.json"), 2),
        (("--window", "0,1", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "src/delooper/data/spheres.json", "moore", "corpus/zs1.dsab.json"), 2),
        (("--cap", "2", "perm", "enum", "2"), 2),
        (("--cap", "2", "--window", "0,1", "moore", "corpus/zs1.dsab.json"), 0),
        (("--cap", "1", "extend", "corpus/zs1.dsab.json"), 0),
        (("--cap", "1", "reedy", "corpus/fibrant.dsab.json"), 0),
        (("--cap", "1", "match", "corpus/zs1.dsab.json", "-n", "1"), 0),
        (("--table", "src/delooper/data/spheres.json", "deloop", "corpus/loop_s3.pialg.json"), 0),
        (("--seed", "3", *star_check()), 0),
        # a JSON number that is not an integer, a bool or a numeric string
        # where an integer belongs is an input error, as is an exponent
        # other than 1 or -1
        (("moore", "tests/data/dsab_float_entry.json"), 2),
        (("moore", "tests/data/dsab_string_entry.json"), 2),
        (("moore", "tests/data/dsab_bool_entry.json"), 2),
        (star_check(h="tests/data/targetmap_vector_float.json"), 2),
        (star_check(h="tests/data/targetmap_vector_string.json"), 2),
        (star_check(f="tests/data/freehom_exponent_two.json"), 2),
        (star_check(g="tests/data/freehom_exponent_two.json"), 2),
        (star_check(f="tests/data/freehom_exponent_bool.json"), 2),
        # a homomorphism table listing a key that is not a generator of its source
        (star_check(f="tests/data/freehom_unknown_simplex.json"), 2),
        # a sphere table entry of the wrong JSON type is an input error
        (("--table", "tests/data/table_factors_float.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_factors_int.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_gens_int.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_suspension_float.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_suspension_int.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_row_list.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_span_string.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        # an object file, a fragment file or a star-check source of the
        # wrong JSON type is an input error, as are a directory given as an
        # input file, a simplex named by anything but a string and a
        # negative generator count
        (("verify", "tests/data/sset_faces_list.json"), 2),
        (("verify", "tests/data/sset_degeneracies_int.json"), 2),
        (("verify", "tests/data/dsab_faces_null.json"), 2),
        (star_check(f="tests/data/freehom_src_list.json"), 2),
        (star_check(h="tests/data/targetmap_src_bool.json"), 2),
        (("deloop", "tests/data/pialg_groups_list.json"), 2),
        (("deloop", "tests/data/pialg_whitehead_int.json"), 2),
        (("deloop", "tests/data/pialg_theta_list.json"), 2),
        (("verify", "corpus"), 2),
        (("verify", "tests/data/sset_element_null.json"), 2),
        (("moore", "tests/data/dsab_negative_gens.json"), 2),
        # a level or degree key other than the decimal digits of its
        # integer, or a "p,q" key without exactly one comma
        (("verify", "tests/data/dsab_key_underscore.json"), 2),
        (("verify", "tests/data/dsab_key_plus.json"), 2),
        (("verify", "tests/data/sset_key_space.json"), 2),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "tests/data/hdeg_key_leading_zero.json"), 2),
        (("e2", "tests/data/bisab_key_plus.json"), 2),
        (("e2", "tests/data/bisab_key_three_levels.json"), 2),
        (("deloop", "tests/data/pialg_degree_key_plus.json"), 2),
        # an action value longer than its target group has generators
        (("deloop", "tests/data/pialg_action_long.json"), 2),
        # a sphere table degree key other than str(n), a Whitehead value of
        # the wrong length or one in a row the table does not carry
        (("--table", "tests/data/table_degree_key_plus.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_degree_key_word.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_row_key_leading_zero.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_whitehead_long.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_whitehead_empty.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_whitehead_off_table.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        (("--table", "tests/data/table_composition_off_table.json", "deloop", "corpus/loop_s3.pialg.json"), 2),
        # an sset face or degeneracy row with more images than its level has
        # elements, or a basepoint other than "*"
        (("verify", "tests/data/sset_face_row_long.json"), 2),
        (("verify", "tests/data/sset_degeneracy_row_long.json"), 2),
        (("verify", "tests/data/sset_basepoint_foreign.json"), 2),
        # an sset with one face image changed breaks one identity instance
        (("verify", "tests/data/sset_one_violation.json"), 1),
        # a star-check target without degeneracies, or of another kind
        (star_check(target="corpus/fibrant.dsab.json"), 2),
        (star_check(target="corpus/s1.sset.json"), 2),
        # a fragment entry of the wrong JSON type
        (("deloop", "tests/data/pialg_action_degree_string.json"), 2),
        (("deloop", "tests/data/pialg_factors_string.json"), 2),
        # the bisimplicial corpus file with nonzero levels
        (("e2", "corpus/s1xs1.bisab.json"), 0),
        # levels Z/2 and Z + Z/2, faces (1, 0) and (0, 1): the candidate
        # s_0 = (1, 1) meets both face equations but sends the relation 2 to
        # (2, 2), no relation of level 1, and no s_0 meets all three, so
        # synthesis is obstructed (not an object that verify refuses)
        (("synthesize", "--input", "tests/data/synth_not_well_defined.dsab.json",
          "--hdeg", "tests/data/synth_not_well_defined.hdeg.json"), 1),
        # suspension constraints that each admit a homomorphism and jointly do not
        (("deloop", "tests/data/pialg_joint_obstruction.json"), 1),
    ],
)
def test_exit_code_contract(args, expected):
    rc, out = run(*args)
    assert rc == expected, out


@pytest.mark.parametrize(
    "argv,report",
    [
        (("match", "corpus/zs1.dsab.json", "-n", "7"),
         '{"command": "match", "verdict": "input-error", "error": "matching object needs 1 <= n <= cap, got 7"}'),
        (("perm", "enum", "-1"), '{"command": "perm", "verdict": "input-error", "error": "k must be nonnegative"}'),
        (("perm", "enum", "x"),
         '{"command": "perm", "verdict": "input-error", "error": "invalid literal for int() with base 10: \'x\'"}'),
        (("perm", "label", "0:"),
         '{"command": "perm", "verdict": "input-error", "error": "labeling needs a word of length at least 2"}'),
        (("perm", "schema", "1:0"),
         '{"command": "perm", "verdict": "input-error", "error": "no higher operation for a word of length < 2"}'),
        (("simplex", "index", "-1"), '{"command": "simplex", "verdict": "input-error", "error": "n must be nonnegative"}'),
        (("simplex", "index", "x"),
         '{"command": "simplex", "verdict": "input-error", "error": "invalid literal for int() with base 10: \'x\'"}'),
        (("--window", "5,5", "e2", "corpus/s1xs1.bisab.json"),
         '{"command": "e2", "verdict": "input-error", "error": "window exceeds the reliable range of the caps"}'),
        (("--window", "0,9", "moore", "corpus/zs1.dsab.json"),
         '{"command": "moore", "verdict": "input-error", "error": "degrees [3, 4, 5, 6, 7, 8, 9] exceed the reliable '
         'range (cap 3 supports < 3)"}'),
    ],
)
def test_argument_out_of_range_report_pinned(argv, report, capsys, monkeypatch):
    """An argument that argv hands straight to the library, out of its range
    or not an integer, exits 2 with this input-error report byte for byte."""
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().out == report + "\n"


@pytest.mark.parametrize("error", [KeyError("boom"), ValueError("boom")])
def test_internal_error_is_not_an_input_error(error, capsys, monkeypatch):
    """An exception other than InputError that a command raises on good
    input is a bug: exit 3, verdict internal-error, its type and text in
    the report and its traceback on stderr."""
    from delooper import cli

    def broken(X):
        raise error

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "verify_identities", broken)
    assert cli.main(["verify", "corpus/zs1.dsab.json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"command": "verify", "verdict": "internal-error", "error": repr(error)}
    assert captured.err.startswith("Traceback") and "in broken" in captured.err


def test_handler_input_errors_share_the_input_error_report(tmp_path, capsys):
    """An input error that a command finds only once its files are loaded (an
    empty degree window, a fragment with a nonzero Whitehead value, an object
    whose comparison maps are not onto) prints the one input-error report."""
    from delooper import cli, schemas
    from delooper.synthesis import HomotopyDegeneracyData

    fragment = schemas.load(corpus("loop_s3.pialg.json"))
    fragment["whitehead"] = [{"left": [2, "x"], "right": [2, "x"], "value": [1]}]
    schemas.save(str(tmp_path / "whitehead.pialg.json"), fragment)
    zs1 = schemas.dsab_from_json(schemas.load(corpus("zs1.dsab.json")))
    hdeg = HomotopyDegeneracyData.from_simplicial(zs1)
    schemas.save(str(tmp_path / "zs1.hdeg.json"), schemas.hdeg_to_json(hdeg, zs1))
    for argv, command, error in [
        (("--window", "3,1", "moore", corpus("zs1.dsab.json")), "moore", "empty degree window 3,1: lo exceeds hi"),
        (("deloop", str(tmp_path / "whitehead.pialg.json")), "deloop",
         "recorded Whitehead values must vanish before delooping"),
        (("synthesize", "--input", corpus("zs1.dsab.json"), "--hdeg", str(tmp_path / "zs1.hdeg.json")), "synthesize",
         "comparison map not surjective at degrees [2]"),
    ]:
        assert cli.main(list(argv)) == 2, argv
        assert json.loads(capsys.readouterr().out) == {"command": command, "verdict": "input-error", "error": error}


@pytest.mark.parametrize(
    "args,message",
    [
        (("verify", "tests/data/dsab_key_underscore.json"), "faces key '0_1': a key must be the decimal digits"),
        (("verify", "tests/data/dsab_key_plus.json"), "faces key '+1': a key must be the decimal digits"),
        (("verify", "tests/data/sset_key_space.json"), "degeneracies key ' 0': a key must be the decimal digits"),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "tests/data/hdeg_key_leading_zero.json"),
         "maps key '00': a key must be the decimal digits"),
        (("e2", "tests/data/bisab_key_plus.json"), "h_faces key '1,+0': a key must be the decimal digits"),
        (("e2", "tests/data/bisab_key_three_levels.json"), "h_faces key '1,0,0': expected a key \"p,q\" of two levels"),
        (("deloop", "tests/data/pialg_degree_key_plus.json"), "groups key '+2': a key must be the decimal digits"),
    ],
)
def test_level_key_must_be_its_digits(args, message, capsys, monkeypatch):
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(list(args)) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "input-error"
    assert message in rep["error"]


@pytest.mark.parametrize(
    "files,message",
    [
        ({"f": "tests/data/freehom_short_tables.json"}, "expected 4 entries for cap 3, found 3"),
        ({"h": "tests/data/targetmap_short_tables.json"}, "expected 4 entries for cap 3, found 3"),
        ({"h": "tests/data/targetmap_missing_simplex.json"}, "level 1 does not list simplex 'x01'"),
        ({"h": "tests/data/targetmap_unknown_simplex.json"}, "level 2 lists 'x012', not a simplex of the source"),
        ({"target": "tests/data/star_target_cap2.dsab.json"}, "source cap 3 exceeds the target's cap 2"),
        ({"h": "tests/data/targetmap_level_list.json"}, "level 0 must be an object keyed by simplex, found []"),
        ({"h": "tests/data/targetmap_vector_int.json"}, "level 1, simplex 'x01': expected a list of integers, found 1"),
        ({"f": "tests/data/freehom_word_int.json"}, "level 1, simplex 'x01': expected a list of [generator, exponent]"),
        ({"h": "tests/data/targetmap_tables_int.json"}, "tables: expected a list of 4 entries for cap 3, found 3"),
        ({"h": "tests/data/targetmap_vector_length.json"},
         "targetmap_vector_length.json: level 1, simplex 'x01': expected a vector of length 1, found [1, 2]"),
        ({"h": "tests/data/targetmap_vector_float.json"}, "level 1, simplex 'x01': expected a list of integers, found [1.9]"),
        ({"h": "tests/data/targetmap_vector_string.json"}, "level 1, simplex 'x01': expected a list of integers"),
        ({"f": "tests/data/freehom_unknown_generator.json"},
         "freehom_unknown_generator.json: level 1, simplex 'x01': 'nope' is not a generator of level 1"),
        ({"f": "tests/data/freehom_exponent_two.json"}, "level 1, simplex 'x01': expected a list of [generator, exponent]"),
        ({"f": "tests/data/freehom_exponent_bool.json"}, "each exponent 1 or -1, found [['x01', True]]"),
        ({"f": "tests/data/freehom_dst_cap2.json"}, "freehom_dst_cap2.json: target cap 2 is below the source cap 3"),
        ({"f": "tests/data/freehom_unknown_simplex.json"}, "level 1 lists 'bogus', not a generator of the source"),
        ({"target": "corpus/fibrant.dsab.json"},
         "corpus/fibrant.dsab.json: star-check target must be a simplicial abelian group file "
         "(kind 'dsab' with degeneracies); it has no degeneracies"),
        ({"target": "corpus/s1.sset.json"},
         "corpus/s1.sset.json: star-check target must be a simplicial abelian group file "
         "(kind 'dsab' with degeneracies); it is not of kind 'dsab'"),
    ],
)
def test_star_check_names_the_bad_table_entry(files, message, capsys, monkeypatch):
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(list(star_check(**files))) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "input-error"
    assert message in rep["error"]


@pytest.mark.parametrize(
    "name,message",
    [
        ("table_factors_float", "groups.2.2.factors: expected a list of integers, found [0.0]"),
        ("table_factors_int", "groups.2.2.factors: expected a list of integers, found 5"),
        ("table_gens_int", "groups.2.2.gens: expected a list of generator names, found 7"),
        ("table_suspension_float", "suspensions[0].value: expected a list of integers, found [1.0]"),
        ("table_suspension_int", "suspensions[0].value: expected a list of integers, found 3"),
        ("table_row_list", "groups.2.2: expected an object, found [[0], ['i2']]"),
        ("table_span_string", "span.n_min: expected an integer, found '1'"),
        ("table_degree_key_plus", "groups.+2: a key must be the decimal digits of the integer it names"),
        ("table_degree_key_word", "groups.two: a key must be the decimal digits of the integer it names"),
        ("table_row_key_leading_zero", "groups.2.04: a key must be the decimal digits of the integer it names"),
        ("table_whitehead_long", "Whitehead product (i2, i2) value has wrong length"),
        ("table_whitehead_empty", "Whitehead product (i2, i2) value has wrong length"),
        ("table_whitehead_off_table", "Whitehead product (i7, i7) lands in pi_13 S^7, outside the table"),
        ("table_composition_off_table", "composition (ee5, nu7) lands in pi_10 S^5, outside the table"),
    ],
)
def test_sphere_table_names_the_bad_entry(name, message, capsys, monkeypatch):
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(["--table", f"tests/data/{name}.json", "deloop", "corpus/loop_s3.pialg.json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "input-error"
    assert message in rep["error"]


def _json_slots(x, path=()):
    """The path of every integer and every list in a JSON value."""
    if type(x) is dict:
        for key, value in x.items():
            yield from _json_slots(value, (*path, key))
    elif type(x) is list:
        yield path
        for i, value in enumerate(x):
            yield from _json_slots(value, (*path, i))
    elif type(x) is int:
        yield path


with open(os.path.join(ROOT, "src", "delooper", "data", "spheres.json"), encoding="utf-8") as fh:
    DEFAULT_TABLE = json.load(fh)
TABLE_SLOTS = list(_json_slots(DEFAULT_TABLE))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sphere_table_of_a_wrong_type_is_an_input_error(data):
    """One integer of the bundled sphere table swapped for a float, a string,
    a bool, null or a list, or one list swapped for an integer or an object:
    deloop with that --table exits 2 with an input-error report, and no
    exception leaves main."""
    from delooper import cli

    path = data.draw(st.sampled_from(TABLE_SLOTS))
    table = copy.deepcopy(DEFAULT_TABLE)
    *parents, last = path
    holder = functools.reduce(operator.getitem, parents, table)
    old = holder[last]
    if type(old) is int:
        wrong = data.draw(st.sampled_from([old + 0.5, float(old), str(old), old != 0, None, [old]]))
    else:
        wrong = data.draw(st.sampled_from([len(old), {}, {"0": old}]))
    holder[last] = wrong
    with tempfile.TemporaryDirectory() as tmp:
        table_path = os.path.join(tmp, "table.json")
        with open(table_path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--table", table_path, "deloop", corpus("loop_s3.pialg.json")])
    assert code == 2, (path, wrong, out.getvalue())
    assert json.loads(out.getvalue())["verdict"] == "input-error"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "tests/data/sset_faces_list.json"), "sset_faces_list.json: faces: expected an object, found []"),
        (("verify", "tests/data/sset_degeneracies_int.json"),
         "sset_degeneracies_int.json: degeneracies key '1': expected a list of rows, found 7"),
        (("verify", "tests/data/dsab_faces_null.json"), "dsab_faces_null.json: faces: expected an object, found None"),
        (("verify", "tests/data/sset_element_null.json"), "sset_element_null.json: elements[1]: expected a name, found None"),
        (("moore", "tests/data/dsab_negative_gens.json"),
         "dsab_negative_gens.json: levels[0]: gens: expected a generator count, found -1"),
        (star_check(f="tests/data/freehom_src_list.json"), "freehom_src_list.json: src: expected a file name, found ["),
        (star_check(h="tests/data/targetmap_src_bool.json"), "targetmap_src_bool.json: src: expected a file name, found True"),
        (("deloop", "tests/data/pialg_groups_list.json"), "pialg_groups_list.json: groups: expected an object, found []"),
        (("deloop", "tests/data/pialg_whitehead_int.json"),
         "pialg_whitehead_int.json: whitehead[0]: left: expected [degree, generator], found 2"),
        (("deloop", "tests/data/pialg_theta_list.json"), "pialg_theta_list.json: action[1]: theta: expected a name, found ['e3']"),
        # a missing key, in each format
        (("verify", "tests/data/sset_no_elements.json"), "sset_no_elements.json: elements: missing"),
        (("verify", "tests/data/dsab_no_cap.json"), "dsab_no_cap.json: cap: missing"),
        (("e2", "tests/data/bisab_no_face_key.json"), "bisab_no_face_key.json: h_faces key '1,0': missing"),
        (("deloop", "tests/data/pialg_action_no_theta.json"), "pialg_action_no_theta.json: action[0]: theta: missing"),
        (("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "tests/data/hdeg_no_maps.json"),
         "hdeg_no_maps.json: maps: missing"),
        (star_check(f="tests/data/freehom_no_dst.json"), "freehom_no_dst.json: dst: missing"),
        (star_check(h="tests/data/targetmap_no_tables.json"), "targetmap_no_tables.json: tables: missing"),
        # an sset row of the wrong length, and a foreign basepoint
        (("verify", "tests/data/sset_face_row_long.json"),
         "sset_face_row_long.json: faces key '1'[0]: expected 2 images, one per element of level 1, found 4"),
        (("verify", "tests/data/sset_degeneracy_row_long.json"),
         "sset_degeneracy_row_long.json: degeneracies key '1'[0]: expected 2 images, one per element of level 1, "
         "found 3"),
        (("verify", "tests/data/sset_basepoint_foreign.json"),
         "sset_basepoint_foreign.json: basepoint: expected '*', found 'x01'"),
        # a degree window of other than two degrees
        (("deloop", "tests/data/pialg_degrees_three.json"),
         "pialg_degrees_three.json: degrees: expected [lowest, highest], found [2, 3, 5]"),
        # well-typed files whose objects lack a face map
        (("verify", "tests/data/dsab_faces_short.json"),
         "tests/data/dsab_faces_short.json: need 2 face matrices at dimension 1"),
        (("verify", "tests/data/sset_faces_short.json"), "tests/data/sset_faces_short.json: need 3 face maps at dimension 2"),
        # a fragment or matrix entry of the wrong JSON type, named by its full path
        (("deloop", "tests/data/pialg_action_degree_string.json"),
         "pialg_action_degree_string.json: action[2]: degree: expected an integer, found 'x'"),
        (("deloop", "tests/data/pialg_action_value_float.json"),
         "pialg_action_value_float.json: action[4]: value: expected a list of integers, found [6.0]"),
        (("deloop", "tests/data/pialg_whitehead_value_string.json"),
         "pialg_whitehead_value_string.json: whitehead[0]: value: expected a list of integers, found '0'"),
        (("deloop", "tests/data/pialg_factors_string.json"),
         "pialg_factors_string.json: groups key '3': factors: expected a list of integers, found '2'"),
        (("deloop", "tests/data/pialg_gens_name_int.json"),
         "pialg_gens_name_int.json: groups key '4': gens: expected a name, found 7"),
        (("moore", "tests/data/dsab_float_entry.json"),
         "dsab_float_entry.json: faces key '2'[1][0]: expected a list of integers, found [1.9, 1]"),
        # a file that is not UTF-8 JSON text, as an object file or a sphere table
        (("verify", "tests/data/not_json.json"), "not_json.json: Expecting property name enclosed in double quotes"),
        (("--table", "tests/data/not_utf8.json", "deloop", "corpus/loop_s3.pialg.json"),
         "not_utf8.json: 'utf-8' codec can't decode byte 0xff"),
        # corpus/resolution.bisab.json with the last matrix of h_faces "2,0" dropped
        (("e2", "tests/data/bisab_h_faces_short.json"),
         "tests/data/bisab_h_faces_short.json: h_faces key '2,0': expected 3 matrices, found 2"),
        # corpus/star_target.dsab.json with the relation Z/4 of level 2 made Z/2,
        # which d_0 at level 2 sends to a nonzero element of level 1
        (("verify", "tests/data/dsab_relation_not_respected.json"),
         "tests/data/dsab_relation_not_respected.json: faces key '2'[0]: not well defined: "
         "it sends a relation of level 2 to a nonzero element of level 1"),
        (star_check(target="tests/data/dsab_relation_not_respected.json"),
         "tests/data/dsab_relation_not_respected.json: faces key '2'[0]: not well defined: "
         "it sends a relation of level 2 to a nonzero element of level 1"),
        # corpus/s1xs1.bisab.json with level (1, 1) made Z/2, which the
        # degeneracies out of it send to a nonzero element of level (2, 1)
        (("e2", "tests/data/bisab_relation_not_respected.json"),
         "tests/data/bisab_relation_not_respected.json: h_degeneracies key '1,1'[0]: not well defined: "
         "it sends a relation of level 1,1 to a nonzero element of level 2,1"),
    ],
)
def test_wrongly_typed_object_file_names_the_file_and_key(argv, message, capsys, monkeypatch):
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(list(argv)) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "input-error"
    assert message in rep["error"]


def _json_type(x):
    return {bool: "bool", int: "int", float: "float", type(None): "null", str: "string", list: "list", dict: "object"}[type(x)]


def _json_nodes(x, path=()):
    """The path of every node of a JSON value, the root included."""
    yield path
    if type(x) is dict:
        for key, value in x.items():
            yield from _json_nodes(value, (*path, key))
    elif type(x) is list:
        for i, value in enumerate(x):
            yield from _json_nodes(value, (*path, i))


# a few values of each JSON type, some of them the shapes the star files use
JSON_VALUES = {
    "int": st.integers(-2, 4),
    "float": st.sampled_from([0.5, 1.0, -2.0]),
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.sampled_from(["", "*", "x01", "s1.sset.json"]),
    "list": st.sampled_from([[], [0], [1, 0], [["x01", 1]], [[0]], [{}]]),
    "object": st.sampled_from([{}, {"0": []}, {"1": [[0]]}, {"x01": [0]}]),
}
STAR_FILES = ("star_f.freehom.json", "star_g.freehom.json", "star_h.targetmap.json", "star_target.dsab.json",
              "s1.sset.json")
# the verdicts each command may report with each exit code
VERDICTS = {
    "star-check": {0: ("holds",), 1: ("fails",), 2: ("input-error",)},
    "verify": {0: ("consistent",), 1: ("violations",), 2: ("input-error",)},
    "deloop": {0: ("delooped",), 1: ("obstruction",), 2: ("input-error", "invalid-fragment")},
    "e2": {0: ("computed",), 2: ("input-error",)},
    "synthesize": {0: ("synthesized",), 1: ("obstructed",), 2: ("input-error",)},
    "moore": {0: ("computed",), 2: ("input-error",)},
}


@functools.cache
def _corpus_json(name):
    with open(corpus(name), encoding="utf-8") as fh:
        return json.load(fh)


def _mutated(data, name):
    """The corpus file name with one node, drawn from data, swapped for a
    value of another JSON type; returns the document, the path of the node
    and the new value."""
    doc = copy.deepcopy(_corpus_json(name))
    path = data.draw(st.sampled_from(list(_json_nodes(doc))))
    old = functools.reduce(operator.getitem, path, doc)
    wrong = data.draw(st.sampled_from([t for t in JSON_VALUES if t != _json_type(old)]).flatmap(JSON_VALUES.get))
    if not path:
        return wrong, path, wrong
    *parents, last = path
    functools.reduce(operator.getitem, parents, doc)[last] = wrong
    return doc, path, wrong


def _check_runs(runs, path, wrong):
    """Each argv exits 0, 1 or 2 through cli.main, with a JSON report whose
    verdict is one its command gives with that code."""
    from delooper import cli

    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        verdicts = VERDICTS[argv[0]]
        assert code in verdicts, (path, wrong, argv[0], code)
        assert json.loads(out.getvalue())["verdict"] in verdicts[code], (path, wrong, argv[0], out.getvalue())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_star_check_and_object_files_of_a_wrong_type(data):
    """One node of a star-check file or of its source or target object file
    swapped for a value of another JSON type: star-check, and verify on an
    object file, exit 0, 1 or 2 with a report whose verdict matches the
    code, and no exception leaves main."""
    name = data.draw(st.sampled_from(["star_h.targetmap.json", "star_f.freehom.json", "s1.sset.json",
                                      "star_target.dsab.json"]))
    doc, path, wrong = _mutated(data, name)
    with tempfile.TemporaryDirectory() as tmp:
        for other in STAR_FILES:
            shutil.copy(corpus(other), tmp)
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        files = {key: os.path.join(tmp, other) for key, other in zip(("f", "g", "h", "target"), STAR_FILES)}
        runs = [star_check(**files)]
        if name.endswith((".sset.json", ".dsab.json")):
            runs.append(("verify", os.path.join(tmp, name)))
        _check_runs(runs, path, wrong)


# (file, section, index) of every action and Whitehead value of the corpus fragments
FRAGMENT_VALUES = [
    (name, section, i)
    for name in ("eta_chain.pialg.json", "loop_s3.pialg.json")
    for section in ("action", "whitehead")
    for i in range(len(_corpus_json(name)[section]))
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fragment_value_of_a_wrong_length_is_invalid(data):
    """One action or Whitehead value of a corpus fragment lengthened or
    shortened: deloop exits 2 with an invalid-fragment report, and no
    exception leaves main."""
    from delooper import cli

    name, section, i = data.draw(st.sampled_from(FRAGMENT_VALUES))
    doc = copy.deepcopy(_corpus_json(name))
    value = doc[section][i]["value"]
    if value and data.draw(st.booleans()):
        del value[data.draw(st.integers(0, len(value) - 1))]
    else:
        value += data.draw(st.lists(st.integers(-2, 13), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["deloop", path])
    assert code == 2, (name, section, i, value, out.getvalue())
    assert json.loads(out.getvalue())["verdict"] == "invalid-fragment"


# the other loaders, each with a command that reads its file
LOADER_COMMANDS = {
    "loop_s3.pialg.json": lambda p: ("deloop", p),
    "resolution.bisab.json": lambda p: ("e2", p),
    "fibrant.hdeg.json": lambda p: ("synthesize", "--input", corpus("fibrant.dsab.json"), "--hdeg", p),
    "zs1.dsab.json": lambda p: ("moore", p),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_fragment_grid_and_hdeg_files_of_a_wrong_type(data):
    """The same swap on a fragment, a bisimplicial grid, a degeneracy
    candidate file or a dsab file, run through deloop, e2, synthesize or
    moore: exit 0, 1 or 2 with a matching verdict, and no exception leaves
    main."""
    name = data.draw(st.sampled_from(sorted(LOADER_COMMANDS)))
    doc, path, wrong = _mutated(data, name)
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, name)
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _check_runs([LOADER_COMMANDS[name](file)], path, wrong)


def _json_keys(x, path=()):
    """The path of every key of every object in a JSON value."""
    if type(x) is dict:
        for key, value in x.items():
            yield (*path, key)
            yield from _json_keys(value, (*path, key))
    elif type(x) is list:
        for i, value in enumerate(x):
            yield from _json_keys(value, (*path, i))


# (file, key path) of every key of the corpus files the fuzzers read and of the bundled table
KEY_PATHS = [(name, path) for name in ("star_h.targetmap.json", "star_f.freehom.json", "s1.sset.json",
                                       "star_target.dsab.json", *sorted(LOADER_COMMANDS))
             for path in _json_keys(_corpus_json(name))]
KEY_PATHS += [("spheres.json", path) for path in _json_keys(DEFAULT_TABLE)]
# the text of a KeyError that escaped a loader: a quoted key or a tuple of levels
BARE_KEY = re.compile(r"'[^']*'|\(\d+(, \d+)*\)")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(KEY_PATHS))
def test_input_file_missing_a_key(name_path):
    """One key deleted anywhere in a corpus object file, a star-check file
    or the bundled sphere table: the command that reads the file exits 0, 1
    or 2 with a report whose verdict matches the code, and an error names
    more than the deleted key."""
    from delooper import cli

    name, path = name_path
    doc = copy.deepcopy(DEFAULT_TABLE if name == "spheres.json" else _corpus_json(name))
    *parents, last = path
    del functools.reduce(operator.getitem, parents, doc)[last]
    with tempfile.TemporaryDirectory() as tmp:
        for other in STAR_FILES:
            shutil.copy(corpus(other), tmp)
        file = os.path.join(tmp, name)
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if name == "spheres.json":
            runs = [("--table", file, "deloop", corpus("loop_s3.pialg.json"))]
        elif name in LOADER_COMMANDS:
            runs = [LOADER_COMMANDS[name](file)]
        else:
            files = {key: os.path.join(tmp, other) for key, other in zip(("f", "g", "h", "target"), STAR_FILES)}
            runs = [star_check(**files)]
            if name.endswith((".sset.json", ".dsab.json")):
                runs.append(("verify", file))
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            report = json.loads(out.getvalue())
            verdicts = VERDICTS["deloop" if argv[0] == "--table" else argv[0]]
            assert code in verdicts and report["verdict"] in verdicts[code], (path, argv[0], out.getvalue())
            assert not BARE_KEY.fullmatch(report.get("error", "")), (path, argv[0], out.getvalue())


def test_ignored_global_flag_names_the_subcommand_and_flags(capsys):
    from delooper import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["--cap", "1", "--table", "t.json", "e2", "corpus/resolution.bisab.json"])
    assert exc.value.code == 2
    assert "e2 does not read --cap, --table" in capsys.readouterr().err


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
    "argv,code,digest",
    [
        (("verify", "corpus/zs1.dsab.json"), 0, "5eef5ab5765388c3de4dee920e9c81208354b739b292e870e623f00272483580"),
        (("moore", "corpus/zs1.dsab.json"), 0, "b92abf97479ca69cd0adbf406ac93677bc77bc7d1611d96fca5d49e80d28ed19"),
        (
            ("--window", "0,1", "moore", "corpus/zs1.dsab.json"),
            0,
            "375277ea1093916e7ede7156ba500f5759a3fcc73b1032b6bf50729c6f5a1f37",
        ),
        (("match", "corpus/zs1.dsab.json", "-n", "1"), 0, "0949d345e8fa0b99aad70b4ae5003fd01ba65ff679e68f96b7b0ccad6ccf7435"),
        (("reedy", "corpus/fibrant.dsab.json"), 0, "3bbbc10e1bf97f32ff971f54211383645d7dcdda6256d80ecc0afb104d9bfcea"),
        (("extend", "corpus/zs1.dsab.json"), 0, "b8929bf687dec807560c7d65e6edd408c5d409310b1a95d9b29dbba87e60a3f8"),
        (("perm", "enum", "2"), 0, "c424b569ae6b34a7b5ff212cbd55077ad7493e55617a2a089ba2c8c24bec4c59"),
        (("perm", "label", "3:0,0,0"), 0, "429484431ef67d9da84fc30985dd737a613191f8fada94215e803429927c7768"),
        (("perm", "schema", "3:0,0,0"), 0, "f21ba9a6ddca304c160756a4a7c628943ae0d81e1173209e8e070cb167163170"),
        (("simplex", "index", "2"), 0, "9b3fd3cde46e57d9e22de1837f7a966e6866b281cf6fa857bf13186a636b534d"),
        (("deloop", "corpus/eta_chain.pialg.json"), 1, "38bf5144b4b0e9ddea4fab71119ebefbc51947e1c0ea18cffe5fca6b2d480269"),
        (("deloop", "corpus/loop_s3.pialg.json"), 0, "dca7b26ea591140a1cba962714a295d96c946776806ed2c85c60d06a5542c7da"),
        (star_check(), 0, "5a0d2d994ddb877bbc4465dd0ffdff370bf872aa56a022b1caff61e2337a8004"),
        (
            ("synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json"),
            0,
            "0d525a26a3facdb846fe1abd464d630176989a7e34b6e79609a6bbd828ece6ef",
        ),
        (("e2", "corpus/resolution.bisab.json"), 0, "396ff9859038d55813b7ec3b848b3b188ac87c00322d324cd5326cd57763282d"),
        (
            ("--seed", "7", "moore", "corpus/zs1.dsab.json"),
            0,
            "f93b8b384c6f5899e4997eab9531ed43a980fc5911486508c7f64ccd908935b2",
        ),
        (("e2", "corpus/s1xs1.bisab.json"), 0, "d1d4ad399240c32b1121f9ca91c42468fc46ea7c58bbcd210f3a772eef6fa433"),
        (
            ("synthesize", "--input", "corpus/perturbed.dsab.json", "--hdeg", "corpus/perturbed.hdeg.json"),
            0,
            "e4e150557fed290033b362b02e2c70b9f1c75d6c35656dc3ae8b3f7041290430",
        ),
    ],
)
def test_corpus_reports_pinned(argv, code, digest, capsys, monkeypatch):
    """Every README corpus command prints the report pinned here byte for
    byte apart from its timing_s line (keys in order, values, indentation)
    and exits with the pinned code."""
    from delooper import cli

    monkeypatch.chdir(ROOT)
    assert cli.main(list(argv)) == code
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(' "timing_s": ')]
    assert len(kept) == len(lines) - 1
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


# pairs that differ only in a flag, so a flag left behind by the first call
# would show in the second; then a usage error followed by a valid call
PARSER_REUSE_SEQUENCE = [
    ("--cap", "1", "verify", "corpus/zs1.dsab.json"),
    ("verify", "corpus/zs1.dsab.json"),
    ("extend", "--emit", "corpus/zs1.dsab.json"),
    ("extend", "corpus/zs1.dsab.json"),
    ("--window", "0,1", "moore", "corpus/zs1.dsab.json"),
    ("moore", "corpus/zs1.dsab.json"),
    ("--seed", "7", "perm", "enum", "2"),
    ("perm", "enum", "2"),
    ("--cap", "x", "verify", "corpus/zs1.dsab.json"),
    ("verify", "corpus/zs1.dsab.json"),
]


def _main_outcome(argv, capsys):
    """(exit code, report without timing_s or None, stderr) of one cli.main call."""
    from delooper import cli

    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    if report:
        report.pop("timing_s", None)
    return code, report, captured.err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    """Calls sharing one parser report what each would with a parser of its own."""
    from delooper import cli

    monkeypatch.chdir(ROOT)
    cli.build_parser.cache_clear()
    shared = [_main_outcome(argv, capsys) for argv in PARSER_REUSE_SEQUENCE]
    assert cli.build_parser.cache_info().misses == 1
    own = []
    for argv in PARSER_REUSE_SEQUENCE:
        cli.build_parser.cache_clear()
        own.append(_main_outcome(argv, capsys))
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    assert shared[0][1]["caps"] == 1 and shared[6][1]["seed"] == 7 and "object" in shared[2][1]
    assert shared == own


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


@pytest.mark.parametrize("argv", [("perm", "enum", "3"), ("simplex", "index", "3"), ("verify", "corpus/nope.json")])
def test_closed_stdout_prints_no_traceback(argv):
    """A reader that stops early (``delooper ... | head -1``) closes the pipe;
    the report write must then fail quietly."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "delooper.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT
    )
    proc.stdout.close()  # the only read end: every write to stdout now fails
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 2)
    assert stderr == b""


def test_star_check_reads_each_file_once(monkeypatch, capsys):
    """The corpus star-check names s1.sset.json five times as a source; each
    distinct file is parsed once."""
    from delooper import cli, schemas

    monkeypatch.chdir(ROOT)
    paths = []
    load = schemas.load

    def counted(path):
        paths.append(os.path.realpath(path))
        return load(path)

    monkeypatch.setattr(schemas, "load", counted)
    assert cli.main(list(star_check())) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "holds"
    counts = collections.Counter(paths)
    assert len(counts) == 5 and set(counts.values()) == {1}, counts


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def test_table_is_listed_in_inputs(tmp_path, capsys, monkeypatch):
    """--table is an input: the report lists its digest before the
    fragment's, and the table is read once."""
    from delooper import cli, schemas

    monkeypatch.chdir(ROOT)
    table = shutil.copy(os.path.join(ROOT, "src", "delooper", "data", "spheres.json"), tmp_path)
    paths = []
    load = schemas.load

    def counted(path):
        paths.append(path)
        return load(path)

    monkeypatch.setattr(schemas, "load", counted)
    assert cli.main(["--table", table, "deloop", "corpus/loop_s3.pialg.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "delooped"
    assert report["inputs"] == {"spheres.json": _digest(table), "loop_s3.pialg.json": _digest(corpus("loop_s3.pialg.json"))}
    assert paths == [table, "corpus/loop_s3.pialg.json"]


def test_same_named_inputs_keep_both_digests(tmp_path, capsys, monkeypatch):
    """Two input files with one base name: the second is listed under its
    path as read, so neither digest is lost."""
    from delooper import cli

    for sub, name in (("a", "fibrant.dsab.json"), ("b", "fibrant.hdeg.json")):
        os.mkdir(tmp_path / sub)
        shutil.copy(corpus(name), tmp_path / sub / "x.json")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synthesize", "--input", "a/x.json", "--hdeg", "b/x.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == {"x.json": _digest(corpus("fibrant.dsab.json")),
                                "b/x.json": _digest(corpus("fibrant.hdeg.json"))}
