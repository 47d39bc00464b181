import copy
import itertools
import json
import os
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delooper.abelian import PresentedGroup
from delooper.intlin import Mat
from delooper.jsontypes import InputError
from delooper.pi_algebra import (
    DeloopResult,
    FragmentMap,
    NotAbelianError,
    Obstruction,
    PiAlgebraFragment,
    SphereTable,
    comonad_T,
    counit_is_surjective,
    default_table,
    deloop,
    eta_chain_fragment,
    fragments_equal,
    free_fragment,
    indecomposables,
    is_abelian,
    loop_space_s3_fragment,
    q_matrix,
    retract_complement,
    reverify_obstruction,
    validate,
)


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_table_loads_and_selfchecks(table):
    # the load already runs the coherence audit; spot-check the core row
    assert table.group(3, 6).invariant_factors() == (12,)
    assert table.suspensions["eee2"] == [6]
    assert table.compositions[("ee3", "e5")] == [6]


def test_table_rejects_unknown_generator(table):
    with pytest.raises(InputError):
        table.require("nonexistent")


def test_bundled_s3_fragment_validates(table):
    frag = free_fragment([("s", 3)], table, (3, 7))
    report = validate(frag, table)
    assert report.ok, report.problems


def test_free_fragment_copies_declared_factors_in_generator_order(table):
    # pi_7 S^4 is declared Z + Z/12 on (nu4, a4); its invariant factors run (12, 0)
    frag = free_fragment([("s", 4)], table, (4, 8))
    assert frag.gen_names[7] == ["s.nu4", "s.a4"]
    assert frag.groups[7].rels == PresentedGroup.from_factors([0, 12]).rels


def test_validate_flags_forced_additivity_failure(table):
    frag = free_fragment([("s", 3)], table, (3, 6))
    # eta has order 2 in the table, so 2 * (eta # g) must vanish; force it not to
    frag.groups[4] = PresentedGroup.from_factors([0])
    report = validate(frag, table)
    assert not report.ok
    assert any("additivity" in p for p in report.problems)


def test_validate_empty_fragment(table):
    frag = PiAlgebraFragment(d_lo=2, d_hi=3, groups={}, gen_names={}, action={}, whitehead={})
    assert validate(frag, table).ok


def test_is_abelian(table):
    frag = free_fragment([("s", 3)], table, (3, 6))
    assert is_abelian(frag)  # the 3-sphere Whitehead square vanishes
    frag2 = free_fragment([("s", 2)], table, (2, 6))
    # contains the Whitehead square [i2, i2] = 2 eta != 0
    assert not is_abelian(frag2)
    empty = PiAlgebraFragment(d_lo=2, d_hi=3, groups={}, gen_names={}, action={}, whitehead={})
    assert is_abelian(empty)


def test_free_fragment_rows_copied(table):
    frag = free_fragment([("s", 3)], table, (3, 6))
    assert frag.group(3).invariant_factors() == (0,)
    assert frag.group(4).invariant_factors() == (2,)
    assert frag.group(6).invariant_factors() == (12,)
    assert frag.action[("e3", (3, "s.i3"))] == frag.generator_vector(4, "s.e3")


def test_free_fragment_empty(table):
    frag = free_fragment([], table, (2, 5))
    assert all(g.ngens == 0 for g in frag.groups.values())


def test_free_fragment_cross_whitehead_symbolic(table):
    frag = free_fragment([("a", 3), ("b", 3)], table, (3, 5))
    assert "w[a,b]" in frag.gen_names[5]
    key = ((3, "a.i3"), (3, "b.i3"))
    assert key in frag.whitehead


def test_comonad_on_z2(table):
    G = PiAlgebraFragment(
        d_lo=3,
        d_hi=4,
        groups={3: PresentedGroup.cyclic(2), 4: PresentedGroup.free(0)},
        gen_names={3: ["g"], 4: []},
        action={},
        whitehead={},
    )
    T, counit = comonad_T(G, table, (3, 4))
    assert len([s for s in T.free_summands if s[1] == 3]) == 1
    key = next(k for k in counit if k[0] == 3 and k[1].endswith(".i3"))
    deg, val = counit[key]
    assert deg == 3 and not G.group(3).is_zero_elt(val)
    assert counit_is_surjective(G, counit, (3, 4))


def test_comonad_on_zero(table):
    G = PiAlgebraFragment(d_lo=3, d_hi=4, groups={3: PresentedGroup.free(0)}, gen_names={3: []}, action={}, whitehead={})
    T, counit = comonad_T(G, table, (3, 4))
    assert not T.free_summands


def test_comonad_generator_enumeration_for_free_groups(table):
    G = PiAlgebraFragment(
        d_lo=3,
        d_hi=4,
        groups={3: PresentedGroup.free(1), 4: PresentedGroup.free(0)},
        gen_names={3: ["x"], 4: []},
        action={},
        whitehead={},
    )
    T, counit = comonad_T(G, table, (3, 4))
    assert len(T.free_summands) == 1  # one sphere per recorded generator
    assert counit_is_surjective(G, counit, (3, 4))


def test_indecomposables(table):
    frag = free_fragment([("s", 3)], table, (3, 6))
    assert indecomposables(frag) == {3: (0,)}
    frag3 = free_fragment([("a", 3), ("b", 3), ("c", 5)], table, (3, 7))
    q = indecomposables(frag3)
    assert q[3] == (0, 0) and q[5] == (0,)
    plain = PiAlgebraFragment(d_lo=2, d_hi=3, groups={}, gen_names={}, action={}, whitehead={})
    with pytest.raises(ValueError):
        indecomposables(plain)


def _inclusion_and_retraction(table, dims_a, dims_b, window):
    """Canonical split pair for sub-multisets of sphere summands."""
    A = free_fragment([(f"a{i}", d) for i, d in enumerate(dims_a)], table, window)
    B = free_fragment([(f"b{i}", d) for i, d in enumerate(dims_b)], table, window)
    used = []
    images = {}
    for i, d in enumerate(dims_a):
        j = next(jj for jj, db in enumerate(dims_b) if db == d and jj not in used)
        used.append(j)
        images[(d, f"a{i}")] = B.generator_vector(d, f"b{j}.i{d}")
    i_map = FragmentMap(src=A, dst=B, images=images)
    r_images = {}
    for j, d in enumerate(dims_b):
        if j in used:
            i = used.index(j)
            r_images[(d, f"b{j}")] = A.generator_vector(d, f"a{i}.i{d}")
        else:
            r_images[(d, f"b{j}")] = [0] * A.group(d).ngens
    r_map = FragmentMap(src=B, dst=A, images=r_images)
    return A, B, i_map, r_map, used


def test_retract_complement_identity(table):
    A, B, i_map, r_map, _ = _inclusion_and_retraction(table, [3], [3], (3, 6))
    comp = retract_complement(i_map, r_map)
    assert all(not names for names in comp.values())


def test_retract_complement_extra_sphere(table):
    A, B, i_map, r_map, used = _inclusion_and_retraction(table, [3], [3, 5], (3, 7))
    comp = retract_complement(i_map, r_map)
    assert comp[5] == ["b1"]
    assert comp.get(3, []) == []


def test_retract_complement_rejects_non_retraction(table):
    A, B, i_map, r_map, _ = _inclusion_and_retraction(table, [3], [3], (3, 6))
    r_map.images[(3, "b0")] = [0]
    with pytest.raises(ValueError):
        retract_complement(i_map, r_map)


def test_retract_complement_exhaustive_small(table):
    """Every split pair with at most 3 summands drawn from two dimensions."""
    dims_pool = [3, 5]
    cases = 0
    for nb in range(1, 4):
        for dims_b in itertools.combinations_with_replacement(dims_pool, nb):
            for na in range(0, nb + 1):
                for sub in itertools.combinations(range(nb), na):
                    dims_a = [dims_b[i] for i in sub]
                    A, B, i_map, r_map, used = _inclusion_and_retraction(table, list(dims_a), list(dims_b), (3, 9))
                    comp = retract_complement(i_map, r_map)
                    got = sorted((d, n) for d, names in comp.items() for n in names)
                    expected = sorted((dims_b[j], f"b{j}") for j in range(nb) if j not in used)
                    assert got == expected
                    cases += 1
    assert cases >= 20


def test_deloop_obstruction_example(table):
    G = eta_chain_fragment()
    assert validate(G, table).ok
    result = deloop(G, table)
    assert isinstance(result, Obstruction)
    assert result.degree == 6
    assert result.table_row == (3, 6)
    assert "6*a3" in result.relation
    assert reverify_obstruction(result, G, table)


def test_deloop_requires_abelian(table):
    G = eta_chain_fragment()
    G.whitehead[((2, "x"), (2, "x"))] = [1]
    with pytest.raises(NotAbelianError):
        deloop(G, table)


def test_deloop_zero_actions_succeeds(table):
    G = PiAlgebraFragment(
        d_lo=2,
        d_hi=4,
        groups={2: PresentedGroup.free(1), 3: PresentedGroup.free(0), 4: PresentedGroup.free(0)},
        gen_names={2: ["x"], 3: [], 4: []},
        action={},
        whitehead={},
    )
    result = deloop(G, table)
    assert isinstance(result, DeloopResult)
    out = result.fragment
    for (theta, _), value in out.action.items():
        n, m, _ = table.location[theta]
        assert out.group(m).is_zero_elt(value)


def test_deloop_loop_space_matches_bundled_rows(table):
    G = loop_space_s3_fragment()
    assert validate(G, table).ok
    result = deloop(G, table)
    assert isinstance(result, DeloopResult)
    bundled = free_fragment([("s", 3)], table, (3, 6))
    assert fragments_equal(result.fragment, bundled, table)


def test_deloop_suspension_forcing_exact(table):
    """Successful delooping shifts every recorded suspension-class action."""
    G = loop_space_s3_fragment()
    out = deloop(G, table).fragment
    for theta_bar, value in (("e2", [1]), ("ee2", [1])):
        susp = table.suspensions[theta_bar]
        n, m, _ = table.location[theta_bar]
        target_gen = table.gens[(n + 1, m + 1)]
        forced = G.action[(theta_bar, (2, "x"))]
        combo = [0] * out.group(m + 1).ngens
        for coeff, tgen in zip(susp, target_gen):
            if coeff:
                rec = out.action[(tgen, (3, "x'"))]
                combo = [a + coeff * b for a, b in zip(combo, rec)]
        assert out.group(m + 1).canon(combo) == out.group(m + 1).canon(forced)


def test_comonad_indecomposables_rank(table):
    """One sphere, hence one indecomposable class, per enumerated element."""
    G = PiAlgebraFragment(
        d_lo=3,
        d_hi=4,
        groups={3: PresentedGroup.from_factors([4]), 4: PresentedGroup.cyclic(2)},
        gen_names={3: ["a"], 4: ["b"]},
        action={},
        whitehead={},
    )
    T, _ = comonad_T(G, table, (3, 4))
    q = indecomposables(T)
    assert len(q.get(3, ())) == 3  # nonzero elements of Z/4
    assert len(q.get(4, ())) == 1  # nonzero element of Z/2


def test_obstruction_witness_recheck_is_standalone(table):
    """The stored congruence re-verifies without rebuilding the fragment."""
    ob = deloop(eta_chain_fragment(), table)
    assert isinstance(ob, Obstruction)
    assert ob.coefficients == [6]
    assert ob.forced_value == [1]
    assert ob.target_factors == (2,)
    assert ob.recheck(table)
    # the same congruence into Z/12 is satisfiable, as in the loop-space case
    satisfiable = Obstruction(
        degree=6,
        generator="x'",
        relation="",
        forced_description="",
        table_row=(3, 6),
        coefficients=[6],
        forced_value=[6],
        target_factors=(12,),
    )
    assert not satisfiable.recheck(table)


def test_joint_obstruction_rechecks_its_constraints(table):
    """x in degree 4 with nu4 -> [1] and a4 -> [0] into Z/4 in degree 7: on
    the row pi_8 S^5 = Z/24 the suspensions force h(nu5) = 1 and
    h(2 nu5) = 0. Each alone admits a homomorphism, the pair does not, so
    the obstruction stores both and its recheck solves both; forcing
    h(2 nu5) = 2 instead makes the pair consistent."""
    from delooper import schemas

    path = os.path.join(os.path.dirname(__file__), "data", "pialg_joint_obstruction.json")
    G = schemas.fragment_from_json(schemas.load(path))
    ob = deloop(G, table)
    assert isinstance(ob, Obstruction)
    assert (ob.relation, ob.table_row, ob.degree) == ("joint suspension constraints unsatisfiable", (5, 8), 8)
    assert (ob.coefficients, ob.forced_value, ob.target_factors) == ([1, 2], [1, 0], (4,))
    assert ob.recheck(table)
    assert reverify_obstruction(ob, G, table)
    assert not replace(ob, forced_value=[1, 2]).recheck(table)


def test_deloop_multiple_generators_per_degree(table):
    G = PiAlgebraFragment(
        d_lo=2,
        d_hi=3,
        groups={2: PresentedGroup.from_factors([0, 0]), 3: PresentedGroup.from_factors([2, 2])},
        gen_names={2: ["x", "y"], 3: ["hx", "hy"]},
        action={
            ("e2", (2, "x")): [1, 0],
            ("e2", (2, "y")): [0, 1],
        },
        whitehead={((2, "x"), (2, "y")): [0, 0]},
    )
    result = deloop(G, table)
    assert isinstance(result, DeloopResult)
    out = result.fragment
    assert out.action[("e3", (3, "x'"))] == [1, 0]
    assert out.action[("e3", (3, "y'"))] == [0, 1]


# Every note validate writes, each from one edit of the loop-space fragment:
# actions and Whitehead values to record, and degrees to give a new group.
@pytest.mark.parametrize(
    "action,whitehead,groups,note",
    [
        ({("zz", (2, "x")): [1]}, {}, {}, "unknown sphere table generator zz"),
        ({("e3", (2, "x")): [1]}, {}, {}, "action of e3 recorded on a degree-2 generator, expected degree 3"),
        ({("e2", (2, "y")): [1]}, {}, {}, "action on unknown fragment generator y in degree 2"),
        ({("e2", (2, "x")): [1, 0]}, {}, {}, "action value of (e2, x) has wrong length"),
        ({("e2", (2, "x")): []}, {}, {}, "action value of (e2, x) has wrong length"),
        ({}, {}, {4: [0]}, "additivity violation: 2 * (ee2^# x) != 0 though 2 * ee2 = 0 in the table"),
        ({("ee2", (2, "x")): [0]}, {}, {}, "composition coherence fails for (e2 . e3) on x"),
        ({}, {((2, "x"), (2, "x")): [0, 0]}, {}, "Whitehead value [x,x] has wrong length"),
        ({}, {((2, "x"), (3, "hx")): []}, {}, "Whitehead value [x,hx] has wrong length"),
    ],
)
def test_validate_writes_each_note(table, action, whitehead, groups, note):
    G = loop_space_s3_fragment()
    assert validate(G, table).ok
    G.action.update(action)
    G.whitehead.update(whitehead)
    G.groups.update({d: PresentedGroup.from_factors(f) for d, f in groups.items()})
    assert note in validate(G, table).problems


with open(os.path.join(os.path.dirname(__file__), "..", "src", "delooper", "data", "spheres.json"), encoding="utf-8") as fh:
    SPHERES = json.load(fh)


# Every InputError of the table's own audit, each from one entry appended to
# a section of the bundled table (a later entry replaces an earlier one).
@pytest.mark.parametrize(
    "section,entry,message",
    [
        ("compositions", {"left": "zz", "right": "e3", "value": [1]}, "unknown sphere table generator zz"),
        ("compositions", {"left": "e2", "right": "zz", "value": [1]}, "unknown sphere table generator zz"),
        ("compositions", {"left": "e2", "right": "e4", "value": [1]}, "composition (e2, e4) has mismatched middle sphere"),
        ("compositions", {"left": "e2", "right": "e3", "value": [1, 0]}, "composition (e2, e3) value has wrong length"),
        ("compositions", {"left": "e2", "right": "e3", "value": []}, "composition (e2, e3) value has wrong length"),
        ("suspensions", {"gen": "zz", "value": [1]}, "unknown sphere table generator zz"),
        ("suspensions", {"gen": "i7", "value": [1]}, "suspension of i7 leaves the table span"),
        ("suspensions", {"gen": "e2", "value": [1, 0]}, "suspension of e2 has wrong value length"),
        ("suspensions", {"gen": "ee2", "value": [0]}, "suspension is not multiplicative on (e2, e3)"),
        ("whitehead", {"left": "zz", "right": "i2", "value": [0]}, "unknown sphere table generator zz"),
        ("whitehead", {"left": "i2", "right": "zz", "value": [0]}, "unknown sphere table generator zz"),
        ("whitehead", {"left": "i2", "right": "i3", "value": [0]}, "Whitehead pair (i2, i3) on different spheres"),
        ("whitehead", {"left": "i2", "right": "i2", "value": [1]}, "Whitehead product (i2, i2) survives suspension"),
        ("compositions", {"left": "ee5", "right": "nu7", "value": [1]},
         "composition (ee5, nu7) lands in pi_10 S^5, outside the table"),
    ],
)
def test_table_audit_raises_each_error(tmp_path, section, entry, message):
    data = copy.deepcopy(SPHERES)
    data[section].append(entry)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(InputError) as info:
        SphereTable.load(str(path))
    assert message in str(info.value)


def test_compose_and_suspend_elements_are_bilinear(table):
    assert table.compose_elements((3, 4), [1], (4, 5), [3]) == [3]
    assert table.compose_elements((3, 4), [2], (4, 5), [3]) == [6]
    # (e3, nu4) is not recorded: needed for a nonzero pair of coefficients only
    assert table.compose_elements((3, 4), [0], (4, 7), [1, 1]) == [0]
    assert table.compose_elements((3, 4), [1], (4, 7), [1, 0]) is None
    with pytest.raises(InputError, match="do not chain"):
        table.compose_elements((3, 4), [1], (5, 6), [1])
    assert table.suspend_element((3, 6), [2]) == [0, 2]
    assert table.suspend_element((2, 5), [3]) == [18]
    assert table.suspend_element((7, 11), []) is None  # pi_12 S^8 is outside the span


# References: free_fragment, comonad_T and q_matrix as they stood when the
# fragment rows were recovered by parsing generator labels. They fix the
# outputs, and the insertion order of every dict, of the rewritten versions.
def _ref_apply_action_to_vector(G, table, theta, src_degree, vector):
    n, m, _ = table.location[theta]
    if src_degree != n:
        return None
    out = [0] * G.group(m).ngens
    for coeff, gen in zip(vector, G.gen_names.get(src_degree, [])):
        if coeff == 0:
            continue
        rec = G.action.get((theta, (src_degree, gen)))
        if rec is None:
            return None
        for i, v in enumerate(rec):
            out[i] += coeff * v
    return out


def _ref_free_fragment(summands, table, window):
    d_lo, d_hi = window
    n_min, n_max, stem_max = table.span
    gen_names = {d: [] for d in range(d_lo, d_hi + 1)}
    factors = {d: [] for d in range(d_lo, d_hi + 1)}
    origin = {}
    for (name, dim) in summands:
        if not (n_min <= dim <= n_max):
            raise InputError(f"sphere dimension {dim} outside table span")
        for m in table.rows_for(dim, min(d_hi, dim + stem_max)):
            if m < d_lo:
                continue
            for idx, theta in enumerate(table.gens[(dim, m)]):
                label = f"{name}.{theta}"
                gen_names[m].append(label)
                factors[m].append(table.declared[(dim, m)][idx])
                origin[label] = (name, dim, m, theta)
    whitehead = {}
    for a, (name_a, dim_a) in enumerate(summands):
        for b, (name_b, dim_b) in enumerate(summands):
            if b <= a:
                continue
            d = dim_a + dim_b - 1
            if d_lo <= d <= d_hi:
                label = f"w[{name_a},{name_b}]"
                gen_names[d].append(label)
                factors[d].append(0)
                origin[label] = ("whitehead", name_a, name_b, d)
    groups = {d: PresentedGroup.from_factors(factors[d]) for d in factors}
    frag = PiAlgebraFragment(
        d_lo=d_lo,
        d_hi=d_hi,
        groups=groups,
        gen_names=gen_names,
        action={},
        whitehead=whitehead,
        free_summands=list(summands),
    )
    for (name, dim) in summands:
        iota = f"{name}.i{dim}"
        if iota not in origin:
            continue
        for m in table.rows_for(dim, min(d_hi, dim + stem_max)):
            if m < d_lo or m == dim:
                continue
            for theta in table.gens[(dim, m)]:
                label = f"{name}.{theta}"
                frag.action[(theta, (dim, iota))] = frag.generator_vector(m, label)
    for label, info in origin.items():
        if info[0] == "whitehead":
            continue
        name, dim, m, theta = info
        if m == dim:
            continue
        for (left, right), value in table.compositions.items():
            if left != theta:
                continue
            _, r, _ = table.location[right]
            if not (d_lo <= r <= d_hi):
                continue
            out = [0] * frag.group(r).ngens
            for coeff, tgt_gen in zip(value, table.gens[(dim, r)]):
                if coeff:
                    out[frag.gen_index(r, f"{name}.{tgt_gen}")] += coeff
            frag.action[(right, (m, label))] = out
    for (name, dim) in summands:
        iota = f"{name}.i{dim}"
        key = (f"i{dim}", f"i{dim}")
        if key in table.whitehead:
            d = 2 * dim - 1
            if d_lo <= d <= d_hi:
                value = table.whitehead[key]
                out = [0] * frag.group(d).ngens
                for coeff, tgt_gen in zip(value, table.gens[(dim, d)]):
                    if coeff:
                        out[frag.gen_index(d, f"{name}.{tgt_gen}")] += coeff
                frag.whitehead[((dim, iota), (dim, iota))] = out
    for a, (name_a, dim_a) in enumerate(summands):
        for b, (name_b, dim_b) in enumerate(summands):
            if b <= a:
                continue
            d = dim_a + dim_b - 1
            if d_lo <= d <= d_hi:
                label = f"w[{name_a},{name_b}]"
                frag.whitehead[((dim_a, f"{name_a}.i{dim_a}"), (dim_b, f"{name_b}.i{dim_b}"))] = frag.generator_vector(d, label)
    return frag


def _ref_comonad_T(G, table, window=None):
    if window is None:
        window = (G.d_lo, G.d_hi)
    d_lo, d_hi = window
    summands = []
    counit_targets = {}
    for k in range(d_lo, d_hi + 1):
        grp = G.group(k)
        if grp.ngens == 0:
            continue
        if grp.order() is None:
            enumerated = [(name, G.generator_vector(k, name)) for name in G.gen_names[k]]
        else:
            enumerated = [(f"elt{idx}", v) for idx, v in enumerate(grp.elements()) if idx]
        for name, vec in enumerated:
            tag = f"d{k}_{name}"
            summands.append((tag, k))
            counit_targets[tag] = (k, vec)
    T = _ref_free_fragment(summands, table, window)
    counit = {}
    for (tag, k) in summands:
        counit[(k, f"{tag}.i{k}")] = counit_targets[tag]
    for label_degree, names in T.gen_names.items():
        for label in names:
            parts = label.split(".")
            if len(parts) != 2 or label.startswith("w["):
                continue
            tag, theta = parts
            if theta.startswith("i") and (label_degree, label) in counit:
                continue
            if tag not in counit_targets:
                continue
            k, vec = counit_targets[tag]
            stepped = _ref_apply_action_to_vector(G, table, theta, k, vec) if theta in table.location else None
            if stepped is not None:
                counit[(label_degree, label)] = (label_degree, stepped)
    return T, counit


def _ref_q_matrix(fmap, dim):
    src_summands = [name for (name, d) in fmap.src.free_summands if d == dim]
    dst_summands = [name for (name, d) in fmap.dst.free_summands if d == dim]
    dst_index = {name: i for i, name in enumerate(dst_summands)}
    out = Mat(len(dst_summands), len(src_summands))
    for j, name in enumerate(src_summands):
        vec = fmap.images.get((dim, name))
        if vec is None:
            continue
        for gen_name, coeff in zip(fmap.dst.gen_names.get(dim, []), vec):
            parts = gen_name.split(".")
            if len(parts) == 2 and parts[1] == f"i{dim}" and parts[0] in dst_index and coeff:
                out.a[dst_index[parts[0]]][j] = coeff
    return out


def _same_fragment(F, R):
    """Equal fields, with every dict in the same insertion order."""
    assert (F.d_lo, F.d_hi, F.free_summands) == (R.d_lo, R.d_hi, R.free_summands)
    assert list(F.gen_names.items()) == list(R.gen_names.items())
    assert list(F.action.items()) == list(R.action.items())
    assert list(F.whitehead.items()) == list(R.whitehead.items())
    assert list(F.groups) == list(R.groups)
    assert all(F.groups[d].rels == R.groups[d].rels for d in F.groups)


# dotted summand names are fine for free_fragment, which never parses labels
SUMMAND_NAMES = st.sampled_from(["a", "b", "s", "w", "a.b", "x.y"])
WINDOWS = st.tuples(st.integers(1, 9), st.integers(0, 5)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(SUMMAND_NAMES, st.integers(1, 8)), max_size=4), WINDOWS)
def test_free_fragment_matches_reference(table, summands, window):
    try:
        R = _ref_free_fragment(summands, table, window)
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            free_fragment(summands, table, window)
        return
    _same_fragment(free_fragment(summands, table, window), R)


@st.composite
def fragments(draw, table):
    """A fragment on a window inside the table span, with small groups and
    some actions of table generators recorded with values of the right length."""
    d_lo = draw(st.integers(2, 7))
    d_hi = min(7, d_lo + draw(st.integers(0, 3)))
    groups, gen_names = {}, {}
    for d in range(d_lo, d_hi + 1):
        factors = draw(st.lists(st.sampled_from([0, 0, 2, 3, 4]), max_size=2))
        groups[d] = PresentedGroup.from_factors(factors)
        gen_names[d] = [f"g{d}{i}" for i in range(len(factors))]
    G = PiAlgebraFragment(d_lo=d_lo, d_hi=d_hi, groups=groups, gen_names=gen_names, action={}, whitehead={})
    for (n, m), thetas in table.gens.items():
        if n in gen_names and m in groups:
            for theta in thetas:
                for gen in gen_names[n]:
                    if draw(st.booleans()):
                        G.action[(theta, (n, gen))] = draw(
                            st.lists(st.integers(-2, 2), min_size=groups[m].ngens, max_size=groups[m].ngens)
                        )
    return G


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_comonad_matches_reference(table, data):
    G = data.draw(fragments(table))
    T, counit = comonad_T(G, table)
    R, ref_counit = _ref_comonad_T(G, table)
    _same_fragment(T, R)
    assert counit == ref_counit
    assert counit_is_surjective(G, counit) == counit_is_surjective(G, ref_counit)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_q_matrix_matches_reference(table, data):
    names = st.sampled_from(["a", "b", "c", "w"])
    dims = st.sampled_from([3, 4, 5])
    A = free_fragment(data.draw(st.lists(st.tuples(names, dims), max_size=3)), table, (3, 7))
    B = free_fragment(data.draw(st.lists(st.tuples(names, dims), max_size=3)), table, (3, 7))
    images = {}
    for name, d in A.free_summands:
        if data.draw(st.booleans()):
            k = B.group(d).ngens
            images[(d, name)] = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    fmap = FragmentMap(src=A, dst=B, images=images)
    for dim in (3, 4, 5):
        assert q_matrix(fmap, dim) == _ref_q_matrix(fmap, dim)


def test_counit_and_q_matrix_of_a_dotted_generator_name(table):
    """A generator named "x.y" gets its counit on row elements and its
    class on indecomposables; splitting labels on "." lost both."""
    G = PiAlgebraFragment(
        d_lo=2,
        d_hi=4,
        groups={2: PresentedGroup.free(1), 3: PresentedGroup.free(1), 4: PresentedGroup.cyclic(2)},
        gen_names={2: ["x.y"], 3: ["h"], 4: ["hh"]},
        action={("e2", (2, "x.y")): [1], ("ee2", (2, "x.y")): [1]},
        whitehead={},
    )
    T, counit = comonad_T(G, table, (2, 4))
    assert counit[(3, "d2_x.y.e2")] == (3, [1])
    assert counit[(4, "d2_x.y.ee2")] == (4, [1])
    fmap = FragmentMap(src=T, dst=T, images={(2, "d2_x.y"): T.generator_vector(2, "d2_x.y.i2")})
    assert q_matrix(fmap, 2) == Mat.eye(1)


def test_counit_onto_a_trivial_group_is_surjective(table):
    """A degree whose group has a generator but no nonzero element gets no
    counit column, and needs none."""
    G = PiAlgebraFragment(
        d_lo=3,
        d_hi=4,
        groups={3: PresentedGroup.free(1), 4: PresentedGroup.from_factors([1])},
        gen_names={3: ["x"], 4: ["y"]},
        action={},
        whitehead={},
    )
    T, counit = comonad_T(G, table, (3, 4))
    assert not any(tdeg == 4 for tdeg, _ in counit.values())
    assert counit_is_surjective(G, counit, (3, 4))



def test_table_audit_takes_no_smith_form(monkeypatch):
    """Every table row is a sum of cyclic groups, so the audit reads whether
    a value is zero off the row's declared factors."""
    from delooper import intlin

    calls = []
    snf = intlin.smith_normal_form
    monkeypatch.setattr(intlin, "smith_normal_form", lambda A: calls.append(A) or snf(A))
    SphereTable.load()
    assert calls == []


def test_table_zero_test_agrees_with_each_row_group(table):
    for key, G in table.groups.items():
        for v in itertools.product([0, 1, 2, 3, 6, 12, 24, -12], repeat=len(table.gens[key])):
            assert table._is_zero(key, list(v)) == G.is_zero_elt(list(v)), (key, v)
