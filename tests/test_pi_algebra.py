import itertools

import pytest

from delooper.abelian import PresentedGroup
from delooper.pi_algebra import (
    DeloopResult,
    FragmentMap,
    NotAbelianError,
    Obstruction,
    PiAlgebraFragment,
    SphereTable,
    TableError,
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
    with pytest.raises(TableError):
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
