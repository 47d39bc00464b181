import random

import pytest

from delooper.abelian import PresentedGroup
from delooper.delta_core import (
    DeltaSAb,
    free_abelian,
    underlying_delta,
    verify_identities,
)
from delooper.generators import (
    perturb_degeneracies,
    random_fibrant_strict_object,
)
from delooper.intlin import Mat
from delooper.moore import homotopy_groups
from delooper.simplicial import sphere
from delooper.synthesis import (
    FibrancyError,
    HomotopyDegeneracyData,
    NotSplitError,
    SynthesisFailure,
    boundary_matrix,
    rho_map,
    split_complement,
    synthesize,
)
from delooper.words import DegeneracyWord


def test_rho_at_stage_zero_is_diagonal():
    rng = random.Random(0)
    W = random_fibrant_strict_object(rng, 2)
    V = underlying_delta(W)
    rho = rho_map(V, {}, 0)
    w = DegeneracyWord(0, (0,))
    assert rho[w][0] == Mat.eye(V.rank(0))
    assert rho[w][1] == Mat.eye(V.rank(0))


def test_rho_on_strict_history_matches_faces():
    rng = random.Random(1)
    W = random_fibrant_strict_object(rng, 3)
    V = underlying_delta(W)
    state = {n: [W.degeneracy(n, j) for j in range(n + 1)] for n in range(2)}
    rho = rho_map(V, state, 2)
    for j in range(3):
        w = DegeneracyWord(2, (j,))
        for i in range(4):
            expected = V.face(3, i) @ W.degeneracy(2, j)
            diff = rho[w][i] - expected
            solver = V.levels[2]._snf
            assert all(solver.contains_column(diff.col(c)) for c in range(diff.c))


def test_rho_zero_object():
    levels = [PresentedGroup.free(0)] * 3
    faces = {1: [Mat(0, 0, []) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    V = DeltaSAb(levels, faces, 2)
    rho = rho_map(V, {}, 0)
    assert all(m.is_zero() for comps in rho.values() for m in comps)


def test_split_complement_free_case():
    rng = random.Random(2)
    W = random_fibrant_strict_object(rng, 2)
    V = underlying_delta(W)
    state = {0: [W.degeneracy(0, 0)]}
    sc = split_complement(V, 1, state)
    assert sc.retraction @ sc.inclusion == Mat.eye(sc.degenerate.ngens)
    # degenerate part plus complement spans the level
    from delooper.intlin import SmithSolver

    span = sc.inclusion.hstack(sc.complement)
    solver = SmithSolver(span)
    for i in range(V.rank(1)):
        e = [0] * V.rank(1)
        e[i] = 1
        assert solver.contains_column(e)


def test_split_complement_full_degenerate():
    # the zero-sphere model: every positive-dimensional cell is degenerate
    from delooper.simplicial import zero_sphere

    W = free_abelian(zero_sphere(2))
    V = underlying_delta(W)
    state = {0: [W.degeneracy(0, 0)]}
    sc = split_complement(V, 1, state)
    assert sc.complement.c == 0


def test_split_complement_failure_names_torsion():
    # level 1 = Z, degeneracy embeds as multiplication by 2: index-2 sublattice
    levels = [PresentedGroup.free(1), PresentedGroup.free(1)]
    faces = {1: [Mat.from_rows([[1]]), Mat.from_rows([[1]])]}
    V = DeltaSAb(levels, faces, 1)
    state = {0: [Mat.from_rows([[2]])]}
    with pytest.raises(NotSplitError) as err:
        split_complement(V, 1, state)
    assert err.value.torsion == (2,)


def test_exact_round_trip():
    rng = random.Random(3)
    for seed in range(6):
        rng = random.Random(100 + seed)
        W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        result = synthesize(V, HomotopyDegeneracyData.from_simplicial(W))
        assert verify_identities(result.object).ok
        assert homotopy_groups(result.object) == homotopy_groups(W)
        assert all(entry["tier"] == "exact" for entry in result.stage_log)


def test_perturbed_round_trip():
    for seed in range(6):
        rng = random.Random(200 + seed)
        W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        hdeg = perturb_degeneracies(W, rng)
        result = synthesize(V, hdeg)
        assert verify_identities(result.object).ok
        assert homotopy_groups(result.object) == homotopy_groups(W)


def test_perturbation_really_changes_candidates():
    rng = random.Random(77)
    W = random_fibrant_strict_object(rng, 3)
    hdeg = perturb_degeneracies(W, rng)
    changed = any(
        hdeg.maps[n][j] != W.degeneracy(n, j) for n in range(W.cap) for j in range(n + 1)
    )
    assert changed


def test_fibrancy_precondition():
    F = free_abelian(sphere(1, 3))
    V = underlying_delta(F)
    with pytest.raises(FibrancyError):
        synthesize(V, HomotopyDegeneracyData.from_simplicial(F))


def test_zero_object_trivial_success():
    levels = [PresentedGroup.free(0)] * 3
    faces = {1: [Mat(0, 0, []) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    V = DeltaSAb(levels, faces, 2)
    hdeg = HomotopyDegeneracyData(maps={0: [Mat(0, 0, [])], 1: [Mat(0, 0, []) for _ in range(2)]})
    result = synthesize(V, hdeg)
    assert verify_identities(result.object).ok


def test_strict_tie_flag_can_fail():
    """With the literal tie semantics, some valid perturbed instances are
    rejected; the failure carries a congruence residue."""
    failures = 0
    successes = 0
    for seed in range(30):
        rng = random.Random(700 + seed)
        W = random_fibrant_strict_object(rng, 2)
        V = underlying_delta(W)
        hdeg = perturb_degeneracies(W, rng)
        try:
            synthesize(V, hdeg, strict_homotopy_tie=True)
            successes += 1
        except SynthesisFailure as exc:
            failures += 1
            assert "residue" in exc.congruence or "fails" in exc.congruence
    assert successes > 0
    # the default mode handles every one of them
    for seed in range(30):
        rng = random.Random(700 + seed)
        W = random_fibrant_strict_object(rng, 2)
        V = underlying_delta(W)
        hdeg = perturb_degeneracies(W, rng)
        synthesize(V, hdeg)


def test_output_independent_of_candidate_history():
    """Synthesized output need not equal the original degeneracies, but the
    homotopy of the result always matches (the counit is a weak equivalence)."""
    rng = random.Random(8)
    W = random_fibrant_strict_object(rng, 3)
    V = underlying_delta(W)
    hdeg = perturb_degeneracies(W, rng)
    result = synthesize(V, hdeg)
    assert homotopy_groups(result.object) == homotopy_groups(W)


def test_determinism():
    rng1 = random.Random(99)
    W1 = random_fibrant_strict_object(rng1, 3)
    hdeg1 = perturb_degeneracies(W1, rng1)
    rng2 = random.Random(99)
    W2 = random_fibrant_strict_object(rng2, 3)
    hdeg2 = perturb_degeneracies(W2, rng2)
    r1 = synthesize(underlying_delta(W1), hdeg1)
    r2 = synthesize(underlying_delta(W2), hdeg2)
    for n in range(W1.cap):
        for j in range(n + 1):
            assert r1.object.degeneracy(n, j) == r2.object.degeneracy(n, j)


def _torsion_cone_complex(cap, k, m):
    from delooper.moore import ChainComplex

    factors = [[] for _ in range(cap + 1)]
    factors[m] = [k]
    factors[m - 1] = [k]
    groups = [PresentedGroup.from_factors(f) for f in factors]
    diffs = {}
    for d in range(1, cap + 1):
        D = Mat(groups[d - 1].ngens, groups[d].ngens)
        if d == m:
            D.a[0][0] = 1
        diffs[d] = D
    return ChainComplex(groups=groups, diffs=diffs)


@pytest.mark.parametrize("cap,k,m", [(2, 2, 1), (2, 3, 2), (2, 4, 1), (3, 2, 3)])
def test_torsion_level_round_trips(cap, k, m):
    """Presented (torsion) levels go through the relation-slack paths."""
    from delooper.moore import dold_kan

    rng = random.Random(9100 + cap * 10 + k)
    W = dold_kan(_torsion_cone_complex(cap, k, m), cap)
    V = underlying_delta(W)
    res = synthesize(V, HomotopyDegeneracyData.from_simplicial(W))
    assert verify_identities(res.object).ok
    assert homotopy_groups(res.object) == homotopy_groups(W)
    res2 = synthesize(V, perturb_degeneracies(W, rng))
    assert verify_identities(res2.object).ok
    assert homotopy_groups(res2.object) == homotopy_groups(W)


def _synthesized_cases():
    """(face-only object, synthesized strict object): the corpus fibrant file
    and the objects the round-trip tests above synthesize."""
    import os

    from delooper import schemas

    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    V = schemas.dsab_from_json(schemas.load(os.path.join(corpus, "fibrant.dsab.json")))
    hdeg = schemas.hdeg_from_json(schemas.load(os.path.join(corpus, "fibrant.hdeg.json")), V)
    yield "corpus", V, synthesize(V, hdeg).object
    for seed in range(6):
        rng = random.Random(100 + seed)
        W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        yield f"exact{seed}", V, synthesize(V, HomotopyDegeneracyData.from_simplicial(W)).object
    for seed in range(6):
        rng = random.Random(200 + seed)
        W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        yield f"perturbed{seed}", V, synthesize(V, perturb_degeneracies(W, rng)).object
    from delooper.moore import dold_kan

    for cap, k, m in [(2, 2, 1), (2, 3, 2), (2, 4, 1), (3, 2, 3)]:
        W = dold_kan(_torsion_cone_complex(cap, k, m), cap)
        V = underlying_delta(W)
        yield f"torsion{cap}{k}{m}", V, synthesize(V, HomotopyDegeneracyData.from_simplicial(W)).object


def test_rho_map_reads_only_the_levels_below_its_stage():
    """Stage n's prescription is the same from the full synthesized history
    as from its levels k < n alone, so a stage's rho stays valid after the
    later stages are chosen."""
    for name, V, W in _synthesized_cases():
        for n in range(V.cap):
            full = rho_map(V, W.degeneracies, n)
            assert full == rho_map(V, {k: W.degeneracies[k] for k in range(n)}, n), (name, n)


def test_synthesize_builds_each_matching_object_once(monkeypatch):
    from delooper import delta_core, synthesis

    calls = []
    build = delta_core.matching_object

    def counted(V, n):
        calls.append(n)
        return build(V, n)

    monkeypatch.setattr(delta_core, "matching_object", counted)
    monkeypatch.setattr(synthesis, "matching_object", counted)
    for name, V, _ in _synthesized_cases():  # one synthesize per case, nothing else builds one
        assert sorted(calls) == list(range(1, V.cap + 1)), (name, calls)
        calls.clear()
