import os
import random
from unittest import mock

import pytest

from delooper import delta_core, schemas
from delooper.abelian import PresentedGroup
from delooper.delta_core import (
    DeltaSAb,
    SAb,
    degenerate_subobject,
    extension_counit,
    free_abelian,
    free_degeneracy_extension,
    is_reedy_fibrant,
    matching_object,
    underlying_delta,
    verify_identities,
)
from delooper.generators import random_small_strict_object
from delooper.intlin import Mat
from delooper.simplicial import StructuralError, sphere, standard_simplex
from delooper.words import DegeneracyWord


def test_simplex_model_verifies():
    D1 = standard_simplex(1, 3)
    assert verify_identities(D1).ok


def test_swapped_faces_cited():
    D1 = standard_simplex(1, 2)
    F = free_abelian(D1)
    faces = {n: [m.copy() for m in F.faces[n]] for n in F.faces}
    faces[2][0], faces[2][1] = faces[2][1], faces[2][0]
    broken = SAb(F.levels, faces, F.degeneracies, F.cap)
    report = verify_identities(broken)
    assert not report.ok
    # the d_0 d_2 = d_1 d_0 instance at dimension 2 is among the citations
    assert any(v.family == "dd" and v.degree == 2 and v.indices == (0, 2) for v in report.violations)


def test_free_abelian_on_simplex_verifies():
    for K in (standard_simplex(1, 3), sphere(1, 3), sphere(2, 4)):
        F = free_abelian(K)
        assert verify_identities(F).ok
    # the unreduced variant, free on every simplex of the interval
    K = standard_simplex(1, 3, basepoint="disjoint")
    F = free_abelian(K, reduced=False)
    assert verify_identities(F).ok


def test_matching_object_m1_is_square():
    rng = random.Random(0)
    for _ in range(10):
        W = random_small_strict_object(rng, 3)
        V = underlying_delta(W)
        mo = matching_object(V, 1)
        both = V.levels[0].invariant_factors()
        expected = tuple(sorted(list(both) + list(both), key=lambda d: (d == 0, d)))
        assert mo.group.invariant_factors() == expected


def test_matching_object_projections():
    """delta_n followed by the i-th projection is the i-th face."""
    W = free_abelian(standard_simplex(2, 3))
    V = underlying_delta(W)
    for n in (1, 2, 3):
        mo = matching_object(V, n)
        for i in range(n + 1):
            got = mo.projections[i] @ mo.delta.mat
            diff = got - V.face(n, i)
            solver = V.levels[n - 1]._snf
            assert all(solver.contains_column(diff.col(j)) for j in range(diff.c))


def test_matching_object_zero_target():
    levels = [PresentedGroup.free(1), PresentedGroup.free(0), PresentedGroup.free(2)]
    faces = {1: [Mat(1, 0, [[]]), Mat(1, 0, [[]])], 2: [Mat(0, 2, []) for _ in range(3)]}
    V = DeltaSAb(levels, faces, 2)
    mo = matching_object(V, 2)
    assert mo.group.is_trivial()
    assert mo.delta.mat.is_zero()


def test_reedy_examples():
    # levelwise zero: fibrant
    levels = [PresentedGroup.free(0) for _ in range(3)]
    faces = {1: [Mat(0, 0, []) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    V0 = DeltaSAb(levels, faces, 2)
    assert is_reedy_fibrant(V0).fibrant

    # reduced free abelian on the 2-simplex: fibrant
    V = underlying_delta(free_abelian(standard_simplex(2, 3)))
    assert is_reedy_fibrant(V).fibrant

    # V_1 = 0, V_0 = Z: delta_1 : 0 -> Z^2 misses (1, 0)
    levels = [PresentedGroup.free(1), PresentedGroup.free(0)]
    faces = {1: [Mat(1, 0, [[]]), Mat(1, 0, [[]])]}
    V2 = DeltaSAb(levels, faces, 1)
    rep = is_reedy_fibrant(V2)
    assert not rep.fibrant
    witness = rep.witnesses[1]
    assert witness != [0, 0]


def test_free_degeneracy_extension_summands():
    """cap 1 case from the proof: one canonical word 0 -> 2 through s_1 s_0."""
    levels = [PresentedGroup.free(1), PresentedGroup.free(0), PresentedGroup.free(0)]
    faces = {1: [Mat(1, 0, [[]]) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    V = DeltaSAb(levels, faces, 2)
    ext = free_degeneracy_extension(V)
    words1 = [w.letters for (w, k, _) in ext.summands[1] if w is not None]
    words2 = [(w.letters, k) for (w, k, _) in ext.summands[2] if w is not None]
    assert words1 == [(0,)]
    assert ((0, 1), 0) in words2  # the copy of V_0 indexed by s_1 s_0
    assert ext.object.rank(1) == 1
    assert ext.object.rank(2) == 1
    assert verify_identities(ext.object).ok


def test_extension_d2_shape_matches_proof():
    """D_2 carries copies (V_1)_{s_0}, (V_0)_{s_1 s_0}, (V_1)_{s_1}."""
    rng = random.Random(4)
    W = random_small_strict_object(rng, 3)
    V = underlying_delta(W)
    ext = free_degeneracy_extension(V)
    tags = [(w.letters if w else None, k) for (w, k, _) in ext.summands[2]]
    assert tags == [(None, 2), ((0,), 1), ((1,), 1), ((0, 1), 0)]
    assert ext.object.rank(2) == 2 * V.rank(1) + V.rank(0) + V.rank(2)


def test_extension_identities_randomized():
    rng = random.Random(9)
    for _ in range(8):
        W = random_small_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        ext = free_degeneracy_extension(V)
        assert verify_identities(ext.object).ok
        for n in range(V.cap + 1):
            assert ext.retraction[n] @ ext.iota[n] == Mat.eye(V.rank(n))


def test_extension_counit_split_surjection():
    rng = random.Random(10)
    W = random_small_strict_object(rng, 3)
    V = underlying_delta(W)
    ext = free_degeneracy_extension(V)
    counit = extension_counit(ext, W)
    for n in range(V.cap + 1):
        assert counit[n] @ ext.iota[n] == Mat.eye(W.rank(n))
        # levelwise surjective: the identity block witnesses a section
    # the counit is simplicial: commutes with faces and degeneracies
    Y = ext.object
    for n in range(1, V.cap + 1):
        for i in range(n + 1):
            assert counit[n - 1] @ Y.face(n, i) == W.face(n, i) @ counit[n]
    for n in range(V.cap):
        for j in range(n + 1):
            assert counit[n + 1] @ Y.degeneracy(n, j) == W.degeneracy(n, j) @ counit[n]


def test_extension_of_zero_is_zero():
    levels = [PresentedGroup.free(0) for _ in range(3)]
    faces = {1: [Mat(0, 0, []) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    V = DeltaSAb(levels, faces, 2)
    ext = free_degeneracy_extension(V)
    assert all(g.ngens == 0 for g in ext.object.levels)


def test_degenerate_subobject():
    W = free_abelian(standard_simplex(1, 3))
    # L_1 is the image of s_0, isomorphic to W_0
    L1, _ = degenerate_subobject(W, 1)
    assert L1.invariant_factors() == W.levels[0].invariant_factors()
    # L_2 as the image of the two degeneracy matrices
    L2, incl = degenerate_subobject(W, 2)
    assert incl.is_well_defined()
    # rank of L_2 equals rank s_0 W_1 + s_1 W_1 minus the shared V_0 copy
    assert L2.invariant_factors().count(0) == 2 * W.rank(1) - W.rank(0)


def test_degenerate_subobject_zero():
    levels = [PresentedGroup.free(0) for _ in range(3)]
    faces = {1: [Mat(0, 0, []) for _ in range(2)], 2: [Mat(0, 0, []) for _ in range(3)]}
    degs = {0: [Mat(0, 0, [])], 1: [Mat(0, 0, []) for _ in range(2)]}
    W = SAb(levels, faces, degs, 2)
    L, _ = degenerate_subobject(W, 2)
    assert L.is_trivial()


def test_matching_rank_against_independent_oracle():
    """The degree-2 matching group of the 2-simplex model: rank checked
    against an independent rational rank computation."""
    import sympy

    W = free_abelian(standard_simplex(2, 3))
    V = underlying_delta(W)
    mo = matching_object(V, 2)
    g = V.rank(1)
    rows = []
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        di = V.face(1, i)
        dj1 = V.face(1, j - 1)
        for r in range(V.rank(0)):
            row = [0] * (3 * g)
            for c in range(g):
                row[j * g + c] += di.a[r][c]
                row[i * g + c] -= dj1.a[r][c]
            rows.append(row)
    constraint_rank = sympy.Matrix(rows).rank()
    assert mo.group.invariant_factors().count(0) == 3 * g - constraint_rank


def test_identity_violations_equal_the_reduced_differences():
    """verify_identities, which reduces a difference of products only when
    the exact products differ, reports the violations and witnesses that
    reducing every difference gives, on strict objects with free and with
    torsion levels and one face or degeneracy entry changed."""
    rng = random.Random(0)
    seen = set()
    for _ in range(80):
        W = random_small_strict_object(rng, rng.choice((2, 3)), torsion=rng.random() < 0.5)
        faces = {n: [m.copy() for m in W.faces[n]] for n in W.faces}
        degs = {n: [m.copy() for m in W.degeneracies[n]] for n in W.degeneracies}
        family = rng.choice([faces, degs])
        M = rng.choice([m for ms in family.values() for m in ms])
        if M.r and M.c:
            M.a[rng.randrange(M.r)][rng.randrange(M.c)] += rng.choice((-2, -1, 1, 2, 4, 6))
        X = SAb(W.levels, faces, degs, W.cap)
        got = [v.describe() for v in verify_identities(X).violations]
        with mock.patch.object(delta_core, "_first_difference", lambda G, lhs, rhs: G.first_nonzero_column(lhs - rhs)):
            assert got == [v.describe() for v in verify_identities(X).violations]
        seen.add(bool(got))
    assert seen == {True, False}


def _corpus_json(name):
    return schemas.load(os.path.join(os.path.dirname(__file__), "..", "corpus", name))


def _perturbed_zs1():
    """corpus/zs1.dsab.json with one entry of d_1 at dimension 3 and one of
    s_0 at dimension 1 changed."""
    data = _corpus_json("zs1.dsab.json")
    data["faces"]["3"][1][1][2] = 0
    data["degeneracies"]["1"][0][1][0] = 1
    return schemas.dsab_from_json(data)


def _perturbed_delta1():
    """corpus/delta1.sset.json with one image changed in d_1 at dimension 3,
    s_0 at dimension 1, and the basepoint images of d_0 at dimension 2 and
    s_0 at dimension 0."""
    data = _corpus_json("delta1.sset.json")
    data["faces"]["3"][1][2] = "x001"
    data["degeneracies"]["1"][0][1] = "x011"
    data["faces"]["2"][0][0] = "x11"
    data["degeneracies"]["0"][0][0] = "x11"
    return schemas.sset_from_json(data)


PINNED_VIOLATIONS = {
    "dsab": [
        "dd at degree 3, indices (1, 2), witness d_1d_2 != d_1d_1 on generator 2",
        "dd at degree 3, indices (1, 3), witness d_1d_3 != d_2d_1 on generator 2",
        "ds-id at degree 1, indices (1, 0), witness d_1s_0 fails on generator 0",
        "ds-high at degree 1, indices (2, 0), witness d_2s_0 fails on generator 0",
        "ds-high at degree 2, indices (2, 0), witness d_2s_0 fails on generator 0",
        "ds-high at degree 2, indices (3, 0), witness d_3s_0 fails on generator 1",
        "ds-low at degree 2, indices (0, 1), witness d_0s_1 fails on generator 0",
        "ds-id at degree 2, indices (1, 1), witness d_1s_1 fails on generator 1",
        "ds-low at degree 2, indices (1, 2), witness d_1s_2 fails on generator 1",
        "ss at degree 1, indices (0, 0), witness s_0s_0 != s_1s_0 on generator 0",
        "ss at degree 1, indices (0, 1), witness s_0s_1 != s_2s_0 on generator 0",
    ],
    "delta": [
        "dd at degree 3, indices (1, 2), witness d_1d_2 != d_1d_1 on generator 2",
        "dd at degree 3, indices (1, 3), witness d_1d_3 != d_2d_1 on generator 2",
    ],
    "sset": [
        "basepoint at degree 2, indices (0,), witness d_0(*) = x11",
        "basepoint at degree 0, indices (0,), witness s_0(*) = x11",
        "dd at degree 2, indices (0, 1), witness d_0d_1(*) = * != x1 = d_0d_0(*)",
        "dd at degree 2, indices (0, 2), witness d_0d_2(*) = * != x1 = d_1d_0(*)",
        "dd at degree 3, indices (0, 1), witness d_0d_1(x0011) = x01 != x11 = d_0d_0(x0011)",
        "dd at degree 3, indices (0, 2), witness d_0d_2(*) = x11 != * = d_1d_0(*)",
        "dd at degree 3, indices (0, 3), witness d_0d_3(*) = x11 != * = d_2d_0(*)",
        "dd at degree 3, indices (0, 3), witness d_0d_3(x0001) = x11 != * = d_2d_0(x0001)",
        "dd at degree 3, indices (1, 3), witness d_1d_3(x0011) = x01 != * = d_2d_1(x0011)",
        "ds-id at degree 0, indices (0, 0), witness d_0s_0(*) = x1 != *",
        "ds-id at degree 0, indices (1, 0), witness d_1s_0(*) = x1 != *",
        "ds-id at degree 1, indices (0, 0), witness d_0s_0(*) = x11 != *",
        "ds-id at degree 1, indices (0, 0), witness d_0s_0(x01) = x11 != x01",
        "ds-high at degree 1, indices (2, 0), witness d_2s_0(*) = * != x11",
        "ds-high at degree 1, indices (2, 0), witness d_2s_0(x01) = x01 != x11",
        "ds-id at degree 2, indices (1, 0), witness d_1s_0(x011) = x001 != x011",
        "ds-high at degree 2, indices (2, 0), witness d_2s_0(x001) = x001 != x011",
        "ds-high at degree 2, indices (2, 0), witness d_2s_0(x011) = x001 != x011",
        "ds-high at degree 2, indices (3, 0), witness d_3s_0(x011) = x001 != x011",
        "ds-low at degree 2, indices (0, 1), witness d_0s_1(*) = * != x111",
        "ds-low at degree 2, indices (0, 1), witness d_0s_1(x001) = x001 != x011",
        "ds-low at degree 2, indices (0, 2), witness d_0s_2(*) = * != x111",
        "ds-low at degree 2, indices (1, 2), witness d_1s_2(x001) = x001 != x011",
        "ss at degree 1, indices (0, 0), witness s_0s_0(x01) = x0011 != x0111",
        "ss at degree 1, indices (0, 1), witness s_0s_1(x01) = x0011 != x0111",
    ],
}


@pytest.mark.parametrize("kind", sorted(PINNED_VIOLATIONS))
def test_identity_violation_texts_pinned(kind):
    """The full list of violation texts, in checking order, on a perturbed
    dsab, its face-only truncation and a perturbed simplicial set; between
    them every family (dd, ds-low, ds-id, ds-high, ss, basepoint) fails."""
    X = {"dsab": _perturbed_zs1, "delta": lambda: underlying_delta(_perturbed_zs1()), "sset": _perturbed_delta1}[kind]()
    report = verify_identities(X)
    assert [v.describe() for v in report.violations] == PINNED_VIOLATIONS[kind]
    assert report.describe().splitlines()[0] == f"{len(PINNED_VIOLATIONS[kind])} violation(s) up to cap 3:"
