import os
import random

import pytest

from delooper import schemas
from delooper.abelian import PresentedGroup
from delooper.delta_core import free_abelian, underlying_delta, verify_identities
from delooper.generators import (
    random_fibrant_strict_object,
    random_resolution_grid,
    random_small_strict_object,
)
from delooper.intlin import Mat
from delooper.moore import (
    ChainComplex,
    certify_collapse,
    chain_homology_factors,
    diagonal,
    dold_kan,
    double_moore_total_complex,
    e2_page,
    external_product,
    homotopy_groups,
    moore_complex,
)
from delooper.simplicial import sphere, standard_simplex


def constant_vertical(G, vcap):
    """Bisimplicial grid, vertically constant on the simplicial group G:
    the external product of G with the inverse Dold-Kan of Z in degree 0."""
    groups = [PresentedGroup.free(1)] + [PresentedGroup.free(0)] * vcap
    diffs = {q: Mat(groups[q - 1].ngens, 0) for q in range(1, vcap + 1)}
    return external_product(G, dold_kan(ChainComplex(groups, diffs)))


def test_moore_of_circle():
    F = free_abelian(sphere(1, 4))
    mc = moore_complex(F)
    pis = homotopy_groups(F)
    assert pis[1] == (0,)
    assert pis[0] == () and pis[2] == () and pis[3] == ()
    # the Moore term at degree 1 is exactly Z, and vanishes above
    assert mc.complex.groups[1].invariant_factors() == (0,)
    assert mc.complex.groups[0].invariant_factors() == ()
    assert mc.complex.groups[2].invariant_factors() == ()
    assert mc.complex.groups[3].invariant_factors() == ()


def test_moore_of_two_sphere():
    F = free_abelian(sphere(2, 4))
    pis = homotopy_groups(F)
    assert pis[2] == (0,)
    assert pis[0] == () and pis[1] == () and pis[3] == ()


def test_simplex_is_acyclic():
    F = free_abelian(standard_simplex(2, 4))
    pis = homotopy_groups(F)
    assert all(pis[n] == () for n in range(4))


def test_constant_object_concentrated_in_degree_zero():
    A = PresentedGroup.from_factors([6, 0])
    cpx = ChainComplex(
        groups=[A, PresentedGroup.free(0), PresentedGroup.free(0)],
        diffs={1: Mat(2, 0, [[], []]), 2: Mat(0, 0, [])},
    )
    G = dold_kan(cpx, 2)
    pis = homotopy_groups(G)
    assert pis[0] == (6, 0)
    assert pis[1] == ()


def test_zero_object():
    cpx = ChainComplex(groups=[PresentedGroup.free(0)] * 3, diffs={1: Mat(0, 0, []), 2: Mat(0, 0, [])})
    G = dold_kan(cpx, 2)
    assert homotopy_groups(G) == homotopy_groups(G)
    assert all(homotopy_groups(G)[n] == () for n in range(2))


def test_reliable_range_enforced():
    F = free_abelian(sphere(1, 3))
    with pytest.raises(ValueError):
        homotopy_groups(F, degrees=[3])


def test_dold_kan_inverts_homology():
    rng = random.Random(21)
    for _ in range(6):
        cap = rng.choice([2, 3])
        groups = [PresentedGroup.from_factors([rng.choice([0, 2, 3, 4])]) if rng.random() < 0.7 else PresentedGroup.free(0) for _ in range(cap + 1)]
        diffs = {n: Mat(groups[n - 1].ngens, groups[n].ngens) for n in range(1, cap + 1)}
        cpx = ChainComplex(groups=groups, diffs=diffs)
        G = dold_kan(cpx, cap)
        assert verify_identities(G).ok
        pis = homotopy_groups(G)
        for n in range(cap):
            assert pis[n] == groups[n].invariant_factors()


def test_dold_kan_counit_consistency():
    """Extending the face-only restriction freely does not change homotopy."""
    from delooper.delta_core import free_degeneracy_extension

    rng = random.Random(31)
    for _ in range(6):
        W = random_small_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        ext = free_degeneracy_extension(V)
        assert homotopy_groups(ext.object) == homotopy_groups(W)


def test_diagonal_of_vertically_constant():
    F = free_abelian(sphere(1, 3))
    B = constant_vertical(F, 3)
    D = diagonal(B)
    assert verify_identities(D).ok
    assert homotopy_groups(D) == homotopy_groups(F)


def test_diagonal_of_torus_product():
    F = free_abelian(sphere(1, 3))
    B = external_product(F, F)
    assert not B.verify()
    D = diagonal(B)
    pis = homotopy_groups(D)
    assert pis[2] == (0,)
    assert pis[0] == () and pis[1] == ()
    tot = double_moore_total_complex(B)
    assert chain_homology_factors(tot, range(3)) == pis


def test_eilenberg_zilber_randomized():
    rng = random.Random(41)
    for _ in range(5):
        A = random_small_strict_object(rng, 2)
        Bv = random_small_strict_object(rng, 2)
        grid = external_product(A, Bv)
        D = diagonal(grid)
        top = D.cap
        pis = homotopy_groups(D, range(top))
        tot = double_moore_total_complex(grid)
        assert chain_homology_factors(tot, range(top)) == pis


def test_e2_vertically_constant():
    F = free_abelian(sphere(1, 3))
    B = constant_vertical(F, 2)
    page = e2_page(B, smax=2, tmax=1)
    pis = homotopy_groups(F)
    for s in range(3):
        assert page.entries[(s, 0)] == pis[s]
        assert page.entries[(s, 1)] == ()


def test_e2_resolution_collapse():
    rng = random.Random(51)
    B, H, G = random_resolution_grid(rng)
    page = e2_page(B)
    assert page.collapsed
    holds, detail = certify_collapse(B, page)
    assert holds, detail


def test_e2_zero_grid():
    zero = PresentedGroup.free(0)
    cpx = ChainComplex(groups=[zero] * 3, diffs={1: Mat(0, 0, []), 2: Mat(0, 0, [])})
    Z = dold_kan(cpx, 2)
    B = external_product(Z, Z)
    page = e2_page(B)
    assert page.collapsed
    assert all(f == () for f in page.entries.values())


def test_e2_window_bounds():
    F = free_abelian(sphere(1, 2))
    B = constant_vertical(F, 2)
    with pytest.raises(ValueError):
        e2_page(B, smax=2, tmax=2)


def reference_dold_kan(cpx, cap):
    """Gamma(C) written out directly: level n is the sum of C_k over monotone
    surjections [n] ->> [k], and faces act through the epi-mono
    factorization, with the differential on the inclusion that misses the
    top vertex. dold_kan builds it as a free degeneracy extension instead."""
    from delooper.abelian import direct_sum
    from delooper.delta_core import SAb
    from delooper.words import canonical_degeneracy_words

    summands, offsets, levels = [], [], []
    for n in range(cap + 1):
        entry = [(k, w.as_surjection()) for k in range(n, -1, -1) for w in canonical_degeneracy_words(k, n)]
        summands.append(entry)
        offs, tot = {}, 0
        for (k, s) in entry:
            offs[s] = tot
            tot += cpx.groups[k].ngens
        offsets.append(offs)
        levels.append(direct_sum([cpx.groups[k] for (k, _) in entry])[0])

    def epi_mono(f):
        img = sorted(set(f))
        pos = {v: i for i, v in enumerate(img)}
        return tuple(pos[v] for v in f), img

    def write(out, off_t, off_s, block):
        for r in range(block.r):
            for c in range(block.c):
                if block.a[r][c]:
                    out.a[off_t + r][off_s + c] = block.a[r][c]

    faces = {}
    for n in range(1, cap + 1):
        faces[n] = []
        for i in range(n + 1):
            out = Mat(levels[n - 1].ngens, levels[n].ngens)
            for (k, s) in summands[n]:
                tau, img = epi_mono(s[:i] + s[i + 1 :])
                if len(img) - 1 == k:
                    write(out, offsets[n - 1][tau], offsets[n][s], Mat.eye(cpx.groups[k].ngens))
                elif len(img) == k and img == list(range(k)):
                    write(out, offsets[n - 1][tau], offsets[n][s], cpx.diffs[k])
            faces[n].append(out)
    degs = {}
    for n in range(cap):
        degs[n] = []
        for j in range(n + 1):
            out = Mat(levels[n + 1].ngens, levels[n].ngens)
            for (k, s) in summands[n]:
                write(out, offsets[n + 1][s[: j + 1] + s[j:]], offsets[n][s], Mat.eye(cpx.groups[k].ngens))
            degs[n].append(out)
    return SAb(levels, faces, degs, cap)


def gamma_tables(W):
    return (
        [(L.ngens, L.rels.r, L.rels.c, L.rels.a) for L in W.levels],
        {n: [(d.r, d.c, d.a) for d in W.faces[n]] for n in W.faces},
        {n: [(s.r, s.c, s.a) for s in W.degeneracies[n]] for n in W.degeneracies},
    )


def test_dold_kan_equals_the_epi_mono_construction():
    """Gamma as a free degeneracy extension has exactly the levels, faces and
    degeneracies of the direct epi-mono construction, at every cap <= 4,
    on free, torsion and augmented complexes."""
    from delooper.generators import augmented_acyclic_complex, random_acyclic_complex, random_finite_complex

    checked = 0
    for seed in range(20):
        rng = random.Random(seed)
        top = 1 + seed % 4
        for cpx in (
            random_acyclic_complex(top, rng),
            random_finite_complex(top, rng),
            augmented_acyclic_complex(top, rng),
        ):
            for cap in range(cpx.cap + 1):
                assert gamma_tables(dold_kan(cpx, cap)) == gamma_tables(reference_dold_kan(cpx, cap)), (seed, cap)
                checked += 1
    assert checked == 3 * sum(2 + seed % 4 for seed in range(20))


def test_dold_kan_rejects_a_cap_past_the_complex():
    cpx = ChainComplex(groups=[PresentedGroup.free(1)], diffs={})
    with pytest.raises(ValueError):
        dold_kan(cpx, 1)


def test_constant_vertical_is_the_level_repeated():
    F = free_abelian(sphere(1, 3))
    B = constant_vertical(F, 2)
    for p in range(F.cap + 1):
        for q in range(3):
            assert (B.levels[p][q].ngens, B.levels[p][q].rels.a) == (F.levels[p].ngens, F.levels[p].rels.a)
            if p:
                assert [d.a for d in B.h_faces[(p, q)]] == [F.face(p, i).a for i in range(p + 1)]
            if q:
                assert all(d.a == Mat.eye(F.rank(p)).a for d in B.v_faces[(p, q)])
            if q < 2:
                assert all(s.a == Mat.eye(F.rank(p)).a for s in B.v_degs[(p, q)])
    assert not B.verify()


def test_e2_page_builds_one_moore_complex_per_column(monkeypatch):
    """The columns' Moore complexes do not depend on t: one each per page,
    plus one per t for the homotopy of the vertical homotopy object and one
    for the diagonal when the page collapses."""
    from delooper import moore, schemas

    path = os.path.join(os.path.dirname(__file__), "..", "corpus", "resolution.bisab.json")
    grids = [schemas.bisab_from_json(schemas.load(path)), random_resolution_grid(random.Random(51))[0],
             constant_vertical(free_abelian(sphere(1, 3)), 2)]
    calls = []
    build = moore.moore_complex

    def counted(G):
        calls.append(G)
        return build(G)

    monkeypatch.setattr(moore, "moore_complex", counted)
    for B in grids:
        calls.clear()
        page = e2_page(B)
        smax, tmax = page.window
        assert len(calls) == (B.hcap + 1) + (tmax + 1) + page.collapsed


# (family, file key, "p,q", map index, row, column, pinned problem list)
BISAB_PERTURBATIONS = [
    ("hface-vface", "h_faces", "1,1", 0, 0, 0, [
        ("row", 1, "dd at degree 2, indices (0, 1), witness d_0d_1 != d_0d_0 on generator 2"),
        ("hface-vface", (1, 1), "square fails"),
        ("hface-vdeg", (1, 1), "square fails"),
        ("hface-vdeg", (1, 1), "square fails"),
        ("hface-vface", (1, 2), "square fails"),
        ("hface-vface", (1, 2), "square fails"),
        ("hface-vface", (1, 2), "square fails"),
    ]),
    ("hface-vdeg", "v_degeneracies", "0,1", 0, 0, 0, [
        ("column", 0, "ds-id at degree 1, indices (0, 0), witness d_0s_0 fails on generator 0"),
        ("hdeg-vdeg", (0, 1), "square fails"),
        ("hface-vdeg", (1, 1), "square fails"),
        ("hface-vdeg", (1, 1), "square fails"),
    ]),
    ("hdeg-vface", "h_degeneracies", "1,1", 0, 0, 0, [
        ("row", 1, "ds-id at degree 1, indices (0, 0), witness d_0s_0 fails on generator 0"),
        ("hdeg-vface", (1, 1), "square fails"),
        ("hdeg-vdeg", (1, 1), "square fails"),
        ("hdeg-vdeg", (1, 1), "square fails"),
        ("hdeg-vface", (1, 2), "square fails"),
        ("hdeg-vface", (1, 2), "square fails"),
        ("hdeg-vface", (1, 2), "square fails"),
    ]),
    ("hdeg-vdeg", "v_degeneracies", "1,1", 1, 0, 0, [
        ("column", 1, "ds-low at degree 1, indices (0, 1), witness d_0s_1 fails on generator 0"),
        ("hface-vdeg", (1, 1), "square fails"),
        ("hdeg-vdeg", (1, 1), "square fails"),
        ("hdeg-vdeg", (1, 1), "square fails"),
        ("hface-vdeg", (2, 1), "square fails"),
        ("hface-vdeg", (2, 1), "square fails"),
        ("hface-vdeg", (2, 1), "square fails"),
    ]),
    ("row", "h_faces", "2,0", 2, 0, 0, [
        ("row", 0, "dd at degree 2, indices (0, 2), witness d_0d_2 != d_1d_0 on generator 0"),
        ("hface-vdeg", (2, 0), "square fails"),
        ("hface-vface", (2, 1), "square fails"),
        ("hface-vface", (2, 1), "square fails"),
    ]),
    ("column", "v_faces", "0,2", 2, 0, 0, [
        ("column", 0, "dd at degree 2, indices (0, 2), witness d_0d_2 != d_1d_0 on generator 0"),
        ("hdeg-vface", (0, 2), "square fails"),
        ("hface-vface", (1, 2), "square fails"),
        ("hface-vface", (1, 2), "square fails"),
    ]),
]


@pytest.mark.parametrize("family,key,pq,index,row,col,problems", BISAB_PERTURBATIONS,
                         ids=[case[0] for case in BISAB_PERTURBATIONS])
def test_bisimplicial_verify_problems_pinned(family, key, pq, index, row, col, problems):
    """One entry of one map of the grid Delta[1] x Delta[1] (external product
    of the reduced free abelian interval with itself, ranks 1..9) raised by
    one makes verify report the pinned problems, the named family among
    them. (corpus/resolution.bisab.json has no generators at any level, so
    it has no entry to change.)"""
    F = free_abelian(standard_simplex(1, 2))
    data = schemas.bisab_to_json(external_product(F, F))
    assert not schemas.bisab_from_json(data).verify()
    data[key][pq][index][row][col] += 1
    got = schemas.bisab_from_json(data).verify()
    assert got == problems
    assert family in {kind for kind, _, _ in got}


def test_corpus_s1xs1_grid_verifies():
    """corpus/s1xs1.bisab.json, the external product of the reduced free
    abelian S^1 with itself at cap 2, has generators at (1, 1) and passes
    every row and column identity and every commuting square."""
    path = os.path.join(os.path.dirname(__file__), "..", "corpus", "s1xs1.bisab.json")
    B = schemas.bisab_from_json(schemas.load(path))
    assert B.levels[1][1].ngens == 1
    assert B.verify() == []
