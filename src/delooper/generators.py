"""Seeded random objects for the property and acceptance suites.

Strict simplicial abelian groups come from the inverse Dold-Kan applied
to small chain complexes, optionally conjugated by levelwise unimodular
changes of basis so the instances do not expose the summand structure.
Acyclic complexes built from invertible cones give exactly the
Reedy-fibrant inputs the degeneracy synthesis expects.
"""

from __future__ import annotations

import math

from .abelian import PresentedGroup
from .delta_core import SAb
from .intlin import Mat, add_block
from .moore import ChainComplex, dold_kan, external_product
from .synthesis import HomotopyDegeneracyData, boundary_matrix


def random_unimodular(n, rng, steps=6):
    """(A, A^-1) for a product A of random elementary column operations;
    the row operation undoing each one keeps the inverse."""
    A, Ainv = Mat.eye(n), Mat.eye(n)
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for r in range(n):
            A.a[r][j] += c * A.a[r][i]
        Ainv.a[i] = [x - c * y for x, y in zip(Ainv.a[i], Ainv.a[j])]
    return A, Ainv


def random_acyclic_complex(cap, rng, max_rank=2, max_cones=3):
    """Exact complex of free groups: a sum of cones with unimodular maps,
    twisted by a change of basis in every degree."""
    cones = []
    for _ in range(rng.randint(1, max_cones)):
        m = rng.randint(1, cap)
        r = rng.randint(1, max_rank)
        cones.append((m, r))
    top_rank = [0] * (cap + 2)
    for (m, r) in cones:
        top_rank[m] += r
    ranks = [top_rank[m] + top_rank[m + 1] for m in range(cap + 1)]
    diffs = {}
    for m in range(1, cap + 1):
        D = Mat(ranks[m - 1], ranks[m])
        off_used = 0
        boff = top_rank[m - 1]
        for (cm, r) in cones:
            if cm != m:
                continue
            U, _ = random_unimodular(r, rng, steps=3)
            add_block(D, boff, off_used, U)
            off_used += r
            boff += r
        diffs[m] = D
    P, Pinv = zip(*[random_unimodular(ranks[m], rng, steps=5) for m in range(cap + 1)])
    for m in range(1, cap + 1):
        diffs[m] = (P[m - 1] @ diffs[m]) @ Pinv[m]
    return ChainComplex(groups=[PresentedGroup.free(r) for r in ranks], diffs=diffs)


def random_finite_complex(cap, rng, orders=(2, 3, 4), max_terms=2):
    """Chain complex of finite cyclic groups with zero differentials; its
    inverse Dold-Kan has finite levels with prescribed homotopy."""
    groups = []
    for m in range(cap + 1):
        if rng.random() < 0.6:
            groups.append(PresentedGroup.cyclic(rng.choice(orders)))
        else:
            groups.append(PresentedGroup.free(0))
    diffs = {m: Mat(groups[m - 1].ngens, groups[m].ngens) for m in range(1, cap + 1)}
    return ChainComplex(groups=groups, diffs=diffs)


def conjugate_simplicial(W, rng, steps=5):
    """Conjugate a strict object by levelwise unimodular automorphisms."""
    T, Tinv = zip(*[random_unimodular(W.rank(n), rng, steps=steps) for n in range(W.cap + 1)])
    faces = {n: [(T[n - 1] @ W.face(n, i)) @ Tinv[n] for i in range(n + 1)] for n in range(1, W.cap + 1)}
    degs = {n: [(T[n + 1] @ W.degeneracy(n, j)) @ Tinv[n] for j in range(n + 1)] for n in range(0, W.cap)}
    return SAb(W.levels, faces, degs, W.cap)


def random_fibrant_strict_object(rng, cap, rank_limit=6, twist=True):
    """A strict simplicial abelian group, acyclic in the reliable range,
    with every level rank at most rank_limit."""
    while True:
        cpx = random_acyclic_complex(cap, rng, max_rank=2, max_cones=3)
        level_ranks = _gamma_ranks(cpx, cap)
        if max(level_ranks) <= rank_limit and max(level_ranks) > 0:
            break
    W = dold_kan(cpx, cap)
    if twist:
        W = conjugate_simplicial(W, rng)
    return W


def _gamma_ranks(cpx, cap):
    out = []
    for n in range(cap + 1):
        out.append(sum(math.comb(n, k) * cpx.groups[k].ngens for k in range(n + 1)))
    return out


def perturb_degeneracies(W, rng, magnitude=1):
    """Candidates s'_j = s_j + boundary . A + B . boundary, the
    chain-homotopic perturbation used in round-trip tests."""
    maps = {}
    for n in range(W.cap):
        row = []
        for j in range(n + 1):
            X = W.degeneracy(n, j).copy()
            if n + 2 <= W.cap:
                A = Mat(
                    W.rank(n + 2),
                    W.rank(n),
                    [[rng.choice([-magnitude, 0, 0, magnitude]) for _ in range(W.rank(n))] for _ in range(W.rank(n + 2))],
                )
                X = X + boundary_matrix(W, n + 2) @ A
            if n >= 1:
                B = Mat(
                    W.rank(n + 1),
                    W.rank(n - 1),
                    [[rng.choice([-magnitude, 0, 0, magnitude]) for _ in range(W.rank(n - 1))] for _ in range(W.rank(n + 1))],
                )
                X = X + B @ boundary_matrix(W, n)
            row.append(X)
        maps[n] = row
    return HomotopyDegeneracyData(maps=maps)


def augmented_acyclic_complex(cap, rng, base_rank=1, max_cones=2):
    """Free complex with homology Z^base_rank in degree 0 and none above;
    the chain-level model of a resolution of a free group."""
    acyclic = random_acyclic_complex(cap, rng, max_rank=1, max_cones=max_cones)
    groups = [PresentedGroup.free(acyclic.groups[0].ngens + base_rank)] + acyclic.groups[1:]
    diffs = {}
    for m in range(1, cap + 1):
        D = acyclic.diffs[m]
        if m == 1:
            padded = Mat(groups[0].ngens, D.c)
            for r in range(D.r):
                for c in range(D.c):
                    padded.a[r][c] = D.a[r][c]
            diffs[1] = padded
        else:
            diffs[m] = D
    cpx = ChainComplex(groups=groups, diffs=diffs)
    P, Pinv = zip(*[random_unimodular(g.ngens, rng, steps=4) for g in groups])
    for m in range(1, cap + 1):
        cpx.diffs[m] = (P[m - 1] @ cpx.diffs[m]) @ Pinv[m]
    return cpx


def random_resolution_grid(rng, hcap=2, vcap=2, rank_limit=8):
    """Bisimplicial grid whose rows resolve a free group: the external
    product of an augmented-acyclic horizontal object with a finite
    vertical object. Its levelwise-homotopy page is concentrated in the
    base column."""
    while True:
        ch = augmented_acyclic_complex(hcap, rng, base_rank=rng.randint(1, 2))
        if max(_gamma_ranks(ch, hcap)) <= rank_limit // 2:
            break
    cv = random_finite_complex(vcap, rng)
    H = dold_kan(ch, hcap)
    G = dold_kan(cv, vcap)
    return external_product(H, G), H, G


def random_small_strict_object(rng, cap, rank_limit=5, torsion=False):
    """A strict object with arbitrary small homotopy (not necessarily
    fibrant); used by identity and Moore property tests."""
    while True:
        if torsion:
            cpx = random_finite_complex(cap, rng)
        else:
            ranks = [rng.randint(0, 2) for _ in range(cap + 1)]
            diffs = {}
            groups = [PresentedGroup.free(r) for r in ranks]
            ok = True
            for m in range(1, cap + 1):
                D = Mat(ranks[m - 1], ranks[m], [[rng.randint(-2, 2) for _ in range(ranks[m])] for _ in range(ranks[m - 1])])
                diffs[m] = D
            for m in range(2, cap + 1):
                if not (diffs[m - 1] @ diffs[m]).is_zero():
                    ok = False
            if not ok:
                continue
            cpx = ChainComplex(groups=groups, diffs=diffs)
        ranks = _gamma_ranks(cpx, cap)
        if 0 < max(ranks) <= rank_limit:
            return dold_kan(cpx, cap)
