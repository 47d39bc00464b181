"""Acceptance criteria, one test per criterion, each printing a PASS line
with its wall-clock time (run with -s to see them)."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from delooper.abelian import PresentedGroup
from delooper.delta_core import (
    free_degeneracy_extension,
    matching_object,
    underlying_delta,
    verify_identities,
)
from delooper.generators import (
    perturb_degeneracies,
    random_fibrant_strict_object,
    random_resolution_grid,
    random_small_strict_object,
)
from delooper.intlin import Mat
from delooper.moore import (
    certify_collapse,
    chain_homology_factors,
    diagonal,
    double_moore_total_complex,
    e2_page,
    homotopy_groups,
)
from delooper.permutohedron import build_permutohedron
from delooper.pi_algebra import (
    DeloopResult,
    FragmentMap,
    Obstruction,
    default_table,
    deloop,
    eta_chain_fragment,
    fragments_equal,
    free_fragment,
    loop_space_s3_fragment,
    retract_complement,
    reverify_obstruction,
)
from delooper.simplicial import BASE, enumerate_pointed_maps, sphere, standard_simplex
from delooper.star import (
    AbelianTarget,
    TargetMap,
    check_condition_star,
    check_functoriality,
    identity_hom,
    induced_hom,
    milnor_F,
    power_hom,
    star,
)
from delooper.synthesis import HomotopyDegeneracyData, synthesize
from delooper.words import FaceWord, all_face_words

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _passline(name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"[PASS] {name}: {elapsed:.2f}s (budget {budget}s)")


def test_criterion_1_delooping_obstruction():
    started = time.time()
    table = default_table()
    G = eta_chain_fragment()
    result = deloop(G, table)
    assert isinstance(result, Obstruction)
    # the witness congruence: 0 = 6*(alpha # xbar) != (6 alpha) # xbar
    assert result.degree == 6
    assert result.table_row == (3, 6)
    assert "6*a3" in result.relation
    assert "[1]" in result.relation  # the forced nonzero value in Z/2
    assert "Z/2" in result.relation
    assert reverify_obstruction(result, G, table)
    # the CLI surface exits 1 on the bundled fragment file
    r = subprocess.run(
        [sys.executable, "-m", "delooper.cli", "deloop", "corpus/eta_chain.pialg.json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "obstruction" and rep["degree"] == 6
    _passline("criterion 1 (delooping obstruction on the eta-chain fragment)", started, 1.0 + 2.0)


def test_criterion_1_timing_library_only():
    # the stated budget applies to the detection itself
    table = default_table()
    G = eta_chain_fragment()
    started = time.time()
    result = deloop(G, table)
    assert isinstance(result, Obstruction)
    _passline("criterion 1 timing (library call)", started, 1.0)


def test_criterion_2_delooping_soundness():
    table = default_table()
    G = loop_space_s3_fragment()
    started = time.time()
    result = deloop(G, table)
    assert isinstance(result, DeloopResult)
    bundled = free_fragment([("s", 3)], table, (3, 6))
    assert fragments_equal(result.fragment, bundled, table)
    _passline("criterion 2 (deloop of loop-space fragment = bundled rows)", started, 1.0)


def test_criterion_3_permutohedron_counts():
    started = time.time()
    for k in range(0, 7):
        lattice = build_permutohedron(k)
        assert len(lattice.vertices()) == math.factorial(k + 1)
        expected_chi = 0 if k == 0 else 1 + (-1) ** (k - 1)
        assert lattice.boundary_euler_characteristic() == expected_chi
    # exhaustive factorization counts: every word of length <= 6, source <= 8
    total_words = 0
    for n in range(0, 9):
        for length in range(1, min(6, n + 1) + 1):
            by_class = {}
            for w in all_face_words(n, length):
                by_class.setdefault(w.deleted_vertices(), []).append(w)
            for deleted, words in by_class.items():
                closure = words[0].factorizations()
                assert len(closure) == math.factorial(length)
                assert {w.letters for w in words} == {w.letters for w in closure}
                total_words += len(words)
    assert total_words > 100000
    _passline(f"criterion 3 (permutohedron counts; {total_words} words exhaustive)", started, 60.0)


def _finite_abelian_target(rng, cap):
    from delooper.moore import ChainComplex, dold_kan

    while True:
        groups = []
        for m in range(cap + 1):
            r = rng.random()
            if r < 0.45:
                groups.append(PresentedGroup.cyclic(rng.choice([2, 3, 4])))
            else:
                groups.append(PresentedGroup.free(0))
        if all(g.ngens == 0 for g in groups):
            continue
        diffs = {m: Mat(groups[m - 1].ngens, groups[m].ngens) for m in range(1, cap + 1)}
        K = dold_kan(ChainComplex(groups=groups, diffs=diffs), cap)
        orders = [K.levels[n].order() for n in range(cap + 1)]
        if all(o is not None and o <= 64 for o in orders):
            return AbelianTarget(K)


def _random_target_map(rng, A, K):
    nondeg = {n: [x for x in A.nondegenerate(n) if x != BASE] for n in range(A.cap + 1)}

    def rec(n, tables):
        if n > A.cap:
            return [dict(t) for t in tables]
        table = {BASE: K.identity(n)}
        if n > 0:
            for j in range(n):
                for x in A.elements[n - 1]:
                    table[A.degeneracy(n - 1, j, x)] = K.degeneracy(n - 1, j, tables[n - 1][x])
        for x in nondeg[n]:
            options = []
            for y in K.elements(n):
                ok = True
                if n > 0:
                    for i in range(n + 1):
                        if tables[n - 1][A.face(n, i, x)] != K.face(n, i, y):
                            ok = False
                            break
                if ok:
                    options.append(y)
            if not options:
                return None
            table[x] = rng.choice(options)
        return rec(n + 1, tables + [table])

    tables = rec(0, [])
    if tables is None:
        return None
    tm = TargetMap(src=A, target=K, tables=tables)
    return tm if tm.is_valid() else None


def test_criterion_4_condition_star_and_functoriality():
    started = time.time()
    rng = random.Random(20260810)
    cap_choices = [2, 3]
    bases = {c: (sphere(1, c), standard_simplex(1, c)) for c in cap_choices}
    endos = {}
    for c in cap_choices:
        for M in bases[c]:
            F = milnor_F(M)
            pool = [identity_hom(F), power_hom(F, 2), power_hom(F, -1), power_hom(F, 3)]
            pool += [induced_hom(F, F, e) for e in enumerate_pointed_maps(M, M)]
            pool += [a.compose(b) for a in pool[:3] for b in pool[:2]]
            endos[(c, id(M))] = (F, pool)
    instances = 0
    while instances < 500:
        cap = rng.choice(cap_choices)
        A = rng.choice(bases[cap])
        F, pool = endos[(cap, id(A))]
        K = _finite_abelian_target(rng, cap)
        h = _random_target_map(rng, A, K)
        if h is None:
            continue
        f = rng.choice(pool)
        g = rng.choice(pool)
        e = rng.choice(pool)
        ok, witness = check_condition_star(f, g, h, K)
        assert ok, f"condition (*) failed: {witness}"

        class Scale:
            def __init__(self, k):
                self.k = k

            def __call__(self, n, x):
                return K.canon(n, [self.k * v for v in x])

        assert check_functoriality(e, f, h, Scale(rng.choice([0, 1, 2, 3])), K, K)
        instances += 1
    _passline(f"criterion 4 (associativity-condition converse, {instances} instances)", started, 120.0)


def test_criterion_5_fact_3_3_exact():
    started = time.time()
    cap = 3
    models = [sphere(1, cap), standard_simplex(1, cap)]
    from delooper.moore import ChainComplex, dold_kan

    groups = [PresentedGroup.free(0), PresentedGroup.cyclic(4), PresentedGroup.cyclic(2), PresentedGroup.free(0)]
    diffs = {m: Mat(groups[m - 1].ngens, groups[m].ngens) for m in range(1, cap + 1)}
    K = AbelianTarget(dold_kan(ChainComplex(groups=groups, diffs=diffs), cap))
    rng = random.Random(7)
    checked = 0
    for A in models:
        for B in models:
            FA, FB = milnor_F(A), milnor_F(B)
            maps_ab = enumerate_pointed_maps(A, B)
            target_maps = [m for m in (_random_target_map(rng, B, K) for _ in range(6)) if m is not None]
            if not target_maps:
                continue
            for abar in maps_ab:
                F_abar = induced_hom(FA, FB, abar)
                for g in target_maps:
                    st = star(F_abar, g, K)
                    for n in range(cap + 1):
                        for a in FA.generators(n):
                            assert st(n, a) == g(n, abar(n, a))
                            checked += 1
    assert checked >= 100
    _passline(f"criterion 5 (derived composition vs composite, {checked} values)", started, 30.0)


def test_criterion_6_synthesis_round_trips():
    started = time.time()
    count = 0
    for seed in range(100):
        rng = random.Random(31000 + seed)
        cap = rng.choice([2, 2, 3, 3, 4])
        W = random_fibrant_strict_object(rng, cap, rank_limit=6)
        assert max(W.rank(n) for n in range(cap + 1)) <= 6
        V = underlying_delta(W)
        reference = homotopy_groups(W)

        exact = HomotopyDegeneracyData.from_simplicial(W)
        res1 = synthesize(V, exact)
        rep1 = verify_identities(res1.object)
        assert rep1.ok, rep1.violations
        assert homotopy_groups(res1.object) == reference

        perturbed = perturb_degeneracies(W, rng)
        res2 = synthesize(V, perturbed)
        rep2 = verify_identities(res2.object)
        assert rep2.ok, rep2.violations
        assert homotopy_groups(res2.object) == reference
        count += 1
    assert count >= 100
    _passline(f"criterion 6 (synthesis round trips, {count} objects x2)", started, 300.0)


def test_criterion_7_spectral_collapse_and_ez():
    started = time.time()
    count = 0
    for seed in range(50):
        rng = random.Random(41000 + seed)
        B, H, G = random_resolution_grid(rng)
        page = e2_page(B)
        assert page.collapsed, f"seed {seed}: positive columns present"
        holds, detail = certify_collapse(B, page)
        assert holds, f"seed {seed}: {detail}"
        D = diagonal(B)
        top = min(page.window[1], D.cap - 1)
        pis = homotopy_groups(D, range(top + 1))
        tot = double_moore_total_complex(B)
        assert chain_homology_factors(tot, range(top + 1)) == pis, f"seed {seed}: EZ mismatch"
        count += 1
    assert count >= 50
    _passline(f"criterion 7 (collapse + Eilenberg-Zilber, {count} grids)", started, 300.0)


def test_criterion_8_unit_facts():
    started = time.time()
    # matching at degree 1 is always the square of level 0
    rng = random.Random(88)
    for _ in range(15):
        W = random_small_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        mo = matching_object(V, 1)
        doubled = list(V.levels[0].invariant_factors()) * 2
        tors = sorted(d for d in doubled if d != 0)
        frees = [0] * doubled.count(0)
        assert mo.group.invariant_factors() == tuple(tors + frees)
    # free degeneracy extensions always verify
    for _ in range(10):
        W = random_small_strict_object(rng, rng.choice([2, 3]))
        V = underlying_delta(W)
        ext = free_degeneracy_extension(V)
        assert verify_identities(ext.object).ok
    # retract complements on an exhaustive corpus of free fragments
    table = default_table()
    dims_pool = [3, 5]
    cases = 0
    for nb in range(1, 4):
        for dims_b in itertools.combinations_with_replacement(dims_pool, nb):
            for na in range(0, nb + 1):
                for sub in itertools.combinations(range(nb), na):
                    dims_a = [dims_b[i] for i in sub]
                    A = free_fragment([(f"a{i}", d) for i, d in enumerate(dims_a)], table, (3, 9))
                    B = free_fragment([(f"b{i}", d) for i, d in enumerate(dims_b)], table, (3, 9))
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
                            r_images[(d, f"b{j}")] = A.generator_vector(d, f"a{used.index(j)}.i{d}")
                        else:
                            r_images[(d, f"b{j}")] = [0] * A.group(d).ngens
                    r_map = FragmentMap(src=B, dst=A, images=r_images)
                    comp = retract_complement(i_map, r_map)
                    got = sorted((d, n) for d, names in comp.items() for n in names)
                    expected = sorted((dims_b[j], f"b{j}") for j in range(nb) if j not in used)
                    assert got == expected
                    cases += 1
    assert cases >= 20
    _passline(f"criterion 8 (unit facts; {cases} retract cases)", started, 60.0)
