import collections
import functools
import itertools
import math
import operator
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delooper import intlin
from delooper.abelian import PresentedGroup
from delooper.delta_core import SAb
from delooper.generators import random_small_strict_object
from delooper.intlin import Mat
from delooper.moore import ChainComplex, dold_kan
from delooper.permutohedron import ResourceError
from delooper.simplicial import BASE, enumerate_pointed_maps, sphere, standard_simplex, zero_sphere
from delooper.star import (
    PRACTICAL_LEVEL_ORDER,
    AbelianTarget,
    FiniteGroupLevel,
    FiniteGroupTarget,
    GroupHomMap,
    TargetMap,
    check_condition_star,
    check_functoriality,
    codiscrete_target,
    conjugation_hom,
    identity_hom,
    induced_hom,
    is_strictly_multiplicative,
    milnor_F,
    power_hom,
    retraction_mbar,
    star,
    word_inv,
    word_mul,
    word_reduce,
)


def cyclic_target(orders):
    """Inverse Dold-Kan of Z/c_0 -> Z/c_1 -> ... with zero differentials
    (c = 0 meaning the zero group), the targets of acceptance criterion 4."""
    groups = [PresentedGroup.cyclic(c) if c else PresentedGroup.free(0) for c in orders]
    cap = len(orders) - 1
    diffs = {m: Mat(groups[m - 1].ngens, groups[m].ngens) for m in range(1, cap + 1)}
    return AbelianTarget(dold_kan(ChainComplex(groups=groups, diffs=diffs), cap))


def loop_target(order, cap, degree=1):
    return cyclic_target([order if m == degree else 0 for m in range(cap + 1)])


# criterion 4's target shapes: caps 2 and 3, chain groups 0, Z/2, Z/3 or
# Z/4, not all zero, every level of order at most 64
CRITERION_4_SHAPES = [
    orders
    for cap in (2, 3)
    for orders in itertools.product((0, 2, 3, 4), repeat=cap + 1)
    if any(orders)
    and all(math.prod(c ** math.comb(n, m) for m, c in enumerate(orders[: n + 1]) if c) <= 64 for n in range(cap + 1))
]


@functools.cache
def s3_target():
    """The codiscrete target of the symmetric group S_3, cap 2."""
    elems = ["e", "r", "rr", "s", "sr", "srr"]
    perm = {"e": (0, 1, 2), "r": (1, 2, 0), "rr": (2, 0, 1), "s": (0, 2, 1), "sr": (2, 1, 0), "srr": (1, 0, 2)}
    names = {v: k for k, v in perm.items()}
    mult = {(a, b): names[tuple(perm[a][perm[b][i]] for i in range(3))] for a in elems for b in elems}
    inv = {a: next(b for b in elems if mult[(a, b)] == "e") for a in elems}
    return codiscrete_target(elems, mult, inv, "e", 2)


def all_target_maps(A, K):
    out = []
    nondeg = {n: [x for x in A.nondegenerate(n) if x != BASE] for n in range(A.cap + 1)}

    def rec(n, tables):
        if n > A.cap:
            tm = TargetMap(src=A, target=K, tables=[dict(t) for t in tables])
            if tm.is_valid():
                out.append(tm)
            return
        table = {BASE: K.identity(n)}
        if n > 0:
            for j in range(n):
                for x in A.elements[n - 1]:
                    table[A.degeneracy(n - 1, j, x)] = K.degeneracy(n - 1, j, tables[n - 1][x])
        cells = nondeg[n]

        def choose(idx, tbl):
            if idx == len(cells):
                rec(n + 1, tables + [tbl])
                return
            x = cells[idx]
            for y in K.elements(n):
                ok = True
                if n > 0:
                    for i in range(n + 1):
                        if tables[n - 1][A.face(n, i, x)] != K.face(n, i, y):
                            ok = False
                            break
                if ok:
                    t2 = dict(tbl)
                    t2[x] = y
                    choose(idx + 1, t2)

        choose(0, table)

    rec(0, [])
    return out


def test_word_arithmetic():
    assert word_reduce([("a", 1), ("a", -1)]) == ()
    assert word_mul((("a", 1),), (("a", -1), ("b", 1))) == (("b", 1),)
    w = (("a", 1), ("b", -1))
    assert word_mul(w, word_inv(w)) == ()


def test_milnor_f_ranks():
    FS0 = milnor_F(zero_sphere(3))
    assert [len(FS0.generators(n)) for n in range(4)] == [1, 1, 1, 1]
    FS1 = milnor_F(sphere(1, 3))
    assert [len(FS1.generators(n)) for n in range(4)] == [0, 1, 2, 3]
    Fpt = milnor_F(standard_simplex(0, 2))
    assert all(len(Fpt.generators(n)) == 0 for n in range(3))


def test_mbar_evaluation():
    K = loop_target(5, 2)
    x = next(v for v in K.elements(1) if v != K.identity(1))
    assert retraction_mbar(K, 1, [(x, 1)]) == x
    assert retraction_mbar(K, 1, []) == K.identity(1)
    triple = retraction_mbar(K, 1, [(x, 1), (x, 1), (x, 1)])
    assert triple == K.canon(1, [3 * v for v in x])


def test_mbar_retracts_generators():
    """m-bar composed with the generator inclusion is the identity."""
    cap = 2
    K = loop_target(4, cap)
    for n in range(cap + 1):
        for x in K.elements(n):
            assert retraction_mbar(K, n, [(x, 1)]) == x


def test_mbar_nonabelian_fold():
    elems = ["e", "r", "rr"]
    mult = {}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mult[(a, b)] = elems[(i + j) % 3]
    inv = {"e": "e", "r": "rr", "rr": "r"}
    K = codiscrete_target(elems, mult, inv, "e", 2)
    assert K.verify() is None
    a = ("r", "e")
    b = ("rr", "r")
    assert retraction_mbar(K, 1, [(a, 1), (b, 1)]) == ("e", "r")
    assert retraction_mbar(K, 1, [(a, -1)]) == ("rr", "e")


def test_fact_3_3_exact_on_model_corpus():
    """star(F(abar), g) = g . abar for every simplicial map between the
    circle and interval models and every target map."""
    cap = 3
    models = {"S1": sphere(1, cap), "D1": standard_simplex(1, cap)}
    K = loop_target(4, cap)
    target_maps = {name: all_target_maps(M, K) for name, M in models.items()}
    checked = 0
    for name_a, A in models.items():
        for name_b, B in models.items():
            FA, FB = milnor_F(A), milnor_F(B)
            for abar in enumerate_pointed_maps(A, B):
                F_abar = induced_hom(FA, FB, abar)
                assert F_abar.is_valid()
                for g in target_maps[name_b]:
                    st = star(F_abar, g, K)
                    for n in range(cap + 1):
                        for a in FA.generators(n):
                            assert st(n, a) == g(n, abar(n, a))
                            checked += 1
    assert checked > 50


def test_star_identity_hom_is_identity():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    K = loop_target(6, cap)
    for g in all_target_maps(S1, K):
        st = star(identity_hom(F), g, K)
        for n in range(cap + 1):
            for a in F.generators(n):
                assert st(n, a) == g(n, a)


def test_star_power_map_gives_multiples():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    K = loop_target(6, cap)
    g = next(m for m in all_target_maps(S1, K) if any(m(1, x) != K.identity(1) for x in F.generators(1)))
    st = star(power_hom(F, 2), g, K)
    for n in range(cap + 1):
        for a in F.generators(n):
            v = g(n, a)
            assert st(n, a) == K.mul(n, v, v)


def test_condition_star_strict_targets():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    K = loop_target(4, cap)
    maps = all_target_maps(S1, K)
    homs = [identity_hom(F), power_hom(F, 2), power_hom(F, -1)]
    homs += [induced_hom(F, F, e) for e in enumerate_pointed_maps(S1, S1)]
    for f in homs:
        for g in homs:
            for h in maps:
                ok, witness = check_condition_star(f, g, h, K)
                assert ok, witness


def test_condition_star_nonabelian():
    K = s3_target()
    D1 = standard_simplex(1, 2)
    F = milnor_F(D1)
    maps = all_target_maps(D1, K)
    assert len(maps) == 6
    for f in (identity_hom(F), power_hom(F, 2)):
        for h in maps:
            ok, witness = check_condition_star(f, identity_hom(F), h, K)
            assert ok, witness


def test_free_functor_is_functorial():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    ident = identity_hom(F)
    endos = enumerate_pointed_maps(S1, S1)
    for abar in endos:
        for bbar in endos:
            Fa = induced_hom(F, F, abar)
            Fb = induced_hom(F, F, bbar)
            comp_tables = [
                {x: bbar(n, abar(n, x)) for x in S1.elements[n]} for n in range(cap + 1)
            ]
            from delooper.simplicial import SimplicialSetMap

            Fba = induced_hom(F, F, SimplicialSetMap(S1, S1, comp_tables))
            composite = Fb.compose(Fa)
            for n in range(cap + 1):
                for g in F.generators(n):
                    assert composite.apply(n, ((g, 1),)) == Fba.apply(n, ((g, 1),))
    for n in range(cap + 1):
        for g in F.generators(n):
            assert ident.apply(n, ((g, 1),)) == ((g, 1),)


def test_conjugation_hom_valid_on_pointed_interval():
    D1 = standard_simplex(1, 2)
    F = milnor_F(D1)
    v = F.generators(0)[0]
    c = conjugation_hom(F, ((v, 1),))
    assert c.is_valid()


def test_functoriality_identities():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    K = loop_target(4, cap)
    L = loop_target(4, cap)
    maps = all_target_maps(S1, K)

    class Scale:
        def __init__(self, k):
            self.k = k

        def __call__(self, n, x):
            return K.canon(n, [self.k * v for v in x])

    h = Scale(3)
    for e in (identity_hom(F), power_hom(F, 2)):
        for f in (identity_hom(F), power_hom(F, -1)):
            for g in maps[:3]:
                assert check_functoriality(e, f, g, h, K, L)


def test_functoriality_rejects_non_multiplicative():
    cap = 2
    S1 = sphere(1, cap)
    F = milnor_F(S1)
    K = loop_target(5, cap)
    maps = all_target_maps(S1, K)

    class Shift:
        def __call__(self, n, x):
            # translation by a fixed nonzero element is not multiplicative
            e = list(K.identity(n))
            if n == 1:
                nonzero = next(v for v in K.elements(1) if v != K.identity(1))
                return K.mul(1, x, nonzero)
            return x

    ok, _ = is_strictly_multiplicative(Shift(), K, K)
    assert not ok
    with pytest.raises(ValueError):
        check_functoriality(identity_hom(F), identity_hom(F), maps[0], Shift(), K, K)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(CRITERION_4_SHAPES), st.integers(0, 10**6))
def test_smith_coordinates_agree_with_generator_coordinates(orders, seed):
    """Every operation on Smith-coordinate tuples, read back in generator
    coordinates, is the same operation done on generator vectors."""
    K = cyclic_target(orders)
    levels = K.sab.levels
    rng = random.Random(seed)
    for n in range(K.cap + 1):
        G = levels[n]
        elements = K.elements(n)
        assert elements == [G.canon(v) for v in G.elements()]
        assert len(set(elements)) == len(elements) == G.order()
        assert K.identity(n) == K.from_generators(n, G.zero())
        for _ in range(6):
            a, b = rng.choice(elements), rng.choice(elements)
            va, vb = K.to_generators(n, a), K.to_generators(n, b)
            assert K.from_generators(n, va) == a
            assert K.to_generators(n, K.mul(n, a, b)) == G.canon_vector([x + y for x, y in zip(va, vb)])
            assert K.to_generators(n, K.inv(n, a)) == G.canon_vector([-x for x in va])
            assert K.canon(n, [3 * x for x in a]) == K.from_generators(n, [3 * x for x in va])
            for i in range(n + 1 if n else 0):
                face = K.sab.face(n, i).apply(va)
                assert K.to_generators(n - 1, K.face(n, i, a)) == levels[n - 1].canon_vector(face)
            for j in range(n + 1 if n < K.cap else 0):
                degeneracy = K.sab.degeneracy(n, j).apply(va)
                assert K.to_generators(n + 1, K.degeneracy(n, j, a)) == levels[n + 1].canon_vector(degeneracy)


def all_pairs_multiplicative(h, K, L):
    """The definition: h(ab) = h(a)h(b) for every pair, levelwise."""
    for n in range(K.cap + 1):
        elements = K.elements(n)
        for a in elements:
            for b in elements:
                if h(n, K.mul(n, a, b)) != L.mul(n, h(n, a), h(n, b)):
                    return False
    return True


def power(K, n, x, k):
    y = K.identity(n)
    for _ in range(abs(k)):
        y = K.mul(n, y, x)
    return y if k >= 0 else K.inv(n, y)


MAP_KINDS = ["scale", "scale-one-changed", "translate", "conjugate", "move-identity"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_generator_check_agrees_with_all_pairs(data):
    """is_strictly_multiplicative, which tests pairs (a, generator), gives
    the all-pairs verdict, and any witness pair really fails."""
    kind = data.draw(st.sampled_from(MAP_KINDS))
    if kind == "move-identity":
        # only an order-1 level can hide a moved identity from the pairs
        # (a, g): it has no generators
        K = cyclic_target(data.draw(st.sampled_from([o for o in CRITERION_4_SHAPES if o[0] == 0])))
        L = cyclic_target((2,) * (K.cap + 1))
        tables = [{x: L.identity(n) for x in K.elements(n)} for n in range(K.cap + 1)]
        tables[0][K.identity(0)] = L.elements(0)[1]
    else:
        orders = data.draw(st.sampled_from(CRITERION_4_SHAPES + [None]))
        K = L = s3_target() if orders is None else cyclic_target(orders)
        tables = []
        for n in range(K.cap + 1):
            elements = K.elements(n)
            pick = data.draw(st.integers(0, len(elements) - 1))
            if kind in ("scale", "scale-one-changed"):
                k = data.draw(st.integers(-1, 3))
                table = {x: power(K, n, x, k) for x in elements}
            elif kind == "translate":
                table = {x: K.mul(n, x, elements[pick]) for x in elements}
            else:
                c = elements[pick]
                table = {x: K.mul(n, K.mul(n, c, x), K.inv(n, c)) for x in elements}
            tables.append(table)
        if kind == "scale-one-changed":
            n = data.draw(st.integers(0, K.cap))
            elements = K.elements(n)
            x, y = data.draw(st.lists(st.sampled_from(elements), min_size=2, max_size=2))
            tables[n][x] = y
    def h(n, x):
        return tables[n][x]

    ok, witness = is_strictly_multiplicative(h, K, L)
    assert ok == all_pairs_multiplicative(h, K, L)
    if kind == "move-identity":
        assert witness == (0, K.identity(0), K.identity(0))
    if not ok:
        n, a, b = witness
        assert h(n, K.mul(n, a, b)) != L.mul(n, h(n, a), h(n, b))
        assert b in K.generators(n) or a == b == K.identity(n)


def test_generators_generate_every_level():
    targets = [cyclic_target(orders) for orders in CRITERION_4_SHAPES] + [s3_target()]
    for K in targets:
        for n in range(K.cap + 1):
            gens = K.generators(n)
            span = {K.identity(n)}
            frontier = list(span)
            while frontier:
                frontier = [y for y in {K.mul(n, a, g) for a in frontier for g in gens} if y not in span]
                span.update(frontier)
            assert span == set(K.elements(n))
            if isinstance(K, AbelianTarget):
                assert len(gens) == sum(d != 1 for d in K._moduli[n])
    assert [len(s3_target().generators(n)) for n in range(3)] == [2, 4, 6]


def magma(k, products):
    """A multiplication on 0..k-1 with identity 0 and the other products
    from the list; each element gets a right inverse, forced if need be."""
    mult = {(a, b): a + b if 0 in (a, b) else products[(a - 1) * (k - 1) + b - 1] for a in range(k) for b in range(k)}
    inverse = {0: 0}
    for a in range(1, k):
        inverse[a] = next((b for b in range(k) if mult[(a, b)] == 0), a)
        mult[(a, inverse[a])] = 0
    return FiniteGroupLevel(elements=list(range(k)), mult=mult, inverse=inverse, identity=0)


def all_triples_group(G):
    els, m, e = G.elements, G.mult, G.identity
    if any(m[(a, e)] != a or m[(e, a)] != a or m[(a, G.inverse[a])] != e for a in els):
        return False
    return all(m[(m[(a, b)], c)] == m[(a, m[(b, c)])] for a in els for b in els for c in els)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=(k - 1) ** 2, max_size=(k - 1) ** 2))))
@example((4, [2, 3, 0, 3, 0, 1, 0, 1, 2]))  # Z/4
@example((4, [0, 3, 2, 3, 0, 1, 2, 1, 0]))  # Klein four-group
@example((3, [2, 0, 0, 1]))  # Z/3
@example((3, [0, 1, 2, 0]))  # identity and inverses, (1*1)*2 = 2 != 1*(1*2) = 0
def test_light_associativity_test_agrees_with_all_triples(case):
    G = magma(*case)
    assert G.check() == all_triples_group(G)


def test_level_order_bound_fails_fast():
    started = time.perf_counter()
    assert len(cyclic_target((PRACTICAL_LEVEL_ORDER,)).elements(0)) == PRACTICAL_LEVEL_ORDER
    with pytest.raises(ResourceError):
        cyclic_target((10**12,)).elements(0)
    with pytest.raises(ResourceError):
        cyclic_target((64, 0, 64, 2)).elements(3)  # order 64 * 64^3 * 2
    with pytest.raises(ResourceError):
        FiniteGroupLevel(elements=list(range(PRACTICAL_LEVEL_ORDER + 1)), mult={}, inverse={}, identity=0).check()
    assert time.perf_counter() - started < 1.0


def test_one_snf_per_group(monkeypatch):
    W = random_small_strict_object(random.Random(31), 3, torsion=True)
    calls = []
    snf = intlin.smith_normal_form
    monkeypatch.setattr(intlin, "smith_normal_form", lambda A: calls.append(A) or snf(A))
    G = PresentedGroup(2, Mat.from_rows([[4, 6], [6, 4]]))
    assert [G.canon_vector(v) for v in G.elements()] == list(G.elements())
    assert len(calls) == 1
    calls.clear()
    K = AbelianTarget(SAb([PresentedGroup(L.ngens, L.rels) for L in W.levels], W.faces, W.degeneracies, W.cap))
    for n in range(K.cap + 1):
        for a in K.elements(n):
            assert K.from_generators(n, K.to_generators(n, a)) == a
    assert len(calls) == K.cap + 1


def all_simplex_is_valid(tm):
    """TargetMap.is_valid by its definition: pointed, and each face and
    degeneracy commutes with the map on every simplex."""
    K, src = tm.target, tm.src
    for n in range(src.cap + 1):
        if BASE in tm.tables[n] and tm.tables[n][BASE] != K.identity(n):
            return False
    for n in range(1, src.cap + 1):
        for i in range(n + 1):
            for x in src.elements[n]:
                if tm(n - 1, src.face(n, i, x)) != K.face(n, i, tm(n, x)):
                    return False
    for n in range(0, src.cap):
        for j in range(n + 1):
            for x in src.elements[n]:
                if tm(n + 1, src.degeneracy(n, j, x)) != K.degeneracy(n, j, tm(n, x)):
                    return False
    return True


@functools.cache
def valid_target_maps(orders, source):
    """Every pointed map from the circle or the interval into the
    criterion-4 target of these chain-group orders, or into the S_3
    target when orders is None."""
    K = s3_target() if orders is None else cyclic_target(orders)
    A = sphere(1, K.cap) if source == "S1" else standard_simplex(1, K.cap)
    return all_target_maps(A, K)


def simplices_of_kind(A, n, kind):
    nondegenerate = A.nondegenerate(n)
    if kind == "basepoint":
        return [BASE]
    if kind == "nondegenerate":
        return [x for x in nondegenerate if x != BASE]
    return [x for x in A.elements[n] if x != BASE and x not in nondegenerate]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_is_valid_agrees_with_all_simplex_loop(data):
    """is_valid, which evaluates target faces and degeneracies once per
    distinct value, gives the verdict of the all-simplex loop on valid
    maps and on maps with one entry changed: at a nondegenerate simplex,
    at a degenerate one or at the basepoint."""
    orders = data.draw(st.sampled_from(CRITERION_4_SHAPES + [None]))
    tm = data.draw(st.sampled_from(valid_target_maps(orders, data.draw(st.sampled_from(["S1", "D1"])))))
    A, K = tm.src, tm.target
    tables = [dict(t) for t in tm.tables]
    kind = data.draw(st.sampled_from(["unchanged", "nondegenerate", "degenerate", "basepoint"]))
    if kind != "unchanged":
        n, x = data.draw(st.sampled_from([(n, x) for n in range(A.cap + 1) for x in simplices_of_kind(A, n, kind)]))
        tables[n][x] = data.draw(st.sampled_from(K.elements(n)))
    changed = TargetMap(src=A, target=K, tables=tables)
    assert changed.is_valid() == all_simplex_is_valid(changed)
    if kind == "unchanged":
        assert changed.is_valid()


def test_is_valid_evaluates_each_target_value_once(monkeypatch):
    """One is_valid call evaluates a target face or degeneracy at most once
    per (level, index, value), however many simplices share the value."""
    cap = 3
    K = loop_target(4, cap)
    calls = []
    for name in ("face", "degeneracy"):
        method = getattr(K, name)
        monkeypatch.setattr(K, name, lambda n, i, a, name=name, method=method: calls.append((name, n, i, a)) or method(n, i, a))
    A = sphere(1, cap)
    shared = 0
    for tm in all_target_maps(A, K):
        calls.clear()
        assert tm.is_valid()
        assert len(calls) == len(set(calls))
        per_simplex = [("face", n, i, tm(n, x)) for n in range(1, cap + 1) for i in range(n + 1) for x in A.elements[n]]
        per_simplex += [("degeneracy", n, j, tm(n, x)) for n in range(cap) for j in range(n + 1) for x in A.elements[n]]
        assert set(calls) == set(per_simplex)
        shared += len(per_simplex) - len(calls)
    assert shared > 0


def test_one_pass_face_maps_on_a_free_level():
    """Faces and degeneracies of a target with Z levels (modulus 0) equal
    canon(M.apply(a)): coordinates reduced mod d, left unreduced where
    d = 0."""
    groups = [PresentedGroup.cyclic(6), PresentedGroup.free(1), PresentedGroup.free(1)]
    diffs = {1: Mat.from_rows([[1]]), 2: Mat.from_rows([[6]])}
    K = AbelianTarget(dold_kan(ChainComplex(groups=groups, diffs=diffs), 2))
    assert all(0 in K._moduli[n] for n in (1, 2))
    rng = random.Random(7)
    for n in range(K.cap + 1):
        for _ in range(25):
            a = K.canon(n, [rng.randint(-10**6, 10**6) for _ in K._moduli[n]])
            for i in range(n + 1 if n else 0):
                assert K.face(n, i, a) == K.canon(n - 1, K._faces[n][i].apply(a))
            for j in range(n + 1 if n < K.cap else 0):
                assert K.degeneracy(n, j, a) == K.canon(n + 1, K._degeneracies[n][j].apply(a))


def all_pairs_map_check(K):
    """The homomorphism half of FiniteGroupTarget.verify by its definition:
    each face and degeneracy tested on every pair of its level."""
    for n in range(1, K.cap + 1):
        for i in range(n + 1):
            t = K.faces[n][i]
            for a in K.levels[n].elements:
                for b in K.levels[n].elements:
                    if t[K.mul(n, a, b)] != K.mul(n - 1, t[a], t[b]):
                        return f"d_{i} at level {n} is not a homomorphism"
    for n in range(0, K.cap):
        for j in range(n + 1):
            t = K.degeneracies[n][j]
            for a in K.levels[n].elements:
                for b in K.levels[n].elements:
                    if t[K.mul(n, a, b)] != K.mul(n + 1, t[a], t[b]):
                        return f"s_{j} at level {n} is not a homomorphism"
    return None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_verify_agrees_with_all_pairs(data):
    """verify, which tests each face and degeneracy on pairs (a, generator),
    names the same first failing map as the all-pairs test, on the S_3
    target with one face or degeneracy entry changed."""
    K = s3_target()
    faces = {n: [dict(t) for t in tables] for n, tables in K.faces.items()}
    degeneracies = {n: [dict(t) for t in tables] for n, tables in K.degeneracies.items()}
    maps, step = data.draw(st.sampled_from([(faces, -1), (degeneracies, 1)]))
    n = data.draw(st.sampled_from(sorted(maps)))
    table = data.draw(st.sampled_from(maps[n]))
    table[data.draw(st.sampled_from(K.elements(n)))] = data.draw(st.sampled_from(K.elements(n + step)))
    changed = FiniteGroupTarget(K.levels, faces, degeneracies, K.cap)
    # the levels are those of s3_target, whose level checks pass (see
    # test_verify_s3_target); skipping them keeps each example fast
    with mock.patch.object(FiniteGroupLevel, "check", lambda self: True):
        assert changed.verify() == all_pairs_map_check(changed)


def test_verify_s3_target():
    K = s3_target()
    assert K.verify() is None
    assert all_pairs_map_check(K) is None


def first_failing_pair(h, K, L):
    """h(e) = e, then every pair (a, generator) in the order of elements
    and generators: the verdict and witness is_strictly_multiplicative
    must return."""
    for n in range(K.cap + 1):
        e = K.identity(n)
        if h(n, e) != L.identity(n):
            return False, (n, e, e)
        for a in K.elements(n):
            for g in K.generators(n):
                if h(n, K.mul(n, a, g)) != L.mul(n, h(n, a), h(n, g)):
                    return False, (n, a, g)
    return True, None


def generator_image_tables(K, L, images):
    """Tables of h(a) = x_1^{a_1} ... x_r^{a_r}, with images[n] = [x_1, ..., x_r]
    the values on K.generators(n); a homomorphism exactly when the x_i
    commute and x_i^{d_i} = e."""
    tables = []
    for n in range(K.cap + 1):
        coordinates = [g.index(1) for g in K.generators(n)]
        table = {}
        for a in K.elements(n):
            y = L.identity(n)
            for i, x in zip(coordinates, images[n]):
                y = L.mul(n, y, power(L, n, x, a[i]))
            table[a] = y
        tables.append(table)
    return tables


def homomorphism_images(K, L, choose):
    """Generator images of a homomorphism K -> L on every level: each x_i
    has order dividing d_i and commutes with the earlier ones; choose
    picks one from the list of candidates."""
    images = []
    for n in range(K.cap + 1):
        xs = []
        for g in K.generators(n):
            d = K._moduli[n][g.index(1)]
            candidates = [
                z for z in L.elements(n)
                if power(L, n, z, d) == L.identity(n) and all(L.mul(n, z, x) == L.mul(n, x, z) for x in xs)
            ]
            xs.append(choose(candidates))
        images.append(xs)
    return images


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_presentation_check_agrees_with_the_pairs(data):
    """On an abelian source, is_strictly_multiplicative returns the verdict
    and witness of the full (a, generator) loop, and its verdict is the
    all-pairs definition, into abelian targets and into the codiscrete S_3
    target, whose free generator images often do not commute."""
    orders = data.draw(st.sampled_from(CRITERION_4_SHAPES))
    K = cyclic_target(orders)
    if len(orders) == 3 and data.draw(st.booleans()):
        L = s3_target()
    else:
        L = cyclic_target(data.draw(st.sampled_from([o for o in CRITERION_4_SHAPES if len(o) >= len(orders)])))
    kind = data.draw(st.sampled_from(["free images", "homomorphism", "homomorphism, one value changed"]))
    if kind == "free images":
        images = [[data.draw(st.sampled_from(L.elements(n))) for _ in K.generators(n)] for n in range(K.cap + 1)]
    else:
        images = homomorphism_images(K, L, lambda candidates: data.draw(st.sampled_from(candidates)))
    tables = generator_image_tables(K, L, images)
    if kind == "homomorphism, one value changed":
        n = data.draw(st.integers(0, K.cap))
        tables[n][data.draw(st.sampled_from(K.elements(n)))] = data.draw(st.sampled_from(L.elements(n)))

    def h(n, x):
        return tables[n][x]

    result = is_strictly_multiplicative(h, K, L)
    assert result == first_failing_pair(h, K, L)
    assert result[0] == all_pairs_multiplicative(h, K, L)
    if kind == "homomorphism":
        assert result == (True, None)


def test_presentation_check_needs_the_commutators():
    """The two generators of the (Z/2)^2 level sent to two involutions of
    S_3 that do not commute: every tree edge and relator pair holds, and
    only a commutator pair shows that h is not a homomorphism."""
    K, L = cyclic_target((2, 2, 0)), s3_target()
    images = [[L.identity(n)] * len(K.generators(n)) for n in range(K.cap + 1)]
    images[1] = [("s", "s"), ("sr", "sr")]
    assert len(K.generators(1)) == 2
    assert all(power(L, 1, x, 2) == L.identity(1) for x in images[1])
    assert L.mul(1, *images[1]) != L.mul(1, *reversed(images[1]))
    tables = generator_image_tables(K, L, images)

    def h(n, x):
        return tables[n][x]

    ok, witness = is_strictly_multiplicative(h, K, L)
    assert not ok and not all_pairs_multiplicative(h, K, L)
    assert (ok, witness) == first_failing_pair(h, K, L)


def test_presentation_check_products_on_homomorphisms(monkeypatch):
    """On a homomorphism from an abelian source, level n costs
    |K_n| - 1 + r + r(r-1)/2 products in L (r generators): one tree edge per
    element other than e, one relator per generator, one commutator per
    pair of generators."""
    cases = [(orders, cyclic_target(orders)) for orders in CRITERION_4_SHAPES]
    cases += [(orders, s3_target()) for orders in CRITERION_4_SHAPES if len(orders) == 3]
    for orders, L in cases:
        K = cyclic_target(orders)
        tables = generator_image_tables(K, L, homomorphism_images(K, L, lambda candidates: candidates[-1]))
        calls = []
        mul = L.mul
        monkeypatch.setattr(L, "mul", lambda n, a, b: calls.append(n) or mul(n, a, b))
        assert is_strictly_multiplicative(lambda n, x: tables[n][x], K, L) == (True, None)
        monkeypatch.undo()
        expected = []
        for n in range(K.cap + 1):
            r = len(K.generators(n))
            expected += [n] * (len(K.elements(n)) - 1 + r + r * (r - 1) // 2)
        assert calls == expected, orders


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_apply_equals_iterated_word_mul(data):
    """GroupHomMap.apply reduces the concatenated letter images once; that
    is the word multiplying the images one at a time gives, also when a
    table holds an unreduced word."""
    letters = st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1)))
    table = {g: tuple(data.draw(st.lists(letters, max_size=4))) for g in "abc"}
    word = data.draw(st.lists(letters, max_size=8))
    expected = ()
    for g, e in word:
        expected = word_mul(expected, table[g] if e == 1 else word_inv(table[g]))
    assert GroupHomMap(None, None, [table]).apply(0, word) == expected


def left_iterated_product(K, n, letters):
    acc = K.identity(n)
    for x, e in letters:
        acc = K.mul(n, acc, x if e == 1 else K.inv(n, x))
    return acc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_product_equals_left_iterated_mul(data):
    orders = data.draw(st.sampled_from(CRITERION_4_SHAPES + [None]))
    K = s3_target() if orders is None else cyclic_target(orders)
    n = data.draw(st.integers(0, K.cap))
    letters = data.draw(st.lists(st.tuples(st.sampled_from(K.elements(n)), st.sampled_from((1, -1))), max_size=6))
    assert K.product(n, letters) == left_iterated_product(K, n, letters)


def test_product_on_a_free_level():
    groups = [PresentedGroup.cyclic(6), PresentedGroup.free(1), PresentedGroup.free(1)]
    diffs = {1: Mat.from_rows([[1]]), 2: Mat.from_rows([[6]])}
    K = AbelianTarget(dold_kan(ChainComplex(groups=groups, diffs=diffs), 2))
    rng = random.Random(11)
    for n in range(K.cap + 1):
        for size in range(6):
            letters = [(K.canon(n, [rng.randint(-99, 99) for _ in K._moduli[n]]), rng.choice((1, -1))) for _ in range(size)]
            assert K.product(n, letters) == left_iterated_product(K, n, letters)


@functools.cache
def maps_by_definition(orders, source):
    """valid_target_maps with the all-simplex definition, not is_valid,
    choosing which maps are valid."""
    with mock.patch.object(TargetMap, "is_valid", all_simplex_is_valid):
        K = s3_target() if orders is None else cyclic_target(orders)
        return all_target_maps(sphere(1, K.cap) if source == "S1" else standard_simplex(1, K.cap), K)


@functools.cache
def endomorphisms(A):
    """Self-maps of F(A) as in criterion 4: the identity, powers, the maps
    induced by pointed self-maps of A, and composites of the first few."""
    F = milnor_F(A)
    pool = [identity_hom(F), power_hom(F, 2), power_hom(F, -1), power_hom(F, 3)]
    pool += [induced_hom(F, F, e) for e in enumerate_pointed_maps(A, A)]
    return pool + [a.compose(b) for a in pool[:3] for b in pool[:2]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_is_valid_equals_the_definition_on_star_results(data):
    """is_valid, which builds each level's pairs once and evaluates a target
    face or degeneracy on first need, gives the verdict of the all-simplex
    definition on the valid maps star returns and on those maps with one
    entry, at any simplex, changed to any element, or to one with the same
    faces (which only a degeneracy check can tell apart)."""
    orders = data.draw(st.one_of(st.none(), st.sampled_from(CRITERION_4_SHAPES)))  # None: the S_3 target
    g = data.draw(st.sampled_from(maps_by_definition(orders, data.draw(st.sampled_from(["S1", "D1"])))))
    tm = star(data.draw(st.sampled_from(endomorphisms(g.src))), g, g.target)
    assert all_simplex_is_valid(tm)
    A, K = tm.src, tm.target
    tables = [dict(t) for t in tm.tables]
    n = data.draw(st.integers(0, A.cap))
    x = data.draw(st.sampled_from(A.elements[n]))
    options = K.elements(n)
    if data.draw(st.booleans()):
        faces = [K.face(n, i, tm(n, x)) for i in range(n + 1 if n else 0)]
        options = [y for y in options if [K.face(n, i, y) for i in range(len(faces))] == faces]
    tables[n][x] = data.draw(st.sampled_from(options))
    changed = TargetMap(src=A, target=K, tables=tables)
    assert changed.is_valid() == all_simplex_is_valid(changed)


def padded(f, rng):
    """f with cancelling pairs (y, e)(y, -e) of random generators y put into
    its table words at random places: the same homomorphism, unreduced."""
    tables = []
    for n, table in enumerate(f.tables):
        gens = f.dst.generators(n)
        out = {}
        for a, word in table.items():
            word = list(word)
            for _ in range(rng.randint(1, 3) if gens else 0):
                y, e = rng.choice(gens), rng.choice((1, -1))
                k = rng.randint(0, len(word))
                word[k:k] = [(y, e), (y, -e)]
            out[a] = tuple(word)
        tables.append(out)
    return GroupHomMap(f.src, f.dst, tables)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_star_of_unreduced_table_words(data):
    """star multiplies out each table word as it stands; on an abelian and
    on the nonabelian S_3 target that gives the star of the reduced words."""
    orders = data.draw(st.one_of(st.none(), st.sampled_from(CRITERION_4_SHAPES)))  # None: the S_3 target
    g = data.draw(st.sampled_from(maps_by_definition(orders, data.draw(st.sampled_from(["S1", "D1"])))))
    f = data.draw(st.sampled_from(endomorphisms(g.src)))
    pf = padded(f, random.Random(data.draw(st.integers(0, 10**6))))
    assert pf.tables != f.tables or not any(f.dst.generators(n) for n in range(f.dst.cap + 1))
    generators = [(n, a) for n in range(f.src.cap + 1) for a in f.src.generators(n)]
    assert all(pf.apply(n, ((a, 1),)) == f.apply(n, ((a, 1),)) for n, a in generators)
    assert star(pf, g, g.target).tables == star(f, g, g.target).tables


def row_images(rows, a):
    """A face or degeneracy image by its rows, each coordinate summed and
    reduced mod its modulus, left unreduced where the modulus is 0."""
    return tuple([sum(map(operator.mul, row, a)) % d if d else sum(map(operator.mul, row, a)) for row, d in rows])


def test_identity_images_equal_the_row_computation():
    """A face or degeneracy of the identity, or of a zero tuple of any
    length, is the identity of the next level, which is also what the row
    sums give, on criterion 4's targets and on a target with Z levels."""
    groups = [PresentedGroup.cyclic(6), PresentedGroup.free(1), PresentedGroup.free(1)]
    diffs = {1: Mat.from_rows([[1]]), 2: Mat.from_rows([[6]])}
    targets = [cyclic_target(orders) for orders in CRITERION_4_SHAPES]
    targets.append(AbelianTarget(dold_kan(ChainComplex(groups=groups, diffs=diffs), 2)))
    for K in targets:
        for n in range(K.cap + 1):
            e = K.identity(n)
            assert e == (0,) * len(K._moduli[n])
            zeros = [(0,) * k for k in range(len(e) + 2)]
            for i in range(n + 1 if n else 0):
                assert K.face(n, i, e) == K.identity(n - 1) == K.canon(n - 1, K._faces[n][i].apply(list(e)))
                assert all(K.face(n, i, a) == row_images(K._face_rows[n][i], a) for a in zeros)
            for j in range(n + 1 if n < K.cap else 0):
                assert K.degeneracy(n, j, e) == K.identity(n + 1) == K.canon(n + 1, K._degeneracies[n][j].apply(list(e)))
                assert all(K.degeneracy(n, j, a) == row_images(K._degeneracy_rows[n][j], a) for a in zeros)


def condition_star_by_definition(f, g, h, K):
    """check_condition_star with each of the three stars built and checked
    by star."""
    lhs = star(f, star(g, h, K), K)
    rhs = star(g.compose(f), h, K)
    for n in range(f.src.cap + 1):
        for a in f.src.generators(n):
            if lhs(n, a) != rhs(n, a):
                return False, (n, a, lhs(n, a), rhs(n, a))
    return True, None


def outcome(check, *args):
    """What check returns, or the type and message of the RuntimeError it raises."""
    try:
        return check(*args)
    except RuntimeError as exc:
        return RuntimeError, str(exc)


def scrambled(rng, f):
    """f with up to three table words replaced by random words in the
    generators of the same level: most often not a simplicial
    homomorphism."""
    tables = [dict(table) for table in f.tables]
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(0, f.src.cap)
        generators = f.dst.generators(n)
        if tables[n] and generators:
            a = rng.choice(sorted(tables[n]))
            tables[n][a] = word_reduce([(rng.choice(generators), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))])
    return GroupHomMap(f.src, f.dst, tables)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_condition_star_equals_three_checked_stars(data):
    """check_condition_star, which checks the right-hand star only when its
    tables differ from the left-hand one's, returns what three stars built
    and checked by star give, or raises the same RuntimeError, on
    homomorphism tables that are simplicial or not."""
    orders = data.draw(st.one_of(st.none(), st.sampled_from(CRITERION_4_SHAPES)))  # None: the S_3 target
    h = data.draw(st.sampled_from(maps_by_definition(orders, data.draw(st.sampled_from(["S1", "D1"])))))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pool = endomorphisms(h.src)
    f, g = scrambled(rng, rng.choice(pool)), scrambled(rng, rng.choice(pool))
    assert outcome(check_condition_star, f, g, h, h.target) == outcome(condition_star_by_definition, f, g, h, h.target)


@functools.cache
def magma_target_maps():
    """The pointed maps, by the all-simplex definition, from Delta^1 into
    the codiscrete cap-2 target of a magma that is not associative."""
    G = magma(3, [2, 0, 0, 0])  # (1*1)*1 = 0 != 1*(1*1) = 1
    K = codiscrete_target(G.elements, G.mult, G.inverse, G.identity, 2)
    with mock.patch.object(TargetMap, "is_valid", all_simplex_is_valid):
        return all_target_maps(standard_simplex(1, 2), K)


def test_condition_star_on_a_target_that_is_not_associative():
    """On a group target the two sides of condition (*) have equal tables,
    so only a target that is not associative reaches the check of the
    right-hand star. There, on every map h and every pair of criterion 4's
    endomorphisms, as they are and scrambled, check_condition_star agrees
    with three checked stars, both when the right-hand star fails is_valid
    and when it holds and the sides differ."""
    rng = random.Random(0)
    seen = set()
    for h in magma_target_maps():
        pool = endomorphisms(h.src)
        for f0, g0 in itertools.product(pool, repeat=2):
            variants = [(f0, g0), (scrambled(rng, f0), g0), (f0, scrambled(rng, g0))]
            for f, g in variants + [(scrambled(rng, f0), scrambled(rng, g0))]:
                got = outcome(check_condition_star, f, g, h, h.target)
                assert got == outcome(condition_star_by_definition, f, g, h, h.target)
                try:
                    star(f, star(g, h, h.target), h.target)
                except RuntimeError:
                    continue
                seen.add("right-hand star fails" if got[0] is RuntimeError else got[0])
    assert seen == {True, False, "right-hand star fails"}


def test_free_group_generators_are_built_once():
    """generators(n) is the list of non-basepoint simplices of level n, held
    as one tuple per level."""
    for base in (sphere(1, 3), sphere(2, 3), standard_simplex(1, 3), standard_simplex(2, 3), zero_sphere(2)):
        F = milnor_F(base)
        for n in range(base.cap + 1):
            assert list(F.generators(n)) == [x for x in base.elements[n] if x != BASE]
            assert type(F.generators(n)) is tuple and F.generators(n) is F.generators(n)


# ------------------------------------------------ references for the shared map check
# The commuting loops that SimplicialSetMap.is_valid and GroupHomMap.is_valid
# ran before both went through simplicial.is_simplicial_map, kept verbatim
# (apart from the letterwise face and degeneracy of a word, written out here)
# as the references the shared check is compared with. TargetMap's reference
# is all_simplex_is_valid above.


def reference_simplicial_set_map_is_valid(m):
    if m.src.cap != m.dst.cap:
        return False
    for n in range(m.src.cap + 1):
        if m.tables[n].get(BASE) != BASE:
            return False
        for x in m.src.elements[n]:
            if m.tables[n].get(x) not in set(m.dst.elements[n]):
                return False
    for n in range(1, m.src.cap + 1):
        for i in range(n + 1):
            for x in m.src.elements[n]:
                if m.tables[n - 1][m.src.face(n, i, x)] != m.dst.faces[n][i][m.tables[n][x]]:
                    return False
    for n in range(0, m.src.cap):
        for j in range(n + 1):
            for x in m.src.elements[n]:
                if m.tables[n + 1][m.src.degeneracy(n, j, x)] != m.dst.degeneracies[n][j][m.tables[n][x]]:
                    return False
    return True


def _letterwise(move, word):
    """A face or degeneracy of a free-group word, applied letter by letter."""
    return word_reduce([(y, e) for y, e in ((move(g), e) for g, e in word) if y != BASE])


def reference_group_hom_is_valid(h):
    for n in range(h.src.cap + 1):
        for g in h.src.generators(n):
            if g not in h.tables[n]:
                return False
    A, B = h.src.base, h.dst.base
    for n in range(1, h.src.cap + 1):
        for i in range(n + 1):
            for g in h.src.generators(n):
                lhs = h.apply(n - 1, _letterwise(lambda x: A.face(n, i, x), ((g, 1),)))
                rhs = _letterwise(lambda x: B.face(n, i, x), h.apply(n, ((g, 1),)))
                if lhs != rhs:
                    return False
    for n in range(0, h.src.cap):
        for j in range(n + 1):
            for g in h.src.generators(n):
                lhs = h.apply(n + 1, _letterwise(lambda x: A.degeneracy(n, j, x), ((g, 1),)))
                rhs = _letterwise(lambda x: B.degeneracy(n, j, x), h.apply(n, ((g, 1),)))
                if lhs != rhs:
                    return False
    return True


@functools.cache
def pointed_maps_and_perturbations():
    """(A, B, tables) for every pointed map between S^1, Delta^1, S^2 and
    Delta^2 at caps 2 and 3, and for each map, per level, the map with the
    image of the level's first non-basepoint simplex (or of the basepoint,
    on a level with no other simplex) changed to each other simplex of B."""
    out = []
    for cap in (2, 3):
        spaces = [sphere(1, cap), standard_simplex(1, cap), sphere(2, cap), standard_simplex(2, cap)]
        for A, B in itertools.product(spaces, repeat=2):
            for m in enumerate_pointed_maps(A, B):
                out.append((A, B, m.tables))
                for n in range(cap + 1):
                    x = next((x for x in A.elements[n] if x != BASE), BASE)
                    for y in B.elements[n]:
                        if y != m.tables[n][x]:
                            tables = [dict(t) for t in m.tables]
                            tables[n][x] = y
                            out.append((A, B, tables))
    return out


def test_simplicial_set_map_check_matches_reference_loop():
    from delooper.simplicial import SimplicialSetMap

    verdicts = []
    for A, B, tables in pointed_maps_and_perturbations():
        m = SimplicialSetMap(A, B, tables)
        verdicts.append(m.is_valid())
        assert verdicts[-1] == reference_simplicial_set_map_is_valid(m)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_target_map_check_matches_all_simplex_loop_on_enumerated_maps():
    """The pointed maps above, followed by A -> B -> Z[B] (the reduced free
    abelian group), as TargetMaps into Z[B]."""
    from delooper.delta_core import free_abelian

    targets = {}
    verdicts = []
    for A, B, tables in pointed_maps_and_perturbations():
        if id(B) not in targets:
            targets[id(B)] = AbelianTarget(free_abelian(B))
        K = targets[id(B)]
        vectors = []
        for n, table in enumerate(tables):
            basis = [y for y in B.elements[n] if y != BASE]
            vectors.append({x: K.from_generators(n, [int(z == y) for z in basis]) for x, y in table.items()})
        tm = TargetMap(src=A, target=K, tables=vectors)
        verdicts.append(tm.is_valid())
        assert verdicts[-1] == all_simplex_is_valid(tm)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_group_hom_check_matches_reference_loop():
    """F of the pointed maps above, and each with one generator's image
    changed: to the empty word, to its square, to each generator of its
    level, and to itself with a cancelling pair appended (the same
    homomorphism, written unreduced)."""
    free = {}
    verdicts = []
    for A, B, tables in pointed_maps_and_perturbations():
        FA, FB = (free.setdefault(id(X), milnor_F(X)) for X in (A, B))
        h = induced_hom(FA, FB, lambda n, x: tables[n][x])
        homs = [h]
        for n in range(A.cap + 1):
            gens = FA.generators(n)
            if not gens:
                continue
            g, word = gens[0], h.tables[n][gens[0]]
            images = [(), word + word, *[((y, 1),) for y in FB.generators(n)]]
            images += [word + ((y, 1), (y, -1)) for y in FB.generators(n)[:1]]
            for image in images:
                changed = [dict(t) for t in h.tables]
                changed[n][g] = image
                homs.append(GroupHomMap(FA, FB, changed))
        for hom in homs:
            verdicts.append(hom.is_valid())
            assert verdicts[-1] == reference_group_hom_is_valid(hom)
    assert 0 < verdicts.count(False) < len(verdicts)


def reference_check_functoriality(e, f, g, h, K, L):
    """check_functoriality before its first identity became condition (*)
    for (e, f, g): star((f . e), g) against e's words evaluated on star(f, g)."""
    ok, witness = is_strictly_multiplicative(h, K, L)
    if not ok:
        raise ValueError(f"map between targets is not strictly multiplicative at {witness}")
    fe = f.compose(e)
    lhs1 = star(fe, g, K)
    fg = star(f, g, K)
    C = e.src.base
    for n in range(C.cap + 1):
        for c in e.src.generators(n):
            rhs = K.product(n, [(fg(n, x), ex) for x, ex in e.tables[n][c]])
            if lhs1(n, c) != rhs:
                return False
    gh_tables = []
    B = f.dst.base
    for n in range(B.cap + 1):
        gh_tables.append({x: h(n, g(n, x)) for x in B.elements[n]})
    gh = TargetMap(src=B, target=L, tables=gh_tables)
    lhs2 = star(f, gh, L)
    A = f.src.base
    for n in range(A.cap + 1):
        for a in f.src.generators(n):
            if lhs2(n, a) != h(n, fg(n, a)):
                return False
    return True


@functools.cache
def criterion_4_pool(cap, source):
    """Acceptance criterion 4's endomorphism pool of F(S^1) or F(Delta^1)."""
    A = sphere(1, cap) if source == "S1" else standard_simplex(1, cap)
    F = milnor_F(A)
    pool = [identity_hom(F), power_hom(F, 2), power_hom(F, -1), power_hom(F, 3)]
    pool += [induced_hom(F, F, m) for m in enumerate_pointed_maps(A, A)]
    return pool + [a.compose(b) for a in pool[:3] for b in pool[:2]]


def _outcome(check, *args):
    try:
        return check(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc)


def test_check_functoriality_matches_reference_on_criterion_4_pools():
    """Criterion 4's instances (pool homomorphisms e and f, a pointed map g
    into a criterion-4 target, h multiplication by k in 0..3), and the same
    with e's table changed at one generator so that e is no homomorphism of
    simplicial groups: the same verdict or exception as the reference."""
    rng = random.Random(4)
    verdicts = collections.Counter()
    for orders in CRITERION_4_SHAPES:
        for source in ("S1", "D1"):
            maps = valid_target_maps(orders, source)
            if not maps:
                continue
            pool = criterion_4_pool(len(orders) - 1, source)
            for _ in range(2):
                e, f, g, k = rng.choice(pool), rng.choice(pool), rng.choice(maps), rng.randrange(4)
                K = g.target

                def h(n, x, k=k, K=K):
                    return K.canon(n, [k * v for v in x])

                tables = [dict(t) for t in e.tables]
                n = rng.randrange(1, len(tables))
                x = rng.choice(e.src.generators(n))
                tables[n][x] = rng.choice([(), ((x, 1), (x, 1)), ((x, -1),)])
                for hom in (e, GroupHomMap(e.src, e.dst, tables)):
                    got = _outcome(check_functoriality, hom, f, g, h, K, K)
                    assert got == _outcome(reference_check_functoriality, hom, f, g, h, K, K)
                    verdicts[got] += 1
    assert verdicts[True] > 0
