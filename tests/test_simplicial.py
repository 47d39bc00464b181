import pytest

from delooper.simplicial import (
    BASE,
    FiniteSimplicialSet,
    SimplicialSetMap,
    StructuralError,
    enumerate_pointed_maps,
    identity_cases,
    sphere,
    standard_simplex,
    zero_sphere,
    word_text,
)


def point(cap):
    """The one-point simplicial set up to cap."""
    elements = [[BASE] for _ in range(cap + 1)]
    faces = {n: [{BASE: BASE} for _ in range(n + 1)] for n in range(1, cap + 1)}
    degeneracies = {n: [{BASE: BASE} for _ in range(n + 1)] for n in range(0, cap)}
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


@pytest.mark.parametrize("builder,args", [
    (standard_simplex, (1, 3)),
    (standard_simplex, (2, 3)),
    (standard_simplex, (2, 4)),
    (sphere, (1, 3)),
    (sphere, (2, 4)),
    (zero_sphere, (3,)),
    (point, (3,)),
])
def test_standard_models_are_simplicial(builder, args):
    K = builder(*args)
    report = K.verify_identities()
    assert report.ok, report.violations


def _apply(word, t):
    """A word of identity_cases on a vertex tuple of Delta[k]: d_i deletes
    entry i, s_j repeats entry j."""
    for kind, dim, i in word:
        assert len(t) == dim + 1
        t = t[:i] + t[i + 1 :] if kind == "d" else t[: i + 1] + t[i:]
    return t


@pytest.mark.parametrize("cap", range(6))
def test_identity_cases_hold_in_delta(cap):
    """Each listed case equates two words that agree on every simplex of
    Delta[cap + 2] and run from level n to level m; the list holds
    (n+1)n/2 dd cases at each n >= 2, (n+1)(n+2) ds cases at each n < cap
    and (n+1)(n+2)/2 ss cases at each n < cap - 1, and drops all but dd
    without degeneracies."""
    import itertools
    from collections import Counter

    cases = identity_cases(cap)
    assert identity_cases(cap, degeneracies=False) == tuple(c for c in cases if c[0] == "dd")
    for family, n, (i, j), lhs, rhs, m in cases:
        for t in itertools.combinations_with_replacement(range(cap + 3), n + 1):
            assert _apply(lhs, t) == _apply(rhs, t) and len(_apply(lhs, t)) == m + 1, (family, n, i, j)
    counts = Counter((family[:2], n) for family, n, *_ in cases)
    want = Counter()
    for n in range(cap + 1):
        if n >= 2:
            want["dd", n] = (n + 1) * n // 2
        if n < cap:
            want["ds", n] = (n + 1) * (n + 2)
        if n < cap - 1:
            want["ss", n] = (n + 1) * (n + 2) // 2
    assert counts == want
    assert word_text((("s", 1, 1), ("d", 2, 0))) == "d_0s_1"


def test_sphere_cell_counts():
    S1 = sphere(1, 3)
    # basepoint plus the degeneracies of the single 1-cell
    assert [len(e) for e in S1.elements] == [1, 2, 3, 4]
    S2 = sphere(2, 4)
    assert [len(e) - 1 for e in S2.elements] == [0, 0, 1, 3, 6]


def test_disjoint_basepoint_variant():
    K = standard_simplex(2, 3, basepoint="disjoint")
    assert K.verify_identities().ok
    assert len(K.elements[0]) == 4  # three vertices plus the basepoint


def test_structural_error_is_distinct():
    S1 = sphere(1, 2)
    broken_faces = {n: [dict(t) for t in S1.faces[n]] for n in S1.faces}
    del broken_faces[1][0]["x01"]
    with pytest.raises(StructuralError):
        FiniteSimplicialSet(2, S1.elements, broken_faces, S1.degeneracies)


def test_swapped_faces_reported_not_raised():
    """Swapping d_0 and d_1 at dimension 2 only breaks an identity instance."""
    D1 = standard_simplex(1, 2)
    faces = {n: [dict(t) for t in D1.faces[n]] for n in D1.faces}
    faces[2][0], faces[2][1] = faces[2][1], faces[2][0]
    K = FiniteSimplicialSet(2, D1.elements, faces, D1.degeneracies)
    report = K.verify_identities()
    assert not report.ok
    families = {v.family for v in report.violations}
    assert "dd" in families or "ds-id" in families


def test_identity_map_and_enumeration():
    S1 = sphere(1, 3)
    ident = SimplicialSetMap(S1, S1, [{x: x for x in S1.elements[n]} for n in range(S1.cap + 1)])
    assert ident.is_valid()
    endos = enumerate_pointed_maps(S1, S1)
    # the identity and the constant collapse
    assert len(endos) == 2
    tables = {tuple(sorted(m.tables[1].items())) for m in endos}
    assert len(tables) == 2


def test_enumeration_between_models():
    S1 = sphere(1, 2)
    D1 = standard_simplex(1, 2)
    to_d1 = enumerate_pointed_maps(S1, D1)
    # the loop must land on a cycle over the basepoint: only the collapse
    assert len(to_d1) == 1
    from_d1 = enumerate_pointed_maps(D1, S1)
    # vertex 1 can go to the basepoint only; the edge then to * or the cell
    # whose faces are both *: one nontrivial map plus the collapse
    assert len(from_d1) == 2


def test_pointed_map_search_bound_fails_fast():
    import time

    from delooper.permutohedron import ResourceError

    # a 7-simplex at cap 1: 8^7 assignments of its non-base vertices
    D7 = standard_simplex(7, 1)
    started = time.perf_counter()
    with pytest.raises(ResourceError):
        enumerate_pointed_maps(D7, D7)
    assert time.perf_counter() - started < 1.0


def _tuple_id(t):
    return "x" + "".join(str(v) for v in t)


def reference_standard_simplex(n, cap, basepoint="vertex0"):
    """Delta[n] written out on its own, as it was before standard_simplex and
    sphere shared one vertex-tuple model."""
    import itertools

    collapse_vertex = basepoint == "vertex0"

    def name(t):
        if collapse_vertex and set(t) == {0}:
            return BASE
        return _tuple_id(t)

    elements, by_dim = [], []
    for k in range(cap + 1):
        tups = list(itertools.combinations_with_replacement(range(n + 1), k + 1))
        by_dim.append(tups)
        named = [name(t) for t in tups]
        elements.append(([BASE] if not collapse_vertex else []) + sorted(set(named), key=named.index))
        if collapse_vertex and BASE not in elements[-1]:
            elements[-1].insert(0, BASE)
    faces = {}
    for k in range(1, cap + 1):
        faces[k] = []
        for i in range(k + 1):
            table = {BASE: BASE}
            for t in by_dim[k]:
                table[name(t)] = name(t[:i] + t[i + 1 :])
            faces[k].append(table)
    degeneracies = {}
    for k in range(cap):
        degeneracies[k] = []
        for j in range(k + 1):
            table = {BASE: BASE}
            for t in by_dim[k]:
                table[name(t)] = name(t[: j + 1] + t[j:])
            degeneracies[k].append(table)
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


def reference_sphere(n, cap):
    """S^n written out on its own, from the tuples that hit every vertex."""
    import itertools

    full = set(range(n + 1))
    elements, by_dim = [], []
    for k in range(cap + 1):
        tups = [t for t in itertools.combinations_with_replacement(range(n + 1), k + 1) if set(t) == full]
        by_dim.append(tups)
        elements.append([BASE] + [_tuple_id(t) for t in tups])
    faces = {}
    for k in range(1, cap + 1):
        faces[k] = []
        for i in range(k + 1):
            table = {BASE: BASE}
            for t in by_dim[k]:
                ft = t[:i] + t[i + 1 :]
                table[_tuple_id(t)] = _tuple_id(ft) if set(ft) == full else BASE
            faces[k].append(table)
    degeneracies = {}
    for k in range(cap):
        degeneracies[k] = []
        for j in range(k + 1):
            table = {BASE: BASE}
            for t in by_dim[k]:
                table[_tuple_id(t)] = _tuple_id(t[: j + 1] + t[j:])
            degeneracies[k].append(table)
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


def model_tables(K):
    """Elements and tables, with every dict's key order kept."""
    return (
        K.elements,
        {n: [list(t.items()) for t in K.faces[n]] for n in K.faces},
        {n: [list(t.items()) for t in K.degeneracies[n]] for n in K.degeneracies},
    )


@pytest.mark.parametrize("n", range(5))
def test_vertex_models_equal_the_written_out_builders(n):
    """standard_simplex (both basepoints) and sphere, both quotients of one
    vertex-tuple model, list the same elements in the same order with the
    same tables as the builders written out separately, for cap <= 4."""
    for cap in range(5):
        for basepoint in ("vertex0", "disjoint"):
            got = model_tables(standard_simplex(n, cap, basepoint))
            assert got == model_tables(reference_standard_simplex(n, cap, basepoint)), (cap, basepoint)
        if cap >= n:
            assert model_tables(sphere(n, cap)) == model_tables(reference_sphere(n, cap)), cap
        else:
            with pytest.raises(ValueError):
                sphere(n, cap)
