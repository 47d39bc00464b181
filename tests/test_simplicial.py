import pytest

from delooper.simplicial import (
    BASE,
    FiniteSimplicialSet,
    StructuralError,
    enumerate_pointed_maps,
    identity_map,
    point,
    sphere,
    standard_simplex,
    zero_sphere,
)


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
    assert report.ok, report.describe()


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
    ident = identity_map(S1)
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
