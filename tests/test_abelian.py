import random

import pytest

from delooper.abelian import (
    Hom,
    PresentedGroup,
    cokernel,
    direct_sum,
    homology,
    image,
    induced_on_homology,
    joint_kernel,
    kernel,
    kron,
    quotient,
    subgroup,
    tensor,
)
from delooper.intlin import Mat, SmithSolver, kernel_mod_lattice


def test_invariant_factors_canonical():
    G = PresentedGroup.from_factors([0, 2, 4])
    assert G.invariant_factors() == (2, 4, 0)
    H = PresentedGroup(2, Mat.from_rows([[2, 0], [0, 3]]))
    assert H.invariant_factors() == (6,)
    assert PresentedGroup.free(0).invariant_factors() == ()


def test_element_equality_and_canon():
    Z12 = PresentedGroup.cyclic(12)
    assert Z12.canon([5]) == Z12.canon([17])
    assert not Z12.canon([5]) == Z12.canon([6])
    assert Z12.canon([12]) == Z12.canon([0])
    v = Z12.canon_vector([25])
    assert Z12.canon(v) == Z12.canon([1])


def test_element_enumeration():
    G = PresentedGroup.from_factors([2, 3])
    elems = {G.canon(v) for v in G.elements()}
    assert len(elems) == 6
    with pytest.raises(ValueError):
        list(PresentedGroup.free(1).elements())


def test_hom_well_defined():
    Z4 = PresentedGroup.cyclic(4)
    Z2 = PresentedGroup.cyclic(2)
    ok = Hom(Z4, Z2, Mat.from_rows([[1]]))
    assert ok.is_well_defined()
    Z3 = PresentedGroup.cyclic(3)
    bad = Hom(Z4, Z3, Mat.from_rows([[1]]))
    assert not bad.is_well_defined()


def test_kernel_image_cokernel():
    # multiplication by 2 on Z/8: kernel Z/2, image Z/4, cokernel Z/2
    Z8 = PresentedGroup.cyclic(8)
    f = Hom(Z8, Z8, Mat.from_rows([[2]]))
    K, _ = kernel(f)
    I, _ = image(f)
    C, _ = cokernel(f)
    assert K.invariant_factors() == (2,)
    assert I.invariant_factors() == (4,)
    assert C.invariant_factors() == (2,)


def test_homology_subquotient():
    # Z --2--> Z --0--> Z: homology in the middle is Z/2
    Z = PresentedGroup.free(1)
    incoming = Hom(Z, Z, Mat.from_rows([[2]]))
    outgoing = Hom(Z, Z, Mat.from_rows([[0]]))
    H = homology(incoming, outgoing)
    assert H.group.invariant_factors() == (2,)
    cls = H.classify([1])
    assert not H.group.is_zero_elt(cls)
    assert H.group.is_zero_elt(H.classify([2]))


def test_induced_on_homology():
    Z = PresentedGroup.free(1)
    incoming = Hom(Z, Z, Mat.from_rows([[2]]))
    outgoing = Hom(Z, Z, Mat.from_rows([[0]]))
    H = homology(incoming, outgoing)
    f = Hom(Z, Z, Mat.from_rows([[3]]))  # commutes with the differentials
    ind = induced_on_homology(H, H, f)
    # multiplication by 3 = identity on Z/2
    assert ind.dst.canon(ind.apply([1])) == ind.dst.canon([1])


def test_direct_sum_offsets():
    G, offs = direct_sum([PresentedGroup.cyclic(2), PresentedGroup.free(1)])
    assert offs == [0, 1]
    assert G.invariant_factors() == (2, 0)


def test_tensor():
    A = PresentedGroup.from_factors([4, 0])
    B = PresentedGroup.cyclic(6)
    T = tensor(A, B)
    assert T.invariant_factors() == (2, 6)


def test_kron_shape():
    A = Mat.from_rows([[1, 2]])
    B = Mat.from_rows([[1], [3]])
    K = kron(A, B)
    assert (K.r, K.c) == (2, 2)
    assert K.a == [[1, 2], [3, 6]]


def test_subgroup_quotient_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        G = PresentedGroup.from_factors([rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))])
        gens = Mat(G.ngens, 2, [[rng.randint(-2, 2) for _ in range(2)] for _ in range(G.ngens)])
        S, incl = subgroup(G, gens)
        assert incl.is_well_defined()
        Q, proj = quotient(G, gens)
        # order bookkeeping when everything is finite
        if G.order() is not None:
            assert S.order() * Q.order() == G.order()


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def presented_groups(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(0, 3))
    rels = Mat(n, r, [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(n)])
    return PresentedGroup(n, rels)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(presented_groups(), st.data())
def test_canon_is_a_coset_invariant(G, data):
    v = [data.draw(st.integers(-6, 6)) for _ in range(G.ngens)]
    w = list(v)
    for j in range(G.rels.c):
        c = data.draw(st.integers(-2, 2))
        for i in range(G.ngens):
            w[i] += c * G.rels.a[i][j]
    assert G.canon(v) == G.canon(w)
    cv = G.canon_vector(v)
    assert G.canon(cv) == G.canon(v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(presented_groups())
def test_invariant_factors_divisibility_chain(G):
    facs = G.invariant_factors()
    tors = [d for d in facs if d != 0]
    for a, b in zip(tors, tors[1:]):
        assert b % a == 0
    assert all(d == 0 for d in facs[len(tors):])


@st.composite
def group_and_matrix(draw):
    """A group (free when it has no relation columns, possibly on 0
    generators) and a matrix whose columns are elements of it, some of
    them forced into the relation lattice."""
    n = draw(st.integers(0, 3))
    r = draw(st.integers(0, 3))
    G = PresentedGroup(n, Mat(n, r, [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(n)]))
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if r and draw(st.booleans()):
            coeffs = [draw(st.integers(-2, 2)) for _ in range(r)]
            cols.append([sum(G.rels.a[i][j] * coeffs[j] for j in range(r)) for i in range(n)])
        else:
            cols.append([draw(st.integers(-3, 3)) for _ in range(n)])
    return G, Mat(n, len(cols), [[col[i] for col in cols] for i in range(n)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(group_and_matrix())
def test_first_nonzero_column_agrees_with_contains_column(case):
    G, M = case
    solver = SmithSolver(G.rels)
    expected = next((j for j in range(M.c) if not solver.contains_column(M.col(j))), None)
    assert G.first_nonzero_column(M) == expected


def test_joint_kernel_matches_kernel_mod_lattice():
    # x with (x0 + x1) zero in Z/2 and (x1 - x2) zero in Z/3
    maps = [Mat.from_rows([[1, 1, 0]]), Mat.from_rows([[0, 1, -1]])]
    groups = [PresentedGroup.cyclic(2), PresentedGroup.cyclic(3)]
    K = joint_kernel(maps, groups)
    assert K == kernel_mod_lattice(Mat.from_rows([[1, 1, 0], [0, 1, -1]]), Mat.from_rows([[2, 0], [0, 3]]))
    solver = SmithSolver(K)
    assert solver.contains_column([1, 1, 1])
    assert solver.contains_column([2, 0, 0])
    assert solver.contains_column([0, 0, 3])
    assert not solver.contains_column([1, 0, 0])
    assert not solver.contains_column([0, 0, 1])


def test_direct_sum_of_nothing_is_trivial():
    G, offsets = direct_sum([])
    assert (G.ngens, G.rels.c, offsets) == (0, 0, [])
    assert G.is_trivial()


def test_canon_vector_finishes_where_a_second_snf_of_u_did_not():
    # inverting U by a second SNF never finished for these relations (moduli 1, 3, 0, 0)
    G = PresentedGroup(4, Mat.from_rows([[55, 297], [1902, 10266], [-5173, -27921], [-772, -4167]]))
    assert G.invariant_factors() == (3, 0, 0)
    rng = random.Random(37)
    for _ in range(20):
        v = [rng.randint(-9, 9) for _ in range(4)]
        w = G.canon_vector(v)
        assert G.canon(w) == G.canon(v)
        assert G.canon_vector(w) == w


def test_smith_form_is_taken_on_first_use(monkeypatch):
    """A group takes the Smith form of its relations when first asked about
    its elements, once, and never when it is only built or passed on."""
    from delooper import intlin

    calls = []
    snf = intlin.smith_normal_form
    monkeypatch.setattr(intlin, "smith_normal_form", lambda A: calls.append(A) or snf(A))
    G = PresentedGroup(2, Mat.from_rows([[4, 6], [6, 4]]))
    Q, _ = quotient(G, Mat.column([1, 1]))
    assert calls == []
    assert G.invariant_factors() == (2, 10)
    assert G.canon([1, 1]) != G.canon([0, 0]) and G.is_zero_elt([4, 6])
    assert len(list(G.elements())) == G.order() == 20
    assert len(calls) == 1


def _parent_classifier(incoming, outgoing):
    """The classifier homology built eagerly: one solver on the cycles
    beside the boundaries and the ambient relations."""
    cycles = kernel_mod_lattice(outgoing.mat, outgoing.dst.rels)
    return SmithSolver(cycles.hstack(incoming.mat.hstack(incoming.dst.rels)))


def test_homotopy_groups_build_no_classifier(monkeypatch):
    from delooper import abelian, moore
    from delooper.delta_core import free_abelian
    from delooper.simplicial import sphere

    made = []
    build = abelian.homology

    def recorded(incoming, outgoing):
        made.append(build(incoming, outgoing))
        return made[-1]

    monkeypatch.setattr(moore, "homology", recorded)
    assert moore.homotopy_groups(free_abelian(sphere(2, 4)))[2] == (0,)
    assert made and not any("_classifier" in vars(H) for H in made)


def test_classify_and_induced_map_agree_with_an_eager_classifier():
    rng = random.Random(4242)
    for _ in range(40):
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        ambient = PresentedGroup.from_factors([rng.choice([0, 0, 2, 3]) for _ in range(b)])
        out_mat = Mat(c, b, [[rng.randint(-2, 2) for _ in range(b)] for _ in range(c)])
        outgoing = Hom(ambient, PresentedGroup.free(c), out_mat)
        cycles = kernel_mod_lattice(out_mat, outgoing.dst.rels)
        gens = Mat(b, a, [[0] * a for _ in range(b)])
        if cycles.c:
            coeffs = Mat(cycles.c, a, [[rng.randint(-2, 2) for _ in range(a)] for _ in range(cycles.c)])
            gens = cycles @ coeffs
        incoming = Hom(PresentedGroup.free(a), ambient, gens)
        H = homology(incoming, outgoing)
        ref = _parent_classifier(incoming, outgoing)
        for j in range(cycles.c):
            k = rng.randint(-3, 3)
            v = [cycles.a[i][j] * k + gens.a[i][0] for i in range(b)]
            sol = ref.solve_columns(Mat.column(v))
            assert H.classify(v) == [sol.a[i][0] for i in range(H.group.ngens)]
        f = Hom(ambient, ambient, Mat.eye(b).scale(rng.choice([1, -1, 2])))
        ind = induced_on_homology(H, H, f)
        cols = f.mat @ H.lift
        for j in range(cols.c):
            sol = ref.solve_columns(Mat.column(cols.col(j)))
            assert [ind.mat.a[i][j] for i in range(H.group.ngens)] == [sol.a[i][0] for i in range(H.group.ngens)]
