import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delooper.intlin import (
    Mat,
    SmithSolver,
    block_diagonal,
    column_basis,
    invert_unimodular,
    kernel_mod_lattice,
    nullspace,
    smith_normal_form,
    solve,
)


def random_matrix(rng, r, c, lo=-4, hi=4):
    return Mat(r, c, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def test_snf_small_example():
    A = Mat.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    D, U, V = smith_normal_form(A)
    assert U @ A @ V == D
    assert [D.a[i][i] for i in range(3)] == [2, 6, 12]


def test_snf_transforms_are_unimodular():
    rng = random.Random(1)
    for _ in range(25):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        D, U, V = smith_normal_form(A)
        assert U @ A @ V == D
        for M in (U, V):
            DD, _, _ = smith_normal_form(M)
            assert all(abs(DD.a[i][i]) == 1 for i in range(M.r))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_snf_matches_sympy_invariants(r, c, seed):
    # independent oracle: sympy's invariant factors
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    rng = random.Random(seed)
    A = random_matrix(rng, r, c)
    D, U, V = smith_normal_form(A)
    assert U @ A @ V == D
    mine = [D.a[i][i] for i in range(min(r, c)) if D.a[i][i] != 0]
    dm = DomainMatrix.from_list([[int(x) for x in row] for row in A.a], ZZ)
    theirs = [int(x) for x in invariant_factors(dm) if int(x) != 0]
    assert mine == theirs


def test_divisibility_chain():
    rng = random.Random(7)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        D, _, _ = smith_normal_form(A)
        diag = [D.a[i][i] for i in range(min(A.r, A.c)) if D.a[i][i] != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_solve_and_nullspace():
    rng = random.Random(3)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = Mat(A.c, 1, [[rng.randint(-3, 3)] for _ in range(A.c)])
        b = A @ x
        sol = solve(A, b)
        assert sol is not None
        assert A @ sol == b
        N = nullspace(A)
        for j in range(N.c):
            col = Mat(A.c, 1, [[N.a[i][j]] for i in range(A.c)])
            assert (A @ col).is_zero()


def test_solve_unsolvable():
    A = Mat.from_rows([[2, 0], [0, 2]])
    b = Mat.column([1, 0])
    assert solve(A, b) is None


def test_column_basis_spans_same_lattice():
    rng = random.Random(11)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(0, 5))
        B = column_basis(A)
        solver_a = SmithSolver(A)
        solver_b = SmithSolver(B) if B.c else None
        for j in range(A.c):
            col = A.col(j)
            assert B.c == 0 and all(x == 0 for x in col) or solver_b.contains_column(col)
        for j in range(B.c):
            assert solver_a.contains_column(B.col(j))


def test_uinv_inverts_u():
    rng = random.Random(5)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        solver = SmithSolver(A)
        eye = Mat.eye(A.r)
        assert solver.U @ solver.Uinv == eye
        assert solver.Uinv @ solver.U == eye
        assert solver.Uinv is solver.Uinv


def test_kernel_mod_lattice():
    A = Mat.from_rows([[1, 0], [0, 1]])
    L = Mat.from_rows([[2, 0], [0, 3]])
    K = kernel_mod_lattice(A, L)
    solver = SmithSolver(K)
    assert solver.contains_column([2, 0])
    assert solver.contains_column([0, 3])
    assert not solver.contains_column([1, 0])


def test_zero_shapes():
    A = Mat(0, 3, [])
    N = nullspace(A)
    assert N.c == 3
    B = Mat(3, 0, [[], [], []])
    D, U, V = smith_normal_form(B)
    assert D.c == 0


def test_block_diagonal_places_blocks_in_order():
    A = Mat.from_rows([[1, 2]])
    B = Mat.from_rows([[3], [4]])
    assert block_diagonal([A, B]) == Mat.from_rows([[1, 2, 0], [0, 0, 3], [0, 0, 4]])


def test_block_diagonal_of_no_blocks_and_of_empty_blocks():
    assert block_diagonal([]) == Mat(0, 0, [])
    # blocks with no columns still contribute their rows
    E = Mat(2, 0, [[], []])
    assert block_diagonal([E, Mat.from_rows([[5]]), E]) == Mat.from_rows([[0], [0], [5], [0], [0]])
    assert block_diagonal([E, E]) == Mat(4, 0, [[], [], [], []])


def test_invert_unimodular():
    A = Mat.from_rows([[2, 1], [1, 1]])
    assert A @ invert_unimodular(A) == Mat.eye(2)
    with pytest.raises(ValueError):
        invert_unimodular(Mat.from_rows([[2, 0], [0, 1]]))
