import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delooper import synthesis
from delooper.delta_core import underlying_delta
from delooper.generators import perturb_degeneracies, random_fibrant_strict_object, random_unimodular
from delooper.intlin import (
    Mat,
    SmithSolver,
    add_block,
    block_diagonal,
    column_basis,
    kernel_mod_lattice,
    kron,
    nullspace,
    smith_normal_form,
    solve,
    solve_modulo,
    vec_block,
)
from delooper.synthesis import _StageSystem


def random_matrix(rng, r, c, lo=-4, hi=4):
    return Mat(r, c, [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def test_snf_small_example():
    A = Mat.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    D, U, V, _ = smith_normal_form(A)
    assert U @ A @ V == D
    assert [D.a[i][i] for i in range(3)] == [2, 6, 12]


def test_snf_transforms_are_unimodular():
    rng = random.Random(1)
    for _ in range(25):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        D, U, V, Uinv = smith_normal_form(A)
        assert U @ A @ V == D
        assert U @ Uinv == Mat.eye(A.r)
        for M in (U, V):
            DD, _, _, _ = smith_normal_form(M)
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
    D, U, V, _ = smith_normal_form(A)
    assert U @ A @ V == D
    mine = [D.a[i][i] for i in range(min(r, c)) if D.a[i][i] != 0]
    dm = DomainMatrix.from_list([[int(x) for x in row] for row in A.a], ZZ)
    theirs = [int(x) for x in invariant_factors(dm) if int(x) != 0]
    assert mine == theirs


def test_divisibility_chain():
    rng = random.Random(7)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        D, _, _, _ = smith_normal_form(A)
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


def test_solver_u_inverse_is_two_sided():
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
    D, U, V, _ = smith_normal_form(B)
    assert D.c == 0


@pytest.mark.parametrize("m,n", [(m, n) for m in range(5) for n in range(5)])
def test_snf_of_a_zero_matrix_is_the_identity_transform_result(m, n):
    """With no pivot the elimination returns A's copy and identities; the
    shortcut must return the same, in fresh objects nothing else holds."""
    A = Mat(m, n)
    D, U, V, Uinv = smith_normal_form(A)
    eye = lambda k: Mat(k, k, [[int(i == j) for j in range(k)] for i in range(k)])
    assert (D, U, V, Uinv) == (Mat(m, n), eye(m), eye(n), eye(m))
    assert D is not A and D.a is not A.a and not any(r is s for r in D.a for s in A.a)
    assert U is not Uinv and U.a is not Uinv.a and not any(r is s for r in U.a for s in Uinv.a)
    if m:
        U.a[0][0] = 7
        D.a[0][:] = [5] * n
        assert Uinv == eye(m) and A == Mat(m, n)


def test_eye_rows_are_distinct_lists():
    for k in range(6):
        rows = Mat.eye(k).a
        assert rows == [[int(i == j) for j in range(k)] for i in range(k)]
        assert len({id(r) for r in rows}) == k


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


def test_random_unimodular_pairs_multiply_to_identity():
    rng = random.Random(29)
    for n in range(6):
        A, Ainv = random_unimodular(n, rng, steps=8)
        assert A @ Ainv == Mat.eye(n)
        assert Ainv @ A == Mat.eye(n)


def test_column_basis_is_scaled_columns_of_u_inverse():
    rng = random.Random(13)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        solver = SmithSolver(A)
        r, D, Uinv = solver.rank, solver.D, solver.Uinv
        reference = Mat(A.r, r, [[D.a[j][j] * Uinv.a[i][j] for j in range(r)] for i in range(A.r)])
        assert column_basis(A) == reference


def test_moduli_are_the_smith_diagonal_then_zeros():
    rng = random.Random(17)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        solver = SmithSolver(A)
        assert len(solver.moduli) == A.r
        assert all(d > 0 for d in solver.moduli[: solver.rank])
        assert solver.moduli[: solver.rank] == tuple(solver.D.a[i][i] for i in range(solver.rank))
        assert not any(solver.moduli[solver.rank :])


def test_contains_column_agrees_with_solve_columns():
    rng = random.Random(19)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(0, 4))
        solver = SmithSolver(A)
        for _ in range(4):
            b = [rng.randint(-6, 6) for _ in range(A.r)]
            if rng.random() < 0.5:
                b = (A @ random_matrix(rng, A.c, 1)).col(0)
            sol = solver.solve_columns(Mat.column(b))
            assert solver.contains_column(b) == (sol is not None)
            if sol is not None:
                assert A @ sol == Mat.column(b)


def test_reduce_is_constant_on_cosets():
    rng = random.Random(23)
    for _ in range(60):
        A = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        solver = SmithSolver(A)
        v = [rng.randint(-9, 9) for _ in range(A.r)]
        w = [x + y for x, y in zip(v, (A @ random_matrix(rng, A.c, 1, -5, 5)).col(0))]
        assert solver.reduce(v) == solver.reduce(w)
        assert all(0 <= x < d for x, d in zip(solver.reduce(v), solver.moduli) if d)
        M = random_matrix(rng, A.r, rng.randint(0, 3), -9, 9)
        assert solver.reduce_columns(M) == [solver.reduce(M.col(c)) for c in range(M.c)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 6), st.integers(0, 5), st.integers(0, 10**6))
def test_free_lattice_reduce_is_the_u_product(r, c, seed):
    """With no relations (A is r x 0) reduce and reduce_columns skip the
    product by U = I, and give what the product gives, shape errors included."""
    rng = random.Random(seed)
    solver = SmithSolver(Mat(r, 0, [[] for _ in range(r)]))
    M = random_matrix(rng, r, c, -10**6, 10**6)
    assert solver.reduce_columns(M) == [solver._reduced([row[k] for row in (solver.U @ M).a]) for k in range(c)]
    v = M.col(0) if c else [0] * r
    assert solver.reduce(v) == solver._reduced(solver.U.apply(v))
    for bad in (random_matrix(rng, r + 1, c), Mat(r + 1, 0, [[] for _ in range(r + 1)])):
        with pytest.raises(ValueError, match="shape mismatch"):
            solver.reduce_columns(bad)
        with pytest.raises(ValueError, match="shape mismatch"):
            solver.reduce(bad.col(0) if bad.c else [0] * bad.r)


def test_kernel_mod_lattice_runs_no_second_snf():
    # inverting U by a second SNF, as column_basis once did, does not finish here
    A = Mat.from_rows([[-3, 1, 0, -2], [-2, 4, 1, -1], [-5, 0, 2, -4], [1, 5, 2, 3]])
    L = Mat.from_rows([[3, 1], [-3, 2], [-3, -3], [3, -2]])
    K = SmithSolver(kernel_mod_lattice(A, L))
    lattice = SmithSolver(L)
    for x in itertools.product(range(-2, 3), repeat=4):
        assert K.contains_column(list(x)) == lattice.contains_column(A.apply(list(x)))


def block_write(target, roff, coff, block):
    """Reference: the hand-written block placement of the free degeneracy
    extension before add_block (it assigned; every target was zero there)."""
    for r in range(block.r):
        row = target.a[roff + r]
        brow = block.a[r]
        for c in range(block.c):
            if brow[c]:
                row[coff + c] = brow[c]


class ReferenceStageSystem(_StageSystem):
    """Reference: the stage system with the coefficient loops that
    add_equation ran before it placed vec_block blocks."""

    def add_equation(self, terms, rhs, target_rels=None):
        slack_name = None
        if target_rels is not None and target_rels.c:
            slack_name = ("slack", self._slacks)
            self._slacks += 1
            self.add_unknown(slack_name, target_rels.c, rhs.c)
        for a in range(rhs.r):
            for b in range(rhs.c):
                line = [0] * self.total
                for (P, name, Q) in terms:
                    (xr, xc, off) = self.unknowns[name]
                    for u in range(xr):
                        pau = P.a[a][u]
                        if pau:
                            base = off + u * xc
                            for v in range(xc):
                                if Q.a[v][b]:
                                    line[base + v] += pau * Q.a[v][b]
                if slack_name is not None:
                    (xr, xc, off) = self.unknowns[slack_name]
                    for u in range(xr):
                        if target_rels.a[a][u]:
                            line[off + u * xc + b] -= target_rels.a[a][u]
                self.rows.append(line)
                self.rhs.append(rhs.a[a][b])


def random_stage_system(rng, system_class=_StageSystem):
    system = system_class()
    for k in range(rng.randint(1, 2)):
        system.add_unknown(("x", k), rng.randint(1, 2), rng.randint(1, 2))
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(list(system.unknowns))
        xr, xc, _ = system.unknowns[name]
        r, c = rng.randint(1, 2), rng.randint(1, 2)
        rels = random_matrix(rng, r, rng.randint(1, 2), 0, 4) if rng.random() < 0.5 else None
        P, Q = random_matrix(rng, r, xr, -2, 2), random_matrix(rng, xc, c, -2, 2)
        system.add_equation([(P, name, Q)], random_matrix(rng, r, c, -3, 3), rels)
    return system


def test_stage_system_residues_pinned():
    """The residue texts of 325 infeasible seeded systems (75 others are
    feasible) hash to the digest of the SNF-by-hand residue code."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    infeasible = 0
    for _ in range(400):
        solution, residue = random_stage_system(rng).solve()
        assert (solution is None) != (residue is None)
        if residue is not None:
            infeasible += 1
            digest.update(residue.encode() + b"\n")
    assert infeasible == 325
    assert digest.hexdigest() == "9015ae801958f6f4c8cf52ced0dd69a465bb2a3513ed7fdd3f68ed64b37d8112"


def test_stage_system_rows_match_the_coefficient_loops():
    """Every row and right-hand side of the 400 seeded systems of the
    residue pin, feasible and infeasible alike, is the one the coefficient
    loops assembled, entry for entry and of the same length."""
    rng, reference_rng = random.Random(2024), random.Random(2024)
    feasible = 0
    for _ in range(400):
        system = random_stage_system(rng)
        reference = random_stage_system(reference_rng, ReferenceStageSystem)
        assert (system.rows, system.rhs) == (reference.rows, reference.rhs)
        feasible += system.solve()[0] is not None
    assert feasible == 75


def test_synthesis_systems_match_the_coefficient_loops(monkeypatch):
    """The systems synthesize solves, with several terms to an equation and
    a slack to each congruence, are the ones the coefficient loops built."""

    def systems(system_class):
        seen = []

        class Recording(system_class):
            def solve(self):
                seen.append((self.rows, self.rhs))
                return super().solve()

        monkeypatch.setattr(synthesis, "_StageSystem", Recording)
        for seed in range(20):
            rng = random.Random(200 + seed)
            W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
            synthesis.synthesize(underlying_delta(W), perturb_degeneracies(W, rng))
        return seen

    built = systems(_StageSystem)
    assert len(built) > 40 and built == systems(ReferenceStageSystem)


def test_add_block_adds_what_block_write_wrote():
    rng = random.Random(31)
    for _ in range(200):
        M = Mat(rng.randint(0, 5), rng.randint(0, 5))
        B = random_matrix(rng, rng.randint(0, M.r), rng.randint(0, M.c), -2, 2)
        r0, c0 = rng.randint(0, M.r - B.r), rng.randint(0, M.c - B.c)
        want = M.copy()
        block_write(want, r0, c0, B)
        add_block(M, r0, c0, B)
        assert M == want
        add_block(M, r0, c0, B)
        assert M == want.scale(2)
    with pytest.raises(ValueError):
        add_block(Mat(2, 2), 1, 0, Mat(2, 1))


def test_vec_block_is_the_map_on_row_major_entries():
    """P·X·Q flattened row-major is vec_block(P, Q) applied to X flattened
    row-major, and kron(A, B) has entry A[i][j]·B[k][l] at ((i, k), (j, l))."""
    rng = random.Random(37)
    for _ in range(100):
        a, u, v, b = (rng.randint(0, 3) for _ in range(4))
        P, X, Q = random_matrix(rng, a, u), random_matrix(rng, u, v), random_matrix(rng, v, b)
        assert vec_block(P, Q).apply([x for row in X.a for x in row]) == [y for row in (P @ X @ Q).a for y in row]
        A, B = random_matrix(rng, a, u), random_matrix(rng, v, b)
        K = kron(A, B)
        assert (K.r, K.c) == (a * v, u * b)
        assert all(K.a[i * v + k][j * b + l] == A.a[i][j] * B.a[k][l]
                   for i in range(a) for j in range(u) for k in range(v) for l in range(b))


def test_solve_modulo_solves_the_congruence():
    rng = random.Random(41)
    solved = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        A, R = random_matrix(rng, m, rng.randint(0, 3)), random_matrix(rng, m, rng.randint(0, 2), -6, 6)
        B = random_matrix(rng, m, rng.randint(1, 2))
        X = solve_modulo(A, B, R)
        lattice = SmithSolver(R)
        if X is None:
            # some column of B leaves A's column lattice plus R's
            assert solve(A.hstack(R), B) is None
            continue
        solved += 1
        assert (X.r, X.c) == (A.c, B.c)
        assert all(lattice.contains_column(col) for col in zip(*(A @ X - B).a))
    assert 0 < solved < 100
