"""Exact integer matrices and lattice computations.

Everything downstream (group presentations, Moore complexes, lifting
systems) reduces to Smith normal form over the integers, so this module
keeps matrices as plain lists of Python ints: no overflow, no floats.
Shapes are carried explicitly so zero-dimensional edges stay well typed.

This module is also the one home of how an integer system is laid out.
An unknown r-by-c matrix X is read row-major (entry (u, v) is unknown
u*c + v; ``unvec`` reads X back), and P·X·Q = B gives one row per entry of
B in the same order, so X ↦ P·X·Q is ``vec_block(P, Q)`` = kron(P, Qᵀ). A
congruence modulo the columns of R takes slack unknowns S in one more
term, −R·S, or, alone in its system, R's columns beside A
(``solve_modulo``). ``add_block`` places every block.
"""

from __future__ import annotations

import operator


class Mat:
    """An r-by-c integer matrix; rows are lists."""

    __slots__ = ("r", "c", "a")

    def __init__(self, r, c, a=None):
        self.r = r
        self.c = c
        if a is None:
            self.a = [[0] * c for _ in range(r)]
        else:
            self.a = a

    @staticmethod
    def from_rows(rows, c=None):
        r = len(rows)
        if r == 0:
            if c is None:
                raise ValueError("column count required for empty matrix")
            return Mat(0, c, [])
        return Mat(r, len(rows[0]), [list(x) for x in rows])

    @staticmethod
    def eye(n):
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return Mat(n, n, rows)

    @staticmethod
    def column(v):
        return Mat(len(v), 1, [[x] for x in v])

    def col(self, j):
        return [self.a[i][j] for i in range(self.r)]

    def copy(self):
        return Mat(self.r, self.c, [row[:] for row in self.a])

    def hstack(self, other):
        if self.r != other.r:
            raise ValueError(f"hstack shape mismatch {self.r} vs {other.r}")
        return Mat(self.r, self.c + other.c, [ra + rb for ra, rb in zip(self.a, other.a)])

    def transpose(self):
        return Mat(self.c, self.r, [list(col) for col in zip(*self.a)] or [[] for _ in range(self.c)])

    def __matmul__(self, other):
        if self.c != other.r:
            raise ValueError(f"matmul shape mismatch {self.r}x{self.c} @ {other.r}x{other.c}")
        out = Mat(self.r, other.c)
        A, B, C = self.a, other.a, out.a
        for i in range(self.r):
            Ai, Ci = A[i], C[i]
            for t in range(self.c):
                v = Ai[t]
                if v:
                    Bt = B[t]
                    for j in range(other.c):
                        Ci[j] += v * Bt[j]
        return out

    def apply(self, v):
        """Matrix times a plain integer vector."""
        if self.c != len(v):
            raise ValueError("apply shape mismatch")
        return [sum(map(operator.mul, row, v)) for row in self.a]

    def __add__(self, other):
        self._same_shape(other)
        return Mat(self.r, self.c, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.a, other.a)])

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(self.r, self.c, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.a, other.a)])

    def __neg__(self):
        return Mat(self.r, self.c, [[-x for x in row] for row in self.a])

    def scale(self, k):
        return Mat(self.r, self.c, [[k * x for x in row] for row in self.a])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.r == other.r and self.c == other.c and self.a == other.a

    def __hash__(self):
        return hash((self.r, self.c, tuple(tuple(row) for row in self.a)))

    def is_zero(self):
        return all(x == 0 for row in self.a for x in row)

    def _same_shape(self, other):
        if self.r != other.r or self.c != other.c:
            raise ValueError(f"shape mismatch {self.r}x{self.c} vs {other.r}x{other.c}")

    def __repr__(self):
        return f"Mat({self.r}x{self.c}, {self.a!r})"


def smith_normal_form(A):
    """Return (D, U, V, Uinv) with D = U @ A @ V in Smith normal form.

    U, V unimodular; diagonal entries nonnegative with d1 | d2 | ...
    Smallest-pivot selection keeps intermediate entries modest. Each row
    operation on U is undone by a column operation on Uinv, so Uinv is
    the inverse of U without a second elimination.

    A matrix with no nonzero entry (an empty side included) is returned as
    it stands, with identity transforms: the elimination finds no pivot.
    """
    m, n = A.r, A.c
    if not any(map(any, A.a)):
        return A.copy(), Mat.eye(m), Mat.eye(n), Mat.eye(m)
    D = [row[:] for row in A.a]
    U = Mat.eye(m).a
    Uinv = Mat.eye(m).a
    V = Mat.eye(n).a
    t = 0
    while t < min(m, n):
        piv, best = None, None
        for i in range(t, m):
            Di = D[i]
            for j in range(t, n):
                v = Di[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            U[t], U[pi] = U[pi], U[t]
            for r in Uinv:
                r[t], r[pi] = r[pi], r[t]
        if pj != t:
            for r in D:
                r[t], r[pj] = r[pj], r[t]
            for r in V:
                r[t], r[pj] = r[pj], r[t]
        while True:
            changed = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    if q:
                        D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                        U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                        for r in Uinv:
                            r[t] += q * r[i]
                    if D[i][t]:
                        D[t], D[i] = D[i], D[t]
                        U[t], U[i] = U[i], U[t]
                        for r in Uinv:
                            r[t], r[i] = r[i], r[t]
                        changed = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    if q:
                        for r in D:
                            r[j] -= q * r[t]
                        for r in V:
                            r[j] -= q * r[t]
                    if D[t][j]:
                        for r in D:
                            r[t], r[j] = r[j], r[t]
                        for r in V:
                            r[t], r[j] = r[j], r[t]
                        changed = True
            if not changed:
                break
        d = D[t][t]
        bad = None
        for i in range(t + 1, m):
            Di = D[i]
            for j in range(t + 1, n):
                if Di[j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            D[t] = [x + y for x, y in zip(D[t], D[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
            for r in Uinv:
                r[bad] -= r[t]
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
            for r in Uinv:
                r[t] = -r[t]
        t += 1
    return Mat(m, n, D), Mat(m, m, U), Mat(n, n, V), Mat(m, m, Uinv)


class SmithSolver:
    """The SNF D = U A V of A, with the inverse Uinv of U, kept to answer
    many questions about the column lattice L of A.

    ``moduli`` has one entry per row of A: d_i for i < rank, 0 beyond.
    ``reduce(v)`` is the tuple U v with coordinate i reduced mod moduli[i]
    where that is nonzero; two vectors have the same tuple exactly when
    their difference lies in L, so it is the key of v's coset modulo L.
    Callers read the Smith form only through these two (``reduce_columns``
    is ``reduce`` of every column of a matrix).
    """

    def __init__(self, A):
        self.A = A
        self.D, self.U, self.V, self.Uinv = smith_normal_form(A)
        r = 0
        while r < min(A.r, A.c) and self.D.a[r][r] != 0:
            r += 1
        self.rank = r
        self.moduli = tuple([self.D.a[i][i] for i in range(r)] + [0] * (A.r - r))

    def reduce(self, v):
        """The Smith coordinates of v, each reduced mod its nonzero modulus.
        A lattice with no generators (A has no columns) has U = I and every
        modulus 0, so there they are the entries of v as they stand."""
        if not self.A.c:
            if len(v) != self.A.r:
                raise ValueError("apply shape mismatch")
            return tuple(v)
        return self._reduced(self.U.apply(v))

    def reduce_columns(self, M):
        """reduce of each column of M, from one product U @ M (the columns
        of M themselves when A has no columns, as in reduce)."""
        if not self.A.c:
            if M.r != self.A.r:
                raise ValueError(f"matmul shape mismatch {self.A.r}x{self.A.r} @ {M.r}x{M.c}")
            return list(zip(*M.a)) if M.r else [()] * M.c
        UM = self.U @ M
        return [self._reduced([row[c] for row in UM.a]) for c in range(M.c)]

    def _reduced(self, y):
        return tuple([x % d if d else x for x, d in zip(y, self.moduli)])

    def solve_columns(self, B):
        """Particular solution X with A @ X = B, or None. Free coords set to 0."""
        if self.A.r != B.r:
            raise ValueError("solve shape mismatch")
        UB = self.U @ B
        if any(any(self._reduced(col)) for col in zip(*UB.a)):
            return None
        Y = Mat(self.rank, B.c, [[x // d for x in row] for row, d in zip(UB.a, self.moduli[: self.rank])])
        return _columns(self.V, 0, self.rank) @ Y

    def nullspace(self):
        """Basis (columns) of the integer kernel of A."""
        return _columns(self.V, self.rank, self.A.c)

    def contains_column(self, b):
        return not any(self.reduce(b))


def _columns(M, lo, hi):
    """The columns lo..hi-1 of M."""
    return Mat(M.r, hi - lo, [row[lo:hi] for row in M.a])


def solve(A, B):
    """One-shot A X = B; returns particular solution or None."""
    return SmithSolver(A).solve_columns(B)


def nullspace(A):
    return SmithSolver(A).nullspace()


def vstack_all(mats):
    """The matrices of a nonempty list stacked top to bottom."""
    return Mat.from_rows([row for M in mats for row in M.a], c=mats[0].c)


def add_block(M, r0, c0, B):
    """Add B into M in place with its top-left entry at (r0, c0), skipping
    B's zero entries."""
    if r0 + B.r > M.r or c0 + B.c > M.c:
        raise ValueError(f"a {B.r}x{B.c} block at ({r0}, {c0}) leaves a {M.r}x{M.c} matrix")
    rows = M.a
    for i, brow in enumerate(B.a, r0):
        row = rows[i]
        for c, x in enumerate(brow, c0):
            if x:
                row[c] += x


def block_diagonal(mats):
    """The block-diagonal matrix with the given blocks, in order."""
    out = Mat(sum(M.r for M in mats), sum(M.c for M in mats))
    r0 = c0 = 0
    for M in mats:
        add_block(out, r0, c0, M)
        r0 += M.r
        c0 += M.c
    return out


def kron(A, B):
    """Kronecker product: entry ((i, k), (j, l)) is A[i][j]·B[k][l]."""
    return Mat(A.r * B.r, A.c * B.c, [[x * y for x in ra for y in rb] for ra in A.a for rb in B.a])


def vec_block(P, Q):
    """The matrix of X ↦ P·X·Q on the row-major entries of X: kron(P, Qᵀ)."""
    return kron(P, Q.transpose())


def unvec(v, r, c):
    """The r-by-c matrix whose row-major entries are the list v."""
    return Mat(r, c, [v[u * c : (u + 1) * c] for u in range(r)])


def solve_modulo(A, B, R):
    """X with A·X ≡ B modulo the column lattice of R, or None: the first
    A.c rows of a solution Y of [A | R]·Y = B."""
    sol = SmithSolver(A.hstack(R)).solve_columns(B)
    return None if sol is None else Mat(A.c, B.c, sol.a[: A.c])


def kernel_mod_lattice(A, L):
    """Basis of the lattice {x : A x lies in the column lattice of L}.

    A: m x n, L: m x k. Computed from the kernel of [A | L] projected to
    the x-coordinates, then column-reduced to a basis.
    """
    if L.c == 0:
        return nullspace(A)
    stacked = A.hstack(L)
    N = nullspace(stacked)
    proj = Mat(A.c, N.c, [row[:] for row in N.a[: A.c]])
    return column_basis(proj)


def column_basis(A):
    """A basis (as columns) for the lattice spanned by the columns of A.

    From D = U A V: A V = U^{-1} D, whose first rank columns d_i * U^{-1}[:, i]
    are independent and span the column lattice of A. Deterministic.
    """
    snf = SmithSolver(A)
    d = snf.moduli[: snf.rank]
    return Mat(A.r, snf.rank, [[x * y for x, y in zip(row, d)] for row in snf.Uinv.a])
