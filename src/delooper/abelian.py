"""Finitely generated abelian groups with canonical presentations.

A group is Z^ngens modulo the column lattice of an integer relation
matrix. Equality of elements is congruence modulo that lattice, decided
through a cached Smith normal form, which also supplies a hash-stable
canonical representative for every coset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .intlin import Mat, SmithSolver, column_basis, kernel_mod_lattice


class PresentedGroup:
    def __init__(self, ngens, rels=None):
        self.ngens = ngens
        if rels is None:
            rels = Mat(ngens, 0, [[] for _ in range(ngens)])
        if rels.r != ngens:
            raise ValueError("relation matrix must have one row per generator")
        self.rels = rels
        self._snf = SmithSolver(rels)
        self._inv = None

    @staticmethod
    def free(n):
        return PresentedGroup(n)

    @staticmethod
    def cyclic(m):
        return PresentedGroup(1, Mat(1, 1, [[m]]))

    @staticmethod
    def from_factors(factors):
        """Direct sum of Z/d for d in factors (d=0 meaning Z)."""
        n = len(factors)
        cols = [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return PresentedGroup(n, Mat(n, n, cols))

    def zero(self):
        return [0] * self.ngens

    def basis_vector(self, i):
        v = [0] * self.ngens
        v[i] = 1
        return v

    def canon(self, v):
        """Hash-stable canonical representative key of the coset of v."""
        if len(v) != self.ngens:
            raise ValueError("element length mismatch")
        y = self._snf.U.apply(v)
        out = []
        for i in range(self.ngens):
            if i < self._snf.rank:
                d = self._snf.D.a[i][i]
                out.append(y[i] % d)
            else:
                out.append(y[i])
        return tuple(out)

    def canon_vector(self, v):
        """Canonical coset representative, expressed back in generator coordinates."""
        return self._snf.Uinv.apply(list(self.canon(v)))

    def is_zero_elt(self, v):
        return all(x == 0 for x in self.canon(v))

    def eq_elts(self, v, w):
        return self.canon(v) == self.canon(w)

    def invariant_factors(self):
        """Nontrivial invariant factors, divisibility-ascending, 0 meaning Z."""
        if self._inv is None:
            D = self._snf.D
            tors = [D.a[i][i] for i in range(self._snf.rank) if D.a[i][i] != 1]
            free = self.ngens - self._snf.rank
            self._inv = tuple(tors + [0] * free)
        return self._inv

    def is_trivial(self):
        return self.invariant_factors() == ()

    def free_rank(self):
        return sum(1 for d in self.invariant_factors() if d == 0)

    def order(self):
        """Group order, or None if infinite."""
        facs = self.invariant_factors()
        if any(d == 0 for d in facs):
            return None
        n = 1
        for d in facs:
            n *= d
        return n

    def elements(self):
        """All elements as canonical generator-coordinate vectors (finite only)."""
        if self.order() is None:
            raise ValueError("cannot enumerate an infinite group")
        uinv = self._snf.Uinv
        ranges = []
        for i in range(self.ngens):
            if i < self._snf.rank:
                ranges.append(range(self._snf.D.a[i][i]))
            else:
                ranges.append(range(1))
        for y in itertools.product(*ranges):
            yield uinv.apply(list(y))

    def describe(self):
        facs = self.invariant_factors()
        if not facs:
            return "0"
        parts = ["Z" if d == 0 else f"Z/{d}" for d in facs]
        return " + ".join(parts)

    def __repr__(self):
        return f"PresentedGroup({self.describe()})"


@dataclass
class Hom:
    """Homomorphism between presented groups, as a matrix on generators."""

    src: PresentedGroup
    dst: PresentedGroup
    mat: Mat

    def __post_init__(self):
        if self.mat.r != self.dst.ngens or self.mat.c != self.src.ngens:
            raise ValueError(
                f"hom matrix shape {self.mat.r}x{self.mat.c} does not match "
                f"dst {self.dst.ngens} / src {self.src.ngens}"
            )

    def is_well_defined(self):
        if self.src.rels.c == 0:
            return True
        image_of_rels = self.mat @ self.src.rels
        solver = self.dst._snf
        for j in range(image_of_rels.c):
            if not solver.contains_column(image_of_rels.col(j)):
                return False
        return True

    def compose(self, other):
        """self after other."""
        if other.dst is not self.src and other.dst.ngens != self.src.ngens:
            raise ValueError("hom composition mismatch")
        return Hom(other.src, self.dst, self.mat @ other.mat)

    def apply(self, v):
        return self.mat.apply(v)


def subgroup(G, gens):
    """Subgroup of G generated by the columns of gens.

    Returns (S, incl) with S presented on those generators and incl the
    inclusion hom S -> G.
    """
    rels = kernel_mod_lattice(gens, G.rels)
    S = PresentedGroup(gens.c, rels)
    return S, Hom(S, G, gens)


def quotient(G, gens):
    """Quotient of G by the subgroup generated by the columns of gens."""
    Q = PresentedGroup(G.ngens, G.rels.hstack(gens))
    return Q, Hom(G, Q, Mat.eye(G.ngens))


def kernel(f):
    """Kernel of f as (K, incl: K -> src)."""
    lat = kernel_mod_lattice(f.mat, f.dst.rels)
    return subgroup(f.src, lat)


def image(f):
    return subgroup(f.dst, f.mat)


def cokernel(f):
    return quotient(f.dst, f.mat)


@dataclass
class Subquotient:
    """ker(outgoing)/im(incoming) inside an ambient group.

    group: abstract presentation; lift: columns are cycle representatives
    in ambient coordinates; classify sends an ambient cycle to its class.
    """

    ambient: PresentedGroup
    group: PresentedGroup
    lift: Mat
    _classifier: SmithSolver = field(repr=False)

    def classify(self, v):
        """Coordinates in group of an ambient element that must be a cycle."""
        sol = self._classifier.solve_columns(Mat.column(v))
        if sol is None:
            raise ValueError("element is not a cycle in this subquotient")
        return [sol.a[i][0] for i in range(self.group.ngens)]


def homology(incoming, outgoing):
    """Subquotient ker(outgoing)/im(incoming); outgoing . incoming must vanish."""
    if incoming.dst.ngens != outgoing.src.ngens:
        raise ValueError("homology expects composable homs")
    cycles = kernel_mod_lattice(outgoing.mat, outgoing.dst.rels)
    ambient = incoming.dst
    boundaries = incoming.mat.hstack(ambient.rels)
    rels = kernel_mod_lattice(cycles, column_basis(boundaries))
    H = PresentedGroup(cycles.c, rels)
    classifier = SmithSolver(cycles.hstack(boundaries))
    return Subquotient(ambient=ambient, group=H, lift=cycles, _classifier=classifier)


def induced_on_homology(h_src, h_dst, f):
    """Map induced by the ambient hom f between two Subquotients."""
    cols = f.mat @ h_src.lift
    out = Mat(h_dst.group.ngens, h_src.group.ngens)
    for j in range(cols.c):
        cls = h_dst.classify(cols.col(j))
        for i in range(h_dst.group.ngens):
            out.a[i][j] = cls[i]
    return Hom(h_src.group, h_dst.group, out)


def direct_sum(groups):
    """Direct sum with offset bookkeeping: returns (G, offsets)."""
    total = sum(g.ngens for g in groups)
    rel_cols = sum(g.rels.c for g in groups)
    rels = Mat(total, rel_cols)
    offsets = []
    go, ro = 0, 0
    for g in groups:
        offsets.append(go)
        for i in range(g.ngens):
            for j in range(g.rels.c):
                rels.a[go + i][ro + j] = g.rels.a[i][j]
        go += g.ngens
        ro += g.rels.c
    return PresentedGroup(total, rels), offsets


def kron(A, B):
    """Kronecker product (tensor of matrices on chosen bases)."""
    out = Mat(A.r * B.r, A.c * B.c)
    for i in range(A.r):
        for j in range(A.c):
            v = A.a[i][j]
            if v:
                for k in range(B.r):
                    for l in range(B.c):
                        out.a[i * B.r + k][j * B.c + l] = v * B.a[k][l]
    return out


def tensor(G, H):
    """Tensor product of presented groups on generators g_i (x) h_j."""
    IG = Mat.eye(G.ngens)
    IH = Mat.eye(H.ngens)
    rels = kron(G.rels, IH).hstack(kron(IG, H.rels))
    return PresentedGroup(G.ngens * H.ngens, rels)
