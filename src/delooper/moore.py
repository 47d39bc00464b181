"""Moore complexes, homotopy groups, bisimplicial grids, and their E^2 pages.

The Moore complex of a (face-only) simplicial abelian group has degree-n
term the joint kernel of d_1..d_n and boundary the restriction of d_0;
its homology gives the homotopy groups. Bisimplicial grids support the
diagonal, the levelwise-homotopy E^2 page, and the double-Moore total
complex used as the independent route in Eilenberg-Zilber checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    Hom,
    PresentedGroup,
    direct_sum,
    homology,
    induced_on_homology,
    joint_kernel,
    subgroup,
    tensor,
)
from .delta_core import DeltaSAb, SAb, StructuralError, _first_difference, free_degeneracy_extension, verify_identities
from .intlin import Mat, add_block, kron, solve_modulo
from .jsontypes import InputError


@dataclass
class GradedAbelianGroup:
    """Invariant factors per degree; 0 stands for Z. Equality is literal."""

    factors: dict

    def __getitem__(self, degree):
        return self.factors.get(degree, ())

    def __eq__(self, other):
        if not isinstance(other, GradedAbelianGroup):
            return NotImplemented
        keys = set(self.factors) | set(other.factors)
        return all(self[k] == other[k] for k in keys)


@dataclass
class ChainComplex:
    groups: list
    diffs: dict  # diffs[n]: Mat C_n -> C_{n-1}, for 1 <= n <= cap

    @property
    def cap(self):
        return len(self.groups) - 1

    def verify_dd(self):
        bad = []
        for n in range(2, self.cap + 1):
            j = self.groups[n - 2].first_nonzero_column(self.diffs[n - 1] @ self.diffs[n])
            if j is not None:
                bad.append((n, j))
        return bad


@dataclass
class MooreComplex:
    complex: ChainComplex
    lifts: list  # lifts[n]: Mat, columns embed N_n into level n


def moore_complex(G):
    """Moore complex of a simplicial or face-only simplicial abelian group."""
    cap = G.cap
    lifts = []
    groups = []
    for n in range(cap + 1):
        K = joint_kernel(G.faces[n][1:], [G.levels[n - 1]] * n) if n else Mat.eye(G.rank(0))
        lifts.append(K)
        groups.append(subgroup(G.levels[n], K)[0])
    diffs = {}
    for n in range(1, cap + 1):
        diffs[n] = solve_modulo(lifts[n - 1], G.face(n, 0) @ lifts[n], G.levels[n - 1].rels)
        if diffs[n] is None:
            raise StructuralError(f"d_0 does not preserve the Moore subgroup at degree {n}")
    cpx = ChainComplex(groups=groups, diffs=diffs)
    bad = cpx.verify_dd()
    if bad:
        raise StructuralError(f"Moore boundary does not square to zero at degrees {bad}")
    return MooreComplex(complex=cpx, lifts=lifts)


def chain_homology(cpx, n):
    """Homology of a chain complex at degree n, as a Subquotient."""
    zero = PresentedGroup.free(0)
    if n == 0:
        outgoing = Hom(cpx.groups[0], zero, Mat(0, cpx.groups[0].ngens, [[] for _ in range(0)]))
    else:
        outgoing = Hom(cpx.groups[n], cpx.groups[n - 1], cpx.diffs[n])
    if n + 1 <= cpx.cap:
        incoming = Hom(cpx.groups[n + 1], cpx.groups[n], cpx.diffs[n + 1])
    else:
        incoming = Hom(zero, cpx.groups[n], Mat(cpx.groups[n].ngens, 0, [[] for _ in range(cpx.groups[n].ngens)]))
    return homology(incoming, outgoing)


def reliable_range(cap):
    """Degrees whose homotopy is unaffected by the truncation at cap."""
    return range(0, cap)


def homotopy_groups(G, degrees=None):
    """Homotopy groups via Moore homology, in canonical invariant-factor form."""
    mc = moore_complex(G)
    if degrees is None:
        degrees = list(reliable_range(G.cap))
    bad = [n for n in degrees if n not in reliable_range(G.cap)]
    if bad:
        raise InputError(f"degrees {bad} exceed the reliable range (cap {G.cap} supports < {G.cap})")
    factors = {}
    for n in degrees:
        H = chain_homology(mc.complex, n)
        factors[n] = H.group.invariant_factors()
    return GradedAbelianGroup(factors=factors)


def dold_kan(cpx, cap=None):
    """The inverse Dold-Kan construction Gamma on a nonnegative chain complex.

    Gamma(C) is the free degeneracy extension of C read as a face-only
    object whose top face d_n at level n is the differential and whose
    other faces are zero: level n is the sum of C_k over the canonical
    degeneracy words k -> n (the monotone surjections [n] ->> [k]).
    """
    if cap is None:
        cap = cpx.cap
    if cap > cpx.cap:
        raise ValueError("cap exceeds the chain complex length")
    faces = {}
    for n in range(1, cap + 1):
        zero = Mat(cpx.groups[n - 1].ngens, cpx.groups[n].ngens)
        faces[n] = [zero] * n + [cpx.diffs[n]]
    return free_degeneracy_extension(DeltaSAb(cpx.groups[: cap + 1], faces, cap)).object


class BisimplicialAbelianGroup:
    """A grid of presented groups with commuting horizontal and vertical
    simplicial structures."""

    def __init__(self, levels, h_faces, v_faces, h_degs, v_degs, hcap, vcap):
        self.levels = levels  # levels[p][q]
        self.h_faces = h_faces  # h_faces[(p, q)][i]: (p,q) -> (p-1,q)
        self.v_faces = v_faces  # v_faces[(p, q)][j]: (p,q) -> (p,q-1)
        self.h_degs = h_degs  # h_degs[(p, q)][i]: (p,q) -> (p+1,q)
        self.v_degs = v_degs  # v_degs[(p, q)][j]: (p,q) -> (p,q+1)
        self.hcap = hcap
        self.vcap = vcap

    def row(self, q):
        """The simplicial abelian group p -> B_{p,q} (horizontal structure)."""
        levels = [self.levels[p][q] for p in range(self.hcap + 1)]
        faces = {p: list(self.h_faces[(p, q)]) for p in range(1, self.hcap + 1)}
        degs = {p: list(self.h_degs[(p, q)]) for p in range(0, self.hcap)}
        return SAb(levels, faces, degs, self.hcap)

    def column(self, p):
        levels = [self.levels[p][q] for q in range(self.vcap + 1)]
        faces = {q: list(self.v_faces[(p, q)]) for q in range(1, self.vcap + 1)}
        degs = {q: list(self.v_degs[(p, q)]) for q in range(0, self.vcap)}
        return SAb(levels, faces, degs, self.vcap)

    def verify(self):
        """Both directions simplicial, and horizontal/vertical maps commute."""
        problems = []
        for q in range(self.vcap + 1):
            rep = verify_identities(self.row(q))
            if not rep.ok:
                problems.append(("row", q, rep.violations[0].describe()))
        for p in range(self.hcap + 1):
            rep = verify_identities(self.column(p))
            if not rep.ok:
                problems.append(("column", p, rep.violations[0].describe()))
        # (name, maps, step): a face lowers its index by one, a degeneracy raises it
        squares = [
            (f"{hname}-{vname}", hmaps, a, vmaps, b)
            for hname, hmaps, a in (("hface", self.h_faces, -1), ("hdeg", self.h_degs, 1))
            for vname, vmaps, b in (("vface", self.v_faces, -1), ("vdeg", self.v_degs, 1))
        ]
        for p in range(self.hcap + 1):
            for q in range(self.vcap + 1):
                for i in range(p + 1):
                    for j in range(q + 1):
                        for kind, hmaps, a, vmaps, b in squares:
                            if 0 <= p + a <= self.hcap and 0 <= q + b <= self.vcap:
                                lhs = vmaps[(p + a, q)][j] @ hmaps[(p, q)][i]
                                rhs = hmaps[(p, q + b)][i] @ vmaps[(p, q)][j]
                                if _first_difference(self.levels[p + a][q + b], lhs, rhs) is not None:
                                    problems.append((kind, (p, q), "square fails"))
        return problems


def external_product(A, B):
    """Levelwise tensor product bisimplicial grid of two simplicial groups."""
    hcap, vcap = A.cap, B.cap
    levels = [[tensor(A.levels[p], B.levels[q]) for q in range(vcap + 1)] for p in range(hcap + 1)]
    h_faces, v_faces, h_degs, v_degs = {}, {}, {}, {}
    for p in range(hcap + 1):
        for q in range(vcap + 1):
            IB = Mat.eye(B.levels[q].ngens)
            IA = Mat.eye(A.levels[p].ngens)
            if p >= 1:
                h_faces[(p, q)] = [kron(A.face(p, i), IB) for i in range(p + 1)]
            if q >= 1:
                v_faces[(p, q)] = [kron(IA, B.face(q, j)) for j in range(q + 1)]
            if p < hcap:
                h_degs[(p, q)] = [kron(A.degeneracy(p, i), IB) for i in range(p + 1)]
            if q < vcap:
                v_degs[(p, q)] = [kron(IA, B.degeneracy(q, j)) for j in range(q + 1)]
    return BisimplicialAbelianGroup(levels, h_faces, v_faces, h_degs, v_degs, hcap, vcap)


def diagonal(B):
    """diag(B)_n = B_{n,n} with d_i = d_i^h . d_i^v and s_j = s_j^h . s_j^v."""
    cap = min(B.hcap, B.vcap)
    levels = [B.levels[n][n] for n in range(cap + 1)]
    faces = {}
    degs = {}
    for n in range(1, cap + 1):
        faces[n] = [B.h_faces[(n, n - 1)][i] @ B.v_faces[(n, n)][i] for i in range(n + 1)]
    for n in range(0, cap):
        degs[n] = [B.h_degs[(n, n + 1)][j] @ B.v_degs[(n, n)][j] for j in range(n + 1)]
    return SAb(levels, faces, degs, cap)


def vertical_homotopy_object(B, t, cols, moores):
    """The simplicial abelian group p -> pi_t(B_{p, *}) with induced maps,
    from the columns cols of B and their Moore complexes moores."""
    subs = [chain_homology(m.complex, t) for m in moores]
    levels = [s.group for s in subs]

    def induce(mat, p_src, p_dst):
        """Induced map pi_t(column p_src) -> pi_t(column p_dst) from a level map."""
        on_moore = solve_modulo(moores[p_dst].lifts[t], mat @ moores[p_src].lifts[t], cols[p_dst].levels[t].rels)
        if on_moore is None:
            raise StructuralError("induced map does not preserve Moore cycles")
        f = Hom(subs[p_src].ambient, subs[p_dst].ambient, on_moore)
        return induced_on_homology(subs[p_src], subs[p_dst], f).mat

    faces = {}
    degs = {}
    for p in range(1, B.hcap + 1):
        faces[p] = [induce(B.h_faces[(p, t)][i], p, p - 1) for i in range(p + 1)]
    for p in range(0, B.hcap):
        degs[p] = [induce(B.h_degs[(p, t)][i], p, p + 1) for i in range(p + 1)]
    return SAb(levels, faces, degs, B.hcap)


class CollapseMismatch(RuntimeError):
    """A page concentrated in the base column disagreed with the diagonal."""


@dataclass
class E2Page:
    entries: dict  # (s, t) -> invariant factors
    collapsed: bool | None  # every entry with s > 0 vanishes in the window; None when smax = 0
    window: tuple
    collapse_certified: bool = False  # diagonal comparison ran and agreed


def e2_page(B, smax=None, tmax=None):
    """E2_{s,t} = pi_s(pi_t of the columns), within the reliable window."""
    if smax is None:
        smax = B.hcap - 1
    if tmax is None:
        tmax = B.vcap - 1
    if smax >= B.hcap or tmax >= B.vcap:
        raise InputError("window exceeds the reliable range of the caps")
    entries = {}
    collapsed = True if smax else None  # with no s > 0 column there is nothing to vanish
    cols = [B.column(p) for p in range(B.hcap + 1)]
    moores = [moore_complex(c) for c in cols]  # independent of t: built once per page
    for t in range(tmax + 1):
        obj = vertical_homotopy_object(B, t, cols, moores)
        pis = homotopy_groups(obj, range(smax + 1))
        for s in range(smax + 1):
            entries[(s, t)] = pis[s]
            if s > 0 and pis[s] != ():
                collapsed = False
    page = E2Page(entries=entries, collapsed=collapsed, window=(smax, tmax))
    if collapsed:
        holds, detail = certify_collapse(B, page)
        if not holds:
            raise CollapseMismatch(detail)
        page.collapse_certified = True
    return page


def certify_collapse(B, page):
    """When the page is concentrated in s = 0, the diagonal's homotopy must
    equal the base column in each total degree t <= min(smax, tmax), where
    the window holds every E2_(s,t-s); returns (holds, details)."""
    if not page.collapsed:
        return False, "page not concentrated in s = 0"
    smax, tmax = page.window
    diag = diagonal(B)
    top = min(tmax, smax, diag.cap - 1)
    pis = homotopy_groups(diag, range(top + 1))
    for t in range(top + 1):
        if pis[t] != page.entries[(0, t)]:
            return False, f"pi_{t}(diag) = {pis[t]} but E2_(0,{t}) = {page.entries[(0, t)]}"
    return True, f"pi_t(diag) = E2_(0,t) for 0 <= t <= {top}"


def double_moore_total_complex(B):
    """Total complex of the double Moore complex of a bisimplicial grid.

    The independent Eilenberg-Zilber route: its homology must agree with
    the homotopy of the diagonal in the reliable range.
    """
    cap = min(B.hcap, B.vcap)
    lattices = {}
    groups = {}
    for p in range(B.hcap + 1):
        for q in range(B.vcap + 1):
            G = B.levels[p][q]
            maps, targets = [], []
            if p:
                maps += B.h_faces[(p, q)][1:]
                targets += [B.levels[p - 1][q]] * p
            if q:
                maps += B.v_faces[(p, q)][1:]
                targets += [B.levels[p][q - 1]] * q
            K = joint_kernel(maps, targets) if maps else Mat.eye(G.ngens)
            lattices[(p, q)] = K
            groups[(p, q)], _ = subgroup(G, K)

    def express(p, q, img):
        blk = solve_modulo(lattices[(p, q)], img, B.levels[p][q].rels)
        if blk is None:
            raise StructuralError("double Moore boundary leaves the bicomplex")
        return blk

    tot_groups = []
    tot_layout = []
    for n in range(cap + 1):
        cells = [(p, n - p) for p in range(n + 1) if p <= B.hcap and n - p <= B.vcap]
        glued, offsets = direct_sum([groups[c] for c in cells])
        tot_groups.append(glued)
        tot_layout.append((cells, offsets))
    diffs = {}
    for n in range(1, cap + 1):
        out = Mat(tot_groups[n - 1].ngens, tot_groups[n].ngens)
        cells, offsets = tot_layout[n]
        cells_lo, offsets_lo = tot_layout[n - 1]
        pos_lo = {c: offsets_lo[k] for k, c in enumerate(cells_lo)}
        for k, (p, q) in enumerate(cells):
            off = offsets[k]
            if p >= 1 and (p - 1, q) in pos_lo:
                blk = express(p - 1, q, B.h_faces[(p, q)][0] @ lattices[(p, q)])
                add_block(out, pos_lo[(p - 1, q)], off, blk)
            if q >= 1 and (p, q - 1) in pos_lo:
                blk = express(p, q - 1, B.v_faces[(p, q)][0] @ lattices[(p, q)])
                add_block(out, pos_lo[(p, q - 1)], off, -blk if p % 2 else blk)
        diffs[n] = out
    cpx = ChainComplex(groups=tot_groups, diffs=diffs)
    bad = cpx.verify_dd()
    if bad:
        raise StructuralError(f"total complex boundary does not square to zero: {bad}")
    return cpx


def chain_homology_factors(cpx, degrees):
    return GradedAbelianGroup(factors={n: chain_homology(cpx, n).group.invariant_factors() for n in degrees})
