"""Synthesizing strict degeneracies on a Reedy-fibrant face-only object.

Stage n chooses the level-n degeneracy matrices jointly: their face
tuples must match the prescription assembled from lower stages (one
integer linear system per stage), the cross identities with the previous
stage's degeneracies are imposed, and the solution is tied to the given
up-to-homotopy degeneracies through mapping-complex boundary unknowns
wherever the truncation can express them. Solutions on longer degeneracy
words are forced by composition and re-verified, so a successful run is
strict by construction and is checked exhaustively at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .abelian import PresentedGroup, joint_kernel, quotient, subgroup
from .delta_core import (
    SAb,
    _first_difference,
    degeneracy_word_matrix,
    is_reedy_fibrant,
    matching_object,
    push_face_through,
    verify_identities,
)
from .intlin import Mat, SmithSolver, add_block, kernel_mod_lattice, unvec, vec_block, vstack_all
from .jsontypes import InputError
from .simplicial import StructuralError, identity_cases
from .words import DegeneracyWord, canonical_degeneracy_words


class FibrancyError(InputError):
    """The comparison map to a matching object is not surjective."""


@dataclass
class HomotopyDegeneracyData:
    """Candidate degeneracies s'_j : level n -> level n+1, for n < cap."""

    maps: dict  # n -> [Mat for j in 0..n]

    def check_shapes(self, V):
        for n in range(V.cap):
            row = self.maps.get(n)
            if row is None or len(row) != n + 1:
                raise StructuralError(f"need {n + 1} candidate degeneracies at level {n}")
            for j, s in enumerate(row):
                if s.r != V.rank(n + 1) or s.c != V.rank(n):
                    raise StructuralError(f"candidate s'_{j} at level {n} has shape {s.r}x{s.c}")

    @staticmethod
    def from_simplicial(W):
        return HomotopyDegeneracyData(maps={n: [W.degeneracy(n, j) for j in range(n + 1)] for n in range(W.cap)})


def boundary_matrix(V, m):
    """Alternating sum of the faces at level m."""
    out = None
    for i in range(m + 1):
        t = V.face(m, i).scale(-1 if i % 2 else 1)
        out = t if out is None else out + t
    return out


def fiber_lattice(V, m):
    """Basis of the joint kernel of every face at level m (the directions a
    lifting problem cannot see)."""
    return joint_kernel(V.faces[m], [V.levels[m - 1]] * (m + 1))


@dataclass
class SplitComplement:
    level: int
    degenerate: PresentedGroup
    inclusion: Mat
    retraction: Mat
    complement: Mat  # columns generate a complement inside the level


class NotSplitError(ValueError):
    def __init__(self, level, torsion):
        self.level = level
        self.torsion = torsion
        super().__init__(
            f"degenerate subobject at level {level} is not a direct summand; "
            f"cokernel torsion {torsion}"
        )


def split_complement(V, n, state):
    """Decomposition level_n = (degenerate part) + (complement).

    state: dict level -> list of chosen degeneracy matrices. Fails loudly
    when the degenerate subgroup is not split over the integers.
    """
    level = V.levels[n]
    L, incl = subgroup(level, functools.reduce(Mat.hstack, state[n - 1]))
    gL, gV = L.ngens, level.ngens
    # retraction r: level -> L with r . incl = id and r well-defined, found
    # as one integer system in the entries of r (slack for L's relations)
    sys_ = _StageSystem()
    sys_.add_unknown("r", gL, gV)
    IL = Mat.eye(gL)
    sys_.add_equation([(IL, "r", incl.mat)], IL, target_rels=L.rels)
    if level.rels.c:
        sys_.add_equation([(IL, "r", level.rels)], Mat(gL, level.rels.c), target_rels=L.rels)
    sol, _ = sys_.solve()
    if sol is None:
        coker, _ = quotient(level, incl.mat)
        torsion = tuple(d for d in coker.invariant_factors() if d != 0)
        raise NotSplitError(n, torsion)
    retraction = sol["r"]
    comp = kernel_mod_lattice(retraction, L.rels)
    return SplitComplement(level=n, degenerate=L, inclusion=incl.mat, retraction=retraction, complement=comp)


def rho_map(V, state, n, matching=None):
    """The face tuple each degeneracy-word summand of level n+1 must have.

    Returns {word: [component matrices]} assembled from V's faces and the
    stage history; membership in the matching object at degree n+1 is
    verified. matching, when given, must be matching_object(V, n + 1) of
    this V; else it is built here. Only the levels k < n of the history are
    read: each face shortens a word to one that ends at level n.
    """
    for k in range(n):
        row = state.get(k)
        if row is None or len(row) != k + 1:
            raise ValueError(f"stage history invalid: missing degeneracies at level {k}")
        for s in row:
            if s.r != V.rank(k + 1) or s.c != V.rank(k):
                raise ValueError(f"stage history invalid: bad shape at level {k}")
    word_matrix = functools.cache(lambda w: degeneracy_word_matrix(V, state, w))  # each shorter word once
    components = {}
    for k in range(n + 1):
        for w in canonical_degeneracy_words(k, n + 1):
            comps = []
            for i in range(n + 2):
                result = push_face_through(w, i)
                if result[0] == "deg":
                    mat = word_matrix(result[1])
                else:
                    _, i2, w2 = result
                    mat = word_matrix(w2) @ V.face(k, i2)
                comps.append(mat)
            components[w] = comps
    mo = matching_object(V, n + 1) if matching is None else matching
    solver = SmithSolver(mo.inclusion.hstack(mo.ambient.rels))
    for w, comps in components.items():
        if solver.solve_columns(vstack_all(comps)) is None:
            raise StructuralError(f"face prescription for word {w.describe()} leaves the matching object")
    return components


class _StageSystem:
    """Sparse-ish assembler for one stage's integer linear system."""

    def __init__(self):
        self.unknowns = {}
        self.total = 0
        self.rows = []
        self.rhs = []
        self._slacks = 0

    def add_unknown(self, name, nrows, ncols):
        if name not in self.unknowns:
            self.unknowns[name] = (nrows, ncols, self.total)
            self.total += nrows * ncols

    def add_equation(self, terms, rhs, target_rels=None):
        """sum P @ X_name @ Q = rhs, modulo the column lattice of target_rels:
        each term is the block vec_block(P, Q) under its unknown, and the
        relations enter as one more term -target_rels @ S @ I in a slack
        unknown S of their own."""
        if target_rels is not None and target_rels.c:
            slack_name = ("slack", self._slacks)
            self._slacks += 1
            self.add_unknown(slack_name, target_rels.c, rhs.c)
            terms = [*terms, (-target_rels, slack_name, Mat.eye(rhs.c))]
        band = Mat(rhs.r * rhs.c, self.total)
        for P, name, Q in terms:
            add_block(band, 0, self.unknowns[name][2], vec_block(P, Q))
        self.rows += band.a
        self.rhs += [x for row in rhs.a for x in row]

    def solve(self):
        """(matrix per unknown, None), or (None, a residue naming the first
        failing equation of the system's SNF)."""
        A = Mat(len(self.rows), self.total, [line + [0] * (self.total - len(line)) for line in self.rows])
        solver = SmithSolver(A)
        sol = solver.solve_columns(Mat.column(self.rhs))
        if sol is None:
            residues = solver.reduce(self.rhs)
            i = next(i for i, x in enumerate(residues) if x)
            d, x = solver.moduli[i], residues[i]
            if d:
                y = sum(u * b for u, b in zip(solver.U.a[i], self.rhs))
                return None, f"congruence {y} = 0 (mod {d}) fails; residue {x}"
            return None, f"equation 0 = {x} fails; residue {x}"
        x = sol.col(0)
        return {name: unvec(x[off : off + xr * xc], xr, xc) for name, (xr, xc, off) in self.unknowns.items()}, None


@dataclass
class SynthesisFailure(Exception):
    stage: int
    congruence: str
    detail: str

    def describe(self):
        return f"synthesis failed at stage {self.stage}: {self.congruence} ({self.detail})"


@dataclass
class SynthesisResult:
    object: SAb
    stage_log: list


def synthesize(V, hdeg, strict_homotopy_tie=False):
    """Equip a Reedy-fibrant face-only object with strict degeneracies.

    Per stage: take the candidates verbatim when they already satisfy the
    stage identities; otherwise solve the lifting system tied to the
    candidates by mapping-complex boundary and fiber unknowns; where the
    truncation cannot express the tie (the top stage) or the tie alone is
    infeasible, fall back to the bare lifting system unless
    strict_homotopy_tie is set, in which case that infeasibility is
    reported as the synthesis obstruction.
    """
    hdeg.check_shapes(V)
    reedy = is_reedy_fibrant(V)
    if not reedy.fibrant:
        bad = sorted(reedy.witnesses)
        raise FibrancyError(f"comparison map not surjective at degrees {bad}")
    state = {}
    log = []
    rhos = []  # stage n's prescription; later stages leave the levels it reads alone
    for n in range(V.cap):
        rho = rho_map(V, state, n, reedy.matching[n + 1])
        rhos.append(rho)
        entry = {"stage": n}
        if n >= 1:
            try:
                split_complement(V, n, state)
                entry["degenerate_split"] = True
            except NotSplitError as exc:
                entry["degenerate_split"] = False
                entry["torsion"] = exc.torsion
        candidates = hdeg.maps[n]
        if _stage_strict_ok(V, state, rho, candidates, n):
            state[n] = [s.copy() for s in candidates]
            entry["tier"] = "exact"
            log.append(entry)
            continue
        sol, residue = _solve_stage(V, state, rho, candidates, n, with_tie=True)
        if sol is not None:
            state[n] = sol
            entry["tier"] = "tie"
            log.append(entry)
            continue
        if strict_homotopy_tie:
            raise SynthesisFailure(stage=n, congruence=residue, detail="homotopy-tied lifting system inconsistent")
        sol2, residue2 = _solve_stage(V, state, rho, candidates, n, with_tie=False)
        if sol2 is not None:
            state[n] = sol2
            entry["tier"] = "lift"
            entry["tie_residue"] = residue
            log.append(entry)
            continue
        raise SynthesisFailure(stage=n, congruence=residue2, detail="no strict lift exists at this stage")
    # eq (9) holds on every degeneracy-word summand by construction; re-verify
    for n, rho in enumerate(rhos):
        for w, comps in rho.items():
            mat = degeneracy_word_matrix(V, state, w)
            for i in range(n + 2):
                if _first_difference(V.levels[n], V.face(n + 1, i) @ mat, comps[i]) is not None:
                    raise SynthesisFailure(
                        stage=n,
                        congruence=f"face d_{i} of word {w.describe()} disagrees with its prescription",
                        detail="post-solve verification failed",
                    )
    W = SAb(V.levels, V.faces, {n: state[n] for n in range(V.cap)}, V.cap)
    report = verify_identities(W)
    if not report.ok:
        raise SynthesisFailure(stage=V.cap, congruence=report.violations[0].describe(), detail="identity audit failed")
    return SynthesisResult(object=W, stage_log=log)


def _stage_strict_ok(V, state, rho, candidates, n):
    for j in range(n + 1):
        comps = rho[DegeneracyWord(n, (j,))]
        for i in range(n + 2):
            if _first_difference(V.levels[n], V.face(n + 1, i) @ candidates[j], comps[i]) is not None:
                return False
    for (a, b), (c, d) in _ss_pairs(V.cap, n):
        lhs, rhs = candidates[b] @ state[n - 1][a], candidates[d] @ state[n - 1][c]
        if _first_difference(V.levels[n + 1], lhs, rhs) is not None:
            return False
    return True


def _ss_pairs(cap, n):
    """The identities s_i s_j = s_{j+1} s_i from level n - 1 to level n + 1,
    in the order of identity_cases: each as ((a, b), (c, d)), the words
    s_b s_a = s_d s_c, where s_a and s_c act on level n - 1 and s_b and s_d
    are stage n's unknowns."""
    return [((lhs[0][2], lhs[1][2]), (rhs[0][2], rhs[1][2]))
            for family, m, _, lhs, rhs, _ in identity_cases(cap) if family == "ss" and m == n - 1]


def _solve_stage(V, state, rho, candidates, n, with_tie):
    rn, rn1 = V.rank(n), V.rank(n + 1)
    Irn = Mat.eye(rn)
    Irn1 = Mat.eye(rn1)
    sys_ = _StageSystem()
    have_A = with_tie and (n + 2 <= V.cap)
    have_B = with_tie and n >= 1
    tie = with_tie and have_A  # the tie is representable only below the cap
    fiber = None
    if tie:
        fiber = fiber_lattice(V, n + 1)
        if fiber.c == 0:
            fiber = None
    for j in range(n + 1):
        if tie:
            sys_.add_unknown(("A", j), V.rank(n + 2), rn)
            if have_B:
                sys_.add_unknown(("B", j), rn1, V.rank(n - 1))
            if fiber is not None:
                sys_.add_unknown(("C", j), fiber.c, rn)
        else:
            sys_.add_unknown(("X", j), rn1, rn)

    bdry_up = boundary_matrix(V, n + 2) if have_A else None
    bdry_dn = boundary_matrix(V, n) if n >= 1 else None

    def xterms(j, P, Q):
        if not tie:
            return [(P, ("X", j), Q)], Mat(P.r, Q.c)
        terms = [(P @ bdry_up, ("A", j), Q)]
        if have_B:
            terms.append((P, ("B", j), bdry_dn @ Q))
        if fiber is not None:
            terms.append((P @ fiber, ("C", j), Q))
        return terms, (P @ candidates[j]) @ Q

    for j in range(n + 1):
        w = DegeneracyWord(n, (j,))
        comps = rho[w]
        for i in range(n + 2):
            terms, const = xterms(j, V.face(n + 1, i), Irn)
            sys_.add_equation(terms, comps[i] - const, target_rels=V.levels[n].rels)
    for (a, b), (c, d) in _ss_pairs(V.cap, n):
        t1, c1 = xterms(b, Irn1, state[n - 1][a])
        t2, c2 = xterms(d, Irn1, state[n - 1][c])
        t2n = [(-P, nm, Q) for (P, nm, Q) in t2]
        sys_.add_equation(t1 + t2n, c2 - c1, target_rels=V.levels[n + 1].rels)
    if V.levels[n].rels.c or V.levels[n + 1].rels.c:
        # well-definedness modulo relations: X_j . rels(src) inside rels(dst)
        for j in range(n + 1):
            terms, const = xterms(j, Irn1, V.levels[n].rels)
            sys_.add_equation(terms, Mat(rn1, V.levels[n].rels.c) - const, target_rels=V.levels[n + 1].rels)
    sol, residue = sys_.solve()
    if sol is None:
        return None, residue
    out = []
    for j in range(n + 1):
        if tie:
            X = candidates[j].copy()
            X = X + bdry_up @ sol[("A", j)]
            if have_B:
                X = X + sol[("B", j)] @ bdry_dn
            if fiber is not None:
                X = X + fiber @ sol[("C", j)]
        else:
            X = sol[("X", j)]
        out.append(X)
    return out, None
