"""Synthesizing strict degeneracies on a Reedy-fibrant face-only object.

Stage n chooses the level-n degeneracy matrices jointly. Its equations are
stated once: faces against the prescription assembled from lower stages,
cross identities with the previous stage's degeneracies, well-definedness
on the level relations. The candidates are checked against them as they
stand, else solved for, tied to the candidates through mapping-complex
boundary unknowns where the truncation can express them. Solutions on longer
degeneracy words are forced by composition and re-verified, so a successful
run is strict by construction and is checked exhaustively at the end.
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
            raise StructuralError(f"face prescription for {w} leaves the matching object")
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

    Each stage states its equations once (_stage_equations) and takes the
    first tier that satisfies all of them: "exact", the candidates
    verbatim; "tie", the candidates moved along mapping-complex boundary
    and fiber directions, tried only below the top stage, where the
    truncation holds the boundaries from level n + 2; "lift", any solution.
    strict_homotopy_tie=True reports a tie that was tried and failed as the
    synthesis obstruction instead of falling back to "lift". Raises
    SynthesisFailure when a stage has no solution, RuntimeError on a bug.
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
        equations = _stage_equations(V, state, rho, n)
        sol, tie_residue = None, None
        if all(_first_difference(level, _evaluate(terms, candidates), rhs) is None
               for terms, rhs, level in equations):
            tier, sol = "exact", [s.copy() for s in candidates]
        elif n + 2 <= V.cap:
            tier = "tie"
            sol, tie_residue = _solve_stage(V, n, equations, candidates, _tie_directions(V, n))
            if sol is None and strict_homotopy_tie:
                raise SynthesisFailure(stage=n, congruence=tie_residue,
                                       detail="homotopy-tied lifting system inconsistent")
        if sol is None:
            tier = "lift"
            sol, residue = _solve_stage(V, n, equations, None, [("X", None, None)])
            if sol is None:
                raise SynthesisFailure(stage=n, congruence=residue, detail="no strict lift exists at this stage")
        state[n] = sol
        entry["tier"] = tier
        if tie_residue is not None:
            entry["tie_residue"] = tie_residue
        log.append(entry)
    # eq (9) holds on every degeneracy-word summand by construction; re-verify
    for n, rho in enumerate(rhos):
        for w, comps in rho.items():
            mat = degeneracy_word_matrix(V, state, w)
            for i in range(n + 2):
                if _first_difference(V.levels[n], V.face(n + 1, i) @ mat, comps[i]) is not None:
                    raise RuntimeError(f"stage {n}: face d_{i} of {w} disagrees with its prescription")
    W = SAb(V.levels, V.faces, {n: state[n] for n in range(V.cap)}, V.cap)
    report = verify_identities(W)
    if not report.ok:
        raise RuntimeError(f"synthesized object fails an identity: {report.violations[0].describe()}")
    return SynthesisResult(object=W, stage_log=log)


def _stage_equations(V, state, rho, n):
    """Stage n's equations in its unknowns X_j : level n -> level n + 1, each
    (terms, rhs, level): the sum over the terms (j, P, Q) of P·X_j·Q equals
    rhs modulo the relations of level, where a factor None is an identity.
    In order: the faces d_i X_j against rho; the identities X_b s_a = X_d s_c
    with stage n - 1, in the order of identity_cases; and, where level n has
    relations, well-definedness: X_j carries them into those of level n + 1."""
    equations = []
    for j in range(n + 1):
        comps = rho[DegeneracyWord(n, (j,))]
        equations += [([(j, V.face(n + 1, i), None)], comps[i], V.levels[n]) for i in range(n + 2)]
    for family, m, _, lhs, rhs, _ in identity_cases(V.cap):
        if family == "ss" and m == n - 1:  # s_b s_a = s_d s_c, s_a and s_c of stage n - 1
            ((_, _, a), (_, _, b)), ((_, _, c), (_, _, d)) = lhs, rhs
            terms = [(b, None, state[n - 1][a]), (d, None, -state[n - 1][c])]
            equations.append((terms, Mat(V.rank(n + 1), V.rank(n - 1)), V.levels[n + 1]))
    rels = V.levels[n].rels
    if rels.c:
        equations += [([(j, None, rels)], Mat(V.rank(n + 1), rels.c), V.levels[n + 1]) for j in range(n + 1)]
    return equations


def _product(*factors):
    """The product of the factors from left to right, skipping each None (an
    identity); None when every factor is."""
    out = None
    for M in factors:
        if M is not None:
            out = M if out is None else out @ M
    return out


def _evaluate(terms, X):
    """The sum over the terms (key, P, Q) of P·X[key]·Q."""
    out = None
    for key, P, Q in terms:
        term = _product(P, X[key], Q)
        out = term if out is None else out + term
    return out


def _tie_directions(V, n):
    """The directions (name, L, R) in which the tie moves a candidate at a
    stage n below the top one: boundaries from level n + 2, boundaries into
    level n - 1 (from stage 1 on) and the fiber of the faces at level n + 1."""
    directions = [("A", boundary_matrix(V, n + 2), None)]
    if n >= 1:
        directions.append(("B", None, boundary_matrix(V, n)))
    fiber = fiber_lattice(V, n + 1)
    if fiber.c:
        directions.append(("C", fiber, None))
    return directions


def _solve_stage(V, n, equations, base, directions):
    """Solve stage n's equations for X_j = base_j + Σ L·Y·R over the
    directions (name, L, R), in one unknown Y = (name, j) per direction and
    j; base None is zero and a factor None an identity. ([X_0 .. X_n], None),
    or (None, the residue of the system's first failing equation)."""
    sys_ = _StageSystem()
    for j in range(n + 1):
        for name, L, R in directions:
            sys_.add_unknown((name, j), V.rank(n + 1) if L is None else L.c, V.rank(n) if R is None else R.r)
    for terms, rhs, level in equations:
        if base is not None:
            rhs = rhs - _evaluate(terms, base)
        unknown_terms = []
        for j, P, Q in terms:
            for name, L, R in directions:
                xr, xc, _ = sys_.unknowns[(name, j)]
                left, right = _product(P, L), _product(R, Q)
                unknown_terms.append((Mat.eye(xr) if left is None else left, (name, j),
                                      Mat.eye(xc) if right is None else right))
        sys_.add_equation(unknown_terms, rhs, target_rels=level.rels)
    sol, residue = sys_.solve()
    if sol is None:
        return None, residue
    moves = [_evaluate([((name, j), L, R) for name, L, R in directions], sol) for j in range(n + 1)]
    return (moves if base is None else [s + move for s, move in zip(base, moves)]), None
