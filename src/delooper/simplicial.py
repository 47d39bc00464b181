"""Finite pointed simplicial sets with explicit face/degeneracy tables.

Elements are string ids per dimension up to a cap; the basepoint and all
its degeneracies are named "*" in every dimension. Identity checking is
exhaustive over elements, which is the point of keeping things finite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .jsontypes import InputError
from .permutohedron import ResourceError


BASE = "*"
# enumerate_pointed_maps tests about 1.3 million candidate images a second
# on a 2-vCPU VM; the largest search between spheres and simplices of
# dimension at most 4 at cap 4 (4-simplex to itself) tests 122,275
PRACTICAL_MAP_CANDIDATES = 5 * 10**5


@dataclass
class Violation:
    family: str
    degree: int
    indices: tuple
    witness: str

    def describe(self):
        return f"{self.family} at degree {self.degree}, indices {self.indices}, witness {self.witness}"


@dataclass
class Report:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


class StructuralError(InputError):
    """Malformed data (missing tables, wrong index ranges), as opposed to
    a well-formed object that fails the simplicial identities."""


class FiniteSimplicialSet:
    def __init__(self, cap, elements, faces, degeneracies):
        """elements[n]: list of ids; faces[n][i]: dict id->id (1 <= n <= cap);
        degeneracies[n][j]: dict id->id (0 <= n < cap)."""
        self.cap = cap
        self.elements = elements
        self.faces = faces
        self.degeneracies = degeneracies
        self._check_structure()

    def _check_structure(self):
        if len(self.elements) != self.cap + 1:
            raise StructuralError("need element list for every dimension up to cap")
        for n, elts in enumerate(self.elements):
            if BASE not in elts:
                raise StructuralError(f"basepoint missing in dimension {n}")
            if len(set(elts)) != len(elts):
                raise StructuralError(f"duplicate ids in dimension {n}")
        for n in range(1, self.cap + 1):
            if len(self.faces.get(n, [])) != n + 1:
                raise StructuralError(f"need {n + 1} face maps at dimension {n}")
            for i, table in enumerate(self.faces[n]):
                for x in self.elements[n]:
                    if x not in table:
                        raise StructuralError(f"d_{i} undefined on {x} at dimension {n}")
                    if table[x] not in set(self.elements[n - 1]):
                        raise StructuralError(f"d_{i}({x}) not an element of dimension {n - 1}")
        for n in range(0, self.cap):
            if len(self.degeneracies.get(n, [])) != n + 1:
                raise StructuralError(f"need {n + 1} degeneracy maps at dimension {n}")
            for j, table in enumerate(self.degeneracies[n]):
                for x in self.elements[n]:
                    if x not in table:
                        raise StructuralError(f"s_{j} undefined on {x} at dimension {n}")
                    if table[x] not in set(self.elements[n + 1]):
                        raise StructuralError(f"s_{j}({x}) not an element of dimension {n + 1}")

    def identity(self, n):
        """The basepoint, as a map into this set sends it (see is_simplicial_map)."""
        return BASE

    def face(self, n, i, x):
        return self.faces[n][i][x]

    def degeneracy(self, n, j, x):
        return self.degeneracies[n][j][x]

    def nondegenerate(self, n):
        if n == 0:
            return [x for x in self.elements[0]]
        degenerate = set()
        for j in range(n):
            for x in self.elements[n - 1]:
                degenerate.add(self.degeneracies[n - 1][j][x])
        return [x for x in self.elements[n] if x not in degenerate]

    def verify_identities(self):
        """Exhaustive check of the five identity families and pointedness."""
        report = Report()
        add = report.violations.append
        for n in range(1, self.cap + 1):
            for i in range(n + 1):
                if self.face(n, i, BASE) != BASE:
                    add(Violation("basepoint", n, (i,), f"d_{i}(*) = {self.face(n, i, BASE)}"))
        for n in range(0, self.cap):
            for j in range(n + 1):
                if self.degeneracy(n, j, BASE) != BASE:
                    add(Violation("basepoint", n, (j,), f"s_{j}(*) = {self.degeneracy(n, j, BASE)}"))
        tables = {"d": self.faces, "s": self.degeneracies}
        for family, n, indices, lhs, rhs, _ in identity_cases(self.cap):
            (k1, n1, i1), (k2, n2, i2) = lhs
            f1, f2 = tables[k1][n1][i1], tables[k2][n2][i2]
            if rhs:
                (k1, n1, i1), (k2, n2, i2) = rhs
                g1, g2 = tables[k1][n1][i1], tables[k2][n2][i2]
            for x in self.elements[n]:
                got = f2[f1[x]]
                want = g2[g1[x]] if rhs else x
                if got != want:
                    # only dd names its right-hand word
                    tail = f" = {word_text(rhs)}({x})" if family == "dd" else ""
                    add(Violation(family, n, indices, f"{word_text(lhs)}({x}) = {got} != {want}{tail}"))
        return report


@functools.cache
def identity_cases(cap, degeneracies=True):
    """Every instance of the simplicial identities up to cap, in checking
    order: dd, then (with degeneracies) ds-low/ds-id/ds-high and ss.

    Each case is (family, n, (i, j), lhs, rhs, m): both sides are words of
    ("d" | "s", dimension, index) letters in application order, running from
    level n to level m; the empty word is the identity.
    """
    cases = []
    for n in range(2, cap + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # d_i d_j = d_{j-1} d_i
                cases.append(("dd", n, (i, j), (("d", n, j), ("d", n - 1, i)), (("d", n, i), ("d", n - 1, j - 1)), n - 2))
    if not degeneracies:
        return tuple(cases)
    for n in range(0, cap):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = (("s", n, j), ("d", n + 1, i))
                if i < j:
                    # d_i s_j = s_{j-1} d_i
                    cases.append(("ds-low", n, (i, j), lhs, (("d", n, i), ("s", n - 1, j - 1)), n))
                elif i in (j, j + 1):
                    # d_j s_j = d_{j+1} s_j = id
                    cases.append(("ds-id", n, (i, j), lhs, (), n))
                else:
                    # d_i s_j = s_j d_{i-1}
                    cases.append(("ds-high", n, (i, j), lhs, (("d", n, i - 1), ("s", n - 1, j)), n))
    for n in range(0, cap - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                # s_i s_j = s_{j+1} s_i
                cases.append(("ss", n, (i, j), (("s", n, j), ("s", n + 1, i)), (("s", n, i), ("s", n + 1, j + 1)), n + 2))
    return tuple(cases)


def word_text(word):
    """A word of identity_cases in composition order: d_0s_1 applies s_1 first."""
    return "".join(f"{kind}_{i}" for kind, _, i in reversed(word))


def _tuple_id(t):
    return "x" + "".join(str(v) for v in t)


def _vertex_model(n, cap, name):
    """The quotient of Delta[n] named by name: the k-simplices are the
    monotone (k+1)-tuples of vertices 0..n, d_i deletes entry i, s_j repeats
    entry j, and name sends a tuple to its id or to the basepoint. The
    tuples named BASE must be closed under faces and degeneracies. Each
    dimension lists the basepoint first, then ids in first-occurrence order."""
    elements = []
    cells = []  # per dimension, (tuple, id) for the tuples not named BASE
    for k in range(cap + 1):
        named = [(t, name(t)) for t in itertools.combinations_with_replacement(range(n + 1), k + 1)]
        cells.append([(t, x) for t, x in named if x != BASE])
        elements.append(list(dict.fromkeys([BASE] + [x for _, x in cells[k]])))
    faces = {
        k: [{BASE: BASE, **{x: name(t[:i] + t[i + 1 :]) for t, x in cells[k]}} for i in range(k + 1)]
        for k in range(1, cap + 1)
    }
    degeneracies = {
        k: [{BASE: BASE, **{x: name(t[: j + 1] + t[j:]) for t, x in cells[k]}} for j in range(k + 1)]
        for k in range(0, cap)
    }
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


def standard_simplex(n, cap, basepoint="vertex0"):
    """Pointed model of Delta[n].

    basepoint="vertex0" identifies vertex 0 (and its degeneracies) with the
    basepoint; "disjoint" adds a free basepoint alongside all simplices.
    """
    if basepoint == "vertex0":
        return _vertex_model(n, cap, lambda t: BASE if t[-1] == 0 else _tuple_id(t))
    return _vertex_model(n, cap, _tuple_id)


def sphere(n, cap):
    """S^n = Delta[n]/boundary: the basepoint plus the degeneracies of the top cell."""
    if cap < n:
        raise ValueError("cap must be at least n")
    return _vertex_model(n, cap, lambda t: _tuple_id(t) if len(set(t)) == n + 1 else BASE)


def zero_sphere(cap):
    """S^0: the basepoint and one other point, with all its degeneracies."""
    elements = [[BASE, "p"] for _ in range(cap + 1)]
    faces = {n: [{BASE: BASE, "p": "p"} for _ in range(n + 1)] for n in range(1, cap + 1)}
    degeneracies = {n: [{BASE: BASE, "p": "p"} for _ in range(n + 1)] for n in range(0, cap)}
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


@dataclass
class SimplicialSetMap:
    src: FiniteSimplicialSet
    dst: FiniteSimplicialSet
    tables: list  # per dimension, dict id -> id

    def __call__(self, n, x):
        return self.tables[n][x]

    def is_valid(self):
        """Equal caps, each simplex sent to a simplex of dst and the
        basepoint to the basepoint, and is_simplicial_map."""
        if self.src.cap != self.dst.cap:
            return False
        for n in range(self.src.cap + 1):
            if self.tables[n].get(BASE) != BASE:
                return False
            simplices = set(self.dst.elements[n])
            if any(self.tables[n].get(x) not in simplices for x in self.src.elements[n]):
                return False
        return is_simplicial_map(self.src, self.dst, self.tables)


def is_simplicial_map(src, target, tables):
    """Whether tables (per level, simplex of src -> element of target) give
    a pointed map with f(d_i x) = d_i f(x) and f(s_j x) = s_j f(x) for every
    simplex x. The target has identity(n), face(n, i, v) and
    degeneracy(n, j, v); a table may leave out the basepoint, which goes to
    target.identity(n). Each target face or degeneracy is evaluated once
    per distinct value of a level (numbered by first appearance in
    src.elements[n]), when a simplex first needs it."""
    cap = src.cap
    for n in range(cap + 1):
        if BASE in tables[n] and tables[n][BASE] != target.identity(n):
            return False
    levels = [{**tables[n], BASE: target.identity(n)} for n in range(cap + 1)]
    # per level: the distinct values, and (simplex, value number, first
    # appearance) per simplex; a flag, as a target element may be any object
    distinct, slots = [], []
    for n, level in enumerate(levels):
        numbers, values, level_slots = {}, [], []
        for x in src.elements[n]:
            v = level[x]
            k = numbers.setdefault(v, len(values))
            first = k == len(values)
            if first:
                values.append(v)
            level_slots.append((x, k, first))
        distinct.append(values)
        slots.append(level_slots)
    checks = [(n, target.face, src.faces[n], levels[n - 1]) for n in range(1, cap + 1)]
    checks += [(n, target.degeneracy, src.degeneracies[n], levels[n + 1]) for n in range(cap)]
    for n, target_move, moves, other in checks:
        values = distinct[n]
        for i, move in enumerate(moves):
            image = []
            for x, k, first in slots[n]:
                if first:
                    image.append(target_move(n, i, values[k]))
                if other[move[x]] != image[k]:
                    return False
    return True


def enumerate_pointed_maps(A, B):
    """All simplicial pointed maps A -> B, by backtracking on nondegenerate cells.

    The search tests candidate images, pairs (cell of A, simplex of B of its
    dimension), against the images of the cell's faces. Raises ResourceError
    once it has tested more than PRACTICAL_MAP_CANDIDATES of them.
    """
    if A.cap != B.cap:
        raise ValueError("maps require equal caps")
    cap = A.cap
    tested = 0
    nondeg = {n: [x for x in A.nondegenerate(n) if x != BASE] for n in range(cap + 1)}

    def extend_table(partial, n):
        """Fill dimension n images of degenerate cells from dimension n-1."""
        table = dict(partial[n])
        for j in range(n):
            for x in A.elements[n - 1]:
                sx = A.degeneracy(n - 1, j, x)
                img = B.degeneracies[n - 1][j][partial[n - 1][x]]
                if sx in table and table[sx] != img:
                    return None
                table[sx] = img
        return table

    results = []

    def assign(n, partial):
        if n > cap:
            m = SimplicialSetMap(A, B, [dict(partial[k]) for k in range(cap + 1)])
            if m.is_valid():
                results.append(m)
            return
        base_table = {BASE: BASE}
        if n > 0:
            partial.append(base_table)
            filled = extend_table(partial, n)
            partial.pop()
            if filled is None:
                return
            base_table = filled
        cells = nondeg[n]

        def candidates(x):
            nonlocal tested
            tested += len(B.elements[n])
            if tested > PRACTICAL_MAP_CANDIDATES:
                raise ResourceError(
                    f"pointed-map search beyond practical bound of {PRACTICAL_MAP_CANDIDATES} candidate images"
                )
            opts = []
            for y in B.elements[n]:
                ok = True
                if n > 0:
                    for i in range(n + 1):
                        if partial[n - 1][A.face(n, i, x)] != B.faces[n][i][y]:
                            ok = False
                            break
                if ok:
                    opts.append(y)
            return opts

        def rec(idx, table):
            if idx == len(cells):
                partial.append(table)
                assign(n + 1, partial)
                partial.pop()
                return
            x = cells[idx]
            for y in candidates(x):
                table2 = dict(table)
                table2[x] = y
                rec(idx + 1, table2)

        rec(0, base_table)

    assign(0, [])
    return results
