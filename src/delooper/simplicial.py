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
_UNSEEN = object()  # no target element: marks a value whose image is not yet computed
# the largest search between spheres and simplices of dimension at most 4 at
# cap 4 (the 4-simplex to itself, 70 maps) counts 122,275 candidate images;
# enumerate_pointed_maps finishes it in about 40 ms on a 2-vCPU VM
PRACTICAL_MAP_CANDIDATES = 122_275


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
        levels = [set(elts) for elts in self.elements]
        for n, elts in enumerate(self.elements):
            if BASE not in elts:
                raise StructuralError(f"basepoint missing in dimension {n}")
            if len(levels[n]) != len(elts):
                raise StructuralError(f"duplicate ids in dimension {n}")
        for k, name, maps, dims, step in self._families():
            for n in dims:
                if len(maps.get(n, [])) != n + 1:
                    raise StructuralError(f"need {n + 1} {name} maps at dimension {n}")
                for i, table in enumerate(maps[n]):
                    for x in self.elements[n]:
                        if x not in table:
                            raise StructuralError(f"{k}_{i} undefined on {x} at dimension {n}")
                        if table[x] not in levels[n + step]:
                            raise StructuralError(f"{k}_{i}({x}) not an element of dimension {n + step}")

    def _families(self):
        """(letter, name, tables, source levels, level step) of the faces, then the degeneracies."""
        return (("d", "face", self.faces, range(1, self.cap + 1), -1),
                ("s", "degeneracy", self.degeneracies, range(self.cap), 1))

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
        for k, _, maps, dims, _ in self._families():
            for n in dims:
                for i, table in enumerate(maps[n]):
                    if table[BASE] != BASE:
                        add(Violation("basepoint", n, (i,), f"{k}_{i}(*) = {table[BASE]}"))
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
    target.identity(n). Each face or degeneracy memoises the target image of
    each value of the map, computed when a simplex first needs it."""
    for n in range(src.cap + 1):
        if BASE in tables[n] and tables[n][BASE] != target.identity(n):
            return False
    levels = [{**tables[n], BASE: target.identity(n)} for n in range(src.cap + 1)]
    checks = [(n, target.face, src.faces[n], levels[n - 1]) for n in range(1, src.cap + 1)]
    checks += [(n, target.degeneracy, src.degeneracies[n], levels[n + 1]) for n in range(src.cap)]
    for n, target_move, moves, other in checks:
        level = levels[n]
        for i, move in enumerate(moves):
            images = {}
            for x in src.elements[n]:
                v = level[x]
                image = images.get(v, _UNSEEN)
                if image is _UNSEEN:
                    image = images[v] = target_move(n, i, v)
                if other[move[x]] != image:
                    return False
    return True


def enumerate_pointed_maps(A, B):
    """All simplicial pointed maps A -> B, one level at a time.

    Once a map is fixed below level n, its images of the degenerate
    simplices of level n are forced, and each nondegenerate cell may go to
    any simplex of B whose faces are its faces' images, independently of the
    other cells (Eilenberg-Zilber). So a level lists each cell's candidates
    once and takes their product, in the order of a cell-by-cell search.
    That search's size is the bound: a cell counts the simplices of B of its
    dimension once per assignment of the cells before it on its level, and
    ResourceError is raised past PRACTICAL_MAP_CANDIDATES of them.
    """
    if A.cap != B.cap:
        raise ValueError("maps require equal caps")
    tested = 0

    def faces(X, n, x):
        return tuple(X.faces[n][i][x] for i in range(n + 1)) if n else ()

    candidates = [{} for _ in range(A.cap + 1)]  # per level, B's simplices by their faces, in B's order
    for n, level in enumerate(candidates):
        for y in B.elements[n]:
            level.setdefault(faces(B, n, y), []).append(y)

    def extend(partials, n):
        """Each extension to level n of each map in partials (its level tables), in order."""
        nonlocal tested
        cells = [x for x in A.nondegenerate(n) if x != BASE]
        for tables in partials:
            below = tables[-1] if n else None
            forced = [(BASE, BASE)] + [(A.degeneracies[n - 1][j][x], B.degeneracies[n - 1][j][below[x]])
                                       for j in range(n) for x in A.elements[n - 1]]
            table = dict(forced)
            if any(table[x] != y for x, y in forced):
                continue
            options, width = [], 1
            for x in cells:
                tested += len(B.elements[n]) * width
                if tested > PRACTICAL_MAP_CANDIDATES:
                    raise ResourceError(
                        f"pointed-map search beyond practical bound of {PRACTICAL_MAP_CANDIDATES} candidate images")
                options.append(candidates[n].get(tuple(below[f] for f in faces(A, n, x)), []))
                width *= len(options[-1])
                if not width:
                    break
            else:
                for images in itertools.product(*options):
                    yield tables + [table | dict(zip(cells, images))]

    partials = [[]]
    for n in range(A.cap + 1):
        partials = extend(partials, n)
    maps = (SimplicialSetMap(A, B, [dict(t) for t in tables]) for tables in partials)
    return [m for m in maps if m.is_valid()]
