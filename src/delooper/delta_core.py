"""Simplicial and restricted (face-only) objects over f.g. abelian groups.

Levels are presented groups, faces and degeneracies are integer matrices,
and every identity is checked as a matrix identity modulo the target
level's relation lattice. Includes the matching object, the surjectivity
reading of Reedy fibrancy, and the free-degeneracy left adjoint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .abelian import Hom, PresentedGroup, direct_sum, quotient, subgroup
from .intlin import Mat, add_block, block_diagonal, kernel_mod_lattice, solve_modulo, vstack_all
from .jsontypes import InputError
from .simplicial import BASE, FiniteSimplicialSet, Report, StructuralError, Violation, identity_cases, word_text
from .words import DegeneracyWord, canonical_degeneracy_words


class DeltaSAb:
    """Face-only simplicial object: levels and face matrices up to a cap."""

    def __init__(self, levels, faces, cap):
        self.levels = levels
        self.faces = faces  # faces[n] = [Mat d_0 .. Mat d_n], for 1 <= n <= cap
        self.cap = cap
        self._check_structure()

    def _check_structure(self):
        if len(self.levels) != self.cap + 1:
            raise StructuralError("need a level group for every dimension up to cap")
        for n in range(1, self.cap + 1):
            if len(self.faces.get(n, [])) != n + 1:
                raise StructuralError(f"need {n + 1} face matrices at dimension {n}")
            for i, d in enumerate(self.faces[n]):
                if d.r != self.levels[n - 1].ngens or d.c != self.levels[n].ngens:
                    raise StructuralError(f"face d_{i} at dimension {n} has shape {d.r}x{d.c}")

    def face(self, n, i):
        return self.faces[n][i]

    def rank(self, n):
        return self.levels[n].ngens


class SAb(DeltaSAb):
    """Full simplicial object: faces plus degeneracy matrices."""

    def __init__(self, levels, faces, degeneracies, cap):
        self.degeneracies = degeneracies  # degeneracies[n] = [Mat s_0 .. s_n], 0 <= n < cap
        super().__init__(levels, faces, cap)

    def _check_structure(self):
        super()._check_structure()
        for n in range(0, self.cap):
            if len(self.degeneracies.get(n, [])) != n + 1:
                raise StructuralError(f"need {n + 1} degeneracy matrices at dimension {n}")
            for j, s in enumerate(self.degeneracies[n]):
                if s.r != self.levels[n + 1].ngens or s.c != self.levels[n].ngens:
                    raise StructuralError(f"degeneracy s_{j} at dimension {n} has shape {s.r}x{s.c}")

    def degeneracy(self, n, j):
        return self.degeneracies[n][j]


def underlying_delta(W):
    """Forget the degeneracies."""
    return DeltaSAb(W.levels, W.faces, W.cap)


def _first_difference(G, lhs, rhs):
    """The first column on which the products lhs and rhs differ in G, or
    None; equal exact products differ nowhere and are not reduced."""
    if lhs.c == rhs.c and lhs.a == rhs.a:
        return None
    return G.first_nonzero_column(lhs - rhs)


def verify_identities(X):
    """Exhaustive identity check; works on matrix objects and on finite
    simplicial sets alike."""
    if isinstance(X, FiniteSimplicialSet):
        return X.verify_identities()
    report = Report(cap=X.cap)
    add = report.violations.append
    maps = {"d": X.faces, "s": getattr(X, "degeneracies", {})}
    for family, n, indices, lhs, rhs, m in identity_cases(X.cap, isinstance(X, SAb)):
        (k1, n1, i1), (k2, n2, i2) = lhs
        got = maps[k2][n2][i2] @ maps[k1][n1][i1]
        if rhs:
            (k1, n1, i1), (k2, n2, i2) = rhs
            want = maps[k2][n2][i2] @ maps[k1][n1][i1]
        else:
            want = Mat.eye(X.rank(n))
        col = _first_difference(X.levels[m], got, want)
        if col is not None:
            relation = "fails" if family.startswith("ds") else f"!= {word_text(rhs)}"
            add(Violation(family, n, indices, f"{word_text(lhs)} {relation} on generator {col}"))
    return report


def free_abelian(K, reduced=True):
    """Levelwise free abelian group on the non-basepoint simplices of K."""
    index = []
    for n in range(K.cap + 1):
        elts = [x for x in K.elements[n] if not (reduced and x == BASE)]
        index.append({x: i for i, x in enumerate(elts)})
    levels = [PresentedGroup.free(len(index[n])) for n in range(K.cap + 1)]

    def induced(table, n_src, n_dst):
        out = Mat(len(index[n_dst]), len(index[n_src]))
        for x, i in index[n_src].items():
            y = table[x]
            if reduced and y == BASE:
                continue
            out.a[index[n_dst][y]][i] = 1
        return out

    faces = {n: [induced(K.faces[n][i], n, n - 1) for i in range(n + 1)] for n in range(1, K.cap + 1)}
    degs = {n: [induced(K.degeneracies[n][j], n, n + 1) for j in range(n + 1)] for n in range(0, K.cap)}
    return SAb(levels, faces, degs, K.cap)


@dataclass
class MatchingObject:
    """The limit of compatible face tuples at degree n, with its comparison map."""

    n: int
    ambient: PresentedGroup
    group: PresentedGroup
    inclusion: Mat  # group generators as ambient (n+1)-tuple coordinates
    delta: Hom  # V_n -> group
    projections: list  # Mat: group -> V_{n-1}, the i-th tuple component


def matching_object(V, n):
    if not 1 <= n <= V.cap:
        raise InputError(f"matching object needs 1 <= n <= cap, got {n}")
    low = V.levels[n - 1]
    g = low.ngens
    ambient, offsets = direct_sum([low] * (n + 1))
    if n == 1:
        lattice = Mat.eye(ambient.ngens)
    else:
        lower = V.levels[n - 2]
        pairs = [ij for _, degree, ij, *_ in identity_cases(n, degeneracies=False) if degree == n]
        rows = Mat(len(pairs) * lower.ngens, ambient.ngens)
        for p, (i, j) in enumerate(pairs):
            add_block(rows, p * lower.ngens, offsets[j], V.face(n - 1, i))
            add_block(rows, p * lower.ngens, offsets[i], -V.face(n - 1, j - 1))
        lattice = kernel_mod_lattice(rows, block_diagonal([lower.rels] * len(pairs)))
    group, incl = subgroup(ambient, lattice)
    delta_mat = solve_modulo(lattice, vstack_all(V.faces[n]), ambient.rels)
    if delta_mat is None:
        raise StructuralError("face tuple map does not land in the matching object")
    projections = [Mat(g, group.ngens, [row[:] for row in incl.mat.a[off : off + g]]) for off in offsets]
    return MatchingObject(
        n=n,
        ambient=ambient,
        group=group,
        inclusion=incl.mat,
        delta=Hom(V.levels[n], group, delta_mat),
        projections=projections,
    )


@dataclass
class ReedyReport:
    fibrant: bool
    witnesses: dict = field(default_factory=dict)  # degree -> ambient coset vector
    matching: dict = field(default_factory=dict, repr=False, compare=False)  # degree -> MatchingObject


def is_reedy_fibrant(V):
    """Surjectivity of every comparison map delta_n, with cokernel witnesses."""
    witnesses, matching = {}, {}
    for n in range(1, V.cap + 1):
        mo = matching[n] = matching_object(V, n)
        coker, proj = quotient(mo.group, mo.delta.mat)
        if not coker.is_trivial():
            for i in range(mo.group.ngens):
                v = mo.group.basis_vector(i)
                if not coker.is_zero_elt(v):
                    witnesses[n] = mo.inclusion.apply(v)
                    break
    return ReedyReport(fibrant=not witnesses, witnesses=witnesses, matching=matching)


@functools.cache
def push_face_through(word, i):
    """d_i . s_word as the epi-mono factorisation of its map: the surjection
    of word with position i removed. If that map is onto, the face is
    absorbed: ('deg', word'). Else it misses one value v and is the coface
    missing v after a surjection: ('face', v, word') meaning s_word' . d_v.
    """
    values = word.as_surjection()
    values = values[:i] + values[i + 1 :]
    missed = next((v for v in range(word.source_dim + 1) if v not in values), None)
    if missed is None:
        return ("deg", DegeneracyWord.from_surjection(values))
    return ("face", missed, DegeneracyWord.from_surjection(tuple(v - (v > missed) for v in values)))


@dataclass
class Extension:
    """Result of the free-degeneracy left adjoint applied to a face-only object."""

    object: SAb
    iota: list  # per level, Mat: V_n -> Y_n (split inclusion)
    retraction: list  # per level, Mat: Y_n -> V_n with retraction . iota = id
    summands: list  # per level, list of (word or None, source level, offset)


def _extension_layout(V):
    layout = []
    for n in range(V.cap + 1):
        entries = [(None, n, 0)]
        offset = V.rank(n)
        words = sorted(
            (w for k in range(n) for w in canonical_degeneracy_words(k, n)),
            key=lambda w: (len(w.letters), w.letters),
        )
        for w in words:
            entries.append((w, w.source_dim, offset))
            offset += V.rank(w.source_dim)
        layout.append((entries, offset))
    return layout


def free_degeneracy_extension(V):
    """Y_n = V_n (+) D_n with D_n the sum of V_k over canonical degeneracy
    words k -> n; degeneracies are summand bookkeeping, faces are induced."""
    layout = _extension_layout(V)
    levels = [direct_sum([V.levels[k] for (_, k, _) in layout[n][0]])[0] for n in range(V.cap + 1)]
    word_offset = [
        {(w.letters if w is not None else None): off for (w, _, off) in layout[n][0]}
        for n in range(V.cap + 1)
    ]
    eye = [Mat.eye(V.rank(k)) for k in range(V.cap + 1)]
    faces = {}
    for n in range(1, V.cap + 1):
        faces[n] = []
        for i in range(n + 1):
            out = Mat(layout[n - 1][1], layout[n][1])
            for (w, k, off) in layout[n][0]:
                if w is None:
                    add_block(out, word_offset[n - 1][None], off, V.face(n, i))
                    continue
                result = push_face_through(w, i)
                if result[0] == "deg":
                    w2, block = result[1], eye[k]
                else:
                    _, i2, w2 = result
                    block = V.face(k, i2)
                add_block(out, word_offset[n - 1][w2.letters or None], off, block)
            faces[n].append(out)
    degs = {}
    for n in range(0, V.cap):
        degs[n] = []
        for j in range(n + 1):
            out = Mat(layout[n + 1][1], layout[n][1])
            for (w, k, off) in layout[n][0]:
                w2 = DegeneracyWord(n, (j,)) if w is None else w.prefixed_by(j)
                add_block(out, word_offset[n + 1][w2.letters], off, eye[k])
            degs[n].append(out)
    iota = [Mat(total, V.rank(n)) for n, (_, total) in enumerate(layout)]
    for inc, e in zip(iota, eye):
        add_block(inc, 0, 0, e)
    retraction = [inc.transpose() for inc in iota]
    Y = SAb(levels, faces, degs, V.cap)
    return Extension(object=Y, iota=iota, retraction=retraction, summands=[entries for entries, _ in layout])


def degeneracy_word_matrix(V, degeneracies, word):
    """Composite of degeneracies[dim][j] along the letters of a degeneracy
    word, from level word.source_dim of V."""
    out = Mat.eye(V.rank(word.source_dim))
    dim = word.source_dim
    for j in word.letters:
        out = degeneracies[dim][j] @ out
        dim += 1
    return out


def extension_counit(ext, W):
    """For V = U(W): the counit Y -> W, evaluating each word by W's degeneracies."""
    mats = []
    for n in range(W.cap + 1):
        total = sum(W.rank(k) for (_, k, _) in ext.summands[n])
        out = Mat(W.rank(n), total)
        for (w, k, off) in ext.summands[n]:
            add_block(out, 0, off, degeneracy_word_matrix(W, W.degeneracies, DegeneracyWord(n, ()) if w is None else w))
        mats.append(out)
    return mats


def degenerate_subobject(W, n):
    """Image subgroup L_n generated by all degeneracies into level n."""
    if n < 1 or n > W.cap:
        raise ValueError("degenerate subobject needs 1 <= n <= cap")
    return subgroup(W.levels[n], functools.reduce(Mat.hstack, W.degeneracies[n - 1]))
