"""Permutohedra as ordered partitions, labeled by face-map factorizations.

Faces of P_k are ordered partitions of {1..k+1}; vertices are the
(k+1)! orderings. For an iterated face map delta of length k+1 the
vertices carry its factorizations (removal orders of the deleted
vertices) and every face carries the block word decomposition. The
higher-operation bookkeeping (proper factors, compatible-collection
constraint schemas, boundary assembly) is emitted as data, never
evaluated in any track group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .jsontypes import InputError
from .words import FaceWord


class ResourceError(InputError):
    """Request beyond the practical enumeration bound."""


PRACTICAL_K = 7
# `simplex index n` indexes all 2^(n+1) - 1 faces and prints one gluing
# equation per face of dimension at most n - 2: at n = 10 a 0.15 MB report
# built in 50 ms (2-vCPU Xeon VM), each step up doubling both. The bound caps
# the report's length; run time alone would allow more.
PRACTICAL_SIMPLEX_N = 10


def ordered_partitions(elements):
    """All ordered partitions of a set, as tuples of sorted tuples.

    Order contract: partitions are listed by first block, and for each first
    block by the ordered partitions of what remains, recursively. First
    blocks of the sorted remainder come by size, then in
    ``itertools.combinations`` order. ``perm enum`` face lists and the
    equation order of ``compatible_schema`` follow this order.

    The partitions of a remainder are computed once per call and shared by
    every prefix that leaves it (2^n remainders for an n-set).
    """
    memo = {(): [()]}

    def tails(rem):
        out = memo.get(rem)
        if out is None:
            out = memo[rem] = [
                (block,) + tail
                for r in range(1, len(rem) + 1)
                for block in itertools.combinations(rem, r)
                for tail in tails(tuple(x for x in rem if x not in block))
            ]
        return out

    return tails(tuple(sorted(set(elements))))


@dataclass(frozen=True, slots=True)
class PermutohedronFace:
    partition: tuple  # ordered partition, blocks are sorted tuples

    @property
    def k(self):
        return sum(len(b) for b in self.partition) - 1

    @property
    def dimension(self):
        return self.k + 1 - len(self.partition)

    def refines(self, other):
        """True if this face is contained in other (partition refinement)."""
        mine = list(self.partition)
        pos = 0
        for block in other.partition:
            acc = []
            while pos < len(mine) and len(acc) < len(block):
                acc.extend(mine[pos])
                pos += 1
            if sorted(acc) != list(block):
                return False
        return pos == len(mine)


def _ordered_partition_counts(n):
    """[c(n, 0), ..., c(n, n)], c(n, r) the ordered partitions of an n-set
    into r blocks, by the first-block recursion of ``ordered_partitions``
    counted instead of listed: c(m, r) = sum over s of C(m, s) c(m - s, r - 1)."""
    c = [[1] + [0] * n]
    for m in range(1, n + 1):
        c.append([0] + [sum(math.comb(m, s) * c[m - s][r - 1] for s in range(1, m + 1)) for r in range(1, n + 1)])
    return c[n]


@dataclass
class FaceLattice:
    """Face lattice of P_k. Counts come without listing faces; ``faces``
    lists them in ``ordered_partitions`` order (see its docstring) on first
    read and checks the listing against the counts."""

    k: int

    @cached_property
    def face_counts(self):
        """{dimension: number of faces}, ascending; a face of dimension d
        has k + 1 - d blocks."""
        per_blocks = _ordered_partition_counts(self.k + 1)
        return {d: per_blocks[self.k + 1 - d] for d in range(self.k + 1)}

    @cached_property
    def faces(self):
        """Every PermutohedronFace, all dimensions, listed once per lattice."""
        faces = [PermutohedronFace(p) for p in ordered_partitions(range(1, self.k + 2))]
        listed = [0] * (self.k + 1)
        for f in faces:
            listed[self.k + 1 - len(f.partition)] += 1
        if dict(enumerate(listed)) != self.face_counts:
            raise RuntimeError(f"P_{self.k} lists faces by dimension {listed}, counts {list(self.face_counts.values())}")
        return faces

    def by_dimension(self):
        out = {}
        for f in self.faces:
            out.setdefault(self.k + 1 - len(f.partition), []).append(f)
        return out

    def vertices(self):
        return [f for f in self.faces if len(f.partition) == self.k + 1]

    def boundary_euler_characteristic(self):
        counts = self.face_counts
        return sum((-1) ** d * counts[d] for d in range(self.k))


def build_permutohedron(k):
    """Face lattice of P_k, its faces listed only when read; the boundary
    Euler characteristic of the face counts is checked."""
    if k < 0:
        raise InputError("k must be nonnegative")
    if k > PRACTICAL_K:
        raise ResourceError(f"P_{k} enumeration beyond practical bound {PRACTICAL_K}")
    lattice = FaceLattice(k=k)
    expected = 1 + (-1) ** (k - 1) if k >= 1 else 0
    got = lattice.boundary_euler_characteristic()
    if k >= 1 and got != expected:
        raise RuntimeError(f"boundary Euler characteristic {got} differs from sphere value {expected}")
    return lattice


class _BlockCells(dict):
    """One call's table of block cells for the faces of P_k(delta).

    Block t of an ordered partition removes the t-th batch of deleted
    vertices; batch b is the b-th smallest vertex deleted[b - 1] of delta's
    deleted set. A block's word depends only on the batches removed before
    it, so a cell is keyed by (bitmask of those batch indices, block) and
    holds (word, mask after the block, factor dimension, "P_d(word)" text).
    With the batches below b gone, batch b sits at deleted[b - 1] minus
    their count. Each cell is computed once. Given the schema's ``slots``,
    a cell's word is checked to lie in them and its text is written;
    without them (labels) the dimension and text are None.
    """

    def __init__(self, delta, slots=None):
        self.deleted = sorted(delta.deleted_vertices())
        self.source_dim = delta.source_dim
        self.slots = slots

    def __missing__(self, key):
        removed, block = key
        word = FaceWord.from_deleted(
            self.source_dim - removed.bit_count(),
            [self.deleted[b - 1] - (removed & ((1 << b) - 1)).bit_count() for b in block],
        )
        after = removed
        for b in block:
            after |= 1 << b
        if self.slots is None:
            cell = self[key] = (word, after, None, None)
            return cell
        # from_deleted words are in normal form, the slots' keys
        if word not in self.slots:
            raise RuntimeError("block word escapes the proper-factor collection")
        dim = len(word) - 1
        cell = self[key] = (word, after, dim, f"P_{dim}({word.describe()})")
        return cell

    def row(self, partition):
        """The cells of a partition's blocks, in block order."""
        cells = []
        removed = 0
        for block in partition:
            cell = self[removed, block]
            cells.append(cell)
            removed = cell[1]
        return cells


@dataclass
class LabeledPermutohedron:
    delta: FaceWord
    lattice: FaceLattice
    vertex_labels: dict  # PermutohedronFace (dim 0) -> FaceWord factorization
    face_labels: dict  # PermutohedronFace -> tuple of block FaceWords


def label(delta):
    """P_k(delta): vertices carry factorizations, faces carry block words."""
    delta = delta.normal_form()
    k = len(delta) - 1
    if k < 1:
        raise InputError("labeling needs a word of length at least 2")
    lattice = build_permutohedron(k)
    cells = _BlockCells(delta)
    vertex_labels = {}
    face_labels = {}
    for face in lattice.faces:
        words = face_labels[face] = tuple([cell[0] for cell in cells.row(face.partition)])
        if len(face.partition) == k + 1:
            vertex_labels[face] = FaceWord(delta.source_dim, tuple([w.letters[0] for w in words]))
    facts = {w.letters for w in delta.factorizations()}
    labeled = {w.letters for w in vertex_labels.values()}
    if labeled != facts:
        raise RuntimeError("vertex labels do not biject with factorizations")
    return LabeledPermutohedron(delta=delta, lattice=lattice, vertex_labels=vertex_labels, face_labels=face_labels)


@dataclass
class ProperFactorCollection:
    delta: FaceWord
    factors: frozenset  # normal-form FaceWords


def proper_factors(delta):
    """C(delta): words gamma with gamma' . gamma . gamma'' = delta, the outer
    words not both identities; deduplicated by normal form."""
    delta = delta.normal_form()
    if len(delta) < 2:
        return ProperFactorCollection(delta=delta, factors=frozenset())
    deleted = sorted(delta.deleted_vertices())
    total = len(deleted)
    keys = set()  # (dimension, deleted positions) of each factor, before any word is built
    for pre_mask in range(1 << total):
        pre = [deleted[i] for i in range(total) if pre_mask >> i & 1]
        # once the pre vertices are deleted, each other vertex v sits at
        # position v minus the number of pre vertices below it
        rest = [v - sum(u < v for u in pre) for i, v in enumerate(deleted) if not pre_mask >> i & 1]
        for mid_size in range(1, len(rest) + 1):
            for mid in itertools.combinations(rest, mid_size):
                if pre or mid_size < total:  # not delta itself with identity outer words
                    keys.add((delta.source_dim - len(pre), mid))
    return ProperFactorCollection(delta=delta, factors=frozenset(FaceWord.from_deleted(d, mid) for d, mid in keys))


@dataclass(frozen=True)
class SlotSpec:
    word: FaceWord


@dataclass
class FaceEquation:
    """The constraint on one face: its restriction equals the composite of
    the block factors. ``factors`` holds each factor's "P_d(word)" text,
    computed once per block cell and shared by every face that has it."""

    partition: tuple  # ordered partition of the letter batch indices
    blocks: tuple  # FaceWords, one per partition block
    factor_dims: tuple  # polytope dimension of each factor
    factors: tuple  # "P_d(word)" text of each factor

    def describe(self):
        return f"restriction to {self.partition} equals composite over {' x '.join(self.factors)}"


@dataclass
class CompatibleCollectionSchema:
    delta: FaceWord
    slots: dict  # FaceWord -> SlotSpec
    unit_constraints: list  # (FaceWord, pinned face index, level)
    equations: list  # FaceEquation per positive-codimension non-vertex face
    assembly: list  # facets: (partition, blocks) covering the boundary sphere
    splitting_note: str


def compatible_schema(delta):
    """Constraint system over the proper-factor slots of delta.

    One equation per face of P_k(delta) of positive codimension that is not
    a vertex; unit constraints pin the single-letter slots to their face
    maps; the facet list is the boundary assembly of the induced map.
    Faces are walked in ``ordered_partitions`` order, and each block word,
    its factor dimension and its text are computed and checked against the
    slots once per (removed batches, block) cell, not once per face.
    """
    delta = delta.normal_form()
    k = len(delta) - 1
    if k < 1:
        raise InputError("no higher operation for a word of length < 2")
    if k > PRACTICAL_K:
        raise ResourceError(f"schema over P_{k} beyond practical bound {PRACTICAL_K}")
    collection = proper_factors(delta)
    slots = {w: SlotSpec(w) for w in collection.factors}
    unit_constraints = []
    for w in collection.factors:
        if len(w) == 1:
            unit_constraints.append((w, w.letters[0], w.source_dim))
    cells = _BlockCells(delta, slots)
    equations = []
    assembly = []
    for partition in ordered_partitions(range(1, k + 2)):
        r = len(partition)
        # r = 1 is delta itself, which has no slot. Vertices (r = k + 1) are
        # forced composites of pinned units, walked only to check their
        # cells: at k = 1 they are the facets, and at k = 2 a vertex's middle
        # cell lies on no other face; from k = 3 on, merging two neighbouring
        # blocks puts each vertex cell on a larger face.
        if r == 1 or (r == k + 1 and k >= 3):
            continue
        blocks, _, factor_dims, factors = zip(*cells.row(partition))
        if r == 2:
            assembly.append((partition, blocks))
        if r <= k:
            equations.append(FaceEquation(partition, blocks, factor_dims, factors))
    note = (
        "boundary sphere of P_k splits the half-smash as wedge of the smash "
        "and the base; the operation class is the image of the assembled "
        "boundary map under the projection to the smash factor"
    )
    return CompatibleCollectionSchema(
        delta=delta,
        slots=slots,
        unit_constraints=unit_constraints,
        equations=equations,
        assembly=assembly,
        splitting_note=note,
    )


@dataclass
class SimplexFaceIndex:
    n: int
    faces: dict  # FaceWord -> vertex tuple of the face


def simplex_face_index(n):
    """Non-degenerate faces of the n-simplex indexed by face words.

    A k-face is the vertex subset it spans; its index word deletes the
    complement. There are 2^(n+1) - 1 faces, so n is bounded by
    PRACTICAL_SIMPLEX_N.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > PRACTICAL_SIMPLEX_N:
        raise ResourceError(f"{n}-simplex face index beyond practical bound {PRACTICAL_SIMPLEX_N}")
    faces = {}
    for size in range(1, n + 2):
        for verts in itertools.combinations(range(n + 1), size):
            faces[FaceWord.from_deleted(n, tuple(v for v in range(n + 1) if v not in verts))] = verts
    return SimplexFaceIndex(n=n, faces=faces)


@dataclass
class GluingEquation:
    level: int  # j: the equation links h_j and h_{j+1}
    subface: FaceWord
    parent: FaceWord
    connecting_letter: int
    inclusion: FaceWord

    def describe(self):
        return (
            f"h_{self.level} . (id x d_{self.connecting_letter}) = "
            f"h_{self.level + 1} . (iota[{self.subface.describe()} -> {self.parent.describe()}] x id)"
        )


@dataclass
class CompatibleSequenceSchema:
    n: int
    slots: list  # levels 0..n-1
    equations: list
    assembly: list  # (facet index i, description) for the boundary map
    index: SimplexFaceIndex  # the face index the equations glue over


def compatible_sequence_schema(n):
    """Gluing equations for boundary-compatible sequences over the n-simplex.

    One equation per face of dimension at most n-2, linking its slot to the
    parent face obtained by undoing the last-applied letter of its index
    word (a prefix of a normal-form word is the parent's normal form); the
    assembly recipe restricts the top slot along each facet.
    """
    if n < 2:
        raise ValueError("compatible sequences start at n = 2")
    idx = simplex_face_index(n)
    equations = []
    for word, verts in idx.faces.items():
        dim = len(verts) - 1
        if dim > n - 2:
            continue
        # a normal-form word deletes its vertices in ascending order, so
        # dropping its last letter leaves the parent's normal-form word, and
        # that letter removes the largest deleted vertex m; the vertices
        # deleted before it lie below m, so m's rank among the parent's
        # vertices is the letter itself
        connecting = word.letters[-1]
        equations.append(
            GluingEquation(
                level=dim,
                subface=word,
                parent=FaceWord(n, word.letters[:-1]),
                connecting_letter=connecting,
                inclusion=FaceWord(dim + 1, (connecting,)),
            )
        )
    assembly = [(i, f"facet opposite vertex {i}") for i in range(n + 1)]
    return CompatibleSequenceSchema(
        n=n,
        slots=list(range(n)),
        equations=equations,
        assembly=assembly,
        index=idx,
    )
