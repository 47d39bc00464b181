"""Words in face and degeneracy maps, decided by the map they represent.

A face word is stored in application order: letters[0] is the first face
map applied, acting at the source dimension. It represents the monotone
injection that misses its deleted vertices; its normal form deletes them
in ascending order (non-decreasing letters), and its factorizations are
one word per deletion order.

A degeneracy word represents a monotone surjection; its normal form has
strictly increasing letters, one s_t per t where the surjection repeats a
value. Both normal forms come from the map, not from rewriting; the
rewrite rules of the simplicial identities live only in the tests, as the
reference these closed forms are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class FaceWord:
    """Composite of face maps, lowering dimension by one per letter."""

    source_dim: int
    letters: tuple

    def __post_init__(self):
        dim = self.source_dim
        for t, i in enumerate(self.letters):
            if not 0 <= i <= dim - t:
                raise ValueError(
                    f"letter d_{i} out of range at dimension {dim - t} "
                    f"(position {t} of {self.letters})"
                )
        if dim - len(self.letters) < -1:
            raise ValueError("word lowers dimension below -1")

    def __len__(self):
        return len(self.letters)

    def deleted_vertices(self):
        """The set of source-simplex vertices this composite deletes."""
        alive = list(range(self.source_dim + 1))
        dead = []
        for i in self.letters:
            dead.append(alive.pop(i))
        return frozenset(dead)

    def normal_form(self):
        """The word that deletes the same vertices in ascending order."""
        return FaceWord.from_deleted(self.source_dim, self.deleted_vertices())

    def is_normal(self):
        return all(self.letters[t] <= self.letters[t + 1] for t in range(len(self.letters) - 1))

    def factorizations(self):
        """All ways of writing the composite as single face maps: one word
        per order of deleting its vertices, where a vertex's letter is its
        position among the vertices still present."""
        return {
            FaceWord(self.source_dim, tuple(v - sum(u < v for u in order[:t]) for t, v in enumerate(order)))
            for order in itertools.permutations(self.deleted_vertices())
        }

    @staticmethod
    def from_deleted(source_dim, deleted):
        """Normal-form word from the set of deleted vertices.

        Deleting in ascending order, the t-th smallest vertex v (from t = 0)
        sits at position v - t once the t vertices below it are gone, so the
        letters are v - t over the sorted vertices. A repeated vertex is a
        ValueError; so is one outside 0..source_dim, through the letter check.
        """
        verts = sorted(deleted)
        if len(set(verts)) != len(verts):
            raise ValueError(f"vertex deleted twice in {verts}")
        return FaceWord(source_dim, tuple([v - t for t, v in enumerate(verts)]))

    def describe(self):
        if not self.letters:
            return f"id_{self.source_dim}"
        # composition order: last applied written leftmost
        return "".join(f"d{i}" for i in reversed(self.letters)) + f"@{self.source_dim}"


@dataclass(frozen=True)
class DegeneracyWord:
    """Composite of degeneracy maps, raising dimension by one per letter."""

    source_dim: int
    letters: tuple

    def __post_init__(self):
        dim = self.source_dim
        for t, j in enumerate(self.letters):
            if not 0 <= j <= dim + t:
                raise ValueError(f"letter s_{j} out of range at dimension {dim + t}")

    def __len__(self):
        return len(self.letters)

    def normal_form(self):
        """The word with strictly increasing letters for the same surjection."""
        return DegeneracyWord.from_surjection(self.as_surjection())

    def is_normal(self):
        return all(self.letters[t] < self.letters[t + 1] for t in range(len(self.letters) - 1))

    def prefixed_by(self, j):
        """Normal form of s_j applied after this word."""
        return DegeneracyWord(self.source_dim, self.letters + (j,)).normal_form()

    def peel(self):
        """Split a normal-form word as (last applied letter, remaining word)."""
        if not self.letters:
            raise ValueError("cannot peel the empty word")
        return self.letters[-1], DegeneracyWord(self.source_dim, self.letters[:-1])

    def as_surjection(self):
        """The values of the monotone surjection [source_dim + len(self)] -> [source_dim] it represents."""
        values = list(range(self.source_dim + 1))
        for j in self.letters:
            values = values[: j + 1] + values[j:]
        return tuple(values)

    @staticmethod
    def from_surjection(values):
        """Normal-form word of the monotone surjection [m] -> [values[-1]]
        given by its values: s_t for each t that it sends to the same value
        as t + 1."""
        return DegeneracyWord(values[-1], tuple(t for t in range(len(values) - 1) if values[t] == values[t + 1]))

    def describe(self):
        if not self.letters:
            return f"id_{self.source_dim}"
        return "".join(f"s{j}" for j in reversed(self.letters)) + f"@{self.source_dim}"


def canonical_degeneracy_words(k, n):
    """All canonical degeneracy words k -> n (length n - k, possibly empty)."""
    length = n - k
    if length < 0:
        return []
    out = []

    def rec(prefix, dim):
        if len(prefix) == length:
            out.append(DegeneracyWord(k, tuple(prefix)))
            return
        lo = prefix[-1] + 1 if prefix else 0
        for j in range(lo, dim + 1):
            prefix.append(j)
            rec(prefix, dim + 1)
            prefix.pop()

    rec([], k)
    return out


def all_face_words(source_dim, length):
    """Every face word of the given length from source_dim (not deduplicated)."""
    out = []

    def rec(prefix, dim):
        if len(prefix) == length:
            out.append(FaceWord(source_dim, tuple(prefix)))
            return
        for i in range(dim + 1):
            prefix.append(i)
            rec(prefix, dim - 1)
            prefix.pop()

    rec([], source_dim)
    return out
