"""Words in face and degeneracy maps, with rewriting to canonical form.

A face word is stored in application order: letters[0] is the first face
map applied, acting at the source dimension. The single rewrite
d_i . d_j -> d_{j-1} . d_i (i < j), read on adjacent letters in
application order, sends (a, b) with b < a to (b, a-1); its closure
enumerates all factorizations of the underlying injection.

Degeneracy words use s_i . s_j -> s_{j+1} . s_i (i <= j): in application
order (a, b) with b <= a rewrites to (b, a+1), and the canonical form has
strictly increasing letters.
"""

from __future__ import annotations

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

    @property
    def target_dim(self):
        return self.source_dim - len(self.letters)

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
        """Unique terminal word under (a, b), b < a  ->  (b, a - 1)."""
        letters = list(self.letters)
        changed = True
        while changed:
            changed = False
            for t in range(len(letters) - 1):
                a, b = letters[t], letters[t + 1]
                if b < a:
                    letters[t], letters[t + 1] = b, a - 1
                    changed = True
        return FaceWord(self.source_dim, tuple(letters))

    def is_normal(self):
        return all(self.letters[t] <= self.letters[t + 1] for t in range(len(self.letters) - 1))

    def factorizations(self):
        """All words reachable by the rewrite in both directions.

        Equivalently, all ways of writing the composite as single face maps.
        """
        seen = {self.letters}
        frontier = [self.letters]
        while frontier:
            w = frontier.pop()
            for t in range(len(w) - 1):
                a, b = w[t], w[t + 1]
                if b < a:
                    nxt = w[:t] + (b, a - 1) + w[t + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
                if b >= a and b + 1 <= self.source_dim - t:
                    nxt = w[:t] + (b + 1, a) + w[t + 2 :]
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return {FaceWord(self.source_dim, w) for w in seen}

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

    @property
    def target_dim(self):
        return self.source_dim + len(self.letters)

    def __len__(self):
        return len(self.letters)

    def normal_form(self):
        """Unique terminal word under (a, b), b <= a  ->  (b, a + 1)."""
        letters = list(self.letters)
        changed = True
        while changed:
            changed = False
            for t in range(len(letters) - 1):
                a, b = letters[t], letters[t + 1]
                if b <= a:
                    letters[t], letters[t + 1] = b, a + 1
                    changed = True
        return DegeneracyWord(self.source_dim, tuple(letters))

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
        """The monotone surjection [target_dim] -> [source_dim] it represents."""
        values = list(range(self.source_dim + 1))
        dim = self.source_dim
        for j in self.letters:
            values = values[: j + 1] + values[j:]
            dim += 1
        return tuple(values)

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
