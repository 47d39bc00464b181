import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delooper.delta_core import push_face_through
from delooper.words import (
    DegeneracyWord,
    FaceWord,
    all_face_words,
    canonical_degeneracy_words,
)


def rewrite_normal_form(word):
    """Reference: the terminal word of the rewrite d_i . d_j -> d_{j-1} . d_i
    (i < j), which sends adjacent letters (a, b), b < a, to (b, a - 1) in
    application order, found by bubble passes."""
    letters = list(word.letters)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            a, b = letters[t], letters[t + 1]
            if b < a:
                letters[t], letters[t + 1] = b, a - 1
                changed = True
    return FaceWord(word.source_dim, tuple(letters))


def rewrite_closure(word):
    """Reference: every word reachable from word by the face rewrite in both
    directions, found breadth first."""
    seen = {word.letters}
    frontier = [word.letters]
    while frontier:
        w = frontier.pop()
        for t in range(len(w) - 1):
            a, b = w[t], w[t + 1]
            if b < a:
                nxt = w[:t] + (b, a - 1) + w[t + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            if b >= a and b + 1 <= word.source_dim - t:
                nxt = w[:t] + (b + 1, a) + w[t + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return {FaceWord(word.source_dim, w) for w in seen}


def rewrite_degeneracy_normal_form(word):
    """Reference: the terminal word of s_i . s_j -> s_{j+1} . s_i (i <= j),
    which sends adjacent letters (a, b), b <= a, to (b, a + 1) in application
    order, found by bubble passes."""
    letters = list(word.letters)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            a, b = letters[t], letters[t + 1]
            if b <= a:
                letters[t], letters[t + 1] = b, a + 1
                changed = True
    return DegeneracyWord(word.source_dim, tuple(letters))


def rewrite_push_face_through(word, i):
    """Reference: d_i . s_word rewritten letter by letter with the identities
    d_i s_j = s_{j-1} d_i (i < j), d_j s_j = d_{j+1} s_j = id and
    d_i s_j = s_j d_{i-1} (i > j + 1), as ('deg', word') or ('face', i', word')
    meaning s_word' . d_i', each word' in rewrite normal form."""
    letters = list(word.letters)
    outer = []
    while letters:
        j = letters.pop()
        if i < j:
            outer.append(j - 1)
        elif i in (j, j + 1):
            remaining = DegeneracyWord(word.source_dim, tuple(letters + outer[::-1]))
            return ("deg", rewrite_degeneracy_normal_form(remaining))
        else:
            outer.append(j)
            i -= 1
    return ("face", i, rewrite_degeneracy_normal_form(DegeneracyWord(word.source_dim - 1, tuple(outer[::-1]))))


def reference_canonical_degeneracy_words(k, n):
    """Reference: the canonical words k -> n by backtracking, each letter
    above the last and at most the dimension it acts at."""
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


def reference_all_face_words(source_dim, length):
    """Reference: every face word of the length by backtracking, each
    letter at most the dimension it acts at."""
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


def test_word_enumerations_match_backtracking():
    """The combinations and products list the backtracking references'
    words in the same order: canonical words k -> n for 0 <= k <= 8 and
    -1 <= n <= 9, and face words from d <= 8 of length <= d + 2."""
    for k in range(9):
        for n in range(-1, 10):
            assert canonical_degeneracy_words(k, n) == reference_canonical_degeneracy_words(k, n), (k, n)
    for d in range(9):
        for length in range(d + 3):
            assert all_face_words(d, length) == reference_all_face_words(d, length), (d, length)


def test_push_face_through_matches_rewriting():
    """The epi-mono factorisation of the surjection with position i removed
    gives the rewrite loop's answer for every canonical word k -> n,
    1 <= n <= 8, and every face d_i of level n."""
    cases = 0
    for n in range(1, 9):
        for k in range(n + 1):
            for w in canonical_degeneracy_words(k, n):
                for i in range(n + 1):
                    assert push_face_through(w, i) == rewrite_push_face_through(w, i), (w, i)
                    cases += 1
    assert cases == 4096


def classes(source_dim, length):
    """Group all words by the injection they represent."""
    out = {}
    for w in all_face_words(source_dim, length):
        out.setdefault(w.deleted_vertices(), []).append(w)
    return out


def face_word_is_normal(w):
    """The normal-form shape of a face word: letters non-decreasing."""
    return all(a <= b for a, b in zip(w.letters, w.letters[1:]))


def test_rewriting_confluence_exhaustive():
    """Every face word of length <= 6 from dimension <= 8 reaches a unique
    normal form: each rewrite class contains exactly one terminal word, so
    every maximal rewrite sequence ends there."""
    for n in range(0, 9):
        for length in range(1, min(6, n + 1) + 1):
            for deleted, words in classes(n, length).items():
                terminal = [w for w in words if face_word_is_normal(w)]
                assert len(terminal) == 1, (n, length, deleted, terminal)
                forms = {w.normal_form().letters for w in words}
                assert forms == {terminal[0].letters}
                assert {rewrite_normal_form(w).letters for w in words} == forms
                assert terminal[0].deleted_vertices() == deleted
                # rewriting in both directions never leaves the class
                closure = terminal[0].factorizations()
                assert {w.letters for w in words} == {w.letters for w in closure}
                assert rewrite_closure(terminal[0]) == closure


def test_factorization_counts_are_factorials():
    for n in range(0, 9):
        for length in range(1, min(6, n + 1) + 1):
            for deleted, words in classes(n, length).items():
                assert len(words) == math.factorial(length), (n, length, deleted)


def test_single_rewrite_pair():
    # composition d_0 . d_1 (apply d_1 first) rewrites to d_0 . d_0
    w = FaceWord(2, (1, 0))
    assert w.normal_form().letters == (0, 0)
    assert {x.letters for x in w.factorizations()} == {(0, 0), (1, 0)}


def test_length_one_single_factorization():
    w = FaceWord(4, (2,))
    assert len(w.factorizations()) == 1


def test_from_deleted_roundtrip():
    for n in range(0, 7):
        for size in range(1, n + 2):
            for deleted in itertools.combinations(range(n + 1), size):
                w = FaceWord.from_deleted(n, deleted)
                assert face_word_is_normal(w)
                assert w.deleted_vertices() == frozenset(deleted)


def _reference_from_deleted(source_dim, deleted):
    """The deletion-order algorithm: each sorted vertex's position among
    the vertices still alive is its letter."""
    letters = []
    alive = list(range(source_dim + 1))
    for v in sorted(deleted):
        letters.append(alive.index(v))
        alive.remove(v)
    return FaceWord(source_dim, tuple(letters))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


@given(
    st.integers(min_value=-1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(min_value=-2, max_value=n + 2), max_size=n + 3))
    ),
    st.booleans(),
)
def test_from_deleted_matches_reference(case, presort):
    """Closed-form letters equal the deletion-order algorithm's, and both
    reject a repeated, negative or out-of-range vertex with ValueError."""
    n, verts = case
    if presort:
        verts = sorted(verts)
    assert _outcome(FaceWord.from_deleted, n, verts) == _outcome(_reference_from_deleted, n, verts)


def test_from_deleted_rejects_repeats_and_range():
    with pytest.raises(ValueError):
        FaceWord.from_deleted(3, [2, 2])
    with pytest.raises(ValueError):
        FaceWord.from_deleted(3, [4])
    with pytest.raises(ValueError):
        FaceWord.from_deleted(3, [-1, 0])


def test_face_word_validation():
    with pytest.raises(ValueError):
        FaceWord(2, (3,))
    with pytest.raises(ValueError):
        FaceWord(1, (0, 0, 0))


def test_degeneracy_normal_form_unique():
    """Canonical degeneracy words biject with monotone surjections."""
    for k in range(0, 5):
        for n in range(k, min(k + 4, 7)):
            canon = canonical_degeneracy_words(k, n)
            assert len(canon) == math.comb(n, k)
            surjections = {w.as_surjection() for w in canon}
            assert len(surjections) == len(canon)
            # every word normalizes into the canonical list
            if n - k <= 3:
                all_words = [DegeneracyWord(k, letters)
                             for letters in itertools.product(*[range(k + t + 1) for t in range(n - k)])]
                for w in all_words:
                    nf = w.normal_form()
                    # the normal-form shape of a degeneracy word: letters strictly increasing
                    assert all(a < b for a, b in zip(nf.letters, nf.letters[1:]))
                    assert nf.as_surjection() == w.as_surjection()
                    assert nf == rewrite_degeneracy_normal_form(w)


def test_degeneracy_normal_form_matches_rewriting():
    """On every degeneracy word from dimension <= 4 of length <= 4, the
    closed form read off the surjection is the rewrite rule's terminal word."""
    count = 0
    for k in range(5):
        for length in range(5):
            for letters in itertools.product(*[range(k + t + 1) for t in range(length)]):
                w = DegeneracyWord(k, letters)
                assert w.normal_form() == rewrite_degeneracy_normal_form(w), w
                count += 1
    assert count == 3534


def test_degeneracy_prefix_and_peel():
    w = DegeneracyWord(0, (0,))
    w2 = w.prefixed_by(0)  # s_0 s_0 = s_1 s_0
    assert w2.letters == (0, 1)
    last, rest = w2.letters[-1], DegeneracyWord(w2.source_dim, w2.letters[:-1])
    assert last == 1 and rest.letters == (0,)


def test_paper_d2_summands():
    """Degeneracy words into dimension 2: s_0, s_1 from 1 and s_1 s_0 from 0."""
    words1 = canonical_degeneracy_words(1, 2)
    words0 = canonical_degeneracy_words(0, 2)
    assert sorted(w.letters for w in words1) == [(0,), (1,)]
    assert [w.letters for w in words0] == [(0, 1)]
