import itertools
import math

import pytest

from delooper import permutohedron
from delooper.permutohedron import (
    PRACTICAL_K,
    PRACTICAL_SIMPLEX_N,
    ResourceError,
    build_permutohedron,
    compatible_schema,
    compatible_sequence_schema,
    label,
    ordered_partitions,
    proper_factors,
    simplex_face_index,
)
from delooper.words import FaceWord, all_face_words


def test_p2_is_hexagon():
    L = build_permutohedron(2)
    counts = {d: len(fs) for d, fs in L.by_dimension().items()}
    assert counts == {0: 6, 1: 6, 2: 1}


def _reference_ordered_partitions(elements):
    """The plain recursive enumerator whose output order is the contract."""
    out = []

    def build(remaining, prefix):
        if not remaining:
            out.append(tuple(prefix))
            return
        rem = tuple(sorted(remaining))
        for r in range(1, len(rem) + 1):
            for block in itertools.combinations(rem, r):
                build(set(rem) - set(block), prefix + [tuple(block)])

    build(set(elements), [])
    return out


@pytest.mark.parametrize("k", range(0, 6))
def test_ordered_partitions_order_pinned(k):
    assert ordered_partitions(range(1, k + 2)) == _reference_ordered_partitions(range(1, k + 2))


def test_ordered_partitions_of_unsorted_set():
    assert ordered_partitions([7, 3, 5, 3]) == _reference_ordered_partitions([7, 3, 5, 3])
    assert ordered_partitions([]) == [()]


def _surjections(n, r):
    """r! S(n, r): surjections of an n-set onto r ordered blocks."""
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n for j in range(r + 1))


@pytest.mark.parametrize("k", range(0, 7))
def test_face_counts_are_ordered_set_partitions(k):
    # a face of dimension d has k + 1 - d blocks
    L = build_permutohedron(k)
    assert L.face_counts == {d: _surjections(k + 1, k + 1 - d) for d in range(k + 1)}
    assert L.face_counts == {d: len(fs) for d, fs in sorted(L.by_dimension().items())}


def test_p6_face_counts():
    L = build_permutohedron(6)
    assert L.face_counts == {0: 5040, 1: 15120, 2: 16800, 3: 8400, 4: 1806, 5: 126, 6: 1}


@pytest.mark.parametrize("k", range(0, PRACTICAL_K + 1))
def test_counts_and_euler_characteristic_list_no_faces(k):
    L = build_permutohedron(k)
    L.face_counts, L.boundary_euler_characteristic()
    assert "faces" not in vars(L)


def test_p7_face_counts_are_counted():
    L = build_permutohedron(7)
    assert L.face_counts == {d: _surjections(8, 8 - d) for d in range(8)}


def test_listing_is_checked_against_counts(monkeypatch):
    complete = permutohedron.ordered_partitions
    monkeypatch.setattr(permutohedron, "ordered_partitions", lambda elements: complete(elements)[1:])
    L = build_permutohedron(3)
    with pytest.raises(RuntimeError):
        L.faces


def test_p0_is_point():
    L = build_permutohedron(0)
    assert len(L.faces) == 1


def test_p3_counts():
    L = build_permutohedron(3)
    counts = {d: len(fs) for d, fs in L.by_dimension().items()}
    assert counts == {0: 24, 1: 36, 2: 14, 3: 1}


@pytest.mark.parametrize("k", range(0, 7))
def test_vertex_counts(k):
    assert len(build_permutohedron(k).vertices()) == math.factorial(k + 1)


@pytest.mark.parametrize("k", range(1, 6))
def test_boundary_euler_characteristic(k):
    L = build_permutohedron(k)
    assert L.boundary_euler_characteristic() == 1 + (-1) ** (k - 1)


def face_dimension(face):
    """The dimension of a face of P_k: k + 1 letters in its blocks, less one per block."""
    return sum(len(b) for b in face.partition) - len(face.partition)


def test_lattice_is_graded_by_refinement():
    L = build_permutohedron(2)
    for f in L.faces:
        for g in L.faces:
            if f.refines(g):
                assert face_dimension(f) <= face_dimension(g)


def test_resource_bound():
    with pytest.raises(ResourceError):
        build_permutohedron(8)


def test_schema_resource_bound():
    # a word of length 10 would enumerate 102,247,563 ordered partitions
    k = PRACTICAL_K + 1
    with pytest.raises(ResourceError):
        compatible_schema(FaceWord(k + 1, (0,) * (k + 1)))
    with pytest.raises(ResourceError):
        compatible_schema(FaceWord(10, (0,) * 10))


def test_simplex_resource_bound():
    with pytest.raises(ResourceError):
        simplex_face_index(PRACTICAL_SIMPLEX_N + 1)
    with pytest.raises(ResourceError):
        compatible_sequence_schema(PRACTICAL_SIMPLEX_N + 1)


def test_factorization_closure_counts():
    w = FaceWord(2, (0, 0))
    assert len(w.factorizations()) == 2
    w3 = FaceWord(3, (0, 0, 0))
    assert len(w3.factorizations()) == 6


def test_labeling_hexagon():
    delta = FaceWord(3, (0, 0, 0))
    lab = label(delta)
    assert len(lab.vertex_labels) == 6
    for face, words in lab.face_labels.items():
        # blocks compose to delta
        flat = []
        for w in words:
            flat.extend(w.letters)
        assert FaceWord(3, tuple(flat)).normal_form() == delta.normal_form()
        # factor polytope dimensions sum to the face dimension
        assert sum(len(w) - 1 for w in words) == face_dimension(face)


def test_labeling_refinement_consistency():
    delta = FaceWord(3, (2, 0, 1))
    lab = label(delta)
    for f in lab.lattice.faces:
        for g in lab.lattice.faces:
            if f.refines(g) and face_dimension(f) + 1 == face_dimension(g):
                # f's blocks subdivide g's, and the words match blockwise
                fw = [w.letters for w in lab.face_labels[f]]
                gw = [w.letters for w in lab.face_labels[g]]
                assert sum(len(x) for x in fw) == sum(len(x) for x in gw)


def test_label_interval():
    lab = label(FaceWord(2, (0, 0)))
    assert len(lab.vertex_labels) == 2


def test_label_requires_length_two():
    with pytest.raises(ValueError):
        label(FaceWord(3, (1,)))


def test_proper_factors_generic_length_two():
    # distinct deleted vertices with a gap: four distinct single-letter factors
    pf = proper_factors(FaceWord(2, (2, 0)))
    assert len(pf.factors) == 4
    assert all(len(w) == 1 for w in pf.factors)


def test_proper_factors_repeated_letters_dedupe():
    pf = proper_factors(FaceWord(2, (0, 0)))
    assert len(pf.factors) == 3


def test_proper_factors_length_one_empty():
    pf = proper_factors(FaceWord(2, (1,)))
    assert pf.factors == frozenset()


def test_proper_factors_length_three():
    delta = FaceWord(3, (0, 0, 0))
    pf = proper_factors(delta)
    lengths = {len(w) for w in pf.factors}
    assert lengths == {1, 2}
    # every factor appears inside some factorization as a contiguous block
    closure = delta.factorizations()
    seen = set()
    for word in closure:
        for start in range(len(word.letters)):
            for stop in range(start + 1, len(word.letters) + 1):
                if (start, stop) == (0, len(word.letters)):
                    continue
                sub = FaceWord(word.source_dim - start, word.letters[start:stop]).normal_form()
                seen.add(sub)
    assert seen == set(pf.factors)


def test_schema_hexagon_counts():
    sch = compatible_schema(FaceWord(3, (0, 0, 0)))
    assert len(sch.equations) == 6
    assert len(sch.assembly) == 6
    units = [u for u in sch.unit_constraints]
    assert all(len(w) == 1 for (w, _, _) in units)
    for eq in sch.equations:
        for block in eq.blocks:
            assert block.normal_form() in sch.slots
        # block-size bookkeeping: factor polytope dims sum to the face dim
        face_dim = 3 - len(eq.partition)
        assert sum(eq.factor_dims) == face_dim


def test_schema_interval():
    sch = compatible_schema(FaceWord(2, (0, 0)))
    assert len(sch.equations) == 0
    assert len(sch.assembly) == 2  # two boundary points
    assert len(sch.unit_constraints) == len(sch.slots)


def test_schema_length_one_error():
    with pytest.raises(ValueError):
        compatible_schema(FaceWord(4, (2,)))


def test_schema_constraint_count_matches_face_count():
    """Positive-codimension non-vertex faces of P_k, counted per instance."""
    for letters, dim in [((0, 0), 2), ((0, 0, 0), 3), ((2, 0, 1), 3)]:
        delta = FaceWord(dim, letters)
        k = len(letters) - 1
        sch = compatible_schema(delta)
        expected = sum(
            1
            for p in ordered_partitions(range(1, k + 2))
            if 2 <= len(p) <= k
        )
        assert len(sch.equations) == expected


def test_simplex_face_index_counts():
    def of_dimension(idx, k):
        return [w for w, verts in idx.faces.items() if len(verts) - 1 == k]

    idx1 = simplex_face_index(1)
    assert {k: len(of_dimension(idx1, k)) for k in range(2)} == {0: 2, 1: 1}
    idx2 = simplex_face_index(2)
    assert {k: len(of_dimension(idx2, k)) for k in range(3)} == {0: 3, 1: 3, 2: 1}
    idx3 = simplex_face_index(3)
    assert {k: len(of_dimension(idx3, k)) for k in range(4)} == {0: 4, 1: 6, 2: 4, 3: 1}
    for k in range(4):
        assert len(of_dimension(idx3, k)) == math.comb(4, k + 1)


def test_simplex_face_words_normal():
    idx = simplex_face_index(3)
    for w in idx.faces:
        assert all(a <= b for a, b in zip(w.letters, w.letters[1:]))


def test_sequence_schema_counts():
    seq2 = compatible_sequence_schema(2)
    assert len(seq2.equations) == 3
    seq3 = compatible_sequence_schema(3)
    assert len(seq3.equations) == 10
    assert len(seq3.assembly) == 4
    for eq in seq3.equations:
        assert eq.parent in simplex_face_index(3).faces
        assert eq.level + 1 <= 2


def test_sequence_schema_range():
    with pytest.raises(ValueError):
        compatible_sequence_schema(1)


# Reference implementations: the deletion-order face words, the per-partition
# block walk and the gluing-parent rewrite that the one-cell-per-block schema
# and the prefix parents replaced. The outputs must agree exactly.


def _alive_word(source_dim, deleted):
    letters = []
    alive = list(range(source_dim + 1))
    for v in sorted(deleted):
        letters.append(alive.index(v))
        alive.remove(v)
    return FaceWord(source_dim, tuple(letters))


def _reference_block_words(delta, partition, deleted, memo):
    words = []
    removed = 0
    for block in partition:
        key = (removed, block)
        word = memo.get(key)
        if word is None:
            gone = {deleted[b - 1] for b in range(1, len(deleted) + 1) if removed >> b & 1}
            alive = [v for v in range(delta.source_dim + 1) if v not in gone]
            word = memo[key] = _alive_word(len(alive) - 1, [alive.index(deleted[b - 1]) for b in block])
        words.append(word)
        for b in block:
            removed |= 1 << b
    return tuple(words)


def _reference_proper_factors(delta):
    deleted = sorted(delta.deleted_vertices())
    total = len(deleted)
    found = set()
    for pre_mask in range(1 << total):
        pre = [deleted[i] for i in range(total) if pre_mask >> i & 1]
        rest = [deleted[i] for i in range(total) if not pre_mask >> i & 1]
        alive = [v for v in range(delta.source_dim + 1) if v not in pre]
        for mid_size in range(1, len(rest) + 1):
            for mid in itertools.combinations(rest, mid_size):
                if not pre and len(mid) == total:
                    continue
                found.add(_alive_word(len(alive) - 1, [alive.index(v) for v in mid]))
    return found


def _reference_schema(delta):
    """(equations, assembly, slots, unit constraints), each equation as
    (partition, blocks, factor dims, description)."""
    delta = delta.normal_form()
    k = len(delta) - 1
    slots = _reference_proper_factors(delta)
    units = sorted((w.letters, w.source_dim) for w in slots if len(w) == 1)
    deleted = sorted(delta.deleted_vertices())
    memo = {}
    equations = []
    assembly = []
    for partition in ordered_partitions(range(1, k + 2)):
        r = len(partition)
        if r == 1:
            continue
        blocks = _reference_block_words(delta, partition, deleted, memo)
        if r == 2:
            assembly.append((partition, blocks))
        if r <= k:
            dims = tuple(len(b) - 1 for b in blocks)
            prods = " x ".join(f"P_{d}({w.describe()})" for d, w in zip(dims, blocks))
            equations.append((partition, blocks, dims, f"restriction to {partition} equals composite over {prods}"))
    assert all(b.normal_form() in slots for b in memo.values())
    return equations, assembly, slots, units


def _normal_words(length):
    """Every normal-form word of the given length with source dimension
    length - 1 .. length + 2."""
    for n in range(length - 1, length + 3):
        for deleted in itertools.combinations(range(n + 1), length):
            yield _alive_word(n, deleted)


@pytest.mark.parametrize("length", range(2, 6))
def test_schema_matches_block_walk_reference(length):
    for delta in _normal_words(length):
        sch = compatible_schema(delta)
        equations, assembly, slots, units = _reference_schema(delta)
        assert [(eq.partition, eq.blocks, eq.factor_dims, eq.describe()) for eq in sch.equations] == equations
        assert sch.assembly == assembly
        assert sch.slots == slots
        assert sorted((w.letters, w.source_dim) for w, i, lvl in sch.unit_constraints) == units
        assert all(i == w.letters[0] and lvl == w.source_dim for w, i, lvl in sch.unit_constraints)


@pytest.mark.parametrize("length", range(2, 6))
def test_label_matches_block_walk_reference(length):
    for delta in _normal_words(length):
        lab = label(delta)
        deleted = sorted(delta.deleted_vertices())
        memo = {}
        faces = {f: _reference_block_words(delta, f.partition, deleted, memo) for f in lab.lattice.faces}
        assert lab.face_labels == faces
        assert list(lab.face_labels) == list(faces)
        vertices = {
            f: FaceWord(delta.source_dim, tuple(x for w in words for x in w.letters))
            for f, words in faces.items()
            if len(f.partition) == length
        }
        assert lab.vertex_labels == vertices


def _reference_gluing(n):
    faces = {}
    for size in range(1, n + 2):
        for verts in itertools.combinations(range(n + 1), size):
            faces[_alive_word(n, [v for v in range(n + 1) if v not in verts])] = verts
    equations = []
    for word, verts in faces.items():
        if len(verts) - 1 > n - 2:
            continue
        parent = FaceWord(n, word.letters[:-1]).normal_form()
        parent_verts = faces[parent]
        (missing,) = set(parent_verts) - set(verts)
        inclusion = _alive_word(len(parent_verts) - 1, (parent_verts.index(missing),))
        equations.append((len(verts) - 1, word, parent, word.letters[-1], inclusion))
    return faces, equations


@pytest.mark.parametrize("n", range(2, 9))
def test_gluing_parents_match_rewrite_reference(n):
    seq = compatible_sequence_schema(n)
    faces, equations = _reference_gluing(n)
    assert list(seq.index.faces.items()) == list(faces.items())
    assert [(eq.level, eq.subface, eq.parent, eq.connecting_letter, eq.inclusion) for eq in seq.equations] == equations
    for eq, (level, word, parent, letter, inclusion) in zip(seq.equations, equations):
        assert eq.describe() == (
            f"h_{level} . (id x d_{letter}) = h_{level + 1} . (iota[{word.describe()} -> {parent.describe()}] x id)"
        )


@pytest.mark.parametrize("letters", [(0, 0), (0, 1), (0, 0, 0), (0, 1, 3), (0, 0, 0, 0), (1, 1, 2, 3)])
def test_block_word_escape_is_caught(letters, monkeypatch):
    """Dropping any one factor from the proper-factor collection leaves a
    block word outside the slots, and the schema says so."""
    delta = FaceWord(len(letters) + 2, letters)
    complete = permutohedron.proper_factors
    for dropped in sorted(complete(delta).factors, key=lambda w: (w.source_dim, w.letters)):
        def partial(d, dropped=dropped):
            pf = complete(d)
            return permutohedron.ProperFactorCollection(delta=pf.delta, factors=pf.factors - {dropped})

        monkeypatch.setattr(permutohedron, "proper_factors", partial)
        with pytest.raises(RuntimeError, match="escapes the proper-factor collection"):
            compatible_schema(delta)
