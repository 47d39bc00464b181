import json
import random

import pytest

from delooper import schemas
from delooper.delta_core import free_abelian, underlying_delta, verify_identities
from delooper.generators import random_fibrant_strict_object, random_resolution_grid
from delooper.jsontypes import InputError
from delooper.moore import e2_page, homotopy_groups
from delooper.pi_algebra import default_table, eta_chain_fragment, fragments_equal
from delooper.simplicial import sphere, standard_simplex
from delooper.synthesis import HomotopyDegeneracyData


def test_sset_roundtrip(tmp_path):
    for K in (sphere(1, 3), standard_simplex(2, 3)):
        path = tmp_path / "k.sset.json"
        schemas.save(path, schemas.sset_to_json(K))
        K2 = schemas.sset_from_json(schemas.load(path))
        assert K2.verify_identities().ok
        assert K2.elements == K.elements
        assert K2.faces == K.faces


def test_dsab_roundtrip_full_and_delta(tmp_path):
    rng = random.Random(0)
    W = random_fibrant_strict_object(rng, 3)
    path = tmp_path / "w.dsab.json"
    schemas.save(path, schemas.dsab_to_json(W))
    W2 = schemas.dsab_from_json(schemas.load(path))
    assert verify_identities(W2).ok
    assert homotopy_groups(W2) == homotopy_groups(W)
    V = underlying_delta(W)
    schemas.save(path, schemas.dsab_to_json(V))
    V2 = schemas.dsab_from_json(schemas.load(path))
    assert not hasattr(V2, "degeneracies")


def test_bisab_roundtrip(tmp_path):
    B, _, _ = random_resolution_grid(random.Random(1))
    path = tmp_path / "b.bisab.json"
    schemas.save(path, schemas.bisab_to_json(B))
    B2 = schemas.bisab_from_json(schemas.load(path))
    assert not B2.verify()
    page1 = e2_page(B)
    page2 = e2_page(B2)
    assert page1.entries == page2.entries


def test_fragment_roundtrip(tmp_path):
    table = default_table()
    F = eta_chain_fragment()
    path = tmp_path / "f.pialg.json"
    schemas.save(path, schemas.fragment_to_json(F))
    F2 = schemas.fragment_from_json(schemas.load(path))
    assert fragments_equal(F, F2, table)


def test_hdeg_roundtrip(tmp_path):
    rng = random.Random(2)
    W = random_fibrant_strict_object(rng, 2)
    V = underlying_delta(W)
    H = HomotopyDegeneracyData.from_simplicial(W)
    path = tmp_path / "h.hdeg.json"
    schemas.save(path, schemas.hdeg_to_json(H, V))
    H2 = schemas.hdeg_from_json(schemas.load(path), V)
    for n in range(V.cap):
        for j in range(n + 1):
            assert H2.maps[n][j] == H.maps[n][j]


def test_format_version_checked(tmp_path):
    bad = {"format": 99, "kind": "sset"}
    with pytest.raises(InputError):
        schemas.sset_from_json(bad)


def test_matrix_shape_checked():
    with pytest.raises(InputError):
        schemas.mat_from_json([[1, 2]], 2, 2)


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True, None])
def test_matrix_entries_must_be_json_integers(entry):
    with pytest.raises(InputError, match="expected a list of integers"):
        schemas.mat_from_json([[1, entry]], 1, 2)


def test_matrix_rows_are_copied():
    rows = [[1, -2], [0, 3]]
    M = schemas.mat_from_json(rows, 2, 2)
    assert M.a == rows and all(a is not b for a, b in zip(M.a, rows))


def test_scalar_fields_must_be_json_integers():
    data = schemas.sset_to_json(sphere(1, 2))
    with pytest.raises(InputError, match="cap: expected an integer, found '2'"):
        schemas.sset_from_json({**data, "cap": "2"})
    data = schemas.fragment_to_json(eta_chain_fragment())
    degree = next(iter(data["groups"]))
    groups = {**data["groups"], degree: {**data["groups"][degree], "factors": [2.0]}}
    with pytest.raises(InputError, match="factors: expected a list of integers"):
        schemas.fragment_from_json({**data, "groups": groups})
