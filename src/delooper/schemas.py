"""Versioned JSON serialization for the workbench's object kinds.

All files carry a "format": 1 field; matrices are row-major integer
arrays; simplicial-set maps are arrays aligned with the element lists.
"""

from __future__ import annotations

import json

from .abelian import PresentedGroup
from .delta_core import DeltaSAb, SAb
from .intlin import Mat
from .moore import BisimplicialAbelianGroup
from .pi_algebra import PiAlgebraFragment
from .simplicial import BASE, FiniteSimplicialSet
from .synthesis import HomotopyDegeneracyData

FORMAT = 1


class SchemaError(ValueError):
    pass


def _check_format(data, kind):
    if data.get("format") != FORMAT:
        raise SchemaError(f"{kind}: unsupported format {data.get('format')!r}, expected {FORMAT}")
    declared = data.get("kind")
    if declared is not None and declared != kind:
        raise SchemaError(f"expected a {kind} file, found kind {declared!r}")


def _level(text, cap, step, what):
    """The level n in the key of a map from level n to level n + step;
    both levels must lie in 0..cap."""
    n = int(text)
    if not (0 <= n <= cap and 0 <= n + step <= cap):
        raise SchemaError(f"{what}: a map from level {n} to level {n + step} leaves levels 0..{cap}")
    return n


def _per_level(rows, cap, what):
    """A list with one entry per level 0..cap."""
    if not isinstance(rows, list):
        raise SchemaError(f"{what}: expected a list of {cap + 1} entries for cap {cap}, found {rows!r}")
    if len(rows) != cap + 1:
        raise SchemaError(f"{what}: expected {cap + 1} entries for cap {cap}, found {len(rows)}")
    return rows


def integer(x, what):
    """x if it is a JSON integer; a float, a bool or a numeric string is a SchemaError."""
    if type(x) is not int:
        raise SchemaError(f"{what}: expected an integer, found {x!r}")
    return x


def integers(values, what):
    """A copy of values if it is a list of JSON integers; anything else is a SchemaError."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise SchemaError(f"{what}: expected a list of integers, found {values!r}")
    return list(values)


def mat_to_json(M):
    return [row[:] for row in M.a]


def mat_from_json(rows, r, c):
    if len(rows) != r or any(len(row) != c for row in rows):
        raise SchemaError(f"matrix shape mismatch: expected {r}x{c}")
    return Mat(r, c, [integers(row, "matrix row") for row in rows])


def group_to_json(G):
    return {"gens": G.ngens, "relations": mat_to_json(G.rels)}


def group_from_json(data):
    g = integer(data["gens"], "gens")
    rels = data.get("relations", [])
    if not rels:
        return PresentedGroup(g, Mat(g, 0, [[] for _ in range(g)]))
    return PresentedGroup(g, mat_from_json(rels, g, len(rels[0])))


def sset_to_json(K):
    out = {
        "format": FORMAT,
        "kind": "sset",
        "cap": K.cap,
        "basepoint": BASE,
        "elements": [list(K.elements[n]) for n in range(K.cap + 1)],
        "faces": {
            str(n): [[K.faces[n][i][x] for x in K.elements[n]] for i in range(n + 1)]
            for n in range(1, K.cap + 1)
        },
        "degeneracies": {
            str(n): [[K.degeneracies[n][j][x] for x in K.elements[n]] for j in range(n + 1)]
            for n in range(0, K.cap)
        },
    }
    return out


def sset_from_json(data):
    _check_format(data, "sset")
    cap = integer(data["cap"], "cap")
    elements = [list(map(str, row)) for row in _per_level(data["elements"], cap, "elements")]
    faces = {}
    for n_str, tables in data["faces"].items():
        n = _level(n_str, cap, -1, f"faces key {n_str!r}")
        faces[n] = [
            {x: str(img) for x, img in zip(elements[n], table)} for table in tables
        ]
    degeneracies = {}
    for n_str, tables in data["degeneracies"].items():
        n = _level(n_str, cap, 1, f"degeneracies key {n_str!r}")
        degeneracies[n] = [
            {x: str(img) for x, img in zip(elements[n], table)} for table in tables
        ]
    return FiniteSimplicialSet(cap, elements, faces, degeneracies)


def dsab_to_json(V):
    out = {
        "format": FORMAT,
        "kind": "dsab",
        "cap": V.cap,
        "levels": [group_to_json(g) for g in V.levels],
        "faces": {str(n): [mat_to_json(V.face(n, i)) for i in range(n + 1)] for n in range(1, V.cap + 1)},
    }
    if isinstance(V, SAb):
        out["degeneracies"] = {
            str(n): [mat_to_json(V.degeneracy(n, j)) for j in range(n + 1)] for n in range(0, V.cap)
        }
    return out


def dsab_from_json(data):
    _check_format(data, "dsab")
    cap = integer(data["cap"], "cap")
    levels = [group_from_json(g) for g in _per_level(data["levels"], cap, "levels")]
    faces = {}
    for n_str, mats in data["faces"].items():
        n = _level(n_str, cap, -1, f"faces key {n_str!r}")
        faces[n] = [mat_from_json(m, levels[n - 1].ngens, levels[n].ngens) for m in mats]
    if "degeneracies" in data:
        degs = {}
        for n_str, mats in data["degeneracies"].items():
            n = _level(n_str, cap, 1, f"degeneracies key {n_str!r}")
            degs[n] = [mat_from_json(m, levels[n + 1].ngens, levels[n].ngens) for m in mats]
        return SAb(levels, faces, degs, cap)
    return DeltaSAb(levels, faces, cap)


def bisab_to_json(B):
    return {
        "format": FORMAT,
        "kind": "bisab",
        "hcap": B.hcap,
        "vcap": B.vcap,
        "levels": [[group_to_json(B.levels[p][q]) for q in range(B.vcap + 1)] for p in range(B.hcap + 1)],
        "h_faces": {f"{p},{q}": [mat_to_json(m) for m in B.h_faces[(p, q)]] for (p, q) in B.h_faces},
        "v_faces": {f"{p},{q}": [mat_to_json(m) for m in B.v_faces[(p, q)]] for (p, q) in B.v_faces},
        "h_degeneracies": {f"{p},{q}": [mat_to_json(m) for m in B.h_degs[(p, q)]] for (p, q) in B.h_degs},
        "v_degeneracies": {f"{p},{q}": [mat_to_json(m) for m in B.v_degs[(p, q)]] for (p, q) in B.v_degs},
    }


def bisab_from_json(data):
    _check_format(data, "bisab")
    hcap, vcap = integer(data["hcap"], "hcap"), integer(data["vcap"], "vcap")
    levels = [
        [group_from_json(g) for g in _per_level(column, vcap, f"levels[{p}]")]
        for p, column in enumerate(_per_level(data["levels"], hcap, "levels"))
    ]

    def load_family(key, dp, dq):
        out = {}
        for pq, mats in data[key].items():
            p_str, q_str = pq.split(",")
            what = f"{key} key {pq!r}"
            p, q = _level(p_str, hcap, dp, what), _level(q_str, vcap, dq, what)
            out[(p, q)] = [mat_from_json(m, levels[p + dp][q + dq].ngens, levels[p][q].ngens) for m in mats]
        return out

    h_faces = load_family("h_faces", -1, 0)
    v_faces = load_family("v_faces", 0, -1)
    h_degs = load_family("h_degeneracies", 1, 0)
    v_degs = load_family("v_degeneracies", 0, 1)
    return BisimplicialAbelianGroup(levels, h_faces, v_faces, h_degs, v_degs, hcap, vcap)


def fragment_to_json(F):
    return {
        "format": FORMAT,
        "kind": "pialg",
        "degrees": [F.d_lo, F.d_hi],
        "groups": {
            str(d): {
                "factors": list(_declared_factors(F.groups[d])),
                "gens": list(F.gen_names.get(d, [])),
            }
            for d in F.groups
        },
        "action": [
            {"theta": theta, "degree": deg, "gen": gen, "value": list(value)}
            for (theta, (deg, gen)), value in sorted(F.action.items(), key=str)
        ],
        "whitehead": [
            {"left": [d1, g1], "right": [d2, g2], "value": list(value)}
            for ((d1, g1), (d2, g2)), value in sorted(F.whitehead.items(), key=str)
        ],
    }


def _declared_factors(G):
    # fragment groups are kept in diagonal presentation (one factor per generator)
    if G.rels.c != G.ngens:
        raise SchemaError("fragment group is not in diagonal presentation")
    for i in range(G.ngens):
        for j in range(G.rels.c):
            if i != j and G.rels.a[i][j] != 0:
                raise SchemaError("fragment group is not in diagonal presentation")
    return [G.rels.a[i][i] for i in range(G.ngens)]


def fragment_from_json(data):
    _check_format(data, "pialg")
    d_lo, d_hi = integers(data["degrees"], "degrees")
    groups = {}
    gen_names = {}
    for d_str, spec in data["groups"].items():
        d = int(d_str)
        groups[d] = PresentedGroup.from_factors(integers(spec["factors"], f"degree {d} factors"))
        gen_names[d] = list(spec["gens"])
        if len(gen_names[d]) != groups[d].ngens:
            raise SchemaError(f"degree {d}: generator list does not match factor list")
    action = {}
    for entry in data.get("action", []):
        degree = integer(entry["degree"], "action degree")
        action[(entry["theta"], (degree, entry["gen"]))] = integers(entry["value"], "action value")
    whitehead = {}
    for entry in data.get("whitehead", []):
        d1, g1 = integer(entry["left"][0], "whitehead degree"), entry["left"][1]
        d2, g2 = integer(entry["right"][0], "whitehead degree"), entry["right"][1]
        whitehead[((d1, g1), (d2, g2))] = integers(entry["value"], "whitehead value")
    return PiAlgebraFragment(
        d_lo=d_lo,
        d_hi=d_hi,
        groups=groups,
        gen_names=gen_names,
        action=action,
        whitehead=whitehead,
    )


def hdeg_to_json(H, V):
    return {
        "format": FORMAT,
        "kind": "hdeg",
        "maps": {str(n): [mat_to_json(m) for m in H.maps[n]] for n in H.maps},
    }


def hdeg_from_json(data, V):
    _check_format(data, "hdeg")
    maps = {}
    for n_str, mats in data["maps"].items():
        n = _level(n_str, V.cap, 1, f"maps key {n_str!r}")
        maps[n] = [mat_from_json(m, V.rank(n + 1), V.rank(n)) for m in mats]
    return HomotopyDegeneracyData(maps=maps)


def load(path):
    """The JSON object in the file at path; any other top-level value is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level, found {type(data).__name__}")
    return data


def save(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
