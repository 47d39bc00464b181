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
from .pi_algebra import PiAlgebraFragment, _diagonal_factors, _key_int
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
    n = _key_int(text, what, SchemaError)
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


def _object(x, what):
    """x if it is a JSON object; anything else is a SchemaError."""
    if type(x) is not dict:
        raise SchemaError(f"{what}: expected an object, found {x!r}")
    return x


def _list(x, what):
    """x if it is a JSON list; anything else is a SchemaError."""
    if type(x) is not list:
        raise SchemaError(f"{what}: expected a list, found {x!r}")
    return x


def _rows(x, what):
    """x if it is a JSON list of lists; anything else is a SchemaError."""
    if type(x) is not list or any(type(row) is not list for row in x):
        raise SchemaError(f"{what}: expected a list of rows, found {x!r}")
    return x


def _name(x, what):
    """x if it is a JSON string; anything else is a SchemaError."""
    if type(x) is not str:
        raise SchemaError(f"{what}: expected a name, found {x!r}")
    return x


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


def mat_from_json(rows, r, c, what="matrix"):
    if len(_rows(rows, what)) != r or any(len(row) != c for row in rows):
        raise SchemaError(f"{what}: matrix shape mismatch: expected {r}x{c}")
    return Mat(r, c, [integers(row, "matrix row") for row in rows])


def group_to_json(G):
    return {"gens": G.ngens, "relations": mat_to_json(G.rels)}


def group_from_json(data, what="group"):
    g = integer(_object(data, what)["gens"], f"{what}: gens")
    if g < 0:
        raise SchemaError(f"{what}: gens: expected a generator count, found {g}")
    rels = _rows(data.get("relations", []), f"{what}: relations")
    if not rels:
        return PresentedGroup(g, Mat(g, 0, [[] for _ in range(g)]))
    return PresentedGroup(g, mat_from_json(rels, g, len(rels[0]), f"{what}: relations"))


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
    rows = _per_level(data["elements"], cap, "elements")
    elements = [[_name(x, f"elements[{n}]") for x in _list(row, f"elements[{n}]")] for n, row in enumerate(rows)]

    def load_family(key, step):
        out = {}
        for n_str, tables in _object(data[key], key).items():
            what = f"{key} key {n_str!r}"
            n = _level(n_str, cap, step, what)
            out[n] = [{x: _name(img, what) for x, img in zip(elements[n], table)} for table in _rows(tables, what)]
        return out

    return FiniteSimplicialSet(cap, elements, load_family("faces", -1), load_family("degeneracies", 1))


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
    levels = [group_from_json(g, f"levels[{n}]") for n, g in enumerate(_per_level(data["levels"], cap, "levels"))]

    def load_family(key, step):
        out = {}
        for n_str, mats in _object(data[key], key).items():
            what = f"{key} key {n_str!r}"
            n = _level(n_str, cap, step, what)
            out[n] = [mat_from_json(m, levels[n + step].ngens, levels[n].ngens, f"{what}[{i}]")
                      for i, m in enumerate(_list(mats, what))]
        return out

    if "degeneracies" in data:
        return SAb(levels, load_family("faces", -1), load_family("degeneracies", 1), cap)
    return DeltaSAb(levels, load_family("faces", -1), cap)


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
        [group_from_json(g, f"levels[{p}][{q}]") for q, g in enumerate(_per_level(column, vcap, f"levels[{p}]"))]
        for p, column in enumerate(_per_level(data["levels"], hcap, "levels"))
    ]

    def load_family(key, dp, dq):
        out = {}
        for pq, mats in _object(data[key], key).items():
            what = f"{key} key {pq!r}"
            if pq.count(",") != 1:
                raise SchemaError(f"{what}: expected a key \"p,q\" of two levels")
            p_str, q_str = pq.split(",")
            p, q = _level(p_str, hcap, dp, what), _level(q_str, vcap, dq, what)
            out[(p, q)] = [mat_from_json(m, levels[p + dp][q + dq].ngens, levels[p][q].ngens, f"{what}[{i}]")
                           for i, m in enumerate(_list(mats, what))]
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
    factors = _diagonal_factors(G)
    if factors is None:
        raise SchemaError("fragment group is not in diagonal presentation")
    return factors


def _generator(x, what):
    """The (degree, name) of a JSON pair [degree, name]."""
    if type(x) is not list or len(x) != 2:
        raise SchemaError(f"{what}: expected [degree, generator], found {x!r}")
    return integer(x[0], f"{what} degree"), _name(x[1], f"{what} generator")


def fragment_from_json(data):
    _check_format(data, "pialg")
    d_lo, d_hi = integers(data["degrees"], "degrees")
    groups = {}
    gen_names = {}
    for d_str, spec in _object(data["groups"], "groups").items():
        d = _key_int(d_str, f"groups key {d_str!r}", SchemaError)
        spec = _object(spec, f"groups key {d_str!r}")
        groups[d] = PresentedGroup.from_factors(integers(spec["factors"], f"degree {d} factors"))
        gen_names[d] = [_name(x, f"degree {d} gens") for x in _list(spec["gens"], f"degree {d} gens")]
        if len(gen_names[d]) != groups[d].ngens:
            raise SchemaError(f"degree {d}: generator list does not match factor list")
    action = {}
    for i, entry in enumerate(_list(data.get("action", []), "action")):
        what = f"action[{i}]"
        degree = integer(_object(entry, what)["degree"], "action degree")
        key = (_name(entry["theta"], f"{what}: theta"), (degree, _name(entry["gen"], f"{what}: gen")))
        action[key] = integers(entry["value"], "action value")
    whitehead = {}
    for i, entry in enumerate(_list(data.get("whitehead", []), "whitehead")):
        what = f"whitehead[{i}]"
        left = _generator(_object(entry, what)["left"], f"{what}: left")
        right = _generator(entry["right"], f"{what}: right")
        whitehead[(left, right)] = integers(entry["value"], "whitehead value")
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
    for n_str, mats in _object(data["maps"], "maps").items():
        what = f"maps key {n_str!r}"
        n = _level(n_str, V.cap, 1, what)
        maps[n] = [mat_from_json(m, V.rank(n + 1), V.rank(n), f"{what}[{i}]") for i, m in enumerate(_list(mats, what))]
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
