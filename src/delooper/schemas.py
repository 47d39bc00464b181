"""Versioned JSON serialization for the workbench's object kinds.

All files carry a "format": 1 field; matrices are row-major integer
arrays; simplicial-set maps are arrays aligned with the element lists.
"""

from __future__ import annotations

import json

from .abelian import Hom, PresentedGroup
from .delta_core import DeltaSAb, SAb
from .intlin import Mat
from .jsontypes import InputError, entry, key_int, load_object, typed
from .moore import BisimplicialAbelianGroup
from .pi_algebra import PiAlgebraFragment, _diagonal_factors
from .simplicial import BASE, FiniteSimplicialSet
from .star import GroupHomMap, TargetMap, milnor_F
from .synthesis import HomotopyDegeneracyData

FORMAT = 1
load = load_object  # the JSON object in the file at a path


def _check_format(data, kind):
    if data.get("format") != FORMAT:
        raise InputError(f"{kind}: unsupported format {data.get('format')!r}, expected {FORMAT}")
    declared = data.get("kind")
    if declared is not None and declared != kind:
        raise InputError(f"expected a {kind} file, found kind {declared!r}")


def _level(text, cap, step, what):
    """The level n in the key of a map from level n to level n + step;
    both levels must lie in 0..cap."""
    n = key_int(text, what)
    if not (0 <= n <= cap and 0 <= n + step <= cap):
        raise InputError(f"{what}: a map from level {n} to level {n + step} leaves levels 0..{cap}")
    return n


def _per_level(rows, cap, what):
    """A list with one entry per level 0..cap."""
    if not isinstance(rows, list):
        raise InputError(f"{what}: expected a list of {cap + 1} entries for cap {cap}, found {rows!r}")
    if len(rows) != cap + 1:
        raise InputError(f"{what}: expected {cap + 1} entries for cap {cap}, found {len(rows)}")
    return rows


def _family(data, key, cap, step):
    """(n, path text, value) for each entry of the object data[key], whose
    keys name the levels n of maps from level n to level n + step."""
    for n_str, value in entry(data, key, "an object", key).items():
        what = f"{key} key {n_str!r}"
        yield _level(n_str, cap, step, what), what, value


def _check_well_defined(mat, src, dst, what, names):
    """An InputError naming what unless mat sends every relation of the level
    src to zero in dst (names: the two levels). A free src takes no Smith form."""
    if src.rels.c and not Hom(src, dst, mat).is_well_defined():
        raise InputError(f"{what}: not well defined: it sends a relation of level {names[0]} "
                         f"to a nonzero element of level {names[1]}")


def mat_to_json(M):
    return [row[:] for row in M.a]


def mat_from_json(rows, r, c, what="matrix"):
    if len(typed(rows, "a list of rows", what)) != r or any(len(row) != c for row in rows):
        raise InputError(f"{what}: matrix shape mismatch: expected {r}x{c}")
    return Mat(r, c, [list(typed(row, "a list of integers", f"{what}[{i}]")) for i, row in enumerate(rows)])


def group_to_json(G):
    return {"gens": G.ngens, "relations": mat_to_json(G.rels)}


def group_from_json(data, what="group"):
    g = entry(typed(data, "an object", what), "gens", "an integer", f"{what}: gens")
    if g < 0:
        raise InputError(f"{what}: gens: expected a generator count, found {g}")
    rels = typed(data.get("relations", []), "a list of rows", f"{what}: relations")
    if not rels:
        return PresentedGroup(g, Mat(g, 0, [[] for _ in range(g)]))
    return PresentedGroup(g, mat_from_json(rels, g, len(rels[0]), f"{what}: relations"))


def sset_to_json(K):
    return {
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


def sset_from_json(data):
    _check_format(data, "sset")
    cap = entry(data, "cap", "an integer", "cap")
    basepoint = data.get("basepoint", BASE)
    if basepoint != BASE:
        raise InputError(f"basepoint: expected {BASE!r}, found {basepoint!r}")
    rows = _per_level(entry(data, "elements", None, "elements"), cap, "elements")
    elements = [[typed(x, "a name", f"elements[{n}]")
                 for x in typed(row, "a list", f"elements[{n}]")] for n, row in enumerate(rows)]

    def load_family(key, step):
        out = {}
        for n, what, tables in _family(data, key, cap, step):
            out[n] = []
            for i, table in enumerate(typed(tables, "a list of rows", what)):
                if len(table) != len(elements[n]):
                    raise InputError(f"{what}[{i}]: expected {len(elements[n])} images, one per element of "
                                      f"level {n}, found {len(table)}")
                out[n].append({x: typed(img, "a name", what) for x, img in zip(elements[n], table)})
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
    cap = entry(data, "cap", "an integer", "cap")
    rows = _per_level(entry(data, "levels", None, "levels"), cap, "levels")
    levels = [group_from_json(g, f"levels[{n}]") for n, g in enumerate(rows)]

    def load_family(key, step):
        out = {}
        for n, what, mats in _family(data, key, cap, step):
            out[n] = [mat_from_json(m, levels[n + step].ngens, levels[n].ngens, f"{what}[{i}]")
                      for i, m in enumerate(typed(mats, "a list", what))]
            for i, m in enumerate(out[n]):
                _check_well_defined(m, levels[n], levels[n + step], f"{what}[{i}]", (n, n + step))
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
    hcap = entry(data, "hcap", "an integer", "hcap")
    vcap = entry(data, "vcap", "an integer", "vcap")
    levels = [
        [group_from_json(g, f"levels[{p}][{q}]") for q, g in enumerate(_per_level(column, vcap, f"levels[{p}]"))]
        for p, column in enumerate(_per_level(entry(data, "levels", None, "levels"), hcap, "levels"))
    ]

    def load_family(key, dp, dq):
        out = {}
        for pq, mats in entry(data, key, "an object", key).items():
            what = f"{key} key {pq!r}"
            if pq.count(",") != 1:
                raise InputError(f"{what}: expected a key \"p,q\" of two levels")
            p_str, q_str = pq.split(",")
            p, q = _level(p_str, hcap, dp, what), _level(q_str, vcap, dq, what)
            out[(p, q)] = [mat_from_json(m, levels[p + dp][q + dq].ngens, levels[p][q].ngens, f"{what}[{i}]")
                           for i, m in enumerate(typed(mats, "a list", what))]
            count = p + 1 if dp else q + 1  # d_0..d_p or s_0..s_p horizontally, ..q vertically
            if len(out[(p, q)]) != count:
                raise InputError(f"{what}: expected {count} matrices, found {len(out[(p, q)])}")
            for i, m in enumerate(out[(p, q)]):
                _check_well_defined(m, levels[p][q], levels[p + dp][q + dq], f"{what}[{i}]",
                                    (pq, f"{p + dp},{q + dq}"))
        # every (p, q) whose map stays inside the grid needs its entry
        for p in range(max(0, -dp), hcap + 1 - max(0, dp)):
            for q in range(max(0, -dq), vcap + 1 - max(0, dq)):
                if (p, q) not in out:
                    raise InputError(f"{key} key '{p},{q}': missing")
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
        raise ValueError("fragment group is not in diagonal presentation")
    return factors


def _generator(obj, key, what):
    """The (degree, name) of the JSON pair [degree, name] at obj[key]."""
    degree, name = entry(obj, key, "[degree, generator]", what)
    return typed(degree, "an integer", f"{what} degree"), typed(name, "a name", f"{what} generator")


def fragment_from_json(data):
    _check_format(data, "pialg")
    degrees = entry(data, "degrees", "a list of integers", "degrees")
    if len(degrees) != 2:
        raise InputError(f"degrees: expected [lowest, highest], found {degrees!r}")
    d_lo, d_hi = degrees
    groups = {}
    gen_names = {}
    for d_str, spec in entry(data, "groups", "an object", "groups").items():
        d = key_int(d_str, f"groups key {d_str!r}")
        what = f"groups key {d_str!r}"
        typed(spec, "an object", what)
        groups[d] = PresentedGroup.from_factors(entry(spec, "factors", "a list of integers", f"{what}: factors"))
        gen_names[d] = [typed(x, "a name", f"{what}: gens") for x in entry(spec, "gens", "a list", f"{what}: gens")]
        if len(gen_names[d]) != groups[d].ngens:
            raise InputError(f"degree {d}: generator list does not match factor list")
    action = {}
    for i, item in enumerate(typed(data.get("action", []), "a list", "action")):
        what = f"action[{i}]"
        typed(item, "an object", what)
        degree = entry(item, "degree", "an integer", f"{what}: degree")
        theta = entry(item, "theta", "a name", f"{what}: theta")
        gen = entry(item, "gen", "a name", f"{what}: gen")
        action[(theta, (degree, gen))] = list(entry(item, "value", "a list of integers", f"{what}: value"))
    whitehead = {}
    for i, item in enumerate(typed(data.get("whitehead", []), "a list", "whitehead")):
        what = f"whitehead[{i}]"
        typed(item, "an object", what)
        left = _generator(item, "left", f"{what}: left")
        right = _generator(item, "right", f"{what}: right")
        whitehead[(left, right)] = list(entry(item, "value", "a list of integers", f"{what}: value"))
    return PiAlgebraFragment(
        d_lo=d_lo,
        d_hi=d_hi,
        groups=groups,
        gen_names=gen_names,
        action=action,
        whitehead=whitehead,
    )


def hdeg_to_json(H):
    return {
        "format": FORMAT,
        "kind": "hdeg",
        "maps": {str(n): [mat_to_json(m) for m in H.maps[n]] for n in H.maps},
    }


def hdeg_from_json(data, V):
    _check_format(data, "hdeg")
    maps = {n: [mat_from_json(m, V.rank(n + 1), V.rank(n), f"{what}[{i}]")
                for i, m in enumerate(typed(mats, "a list", what))]
            for n, what, mats in _family(data, "maps", V.cap, 1)}
    return HomotopyDegeneracyData(maps=maps)


def _tables(data, cap, kind):
    """The tables of a star-check file: one object per level 0..cap, keyed by
    simplex, each of whose entries has the given kind."""
    tables = []
    for n, level in enumerate(_per_level(entry(data, "tables", None, "tables"), cap, "tables")):
        if type(level) is not dict:
            raise InputError(f"level {n} must be an object keyed by simplex, found {level!r}")
        tables.append({x: typed(value, kind, f"level {n}, simplex {x!r}") for x, value in level.items()})
    return tables


def freehom_from_json(data, src, dst):
    """The homomorphism F(src) -> F(dst) of Milnor free simplicial groups
    whose tables give, level by level, the image word of each generator as
    [generator, exponent] letters; src and dst are the simplicial sets the
    file names."""
    _check_format(data, "freehom")
    if dst.cap < src.cap:
        raise InputError(f"target cap {dst.cap} is below the source cap {src.cap}")
    F_src, F_dst = milnor_F(src), milnor_F(dst)
    tables = [{x: tuple(map(tuple, word)) for x, word in level.items()}
              for level in _tables(data, src.cap, "a list of [generator, exponent] pairs, each exponent 1 or -1")]
    for n, table in enumerate(tables):
        sources, generators = set(F_src.generators(n)), set(F_dst.generators(n))
        for x, word in table.items():
            if x not in sources:
                raise InputError(f"level {n} lists {x!r}, not a generator of the source")
            for g, _ in word:
                if g not in generators:
                    raise InputError(f"level {n}, simplex {x!r}: {g!r} is not a generator of level {n} "
                                      f"of {data['dst']}")
    return GroupHomMap(F_src, F_dst, tables)


def targetmap_from_json(data, src, target):
    """The pointed map from src into the AbelianTarget target whose tables
    give, level by level, the generator-coordinate vector of each simplex
    other than the basepoint; src is the simplicial set the file names."""
    _check_format(data, "targetmap")
    if src.cap > target.cap:
        raise InputError(f"source cap {src.cap} exceeds the target's cap {target.cap}")
    tables = []
    for n, level in enumerate(_tables(data, src.cap, "a list of integers")):
        simplices = set(src.elements[n])
        ngens = target.sab.levels[n].ngens
        for x, vec in level.items():
            if x not in simplices:
                raise InputError(f"level {n} lists {x!r}, not a simplex of the source")
            if len(vec) != ngens:
                raise InputError(f"level {n}, simplex {x!r}: expected a vector of length {ngens}, found {vec!r}")
        for x in src.elements[n]:
            if x != BASE and x not in level:
                raise InputError(f"level {n} does not list simplex {x!r}")
        tables.append({x: target.from_generators(n, vec) for x, vec in level.items()})
    return TargetMap(src=src, target=target, tables=tables)


def save(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
