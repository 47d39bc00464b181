"""Command-line surface: batch verification and JSON report emission.

Exit codes: 0 the verdict holds / object consistent, 1 a property fails
or an obstruction was found (with a machine-recheckable witness), 2 a
usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import schemas
from .delta_core import (
    DeltaSAb,
    SAb,
    free_degeneracy_extension,
    is_reedy_fibrant,
    matching_object,
    underlying_delta,
    verify_identities,
)
from .moore import CollapseMismatch, e2_page, homotopy_groups
from .permutohedron import (
    ResourceError,
    build_permutohedron,
    compatible_schema,
    compatible_sequence_schema,
    label,
    simplex_face_index,
)
from .pi_algebra import NotAbelianError, Obstruction, SphereTable, deloop, validate
from .simplicial import StructuralError
from .star import AbelianTarget, GroupHomMap, TargetMap, check_condition_star, milnor_F
from .synthesis import FibrancyError, SynthesisFailure, synthesize
from .words import FaceWord

OK, FAIL, USAGE = 0, 1, 2

_ACTIVE_SEED = 0


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _report(command, inputs, verdict, witnesses, started, extra=None, seed=None, caps=None):
    out = {
        "command": command,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "verdict": verdict,
        "witnesses": witnesses,
        "caps": caps,
        "seed": _ACTIVE_SEED if seed is None else seed,
        "timing_s": round(time.perf_counter() - started, 3),
    }
    if extra:
        out.update(extra)
    print(json.dumps(out, indent=1, default=str))


def _parse_word(text):
    try:
        dim_part, letters_part = text.split(":")
        letters = tuple(int(x) for x in letters_part.split(",")) if letters_part else ()
        return FaceWord(int(dim_part), letters)
    except (ValueError, IndexError) as exc:
        raise StructuralError(f"malformed face word {text!r}; expected 'dim:i,j,...'") from exc


def _load_object(path, cap=None):
    data = schemas.load(path)
    kind = data.get("kind")
    if kind == "sset":
        obj = schemas.sset_from_json(data)
    elif kind == "dsab":
        obj = schemas.dsab_from_json(data)
    elif kind == "bisab":
        obj = schemas.bisab_from_json(data)
    else:
        raise schemas.SchemaError(f"cannot load object of kind {kind!r} from {path}")
    if cap is not None and kind in ("sset", "dsab"):
        obj = _truncate(obj, cap)
    return obj


def _truncate(obj, cap):
    from .simplicial import FiniteSimplicialSet

    if cap >= obj.cap:
        return obj
    if isinstance(obj, FiniteSimplicialSet):
        return FiniteSimplicialSet(
            cap,
            obj.elements[: cap + 1],
            {n: obj.faces[n] for n in range(1, cap + 1)},
            {n: obj.degeneracies[n] for n in range(0, cap)},
        )
    levels = obj.levels[: cap + 1]
    faces = {n: obj.faces[n] for n in range(1, cap + 1)}
    if isinstance(obj, SAb):
        degs = {n: obj.degeneracies[n] for n in range(0, cap)}
        return SAb(levels, faces, degs, cap)
    return DeltaSAb(levels, faces, cap)


def cmd_verify(args, started):
    X = _load_object(args.file, getattr(args, 'cap', None))
    report = verify_identities(X)
    verdict = "consistent" if report.ok else "violations"
    _report("verify", [args.file], verdict, [v.describe() for v in report.violations], started, caps=getattr(X, "cap", None))
    return OK if report.ok else FAIL


def cmd_moore(args, started):
    V = _load_object(args.file, getattr(args, 'cap', None))
    degrees = None
    if args.window:
        lo, hi = (int(x) for x in args.window.split(","))
        degrees = range(lo, hi + 1)
    pis = homotopy_groups(V, degrees)
    _report(
        "moore",
        [args.file],
        "computed",
        [],
        started,
        extra={"homotopy": {str(d): list(f) for d, f in pis.factors.items()}},
        caps=V.cap,
    )
    return OK


def cmd_match(args, started):
    V = _load_object(args.file, getattr(args, 'cap', None))
    if isinstance(V, SAb):
        V = underlying_delta(V)
    mo = matching_object(V, args.n)
    _report(
        "match",
        [args.file],
        "computed",
        [],
        started,
        extra={
            "n": args.n,
            "matching_invariants": list(mo.group.invariant_factors()),
            "delta_well_defined": mo.delta.is_well_defined(),
        },
        caps=V.cap,
    )
    return OK


def cmd_reedy(args, started):
    V = _load_object(args.file, getattr(args, 'cap', None))
    if isinstance(V, SAb):
        V = underlying_delta(V)
    rep = is_reedy_fibrant(V)
    witnesses = [{"degree": n, "missed_tuple": w} for n, w in sorted(rep.witnesses.items())]
    _report("reedy", [args.file], "fibrant" if rep.fibrant else "not-fibrant", witnesses, started, caps=V.cap)
    return OK if rep.fibrant else FAIL


def cmd_extend(args, started):
    V = _load_object(args.file, getattr(args, 'cap', None))
    if isinstance(V, SAb):
        V = underlying_delta(V)
    ext = free_degeneracy_extension(V)
    rep = verify_identities(ext.object)
    extra = {"object": schemas.dsab_to_json(ext.object)} if args.emit else {}
    _report(
        "extend",
        [args.file],
        "consistent" if rep.ok else "violations",
        [v.describe() for v in rep.violations],
        started,
        extra=extra,
        caps=V.cap,
    )
    return OK if rep.ok else FAIL


def cmd_perm(args, started):
    if args.action == "enum":
        k = int(args.arg)
        lattice = build_permutohedron(k)
        counts = {str(d): n for d, n in lattice.face_counts.items()}
        _report(
            "perm-enum",
            [],
            "computed",
            [],
            started,
            extra={
                "k": k,
                "face_counts": counts,
                "faces": [[list(b) for b in f.partition] for f in lattice.faces] if k <= 3 else "suppressed",
            },
        )
        return OK
    word = _parse_word(args.arg)
    if args.action == "label":
        lab = label(word)
        _report(
            "perm-label",
            [],
            "computed",
            [],
            started,
            extra={
                "delta": word.normal_form().describe(),
                "vertices": {str(i): w.describe() for i, w in enumerate(sorted(lab.vertex_labels.values(), key=lambda x: x.letters))},
                "vertex_count": len(lab.vertex_labels),
            },
        )
        return OK
    if args.action == "schema":
        sch = compatible_schema(word)
        _report(
            "perm-schema",
            [],
            "computed",
            [],
            started,
            extra={
                "delta": sch.delta.describe(),
                "slots": sorted(w.describe() for w in sch.slots),
                "unit_constraints": [
                    {"slot": w.describe(), "pinned_to": f"d_{i}", "level": lvl} for (w, i, lvl) in sch.unit_constraints
                ],
                "equations": [eq.describe() for eq in sch.equations],
                "assembly_facets": len(sch.assembly),
                "splitting": sch.splitting_note,
            },
        )
        return OK
    raise StructuralError(f"unknown perm action {args.action!r}")


def cmd_simplex(args, started):
    if args.action != "index":
        raise StructuralError("simplex supports the action 'index'")
    n = int(args.arg)
    idx = simplex_face_index(n)
    seq = compatible_sequence_schema(n) if n >= 2 else None
    extra = {
        "n": n,
        "face_counts": {str(k): len(idx.faces_of_dimension(k)) for k in range(n + 1)},
        "faces": {w.describe(): list(v) for w, v in idx.faces.items()} if n <= 3 else "suppressed",
    }
    if seq:
        extra["gluing_equations"] = [eq.describe() for eq in seq.equations]
    _report("simplex-index", [], "computed", [], started, extra=extra)
    return OK


def cmd_deloop(args, started):
    table = SphereTable.load(args.table) if args.table else SphereTable.load()
    frag = schemas.fragment_from_json(schemas.load(args.file))
    rep = validate(frag, table)
    if not rep.ok:
        _report("deloop", [args.file], "invalid-fragment", rep.problems, started)
        return USAGE
    try:
        result = deloop(frag, table)
    except NotAbelianError as exc:
        _report("deloop", [args.file], "input-error", [str(exc)], started)
        return USAGE
    if isinstance(result, Obstruction):
        _report(
            "deloop",
            [args.file],
            "obstruction",
            [result.describe()],
            started,
            extra={
                "degree": result.degree,
                "generator": result.generator,
                "relation": result.relation,
                "table_row": list(result.table_row),
            },
        )
        return FAIL
    _report(
        "deloop",
        [args.file],
        "delooped",
        [],
        started,
        extra={"fragment": schemas.fragment_to_json(result.fragment)},
    )
    return OK


def _load_hom(path):
    data = schemas.load(path)
    schemas._check_format(data, "freehom")
    base = os.path.dirname(os.path.abspath(path))
    src = schemas.sset_from_json(schemas.load(os.path.join(base, data["src"])))
    dst = schemas.sset_from_json(schemas.load(os.path.join(base, data["dst"])))
    F_src, F_dst = milnor_F(src), milnor_F(dst)
    tables = []
    for level in data["tables"]:
        tables.append({g: tuple((str(x), int(e)) for x, e in word) for g, word in level.items()})
    hom = GroupHomMap(F_src, F_dst, tables)
    if not hom.is_valid():
        raise StructuralError(f"{path}: tables do not define a simplicial homomorphism")
    return hom


def _load_target_map(path, target):
    data = schemas.load(path)
    schemas._check_format(data, "targetmap")
    base = os.path.dirname(os.path.abspath(path))
    src = schemas.sset_from_json(schemas.load(os.path.join(base, data["src"])))
    tables = []
    for n, level in enumerate(data["tables"]):
        tables.append({x: target.from_generators(n, [int(v) for v in vec]) for x, vec in level.items()})
    tm = TargetMap(src=src, target=target, tables=tables)
    if not tm.is_valid():
        raise StructuralError(f"{path}: tables do not define a pointed simplicial map")
    return tm


def cmd_star_check(args, started):
    target_obj = _load_object(args.target)
    if not isinstance(target_obj, SAb):
        raise StructuralError("star-check target must be a simplicial abelian group file")
    K = AbelianTarget(target_obj)
    f = _load_hom(args.f)
    g = _load_hom(args.g)
    h = _load_target_map(args.h, K)
    ok, witness = check_condition_star(f, g, h, K)
    if not ok:
        n, a, lhs, rhs = witness
        witness = (n, a, tuple(K.to_generators(n, lhs)), tuple(K.to_generators(n, rhs)))
    _report(
        "star-check",
        [args.f, args.g, args.h, args.target],
        "holds" if ok else "fails",
        [] if ok else [str(witness)],
        started,
        caps=target_obj.cap,
    )
    return OK if ok else FAIL


def cmd_synthesize(args, started):
    V = _load_object(args.input)
    if isinstance(V, SAb):
        V = underlying_delta(V)
    hdeg = schemas.hdeg_from_json(schemas.load(args.hdeg), V)
    try:
        result = synthesize(V, hdeg, strict_homotopy_tie=args.strict_tie)
    except FibrancyError as exc:
        _report("synthesize", [args.input, args.hdeg], "input-error", [str(exc)], started, caps=V.cap)
        return USAGE
    except SynthesisFailure as exc:
        _report(
            "synthesize",
            [args.input, args.hdeg],
            "obstructed",
            [exc.describe()],
            started,
            extra={"stage": exc.stage, "congruence": exc.congruence},
            caps=V.cap,
        )
        return FAIL
    _report(
        "synthesize",
        [args.input, args.hdeg],
        "synthesized",
        [],
        started,
        extra={"stage_log": result.stage_log, "object": schemas.dsab_to_json(result.object)},
        caps=V.cap,
    )
    return OK


def cmd_e2(args, started):
    B = _load_object(args.file)
    smax = tmax = None
    if args.window:
        smax, tmax = (int(x) for x in args.window.split(","))
    try:
        page = e2_page(B, smax, tmax)
    except CollapseMismatch as exc:
        _report("e2", [args.file], "collapse-mismatch", [str(exc)], started)
        return FAIL
    extra = {
        "window": list(page.window),
        "entries": {f"{s},{t}": list(f) for (s, t), f in page.entries.items()},
        "collapsed": page.collapsed,
    }
    extra["collapse_certified"] = page.collapse_certified
    _report("e2", [args.file], "computed", [], started, extra=extra)
    return OK


def build_parser():
    p = argparse.ArgumentParser(prog="delooper", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    p.add_argument("--table", help="sphere table JSON path")
    p.add_argument("--cap", type=int, help="truncate loaded objects to this cap")
    p.add_argument("--window", help="degree window lo,hi (moore) or smax,tmax (e2)")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("verify", help="check all simplicial identities of an object file")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("moore", help="homotopy groups via the Moore complex")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_moore)

    sp = sub.add_parser("match", help="matching object and comparison map at degree n")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("reedy", help="surjectivity of every comparison map")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_reedy)

    sp = sub.add_parser("extend", help="free degeneracy extension of a face-only object")
    sp.add_argument("file")
    sp.add_argument("--emit", action="store_true", help="include the extended object in the report")
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("perm", help="permutohedron lattices, labelings, schemas")
    sp.add_argument("action", choices=["enum", "label", "schema"])
    sp.add_argument("arg", help="k for enum; 'dim:i,j,...' word otherwise")
    sp.set_defaults(func=cmd_perm)

    sp = sub.add_parser("simplex", help="simplex face indexing and gluing schemas")
    sp.add_argument("action", choices=["index"])
    sp.add_argument("arg", help="the simplex dimension n")
    sp.set_defaults(func=cmd_simplex)

    sp = sub.add_parser("deloop", help="attempt the degree shift of a fragment")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_deloop)

    sp = sub.add_parser("star-check", help="associativity condition for derived composition")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--target", required=True)
    sp.set_defaults(func=cmd_star_check)

    sp = sub.add_parser("synthesize", help="strict degeneracies from up-to-homotopy data")
    sp.add_argument("--input", required=True)
    sp.add_argument("--hdeg", required=True)
    sp.add_argument("--strict-tie", action="store_true", dest="strict_tie")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("e2", help="levelwise-homotopy page of a bisimplicial grid")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_e2)
    return p


def main(argv=None):
    global _ACTIVE_SEED
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    _ACTIVE_SEED = getattr(args, "seed", 0)
    if not getattr(args, "command", None):
        parser.print_help()
        return USAGE
    try:
        return args.func(args, started)
    except (StructuralError, schemas.SchemaError, ResourceError, FileNotFoundError, KeyError, ValueError) as exc:
        print(json.dumps({"command": args.command, "verdict": "input-error", "error": str(exc)}))
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
