"""Command-line surface: batch verification and JSON report emission.

Exit codes (EXIT_CODES gives each verdict's code): 0 the verdict holds,
1 a property fails or an obstruction was found, 2 a usage or input
error, 3 an internal error (a bug; traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from collections import Counter
from typing import Callable, NamedTuple

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
from .jsontypes import InputError, entry
from .moore import CollapseMismatch, e2_page, homotopy_groups
from .permutohedron import (
    build_permutohedron,
    compatible_schema,
    compatible_sequence_schema,
    label,
    simplex_face_index,
)
from .pi_algebra import Obstruction, SphereTable, deloop, validate
from .simplicial import FiniteSimplicialSet
from .star import AbelianTarget, check_condition_star
from .synthesis import SynthesisFailure, synthesize
from .words import FaceWord

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3

# verdict -> exit code, looked up by main: a verdict missing here is a bug (exit 3)
EXIT_CODES = {**dict.fromkeys(("consistent", "computed", "fibrant", "delooped", "holds", "synthesized"), OK),
              **dict.fromkeys(("violations", "not-fibrant", "obstruction", "obstructed", "collapse-mismatch"), FAIL)}

_LOADERS = {"sset": schemas.sset_from_json, "dsab": schemas.dsab_from_json, "bisab": schemas.bisab_from_json}


def _parse_word(text):
    try:
        dim_part, letters_part = text.split(":")
        letters = tuple(int(x) for x in letters_part.split(",")) if letters_part else ()
        return FaceWord(int(dim_part), letters)
    except (ValueError, IndexError) as exc:
        raise InputError(f"malformed face word {text!r}; expected 'dim:i,j,...'") from exc


def _integer(text):
    """The integer argument of perm enum and simplex index."""
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _degree(text):
    """argparse type of a degree (--cap, each half of --window): an integer at least 0."""
    try:
        degree = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if degree < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {degree}")
    return degree


def _window(text):
    """argparse type of --window: two degrees 'a,b'."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two degrees 'a,b', got {text!r}")
    return tuple(_degree(x) for x in parts)


def _read(args, path):
    """The JSON object in the input file at path. The digest of the bytes it
    was parsed from goes to args.digests, which the report lists in read
    order."""
    data = schemas.load(path)
    args.digests[path] = data.digest
    return data


def _load_object(args, path):
    """Load an object file whose kind is one of args.kinds, truncated to --cap if given."""
    data = _read(args, path)
    kind = data.get("kind")
    if kind not in args.kinds:
        raise InputError(f"cannot load object of kind {kind!r} from {path}")
    obj = _parsed(path, _LOADERS[kind], data)
    return obj if args.cap is None else _truncate(obj, args.cap)


def _parsed(path, loader, data, *args):
    """loader(data, *args), where data was read from the file at path; an
    InputError names the file."""
    try:
        return loader(data, *args)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_delta(args, path):
    """Load an object file as a face-only object, dropping any degeneracies."""
    V = _load_object(args, path)
    return underlying_delta(V) if isinstance(V, SAb) else V


def _truncate(obj, cap):
    if cap >= obj.cap:
        return obj
    faces = {n: obj.faces[n] for n in range(1, cap + 1)}
    if not isinstance(obj, (SAb, FiniteSimplicialSet)):
        return DeltaSAb(obj.levels[: cap + 1], faces, cap)
    degs = {n: obj.degeneracies[n] for n in range(0, cap)}
    if isinstance(obj, SAb):
        return SAb(obj.levels[: cap + 1], faces, degs, cap)
    return FiniteSimplicialSet(cap, obj.elements[: cap + 1], faces, degs)


def _identities(X, caps, extra):
    """The result of checking every simplicial identity of X."""
    rep = verify_identities(X)
    return ("consistent" if rep.ok else "violations"), [v.describe() for v in rep.violations], caps, extra


def cmd_verify(args):
    X = _load_object(args, args.file)
    return _identities(X, X.cap, {})


def cmd_moore(args):
    V = _load_object(args, args.file)
    degrees = None
    if args.window:
        lo, hi = args.window
        if lo > hi:
            raise InputError(f"empty degree window {lo},{hi}: lo exceeds hi")
        degrees = range(lo, hi + 1)
    pis = homotopy_groups(V, degrees)
    return "computed", [], V.cap, {"homotopy": {str(d): list(f) for d, f in pis.factors.items()}}


def cmd_match(args):
    V = _load_delta(args, args.file)
    mo = matching_object(V, args.n)
    return "computed", [], V.cap, {
        "n": args.n,
        "matching_invariants": list(mo.group.invariant_factors()),
        "delta_well_defined": mo.delta.is_well_defined(),
    }


def cmd_reedy(args):
    V = _load_delta(args, args.file)
    rep = is_reedy_fibrant(V)
    witnesses = [{"degree": n, "missed_tuple": w} for n, w in sorted(rep.witnesses.items())]
    return ("fibrant" if rep.fibrant else "not-fibrant"), witnesses, V.cap, {}


def cmd_extend(args):
    V = _load_delta(args, args.file)
    ext = free_degeneracy_extension(V)
    extra = {"object": schemas.dsab_to_json(ext.object)} if args.emit else {}
    return _identities(ext.object, V.cap, extra)


def cmd_perm(args):
    if args.action == "enum":
        k = _integer(args.arg)
        lattice = build_permutohedron(k)
        return "computed", [], None, {
            "k": k,
            "face_counts": {str(d): n for d, n in lattice.face_counts.items()},
            "faces": [[list(b) for b in f.partition] for f in lattice.faces] if k <= 3 else "suppressed",
        }
    word = _parse_word(args.arg)
    if args.action == "label":
        lab = label(word)
        return "computed", [], None, {
            "delta": word.normal_form().describe(),
            "vertices": {str(i): w.describe() for i, w in enumerate(sorted(lab.vertex_labels.values(), key=lambda x: x.letters))},
            "vertex_count": len(lab.vertex_labels),
        }
    sch = compatible_schema(word)
    return "computed", [], None, {
        "delta": sch.delta.describe(),
        "slots": sorted(w.describe() for w in sch.slots),
        "unit_constraints": [
            {"slot": w.describe(), "pinned_to": f"d_{i}", "level": lvl} for (w, i, lvl) in sch.unit_constraints
        ],
        "equations": [eq.describe() for eq in sch.equations],
        "assembly_facets": len(sch.assembly),
        "splitting": sch.splitting_note,
    }


def cmd_simplex(args):
    n = _integer(args.arg)
    seq = compatible_sequence_schema(n) if n >= 2 else None
    idx = seq.index if seq else simplex_face_index(n)
    counts = Counter(len(verts) - 1 for verts in idx.faces.values())
    extra = {
        "n": n,
        "face_counts": {str(k): counts[k] for k in range(n + 1)},
        "faces": {w.describe(): list(v) for w, v in idx.faces.items()} if n <= 3 else "suppressed",
    }
    if seq:
        extra["gluing_equations"] = [eq.describe() for eq in seq.equations]
    return "computed", [], None, extra


def cmd_deloop(args):
    table = SphereTable.load() if args.table is None else SphereTable.from_json(_read(args, args.table))
    frag = _parsed(args.file, schemas.fragment_from_json, _read(args, args.file))
    rep = validate(frag, table)
    if not rep.ok:
        raise InputError(f"{args.file}: {'; '.join(rep.problems)}")
    result = deloop(frag, table)
    if isinstance(result, Obstruction):
        return "obstruction", [result.describe()], None, {
            "degree": result.degree,
            "generator": result.generator,
            "relation": result.relation,
            "table_row": list(result.table_row),
        }
    return "delooped", [], None, {"fragment": schemas.fragment_to_json(result.fragment)}


def _load_source(args, path, data, key, sources):
    """The simplicial set in the file named by data[key], a path relative to
    the file at path. sources holds each file already parsed, by path, so
    that one command reads each source once."""
    name = entry(data, key, "a file name", f"{path}: {key}")
    source = os.path.join(os.path.dirname(os.path.abspath(path)), name)
    if source not in sources:
        sources[source] = _parsed(source, schemas.sset_from_json, _read(args, source))
    return sources[source]


def _load_hom(args, path, sources):
    data = _read(args, path)
    src, dst = _load_source(args, path, data, "src", sources), _load_source(args, path, data, "dst", sources)
    hom = _parsed(path, schemas.freehom_from_json, data, src, dst)
    if not hom.is_valid():
        raise InputError(f"{path}: tables do not define a simplicial homomorphism")
    return hom


def _load_target_map(args, path, target, sources):
    data = _read(args, path)
    tm = _parsed(path, schemas.targetmap_from_json, data, _load_source(args, path, data, "src", sources), target)
    if not tm.is_valid():
        raise InputError(f"{path}: tables do not define a pointed simplicial map")
    return tm


def cmd_star_check(args):
    target_obj = _load_object(args, args.target)
    if not isinstance(target_obj, SAb):
        lacks = "it has no degeneracies" if isinstance(target_obj, DeltaSAb) else "it is not of kind 'dsab'"
        raise InputError(f"{args.target}: star-check target must be a simplicial abelian group file "
                         f"(kind 'dsab' with degeneracies); {lacks}")
    K = AbelianTarget(target_obj)
    sources = {}
    f = _load_hom(args, args.f, sources)
    g = _load_hom(args, args.g, sources)
    h = _load_target_map(args, args.h, K, sources)
    ok, witness = check_condition_star(f, g, h, K)
    if not ok:  # condition (*) is a theorem on a group target
        raise RuntimeError(f"the two star tables differ on a group target: {witness}")
    return "holds", [], target_obj.cap, {}


def cmd_synthesize(args):
    V = _load_delta(args, args.input)
    hdeg = _parsed(args.hdeg, schemas.hdeg_from_json, _read(args, args.hdeg), V)
    try:
        result = synthesize(V, hdeg, strict_homotopy_tie=args.strict_tie)
    except SynthesisFailure as exc:
        return "obstructed", [exc.describe()], V.cap, {"stage": exc.stage, "congruence": exc.congruence}
    return "synthesized", [], V.cap, {"stage_log": result.stage_log, "object": schemas.dsab_to_json(result.object)}


def cmd_e2(args):
    B = _load_object(args, args.file)
    smax, tmax = args.window or (None, None)
    try:
        page = e2_page(B, smax, tmax)
    except CollapseMismatch as exc:
        return "collapse-mismatch", [str(exc)], None, {}
    return "computed", [], None, {
        "window": list(page.window),
        "entries": {f"{s},{t}": list(f) for (s, t), f in page.entries.items()},
        "collapsed": page.collapsed,
        "collapse_certified": page.collapse_certified,
    }


FILE = {"file": {}}
DSAB = ("dsab",)
STAR_FILES = ("f", "g", "h", "target")
GLOBAL_FLAGS = ("cap", "window", "table")  # --seed is read by every subcommand


class Command(NamedTuple):
    handler: Callable  # args -> (verdict, witnesses, caps, extra report keys); prints nothing
    help: str
    kinds: tuple = ()  # object kinds the handler's object file may have
    arguments: dict = FILE  # flag -> add_argument options
    flags: tuple = ()  # the GLOBAL_FLAGS the handler reads; setting any other one is a usage error


# star-check loads a target of any object kind and then requires degeneracies
COMMANDS = {
    "verify": Command(cmd_verify, "check all simplicial identities of an object file", ("sset", "dsab"),
                      flags=("cap",)),
    "moore": Command(cmd_moore, "homotopy groups via the Moore complex", DSAB, flags=("cap", "window")),
    "match": Command(cmd_match, "matching object and comparison map at degree n", DSAB,
                     {**FILE, "-n": {"type": int, "required": True}}, flags=("cap",)),
    "reedy": Command(cmd_reedy, "surjectivity of every comparison map", DSAB, flags=("cap",)),
    "extend": Command(cmd_extend, "free degeneracy extension of a face-only object", DSAB,
                      {**FILE, "--emit": {"action": "store_true",
                                          "help": "include the extended object in the report"}}, flags=("cap",)),
    "perm": Command(cmd_perm, "permutohedron lattices, labelings, schemas", (),
                    {"action": {"choices": ["enum", "label", "schema"]},
                     "arg": {"help": "k for enum; 'dim:i,j,...' word otherwise"}}),
    "simplex": Command(cmd_simplex, "simplex face indexing and gluing schemas", (),
                       {"action": {"choices": ["index"]}, "arg": {"help": "the simplex dimension n"}}),
    "deloop": Command(cmd_deloop, "attempt the degree shift of a fragment", flags=("table",)),
    "star-check": Command(cmd_star_check, "associativity condition for derived composition", tuple(_LOADERS),
                          {f"--{name}": {"required": True} for name in STAR_FILES}),
    "synthesize": Command(cmd_synthesize, "strict degeneracies from up-to-homotopy data", DSAB,
                          {"--input": {"required": True}, "--hdeg": {"required": True},
                           "--strict-tie": {"action": "store_true", "dest": "strict_tie"}}),
    "e2": Command(cmd_e2, "levelwise-homotopy page of a bisimplicial grid", ("bisab",), flags=("window",)),
}


@functools.cache
def build_parser():
    """The parser, built on the first call and shared after it: parsing keeps
    no state in it (each parse returns a fresh Namespace, and every default
    is an immutable tuple or a function)."""
    p = argparse.ArgumentParser(prog="delooper", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    p.add_argument("--table", help="sphere table JSON path")
    p.add_argument("--cap", type=_degree, help="truncate loaded objects to this cap")
    p.add_argument("--window", type=_window, help="degree window lo,hi (moore) or smax,tmax (e2)")
    sub = p.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag, options in command.arguments.items():
            sp.add_argument(flag, **options)
        sp.set_defaults(func=command.handler, kinds=command.kinds)
    return p


def main(argv=None):
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return USAGE
    ignored = [f"--{flag}" for flag in GLOBAL_FLAGS
               if getattr(args, flag) is not None and flag not in COMMANDS[args.command].flags]
    if ignored:
        parser.error(f"{args.command} does not read {', '.join(ignored)}")
    args.digests = {}  # input path -> digest of the bytes its load parsed, in read order
    try:
        verdict, witnesses, caps, extra = args.func(args)
        code = EXIT_CODES[verdict]
        action = getattr(args, "action", None)
        report = {
            "command": f"{args.command}-{action}" if action else args.command,
            "inputs": _input_keys(args.digests),
            "verdict": verdict,
            "witnesses": witnesses,
            "caps": caps,
            "seed": args.seed,
            "timing_s": round(time.perf_counter() - started, 3),
            **extra,
        }
        text = json.dumps(report, indent=1)
    except (InputError, OSError) as exc:
        code, text = USAGE, json.dumps({"command": args.command, "verdict": "input-error", "error": str(exc)})
    except Exception as exc:
        traceback.print_exc()
        code, text = INTERNAL, json.dumps({"command": args.command, "verdict": "internal-error", "error": repr(exc)})
    _emit(text)
    return code


def _input_keys(digests):
    """The report's inputs: each file's digest under its base name; when an
    earlier file of the command took that name, under its path as read (or
    its absolute path, when that path is the taken name)."""
    inputs = {}
    for path, digest in digests.items():
        key = next(k for k in (os.path.basename(path), path, os.path.abspath(path)) if k not in inputs)
        inputs[key] = digest[:16]
    return inputs


def _emit(text):
    """Print a report. If the reader closed stdout early (``... | head``),
    send the rest to os.devnull, as the ``signal`` module documentation
    advises, so that neither this write nor the flush at exit prints a
    traceback; the exit code stays the verdict's."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
