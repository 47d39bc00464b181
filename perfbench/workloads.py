"""The benchmark workloads.

Each workload is a pair of functions: ``build_<name>(rng, workdir)``
generates a list of instances from a seeded ``random.Random`` (set-up),
and ``run_<name>(instance)`` performs one instance, checks its verdict
and returns a tuple of representation-independent results for the output
digest. A failed check raises ``CheckFailed``.

Inputs are generated here, in the benchmark's own code, following the
construction of the acceptance criteria; nothing under ``tests/`` is
imported. Library functions are called through their modules (``star.star``
rather than a name imported into this file) so that the traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os

from delooper import cli, generators, moore, schemas, simplicial
from delooper.abelian import PresentedGroup
from delooper.intlin import Mat


# the package re-exports the function star() under the submodule's name
star = importlib.import_module("delooper.star")


class CheckFailed(AssertionError):
    """An instance returned a verdict or value other than the expected one."""


def _check(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- star_targets
# Built like acceptance criterion 4: finite abelian targets (inverse Dold-Kan
# of cyclic complexes with zero differentials, caps 2-3, every level of order
# <= 64), random pointed maps h into them and pools of free-group
# endomorphisms.

STAR_INSTANCES = 100


def _target_quotas():
    """{(cap, chain-group orders): count} for a pool of STAR_INSTANCES.

    Criterion 4 takes cap 2 or 3 with probability 1/2 and each chain group
    as Z/2, Z/3 or Z/4 with probability 0.15 each (else 0), and rejects an
    all-zero complex or a level of order > 64. Each shape gets its share of
    the pool by that probability (largest-remainder rounding), so every seed
    gets the same targets in criterion 4's proportions.
    """
    weights = {}
    for cap in (2, 3):
        for orders in itertools.product((0, 2, 3, 4), repeat=cap + 1):
            levels = [math.prod(c ** math.comb(n, m) for m, c in enumerate(orders[: n + 1]) if c) for n in range(cap + 1)]
            if any(orders) and max(levels) <= 64:
                weights[(cap, orders)] = math.prod(0.15 if c else 0.55 for c in orders)
    total = sum(weights.values())
    exact = {shape: STAR_INSTANCES * w / total for shape, w in weights.items()}
    quotas = {shape: int(x) for shape, x in exact.items()}
    by_remainder = sorted(exact, key=lambda shape: (quotas[shape] - exact[shape], shape))
    for shape in by_remainder[: STAR_INSTANCES - sum(quotas.values())]:
        quotas[shape] += 1
    return quotas


def _star_endomorphism_pools(caps):
    pools = {}
    for cap in caps:
        for base in (simplicial.sphere(1, cap), simplicial.standard_simplex(1, cap)):
            F = star.milnor_F(base)
            pool = [star.identity_hom(F), star.power_hom(F, 2), star.power_hom(F, -1), star.power_hom(F, 3)]
            pool += [star.induced_hom(F, F, e) for e in simplicial.enumerate_pointed_maps(base, base)]
            pool += [a.compose(b) for a in pool[:3] for b in pool[:2]]
            pools.setdefault(cap, []).append((base, pool))
    return pools


def _abelian_target(cap, orders):
    groups = [PresentedGroup.cyclic(c) if c else PresentedGroup.free(0) for c in orders]
    diffs = {m: Mat(groups[m - 1].ngens, groups[m].ngens) for m in range(1, cap + 1)}
    return star.AbelianTarget(moore.dold_kan(moore.ChainComplex(groups=groups, diffs=diffs), cap))


def _random_target_map(rng, A, K):
    """A random pointed simplicial map A -> K, built level by level, or None
    when some nondegenerate simplex has no compatible image."""
    base = simplicial.BASE
    nondeg = {n: [x for x in A.nondegenerate(n) if x != base] for n in range(A.cap + 1)}
    tables = []
    for n in range(A.cap + 1):
        table = {base: K.identity(n)}
        if n > 0:
            for j in range(n):
                for x in A.elements[n - 1]:
                    table[A.degeneracy(n - 1, j, x)] = K.degeneracy(n - 1, j, tables[n - 1][x])
        level = K.elements(n)
        for x in nondeg[n]:
            options = [
                y
                for y in level
                if n == 0 or all(tables[n - 1][A.face(n, i, x)] == K.face(n, i, y) for i in range(n + 1))
            ]
            if not options:
                return None
            table[x] = rng.choice(options)
        tables.append(table)
    tm = star.TargetMap(src=A, target=K, tables=tables)
    return tm if tm.is_valid() else None


class _Scale:
    """Multiplication by k on a target: strictly multiplicative."""

    def __init__(self, K, k):
        self.K = K
        self.k = k

    def __call__(self, n, x):
        return self.K.canon(n, [self.k * v for v in x])


def build_star_targets(rng, workdir):
    pools = _star_endomorphism_pools((2, 3))
    out = []
    for (cap, orders), count in _target_quotas().items():
        for _ in range(count):
            K = _abelian_target(cap, orders)
            h = None
            while h is None:
                A, pool = rng.choice(pools[cap])
                h = _random_target_map(rng, A, K)
            f, g, e = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            out.append((f, g, e, h, K, _Scale(K, rng.choice((0, 1, 2, 3)))))
    rng.shuffle(out)
    return out


def run_star_targets(inst):
    f, g, e, h, K, scale = inst
    ok, witness = star.check_condition_star(f, g, h, K)
    _check(ok, f"condition (*) failed: {witness}")
    _check(star.check_functoriality(e, f, h, scale, K, K), "functoriality failed")
    factors = tuple(K.sab.levels[n].invariant_factors() for n in range(K.cap + 1))
    return ("star", factors, ok, True)


# ------------------------------------------------------------------ cli_corpus
# Every documented README command over corpus/, three larger combinatorial
# commands, and verify/moore on seeded files written in set-up. Each command
# runs in-process through delooper.cli.main with stdout captured and is
# checked against its documented exit code and verdict. reedy and synthesize
# are not run on seeded files: on about 1 random fibrant object in 500 the
# matching object's Smith normal form does not finish (spec.json, "dropped").

CLI_SEEDED_CAPS = (2, 3) * 4

CORPUS_COMMANDS = [
    (["verify", "corpus/zs1.dsab.json"], 0, "consistent"),
    (["moore", "corpus/zs1.dsab.json"], 0, "computed"),
    (["--window", "0,1", "moore", "corpus/zs1.dsab.json"], 0, "computed"),
    (["match", "corpus/zs1.dsab.json", "-n", "1"], 0, "computed"),
    (["reedy", "corpus/fibrant.dsab.json"], 0, "fibrant"),
    (["extend", "corpus/zs1.dsab.json"], 0, "consistent"),
    (["perm", "enum", "2"], 0, "computed"),
    (["perm", "label", "3:0,0,0"], 0, "computed"),
    (["perm", "schema", "3:0,0,0"], 0, "computed"),
    (["simplex", "index", "2"], 0, "computed"),
    (["deloop", "corpus/eta_chain.pialg.json"], 1, "obstruction"),
    (["deloop", "corpus/loop_s3.pialg.json"], 0, "delooped"),
    (
        [
            "star-check",
            "--f", "corpus/star_f.freehom.json",
            "--g", "corpus/star_g.freehom.json",
            "--h", "corpus/star_h.targetmap.json",
            "--target", "corpus/star_target.dsab.json",
        ],
        0,
        "holds",
    ),
    (["synthesize", "--input", "corpus/fibrant.dsab.json", "--hdeg", "corpus/fibrant.hdeg.json"], 0, "synthesized"),
    (["e2", "corpus/resolution.bisab.json"], 0, "computed"),
    (["perm", "enum", "6"], 0, "computed"),
    (["perm", "schema", "5:0,0,0,0,0"], 0, "computed"),
    (["simplex", "index", "6"], 0, "computed"),
]

# keys of a CLI report that do not depend on element representation, file
# bytes or timing
_REPORT_KEYS = ("command", "verdict", "caps", "homotopy", "face_counts", "degree", "table_row", "entries",
                "collapsed", "matching_invariants", "vertex_count", "assembly_facets", "n", "k")


def build_cli_corpus(rng, workdir):
    out = list(CORPUS_COMMANDS)
    for i, cap in enumerate(CLI_SEEDED_CAPS):
        W = generators.random_fibrant_strict_object(rng, cap, rank_limit=6)
        obj = os.path.join(workdir, f"seeded{i}.dsab.json")
        schemas.save(obj, schemas.dsab_to_json(W))
        out += [(["verify", obj], 0, "consistent"), (["moore", obj], 0, "computed")]
    return out


def run_cli_corpus(inst):
    argv, want_code, want_verdict = inst
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    _check(code == want_code, f"{' '.join(argv)}: exit {code}, expected {want_code}")
    report = json.loads(buf.getvalue())
    _check(report.get("verdict") == want_verdict, f"{' '.join(argv)}: verdict {report.get('verdict')!r}")
    return ("cli", code, tuple((k, json.dumps(report[k], sort_keys=True)) for k in _REPORT_KEYS if k in report))


WORKLOADS = {
    "star_targets": (build_star_targets, run_star_targets),
    "cli_corpus": (build_cli_corpus, run_cli_corpus),
}
