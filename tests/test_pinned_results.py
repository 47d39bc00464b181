"""Raw matrices of seeded objects, pinned by digest.

Verdicts and invariant factors survive many changes of basis; these
digests do not. They fix the exact integer matrices the lattice layers
return (Moore differentials, matching comparison maps, double-Moore
differentials, synthesized degeneracies and delooped actions), so a
refactor that reorders an SNF input shows up here even when every
verdict still holds.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from delooper.abelian import PresentedGroup
from delooper.delta_core import matching_object, underlying_delta
from delooper.generators import (
    perturb_degeneracies,
    random_fibrant_strict_object,
    random_resolution_grid,
    random_small_strict_object,
)
from delooper.intlin import Mat
from delooper.moore import double_moore_total_complex, moore_complex
from delooper.pi_algebra import PiAlgebraFragment, default_table, deloop, loop_space_s3_fragment
from delooper.synthesis import synthesize


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def small_objects():
    for seed in range(8):
        rng = random.Random(seed)
        yield random_small_strict_object(rng, rng.choice([2, 3]), torsion=bool(seed % 2))


def moore_diffs():
    return [[mc.complex.diffs[n].a for n in sorted(mc.complex.diffs)] for mc in map(moore_complex, small_objects())]


def matching_deltas():
    return [[matching_object(underlying_delta(W), n).delta.mat.a for n in range(1, W.cap + 1)] for W in small_objects()]


def double_moore_diffs():
    out = []
    for seed in range(3):
        B, _, _ = random_resolution_grid(random.Random(seed))
        cpx = double_moore_total_complex(B)
        out.append([cpx.diffs[n].a for n in sorted(cpx.diffs)])
    return out


def synthesized_degeneracies():
    out = []
    for seed in range(4):
        rng = random.Random(200 + seed)
        W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
        result = synthesize(underlying_delta(W), perturb_degeneracies(W, rng))
        out.append([[s.a for s in result.object.degeneracies[n]] for n in sorted(result.object.degeneracies)])
        out.append(result.stage_log)
    return out


def coupled_row_case():
    """A table row on three generators whose suspension constraint couples
    all three, into a target presented by a non-diagonal matrix: its
    solution depends on the column layout of the delooping system."""
    table = default_table()
    table = dataclasses.replace(
        table,
        groups={**table.groups, (4, 7): PresentedGroup.from_factors([4, 3, 3])},
        gens={**table.gens, (4, 7): ["p", "q", "r"]},
        suspensions={**table.suspensions, "a3": [-1, 1, -2]},
    )
    G = PiAlgebraFragment(
        d_lo=3,
        d_hi=6,
        groups={
            3: PresentedGroup.from_factors([0]),
            4: PresentedGroup.from_factors([2]),
            5: PresentedGroup.from_factors([2]),
            6: PresentedGroup(2, Mat.from_rows([[1, 3], [0, 3]])),
        },
        gen_names={3: ["x"], 4: ["y"], 5: ["z"], 6: ["u", "v"]},
        action={("a3", (3, "x")): [2, 3]},
        whitehead={},
    )
    return G, table


def deloop_actions():
    out = []
    for G, table in [(loop_space_s3_fragment(), default_table()), coupled_row_case()]:
        result = deloop(G, table)
        out.append(sorted([theta, list(key), value] for (theta, key), value in result.fragment.action.items()))
    return out


@pytest.mark.parametrize(
    "compute,expected",
    [
        (moore_diffs, "ece67f3fdf63ab9dbd9d4df066dd4a1e6d1f18607f922705d264f94525190059"),
        (matching_deltas, "714ec708bc00d48ae7e51a2fecc8a4d6015e7d625e0c47caffd039a27d836cb9"),
        (double_moore_diffs, "5b3caaa8b6bb16964837a7caab6068cf9896ff24ad453aa862dbee8875874022"),
        (synthesized_degeneracies, "5f1a027e0ad49447943d9d9add7c317afb83e3e6605026bba5354b9259084153"),
        (deloop_actions, "90925f103137dd1d6b8b18e3ce4eb98b27d27385907a595ebc50e4e6d8a2c76a"),
    ],
    ids=lambda x: getattr(x, "__name__", "digest"),
)
def test_raw_matrices_pinned(compute, expected):
    assert digest(compute()) == expected
