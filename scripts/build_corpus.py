"""Regenerate the corpus/ example files the CLI contract is tested against."""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from delooper import schemas
from delooper.delta_core import free_abelian, underlying_delta
from delooper.generators import perturb_degeneracies, random_fibrant_strict_object, random_resolution_grid
from delooper.moore import external_product
from delooper.pi_algebra import eta_chain_fragment, loop_space_s3_fragment
from delooper.simplicial import sphere, standard_simplex
from delooper.synthesis import HomotopyDegeneracyData


def main():
    out = os.path.join(os.path.dirname(__file__), "..", "corpus")
    os.makedirs(out, exist_ok=True)

    def put(name, data):
        schemas.save(os.path.join(out, name), data)
        print("wrote", name)

    S1 = sphere(1, 3)
    D1 = standard_simplex(1, 3)
    put("s1.sset.json", schemas.sset_to_json(S1))
    put("delta1.sset.json", schemas.sset_to_json(D1))
    put("zs1.dsab.json", schemas.dsab_to_json(free_abelian(S1)))

    put("eta_chain.pialg.json", schemas.fragment_to_json(eta_chain_fragment()))
    put("loop_s3.pialg.json", schemas.fragment_to_json(loop_space_s3_fragment()))

    rng = random.Random(20260810)
    W = random_fibrant_strict_object(rng, 3)
    put("fibrant.dsab.json", schemas.dsab_to_json(underlying_delta(W)))
    put("fibrant_full.dsab.json", schemas.dsab_to_json(W))
    hdeg = HomotopyDegeneracyData.from_simplicial(W)
    put("fibrant.hdeg.json", schemas.hdeg_to_json(hdeg))
    # perturbed candidates on a cap-3 object (the draw of the round-trip
    # tests' seed 202): synthesize takes tier exact at stage 0, tie at
    # stage 1 and lift at the top stage 2
    rng = random.Random(202)
    W = random_fibrant_strict_object(rng, rng.choice([2, 3]))
    V = underlying_delta(W)
    put("perturbed.dsab.json", schemas.dsab_to_json(V))
    put("perturbed.hdeg.json", schemas.hdeg_to_json(perturb_degeneracies(W, rng)))

    B, _, _ = random_resolution_grid(random.Random(20260811))
    put("resolution.bisab.json", schemas.bisab_to_json(B))
    # Z[S^1] (x) Z[S^1] at cap 2: nonzero levels, Z at E^2 (1,1), not collapsed
    ZS1 = free_abelian(sphere(1, 2))
    put("s1xs1.bisab.json", schemas.bisab_to_json(external_product(ZS1, ZS1)))

    # star-check bundle: f = squaring on F(S^1), g = identity hom, h a map
    # into the constant-free abelian target is too rigid; use the loop target
    from delooper.abelian import PresentedGroup
    from delooper.intlin import Mat
    from delooper.moore import ChainComplex, dold_kan
    from delooper.star import AbelianTarget, TargetMap, milnor_F, power_hom

    C = ChainComplex(
        groups=[PresentedGroup.free(0), PresentedGroup.cyclic(4), PresentedGroup.free(0), PresentedGroup.free(0)],
        diffs={1: Mat(0, 1, []), 2: Mat(1, 0, [[]]), 3: Mat(0, 0, [])},
    )
    K_ab = dold_kan(C, 3)
    put("star_target.dsab.json", schemas.dsab_to_json(K_ab))
    K = AbelianTarget(K_ab)
    FS1 = milnor_F(S1)
    f2 = power_hom(FS1, 2)

    def hom_json(hom, src_name, dst_name):
        return {
            "format": 1,
            "kind": "freehom",
            "src": src_name,
            "dst": dst_name,
            "tables": [
                {g: [[x, e] for (x, e) in hom.tables[n][g]] for g in hom.src.generators(n)}
                for n in range(hom.src.cap + 1)
            ],
        }

    put("star_f.freehom.json", hom_json(f2, "s1.sset.json", "s1.sset.json"))
    from delooper.star import identity_hom

    put("star_g.freehom.json", hom_json(identity_hom(FS1), "s1.sset.json", "s1.sset.json"))
    # h: the map sending the loop cell to a nonzero degree-1 cycle, extended
    # over the degeneracies
    cell = [x for x in S1.elements[1] if x != "*"][0]
    target_elt = next(
        v
        for v in K.elements(1)
        if v != K.identity(1) and K.face(1, 0, v) == K.identity(0) and K.face(1, 1, v) == K.identity(0)
    )
    levels = [{"*": K.identity(0)}, {"*": K.identity(1), cell: target_elt}]
    for n in (1, 2):
        nxt = {"*": K.identity(n + 1)}
        for j in range(n + 1):
            for x, v in levels[n].items():
                nxt[S1.degeneracy(n, j, x)] = K.degeneracy(n, j, v)
        levels.append(nxt)
    put(
        "star_h.targetmap.json",
        {
            "format": 1,
            "kind": "targetmap",
            "src": "s1.sset.json",
            "tables": [{x: K.to_generators(n, v) for x, v in lvl.items()} for n, lvl in enumerate(levels)],
        },
    )
    print("corpus complete")


if __name__ == "__main__":
    main()
