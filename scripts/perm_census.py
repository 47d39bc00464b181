"""Census of permutohedron face lattices and face-word factorizations.

Prints, for each k, the face vector of P_k (counted, then checked against
the listed faces, each step timed), and for each injection class
of face words up to the requested size, the factorization count (one
word per deletion order) checked against the vertex count.
"""

import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from delooper.permutohedron import build_permutohedron
from delooper.words import all_face_words


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--dim-max", type=int, default=8)
    ap.add_argument("--len-max", type=int, default=6)
    args = ap.parse_args()

    for k in range(args.kmax + 1):
        t0 = time.perf_counter()
        lattice = build_permutohedron(k)
        counts = list(lattice.face_counts.values())
        chi = lattice.boundary_euler_characteristic()
        t1 = time.perf_counter()
        listed = [len(faces) for _, faces in sorted(lattice.by_dimension().items())]
        assert listed == counts, (k, listed, counts)
        print(
            f"P_{k}: faces by dim {counts}, boundary chi {chi}, "
            f"counted {t1 - t0:.2f}s, listed and matched {time.perf_counter() - t1:.2f}s"
        )

    total_classes = 0
    total_words = 0
    t0 = time.perf_counter()
    for n in range(args.dim_max + 1):
        for length in range(2, min(args.len_max, n + 1) + 1):
            classes = {}
            for w in all_face_words(n, length):
                classes.setdefault(w.deleted_vertices(), w)
            for rep in classes.values():
                size = len(rep.factorizations())
                assert size == math.factorial(length), (n, length, rep)
            total_classes += len(classes)
            total_words += (length and len(list(all_face_words(n, length))))
    print(
        f"factorizations: {total_classes} injection classes "
        f"({total_words} words) all match the vertex counts, {time.perf_counter() - t0:.1f}s"
    )


if __name__ == "__main__":
    main()
