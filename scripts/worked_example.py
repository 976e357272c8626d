#!/usr/bin/env python3
"""Run the four dimensional worked example end to end and narrate it.

Forces the recursion with B = [[1,1,0,0],[0,0,1,1]] at independence level
s = 1, prints the per-level trace, certifies the ratio 6*sqrt(2), and audits
the tiling with dyadic samples.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from paratile import (Lattice, QMatrix, RecursionConfig, SqrtSum,
                      construct, verify_tiling)


def main():
    b = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    t0 = time.perf_counter()
    rep = construct(4, RecursionConfig(matrix_override=((b, 1),)))
    t1 = time.perf_counter()

    for lv in rep.levels:
        print(f"level n={lv.n}: m={lv.m} s={lv.s}")
        for name, ok in lv.checks:
            print(f"    {'ok ' if ok else 'FAIL'} {name}")
    print(f"ratio = {rep.ratio_exact}  (trivial bound 2n = {rep.trivial_bound})")
    expected = SqrtSum.from_rational(6) * SqrtSum.sqrt(2)
    print("matches 6*sqrt(2):", rep.ratio_exact == expected)

    body = rep.body
    print("facets:", len(body.facets()), " vertices:", len(body.vertices()))
    print("volume:", body.measures().volume)

    tr = verify_tiling(body, Lattice.standard(4), samples=100000, seed=0)
    t2 = time.perf_counter()
    print(f"tiling: {'PASS' if tr.passed else 'FAIL'} "
          f"({tr.samples} samples, {tr.translates} candidate translates, "
          f"{tr.overlap_violations} overlaps, {tr.gap_violations} gaps)")
    print(f"construct {t1 - t0:.2f}s, audit {t2 - t1:.2f}s")
    return 0 if (tr.passed and rep.ratio_exact == expected) else 1


if __name__ == "__main__":
    sys.exit(main())
