#!/usr/bin/env python3
"""Arithmetic-only look at the recursion schedule at large n.

Runs the bound chain at n = 10^6 (no geometry), prints it next to the
isoperimetric floor n omega_n^(1/n) that every tile of Z^n obeys, and scans
the schedule inequality that drives the induction over three decades of n.
Everything here is certified interval arithmetic; nothing is sampled.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from paratile import (RecursionConfig, choose_m, construct_bound_only,
                      isoperimetric_ratio_lower, predicted_bound_interval,
                      scan_induction)

KAPPA = 4


def main():
    n = 10 ** 6
    t0 = time.perf_counter()
    rep = construct_bound_only(n, RecursionConfig(kappa=KAPPA))
    pred = predicted_bound_interval(n, KAPPA)
    floor = isoperimetric_ratio_lower(n)
    print(f"n = {n}, kappa = {KAPPA}, m = {choose_m(n, KAPPA)}")
    print(f"certified ratio bound : {float(rep.ratio_upper):.6g}")
    print(f"schedule prediction   : [{float(pred.lo):.6g}, {float(pred.hi):.6g}]")
    print(f"within prediction     : {rep.within_predicted}")
    print(f"isoperimetric floor   : {float(floor.lo):.6g}")

    records = scan_induction(KAPPA, n, 1000)
    bad = [r for r in records if not r["covered"]]
    print(f"induction inequality  : {len(records)} points scanned in "
          f"({4 * KAPPA ** 2}, {n}], {len(bad)} violations")
    t1 = time.perf_counter()
    print(f"total {t1 - t0:.2f}s")
    return 1 if bad or not rep.within_predicted else 0


if __name__ == "__main__":
    sys.exit(main())
