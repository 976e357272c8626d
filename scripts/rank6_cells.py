#!/usr/bin/env python3
"""Build and measure two rank-6 Voronoi cells and time each phase.

Each cell is the Voronoi cell of the lattice of T = B^T (B B^T)^-1 for a
6 x n binary matrix B, the projected lattice of a geometric step:

- n = 12: B = [I_6 | the first six weight-3 columns of GF(2)^6 in
  lexicographic order], 4,464 vertices and 118 facets;
- n = 32: B holds all 32 odd-weight columns of GF(2)^6, 5,040 vertices and
  126 facets.

A cell certifies when its counts are those and its volume, an exact radical,
equals the lattice's covolume, as a lattice tile's must.  Exits 0 only when
both cells certify.
"""

import itertools
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from paratile import Lattice, QMatrix, voronoi_cell
from paratile.linalg import identity_rows, inverse


def image_lattice(cols):
    b = QMatrix.from_rows(cols).t()
    return Lattice(b.t() @ inverse(b @ b.t()))


def weight3_n12():
    weight3 = [tuple(int(i in c) for i in range(6))
               for c in itertools.combinations(range(6), 3)][:6]
    return list(identity_rows(6)) + weight3


def odd_weight_n32():
    return [c for c in itertools.product((0, 1), repeat=6) if sum(c) % 2]


CELLS = [("weight-3, n = 12", weight3_n12, 4464, 118),
         ("odd weight, n = 32", odd_weight_n32, 5040, 126)]


def main():
    ok = True
    for name, columns, want_verts, want_facets in CELLS:
        t0 = time.perf_counter()
        lat = image_lattice(columns())
        t1 = time.perf_counter()
        cell = voronoi_cell(lat)
        t2 = time.perf_counter()
        volume = cell.measures().volume
        t3 = time.perf_counter()
        verts, facets = len(cell.vertices()), len(cell.facets())
        exact = volume == lat.covolume()
        certified = exact and (verts, facets) == (want_verts, want_facets)
        ok = ok and certified
        print(f"{name}: {verts} vertices, {facets} facets, "
              f"volume = covolume {exact}: {'PASS' if certified else 'FAIL'}")
        print(f"    lattice {t1 - t0:.3f}s, voronoi_cell {t2 - t1:.3f}s, "
              f"measures {t3 - t2:.3f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
