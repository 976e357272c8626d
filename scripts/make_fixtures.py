#!/usr/bin/env python3
"""Regenerate the committed fixture corpus under fixtures/.

Usage: python scripts/make_fixtures.py [OUT_DIR]   (default: fixtures/)

Deterministic: run it twice and the bytes do not change.  The fixtures are
small enough to review by eye, which is the point of committing them.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from paratile import (HPolytope, Lattice, QMatrix, RecursionConfig,
                      SqrtSum, construct)
from paratile import serialization as ser

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def main(out=FIXTURES):
    os.makedirs(out, exist_ok=True)

    def write(name, text):
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", os.path.relpath(path))

    cube = HPolytope.cube(3)
    doc = ser.fixture_to_json(
        "cube3", cube, Lattice.standard(3),
        expected_ratio=SqrtSum.from_rational(6),
        description="unit cube, the base case body; ratio 2n = 6")
    ser.validate_document("fixture", doc)
    write("cube3.json", ser.dump_json(doc))

    b = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])
    rep = construct(4, RecursionConfig(matrix_override=((b, 1),)))
    r2 = SqrtSum.sqrt(2)
    doc = ser.fixture_to_json(
        "worked_n4", rep.body, Lattice.standard(4),
        expected_ratio=SqrtSum.from_rational(6) * r2,
        ratio_parts=[SqrtSum.from_rational(2) * r2,
                     SqrtSum.from_rational(4) * r2],
        description="four dimensional body from one forced recursion step; "
                    "the two orthogonal factors contribute 2*sqrt(2) and "
                    "4*sqrt(2)")
    ser.validate_document("fixture", doc)
    write("worked_n4.json", ser.dump_json(doc))

    doc = ser.fixture_to_json(
        "scaled_cube3", HPolytope.cube(3, Fraction(101, 200)),
        Lattice.standard(3),
        expect_tiling=False,
        description="cube scaled by 101/100: translates overlap, volume "
                    "exceeds the covolume")
    ser.validate_document("fixture", doc)
    write("scaled_cube3.json", ser.dump_json(doc))

    dup = QMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
    mdoc = ser.matrix_to_json(dup)
    ser.validate_document("matrix", mdoc)
    write("dup_column_matrix.json", ser.dump_json(mdoc))


if __name__ == "__main__":
    main(*sys.argv[1:2])
