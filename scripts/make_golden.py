#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Usage: python scripts/make_golden.py

Writes the worked n = 4 override matrix the cases read, then runs every case
of tests/test_golden_reports.py in-process and writes its stdout, stderr and
exit code, and the body file of a case that writes one.  Deterministic: run it twice and the bytes do not change.  Run it
only when a change means to move report bytes, and review the diff.
"""

import os
import sys

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from paratile import QMatrix
from paratile import serialization as ser
from test_golden_reports import CASES, GOLDEN, WORKED_MATRIX, run_case


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    os.environ.pop("PARATILE_REPORT_DIR", None)

    def write(path, text):
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", os.path.relpath(path))

    doc = ser.matrix_to_json(QMatrix.from_rows([[1, 1, 0, 0],
                                                [0, 0, 1, 1]]))
    ser.validate_document("matrix", doc)
    write(WORKED_MATRIX, ser.dump_json(doc))

    for case in sorted(CASES):
        for suffix, text in run_case(CASES[case]).items():
            write(GOLDEN / f"{case}.{suffix}", text)


if __name__ == "__main__":
    main()
