#!/usr/bin/env python3
"""Record the expected values the benchmark checks against.

Runs the program once on the unpermuted inputs and writes expected.json:
the exact ratio of each override step of geometric-step, the candidate
translate count of each tiling-audit fixture, and the shape of the
scan_induction grid.  Run it from the repository root only when a change
is meant to move these values, and say so in CHANGES.md:

    python3 perfbench/record_expected.py
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from paratile import cli, scan_induction  # noqa: E402

import workloads as wl  # noqa: E402


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in (0, 1):
        raise SystemExit(f"{argv}: exit {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


def main():
    tmp = os.path.join(wl.ROOT, ".perfbench", "record")
    os.makedirs(tmp, exist_ok=True)
    steps = {}
    bases = [("worked_n4", [list(r) for r in wl.GeometricStep.WORKED], ["1"])]
    bases += [(key, wl.identity_plus(m, extra), [])
              for key, m, extra in wl.GeometricStep.STEPS]
    for key, rows, s in bases:
        path = wl.write_matrix(os.path.join(tmp, f"{key}.json"), rows)
        doc = run(["construct", "--n", str(len(rows[0])),
                   "--matrix-override", path]
                  + (["--override-s"] + s if s else []))
        steps[key] = wl.terms_of(doc["final"]["ratio_exact"])
    translates = {}
    for name in wl.TilingAudit.FIXTURE_NAMES:
        doc = run(["verify", "--fixture",
                   os.path.join(wl.FIXTURES, f"{name}.json"),
                   "--samples", "1000"])
        translates[name] = doc["translates"]
    records = scan_induction(4, 10 ** 6, 1000)
    scan = {"distinct": len({r["n"] for r in records}),
            "induction": sum(1 for r in records if r["induction_covers"])}
    doc = {"geometric-step": steps,
           "tiling-audit": {"translates": translates},
           "schedule-sampler": {"scan": scan}}
    with open(wl.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED}")


if __name__ == "__main__":
    main()
