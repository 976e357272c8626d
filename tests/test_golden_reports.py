"""Golden report bytes: what the CLI prints and returns, pinned.

Each case runs ``paratile.cli.main`` in-process, in a fresh temporary
directory, and compares its stdout, stderr and exit code with
``tests/golden/<case>.stdout``, ``.stderr`` and ``.exit``.  A case that
writes a body file (``--body-out`` with a bare name, which lands in that
directory) also compares the file with ``tests/golden/<case>.body``.
Reports are deterministic for a fixed seed, so any difference is a change
in report bytes: a change that means to move them regenerates the files
with ``python scripts/make_golden.py`` and says so in CHANGES.md.
"""

import contextlib
import io
import os
import pathlib
import tempfile

import pytest

from paratile.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
WORKED_MATRIX = GOLDEN / "worked_matrix.json"   # B = [[1,1,0,0],[0,0,1,1]]


def _fixture(name):
    return str(ROOT / "fixtures" / f"{name}.json")


CASES = {
    "construct_n3": ["construct", "--n", "3"],
    "construct_n24": ["construct", "--n", "24"],
    # the cube's halfspaces, as written to a body file
    "construct_n5_body_json": ["construct", "--n", "5", "--body-out",
                               "body.json"],
    "construct_n5_body_hrep": ["construct", "--n", "5", "--body-out",
                               "body.hrep", "--format", "hrep"],
    "worked_override_s1": ["construct", "--n", "4", "--matrix-override",
                           str(WORKED_MATRIX), "--override-s", "1"],
    "bound_only_1e6": ["construct", "--bound-only", "--n", "1000000"],
    "sample_matrix": ["sample-matrix", "--m", "8", "--n", "32", "--d", "4",
                      "--verify-s", "2"],
    # passes: the matrix JSON itself is pinned
    "sample_matrix_pass_s2": ["sample-matrix", "--m", "16", "--n", "32",
                              "--d", "4", "--verify-s", "2", "--seed", "1"],
    # fails with a three-column witness
    "sample_matrix_triple_s3": ["sample-matrix", "--m", "16", "--n", "32",
                                "--d", "4", "--verify-s", "3", "--seed", "1"],
    "verify_cube3": ["verify", "--fixture", _fixture("cube3"),
                     "--samples", "1000"],
    "verify_scaled_cube3": ["verify", "--fixture", _fixture("scaled_cube3"),
                            "--samples", "1000"],
    "walk_stats": ["walk-stats", "--m", "2,4", "--t-max", "6"],
}


def run_case(argv):
    """{golden suffix: text} of one in-process CLI call: its stdout, stderr
    and exit code, and the body file when it writes one.  The call runs in
    a fresh temporary directory, so a bare --body-out name lands there and
    is printed as that name."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            got = {"stdout": out.getvalue(), "stderr": err.getvalue(),
                   "exit": f"{code}\n"}
            if "--body-out" in argv:
                path = argv[argv.index("--body-out") + 1]
                got["body"] = pathlib.Path(path).read_text()
        finally:
            os.chdir(cwd)
    return got


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_bytes(case, monkeypatch):
    monkeypatch.delenv("PARATILE_REPORT_DIR", raising=False)
    for suffix, text in run_case(CASES[case]).items():
        want = (GOLDEN / f"{case}.{suffix}").read_text()
        assert text == want, f"{case}.{suffix} differs from the golden file"
