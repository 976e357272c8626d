import json
import pathlib
import time
from fractions import Fraction

import pytest

from paratile import cli
from paratile.cli import main
from paratile.intervals import PrecisionExhausted
from paratile.linalg import QMatrix
from paratile.polytopes import HPolytope
from paratile.lattices import Lattice
from paratile.serialization import (dump_json, lattice_to_json, matrix_to_json,
                                    parse_frac, polytope_to_json,
                                    validate_document)

from oracles import mp_isoperimetric_ratio, parse_hrep

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

WORKED_B = QMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])


def write_json(path, doc):
    path.write_text(dump_json(doc))
    return str(path)


# --- construct --------------------------------------------------------------


def test_construct_writes_report_to_stdout(capsys):
    assert main(["construct", "--n", "3"]) == 0
    cap = capsys.readouterr()
    doc = json.loads(cap.out)
    validate_document("construction_report", doc)
    assert doc["final"]["ratio_hi"] == "6"
    assert "ratio = 6" in cap.err


def test_construct_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["construct", "--n", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_document("construction_report", doc)
    assert f"wrote {out}" in capsys.readouterr().out


def test_report_dir_env_applies_to_bare_names(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PARATILE_REPORT_DIR", str(tmp_path))
    assert main(["construct", "--n", "2", "--out", "bare.json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "bare.json").exists()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"kappa": 5, "seed": 7})
    assert main(["--config", cfg, "construct", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == 5
    assert doc["seeds"]["construction"] == 7


def test_unusable_config_file_is_refused(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    not_object = write_json(tmp_path / "list.json", [1, 2])
    for path in (str(tmp_path / "missing.json"), str(bad_json), not_object):
        assert main(["--config", path, "construct", "--n", "3"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(f"error: --config {path}: ")
        assert "Traceback" not in cap.err


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"kappa": 5})
    assert main(["--config", cfg, "construct", "--n", "3",
                 "--kappa", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 4


@pytest.mark.parametrize("cfg, argv, message", [
    ({"kappa": "x"}, ["construct", "--n", "3"],
     'kappa: expected int, got "x"'),
    ({"max_depth": "2"}, ["construct", "--n", "3", "--bound-only"],
     'max_depth: expected int, got "2"'),
    ({"samples": "10"},
     ["verify", "--fixture", str(FIXTURE_DIR / "cube3.json")],
     'samples: expected int, got "10"'),
    ({"verify_s": "3"}, ["sample-matrix", "--m", "16", "--n", "32", "--d", "4"],
     'verify_s: expected int, got "3"'),
    ({"row_bound": 2.5},
     ["sample-matrix", "--m", "16", "--n", "32", "--d", "4"],
     'row_bound: expected int, got 2.5'),
])
def test_mistyped_config_value_is_refused(tmp_path, capsys, cfg, argv,
                                          message):
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["--config", path] + argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: --config {path}: {message}\n"


@pytest.mark.parametrize("cfg, name", [
    ({"kapa": 9, "sampels": 5}, "kapa"),
    ({"bound_only": True}, "bound_only"),
])
def test_config_key_that_no_command_reads_is_refused(tmp_path, capsys,
                                                     monkeypatch, cfg, name):
    def no_work(*args):
        raise AssertionError("construct ran")

    monkeypatch.setattr(cli, "construct", no_work)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["--config", path, "construct", "--n", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: --config {path}: unknown option {name!r}\n"


def test_config_keeps_keys_that_another_command_reads(tmp_path, capsys):
    # one file serves every command: verify's samples ride along construct
    cfg = write_json(tmp_path / "cfg.json", {"kappa": 5, "samples": 10})
    assert main(["--config", cfg, "construct", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 5


@pytest.mark.parametrize("argv, message", [
    (["--kappa", "0", "--bound-only"], "need n >= 1, kappa >= 1"),
    (["--kappa", "0"], "need n >= 1, kappa >= 1"),
    (["--epsilon", "0"], "epsilon must be in (0, 2]"),
    # the recursion never reaches the schedule at depth cap 0, so only the
    # config can refuse these
    (["--bound-only", "--epsilon", "5", "--max-depth", "0"],
     "epsilon must be in (0, 2]"),
    (["--bound-only", "--epsilon", "-1", "--max-depth", "0"],
     "epsilon must be in (0, 2]"),
    (["--epsilon", "-1"], "epsilon must be in (0, 2]"),
    (["--max-depth", "-2"], "max_depth must be at least 0"),
    (["--bound-only", "--dim-cap", "-1"], "dim_cap must be at least 0"),
])
def test_construct_names_a_bad_schedule_parameter(capsys, argv, message):
    assert main(["construct", "--n", "5"] + argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"invalid parameters: {message}\n"


def test_construct_has_no_max_tries_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "5", "--max-tries", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-tries 3" in capsys.readouterr().err


def test_construct_with_matrix_override(tmp_path, capsys):
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    assert main(["construct", "--n", "4", "--matrix-override", mat,
                 "--override-s", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"]["ratio_exact"]["terms"] == [
        {"coeff": "6", "radicand": "2"}]
    assert doc["levels"][0]["mode"] == "step"


def test_construct_body_out_hrep(tmp_path, capsys):
    body_path = tmp_path / "body.hrep"
    assert main(["construct", "--n", "3", "--body-out", str(body_path),
                 "--format", "hrep", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    back = parse_hrep(body_path.read_text())
    assert back.ratio() == HPolytope.cube(3).ratio()


def test_construct_body_out_makes_its_directory(tmp_path, capsys):
    body_path = tmp_path / "new" / "b.json"
    assert main(["construct", "--n", "3", "--body-out", str(body_path)]) == 0
    assert f"wrote body to {body_path}" in capsys.readouterr().err
    validate_document("polytope", json.loads(body_path.read_text()))


@pytest.mark.parametrize("n, kappa", [(16777216, 4), (256, 1)])
def test_bound_only_at_an_exact_power_decides_m(n, kappa, capsys):
    # n e^-g(n) is an integer at these sizes; the schedule still picks m
    assert main(["construct", "--n", str(n), "--kappa", str(kappa),
                 "--bound-only"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(lv["mode"], lv["n"]) for lv in doc["levels"]] == [("cube", n)]


def test_bound_only_body_out_says_no_body_and_exits_2(tmp_path, capsys):
    body_path, report = tmp_path / "b.json", tmp_path / "r.json"
    assert main(["construct", "--n", "100", "--bound-only",
                 "--body-out", str(body_path), "--out", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"no body written to {body_path}: bound-only mode builds no body\n")
    assert not body_path.exists()
    validate_document("construction_report", json.loads(report.read_text()))


@pytest.mark.parametrize("fmt", ["json", "hrep"])
def test_body_out_above_the_table_cap_writes_nothing_and_exits_2(
        tmp_path, capsys, fmt):
    # the cube at n = 10^4 states its 2n^2 = 2 * 10^8 table entries by rule
    # and builds none of them
    body_path, report = tmp_path / f"b.{fmt}", tmp_path / "r.json"
    t0 = time.perf_counter()
    assert main(["construct", "--n", "10000", "--body-out", str(body_path),
                 "--format", fmt, "--out", str(report)]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == (
        f"no body written to {body_path}: its halfspace table has "
        f"200000000 entries, above the cap of {cli.BODY_TABLE_CAP}\n")
    assert not body_path.exists()
    doc = json.loads(report.read_text())
    assert doc["final"]["ratio_hi"] == "20000"


def test_downgraded_body_out_says_no_body_and_exits_2(tmp_path, capsys):
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    body_path = tmp_path / "body.json"
    assert main(["construct", "--n", "4", "--matrix-override", mat,
                 "--override-s", "1", "--dim-cap", "1",
                 "--body-out", str(body_path)]) == 2
    cap = capsys.readouterr()
    validate_document("construction_report", json.loads(cap.out))
    assert "geometry skipped: kernel rank 2 exceeds dim cap 1" in cap.err
    assert cap.err.endswith(
        f"no body written to {body_path}: kernel rank 2 exceeds dim cap 1\n")
    assert not body_path.exists()


def test_construct_n250_within_budget(tmp_path, capsys):
    # the isoperimetric bound is one 96-bit interval formula, not an
    # n-th root of a multi-million-bit integer
    t0 = time.perf_counter()
    assert main(["construct", "--n", "250",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert time.perf_counter() - t0 < 2.0
    capsys.readouterr()
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["final"]["ratio_hi"] == "500"
    assert 64 < parse_frac(doc["final"]["isoperimetric_lb"]) < 65


def test_construct_n1e6_pays_constant_time_for_its_report(capsys):
    # the cube body and the isoperimetric bound are both O(1) in n; a
    # recurrence for the bound would take 5 10^5 interval steps here
    n = 10 ** 6
    assert main(["construct", "--n", str(n)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"]["ratio_hi"] == str(2 * n)
    ref = mp_isoperimetric_ratio(n)
    lb = parse_frac(doc["final"]["isoperimetric_lb"])
    assert ref * (1 - Fraction(1, 2 ** 80)) <= lb <= ref


def test_override_s_beyond_the_matrix_level_fails(tmp_path, capsys):
    # columns 0 and 1 of the worked matrix are equal: a 2-set dependency
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    assert main(["construct", "--n", "4", "--matrix-override", mat,
                 "--override-s", "3"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("certification failed: columns admit a dependency "
                       "of size <= 3: (0, 1)\n")


def test_override_of_the_wrong_width_is_refused(tmp_path, capsys):
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    assert main(["construct", "--n", "5", "--matrix-override", mat]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "invalid parameters: shape mismatch 4 vs 5\n"


def test_a_failing_override_s_fails_ahead_of_the_dim_cap(tmp_path, capsys):
    # s is certified before the kernel rank 2 meets the cap of 1, so the
    # run fails instead of downgrading
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    assert main(["construct", "--n", "4", "--matrix-override", mat,
                 "--override-s", "2", "--dim-cap", "1"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("certification failed: columns admit a dependency "
                       "of size <= 2: (0, 1)\n")


def test_a_voronoi_base_above_the_dim_cap_downgrades(tmp_path, capsys):
    # B Z^3 has index 2, so its base case is a rank-3 Voronoi cell
    square = QMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    mat = write_json(tmp_path / "b.json", matrix_to_json(square))
    assert main(["construct", "--n", "3", "--matrix-override", mat,
                 "--dim-cap", "2"]) == 0
    cap = capsys.readouterr()
    doc = json.loads(cap.out)
    assert doc["downgrade_reason"] == "rank 3 Voronoi cell exceeds dim cap 2"
    assert "geometry skipped: rank 3 Voronoi cell exceeds dim cap 2" \
        in cap.err


def test_override_s_needs_an_override_matrix(capsys):
    assert main(["construct", "--n", "4", "--override-s", "2"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: --override-s needs --matrix-override\n"


@pytest.mark.parametrize("key, value, message", [
    ("svp_node_cap", -5, "svp_node_cap must be at least 1"),
    ("svp_node_cap", 0, "svp_node_cap must be at least 1"),
    ("override_s", 0, "override s must be at least 1"),
    ("override_s", -2, "override s must be at least 1"),
    ("epsilon", "5", "epsilon must be in (0, 2]"),
    ("epsilon", "-1", "epsilon must be in (0, 2]"),
    ("max_depth", -2, "max_depth must be at least 0"),
    ("dim_cap", -1, "dim_cap must be at least 0"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_construct_refuses_a_budget_that_cannot_work(tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     message, source):
    def no_work(*args):
        raise AssertionError("construct ran")

    monkeypatch.setattr(cli, "construct", no_work)
    monkeypatch.setattr(cli, "construct_bound_only", no_work)
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    for mode in ([], ["--bound-only"]):
        argv = ["construct", "--n", "4", "--matrix-override", mat, *mode]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg = write_json(tmp_path / "cfg.json", {key: value})
            argv = ["--config", cfg] + argv
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == f"invalid parameters: {message}\n"


def _kernel4_matrix(tmp_path):
    """I_4 plus five columns: the n = 9 step with a rank-5 kernel."""
    extra = ((1, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 0),
             (1, 1, 1, 0))
    rows = [[int(i == j) for j in range(4)] + [col[i] for col in extra]
            for i in range(4)]
    return write_json(tmp_path / "kernel4.json",
                      matrix_to_json(QMatrix.from_rows(rows)))


def test_kernel4_step_fits_a_small_node_budget(tmp_path, capsys):
    # the rank-5 kernel cell enumerates only to the largest class minimum
    # of L/2L, not to the seed box's radius, so 2000 nodes are enough
    assert main(["construct", "--n", "9", "--matrix-override",
                 _kernel4_matrix(tmp_path), "--svp-node-cap", "2000"]) == 0
    cap = capsys.readouterr()
    assert "ratio = 28/5 + 4*sqrt(3) + 104/25*sqrt(5) " in cap.err
    validate_document("construction_report", json.loads(cap.out))


def test_capped_kernel_cell_refuses(tmp_path, capsys):
    # five nodes cannot reach the class minima of the rank-5 kernel, so the
    # step cannot decide its cell: exit 2 and no report
    assert main(["construct", "--n", "9", "--matrix-override",
                 _kernel4_matrix(tmp_path), "--svp-node-cap", "5"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("cannot decide at these budgets: more than 5 ")


def test_override_must_be_integer(tmp_path, capsys):
    doc = {"rows": 1, "cols": 2, "entries": [["1/2", "1"]]}
    mat = write_json(tmp_path / "half.json", doc)
    assert main(["construct", "--n", "2", "--matrix-override", mat]) == 2
    assert "integer" in capsys.readouterr().err


def _entry_grids_read(monkeypatch):
    """Every grid that a QMatrix.entries read returns from here on."""
    grids = []
    entries = QMatrix.entries.fget

    def recording(self):
        grids.append(entries(self))
        return grids[-1]

    monkeypatch.setattr(QMatrix, "entries", property(recording))
    return grids


def _assert_no_fraction_grid(grids):
    # a read builds Fractions on a matrix with den > 1, and on an integer
    # one unless it hands back the numerators as they are
    assert grids
    assert not any(isinstance(x, Fraction)
                   for grid in grids for row in grid for x in row)


def test_an_integer_matrix_is_its_own_entry_grid():
    rows = ((1, -2, 0), (3, 4, 5))
    assert QMatrix(rows).entries is rows
    assert QMatrix.from_rows(rows).entries == rows


def test_sampled_matrix_builds_no_fraction_grid(monkeypatch, capsys):
    # the 128 x 1024 matrix is checked and written from its numerators; a
    # Fraction grid would cost one Fraction per entry, 131,072 of them
    grids = _entry_grids_read(monkeypatch)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert main(["sample-matrix", "--m", "128", "--n", "1024", "--d", "4",
                 "--verify-s", "3"]) == 0
    assert len(made) < 1000
    monkeypatch.undo()
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["matrix"]["entries"]) == 128
    assert any(len(grid) == 128 and len(grid[0]) == 1024 for grid in grids)
    _assert_no_fraction_grid(grids)


def test_geometric_override_builds_no_fraction_grid_of_an_integer_matrix(
        tmp_path, monkeypatch, capsys):
    # I_6 plus two columns: kernel cell, image step and integer Gram
    # products, all on numerators
    extra = ((1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 1, 1))
    rows = [[int(i == j) for j in range(6)] + [c[i] for c in extra]
            for i in range(6)]
    mat = write_json(tmp_path / "image6b.json",
                     matrix_to_json(QMatrix.from_rows(rows)))
    grids = _entry_grids_read(monkeypatch)
    assert main(["construct", "--n", "8", "--matrix-override", mat]) == 0
    monkeypatch.undo()
    validate_document("construction_report",
                      json.loads(capsys.readouterr().out))
    _assert_no_fraction_grid(grids)


def test_the_parser_is_built_once_and_keeps_no_call_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    # per-call state lives on each call's Namespace: the --config one call
    # reads is not seen by the next
    cfg = write_json(tmp_path / "cfg.json", {"kappa": 5})
    assert main(["--config", cfg, "construct", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 5
    assert main(["construct", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == 4


def test_override_entries_must_be_0_or_1(tmp_path, capsys):
    # an odd entry such as 3 is refused like 2, not read as a 1
    doc = {"rows": 2, "cols": 3, "entries": [["1", "0", "3"],
                                              ["0", "1", "1"]]}
    mat = write_json(tmp_path / "three.json", doc)
    assert main(["construct", "--n", "3", "--matrix-override", mat]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "invalid parameters: entries must be 0/1\n"


def test_override_rejected_by_schema_names_the_cell(tmp_path, capsys):
    doc = matrix_to_json(WORKED_B)
    doc["entries"][0][1] = "x"
    mat = write_json(tmp_path / "bad.json", doc)
    assert main(["construct", "--n", "4", "--matrix-override", mat]) == 2
    err = capsys.readouterr().err
    assert "bad input: matrix document invalid" in err
    assert "entries[0][1]" in err


def test_missing_override_file(capsys):
    assert main(["construct", "--n", "2",
                 "--matrix-override", "/nonexistent/b.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_construct_rejects_bad_dimension(capsys):
    assert main(["construct", "--n", "0"]) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_construct_maps_a_budget_failure_while_reporting_to_exit_2(
        monkeypatch, capsys):
    # the report's enclosures are computed after the construction itself;
    # main maps their failure like any other
    def exhausted(*args, **kwargs):
        raise PrecisionExhausted("report enclosure")

    monkeypatch.setattr(cli.serialization, "construction_report_to_json",
                        exhausted)
    assert main(["construct", "--n", "3"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "cannot decide at these budgets: report enclosure\n"


# --- verify -----------------------------------------------------------------


def test_verify_cube_fixture_passes(capsys):
    fx = str(FIXTURE_DIR / "cube3.json")
    assert main(["verify", "--fixture", fx, "--samples", "1500"]) == 0
    cap = capsys.readouterr()
    assert "tiling: PASS" in cap.err
    assert "ratio check: PASS" in cap.err
    doc = json.loads(cap.out)
    validate_document("tiling_report", doc)


def test_verify_worked_fixture_checks_additivity(capsys):
    fx = str(FIXTURE_DIR / "worked_n4.json")
    assert main(["verify", "--fixture", fx, "--samples", "1500"]) == 0
    cap = capsys.readouterr()
    assert "additivity" in cap.err


def test_verify_scaled_cube_fails(capsys):
    fx = str(FIXTURE_DIR / "scaled_cube3.json")
    assert main(["verify", "--fixture", fx, "--samples", "1500"]) == 1
    assert "tiling: FAIL" in capsys.readouterr().err


def test_verify_rejects_fixture_with_extra_key(tmp_path, capsys):
    doc = json.loads((FIXTURE_DIR / "cube3.json").read_text())
    doc["surplus"] = True
    fx = write_json(tmp_path / "extra.json", doc)
    assert main(["verify", "--fixture", fx, "--samples", "100"]) == 2
    err = capsys.readouterr().err
    assert "bad input: fixture document invalid" in err
    assert "'surplus'" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_sample_counts_below_one(samples, capsys):
    fx = str(FIXTURE_DIR / "cube3.json")
    assert main(["verify", "--fixture", fx, "--samples", samples]) == 2
    assert capsys.readouterr().err == \
        "invalid parameters: samples must be at least 1\n"


@pytest.mark.parametrize("bits", ["0", "-3"])
def test_verify_rejects_bits_below_one(bits, capsys):
    fx = str(FIXTURE_DIR / "cube3.json")
    assert main(["verify", "--fixture", fx, "--samples", "100",
                 "--bits", bits]) == 2
    assert capsys.readouterr().err == \
        "invalid parameters: bits must be at least 1\n"


def test_verify_requires_inputs(capsys):
    assert main(["verify"]) == 2
    assert "need --fixture" in capsys.readouterr().err


def test_verify_separate_body_and_lattice(tmp_path, capsys):
    body = write_json(tmp_path / "body.json",
                      polytope_to_json(HPolytope.cube(2)))
    lat = write_json(tmp_path / "lat.json",
                     lattice_to_json(Lattice.standard(2)))
    assert main(["verify", "--body", body, "--lattice", lat,
                 "--samples", "800"]) == 0
    capsys.readouterr()


CUBE3 = [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1),
         ((0, 0, 1), 1), ((0, 0, -1), 1)]


@pytest.mark.parametrize("halfspaces, message", [
    (CUBE3[1:], "vertex pinned to the bounding wall"),
    ([((1, 0, 0), -2)] + CUBE3[1:], "opposite halfspaces cross"),
    ([((1, 0, 0), -1)] + CUBE3[1:], "zero width in its own chart"),
], ids=["unbounded", "empty", "flat"])
def test_verify_reports_a_body_that_is_not_a_polytope(tmp_path, capsys,
                                                      halfspaces, message):
    body = write_json(tmp_path / "body.json", polytope_to_json(
        HPolytope.from_halfspaces(3, halfspaces)))
    lat = write_json(tmp_path / "lat.json",
                     lattice_to_json(Lattice.standard(3)))
    assert main(["verify", "--body", body, "--lattice", lat,
                 "--samples", "100"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"bad input: {message}\n"


SQUARE = [{"a": a, "b": "1/2"}
          for a in (["-1", "0"], ["0", "-1"], ["0", "1"], ["1", "0"])]


def test_verify_refuses_a_basis_column_longer_than_the_dimension(tmp_path,
                                                                 capsys):
    # read up to ambient_dim only, these columns would pass as the 2 x 2
    # identity chart
    body = write_json(tmp_path / "body.json", {
        "ambient_dim": 2, "subspace_basis": [["1", "0", "5"], ["0", "1", "7"]],
        "halfspaces": SQUARE})
    lat = write_json(tmp_path / "lat.json",
                     lattice_to_json(Lattice.standard(2)))
    assert main(["verify", "--body", body, "--lattice", lat,
                 "--samples", "100"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == \
        "bad input: basis column length does not match dimension\n"


def test_verify_refuses_a_fixture_basis_column_shorter_than_the_dimension(
        tmp_path, capsys):
    doc = json.loads((FIXTURE_DIR / "cube3.json").read_text())
    doc["body"]["subspace_basis"] = [["1", "0"], ["0", "1"], ["0", "0"]]
    fx = write_json(tmp_path / "short.json", doc)
    assert main(["verify", "--fixture", fx, "--samples", "100"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == \
        "bad input: body: basis column length does not match dimension\n"


SQUARE_BODY = {"ambient_dim": 2, "subspace_basis": None, "halfspaces": SQUARE}
Z2 = {"ambient_dim": 2, "basis_cols": [["1", "0"], ["0", "1"]],
      "integer": True}


@pytest.mark.parametrize("body_doc, lattice_doc, message", [
    (dict(SQUARE_BODY, ambient_dim=3), dict(Z2, ambient_dim=3, basis_cols=[
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
     "normal length must match chart dimension"),
    (dict(SQUARE_BODY, subspace_basis=[["1", "2"], ["2", "4"]]), Z2,
     "frame columns are dependent"),
    (SQUARE_BODY, dict(Z2, basis_cols=[["1", "2"], ["2", "4"]]),
     "basis columns are dependent"),
], ids=["short-normals", "dependent-frame", "dependent-lattice"])
def test_verify_reports_a_malformed_document_as_bad_input(
        tmp_path, capsys, body_doc, lattice_doc, message):
    body = write_json(tmp_path / "body.json", body_doc)
    lat = write_json(tmp_path / "lat.json", lattice_doc)
    assert main(["verify", "--body", body, "--lattice", lat,
                 "--samples", "100"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"bad input: {message}\n"


@pytest.mark.parametrize("edit, where", [
    (lambda doc: doc["body"].pop("halfspaces"), "body: "),
    (lambda doc: doc["lattice"]["basis_cols"][0].__setitem__(0, 5),
     "lattice: "),
    (lambda doc: doc["expected_ratio"]["terms"][0].__setitem__("coeff", 5),
     "fixture document invalid: 5 is not of type 'string' at "
     "expected_ratio.terms[0].coeff\n"),
    (lambda doc: doc.__setitem__("ratio_parts", [{}]),
     "fixture document invalid: "),
    (lambda doc: doc["lattice"].pop("basis_cols"), "lattice: "),
    (lambda doc: doc["expected_ratio"]["terms"][0].__setitem__("radicand",
                                                               "-2"),
     "fixture document invalid: '-2' does not match "
     "'^[0-9]+(/[1-9][0-9]*)?$' at expected_ratio.terms[0].radicand\n"),
], ids=["no-halfspaces", "number-in-basis", "number-coeff", "empty-part",
        "no-basis-cols", "negative-radicand"])
def test_verify_reports_a_malformed_nested_document_as_bad_input(
        tmp_path, capsys, edit, where):
    # each reader validates its own document, so a fault inside the body,
    # the lattice or a radical sum exits 2, never 1 with a traceback, and
    # the message names the nested document the fault is in; a fault inside
    # the expected ratio's anyOf is named at its leaf
    doc = json.loads((FIXTURE_DIR / "cube3.json").read_text())
    edit(doc)
    fx = write_json(tmp_path / "fixture.json", doc)
    assert main(["verify", "--fixture", fx, "--samples", "100"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("bad input: " + where)
    assert "Traceback" not in cap.err


@pytest.mark.parametrize("argv", [
    ["verify", "--fixture"],
    ["construct", "--n", "3", "--matrix-override"],
], ids=["fixture", "matrix-override"])
def test_malformed_json_text_is_bad_input(tmp_path, capsys, argv):
    path = tmp_path / "cut.json"
    path.write_text('{"rows": 1,')
    assert main(argv + [str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("bad input: Expecting property name")


def test_malformed_json_text_names_its_file(tmp_path, capsys):
    body = write_json(tmp_path / "body.json", SQUARE_BODY)
    lat = tmp_path / "lat.json"
    lat.write_text(dump_json(Z2)[:20])
    assert main(["verify", "--body", body, "--lattice", str(lat)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad input: ")
    assert err.endswith(f" in {lat}\n")
    assert body not in err


# --- sample-matrix ------------------------------------------------------------


def test_sample_matrix_combined_stdout(capsys):
    assert main(["sample-matrix", "--m", "8", "--n", "32", "--d", "4"]) == 0
    cap = capsys.readouterr()
    doc = json.loads(cap.out)
    validate_document("matrix", doc["matrix"])
    validate_document("sampler_stats", doc["stats"])
    assert "admissible s" in cap.err


def test_sample_matrix_rejects_small_d(capsys):
    assert main(["sample-matrix", "--m", "8", "--n", "32", "--d", "2"]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_sample_matrix_refuses_a_dependency_table_beyond_its_budget(capsys):
    # s = 5 and s = 6 over 1024 columns would both probe every subset of
    # at most 3 columns, C(1024, 3) + C(1024, 2) + 1025 of them; the search
    # refuses before it builds anything
    for s in (5, 6):
        t0 = time.perf_counter()
        assert main(["sample-matrix", "--m", "128", "--n", "1024", "--d", "4",
                     "--verify-s", str(s)]) == 2
        assert time.perf_counter() - t0 < 5.0
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == ("cannot decide at these budgets: a search for "
                           f"dependencies of size <= {s} among 1024 columns "
                           "would visit 178957825 subsets, more than "
                           "10000000\n")


@pytest.mark.parametrize("argv, message", [
    (["--verify-s", "0"], "verify_s must be at least 1"),
    (["--verify-s", "-1"], "verify_s must be at least 1"),
    (["--max-tries", "0"], "max_tries must be at least 1"),
    (["--row-bound", "-1"],
     "row_bound -1 is below 0, the least heaviest row of any sample"),
    (["--d", "3", "--row-bound", "1"],
     "row_bound 1 is below 2, the least heaviest row of any sample"),
    (["--m", "3", "--n", "8"], "need 3 <= d <= m <= n"),
])
def test_sample_matrix_refuses_a_budget_that_cannot_work(argv, message,
                                                         monkeypatch, capsys):
    def no_sampling(params):
        raise AssertionError("sampled despite an unusable budget")
    monkeypatch.setattr(cli, "sample_ldpc", no_sampling)
    assert main(["sample-matrix", "--m", "16", "--n", "32", "--d", "4",
                 *argv]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"invalid parameters: {message}\n"


@pytest.mark.parametrize("cfg, argv, message", [
    ({"verify_s": 0}, [], "verify_s must be at least 1"),
    ({"verify_s": -1}, [], "verify_s must be at least 1"),
    ({"row_bound": 1}, ["--d", "3"],
     "row_bound 1 is below 2, the least heaviest row of any sample"),
])
def test_sample_matrix_refuses_a_config_budget_that_cannot_work(
        tmp_path, monkeypatch, capsys, cfg, argv, message):
    def no_sampling(params):
        raise AssertionError("sampled despite an unusable budget")
    monkeypatch.setattr(cli, "sample_ldpc", no_sampling)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["--config", path, "sample-matrix", "--m", "16", "--n", "32",
                 "--d", "4", *argv]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"invalid parameters: {message}\n"


def test_sample_matrix_reads_verify_s_and_row_bound_from_config(tmp_path,
                                                                capsys):
    argv = ["sample-matrix", "--m", "16", "--n", "32", "--d", "4",
            "--seed", "1"]
    cfg = write_json(tmp_path / "cfg.json", {"verify_s": 3})
    assert main(["--config", cfg] + argv) == 1
    assert "s-independence FAILED at s=3: dependent columns (12, 22, 25)" \
        in capsys.readouterr().err
    # the flag wins over the file
    assert main(["--config", cfg] + argv + ["--verify-s", "1"]) == 0
    assert "every 1 columns independent" in capsys.readouterr().err
    cfg = write_json(tmp_path / "cfg.json", {"row_bound": 1, "max_tries": 2})
    assert main(["--config", cfg] + argv) == 1
    assert capsys.readouterr().err == \
        "sampler failed: row bound 1 missed in 2 attempts\n"


def test_sample_matrix_verify_s_failure(capsys):
    # this seed yields a zero column, so single-column independence fails
    assert main(["sample-matrix", "--m", "32", "--n", "256", "--d", "4",
                 "--seed", "0", "--verify-s", "1"]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_sample_matrix_verify_s_success(tmp_path, capsys):
    out = tmp_path / "m.json"
    stats = tmp_path / "s.json"
    assert main(["sample-matrix", "--m", "8", "--n", "16", "--d", "3",
                 "--seed", "1", "--verify-s", "1",
                 "--out", str(out), "--stats-out", str(stats)]) == 0
    capsys.readouterr()
    sdoc = json.loads(stats.read_text())
    assert sdoc["verified_s"] == 1


def test_sample_matrix_out_makes_its_directory(tmp_path, capsys):
    out = tmp_path / "new" / "m.json"
    assert main(["sample-matrix", "--m", "8", "--n", "16", "--d", "3",
                 "--out", str(out)]) == 0
    assert f"wrote matrix to {out}" in capsys.readouterr().out
    validate_document("matrix", json.loads(out.read_text()))


def test_sample_matrix_stats_out_makes_its_directory(tmp_path, capsys):
    stats = tmp_path / "new" / "s.json"
    assert main(["sample-matrix", "--m", "8", "--n", "16", "--d", "3",
                 "--stats-out", str(stats)]) == 0
    # stdout carries the matrix, so the summary goes to stderr
    assert f"wrote stats to {stats}" in capsys.readouterr().err
    validate_document("sampler_stats", json.loads(stats.read_text()))


def test_sample_matrix_without_out_prints_the_matrix(tmp_path, capsys):
    argv = ["sample-matrix", "--m", "8", "--n", "16", "--d", "4"]
    out = tmp_path / "m.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv + ["--stats-out", str(tmp_path / "s.json")]) == 0
    cap = capsys.readouterr()
    assert cap.out == out.read_text()
    assert "admissible s" in cap.err


# --- walk-stats -----------------------------------------------------------------


def test_walk_stats_document(tmp_path, capsys):
    out = tmp_path / "walk.json"
    assert main(["walk-stats", "--m", "2,4", "--t-max", "6",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    validate_document("walk_stats", doc)
    assert len(doc["rows"]) == 2 * 7


def test_walk_stats_empirical_column(capsys):
    assert main(["walk-stats", "--m", "2", "--t-max", "4",
                 "--samples", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all("empirical" in r for r in doc["rows"])


def test_walk_stats_exits_1_on_a_bound_violation(monkeypatch, capsys):
    # with a zero bound every nonzero return probability (t = 0 and t = 2
    # at m = 2) is a violation
    monkeypatch.setattr(cli, "return_prob_bound", lambda m, t: 0)
    assert main(["walk-stats", "--m", "2", "--t-max", "2"]) == 1
    assert "2 bound violations" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--t-max", "4", "--samples", "-3"], "samples must be at least 0"),
    (["--t-max", "-1"], "t_max must be at least 0"),
])
def test_walk_stats_refuses_negative_counts(argv, message, capsys):
    assert main(["walk-stats", "--m", "2", *argv]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"invalid parameters: {message}\n"


def test_walk_stats_refuses_negative_samples_from_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"samples": -3})
    assert main(["--config", cfg, "walk-stats", "--m", "2",
                 "--t-max", "4"]) == 2
    assert capsys.readouterr().err == \
        "invalid parameters: samples must be at least 0\n"


# --- parser ----------------------------------------------------------------------


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
