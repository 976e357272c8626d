import json
import pathlib
import time

import pytest

from paratile import cli
from paratile.cli import main
from paratile.linalg import IntMatrix
from paratile.polytopes import HPolytope
from paratile.lattices import Lattice
from paratile.serialization import (dump_json, lattice_to_json, matrix_to_json,
                                    parse_frac, polytope_to_json,
                                    validate_document)

from oracles import parse_hrep

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

WORKED_B = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])


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
])
def test_mistyped_config_value_is_refused(tmp_path, capsys, cfg, argv,
                                          message):
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["--config", path] + argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: --config {path}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--kappa", "0", "--bound-only"], "need n >= 1, kappa >= 1"),
    (["--kappa", "0"], "need n >= 1, kappa >= 1"),
    (["--epsilon", "0"], "epsilon must be in (0, 2]"),
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


def test_bound_only_body_out_says_no_body_and_exits_2(tmp_path, capsys):
    body_path, report = tmp_path / "b.json", tmp_path / "r.json"
    assert main(["construct", "--n", "100", "--bound-only",
                 "--body-out", str(body_path), "--out", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"no body written to {body_path}: bound-only mode builds no body\n")
    assert not body_path.exists()
    validate_document("construction_report", json.loads(report.read_text()))


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


def test_override_s_beyond_the_matrix_level_fails(tmp_path, capsys):
    # columns 0 and 1 of the worked matrix are equal: a 2-set dependency
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    assert main(["construct", "--n", "4", "--matrix-override", mat,
                 "--override-s", "3"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == ("certification failed: columns admit a dependency "
                       "of size <= 3: (0, 1)\n")


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
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_construct_refuses_a_budget_that_cannot_work(tmp_path, capsys,
                                                     monkeypatch, key, value,
                                                     message, source):
    def no_work(*args):
        raise AssertionError("construct ran")

    monkeypatch.setattr(cli, "construct", no_work)
    mat = write_json(tmp_path / "b.json", matrix_to_json(WORKED_B))
    argv = ["construct", "--n", "4", "--matrix-override", mat]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    else:
        argv = ["--config", write_json(tmp_path / "cfg.json", {key: value})] \
            + argv
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"invalid parameters: {message}\n"


def test_kernel4_step_fits_a_small_node_budget(tmp_path, capsys):
    # the rank-5 kernel cell enumerates to its own radius, not to the
    # seed box's, so 2000 enumeration nodes are enough
    extra = ((1, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 0),
             (1, 1, 1, 0))
    rows = [[int(i == j) for j in range(4)] + [col[i] for col in extra]
            for i in range(4)]
    mat = write_json(tmp_path / "kernel4.json",
                     matrix_to_json(IntMatrix.from_rows(rows)))
    assert main(["construct", "--n", "9", "--matrix-override", mat,
                 "--svp-node-cap", "2000"]) == 0
    cap = capsys.readouterr()
    assert "ratio = 28/5 + 4*sqrt(3) + 104/25*sqrt(5) " in cap.err
    validate_document("construction_report", json.loads(cap.out))


def test_override_must_be_integer(tmp_path, capsys):
    doc = {"rows": 1, "cols": 2, "entries": [["1/2", "1"]]}
    mat = write_json(tmp_path / "half.json", doc)
    assert main(["construct", "--n", "2", "--matrix-override", mat]) == 2
    assert "integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["--verify-s", "0"], "verify_s must be at least 1"),
    (["--verify-s", "-1"], "verify_s must be at least 1"),
    (["--max-tries", "0"], "max_tries must be at least 1"),
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
    assert f"wrote stats to {stats}" in capsys.readouterr().out
    validate_document("sampler_stats", json.loads(stats.read_text()))


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
