"""Command line entry point.

Subcommands: construct, sample-matrix, verify, walk-stats.  Every command is
deterministic given --seed, prints the seed it used, and emits JSON that
validates against the schemas shipped with the package.  Exit codes follow CI
convention: 0 all checks pass, 1 a check fails, 2 the question could not be
decided at the configured budgets (or bad usage).

A JSON config file (--config) supplies option values; explicit flags win.
Options neither supplies are left to the defaults of the library call they
configure, and a key in the file that no command reads is refused.  When an output filename has no directory part,
PARATILE_REPORT_DIR (if set) names the directory it goes to.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional

from . import __version__, serialization
from .construction import (ConstructionError, RecursionConfig, construct,
                           construct_bound_only, isoperimetric_ratio_lower)
from .intervals import PrecisionExhausted
from .lattices import EnumerationCap
from .polytopes import DegenerateBody, EmptyBody, Unbounded
from .sampler import (LdpcParams, SamplerFailure, SearchCap, admissible_s,
                      default_c, expected_collisions, return_prob_bound,
                      return_prob_exact, sample_ldpc, verify_s_independence,
                      walk_endpoint)
from .serialization import parse_frac
from .verify import verify_tiling

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2

# the largest halfspace table (halfspaces x chart dimension) that
# --body-out writes: the cube's 2n^2 entries at n = 1000, a 59 MB JSON
# file whose writing peaks near 250 MiB under CPython 3.11
BODY_TABLE_CAP = 2 * 10 ** 6


def _write(out: str, text: str) -> str:
    """Write text to out, under PARATILE_REPORT_DIR when out is a bare name,
    making the directory first; returns the path written."""
    base = "" if os.path.dirname(out) else \
        os.environ.get("PARATILE_REPORT_DIR", "")
    path = os.path.join(base, out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _emit(doc: Dict, kind: str, out: Optional[str],
          human: List[str]) -> None:
    """Validate, then write to the file (summary to stdout) or to stdout
    (summary to stderr, keeping machine output clean)."""
    serialization.validate_document(kind, doc)
    text = serialization.dump_json(doc)
    if out:
        path = _write(out, text)
        for line in human:
            print(line)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
        for line in human:
            print(line, file=sys.stderr)


class ConfigError(Exception):
    """A --config value does not have the type its flag declares."""


# the options each command reads from a flag or the --config file
_CONFIG_KEYS = {
    "construct": ("override_s", "kappa", "epsilon", "seed", "max_depth",
                  "dim_cap", "svp_node_cap"),
    "sample-matrix": ("seed", "max_tries", "row_bound", "verify_s"),
    "verify": ("samples", "bits", "seed"),
    "walk-stats": ("samples", "seed"),
}


def _supplied(args) -> Dict:
    """The values of the command's keys that a flag or the --config file
    gives; flags win.  A value from the file must have the type its flag
    declares."""
    out = {}
    for key in _CONFIG_KEYS[args.command]:
        v = getattr(args, key, None)
        if v is None:
            v = args._config_doc.get(key)
            want = args._flag_types[key]
            if v is not None and type(v) is not want:
                raise ConfigError(f"{key}: expected {want.__name__}, "
                                  f"got {json.dumps(v)}")
        if v is not None:
            out[key] = v
    return out


def _load_json(path: str) -> Dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise serialization.SerializationError(
                f"{exc} in {path}") from exc


# --- construct ----------------------------------------------------------------

def cmd_construct(args) -> int:
    n = args.n
    override = None
    opts = _supplied(args)
    override_s = opts.pop("override_s", None)
    if override_s is not None and not args.matrix_override:
        print("error: --override-s needs --matrix-override", file=sys.stderr)
        return EXIT_UNDECIDED
    if args.matrix_override:
        override = ((serialization.matrix_from_json(
            _load_json(args.matrix_override)), override_s),)
    if "epsilon" in opts:
        opts["epsilon"] = parse_frac(opts["epsilon"])
    config = RecursionConfig(matrix_override=override, **opts)
    t0 = time.perf_counter()
    if args.bound_only:
        report = construct_bound_only(n, config)
    else:
        report = construct(n, config)
    timing = time.perf_counter() - t0 if args.timing else None

    iso = None if report.body is None else isoperimetric_ratio_lower(n).lo
    doc = serialization.construction_report_to_json(
        report, __version__, timing=timing, isoperimetric_lb=iso)

    human = [f"n={n} seed={config.seed} kappa={config.kappa}"
             + (" bound-only" if report.bound_only else "")]
    if report.downgrade_reason:
        human.append(f"geometry skipped: {report.downgrade_reason}")
    if report.ratio_exact is not None:
        human.append(f"ratio = {report.ratio_exact} "
                     f"(<= {float(report.ratio_upper):.9g})")
    else:
        human.append(f"ratio <= {float(report.ratio_upper):.9g}")
    human.append(f"trivial bound 2n = {report.trivial_bound}; predicted "
                 f"schedule bound <= {float(report.predicted[1]):.6g}")

    refusal = _body_refusal(report) if args.body_out else None
    if args.body_out and refusal is None:
        if args.format == "hrep":
            text = serialization.format_hrep(report.body)
        else:
            bdoc = serialization.polytope_to_json(report.body)
            serialization.validate_document("polytope", bdoc)
            text = serialization.dump_json(bdoc)
        human.append(f"wrote body to {_write(args.body_out, text)}")
    _emit(doc, "construction_report", args.out, human)
    if refusal is not None:
        print(f"no body written to {args.body_out}: {refusal}",
              file=sys.stderr)
        return EXIT_UNDECIDED
    return EXIT_PASS


def _body_refusal(report) -> Optional[str]:
    """Why --body-out writes nothing, or None when it writes the body.  The
    table's size is read by rule, before any row of it is built."""
    body = report.body
    if body is None:
        return report.downgrade_reason or "bound-only mode builds no body"
    entries = body.halfspace_count() * body.dim
    if entries > BODY_TABLE_CAP:
        return (f"its halfspace table has {entries} entries, above the cap "
                f"of {BODY_TABLE_CAP}")
    return None


# --- sample-matrix --------------------------------------------------------------

def cmd_sample_matrix(args) -> int:
    m, n, d = args.m, args.n, args.d
    opts = _supplied(args)
    verify_s = opts.pop("verify_s", None)
    if verify_s is not None and verify_s < 1:
        raise ValueError("verify_s must be at least 1")
    params = LdpcParams(m=m, n=n, d=d, **opts)
    seed = params.seed
    mat, stats = sample_ldpc(params)
    c = default_c()
    s = admissible_s(m, n, d, c)
    e_d = expected_collisions(m, n, d, s) if s >= 1 else None

    verified = None
    human = [f"sampled {m}x{n}, column weight {d}, seed={seed}, "
             f"tries={stats['tries']}"]
    if verify_s is not None:
        # certifies the sampled column masks, which masks_to_matrix wrote
        # into mat, rather than reading them back off the matrix
        ok, witness = verify_s_independence(stats["masks"], verify_s)
        if not ok:
            print(f"s-independence FAILED at s={verify_s}: dependent "
                  f"columns {witness}", file=sys.stderr)
            return EXIT_FAIL
        verified = verify_s
        human.append(f"verified: every {verified} columns independent "
                     f"over GF(2)")
    human.append(f"admissible s = {s} (c ~ {float(c):.6g})")

    mdoc = serialization.matrix_to_json(mat)
    sdoc = serialization.sampler_stats_to_json(
        m, n, d, seed, stats, s, c, e_d, verified_s=verified)
    serialization.validate_document("matrix", mdoc)
    serialization.validate_document("sampler_stats", sdoc)
    if args.out:
        path = _write(args.out, serialization.dump_json(mdoc))
        human.append(f"wrote matrix to {path}")
    if args.stats_out:
        path = _write(args.stats_out, serialization.dump_json(sdoc))
        human.append(f"wrote stats to {path}")
    if not args.out:
        # the matrix goes to stdout, with the stats unless they have a file
        sys.stdout.write(serialization.dump_json(
            mdoc if args.stats_out else {"matrix": mdoc, "stats": sdoc}))
    for line in human:
        print(line, file=sys.stdout if args.out else sys.stderr)
    return EXIT_PASS


# --- verify ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    fixture = None
    if args.fixture:
        fixture = serialization.fixture_from_json(_load_json(args.fixture))
        body, lat = fixture["body"], fixture["lattice"]
    else:
        if not (args.body and args.lattice):
            print("error: need --fixture, or --body and --lattice",
                  file=sys.stderr)
            return EXIT_UNDECIDED
        body = serialization.polytope_from_json(_load_json(args.body))
        lat = serialization.lattice_from_json(_load_json(args.lattice))

    rep = verify_tiling(body, lat, **_supplied(args))

    human = [f"tiling: {'PASS' if rep.passed else 'FAIL'} "
             f"({rep.samples} samples, {rep.translates} translates, "
             f"{rep.overlap_violations} overlaps, {rep.gap_violations} gaps, "
             f"seed={rep.seed})"]
    ratio_ok = None
    if fixture and fixture["expected_ratio"] is not None:
        ratio = body.ratio()
        ratio_ok = ratio == fixture["expected_ratio"]
        human.append(f"ratio check: {'PASS' if ratio_ok else 'FAIL'} "
                     f"(ratio = {ratio})")
        if fixture["ratio_parts"]:
            total = fixture["ratio_parts"][0]
            for part in fixture["ratio_parts"][1:]:
                total = total + part
            add_ok = total == ratio
            ratio_ok = ratio_ok and add_ok
            parts = " + ".join(str(p) for p in fixture["ratio_parts"])
            human.append(f"additivity: {parts} = {ratio}"
                         + ("" if add_ok else "  MISMATCH"))

    doc = serialization.tiling_report_to_json(rep)
    _emit(doc, "tiling_report", args.out, human)
    return EXIT_PASS if rep.passed and ratio_ok in (None, True) else EXIT_FAIL


# --- walk-stats --------------------------------------------------------------------

def cmd_walk_stats(args) -> int:
    ms = [int(x) for x in args.m.split(",")]
    opts = _supplied(args)
    samples, seed = opts.get("samples", 0), opts.get("seed", 0)
    for key, value in (("samples", samples), ("t_max", args.t_max)):
        if value < 0:
            raise ValueError(f"{key} must be at least 0")
    rows = []
    violations = 0
    for m in ms:
        for t in range(args.t_max + 1):
            exact = return_prob_exact(m, t)
            bound = return_prob_bound(m, t)
            emp = None
            if samples:
                rng = random.Random(f"walkstats:{seed}:{m}:{t}")
                hits = sum(walk_endpoint(m, t, rng) == 0
                           for _ in range(samples))
                emp = hits / samples
            if exact > bound or (t % 2 == 1 and exact != 0):
                violations += 1
            row = {"m": m, "t": t,
                   "exact": serialization.frac_str(exact),
                   "exact_dec": serialization.dec_str(exact),
                   "bound": serialization.frac_str(bound)}
            if emp is not None:
                row["empirical"] = emp
            rows.append(row)
    doc = {"seed": seed if samples else None,
           "samples": samples or None, "rows": rows}
    human = [f"{'m':>4} {'t':>4} {'exact':>14} {'bound':>14}"
             + ("  empirical" if samples else "")]
    for r in rows:
        line = (f"{r['m']:>4} {r['t']:>4} {r['exact_dec']:>14.14s} "
                f"{float(parse_frac(r['bound'])):>14.6g}")
        if "empirical" in r:
            line += f"  {r['empirical']:.6f}"
        human.append(line)
    if violations:
        human.append(f"{violations} bound violations")
    _emit(doc, "walk_stats", args.out, human)
    return EXIT_FAIL if violations else EXIT_PASS


# --- parser -----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; each parse fills a fresh
    Namespace."""
    p = argparse.ArgumentParser(
        prog="paratile",
        description="Integer parallelotopes with small surface-to-volume "
                    "ratio: construction, sampling, verification.")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", help="JSON file of default option values; "
                                    "explicit flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct",
                       help="build a tiling body for Z^n with certificates")
    c.add_argument("--n", type=int, required=True, help="ambient dimension")
    c.add_argument("--seed", type=int,
                   help="seed recorded in the report (default 0); construct "
                        "draws nothing at random")
    c.add_argument("--kappa", type=int, help="schedule exponent kappa "
                                             "(default 4)")
    c.add_argument("--epsilon", help="sparsity slack, rational (default 1)")
    c.add_argument("--max-depth", type=int, dest="max_depth",
                   help="recursion depth cap (default 8)")
    c.add_argument("--dim-cap", type=int, dest="dim_cap",
                   help="largest rank whose cell is enumerated (default 6)")
    c.add_argument("--svp-node-cap", type=int, dest="svp_node_cap",
                   help="enumeration node budget (default 10^7)")
    c.add_argument("--matrix-override", dest="matrix_override",
                   help="matrix JSON for a step at the top level; without "
                        "it construct takes no step")
    c.add_argument("--override-s", type=int, dest="override_s",
                   help="independence level for the override matrix "
                        "(default: certify automatically)")
    c.add_argument("--bound-only", action="store_true", dest="bound_only",
                   help="arithmetic bound chain only, no geometry")
    c.add_argument("--timing", action="store_true",
                   help="include wall time in the report (breaks "
                        "byte-for-byte determinism)")
    c.add_argument("--out", help="report path (default: stdout)")
    c.add_argument("--body-out", dest="body_out",
                   help="also write the final body to this path")
    c.add_argument("--format", choices=["json", "hrep"], default="json",
                   help="body output format (default json)")

    s = sub.add_parser("sample-matrix",
                       help="draw a sparse 0/1 matrix by the walk sampler")
    s.add_argument("--m", type=int, required=True, help="rows")
    s.add_argument("--n", type=int, required=True, help="columns")
    s.add_argument("--d", type=int, required=True,
                   help="column weight, at least 3")
    s.add_argument("--seed", type=int, help="RNG seed (default 0)")
    s.add_argument("--max-tries", type=int, dest="max_tries",
                   help="resampling budget (default 64)")
    s.add_argument("--row-bound", type=int, dest="row_bound",
                   help="row weight acceptance bound "
                        "(default ceil(4dn/m))")
    s.add_argument("--verify-s", type=int, dest="verify_s",
                   help="exhaustively certify s-subset independence")
    s.add_argument("--out", help="matrix path (default: stdout, together "
                                 "with the stats unless --stats-out is set)")
    s.add_argument("--stats-out", dest="stats_out",
                   help="stats path (default: with the matrix on stdout; "
                        "not written when only --out is set)")

    v = sub.add_parser("verify", help="audit a body/lattice tiling claim")
    v.add_argument("--fixture", help="fixture JSON (body + lattice bundle)")
    v.add_argument("--body", help="polytope JSON")
    v.add_argument("--lattice", help="lattice JSON")
    v.add_argument("--samples", type=int,
                   help="dyadic sample count (default 100000)")
    v.add_argument("--bits", type=int,
                   help="dyadic denominator bits (default 24)")
    v.add_argument("--seed", type=int, help="RNG seed (default 0)")
    v.add_argument("--out", help="report path (default: stdout)")

    w = sub.add_parser("walk-stats",
                       help="return probabilities of the coordinate flip "
                            "walk: exact, bound, empirical")
    w.add_argument("--m", required=True,
                   help="cube dimensions, comma separated (e.g. 2,4,8)")
    w.add_argument("--t-max", type=int, required=True, dest="t_max",
                   help="largest step count")
    w.add_argument("--samples", type=int,
                   help="empirical sample count, 0 to skip (default 0)")
    w.add_argument("--seed", type=int, help="RNG seed (default 0)")
    w.add_argument("--out", help="output path (default: stdout)")
    for command in sub.choices.values():
        command.set_defaults(_flag_types={
            a.dest: a.type or str for a in command._actions
            if a.option_strings and a.nargs is None})
    return p


def _load_config(path: Optional[str]) -> Dict:
    if not path:
        return {}
    with open(path) as fh:  # main's message names the file
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    # a key that no command reads would be dropped without a word
    for key in doc:
        if not any(key in keys for keys in _CONFIG_KEYS.values()):
            raise ValueError(f"unknown option {key!r}")
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args._config_doc = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: --config {args.config}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    # looked up per call, not bound into the cached tree, so that a wrapper
    # installed on this module's functions after the first call still runs
    handler = {"construct": cmd_construct,
               "sample-matrix": cmd_sample_matrix,
               "verify": cmd_verify,
               "walk-stats": cmd_walk_stats}[args.command]
    try:
        return handler(args)
    except ConstructionError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except SamplerFailure as exc:
        print(f"sampler failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (EnumerationCap, PrecisionExhausted, SearchCap) as exc:
        print(f"cannot decide at these budgets: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ConfigError as exc:
        print(f"error: --config {args.config}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (serialization.SerializationError, Unbounded, EmptyBody,
            DegenerateBody) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
