"""The benchmark's workloads: inputs made from a seed, one fixed list of
operations per pass, and a correctness check for every operation.

An operation is a ``paratile.cli.main([...])`` call, or a direct library call
where a user script makes one.  Every check reads semantic fields of the
output (exit code, exact ratio, level checks, tiling verdict, witnesses), not
report bytes.  A check returns ``None`` when the output is right and a short
reason when it is not.  Expected failures (``scaled_cube3``, a sampled matrix
with a short column dependency) count as right only when they fail in the
expected way.

Expected values are formulas (a cube has ratio 2n) or were recorded from the
program by ``record_expected.py`` into ``expected.json``.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")
EXPECTED = os.path.join(HERE, "expected.json")

Terms = List[Tuple[str, str]]  # (coeff, radicand) pairs of a radical sum


@dataclass
class OpResult:
    code: int
    stdout: str
    stderr: str
    value: object = None  # return value of a library call


@dataclass
class Op:
    label: str
    check: Callable[[OpResult], Optional[str]]
    argv: Optional[List[str]] = None          # a CLI call
    call: Optional[Callable[[], object]] = None  # or a library call


def lib(module: str):
    """A paratile module, looked up at call time so tracing wrappers apply."""
    return importlib.import_module(f"paratile.{module}")


def load_expected() -> Dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def cube_terms(n: int) -> Terms:
    return [(str(2 * n), "1")]


def terms_of(doc: Optional[Dict]) -> Optional[Terms]:
    if doc is None:
        return None
    return [(t["coeff"], t["radicand"]) for t in doc["terms"]]


def _exit_reason(res: OpResult, want: int) -> Optional[str]:
    if res.code == want:
        return None
    tail = res.stderr.strip().splitlines()[-1:] or [""]
    return f"exit code {res.code}, expected {want}: {tail[0][:160]}"


# --- checks ------------------------------------------------------------------------

def check_construct(res: OpResult, n: int, terms: Terms,
                    modes: Sequence[str]) -> Optional[str]:
    """A geometric construct: exit 0, the exact ratio, every level check
    true, the expected level modes."""
    bad = _exit_reason(res, 0)
    if bad:
        return bad
    doc = json.loads(res.stdout)
    if doc["n"] != n or doc["bound_only"]:
        return f"report is for n={doc['n']} bound_only={doc['bound_only']}"
    got = terms_of(doc["final"]["ratio_exact"])
    if got != [tuple(t) for t in terms]:
        return f"ratio {got}, expected {terms}"
    if doc["final"]["trivial_bound_2n"] != str(2 * n):
        return "wrong trivial bound"
    levels = doc["levels"]
    if [lv["mode"] for lv in levels] != list(modes):
        return f"level modes {[lv['mode'] for lv in levels]}, expected {modes}"
    failed = [c["name"] for lv in levels for c in lv["checks"] if not c["ok"]]
    if failed or not all(lv["checks"] for lv in levels):
        return f"level checks failed or missing: {failed}"
    return None


def check_construct_report(res: OpResult, n: int) -> Optional[str]:
    """A library ``construct(n)`` on the cube path."""
    rep = res.value
    if rep is None or rep.bound_only:
        return "no geometric report"
    if str(rep.ratio_exact) != str(2 * n):
        return f"ratio {rep.ratio_exact}, expected {2 * n}"
    if [lv.mode for lv in rep.levels] != ["cube"]:
        return f"level modes {[lv.mode for lv in rep.levels]}"
    if not all(ok for lv in rep.levels for _, ok in lv.checks):
        return "a level check failed"
    return None


def check_bound_only(res: OpResult, n: int) -> Optional[str]:
    """``construct --bound-only``: the certified bound is 2n up to 10^7."""
    bad = _exit_reason(res, 0)
    if bad:
        return bad
    doc = json.loads(res.stdout)
    if not doc["bound_only"] or doc["n"] != n:
        return "not a bound-only report for this n"
    if doc["final"]["ratio_hi"] != str(2 * n):
        return f"bound {doc['final']['ratio_hi']}, expected {2 * n}"
    if [lv["mode"] for lv in doc["levels"]] != ["cube"]:
        return "bound chain took a step"
    if not all(c["ok"] for lv in doc["levels"] for c in lv["checks"]):
        return "a level check failed"
    return None


_RATIO_LINE = re.compile(r"^ratio check: (PASS|FAIL) \(ratio = (.*)\)$", re.M)


def check_verify(res: OpResult, *, passes: bool, samples: int, engine: str,
                 translates: int, ratio: Optional[str]) -> Optional[str]:
    """``verify --fixture``: verdict, violation counts, sample count, engine,
    translate count and, where the fixture names one, the exact ratio."""
    bad = _exit_reason(res, 0 if passes else 1)
    if bad:
        return bad
    doc = json.loads(res.stdout)
    if doc["passed"] != passes:
        return f"verdict passed={doc['passed']}, expected {passes}"
    violations = doc["overlap_violations"] + doc["gap_violations"]
    if passes and (violations or not doc["volume_equal"]):
        return f"{violations} violations on a tiling body"
    if not passes and violations == 0:
        return "failing fixture reported no violation"
    if doc["samples"] != samples or doc["engine"] != engine:
        return f"{doc['samples']} samples on {doc['engine']}, expected " \
               f"{samples} on {engine}"
    if doc["translates"] != translates:
        return f"{doc['translates']} translates, expected {translates}"
    if ratio is not None:
        found = _RATIO_LINE.search(res.stderr)
        if not found or found.groups() != ("PASS", ratio):
            return f"ratio check {found.groups() if found else None}, " \
                   f"expected PASS at {ratio}"
    return None


_WITNESS = re.compile(r"dependent columns \(([\d, ]*)\)")


def check_sample_matrix(res: OpResult, *, masks: Sequence[int],
                        independent: bool, s: int,
                        entries: Sequence[Sequence[str]]) -> Optional[str]:
    """``sample-matrix --verify-s s``.  ``masks`` is the matrix regenerated
    from the seed and ``independent`` the benchmark's own verdict on it.  A
    pass must return that matrix with ``verified_s = s``; a failure must
    name a witness of at most s columns whose XOR is zero."""
    if not independent:
        bad = _exit_reason(res, 1)
        if bad:
            return bad
        found = _WITNESS.search(res.stderr)
        if not found:
            return "no dependency witness"
        cols = [int(x) for x in found.group(1).split(",") if x.strip()]
        if not 1 <= len(cols) <= s or len(set(cols)) != len(cols):
            return f"witness {cols} is not a set of 1..{s} columns"
        acc = 0
        for j in cols:
            acc ^= masks[j]
        return None if acc == 0 else f"witness {cols} columns do not XOR to 0"
    bad = _exit_reason(res, 0)
    if bad:
        return bad
    doc = json.loads(res.stdout)
    if doc["stats"].get("verified_s") != s:
        return f"verified_s {doc['stats'].get('verified_s')}, expected {s}"
    if doc["matrix"]["entries"] != entries:
        return "returned matrix differs from the seeded sample"
    return None


def check_scan(res: OpResult, *, count: int, distinct: int,
               induction: int) -> Optional[str]:
    """``scan_induction``: every grid point covered, and the grid and the
    induction-covered count as recorded."""
    records = res.value
    if len(records) != count:
        return f"{len(records)} records, expected {count}"
    uncovered = [r["n"] for r in records if not r["covered"]]
    if uncovered:
        return f"uncovered grid points {uncovered[:5]}"
    if len({r["n"] for r in records}) != distinct:
        return "grid changed"
    got = sum(1 for r in records if r["induction_covers"])
    if got != induction:
        return f"{got} points covered by induction, expected {induction}"
    return None


# --- independent GF(2) check for the sampler ---------------------------------------

def shortest_dependency_up_to_3(masks: Sequence[int]) -> Optional[int]:
    """Size of the smallest set of at most 3 columns with zero XOR, or None,
    by direct search: a zero column, a repeated column, or a pair whose XOR
    is a third column.  Pairs are screened with numpy on the top bits of a
    random linear 64-bit image of the columns, and every hit is confirmed
    on the whole columns: a pure-Python pair loop took 0.1 s a matrix, and
    how many matrices need the whole loop differs from seed to seed."""
    present = set(masks)
    if 0 in present:
        return 1
    if len(present) != len(masks):
        return 2
    # a random GF(2)-linear map to 64 bits: key(a ^ b) = key(a) ^ key(b)
    rng = random.Random(0)
    row_keys = [rng.getrandbits(64) for _ in range(max(masks).bit_length())]

    def key(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out ^= row_keys[low.bit_length() - 1]
            mask ^= low
        return out

    keys = np.array([key(m) for m in masks], dtype=np.uint64)
    seen = np.zeros(1 << 20, dtype=bool)  # by the top 20 bits of a key
    seen[keys >> np.uint64(44)] = True
    for start in range(0, len(masks), 64):  # 64 rows of the pair table
        xor = keys[start:start + 64, None] ^ keys[None, :]
        for i, j in zip(*np.nonzero(seen[xor >> np.uint64(44)])):
            if masks[start + i] ^ masks[j] in present:
                return 3
    return None


def matrix_masks(rows: Sequence[Sequence[int]]) -> List[int]:
    masks = [0] * len(rows[0])
    for i, row in enumerate(rows):
        bit = 1 << i
        for j, x in enumerate(row):
            if x:
                masks[j] |= bit
    return masks


# --- workloads ------------------------------------------------------------------------

def permuted(rows: Sequence[Sequence[int]], rng: random.Random
             ) -> List[List[int]]:
    """Rows in a random order.  The kernel is unchanged and the image is
    permuted isometrically, so the exact ratio stays and so does the work
    (a column order would change the kernel basis the enumeration starts
    from, and with it the enumeration's size)."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [list(rows[i]) for i in order]


def write_matrix(path: str, rows: Sequence[Sequence[int]]) -> str:
    """An integer matrix as the program's matrix JSON document."""
    with open(path, "w") as fh:
        json.dump({"rows": len(rows), "cols": len(rows[0]),
                   "entries": [[str(x) for x in row] for row in rows]}, fh)
    return path


def identity_plus(m: int, extra: Sequence[Sequence[int]]) -> List[List[int]]:
    return [[int(i == j) for j in range(m)] + [c[i] for c in extra]
            for i in range(m)]


class Workload:
    """One workload: ``setup`` makes the inputs, ``ops`` is one pass.

    ``tail_pct`` is the percentile reported as ``op_s.tail``.  It sits in
    the middle of one operation's band of the sorted times, so noise cannot
    move it to a neighbouring operation, and a 20-second run leaves at least
    ten samples beyond it.  Why each workload exists is in BENCHMARK.json.
    """

    name = ""
    tail_pct = 50.0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.expected = load_expected()
        self.ops: List[Op] = []
        self.warmup: Optional[Op] = None

    def prog_seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))


class CubeHighdim(Workload):
    name = "cube-highdim"
    tail_pct = 58.0
    CLI_NS = (24, 32, 48)       # the CLI adds the isoperimetric bound: O(n^3)
    LIB_NS = (150, 200, 250)    # construct(n) as a script calls it

    def setup(self) -> None:
        seed = self.prog_seed()
        ops = [Op(f"construct --n {n}",
                  lambda res, n=n: check_construct(res, n, cube_terms(n),
                                                   ["cube"]),
                  argv=["construct", "--n", str(n), "--seed", seed])
               for n in self.CLI_NS]
        for n in self.LIB_NS:
            def call(n=n, seed=int(seed)):
                c = lib("construction")
                return c.construct(n, c.RecursionConfig(seed=seed))
            ops.append(Op(f"construct({n})",
                          lambda res, n=n: check_construct_report(res, n),
                          call=call))
        self.rng.shuffle(ops)
        self.ops = ops
        self.warmup = Op("construct --n 8",
                         lambda res: check_construct(res, 8, cube_terms(8),
                                                     ["cube"]),
                         argv=["construct", "--n", "8", "--seed", seed])


class GeometricStep(Workload):
    name = "geometric-step"
    tail_pct = 58.0
    # (key, m, extra columns): identity plus columns of weight >= 2; the
    # seed permutes the rows of each, which keeps the exact ratio
    STEPS = (
        ("image5a", 5, ((1, 1, 1, 0, 0), (0, 1, 1, 1, 1))),
        ("image5b", 5, ((1, 1, 0, 0, 0), (0, 1, 1, 0, 0))),
        ("image6a", 6, ((1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0))),
        ("image6b", 6, ((1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 1, 1))),
        ("kernel4", 4, ((1, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1),
                        (0, 1, 1, 0), (1, 1, 1, 0))),
    )
    WORKED = ((1, 1, 0, 0), (0, 0, 1, 1))

    def _matrix_file(self, name: str, rows: Sequence[Sequence[int]]) -> str:
        return write_matrix(os.path.join(self.workdir, f"{name}.json"), rows)

    def setup(self) -> None:
        recorded = self.expected["geometric-step"]
        seed = self.prog_seed()
        ops = []
        worked = self._matrix_file("worked", permuted(self.WORKED, self.rng))
        ops.append(self._op("worked_n4", 4, worked, recorded, seed,
                            ["--override-s", "1"]))
        for key, m, extra in self.STEPS:
            rows = permuted(identity_plus(m, extra), self.rng)
            path = self._matrix_file(key, rows)
            ops.append(self._op(key, len(rows[0]), path, recorded, seed))
        self.rng.shuffle(ops)
        self.ops = ops
        self.warmup = self._op("worked_n4", 4, worked, recorded, seed,
                               ["--override-s", "1"])

    @staticmethod
    def _op(key: str, n: int, path: str, recorded: Dict, seed: str,
            extra_args: Sequence[str] = ()) -> Op:
        terms = recorded[key]
        return Op(f"construct --n {n} ({key})",
                  lambda res: check_construct(res, n, terms, ["step", "cube"]),
                  argv=["construct", "--n", str(n), "--matrix-override", path,
                        "--seed", seed, *extra_args])


class TilingAudit(Workload):
    name = "tiling-audit"
    tail_pct = 62.5
    SAMPLES = 100000
    BIGINT_SAMPLES = 2000
    FIXTURE_NAMES = ("worked_n4", "cube3", "scaled_cube3")
    samples_per_pass = len(FIXTURE_NAMES) * SAMPLES + BIGINT_SAMPLES

    def setup(self) -> None:
        recorded = self.expected["tiling-audit"]
        ops = []
        fixtures = {}
        for name in self.FIXTURE_NAMES:
            path = os.path.join(FIXTURES, f"{name}.json")
            with open(path) as fh:
                doc = json.load(fh)
            expected_ratio = doc["expected_ratio"]
            ratio = None
            if expected_ratio is not None:
                ratio = str(lib("serialization").sqrtsum_from_json(
                    expected_ratio))
            fixtures[name] = (path, doc["expect_tiling"], ratio)
        runs = [(name, self.SAMPLES, 24, "int64")
                for name in self.FIXTURE_NAMES]
        runs.append(("worked_n4", self.BIGINT_SAMPLES, 60, "bigint"))
        for name, samples, bits, engine in runs:
            path, passes, ratio = fixtures[name]
            ops.append(Op(
                f"verify --fixture {name} --bits {bits}",
                lambda res, p=passes, s=samples, e=engine, r=ratio,
                t=recorded["translates"][name]: check_verify(
                    res, passes=p, samples=s, engine=e, translates=t,
                    ratio=r),
                argv=["verify", "--fixture", path, "--samples", str(samples),
                      "--bits", str(bits), "--seed", self.prog_seed()]))
        self.rng.shuffle(ops)
        self.ops = ops
        path, passes, ratio = fixtures["cube3"]
        self.warmup = Op(
            "verify --fixture cube3 (warm-up)",
            lambda res: check_verify(res, passes=passes, samples=1000,
                                     engine="int64", translates=recorded[
                                         "translates"]["cube3"], ratio=ratio),
            argv=["verify", "--fixture", path, "--samples", "1000",
                  "--seed", self.prog_seed()])


class ScheduleSampler(Workload):
    name = "schedule-sampler"
    tail_pct = 72.0
    M, N, D, S = 128, 1024, 4, 3
    # sampled matrices per pass: every 3 columns independent, so that
    # --verify-s 3 passes, or with a dependency of 1 or 2 columns.  A
    # dependency of 3 columns is left out: the search finds it anywhere
    # between 0.05 s and a full search, so its time depends on the seed.
    SAMPLER_MIX = {"independent": 2, "short": 2}
    # matrices drawn and classified in set-up, at least; 12 draws fill the
    # mix for about nine seeds in ten
    DRAWS = 12

    def _sampler_op(self, seed: int):
        sampler = lib("sampler")
        mat, _ = sampler.sample_ldpc(sampler.LdpcParams(
            m=self.M, n=self.N, d=self.D, seed=seed))
        masks = matrix_masks(mat.entries)
        dep = shortest_dependency_up_to_3(masks)
        independent = dep is None
        entries = [[str(x) for x in row] for row in mat.entries] \
            if independent else []
        op = Op(f"sample-matrix (dependency {dep})",
                lambda res: check_sample_matrix(
                    res, masks=masks, independent=independent, s=self.S,
                    entries=entries),
                argv=["sample-matrix", "--m", str(self.M), "--n", str(self.N),
                      "--d", str(self.D), "--verify-s", str(self.S),
                      "--seed", str(seed)])
        return op, ("independent" if independent else
                    "short" if dep < 3 else "3 columns")

    def setup(self) -> None:
        recorded = self.expected["schedule-sampler"]["scan"]
        ops = [Op("scan_induction(4, 10**6, 1000)",
                  lambda res: check_scan(res, count=1000, **recorded),
                  call=lambda: lib("construction").scan_induction(
                      4, 10 ** 6, 1000))]
        for k in range(4, 8):
            n = 10 ** k
            ops.append(Op(f"construct --n {n} --bound-only",
                          lambda res, n=n: check_bound_only(res, n),
                          argv=["construct", "--n", str(n), "--bound-only",
                                "--seed", self.prog_seed()]))
        # a fixed mix of outcomes keeps the pass time steady across seeds;
        # the benchmark's own GF(2) search classifies each seeded matrix
        # before the program sees the seed.  A fixed number of draws keeps
        # the set-up time steady too.
        want = dict(self.SAMPLER_MIX)
        draws = 0
        while draws < self.DRAWS or any(want.values()):
            op, kind = self._sampler_op(self.rng.randrange(2 ** 31))
            draws += 1
            if want.get(kind):
                want[kind] -= 1
                ops.append(op)
                if kind == "short":
                    self.warmup = op
        self.rng.shuffle(ops)
        self.ops = ops


WORKLOADS = {w.name: w for w in (CubeHighdim, GeometricStep, TilingAudit,
                                 ScheduleSampler)}
