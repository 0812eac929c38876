"""Workload request lists for the ghostseries benchmark, and their output checks.

Each workload is a fixed list of CLI requests.  The seed draws only the
weights and levels named in each build function, from the ranges stated there;
request sizes (slope counts, degrees, caps) never depend on it, and the
program sees nothing but the generated argv.

Every request carries the exit code and stderr prefix it must produce and
a check of its stdout.  A check returns the number of slopes the request
emitted and raises CheckFailed when an output is wrong.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

DEFAULT_SEED = 1

# written by the halo request of cli-short, relative to the checkout root
HALO_DIR = "perfbench/results/halo"

# the modified N = 3 boundary polygon starts 1/2, 1/2, 1, 1, 3/2, 3/2, ...
MODIFIED_N3_BOUNDARY_PREFIX = tuple(Fraction(j // 2, 2) for j in range(2, 12))


class CheckFailed(Exception):
    """A request's output, exit code or stderr is not what it must be."""


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], int]
    code: int = 0
    stderr_prefix: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Request]]
    # (request name, slope count n) pairs whose times give the growth exponent
    ladder: tuple[tuple[str, int], ...] = ()


def verify(req: Request, code: int | None, stdout: str, stderr: str) -> int:
    """Slopes emitted by a finished request; raises CheckFailed on any mismatch."""
    if code != req.code:
        raise CheckFailed(f"{req.name}: exit code {code}, expected {req.code}; stderr {stderr[:200]!r}")
    if req.code == 0:
        if stderr:
            raise CheckFailed(f"{req.name}: unexpected stderr {stderr[:200]!r}")
    elif not stderr.startswith(req.stderr_prefix):
        raise CheckFailed(f"{req.name}: stderr {stderr[:200]!r} lacks prefix {req.stderr_prefix!r}")
    return req.check(stdout)


# ---------------------------------------------------------------------------
# output checks

def _rat(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _slope_list(slopes: Sequence[Fraction], n: int, expect, prefix=()) -> int:
    if len(slopes) != n:
        raise CheckFailed(f"{len(slopes)} slopes, expected {n}")
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        raise CheckFailed("slopes decrease")
    if expect is not None:
        for i, s in enumerate(slopes, start=1):
            if s != expect(i):
                raise CheckFailed(f"slope {i} is {s}, closed form gives {expect(i)}")
    if tuple(slopes[: len(prefix)]) != tuple(prefix):
        raise CheckFailed(f"slope prefix {slopes[:len(prefix)]} differs from {prefix}")
    return n


def _json_entries(entries, n: int, expect=None, prefix=()) -> int:
    if [e["index"] for e in entries] != list(range(1, len(entries) + 1)):
        raise CheckFailed("slope indices are not 1..n")
    if not all(e["certified"] is True for e in entries):
        raise CheckFailed("a slope is not certified")
    return _slope_list([_rat(e["slope"]) for e in entries], n, expect, prefix)


def check_slopes_json(n: int, expect=None) -> Callable[[str], int]:
    return lambda out: _json_entries(json.loads(out), n, expect)


def check_slopes_csv(n: int, expect=None) -> Callable[[str], int]:
    def check(out: str) -> int:
        lines = out.splitlines()
        if not lines or lines[0] != "index,slope,certified":
            raise CheckFailed("missing CSV header")
        rows = [line.split(",") for line in lines[1:]]
        if [r[0] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
            raise CheckFailed("CSV indices are not 1..n")
        if any(r[2] != "true" for r in rows):
            raise CheckFailed("a CSV slope is not certified")
        return _slope_list([Fraction(r[1]) for r in rows], n, expect)

    return check


def check_boundary(n: int, ap: bool = False, prefix=()) -> Callable[[str], int]:
    def check(out: str) -> int:
        doc = json.loads(out)
        if ap and doc["ap_report"]["verified"] is not True:
            raise CheckFailed("arithmetic-progression report is not verified")
        return _json_entries(doc["slopes"], n, prefix=prefix)

    return check


def check_series(up_to: int) -> Callable[[str], int]:
    def check(out: str) -> int:
        rows = [json.loads(line) for line in out.splitlines()]
        if [r["i"] for r in rows] != list(range(1, up_to + 1)):
            raise CheckFailed("series rows are not i = 1..up_to")
        for r in rows:
            if r["lambda"] != sum(z["mult"] for z in r["zeros"]):
                raise CheckFailed(f"lambda of row {r['i']} is not the sum of its multiplicities")
        return 0

    return check


def check_dims(k_max: int) -> Callable[[str], int]:
    def check(out: str) -> int:
        rows = json.loads(out)["dimensions"]
        if [r["k"] for r in rows] != list(range(2, k_max + 1, 2)):
            raise CheckFailed("dimension table does not cover k = 2..k_max")
        for r in rows:
            if r["dim_pnew"] != r["dim_level_Np"] - 2 * r["dim_tame"] or r["dim_pnew"] < 0:
                raise CheckFailed(f"p-new dimension inconsistent at k = {r['k']}")
        return 0

    return check


def check_compare(n: int) -> Callable[[str], int]:
    def check(out: str) -> int:
        doc = json.loads(out)
        if doc["match"] is not True or doc["compared"] != n:
            raise CheckFailed("fixture comparison did not match")
        return n

    return check


def _halo_rows(text: str, n: int, rows: int, expect_row=None) -> int:
    lines = text.splitlines()
    if lines[0] != "v," + ",".join(f"s{t}" for t in range(1, n + 1)):
        raise CheckFailed("halo header does not list n slopes")
    if len(lines) != rows + 1:
        raise CheckFailed(f"halo has {len(lines) - 1} rows, expected {rows}")
    for line in lines[1:]:
        v, *cells = (Fraction(c) for c in line.split(","))
        _slope_list(cells, n, None if expect_row is None else (lambda i: expect_row(i, v)))
    return rows * n


def check_halo_stdout(n: int, rows: int) -> Callable[[str], int]:
    return lambda out: _halo_rows(out, n, rows)


def check_halo_files(intervals: Sequence[int], n: int, rows: int) -> Callable[[str], int]:
    """Center-0 halo rows written to HALO_DIR: the t-th slope is t*v."""

    def check(out: str) -> int:
        paths = [f"{HALO_DIR}/halo_c0_r{r}.csv" for r in intervals]
        if out.splitlines() != [f"wrote {p}" for p in paths]:
            raise CheckFailed("halo did not report the expected files")
        return sum(
            _halo_rows(Path(p).read_text(encoding="utf-8"), n, rows, lambda i, v: i * v)
            for p in paths
        )

    return check


def check_empty(out: str) -> int:
    if out:
        raise CheckFailed("a failing request wrote to stdout")
    return 0


# ---------------------------------------------------------------------------
# draws

def draw_v(rng: random.Random) -> Fraction:
    """Non-integral v in (0, 3) with denominator 2..7."""
    den = rng.randrange(2, 8)
    num = rng.choice([a for a in range(1, 3 * den) if a % den])
    return Fraction(num, den)


def draw_small_w(rng: random.Random) -> tuple[int, int]:
    """A 2-adic w-value with v_2(w) in {1, 2}, and that valuation.

    Every zero w_k of the plain p = 2 series has v_2(w_k) >= 3, so each leg
    equals v_2(w) and the slopes are i * v_2(w), and the certificate needs
    the same work for every draw.  (Draws with v_2(w) >= 3 differ in cost
    by a factor of five from one draw to the next.)
    """
    a = rng.choice([1, 2])
    return (2 * rng.randrange(1, 2**29) + 1) << a, a


def _slopes(name, p, weight, n, *, N=1, csv=False, expect=None, extra=()) -> Request:
    argv = ["slopes", "--p", str(p), "--N", str(N), "--weight", weight, "--count", str(n), *extra]
    if csv:
        argv += ["--format", "csv"]
    check = (check_slopes_csv if csv else check_slopes_json)(n, expect)
    return Request(name, tuple(argv), check)


def _times(v: Fraction) -> Callable[[int], Fraction]:
    return lambda i: i * v


def dim_level1(k: int) -> int:
    """dim S_k(SL_2(Z)) for even k >= 4."""
    return k // 12 - (1 if k % 12 == 2 else 0)


# ---------------------------------------------------------------------------
# workloads

LADDER = (50, 100, 150, 200)


def build_slopes_deep(rng: random.Random) -> list[Request]:
    """Drawn: the annulus radius v in (0, 3) and the w-value."""
    v = draw_v(rng)
    w, wv = draw_small_w(rng)
    reqs = [_slopes(f"ladder-n{n}", 2, "k=0", n) for n in LADDER]
    reqs += [
        _slopes("annulus", 2, f"annulus:0:{v}", 100, expect=_times(v)),
        _slopes("p5-k2", 5, "k=2", 150),
        _slopes("p3-N11", 3, "k=0", 150, N=11),
        _slopes("p7-N5-char", 7, "char:4:7^3", 300, N=5),
        _slopes("w-prec40", 2, f"w:{w}:prec=40", 100, expect=_times(Fraction(wv))),
        # dim S_400(Gamma_0(2)) = -399 + 2 * 199 + 100 = 99 slopes
        Request("full-k400", ("slopes", "--p", "2", "--weight", "k=400", "--mode", "full"),
                check_slopes_json(99)),
    ]
    return reqs


def _boundary(name, p, N, n, *, ap=False, modified=False, prefix=()) -> Request:
    argv = ["boundary", "--p", str(p), "--N", str(N), "--count", str(n), "--cap", "100000"]
    argv += ["--ap"] * ap + ["--modified"] * modified
    return Request(name, tuple(argv), check_boundary(n, ap, prefix))


def build_boundary_wide(rng: random.Random) -> list[Request]:
    """Nothing is drawn: boundary polygons take no weight."""
    return [
        _boundary("p5-N1", 5, 1, 10000, ap=True),
        _boundary("p7-N1", 7, 1, 5000, ap=True),
        _boundary("p3-N11", 3, 11, 3000, ap=True),
        _boundary("p3-N7", 3, 7, 3000, ap=True),
        # lam(Delta_i) is not monotone at these two levels
        _boundary("p11-N6", 11, 6, 3000),
        _boundary("p2-N15", 2, 15, 2000),
    ]


def build_modified_p2(rng: random.Random) -> list[Request]:
    """Nothing is drawn: the bundled N = 3 seed fixes every input."""
    mod = ("--modified",)
    return [
        _slopes("k0", 2, "k=0", 100, N=3, extra=mod),
        _slopes("eta8-3", 2, "eta8:3", 60, N=3, extra=mod),
        _slopes("annulus-half", 2, "annulus:0:1/2", 60, N=3, extra=mod),
        _boundary("boundary", 2, 3, 2000, modified=True, prefix=MODIFIED_N3_BOUNDARY_PREFIX),
        Request("series", ("series", "--p", "2", "--N", "3", "--modified", "--up-to", "150"),
                check_series(150)),
    ]


def build_cli_short(rng: random.Random) -> list[Request]:
    """Drawn: levels N and odd primes for dims/series/slopes, weights k and
    radii v for the small slope requests, and one 2-adic w-value.  The tame
    and full requests emit as many slopes as the drawn weight's dimension."""
    odd_p = rng.choice([3, 5, 7, 11, 13])
    n2 = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
    n3 = rng.choice([1, 2, 4, 5, 7])
    v1, v2 = draw_v(rng), draw_v(rng)
    w, wv = draw_small_w(rng)
    k_tame = rng.randrange(24, 101, 2)
    k_full = rng.randrange(20, 61, 2)
    ks = [rng.randrange(0, 201, 2) for _ in range(4)]
    halo_intervals = (0, 1, 2)
    reqs = [
        Request("dims-p2", ("dims", "--p", "2", "--N", str(n2)), check_dims(30)),
        Request("dims-odd", ("dims", "--p", str(odd_p), "--k-max", "40"), check_dims(40)),
        Request("series-60", ("series", "--p", "2", "--up-to", "60"), check_series(60)),
        Request("series-odd", ("series", "--p", str(odd_p), "--up-to", "60"), check_series(60)),
        Request("series-300", ("series", "--p", "2", "--up-to", "300"), check_series(300)),
        Request(
            "compare",
            ("compare", "--p", "2", "--fixture", "fixtures/annulus_half_2adic.json",
             "--weight", "annulus:0:1/2", "--count", "10"),
            check_compare(10),
        ),
        Request(
            "halo-c0",
            ("halo", "--p", "2", "--center", "0",
             *[a for r in halo_intervals for a in ("--interval", str(r))],
             "--count", "20", "--out-dir", HALO_DIR),
            check_halo_files(halo_intervals, 20, 3),
        ),
        Request("halo-c62", ("halo", "--p", "2", "--center", "62", "--interval", "14", "--count", "30"),
                check_halo_stdout(30, 3)),
        _slopes("p2-k-a", 2, f"k={ks[0]}", 30),
        _slopes("p2-k-b", 2, f"k={ks[1]}", 20, csv=True),
        _slopes("p2-annulus-a", 2, f"annulus:0:{v1}", 30, expect=_times(v1)),
        _slopes("p2-annulus-b", 2, f"annulus:0:{v2}", 25, csv=True, expect=_times(v2)),
        _slopes("p2-w", 2, f"w:{w}:prec=20", 10, expect=_times(Fraction(wv))),
        _slopes("p3-k", 3, f"k={ks[2]}", 20, N=n3),
        _slopes("p3-k-csv", 3, f"k={ks[3]}", 30, csv=True),
        _slopes("p5-k2", 5, "k=2", 20),
        _slopes("p7-char", 7, "char:4:7^2", 20),
        _slopes("p11-k0", 11, "k=0", 15),
        _slopes("p2-N3-eta8", 2, "eta8:5", 10, N=3, extra=("--modified",)),
        Request("tame", ("slopes", "--p", "2", "--weight", f"k={k_tame}", "--mode", "tame"),
                check_slopes_json(dim_level1(k_tame))),
        # dim S_k(Gamma_0(2)) = -(k - 1) + (k - 2) + floor(k/4) = floor(k/4) - 1
        Request("full", ("slopes", "--p", "2", "--weight", f"k={k_full}", "--mode", "full"),
                check_slopes_json(k_full // 4 - 1)),
        _boundary("boundary-p5", 5, 1, 200, ap=True),
        _boundary("boundary-p3-N5", 3, 5, 100, ap=True),
        _boundary("boundary-mod-N3", 2, 3, 10, modified=True, prefix=MODIFIED_N3_BOUNDARY_PREFIX),
        Request("fail-cap", ("slopes", "--p", "2", "--weight", "k=0", "--count", "300", "--cap", "200"),
                check_empty, 3, "error: could not certify 300 slopes within the degree cap 200"),
        Request("fail-precision", ("slopes", "--p", "2", "--weight", "w:8:prec=3", "--count", "5"),
                check_empty, 3, "error: w-value known mod 2^3 only"),
        Request("fail-odd-k", ("slopes", "--p", "2", "--weight", "k=3", "--count", "5"),
                check_empty, 2, "usage error: classical weight k = 3 must be even"),
    ]
    return reqs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "slopes-deep",
            "the coefficient-valuation path does over 90% of the work, across every weight kind; "
            "the k=0 ladder n = 50..200 gives the growth exponent",
            build_slopes_deep,
            tuple((f"ladder-n{n}", n) for n in LADDER),
        ),
        Workload(
            "boundary-wide",
            "no coefficient is evaluated at a weight: degree arrays, hull, tail and JSON output share "
            "the time, so a valuation change should not move it",
            build_boundary_wide,
        ),
        Workload(
            "modified-p2",
            "the modified N=3 series: eta_8 point zeros and the floor c = 1 force several doubling "
            "rounds through the certificate and valuation layers",
            build_modified_p2,
        ),
        Workload(
            "cli-short",
            "about 30 interactive requests where start-up, argument parsing and serialization "
            "dominate; guards setup time and the exit codes of failing requests",
            build_cli_short,
        ),
    )
}


def requests_for(workload: str, seed: int) -> list[Request]:
    """The request list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
