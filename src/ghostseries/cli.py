"""Command-line surface: exact JSON/CSV emission for every computation.

Exit codes: 0 success, 1 comparison mismatch, 2 usage error,
3 certification/precision/external-data failure.  Rationals are always
serialized as {"num", "den"} integer pairs, never as floats.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from importlib import import_module

from .dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from .errors import CertificationError, ComponentMismatch, ExternalDataError, GhostError, PrecisionError
from .polygon import DEFAULT_CAP, SlopeList, classical_ghost_slopes, ghost_slopes
from .record import Record, json_int
from .series import GhostSeries
from .series import coefficient_divisor  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .weightspace import (
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    WeightPoint,
)

# the names cli reads from the modules only some subcommands run; _need binds each
# on first use, or on a read from outside, and keeps one already bound (a wrapper);
# ap_check is tracer-pinned: cli does not call it, but perfbench/tracer.py wraps cli.ap_check
_LAZY = {
    "boundary": ("ap_check", "ap_parameters", "boundary_polygon", "check_ap_counts", "halo_profile", "scan_burn_in"),
    "modified": ("Weight2SeedSlopes", "bundled_seed", "load_seed", "modified_coefficient"),
}


def _need(module: str) -> None:
    mod = import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _need(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(ValueError):
    pass


def _rat(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


_ZERO_TYPES = {Classical: "classical", EtaEight: "eta8"}  # the "type" of a zero in `series` output

# one slope entry, {"index", "slope": {"num", "den"}, "certified"}, laid out as by json.dumps(indent=2)
_SLOPE_ENTRY = '{\n  "index": %d,\n  "slope": {\n    "num": %d,\n    "den": %d\n  },\n  "certified": %s\n}'
# the "ap_report" of a boundary document, laid out likewise; n_ap and delta are ints
_AP_REPORT = ',\n  "ap_report": {\n    "n_ap": %d,\n    "delta": {\n      "num": %d,\n      "den": 1\n    },\n%s    "verified": %s\n  }'


def _write_slopes(write, slopes: SlopeList, indent: str = "") -> None:
    """Write the slope entries as the JSON array json.dumps(..., indent=2)
    prints at the nesting ``indent``, one ``write`` call per 4,096 entries."""
    if not slopes.slopes:
        write("[]")
        return
    pad = indent + "  "
    entry = pad + _SLOPE_ENTRY.replace("\n", "\n" + pad)
    cert = slopes.certified_count
    sep = "[\n"
    for lo in range(0, len(slopes), 4096):
        chunk = enumerate(slopes.slopes[lo : lo + 4096], lo)
        write(sep + ",\n".join([entry % (j + 1, s.numerator, s.denominator, "true" if j < cert else "false") for j, s in chunk]))
        sep = ",\n"
    write("\n" + indent + "]")


def parse_weight(spec: str, ctx: PrimeContext) -> WeightPoint:
    """Parse the weight grammar:

    k=<int> | annulus:<k0>:<num>/<den> | char:<k>:<p^t> | eta8:<k>
    | w:<int>:prec=<m>[:eps=<r>]
    """
    m = re.fullmatch(r"k=(-?\d+)", spec)
    if m:
        return Classical(int(m.group(1)))
    m = re.fullmatch(r"annulus:(-?\d+):(-?\d+)/(0*[1-9]\d*)", spec)
    if m:
        return Annulus(int(m.group(1)), Fraction(int(m.group(2)), int(m.group(3))))
    m = re.fullmatch(r"char:(-?\d+):(\d+)(?:\^(\d+))?", spec)
    if m:
        k = int(m.group(1))
        if m.group(3) is not None:
            base, t = int(m.group(2)), int(m.group(3))
        else:
            cond = int(m.group(2))
            base, t = ctx.p, 0
            while cond % ctx.p == 0 and cond > 1:
                cond //= ctx.p
                t += 1
            if cond != 1:
                raise UsageError(f"conductor in {spec!r} is not a power of p = {ctx.p}")
        if base != ctx.p:
            raise UsageError(f"conductor base {base} differs from p = {ctx.p}")
        # a slope r / (p^(t-2) (p-1) den) reduces by at most the p-part of its
        # printable numerator r < 10^digits, so no nonzero slope prints once
        # p^(t-2) >= 2^(8 digits) > 10^(2 digits); Python < 3.10.7 has no limit
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if digits and (t - 2) * (ctx.p.bit_length() - 1) >= 8 * digits:
            raise UsageError(f"conductor exponent t = {t} in {spec!r} is too large to print slopes at")
        return CharClassical(k, t)
    m = re.fullmatch(r"eta8:(\d+)", spec)
    if m:
        return EtaEight(int(m.group(1)))
    m = re.fullmatch(r"w:(-?\d+):prec=(\d+)(?::eps=(\d+))?", spec)
    if m:
        residue = int(m.group(3)) if m.group(3) is not None else None
        return ExplicitW(int(m.group(1)), int(m.group(2)), residue)
    raise UsageError(f"cannot parse weight specification {spec!r}")


def _context(args) -> PrimeContext:
    return PrimeContext(args.p, args.N)


def _cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("GHOST_CAP")
        if not env:
            return DEFAULT_CAP
        try:
            cap, source = int(env), "GHOST_CAP"
        except ValueError:
            raise UsageError(f"GHOST_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise UsageError(f"{source} must be at least 1, got {cap}")
    return cap


def _seed(args, ctx: PrimeContext) -> Weight2SeedSlopes | None:
    if not getattr(args, "modified", False):
        if getattr(args, "seed", None):
            raise UsageError("--seed needs --modified")
        return None
    if ctx.p != 2:
        raise UsageError("--modified applies only to p = 2")
    _need("modified")
    if getattr(args, "seed", None):
        seed = load_seed(args.seed)
        if seed.N != ctx.N:
            raise UsageError(f"seed file is for N = {seed.N}, not N = {ctx.N}")
        return seed
    return bundled_seed(ctx.N)


# ---------------------------------------------------------------------------
# subcommands

def _mode_slopes(args, ctx: PrimeContext, seed, weight: WeightPoint) -> SlopeList:
    """The slopes a ``slopes`` or ``compare`` request asks for in its --mode."""
    if args.mode == "overconvergent":
        if args.count is None:
            raise UsageError("--count is required in overconvergent mode")
        return ghost_slopes(ctx, weight, args.count, seed=seed, cap=_cap(args))
    if not isinstance(weight, Classical):
        raise UsageError(f"mode {args.mode!r} needs a classical weight k=<int>")
    return classical_ghost_slopes(ctx, weight.k, args.mode, seed=seed, cap=_cap(args))


def _cmd_slopes(args) -> int:
    ctx = _context(args)
    seed = _seed(args, ctx)
    slopes = _mode_slopes(args, ctx, seed, parse_weight(args.weight, ctx))
    if args.format == "csv":
        print("index,slope,certified")
        for j, s in enumerate(slopes.slopes, start=1):
            print(f"{j},{s},{str(j <= slopes.certified_count).lower()}")
    else:
        _write_slopes(sys.stdout.write, slopes)
        sys.stdout.write("\n")
    return 0


def _cmd_series(args) -> int:
    ctx = _context(args)
    seed = _seed(args, ctx)
    series = GhostSeries(ctx, ComponentLabel(args.component, ctx.p), seed)
    if args.up_to < 0:
        raise UsageError("--up-to must be at least 0")
    write = sys.stdout.write
    for i, zeros in enumerate(series.divisors(args.up_to), start=1):
        # the line json.dumps({"i", "lambda", "zeros": [{"type", "k", "mult"}, ...]}) prints
        items = ", ".join([f'{{"type": "{_ZERO_TYPES[kind]}", "k": {k}, "mult": {m}}}' for kind, k, m in zeros])
        write(f'{{"i": {i}, "lambda": {sum([m for _, _, m in zeros])}, "zeros": [{items}]}}\n')
    return 0


def _cmd_dims(args) -> int:
    import json
    ctx = _context(args)
    inv_n = gamma0_invariants(ctx.N)
    inv_np = gamma0_invariants(ctx.N * ctx.p)

    table = []
    include_eta8 = ctx.p == 2 and ctx.N % 2 == 1
    for k in range(2, args.k_max + 1, 2):
        row = {
            "k": k,
            "dim_tame": dim_cusp_gamma0(ctx.N, k),
            "dim_level_Np": dim_cusp_gamma0(ctx.N * ctx.p, k),
            "dim_pnew": dim_pnew(ctx, k),
        }
        if include_eta8:
            row["dim_eta8"] = dim_cusp_eta8(ctx.N, k, 1)
        table.append(row)
    doc = {
        "command": "dims",
        "p": ctx.p,
        "N": ctx.N,
        "invariants": {"tame": inv_n._asdict(), "full": inv_np._asdict()},
        "dimensions": table,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_boundary(args) -> int:
    _need("boundary")
    ctx = _context(args)
    seed = _seed(args, ctx)
    eps = ComponentLabel(args.component, ctx.p)
    cap = _cap(args)
    if args.ap:  # the progression arguments are checked before any slope is computed
        if (args.n_ap is None) != (args.delta is None):
            raise UsageError("--n-ap and --delta must be supplied together")
        if args.n_ap is not None:
            n_ap, delta = args.n_ap, args.delta
        else:
            n_ap, delta = ap_parameters(ctx)
        check_ap_counts(n_ap, args.burn_in_max)
    result = boundary_polygon(ctx, eps, args.count, seed=seed, cap=cap)
    ap_report = ""
    if args.ap:
        slopes, total = result.slopes.slopes, len(result.slopes)
        if total <= n_ap:
            raise GhostError(f"insufficient certified slopes: have {total}, need more than {n_ap}")
        if result.shear is not None and result.shear[:2] == (n_ap, delta):
            slopes = slopes[: result.shear[3]]  # the shear settles every position from start - q on
        burn = scan_burn_in(slopes, n_ap, delta, args.burn_in_max)
        verified = burn is not None and burn + n_ap < total  # and the burn-in leaves a step to check
        found = '    "burn_in": %d,\n    "verified_through": %d,\n' % (burn, total) if verified else ""
        ap_report = _AP_REPORT % (n_ap, delta, found, "true" if verified else "false")
    # the document json.dumps(..., indent=2) prints, with the slopes streamed
    write = sys.stdout.write
    write(
        '{\n  "command": "boundary",\n  "p": %d,\n  "N": %d,\n  "component": %d,\n  "modified": %s,\n  "slopes": '
        % (ctx.p, ctx.N, eps.residue, "true" if seed is not None else "false")
    )
    _write_slopes(write, result.slopes, "  ")
    write(ap_report + "\n}\n")
    return 0


def _halo_csv(profile, n: int) -> str:
    lines = ["v," + ",".join(f"s{t}" for t in range(1, n + 1))]
    for v, slopes in profile.rows:
        lines.append(",".join([str(v)] + [str(s) for s in slopes.slopes]))
    return "\n".join(lines) + "\n"


def _cmd_halo(args) -> int:
    from pathlib import Path
    _need("boundary")
    ctx = _context(args)
    seed = _seed(args, ctx)
    intervals = args.interval or [0]
    if len(intervals) > 1 and not args.out_dir:
        raise UsageError("--out-dir is required when sampling several intervals")
    for r in intervals:
        profile = halo_profile(
            ctx, args.center, r, samples=args.samples, n=args.count, seed=seed, cap=_cap(args)
        )
        text = _halo_csv(profile, args.count)
        if args.out_dir:
            path = Path(args.out_dir) / f"halo_c{args.center}_r{r}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
        else:
            sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# fixture comparison

class ComparisonReport(Record):
    # diffs holds (index, expected, computed) triples
    __slots__ = ("fixture", "computed", "compared", "diffs", "first_mismatch", "truncated")

    @property
    def match(self) -> bool:
        return self.first_mismatch is None


def _fixture_slopes(fixture: dict, fixture_name: str) -> list[Fraction]:
    """The slopes a fixture lists, as exact rationals."""
    try:
        return [Fraction(json_int(s["num"]), json_int(s["den"])) for s in fixture["slopes"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{fixture_name}: malformed fixture: {exc}") from exc


def compare(fixture: dict, computed: SlopeList, fixture_name: str = "<fixture>") -> ComparisonReport:
    """Exact rational comparison of computed slopes against a fixture list."""
    expected = _fixture_slopes(fixture, fixture_name)
    compared = min(len(expected), len(computed))
    truncated = None
    if len(expected) < len(computed):
        truncated = f"fixture lists {len(expected)} slopes; compared that prefix"
    elif len(expected) > len(computed):
        truncated = f"computed {len(computed)} slopes; compared that prefix"
    diffs = tuple((j + 1, expected[j], computed[j]) for j in range(compared))
    first_mismatch = None
    for j in range(compared):
        if expected[j] != computed[j]:
            first_mismatch = j
            break
    return ComparisonReport(fixture_name, computed, compared, diffs, first_mismatch, truncated)


def _cmd_compare(args) -> int:
    import json
    ctx = _context(args)
    seed = _seed(args, ctx)
    weight = parse_weight(args.weight, ctx)
    with open(args.fixture, "r", encoding="utf-8") as handle:
        try:
            fixture = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise UsageError(f"{args.fixture}: not valid JSON: {exc}") from exc
    _fixture_slopes(fixture, args.fixture)  # a malformed fixture fails before any slope is computed
    computed = _mode_slopes(args, ctx, seed, weight)
    report = compare(fixture, computed, args.fixture)
    doc = {
        "command": "compare",
        "fixture": args.fixture,
        "description": fixture.get("description", ""),
        "source": fixture.get("source", ""),
        "match": report.match,
        "compared": report.compared,
        "first_mismatch": report.first_mismatch,
        "truncated": report.truncated,
        "diffs": [
            {"index": j, "expected": _rat(e), "computed": _rat(c), "equal": e == c}
            for j, e, c in report.diffs
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0 if report.match else 1


# ---------------------------------------------------------------------------
# parser and dispatch

def _add_common(sub, modified: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="the prime p")
    sub.add_argument("--N", type=int, default=1, help="tame level N coprime to p")
    sub.add_argument("--cap", type=int, default=None, help="truncation degree cap (default 10000, env GHOST_CAP)")
    if modified:
        sub.add_argument("--modified", action="store_true", help="use the modified p=2 series")
        sub.add_argument("--seed", type=str, default=None, help="weight-2 slope seed file (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostseries",
        description="Exact slope predictions from the ghost series: Newton polygons, "
        "boundary polygons and halo profiles, all in exact rational arithmetic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("slopes", help="slopes of the Newton polygon at a weight")
    _add_common(sp)
    sp.add_argument("--weight", required=True, help="weight spec, e.g. k=0 or annulus:0:1/2")
    sp.add_argument("--count", type=int, default=None, help="number of slopes")
    sp.add_argument("--mode", choices=["tame", "full", "overconvergent"], default="overconvergent")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=_cmd_slopes)

    sp = subs.add_parser("series", help="coefficient divisors as JSON lines")
    _add_common(sp)
    sp.add_argument("--up-to", type=int, required=True, help="largest coefficient index")
    sp.add_argument("--component", type=int, default=0, help="even residue mod p-1")
    sp.set_defaults(func=_cmd_series)

    sp = subs.add_parser("dims", help="dimension tables and curve invariants")
    _add_common(sp, modified=False)
    sp.add_argument("--k-max", type=int, default=30)
    sp.set_defaults(func=_cmd_dims)

    sp = subs.add_parser("boundary", help="w-adic slopes of the boundary polygon")
    _add_common(sp)
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--component", type=int, default=0)
    sp.add_argument("--ap", action="store_true", help="attach an arithmetic-progression report (odd p)")
    sp.add_argument("--burn-in-max", type=int, default=100)
    sp.add_argument("--n-ap", type=int, default=None, help="override the progression count")
    sp.add_argument("--delta", type=int, default=None, help="override the common difference")
    sp.set_defaults(func=_cmd_boundary)

    sp = subs.add_parser("halo", help="slope rows over annuli r < v < r+1 as CSV")
    _add_common(sp)
    sp.add_argument("--center", type=int, default=0, help="even integer center k0")
    sp.add_argument("--interval", type=int, action="append", help="interval r (repeatable)")
    sp.add_argument("--samples", type=int, default=3)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--out-dir", type=str, default=None, help="write one CSV per interval here")
    sp.set_defaults(func=_cmd_halo)

    sp = subs.add_parser("compare", help="compare computed slopes against a fixture file")
    _add_common(sp)
    sp.add_argument("--fixture", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--mode", choices=["tame", "full", "overconvergent"], default="overconvergent")
    sp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (PrecisionError, CertificationError, ExternalDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ComponentMismatch, GhostError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
