"""Command-line surface: exact JSON/CSV emission for every computation.

Exit codes: 0 success, 1 comparison mismatch, 2 usage error, 3 certification/
precision/external-data failure or a request that does not fit in memory.
Rationals are always serialized as {"num", "den"} integer pairs, never as floats.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace

from .dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from .errors import CertificationError, ExternalDataError, GhostError, PrecisionError
from .polygon import DEFAULT_CAP, SlopeList, classical_ghost_slopes, ghost_slopes
from .record import json_int
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
    padic_valuation,
)

# the names cli reads from the modules only some subcommands run; _need binds each
# on first use, or on a read from outside, and keeps one already bound (a wrapper);
# ap_check is tracer-pinned: cli does not call it, but perfbench/tracer.py wraps cli.ap_check
_LAZY = {
    "boundary": ("ap_check", "ap_parameters", "boundary_polygon", "check_ap_counts", "halo_profile", "scan_burn_in"),
    "modified": ("bundled_seed", "load_seed", "modified_coefficient"),
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


_BURN_IN_MAX = 100  # the largest burn-in a `boundary --ap` report scans when --burn-in-max names none
_ZERO_TYPES = {Classical: "classical", EtaEight: "eta8"}  # the "type" of a zero in `series` output

# one slope entry, {"index", "slope": {"num", "den"}, "certified": true}, laid out as by json.dumps(indent=2);
# every slope is certified, since a request that cannot certify fails
_SLOPE_ENTRY = '{\n  "index": %d,\n  "slope": {\n    "num": %d,\n    "den": %d\n  },\n  "certified": true\n}'
# the "ap_report" of a boundary document, laid out likewise; n_ap and delta are ints
_AP_REPORT = ',\n  "ap_report": {\n    "n_ap": %d,\n    "delta": {\n      "num": %d,\n      "den": 1\n    },\n%s    "verified": %s\n  }'
# one row of the "dimensions" of a dims document, likewise, its "dim_eta8" (p = 2, odd N) in %s
_DIMS_ROW = '    {\n      "k": %d,\n      "dim_tame": %d,\n      "dim_level_Np": %d,\n      "dim_pnew": %d%s\n    }'
_DIMS_ETA8 = ',\n      "dim_eta8": %d'


def _write_slopes(write, slopes: SlopeList, indent: str = "") -> None:
    """Write the slope entries as the JSON array json.dumps(..., indent=2)
    prints at the nesting ``indent``, one ``write`` call per 4,096 entries."""
    if not slopes:
        write("[]")
        return
    pad = indent + "  "
    entry = pad + _SLOPE_ENTRY.replace("\n", "\n" + pad)
    sep = "[\n"
    for lo in range(0, len(slopes), 4096):
        nums = slopes.nums[lo : lo + 4096]
        row = [0, 0, 0] * len(nums)  # index, num, den of every entry: one % for the chunk
        row[0::3], row[1::3], row[2::3] = range(lo + 1, lo + len(nums) + 1), nums, slopes.dens[lo : lo + 4096]
        write(sep + ",\n".join([entry] * len(nums)) % tuple(row))
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
            base, t = ctx.p, padic_valuation(cond or 1, ctx.p)  # 0 is refused below: 0 != p^0
            if cond != base ** t:
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


def _cap(args) -> int | None:
    """The --cap of a request, refused below 1 before any degree is read."""
    if args.cap is not None and args.cap < 1:
        raise UsageError(f"--cap must be at least 1, got {args.cap}")
    return args.cap


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
    if args.count is not None:
        raise UsageError(f"mode {args.mode!r} takes no --count: it counts the classical slopes")
    return classical_ghost_slopes(ctx, weight.k, args.mode, seed=seed, cap=_cap(args))


def _cmd_slopes(args, ctx: PrimeContext, seed) -> int:
    slopes = _mode_slopes(args, ctx, seed, parse_weight(args.weight, ctx))
    if args.format == "csv":
        print("index,slope,certified")
        for j, (a, d) in enumerate(zip(slopes.nums, slopes.dens), start=1):
            print(f"{j},{a},true" if d == 1 else f"{j},{a}/{d},true")  # as str(Fraction) prints a/d
    else:
        _write_slopes(sys.stdout.write, slopes)
        sys.stdout.write("\n")
    return 0


def _cmd_series(args, ctx: PrimeContext, seed) -> int:
    series = GhostSeries(ctx, ComponentLabel(args.component, ctx.p), seed)
    if args.up_to < 0:
        raise UsageError("--up-to must be at least 0")
    write, lam = sys.stdout.write, series.lam_upto(args.up_to)
    for i, zeros in enumerate(map(series.divisor, range(1, args.up_to + 1)), start=1):
        # the line json.dumps({"i", "lambda", "zeros": [{"type", "k", "mult"}, ...]}) prints
        items = ", ".join([f'{{"type": "{_ZERO_TYPES[kind]}", "k": {k}, "mult": {m}}}' for kind, k, m in zeros])
        write(f'{{"i": {i}, "lambda": {lam[i]}, "zeros": [{items}]}}\n')
    return 0


def _cmd_dims(args, ctx: PrimeContext, seed) -> int:
    import json
    N, M = ctx.N, ctx.N * ctx.p
    doc = {
        "command": "dims",
        "p": ctx.p,
        "N": N,
        "invariants": {"tame": gamma0_invariants(N)._asdict(), "full": gamma0_invariants(M)._asdict()},
        "dimensions": [],
    }
    # the document json.dumps(..., indent=2) prints, with the rows streamed
    write, sep = sys.stdout.write, "[\n"
    write(json.dumps(doc, indent=2)[: -len("[]\n}")])
    eta8 = ctx.p == 2 and N % 2 == 1
    for k in range(2, args.k_max + 1, 2):
        extra = _DIMS_ETA8 % dim_cusp_eta8(N, k, 1) if eta8 else ""
        write(sep + _DIMS_ROW % (k, dim_cusp_gamma0(N, k), dim_cusp_gamma0(M, k), dim_pnew(ctx, k), extra))
        sep = ",\n"
    write("\n  ]\n}\n" if sep == ",\n" else "[]\n}\n")  # an empty table stays "[]"
    return 0


def _cmd_boundary(args, ctx: PrimeContext, seed) -> int:
    _need("boundary")
    eps = ComponentLabel(args.component, ctx.p)
    cap = _cap(args)
    if args.ap:  # the progression arguments are checked before any slope is computed
        if (args.n_ap is None) != (args.delta is None):
            raise UsageError("--n-ap and --delta must be supplied together")
        if args.n_ap is not None:
            n_ap, delta = args.n_ap, args.delta
        else:
            n_ap, delta = ap_parameters(ctx)
        burn_in_max = _BURN_IN_MAX if args.burn_in_max is None else args.burn_in_max
        check_ap_counts(n_ap, burn_in_max)
    elif (args.n_ap, args.delta, args.burn_in_max) != (None, None, None):
        raise UsageError("--n-ap, --delta and --burn-in-max need --ap")
    result = boundary_polygon(ctx, eps, args.count, seed=seed, cap=cap)
    ap_report = ""
    if args.ap:
        total = end = len(result.slopes)
        if total <= n_ap:
            raise GhostError(f"insufficient certified slopes: have {total}, need more than {n_ap}")
        if result.shear is not None and result.shear[:2] == (n_ap, delta):
            end = result.shear[3]  # the shear settles every position from start - q on
        head = SlopeList(result.slopes.nums[:end], result.slopes.dens[:end])
        burn = scan_burn_in(head, n_ap, delta, burn_in_max)
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


def _cmd_halo(args, ctx: PrimeContext, seed) -> int:
    from pathlib import Path
    _need("boundary")
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

def _cmd_compare(args, ctx: PrimeContext, seed) -> int:
    import json
    weight = parse_weight(args.weight, ctx)
    with open(args.fixture, "r", encoding="utf-8") as handle:
        try:
            fixture = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise UsageError(f"{args.fixture}: not valid JSON: {exc}") from exc
    try:  # a malformed fixture fails before any slope is computed
        expected = [Fraction(json_int(s["num"]), json_int(s["den"])) for s in fixture["slopes"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{args.fixture}: malformed fixture: {exc}") from exc
    computed = _mode_slopes(args, ctx, seed, weight).slopes
    pairs = list(zip(expected, computed))  # the common prefix, compared exactly
    truncated = None
    if len(expected) < len(computed):
        truncated = f"fixture lists {len(expected)} slopes; compared that prefix"
    elif len(expected) > len(computed):
        truncated = f"computed {len(computed)} slopes; compared that prefix"
    first_mismatch = next((j for j, (e, c) in enumerate(pairs) if e != c), None)
    doc = {
        "command": "compare",
        "fixture": args.fixture,
        "description": fixture.get("description", ""),
        "source": fixture.get("source", ""),
        "match": first_mismatch is None,
        "compared": len(pairs),
        "first_mismatch": first_mismatch,
        "truncated": truncated,
        "diffs": [
            {"index": j, "expected": _rat(e), "computed": _rat(c), "equal": e == c}
            for j, (e, c) in enumerate(pairs, start=1)
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0 if first_mismatch is None else 1


# ---------------------------------------------------------------------------
# parser and dispatch

_PRIME = (  # the options of every subcommand
    ("--p", dict(type=int, required=True, help="the prime p")),
    ("--N", dict(type=int, default=1, help="tame level N coprime to p")),
)
_SEED = (  # and of every subcommand but dims
    ("--modified", dict(action="store_true", help="use the modified p=2 series")),
    ("--seed", dict(type=str, default=None, help="weight-2 slope seed file (JSON)")),
)
_CAPPED = _PRIME + (  # and the cap, of the subcommands that certify slopes
    ("--cap", dict(type=int, default=None, help=f"truncation degree cap (default {DEFAULT_CAP})")),
) + _SEED
_MODE = ("--mode", dict(choices=["tame", "full", "overconvergent"], default="overconvergent"))

# each subcommand once: its help, its handler and its options in --help order
_COMMANDS = {
    "slopes": ("slopes of the Newton polygon at a weight", _cmd_slopes, _CAPPED + (
        ("--weight", dict(required=True, help="weight spec, e.g. k=0 or annulus:0:1/2")),
        ("--count", dict(type=int, default=None, help="number of slopes")),
        _MODE,
        ("--format", dict(choices=["json", "csv"], default="json")),
    )),
    "series": ("coefficient divisors as JSON lines", _cmd_series, _PRIME + _SEED + (
        ("--up-to", dict(type=int, required=True, help="largest coefficient index")),
        ("--component", dict(type=int, default=0, help="even residue mod p-1")),
    )),
    "dims": ("dimension tables and curve invariants", _cmd_dims, _PRIME + (
        ("--k-max", dict(type=int, default=30)),
    )),
    "boundary": ("w-adic slopes of the boundary polygon", _cmd_boundary, _CAPPED + (
        ("--count", dict(type=int, default=50)),
        ("--component", dict(type=int, default=0)),
        ("--ap", dict(action="store_true", help="attach an arithmetic-progression report")),
        ("--burn-in-max", dict(type=int, help=f"with --ap: largest burn-in scanned (default {_BURN_IN_MAX})")),
        ("--n-ap", dict(type=int, default=None, help="override the progression count")),
        ("--delta", dict(type=int, default=None, help="override the common difference")),
    )),
    "halo": ("slope rows over annuli r < v < r+1 as CSV", _cmd_halo, _CAPPED + (
        ("--center", dict(type=int, default=0, help="even integer center k0")),
        ("--interval", dict(type=int, action="append", help="interval r (repeatable)")),
        ("--samples", dict(type=int, default=3)),
        ("--count", dict(type=int, default=20)),
        ("--out-dir", dict(type=str, default=None, help="write one CSV per interval here")),
    )),
    "compare": ("compare computed slopes against a fixture file", _cmd_compare, _CAPPED + (
        ("--fixture", dict(required=True)),
        ("--weight", dict(required=True)),
        ("--count", dict(type=int, default=None)),
        _MODE,
    )),
}


def build_parser():
    """The argparse parser of every subcommand; ``main`` builds it only for
    help and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ghostseries",
        description="Exact slope predictions from the ghost series: Newton polygons, "
        "boundary polygons and halo profiles, all in exact rational arithmetic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # each subcommand's parser, whose usage lists the options it takes
    for name, (help_text, handler, options) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp.set_defaults(func=handler)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read from ``_COMMANDS``,
    for argv that argparse reads the same way: a subcommand, then its exact
    option strings, each value one that argparse cannot take for an option.
    None for anything else (help, abbreviations, ``--opt=value``, an unknown,
    missing or bad option or value); argparse then parses and reports it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    spec = {flag: (flag.lstrip("-").replace("-", "_"), kwargs) for flag, kwargs in options}
    values = {dest: kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
              for dest, kwargs in spec.values()}
    seen, tokens = set(), iter(argv[1:])
    for flag in tokens:
        if flag not in spec:
            return None
        seen.add(flag)
        dest, kwargs = spec[flag]
        action = kwargs.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(tokens, None)
        # argparse takes a value starting with "-" for an option, unless it reads as a negative number
        if value is None or value.startswith("-") and not value[1:].isdecimal():
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = (values[dest] or []) + [value] if action == "append" else value
    if any(kwargs.get("required") and flag not in seen for flag, kwargs in options):
        return None
    return SimpleNamespace(command=argv[0], func=handler, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            parser = build_parser()
            args, extra = parser.parse_known_args(argv)
            if extra:  # refused under the subcommand's usage, not the top-level one
                parser.commands[args.command].error("unrecognized arguments: " + " ".join(extra))
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
    try:
        ctx = PrimeContext(args.p, args.N)
        code = args.func(args, ctx, _seed(args, ctx))
        sys.stdout.flush()  # so that buffered output meets a closed pipe here too
        return code
    except MemoryError:
        print("error: the request does not fit in memory", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone: the rest of the output, flushed at exit, goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a writer killed by the signal
    except (PrecisionError, CertificationError, ExternalDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GhostError, ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run ``main`` as a process and end it without the interpreter's teardown,
    which frees every object and module and writes nothing a reader sees."""
    code = main()
    atexit._run_exitfuncs()  # the handlers a normal exit runs, in its order, before the streams
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a failed flush is reported as a normal exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
