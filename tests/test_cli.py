import ast
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostseries.cli
from ghostseries.boundary import ap_check, ap_parameters, boundary_polygon, scan_burn_in
from ghostseries.cli import _COMMANDS, UsageError, _plain_args, build_parser, main, parse_weight
from ghostseries.dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from ghostseries.errors import GhostError
from ghostseries.modified import bundled_seed
from ghostseries.polygon import classical_ghost_slopes, ghost_slopes
from ghostseries.series import GhostSeries
from ghostseries.weightspace import (
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
)
from oracle import ap_report_reference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_weight_grammar():
    ctx = PrimeContext(5, 1)
    assert parse_weight("k=-14", ctx) == Classical(-14)
    assert parse_weight("annulus:0:5/2", PrimeContext(2, 1)) == Annulus(0, Fraction(5, 2))
    assert parse_weight("char:2:25", ctx) == CharClassical(2, 2)
    assert parse_weight("char:2:5^3", ctx) == CharClassical(2, 3)
    assert parse_weight("eta8:4", PrimeContext(2, 3)) == EtaEight(4)
    assert parse_weight("w:20:prec=8", PrimeContext(2, 1)) == ExplicitW(20, 8)
    assert parse_weight("w:20:prec=8:eps=2", ctx) == ExplicitW(20, 8, 2)
    with pytest.raises(ValueError):
        parse_weight("nonsense", ctx)
    with pytest.raises(ValueError):
        parse_weight("char:2:24", ctx)


def test_slopes_command(capsys):
    code, out = run(capsys, ["slopes", "--p", "2", "--N", "1", "--weight", "k=0", "--count", "3"])
    assert code == 0
    doc = json.loads(out)
    assert [s["slope"] for s in doc] == [
        {"num": 3, "den": 1},
        {"num": 7, "den": 1},
        {"num": 13, "den": 1},
    ]
    assert [s["index"] for s in doc] == [1, 2, 3]
    assert all(s["certified"] for s in doc)


def test_slopes_roundtrip_and_determinism(capsys):
    argv = ["slopes", "--p", "2", "--N", "1", "--weight", "annulus:0:5/2", "--count", "4"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    slopes = [Fraction(s["slope"]["num"], s["slope"]["den"]) for s in doc]
    assert slopes == [Fraction(5, 2), 5, Fraction(15, 2), 10]


def test_slopes_csv_format(capsys):
    argv = [
        "slopes", "--p", "2", "--N", "1", "--weight", "annulus:0:1/2",
        "--count", "3", "--format", "csv",
    ]
    code, out = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == [
        "index,slope,certified",
        "1,1/2,true",
        "2,1,true",
        "3,3/2,true",
    ]


def test_series_command(capsys):
    code, out = run(capsys, ["series", "--p", "2", "--N", "1", "--up-to", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0] == {"i": 1, "lambda": 1, "zeros": [{"type": "classical", "k": 14, "mult": 1}]}
    assert lines[1]["lambda"] == 3


def test_series_modified(capsys):
    code, out = run(capsys, ["series", "--p", "2", "--N", "3", "--modified", "--up-to", "1"])
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert {"type": "eta8", "k": 2, "mult": 1} in doc["zeros"]


def test_dims_command(capsys):
    code, out = run(capsys, ["dims", "--p", "2", "--N", "3", "--k-max", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["tame"]["index"] == 4
    assert doc["dimensions"][0]["dim_eta8"] == 2
    assert doc["dimensions"][1] == {
        "k": 4, "dim_tame": 0, "dim_level_Np": 1, "dim_pnew": 1, "dim_eta8": 10,
    }


def test_boundary_command_with_ap(capsys):
    code, out = run(
        capsys,
        ["boundary", "--p", "3", "--N", "1", "--count", "120", "--ap"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ap_report"]["verified"] is True
    assert doc["ap_report"]["n_ap"] == 1
    assert doc["ap_report"]["delta"] == {"num": 2, "den": 1}


def test_boundary_command_user_supplied_ap(capsys):
    # the identity also holds with doubled parameters (unions of unions)
    code, out = run(
        capsys,
        [
            "boundary", "--p", "3", "--N", "1", "--count", "120", "--ap",
            "--n-ap", "2", "--delta", "4",
        ],
    )
    assert code == 0
    assert json.loads(out)["ap_report"]["verified"] is True
    assert main(["boundary", "--p", "3", "--count", "20", "--ap", "--n-ap", "2"]) == 2


def test_ap_report_matches_the_full_scan(capsys, monkeypatch):
    # the report reads only the positions the shear did not settle; the reference reads every one
    polygons = {}

    def polygon(ctx, eps, n, seed=None, **kwargs):  # each polygon once, for all the report options
        if (ctx, eps, n, seed) not in polygons:
            polygons[ctx, eps, n, seed] = boundary_polygon(ctx, eps, n, seed=seed, **kwargs)
        return polygons[ctx, eps, n, seed]

    monkeypatch.setattr(ghostseries.cli, "boundary_polygon", polygon)
    scanned = []  # the number of slopes the report's scan was given
    monkeypatch.setattr(ghostseries.cli, "scan_burn_in", lambda *args: scanned.append(len(args[0])) or scan_burn_in(*args))
    parser = build_parser()
    cases = [
        (PrimeContext(p, N), ComponentLabel(residue, p), n, None)
        for p in (3, 5, 7, 11, 13)
        for N in range(1, 13)
        if N % p
        for residue in range(0, p - 1, 2)
        for n in (50, 300, 1500)
    ] + [(PrimeContext(5, 1), ComponentLabel(0, 5), 10_000, None)]
    cases += [(PrimeContext(2, N), ComponentLabel(0, 2), n, None) for N in range(1, 12, 2) for n in (50, 300, 1500)]
    cases += [(PrimeContext(2, 3), ComponentLabel(0, 2), n, bundled_seed(3)) for n in (50, 300, 1500)]
    settled = refused = 0
    for ctx, eps, n, seed in cases:
        q, delta = ap_parameters(ctx)
        argv = ["boundary", "--p", str(ctx.p), "--N", str(ctx.N), "--component", str(eps.residue), "--count", str(n)]
        argv += ["--modified"] if seed else []
        options = [(q, delta, m, []) for m in (0, 5, 100)]
        overrides = ((1, 8), (2 * q, 2 * delta), (q, delta), (1, 0), (q, delta + 1))
        options += [(a, d, 100, ["--n-ap", str(a), "--delta", str(d)]) for a, d in overrides]
        for n_ap, d, max_burn_in, extra in options:
            args = parser.parse_args(argv + ["--ap", "--burn-in-max", str(max_burn_in)] + extra)
            bp = polygon(ctx, eps, n, seed)
            proved = bp.shear is not None and bp.shear[:2] == (n_ap, d)
            try:
                expected = ap_report_reference(bp.slopes, n_ap, d, max_burn_in)
            except GhostError as exc:  # at most n_ap slopes: not one progression step
                with pytest.raises(GhostError) as raised:
                    ghostseries.cli._cmd_boundary(args, ctx, seed)
                assert str(raised.value) == str(exc) and not scanned
                refused += 1
            else:
                assert ghostseries.cli._cmd_boundary(args, ctx, seed) == 0
                out = capsys.readouterr().out
                report = json.loads("{" + out[out.rindex('\n  "ap_report": ') :])["ap_report"]
                assert report == expected, (ctx, eps, n, seed, extra)
                assert scanned.pop() == (bp.shear[3] if proved else len(bp.slopes))
            settled += proved
    assert len(cases) == 586 and 600 < settled < 8 * len(cases) and 0 < refused < 8 * len(cases)
    # too few slopes for one progression step: still refused, with exit 2
    assert main(["boundary", "--p", "5", "--count", "3", "--ap"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: insufficient certified slopes: have 3, need more than 5\n"
    # the last violation is at position 48 of 50: the least burn-in, 49, leaves no step to check
    code, out = run(capsys, ["boundary", "--p", "3", "--count", "50", "--ap", "--n-ap", "1", "--delta", "8"])
    assert code == 0 and json.loads(out)["ap_report"] == {"n_ap": 1, "delta": {"num": 8, "den": 1}, "verified": False}
    assert scan_burn_in(polygon(PrimeContext(3, 1), ComponentLabel(0, 3), 50).slopes, 1, 8, 100) == 49


def test_halo_command_stdout(capsys):
    code, out = run(
        capsys,
        ["halo", "--p", "2", "--N", "1", "--center", "0", "--interval", "0", "--count", "4"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,s1,s2,s3,s4"
    assert lines[1] == "1/4,1/4,1/2,3/4,1"
    assert lines[2] == "1/2,1/2,1,3/2,2"


def test_halo_command_files(tmp_path, capsys):
    code, _ = run(
        capsys,
        [
            "halo", "--p", "2", "--N", "1", "--center", "0",
            "--interval", "0", "--interval", "1",
            "--count", "3", "--out-dir", str(tmp_path),
        ],
    )
    assert code == 0
    for r in (0, 1):
        text = (tmp_path / f"halo_c0_r{r}.csv").read_text()
        assert text.startswith("v,s1,s2,s3\n")


def test_halo_multiple_intervals_need_out_dir(capsys):
    code = main(["halo", "--p", "2", "--N", "1", "--interval", "0", "--interval", "1"])
    assert code == 2


def test_halo_rows_not_affine_in_v_are_a_usage_error(capsys, monkeypatch):
    from test_boundary import fake_halo_rows
    monkeypatch.setattr("ghostseries.boundary.ghost_slopes", fake_halo_rows)
    assert main(["halo", "--p", "2", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: slope 1 is not affine in v on (0, 1) at center 0\n")


def test_compare_match_and_mismatch(tmp_path, capsys):
    fixture = FIXTURES / "annulus_half_2adic.json"
    code, out = run(
        capsys,
        [
            "compare", "--p", "2", "--N", "1", "--fixture", str(fixture),
            "--weight", "annulus:0:1/2", "--count", "10",
        ],
    )
    assert code == 0
    assert json.loads(out)["match"] is True

    wrong = dict(json.loads(fixture.read_text()))
    wrong["slopes"] = list(wrong["slopes"])
    wrong["slopes"][4] = {"num": 99, "den": 1}
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(wrong))
    code, out = run(
        capsys,
        [
            "compare", "--p", "2", "--N", "1", "--fixture", str(bad),
            "--weight", "annulus:0:1/2", "--count", "10",
        ],
    )
    assert code == 1
    assert json.loads(out)["first_mismatch"] == 4


@pytest.mark.parametrize(
    "entry", [{"num": 1.7, "den": 2}, {"num": 1, "den": 2.0}, {"num": True, "den": 2}, {"num": 1, "den": False}]
)
def test_compare_refuses_inexact_fixture_entries(tmp_path, capsys, entry):
    # int() would truncate 1.7 to 1, and 1/2 would then match the computed slope
    fixture = tmp_path / "inexact.json"
    fixture.write_text(json.dumps({"slopes": [entry]}))
    assert main(["compare", "--p", "2", "--fixture", str(fixture), "--weight", "k=0", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {fixture}: malformed fixture: expected an integer, got ")


@pytest.mark.parametrize(
    "content, text",
    [
        (b"", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe{", "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["empty", "not-utf8"],
)
def test_compare_errors_name_the_fixture(tmp_path, capsys, content, text):
    fixture = tmp_path / "fixture.json"
    fixture.write_bytes(content)
    assert main(["compare", "--p", "2", "--fixture", str(fixture), "--weight", "k=0", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {fixture}: {text}")


def test_compare_prefix_truncation(tmp_path, capsys):
    # at p = 2, k = 0 the first slopes are 3, 7 and 13: the shorter list sets the prefix
    fixture = tmp_path / "prefix.json"
    fixture.write_text(json.dumps({"slopes": [{"num": 3, "den": 1}, {"num": 7, "den": 1}]}))
    for count, compared, truncated in ((3, 2, "fixture lists 2 slopes"), (1, 1, "computed 1 slopes")):
        argv = ["compare", "--p", "2", "--fixture", str(fixture), "--weight", "k=0", "--count", str(count)]
        code, out = run(capsys, argv)
        doc = json.loads(out)
        assert code == 0 and doc["match"] and doc["first_mismatch"] is None
        assert doc["compared"] == len(doc["diffs"]) == compared
        assert doc["truncated"] == truncated + "; compared that prefix"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(tmp_path, unbuffered):
    # `ghostseries boundary ... | head -c 100`: the reader leaves after 100 bytes
    # of about 2.4 MB; not a usage error, and no traceback at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ghostseries.cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "ghostseries", "boundary", "--p", "5", "--count", "20000", "--cap", "100000"]
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert (code, (tmp_path / "err").read_bytes()) == (141, b"")


def _fresh_process(args, tmp_path, code=None):
    """Exit code, stdout and stderr of a new interpreter running ``python -m
    ghostseries *args`` (or ``python -c code *args``), its stdout and stderr
    regular files in ``tmp_path``, so that stdout is block-buffered to the end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(ghostseries.cli.__file__).resolve().parents[1]), COLUMNS="80")
    command = ["-m", "ghostseries"] if code is None else ["-c", code]
    with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
        done = subprocess.run([sys.executable, *command, *args], stdout=out, stderr=err, env=env, timeout=120)
    return done.returncode, (tmp_path / "out").read_bytes().decode(), (tmp_path / "err").read_bytes().decode()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["boundary", "--p", "5", "--count", "20000", "--cap", "100000"], 0),
        (["slopes", "--help"], 0),
        (["compare", "--p", "2", "--fixture", "{tmp}/wrong.json", "--weight", "annulus:0:1/2", "--count", "10"], 1),
        (["slopes", "--p", "2", "--weight", "huh", "--count", "1"], 2),
        (["dims", "--p", "3", "--cap", "5"], 2),
        (["slopes", "--p", "2", "--weight", "k=0", "--count", "300", "--cap", "200"], 3),
        (["halo", "--p", "2", "--interval", "0", "--interval", "1", "--count", "3", "--out-dir", "{dir}"], 0),
    ],
    ids=["boundary", "help", "mismatch", "usage", "argparse-usage", "uncertified", "halo-files"],
)
def test_a_process_ends_with_every_byte_and_code_of_main(tmp_path, capsys, monkeypatch, argv, code):
    # the process skips the interpreter's teardown, yet a reader sees just what
    # an in-process main writes and returns
    wrong = json.loads((FIXTURES / "annulus_half_2adic.json").read_text())
    wrong["slopes"][4] = {"num": 99, "den": 1}
    (tmp_path / "wrong.json").write_text(json.dumps(wrong))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help and usage to the terminal
    seen = []
    for side in ("process", "main"):
        out_dir = tmp_path / side
        out_dir.mkdir()
        args = [a.replace("{dir}", str(out_dir)).replace("{tmp}", str(tmp_path)) for a in argv]
        done = _fresh_process(args, out_dir) if side == "process" else (main(args), *capsys.readouterr())
        files = {f.name: f.read_bytes() for f in out_dir.glob("halo_*.csv")}
        seen.append((done[0], done[1].replace(str(out_dir), "{dir}"), done[2], files))
    assert seen[0] == seen[1]
    assert seen[0][0] == code and seen[0][1 if code < 2 else 2]  # the answer, or the refusal
    assert len(seen[0][3]) == (2 if argv[0] == "halo" else 0)


def test_a_process_runs_its_exit_handlers_and_reports_a_crash(tmp_path):
    # an exit handler still runs, before the streams are flushed; an exception
    # that escapes main leaves by the interpreter's path: its traceback and exit 1
    request = ["slopes", "--p", "2", "--weight", "k=0", "--count", "3"]
    script = (
        "import atexit, sys\n"
        "import ghostseries.cli as cli\n"
        "atexit.register(print, 'exit handler ran')\n"
        "def crash(args, ctx, seed):\n"
        "    raise RuntimeError('handler crashed')\n"
        "if sys.argv.pop(1) == 'crash':\n"
        "    help_text, _, options = cli._COMMANDS['slopes']\n"
        "    cli._COMMANDS['slopes'] = (help_text, crash, options)\n"
        "cli.entrypoint()\n"
    )
    code, out, err = _fresh_process(["plain", *request], tmp_path, script)
    assert (code, err) == (0, "")
    assert out.endswith("]\nexit handler ran\n")
    assert json.loads(out.removesuffix("exit handler ran\n"))[2]["index"] == 3
    code, out, err = _fresh_process(["crash", *request], tmp_path, script)
    assert (code, out) == (1, "exit handler ran\n")
    assert err.startswith("Traceback") and err.endswith("RuntimeError: handler crashed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize(
    "argv, first",
    [
        (["slopes", "--help"], "Exception ignored "),
        (["slopes", "--p", "2", "--weight", "k=0", "--count", "3"], "usage error: "),
    ],
    ids=["help", "request"],
)
def test_a_failed_flush_at_exit_is_reported_by_the_interpreter(argv, first):
    # block-buffered stdout on a full device: the last flush fails, and the
    # interpreter's own exit reports it, with its exit status 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ghostseries.cli.__file__).resolve().parents[1])
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ghostseries", *argv],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60, text=True,
        )
    assert proc.returncode == 120 and proc.stderr.startswith(first), proc.stderr
    assert proc.stderr.endswith("OSError: [Errno 28] No space left on device\n") and "Traceback" not in proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits are checked on Linux")
@pytest.mark.parametrize(
    "limit_mb, argv",
    [
        (300, ["series", "--p", "2", "--up-to", "30000000"]),
        (150, ["slopes", "--p", "5", "--weight", "k=0", "--count", "2000000", "--cap", "100000000"]),
        (150, ["boundary", "--p", "5", "--count", "20000000", "--cap", "100000000"]),
    ],
    ids=["series", "slopes", "boundary"],
)
def test_a_request_that_does_not_fit_in_memory_exits_3(limit_mb, argv):
    # each limit is several times the interpreter's start-up size (about 20 MB):
    # the request fails in its arrays, not in imports
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(ghostseries.cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ghostseries", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, preexec_fn=limit, timeout=60, text=True,
    )
    assert proc.returncode == 3 and proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    if argv[0] == "series":
        assert "do not fit in memory" in proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["slopes", "--p", str(2**61 - 1), "--weight", "k=0", "--count", "3"], 3),
        (["dims", "--p", str(2**61 - 1), "--k-max", "6"], 0),
    ],
    ids=["slopes", "dims"],
)
def test_a_large_prime_fails_fast(argv, code):
    # trial division needed about 7.6e8 steps to prove 2^61 - 1 prime, and as many to factor N p
    env = dict(os.environ, PYTHONPATH=str(Path(ghostseries.cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ghostseries", *argv], capture_output=True, env=env, timeout=20, text=True
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error: could not certify 3 slopes within the degree cap 10000;")


_CANNOT_PROVE = (
    "usage error: cannot prove 618970019642690137449562111 prime: "
    "primality is decided only below 3317044064679887385961981\n"
)
_TWO_LARGE_PRIMES = (10**20 + 39) * (10**20 + 129)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["dims", "--p", "3", "--N", str((10**9 + 7) * (10**9 + 9)), "--k-max", "4"], 0, ""),
        (["dims", "--p", "3", "--N", str(2**89 - 1), "--k-max", "4"], 2, _CANNOT_PROVE),
        (["slopes", "--p", "2", "--N", str(2**89 - 1), "--weight", "k=0", "--count", "3"], 2, _CANNOT_PROVE),
        (
            ["dims", "--p", "3", "--N", str(_TWO_LARGE_PRIMES), "--k-max", "4"],
            2,
            f"usage error: cannot factor the level {_TWO_LARGE_PRIMES}: "
            f"Pollard's rho splits no factor off the composite {_TWO_LARGE_PRIMES}\n",
        ),
    ],
    ids=["two-primes", "dims-prime-above-bound", "slopes-prime-above-bound", "past-rho-budget"],
)
def test_a_large_level_fails_fast(argv, code, err):
    # a level is split by Pollard's rho and each factor proved prime, or refused: all within seconds
    env = dict(os.environ, PYTHONPATH=str(Path(ghostseries.cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ghostseries", *argv], capture_output=True, env=env, timeout=30, text=True
    )
    assert (proc.returncode, proc.stderr) == (code, err)


def test_exit_codes(capsys, tmp_path):
    # usage error: bad weight grammar
    assert main(["slopes", "--p", "2", "--weight", "huh", "--count", "1"]) == 2
    # usage error: modified with odd p
    assert main(["slopes", "--p", "3", "--weight", "k=0", "--count", "1", "--modified"]) == 2
    # certification failure maps to 3
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "40", "--cap", "12"]) == 3
    capsys.readouterr()
    # at a huge prime the degrees vanish far past the cap: the request fails there,
    # before any long degree array is read; at p = 5 with cap 10 no boundary base
    # certifies, so the 1000 slopes are tried directly, and fail
    for argv in (
        ["slopes", "--p", "1000000000039", "--weight", "k=0", "--count", "3"],
        ["boundary", "--p", "1000000000039", "--count", "300"],
        ["slopes", "--p", "1000000007", "--weight", "k=0", "--count", "3"],
        ["boundary", "--p", "5", "--count", "1000", "--cap", "10"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: could not certify "), argv
    assert captured.err.startswith("error: could not certify 1000 slopes within the degree cap 10; ")
    # an array past an index-sized int is a certification failure too
    assert main(["series", "--p", "2", "--up-to", "10000000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: the series arrays through index ")
    # precision failure maps to 3
    assert main(["slopes", "--p", "2", "--weight", "w:0:prec=2", "--count", "1"]) == 3
    # argparse usage failures exit 2
    assert main(["slopes", "--p", "2"]) == 2
    assert main([]) == 2
    capsys.readouterr()
    # a degree cap below 1 is a usage error that names the flag
    for cap in ("0", "-1"):
        argv = ["slopes", "--p", "2", "--weight", "k=0", "--count", "3", "--cap", cap]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --cap must be at least 1")
    # a prime above the bound of the deterministic primality test is a usage error that names it
    assert main(["slopes", "--p", str(2**89 - 1), "--weight", "k=0", "--count", "3"]) == 2
    assert capsys.readouterr().err == (
        f"usage error: cannot prove {2**89 - 1} prime: primality is decided only below 3317044064679887385961981\n"
    )
    # a p of more than 512 bits is refused before any exponentiation mod p: this
    # 4,000-digit p has no factor below 42, so is_prime would take seconds on it
    huge = 10**3999 + 3
    assert all(huge % a for a in range(2, 42))
    started = time.perf_counter()
    assert main(["slopes", "--p", str(huge), "--weight", "k=0", "--count", "3"]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        f"usage error: cannot prove {huge} prime: primality is decided only below 3317044064679887385961981\n"
    )
    # a negative --up-to is a usage error; --up-to 0 prints no row
    assert main(["series", "--p", "2", "--up-to", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --up-to must be at least 0\n"
    assert run(capsys, ["series", "--p", "2", "--up-to", "0"]) == (0, "")
    # a seed file without --modified is a usage error, not silently ignored
    assert main(["boundary", "--p", "2", "--N", "3", "--seed", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --seed needs --modified\n"
    # dims has no modified series: --modified and --seed are not its options
    assert main(["dims", "--p", "2", "--N", "3", "--k-max", "4", "--modified", "--seed", "/nonexistent.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --modified --seed /nonexistent.json" in captured.err
    # a zero denominator in a weight or a fixture is a usage error, not a crash
    assert main(["slopes", "--p", "2", "--weight", "annulus:0:1/0", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: cannot parse weight specification 'annulus:0:1/0'\n"
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"slopes": [{"num": 1, "den": 0}]}))
    assert main(["compare", "--p", "2", "--fixture", str(zero_den), "--weight", "k=0", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {zero_den}: malformed fixture: Fraction(1, 0)\n"
    # the fixture is read before any slope: a request that could not certify still names it
    argv = ["compare", "--p", "2", "--fixture", str(zero_den), "--weight", "k=0", "--count", "40", "--cap", "12"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {zero_den}: malformed fixture: Fraction(1, 0)\n"
    # progression arguments out of range are usage errors, checked before the burn-in scan
    for extra in (["--n-ap", "-2", "--delta", "2"], ["--n-ap", "0", "--delta", "2"], ["--burn-in-max", "-1"]):
        assert main(["boundary", "--p", "3", "--count", "5", "--ap", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: need n_ap >= 1 and burn_in >= 0\n"
    # ... and before the polygon, which here could not certify (exit 3)
    for argv, err in (
        (["--p", "5", "--n-ap", "3"], "--n-ap and --delta must be supplied together"),
        (["--p", "5", "--n-ap", "0", "--delta", "8"], "need n_ap >= 1 and burn_in >= 0"),
    ):
        assert main(["boundary", *argv, "--count", "10000", "--cap", "10", "--ap"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {err}\n"
    # a conductor base other than p is refused before any power of it is taken
    started = time.perf_counter()
    assert main(["slopes", "--p", "7", "--weight", "char:4:3^10000000", "--count", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: conductor base 3 differs from p = 7\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["slopes", "--p", "2", "--weight", "k=0"], "--count is required in overconvergent mode"),
        (
            ["slopes", "--p", "2", "--weight", "annulus:0:1/2", "--count", "3", "--mode", "tame"],
            "mode 'tame' needs a classical weight k=<int>",
        ),
        (["slopes", "--p", "2", "--weight", "k=0", "--count", "0"], "at least one slope must be requested"),
        (["slopes", "--p", "4", "--weight", "k=0", "--count", "3"], "p = 4 is not prime"),
        (["slopes", "--p", "2", "--weight", "char:4:2^3", "--count", "3"], "conductor-p^t weights are used only for odd p"),
        (["slopes", "--p", "3", "--weight", "w:3:prec=5:eps=1", "--count", "3"], "component residue must be even"),
        (["series", "--p", "5", "--component", "6", "--up-to", "3"], "residue 6 out of range mod 4"),
        (["slopes", "--p", "2", "--weight", "w:3:prec=5", "--count", "3"], "w0 = 3 is not in the open unit disc"),
        (["slopes", "--p", "1", "--weight", "k=0", "--count", "3"], "p = 1 is not prime"),
        (["slopes", "--p", "5", "--weight", "char:2:24", "--count", "3"], "conductor in 'char:2:24' is not a power of p = 5"),
        (["slopes", "--p", "5", "--weight", "char:2:0", "--count", "3"], "conductor in 'char:2:0' is not a power of p = 5"),
        (["series", "--p", "5", "--component", "1", "--up-to", "3"], "component residue must be even"),
        (["boundary", "--p", "7", "--component", "3", "--count", "3"], "component residue must be even"),
        # an option outside its mode is refused before any slope: the requests with --cap 10 would fail at the cap
        (
            ["slopes", "--p", "2", "--weight", "k=24", "--mode", "tame", "--count", "3"],
            "mode 'tame' takes no --count: it counts the classical slopes",
        ),
        (
            ["slopes", "--p", "2", "--weight", "k=400", "--mode", "full", "--count", "1", "--cap", "10"],
            "mode 'full' takes no --count: it counts the classical slopes",
        ),
        (
            ["compare", "--p", "2", "--fixture", str(FIXTURES / "annulus_half_2adic.json"), "--weight", "k=24",
             "--mode", "tame", "--count", "99"],
            "mode 'tame' takes no --count: it counts the classical slopes",
        ),
        (["boundary", "--p", "5", "--burn-in-max", "5"], "--n-ap, --delta and --burn-in-max need --ap"),
        (["boundary", "--p", "5", "--delta", "2"], "--n-ap, --delta and --burn-in-max need --ap"),
        (
            ["boundary", "--p", "5", "--count", "10000", "--cap", "10", "--n-ap", "3", "--delta", "2"],
            "--n-ap, --delta and --burn-in-max need --ap",
        ),
    ],
)
def test_usage_errors(capsys, argv, text):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {text}\n")


def test_unknown_format_is_an_argparse_error(capsys):
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3", "--format", "xml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err


def test_seed_file_matches_the_bundled_seed(tmp_path, capsys):
    seed = bundled_seed(3)
    path = tmp_path / "seed3.json"
    path.write_text(json.dumps({"N": seed.N, "weight2_slopes": [_rat(s) for s in seed.slopes]}))
    base = ["boundary", "--p", "2", "--N", "3", "--modified", "--count", "40"]
    code, bundled = run(capsys, base)
    assert code == 0
    assert run(capsys, base + ["--seed", str(path)]) == (0, bundled)
    # a seed file of another tame level is a usage error
    assert main(["boundary", "--p", "2", "--N", "5", "--modified", "--count", "40", "--seed", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: seed file is for N = 3, not N = 5\n")


@pytest.mark.parametrize("p", [10007, 100003])
def test_three_slopes_at_a_large_prime_read_few_degrees(capsys, monkeypatch, p):
    # each mark of the degree bound counts from its own start; the last start is
    # 100,129,208 at p = 10007 and about 3.3e9 at p = 100003
    reads = []
    lam_upto = GhostSeries.lam_upto
    monkeypatch.setattr(GhostSeries, "lam_upto", lambda self, upto: reads.append(upto) or lam_upto(self, upto))
    for argv in (["slopes", "--weight", "k=0", "--count", "3"], ["boundary", "--count", "3"]):
        assert run(capsys, argv[:1] + ["--p", str(p)] + argv[1:])[0] == 0
    assert 0 < max(reads) < 10**6


def test_conductor_exponent_bound(capsys, monkeypatch):
    # an exponent whose slopes could not be printed is refused before any power of p is taken
    started = time.perf_counter()
    assert main(["slopes", "--p", "7", "--weight", "char:4:7^1000000", "--count", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: conductor exponent t = 1000000 in 'char:4:7^1000000' is too large to print slopes at\n"
    # the bound: p^(t-2) >= 2^(8 * 4300) at p = 7 from t = 17202 on, past every printable slope
    ctx = PrimeContext(7)
    assert parse_weight("char:4:7^17201", ctx) == CharClassical(4, 17201)
    with pytest.raises(UsageError):
        parse_weight("char:4:7^17202", ctx)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)  # no limit: no bound
    assert parse_weight("char:4:7^1000000", ctx) == CharClassical(4, 1000000)
    monkeypatch.undo()
    # a large t whose slopes print is unchanged: the boundary slopes over 7^(t-2) * 6
    assert main(["slopes", "--p", "7", "--weight", "char:4:7^5089", "--count", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    boundary = boundary_polygon(ctx, ComponentLabel(4, 7), 3).slopes
    assert [Fraction(e["slope"]["num"], e["slope"]["den"]) for e in doc] == [s / (7**5087 * 6) for s in boundary]


def test_seed_file_errors_name_the_file(tmp_path, capsys):
    base = ["boundary", "--p", "2", "--N", "3", "--count", "3", "--modified", "--seed"]
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{N: 3")
    assert main(base + [str(not_json)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {not_json}: not valid JSON: ")
    missing_key = tmp_path / "missing_key.json"
    missing_key.write_text(json.dumps({"N": 3}))
    assert main(base + [str(missing_key)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {missing_key}: malformed seed file: 'weight2_slopes'\n"
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"N": 3, "weight2_slopes": [{"num": 1, "den": 0}, {"num": 1, "den": 2}]}))
    assert main(base + [str(zero_den)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {zero_den}: malformed seed file: Fraction(1, 0)\n"


@pytest.mark.parametrize("argv", [["dims", "--p", "3"], ["series", "--p", "3", "--up-to", "3"]], ids=["dims", "series"])
def test_a_cap_is_refused_where_no_slope_is_certified(capsys, argv):
    # dims and series certify nothing, so they take no --cap: argparse refuses it
    argv = argv + ["--cap", "5"]
    assert _plain_args(argv) is None
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --cap 5" in captured.err


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["dims", "--p", "3", "--cap", "5"], "--cap 5"),
        (["slopes", "--p", "2", "--weight", "k=0", "--bogus", "1"], "--bogus 1"),
        (["boundary", "--p", "5", "extra", "--count", "3"], "extra"),
    ],
    ids=["dims-cap", "slopes-bogus", "boundary-positional"],
)
def test_unknown_arguments_are_refused_under_the_subcommand_usage(capsys, monkeypatch, argv, extra):
    # the subcommand's usage lists the options it does take; the top-level one lists only subcommands
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: ghostseries {argv[0]} [-h] --p P [--N N]")
    assert captured.err.endswith(f"\nghostseries {argv[0]}: error: unrecognized arguments: {extra}\n")


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("slopes", "series", "dims", "boundary", "halo", "compare"):
        assert name in text


# ---------------------------------------------------------------------------
# the plain parse: argparse's namespace for well-formed argv, None otherwise

_PARSER = build_parser()
_NAMES = list(_COMMANDS)
_FLAGS = sorted({flag for _, _, options in _COMMANDS.values() for flag, _ in options})
_CHOICES = sorted({c for _, _, options in _COMMANDS.values() for _, kwargs in options for c in kwargs.get("choices", ())})
_ODD = ["-h", "--help", "--cou", "--p=2", "--", "-", ""]
_VALUES = ["0", "2", "-1", "-1.5", "+3", "1_0", "x", "k=0", "annulus:0:1/2", *_CHOICES, "xml"]
_TOKENS = _NAMES + _FLAGS + _ODD + _VALUES


def _argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_PARSER.parse_args(argv))
    except SystemExit:
        return None


def _chunk(flag, kwargs):
    """One option with a value that fits it or any token; a flag alone when it takes none."""
    if kwargs.get("action") == "store_true":
        return st.just((flag,))
    if "choices" in kwargs:
        fits = kwargs["choices"]
    elif kwargs.get("type") is int:
        fits = ["0", "2", "-1", "+3", "1_0"]
    else:
        fits = ["k=0", "annulus:0:1/2", "x", ""]
    return st.tuples(st.just(flag), st.sampled_from(fits) | st.sampled_from(_TOKENS))


def _argv_for(name):
    """argv for subcommand ``name``: its required options and some others, now
    and then a stray token, in any order."""
    options = _COMMANDS[name][2]
    required = st.tuples(*[_chunk(flag, kwargs) for flag, kwargs in options if kwargs.get("required")])
    other = st.one_of(*[_chunk(flag, kwargs) for flag, kwargs in options], st.tuples(st.sampled_from(_TOKENS)))
    chunks = st.tuples(required, st.lists(other, max_size=6)).flatmap(lambda c: st.permutations([*c[0], *c[1]]))
    return chunks.map(lambda c: [name] + [token for chunk in c for token in chunk])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=8), st.sampled_from(_NAMES).flatmap(_argv_for)))
def test_plain_parse_agrees_with_argparse(argv):
    plain, expected = _plain_args(argv), _argparse_vars(argv)
    if expected is None:
        assert plain is None
    else:
        assert plain is None or vars(plain) == expected


def _written_argvs():
    """The argv lists spelled out in this file and in test_startup.py, a call
    such as ``str(fixture)`` read as a file name; lists with ``*`` are skipped."""
    here = Path(__file__).resolve().parent
    for name in ("test_cli.py", "test_startup.py"):
        for node in ast.walk(ast.parse((here / name).read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)):
                continue
            if node.elts[0].value in _COMMANDS and all(isinstance(e, (ast.Constant, ast.Call)) for e in node.elts):
                yield [e.value if isinstance(e, ast.Constant) else "file.json" for e in node.elts]


def test_plain_parse_reads_every_request_in_the_tests():
    requests = [argv for argv in _written_argvs() if _argparse_vars(argv) is not None]
    assert len(requests) >= 30
    for argv in requests:
        plain = _plain_args(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv), argv


# ---------------------------------------------------------------------------
# the streamed output equals json.dumps of the library results


def _rat(x):
    return {"num": Fraction(x).numerator, "den": Fraction(x).denominator}


def _slopes_doc(slopes):
    return [
        {"index": j + 1, "slope": _rat(s), "certified": j < slopes.certified_count}
        for j, s in enumerate(slopes.slopes)
    ]


@pytest.mark.parametrize(
    "argv, slopes",
    [
        (["--p", "2", "--weight", "k=0", "--count", "20"], lambda: ghost_slopes(PrimeContext(2), Classical(0), 20)),
        (
            ["--p", "2", "--N", "3", "--weight", "annulus:0:5/2", "--count", "9", "--modified"],
            lambda: ghost_slopes(PrimeContext(2, 3), Annulus(0, Fraction(5, 2)), 9, seed=bundled_seed(3)),
        ),
        (
            ["--p", "5", "--weight", "char:2:25", "--count", "12"],
            lambda: ghost_slopes(PrimeContext(5), CharClassical(2, 2), 12),
        ),
        (
            ["--p", "3", "--N", "7", "--weight", "k=24", "--mode", "full"],
            lambda: classical_ghost_slopes(PrimeContext(3, 7), 24, "full"),
        ),
        # dim S_2(SL_2(Z)) = 0: an empty list
        (["--p", "2", "--weight", "k=2", "--mode", "tame"], lambda: classical_ghost_slopes(PrimeContext(2), 2)),
    ],
)
def test_slopes_output_is_json_dumps_of_the_slopes(capsys, argv, slopes):
    code, out = run(capsys, ["slopes"] + argv)
    assert code == 0
    assert out == json.dumps(_slopes_doc(slopes()), indent=2) + "\n"


@pytest.mark.parametrize(
    "p, N, component, modified, extra",
    [
        (5, 1, 2, False, []),
        (2, 3, 0, True, []),
        (5, 1, 0, False, ["--ap"]),
        (3, 7, 0, False, ["--ap", "--burn-in-max", "0"]),
        (5, 3, 2, False, ["--ap", "--n-ap", "1", "--delta", "8"]),  # no burn-in verifies
        (5, 1, 0, False, ["--count", "10000", "--ap"]),  # three 4,096-entry chunks of the slope writer
    ],
)
def test_boundary_output_is_json_dumps_of_the_polygon(capsys, p, N, component, modified, extra):
    extra = extra if "--count" in extra else ["--count", "150", *extra]
    ctx, count = PrimeContext(p, N), int(extra[extra.index("--count") + 1])
    seed = bundled_seed(N) if modified else None
    argv = ["boundary", "--p", str(p), "--N", str(N), "--component", str(component)]
    code, out = run(capsys, argv + (["--modified"] if modified else []) + extra)
    assert code == 0
    slopes = boundary_polygon(ctx, ComponentLabel(component, p), count, seed=seed).slopes
    doc = {
        "command": "boundary",
        "p": p,
        "N": N,
        "component": component,
        "modified": modified,
        "slopes": _slopes_doc(slopes),
    }
    if "--ap" in extra:
        n_ap, delta = (1, 8) if "--n-ap" in extra else ap_parameters(ctx)
        burn = scan_burn_in(slopes, n_ap, delta, 0 if "--burn-in-max" in extra else 100)
        if burn is None:
            doc["ap_report"] = {"n_ap": n_ap, "delta": _rat(delta), "verified": False}
        else:
            report = ap_check(slopes, n_ap, delta, burn)
            doc["ap_report"] = {
                "n_ap": n_ap,
                "delta": _rat(delta),
                "burn_in": burn,
                "verified_through": report.verified_through,
                "verified": report.verified,
            }
        assert doc["ap_report"]["verified"] is ("--n-ap" not in extra)
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "p, N, component, modified, upto",
    [(2, 1, 0, False, 40), (7, 3, 4, False, 30), (2, 3, 0, True, 40), (2, 1, 0, False, 0)],
)
def test_series_output_is_json_dumps_of_the_rows(capsys, p, N, component, modified, upto):
    argv = ["series", "--p", str(p), "--N", str(N), "--component", str(component), "--up-to", str(upto)]
    code, out = run(capsys, argv + (["--modified"] if modified else []))
    assert code == 0
    series = GhostSeries(PrimeContext(p, N), ComponentLabel(component, p), bundled_seed(N) if modified else None)
    lines = []
    for i in range(1, upto + 1):
        row = series.coefficient(i).zeros
        zeros = [
            {"type": "eta8" if isinstance(z, EtaEight) else "classical", "k": z.k, "mult": mult}
            for z, mult in row.items()
        ]
        lines.append(json.dumps({"i": i, "lambda": sum(row.values()), "zeros": zeros}) + "\n")
    assert out == "".join(lines)
    assert len(lines) == upto
    if modified:
        assert '"type": "eta8"' in out


@pytest.mark.parametrize(
    "p, N, k_max",
    [(2, 1, 30), (2, 3, 40), (2, 9, 12), (3, 1, 24), (5, 7, 60), (59, 2, 30), (2, 5, 2), (3, 2, 1), (7, 1, 0), (2, 3, -5)],
)
def test_dims_output_is_json_dumps_of_the_table(capsys, p, N, k_max):
    code, out = run(capsys, ["dims", "--p", str(p), "--N", str(N), "--k-max", str(k_max)])
    assert code == 0
    ctx = PrimeContext(p, N)
    rows = []
    for k in range(2, k_max + 1, 2):
        row = {
            "k": k,
            "dim_tame": dim_cusp_gamma0(N, k),
            "dim_level_Np": dim_cusp_gamma0(N * p, k),
            "dim_pnew": dim_pnew(ctx, k),
        }
        if p == 2 and N % 2:
            row["dim_eta8"] = dim_cusp_eta8(N, k, 1)
        rows.append(row)
    doc = {
        "command": "dims",
        "p": p,
        "N": N,
        "invariants": {"tame": gamma0_invariants(N)._asdict(), "full": gamma0_invariants(N * p)._asdict()},
        "dimensions": rows,
    }
    assert out == json.dumps(doc, indent=2) + "\n"


def test_dims_streams_its_rows():
    # each row is written as it is computed: no table, no per-weight cache
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        main(["dims", "--p", "2", "--N", "3", "--k-max", "4"])  # imports and level caches outside the measure
        tracemalloc.start()
        try:
            assert main(["dims", "--p", "2", "--N", "3", "--k-max", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000
