import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ghostseries.cli
from ghostseries.boundary import ap_check, ap_parameters, boundary_polygon, scan_burn_in
from ghostseries.cli import UsageError, build_parser, compare, main, parse_weight
from ghostseries.errors import GhostError
from ghostseries.modified import bundled_seed
from ghostseries.polygon import SlopeList, classical_ghost_slopes, ghost_slopes
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

    def polygon(ctx, eps, n, **kwargs):  # each polygon once, for all the report options
        if (ctx, eps, n) not in polygons:
            polygons[ctx, eps, n] = boundary_polygon(ctx, eps, n, **kwargs)
        return polygons[ctx, eps, n]

    monkeypatch.setattr(ghostseries.cli, "boundary_polygon", polygon)
    scanned = []  # the number of slopes the report's scan was given
    monkeypatch.setattr(ghostseries.cli, "scan_burn_in", lambda *args: scanned.append(len(args[0])) or scan_burn_in(*args))
    parser = build_parser()
    cases = [
        (PrimeContext(p, N), ComponentLabel(residue, p), n)
        for p in (3, 5, 7, 11, 13)
        for N in range(1, 13)
        if N % p
        for residue in range(0, p - 1, 2)
        for n in (50, 300, 1500)
    ] + [(PrimeContext(5, 1), ComponentLabel(0, 5), 10_000)]
    settled = refused = 0
    for ctx, eps, n in cases:
        q, delta = ap_parameters(ctx)
        argv = ["boundary", "--p", str(ctx.p), "--N", str(ctx.N), "--component", str(eps.residue), "--count", str(n)]
        options = [(q, delta, m, []) for m in (0, 5, 100)]
        overrides = ((1, 8), (2 * q, 2 * delta), (q, delta), (1, 0), (q, delta + 1))
        options += [(a, d, 100, ["--n-ap", str(a), "--delta", str(d)]) for a, d in overrides]
        for n_ap, d, max_burn_in, extra in options:
            args = parser.parse_args(argv + ["--ap", "--burn-in-max", str(max_burn_in)] + extra)
            bp = polygon(ctx, eps, n)
            proved = bp.shear is not None and bp.shear[:2] == (n_ap, d)
            try:
                expected = ap_report_reference(bp.slopes, n_ap, d, max_burn_in)
            except GhostError as exc:  # at most n_ap slopes: not one progression step
                with pytest.raises(GhostError) as raised:
                    ghostseries.cli._cmd_boundary(args)
                assert str(raised.value) == str(exc) and not scanned
                refused += 1
            else:
                assert ghostseries.cli._cmd_boundary(args) == 0
                out = capsys.readouterr().out
                report = json.loads("{" + out[out.rindex('\n  "ap_report": ') :])["ap_report"]
                assert report == expected, (ctx, eps, n, extra)
                assert scanned.pop() == (bp.shear[3] if proved else len(bp.slopes))
            settled += proved
    assert len(cases) == 565 and 600 < settled < 8 * len(cases) and 0 < refused < 8 * len(cases)
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
    computed = SlopeList((Fraction(1, 2),), 1)
    with pytest.raises(ValueError, match="malformed fixture: expected an integer"):
        compare({"slopes": [entry]}, computed)
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


def test_compare_prefix_truncation():
    fixture = {"slopes": [{"num": 1, "den": 2}, {"num": 1, "den": 1}]}
    computed = SlopeList((Fraction(1, 2), Fraction(1), Fraction(3, 2)), 3)
    report = compare(fixture, computed)
    assert report.match and report.compared == 2
    assert "prefix" in report.truncated


def test_exit_codes(capsys, tmp_path):
    # usage error: bad weight grammar
    assert main(["slopes", "--p", "2", "--weight", "huh", "--count", "1"]) == 2
    # usage error: modified with odd p
    assert main(["slopes", "--p", "3", "--weight", "k=0", "--count", "1", "--modified"]) == 2
    # certification failure maps to 3
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "40", "--cap", "12"]) == 3
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
        (["--p", "2"], "the progression structure applies to odd p only"),
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


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("GHOST_CAP", "12")
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "40"]) == 3
    capsys.readouterr()
    for bad in ("0", "-5"):
        monkeypatch.setenv("GHOST_CAP", bad)
        assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3"]) == 2
        assert capsys.readouterr().err.startswith("usage error: GHOST_CAP must be at least 1")
    monkeypatch.setenv("GHOST_CAP", "lots")
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3"]) == 2
    assert capsys.readouterr().err == "usage error: GHOST_CAP must be an integer, got 'lots'\n"
    # the flag wins over the environment
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3", "--cap", "100"]) == 0
    monkeypatch.delenv("GHOST_CAP")
    capsys.readouterr()


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("slopes", "series", "dims", "boundary", "halo", "compare"):
        assert name in text


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
    ],
)
def test_boundary_output_is_json_dumps_of_the_polygon(capsys, p, N, component, modified, extra):
    ctx, count = PrimeContext(p, N), 150
    seed = bundled_seed(N) if modified else None
    argv = ["boundary", "--p", str(p), "--N", str(N), "--component", str(component), "--count", str(count)]
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
    for i, row in enumerate(series.rows(upto), start=1):
        zeros = [
            {"type": "eta8" if isinstance(z, EtaEight) else "classical", "k": z.k, "mult": mult}
            for z, mult in row.items()
        ]
        lines.append(json.dumps({"i": i, "lambda": sum(row.values()), "zeros": zeros}) + "\n")
    assert out == "".join(lines)
    assert len(lines) == upto
    if modified:
        assert '"type": "eta8"' in out
