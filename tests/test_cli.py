import json
from fractions import Fraction
from pathlib import Path

import pytest

from ghostseries.cli import build_parser, compare, main, parse_weight
from ghostseries.polygon import SlopeList
from ghostseries.weightspace import (
    Annulus,
    CharClassical,
    Classical,
    EtaEight,
    ExplicitW,
    PrimeContext,
)

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


def test_compare_prefix_truncation():
    fixture = {"slopes": [{"num": 1, "den": 2}, {"num": 1, "den": 1}]}
    computed = SlopeList((Fraction(1, 2), Fraction(1), Fraction(3, 2)), 3)
    report = compare(fixture, computed)
    assert report.match and report.compared == 2
    assert "prefix" in report.truncated


def test_exit_codes(capsys):
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


def test_cap_env_override(monkeypatch, capsys):
    monkeypatch.setenv("GHOST_CAP", "12")
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "40"]) == 3
    capsys.readouterr()
    for bad in ("0", "-5"):
        monkeypatch.setenv("GHOST_CAP", bad)
        assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3"]) == 2
        assert capsys.readouterr().err.startswith("usage error: GHOST_CAP must be at least 1")
    # the flag wins over the environment
    assert main(["slopes", "--p", "2", "--weight", "k=0", "--count", "3", "--cap", "100"]) == 0
    monkeypatch.delenv("GHOST_CAP")
    capsys.readouterr()


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("slopes", "series", "dims", "boundary", "halo", "compare"):
        assert name in text
