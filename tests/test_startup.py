"""Start-up by subcommand: the package and the CLI import a module only when a
request runs it, and every public and tracer-wrapped name still resolves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghostseries
import ghostseries.cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"


def _fresh(code: str) -> str:
    """Stdout of ``code`` in a new interpreter without site packages or bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def _loaded_after(code: str) -> set[str]:
    """The package submodules and the standard modules a request should not
    need unless it runs them (json, pathlib, argparse, gettext, typing) in
    sys.modules after ``code`` runs."""
    probe = (
        "import sys, io\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"{code}\n"
        "sys.stdout = out\n"
        "print(sorted(m for m in sys.modules if m.startswith('ghostseries.')"
        " or m in ('json', 'pathlib', 'argparse', 'gettext', 'typing')))"
    )
    return set(ast.literal_eval(_fresh(probe)))


def test_tracer_wrapped_names_resolve_after_a_plain_import():
    # the tables perfbench/tracer.py wraps, read as the benchmark reads them
    probe = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import importlib, tracer\n"
        "pairs = [(m, 'certified_slopes') for m in tracer.CERTIFY] + [('polygon', 'lower_hull')]\n"
        "pairs += [(m, a) for m, a, _ in tracer.SPANS + tracer.COUNTS]\n"
        "print(len(pairs), [f'{m}.{a}' for m, a in pairs"
        " if not hasattr(importlib.import_module(f'ghostseries.{m}'), a)])"
    )
    count, missing = _fresh(probe).split(" ", 1)
    assert int(count) > 20
    assert missing.strip() == "[]"


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import ghostseries") == set()


_UNLOADED = {"argparse", "gettext", "typing"}  # modules a well-formed request never loads


@pytest.mark.parametrize(
    "argv, code, present, absent",
    [
        (
            ["slopes", "--p", "2", "--weight", "k=0", "--count", "3"],
            0,
            {"ghostseries.polygon"},
            {"ghostseries.boundary", "ghostseries.modified", "json", "pathlib"} | _UNLOADED,
        ),
        (
            ["boundary", "--p", "5", "--count", "40", "--ap", "--burn-in-max", "5"],
            0,
            {"ghostseries.boundary"},
            {"ghostseries.modified", "json"} | _UNLOADED,
        ),
        (
            ["slopes", "--p", "2", "--N", "3", "--modified", "--weight", "k=0", "--count", "3"],
            0,
            {"ghostseries.modified"},
            {"ghostseries.boundary", "json"} | _UNLOADED,
        ),
        (
            ["compare", "--p", "2", "--fixture", str(ROOT / "fixtures" / "annulus_half_2adic.json"),
             "--weight", "annulus:0:1/2", "--count", "10"],
            0,
            {"ghostseries.polygon", "json"},
            {"ghostseries.boundary", "ghostseries.modified"} | _UNLOADED,
        ),
        # help and usage errors are argparse's own
        (["slopes", "--help"], 0, {"argparse"}, {"ghostseries.boundary", "ghostseries.modified"}),
        (["slopes", "--p", "2"], 2, {"argparse"}, {"ghostseries.boundary", "ghostseries.modified"}),
    ],
    ids=["slopes", "boundary", "modified", "compare", "help", "usage-error"],
)
def test_a_request_imports_only_the_modules_it_runs(argv, code, present, absent):
    loaded = _loaded_after(f"from ghostseries import cli; assert cli.main({argv!r}) == {code}")
    assert present <= loaded
    assert not absent & loaded


def test_a_seed_file_is_read_with_json(tmp_path):
    # the bundled seed is a constant; only a seed file needs the parser
    seed = tmp_path / "seed3.json"
    seed.write_text('{"N": 3, "weight2_slopes": [{"num": 1, "den": 2}, {"num": 1, "den": 2}]}')
    argv = ["slopes", "--p", "2", "--N", "3", "--modified", "--seed", str(seed), "--weight", "k=0", "--count", "3"]
    loaded = _loaded_after(f"from ghostseries import cli; assert cli.main({argv!r}) == 0")
    assert {"ghostseries.modified", "json"} <= loaded
    assert not ({"ghostseries.boundary"} | _UNLOADED) & loaded


def test_public_names_are_the_submodule_objects():
    for name in ghostseries.__all__:
        module = importlib.import_module(f"ghostseries.{ghostseries._EXPORTS[name]}")
        assert getattr(ghostseries, name) is getattr(module, name), name
    assert set(ghostseries.__all__) <= set(dir(ghostseries))
    namespace: dict = {}
    exec("from ghostseries import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ghostseries.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ghostseries' has no attribute 'no_such_name'$"):
        ghostseries.no_such_name
    with pytest.raises(AttributeError, match="^module 'ghostseries.cli' has no attribute 'no_such_name'$"):
        ghostseries.cli.no_such_name
    with pytest.raises(ImportError):
        from ghostseries import no_such_name  # noqa: F401


def test_cli_still_exports_the_names_it_reads_lazily():
    from ghostseries.boundary import ap_check as boundary_ap_check
    from ghostseries.cli import ap_check, bundled_seed, load_seed, scan_burn_in
    from ghostseries.modified import bundled_seed as modified_bundled_seed

    assert ap_check is boundary_ap_check and bundled_seed is modified_bundled_seed
    assert callable(scan_burn_in) and callable(load_seed)
    for module, names in ghostseries.cli._LAZY.items():
        source = importlib.import_module(f"ghostseries.{module}")
        for name in names:
            assert getattr(ghostseries.cli, name) is getattr(source, name), name


def test_a_wrapper_set_on_cli_outlives_the_request(monkeypatch, capsys):
    # perfbench/tracer.py wraps cli's names this way; binding a lazy name must not undo it
    calls = []
    original = ghostseries.cli.boundary_polygon
    monkeypatch.setattr(ghostseries.cli, "boundary_polygon", lambda *a, **k: calls.append(a) or original(*a, **k))
    assert ghostseries.cli.main(["boundary", "--p", "2", "--count", "3"]) == 0
    assert len(calls) == 1
