"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Exits 0 when every test passes.  The tests run the cli-short workload, so
they take about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, requests_for

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _wrapped_names(modules) -> dict:
    names = [(m, "certified_slopes") for m in tracer.CERTIFY] + [("polygon", "lower_hull")]
    names += [(m, a) for m, a, _ in tracer.SPANS + tracer.COUNTS]
    return {(m, a): getattr(modules[m], a) for m, a in names}


def test_wrappers_restored() -> None:
    modules = run._load_modules()
    before = _wrapped_names(modules)
    reqs = requests_for("cli-short", DEFAULT_SEED)[:8]
    log = {"workload": "cli-short"}
    run.traced(reqs, {}, 0, log)
    assert not log["unwrapped"], f"layer entry points not found: {log['unwrapped']}"
    assert _wrapped_names(modules) == before, "traced run left wrappers installed"
    layer = tracer.LayerTracer(modules)
    try:
        with layer:
            assert _wrapped_names(modules) != before
            raise KeyError("boom")
    except KeyError:
        pass
    assert _wrapped_names(modules) == before, "wrappers survived an exception"


def test_traced_stdout_identical() -> None:
    """Subprocess, untraced in-process and traced in-process stdout agree byte for byte."""
    modules = run._load_modules()
    layer = tracer.LayerTracer(modules)
    env = run.child_env()
    for req in requests_for("cli-short", DEFAULT_SEED):
        sub = run.run_subprocess(["-m", "ghostseries", *req.argv], env)["stdout"]
        _, plain, _, _ = run.run_inprocess(modules["cli"].main, req.argv)
        with layer:
            _, traced, _, _ = run.run_inprocess(modules["cli"].main, req.argv)
        assert sub == plain == traced, f"{req.name}: stdout differs between runs"


def _bench(trace: int) -> tuple[list[str], dict]:
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seconds", "0",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    lines = got.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_metric_reported() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = _bench(trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"trace {trace}: metrics {sorted(got)} differ from BENCHMARK.json {sorted(want)}"
        printed = {line.split(" = ")[0] for line in report if " = " in line}
        assert set(want) <= printed, f"trace {trace}: not printed: {set(want) - printed}"


def test_workloads_match_benchmark() -> None:
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {w.name: w.why for w in WORKLOADS.values()}


def test_seed_draws_weights_not_sizes() -> None:
    for workload in WORKLOADS:
        a, b = requests_for(workload, 1), requests_for(workload, 1)
        assert [r.argv for r in a] == [r.argv for r in b], "same seed, different requests"
        c = requests_for(workload, 2)
        assert [r.name for r in a] == [r.name for r in c]
        for ra, rc in zip(a, c):
            sizes = [ra.argv[i + 1] for i, x in enumerate(ra.argv) if x in ("--count", "--up-to", "--cap")]
            assert sizes == [rc.argv[i + 1] for i, x in enumerate(rc.argv) if x in ("--count", "--up-to", "--cap")]
    drawn = ("slopes-deep", "cli-short")
    assert all(
        [r.argv for r in requests_for(w, 1)] != [r.argv for r in requests_for(w, 2)] for w in drawn
    ), "a different seed should draw different weights"


def test_fails_without_program() -> None:
    bare = run.RESULTS / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        got = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert got.returncode != 0 and '"correct"' not in got.stdout, got.stdout


def test_digests_recorded() -> None:
    table = json.loads(run.DIGESTS.read_text())
    assert table["seed"] == DEFAULT_SEED
    for workload in WORKLOADS:
        names = [r.name for r in requests_for(workload, DEFAULT_SEED)]
        assert sorted(table["workloads"][workload]) == sorted(names), workload
        assert all(len(h) == len(hashlib.sha256().hexdigest()) for h in table["workloads"][workload].values())


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
