"""Benchmark for the ghostseries CLI: single client, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload slopes-deep --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) is a fixed list of CLI requests drawn from
the seed.  A run repeats the whole list, one request after another, until
the next pass would end past ``--seconds``, and reports medians over passes.

--trace 0  every request is a fresh ``python -m ghostseries`` process, never
           more than one at a time; prints the end-to-end metrics.
           The times it reports are host-calibrated (see reference_s):
           a shared host's speed drifts by up to half over tens of
           seconds, far more than a regression bound.
--trace 1  every request runs in-process through ``cli.main(argv)``, once
           untraced and once with the layer wrappers of tracer.py
           installed; prints the per-layer metrics.

Every output is checked.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print
every metric with its unit, and a full record (environment, per-request
wall times, per-request spans) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import LayerTracer
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed, Request, requests_for, verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 150.0
SETUP_PROBES_PER_PASS = 3
MIN_SETUP_PROBES = 15
LAYER_MODULES = ("polygon", "boundary", "modified", "series", "cli")
# the median of reference_s() on the 2-vCPU Intel Xeon host this benchmark
# was written on; a calibrated time is a time scaled to that host speed
REF_NOMINAL_S = 0.040


class Deadline(BaseException):
    """Raised by the alarm when a run reaches HARD_LIMIT_S."""


def _alarm(signum, frame):
    raise Deadline()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GHOST_CAP", None)
    return env


def run_subprocess(argv, env: dict) -> dict:
    """One request as a fresh interpreter; wall from start to exit, rusage from wait4."""
    tmp = RESULTS / "tmp"
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "code": proc.returncode,
            "stdout": out.read(),
            "stderr": err.read(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }


def reference_s() -> float:
    """Wall time of a fixed loop that uses only the standard library.

    It runs in this process between requests.  Its time moves with the
    speed the host gives Python at that moment, not with the program, so
    a request's wall time times REF_NOMINAL_S / (mean of the loop times
    just before and after it) is that request's time at a fixed host speed.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1)
    acc = 0
    for i in range(100_000):
        acc += i * i
    table = {}
    for i in range(50_000):
        table[i] = acc
    return time.perf_counter() - t0


def check_request(req: Request, code, stdout: bytes, stderr: bytes, digests: dict) -> tuple[int, str | None]:
    """(slopes emitted, error or None) for one finished request."""
    try:
        slopes = verify(req, code, stdout.decode(), stderr.decode())
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return 0, f"{type(exc).__name__}: {exc}"
    want = digests.get(req.name)
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return slopes, f"{req.name}: stdout digest differs from the recorded one"
    return slopes, None


def median(values):
    return statistics.median(values) if values else 0.0


def growth_exponent(points) -> float | None:
    """Least-squares slope of log t against log n over (n, t) pairs with t > 0."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2 or len(pts) < len(points):
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def run_passes(seconds: float, one_pass) -> list:
    """Repeat one_pass until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if passes[-1].get("aborted") or (now - start) + (now - t0) > seconds:
            return passes


# ---------------------------------------------------------------------------
# end to end (trace 0)

def end_to_end(reqs, digests, seconds, log) -> tuple[dict, dict, list]:
    env = child_env()
    probe = ["-c", "import ghostseries.cli"]
    run_subprocess(probe, env)  # compiles bytecode; not measured
    setup: list[float] = []
    setup_raw: list[float] = []
    last_ref = [reference_s()]

    def calibrated_run(argv) -> tuple[dict, float]:
        """One subprocess run, and the factor that scales its times to REF_NOMINAL_S host speed."""
        res = run_subprocess(argv, env)
        ref_after = reference_s()
        speed = REF_NOMINAL_S / ((last_ref[0] + ref_after) / 2)
        last_ref[0] = res["ref_s"] = ref_after
        return res, speed

    def setup_probe() -> None:
        res, speed = calibrated_run(probe)
        setup.append(res["wall_s"] * speed)
        setup_raw.append(res["wall_s"])

    def one_pass() -> dict:
        done = []
        name = "setup probe"
        try:
            for _ in range(SETUP_PROBES_PER_PASS):
                setup_probe()
            for req in reqs:
                name = req.name
                res, speed = calibrated_run(["-m", "ghostseries", *req.argv])
                slopes, error = check_request(req, res["code"], res["stdout"], res["stderr"], digests)
                done.append({
                    "name": req.name, "code": res["code"], "wall_s": res["wall_s"],
                    "cpu_s": res["cpu_s"], "wall_cal_s": res["wall_s"] * speed,
                    "cpu_cal_s": res["cpu_s"] * speed, "ref_s": res["ref_s"],
                    "rss_mb": res["rss_mb"], "slopes": slopes, "error": error,
                })
        except Deadline:
            done.append({"name": name, "error": "deadline reached"})
            return {"requests": done, "aborted": True}
        return {"requests": done}

    passes = run_passes(seconds, one_pass)
    while len(setup) < MIN_SETUP_PROBES:
        setup_probe()

    complete = [p["requests"] for p in passes if not p.get("aborted")] or [passes[0]["requests"]]
    per_req: dict[str, list] = {}
    for p in complete:
        for r in p:
            if "wall_s" in r:
                per_req.setdefault(r["name"], []).append(r)

    def summed(key: str) -> float:
        # sum of per-request medians: one slow pass moves a request, not the whole sum
        return sum(median([r[key] for r in rs]) for rs in per_req.values())

    def p50(key: str) -> float:
        return median([median([r[key] for r in rs]) for rs in per_req.values()])

    wall_cal_s, wall_s = summed("wall_cal_s"), summed("wall_s")
    slopes = sum(rs[0]["slopes"] for rs in per_req.values())
    samples = [r["wall_s"] for rs in per_req.values() for r in rs]
    setup_s = median(setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_cal_s": (wall_cal_s, "s"),
        "cpu_cal_s": (summed("cpu_cal_s"), "s"),
        "req_p50_cal_s": (p50("wall_cal_s"), "s"),
        "slopes_per_cal_s": (slopes / wall_cal_s if wall_cal_s else 0.0, "1/s"),
        "peak_rss_mb": (max((r["rss_mb"] for rs in per_req.values() for r in rs), default=0.0), "MB"),
    }
    # the same times as measured, before calibration
    extra = {
        "setup_raw_s": (median(setup_raw), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (summed("cpu_s"), "s"),
        "req_p50_s": (p50("wall_s"), "s"),
        "slopes_per_s": (slopes / wall_s if wall_s else 0.0, "1/s"),
        "ref_s": (median([r["ref_s"] for rs in per_req.values() for r in rs]), "s"),
        "req_p50_samples": (len(samples), "count"),
        "setup_probes": (len(setup), "count"),
    }
    ladder = WORKLOADS[log["workload"]].ladder
    if ladder:
        g = growth_exponent(
            [(n, median([r["wall_s"] for r in per_req.get(name, [])]) - median(setup_raw))
             for name, n in ladder]
        )
        if g is not None:
            extra["growth_exp"] = (g, "1")
    log["setup_samples_s"] = setup_raw
    log["setup_cal_samples_s"] = setup
    return metrics, extra, passes


# ---------------------------------------------------------------------------
# traced, in-process (trace 1)

def _load_modules() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    return {name: importlib.import_module(f"ghostseries.{name}") for name in LAYER_MODULES}


def _clear_caches() -> None:
    """Drop memoized results so each in-process request starts cold, as a fresh process does."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ghostseries"):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_inprocess(main, argv) -> tuple[int | None, bytes, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    _clear_caches()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:
            traceback.print_exc()
            code = None
    wall = time.perf_counter() - t0
    return code, out.getvalue().encode(), err.getvalue().encode(), wall


LAYER_SPANS = {  # per-layer metric -> span whose self time it reports
    "series.divisor_s": "series.divisor",
    "polygon.valuation_s": "polygon.valuation",
    "weightspace.leg_s": "weightspace.leg",
    "series.lam_s": "series.lam",
    "polygon.hull_s": "polygon.hull",
    "polygon.tail_s": "polygon.certify",
    "boundary.ap_s": "boundary.ap",
    "modified.divisor_s": "modified.divisor",
    "cli.self_s": "cli",
}
LAYER_CALLS = {  # per-layer metric -> span whose calls it counts
    "series.divisor_calls": "series.divisor",
    "polygon.valuation_calls": "polygon.valuation",
    "weightspace.leg_calls": "weightspace.leg",
}
LAYER_COUNTS = {  # per-layer metric -> counter
    "dims.calls": "dims",
    "polygon.hull_points": "polygon.hull_points",
    "polygon.certificates": "polygon.certificates",
    "polygon.rounds": "polygon.rounds",
    "polygon.D_final": "polygon.D_final",
    "modified.seed_mult_calls": "modified.seed_mult",
}


def layer_metrics(snaps: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for snap in snaps:
        for name, agg in snap["spans"].items():
            spans.setdefault(name, [0, 0.0, 0.0])
            spans[name] = [a + b for a, b in zip(spans[name], agg)]
        for name, c in snap["counts"].items():
            counts[name] = counts.get(name, 0) + c
    out = {m: (spans.get(s, [0, 0.0, 0.0])[2], "s") for m, s in LAYER_SPANS.items()}
    out.update({m: (spans.get(s, [0])[0], "count") for m, s in LAYER_CALLS.items()})
    out.update({m: (counts.get(c, 0), "count") for m, c in LAYER_COUNTS.items()})
    indices = counts.get("polygon.indices", 0)
    valuations = spans.get("polygon.valuation", [0])[0]
    out["polygon.points_per_index"] = (valuations / indices if indices else 0.0, "1")
    return out


def traced(reqs, digests, seconds, log) -> tuple[dict, dict, list]:
    modules = _load_modules()
    tracer = LayerTracer(modules)

    def one_pass() -> dict:
        plain, traced_reqs = [], []
        for req in reqs:
            try:
                code, out, err, wall = run_inprocess(modules["cli"].main, req.argv)
            except Deadline:
                return {"requests": plain, "aborted": True}
            slopes, error = check_request(req, code, out, err, digests)
            plain.append({"name": req.name, "code": code, "wall_s": wall, "slopes": slopes,
                          "error": error, "digest": hashlib.sha256(out).hexdigest()})
        with tracer:
            for req, base in zip(reqs, plain):
                tracer.reset()
                try:
                    code, out, err, wall = run_inprocess(tracer.span("cli", modules["cli"].main), req.argv)
                except Deadline:
                    return {"requests": plain, "traced": traced_reqs, "aborted": True}
                _, error = check_request(req, code, out, err, digests)
                if error is None and hashlib.sha256(out).hexdigest() != base["digest"]:
                    error = f"{req.name}: traced stdout differs from the untraced run"
                traced_reqs.append({"name": req.name, "code": code, "wall_s": wall, "error": error,
                                    "out_bytes": len(out), **tracer.snapshot()})
        return {"requests": plain, "traced": traced_reqs}

    passes = run_passes(seconds, one_pass)
    complete = [p for p in passes if not p.get("aborted")] or passes[:1]
    per_pass = []
    for p in complete:
        traced_reqs = p.get("traced", [])
        untraced_wall = sum(r["wall_s"] for r in p["requests"])
        m = layer_metrics(traced_reqs)
        m["cli.out_bytes"] = (sum(r["out_bytes"] for r in traced_reqs), "B")
        m["inproc.wall_s"] = (untraced_wall, "s")
        m["trace.overhead_s"] = (sum(r["wall_s"] for r in traced_reqs) - untraced_wall, "s")
        walls = {r["name"]: r["wall_s"] for r in p["requests"]}
        ladder = WORKLOADS[log["workload"]].ladder
        g = growth_exponent([(n, walls.get(name, 0.0)) for name, n in ladder]) if ladder else None
        m["growth_exp"] = (g if g is not None else 0.0, "1")
        per_pass.append(m)
    metrics = {k: (median([m[k][0] for m in per_pass]), unit) for k, (_, unit) in per_pass[0].items()}
    traced_wall = metrics["inproc.wall_s"][0] + metrics["trace.overhead_s"][0]
    hot = metrics["series.divisor_s"][0] + metrics["polygon.valuation_s"][0]
    extra = {"divisor_plus_valuation_share": (hot / traced_wall if traced_wall else 0.0, "1")}
    log["unwrapped"] = tracer.missing
    return metrics, extra, passes


# ---------------------------------------------------------------------------
# record and report

def environment() -> dict:
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ghostseries" / "cli.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'ghostseries'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    digests = {}
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text())["workloads"].get(args.workload, {})

    reqs = requests_for(args.workload, args.seed)
    log = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
           "why": WORKLOADS[args.workload].why, "argv": {r.name: list(r.argv) for r in reqs},
           "digests_checked": bool(digests), **environment()}
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    try:
        measure = traced if args.trace else end_to_end
        metrics, extra, passes = measure(reqs, digests, args.seconds, log)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    log["loadavg_after"] = os.getloadavg()

    done = [r for p in passes for r in p["requests"] + p.get("traced", [])]
    errors = [r["error"] for r in done if r.get("error")]
    if passes[-1].get("aborted"):
        errors.append(f"the run reached its {HARD_LIMIT_S:.0f} s limit inside a request")
    attempted = len(done) + bool(passes[-1].get("aborted"))
    failed = len(errors)
    extra["fail_frac"] = (failed / attempted, "1")
    log.update(passes=passes, metrics=metrics, report_only=extra)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(log, indent=1, default=str))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"python={log['python']} nproc={log['nproc']} commit={log['commit'] or log['source_sha256'][:12]}")
    print(f"# loadavg before={log['loadavg_before']} after={log['loadavg_after']}; record in {RESULTS / name}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key} = {value:.6g} {unit}")
    for error in errors[:10]:
        print(f"# FAILED {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
