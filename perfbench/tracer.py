"""Outside-in layer tracing for the ghostseries benchmark.

The program is not changed.  While a LayerTracer is installed, the
module-level names each layer is called through are replaced by wrappers
that time spans or count calls; ``restore`` puts the originals back.
Spans are aggregated in memory per request and read out at the end: a
span's self time is its duration minus the durations of the spans it
caused.  The dimension formulas are called about a million times in a
deep request, so there calls are counted, not timed.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name).  A missing attribute is skipped and
# listed in LayerTracer.missing.
SPANS = (
    ("polygon", "coefficient_divisor", "series.divisor"),
    ("polygon", "pair_valuation", "weightspace.leg"),
    ("modified", "modified_coefficient", "modified.divisor"),
    ("cli", "coefficient_divisor", "series.divisor"),
    ("cli", "modified_coefficient", "modified.divisor"),
    ("cli", "ap_check", "boundary.ap"),
    ("cli", "scan_burn_in", "boundary.ap"),
) + tuple(
    ("cli", name, f"cli.compute.{name}")
    for name in (
        "boundary_polygon",
        "halo_profile",
        "ghost_slopes",
        "classical_ghost_slopes",
        "ap_parameters",
        "dim_cusp_eta8",
        "dim_cusp_gamma0",
        "dim_pnew",
        "gamma0_invariants",
        "bundled_seed",
        "load_seed",
    )
)
COUNTS = (
    ("series", "dim_pnew", "dims"),
    ("series", "dim_cusp_gamma0", "dims"),
    ("modified", "seed_multiplicities", "modified.seed_mult"),
)
# certified_slopes is imported by these modules; its callbacks are wrapped too
CERTIFY = ("polygon", "boundary", "modified")


class LayerTracer:
    """Wraps layer entry points of the ``ghostseries`` modules given by name."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._cert: dict | None = None
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Start a new request: clear every aggregate."""
        self.spans.clear()
        self.counts.clear()

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, note=None):
        stack, spans = self._stack, self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                agg = spans[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hull(self, fn):
        timed = self.span("polygon.hull", fn)

        def wrapper(points, *args, **kwargs):
            self.counts["polygon.hull_points"] += len(points)
            if self._cert is not None:
                self._cert["rounds"] += 1
                self._cert["D"] = len(points) - 1
            return timed(points, *args, **kwargs)

        return wrapper

    def _certify(self, fn):
        timed = self.span("polygon.certify", fn)

        def wrapper(point_value, lam_upto, *args, **kwargs):
            cert = {"rounds": 0, "D": 0, "indices": set()}
            outer, self._cert = self._cert, cert
            try:
                return timed(
                    self.span("polygon.valuation", point_value, note=cert["indices"].add),
                    self.span("series.lam", lam_upto),
                    *args,
                    **kwargs,
                )
            finally:
                self._cert = outer
                self.counts["polygon.certificates"] += 1
                self.counts["polygon.rounds"] += cert["rounds"]
                self.counts["polygon.D_final"] += cert["D"]
                self.counts["polygon.indices"] += len(cert["indices"])

        return wrapper

    # -- install / restore --------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = self.modules.get(module)
        if mod is None or not hasattr(mod, attr):
            self.missing.append(f"{module}.{attr}")
            return
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module in CERTIFY:
            self._patch(module, "certified_slopes", self._certify)
        self._patch("polygon", "lower_hull", self._hull)
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self.counted(name, fn))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- read-out -----------------------------------------------------------

    def snapshot(self) -> dict:
        """This request's aggregates: {"spans": {name: [calls, total_s, self_s]}, "counts": {...}}."""
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}
