"""Call tracing from outside the package.

A ``Tracer`` replaces module attributes (the names callers look up at call
time) with timing wrappers, records one span per call in memory, and puts
the original functions back when its ``installed`` block ends. Spans are
written out and reduced to per-layer metrics after the run.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

import numpy as np

# Branch thresholds of the package, restated so the trace can classify calls
# from their arguments; a test pins them to the package's own constants.
HYP_SERIES_RADIUS = 0.7  # hyp2f1_11: power series for |x| <= 0.7, continued fraction above
HYP_MIN_DIRECT_C = 1.5  # hyp2f1_11: c below this is reached by the contiguous shift
BESSEL_SERIES_Z_MAX = 14.0  # bessel_j: power series for z < 14
BESSEL_ASYMPTOTIC_Z_MIN = 1000.0  # bessel_j: Miller below 1000, Hankel asymptotics from 1000
F1_DEGENERATE_TOL = 1e-9  # f1_integral: equal or opposite orders within this are degenerate


def hyp_attrs(args, kwargs, result) -> dict:
    c, x = float(args[0]), complex(args[1])
    return {"branch": "series" if abs(x) <= HYP_SERIES_RADIUS else "cf", "shifted": c < HYP_MIN_DIRECT_C}


def bessel_attrs(args, kwargs, result) -> dict:
    nu = float(args[0])
    z = np.asarray(args[1], dtype=float)
    series = int(np.count_nonzero(z < BESSEL_SERIES_Z_MAX))
    asymptotic = int(np.count_nonzero(z >= BESSEL_ASYMPTOTIC_Z_MIN))
    return {
        "points": int(z.size),
        "series": series,
        "miller": int(z.size) - series - asymptotic,
        "asymptotic": asymptotic,
        "neg_order": nu < 0.0,
    }


def f1_attrs(args, kwargs, result) -> dict:
    mu, nu = float(args[1]), float(args[2])
    degenerate = abs(mu - nu) < F1_DEGENERATE_TOL or abs(mu + nu) < F1_DEGENERATE_TOL
    return {"branch": "degenerate" if degenerate else "generic"}


def integrate_attrs(args, kwargs, result) -> dict:
    if result is None:  # integrate raised
        return {"steps": 0, "truncated": False}
    return {"steps": len(result) - 1, "truncated": not result.complete}


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr``, recorded under span ``name``."""

    module: str
    attr: str
    name: str
    attrs: Callable | None = None


TARGETS = (
    Target("abgup.cli", "main", "cli.main"),
    Target("abgup.cli", "flux_split", "core.flux_split"),
    Target("abgup.scattering", "flux_split", "core.flux_split"),
    Target("abgup.scattering", "dsigma", "scattering.dsigma"),
    Target("abgup.scattering", "scatter_sample", "scattering.scatter_sample"),
    Target("abgup.scattering", "g_fn", "scattering.g_fn"),
    Target("abgup.scattering", "hyp2f1_11", "specfun.hyp2f1_11", hyp_attrs),
    Target("abgup.radial", "mode_f1", "radial.mode_f1"),
    Target("abgup.radial", "uv_pair", "radial.uv_pair"),
    Target("abgup.radial", "f1_integral", "radial.f1_integral", f1_attrs),
    Target("abgup.radial", "bessel_j", "specfun.bessel_j", bessel_attrs),
    Target("abgup.classical", "integrate", "classical.integrate", integrate_attrs),
    Target("abgup.classical", "el_residual", "classical.el_residual"),
    Target("abgup.classical", "lagrangian", "classical.lagrangian"),
)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    root: int  # index of the root span: spans of one request share it
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records spans for every wrapped call made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, describe: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, parent, spans[parent].root if stack else idx, 0)
            spans.append(span)
            stack.append(idx)
            result = None
            span.start_ns = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end_ns = perf_counter_ns()
                stack.pop()
                if describe is not None:
                    span.attrs = describe(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in TARGETS:
                mod = importlib.import_module(t.module)
                original = getattr(mod, t.attr)
                saved.append((mod, t.attr, original))
                setattr(mod, t.attr, self._wrap(t.name, original, t.attrs))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        """One line per span: index, parent, root, name, start/end ns, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,root,name,start_ns,end_ns,attrs\n")
            for i, s in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in s.attrs.items())
                fh.write(f"{i},{s.parent},{s.root},{s.name},{s.start_ns},{s.end_ns},{extra}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end_ns - s.start_ns - covered) * 1e-9)
    return out


# Per-layer metrics: name -> (unit, better). The order is the report order.
LAYER_METRICS = {
    "specfun.hyp2f1_11.calls": ("count", "lower"),
    "specfun.hyp2f1_11.time_s": ("s", "lower"),
    "specfun.hyp2f1_11.series.calls": ("count", "lower"),
    "specfun.hyp2f1_11.series.time_s": ("s", "lower"),
    "specfun.hyp2f1_11.cf.calls": ("count", "lower"),
    "specfun.hyp2f1_11.cf.time_s": ("s", "lower"),
    "specfun.hyp2f1_11.shifted.calls": ("count", "lower"),
    "specfun.bessel_j.calls": ("count", "lower"),
    "specfun.bessel_j.time_s": ("s", "lower"),
    "specfun.bessel_j.points": ("count", "lower"),
    "specfun.bessel_j.points_per_call": ("count", "higher"),
    "specfun.bessel_j.series.points": ("count", "lower"),
    "specfun.bessel_j.miller.points": ("count", "lower"),
    "specfun.bessel_j.asymptotic.points": ("count", "lower"),
    "specfun.bessel_j.neg_order.calls": ("count", "lower"),
    "radial.mode_f1.calls": ("count", "lower"),
    "radial.mode_f1.time_s": ("s", "lower"),
    "radial.uv_pair.calls": ("count", "lower"),
    "radial.uv_pair.time_s": ("s", "lower"),
    "radial.f1_integral.generic.calls": ("count", "lower"),
    "radial.f1_integral.generic.time_s": ("s", "lower"),
    "radial.f1_integral.degenerate.calls": ("count", "lower"),
    "radial.f1_integral.degenerate.time_s": ("s", "lower"),
    "scattering.dsigma.calls": ("count", "lower"),
    "scattering.dsigma.time_s": ("s", "lower"),
    "scattering.scatter_sample.calls": ("count", "lower"),
    "scattering.scatter_sample.time_s": ("s", "lower"),
    "scattering.g_fn.calls": ("count", "lower"),
    "scattering.g_fn.time_s": ("s", "lower"),
    "scattering.g_fn.self_s": ("s", "lower"),
    "scattering.kernel_builds_per_row": ("ratio", "lower"),
    "classical.integrate.calls": ("count", "lower"),
    "classical.integrate.time_s": ("s", "lower"),
    "classical.integrate.steps": ("count", "lower"),
    "classical.integrate.truncated": ("count", "lower"),
    "classical.rk4_step_us": ("us", "lower"),
    "classical.el_residual.calls": ("count", "lower"),
    "classical.el_residual.time_s": ("s", "lower"),
    "classical.lagrangian.calls": ("count", "lower"),
    "classical.lagrangian.time_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "cli.rows_skipped": ("count", "lower"),
    "core.flux_split.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def layer_metrics(spans: list[Span], scan_rows: int, bytes_out: int, rows_skipped: int,
                  overhead_frac: float) -> dict[str, float]:
    """Reduce spans (and the run's output counts) to the LAYER_METRICS values.

    ``scan_rows`` is the number of dsigma rows written, the base of
    ``kernel_builds_per_row``; it is 0 outside the scan workload.
    """
    own = self_times(spans)
    out = dict.fromkeys(LAYER_METRICS, 0.0)

    def add(key: str, value: float) -> None:
        out[key] += value

    for s, self_s in zip(spans, own):
        name, dur, a = s.name, s.duration_s, s.attrs
        if name == "specfun.hyp2f1_11":
            add(f"{name}.{a['branch']}.calls", 1)
            add(f"{name}.{a['branch']}.time_s", dur)
            add(f"{name}.shifted.calls", a["shifted"])
        elif name == "specfun.bessel_j":
            add(f"{name}.points", a["points"])
            for branch in ("series", "miller", "asymptotic"):
                add(f"{name}.{branch}.points", a[branch])
            add(f"{name}.neg_order.calls", a["neg_order"])
        elif name == "radial.f1_integral":
            add(f"{name}.{a['branch']}.calls", 1)
            add(f"{name}.{a['branch']}.time_s", dur)
        elif name == "classical.integrate":
            add(f"{name}.steps", a["steps"])
            add(f"{name}.truncated", a["truncated"])
        for key, value in (("calls", 1), ("time_s", dur), ("self_s", self_s)):
            if f"{name}.{key}" in out:
                add(f"{name}.{key}", value)

    calls = out["specfun.bessel_j.calls"]
    out["specfun.bessel_j.points_per_call"] = out["specfun.bessel_j.points"] / calls if calls else 0.0
    out["scattering.kernel_builds_per_row"] = (
        out["scattering.g_fn.calls"] / scan_rows if scan_rows else 0.0
    )
    steps = out["classical.integrate.steps"]
    out["classical.rk4_step_us"] = out["classical.integrate.time_s"] / steps * 1e6 if steps else 0.0
    out["cli.bytes_out"] = float(bytes_out)
    out["cli.rows_skipped"] = float(rows_skipped)
    out["trace.overhead_frac"] = overhead_frac
    return {k: float(v) for k, v in out.items()}
