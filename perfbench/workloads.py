"""Seeded workload generators: each turns (workload, seed) into one pass of
CLI calls.

A pass has a fixed composition: the same strata, the same number of calls
per stratum and the same grid sizes for every seed. The seed only moves the
physical parameters inside each stratum, so two seeds do the same amount of
work on different numbers and their timings can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan", "radial", "trajectory")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass.

    ``opts`` maps each option name (without the leading dashes) to the exact
    string handed to the CLI; the oracles read parameters back from it, so
    they see the same rounded values the program parsed. ``pair`` links a
    coarse radial dump to the fine dump of the same mode (same z endpoints).
    """

    command: str
    opts: tuple[tuple[str, str], ...]
    stratum: str
    pair: int = -1

    @property
    def argv(self) -> list[str]:
        # "--key=value" keeps values such as "-0.2,0.1" from reading as options
        return [self.command] + [f"--{key}={value}" for key, value in self.opts]

    def get(self, key: str) -> str:
        return dict(self.opts)[key]

    def num(self, key: str) -> float:
        return float(self.get(key))


def _f(x: float) -> str:
    return format(x, ".6f")


def _flux(rng: random.Random, n_lo: int, n_hi: int, lo: float = 0.1, hi: float = 0.9) -> float:
    """Flux parameter N + gamma with gamma kept away from the integers."""
    return rng.randint(n_lo, n_hi) + rng.uniform(lo, hi)


def _fmt_for(i: int) -> str:
    return "csv" if i % 2 == 0 else "json"


# Every stratum is sized so that one call costs about the same (~55 ms per
# scan, ~90 ms per radial dump, ~100 ms per trajectory on a 2-vCPU x86
# virtual machine). With one cost cluster per workload, the median and the
# tail percentile fall inside it instead of on the edge between two clusters,
# where a little noise would flip them from one cluster to the other.

# Scan: |x| = 1 / (2 cos(phi/2)) crosses the 0.7 series radius at
# |phi| ~ 1.55, so the "series" stratum stays below 1.3 and the "cf" one
# above 1.9. The forward stratum ends within 0.1-0.14 of pi, where Lentz
# needs the most iterations; its cost per point grows steeply towards pi, so
# the seed moves that end only a little. JSON builds the kernel twice per
# row, so JSON scans have about half the points of CSV scans.
_SCAN_STEPS = {
    # stratum: (csv points, json points)
    "alpha-series": (150, 80),
    "alpha-cf": (112, 58),
    "phi-wide": (130, 64),
    "phi-forward": (80, 40),
}
_SCAN_PER_STRATUM = 12


def _scan_pass(rng: random.Random) -> list[Call]:
    calls: list[Call] = []
    for i in range(_SCAN_PER_STRATUM):
        fmt = _fmt_for(i)
        for stratum, steps in _SCAN_STEPS.items():
            common = [
                ("beta", _f(rng.uniform(0.005, 0.02))),
                ("steps", str(steps[fmt == "json"])),
                ("format", fmt),
            ]
            sign = rng.choice((-1.0, 1.0))
            if stratum.startswith("alpha"):
                lo, hi = (0.4, 1.3) if stratum == "alpha-series" else (1.9, 2.5)
                opts = [
                    ("phi", _f(sign * rng.uniform(lo, hi))),
                    ("alpha-min", _f(-rng.uniform(2.1, 3.9))),
                    ("alpha-max", _f(rng.uniform(2.1, 3.9))),
                ]
                command = "alpha-scan"
            else:
                if stratum == "phi-wide":
                    phi_min, phi_max = -rng.uniform(2.7, 2.8), rng.uniform(2.7, 2.8)
                else:
                    phi_min, phi_max = rng.uniform(2.3, 2.5), rng.uniform(3.0, 3.05)
                    if sign < 0:
                        phi_min, phi_max = -phi_max, -phi_min
                opts = [
                    ("alpha", _f(_flux(rng, -3, 2))),
                    ("phi-min", _f(phi_min)),
                    ("phi-max", _f(phi_max)),
                ]
                command = "phi-scan"
            calls.append(Call(command, tuple(opts + common), stratum))
    return calls


# Radial: each mode is dumped twice over the same z range, once on a fine
# grid (gaps below the 2.5e-3 single-panel limit, one batched Gauss pass) and
# once on a coarse grid (gaps of 0.1-0.25, one panel quadrature per gap).
# "low" ranges stay below z = 14, where bessel_j sums its power series;
# "cross" ranges pass 14 into the Miller branch. The fine grid contains every
# coarse abscissa, which the coarse-grid check relies on. A coarse dump costs
# at least one panel per 0.25 of z, so the cross dumps (z from 2-3 to past 14)
# cost 2-5 times a low one; there are four per pass, above the tail
# percentile, which stays inside the low cluster.
_RADIAL_STRATA = (
    # name, pairs per pass, z range width, fine gap (csv, json), coarse points
    ("low", 14, 2.0, (4e-4, 8e-4), 21),
    ("cross", 2, 12.5, (2e-3, 2.4e-3), 51),
)


def _mode(rng: random.Random) -> tuple[int, float]:
    """(m, alpha') with the order m + alpha' at least 0.15 from an integer."""
    while True:
        m = rng.randint(-2, 2)
        a = _flux(rng, -1, 1, 0.15, 0.85)
        w = m + float(_f(a))
        if abs(w - round(w)) >= 0.15:
            return m, a


def _radial_pass(rng: random.Random) -> list[Call]:
    calls: list[Call] = []
    pair = 0
    for stratum, pairs, width, fine_gaps, n_coarse in _RADIAL_STRATA:
        for i in range(pairs):
            m, a = _mode(rng)
            z_min = rng.uniform(0.5, 2.5) if stratum == "low" else rng.uniform(2.0, 3.0)
            fmt = _fmt_for(i)
            per_gap = round(width / fine_gaps[fmt == "json"] / (n_coarse - 1))
            base = [
                ("beta", _f(rng.uniform(0.005, 0.02))),
                ("m", str(m)),
                ("alpha", _f(a)),
                ("z-min", _f(z_min)),
                ("z-max", _f(z_min + width)),
            ]
            for grid, steps in (("fine", per_gap * (n_coarse - 1) + 1), ("coarse", n_coarse)):
                opts = base + [("steps", str(steps)), ("format", fmt)]
                calls.append(Call("radial", tuple(opts), f"{stratum}-{grid}", pair))
            pair += 1
    return calls


# Trajectory: a third each of flux-line (ab) runs at beta > 0, uniform-b runs
# at beta = 0 (the bare flow) and uniform-b runs at beta > 0 (the corrected
# flow). The ab runs start at r in [1.8, 2.4] with |p| <= 0.4 and
# beta <= 0.01, the gentle regime in which the action residual sits below
# 1e-4 (its O(beta^2) Legendre floor grows with |p|).
_TRAJ_STEPS = {"ab": 500, "uniform-b-bare": 800, "uniform-b-beta": 550}
_TRAJ_PER_STRATUM = 12


def _vec(r: float, theta: float) -> str:
    return f"{_f(r * math.cos(theta))},{_f(r * math.sin(theta))}"


def _trajectory_pass(rng: random.Random) -> list[Call]:
    calls: list[Call] = []
    for i in range(_TRAJ_PER_STRATUM):
        for stratum, steps in _TRAJ_STEPS.items():
            common = [
                ("dt", _f(rng.uniform(0.8e-3, 1.2e-3))),
                ("steps", str(steps)),
                ("format", _fmt_for(i)),
            ]
            if stratum == "ab":
                opts = [
                    ("field", "ab"),
                    ("beta", _f(rng.uniform(0.004, 0.01))),
                    ("alpha", _f(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.8))),
                    ("x0", _vec(rng.uniform(1.8, 2.4), rng.uniform(0.0, 2.0 * math.pi))),
                    ("p0", _vec(rng.uniform(0.15, 0.4), rng.uniform(0.0, 2.0 * math.pi))),
                ]
            else:
                beta = 0.0 if stratum == "uniform-b-bare" else rng.uniform(0.005, 0.02)
                opts = [
                    ("field", "uniform-b"),
                    ("beta", _f(beta)),
                    ("b", _f(rng.uniform(0.5, 2.0))),
                    ("x0", _vec(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))),
                    ("p0", _vec(rng.uniform(0.2, 0.8), rng.uniform(0.0, 2.0 * math.pi))),
                ]
            calls.append(Call("trajectory", tuple(opts + common), stratum))
    return calls


_GENERATORS = {"scan": _scan_pass, "radial": _radial_pass, "trajectory": _trajectory_pass}


def generate(workload: str, seed: int) -> list[Call]:
    """The pass of calls for ``workload``; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
