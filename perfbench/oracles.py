"""Output checks for the benchmark workloads, run outside the timed region.

Each check parses one CLI output and compares it with a route that does not
share code with the path being timed:

* scan: dsigma on a seeded sample of rows against the linearized form built
  from a kernel G rebuilt with ``scipy.special.hyp2f1``; for JSON records,
  f0 on every row against its closed form and f1 on the sample against the
  scipy-built G;
* radial: f0 against (-i)^nu ``scipy.special.jv``; f1 on fine grids through
  the sourced radial-equation residual at the criterion-6 tolerance, on
  z <= 10; f1 on coarse grids against the fine dump of the same mode at
  shared z;
* trajectory: energy drift <= 1e-8 and, on flux-line runs, the
  Euler-Lagrange residual <= 1e-4 (the criterion-9 tolerances); bare
  uniform-b runs against the exact cyclotron orbit.

A check returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np
from scipy import special as sps

from abgup import classical, radial
from abgup.core import PhysicalParams

from .workloads import Call

# Tolerances. The scan and radial ones sit about three orders of magnitude
# above the worst disagreement seen over thousands of random points; the
# trajectory and residual ones are the acceptance-criterion values.
SCAN_REL_TOL = 1e-9
F0_ABS_TOL = 1e-9
ODE_RESIDUAL_TOL = 1e-5
# The residual check divides f1 samples by h^2 in second differences; above
# z ~ 10 bessel_j's ~1e-11 series error, so amplified, tops 1e-5 at any
# h <= 2.5e-3. It is applied on z <= 10, the criterion-6 range, and the
# whole of every f1 profile is still compared coarse against fine.
ODE_Z_MAX = 10.0
COARSE_FINE_REL_TOL = 1e-8
ENERGY_DRIFT_TOL = 1e-8
EL_RESIDUAL_TOL = 1e-4
ORBIT_ABS_TOL = 1e-8
GRID_ABS_TOL = 1e-12

SCAN_SAMPLE_ROWS = 8
_ALPHA_MARGIN = 1e-4  # scans skip flux values this close to an integer
_PHI_MARGIN = 1e-3  # and angles this close to +-pi
_SMALL_GAP = 2.5e-3  # radial grids up to this gap take the batched F1 pass


def parse_output(text: str, fmt: str) -> tuple[dict[str, np.ndarray], int]:
    """Columns of the data rows, and the number of skipped/truncated entries."""
    if fmt == "json":
        payload = json.loads(text)
        records = payload["records"]
        keys = list(records[0]) if records else []
        cols = {k: np.array([float(r[k]) for r in records]) for k in keys}
        return cols, len(payload["skipped"])
    lines = text.splitlines()
    header = lines[0].split(",")
    data = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
    skipped = sum(1 for ln in lines[1:] if ln.startswith("#"))
    table = np.array([[float(v) for v in ln.split(",")] for ln in data]).reshape(-1, len(header))
    return {k: table[:, i] for i, k in enumerate(header)}, skipped


def count_rows(text: str, fmt: str) -> tuple[int, int]:
    """(data rows, skipped entries) of one output; (0, 0) if it does not parse."""
    try:
        cols, skipped = parse_output(text, fmt)
    except (ValueError, KeyError, IndexError):
        return 0, 0
    return len(next(iter(cols.values()), ())), skipped


# =====================================================================
# scan
# =====================================================================

def _hyp(c: float, x: complex) -> complex:
    return complex(sps.hyp2f1(1.0, 1.0, c, x))


def kernel_g(alpha_prime: float, phi: float) -> complex:
    """G(alpha', phi) from scipy's 2F1, following the closed form in the paper."""
    a = alpha_prime
    g = a - math.floor(a)
    x = 0.5 * (1.0 + 1j * math.tan(0.5 * phi))
    xc = x.conjugate()
    ep = cmath.exp(1j * math.pi * g)
    em = cmath.exp(-1j * math.pi * g)
    return (
        2.0 * a * a * (ep / (1.0 - g) * _hyp(2.0 - g, xc) - em / g * _hyp(1.0 + g, x))
        + 12.0 * a * math.cos(math.pi * g)
        + a * a * (1.0 - 0.5 * a) * (ep / (2.0 - g) * _hyp(3.0 - g, xc) + em / (1.0 - g) * _hyp(g, x))
        - a * a * (1.0 + 0.5 * a) * (ep / g * _hyp(1.0 - g, xc) + em / (1.0 + g) * _hyp(2.0 + g, x))
    )


def _sqrt_2pi_i() -> complex:
    return math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi)


def f0_closed(phi: np.ndarray, alpha_prime: np.ndarray) -> np.ndarray:
    """f0 = -i e^{-iN(phi-pi)} sin(pi a') e^{-i phi/2} / (cos(phi/2) sqrt(2 pi i)), k = 1."""
    n = np.floor(alpha_prime)
    num = -1j * np.exp(-1j * n * (phi - math.pi)) * np.sin(math.pi * alpha_prime) * np.exp(-0.5j * phi)
    return num / (np.cos(0.5 * phi) * _sqrt_2pi_i())


def check_scan(call: Call, text: str, rng: random.Random) -> list[str]:
    fmt = call.get("format")
    cols, skipped = parse_output(text, fmt)
    steps = int(call.get("steps"))
    beta = call.num("beta")
    if call.command == "alpha-scan":
        grid = np.linspace(call.num("alpha-min"), call.num("alpha-max"), steps)
        alphas, phis = grid, np.full(steps, call.num("phi"))
    else:
        grid = np.linspace(call.num("phi-min"), call.num("phi-max"), steps)
        alphas, phis = np.full(steps, call.num("alpha")), grid
    gam = alphas - np.floor(alphas)
    keep = (np.minimum(gam, 1.0 - gam) >= _ALPHA_MARGIN) & (math.pi - np.abs(phis) >= _PHI_MARGIN)
    n = int(keep.sum())
    rows = len(cols.get("dsigma", ()))
    if rows != n or skipped != steps - n:
        return [f"{rows} rows and {skipped} skipped, expected {n} and {steps - n}"]
    if n == 0:
        return []
    alphas, phis = alphas[keep], phis[keep]
    errors = []
    if np.max(np.abs(cols["alpha_prime"] - alphas)) > GRID_ABS_TOL or np.max(
        np.abs(cols["phi"] - phis)
    ) > GRID_ABS_TOL:
        errors.append("grid columns differ from the requested grid")
    if not np.all(np.isfinite(cols["dsigma"])):
        errors.append("non-finite dsigma")

    if fmt == "json":
        f0 = cols["f0_re"] + 1j * cols["f0_im"]
        ref = f0_closed(phis, alphas)
        worst = float(np.max(np.abs(f0 - ref) / np.abs(ref)))
        if not worst <= SCAN_REL_TOL:
            errors.append(f"f0 relative error {worst:.2e} > {SCAN_REL_TOL}")

    for i in sorted(rng.sample(range(n), min(SCAN_SAMPLE_ROWS, n))):
        a, phi = float(alphas[i]), float(phis[i])
        g = kernel_g(a, phi)
        s = math.sin(math.pi * (a - math.floor(a)))
        c2 = 2.0 * math.pi * math.cos(0.5 * phi) ** 2
        ref = s * (s - beta * 0.5 * math.pi * g.real) / c2
        scale = abs(s) * (abs(s) + beta * 0.5 * math.pi * abs(g)) / c2
        err = abs(float(cols["dsigma"][i]) - ref) / scale
        if not err <= SCAN_REL_TOL:
            errors.append(f"dsigma at alpha'={a!r}, phi={phi!r}: scaled error {err:.2e}")
        if fmt == "json":
            n_part = math.floor(a)
            f1_ref = (
                1j * math.pi * cmath.exp(-1j * (n_part + 0.5) * phi)
                / (4.0 * math.cos(0.5 * phi) * _sqrt_2pi_i())
                * g
            )
            f1 = complex(cols["f1_re"][i], cols["f1_im"][i])
            err = abs(f1 - f1_ref) / abs(f1_ref)
            if not err <= SCAN_REL_TOL:
                errors.append(f"f1 at alpha'={a!r}, phi={phi!r}: relative error {err:.2e}")
    return errors


# =====================================================================
# radial
# =====================================================================

def check_radial(call: Call, text: str, fine: tuple[Call, str] | None) -> list[str]:
    """``fine`` is the fine-grid (call, output) of the same mode, for coarse grids."""
    fmt = call.get("format")
    cols, _ = parse_output(text, fmt)
    steps = int(call.get("steps"))
    z = np.linspace(call.num("z-min"), call.num("z-max"), steps)
    m, a = int(call.get("m")), call.num("alpha")
    if len(cols.get("z", ())) != steps:
        return [f"{len(cols.get('z', ()))} rows, expected {steps}"]
    errors = []
    if np.max(np.abs(cols["z"] - z)) > GRID_ABS_TOL:
        errors.append("z column differs from the requested grid")
    nu = abs(m + a)
    f0_ref = np.exp(-0.5j * math.pi * nu) * sps.jv(nu, z)
    f0 = cols["re_f0"] + 1j * cols["im_f0"]
    worst = float(np.max(np.abs(f0 - f0_ref)))
    if not worst <= F0_ABS_TOL:
        errors.append(f"f0 error {worst:.2e} > {F0_ABS_TOL}")
    f1 = cols["re_f1"] + 1j * cols["im_f1"]

    if np.max(np.diff(z)) <= _SMALL_GAP:
        w = z <= ODE_Z_MAX
        res = radial.ode_residual(z[w], f1[w], m, a, 1.0, which="S1_source", source_values=f0_ref[w])
        if not res <= ODE_RESIDUAL_TOL:
            errors.append(f"sourced residual {res:.2e} > {ODE_RESIDUAL_TOL}")
        return errors

    if fine is None:
        return errors + ["coarse grid without its fine-grid dump"]
    fine_call, fine_text = fine
    n_fine = int(fine_call.get("steps"))
    stride, rem = divmod(n_fine - 1, steps - 1)
    if rem or (fine_call.get("z-min"), fine_call.get("z-max")) != (
        call.get("z-min"),
        call.get("z-max"),
    ):
        return errors + ["fine grid does not contain the coarse abscissae"]
    fine_cols, _ = parse_output(fine_text, fine_call.get("format"))
    f1_fine = fine_cols["re_f1"] + 1j * fine_cols["im_f1"]
    if len(f1_fine) != n_fine:
        return errors + ["fine-grid dump has the wrong length"]
    diff = float(np.max(np.abs(f1 - f1_fine[::stride])))
    scale = float(np.max(np.abs(f1_fine)))
    if not diff <= COARSE_FINE_REL_TOL * scale:
        errors.append(f"coarse vs fine f1 differ by {diff:.2e} (scale {scale:.2e})")
    return errors


# =====================================================================
# trajectory
# =====================================================================

def _vec(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def cyclotron_orbit(x0, v0, omega: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 2-d orbit under dv/dt = omega (v_y, -v_x) (charge q, B along +z)."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    vx = v0[0] * c + v0[1] * s
    vy = -v0[0] * s + v0[1] * c
    xx = x0[0] + (v0[0] * s - v0[1] * c + v0[1]) / omega
    xy = x0[1] + (v0[0] * c - v0[0] + v0[1] * s) / omega
    return np.stack([xx, xy], axis=1), np.stack([vx, vy], axis=1)


def check_trajectory(call: Call, text: str) -> list[str]:
    fmt = call.get("format")
    cols, truncated = parse_output(text, fmt)
    steps, dt = int(call.get("steps")), call.num("dt")
    t = cols.get("t", np.array([]))
    if len(t) != steps + 1 or truncated:
        return [f"{len(t)} samples ({truncated} truncation notes), expected {steps + 1}"]
    errors = []
    if np.max(np.abs(t - dt * np.arange(steps + 1))) > GRID_ABS_TOL:
        errors.append("time column is not t0 + n dt")
    energy = cols["energy"]
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    if not drift <= ENERGY_DRIFT_TOL:
        errors.append(f"energy drift {drift:.2e} > {ENERGY_DRIFT_TOL}")

    x = np.stack([cols["x1"], cols["x2"]], axis=1)
    v = np.stack([cols["v1"], cols["v2"]], axis=1)
    params = PhysicalParams(beta=call.num("beta"))
    if call.get("field") == "ab":
        traj = classical.Trajectory(t=t, x=x, v=v, p=np.zeros_like(x), energy=energy, dt=dt)
        fields = classical.ab_flux_field(call.num("alpha"), params)
        res = classical.el_residual(traj, fields, params)
        if not res <= EL_RESIDUAL_TOL:
            errors.append(f"Euler-Lagrange residual {res:.2e} > {EL_RESIDUAL_TOL}")
    elif params.beta == 0.0:
        b = call.num("b")
        x0, p0 = _vec(call.get("x0")), _vec(call.get("p0"))
        v0 = p0 - 0.5 * b * np.array([-x0[1], x0[0]])  # v = p - qA/M, symmetric gauge
        x_ref, v_ref = cyclotron_orbit(x0, v0, b, t)
        worst = float(max(np.max(np.abs(x - x_ref)), np.max(np.abs(v - v_ref))))
        if not worst <= ORBIT_ABS_TOL:
            errors.append(f"cyclotron orbit error {worst:.2e} > {ORBIT_ABS_TOL}")
    return errors
