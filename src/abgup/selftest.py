"""The ``abgup selftest`` suite: invariants of every module, checked on an
installed package without pytest (``tests/`` is not installed).

``CHECKS`` is one table of (name, check, tolerance) rows. A check returns
one float, the error or residual it measures. A row passes when that
figure is finite and below its tolerance; a tolerance of 0 asks for an
exact zero. A check that raises fails its row, and the run goes on.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from . import classical, radial, scattering
from .core import PhysicalParams, commutator_residual_1d, flux_split, gup_bound
from .core import minimal_length, momentum_map
from .specfun import bessel_j, digamma, gamma_fn, hyp2f1_11

_PB = PhysicalParams(beta=0.01)
_P0 = PhysicalParams(beta=0.0)
_P_BOUND = PhysicalParams(beta=0.02)


def _worst(errors) -> float:
    """Largest |error|; a nan anywhere makes the figure nan."""
    return float(np.max(np.abs(errors)))

def _bound_shortfall() -> float:
    """Largest relative dip of the uncertainty bound below its floor, or 0."""
    bounds = np.array([gup_bound(s, _P_BOUND) for s in np.linspace(0.2, 12.0, 50)])
    return float(np.max(1.0 - bounds / minimal_length(_P_BOUND), initial=0.0))

def _commutator_residual(halvings: int) -> float:
    return commutator_residual_1d(256 << halvings, 0.05 / 2**halvings, _PB)

def _log_identity(x: complex) -> float:
    return abs(hyp2f1_11(2.0, x) - (-cmath.log(1.0 - x) / x))

def _f1_vs_quadrature(z: float, mu: float, nu: float) -> float:
    return abs(radial.f1_integral(z, mu, nu) - radial.fn_quadrature(1, z, mu, nu)[0])

def _f1_derivative() -> float:
    h, z = 1e-4, 4.0
    num = (radial.f1_integral(z + h, 0.6, 1.4) - radial.f1_integral(z - h, 0.6, 1.4)) / (2 * h)
    return abs(num - bessel_j(0.6, z) * bessel_j(1.4, z) / z)

def _mode_residual() -> float:
    zs = np.linspace(0.5, 10.0, 2048)
    return radial.ode_residual(zs, radial.mode_f0(zs, 1, 0.3), 1, 0.3, 1.0)

def _constant_term_gap() -> float:
    g2 = radial.g1_g2(0, 0.5, _PB)[1]
    return abs(radial.uv_pair(120.0, 0, 0.5, _PB)[1] - g2) / abs(g2)

def _gamma_sum_error() -> float:
    got = scattering.regularized_alternating_gamma_sum(math.pi / 3, 0.5)
    ref = -math.pi * cmath.exp(-0.5j * math.pi / 3) / (
        2.0 * math.sin(math.pi * 0.5) * math.cos(math.pi / 6))
    return abs(got - ref)

def _series_gap(phi: float, a: float) -> float:
    fs = scattering.f1_series(phi, a, _PB)
    return abs(scattering.f1_amp(phi, a, _PB) - fs) / abs(fs)

def _jump_identity() -> float:
    up, lo = scattering.dsigma_integer_limits(1, math.pi / 4, _PB)
    return abs(scattering.width(1, math.pi / 4, _PB) - abs(up - lo))

def _sample_assembly() -> float:
    ss = scattering.scatter_sample(math.pi / 4, 0.7, _PB)
    return abs(abs(ss.f0 + _PB.beta * ss.f1) ** 2 - ss.dsigma)

def _flow_gradient_gap() -> float:
    """Largest gap of (xdot, pdot) from (dH/dp, -dH/dx) by central differences."""
    fab = classical.ab_flux_field(0.7, _PB)
    x, p = np.array([1.2, -0.6]), np.array([0.8, 0.4])
    xd, pd = classical.hamiltonian_flow(classical.ClassicalState(x, p), fab, _PB)

    def ham(y, q):
        return classical.hamiltonian(classical.ClassicalState(y, q), fab, _PB)
    dh_dx = classical._partials(lambda y: ham(y, p), x, 1e-6)  # step 1e-6 * max(1, |y|_inf)
    dh_dp = classical._partials(lambda q: ham(x, q), p, 1e-6)
    return _worst([xd - dh_dp, pd + dh_dx])

def _uniform_e_correction() -> float:
    e_vec, v = np.array([0.2, -0.1, 0.4]), np.array([0.5, 0.3, -0.2])
    fld = classical.uniform_field(d=3, e_field=e_vec)
    got = classical.gamma_term(v, np.zeros(3), 0.0, fld, _PB)
    return _worst(got - (4.0 * float(v @ v) * e_vec + 8.0 * float(v @ e_vec) * v))

def _cyclotron_radius() -> float:
    st = classical.ClassicalState(np.zeros(2), np.array([1.0, 0.0]))
    traj = classical.integrate(st, classical.uniform_field(d=2, b_field=1.0), _P0, 1e-3,
                               int(round(2 * math.pi / 1e-3)))
    return _worst(np.hypot(traj.x[:, 0], traj.x[:, 1] + 1.0) - 1.0)  # centre (0, -1)

def _ab_trajectory(p0: list[float], steps: int) -> classical.Trajectory:
    st = classical.ClassicalState(np.array([2.0, 0.0]), np.array(p0))
    return classical.integrate(st, classical.ab_flux_field(0.5, _PB), _PB, 1e-3, steps)

def _energy_drift() -> float:
    energy = _ab_trajectory([-0.3, 0.8], 2000).energy
    return _worst(energy - energy[0]) / abs(energy[0])

def _shifted_potential_residual() -> float:
    lam = classical.ScalarField(value=lambda x, t: x[0], grad=lambda x, t: np.array([1.0, 0.0]))
    free = classical.uniform_field(d=2)
    _, checker = classical.gauge_shift(free, lam, lam, _PB)
    st = classical.ClassicalState(np.zeros(2), np.array([0.4, 0.3]))
    return checker(classical.integrate(st, free, _PB, 1e-3, 300))


CHECKS: list[tuple[str, Callable[[], float], float]] = [
    ("core: uncertainty bound floor", lambda: abs(
        gup_bound(1.0 / math.sqrt(3.0 * 0.02), _P_BOUND) - minimal_length(_P_BOUND)), 1e-12),
    ("core: uncertainty bound above floor", _bound_shortfall, 1e-12),
    ("core: flux split exactness", lambda: _worst([flux_split(2.3).n_part - 2,
     flux_split(2.3).gamma_part - 0.3, flux_split(-0.3).n_part + 1]), 1e-15),
    ("core: momentum map", lambda: abs(momentum_map(1.0, 0.1) - 1.1), 1e-15),
    ("core: commutator residual size", lambda: _commutator_residual(0), 1e-3),
    # below 1 when the residual falls by a factor in (2, 8) as h halves
    ("core: commutator residual O(h^2)",
     lambda: abs(math.log2(_commutator_residual(0) / _commutator_residual(1)) - 2.0), 1.0),
    ("specfun: gamma reflection", lambda: abs(
        gamma_fn(0.37) * gamma_fn(1.0 - 0.37) - math.pi / math.sin(math.pi * 0.37)), 1e-12),
    ("specfun: digamma recurrence",
     lambda: abs(digamma(1.44 + 1.0) - digamma(1.44) - 1.0 / 1.44), 1e-12),
    ("specfun: bessel recurrence", lambda: _worst([
        bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z) - 2.0 * nu / z * bessel_j(nu, z)
        for nu in (0.3, 1.7, 4.4) for z in (0.7, 5.0, 40.0)]), 1e-8),
    ("specfun: 2f1 log identity", lambda: _log_identity(0.5 + 0.8j), 1e-10),
    # |x| >= 1.5 at exact c = 2, where Euler's integral has a constant weight
    ("specfun: 2f1 log identity past |x| = 1.5",
     lambda: _log_identity(0.5 + 20j) / abs(cmath.log(0.5 - 20j) / 20j), 1e-14),
    ("radial: product integral vs quadrature", lambda: _f1_vs_quadrature(5.0, 0.3, 1.3), 1e-8),
    ("radial: equal-order branch", lambda: _f1_vs_quadrature(3.0, 0.5, 0.5), 1e-10),
    ("radial: derivative identity", _f1_derivative, 1e-6),
    ("radial: homogeneous mode residual", _mode_residual, 1e-5),
    ("radial: constant-term convergence", _constant_term_gap, 0.05),
    ("scattering: g2m closed value", lambda: abs(scattering.g2m(0, 0.5, PhysicalParams())
     - math.pi * 13.0 / 24.0 * cmath.exp(-0.25j * math.pi)), 1e-12),
    ("scattering: regularized gamma sum", _gamma_sum_error, 1e-11),
    ("scattering: series vs closed form",
     lambda: _worst([_series_gap(math.pi / 4, 0.7), _series_gap(-math.pi / 2, 1.3)]), 1e-10),
    ("scattering: jump identity", _jump_identity, 0.0),
    ("scattering: jump closed value", lambda: abs(scattering.width(1, math.pi / 4, _PB)
     - _PB.beta * math.pi * abs(2.0 * math.cos(math.pi / 8) ** 2 - 1.0)), 1e-12),
    ("scattering: integer-flux zeros", lambda: _worst([scattering.dsigma(phi, float(n), _P0)
     for n in (1, 2, 3) for phi in (math.pi / 4, -math.pi / 2)]), 0.0),
    # exact: g_fn builds a negative flux at its mirror point (-phi, -alpha')
    ("scattering: flip symmetry", lambda: _worst([
        scattering.f1_amp(math.pi / 3, 0.7, _PB) - scattering.f1_amp(-math.pi / 3, -0.7, _PB),
        scattering.dsigma(math.pi / 3, 0.7, _PB) - scattering.dsigma(-math.pi / 3, -0.7, _PB)]),
     0.0),
    # exact: sin^2(pi alpha') / cos^2(phi/2) is even in both, next to integer flux too
    ("scattering: beta = 0 flip symmetry", lambda: _worst([
        scattering.dsigma(phi, a, _P0) - scattering.dsigma(-phi, -a, _P0)
        for a, phi in ((0.7, 0.4), (2.9999985, -1.3), (-3.000002, 2.9))]), 0.0),
    ("scattering: forms agree to O(beta^2)", lambda: abs(
        scattering.dsigma(math.pi / 4, 0.7, _PB, form="modulus")
        - scattering.dsigma(math.pi / 4, 0.7, _PB, form="linearized")), 10.0 * _PB.beta**2),
    ("scattering: sample assembly", _sample_assembly, 1e-12),
    ("classical: flow is gradient of H", _flow_gradient_gap, 1e-6),
    ("classical: uniform-E force correction", _uniform_e_correction, 1e-10),
    ("classical: free-space correction vanishes", lambda: _worst(classical.gamma_term(
        np.array([0.3, -0.7, 0.2]), np.zeros(3), 0.0, classical.uniform_field(d=3), _PB)), 0.0),
    ("classical: cyclotron radius", _cyclotron_radius, 1e-6),
    ("classical: energy conservation", _energy_drift, 1e-10),
    ("classical: action-consistency residual", lambda: classical.el_residual(
        _ab_trajectory([-0.15, 0.35], 600), classical.ab_flux_field(0.5, _PB), _PB), 1e-4),
    ("classical: shifted-potential consistency", _shifted_potential_residual, 1e-10),
]


def run() -> int:
    """Run every row of ``CHECKS``, print one line per row and a summary;
    return 0 when all pass and 2 otherwise."""
    passed = 0
    for name, check, tol in CHECKS:
        try:
            figure = float(check())
        except Exception as exc:  # a crash fails its row, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        else:
            ok = math.isfinite(figure) and (figure < tol or figure == 0.0)
            detail = f"{figure:.2e}, tolerance {tol:g}"
        passed += ok
        print(("ok   " if ok else "FAIL ") + f"{name}  ({detail})")
    print(f"selftest: {passed}/{len(CHECKS)} checks passed")
    return 0 if passed == len(CHECKS) else 2
