"""Radial-sector closed forms against independent quadrature and
finite-difference oracles."""

import cmath
import functools
import json
import math
import os
import random
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate as spi
import scipy.special as sps

from abgup import (
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    SingularConfigError,
    f1_integral,
    f2_integral,
    f3_integral,
    fn_quadrature,
    g1_g2,
    g2m,
    mode_f0,
    mode_f1,
    ode_residual,
    radial,
    radial_mode,
    uv_pair,
    xi_coeffs,
)
from abgup import cli
from abgup.specfun import bessel_j

PARAMS = PhysicalParams(hbar=1.0, k=1.0, beta=0.01)


# =====================================================================
# Source-strength coefficients
# =====================================================================

class TestXiCoeffs:
    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.7])
    def test_closed_forms(self, m, a):
        s = xi_coeffs(m, a)
        nu = abs(m + a)
        xi = a * (3 * m + 2 * a)
        eta = a * a * (m + a) * (2 * m + a)
        assert s.xi == pytest.approx(xi, rel=1e-15, abs=1e-15)
        assert s.xi_plus == pytest.approx(eta + 2 * xi * (1 + nu), rel=1e-14, abs=1e-14)
        assert s.xi_minus == pytest.approx(eta + 2 * xi * (1 - nu), rel=1e-14, abs=1e-14)

    def test_sign_flip_invariance(self):
        # (m, a) -> (-m, -a) preserves nu, xi and eta, hence the whole set
        for m, a in ((1, 0.3), (-2, 1.7), (0, 0.6)):
            s1 = xi_coeffs(m, a)
            s2 = xi_coeffs(-m, -a)
            assert s1.xi == pytest.approx(s2.xi, rel=1e-15)
            assert s1.xi_plus == pytest.approx(s2.xi_plus, rel=1e-15)
            assert s1.xi_minus == pytest.approx(s2.xi_minus, rel=1e-15)


# =====================================================================
# Product-integral closed forms vs quadrature
# =====================================================================

class TestF1:
    @pytest.mark.parametrize("mu, nu", [(0.3, 1.3), (0.6, 1.4), (1.7, 2.7)])
    @pytest.mark.parametrize("z", [0.5, 1.0, 3.0, 5.0, 10.0, 20.0])
    def test_generic_vs_quadrature(self, mu, nu, z):
        closed = f1_integral(z, mu, nu)
        quad, err = fn_quadrature(1, z, mu, nu)
        assert err < 1e-9
        assert abs(closed - quad) < 1e-8

    @pytest.mark.parametrize("mu", [0.5, 1.3])
    @pytest.mark.parametrize("z", [0.7, 3.0, 12.0])
    def test_equal_orders_vs_quadrature(self, mu, z):
        closed = f1_integral(z, mu, mu)
        quad, _ = fn_quadrature(1, z, mu, mu)
        assert abs(closed - quad) < 1e-9

    @pytest.mark.parametrize("mu, nu", [(0.3, 1.7), (0.5, 0.5), (0.6, -0.6)])
    def test_z_as_list_tuple_or_float(self, mu, nu):
        # generic, equal and opposite orders take any array_like z; a list
        # once failed in the generic form with an untyped TypeError
        ref = f1_integral(np.array([1.0, 2.0]), mu, nu)
        for z in ([1.0, 2.0], (1.0, 2.0)):
            got = f1_integral(z, mu, nu)
            assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
        got = f1_integral(2.0, mu, nu)
        assert type(got) is float
        assert got == f1_integral(np.array([2.0]), mu, nu)[0]

    def test_negative_equal_orders_match_positive(self):
        # J_{-n+s} pairs: equal-series branch maps to the positive order
        assert f1_integral(4.0, -1.0, -1.0) == pytest.approx(
            f1_integral(4.0, 1.0, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("mu", [-2.0000001, -2.0000005, -1.9999999])
    def test_equal_orders_next_to_negative_integer_rejected(self, mu):
        # J_-n^2 = J_n^2 at the integer only: next to it the |mu| antiderivative
        # was off by up to 100% against quadrature
        z = np.array([0.02, 0.05, 0.5, 1.0])
        with pytest.raises(SingularConfigError):
            f1_integral(z, mu, mu)
        assert np.array_equal(f1_integral(z, -2.0, -2.0), f1_integral(z, 2.0, 2.0))

    @pytest.mark.parametrize("mu", [0.4, 1.3])
    def test_opposite_orders_difference_vs_quadrature(self, mu):
        # the additive constant is a convention; differences are unambiguous
        z0, z1 = 1.0, 6.0
        d_closed = f1_integral(z1, mu, -mu) - f1_integral(z0, mu, -mu)
        d_quad, _ = fn_quadrature(1, z1, mu, -mu, lower_cutoff=z0)
        assert abs(d_closed - d_quad) < 1e-9

    @pytest.mark.parametrize("mu, nu", [(0.3, 1.3), (1.7, 2.7), (0.5, 0.5)])
    def test_derivative_identity(self, mu, nu):
        # d F1 / dz = J_mu J_nu / z on every branch
        h = 1e-4
        for z in (0.8, 4.0, 15.0):
            num = (f1_integral(z + h, mu, nu) - f1_integral(z - h, mu, nu)) / (2 * h)
            ref = float(sps.jv(mu, z) * sps.jv(nu, z)) / z
            assert num == pytest.approx(ref, abs=5e-7)

    def test_vanishes_at_origin_generic(self):
        assert f1_integral(1e-8, 0.3, 1.3) == pytest.approx(0.0, abs=1e-10)

    def test_array_input(self):
        zs = np.array([0.5, 2.0, 8.0])
        out = f1_integral(zs, 0.3, 1.3)
        assert out.shape == zs.shape
        for z, val in zip(zs, out):
            assert val == pytest.approx(f1_integral(float(z), 0.3, 1.3), rel=1e-14)

    def test_zero_pair_rejected(self):
        with pytest.raises(SingularConfigError):
            f1_integral(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("mu, nu", [(0.5, 0.5), (0.5, -0.5), (0.3, 1.3)])
    def test_non_finite_z_rejected(self, mu, nu):
        # a degenerate pair would otherwise lay panels out to infinity
        with pytest.raises(DomainValidationError):
            f1_integral(np.array([1.0, np.inf]), mu, nu)

    @pytest.mark.parametrize("z", [np.array([0.0, 1.0]), 0.0])
    def test_negative_order_at_origin_rejected(self, z):
        # J_-0.3 diverges at 0; the order table must reject z = 0 before it
        # divides by it in the recurrence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainValidationError, match="z = 0"):
                f1_integral(z, -0.3, 1.7)

    @pytest.mark.parametrize("mu, nu", [(0.5, 0.5), (0.5, -0.5)])
    def test_degenerate_z_beyond_panel_cap_rejected(self, mu, nu):
        with pytest.raises(DomainValidationError, match="z <= 10000"):
            f1_integral(np.array([1.0, 1.0001e4]), mu, nu)

    def test_generic_has_no_z_cap(self):
        # the closed form costs the same at any z; only the panels are capped
        assert math.isfinite(f1_integral(1e6, 0.3, 1.7))


def _hermite_gap(a, b, mu, nu):
    """Integral of f = J_mu J_nu / t over [a, b] by the two-point Hermite rule
    of degree 5, with f' and f'' from bessel_j calls at the orders +-1 and +-2
    (J' = (J_(mu-1) - J_(mu+1)) / 2 and J'' = (J_(mu-2) - 2 J_mu + J_(mu+2)) / 4,
    DLMF 10.6.1), not from Bessel's equation as the code forms them."""
    t = np.array([a, b])
    d = {}
    for order in {mu, nu}:
        j = {k: bessel_j(order + k, t) for k in (-2.0, -1.0, 0.0, 1.0, 2.0)}
        d[order] = j[0.0], 0.5 * (j[-1.0] - j[1.0]), 0.25 * (j[-2.0] - 2.0 * j[0.0] + j[2.0])
    (jm, dm, d2m), (jn, dn, d2n) = d[mu], d[nu]
    p, dp, d2p = jm * jn, dm * jn + jm * dn, d2m * jn + 2.0 * dm * dn + jm * d2n
    f = p / t
    df = dp / t - p / t**2
    d2f = d2p / t - 2.0 * dp / t**2 + 2.0 * p / t**3
    h = b - a
    return float(h / 2 * (f[0] + f[1]) + h**2 / 10 * (df[0] - df[1]) + h**3 / 120 * (d2f[0] + d2f[1]))


def _panel_loop(a, b, mu, nu):
    """Integral of J_mu J_nu / t over [a, b], one bessel_j call per panel.

    The run rule of the degenerate F1, restated: a gap up to 2.5e-3 takes the
    two-point Hermite rule on its ends, a longer run is cut into 6-point Gauss
    panels no wider than min(1/4, lo/4).
    """
    if b - a <= 2.5e-3:
        return _hermite_gap(a, b, mu, nu)
    total = 0.0
    lo = a
    x, w = np.polynomial.legendre.leggauss(6)
    while lo < b:
        hi = min(b, lo + min(0.25, 0.25 * lo))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * x
        total += half * float(np.sum(w * bessel_j(mu, t) * bessel_j(nu, t) / t))
        lo = hi
    return total


class TestF1Degenerate:
    @pytest.mark.parametrize("mu", [0.5, 1.3])
    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_equal_orders_far_vs_quadrature(self, mu, z):
        quad, _ = fn_quadrature(1, z, mu, mu)
        assert abs(f1_integral(z, mu, mu) - quad) < 1e-9

    @pytest.mark.parametrize("mu", [0.4, 1.3])
    @pytest.mark.parametrize("z", [20.0, 50.0, 200.0])
    def test_opposite_orders_far_vs_quadrature(self, mu, z):
        d_closed = f1_integral(z, mu, -mu) - f1_integral(1.0, mu, -mu)
        d_quad, _ = fn_quadrature(1, z, mu, -mu, lower_cutoff=1.0)
        assert abs(d_closed - d_quad) < 1e-9

    @pytest.mark.parametrize("mu, nu", [(1.3, 1.3), (0.7, 0.7), (0.4, -0.4)])
    @pytest.mark.parametrize("shift", [0.0, 4.0])
    def test_batched_panels_match_panel_loop(self, mu, nu, shift):
        series = radial._f1_equal_series if mu == nu else radial._f1_opposite_series
        # Panels below z = 1 (narrowed), Hermite gaps, 6-point gaps across
        # the Bessel switchover at 14, and with shift 4 an anchor run from 4.
        zs = shift + np.concatenate(
            [[0.6, 0.9], np.linspace(1.0, 1.01, 6), np.linspace(2.0, 16.0, 29), [30.0, 30.002]]
        )
        zs = zs[zs > 4.5] if shift else zs
        acc = series(min(zs[0], 4.0), mu) + (_panel_loop(4.0, zs[0], mu, nu) if zs[0] > 4.0 else 0.0)
        ref = [acc]
        for a, b in zip(zs[:-1], zs[1:]):
            acc += _panel_loop(a, b, mu, nu)
            ref.append(acc)
        ref = np.array(ref)
        got = f1_integral(zs[::-1], mu, nu)[::-1]  # unsorted input is sorted internally
        # only the summation order differs: within 4 ulp of the largest value
        assert np.max(np.abs(got - ref)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(ref))


_EMPTY_Z_CALLS = {
    "f1_integral-generic": lambda z: f1_integral(z, 0.3, 1.7),
    "f1_integral-equal": lambda z: f1_integral(z, 0.3, 0.3),
    "f1_integral-opposite": lambda z: f1_integral(z, 0.3, -0.3),
    "f2_integral": lambda z: f2_integral(z, -0.3, 1.3),
    "f3_integral": lambda z: f3_integral(z, -1.3, 0.7),
    "uv_pair-u": lambda z: uv_pair(z, 1, 0.3, PARAMS)[0],
    "uv_pair-v": lambda z: uv_pair(z, 1, 0.3, PARAMS)[1],
    "mode_f0": lambda z: mode_f0(z, 1, 0.3),
    "mode_f1": lambda z: mode_f1(z, 1, 0.3, PARAMS),
}


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
@pytest.mark.parametrize("name", sorted(_EMPTY_Z_CALLS))
def test_empty_z_gives_empty_array(name, shape):
    # the degenerate pairs once raised an untyped IndexError on an empty grid
    got = _EMPTY_Z_CALLS[name](np.empty(shape))
    assert isinstance(got, np.ndarray) and got.shape == shape


# Fine grids (every gap at most 2.5e-3, so every gap takes the Hermite rule) on
# which tests/reference/f1_small_gap.py writes mpmath's increments of F1 from
# the first point: id -> (mu, nu, z_min, z_max, points). Gaps 2.4e-3 and 4e-4,
# equal and opposite orders at nu = 0.577256 (the mode m = -1, alpha' =
# 1.577256) and 2 - nu, and the steep case, where (2 nu h / z)^6 is largest:
# nu = 10.3 from z = 0.5 at the wide gap.
_GAP_CASES = {
    f"{kind}-{mu}-h{gap}": (mu, mu if kind == "equal" else -mu, 0.5, 15.0, points)
    for gap, points in (("2.4e-3", 6043), ("4e-4", 36251))
    for kind in ("equal", "opposite")
    for mu in (0.577256, 1.422744)
}
_GAP_CASES["equal-10.3-h2.4e-3"] = (10.3, 10.3, 0.5, 15.0, 6043)
_GAP_CHECKPOINTS = 25  # evenly spaced grid points at which the table holds F1


def _gap_checkpoints(case: str) -> tuple[np.ndarray, np.ndarray]:
    """Indices into the grid of ``case``, and the grid itself."""
    _, _, lo, hi, points = _GAP_CASES[case]
    return np.linspace(0, points - 1, _GAP_CHECKPOINTS).round().astype(int), np.linspace(lo, hi, points)


def _mp_increments(mu: float, nu: float, zs) -> list:
    """The integral of J_mu J_nu / t from zs[0] to each of zs[1:], by mpmath's
    quadrature at the working precision, segment by segment."""
    f = lambda t: mpmath.besselj(mu, t) * mpmath.besselj(nu, t) / t
    acc, out = mpmath.mpf(0), []
    for a, b in zip(zs[:-1], zs[1:]):
        acc += mpmath.quad(f, [mpmath.mpf(float(a)), mpmath.mpf(float(b))])
        out.append(acc)
    return out


@functools.cache
def _gap_table() -> dict:
    path = Path(__file__).resolve().parent / "reference" / "f1_small_gap.json"
    return json.loads(path.read_text())["cases"]


class TestSmallGapTable:
    """The degenerate F1 on fine grids against mpmath's increments, from the
    committed table tests/reference/f1_small_gap.py writes."""

    @pytest.mark.parametrize("case", sorted(_GAP_CASES))
    def test_increments_against_mpmath(self, case):
        # measured: at most 5.7e-16 of max|F1|; a 2-point Gauss rule on each
        # gap, summed by np.cumsum, read 2.9e-15 to 9.4e-13 on these cases
        mu, nu = _GAP_CASES[case][:2]
        idx, zs = _gap_checkpoints(case)
        got = f1_integral(zs, mu, nu)
        inc = got[idx[1:]] - got[0]
        with mpmath.workdps(30):
            ref = [mpmath.mpf(v) for _, _, v in _gap_table()[case]["points"]]
            worst = max(float(abs(g - r)) for g, r in zip(inc, ref))
        assert worst <= 2e-15 * np.max(np.abs(got))

    def test_table_matches_cases_and_mpmath(self):
        # the table's grids are the test's, and a seeded 3 of its first
        # increments agree with a fresh mpmath quadrature
        table = _gap_table()
        assert sorted(table) == sorted(_GAP_CASES)
        for case, (mu, nu, lo, hi, points) in _GAP_CASES.items():
            idx, zs = _gap_checkpoints(case)
            entry = table[case]
            assert entry["case"] == [mu, nu, lo, hi, points]
            assert [[i, z] for i, z, _ in entry["points"]] == [[int(i), float(zs[i])] for i in idx[1:]]
        rng = random.Random(5)
        with mpmath.workdps(30):
            for case in rng.sample(sorted(_GAP_CASES), 3):
                mu, nu = _GAP_CASES[case][:2]
                idx, zs = _gap_checkpoints(case)
                k = rng.randrange(2)
                ref = _mp_increments(mu, nu, zs[idx[:k + 2]])[k]
                assert abs(mpmath.mpf(_gap_table()[case]["points"][k][2]) - ref) <= 1e-25 * abs(ref)


class TestF2F3:
    @pytest.mark.parametrize("mu, nu", [(0.6, 1.4), (1.7, 2.7)])
    def test_f2_vs_quadrature(self, mu, nu):
        z0, z1 = 0.5, 6.0
        d_closed = f2_integral(z1, mu, nu) - f2_integral(z0, mu, nu)
        d_quad, err = fn_quadrature(2, z1, mu, nu, lower_cutoff=z0)
        assert err < 1e-9
        assert abs(d_closed - d_quad) < 1e-8

    @pytest.mark.parametrize("mu, nu", [(1.7, 2.7), (1.4, 2.6)])
    def test_f3_vs_quadrature(self, mu, nu):
        z0, z1 = 0.5, 6.0
        d_closed = f3_integral(z1, mu, nu) - f3_integral(z0, mu, nu)
        d_quad, err = fn_quadrature(3, z1, mu, nu, lower_cutoff=z0)
        assert err < 1e-9
        assert abs(d_closed - d_quad) < 1e-8

    @pytest.mark.parametrize("z", [0.7, 5.0, 17.0])
    def test_next_to_a_negative_integer_order(self, z):
        # nu - 1 (and mu - 1 in F3) within 1e-11 of -1, where the sums cancel to
        # about nu of their terms: each value carries no more than the rounding
        # of the sum's terms (what _recurrence's cancellation rule allows for),
        # or is AccuracyError where that leaves too few digits. The terms are
        # checked against the closed form of F1 with mpmath Bessel functions at
        # the exact orders.
        with mpmath.workdps(30):
            zm = mpmath.mpf(z)
            jv = functools.lru_cache(None)(lambda order: mpmath.besselj(order, zm))

            def f1(a, b):
                return (-zm * (jv(a + 1) * jv(b) - jv(a) * jv(b + 1)) / (a * a - b * b)
                        + jv(a) * jv(b) / (a + b))

            for mu in (0.3, 1.7, -0.6, 2.5):
                for nu in (1e-11, 1e-12, 1e-13):
                    m, n = mpmath.mpf(mu), mpmath.mpf(nu)
                    grid = radial._F1Grid(z)
                    f2_pairs = [(m, n - 1), (m, n + 1)]
                    f3_pairs = [(m + i, n + j) for i in (-1, 1) for j in (-1, 1)]
                    for f, pairs, denominator in (
                        (f2_integral, f2_pairs, 2 * n), (f3_integral, f3_pairs, 4 * m * n)
                    ):
                        try:
                            got = f(z, mu, nu)
                        except AccuracyError:
                            continue
                        terms = [grid.f1(float(a), float(b)) for a, b in pairs]
                        size = grid.scale + sum(map(abs, terms))
                        ref = sum(f1(a, b) for a, b in pairs) / denominator
                        assert abs(got - ref) * abs(denominator) < 1e-15 * size, (f, mu, nu)

    def test_f2_zero_order_rejected(self):
        with pytest.raises(DomainValidationError):
            f2_integral(1.0, 0.5, 0.0)

    def test_f3_zero_order_rejected(self):
        with pytest.raises(DomainValidationError):
            f3_integral(1.0, 0.0, 1.5)


# =====================================================================
# Running coefficients and their asymptotic constants
# =====================================================================

def _source_tilde(z, m, alpha_prime, params):
    """Independent build of the first-order source (scaled by 1/k^2),
    using scipy Bessel values only."""
    nu = abs(m + alpha_prime)
    a_m = cmath.exp(-0.5j * math.pi * nu)
    s = xi_coeffs(m, alpha_prime)
    eta = s.xi_plus - 2.0 * s.xi * (1.0 + nu)  # recover eta from the set
    f0 = a_m * sps.jv(nu, z)
    f0p = a_m * sps.jvp(nu, z)
    hk2 = (params.hbar * params.k) ** 2
    return 2.0 * hk2 * (
        -(2.0 * s.xi / z**2) * (f0p / z - f0 / z**2 + 0.5 * f0) + eta * f0 / z**4
    )


class TestUvPair:
    def test_variation_of_parameters_oracle(self):
        # u(z1) - u(z0) must equal the VoP integral of the source against
        # the opposite homogeneous solution (and v against the direct one).
        m, a = 1, 0.3
        nu = abs(m + a)
        z0, z1 = 2.0, 7.0
        u0, v0 = uv_pair(z0, m, a, PARAMS)
        u1, v1 = uv_pair(z1, m, a, PARAMS)
        w = math.pi / (2.0 * math.sin(math.pi * nu))

        def du(t):
            return w * t * sps.jv(-nu, t) * _source_tilde(t, m, a, PARAMS)

        def dv(t):
            return -w * t * sps.jv(nu, t) * _source_tilde(t, m, a, PARAMS)

        for fn, delta in ((du, u1 - u0), (dv, v1 - v0)):
            re, _ = spi.quad(lambda t: fn(t).real, z0, z1, limit=200)
            im, _ = spi.quad(lambda t: fn(t).imag, z0, z1, limit=200)
            assert abs(complex(re, im) - delta) < 1e-8

    def test_array_matches_scalar(self):
        zs = np.array([1.0, 5.0, 20.0])
        u_arr, v_arr = uv_pair(zs, 0, 0.5, PARAMS)
        for i, z in enumerate(zs):
            u, v = uv_pair(float(z), 0, 0.5, PARAMS)
            assert u_arr[i] == pytest.approx(u, rel=1e-13)
            assert v_arr[i] == pytest.approx(v, rel=1e-13)

    def test_integer_order_rejected(self):
        with pytest.raises(SingularConfigError):
            uv_pair(2.0, 1, 1.0, PARAMS)

    @staticmethod
    def _count_sweeps(monkeypatch) -> list:
        """(fraction, point set) of every Miller sweep the order tables run,
        appended as they run; a ``bessel_j`` call from ``radial`` fails."""
        keys = []
        rows = radial._bessel_rows

        def counting(nu_frac, lo, hi, z):
            keys.append((nu_frac, z.tobytes()))
            return rows(nu_frac, lo, hi, z)

        monkeypatch.setattr(radial, "_bessel_rows", counting)
        monkeypatch.setattr(radial, "bessel_j", None)
        return keys

    @pytest.mark.parametrize("m, a", [(1, 0.3), (0, 0.5), (-1, 0.3)])
    def test_one_bessel_call_per_order_and_point_set(self, m, a, monkeypatch):
        # a coarse grid with a panel run from 4, so both order tables fill; each
        # fills every order of one exact fraction from one Miller sweep
        keys = self._count_sweeps(monkeypatch)
        zs = np.linspace(6.0, 20.0, 15)
        uv_pair(zs, m, a, PARAMS)
        assert len(keys) == len(set(keys))
        assert len({points for _, points in keys}) == 2  # z and the Gauss nodes

    @pytest.mark.parametrize(
        "call",
        [
            lambda zs: uv_pair(zs, 1, 0.3, PARAMS),
            lambda zs: uv_pair(zs, -3, 0.4, PARAMS),
            lambda zs: f2_integral(zs, -0.3, 1.3),
            lambda zs: f3_integral(zs, -1.3, 0.7),
            lambda zs: mode_f1(zs, 1, 0.3, PARAMS),
            lambda zs: cli.main(["radial", "--m", "1", "--alpha", "0.3", "--z-min", "6",
                                 "--z-max", "20", "--steps", "15", "--out", os.devnull]),
        ],
        ids=["uv_pair-nu1.3", "uv_pair-nu2.6", "f2", "f3", "mode_f1", "cli-radial"],
    )
    def test_no_bessel_seed_evaluated_twice(self, call, monkeypatch):
        # negative orders recur from the table's own nonnegative rows, a sweep
        # keeps the orders within 3 of the one asked, and f0 and f1 take J_nu
        # and J_-nu from the table u and v filled, so no (fraction, point set)
        # is swept twice
        keys = self._count_sweeps(monkeypatch)
        call(np.linspace(6.0, 20.0, 15))
        assert keys
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("grid, sweeps", [("fine", 2), ("coarse", 4)])
    @pytest.mark.parametrize("m, a, exact", [(-1, 1.577256, False), (1, 0.3, False),
                                             (2, 0.75, True)])
    @pytest.mark.parametrize("call", ["uv_pair", "mode_f1", "cli-radial"])
    def test_two_sweeps_per_point_set(self, call, m, a, exact, grid, sweeps, monkeypatch):
        # every order of a mode is a whole offset of the fraction of nu or of
        # -nu, also where fl(nu + 2) - 2 differs from nu in its last bit (the
        # modes not exact); a fine grid from z <= 4 has no Gauss nodes
        nu = abs(m + a)
        assert ((nu + 2.0) - 2.0 == nu) == exact
        lo, hi, steps = (0.5, 1.5, 501) if grid == "fine" else (6.0, 20.0, 15)
        zs = np.linspace(lo, hi, steps)
        assert (np.max(np.diff(zs)) <= radial._SMALL_GAP) == (grid == "fine")
        keys = self._count_sweeps(monkeypatch)
        if call == "uv_pair":
            uv_pair(zs, m, a, PARAMS)
        elif call == "mode_f1":
            mode_f1(zs, m, a, PARAMS)
        else:
            cli.main(["radial", "--m", str(m), "--alpha", repr(a), "--z-min", repr(lo),
                      "--z-max", repr(hi), "--steps", str(steps), "--out", os.devnull])
        assert len(keys) == sweeps
        assert len({points for _, points in keys}) == sweeps // 2

    @pytest.mark.parametrize("m, a", [(1, 0.3), (0, 0.5), (-1, 0.3), (2, 0.6)])
    def test_negative_rows_match_bessel_j(self, m, a):
        nu = abs(m + a)
        zs = np.linspace(6.0, 20.0, 15)
        negative = (-nu, -nu - 1.0, -nu + 1.0, 1.0 - nu)
        for points in (zs, radial._PanelPlan(zs).t, 7.5):
            table = radial._BesselTable(points)
            for order in (nu, nu - 1.0, nu + 1.0, nu + 2.0, 2.0 - nu, *negative):
                table(order)
            for order in negative:
                row, ref = table(order), bessel_j(order, points)
                assert type(row) is type(ref)
                assert np.asarray(row).tobytes() == np.asarray(ref).tobytes()

    def test_z_beyond_panel_cap_rejected(self):
        with pytest.raises(DomainValidationError, match="z <= 10000"):
            uv_pair(np.array([2.0, 5e4]), 0, 0.5, PARAMS)

    def test_v_approaches_constant(self):
        _, g2 = g1_g2(0, 0.5, PARAMS)
        gaps = []
        for z in (50.0, 100.0, 200.0):
            _, v = uv_pair(z, 0, 0.5, PARAMS)
            gaps.append(abs(v - g2) / abs(g2))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.02


class TestClosedFormSeries:
    """The exact small-z series of the degenerate F1 against mpmath."""

    @staticmethod
    def _equal_mpmath(z: float, mu: float):
        with mpmath.workdps(40):
            z, mu = mpmath.mpf(z), mpmath.mpf(mu)
            acc = mpmath.mpf(0)
            for k in range(400):
                term = ((-1) ** k * (z / 2) ** (2 * mu + 2 * k) * mpmath.rf(2 * mu + k + 1, k)
                        / ((2 * mu + 2 * k) * mpmath.factorial(k) * mpmath.gamma(mu + k + 1) ** 2))
                acc += term
                if k > 2 and abs(term) < mpmath.mpf(10) ** -38 * abs(acc):
                    return acc
            raise AssertionError("reference series did not converge")

    @pytest.mark.parametrize("mu", [-0.7, -0.3, 0.3, 0.5, 1.7, 5.5, 12.3, 25.3, 40.3])
    def test_equal_orders_against_mpmath(self, mu):
        # a stopping test that is absolute wherever |F1| < 1 ends the sum early:
        # 1e-2 at mu = 12.3, z = 2 and 2e-7 at mu = 5.5, z = 0.1. Measured with the
        # relative test: at most 4.3e-14, growing with mu from the log-form seed.
        for z in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0):
            ref = self._equal_mpmath(z, mu)
            assert float(abs(radial._f1_equal_series(z, mu) - ref) / abs(ref)) < 1e-13, z

    def test_equal_orders_underflowing_seed_reads_zero(self):
        # (z/2)^(2 mu) / Gamma(mu + 1)^2 is about 1e-2017 here
        assert radial._f1_equal_series(0.1, 300.3) == 0.0

    @pytest.mark.parametrize("mu", [-1.3, -2.7, -40.3])
    def test_equal_orders_below_minus_one(self, mu):
        # Gamma(mu + 1) by reflection; measured: at most 3.5e-14 (mu = -40.3)
        for z in (0.5, 2.0, 4.0):
            ref = self._equal_mpmath(z, mu)
            assert float(abs(radial._f1_equal_series(z, mu) - ref) / abs(ref)) < 1e-13, z

    def test_equal_orders_overflow_is_typed(self):
        with pytest.raises(AccuracyError, match="overflows"):
            radial._f1_equal_series(4.0, -170.3)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.7, 12.3, 40.3, 169.7, 170.3, 200.3, 299.7, 300.3])
    def test_opposite_orders_against_mpmath(self, mu):
        # Gamma(2 + mu) itself overflows from mu = 169.6; measured: at most
        # 2.1e-14, where the two terms cancel (mu = 0.3, z = 4)
        for z in (0.1, 0.5, 1.5, 2.0, 3.0, 4.0):
            with mpmath.workdps(40):
                zm, m = mpmath.mpf(z), mpmath.mpf(mu)
                ref = (-zm * zm / (4 * mpmath.gamma(2 - m) * mpmath.gamma(2 + m))
                       * mpmath.hyper([1, 1, 1.5], [2 - m, 2 + m, 2, 2], -zm * zm)
                       + mpmath.log(zm) / (mpmath.gamma(1 - m) * mpmath.gamma(1 + m)))
                err = abs(radial._f1_opposite_series(z, mu) - ref) / abs(ref)
            assert float(err) < 5e-14, z


class TestG1G2:
    @staticmethod
    def _mpmath(m: int, a: float):
        """The docstring's closed forms at 50 digits, on the order nu = |m + a|
        as the code rounds it."""
        with mpmath.workdps(50):
            nu, a = mpmath.mpf(abs(m + a)), mpmath.mpf(a)
            xi = a * (3 * m + 2 * a)
            xim = a * a * (m + a) * (2 * m + a) + 2 * xi * (1 - nu)
            amp = mpmath.expjpi(-nu / 2) * PARAMS.hbar ** 2 * PARAMS.k ** 2
            combo = xi + xim / (2 * nu * (1 - nu))
            brace = 2 * mpmath.log(2) + mpmath.digamma(nu) + mpmath.digamma(1 - nu)
            g1 = -amp / (2 * (1 + nu)) * (
                combo * brace + (1 + 2 * nu) * xi / (nu * (1 + nu))
                - (1 - nu - 3 * nu ** 2 + nu ** 3) * xim / (2 * nu ** 3 * (1 + nu) * (1 - nu) ** 2))
            g2 = amp * mpmath.gamma(nu) * mpmath.gamma(1 - nu) / (2 * (1 + nu)) * combo
            return g1, g2

    @pytest.mark.parametrize("m", [0, 3, -5, 160, 200, 300, -300])
    def test_against_mpmath(self, m):
        # Gamma(nu) itself overflows from |m| of about 171; measured: at most
        # 1.0e-15
        for a in (0.3, 0.5, 1.7):
            for got, ref in zip(g1_g2(m, a, PARAMS), self._mpmath(m, a)):
                with mpmath.workdps(50):
                    assert float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)) < 2e-15

    def test_g2_against_scattering_route(self):
        # same constant from two formula sets built in different modules
        for m in range(-4, 5):
            for a in (0.3, 0.5, 1.7):
                _, g2_radial = g1_g2(m, a, PARAMS)
                g2_scatt = g2m(m, a, PARAMS)
                assert abs(g2_radial - g2_scatt) < 1e-12 * max(1.0, abs(g2_scatt))

    def test_integer_order_rejected(self):
        with pytest.raises(SingularConfigError):
            g1_g2(0, 1.0, PARAMS)


# =====================================================================
# Mode profiles and equation residuals
# =====================================================================

class TestModes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux_rejected(self, bad):
        z = np.linspace(0.5, 2.0, 4)
        for call in (
            lambda: mode_f0(z, 1, bad),
            lambda: mode_f1(z, 1, bad, PARAMS),
            lambda: uv_pair(z, 1, bad, PARAMS),
            lambda: g1_g2(1, bad, PARAMS),
        ):
            with pytest.raises(DomainValidationError, match="finite"):
                call()

    def test_f0_is_scaled_bessel(self):
        z = np.linspace(0.5, 10.0, 32)
        nu = abs(1 + 0.3)
        got = mode_f0(z, 1, 0.3)
        ref = cmath.exp(-0.5j * math.pi * nu) * sps.jv(nu, z)
        assert np.allclose(got, ref, rtol=1e-9)

    def test_mode_sign_flip_invariance(self):
        # (m, a) -> (-m, -a) keeps nu and all coefficients
        z = np.linspace(0.5, 8.0, 16)
        f0a = mode_f0(z, 2, 0.5)
        f0b = mode_f0(z, -2, -0.5)
        assert np.allclose(f0a, f0b, rtol=1e-12)
        f1a = mode_f1(z, 2, 0.5, PARAMS)
        f1b = mode_f1(z, -2, -0.5, PARAMS)
        assert np.allclose(f1a, f1b, rtol=1e-10)

    def test_radial_mode_outgoing_condition(self):
        mode = radial_mode(0, 0.5, PARAMS)
        g1, g2 = g1_g2(0, 0.5, PARAMS)
        expect = -g1 - cmath.exp(-1j * math.pi * mode.order) * g2
        assert mode.c_m == pytest.approx(expect, rel=1e-13)

    def test_zeroth_order_residual(self):
        zs = np.arange(0.5, 10.0, 1e-3)
        for m, a in ((0, 0.3), (1, 1.7), (-2, 0.3)):
            res = ode_residual(zs, mode_f0(zs, m, a), m, a, 1.0)
            assert res < 1e-5

    def test_first_order_residual_with_source(self):
        zs = np.arange(0.5, 10.0, 1e-3)
        m, a = 1, 0.3
        f1 = mode_f1(zs, m, a, PARAMS)
        f0 = mode_f0(zs, m, a)
        res = ode_residual(
            zs, f1, m, a, 1.0, which="S1_source", source_values=f0
        )
        assert res < 1e-5

    def test_residual_halving_order(self):
        # compare on steps where truncation still dominates the Bessel
        # evaluation noise (the noise contribution grows like 1/h^2)
        m, a = 0, 0.3
        res = {}
        for h in (4e-3, 2e-3):
            zs = np.arange(0.5, 10.0, h)
            res[h] = ode_residual(zs, mode_f0(zs, m, a), m, a, 1.0)
        ratio = res[4e-3] / res[2e-3]
        assert 3.0 < ratio < 5.5

    def test_residual_rejects_bad_which(self):
        zs = np.linspace(0.5, 2.0, 64)
        with pytest.raises(DomainValidationError):
            ode_residual(zs, mode_f0(zs, 0, 0.3), 0, 0.3, 1.0, which="nonsense")
