"""Hand-built special functions checked against identities and against
scipy (the quadrature backend, an independent implementation)."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, strategies as st

from abgup import (
    AccuracyError,
    DomainValidationError,
    PoleError,
    bessel_j,
    digamma,
    gamma_fn,
    hyp2f1_11,
    log_gamma,
    pfq_series,
    specfun,
)
from abgup.scattering import g_fn

EULER_GAMMA = 0.5772156649015328606


# =====================================================================
# gamma / log_gamma / digamma
# =====================================================================

class TestGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 20.5, 100.0])
    def test_against_math_gamma(self, x):
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-13)

    @pytest.mark.parametrize("x", [-0.3, -1.7, -5.5, -10.2])
    def test_negative_arguments(self, x):
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_reflection(self, x):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=40.0))
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_fn(x)

    def test_nonfinite(self):
        with pytest.raises(DomainValidationError):
            gamma_fn(math.inf)


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.2, 1.0, 2.5, 17.0, 301.5])
    def test_matches_lgamma(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_consistent_with_gamma(self):
        for x in (0.4, 1.3, 6.0):
            assert math.exp(log_gamma(x)) == pytest.approx(gamma_fn(x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainValidationError):
            log_gamma(0.0)
        with pytest.raises(DomainValidationError):
            log_gamma(-2.5)


class TestDigamma:
    def test_psi_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_psi_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2.0), abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=30.0))
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("x", [0.3, 1.7, -0.4, -3.3, 25.0])
    def test_against_scipy(self, x):
        assert digamma(x) == pytest.approx(float(sps.digamma(x)), rel=1e-11, abs=1e-11)

    def test_poles(self):
        with pytest.raises(PoleError):
            digamma(-3.0)


# =====================================================================
# Bessel J of real order
# =====================================================================

class TestBesselJ:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 1.7, 4.4, -0.3, -1.7])
    @pytest.mark.parametrize("z", [0.1, 0.7, 3.0, 12.0, 50.0, 400.0])
    def test_against_scipy(self, nu, z):
        assert bessel_j(nu, z) == pytest.approx(float(sps.jv(nu, z)), rel=1e-9, abs=1e-12)

    def test_very_large_argument(self):
        # asymptotic branch
        for nu in (0.3, 2.5):
            z = 2.0e3
            assert bessel_j(nu, z) == pytest.approx(float(sps.jv(nu, z)), rel=1e-8, abs=1e-12)

    @given(
        st.floats(min_value=-3.0, max_value=5.0),
        st.floats(min_value=0.2, max_value=60.0),
    )
    def test_three_term_recurrence(self, nu, z):
        lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
        rhs = 2.0 * nu / z * bessel_j(nu, z)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("nu", [0.3, 0.7, 1.4])
    @pytest.mark.parametrize("z", [0.8, 5.0, 25.0])
    def test_wronskian(self, nu, z):
        # J_nu J'_{-nu} - J'_nu J_{-nu} = -2 sin(pi nu) / (pi z)
        h = 1e-6 * max(1.0, z)
        dp = (bessel_j(-nu, z + h) - bessel_j(-nu, z - h)) / (2 * h)
        dm = (bessel_j(nu, z + h) - bessel_j(nu, z - h)) / (2 * h)
        lhs = bessel_j(nu, z) * dp - dm * bessel_j(-nu, z)
        rhs = -2.0 * math.sin(math.pi * nu) / (math.pi * z)
        assert lhs == pytest.approx(rhs, rel=1e-4, abs=1e-8)

    def test_integer_negative_order_relation(self):
        for n in (1, 2, 5):
            for z in (0.9, 7.0):
                assert bessel_j(-float(n), z) == pytest.approx(
                    (-1.0) ** n * bessel_j(float(n), z), rel=1e-10, abs=1e-14
                )

    def test_array_input(self):
        z = np.linspace(0.5, 20.0, 64)
        out = bessel_j(0.7, z)
        assert out.shape == z.shape
        assert np.allclose(out, sps.jv(0.7, z), rtol=1e-9, atol=1e-12)

    def test_small_z_leading_power(self):
        # J_nu(z) ~ (z/2)^nu / Gamma(nu+1) as z -> 0
        nu, z = 1.3, 1e-4
        lead = (z / 2.0) ** nu / gamma_fn(nu + 1.0)
        assert bessel_j(nu, z) == pytest.approx(lead, rel=1e-6)


class TestBesselJSwitchovers:
    """Points on both sides of the series/Miller switch at z = 14 and the
    Miller/asymptotic switch at z = 1000."""

    _ZS = np.array([0.5, 13.999, 14.0, 14.001, 200.0, 999.9, 1000.0])
    _ORDERS = [0.3, 1.3, 2.7, -0.3, -1.3]

    @pytest.mark.parametrize("nu", _ORDERS)
    def test_batch_matches_single_points(self, nu):
        # the radial layer batches unrelated point sets into one call; every
        # branch stops per point, so the match is exact (bound 1e-15 relative)
        batch = bessel_j(nu, self._ZS)
        single = np.array([bessel_j(nu, float(z)) for z in self._ZS])
        assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-15
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("nu", _ORDERS)
    def test_against_mpmath(self, nu):
        # worst relative error found: 2.4e-11 at z = 13.999, nu = 1.3, the
        # top of the series range; at most 1.2e-13 on the Miller and asymptotic sides
        got = bessel_j(nu, self._ZS)
        with mpmath.workdps(30):
            for z, value in zip(self._ZS, got):
                ref = mpmath.besselj(nu, mpmath.mpf(float(z)))
                assert float(abs((value - ref) / ref)) < 1e-10


# =====================================================================
# 2F1(1, 1; c; x) and the generic pFq series
# =====================================================================

class TestHyp2f1:
    @given(
        st.floats(min_value=-0.65, max_value=0.65),
        st.floats(min_value=-0.3, max_value=0.3),
    )
    def test_log_identity(self, re, im):
        # F(1,1;2;x) = -log(1-x)/x
        x = complex(re, im)
        if abs(x) < 1e-3:
            return
        assert hyp2f1_11(2.0, x) == pytest.approx(-cmath.log(1.0 - x) / x, rel=1e-10)

    def test_geometric_identity(self):
        # F(1,1;1;x) = 1/(1-x)
        for x in (0.3, -0.5, 0.2 + 0.4j, -1.5 + 2.0j):
            assert hyp2f1_11(1.0, x) == pytest.approx(1.0 / (1.0 - x), rel=1e-10)

    def test_at_zero(self):
        assert hyp2f1_11(3.7, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("c", [0.3, 0.8, 1.2, 2.5, 4.0])
    @pytest.mark.parametrize(
        "x", [0.4, -0.9, 0.5 + 0.8j, 0.5 - 2.3j, -3.0 + 0.1j, 0.5 + 12.0j]
    )
    def test_against_scipy(self, c, x):
        ref = complex(sps.hyp2f1(1.0, 1.0, c, complex(x)))
        assert hyp2f1_11(c, x) == pytest.approx(ref, rel=1e-8)

    def test_contiguous_relation(self):
        # c(c-1)(x-1) F(c-1) + c[(c-1)-(2c-3)x] F(c) + (c-1)^2 x F(c+1) = 0
        c, x = 2.3, 0.5 + 0.9j
        fm = hyp2f1_11(c - 1.0, x)
        f0 = hyp2f1_11(c, x)
        fp = hyp2f1_11(c + 1.0, x)
        res = (
            c * (c - 1.0) * (x - 1.0) * fm
            + c * ((c - 1.0) - (2.0 * c - 3.0) * x) * f0
            + (c - 1.0) ** 2 * x * fp
        )
        assert abs(res) < 1e-9 * max(abs(fm), abs(f0), abs(fp))

    def test_branch_cut_rejected(self):
        with pytest.raises(DomainValidationError):
            hyp2f1_11(2.5, 1.0)
        with pytest.raises(DomainValidationError):
            hyp2f1_11(2.5, 3.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["c", "re_x", "im_x"])
    def test_non_finite_rejected(self, bad, where):
        c, x = 2.5, 0.3 + 0.2j
        if where == "c":
            c = bad
        elif where == "re_x":
            x = complex(bad, 0.2)
        else:
            x = complex(0.3, bad)
        with pytest.raises(DomainValidationError):
            hyp2f1_11(c, x)

    def test_pole_in_c_rejected(self):
        with pytest.raises(PoleError):
            hyp2f1_11(0.0, 0.3)
        with pytest.raises(PoleError):
            hyp2f1_11(-2.0, 0.3)

    def test_half_line_arguments(self):
        # Re x = 1/2 is the line the amplitude kernel evaluates on.
        for t in (0.5, 2.0, 10.0, 60.0):
            x = 0.5 + 1j * t
            ref = complex(sps.hyp2f1(1.0, 1.0, 1.7, x))
            assert hyp2f1_11(1.7, x) == pytest.approx(ref, rel=1e-8)


def _bits(z: complex) -> tuple[str, str]:
    """Exact bit pattern of a complex value, sign of zero included."""
    return z.real.hex(), z.imag.hex()


def _kernel_args(gamma: float, phi: float) -> list[tuple[float, complex]]:
    """The six (c, argument) pairs of one g_fn build, in g_fn's order."""
    x = 0.5 * (1.0 + 1j * math.tan(0.5 * phi))
    xc = x.conjugate()
    return [
        (2.0 - gamma, xc), (1.0 + gamma, x), (3.0 - gamma, xc),
        (gamma, x), (1.0 - gamma, xc), (2.0 + gamma, x),
    ]


class TestHypDirectMemo:
    """The memo under hyp2f1_11 returns exactly what a fresh evaluation gives."""

    @staticmethod
    def _uncached(monkeypatch, args):
        with monkeypatch.context() as m:
            m.setattr(specfun, "_hyp_direct", specfun._hyp_direct.__wrapped__)
            return [hyp2f1_11(c, x) for c, x in args]

    def _assert_cached_equals_uncached(self, monkeypatch, args):
        fresh = [_bits(v) for v in self._uncached(monkeypatch, args)]
        specfun._hyp_direct.cache_clear()
        cold = [_bits(hyp2f1_11(c, x)) for c, x in args]
        warm = [_bits(hyp2f1_11(c, x)) for c, x in args]
        assert cold == fresh
        assert warm == fresh

    # phi = 0.4 keeps |x| <= 0.7 (series), phi = 2.5 puts |x| near 1.6 (continued
    # fraction); at gamma = 1/2 the x and x* families share their c values.
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("phi", [0.4, -0.4, 2.5, -2.5])
    def test_bitwise_equal_to_uncached(self, monkeypatch, gamma, phi):
        args = _kernel_args(gamma, phi)
        assert {abs(x) <= specfun._SERIES_RADIUS for _, x in args} == {abs(phi) < 1.0}
        self._assert_cached_equals_uncached(monkeypatch, args)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_bitwise_equal_at_phi_zero(self, monkeypatch, gamma):
        # x and x* are equal as keys here and differ only in the sign of Im x = 0;
        # at gamma = 1/2 the two families even share their c values.
        args = _kernel_args(gamma, 0.0)
        x, xc = args[1][1], args[0][1]
        assert x == xc and hash(x) == hash(xc) and _bits(x) != _bits(xc)
        self._assert_cached_equals_uncached(monkeypatch, args)

    @pytest.mark.parametrize("alpha_prime", [2.3, -1.3, 1.7, 0.45])
    @pytest.mark.parametrize("phi", [0.4, 2.5, -3.0])
    def test_one_build_costs_four_misses(self, alpha_prime, phi):
        specfun._hyp_direct.cache_clear()
        first = g_fn(alpha_prime, phi)
        assert specfun._hyp_direct.cache_info().misses == 4
        second = g_fn(alpha_prime, phi)
        assert specfun._hyp_direct.cache_info().misses == 4
        assert _bits(first.g) == _bits(second.g)

    def test_size_stays_bounded_over_a_scan(self, capsys):
        from abgup import cli

        specfun._hyp_direct.cache_clear()
        argv = ["phi-scan", "--beta=0.01", "--alpha=1.3", "--phi-min=-3.1",
                "--phi-max=3.1", "--steps=120", "--format=json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        info = specfun._hyp_direct.cache_info()
        assert info.misses == 4 * 120  # the JSON row's second build is all hits
        assert 0 < info.currsize <= info.maxsize == specfun._DIRECT_MEMO_SIZE


def _mp_rel_err(value: complex, c: float, x: complex) -> float:
    with mpmath.workdps(50):
        ref = mpmath.hyp2f1(1, 1, mpmath.mpf(c), mpmath.mpc(x.real, x.imag))
        return float(abs(mpmath.mpc(value.real, value.imag) - ref) / abs(ref))


class TestHyp2f1Mpmath:
    """hyp2f1_11 against mpmath at 50 digits, across its branch switchovers."""

    # |x| just below and above the series radius 0.7, on the Re x = 1/2 kernel
    # locus and off it, plus the forward region |x| ~ 11 (phi near +-pi).
    _ARGS = [
        0.5 + 0.48j, 0.5 - 0.48j, 0.5 + 0.50j, 0.5 - 0.50j,
        0.69, -0.69, -0.71, 0.7j * 1.01, -0.3 + 0.62j, -0.3 + 0.65j,
        0.5 + 11.0j, 0.5 - 11.0j, 11.0 + 0.5j, -11.0,
    ]
    # c on both sides of the recursion switch 1.5, and the gamma-shifted
    # values a kernel build uses.
    _CS = [0.3, 0.7, 1.2, 1.49, 1.5, 1.51, 2.3, 3.7]

    @pytest.mark.parametrize("c", _CS)
    def test_cold_and_warm_cache(self, c):
        worst = 0.0
        for x in self._ARGS:
            specfun._hyp_direct.cache_clear()
            cold = hyp2f1_11(c, x)
            warm = hyp2f1_11(c, x)
            assert specfun._hyp_direct.cache_info().hits > 0
            worst = max(worst, _mp_rel_err(cold, c, x), _mp_rel_err(warm, c, x))
        assert worst < 1e-12


class TestPfqSeries:
    def test_exponential(self):
        # 0F0(;;z) = e^z
        assert pfq_series([], [], 0.7 + 0.2j) == pytest.approx(cmath.exp(0.7 + 0.2j), rel=1e-12)

    def test_binomial(self):
        # 1F0(a;;z) = (1-z)^(-a)
        assert pfq_series([1.5], [], 0.4) == pytest.approx((1.0 - 0.4) ** -1.5, rel=1e-10)

    def test_gauss_value(self):
        # 2F1(1,1;2;x) via the generic series
        x = 0.35
        assert pfq_series([1.0, 1.0], [2.0], x) == pytest.approx(-math.log(1.0 - x) / x, rel=1e-10)

    def test_terminating(self):
        # negative-integer upper parameter terminates the series
        val = pfq_series([-2.0, 1.0], [1.0], 3.0)
        assert val == pytest.approx(1.0 - 2.0 * 3.0 + 3.0 * 3.0, rel=1e-13)

    def test_lower_pole(self):
        with pytest.raises(PoleError):
            pfq_series([1.0], [-1.0], 0.3)

    def test_divergence_flagged(self):
        with pytest.raises(AccuracyError):
            pfq_series([1.0, 1.0], [2.0], 1.8)
