"""Hand-built special functions checked against identities and against
scipy (the quadrature backend, an independent implementation)."""

import ast
import cmath
import contextlib
import functools
import json
import math
import random
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, strategies as st

from abgup import (
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
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

def _mp_gamma_points() -> list[float]:
    """3,000 seeded x in [-170, 171.6], none within 1e-3 of a pole."""
    rng = random.Random(23)
    pts = []
    while len(pts) < 3000:
        x = rng.uniform(-170.0, 171.6)
        if x > 0.5 or abs(x - round(x)) > 1e-3:
            pts.append(x)
    return pts


class TestGamma:
    """``gamma_fn`` returns ``math.gamma``'s own value, so its accuracy is
    checked against mpmath at 40 digits, not against ``math``."""

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 20.5, 100.0])
    def test_against_math_gamma(self, x):
        # the wrapper adds only its domain rule: every value is math.gamma's, bitwise
        assert gamma_fn(x) == math.gamma(x)

    @pytest.mark.parametrize("x", [-0.3, -1.7, -5.5, -10.2])
    def test_negative_arguments(self, x):
        with mpmath.workdps(40):
            ref = mpmath.gamma(mpmath.mpf(x))
            assert float(abs((gamma_fn(x) - ref) / ref)) < 2e-15

    def test_against_mpmath(self):
        # measured 7.5e-16; the Lanczos approximation it replaced read 2.8e-13
        worst = 0.0
        with mpmath.workdps(40):
            for x in _mp_gamma_points():
                ref = mpmath.gamma(mpmath.mpf(x))
                worst = max(worst, float(abs((gamma_fn(x) - ref) / ref)))
        assert worst < 2e-15

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
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainValidationError):
                gamma_fn(x)

    @pytest.mark.parametrize("x", [171.7, 200.3, 1e300, -171.5, -185.5])
    def test_overflow_is_typed(self, x):
        # |Gamma(x)| above the largest double, or below the smallest normal one
        with pytest.raises(DomainValidationError, match="overflows a double"):
            gamma_fn(x)
        assert gamma_fn(171.6) == math.gamma(171.6)

    def test_normal_range_edges(self):
        # |Gamma| falls below 2.2e-308 past -170.58, except next to the poles
        assert gamma_fn(-170.5) == math.gamma(-170.5)
        assert gamma_fn(-171.0 + 0.03) == math.gamma(-171.0 + 0.03)
        assert gamma_fn(-175.0 + 2e-11) == math.gamma(-175.0 + 2e-11)
        for x in (-170.6, -171.0 + 0.05, -172.5, -176.5):
            with pytest.raises(DomainValidationError, match="normal range"):
                gamma_fn(x)


class TestCisPi:
    """The one helper behind every phase of pi times a flux, order or integer."""

    @pytest.mark.parametrize("n", [-3, -2, -1, 0, 1, 2, 7, 170, -301])
    def test_integers_and_mirror(self, n):
        e = specfun._cis_pi(float(n))
        assert e.imag == 0.0 and e.real == (-1.0) ** n
        for d in (1e-12, 2e-6, 0.25, 0.5):
            x = n + d
            assert specfun._cis_pi(-x) == specfun._cis_pi(x).conjugate()

    @pytest.mark.parametrize("n", [1, 2, 3, 160])
    def test_against_mpmath_next_to_integers(self, n):
        # pi * x rounds before the sine sees it; the exact remainder does not
        for d in (2e-6, -2e-6, 1e-5, -1e-4, 1.5e-6, 1e-12):
            x = n + d
            got = specfun._cis_pi(x)
            with mpmath.workdps(50):
                ref = mpmath.expjpi(mpmath.mpf(x))
                assert float(abs(mpmath.mpf(got.imag) - ref.imag) / abs(ref.imag)) < 2.5e-16
                assert float(abs(mpmath.mpc(got.real, got.imag) - ref)) < 2.5e-16

    # a sine, cosine or exponential of an argument that mentions math.pi
    _PI_CALLS = {("math", "sin"), ("math", "cos"), ("cmath", "exp"),
                 ("np", "sin"), ("np", "cos"), ("np", "exp")}

    @classmethod
    def _pi_phase_sites(cls, source: str) -> list[int]:
        """Lines of the calls in ``cls._PI_CALLS`` whose arguments mention
        math.pi, outside the body of ``_cis_pi``."""
        def mentions_pi(node) -> bool:
            return any(isinstance(n, ast.Attribute) and n.attr == "pi"
                       and isinstance(n.value, ast.Name) and n.value.id == "math"
                       for n in ast.walk(node))

        sites = []

        def visit(node, inside: bool) -> None:
            inside = inside or (isinstance(node, ast.FunctionDef) and node.name == "_cis_pi")
            func = getattr(node, "func", None)
            if (not inside and isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in cls._PI_CALLS
                    and any(mentions_pi(arg) for arg in node.args)):
                sites.append(node.lineno)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(ast.parse(source), False)
        return sites

    def test_site_finder_sees_inline_phases(self):
        src = ("import math, cmath\nimport numpy as np\n"
               "def f(x):\n    return math.sin(math.pi * x) + np.exp(-1j * x * math.pi)\n"
               "def _cis_pi(x):\n    return math.cos(math.pi * x)\n"
               "def g(x):\n    return cmath.exp(1j * x) * math.tan(math.pi * x)\n")
        assert self._pi_phase_sites(src) == [4, 4]

    @pytest.mark.parametrize("module", ["specfun.py", "scattering.py", "radial.py"])
    def test_only_cis_pi_forms_pi_phases(self, module):
        # selftest's reference values are oracles and stay out of this scope
        source = (Path(specfun.__file__).parent / module).read_text()
        assert self._pi_phase_sites(source) == []


class TestCisNeg:
    """The one helper behind every phase e^{-i nu phi} of an angle times a
    flux-derived nu."""

    def test_against_mpmath_up_to_2_to_52(self):
        # the rounded product nu t is off by up to ulp/2, about 1 at 2^52; the
        # helper applies the exact remainder
        rng = random.Random(22)
        worst = 0.0
        with mpmath.workdps(60):
            for _ in range(3000):
                n = round(rng.choice((1.0, -1.0)) * 2.0 ** rng.uniform(0.0, 52.0))
                nu = n + rng.choice((0.0, 0.5))
                t = rng.uniform(-math.pi, math.pi)
                got = specfun._cis_neg(nu, t)
                ref = mpmath.expj(-mpmath.mpf(nu) * mpmath.mpf(t))
                worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - ref)))
        assert worst < 3e-16

    def test_mirror_and_unit_order_are_bitwise(self):
        # (nu, t) -> (-nu, -t) leaves both halves of the product unchanged, and
        # at nu = -1 the product is exact, so q = -e^{it} keeps its old bits
        rng = random.Random(23)
        for _ in range(100_000):
            t = rng.uniform(-math.pi, math.pi)
            assert -specfun._cis_neg(-1.0, t) == -cmath.exp(1j * t), t
        for nu in (0.5, 7.0, -3.5, 1e6 + 0.5, 2.0**51 + 0.5):
            assert specfun._cis_neg(-nu, -1.3) == specfun._cis_neg(nu, 1.3)

    def test_scattering_makes_no_cmath_exp_call(self):
        source = (Path(specfun.__file__).parent / "scattering.py").read_text()
        calls = [node.lineno for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name)
                 and (node.func.value.id, node.func.attr) == ("cmath", "exp")]
        assert calls == []


class TestLogGamma:
    """``log_gamma`` returns ``math.lgamma``'s own value; its accuracy is
    checked against mpmath at 40 digits."""

    @pytest.mark.parametrize("x", [0.2, 1.0, 2.5, 17.0, 301.5])
    def test_matches_lgamma(self, x):
        assert log_gamma(x) == math.lgamma(x)
        with mpmath.workdps(40):
            ref = mpmath.loggamma(mpmath.mpf(x))
            assert float(abs(log_gamma(x) - ref)) < 2e-15 * max(1.0, float(abs(ref)))

    def test_against_mpmath(self):
        # relative to max(1, |log Gamma|), which has roots at 1 and 2: measured
        # 8.5e-16; the Lanczos form it replaced read 2.3e-15
        rng = random.Random(24)
        pts = [rng.uniform(0.0, 300.0) for _ in range(3000)]
        pts += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(300)] + [1.0, 2.0, 1.0 - 1e-9]
        worst = 0.0
        with mpmath.workdps(40):
            for x in pts:
                ref = mpmath.loggamma(mpmath.mpf(x))
                worst = max(worst, float(abs(log_gamma(x) - ref) / max(1, abs(ref))))
        assert worst < 2e-15

    def test_consistent_with_gamma(self):
        for x in (0.4, 1.3, 6.0):
            assert math.exp(log_gamma(x)) == pytest.approx(gamma_fn(x), rel=1e-12)

    def test_domain(self):
        for x in (0.0, -2.5, math.inf, math.nan):
            with pytest.raises(DomainValidationError):
                log_gamma(x)
        with pytest.raises(DomainValidationError, match="overflows a double"):
            log_gamma(1e306)  # log Gamma past the largest double; math.lgamma raised OverflowError


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

    def test_against_mpmath(self):
        # measured: at most 9.8e-16 of max(1, |psi|) (9.6e-16 for x > 0)
        rng = random.Random(2996)
        worst = 0.0
        with mpmath.workdps(40):
            for x in (rng.uniform(-30.0, 60.0) for _ in range(3000)):
                ref = mpmath.digamma(x)
                worst = max(worst, float(abs(digamma(x) - ref) / max(1, abs(ref))))
        assert worst < 2e-15


class TestGammaDigammaNearPoles:
    """gamma_fn and digamma against mpmath at 40 digits at x = -n +- d.

    digamma's reflection branch reduces pi * x to pi * (x - round(x)) before
    the tangent; without that, the error grows like n eps / d (5e-5 at
    d = 1e-11). gamma_fn (math.gamma) reads at most 5.1e-16 here. digamma is
    compared relative to max(|psi|, 1), because it has a root between each
    pair of poles."""

    POINTS = [
        -n + sign * d
        for n in range(1, 8)
        for d in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)
        for sign in (1.0, -1.0)
    ]

    @pytest.mark.parametrize("x", POINTS)
    def test_against_mpmath(self, x):
        with mpmath.workdps(40):
            ref_gamma = mpmath.gamma(mpmath.mpf(x))
            ref_psi = mpmath.digamma(mpmath.mpf(x))
            err_gamma = abs((gamma_fn(x) - ref_gamma) / ref_gamma)
            err_psi = abs(digamma(x) - ref_psi) / max(abs(ref_psi), 1)
        assert float(err_gamma) < 2e-15
        assert float(err_psi) < 1e-13


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

    @pytest.mark.parametrize("nu", [0.3, -1.3])
    @pytest.mark.parametrize("z", [1e308, sys.float_info.max])
    def test_largest_arguments_warn_nothing(self, nu, z):
        # the asymptotic branch forms 1/(8 z) and 2/(pi z) without
        # overflowing 8 z or pi z; |J| <= sqrt(2/(pi z)) ~ 8e-155 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = bessel_j(nu, z)
            batch = bessel_j(nu, np.array([1e3, z]))
        assert math.isfinite(single) and abs(single) < 1e-154
        assert batch[1] == single

    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.7, -1.3])
    def test_asymptotic_phase_against_mpmath(self, nu):
        # the phase z - (nu/2 + 1/4) pi is taken from cos z and sin z, so no
        # digit of z is lost to the subtraction; error scaled by the envelope
        zs = np.geomspace(1e3, 1e15, 25) * 1.0137
        got = bessel_j(nu, zs)
        with mpmath.workdps(60):
            for z, value in zip(zs, got):
                ref = mpmath.besselj(nu, mpmath.mpf(float(z)))
                envelope = mpmath.sqrt(2 / (mpmath.pi * mpmath.mpf(float(z))))
                assert float(abs(value - ref) / envelope) < 1e-13, z

    @pytest.mark.parametrize("nu", [45.3, 100.3, 150.3, 300.3])
    def test_large_order_past_z_1000(self, nu):
        # the Hankel expansion read 1.3e-9 at nu = 100.3, 1.2 at 150.3 and
        # 4.8e15 at 300.3 (z = 1000); past nu^2 = z Miller runs to z = 1e4.
        # Measured against mpmath at most 2e-13
        zs = np.array([1e3, 3e3, 1e4])
        envelope = np.sqrt(2.0 / (np.pi * zs))
        assert np.max(np.abs(bessel_j(nu, zs) - sps.jv(nu, zs)) / envelope) < 1e-11
        past = np.array([1e3, np.nextafter(1e4, 2e4)])
        if nu * nu > past[1]:
            with pytest.raises(AccuracyError, match="nu\\^2 <= z"):
                bessel_j(nu, past)
        else:
            assert np.all(np.isfinite(bessel_j(nu, past)))

    @pytest.mark.parametrize("z", [1e3, 3e3, 1e4, 1e5, 1e6])
    def test_at_the_hankel_order_bound(self, z):
        # nu = sqrt(z) and its neighbouring doubles, on either branch
        root = math.sqrt(z)
        with mpmath.workdps(40):
            envelope = mpmath.sqrt(2 / (mpmath.pi * z))
            for nu in (np.nextafter(root, 0.0), root, np.nextafter(root, z)):
                if nu * nu > z > specfun._MILLER_Z_MAX:
                    with pytest.raises(AccuracyError):
                        bessel_j(nu, z)
                    continue
                ref = mpmath.besselj(float(nu), mpmath.mpf(z))
                assert float(abs(bessel_j(nu, z) - ref) / envelope) < 1e-12, nu

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

    @pytest.mark.parametrize("nu", [0.0, 0.3, 2.7, 10.4])
    def test_small_z_against_mpmath(self, nu):
        # the leading term takes z with (z/2)^2 / (nu + 1) < 2^-53, Miller the
        # rest; relative to max(|J|, the smallest normal double), since a value
        # below it keeps only absolute accuracy. Measured: at most 3.6e-16.
        # The rule keeps Miller's sweep, which overflows to nan below z of
        # about 6e-71, from the smaller z and from z = 0
        zs = np.array([0.0, 5e-324, 1e-300, 1e-152, 1e-71, 1e-9, 1e-3])
        got = bessel_j(nu, zs)
        with mpmath.workdps(40):
            for z, value in zip(zs, got):
                ref = mpmath.besselj(nu, z) if z else mpmath.mpf(nu == 0.0)
                assert float(abs(value - ref) / max(abs(ref), sys.float_info.min)) < 1e-15, z
                assert bessel_j(nu, float(z)) == value
        assert (got[0], bessel_j(nu, 0.0)) == (float(nu == 0.0), float(nu == 0.0))

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.5, 2.7, 5.2, 10.4])
    def test_below_hankel_range_against_mpmath(self, nu):
        # Miller's sweep below z = 14, where the ascending series read 6.7e-12
        # to 1.9e-11 of the envelope sqrt(2/(pi max(z, 1))) on these points
        # (1.7e-13 at nu = 10.4). Measured: at most 1.3e-15 (nu = 5.2)
        rng = random.Random(26)
        zs = np.array(sorted(rng.uniform(0.5, 14.0) for _ in range(140)))
        got = bessel_j(nu, zs)
        with mpmath.workdps(40):
            for z, value in zip(zs, got):
                envelope = mpmath.sqrt(2 / (mpmath.pi * max(z, 1.0)))
                assert float(abs(value - mpmath.besselj(nu, z)) / envelope) < 2e-15, z


class TestBesselJSwitchovers:
    """Points about z = 14, where a former ascending series handed over to
    Miller's sweep, and on both sides of the Miller/asymptotic switch at
    z = 1000."""

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
        # worst relative error found: 1.3e-13 at z = 999.9, nu = 1.3, at the
        # end of Miller's range (a sweep of about 1,200 steps); at most 2.6e-15
        # about z = 14, where the ascending series read up to 2.4e-11
        # (z = 13.999, nu = 1.3)
        got = bessel_j(nu, self._ZS)
        with mpmath.workdps(30):
            for z, value in zip(self._ZS, got):
                ref = mpmath.besselj(nu, mpmath.mpf(float(z)))
                assert float(abs((value - ref) / ref)) < 2e-13


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

    @pytest.mark.parametrize("c", [0.3, 2.5, 7.0])
    @pytest.mark.parametrize("x", [complex(1.5e308, 1.5e308), complex(1e308, 1e308)])
    def test_huge_x_rejected(self, c, x):
        # abs(x) overflows at the first point; at the second 1/x, the pole of
        # Euler's integral, is subnormal, and the function is of order 1e-305
        with pytest.raises(DomainValidationError, match="normal double"):
            hyp2f1_11(c, x)

    @pytest.mark.parametrize("c", [0.3, 2.0, 2.5])
    def test_largest_x_against_mpmath(self, c):
        # |x| up to 2^1022, where 1/x is the smallest normal double; measured
        # at most 2.7e-16
        top = 2.0 ** 1022
        for x in (complex(-top, 0.0), complex(0.5, 0.99 * top), 0.7 * top * (1 + 1j)):
            assert _mp_rel_err(hyp2f1_11(c, x), c, x) < 1e-15

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


def _side_caches(suffix: str) -> tuple[str, ...]:
    """The x or c side caches: ``specfun``'s lru_cache functions named ``*suffix``."""
    return tuple(sorted(name for name, obj in vars(specfun).items()
                        if name.endswith(suffix) and hasattr(obj, "cache_info")))


_X_SIDES = _side_caches("_x")
_C_SIDES = _side_caches("_c")


def _clear_sides() -> None:
    specfun._hyp_direct.cache_clear()
    for name in _X_SIDES + _C_SIDES:
        getattr(specfun, name).cache_clear()


def _side_misses(names) -> int:
    return sum(getattr(specfun, name).cache_info().misses for name in names)


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

    # phi = 0.4 keeps |x| <= 0.7 (series), phi = 2.5 puts |x| near 1.6
    # (Euler's integral); at gamma = 1/2 the x and x* families share their c values.
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

    def test_side_lists_name_the_side_caches(self):
        assert _X_SIDES and _C_SIDES
        assert "_hyp_direct" not in _X_SIDES + _C_SIDES

    @pytest.mark.parametrize("alpha_prime", [2.3, -1.3, 1.7, 0.45])
    @pytest.mark.parametrize("phi", [0.4, 2.5, -3.0])
    def test_one_build_costs_three_misses(self, alpha_prime, phi):
        # each c < 1.5 steps down from one anchor, which is a direct value of
        # its own family
        specfun._hyp_direct.cache_clear()
        first = g_fn(alpha_prime, phi)
        assert specfun._hyp_direct.cache_info().misses == 3
        second = g_fn(alpha_prime, phi)
        assert specfun._hyp_direct.cache_info().misses == 3
        assert _bits(first.g) == _bits(second.g)

    @pytest.mark.parametrize("c", [1.5, 2.0, 2.5, 3.0, 4.3, 6.0])
    @pytest.mark.parametrize("re", [-1.5, -3.0, -1e6])
    def test_inverse_series_zero_signs_agree(self, c, re):
        # past |x| = 1.5 the real axis is a memo key shared by both signs of
        # Im x = 0, so Euler's integral must give the same bits for both
        direct = specfun._hyp_direct.__wrapped__
        assert _bits(direct(c, complex(re, 0.0))) == _bits(direct(c, complex(re, -0.0)))

    def test_size_stays_bounded_over_a_scan(self, capsys):
        from abgup import cli, scattering

        # the rows of a JSON phi-scan, one float call each (a phi-scan itself
        # takes its angles as one array, below)
        _clear_sides()
        params = PhysicalParams(beta=0.01)
        for phi in np.linspace(-3.1, 3.1, 120).tolist():
            scattering.scatter_sample(phi, 1.3, params, form="linearized")
        info = specfun._hyp_direct.cache_info()
        # the JSON row's second build is all hits; rows at -phi and phi close
        # enough to be still cached share entries too (measured 351 misses)
        assert info.misses <= 3 * 120 <= info.hits
        assert 0 < info.currsize <= info.maxsize == specfun._DIRECT_MEMO_SIZE
        # c is fixed, so the c sides are built once per branch and node set
        # (measured 9), and x and x* share one x side per row (measured 114:
        # rows at -phi and phi close enough to be still cached share it too)
        assert _side_misses(_X_SIDES) <= 120
        assert _side_misses(_C_SIDES) <= 12

        # the array path of the phi-scan builds its own x sides and shares
        # only the c sides, all of them still cached from the rows above
        _clear_sides()
        scattering.scatter_sample(np.linspace(-3.1, 3.1, 120), 1.3, params)
        c_misses = _side_misses(_C_SIDES)
        argv = ["phi-scan", "--beta=0.01", "--alpha=1.3", "--phi-min=-3.1",
                "--phi-max=3.1", "--steps=120", "--format=json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert specfun._hyp_direct.cache_info().currsize == 0
        assert _side_misses(_X_SIDES) == 0 and 0 < c_misses == _side_misses(_C_SIDES) <= 9

    def test_alpha_scan_builds_one_x_side(self, capsys):
        from abgup import cli

        _clear_sides()
        argv = ["alpha-scan", "--beta=0.01", "--phi=2.2", "--alpha-min=-2.9",
                "--alpha-max=2.9", "--steps=150"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert _side_misses(_X_SIDES) == 1


def _point_key(c: float, x: complex) -> tuple[str, str, str]:
    """(c, x) as exact text, signed zeros kept."""
    return repr(float(c)), repr(x.real), repr(x.imag)


# The points of the committed mpmath tables under tests/reference/, by file
# name, in file order; tests/reference/hyp2f1_tables.py writes the tables.
_MP_TABLES = {
    "hyp2f1_inverse.json": lambda: [(c, x) for c in TestHyp2f1Branches._CS
                                    for x in TestHyp2f1Branches._inverse_args()],
    "hyp2f1_rule.json": lambda: [pt for pts in _rule_points().values() for pt in pts],
    "hyp2f1_near_one.json": lambda: TestHyp2f1NearOne.points(),
}


def _mp_reference(c: float, x: complex) -> mpmath.mpc:
    """2F1(1, 1; c; x) by mpmath, at the working precision."""
    return mpmath.hyp2f1(1, 1, mpmath.mpf(c), mpmath.mpc(x.real, x.imag))


@functools.cache
def _mp_table(name: str) -> dict[tuple[str, str, str], mpmath.mpc]:
    """The 50-digit mpmath values of tests/reference/<name>, in file order,
    keyed by ``_point_key``."""
    path = Path(__file__).resolve().parent / "reference" / name
    with mpmath.workdps(50):
        return {_point_key(c, complex(re, im)): mpmath.mpc(mpmath.mpf(f_re), mpmath.mpf(f_im))
                for c, re, im, f_re, f_im in json.loads(path.read_text())["points"]}


def _table_worst(name: str, points) -> float:
    """The largest relative error of ``hyp2f1_11`` over ``points`` against
    the table ``name``."""
    table = _mp_table(name)
    worst = 0.0
    with mpmath.workdps(50):
        for c, x in points:
            got, ref = hyp2f1_11(c, x), table[_point_key(c, x)]
            worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)))
    return worst


def _check_table(name: str, seed: int) -> None:
    """The table's point list is exactly the test's (signed zeros kept), and
    8 seeded entries agree with a fresh mpmath evaluation to 1e-45."""
    table = _mp_table(name)
    assert list(table) == [_point_key(c, x) for c, x in _MP_TABLES[name]()]
    with mpmath.workdps(50):
        for key in random.Random(seed).sample(sorted(table), 8):
            c, re, im = (float(v) for v in key)
            ref = _mp_reference(c, complex(re, im))
            assert abs(table[key] - ref) <= 1e-45 * abs(ref), key


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

    @pytest.mark.parametrize("c", [1e-6, 1e-4, 1.0 - 1e-6, 1.0 + 1e-6])
    def test_small_c(self, c):
        # F ~ 1/c as c -> 0+, so the last contiguous step must divide by c
        # itself: a c rounded on its way through c + 2 costs about 1e-10.
        worst = max(_mp_rel_err(hyp2f1_11(c, x), c, complex(x)) for x in self._ARGS)
        assert worst < 1e-14

    # x near the branch point 1: measured at most 2.0e-15, where the points
    # within 1e-3 of 1 take the connection to 1 - x at c itself (8.0e-14
    # from the anchor on Euler's integral; 4.7e-13 with the continued fraction)
    _NEAR_ONE = [0.99, 0.999, 0.9999, 0.99 + 0.01j, 0.99 - 0.01j,
                 1.0 + 1e-3j, 1.0 - 1e-3j, 0.95 + 0.05j]

    @pytest.mark.parametrize("c", [-6.5, -5.3, -4.1, -2.5, -1.2, -0.5])
    def test_negative_c_near_one(self, c):
        worst = max(_mp_rel_err(hyp2f1_11(c, x), c, complex(x)) for x in self._NEAR_ONE)
        assert worst < 1e-12


class TestHyp2f1Branches:
    """The power series at the ends of its term counts, Euler's integral from
    |x| = 1.5 to 1e6, and the switch between them at |x| = 0.7."""

    # c at and next to integers, and up to 6
    _CS = [1.5, 2.0 - 1e-10, 2.0, 2.0 + 1e-10, 2.3, 3.0 - 1e-10, 3.0, 3.7, 4.0, 6.0]
    # measured at most 4.4e-16 on _inverse_args() and 2.0e-16 at the |x| = 1.5
    # edges of test_term_count_edges, for every c
    _BOUND = 1e-15

    @staticmethod
    def _inverse_args() -> list[complex]:
        """|x| from 1.5 to 1e6: the Re x = 1/2 locus, 14 directions, the
        negative real axis with both zero signs, and just off the cut."""
        args = []
        for r in (1.5, 1.5 + 1e-12, 2.0, 3.0, 10.0, 1e3, 1e6):
            t = math.sqrt(r * r - 0.25)
            args += [0.5 + 1j * t, 0.5 - 1j * t, complex(-r, 0.0), complex(-r, -0.0),
                     r + 1e-6j, r - 1e-8j]
            args += [cmath.rect(r, th) for th in np.linspace(-math.pi, math.pi, 17)[1:-1]
                     if abs(th) > 1e-9]
        return [x for x in args if abs(x) >= 1.5]  # rect may round below

    @pytest.mark.parametrize("c", _CS)
    def test_inverse_series_against_mpmath(self, c):
        # mpmath's 50-digit values, from the table tests/reference/hyp2f1_tables.py writes
        worst = _table_worst("hyp2f1_inverse.json", [(c, x) for x in self._inverse_args()])
        assert worst < self._BOUND

    def test_inverse_table_matches_points_and_mpmath(self):
        _check_table("hyp2f1_inverse.json", 21)

    @pytest.mark.parametrize("c", [2.5, 0.3])
    def test_found_points(self, c):
        # just above the cut at |x| = 1.5: the continued fraction stalled here
        # for 50,000 passes; c = 0.3 steps down from its anchor at 2.3
        assert _mp_rel_err(hyp2f1_11(c, 1.5 + 1e-6j), c, 1.5 + 1e-6j) < 1e-15

    @pytest.mark.parametrize("c", [1.6, 2.45, 3.3])
    def test_far_along_the_locus(self, c):
        # the continued fraction read up to 4.1e-14 here
        for t in (10.0, 1e3, 1e4, 1e6):
            for x in (0.5 + 1j * t, 0.5 - 1j * t):
                assert _mp_rel_err(hyp2f1_11(c, x), c, x) < 1e-15

    @pytest.mark.parametrize("c", [1.5, 2.0, 2.7, 4.0, 6.0])
    @pytest.mark.parametrize(
        "x",
        [1e-300, -1e-20, 1e-8 + 1e-8j, 0.7, -0.7, np.nextafter(0.7, 0.0) * 1j,
         0.5 + 0.4898979485566356j, 1.5j, -1.5, np.nextafter(1.5, 2.0) * 1j,
         -np.nextafter(1.5, 2.0)],
    )
    def test_term_count_edges(self, c, x):
        # tiny |x| takes two terms and |x| = 0.7 the most; past 0.7 the rule runs
        assert _mp_rel_err(hyp2f1_11(c, x), c, complex(x)) < self._BOUND

    def test_euler_rule_runs_only_in_between(self, monkeypatch):
        # the rule runs at every |x| > 0.7, at any c, and never at |x| <= 0.7
        entered = []

        def spy(x):
            entered.append(abs(x))
            return rule_x(x)

        rule_x = specfun._euler_x
        monkeypatch.setattr(specfun, "_euler_x", spy)
        args = self._inverse_args()
        uppers = {x if math.copysign(1.0, x.imag) > 0.0 else x.conjugate() for x in args}
        assert (len(uppers), len(set(args))) == (96, 130)
        for c in (0.3, 1.2, 2.6, 6.0, 7.3):
            specfun._hyp_direct.cache_clear()
            entered.clear()
            for x in args:
                hyp2f1_11(c, x)
            # x and x* share one key, the upper-half one, and so do +-0j
            assert len(entered) == len(uppers) and min(entered) >= 1.5
        entered.clear()
        for x in (1.2 + 0.3j, 0.5 + 1.4j, -1.49, np.nextafter(0.7, 1.0)):
            hyp2f1_11(2.6, x)
        assert len(entered) == 4 and all(0.7 < r < 1.5 for r in entered)
        entered.clear()
        for c in (0.3, 2.6, 7.3):
            for x in (0.7, -0.7, 0.7j, 0.5 + 0.48j, 0.3 - 0.2j, 1e-300):
                hyp2f1_11(c, x)
        assert entered == []
        specfun._hyp_direct.cache_clear()


@functools.cache
def _rule_points() -> dict[str, list[tuple[float, complex]]]:
    """Seeded (c, x) where Euler's integral runs or borders, by region."""
    rng = random.Random(17)
    locus = []
    while len(locus) < 80:
        # the annulus of the locus, |phi| in about (1.55, 2.46), then far forward
        phi = (rng.uniform(1.5, 2.5) if len(locus) % 2 else
               math.pi - 10 ** rng.uniform(-6.0, -0.3)) * rng.choice((-1.0, 1.0))
        x = 0.5 * (1.0 + 1j * math.tan(0.5 * phi))
        if abs(x) > specfun._SERIES_RADIUS:
            locus.append((rng.uniform(1.5, 3.0), x))

    def ring(n, c_lo, c_hi, r_lo, r_hi):
        # every fourth point lies 1e-8 to 0.1 rad from the cut, at |x| > 1
        pts = []
        for i in range(n):
            c = rng.uniform(c_lo, c_hi)
            if i % 4:
                r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
                th = rng.uniform(-math.pi, math.pi)
            else:
                r = math.exp(rng.uniform(0.0, math.log(r_hi)))
                th = 10 ** rng.uniform(-8.0, -1.0) * rng.choice((-1.0, 1.0))
            pts.append((c, cmath.rect(r, th)))
        return pts

    return {
        "locus": locus,
        "annulus": ring(100, 1.5, 6.0, 0.7, 1.5),
        "large_c": ring(100, 6.0 + 1e-9, 20.0, 0.7, 1e3),
        # Lentz stalled at these for 50,000 passes and raised AccuracyError
        "lentz_stalls": [(2.5, 1.2 + 1e-6j), (2.5, 1.05 + 1e-8j), (2.5, 1.01 + 1e-6j),
                         (7.0, 1.5 + 1e-6j), (7.0, 10.0 + 0.01j)],
        # the pole 1/x of the integrand 1e-4 from the end t = 1 of the path
        "near_one": [(1.5, 1.0001 + 1e-9j)],
        # the pole next to a node of the first rule, 1e-6 to 1e-12 off the cut
        "pole_at_node": [(c, complex(1.0 / specfun._RULES[0][0][k], eps))
                         for k in (70, 85, 100) for eps in (1e-6, 1e-12)
                         for c in (1.6, 2.5, 9.0)],
    }


class TestEulerRule:
    """Euler's integral on its fixed tanh-sinh rule, which takes every |x| > 0.7."""

    # measured: locus 4.0e-16, annulus 7.1e-16, large_c 2.1e-15, lentz_stalls
    # 6.6e-16, near_one 1.2e-16 (by the connection to 1 - x; 9.4e-17 on the
    # rule), pole_at_node 3.1e-16 (1.1e-5 on the first rule alone)
    _BOUND = {"locus": 1e-15, "annulus": 2e-15, "large_c": 6e-15,
              "lentz_stalls": 2e-15, "near_one": 5e-16, "pole_at_node": 1e-15}

    @pytest.mark.parametrize("region", sorted(_BOUND))
    def test_against_mpmath(self, region):
        # mpmath's 50-digit values, from the table tests/reference/hyp2f1_tables.py writes
        assert _table_worst("hyp2f1_rule.json", _rule_points()[region]) < self._BOUND[region]

    def test_rule_table_matches_points_and_mpmath(self):
        _check_table("hyp2f1_rule.json", 22)

    @staticmethod
    def _conjugate_points() -> list[tuple[float, complex]]:
        rng = random.Random(29)
        pts = []
        for r_lo, r_hi in ((0.01, 0.7), (0.7, 1.5), (1.5, 1e4)):  # every branch
            for c_lo, c_hi in ((0.1, 1.5), (1.5, 6.0), (6.0, 20.0)):  # shifted, direct
                for _ in range(20):
                    x = cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi))
                    pts.append((rng.uniform(c_lo, c_hi), x))
        for c in (0.3, 1.2, 2.5, 7.5):  # Im x = +-0.0 on both sides of x = 0 and past -1
            pts += [(c, complex(re, 0.0)) for re in (0.3, -0.5, 0.9, -1.2, -40.0)]
        return pts

    def test_conjugate_is_bitwise(self):
        # F(x*) = F(x)*, and a lower-half x is evaluated through x*: to the bit
        bad = [(c, x) for c, x in self._conjugate_points()
               if _bits(hyp2f1_11(c, x.conjugate())) != _bits(hyp2f1_11(c, x).conjugate())]
        assert bad == []

    # the worst points found at c = 60 (the cap): 6.7e-14 next to the pole
    # gate behind t = 0, and 2.5e-14 over 1,000 seeded points, |x| 0.75 to 50
    @pytest.mark.parametrize("x", [-20.290442294839778 + 2.5495982977279086j,
                                   -19.877081190568706 + 6.458455182436403j,
                                   -23.437010729793077 - 3.2768072752265915j])
    def test_at_the_c_cap(self, x):
        c = specfun._EULER_MAX_C
        assert _mp_rel_err(hyp2f1_11(c, x), c, x) < 1e-13

    @pytest.mark.parametrize("c", [float(np.nextafter(specfun._EULER_MAX_C, math.inf)),
                                   100.0, 1e4, 1e300])
    def test_past_the_c_cap_raises(self, c):
        # the rule read 2.7e-6 at c = 500 and 2.6e284 at c = 1e300
        for x in (0.9 + 0.5j, 0.9 - 0.5j, np.nextafter(0.7, 1.0), -3.0, 50j):
            with pytest.raises(AccuracyError, match="c <="):
                hyp2f1_11(c, x)

    # The worst points found at c = -1e4 + f (the floor of the contiguous
    # steps) over 1,400 seeded points: 1.1e-12, 7.9e-13 and 5.6e-13, all at
    # Re x = 1/2, where the two terms of the connection to 1 - x are of one
    # size. mpmath.hyp2f1 itself stops its series early at so negative a c
    # (it reads 1.0 where the value is 2e178 at c = -999.1), so the reference
    # at 50 digits is that connection (DLMF 15.8.4), or where |x / (x - 1)|
    # < 0.8 Pfaff's transformation (DLMF 15.8.1), whose series has terms
    # (c - 1) / (c - 1 + n) z^n and takes 1 ms where the connection takes 3 s.
    @pytest.mark.parametrize("c, x", [
        (-9999.999999, 0.4996329197572735 - 0.05109542480671703j),
        (-9999.25, 0.49974872248794516 - 0.4803541564705256j),
        (-9999.000001, 0.49939700448910934 - 0.8592602127302658j),
        (-9999.5, -3.0 + 1.0j),
        (-9999.5, 0.3 + 0.1j),
    ])
    def test_at_the_c_floor(self, c, x):
        with mpmath.workdps(50):
            cm, xm = mpmath.mpf(c), mpmath.mpc(x.real, x.imag)
            z = xm / (xm - 1)
            if abs(z) < 0.8:
                ref = mpmath.hyp2f1(1, cm - 1, cm, z) / (1 - xm)
            else:
                ref = ((cm - 1) / (cm - 2) * mpmath.hyp2f1(1, 1, 3 - cm, 1 - xm)
                       + mpmath.pi * (1 - cm) / mpmath.sin(mpmath.pi * cm)
                       * xm ** (1 - cm) * (1 - xm) ** (cm - 2))
            got = hyp2f1_11(c, x)
            assert float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)) < 2e-12

    @pytest.mark.parametrize("c", [specfun._MIN_SHIFTED_C - 1e-6, -1e4 - 0.5, -1e5 + 0.5,
                                   -1e12 + 0.5, -1e15 + 0.5])
    def test_below_the_c_floor_raises(self, c):
        # ceil(1.5 - c) steps: 47 ms at -1e5 + 0.5, days at -1e12 + 0.5 (an
        # integral c, -1e300 included, is a pole and raises PoleError first)
        for x in (0.3 + 0.1j, 0.9 - 0.5j, -3.0, 50j):
            with pytest.raises(DomainValidationError, match="c >="):
                hyp2f1_11(c, x)

    def test_past_the_double_range_raises(self):
        # where Re x > 1/2 the value grows like |x / (1 - x)|^(-c); it was inf
        for x in (0.9 + 0.3j, 0.9 - 0.3j, 2.0 + 1.0j, 0.6):
            with pytest.raises(DomainValidationError, match="double range"):
                hyp2f1_11(-1e4 + 0.5, x)

    def test_series_keeps_every_c(self):
        # |x| <= 0.7 sums the power series, whose terms n! x^n / (c)_n only fall faster
        c = 1e4
        for x in (0.7, -0.7, 0.3 + 0.6j, 0.5 - 0.48j, 1e-3j):
            with mpmath.workdps(40):
                ref = sum(mpmath.factorial(n) * mpmath.mpc(x) ** n / mpmath.rf(c, n)
                          for n in range(12))
                got = hyp2f1_11(c, x)
                assert float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)) < 1e-15
        got = hyp2f1_11(1e300, 0.5 + 0.3j)  # 1 + x/c
        assert got.real == 1.0 and got.imag == pytest.approx(3e-301, rel=1e-15)

    @staticmethod
    def _conjugating_functions(source: str) -> set[str]:
        """Names of the top-level functions that call ``.conjugate()``, and
        "<module>" for a call outside every function."""
        return {getattr(node, "name", "<module>") for node in ast.parse(source).body
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                       and n.func.attr == "conjugate" for n in ast.walk(node))}

    def test_only_hyp2f1_11_conjugates(self):
        # F(x*) = F(x)* is applied once, at hyp2f1_11's entry and exit, and
        # once in its array form, at the entry and exit of _hyp2f1_11_rows
        src = ("def f(x):\n    return x.conjugate()\ndef g(x):\n    return x\n"
               "Y = (1j).conjugate()\n")
        assert self._conjugating_functions(src) == {"f", "<module>"}
        source = Path(specfun.__file__).read_text()
        assert self._conjugating_functions(source) == {"hyp2f1_11", "_hyp2f1_11_rows"}

    @staticmethod
    def _loops_reached_from(source: str, root: str) -> tuple[set[str], list[str]]:
        """The module functions ``root`` reaches by name, and those of them
        that hold a for, a while or a comprehension."""
        defs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
        seen, todo = set(), [root]
        while todo:
            name = todo.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        return seen, sorted(name for name in seen
                            if any(isinstance(n, loops) for n in ast.walk(defs[name])))

    def test_loop_finder_sees_reached_loops(self):
        src = ("def root(x):\n    return leaf(x) + other\n"
               "def leaf(x):\n    return sum(i for i in x)\n"
               "def unreached(x):\n    while x:\n        x -= 1\n")
        assert self._loops_reached_from(src, "root") == ({"root", "leaf"}, ["leaf"])

    def test_no_iteration_under_direct_evaluation(self):
        # no branch of a direct 2F1 evaluation has an iteration cap
        source = Path(specfun.__file__).read_text()
        reached, loops = self._loops_reached_from(source, "_hyp_direct")
        assert {"_series_x", "_series_c", "_euler_x", "_euler_c"} <= reached
        assert loops == []


class TestHyp2f1NearOne:
    """hyp2f1_11 next to x = 1, where the connection to 1 - x (DLMF 15.8.4)
    takes over from Euler's integral away from integer c, against mpmath at
    50 digits."""

    # c from 0.3 to 6, and within 1e-6 of 2 and 3, where the rule keeps the value
    _CS = ([round(0.3 + 0.2 * i, 12) for i in range(29)]
           + [n + sign * d for n in (2.0, 3.0) for sign in (1.0, -1.0) for d in (1e-6, 1e-7, 1e-9)])
    # by k, |1 - x| = 10^-k; measured 1.1e-15, 2.5e-15, 1.3e-15, 1.6e-15,
    # 1.9e-15, 1.4e-14 and 1.1e-13, where the rule alone read 1.1e-15,
    # 2.5e-15, 8.1e-14, 2.2e-11, 1.2e-9, 2.2e-8 and 2.1e-7
    _BOUND = {2: 3e-15, 3: 6e-15, 4: 3e-15, 5: 3e-15, 6: 3e-15, 7: 3e-14, 8: 3e-13}

    @staticmethod
    def _args(r: float) -> list[complex]:
        """|1 - x| = r on the real axis, 1e-9 off it on both sides, past
        Re x = 1 on both sides of the cut, and in one direction off the axis."""
        return [complex(1.0 - r, 0.0), complex(1.0 - r, 1e-9), complex(1.0 - r, -1e-9),
                complex(1.0 + r, 1e-9), complex(1.0 + r, -1e-9), 1.0 - cmath.rect(r, 2.0)]

    @classmethod
    def points(cls, k: int | None = None) -> list[tuple[float, complex]]:
        """Every (c, x) of the test, or those at |1 - x| = 10^-k."""
        ks = sorted(cls._BOUND) if k is None else [k]
        return [(c, x) for k in ks for c in cls._CS for x in cls._args(10.0 ** -k)]

    @pytest.mark.parametrize("k", sorted(_BOUND))
    def test_against_mpmath(self, k):
        # mpmath's 50-digit values, from the table tests/reference/hyp2f1_tables.py writes
        assert _table_worst("hyp2f1_near_one.json", self.points(k)) < self._BOUND[k]

    def test_table_matches_points_and_mpmath(self):
        _check_table("hyp2f1_near_one.json", 23)

    def test_connection_runs_only_next_to_one_away_from_integers(self, monkeypatch):
        entered = []

        def spy(c, x):
            entered.append((c, x))
            return near_one(c, x)

        near_one = specfun._hyp_near_one
        monkeypatch.setattr(specfun, "_hyp_near_one", spy)
        specfun._hyp_direct.cache_clear()
        # the gate: |1 - x| < 1e-3, and c more than 0.1 sqrt|1 - x| from an integer
        for c, x in [(1.5, 0.999), (1.5, 1.0011 + 1e-9j), (2.0, 1.0 - 1e-8), (2.0 + 9e-6, 1.0 - 1e-8),
                     (3.0 - 9e-5, 1.0 - 1e-6), (60.5, 1.0 - 1e-6)]:
            with contextlib.suppress(AccuracyError):
                hyp2f1_11(c, x)
        assert entered == []
        for c, x in [(1.5, 0.9991), (0.3, 1.0 + 1e-8j), (2.0 + 1.1e-5, 1.0 - 1e-8),
                     (3.0 - 1.1e-4, 1.0 - 1e-6), (-4.5, 1.0 - 1e-4), (60.0 - 0.5, 1.0 - 1e-6)]:
            hyp2f1_11(c, x)
        assert len(entered) == 6
        # the kernel locus has |1 - x| = |x| >= 1/2: the float kernel builds
        # of a scan's rows never take it (the array path has no such branch)
        entered.clear()
        for phi in np.linspace(-3.0, 3.0, 25).tolist():
            g_fn(0.3, phi)
        assert entered == []
        specfun._hyp_direct.cache_clear()

    def test_past_the_double_range_is_typed(self):
        # F ~ (1 - x)^(c - 2) overflows at c < 1; the rule returned inf + inf j
        for c, x in [(0.3, 1.0 + 1e-300j), (0.3, 1.0 - 1e-200j), (-2.5, 1.0 - 1e-120j)]:
            with pytest.raises(DomainValidationError, match="overflows a double"):
                hyp2f1_11(c, x)


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
