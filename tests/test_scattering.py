"""Scattering amplitudes: series oracle vs closed form, cross-section
assembly, integer-flux behaviour and the mirror-symmetry probes."""

import cmath
import functools
import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from abgup import (
    AccuracyError,
    DomainValidationError,
    ForwardSingularityError,
    PhysicalParams,
    PoleError,
    dsigma,
    dsigma_integer_limits,
    f0_amp,
    f1_amp,
    f1_series,
    flux_split,
    g2m,
    g_fn,
    regularized_alternating_gamma_sum,
    scatter_sample,
    scattering,
    specfun,
    symmetry_probe,
    width,
)
from abgup.core import ENDPOINT_BAND

P0 = PhysicalParams(beta=0.0)
PB = PhysicalParams(beta=0.01)


# =====================================================================
# Undeformed amplitude
# =====================================================================

class TestF0:
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.3, 2.5, -0.6])
    @pytest.mark.parametrize("phi", [0.3, -0.9, math.pi / 4, 2.5])
    def test_modulus_closed_form(self, a, phi):
        gamma = flux_split(a).gamma_part
        k = 1.0
        ref = math.sin(math.pi * gamma) ** 2 / (2 * math.pi * k * math.cos(phi / 2) ** 2)
        assert abs(f0_amp(phi, a, k)) ** 2 == pytest.approx(ref, rel=1e-12)

    def test_integer_flux_vanishes_exactly(self):
        for n in (-2, 1, 3):
            assert f0_amp(0.7, float(n)) == 0.0

    def test_huge_flux_vanishes_exactly(self):
        # every double from 2^52 up is an integer; the phase's two-product
        # would overflow past |N| of about 1.3e300, so it must not be formed
        for a in (1e300, 1e305, 1.7e308):
            assert f0_amp(0.5, a) == 0.0
            assert f0_amp(0.5, -a) == 0.0

    @pytest.mark.parametrize("a, phi", [(0.3, 0.5), (1.7, -1.1), (2.5, 2.0)])
    def test_flip_symmetry(self, a, phi):
        assert f0_amp(phi, a) == pytest.approx(f0_amp(-phi, -a), abs=1e-14)

    def test_forward_rejected(self):
        with pytest.raises(ForwardSingularityError):
            f0_amp(math.pi, 0.5)
        with pytest.raises(ForwardSingularityError):
            f0_amp(-math.pi + 1e-9, 0.5)

    def test_angle_wrapping(self):
        # phi enters only through its principal value
        a = 0.7
        assert f0_amp(0.5 + 2 * math.pi, a) == pytest.approx(f0_amp(0.5, a), rel=1e-13)

    def test_bad_k(self):
        with pytest.raises(DomainValidationError):
            f0_amp(0.5, 0.3, k=0.0)


# =====================================================================
# Per-mode constant from the amplitude route
# =====================================================================

class TestG2m:
    def test_reference_value(self):
        # m = 0, alpha' = 1/2: the bracket collapses to a rational multiple of pi
        val = g2m(0, 0.5, PhysicalParams())
        ref = math.pi * 13.0 / 24.0 * cmath.exp(-0.25j * math.pi)
        assert val == pytest.approx(ref, abs=1e-13)

    def test_reflection_product_consistency(self):
        # internal Gamma(w)Gamma(-w) must equal -pi/(w sin pi w); probe by
        # rebuilding g2m's modulus from the direct gamma product
        from abgup import gamma_fn

        m, a = 2, 0.3
        w = m + a
        direct = gamma_fn(w) * gamma_fn(-w)
        reflected = -math.pi / (w * math.sin(math.pi * w))
        assert direct == pytest.approx(reflected, rel=1e-10)

    def test_integer_pole_rejected(self):
        with pytest.raises(PoleError):
            g2m(1, 1.0, PhysicalParams())
        with pytest.raises(PoleError):
            g2m(-2, 2.0, PhysicalParams())

    def test_scale_with_hbar_k(self):
        a = g2m(0, 0.5, PhysicalParams(hbar=1.0, k=1.0))
        b = g2m(0, 0.5, PhysicalParams(hbar=2.0, k=3.0))
        assert b == pytest.approx(a * (2.0 * 3.0) ** 2, rel=1e-13)


# =====================================================================
# Series oracle and regularized sums
# =====================================================================

class TestSeries:
    def test_matches_closed_form_spotcheck(self):
        for a, phi in ((0.7, math.pi / 4), (1.3, -math.pi / 2), (2.5, 3 * math.pi / 4)):
            fs = f1_series(phi, a, PB)
            fa = f1_amp(phi, a, PB)
            assert abs(fa - fs) / abs(fs) < 1e-10

    def test_phi_margins(self):
        with pytest.raises(DomainValidationError):
            f1_series(1e-5, 0.7, PB)
        with pytest.raises(ForwardSingularityError):
            f1_series(math.pi - 1e-5, 0.7, PB)

    def test_integer_flux_rejected(self):
        with pytest.raises(PoleError):
            f1_series(0.5, 1.0, PB)

    @pytest.mark.parametrize("a", [1.3, -0.7])
    def test_abel_tails_make_halves_independent_of_cutoff(self, a, monkeypatch):
        # each half at r = 1, explicit modes plus its exact Abel tail, is the
        # whole Abel sum, so it must not move with the explicit range
        # the w < 0 half at (t, a) is the w > 0 half at (-t, -a)
        assert scattering._EXPLICIT_MODES == 200
        for t in (0.8, -2.0):
            for angle, flux in ((t, a), (-t, -a)):
                fractions = scattering._bracket_fractions(flux)
                base = scattering._abel_half(angle, flux, fractions)
                for modes in (400, 1000, 3000):
                    monkeypatch.setattr(scattering, "_EXPLICIT_MODES", modes)
                    got = scattering._abel_half(angle, flux, fractions)
                    assert abs(got - base) <= 1e-12 * abs(base)
                monkeypatch.undo()

    def test_explicit_range_does_not_grow_with_flux(self, monkeypatch):
        # each half is indexed from w = gamma, so its explicit modes are the
        # same whatever N is
        lengths = []

        def spy(w, fractions):
            lengths.append(len(w))
            return bracket(w, fractions)

        bracket = scattering._mode_bracket
        monkeypatch.setattr(scattering, "_mode_bracket", spy)
        for a in (0.3, 1e6 + 0.3):
            f1_series(0.5, a, PB)
        assert len(lengths) == 4 and len(set(lengths)) == 1

    def test_regularized_gamma_sum_closed_form(self):
        for a, phi in ((0.5, math.pi / 3), (0.3, 1.9), (1.7, -0.8)):
            n, gamma = flux_split(a).n_part, flux_split(a).gamma_part
            got = regularized_alternating_gamma_sum(phi, a)
            ref = -math.pi * cmath.exp(-1j * (n + 0.5) * phi) / (
                2.0 * math.sin(math.pi * gamma) * math.cos(phi / 2.0)
            )
            assert abs(got - ref) < 1e-10 * abs(ref)

    # an 8 x 8 grid, plus points next to 0 and forward and at large flux. At
    # half-integer flux f1 vanishes linearly as phi -> 0 (|f1| = 2.5e-4 at
    # alpha' = -0.5, phi = 1e-3), so a relative gap there says little; at
    # alpha' = 2.5 and phi = 1e-3, |f1| is still 0.03. At |alpha'| = 1e6 the
    # angles 0.5 and -2.0 make the phase product N phi exact; at 1.3 and -2.2
    # it rounds, and a phase formed from the rounded product read 1.15e-10
    # and 3.3e-11 there. The oracle's Abel tails are exact, so the gap must
    # hold whatever its explicit range is
    @pytest.mark.parametrize("modes", [200, 2000])
    def test_oracle_grid_matches_closed_form(self, modes, monkeypatch):
        monkeypatch.setattr(scattering, "_EXPLICIT_MODES", modes)
        grid = [(-1.7 + i * 5.3 / 7, -2.8 + j * 5.7 / 7) for i in range(8) for j in range(8)]
        edges = [(3.6, 0.3), (2.5, 1e-3), (2.5, -1e-3), (2.5, math.pi - 1.001e-3),
                 (2.5, -(math.pi - 1.001e-3)), (12.45, math.pi - 0.01),
                 (1e6 + 0.3, 0.5), (-1e6 + 0.7, -2.0), (1e6 + 0.3, 1.3), (1e6 + 0.3, -2.2)]
        for a, phi in grid + edges:
            fs = f1_series(phi, a, PB)
            fa = f1_amp(phi, a, PB)
            assert abs(fa - fs) <= 1e-10 * abs(fs), (a, phi)

    def test_oracle_shares_no_code_with_closed_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the series oracle reached the closed-form route")

        monkeypatch.setattr(scattering, "hyp2f1_11", refuse)
        monkeypatch.setattr(scattering, "g_fn", refuse)
        with pytest.raises(AssertionError):
            f1_amp(0.5, 0.7, PB)  # the spies are in place
        assert cmath.isfinite(f1_series(0.5, 0.7, PB))
        assert cmath.isfinite(regularized_alternating_gamma_sum(0.5, 0.7))


# =====================================================================
# Deformation kernel and corrected amplitude
# =====================================================================

def _near_integer_draws(seed: int = 8) -> dict[int, list[tuple[float, float]]]:
    """(alpha', phi) near integer flux: alpha' = N + gamma and N + 1 - gamma for
    N in -3..3, gamma log-uniform in [1e-6, 1e-2] (its floor just inside the
    1e-6 integer-flux guard), |tan(phi/2)| log-uniform in [1e-3, 1e6] with
    either sign; three fixed draws per (N, side)."""
    rng = random.Random(seed)
    draws: dict[int, list[tuple[float, float]]] = {}
    for n in range(-3, 4):
        draws[n] = []
        for side in (1.0, -1.0):
            for _ in range(3):
                gamma = 10.0 ** rng.uniform(-5.999, -2.0)
                tan_half = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 6.0)
                a = n + gamma if side > 0 else n + 1.0 - gamma
                draws[n].append((a, 2.0 * math.atan(tan_half)))
    return draws


_NEAR_INTEGER = _near_integer_draws()


class TestKernel:
    def test_argument_on_half_line(self):
        for phi in (0.4, -1.2, 2.8):
            val = g_fn(0.7, phi)
            assert val.x.real == 0.5
            assert val.x.imag == pytest.approx(0.5 * math.tan(phi / 2.0), rel=1e-13)

    def test_finite_gamma_g_limit(self):
        # G diverges like 1/gamma near integer flux; gamma*G stays bounded
        phi = math.pi / 4
        vals = [abs(g) for g in (
            flux_split(1.0 + g).gamma_part * g_fn(1.0 + g, phi).g
            for g in (1e-3, 1e-4, 1e-5)
        )]
        assert all(v < 100.0 for v in vals)
        assert vals[1] == pytest.approx(vals[2], rel=0.05)

    def test_integer_flux_rejected(self):
        with pytest.raises(PoleError):
            g_fn(2.0, 0.5)

    @staticmethod
    def _g_mpmath(a: float, gamma: float, x: complex):
        """G at 50 digits from mpmath.hyp2f1, on the kernel's own a, gamma and x."""
        with mpmath.workdps(50):
            a, g = mpmath.mpf(a), mpmath.mpf(gamma)
            x = mpmath.mpc(x.real, x.imag)
            xc = mpmath.conj(x)
            f = lambda c, z: mpmath.hyp2f1(1, 1, c, z)
            ep, em = mpmath.expjpi(g), mpmath.expjpi(-g)
            return (
                2 * a * a * (ep / (1 - g) * f(2 - g, xc) - em / g * f(1 + g, x))
                + 12 * a * mpmath.cospi(g)
                + a * a * (1 - a / 2) * (ep / (2 - g) * f(3 - g, xc) + em / (1 - g) * f(g, x))
                - a * a * (1 + a / 2) * (ep / g * f(1 - g, xc) + em / (1 + g) * f(2 + g, x))
            )

    @pytest.mark.parametrize("n", sorted(_NEAR_INTEGER))
    def test_against_mpmath_near_integer_flux(self, n):
        # the 1/gamma terms carry the size of G here, so hyp2f1_11 at c = gamma
        # and 1 - gamma must keep the relative accuracy of c itself
        worst = 0.0
        for a, phi in _NEAR_INTEGER[n]:
            val = g_fn(a, phi)
            ref = self._g_mpmath(a, flux_split(a).gamma_part, val.x)
            with mpmath.workdps(50):
                err = abs(mpmath.mpc(val.g.real, val.g.imag) - ref) / abs(ref)
            worst = max(worst, float(err))
        assert worst < 1e-13

    @pytest.mark.parametrize("a, phi", [(0.3, 0.5), (0.7, -2.0), (1.7, 1.0)])
    def test_f1_flip_symmetry(self, a, phi):
        lhs = f1_amp(phi, a, PB)
        rhs = f1_amp(-phi, -a, PB)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def _kernel_table_points() -> list[tuple[float, float]]:
    """(alpha', phi) of the kernel-G table: ten flux values, the cancellation
    rows alpha' = 2.5 and -1.8 (where G's six terms cancel) and eight drawn
    from [-3.9, 3.9] at least 0.05 from an integer, each at twelve angles
    drawn from [-3, 3] and six within 0.1 of +-pi (10^-5.9 to 0.1 from it);
    then the ``_NEAR_INTEGER`` points."""
    rng = random.Random(25)
    alphas = [2.5, -1.8]
    while len(alphas) < 10:
        a = rng.uniform(-3.9, 3.9)
        if abs(a - round(a)) >= 0.05:
            alphas.append(a)
    points = []
    for a in alphas:
        phis = [rng.uniform(-3.0, 3.0) for _ in range(12)]
        phis += [rng.choice((1.0, -1.0)) * (math.pi - 10.0 ** rng.uniform(-5.9, -1.0))
                 for _ in range(6)]
        points += [(a, phi) for phi in phis]
    return points + [pt for n in sorted(_NEAR_INTEGER) for pt in _NEAR_INTEGER[n]]


# The points of the committed mpmath table under tests/reference/, by file
# name; tests/reference/hyp2f1_tables.py writes it.
_MP_TABLES = {"kernel_g.json": _kernel_table_points}


def _mp_reference(a: float, phi: float) -> mpmath.mpc:
    """G(a, phi) by ``TestKernel._g_mpmath``, at the kernel's own gamma and
    locus point x (a float call's x)."""
    return TestKernel._g_mpmath(a, flux_split(a).gamma_part, g_fn(a, phi).x)


@functools.cache
def _kernel_table() -> dict[tuple[float, float], mpmath.mpc]:
    path = Path(__file__).resolve().parent / "reference" / "kernel_g.json"
    with mpmath.workdps(50):
        return {(a, phi): mpmath.mpc(mpmath.mpf(g_re), mpmath.mpf(g_im))
                for a, phi, g_re, g_im in json.loads(path.read_text())["points"]}


def _kernel_error(value: complex, a: float, phi: float) -> float:
    """|G - table| / max(|table|, a'^2): relative, except where G is small
    beside its six terms, which carry a'^2. At half-integer flux G vanishes
    linearly at +-pi while its terms do not, so there the rounding of the
    terms sets the error: plainly relative, both paths read 8.2e-12 at
    (2.5, -pi + 2.8e-6), where |G| = 2.2e-4."""
    with mpmath.workdps(50):
        ref = _kernel_table()[(a, phi)]
        return float(abs(mpmath.mpc(value.real, value.imag) - ref) / max(abs(ref), a * a))


class TestKernelTable:
    """``g_fn`` by float calls and by array calls, against the 50-digit table
    tests/reference/kernel_g.json, with ``TestKernel``'s bound of 1e-13 on
    ``_kernel_error``."""

    def test_float_calls(self):
        # worst 6.4e-14, at a _NEAR_INTEGER point (alpha' = 2 + 2.4e-6, phi = 3.139)
        points = _kernel_table_points()
        assert max(_kernel_error(g_fn(a, phi).g, a, phi) for a, phi in points) < 1e-13

    def test_array_calls(self):
        # one call per flux value, over its angles; worst 4.2e-14, at the same
        # point. numpy's tan may put x an ulp from the float call's x, the
        # table's, which moves G by about 1e-16 relative.
        by_flux: dict[float, list[float]] = {}
        for a, phi in _kernel_table_points():
            by_flux.setdefault(a, []).append(phi)
        worst = 0.0
        for a, phis in by_flux.items():
            val = g_fn(a, np.array(phis))
            x = np.array([g_fn(a, phi).x for phi in phis])
            assert np.all(np.abs(val.x - x) <= 2.3e-16 * np.abs(x))
            worst = max([worst] + [_kernel_error(g, a, phi) for g, phi in zip(val.g.tolist(), phis)])
        assert worst < 1e-13

    def test_table_guard(self):
        # the table's points are exactly the test's, and 8 seeded entries
        # agree with a fresh mpmath evaluation to 1e-45
        table = _kernel_table()
        assert list(table) == _kernel_table_points()
        with mpmath.workdps(50):
            for a, phi in random.Random(26).sample(sorted(table), 8):
                ref = _mp_reference(a, phi)
                assert abs(table[(a, phi)] - ref) <= 1e-45 * abs(ref), (a, phi)


# =====================================================================
# Cross section
# =====================================================================

class TestDsigma:
    def test_beta_zero_closed_form(self):
        for a in (0.3, 0.7, 2.5):
            gamma = flux_split(a).gamma_part
            for phi in (0.5, -1.7, math.pi / 4):
                ref = math.sin(math.pi * gamma) ** 2 / (
                    2 * math.pi * math.cos(phi / 2) ** 2
                )
                assert dsigma(phi, a, P0) == pytest.approx(ref, rel=1e-13)

    def test_ramsauer_zeros_exact(self):
        for n in (1, 2, 3):
            for phi in (math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2):
                assert dsigma(phi, float(n), P0) == 0.0

    def test_forms_agree_to_beta_squared(self):
        phi, a = math.pi / 4, 0.7
        gaps = []
        for beta in (0.01, 0.005):
            p = PhysicalParams(beta=beta)
            gaps.append(abs(dsigma(phi, a, p, form="modulus") - dsigma(phi, a, p)))
        assert gaps[0] < 10.0 * 0.01**2
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)

    def test_endpoint_routing_flags(self):
        # inside the band dsigma is the limit itself; at alpha' = 0.5 the kernel's value
        phi = math.pi / 4
        up, lo = dsigma_integer_limits(1, phi, PB)
        assert dsigma(phi, 1.0 + 5e-5, PB) == up
        assert dsigma(phi, 1.0 - 5e-5, PB) == lo
        assert dsigma(phi, 0.5, PB) not in (dsigma_integer_limits(0, phi, PB)[0], lo)

    def test_endpoint_limit_approach(self):
        # outside the routed band dsigma approaches the one-sided limit ~ linearly
        phi = math.pi / 4
        up, _ = dsigma_integer_limits(1, phi, PB)
        gap_a = abs(dsigma(phi, 1.0 + 2e-4, PB) - up) / up
        gap_b = abs(dsigma(phi, 1.0 + 2e-3, PB) - up) / up
        assert gap_a < 5e-4
        assert gap_b > gap_a

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainValidationError):
            dsigma(0.5, 0.7, PB, form="squared")

    @pytest.mark.parametrize("params, alpha_prime, phi", [
        (PhysicalParams(hbar=1e300, beta=2.0), 0.7, 0.5),  # (hbar k)^2 overflows
        (PhysicalParams(hbar=1e200, beta=2.0), 1.0 + 1e-5, 0.5),  # endpoint limits
        (PhysicalParams(k=1e-300), 0.7, 3.14159),  # 1 / (2 pi k cos^2) at beta = 0
        (PhysicalParams(beta=1e308), 0.7, 0.5),
    ])
    def test_overflow_raises_accuracy_error(self, params, alpha_prime, phi):
        for form in ("linearized", "modulus"):
            with pytest.raises(AccuracyError, match="not finite"):
                dsigma(phi, alpha_prime, params, form=form)
            with pytest.raises(AccuracyError, match="not finite"):
                scatter_sample(phi, alpha_prime, params, form=form)

    def test_forward_rejected(self):
        with pytest.raises(ForwardSingularityError):
            dsigma(math.pi, 0.7, PB)


class TestNearIntegerFlux:
    """The paper's two results where pi alpha' rounds worst: the beta = 0
    flip invariance and the approach to integer flux."""

    @staticmethod
    def _flip_points() -> list[tuple[float, float]]:
        rng = random.Random(15)
        pts = [(rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0)) for _ in range(2000)]
        for n in range(-4, 5):
            for d in (1e-5, -1e-5, 3e-6, -1.5e-6, 2e-7, 1e-12, 0.0):
                pts.append((rng.uniform(-3.0, 3.0), n + d))
        return pts

    def test_beta_zero_flip_is_exact(self):
        # sin^2(pi alpha') / (2 pi k cos^2(phi/2)) is even in both, and so are its
        # bits when the sine comes from the exactly reduced alpha'; a sine of the
        # rounded pi gamma breaks it on 1,252 of the 2,000 seeded points
        bad = [(phi, a) for phi, a in self._flip_points()
               if dsigma(phi, a, P0) != dsigma(-phi, -a, P0)]
        assert bad == []

    _DELTAS = (2e-6, 1e-5, 1e-4)

    @staticmethod
    def _dsigma_mpmath(phi: float, a: float, beta: float):
        """dsigma at 50 digits, routed as ``dsigma`` routes: the limits within
        1e-4 of an integer at beta > 0, the kernel built by mpmath otherwise."""
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            n = int(mpmath.floor(am))
            g = am - n
            c2 = mpmath.cos(mpmath.mpf(phi) / 2) ** 2
            s = mpmath.sinpi(g)
            pref = beta * mpmath.pi / 2
            if beta == 0.0:
                return s * s / (2 * mpmath.pi * c2)
            if g < ENDPOINT_BAND:
                return pref * n * n * (2 * (n - 2) * c2 + 6 - n)
            if 1 - g < ENDPOINT_BAND:
                return pref * (n + 1) ** 2 * (n + 7 - 2 * (n + 3) * c2)
            x = mpmath.mpc(0.5, mpmath.tan(mpmath.mpf(phi) / 2) / 2)
            kernel = TestKernel._g_mpmath(a, g, complex(x))
            return s * (s - pref * mpmath.re(kernel)) / (2 * mpmath.pi * c2)

    @pytest.mark.parametrize("beta, bound", [(0.0, 1e-15), (0.01, 1e-14)])
    def test_dsigma_against_mpmath(self, beta, bound):
        # a sine of the rounded pi gamma reads 1.4e-10 at alpha' = 2.9999985.
        # Measured now: at most 3.6e-16 at beta = 0. At beta = 0.01 all but one
        # of the points take the integer-flux limits (test_integer_limits_against_mpmath).
        params = PhysicalParams(beta=beta)
        worst = 0.0
        for n in (1, 2, 3):
            for a in [n - d for d in self._DELTAS] + [2.9999985]:
                for phi in (0.3, -1.2, 2.5):
                    ref = self._dsigma_mpmath(phi, a, beta)
                    with mpmath.workdps(50):
                        worst = max(worst, float(abs(dsigma(phi, a, params) - ref) / abs(ref)))
        assert worst < bound

    @pytest.mark.parametrize("n", [1, -1, 2, -2, 3, -3])
    def test_integer_limits_against_mpmath(self, n):
        # written in sin^2(phi/2), neither limit cancels; in cos^2(phi/2) the
        # lower one at n = 2 (and the upper at n = -2) read 5.9e-15 at phi = 0.3,
        # 4.6e-10 at 1e-3 and 8.9e-5 at 1e-6. Measured now: at most 2.9e-16.
        worst = 0.0
        for phi in (1e-6, -1e-6, 1e-3, 0.03, 0.3, -1.2, math.pi / 2, 2.5, 3.0):
            got = dsigma_integer_limits(n, phi, PB)
            with mpmath.workdps(50):
                c2 = mpmath.cos(mpmath.mpf(phi) / 2) ** 2
                scale = (mpmath.mpf(PB.beta) * mpmath.pi * mpmath.mpf(PB.hbar) ** 2
                         * mpmath.mpf(PB.k) * n * n / 2)
                ref = (scale * (2 * (n - 2) * c2 + 6 - n), scale * (n + 6 - 2 * (n + 2) * c2))
                worst = max(worst, *(float(abs(g - r) / abs(r)) for g, r in zip(got, ref)))
        assert worst < 1e-15

    def test_f0_against_mpmath(self):
        # measured: at most 3.7e-16
        for n in (1, 2, 3):
            for d in self._DELTAS:
                a = n - d
                for phi in (0.3, -1.2, 2.5):
                    with mpmath.workdps(50):
                        am, t = mpmath.mpf(a), mpmath.mpf(phi)
                        nn = int(mpmath.floor(am))
                        ref = (-1j * mpmath.expj(-nn * (t - mpmath.pi)) * mpmath.sinpi(am)
                               * mpmath.expj(-t / 2) / mpmath.cos(t / 2)
                               / (mpmath.sqrt(2 * mpmath.pi) * mpmath.expjpi(0.25)))
                        got = f0_amp(phi, a)
                        assert float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)) < 1e-15

    def test_g2m_against_mpmath(self):
        # a sine of the rounded pi gamma reads 4.2e-11 at g2m(0, 0.999998), now
        # 2.5e-16; measured over all these points: at most 7.5e-16
        for n in (1, 2, 3):
            for d in self._DELTAS:
                a = n - d
                for m in (-n - 3, 0, 2):
                    with mpmath.workdps(50):
                        w = m + mpmath.mpf(a)
                        am = mpmath.mpf(a)
                        bracket = (-2 * am * am + 6 * am * w
                                   + am * am * w * ((1 - am / 2) / (1 - w) - (1 + am / 2) / (1 + w)))
                        ref = (-mpmath.expjpi(-abs(w) / 2) / 4
                               * mpmath.gamma(w) * mpmath.gamma(-w) * bracket)
                        got = g2m(m, a, PhysicalParams())
                        assert float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)) < 1e-15


class TestWidth:
    def test_equals_limit_difference(self):
        for n in (1, 2):
            for phi in (0.6, math.pi / 4):
                up, lo = dsigma_integer_limits(n, phi, PB)
                assert width(n, phi, PB) == abs(up - lo)

    def test_closed_form(self):
        for n in (1, 2, 3):
            for phi in (0.6, math.pi / 4, 2.0):
                ref = (
                    PB.beta
                    * math.pi
                    * PB.hbar**2
                    * PB.k
                    * n**3
                    * abs(2 * math.cos(phi / 2) ** 2 - 1)
                )
                assert width(n, phi, PB) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_cubic_growth(self):
        phi = math.pi / 4
        assert width(2, phi, PB) / width(1, phi, PB) == pytest.approx(8.0, rel=1e-12)

    def test_vanishes_at_right_angle(self):
        # 2 cos^2(phi/2) - 1 = cos(phi) = 0
        assert width(1, math.pi / 2, PB) == pytest.approx(0.0, abs=1e-15)

    def test_beta_zero(self):
        assert width(1, math.pi / 4, P0) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -1e300])
def test_non_finite_phi_rejected(bad):
    calls = [
        lambda: f0_amp(bad, 0.7),
        lambda: g_fn(0.7, bad),
        lambda: f1_amp(bad, 0.7, PB),
        lambda: dsigma(bad, 0.7, PB),
        lambda: dsigma(bad, 0.7, P0),
        lambda: scatter_sample(bad, 0.7, PB),
        lambda: dsigma_integer_limits(1, bad, PB),
        lambda: width(1, bad, PB),
        lambda: f1_series(bad, 0.7, PB),
        lambda: regularized_alternating_gamma_sum(bad, 0.7),
    ]
    for call in calls:
        with pytest.raises(DomainValidationError, match="finite"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_flux_rejected(bad):
    # the pole guard runs first on these routes; it must not meet round(nan)
    calls = [
        lambda: g_fn(bad, 0.3),
        lambda: g2m(0, bad, PB),
        lambda: f1_amp(0.5, bad, PB),
        lambda: f1_series(0.5, bad, PB),
        lambda: regularized_alternating_gamma_sum(0.5, bad),
    ]
    for call in calls:
        with pytest.raises(DomainValidationError, match="finite"):
            call()


def test_mirror_is_bitwise_at_beta_above_zero():
    # the paper's invariance (phi, alpha') -> (-phi, -alpha') holds at O(beta);
    # g_fn builds a negative flux at its mirror point, and the phases negate
    # exactly, so the three values agree to the bit (at the mirror-pair
    # rounding of one build each, dsigma differed on 223 of these points)
    params = PhysicalParams(beta=0.008)
    rng = random.Random(3)
    points = []
    while len(points) < 1995:
        a, phi = rng.uniform(-3.9, 3.9), rng.uniform(-3.1, 3.1)
        if abs(a - round(a)) >= 2e-4:
            points.append((a, phi))
    for a, phi in points:
        assert dsigma(phi, a, params) == dsigma(-phi, -a, params), (a, phi)
        assert f1_amp(phi, a, params) == f1_amp(-phi, -a, params), (a, phi)
        assert f0_amp(phi, a) == f0_amp(-phi, -a), (a, phi)


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


class TestArrayCalls:
    """``g_fn``, ``f0_amp``, ``f1_amp``, ``dsigma`` and ``scatter_sample`` over
    a 1-D array of angles at one alpha'."""

    # both 2F1 branches (|x| <= 0.7 below |phi| of about 1.55), the rule's
    # pole subtraction next to +-pi, and signed zeros; more than two chunks
    _PHIS = np.array([0.0, -0.0, 1.5, -1.6, math.pi - 2e-6, -(math.pi - 2e-6)]
                     + [random.Random(4).uniform(-3.14, 3.14) for _ in range(515)])
    _CHUNK = specfun._ROW_CHUNK
    # generic flux, the cancellation rows, half-integer flux, next to an
    # integer (kernel) and inside the endpoint band (the integer-flux limits)
    _ALPHAS = [0.3, 2.5, -1.8, 1.7, 3.0 - 3e-6, -2.0 + 5e-5]

    @staticmethod
    def _evaluations(a):
        return {
            "g_fn": lambda phis: g_fn(a, phis).g,
            "f0_amp": lambda phis: f0_amp(phis, a),
            "f1_amp": lambda phis: f1_amp(phis, a, PB),
            "dsigma": lambda phis: dsigma(phis, a, PB),
            "dsigma_modulus": lambda phis: dsigma(phis, a, PB, form="modulus"),
            "dsigma_beta0": lambda phis: dsigma(phis, a, P0),
            "scatter_sample": lambda phis: [getattr(scatter_sample(phis, a, PB), field)
                                            for field in ("phi", "f0", "f1", "dsigma")],
        }

    @pytest.mark.parametrize("a", _ALPHAS)
    def test_each_element_is_the_same_in_any_split(self, a):
        # splits of sizes 1, 2 and 7 over the first 70 angles, and of a chunk
        # of rows either side of one over all of them
        for name, f in self._evaluations(a).items():
            for size in (1, 2, 7, self._CHUNK - 1, self._CHUNK + 1):
                phis = self._PHIS[:70] if size < 10 else self._PHIS
                parts = [f(phis[lo:lo + size]) for lo in range(0, len(phis), size)]
                if name == "scatter_sample":
                    parts = [np.concatenate(column) for column in zip(*parts)]
                else:
                    parts = np.concatenate(parts)
                assert _bits(parts) == _bits(f(phis)), (name, size)

    @pytest.mark.parametrize("a", _ALPHAS)
    def test_elements_match_float_calls(self, a):
        # the same formulas in numpy, and einsum row sums for np.dot: at most
        # 9.1e-16 of max|value| (f1 at alpha' = 2.5)
        evaluations = self._evaluations(a)
        for name in ("g_fn", "f0_amp", "f1_amp", "dsigma", "dsigma_modulus", "dsigma_beta0"):
            whole = evaluations[name](self._PHIS)
            floats = np.array([evaluations[name](phi) for phi in self._PHIS.tolist()])
            assert np.max(np.abs(whole - floats)) <= 1e-13 * np.max(np.abs(floats)), name

    def test_mirror_is_bitwise(self):
        # the paper's invariance (phi, alpha') -> (-phi, -alpha') at beta > 0,
        # element by element, as test_mirror_is_bitwise_at_beta_above_zero
        # checks it for float calls
        params = PhysicalParams(beta=0.008)
        rng = random.Random(6)
        for _ in range(40):
            a = rng.uniform(-3.9, 3.9)
            while abs(a - round(a)) < 2e-4:
                a = rng.uniform(-3.9, 3.9)
            phis = np.array([rng.uniform(-3.1, 3.1) for _ in range(50)])
            assert np.array_equal(dsigma(phis, a, params), dsigma(-phis, -a, params)), a
            assert np.array_equal(f1_amp(phis, a, params), f1_amp(-phis, -a, params)), a
            assert np.array_equal(f0_amp(phis, a), f0_amp(-phis, -a)), a

    def test_failing_angles_are_named(self):
        phis = np.array([0.3, math.pi, -0.2, -math.pi + 5e-7, 7.0])
        with pytest.raises(ForwardSingularityError) as info:
            dsigma(phis, 0.3, PB)
        assert info.value.rows.tolist() == [1, 3]
        with pytest.raises(DomainValidationError) as info:
            g_fn(0.3, np.array([0.1, math.nan, 2e6, -0.1]))
        assert info.value.rows.tolist() == [1, 2]
        for shape in ((), (2, 2)):
            with pytest.raises(DomainValidationError, match="1-D"):
                f1_amp(np.zeros(shape), 0.3, PB)
        assert g_fn(0.3, np.array([])).g.shape == (0,)
        # the cross section overflows next to pi at hbar = 1e150
        with pytest.raises(AccuracyError) as info:
            dsigma(np.array([3.0, math.pi - 2e-6, 1.0]), 1.3, PhysicalParams(beta=0.01, hbar=1e150))
        assert info.value.rows.tolist() == [1]


class TestSymmetryProbe:
    def test_exact_at_beta_zero(self):
        assert symmetry_probe(0.5, math.pi / 4, P0) == (0.0, 0.0)

    def test_broken_at_nonzero_beta(self):
        back, plus = symmetry_probe(2.5, math.pi / 4, PhysicalParams(beta=0.008))
        assert back > 1e-4
        assert plus > 1e-4

    def test_theta_domain(self):
        with pytest.raises(DomainValidationError):
            symmetry_probe(0.5, 0.0, P0)
        with pytest.raises(DomainValidationError):
            symmetry_probe(0.5, math.pi, P0)


class TestScatterSample:
    def test_assembly_identity(self):
        s = scatter_sample(math.pi / 4, 0.7, PB)
        assert s.dsigma == pytest.approx(abs(s.f0 + PB.beta * s.f1) ** 2, abs=1e-15)
        assert s.beta == PB.beta
        assert s.alpha_prime == 0.7

    def test_nonnegative(self):
        for a in (0.2, 0.9, 1.5):
            assert scatter_sample(0.9, a, PB).dsigma >= 0.0

    def test_beta_zero_reduces_to_f0(self):
        # f1 is the deformation coefficient (beta-independent); at beta = 0
        # the cross section is exactly the zeroth-order modulus
        s = scatter_sample(0.9, 0.7, P0)
        assert s.f1 != 0.0
        assert s.dsigma == pytest.approx(abs(s.f0) ** 2, rel=1e-14)
