"""Scattering amplitudes: series oracle vs closed form, cross-section
assembly, integer-flux behaviour and the mirror-symmetry probes."""

import cmath
import math
import random

import mpmath
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
    symmetry_probe,
    width,
)

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
            fs = f1_series(phi, a, PB, m_max=800)
            fa = f1_amp(phi, a, PB)
            assert abs(fa - fs) / abs(fs) < 1e-5

    def test_m_max_validation(self):
        with pytest.raises(DomainValidationError):
            f1_series(0.5, 0.7, PB, m_max=50)
        with pytest.raises(DomainValidationError, match="m_max"):
            regularized_alternating_gamma_sum(math.pi / 3, 0.5, m_max=-5)

    def test_phi_margins(self):
        with pytest.raises(DomainValidationError):
            f1_series(1e-5, 0.7, PB)
        with pytest.raises(ForwardSingularityError):
            f1_series(math.pi - 1e-5, 0.7, PB)

    def test_integer_flux_rejected(self):
        with pytest.raises(PoleError):
            f1_series(0.5, 1.0, PB)

    def test_ladder_failure_names_every_rung(self):
        # 1/(1-r)^3 is no polynomial in 1 - r, so the extrapolation does not settle
        with pytest.raises(AccuracyError, match=r"at phi=0\.5.*r=0\.99: .*r=0\.995: .*r=0\.9975: "):
            scattering._abel_limit(lambda r: complex((1.0 - r) ** -3), "at phi=0.5")

    @pytest.mark.parametrize("a", [1.3, -0.7])
    def test_abel_tails_make_halves_independent_of_cutoff(self, a):
        # at a fixed regulator each half, explicit modes plus analytic tail, is
        # the whole r^|m|-weighted sum, so it must not move with m_max
        for t in (0.8, -2.0):
            base = scattering._series_at_r(t, a, 0.99, 200)
            for m_max in (400, 1000, 3000):
                for got, ref in zip(scattering._series_at_r(t, a, 0.99, m_max), base):
                    assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_regularized_gamma_sum_closed_form(self):
        for a, phi in ((0.5, math.pi / 3), (0.3, 1.9), (1.7, -0.8)):
            n, gamma = flux_split(a).n_part, flux_split(a).gamma_part
            got = regularized_alternating_gamma_sum(phi, a, m_max=800)
            ref = -math.pi * cmath.exp(-1j * (n + 0.5) * phi) / (
                2.0 * math.sin(math.pi * gamma) * math.cos(phi / 2.0)
            )
            assert abs(got - ref) < 1e-5 * abs(ref)


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
        lambda: f1_series(bad, 0.7, PB, m_max=200),
        lambda: regularized_alternating_gamma_sum(bad, 0.7, m_max=200),
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
        lambda: f1_series(0.5, bad, PB, m_max=200),
        lambda: regularized_alternating_gamma_sum(0.5, bad, m_max=200),
    ]
    for call in calls:
        with pytest.raises(DomainValidationError, match="finite"):
            call()


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
