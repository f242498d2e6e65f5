"""Parameter container, flux split, uncertainty bound, momentum map,
discrete commutator residual, and the typed errors of the library's numeric
entry points."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import abgup
from abgup import (
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    bessel_j,
    commutator_residual_1d,
    digamma,
    dsigma,
    dsigma_integer_limits,
    f0_amp,
    f1_amp,
    f1_integral,
    f1_series,
    f2_integral,
    f3_integral,
    flux_split,
    fn_quadrature,
    g1_g2,
    g2m,
    g_fn,
    gamma_fn,
    gup_bound,
    hyp2f1_11,
    log_gamma,
    minimal_length,
    mode_f0,
    mode_f1,
    momentum_map,
    ode_residual,
    pfq_series,
    radial_mode,
    regularized_alternating_gamma_sum,
    scatter_sample,
    symmetry_probe,
    uv_pair,
    width,
    xi_coeffs,
)


# =====================================================================
# PhysicalParams
# =====================================================================

class TestPhysicalParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert (p.hbar, p.beta, p.mass, p.charge, p.k) == (1.0, 0.0, 1.0, 1.0, 1.0)

    def test_frozen(self):
        p = PhysicalParams()
        with pytest.raises(AttributeError):
            p.beta = 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hbar": 0.0},
            {"hbar": -1.0},
            {"beta": -1e-9},
            {"mass": 0.0},
            {"k": -2.0},
            {"k": 5e-324},  # below the 1e-300 floor
        ]
        + [
            {name: bad}
            for name in ("hbar", "beta", "mass", "charge", "k")
            for bad in (math.nan, math.inf, -math.inf)
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainValidationError):
            PhysicalParams(**kwargs)

    def test_negative_charge_allowed(self):
        assert PhysicalParams(charge=-1.0).charge == -1.0


# =====================================================================
# flux_split
# =====================================================================

class TestFluxSplit:
    @pytest.mark.parametrize(
        "alpha, n, gamma",
        [
            (2.5, 2, 0.5),
            (-0.3, -1, 0.7),
            (0.0, 0, 0.0),
            (3.0, 3, 0.0),
            (-2.0, -2, 0.0),
        ],
    )
    def test_examples(self, alpha, n, gamma):
        s = flux_split(alpha)
        assert s.n_part == n
        assert s.gamma_part == pytest.approx(gamma, abs=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_reassembly(self, alpha):
        s = flux_split(alpha)
        assert 0.0 <= s.gamma_part < 1.0
        assert isinstance(s.n_part, int)
        if -0.5 < alpha < 0.0:
            # the one regime where alpha - floor(alpha) must round: no float
            # pair (n, gamma) with gamma in [0, 1) reassembles -0.3 exactly
            assert abs(s.n_part + s.gamma_part - alpha) <= 2.0**-53
        else:
            # Sterbenz-exact subtraction everywhere else
            assert s.n_part + s.gamma_part == alpha

    def test_half_ulp_below_zero_snaps(self):
        s = flux_split(-4.5894557316713075e-184)
        assert (s.n_part, s.gamma_part) == (0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainValidationError):
            flux_split(math.inf)
        with pytest.raises(DomainValidationError):
            flux_split(math.nan)


# =====================================================================
# gup_bound / minimal_length
# =====================================================================

class TestUncertaintyBound:
    def test_floor_location_and_value(self):
        params = PhysicalParams(beta=0.02)
        best = minimal_length(params)
        assert best == pytest.approx(params.hbar * math.sqrt(3 * 0.02), rel=1e-15)
        dp_star = 1.0 / math.sqrt(3 * 0.02)
        assert gup_bound(dp_star, params) == pytest.approx(best, rel=1e-14)

    def test_bound_never_below_floor(self):
        params = PhysicalParams(beta=0.05)
        best = minimal_length(params)
        for dp in np.geomspace(1e-3, 1e3, 200):
            assert gup_bound(dp, params) >= best * (1 - 1e-12)

    def test_beta_zero_monotone_decreasing(self):
        params = PhysicalParams(beta=0.0)
        assert minimal_length(params) == 0.0
        vals = [gup_bound(dp, params) for dp in (0.5, 1.0, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert gup_bound(2.0, params) == pytest.approx(0.25, rel=1e-15)

    def test_hbar_scaling(self):
        a = minimal_length(PhysicalParams(hbar=1.0, beta=0.01))
        b = minimal_length(PhysicalParams(hbar=2.0, beta=0.01))
        assert b == pytest.approx(2 * a, rel=1e-15)

    def test_invalid_delta_p(self):
        with pytest.raises(DomainValidationError):
            gup_bound(0.0, PhysicalParams())
        with pytest.raises(DomainValidationError):
            gup_bound(-1.0, PhysicalParams())


# =====================================================================
# momentum_map
# =====================================================================

class TestMomentumMap:
    def test_scalar_example(self):
        assert momentum_map(1.0, 0.1) == pytest.approx(1.1, abs=1e-15)

    def test_beta_zero_identity(self):
        p = np.array([0.3, -0.7, 0.2])
        assert np.array_equal(momentum_map(p, 0.0), p)

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_odd(self, p, beta):
        assert momentum_map(-p, beta) == -momentum_map(p, beta)

    def test_monotone_in_magnitude(self):
        mags = np.linspace(0.1, 5.0, 40)
        vals = [momentum_map(m, 0.3) for m in mags]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vector_direction_preserved(self):
        p = np.array([3.0, 4.0])
        out = momentum_map(p, 0.01)
        # collinear with p and stretched by 1 + beta |p|^2 = 1.25
        assert np.allclose(out, p * 1.25, rtol=1e-15)

    def test_batch_shape(self):
        batch = np.random.default_rng(0).normal(size=(7, 3))
        out = momentum_map(batch, 0.05)
        assert out.shape == batch.shape
        # each row independently mapped
        row = momentum_map(batch[2], 0.05)
        assert np.allclose(out[2], row, rtol=1e-15)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainValidationError):
            momentum_map(1.0, -0.1)


# =====================================================================
# commutator residual
# =====================================================================

class TestCommutatorResidual:
    def test_small_on_reference_grid(self):
        res = commutator_residual_1d(256, 0.05, PhysicalParams(beta=0.01))
        assert res < 1e-3

    def test_order_h_squared(self):
        params = PhysicalParams(beta=0.01)
        r1 = commutator_residual_1d(256, 0.05, params)
        r2 = commutator_residual_1d(512, 0.025, params)
        ratio = r1 / r2
        assert 2.5 < ratio < 7.0

    def test_beta_zero_still_second_order(self):
        params = PhysicalParams()
        r1 = commutator_residual_1d(256, 0.05, params)
        r2 = commutator_residual_1d(512, 0.025, params)
        assert r1 < 1e-3
        assert 2.5 < r1 / r2 < 7.0

    def test_validation(self):
        params = PhysicalParams()
        with pytest.raises(DomainValidationError):
            commutator_residual_1d(8, 0.05, params)
        with pytest.raises(DomainValidationError):
            commutator_residual_1d(64, -0.1, params)
        with pytest.raises(DomainValidationError):
            commutator_residual_1d(64, 0.05, PhysicalParams(beta=-0.2))

    def test_overflowing_grid_reads_nan(self):
        # x^4 overflows on this grid; a nan residual must not reduce to 0
        with np.errstate(over="ignore", invalid="ignore"):
            res = commutator_residual_1d(16, 1e200, PhysicalParams())
        assert math.isnan(res)


# =====================================================================
# Typed errors at library entry points
# =====================================================================

_PB = PhysicalParams(beta=0.01)
_Z = np.linspace(1.0, 2.0, 11)


# each of these returned nan, truncated 2.5 to 2 (mode_f0 returned its m = 2
# values, ode_residual used w = 2.8), or raised an untyped ValueError or
# OverflowError
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: bessel_j(math.nan, 2.0), DomainValidationError),
        (lambda: bessel_j(-math.inf, 2.0), DomainValidationError),
        (lambda: bessel_j(math.inf, 2.0), DomainValidationError),
        (lambda: bessel_j(1e20, 20.0), DomainValidationError),
        (lambda: f1_integral(5.0, math.nan, 2.0), DomainValidationError),
        (lambda: f2_integral(5.0, math.nan, 2.0), DomainValidationError),
        (lambda: f1_integral(5.0, 0.3, math.inf), DomainValidationError),
        (lambda: width(2.5, 0.5, _PB), DomainValidationError),
        (lambda: width(math.nan, 0.5, _PB), DomainValidationError),
        (lambda: dsigma_integer_limits(2.5, 0.5, _PB), DomainValidationError),
        (lambda: dsigma_integer_limits(math.nan, 0.5, _PB), DomainValidationError),
        (lambda: f0_amp(0.5, 0.3, k=math.nan), DomainValidationError),
        (lambda: xi_coeffs(10**200, 0.3), AccuracyError),
        (lambda: xi_coeffs(10**400, 0.3), DomainValidationError),
        (lambda: g2m(2.5, 0.3, _PB), DomainValidationError),
        (lambda: mode_f0(1.0, 2.5, 0.3), DomainValidationError),
        (lambda: mode_f0(1.0, math.nan, 0.3), DomainValidationError),
        (lambda: mode_f0(1.0, math.inf, 0.3), DomainValidationError),
        (lambda: g1_g2(math.nan, 0.3, _PB), DomainValidationError),
        (lambda: ode_residual(_Z, np.cos(_Z), 2.5, 0.3, 1.0), DomainValidationError),
        (lambda: ode_residual(_Z, np.cos(_Z), math.nan, 0.3, 1.0), DomainValidationError),
        # these returned inf or nan, or raised an untyped ValueError
        (lambda: ode_residual(_Z, np.full(11, np.nan), 2, 0.3, 1.0), DomainValidationError),
        (lambda: ode_residual(_Z, np.cos(_Z), 1e300, 0.0, 1.0), AccuracyError),
        (lambda: f1_integral(1e300, 5.96e-8, 0.0), AccuracyError),
        (lambda: f2_integral(5.0, 1.000000001 + 1e-310, 1e-310), AccuracyError),
        (lambda: f3_integral(5.0, 5.96e-8 + 1e-310, 1e-310), AccuracyError),
        (lambda: f1_integral(0.0, 0.3, 0.3), DomainValidationError),
        (lambda: pfq_series([1.0, -50.0], [0.5], math.nan), DomainValidationError),
        (lambda: pfq_series([1.0, -50.0], [0.5], 1e300), AccuracyError),
        (lambda: fn_quadrature(1, math.nan, 0.3, 1.3), DomainValidationError),
        (lambda: fn_quadrature(1, 1.0, -76.5, -75.5, 0.5), AccuracyError),
    ],
    ids=["bessel_nan", "bessel_minus_inf", "bessel_inf", "bessel_huge_order",
         "f1_nan", "f2_nan", "f1_inf", "width_half", "width_nan", "limits_half",
         "limits_nan", "f0_k_nan", "xi_overflow", "xi_past_double", "g2m_half",
         "mode_f0_half", "mode_f0_nan", "mode_f0_inf", "g1_g2_nan", "ode_residual_half",
         "ode_residual_nan", "ode_residual_nan_samples", "ode_residual_huge_m",
         "f1_near_degenerate_huge_z", "f2_tiny_order", "f3_tiny_order", "f1_equal_at_zero",
         "pfq_nan", "pfq_overflow", "quadrature_nan", "quadrature_overflow"],
)
def test_entry_points_raise_typed(call, error):
    with pytest.raises(error):
        call()


# =====================================================================
# Drawn arguments at every numeric entry point
# =====================================================================

# The numeric entry points of specfun, radial and scattering, each called with
# drawn (params, alpha', m, phi); a radius is z = |phi|, an order m + alpha'.
_ENTRY_POINTS = {
    "gamma_fn": lambda p, a, m, phi: gamma_fn(a),
    "log_gamma": lambda p, a, m, phi: log_gamma(a),
    "digamma": lambda p, a, m, phi: digamma(a),
    "bessel_j": lambda p, a, m, phi: bessel_j(m + a, abs(phi)),
    # x = (1 - phi) + i phi: next to x = 1 for small phi, on the cut at phi = 0
    "hyp2f1_11": lambda p, a, m, phi: hyp2f1_11(a, complex(1.0 - phi, phi)),
    # the 3F4 of the opposite-order F1 series
    "pfq_series": lambda p, a, m, phi: pfq_series([1.0, 1.0, 1.5], [2.0 - a, 2.0 + a, 2.0, 2.0],
                                                  -phi * phi),
    "xi_coeffs": lambda p, a, m, phi: xi_coeffs(m, a),
    "f1_integral": lambda p, a, m, phi: f1_integral(abs(phi), m + a, a),
    "f2_integral": lambda p, a, m, phi: f2_integral(abs(phi), m + a, a),
    "f3_integral": lambda p, a, m, phi: f3_integral(abs(phi), m + a, a),
    "fn_quadrature": lambda p, a, m, phi: fn_quadrature(1, abs(phi), m + a, a, 0.5),
    "g1_g2": lambda p, a, m, phi: g1_g2(m, a, p),
    "mode_f0": lambda p, a, m, phi: mode_f0(abs(phi), m, a),
    "mode_f1": lambda p, a, m, phi: mode_f1(abs(phi), m, a, p),
    "ode_residual": lambda p, a, m, phi: ode_residual(_Z, np.cos(phi * _Z), m, a, p.k),
    "radial_mode": lambda p, a, m, phi: radial_mode(m, a, p),
    "uv_pair": lambda p, a, m, phi: uv_pair(abs(phi), m, a, p),
    "dsigma": lambda p, a, m, phi: dsigma(phi, a, p),
    "dsigma_integer_limits": lambda p, a, m, phi: dsigma_integer_limits(m, phi, p),
    "f0_amp": lambda p, a, m, phi: f0_amp(phi, a, p.k),
    "f1_amp": lambda p, a, m, phi: f1_amp(phi, a, p),
    "f1_series": lambda p, a, m, phi: f1_series(phi, a, p),
    "g2m": lambda p, a, m, phi: g2m(m, a, p),
    "g_fn": lambda p, a, m, phi: g_fn(a, phi),
    "regularized_alternating_gamma_sum": lambda p, a, m, phi: regularized_alternating_gamma_sum(
        phi, a),
    "scatter_sample": lambda p, a, m, phi: scatter_sample(phi, a, p),
    "symmetry_probe": lambda p, a, m, phi: symmetry_probe(a, phi, p),
    "width": lambda p, a, m, phi: width(m, phi, p),
}

_PARAMS = st.builds(
    PhysicalParams,
    hbar=st.floats(1e-3, 1e3), beta=st.floats(0.0, 1e3), mass=st.floats(1e-3, 1e3),
    charge=st.floats(-1e3, 1e3), k=st.floats(1e-3, 1e3),
)
# integral m, and a few that are not: non-integral, non-finite, past 2^53
_M = st.one_of(st.integers(-40, 40), st.sampled_from([2.5, -0.5, math.nan, math.inf, -math.inf]),
               st.floats(-40.0, 40.0), st.just(1e300))
_PHI = st.one_of(st.floats(-10.0, 10.0),
                 st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, math.pi]))


def _all_finite(value) -> bool:
    """Every number in ``value`` (a number, an array, or a tuple or dataclass
    of them) is finite."""
    if dataclasses.is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return all(map(_all_finite, value))
    return bool(np.all(np.isfinite(value)))


def test_entry_point_table_covers_the_exports():
    modules = {"abgup.specfun", "abgup.radial", "abgup.scattering"}
    numeric = {name for name in abgup.__all__
               if getattr(getattr(abgup, name), "__module__", None) in modules
               and callable(getattr(abgup, name)) and not isinstance(getattr(abgup, name), type)}
    assert set(_ENTRY_POINTS) == numeric


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=_PARAMS, alpha=st.floats(-50.0, 50.0), m=_M, phi=_PHI)
@example(params=_PB, alpha=0.3, m=math.nan, phi=1.0)
@example(params=_PB, alpha=0.3, m=math.inf, phi=1.0)
def test_entry_point_returns_finite_or_raises_typed(name, params, alpha, m, phi):
    # numpy may warn on the way to a typed error; warnings are not the property
    with np.errstate(all="ignore"):
        try:
            value = _ENTRY_POINTS[name](params, alpha, m, phi)
        except (DomainValidationError, AccuracyError):
            return
    assert _all_finite(value), value
