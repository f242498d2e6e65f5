"""Parameter container, flux split, uncertainty bound, momentum map and
discrete commutator residual."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abgup import (
    DomainValidationError,
    PhysicalParams,
    commutator_residual_1d,
    flux_split,
    gup_bound,
    minimal_length,
    momentum_map,
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
