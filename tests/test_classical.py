"""Deformed charged-particle dynamics: force correction, Hamiltonian flow,
integration accuracy, action consistency and gauge behaviour."""

import math

import numpy as np
import pytest

from abgup import (
    ClassicalState,
    DomainValidationError,
    FieldSpec,
    PhysicalParams,
    ScalarField,
    SingularConfigError,
    ab_flux_field,
    el_residual,
    eom_accel,
    gamma_term,
    gauge_shift,
    hamiltonian,
    hamiltonian_flow,
    integrate,
    lagrangian,
    subsample,
    uniform_field,
)

P0 = PhysicalParams(beta=0.0)
PB = PhysicalParams(beta=0.01)


# =====================================================================
# Field specifications
# =====================================================================

class TestFields:
    def test_uniform_e(self):
        e_vec = np.array([0.3, -0.1, 0.2])
        fld = uniform_field(d=3, e_field=e_vec)
        x = np.array([1.0, 2.0, -0.5])
        assert fld.v_fn(x, 0.0) == pytest.approx(-float(e_vec @ x), rel=1e-15)
        assert np.allclose(fld.e_at(x, 0.0), e_vec, rtol=1e-12)
        assert np.allclose(fld.b3_at(x, 0.0), np.zeros(3), atol=1e-12)

    def test_uniform_b_2d(self):
        fld = uniform_field(d=2, b_field=2.5)
        x = np.array([0.7, -0.4])
        # symmetric gauge: curl A = B exactly
        assert np.allclose(fld.b3_at(x, 0.0), [0.0, 0.0, 2.5], atol=1e-12)
        assert np.allclose(fld.e_at(x, 0.0), np.zeros(2), atol=1e-12)

    def test_uniform_b_3d(self):
        b = np.array([0.3, -0.2, 0.9])
        fld = uniform_field(d=3, b_field=b)
        assert np.allclose(fld.b3_at(np.ones(3), 0.0), b, atol=1e-12)

    def test_fd_derivatives_match_analytic(self):
        # drop the analytic callables and rebuild them by finite differences
        e_vec = np.array([0.2, 0.5])
        analytic = uniform_field(d=2, e_field=e_vec, b_field=1.3)
        from abgup import FieldSpec

        fd_only = FieldSpec(d=2, v_fn=analytic.v_fn, a_fn=analytic.a_fn)
        x = np.array([0.4, -1.1])
        assert np.allclose(fd_only.e_at(x, 0.0), analytic.e_at(x, 0.0), atol=1e-8)
        assert np.allclose(fd_only.b3_at(x, 0.0), analytic.b3_at(x, 0.0), atol=1e-8)

    def test_dimension_validation(self):
        with pytest.raises(DomainValidationError):
            uniform_field(d=4)
        with pytest.raises(DomainValidationError):
            uniform_field(d=2, e_field=[1.0, 2.0, 3.0])


class TestFluxLineField:
    def test_jacobian_matches_fd(self):
        fld = ab_flux_field(0.7, PB)
        x = np.array([0.8, -1.3])
        jac = fld.jac_a(x, 0.0)
        h = 1e-6
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            col = (fld.a_fn(x + dx, 0.0) - fld.a_fn(x - dx, 0.0)) / (2 * h)
            assert np.allclose(jac[:, j], col, atol=1e-7)

    def test_symmetric_traceless_so_no_local_field(self):
        fld = ab_flux_field(0.7, PB)
        x = np.array([1.5, 0.4])
        jac = fld.jac_a(x, 0.0)
        assert jac[0, 1] == pytest.approx(jac[1, 0], rel=1e-13)
        assert jac[0, 0] + jac[1, 1] == pytest.approx(0.0, abs=1e-13)
        assert np.allclose(fld.b3_at(x, 0.0), np.zeros(3), atol=1e-12)
        assert np.allclose(fld.e_at(x, 0.0), np.zeros(2), atol=1e-12)

    def test_core_exclusion(self):
        fld = ab_flux_field(0.5, PB, r_min=1e-3)
        with pytest.raises(SingularConfigError):
            fld.a_fn(np.array([1e-4, 0.0]), 0.0)

    def test_charge_cancels_in_qa(self):
        # q A is charge independent (flux is a property of the line)
        xa = np.array([0.9, 0.2])
        a1 = ab_flux_field(0.7, PhysicalParams(charge=1.0)).a_fn(xa, 0.0)
        a2 = ab_flux_field(0.7, PhysicalParams(charge=-2.0)).a_fn(xa, 0.0)
        assert np.allclose(1.0 * a1, -2.0 * a2, rtol=1e-13)


_UNIFORM = {
    "uniform-b-2d": ([0.0, 0.0], 1.3),
    "uniform-eb-3d": ([0.1, -0.2, 0.05], [0.3, -0.5, 1.1]),
}


def _numpy_fields(kind):
    """(A, J, grad V) callables restated in numpy from each field's formula."""
    if kind == "ab":
        c = 0.7 / PB.charge
        return (
            lambda x: c * np.array([x[1], -x[0]]) / (x @ x),
            lambda x: c / (x @ x) ** 2 * np.array(
                [
                    [-2.0 * x[0] * x[1], x[0] ** 2 - x[1] ** 2],
                    [x[0] ** 2 - x[1] ** 2, 2.0 * x[0] * x[1]],
                ]
            ),
            lambda x: np.zeros(2),
        )
    e, b = _UNIFORM[kind]
    if np.ndim(b) == 0:
        a_mat = 0.5 * np.array([[0.0, -b], [b, 0.0]])
    else:
        a_mat = 0.5 * np.array([[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]])
    return (lambda x: a_mat @ x, lambda x: a_mat, lambda x: -np.asarray(e, dtype=float))


class TestPointEvaluation:
    """The closed-form point evaluation the built-in fields carry for
    ``integrate``: A, J^T and grad V in the 3-vector embedding."""

    @staticmethod
    def _field(kind):
        if kind == "ab":
            return ab_flux_field(0.7, PB)
        e, b = _UNIFORM[kind]
        return uniform_field(d=len(e), e_field=e, b_field=b)

    @pytest.mark.parametrize("kind", ["uniform-b-2d", "uniform-eb-3d", "ab"])
    def test_matches_array_callables(self, kind):
        fld = self._field(kind)
        d = fld.d
        a_ref, jac_ref, grad_ref = _numpy_fields(kind)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, d)
            t = float(rng.uniform(0.0, 1.0))
            vals = fld._point(*x.tolist(), *[0.0] * (3 - d), t)
            a = np.array(vals[:3])
            jac_t = np.array(vals[3:12]).reshape(3, 3)
            grad = np.array(vals[12:])
            # the array callables are views of the same floats
            assert np.array_equal(a[:d], fld.a_fn(x, t))
            assert np.array_equal(jac_t[:d, :d], fld.jac_a(x, t).T)
            assert np.array_equal(grad[:d], fld.grad_v(x, t))
            assert not np.any(a[d:]) and not np.any(jac_t[d:]) and not np.any(jac_t[:, d:])
            assert not np.any(grad[d:])
            # and the formula restated in numpy: the uniform field bitwise
            # in 2-D, and A within one ulp of its largest term in 3-D, where
            # numpy's matmul may sum in another order (or fused); the flux
            # line, associated differently here, to rounding
            assert np.array_equal(grad[:d], grad_ref(x))
            if kind == "ab":
                assert np.allclose(a[:d], a_ref(x), rtol=1e-15, atol=0.0)
                assert np.allclose(jac_t[:d, :d], jac_ref(x).T, rtol=1e-15, atol=0.0)
                continue
            assert np.array_equal(jac_t[:d, :d], jac_ref(x).T)
            if d == 2:
                assert np.array_equal(a[:d], a_ref(x))
            else:
                assert np.all(np.abs(a - a_ref(x)) <= np.spacing(np.abs(jac_ref(x)) @ np.abs(x)))

    def test_flux_line_core_raises_as_the_arrays_do(self):
        fld = ab_flux_field(0.5, PB, r_min=1e-3)
        with pytest.raises(SingularConfigError) as point_err:
            fld._point(1e-4, 0.0, 0.0, 0.0)
        for fn in (fld.a_fn, fld.jac_a):
            with pytest.raises(SingularConfigError) as array_err:
                fn(np.array([1e-4, 0.0]), 0.0)
            assert str(array_err.value) == str(point_err.value)


# =====================================================================
# Force correction
# =====================================================================

class TestGammaTerm:
    def test_uniform_e_closed_form(self):
        e_vec = np.array([0.2, -0.1, 0.4])
        v = np.array([0.5, 0.3, -0.2])
        for mass in (1.0, 2.0):
            p = PhysicalParams(beta=0.01, mass=mass)
            fld = uniform_field(d=3, e_field=e_vec)
            got = gamma_term(v, np.zeros(3), 0.0, fld, p)
            ref = 4 * mass**2 * float(v @ v) * e_vec + 8 * mass**2 * float(v @ e_vec) * v
            assert np.allclose(got, ref, atol=1e-12)

    def test_zero_fields_vanish(self):
        fld = uniform_field(d=3)
        g = gamma_term(np.array([0.4, -0.2, 0.7]), np.ones(3), 0.0, fld, PB)
        assert np.allclose(g, 0.0, atol=0.0)

    def test_even_under_velocity_and_potential_flip(self):
        # flipping v and A together leaves the correction unchanged
        v = np.array([0.3, -0.6])
        x = np.array([1.4, 0.8])
        g_plus = gamma_term(v, x, 0.0, ab_flux_field(0.7, PB), PB)
        g_minus = gamma_term(-v, x, 0.0, ab_flux_field(-0.7, PB), PB)
        assert np.array_equal(g_plus, g_minus)

    def test_pure_b_2d_nonzero(self):
        fld = uniform_field(d=2, b_field=1.0)
        g = gamma_term(np.array([0.5, 0.2]), np.array([1.0, -0.5]), 0.0, fld, PB)
        assert np.linalg.norm(g) > 0.0


class TestEomAccel:
    def test_beta_zero_is_lorentz(self):
        e_vec = np.array([0.1, 0.3])
        fld = uniform_field(d=2, e_field=e_vec, b_field=1.2)
        x = np.array([0.4, -0.7])
        v = np.array([0.6, 0.1])
        for q, m in ((1.0, 1.0), (-2.0, 3.0)):
            p = PhysicalParams(beta=0.0, charge=q, mass=m)
            acc = eom_accel(x, v, 0.0, fld, p)
            vxb = np.array([v[1] * 1.2, -v[0] * 1.2])  # v x (B zhat) in-plane
            ref = (q / m) * (e_vec + vxb)
            assert np.allclose(acc, ref, rtol=1e-12, atol=1e-14)

    def test_correction_scales_linearly_in_beta(self):
        fld = uniform_field(d=2, e_field=[0.2, -0.3])
        x = np.array([0.3, 0.9])
        v = np.array([0.4, -0.1])
        a0 = eom_accel(x, v, 0.0, fld, P0)
        a1 = eom_accel(x, v, 0.0, fld, PhysicalParams(beta=0.01)) - a0
        a2 = eom_accel(x, v, 0.0, fld, PhysicalParams(beta=0.02)) - a0
        assert np.allclose(a2, 2.0 * a1, rtol=1e-12)


# =====================================================================
# Hamiltonian flow and Legendre relation
# =====================================================================

class TestFlow:
    def test_flow_is_gradient_of_hamiltonian(self):
        fld = ab_flux_field(0.7, PB)
        st = ClassicalState(np.array([1.2, -0.6]), np.array([0.8, 0.4]))
        xd, pd = hamiltonian_flow(st, fld, PB)
        h = 1e-6
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = h
            fd = (
                hamiltonian(ClassicalState(st.x, st.p + dp), fld, PB)
                - hamiltonian(ClassicalState(st.x, st.p - dp), fld, PB)
            ) / (2 * h)
            assert xd[j] == pytest.approx(fd, abs=1e-8)
            dx = np.zeros(2)
            dx[j] = h
            fd = (
                hamiltonian(ClassicalState(st.x + dx, st.p), fld, PB)
                - hamiltonian(ClassicalState(st.x - dx, st.p), fld, PB)
            ) / (2 * h)
            assert pd[j] == pytest.approx(-fd, abs=1e-8)

    def test_legendre_exact_at_beta_zero(self):
        fld = uniform_field(d=2, e_field=[0.2, 0.1], b_field=0.7)
        st = ClassicalState(np.array([0.5, -0.2]), np.array([0.9, 0.3]))
        xd, _ = hamiltonian_flow(st, fld, P0)
        lhs = lagrangian(st.x, xd, st.t, fld, P0)
        rhs = float(st.p @ xd) - hamiltonian(st, fld, P0)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_legendre_mismatch_is_beta_squared(self):
        fld = uniform_field(d=2, e_field=[0.2, 0.1], b_field=0.7)
        st = ClassicalState(np.array([0.5, -0.2]), np.array([0.9, 0.3]))
        gaps = []
        for beta in (0.01, 0.005):
            p = PhysicalParams(beta=beta)
            xd, _ = hamiltonian_flow(st, fld, p)
            lhs = lagrangian(st.x, xd, st.t, fld, p)
            rhs = float(st.p @ xd) - hamiltonian(st, fld, p)
            gaps.append(abs(lhs - rhs))
        assert gaps[0] < 100 * 0.01**2
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


# =====================================================================
# Integration
# =====================================================================

class TestIntegrate:
    def test_free_particle_straight_line(self):
        fld = uniform_field(d=2)
        st = ClassicalState(np.array([1.0, -2.0]), np.array([0.3, 0.4]))
        traj = integrate(st, fld, P0, 0.01, 500)
        t_end = traj.t[-1]
        assert np.allclose(traj.x[-1], st.x + st.p * t_end, rtol=1e-12)
        assert np.allclose(traj.v, np.tile(st.p, (len(traj), 1)), rtol=1e-12)

    def test_cyclotron_radius_quick(self):
        fld = uniform_field(d=2, b_field=1.0)
        st = ClassicalState(np.zeros(2), np.array([1.0, 0.0]))
        steps = 6283
        dt = 2 * math.pi / steps  # one exact period
        traj = integrate(st, fld, P0, dt, steps)
        # circle of radius M|v|/(qB) = 1 centred one radius below the start
        radii = np.hypot(traj.x[:, 0], traj.x[:, 1] + 1.0)
        assert float(np.max(np.abs(radii - 1.0))) < 1e-9
        assert np.allclose(traj.x[-1], st.x, atol=1e-8)

    def test_trajectory_container(self):
        fld = uniform_field(d=2)
        traj = integrate(ClassicalState(np.zeros(2), np.ones(2)), fld, P0, 0.1, 10)
        assert len(traj) == 11
        assert traj.complete
        assert traj.x.shape == (11, 2)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0, rel=1e-12)

    def test_truncation_on_singular_field(self):
        # aim straight at the flux core: integration stops early, flag drops
        fld = ab_flux_field(0.5, P0, r_min=0.5)
        st = ClassicalState(np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
        traj = integrate(st, fld, P0, 0.01, 1000)
        assert not traj.complete
        assert len(traj) < 1001
        assert np.hypot(*traj.x[-1]) > 0.45

    def test_energy_conserved(self):
        fld = ab_flux_field(0.5, PB)
        st = ClassicalState(np.array([2.0, 0.0]), np.array([-0.3, 0.8]))
        traj = integrate(st, fld, PB, 1e-3, 2000)
        drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
        assert drift < 1e-10

    def test_energy_drift_order(self):
        # at coarse dt the drift drops by >= 10x per halving (4th order or better)
        fld = uniform_field(d=2, b_field=1.0)
        st = ClassicalState(np.zeros(2), np.array([1.0, -0.5]))
        drifts = {}
        for dt in (0.05, 0.025):
            traj = integrate(st, fld, P0, dt, int(round(25.0 / dt)))
            drifts[dt] = float(np.max(np.abs(traj.energy - traj.energy[0])))
        assert drifts[0.05] / drifts[0.025] > 10.0

    def test_subsample(self):
        fld = uniform_field(d=2)
        traj = integrate(ClassicalState(np.zeros(2), np.ones(2)), fld, P0, 0.1, 100)
        sub = subsample(traj, 10)
        assert sub.dt == pytest.approx(1.0, rel=1e-12)
        assert len(sub) == 11
        assert np.allclose(sub.x, traj.x[::10])

    def test_dimension_mismatch(self):
        fld = uniform_field(d=3)
        with pytest.raises(DomainValidationError):
            integrate(ClassicalState(np.zeros(2), np.ones(2)), fld, P0, 0.1, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        fld = uniform_field(d=2, b_field=1.0)
        st = ClassicalState(np.zeros(2), np.ones(2))
        with pytest.raises(DomainValidationError):
            integrate(st, fld, P0, bad, 10)
        with pytest.raises(DomainValidationError):
            ClassicalState(np.array([bad, 0.0]), np.ones(2))
        with pytest.raises(DomainValidationError):
            ClassicalState(np.zeros(2), np.array([0.0, bad]))
        with pytest.raises(DomainValidationError):
            ClassicalState(np.zeros(2), np.ones(2), bad)
        with pytest.raises(DomainValidationError):
            FieldSpec(d=2, v_fn=fld.v_fn, a_fn=fld.a_fn, h_fd=bad)
        with pytest.raises(DomainValidationError):
            uniform_field(d=2, e_field=[0.1, bad])
        with pytest.raises(DomainValidationError):
            uniform_field(d=2, b_field=bad)
        with pytest.raises(DomainValidationError):
            uniform_field(d=3, b_field=[0.0, bad, 1.0])
        with pytest.raises(DomainValidationError):
            ab_flux_field(bad, PB)
        with pytest.raises(DomainValidationError):
            ab_flux_field(0.5, PB, r_min=bad)

    def test_flux_line_needs_charge(self):
        neutral = PhysicalParams(beta=0.01, charge=0.0)
        with pytest.raises(DomainValidationError, match="charge"):
            ab_flux_field(0.5, neutral)
        # a uniform field acts on a neutral particle as no field at all
        st = ClassicalState(np.zeros(2), np.array([1.0, 0.5]))
        traj = integrate(st, uniform_field(d=2, b_field=1.0), neutral, 0.01, 10)
        free = integrate(st, uniform_field(d=2), neutral, 0.01, 10)
        assert traj.complete and np.array_equal(traj.x, free.x)


# =====================================================================
# Float RK4 against a numpy restatement
# =====================================================================

def _numpy_flow(x, p, t, fields, params):
    """(xdot, pdot) of the truncated Hamiltonian in numpy vector arithmetic."""
    q, m, beta = params.charge, params.mass, params.beta
    a = fields.a_fn(x, t)
    jac = fields.jac_a(x, t)
    pma = p - q * a
    xdot = pma / m
    pdot = (q / m) * (jac.T @ pma) - q * fields.grad_v(x, t)
    if beta != 0.0:
        p2 = float(p @ p)
        xdot = xdot + (beta / m) * (4.0 * p2 * p - 2.0 * q * float(a @ p) * p - q * p2 * a)
        pdot = pdot + (beta * q / m) * p2 * (jac.T @ p)
    return xdot, pdot


def _rebuilt(fields):
    """The same field as a plain FieldSpec of its array callables."""
    return FieldSpec(
        d=fields.d, v_fn=fields.v_fn, a_fn=fields.a_fn, grad_v=fields.grad_v,
        jac_a=fields.jac_a, da_dt=fields.da_dt, h_fd=fields.h_fd,
    )


def _numpy_rk4(state, fields, params, dt, steps):
    """Classical RK4 on ``_numpy_flow``: (x, p, v) per sample, stopping
    where a field evaluation fails."""
    x, p, t0 = state.x, state.p, state.t
    xs, ps, vs = [x], [p], [_numpy_flow(x, p, t0, fields, params)[0]]
    for n in range(1, steps + 1):
        t = t0 + (n - 1) * dt
        try:
            k1x, k1p = _numpy_flow(x, p, t, fields, params)
            k2x, k2p = _numpy_flow(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p, t + 0.5 * dt, fields, params)
            k3x, k3p = _numpy_flow(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p, t + 0.5 * dt, fields, params)
            k4x, k4p = _numpy_flow(x + dt * k3x, p + dt * k3p, t + dt, fields, params)
            x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            p = p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            v = _numpy_flow(x, p, t0 + n * dt, fields, params)[0]
        except SingularConfigError:
            break
        xs.append(x)
        ps.append(p)
        vs.append(v)
    return np.array(xs), np.array(ps), np.array(vs)


_RK4_CASES = {
    "ab-beta": (
        ab_flux_field(0.5, PB), PB,
        ClassicalState(np.array([2.0, 0.0]), np.array([-0.3, 0.8])),
    ),
    "uniform-b-bare": (
        uniform_field(d=2, b_field=1.3), P0,
        ClassicalState(np.array([0.2, -0.4]), np.array([0.9, 0.3])),
    ),
    "uniform-eb-3d-beta": (
        uniform_field(d=3, e_field=[0.1, -0.2, 0.05], b_field=[0.3, -0.5, 1.1]), PB,
        ClassicalState(np.array([0.1, 0.2, -0.3]), np.array([0.4, -0.2, 0.3]), 0.25),
    ),
}


class TestFloatRk4:
    @pytest.mark.parametrize("case", sorted(_RK4_CASES))
    def test_matches_numpy_stages(self, case):
        # 500 steps; the two differ only in how 2- and 3-term dot products
        # round, so the gap stays at the level of one rounding of the scale
        fields, params, st = _RK4_CASES[case]
        traj = integrate(st, fields, params, 1e-3, 500)
        xs, ps, vs = _numpy_rk4(st, fields, params, 1e-3, 500)
        assert traj.complete and len(traj) == 501
        for got, ref in ((traj.x, xs), (traj.p, ps), (traj.v, vs)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", sorted(_RK4_CASES))
    def test_energy_is_the_hamiltonian(self, case):
        fields, params, st = _RK4_CASES[case]
        traj = integrate(st, fields, params, 1e-3, 200)
        oracle = np.array(
            [
                hamiltonian(ClassicalState(x, p, t), fields, params)
                for x, p, t in zip(traj.x, traj.p, traj.t)
            ]
        )
        assert traj.energy.shape == oracle.shape
        ulp = np.spacing(np.max(np.abs(oracle)))
        assert np.max(np.abs(traj.energy - oracle)) <= 4 * ulp

    @pytest.mark.parametrize("case", sorted(_RK4_CASES))
    def test_hamiltonian_flow_returns_arrays(self, case):
        fields, params, st = _RK4_CASES[case]
        xd, pd = hamiltonian_flow(st, fields, params)
        ref_xd, ref_pd = _numpy_flow(st.x, st.p, st.t, fields, params)
        for got, ref in ((xd, ref_xd), (pd, ref_pd)):
            assert isinstance(got, np.ndarray)
            assert got.shape == (fields.d,) and got.dtype == np.float64
            assert np.allclose(got, ref, rtol=1e-15, atol=1e-15 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("case", sorted(_RK4_CASES))
    def test_derived_evaluation_gives_same_trajectory(self, case):
        # the closed-form point evaluation of a built-in field and the one
        # read from its array callables step the same floats
        fields, params, st = _RK4_CASES[case]
        rebuilt = _rebuilt(fields)
        assert fields._point is not None and rebuilt._point is None
        closed = integrate(st, fields, params, 1e-3, 500)
        derived = integrate(st, rebuilt, params, 1e-3, 500)
        assert closed.complete and derived.complete
        for col in ("t", "x", "p", "v", "energy"):
            assert np.array_equal(getattr(closed, col), getattr(derived, col))

    def test_truncation_matches_numpy_stages(self):
        # the same run as test_truncation_on_singular_field: both routes stop
        # at the same step, and the truncated record is consistent
        fld = ab_flux_field(0.5, P0, r_min=0.5)
        st = ClassicalState(np.array([2.0, 0.0]), np.array([-1.0, 0.0]))
        traj = integrate(st, fld, P0, 0.01, 1000)
        xs, _, _ = _numpy_rk4(st, fld, P0, 0.01, 1000)
        assert not traj.complete
        assert len(traj) == len(xs) < 1001
        for col in (traj.x, traj.v, traj.p, traj.energy):
            assert col.shape[0] == len(traj)
        assert np.max(np.abs(traj.x - xs)) <= 1e-15 * np.max(np.abs(xs))


# =====================================================================
# Action consistency
# =====================================================================

class TestElResidual:
    def test_small_on_undeformed_trajectory(self):
        fld = uniform_field(d=2, b_field=1.0)
        st = ClassicalState(np.zeros(2), np.array([1.0, 0.0]))
        traj = integrate(st, fld, P0, 1e-3, 2000)
        assert el_residual(traj, fld, P0) < 1e-6

    def test_gentle_deformed_trajectory(self):
        fld = ab_flux_field(0.5, PB)
        st = ClassicalState(np.array([2.0, 0.0]), np.array([-0.15, 0.35]))
        traj = integrate(st, fld, PB, 1e-3, 1000)
        assert el_residual(traj, fld, PB) < 1e-4

    def test_needs_enough_samples(self):
        fld = uniform_field(d=2)
        traj = integrate(ClassicalState(np.zeros(2), np.ones(2)), fld, P0, 0.1, 3)
        with pytest.raises(DomainValidationError):
            el_residual(traj, fld, P0)


# =====================================================================
# Gauge behaviour
# =====================================================================

def _linear_scalar(c):
    c = np.asarray(c, dtype=float)
    return ScalarField(value=lambda x, t: float(c @ x), grad=lambda x, t: c.copy())


class TestGaugeShift:
    def test_straight_line_exact(self):
        lam = _linear_scalar([1.0, 0.0])
        free = uniform_field(d=2)
        _, checker = gauge_shift(free, lam, lam, PB)
        traj = integrate(ClassicalState(np.zeros(2), np.array([0.4, 0.3])), free, PB, 1e-3, 300)
        assert checker(traj) < 1e-10

    def test_curved_trajectory_fd_floor(self):
        # on a curved path the residual is the central-difference O(dt^2) floor
        lam = ScalarField(
            value=lambda x, t: x[0] * x[1],
            grad=lambda x, t: np.array([x[1], x[0]]),
        )
        fld = uniform_field(d=2, b_field=1.0)
        st = ClassicalState(np.array([0.5, 0.0]), np.array([0.6, 0.2]))
        _, checker = gauge_shift(fld, lam, lam, PB)
        res = {}
        for dt in (2e-3, 1e-3):
            traj = integrate(st, fld, PB, dt, int(round(1.0 / dt)))
            res[dt] = checker(traj)
        assert res[2e-3] / res[1e-3] == pytest.approx(4.0, rel=0.15)

    def test_beta_zero_eom_invariance(self):
        # an ordinary gauge shift must not change the acceleration
        lam = ScalarField(
            value=lambda x, t: math.sin(x[0]) + x[1] ** 2,
            grad=lambda x, t: np.array([math.cos(x[0]), 2 * x[1]]),
        )
        base = uniform_field(d=2, e_field=[0.1, -0.2], b_field=0.8)
        shifted, _ = gauge_shift(base, lam, lam, P0)
        x = np.array([0.7, -0.3])
        v = np.array([0.2, 0.5])
        spec = shifted.field_spec(v_ref=v)
        a_base = eom_accel(x, v, 0.0, base, P0)
        a_shift = eom_accel(x, v, 0.0, spec, P0)
        assert np.allclose(a_base, a_shift, atol=1e-6)

    def test_requires_gradients(self):
        lam_no_grad = ScalarField(value=lambda x, t: 0.0)
        with pytest.raises(DomainValidationError):
            gauge_shift(uniform_field(d=2), lam_no_grad, lam_no_grad, PB)
