"""Deformed classical dynamics of a charged particle in external fields.

The canonical formulation is primary: the state carries (x, p) and evolves
under the first-order truncated Hamiltonian

    H = |p - qA|^2 / 2M + qV + (beta/M) |p|^2 (p - qA).p

whose flow gives the velocity map

    M xdot = p - qA + beta [4|p|^2 p - 2q(A.p) p - q|p|^2 A].

Eliminating p yields the second-order form

    M xdd = q(E + v x B) + beta q Gamma

with the nine-term velocity/field correction assembled by ``gamma_term``.
The Lagrangian route

    L = M|v|^2/2 + q v.A - qV - beta |H11|^2 (v.H11),   H11 = Mv + qA

is kept independent so ``el_residual`` can arbitrate the two: trajectories
integrated from the Hamiltonian flow must satisfy the Euler-Lagrange
equations of L to O(dt^2) + O(beta^2).

Fields are supplied as a FieldSpec; derivatives not given analytically are
synthesized by central differences. Two dimensions are supported by
embedding into 3-vectors: for the cross products, and for the RK4 state,
which carries x and p in three components with zero third components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    SingularConfigError,
    _central_d1,
)

_VecField = Callable[[np.ndarray, float], np.ndarray]
_ScalField = Callable[[np.ndarray, float], float]
# A point evaluation reads a field at (x1, x2, x3, t) as 15 floats: A, then
# J^T row by row (J^T[i][l] = dA_l/dx_i), then grad V, with the zero third
# components of the 3-vector embedding when d = 2.
_PointEval = Callable[[float, float, float, float], tuple]
# V at (x1, x2, x3, t) as one float, in the same embedding
_PointPotential = Callable[[float, float, float, float], float]


def _embed3(u: np.ndarray) -> np.ndarray:
    if u.shape[0] == 3:
        return u
    out = np.zeros(3)
    out[: u.shape[0]] = u
    return out


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.array(
        [
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        ]
    )


def _partials(f: Callable[[np.ndarray], object], u: np.ndarray, h_fd: float) -> np.ndarray:
    """Central differences (f(u + h e_i) - f(u - h e_i)) / 2h along each axis
    i of u, for f returning a scalar or a vector, with i the last axis of the
    result and the step h = h_fd * max(1, |u|_inf). The one per-axis finite
    difference: FieldSpec's synthesized grad V and J, and el_residual's dL/dv
    and dL/dx."""
    h = h_fd * max(1.0, float(np.max(np.abs(u))))
    return np.array([(f(u + e) - f(u - e)) / (2.0 * h) for e in np.eye(len(u)) * h]).T


# =====================================================================
# Field container
# =====================================================================

@dataclass
class FieldSpec:
    """External potentials V(x, t), A(x, t) and their derivatives.

    grad_v and jac_a left as None are synthesized by central differences
    along each axis of x, with the step h_fd * max(1, |x|_inf); da_dt left
    as None, by a central difference in t with the step h_fd. Supplied
    analytic derivatives should match the synthesized ones at O(h_fd^2),
    which the test suite probes. h_fd is also el_residual's step rule.

    Conventions: jac_a returns J with J[l, i] = dA_l/dx_i. The physical
    fields are E = -grad V - dA/dt and B = curl A.

    ``integrate`` and ``hamiltonian_flow`` read the field through one point
    evaluation per stage, which returns A, J^T and grad V as floats in the
    3-vector embedding, and ``integrate`` reads V at each sample for the
    energy. ``uniform_field`` and ``ab_flux_field`` attach closed forms of
    both, of which their v_fn, a_fn, jac_a and grad_v are array views. Any
    other FieldSpec gets a point evaluation that calls a_fn, jac_a and
    grad_v at an array point, and its v_fn is called per sample. A built-in
    field keeps stepping with its closed forms if those callables are
    replaced after construction.
    """

    d: int
    v_fn: _ScalField
    a_fn: _VecField
    grad_v: Optional[_VecField] = None
    jac_a: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    da_dt: Optional[_VecField] = None
    h_fd: float = 1e-5
    _point: Optional[_PointEval] = field(default=None, init=False, repr=False, compare=False)
    _potential: Optional[_PointPotential] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise DomainValidationError(f"dimension must be 2 or 3, got {self.d}")
        if not (self.h_fd > 0.0 and math.isfinite(self.h_fd)):
            raise DomainValidationError(f"h_fd must be positive and finite, got {self.h_fd}")
        if self.grad_v is None:
            self.grad_v = lambda x, t: _partials(lambda y: self.v_fn(y, t), x, self.h_fd)
        if self.jac_a is None:
            self.jac_a = lambda x, t: _partials(lambda y: self.a_fn(y, t), x, self.h_fd)
        if self.da_dt is None:
            self.da_dt = self._fd_da_dt

    def _fd_da_dt(self, x: np.ndarray, t: float) -> np.ndarray:
        h = self.h_fd
        return (self.a_fn(x, t + h) - self.a_fn(x, t - h)) / (2.0 * h)

    def e_at(self, x: np.ndarray, t: float) -> np.ndarray:
        return -self.grad_v(x, t) - self.da_dt(x, t)

    def b3_at(self, x: np.ndarray, t: float) -> np.ndarray:
        """Magnetic field as a 3-vector (curl of A; z-component only if d=2)."""
        jac = self.jac_a(x, t)
        if self.d == 2:
            return np.array([0.0, 0.0, jac[1, 0] - jac[0, 1]])
        return np.array(
            [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
        )


def _point_eval(fields: FieldSpec) -> _PointEval:
    """The point evaluation of ``fields``: the closed form a built-in field
    carries, else one that calls a_fn, jac_a and grad_v once each at an
    array point."""
    if fields._point is not None:
        return fields._point
    d = fields.d

    def point(x1: float, x2: float, x3: float, t: float) -> tuple:
        x = np.array((x1, x2, x3)[:d])
        a = fields.a_fn(x, t).tolist()
        jac_t = fields.jac_a(x, t).T.tolist()
        g = fields.grad_v(x, t).tolist()
        if d == 2:
            (a1, a2), (j11, j12), (j21, j22), (g1, g2) = a, *jac_t, g
            return a1, a2, 0.0, j11, j12, 0.0, j21, j22, 0.0, 0.0, 0.0, 0.0, g1, g2, 0.0
        return (*a, *jac_t[0], *jac_t[1], *jac_t[2], *g)

    return point


def _potential_eval(fields: FieldSpec) -> _PointPotential:
    """V at a point of the 3-vector embedding: the closed form a built-in
    field carries, else one v_fn call at an array point."""
    if fields._potential is not None:
        return fields._potential
    d = fields.d
    return lambda x1, x2, x3, t: fields.v_fn(np.array((x1, x2, x3)[:d]), t)


def _closed_form_field(d: int, potential: _PointPotential, point: _PointEval) -> FieldSpec:
    """A static FieldSpec whose v_fn, a_fn, jac_a and grad_v are array views
    of the closed forms ``potential`` and ``point``, which it also carries
    for ``integrate``."""
    pad = (0.0,) * (3 - d)
    zero_vec = np.zeros(d)

    def coords(x: np.ndarray) -> list:
        return [*np.asarray(x, dtype=float).tolist(), *pad]

    spec = FieldSpec(
        d=d,
        v_fn=lambda x, t: potential(*coords(x), t),
        a_fn=lambda x, t: np.array(point(*coords(x), t)[:d]),
        grad_v=lambda x, t: np.array(point(*coords(x), t)[12 : 12 + d]),
        jac_a=lambda x, t: np.array(point(*coords(x), t)[3:12]).reshape(3, 3).T[:d, :d],
        da_dt=lambda x, t: zero_vec,
    )
    spec._point = point
    spec._potential = potential
    return spec


def uniform_field(d: int = 3, e_field=None, b_field=None) -> FieldSpec:
    """Constant electric and/or magnetic field.

    e_field: length-d vector E (realized as V = -E.x, summed left to right
    over three components in plain float arithmetic, so the energy is the
    same on every host).
    b_field: for d=3 a 3-vector, for d=2 a scalar (B along the normal);
    realized as the symmetric gauge A = (B x x)/2.
    """
    if d not in (2, 3):
        raise DomainValidationError(f"dimension must be 2 or 3, got {d}")
    e_vec = np.zeros(d) if e_field is None else np.asarray(e_field, dtype=float)
    if e_vec.shape != (d,):
        raise DomainValidationError(f"e_field must have length {d}")
    if not np.isfinite(e_vec).all():
        raise DomainValidationError(f"e_field must be finite, got {e_vec.tolist()}")

    if b_field is None:
        b_vec = [0.0, 0.0, 0.0]
    elif d == 2:
        b_vec = [0.0, 0.0, float(b_field)]
    else:
        b = np.asarray(b_field, dtype=float)
        if b.shape != (3,):
            raise DomainValidationError("b_field must be a 3-vector when d=3")
        b_vec = b.tolist()
    if not all(map(math.isfinite, b_vec)):
        raise DomainValidationError(f"b_field must be finite, got {b_field}")

    # A = h x x with h = B/2, so J^T[i][l] = dA_l/dx_i is constant, as is
    # grad V = -E
    h1, h2, h3 = (0.5 * b for b in b_vec)
    e1, e2, e3 = e_vec.tolist() + [0.0] * (3 - d)
    tail = (0.0, h3, -h2, -h3, 0.0, h1, h2, -h1, 0.0, -e1, -e2, -e3)

    def point(x1: float, x2: float, x3: float, t: float) -> tuple:
        return (h2 * x3 - h3 * x2, h3 * x1 - h1 * x3, h1 * x2 - h2 * x1, *tail)

    # numpy's dot product may sum with fused multiply-adds, depending on the
    # BLAS build; this sum is the same everywhere
    def potential(x1: float, x2: float, x3: float, t: float) -> float:
        return -(e1 * x1 + e2 * x2 + e3 * x3)

    return _closed_form_field(d, potential, point)


def ab_flux_field(alpha: float, params: PhysicalParams, r_min: float = 1e-6) -> FieldSpec:
    """Vector potential of an idealized flux line through the origin,

        A(x) = (alpha / q) (x2, -x1) / r^2,   V = 0,

    with analytic Jacobian (symmetric and traceless: the field is both
    divergence- and curl-free away from the origin, so B = 0 everywhere the
    particle moves). Evaluation inside r_min raises, since the 1/r^2
    singularity sits on the flux line. The field takes the coupling alpha,
    so a neutral particle (q = 0) raises DomainValidationError.
    """
    if not math.isfinite(alpha):
        raise DomainValidationError(f"alpha must be finite, got {alpha}")
    if params.charge == 0.0:
        raise DomainValidationError("the flux-line field needs a nonzero charge (A = alpha / q)")
    if not (r_min > 0.0 and math.isfinite(r_min)):
        raise DomainValidationError(f"r_min must be positive and finite, got {r_min}")
    c = float(alpha) / params.charge
    r2_min = r_min * r_min

    def point(x1: float, x2: float, x3: float, t: float) -> tuple:
        r2 = x1 * x1 + x2 * x2
        if r2 < r2_min:
            raise SingularConfigError(
                f"flux-line potential evaluated at r = {math.sqrt(r2):.3e} < r_min = {r_min}"
            )
        r4 = r2 * r2
        off = c * (x1 * x1 - x2 * x2) / r4
        diag = 2.0 * c * x1 * x2 / r4
        return (
            c * x2 / r2, -c * x1 / r2, 0.0,
            -diag, off, 0.0, off, diag, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        )

    return _closed_form_field(2, lambda x1, x2, x3, t: 0.0, point)


# =====================================================================
# State and trajectory
# =====================================================================

@dataclass(frozen=True)
class ClassicalState:
    """Canonical phase-space point (x, p) at time t, all of it finite."""

    x: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.p.shape:
            raise DomainValidationError(
                f"x and p must be equal-length vectors, got {self.x.shape} and {self.p.shape}"
            )
        if not (np.isfinite(self.x).all() and np.isfinite(self.p).all() and math.isfinite(self.t)):
            raise DomainValidationError(
                f"x, p and t must be finite, got x={self.x}, p={self.p}, t={self.t}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integration record.

    x, v, p have shape (n_samples, d); v is the physical velocity from the
    deformed velocity map, not p/M. ``complete`` is False when a field
    evaluation failed mid-run and the record was truncated.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    dt: float
    complete: bool = True

    def __len__(self) -> int:
        return self.t.shape[0]


def subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Every stride-th sample of a trajectory, as a Trajectory with the
    coarser step. Useful for isolating sample-spacing effects (e.g. the
    finite-difference part of el_residual) on one underlying path."""
    if stride < 1:
        raise DomainValidationError(f"stride must be >= 1, got {stride}")
    return Trajectory(
        t=traj.t[::stride],
        x=traj.x[::stride],
        v=traj.v[::stride],
        p=traj.p[::stride],
        energy=traj.energy[::stride],
        dt=traj.dt * stride,
        complete=traj.complete,
    )


# =====================================================================
# Force correction and equations of motion
# =====================================================================

def gamma_term(
    v: np.ndarray,
    x: np.ndarray,
    t: float,
    fields: FieldSpec,
    params: PhysicalParams,
) -> np.ndarray:
    """Nine-term velocity/field correction to the Lorentz force.

    With H_ab = a M v + b q A, G_l = sum_i (dA_l/dx_i) v_i and
    grad(A^2) = 2 J_A^T A:

        Gamma = |H11|^2 (E + v x B) + 2 (H11.E) H11
                - 2 M v (H32.grad V) - 2 q A (H21.grad V)
                - grad V (H11.H31)
                + 2 q (A.(v x B)) H32 + 2 M (G.v) H32 + 2 q (G.A) H21
                - q (v.H11) grad(A^2)

    Vanishes identically when A = 0 and V = 0 (every term carries a field),
    and reduces to 4 M^2 |v|^2 E + 8 M^2 (v.E) v for A = 0 and uniform E.
    Even under (v, A) -> (-v, -A) at fixed V: every term flips twice, the
    time-reversal evenness the second-order equation needs.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    q, m = params.charge, params.mass

    a = fields.a_fn(x, t)
    grad_v = fields.grad_v(x, t)
    jac = fields.jac_a(x, t)
    e = -grad_v - fields.da_dt(x, t)
    b3 = fields.b3_at(x, t)

    h11 = m * v + q * a
    h21 = 2.0 * m * v + q * a
    h31 = 3.0 * m * v + q * a
    h32 = 3.0 * m * v + 2.0 * q * a

    vxb = _cross(_embed3(v), b3)[: fields.d]
    g_vec = jac @ v
    grad_a2 = 2.0 * (jac.T @ a)

    return (
        float(h11 @ h11) * (e + vxb)
        + 2.0 * float(h11 @ e) * h11
        - 2.0 * m * float(h32 @ grad_v) * v
        - 2.0 * q * float(h21 @ grad_v) * a
        - float(h11 @ h31) * grad_v
        + 2.0 * q * float(a @ vxb) * h32
        + 2.0 * m * float(g_vec @ v) * h32
        + 2.0 * q * float(g_vec @ a) * h21
        - q * float(v @ h11) * grad_a2
    )


def eom_accel(
    x: np.ndarray,
    v: np.ndarray,
    t: float,
    fields: FieldSpec,
    params: PhysicalParams,
) -> np.ndarray:
    """Acceleration (q/M)(E + v x B) + (beta q/M) Gamma.

    The beta = 0 branch returns the bare Lorentz expression without
    touching gamma_term, so the undeformed reduction is exact by code path.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    q, m = params.charge, params.mass
    e = fields.e_at(x, t)
    vxb = _cross(_embed3(v), fields.b3_at(x, t))[: fields.d]
    lorentz = (q / m) * (e + vxb)
    if params.beta == 0.0:
        return lorentz
    return lorentz + (params.beta * q / m) * gamma_term(v, x, t, fields, params)


def _flow_fn(fields: FieldSpec, params: PhysicalParams) -> Callable[..., tuple]:
    """Phase-space velocity of the first-order Hamiltonian, as the function
    flow(x1, x2, x3, p1, p2, p3, t) of the state in the 3-vector embedding.

    One point evaluation of the field; the rest is straight-line float
    arithmetic, for d = 2 and 3 alike (a zero third component adds exactly).
    Returns nine floats: xdot, pdot, and p - qA for the energy at the same
    point.
    """
    point = _point_eval(fields)
    q, m, beta = params.charge, params.mass, params.beta
    qm = q / m
    q2 = 2.0 * q
    bm = beta / m
    bqm = beta * q / m

    def flow(x1: float, x2: float, x3: float, p1: float, p2: float, p3: float, t: float):
        a1, a2, a3, j11, j12, j13, j21, j22, j23, j31, j32, j33, g1, g2, g3 = point(x1, x2, x3, t)
        u1 = p1 - q * a1
        u2 = p2 - q * a2
        u3 = p3 - q * a3
        xd1 = u1 / m
        xd2 = u2 / m
        xd3 = u3 / m
        pd1 = qm * (j11 * u1 + j12 * u2 + j13 * u3) - q * g1
        pd2 = qm * (j21 * u1 + j22 * u2 + j23 * u3) - q * g2
        pd3 = qm * (j31 * u1 + j32 * u2 + j33 * u3) - q * g3
        if beta != 0.0:
            pp = p1 * p1 + p2 * p2 + p3 * p3
            c4 = 4.0 * pp
            c2 = q2 * (a1 * p1 + a2 * p2 + a3 * p3)
            cq = q * pp
            xd1 += bm * (c4 * p1 - c2 * p1 - cq * a1)
            xd2 += bm * (c4 * p2 - c2 * p2 - cq * a2)
            xd3 += bm * (c4 * p3 - c2 * p3 - cq * a3)
            bp = bqm * pp
            pd1 += bp * (j11 * p1 + j12 * p2 + j13 * p3)
            pd2 += bp * (j21 * p1 + j22 * p2 + j23 * p3)
            pd3 += bp * (j31 * p1 + j32 * p2 + j33 * p3)
        return xd1, xd2, xd3, pd1, pd2, pd3, u1, u2, u3

    return flow


def _state6(x: np.ndarray, p: np.ndarray) -> tuple:
    pad = (0.0,) * (3 - x.shape[0])
    return (*x.tolist(), *pad, *p.tolist(), *pad)


def hamiltonian_flow(
    state: ClassicalState, fields: FieldSpec, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """(xdot, pdot) of the truncated Hamiltonian; the exact gradient pair
    (dH/dp, -dH/dx) of ``hamiltonian``.

    The same float-arithmetic flow that ``integrate`` steps with: one point
    evaluation of the field (see FieldSpec) at the state embedded in three
    components, returned as length-d arrays.
    """
    _check_dim(state.x, fields)
    d = fields.d
    k = _flow_fn(fields, params)(*_state6(state.x, state.p), state.t)
    return np.array(k[:d]), np.array(k[3 : 3 + d])


def hamiltonian(state: ClassicalState, fields: FieldSpec, params: PhysicalParams) -> float:
    """H = |p - qA|^2/2M + qV + (beta/M)|p|^2 (p - qA).p."""
    _check_dim(state.x, fields)
    q, m = params.charge, params.mass
    a = fields.a_fn(state.x, state.t)
    pma = state.p - q * a
    h = float(pma @ pma) / (2.0 * m) + q * fields.v_fn(state.x, state.t)
    if params.beta != 0.0:
        h += (params.beta / m) * float(state.p @ state.p) * float(pma @ state.p)
    return h


def lagrangian(
    x: np.ndarray,
    v: np.ndarray,
    t: float,
    fields: FieldSpec,
    params: PhysicalParams,
) -> float:
    """L = M|v|^2/2 + q v.A - qV - beta |H11|^2 (v.H11) with H11 = Mv + qA."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    q, m = params.charge, params.mass
    a = fields.a_fn(x, t)
    lag = 0.5 * m * float(v @ v) + q * float(v @ a) - q * fields.v_fn(x, t)
    if params.beta != 0.0:
        h11 = m * v + q * a
        lag -= params.beta * float(h11 @ h11) * float(v @ h11)
    return lag


def _check_dim(x: np.ndarray, fields: FieldSpec) -> None:
    if x.shape[0] != fields.d:
        raise DomainValidationError(
            f"state dimension {x.shape[0]} != field dimension {fields.d}"
        )


# =====================================================================
# Integration
# =====================================================================

# an overflowed state is a non-finite sample, which raises AccuracyError below
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    initial: ClassicalState,
    fields: FieldSpec,
    params: PhysicalParams,
    dt: float,
    steps: int,
) -> Trajectory:
    """Classical RK4 on the Hamiltonian flow, recording (t, x, v, p, H).

    The state is stepped as six Python floats, x and p in three components
    (the third ones zero when d = 2), in one loop that forms each stage's
    state inline from them and the previous stage's slopes. Each of the
    four stages makes one point evaluation of the field (see FieldSpec).
    The evaluation at an accepted sample is also the next step's first
    stage: it gives the recorded velocity (the deformed velocity map) and
    the recorded energy H, which reuses that evaluation's A and adds V at
    the sample (the built-in fields' closed form, else one v_fn call). A
    field-evaluation failure (e.g. crossing the flux-line exclusion radius)
    after the first sample truncates the run and marks the trajectory
    incomplete rather than raising. A sample whose t, x, p, velocity or H
    is not finite (the state overflowed) raises AccuracyError.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainValidationError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise DomainValidationError(f"steps must be >= 1, got {steps}")
    _check_dim(initial.x, fields)

    d = fields.d
    flow = _flow_fn(fields, params)
    potential = _potential_eval(fields)
    q, m, beta = params.charge, params.mass, params.beta
    m2 = 2.0 * m
    bm = beta / m
    half = 0.5 * dt
    sixth = dt / 6.0

    t0 = t = initial.t
    x1, x2, x3, p1, p2, p3 = _state6(initial.x, initial.p)
    samples = []  # 11 floats per sample: t, x, v and p in three components, H
    complete = True
    for n in range(steps + 1):
        try:
            if n:
                b1, b2, b3, b4, b5, b6, _, _, _ = flow(
                    x1 + half * a1, x2 + half * a2, x3 + half * a3,
                    p1 + half * a4, p2 + half * a5, p3 + half * a6, t + half,
                )
                c1, c2, c3, c4, c5, c6, _, _, _ = flow(
                    x1 + half * b1, x2 + half * b2, x3 + half * b3,
                    p1 + half * b4, p2 + half * b5, p3 + half * b6, t + half,
                )
                e1, e2, e3, e4, e5, e6, _, _, _ = flow(
                    x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
                    p1 + dt * c4, p2 + dt * c5, p3 + dt * c6, t + dt,
                )
                x1 += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + e1)
                x2 += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + e2)
                x3 += sixth * (a3 + 2.0 * b3 + 2.0 * c3 + e3)
                p1 += sixth * (a4 + 2.0 * b4 + 2.0 * c4 + e4)
                p2 += sixth * (a5 + 2.0 * b5 + 2.0 * c5 + e5)
                p3 += sixth * (a6 + 2.0 * b6 + 2.0 * c6 + e6)
                t = t0 + n * dt
            # the sample's slopes: its velocity, and the next step's first stage
            a1, a2, a3, a4, a5, a6, u1, u2, u3 = flow(x1, x2, x3, p1, p2, p3, t)
        except DomainValidationError:
            if not n:
                raise
            complete = False
            break
        h = (u1 * u1 + u2 * u2 + u3 * u3) / m2 + q * potential(x1, x2, x3, t)
        if beta != 0.0:
            h += bm * (p1 * p1 + p2 * p2 + p3 * p3) * (u1 * p1 + u2 * p2 + u3 * p3)
        sample = (t, x1, x2, x3, a1, a2, a3, p1, p2, p3, h)
        # one sum is finite only if every term is; overflow alone asks again
        if not math.isfinite(t + x1 + x2 + x3 + a1 + a2 + a3 + p1 + p2 + p3 + h) and not all(
            map(math.isfinite, sample)
        ):
            raise AccuracyError(
                f"trajectory state is not finite at t = {t}: x = {[x1, x2, x3][:d]}, "
                f"p = {[p1, p2, p3][:d]}, H = {h}"
            )
        samples += sample

    rec = np.fromiter(samples, float, len(samples)).reshape(-1, 11)
    return Trajectory(
        t=rec[:, 0],
        x=rec[:, 1 : 1 + d],
        v=rec[:, 4 : 4 + d],
        p=rec[:, 7 : 7 + d],
        energy=rec[:, 10],
        dt=dt,
        complete=complete,
    )


# =====================================================================
# Euler-Lagrange consistency
# =====================================================================

def el_residual(traj: Trajectory, fields: FieldSpec, params: PhysicalParams) -> float:
    """Max norm of d/dt(dL/dv) - dL/dx along the trajectory.

    Velocity and position gradients of L are taken by central differences
    along each axis (the fields' step rule h_fd * max(1, |u|_inf)); the time
    derivative by a central difference over neighboring samples. For
    trajectories produced by ``integrate`` the residual is O(dt^2) +
    O(beta^2), the latter because the Hamiltonian and Lagrangian routes are
    Legendre pairs only through first order. A non-finite sample makes the
    residual nan.
    """
    n = len(traj)
    if n < 5:
        raise DomainValidationError(f"need at least 5 samples, got {n}")
    dts = np.diff(traj.t)
    if not np.allclose(dts, traj.dt, rtol=1e-9, atol=0.0):
        raise DomainValidationError("trajectory samples are not uniform in t")

    h_fd = fields.h_fd
    momenta = np.array(
        [
            _partials(lambda u: lagrangian(x, u, t, fields, params), v, h_fd)
            for x, v, t in zip(traj.x, traj.v, traj.t)
        ]
    )
    forces = np.array(
        [
            _partials(lambda u: lagrangian(u, v, t, fields, params), x, h_fd)
            for x, v, t in zip(traj.x[1:-1], traj.v[1:-1], traj.t[1:-1])
        ]
    )
    return float(np.max(np.abs(_central_d1(momenta, traj.dt) - forces)))


# =====================================================================
# Modified gauge shift
# =====================================================================

@dataclass(frozen=True)
class ScalarField:
    """A gauge scalar with its derivatives: value(x,t), grad(x,t), and the
    explicit time derivative d_dt(x,t) (None means static)."""

    value: _ScalField
    grad: Optional[_VecField] = None
    d_dt: Optional[_ScalField] = None


@dataclass
class ShiftedPotentials:
    """Result of the deformed gauge transformation.

    The shift vector F is velocity dependent (it carries H11 = Mv + qA), so
    the shifted vector potential is only defined along a velocity field:
    ``a_prime(x, v, t)``. ``field_spec(v_ref)`` materializes an ordinary
    FieldSpec with the velocity frozen, exact for comparisons at beta = 0
    (where F drops out of the potentials entirely).
    """

    base: FieldSpec
    lam: ScalarField
    lam1: ScalarField
    params: PhysicalParams

    def f_vec(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        """Shift vector solving F = grad(lam1) + |H'|^2 H' - |H|^2 H with
        H' = H + grad(lam) + beta F, by fixed-point iteration.

        This is the choice that makes L' - L = d/dt(lam + beta lam1) hold
        exactly pointwise; its expansion to first order in grad(lam) is
        F = grad(lam1) + 2(H.grad lam)H + |H|^2 grad(lam) + ...
        """
        q, m, beta = self.params.charge, self.params.mass, self.params.beta
        h = m * np.asarray(v, dtype=float) + q * self.base.a_fn(x, t)
        gl = self.lam.grad(x, t)
        gl1 = self.lam1.grad(x, t)
        h2h = float(h @ h) * h
        hp = h + gl
        f = gl1 + float(hp @ hp) * hp - h2h
        for _ in range(60):
            hp = h + gl + beta * f
            f_new = gl1 + float(hp @ hp) * hp - h2h
            if float(np.max(np.abs(f_new - f))) <= 1e-14 * (1.0 + float(np.max(np.abs(f_new)))):
                return f_new
            f = f_new
        raise DomainValidationError(
            "gauge shift vector did not reach a fixed point; beta or the "
            "field magnitudes are too large for the first-order transform"
        )

    def a_prime(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        q = self.params.charge
        return self.base.a_fn(x, t) + (
            self.lam.grad(x, t) + self.params.beta * self.f_vec(x, v, t)
        ) / q

    def v_prime(self, x: np.ndarray, t: float) -> float:
        q = self.params.charge
        dl = self.lam.d_dt(x, t) if self.lam.d_dt is not None else 0.0
        dl1 = self.lam1.d_dt(x, t) if self.lam1.d_dt is not None else 0.0
        return self.base.v_fn(x, t) - (dl + self.params.beta * dl1) / q

    def field_spec(self, v_ref: np.ndarray) -> FieldSpec:
        v_ref = np.asarray(v_ref, dtype=float)
        return FieldSpec(
            d=self.base.d,
            v_fn=self.v_prime,
            a_fn=lambda x, t: self.a_prime(x, v_ref, t),
            h_fd=self.base.h_fd,
        )


def gauge_shift(
    fields: FieldSpec,
    lam: ScalarField,
    lam1: ScalarField,
    params: PhysicalParams,
):
    """Deformed gauge transformation A -> A + (grad lam + beta F)/q,
    V -> V - (dt lam + beta dt lam1)/q.

    Returns (shifted, checker): ``shifted`` carries the transformed
    potentials (velocity dependent, see ShiftedPotentials), and
    ``checker(traj)`` returns the max residual of

        L'(x, v, t) - L(x, v, t) - d/dt [lam + beta lam1]

    along the trajectory, the time derivative taken by central
    differences. With the fixed-point F the identity is exact pointwise,
    so the residual sits at the finite-difference floor. A non-finite
    sample makes the residual nan.
    """
    if lam.grad is None or lam1.grad is None:
        raise DomainValidationError("gauge scalars need grad callables")
    shifted = ShiftedPotentials(base=fields, lam=lam, lam1=lam1, params=params)

    def checker(traj: Trajectory) -> float:
        n = len(traj)
        if n < 3:
            raise DomainValidationError("checker needs at least 3 samples")
        scalars = np.empty(n)
        delta_l = np.empty(n)
        for i in range(n):
            x, v, t = traj.x[i], traj.v[i], traj.t[i]
            delta_l[i] = (lagrangian(x, v, t, shifted.field_spec(v), params)
                          - lagrangian(x, v, t, fields, params))
            scalars[i] = lam.value(x, t) + params.beta * lam1.value(x, t)
        return float(np.max(np.abs(delta_l[1:-1] - _central_d1(scalars, traj.dt))))

    return shifted, checker
