"""Radial building blocks: Bessel-product antiderivatives and sourced modes.

The first-order correction to each angular-momentum mode solves a sourced
Bessel equation. Everything needed to write that correction in closed form
lives here:

* ``xi_coeffs``     -- the three source-strength coefficients per mode.
* ``f1_integral``   -- closed-form antiderivative F1(z; mu, nu) of J_mu J_nu / z,
                       including both degenerate order pairings.
* ``f2_integral``, ``f3_integral`` -- the 1/z^2 and 1/z^3 analogues via
                       recurrence on the orders.
* ``fn_quadrature`` -- adaptive-quadrature ground truth for the same integrals.
* ``uv_pair``       -- the two running coefficients of the particular solution.
* ``g1_g2``         -- their z -> infinity limits.
* ``mode_f0`` / ``mode_f1`` -- zeroth- and first-order mode profiles.
* ``ode_residual``  -- finite-difference check that sampled modes satisfy
                       their radial equation.

Every J these closed forms take on one set of z comes from one order table
(``_BesselTable``): a nonnegative order is a row of one Miller sweep per
fractional order (``specfun._bessel_rows``), and a negative one is carried
down from the table's own rows. A mode takes every order it needs, nu + j and
-nu + j, as an exact whole offset of the fraction of nu or of -nu
(``_Order``), so it costs two sweeps per point set. The degenerate F1 run along
the grid by the two-point Hermite rule on each small gap, from J and its
derivatives on z itself, and by 6-point Gauss panels on every longer run; a
fine grid from z <= 4 has no other point set than z.

Conventions: z is the scaled radius (wave number times radius), m the integer
angular index, ``alpha_prime`` the flux parameter, and nu = |m + alpha_prime|
the Bessel order of the mode. Order combinations within 1e-6 of an integer sit
on poles of the closed forms and are rejected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    INTEGER_GUARD,
    AccuracyError,
    DomainValidationError,
    PhysicalParams,
    SingularConfigError,
    _central_d1,
    _central_d2,
    require_integral,
    require_noninteger,
    square,
)
from .specfun import (_MILLER_Z_MAX, _ORDER_MAX, _bessel_negative, _bessel_rows, _bessel_z,
                      _cis_pi, bessel_j, digamma, pfq_series)

_DEGENERATE_TOL = 1e-9
_ANCHOR_Z_MAX = 4.0    # degenerate branches: exact series below, quadrature continuation above
# The degenerate-order panels carry F1 up to specfun's _MILLER_Z_MAX (1e4), the
# one z cap of both layers. Their nodes grow as 24 per unit of z (panels at most
# 0.25 wide): at the cap that is 240k nodes per order, and one uv_pair call takes
# about 0.45 s and 27 MB of extra peak memory.
# Grid gaps up to this take the two-point Hermite rule of degree 5 on their ends,
# from J, J' and J'' on the grid itself, with no nodes of their own. Its error is
# -h^7 f^(6) / 100800; a 2-point Gauss rule (h^5 f^(4) / 4320) would read up to
# 9.4e-13 of max|F1| over a fine grid from z = 0.5, where f ~ 1/t steepens
_SMALL_GAP = 2.5e-3
_QUAD_TOL = 1e-10      # fn_quadrature's requested absolute tolerance
_GL6_NODES, _GL6_WEIGHTS = np.polynomial.legendre.leggauss(6)


# =====================================================================
# Source-strength coefficients
# =====================================================================

@dataclass(frozen=True)
class XiSet:
    """Source-strength coefficients of one mode.

    ``xi`` multiplies the derivative part of the source, ``xi_plus`` and
    ``xi_minus`` are the combinations that appear in the closed-form
    coefficient functions:

        xi       = a' (3 m + 2 a')
        xi_plus  = a'^2 (m + a')(2 m + a') + 2 xi (1 + nu)
        xi_minus = a'^2 (m + a')(2 m + a') + 2 xi (1 - nu)

    with nu = |m + a'|.
    """

    xi: float
    xi_plus: float
    xi_minus: float


def xi_coeffs(m: int, alpha_prime: float) -> XiSet:
    """Compute the per-mode source-strength coefficients.

    m must be a finite integral value and alpha' finite (DomainValidationError
    otherwise); a coefficient past the double range raises AccuracyError.
    """
    m = require_integral(m, "xi_coeffs: m")
    nu = _order_of(m, alpha_prime)
    a = float(alpha_prime)
    xi = a * (3.0 * m + 2.0 * a)
    eta = a * a * (m + a) * (2.0 * m + a)
    out = XiSet(
        xi=xi,
        xi_plus=eta + 2.0 * xi * (1.0 + nu),
        xi_minus=eta + 2.0 * xi * (1.0 - nu),
    )
    if not all(map(math.isfinite, (out.xi, out.xi_plus, out.xi_minus))):
        raise AccuracyError(f"xi_coeffs overflows a double at m = {m:g}, alpha' = {a}")
    return out


def _order_of(m: int, alpha_prime: float) -> float:
    """nu = |m + alpha'|, for a finite integral m and a finite alpha'."""
    a = float(alpha_prime)
    if not math.isfinite(a):
        raise DomainValidationError(f"alpha_prime must be finite, got {a}")
    return abs(require_integral(m, "m") + a)


# =====================================================================
# F1 and its recurrences
# =====================================================================

def _f1_equal_series(z: float, mu: float) -> float:
    """Exact series for F1(z; mu, mu).

    The square of a Bessel function has the product expansion

        J_mu(t)^2 = sum_k (-1)^k (t/2)^(2mu+2k)
                    Gamma(2mu+2k+1) / (k! Gamma(mu+k+1)^2 Gamma(2mu+k+1)),

    and dividing by t and integrating term by term gives

        F1 = S sum_k (-1)^k (z/2)^(2k) P_k / ((2mu+2k) k! (mu+1)_k^2),
        S = (z/2)^(2mu) / Gamma(mu+1)^2,

    with P_k = (2mu+k+1)_k written as a finite product. That form avoids
    the parameter collision the equivalent 2F3 suffers at negative
    half-integer mu (where an upper and a lower parameter vanish together).
    The rising factorial (mu+1)_k = Gamma(mu+k+1) / Gamma(mu+1) is a running
    product, and the one seed S is formed in logs from ``math.lgamma``, which
    gives log|Gamma(mu+1)| for every non-integer mu, mu <= -1 included, so no
    Gamma of the order is formed and large |mu| stays finite. The sum
    stops once two successive terms fall below 1e-17 of the partial sum; a
    seed that underflows to 0 returns 0.
    """
    zz = float(z)
    try:
        seed = math.exp(2.0 * (mu * math.log(0.5 * zz) - math.lgamma(mu + 1.0)))
    except OverflowError:
        raise AccuracyError(f"equal-order F1 at mu = {mu} overflows a double at z = {zz}") from None
    q = 0.25 * zz * zz
    acc = 0.0
    sign = 1.0
    pow_q = 1.0
    k_fact = 1.0
    rising = 1.0  # (mu + 1)_k
    small_runs = 0
    for k in range(300):
        if k > 0:
            sign = -sign
            pow_q *= q
            k_fact *= k
            rising *= mu + k
        poch = 1.0
        for j in range(k):
            poch *= 2.0 * mu + k + 1.0 + j
        term = sign * seed * pow_q * poch / ((2.0 * mu + 2.0 * k) * k_fact * rising * rising)
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            small_runs += 1
            if small_runs >= 2:
                return acc
        else:
            small_runs = 0
    raise AccuracyError(f"equal-order F1 series did not converge at z = {zz}")


def _f1_opposite_series(z: float, mubar: float) -> float:
    """Exact series for F1(z; mu, -mu), mubar = |mu|.

    J_mu J_{-mu} is entire in z^2 with constant term 1/(Gamma(1-mu)Gamma(1+mu)),
    so the antiderivative of the product over t is

        -z^2 / (4 G(2-mu) G(2+mu)) 3F4(1,1,3/2; 2-mu,2+mu,2,2; -z^2)
        + ln(z) / (G(1-mu) G(1+mu)).

    This fixes the normalisation the asymptotic constants g1, g2 use. The
    Gamma pairs are their reflection products (DLMF 5.5.3),
    1/(G(1-mu) G(1+mu)) = sin(pi mu) / (pi mu) and G(2-mu) G(2+mu) =
    (1 - mu^2) pi mu / sin(pi mu), so no Gamma of the order is formed and
    the value stays finite for any mubar.
    """
    zz = float(z)
    sinc = _cis_pi(mubar).imag / (math.pi * mubar)  # 1 / (G(1-mu) G(1+mu))
    head = -zz * zz * sinc / (4.0 * (1.0 - mubar * mubar))
    tail = pfq_series(
        [1.0, 1.0, 1.5],
        [2.0 - mubar, 2.0 + mubar, 2.0, 2.0],
        -zz * zz,
    )
    return head * tail.real + math.log(zz) * sinc


def _finite(value, what: str):
    """``value``, a float or an array, or AccuracyError where it is past the
    double range (near-degenerate orders at a huge z, or a tiny order in a
    recurrence's denominator)."""
    if not np.all(np.isfinite(value)):
        raise AccuracyError(f"{what} is past the double range on this z range")
    return value


class _Order(NamedTuple):
    """A Bessel order as the order table takes it: the real number frac + k,
    with frac in [0, 1] the fraction of one Miller sweep and k an integer
    offset in it (below 0, steps of the downward recurrence from that
    sweep's rows 0 and 1); ``value`` is the float that stands for it in the
    closed forms' arithmetic.

    A float x is split as ``bessel_j`` splits it, (x - floor(x)) + floor(x),
    so its row is ``bessel_j(x)``. ``shift`` moves the offset, not the
    float: the mode's orders nu + j and -nu + j are whole offsets of the two
    fractions of nu and -nu, exactly, where fl(nu + j) - floor can differ
    from nu - floor(nu) in its last bit.
    """

    value: float
    frac: float
    k: int

    @classmethod
    def of(cls, x) -> _Order:
        if isinstance(x, _Order):
            return x
        x = float(x)
        if not math.isfinite(x):
            raise DomainValidationError(f"Bessel orders must be finite, got {x}")
        n = math.floor(x)
        return cls(x, x - n, n)

    def shift(self, j: int) -> _Order:
        """The order j above this one: frac + (k + j), standing for value + j."""
        return _Order(self.value + j, self.frac, self.k + j)


class _BesselTable:
    """J at any order on one fixed point set, each order evaluated once.

    Rows are asked for as ``_Order`` (a float is split as ``bessel_j``
    splits it) and kept by (frac, k). A row with k >= 0 comes from the Miller
    sweep (``specfun._bessel_rows``) on its fraction; one with k < 0 is
    carried down from the rows 0 and 1 of that sweep (see
    ``specfun._bessel_negative``), so it costs only the recurrence steps. A
    sweep keeps every offset within 3 of the ones asked (only those below
    where a point passes z = 1e4), so one sweep serves all the orders of one
    fraction that the F1 pairs ask for. A row of a float order is bit for
    bit what ``bessel_j`` returns while its sweep's highest order is below
    11, so every negative row is; above, the sweep can start later than a
    lone call, and the two differ in the last digits.
    """

    def __init__(self, points):
        self.points = points
        self.flat = _bessel_z(points)
        # the offsets a sweep keeps above the ones asked: none where a point
        # passes z = 1e4, where a higher order may need Miller past its cap
        self._reach = 3 if np.all(self.flat <= _MILLER_Z_MAX) else 0
        self._rows: dict = {}
        self._sweeps: dict = {}  # fraction -> (its lowest offset kept, rows)

    def __call__(self, order):
        order = _Order.of(order)
        key = order.frac, order.k
        if key not in self._rows:
            if not abs(order.value) <= _ORDER_MAX:
                raise DomainValidationError(f"bessel_j needs |nu| <= {_ORDER_MAX:g}, got {order.value}")
            if order.k >= 0:
                self._rows[key] = self.swept(order.frac, order.k, order.k)[0]
            else:
                self._rows[key] = _bessel_negative(order.value, order.frac, -order.k,
                                                   self.points, self.swept)
        return self._rows[key]

    def swept(self, frac: float, lo: int, hi: int) -> list:
        """J at the orders frac + lo .. frac + hi, from the sweep on ``frac``."""
        first, rows = self._sweeps.get(frac, (0, ()))
        if not first <= lo <= hi < first + len(rows):
            first = max(0, lo - 3)
            rows = _bessel_rows(frac, first, hi + self._reach, self.flat)
            scalar = np.ndim(self.points) == 0
            rows = [float(row[0]) if scalar else row.reshape(np.shape(self.points)) for row in rows]
            self._sweeps[frac] = first, rows
        return rows[lo - first:hi - first + 1]


def _running_sum(first: float, steps: np.ndarray) -> np.ndarray:
    """first, first + steps[0], first + steps[0] + steps[1], ..., each within
    about an ulp.

    ``np.cumsum`` rounds every partial sum once, and along a fine grid those
    roundings add up: 6e-15 of max|F1| over 36k gaps. The error of each of its
    additions is exact by TwoSum (Knuth, TAOCP vol. 2, 4.2.2), since each
    partial sum is the rounded sum of the one before and a step; the errors
    are summed apart and added back, the cascaded sum of Ogita, Rump and
    Oishi (SIAM J. Sci. Comput. 26 (2005) 1955-1988) taken as a running sum.
    """
    s = np.cumsum(np.concatenate(([first], steps)))
    before, after = s[:-1], s[1:]
    back = after - before
    s[1:] += np.cumsum((before - (after - back)) + (steps - back))
    return s


class _PanelPlan:
    """How a degenerate F1 is carried from its series anchor along a grid.

    The grid is sorted; run 0 covers [_ANCHOR_Z_MAX, z_0] when the smallest
    point lies above the series range, and run i >= 1 covers the gap
    [z_(i-1), z_i]. A gap h up to _SMALL_GAP takes the two-point Hermite rule
    of degree 5 on its ends a and b,

        h/2 (f_a + f_b) + h^2/10 (f'_a - f'_b) + h^3/120 (f''_a + f''_b),

    from J and its first two derivatives on the grid itself (``_F1Grid.jet``);
    ``ends`` holds each such gap's two points as indices into the flat grid.
    Longer runs take 6-point Gauss panels no wider than min(1/4, lo/4), which
    keeps the error bound scale-free against the t^(-n) steepening near 0.
    Their nodes sit in one array ``t``, so each order is evaluated on them once,
    kept in the order table ``on_nodes``; a plan without such runs has no nodes
    and no table. The node count grows with the largest z, so a grid reaching
    above _MILLER_Z_MAX is rejected.
    """

    def __init__(self, z):
        flat = np.asarray(z, dtype=float).ravel()
        if not np.all((flat > 0.0) & (flat < math.inf)):  # also nan
            raise DomainValidationError("F1 of degenerate orders needs finite z > 0")
        self.flat = flat
        self.order = np.argsort(flat, kind="stable")
        self.zs = zs = flat[self.order]
        if zs[-1] > _MILLER_Z_MAX:
            raise DomainValidationError(
                f"F1 of degenerate orders needs z <= {_MILLER_Z_MAX:g}, where its "
                f"panel quadrature ends; got z = {zs[-1]:g}"
            )
        gaps = np.diff(zs)

        lo6: list[float] = []
        hi6: list[float] = []
        run6: list[int] = []

        def add_run(a: float, b: float, run: int) -> None:
            lo = a
            while lo < b:
                hi = min(b, lo + min(0.25, 0.25 * lo))
                lo6.append(lo)
                hi6.append(hi)
                run6.append(run)
                lo = hi

        if zs[0] > _ANCHOR_Z_MAX:
            add_run(_ANCHOR_Z_MAX, zs[0], 0)
        for i in np.nonzero(gaps > _SMALL_GAP)[0]:
            add_run(zs[i], zs[i + 1], i + 1)
        lo = np.array(lo6)
        hi = np.array(hi6)
        self.half6 = 0.5 * (hi - lo)
        self.t = (0.5 * (lo + hi)[:, None] + self.half6[:, None] * _GL6_NODES).ravel()
        self.runs = np.array(run6, dtype=np.intp)
        self.on_nodes = _BesselTable(self.t) if self.t.size else None

        self.small = (gaps > 0.0) & (gaps <= _SMALL_GAP)
        h = gaps[self.small]
        self.hermite = 0.5 * h, h * h / 10.0, h * h * h / 120.0
        self.ends = self.order[:-1][self.small], self.order[1:][self.small]

    def run_integrals(self, mu: _Order, nu: _Order, jet) -> np.ndarray:
        """Integral of J_mu J_nu / t over each run (0 for empty runs).

        ``jet(order)`` gives J and its first two derivatives on the flat grid.
        """
        out = np.zeros(self.zs.size)
        if self.on_nodes is not None:
            f = self.on_nodes(mu) * self.on_nodes(nu) / self.t
            panels = self.half6 * (f.reshape(-1, 6) @ _GL6_WEIGHTS)
            # bincount adds each run's panels in order, starting from 0.0
            out += np.bincount(self.runs, weights=panels, minlength=self.zs.size)
        if self.hermite[0].size:
            (jm, dm, d2m), (jn, dn, d2n) = jet(mu), jet(nu)
            t = self.flat
            # f = P / t for the product P = J_mu J_nu, and its two derivatives
            f = jm * jn / t
            df = (dm * jn + jm * dn - f) / t
            d2f = (d2m * jn + 2.0 * dm * dn + jm * d2n - 2.0 * df) / t
            a, b = self.ends
            w0, w1, w2 = self.hermite
            out[1:][self.small] = (w0 * (f[a] + f[b]) + w1 * (df[a] - df[b])
                                   + w2 * (d2f[a] + d2f[b]))
        return out


class _F1Grid:
    """F1(z; mu, nu) for any number of order pairs on one set of z.

    Two order tables back every pair: J on z itself, for the generic closed
    form and the Hermite rule of the degenerate pairs' small gaps, and J on
    the Gauss nodes of the panel plan (built on the first degenerate pair),
    for their longer runs. Both fill lazily, so each order is evaluated once
    per point set however many pairs use it (a negative order by recurrence
    from the table's nonnegative seed rows), and J' and J'' on z are formed
    once per order (``jet``).
    """

    def __init__(self, z):
        arr = np.asarray(z, dtype=float)  # a list or tuple behaves as its array
        self.z = arr if arr.ndim else float(arr)
        self.shape = arr.shape
        self.on_z = _BesselTable(self.z)
        self._plan: _PanelPlan | None = None
        self._jets: dict = {}
        # what a sum of the F1 so far is rounded against, over the F1 themselves:
        # the two parts of each generic F1, weighted by their denominators
        self.scale = 0.0

    def jet(self, order: _Order):
        """J, J' and J'' at ``order`` on the flat z: J' = (nu / t) J - J_(nu+1)
        (DLMF 10.6.2), and J'' from Bessel's equation (DLMF 10.2.1),
        J'' = ((nu / t)^2 - 1) J - J' / t."""
        key = order.frac, order.k
        if key not in self._jets:
            t = self.on_z.flat
            j = np.ravel(self.on_z(order))
            s = order.value / t
            dj = s * j - np.ravel(self.on_z(order.shift(1)))
            self._jets[key] = j, dj, (s * s - 1.0) * j - dj / t
        return self._jets[key]

    def f1(self, mu, nu):
        """F1 at the orders mu and nu, floats or ``_Order``."""
        mu, nu = _Order.of(mu), _Order.of(nu)
        a, b = mu.value, nu.value
        if abs(a - b) < _DEGENERATE_TOL:
            mubar = 0.5 * (a + b)
            if abs(mubar) < INTEGER_GUARD:
                raise SingularConfigError(
                    "f1_integral: the (0, 0) order pair has a logarithmically "
                    "divergent antiderivative at the origin"
                )
            if mubar < 0.0 and abs(mubar - round(mubar)) < INTEGER_GUARD:
                # J_(-n)^2 = J_n^2 holds at the integer itself, where the series
                # needs the positive order, and nowhere else in the guard
                if mubar != round(mubar):
                    raise SingularConfigError(
                        f"f1_integral (equal orders): mu = {mubar} is within "
                        f"{INTEGER_GUARD:g} of the negative integer {round(mubar)}; "
                        "inside that guard only the integer itself is evaluated"
                    )
                mubar = -mubar
                mu = nu = _Order.of(mubar)
            elif mu != nu:
                mu = nu = _Order.of(mubar)
            return self._degenerate(mu, nu, mubar, _f1_equal_series)
        if abs(a + b) < _DEGENERATE_TOL:
            mubar = 0.5 * abs(a - b)
            require_noninteger(mubar, "f1_integral (opposite orders): nu", SingularConfigError)
            if a != -b:
                mu, nu = _Order.of(mubar), _Order.of(-mubar)
            return self._degenerate(mu, nu, mubar, _f1_opposite_series)
        return self._generic(mu, nu)

    def _generic(self, mu: _Order, nu: _Order):
        """Closed form for mu^2 != nu^2, vanishing at z = 0 when mu + nu > 0."""
        jm = self.on_z(mu)
        jm1 = self.on_z(mu.shift(1))
        jn = self.on_z(nu)
        jn1 = self.on_z(nu.shift(1))
        mu, nu = mu.value, nu.value
        head = -self.z / (mu * mu - nu * nu) * (jm1 * jn - jm * jn1)
        tail = jm * jn / (mu + nu)
        # each part carries the rounding of its denominator, which cancels
        # where the pair nears a degenerate one
        self.scale = self.scale + (np.abs(head) * ((mu * mu + nu * nu) / abs(mu * mu - nu * nu))
                                   + np.abs(tail) * ((abs(mu) + abs(nu)) / abs(mu + nu)))
        return _finite(head + tail, f"F1 at orders {mu}, {nu}")

    def _degenerate(self, mu: _Order, nu: _Order, mubar: float, series_fn):
        """Series anchor ``series_fn(z, mubar)`` at the smallest z, then the
        run integrals of J_mu J_nu / t cumulatively; an empty z gives an
        empty array."""
        if not self.on_z.flat.size:
            return np.empty(self.shape)
        if self._plan is None:
            self._plan = _PanelPlan(self.z)
        plan = self._plan
        runs = plan.run_integrals(mu, nu, self.jet)
        out_sorted = _running_sum(series_fn(min(float(plan.zs[0]), _ANCHOR_Z_MAX), mubar) + runs[0],
                                  runs[1:])
        if not self.shape:
            return float(out_sorted[0])
        out = np.empty_like(out_sorted)
        out[plan.order] = out_sorted
        return out.reshape(self.shape)


def f1_integral(z, mu: float, nu: float):
    """Antiderivative F1(z; mu, nu) of J_mu(t) J_nu(t) / t.

    Parameters
    ----------
    z : float or array_like
        Evaluation point(s), > 0 (z = 0 is allowed on the generic branch
        when mu + nu > 0). Degenerate pairs need z <= 1e4: their panel
        quadrature grows with z, and a larger z raises
        DomainValidationError.
    mu, nu : float
        Bessel orders, finite. The pair may be generic, equal, or opposite; order
        pairs that are merely *near* degenerate (0 < |mu^2 - nu^2| < ~1e-3)
        lose accuracy in the generic formula and should be avoided; where it
        overflows (such a pair at a huge z) it raises AccuracyError.
        Equal orders within 1e-6 of a negative integer, but not on it,
        raise SingularConfigError.

    Returns
    -------
    float or ndarray

    Notes
    -----
    Generic orders use the closed form

        -z (J_{mu+1} J_nu - J_mu J_{nu+1}) / (mu^2 - nu^2) + J_mu J_nu / (mu + nu)

    normalised to vanish at z = 0 for mu + nu > 0, with J_{mu+1} the row one
    offset above J_mu in the same Miller sweep (so at mu + 1 exactly, where
    fl(mu + 1) can differ in its last bit). The degenerate pairings (equal or
    opposite orders) switch to their exact power/logarithmic series,
    continued past moderate z by quadrature of d F1 / dz = J_mu(z) J_nu(z) /
    z, which holds on every branch. The opposite-orders series fixes the
    normalisation the asymptotic constants g1, g2 are stated in.

    Arrays are handled cumulatively: the series anchors the smallest point
    (carried by 6-point Gauss panels from z = 4 when it lies above), and the
    integral over each gap accumulates along the sorted grid, in a running
    sum whose roundings are added back (``_running_sum``). A gap up to
    2.5e-3, as on the fine uniform grids the residual checks use, takes the
    two-point Hermite rule of degree 5 on its ends, from J, J' and J'' on
    the grid itself, so a fine grid from z <= 4 evaluates J on no other
    points; a longer gap takes 6-point Gauss panels, whose nodes over all
    gaps share one array. On fine grids from z = 0.5 to 15 (gaps 4e-4 and
    2.4e-3, equal and opposite orders), the increments from the first point
    read within 6e-16 of max|F1| against mpmath (a 2-point Gauss rule read
    up to 9.4e-13). Each order comes from the order table's rows (see
    ``_BesselTable``): one Miller sweep per fractional order, and the
    downward recurrence for a negative order. This is the one-pair case of
    the order table ``uv_pair`` shares across its eleven pairs.
    """
    return _F1Grid(z).f1(mu, nu)


def _recurrence(grid: _F1Grid, terms, denominator: float, what: str):
    """An order recurrence's sum of the F1 values ``terms`` from ``grid``,
    over ``denominator``.

    The sum is the value times the denominator, so it cancels where an order
    in the denominator is tiny: at F3(5; 5.96e-8, 1e-310) four F1 of about
    0.5, two of them the sum of parts of about 1.8e6, add up to -2e-310.
    Where the sum falls below 1e-13 of the size its terms were rounded
    against (``grid.scale`` and the terms themselves), fewer than about two
    of its digits are left, and AccuracyError is raised, as it is where the
    value is past the double range.
    """
    acc = sum(terms)
    if np.any(np.abs(acc) < 1e-13 * (grid.scale + sum(map(np.abs, terms)))):
        raise AccuracyError(f"{what} cancels to rounding at these orders on this z range")
    return _finite(acc / denominator, what)


def f2_integral(z, mu: float, nu: float):
    """Antiderivative of J_mu J_nu / z^2 via the order recurrence.

    F2(mu, nu) = [F1(mu, nu-1) + F1(mu, nu+1)] / (2 nu).

    Raises AccuracyError where the sum cancels to the rounding of its terms
    (see ``_recurrence``) or the value is past the double range.
    """
    nu = float(nu)
    if nu == 0.0:
        raise DomainValidationError("f2_integral recurrence needs nu != 0")
    grid = _F1Grid(z)
    return _recurrence(grid, (grid.f1(mu, nu - 1.0), grid.f1(mu, nu + 1.0)), 2.0 * nu, "f2_integral")


def f3_integral(z, mu: float, nu: float):
    """Antiderivative of J_mu J_nu / z^3 via the double order recurrence.

    F3(mu, nu) = [F1(mu-1, nu-1) + F1(mu-1, nu+1) + F1(mu+1, nu-1)
                  + F1(mu+1, nu+1)] / (4 mu nu).

    Raises AccuracyError where the sum cancels to the rounding of its terms
    (see ``_recurrence``) or the value is past the double range.
    """
    mu = float(mu)
    nu = float(nu)
    if mu == 0.0 or nu == 0.0:
        raise DomainValidationError("f3_integral recurrence needs mu, nu != 0")
    grid = _F1Grid(z)
    f1 = grid.f1
    terms = (f1(mu - 1.0, nu - 1.0), f1(mu - 1.0, nu + 1.0), f1(mu + 1.0, nu - 1.0),
             f1(mu + 1.0, nu + 1.0))
    return _recurrence(grid, terms, 4.0 * mu * nu, "f3_integral")


def fn_quadrature(
    n: int,
    z: float,
    mu: float,
    nu: float,
    lower_cutoff: float = 0.0,
) -> tuple[float, float]:
    """Adaptive quadrature of the definite integral of J_mu J_nu / t^n.

    This is the ground-truth route the closed forms are validated against.
    The integrand uses scipy's Bessel evaluation, so the comparison against
    ``f1_integral`` (hand-built Bessel) is genuinely two independent paths.
    scipy is imported here and nowhere else in the package, so importing
    abgup and running scans, radial dumps and trajectories never loads it.

    Parameters
    ----------
    n : int
        Power of 1/t in the integrand (1, 2 or 3 in practice).
    z : float
        Upper limit, > lower_cutoff and at most 1e4, the z cap of the closed
        forms: the range is taken in chunks of 20.
    mu, nu : float
        Bessel orders, finite.
    lower_cutoff : float
        Lower limit, >= 0. Must be > 0 when mu + nu - n <= -1, where the
        integral from 0 diverges.

    Returns
    -------
    (value, error_estimate) : tuple of float

    Raises
    ------
    DomainValidationError
        If an argument is outside the ranges above (a non-finite one
        included), or the integral diverges at the origin and no positive
        cutoff was supplied.
    AccuracyError
        If the accumulated quadrature error estimate exceeds the absolute
        tolerance 1e-10 by more than an order of magnitude, or the value or
        the estimate is not finite (J of a large negative order overflows),
        or QUADPACK warns on a chunk (scipy's IntegrationWarning: roundoff,
        a divergent integral, or the subdivision limit reached).
    """
    n = require_integral(n, "fn_quadrature: n")
    z = float(z)
    a = float(lower_cutoff)
    if not (0.0 <= a < z <= _MILLER_Z_MAX and math.isfinite(mu) and math.isfinite(nu)):
        raise DomainValidationError(
            f"fn_quadrature needs 0 <= lower_cutoff < z <= {_MILLER_Z_MAX:g} and finite "
            f"orders, got lower_cutoff = {a}, z = {z}, mu = {mu}, nu = {nu}"
        )
    if a == 0.0 and (mu + nu - n) <= -1.0:
        raise DomainValidationError(
            f"integral of J_{mu} J_{nu} / t^{n} diverges at 0 "
            "(mu + nu - n <= -1); pass a positive lower_cutoff"
        )

    from scipy import integrate, special

    def integrand(t: float) -> float:
        return special.jv(mu, t) * special.jv(nu, t) / t**n

    # Chunk long ranges so the oscillatory integrand never starves QUADPACK.
    edges = [a]
    step = 20.0
    while edges[-1] + step < z:
        edges.append(edges[-1] + step)
    edges.append(z)

    total = 0.0
    err_total = 0.0
    # an overflowed integrand makes the total non-finite, which raises below;
    # QUADPACK's own warning (roundoff, divergence, the subdivision limit)
    # says its estimate is not to be trusted, which raises too
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            for lo, hi in zip(edges[:-1], edges[1:]):
                val, err = integrate.quad(
                    integrand, lo, hi, epsabs=0.5 * _QUAD_TOL, epsrel=1e-12, limit=400
                )
                total += val
                err_total += err
        except integrate.IntegrationWarning as exc:
            raise AccuracyError(
                f"fn_quadrature did not converge on [{lo:g}, {hi:g}]: {exc}"
            ) from exc
    if not (math.isfinite(total) and err_total <= 10.0 * _QUAD_TOL * (1.0 + abs(total))):
        raise AccuracyError(
            f"fn_quadrature value {total:.2e} or its error estimate {err_total:.2e} exceeds "
            f"the double range or the tolerance {_QUAD_TOL:.2e}"
        )
    return total, err_total


# =====================================================================
# Mode coefficient functions u, v and their limits g1, g2
# =====================================================================

def _mode_prefactor(nu: float) -> complex:
    """A_m = (-i)^nu, the incident-wave mode normalisation."""
    return _cis_pi(-0.5 * nu)


def uv_pair(z, m: int, alpha_prime: float, params: PhysicalParams):
    """Running coefficients (u, v) of the first-order particular solution.

    The first-order mode is ``f1 = (C + u(z)) J_nu + v(z) J_{-nu}``;
    this returns the z-dependent pair built from closed-form F1 values:

        u =  P [ -nu xi/(nu+1) F1(-nu, nu) + xi/(nu+1) F1(-nu, nu+2)
                 - xi_minus/(4 nu^2) { F1(-nu-1, nu-1) + F1(-nu+1, nu+1)
                                       + F1(-nu-1, nu+1) + F1(-nu+1, nu-1) } ]
        v = -P [ -nu xi/(nu+1) F1(nu, nu)  + xi/(nu+1) F1(nu, nu+2)
                 + xi_minus/(4 nu^2) { F1(nu-1, nu-1) + F1(nu+1, nu+1)
                                       + 2 F1(nu-1, nu+1) } ]

    with P = A_m pi hbar^2 k^2 / sin(pi nu) and nu = |m + alpha_prime|.

    Parameters
    ----------
    z : float or array_like
        Scaled radius, > 0 and at most 1e4: the degenerate pairs are carried
        from z = 4 by panel quadrature whose cost grows with z, and a larger
        z raises DomainValidationError.
    m : int
        Angular index.
    alpha_prime : float
        Flux parameter; m + alpha_prime must be non-integer.
    params : PhysicalParams
        Supplies hbar and k.

    Returns
    -------
    (u, v) : complex scalars or ndarrays matching z.

    Notes
    -----
    Orders within 1e-6 of an integer are rejected (poles of the closed
    forms).

    The eleven F1 share one order table (see ``f1_integral``). The five
    generic pairs need J on z at ±nu, ±nu ± 1, nu + 2, nu + 3 and 2 - nu; the
    three equal and three opposite pairs need J at ±nu and ±(nu ± 1) on the
    Gauss nodes of one panel plan, and on z the same orders and each one plus
    1 (for J', on the gaps the Hermite rule takes), which the generic pairs
    already hold. Each of these is evaluated once. The F1 take J at nu + j
    and -nu + j as whole offsets of the fractions of nu and of -nu
    (``_Order``), exactly, where fl(nu + 2) - 2, say, can differ from nu in
    its last bit; their closed forms' arithmetic uses the floats nu + j. The
    negative orders come from the table's seed rows by recurrence. So a call
    costs two Miller sweeps per point set: two on a grid from z <= 4 whose
    gaps are all at most 2.5e-3, four when there are Gauss nodes too.
    """
    return _uv_on(_F1Grid(z), m, alpha_prime, params)


def _uv_on(grid: _F1Grid, m: int, alpha_prime: float, params: PhysicalParams):
    """``uv_pair`` on the z of ``grid``, from its order tables."""
    nu = _order_of(m, alpha_prime)
    require_noninteger(nu, "uv_pair: order nu", SingularConfigError)
    coeffs = xi_coeffs(m, alpha_prime)
    xi = coeffs.xi
    xim = coeffs.xi_minus
    hk2 = square(params.hbar * params.k)
    pref = _mode_prefactor(nu) * math.pi * hk2 / _cis_pi(nu).imag
    f1 = grid.f1
    # nu + j and -nu + j, as whole offsets of the fractions of nu and -nu
    p, q = _Order.of(nu).shift, _Order.of(-nu).shift

    u_brace = (
        -nu * xi / (nu + 1.0) * f1(q(0), p(0))
        + xi / (nu + 1.0) * f1(q(0), p(2))
        - xim
        / (4.0 * nu * nu)
        * (
            f1(q(-1), p(-1))
            + f1(q(1), p(1))
            + f1(q(-1), p(1))
            + f1(q(1), p(-1))
        )
    )
    v_brace = (
        -nu * xi / (nu + 1.0) * f1(p(0), p(0))
        + xi / (nu + 1.0) * f1(p(0), p(2))
        + xim
        / (4.0 * nu * nu)
        * (
            f1(p(-1), p(-1))
            + f1(p(1), p(1))
            + 2.0 * f1(p(-1), p(1))
        )
    )
    return pref * u_brace, -pref * v_brace


def g1_g2(m: int, alpha_prime: float, params: PhysicalParams) -> tuple[complex, complex]:
    """z -> infinity limits of the coefficient pair (u, v).

    Closed forms (nu = |m + alpha_prime|, A = (-i)^nu, W the digamma brace):

        g1 = -(A hbar^2 k^2 / (2 (1+nu))) [ (xi + xi_minus/(2 nu (1-nu))) W
              + (1+2 nu) xi / (nu (1+nu))
              - (1 - nu - 3 nu^2 + nu^3) xi_minus / (2 nu^3 (1+nu)(1-nu)^2) ]
        g2 =  (A hbar^2 k^2 Gamma(nu) Gamma(1-nu) / (2 (1+nu)))
              (xi + xi_minus / (2 nu (1-nu)))

    with W = 2 ln 2 + psi(nu) + psi(1 - nu). The Gamma pair is the reflection
    product Gamma(nu) Gamma(1-nu) = pi / sin(pi nu), with the sine and A from
    ``specfun._cis_pi``, so both stay finite for any |m|.

    Returns
    -------
    (g1, g2) : pair of complex
    """
    nu = _order_of(m, alpha_prime)
    require_noninteger(nu, "g1_g2: order nu", SingularConfigError)
    coeffs = xi_coeffs(m, alpha_prime)
    xi = coeffs.xi
    xim = coeffs.xi_minus
    hk2 = square(params.hbar * params.k)
    a_m = _mode_prefactor(nu)

    combo = xi + xim / (2.0 * nu * (1.0 - nu))
    brace = 2.0 * math.log(2.0) + digamma(nu) + digamma(1.0 - nu)
    g1 = (
        -a_m
        * hk2
        / (2.0 * (1.0 + nu))
        * (
            combo * brace
            + (1.0 + 2.0 * nu) * xi / (nu * (1.0 + nu))
            - (1.0 - nu - 3.0 * nu * nu + nu**3)
            * xim
            / (2.0 * nu**3 * (1.0 + nu) * (1.0 - nu) ** 2)
        )
    )
    g2 = a_m * hk2 * (math.pi / _cis_pi(nu).imag) / (2.0 * (1.0 + nu)) * combo
    return g1, g2


# =====================================================================
# Mode profiles
# =====================================================================

@dataclass(frozen=True)
class RadialMode:
    """Coefficient bundle of one angular-momentum mode.

    ``order`` is nu = |m + alpha_prime|; ``a_m`` and ``c_m`` weight J_nu at
    zeroth and first order. J_{-nu} has no weight of its own: regularity at
    the origin sets b_m = 0, and the first-order D_m is 0.
    """

    m: int
    order: float
    a_m: complex
    c_m: complex


def radial_mode(m: int, alpha_prime: float, params: PhysicalParams) -> RadialMode:
    """Build the coefficient bundle for mode m.

    The first-order homogeneous weight C_m is fixed by requiring the
    correction to be purely outgoing at infinity:

        C_m = -g1 - exp(-i pi nu) g2
    """
    nu = _order_of(m, alpha_prime)
    g1, g2 = g1_g2(m, alpha_prime, params)  # rejects an order near an integer
    c_m = -g1 - _cis_pi(-nu) * g2
    return RadialMode(m=int(m), order=nu, a_m=_mode_prefactor(nu), c_m=c_m)


def mode_f0(z, m: int, alpha_prime: float):
    """Zeroth-order mode profile: A_m J_nu(z) with A_m = (-i)^nu.

    m must be a finite integral value and alpha' finite (DomainValidationError
    otherwise)."""
    nu = _order_of(m, alpha_prime)
    return _mode_prefactor(nu) * bessel_j(nu, z)


def mode_f1(z, m: int, alpha_prime: float, params: PhysicalParams):
    """First-order mode profile.

    f1 = (C_m + u(z)) J_nu(z) + v(z) J_{-nu}(z), with C_m fixed by the
    outgoing-wave condition. This is the coefficient of the deformation
    parameter, not the full wave function.

    Raises AccuracyError when a value is not finite: at large |m| and small
    z, J_{-nu} overflows (|m| = 150 at z = 0.5 does).
    """
    return _mode_profiles(z, m, alpha_prime, params)[1]


def _mode_profiles(z, m: int, alpha_prime: float, params: PhysicalParams):
    """(f0, f1) of mode m on z, as ``mode_f0`` and ``mode_f1`` give them, from
    one ``_F1Grid``: J_nu and J_{-nu} on z are rows of the order table u and
    v have filled, so the two profiles add no Miller sweep to the two per
    point set of ``uv_pair``."""
    grid = _F1Grid(z)
    mode = radial_mode(m, alpha_prime, params)
    u, v = _uv_on(grid, m, alpha_prime, params)
    j_nu = grid.on_z(mode.order)
    f1 = (mode.c_m + u) * j_nu + v * grid.on_z(-mode.order)
    if not np.all(np.isfinite(f1)):
        raise AccuracyError(
            f"mode_f1 is not finite at m = {m}, alpha' = {alpha_prime} on this z range "
            "(J_-nu overflows at large |m| and small z)"
        )
    return mode.a_m * j_nu, f1


# =====================================================================
# Finite-difference residual of the radial equation
# =====================================================================

def ode_residual(
    z: np.ndarray,
    values: np.ndarray,
    m: int,
    alpha_prime: float,
    k: float,
    which: str = "S1_zero",
    source_values: np.ndarray | None = None,
    hbar: float = 1.0,
) -> float:
    """Scale-invariant finite-difference residual of the radial equation.

    The radial operator in the scaled variable z = k r is

        S1 f = k^2 [ f'' + f'/z - (m + a')^2 f / z^2 + f ]

    ``which = "S1_zero"`` checks S1 f = 0 (zeroth-order modes);
    ``which = "S1_source"`` checks S1 f = source with

        source = 2 hbar^2 k^4 [ -(2 xi / z^2)(f0'/z - f0/z^2 + f0/2)
                                + eta f0 / z^4 ]

    where xi = a'(3m + 2a'), eta = a'^2 (m+a')(2m+a'), and f0 is supplied via
    ``source_values`` on the same grid (its derivative is also taken by
    central differences, keeping the whole check independent of Bessel
    derivative identities).

    Parameters
    ----------
    z : ndarray
        Uniform grid (spacing inferred; non-uniform grids are rejected).
    values : ndarray
        Samples of the mode being checked, finite.
    m, alpha_prime : mode labels, m a finite integral value and alpha'
        finite (DomainValidationError otherwise).
    k : float
        Wave number.
    which : {"S1_zero", "S1_source"}
    source_values : ndarray, optional
        f0 samples; required for "S1_source".
    hbar : float
        Enters the source normalisation only.

    Returns
    -------
    float
        max |residual| / max(sum of operator-term magnitudes) over interior
        points. Normalising by the operator scale makes the result invariant
        under the (arbitrary) mode normalisation and converges as O(h^2):
        halving the spacing divides it by ~4. Where the operator's terms
        overflow a double (a huge |m + a'|), AccuracyError.
    """
    z = np.asarray(z, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if z.ndim != 1 or z.shape != vals.shape or z.size < 5:
        raise DomainValidationError("ode_residual needs matching 1-d arrays, >= 5 samples")
    if not np.all(np.isfinite(vals)):
        raise DomainValidationError("ode_residual needs finite samples")
    steps = np.diff(z)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise DomainValidationError("ode_residual needs a uniform grid")
    if np.any(z <= 0.0):
        raise DomainValidationError("ode_residual grid must have z > 0")
    if which not in ("S1_zero", "S1_source"):
        raise DomainValidationError(f"unknown equation selector {which!r}")

    w = _order_of(m, alpha_prime)  # |m + a'|; only w^2 enters
    k2 = float(k) ** 2
    zi = z[1:-1]
    vi = vals[1:-1]
    d1 = _central_d1(vals, h)
    d2 = _central_d2(vals, h)
    # an overflowed operator term makes the scale non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = k2 * (d2 + d1 / zi - w * w * vi / (zi * zi) + vi)
        scale_terms = k2 * (
            np.abs(d2) + np.abs(d1) / zi + w * w * np.abs(vi) / (zi * zi) + np.abs(vi)
        )

        if which == "S1_zero":
            resid = lhs
        else:
            if source_values is None:
                raise DomainValidationError("S1_source needs source_values (f0 samples)")
            s0 = np.asarray(source_values, dtype=complex)
            if s0.shape != vals.shape or not np.all(np.isfinite(s0)):
                raise DomainValidationError("source_values must be finite and match the grid")
            coeffs = xi_coeffs(m, alpha_prime)
            eta = coeffs.xi_plus - 2.0 * coeffs.xi * (1.0 + w)
            s0i = s0[1:-1]
            s0p = _central_d1(s0, h)
            source = (
                2.0
                * hbar**2
                * k2**2
                * (
                    -(2.0 * coeffs.xi / zi**2) * (s0p / zi - s0i / zi**2 + 0.5 * s0i)
                    + eta * s0i / zi**4
                )
            )
            resid = lhs - source
            scale_terms = scale_terms + np.abs(source)

        scale = float(np.max(scale_terms))
    if not scale < math.inf:  # also nan
        raise AccuracyError(f"ode_residual overflows a double at m = {m}, alpha' = {alpha_prime}")
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(resid)) / scale)
