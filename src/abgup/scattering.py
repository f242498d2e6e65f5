"""Scattering amplitudes and cross sections for a magnetic flux line.

Two independent routes to the first-order amplitude correction are kept
deliberately separate:

* ``f1_series``  -- Abel-summed partial-wave sum over the per-mode
                    asymptotic constants (the brute-force oracle);
* ``f1_amp``     -- the closed hypergeometric form assembled by ``g_fn``.

The series route sums the w = m + alpha_prime > 0 side of the mode sum with
one helper, ``_abel_half``, at the Abel limit r = 1, and the w < 0 side as
the w > 0 side at (-phi, -alpha_prime), where the summands are the same:
201 explicit modes from w = 0 outwards (more next to forward) and the rest in
closed form, from the per-mode rational factor written as partial fractions
(a constant and three poles). The constant gives a geometric tail, and each pole a
Lerch tail q^(J+1) Phi(q, 1, a), taken from the Lerch integral (DLMF
25.14.5) on 40 Gauss-Laguerre nodes. The self-check ``regularized_alternating_gamma_sum``
runs the same helper with the factor set to 1, against a known closed form,
so it checks the code ``f1_series`` runs. The tails are exact, so the
explicit range is a module constant, not an option: more modes add only
rounding.

Each symmetry and each phase is written once. ``g_fn`` builds a negative
flux at its mirror point (-phi, -alpha_prime), where G takes the same value,
so ``f1_amp`` and ``dsigma`` are bitwise invariant under
(phi, alpha_prime) -> (-phi, -alpha_prime), the symmetry the deformation
keeps. Every phase e^{-i nu phi} of an angle times N or N + 1/2 comes from
``specfun._cis_neg``, which applies the exact remainder of the product, so
its accuracy does not fall with |N phi|; this module makes no ``cmath.exp``
call.

``dsigma`` evaluates the differential cross section per unit angle, either
as the squared modulus of the corrected amplitude or in the form linearized
in the deformation parameter; ``dsigma_integer_limits`` and ``width`` give
the one-sided limits and jump at integer flux. ``symmetry_probe`` measures
how the deformation breaks the two mirror symmetries of the undeformed
cross section.

Conventions: the flux parameter splits as alpha_prime = N + gamma with
N = floor(alpha_prime) and gamma in [0, 1). The angle phi is reduced to the
principal window (-pi, pi]; the amplitudes diverge at phi = +-pi (the
forward direction, which also carries an excluded delta-function term whose
weight is 1 - cos(pi alpha_prime)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ENDPOINT_BAND,
    AccuracyError,
    DomainValidationError,
    ForwardSingularityError,
    PhysicalParams,
    PoleError,
    flux_split,
    require_integral,
    require_noninteger,
    square,
)
from .specfun import _cis_neg, _cis_pi, hyp2f1_11

_PI_MARGIN = 1e-6          # amplitude evaluations: keep |phi| away from pi
_SERIES_PHI_MARGIN = 1e-3  # series route additionally needs phi away from 0
_LERCH_REACH = 8.0         # least distance a |1 - q| of a Lerch tail's pole from 0
# Explicit modes of each half of the series routes. Their tails are exact, so
# more modes add only rounding: worst gap to f1_amp on an 8 x 8 grid 1.7e-13 at
# 200, 5.1e-12 at 2000.
_EXPLICIT_MODES = 200
_LAGUERRE_V, _LAGUERRE_W = np.polynomial.laguerre.laggauss(40)
_PHI_ABS_MAX = 1e6         # largest |phi| taken as an angle; doubles there are 1.2e-10 apart


# =====================================================================
# Angle and parameter helpers
# =====================================================================

def _principal(phi: float) -> float:
    """Reduce an angle to the principal window (-pi, pi].

    The assembled amplitudes are 2 pi periodic (the half-angle factors and
    the e^{-i N phi} phases flip sign together), so the reduction is exact.
    An angle that is not finite or exceeds 1e6 in magnitude raises
    DomainValidationError: neighbouring doubles are 1.2e-10 apart at 1e6 and
    ever further beyond it, so a larger value no longer fixes an angle to
    the accuracy the amplitudes carry.
    """
    t = float(phi)
    if not abs(t) <= _PHI_ABS_MAX:  # also rejects nan and +-inf
        raise DomainValidationError(
            f"phi must be finite with |phi| <= {_PHI_ABS_MAX:g}, got {t}"
        )
    t = math.fmod(t, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


def _check_away_from_pi(phi: float, margin: float) -> float:
    t = _principal(phi)
    if math.pi - abs(t) < margin:
        raise ForwardSingularityError(
            f"phi = {phi} is within {margin} of the forward direction +-pi, "
            "where the amplitude diverges and a delta-function term "
            "(weight 1 - cos(pi alpha')) is excluded from the pointwise value"
        )
    return t


def _sqrt_2pi_ik(k: float) -> complex:
    """Principal square root of 2 pi i k (k > 0)."""
    return math.sqrt(2.0 * math.pi * k) * _cis_pi(0.25)


def _finite(value, what: str):
    """``value`` (float or complex) if finite; AccuracyError otherwise, where
    the parameters push it past the double range."""
    if not cmath.isfinite(value):
        raise AccuracyError(f"{what} is not finite at these parameters (overflow)")
    return value


# =====================================================================
# Zeroth order amplitude
# =====================================================================

def f0_amp(phi: float, alpha_prime: float, k: float = 1.0) -> complex:
    """Unperturbed scattering amplitude.

        f0 = (1/sqrt(2 pi i k)) (-i) (-1)^N sin(pi alpha')
             e^{-i(N + 1/2) phi} / cos(phi/2)

    from e^{-iN(phi - pi)} e^{-i phi/2}, with e^{iN pi} = (-1)^N. The sine
    comes from ``specfun._cis_pi``, which reduces alpha' exactly to its
    nearest integer first, so it keeps full relative accuracy next to integer
    flux and integer flux returns exactly 0 (the reflectionless case). The
    phase is one ``specfun._cis_neg``, so f0 is bitwise invariant under
    (phi, alpha') -> (-phi, -alpha'). Where sin(pi alpha') is 0, which holds
    for every |alpha'| >= 2^52, f0 returns 0 before it forms the phase.

    Parameters
    ----------
    phi : float
        Observation angle; any finite value, reduced mod 2 pi. Must stay
        1e-6 away from the forward direction +-pi.
    alpha_prime : float
        Flux parameter.
    k : float
        Wave number, finite and > 0.

    Returns
    -------
    complex
    """
    if not 0.0 < k < math.inf:  # also nan
        raise DomainValidationError(f"wave number must be finite and positive, got {k}")
    t = _check_away_from_pi(phi, _PI_MARGIN)
    split = flux_split(alpha_prime)
    n = split.n_part
    sin_a = _cis_pi(split.alpha_prime).imag
    if sin_a == 0.0:
        return 0.0 + 0.0j
    num = -1j * ((-1.0) ** n * sin_a) * _cis_neg(n + 0.5, t)
    return num / (math.cos(0.5 * t) * _sqrt_2pi_ik(k))


# =====================================================================
# Per-mode asymptotic constant (closed form with gamma reflection)
# =====================================================================

def _bracket_fractions(alpha_prime: float) -> tuple[float, tuple[tuple[float, float], ...]]:
    """The partial fractions (C, ((p, c_p), ...)) of the rational factor

        B(w) = C + sum_p c_p / (w - p)
             = 6 a' - 2 a'^2 / w - a'^2 (1 - a'/2) / (w - 1) - a'^2 (1 + a'/2) / (w + 1)

    shared by g2m and the series summands (the g2m bracket divided through
    by w): the constant 6 a' and the poles w = 0, 1, -1.
    """
    a = alpha_prime
    return 6.0 * a, (
        (0.0, -2.0 * a * a),
        (1.0, -a * a * (1.0 - 0.5 * a)),
        (-1.0, -a * a * (1.0 + 0.5 * a)),
    )


def _mode_bracket(w, fractions):
    """B(w) = C + sum_p c_p / (w - p) for ``fractions`` = (C, ((p, c_p), ...)),
    as ``_bracket_fractions`` gives them; element-wise, summed left to right."""
    const, poles = fractions
    out = const
    for p, c in poles:
        out = out + c / (w - p)
    return out


def g2m(m: int, alpha_prime: float, params: PhysicalParams) -> complex:
    """Large-radius constant of the first-order mode, closed form.

        g2m = -e^{-i pi nu / 2} (hbar^2 k^2 / 4) Gamma(w) Gamma(-w)
              [ -2 a'^2 + 6 a' w + a'^2 w ((1-a'/2)/(1-w) - (1+a'/2)/(1+w)) ]

    with w = m + alpha' and nu = |w|. The gamma pair is evaluated through
    the reflection identity Gamma(w)Gamma(-w) = -pi / (w sin(pi w)), with
    sin(pi w) = (-1)^m sin(pi alpha'), so the value stays finite for |m| far
    beyond direct-gamma overflow. sin(pi alpha') and the phase come from
    ``specfun._cis_pi``, which keeps their relative accuracy next to integer
    alpha'.

    Raises
    ------
    DomainValidationError
        If m is not a finite integral value.
    PoleError
        If m + alpha' is within 1e-6 of an integer.
    """
    m = require_integral(m, "g2m: m")
    w = m + float(alpha_prime)
    require_noninteger(w, "g2m: m + alpha'", PoleError)
    nu = abs(w)
    hk2 = square(params.hbar * params.k)
    sin_pw = (-1.0) ** m * _cis_pi(float(alpha_prime)).imag
    gamma_pair = -math.pi / (w * sin_pw)
    return (
        -_cis_pi(-0.5 * nu)
        * (hk2 / 4.0)
        * gamma_pair
        * (w * _mode_bracket(w, _bracket_fractions(alpha_prime)))
    )


# =====================================================================
# Partial-wave series at r = 1 (oracle route)
# =====================================================================

def _lerch_tail(q: complex, b: float, j_cut: int) -> complex:
    """sum_{j > j_cut} q^j / (j + b), Abel-summed, for |q| = 1 and q != 1.

    With a = j_cut + 1 + b > 0 the sum is q^(j_cut+1) Phi(q, 1, a), and the
    Lerch integral (DLMF 25.14.5) after u = v/a gives

        Phi(q, 1, a) = (1/a) int_0^inf e^(-v) / (1 - q e^(-v/a)) dv,

    taken on the 40 Gauss-Laguerre nodes. The integrand's pole lies
    a |1 - q| from the origin. Against mpmath's ``lerchphi`` at 40 digits the
    rule reads at most 3e-14 from a |1 - q| = 6 upward, 1e-10 at 2 and 1e-3
    at 0.2; ``_abel_half`` starts every tail at a |1 - q| >= 8.
    """
    a = j_cut + 1 + b
    rule = np.sum(_LAGUERRE_W / (1.0 - q * np.exp(-_LAGUERRE_V / a)))
    return q ** (j_cut + 1) * complex(rule) / a


def _abel_half(t: float, alpha_prime: float, fractions) -> complex:
    """The w > 0 side of the bilateral mode sum, Abel-summed at r = 1.

    Sums e^{i m t} Gamma(w) Gamma(-w) w B(w) over the modes with
    w = m + a' > 0, with B given by its partial fractions, ``fractions`` =
    (C, ((p, c_p), ...)) as ``_mode_bracket`` reads them. Indexed from
    w = gamma by j = m + N >= 0, w = j + gamma and, with q = -e^{it}, the
    summand is
    -(pi / sin(pi a')) (-1)^N e^{-iNt} q^j B(j + gamma). So the sum is that
    factor times sum_j q^j B(j + gamma), explicit to j = J and beyond it in
    closed form: C gives the geometric tail C q^(J+1) / (1 - q), and each pole
    c_p _lerch_tail(q, gamma - p, J). Both phases, q and e^{-iNt}, come from
    ``specfun._cis_neg``; q is bitwise -e^{it}.

    J = max(_EXPLICIT_MODES, ceil(8 / |1 - q|) + 2), with _EXPLICIT_MODES =
    200, puts every Lerch tail where a |1 - q| >= 8, in reach of its 40 nodes;
    it exceeds 200 only within about 0.04 of forward. It does not depend on N.
    Both tails are exact Abel sums, so the result does not depend on the
    cutoff.

    The w < 0 side is this one mirrored. With m -> -m, its summand at (t, a')
    is the w > 0 summand at (-t, -a'): B_a'(-u) = -B_-a'(u) and
    sin(-pi a') = -sin(pi a'), and the two sign flips cancel. So it is
    ``_abel_half(-t, -a', _bracket_fractions(-a'))``.
    """
    split = flux_split(alpha_prime)
    n, gamma = split.n_part, split.gamma_part
    const, poles = fractions
    q = -_cis_neg(-1.0, t)
    cut = max(_EXPLICIT_MODES, math.ceil(_LERCH_REACH / abs(1.0 - q)) + 2)
    js = np.arange(cut + 1, dtype=float)
    powers = np.where(np.mod(js, 2.0) == 0.0, 1.0, -1.0) * np.exp(1j * js * t)  # q^j
    explicit = complex(np.sum(powers * _mode_bracket(js + gamma, fractions)))
    tail = const * q ** (cut + 1) / (1.0 - q)
    for p, c in poles:
        tail = tail + c * _lerch_tail(q, gamma - p, cut)
    scale = -(math.pi / _cis_pi(split.alpha_prime).imag) * (-1.0) ** n * _cis_neg(n, t)
    return scale * (explicit + tail)


def _series_angle(phi: float, alpha_prime: float, what: str) -> float:
    """The principal angle of a regularized-series call, after the checks the
    series routes share: non-integer flux, and phi away from +-pi and from 0."""
    require_noninteger(alpha_prime, f"{what}: alpha'", PoleError)
    t = _check_away_from_pi(phi, _SERIES_PHI_MARGIN)
    if abs(t) < _SERIES_PHI_MARGIN:
        raise DomainValidationError(
            f"phi = {phi} is within {_SERIES_PHI_MARGIN} of 0; at half-integer flux f1 "
            "itself vanishes there, linearly in phi, so the oracle's relative gap to "
            "f1_amp stops measuring anything"
        )
    return t


def f1_series(phi: float, alpha_prime: float, params: PhysicalParams) -> complex:
    """First-order amplitude by Abel-summed partial-wave summation.

    The bilateral mode sum is evaluated at r = 1, each side of w = m + a' = 0
    by ``_abel_half``, the w < 0 side as the w > 0 side at (-phi, -a'):
    201 explicit modes on each side, counted from w = 0 outwards (more next
    to forward), plus the exact Abel tails, the geometric one
    closed and the Lerch ones on Gauss-Laguerre nodes. The cost does not
    grow with |a'|. The per-mode summands do not decay in |m| (their
    magnitude approaches a constant), so the bare partial sums oscillate;
    the Abel tails supply their limit. It shares no code with ``g_fn`` or
    ``hyp2f1_11``.

    This is the independent oracle that arbitrates ``f1_amp``; on an 8 x 8
    grid of alpha' in [-1.7, 3.6] and phi in [-2.8, 2.9] the two agree to
    1.7e-13 relative, and at alpha' = 1e6 + 0.3 to 3e-16.

    Parameters
    ----------
    phi : float
        Observation angle, at least 1e-3 away from both 0 and +-pi.
    alpha_prime : float
        Non-integer flux parameter.
    params : PhysicalParams
        Supplies hbar and k.
    """
    t = _series_angle(phi, alpha_prime, "f1_series")
    a = float(alpha_prime)
    # sin(pi gamma) e^{-+i pi gamma} = sin(pi alpha') e^{-+i pi alpha'}
    rot_k = _cis_pi(a)
    rot_j = rot_k.conjugate()
    hk2 = square(params.hbar * params.k)
    pref = -0.5j * hk2 * rot_k.imag / _sqrt_2pi_ik(params.k)
    half_j = _abel_half(t, a, _bracket_fractions(a))
    half_k = _abel_half(-t, -a, _bracket_fractions(-a))  # the w < 0 side
    return pref * (rot_j * half_j - rot_k * half_k)


def regularized_alternating_gamma_sum(phi: float, alpha_prime: float) -> complex:
    """Abel-regularized sum of e^{i m phi} Gamma(1+m+a') Gamma(-m-a') over
    the modes with m + a' > 0.

    A check of the series machinery ``f1_series`` runs: the same
    ``_abel_half`` at r = 1, explicit modes and analytic tail, on its w > 0
    side with the bracket set to 1 (Gamma(1+w) Gamma(-w) = w Gamma(w)
    Gamma(-w)), so the tail is the geometric one alone and exact. The
    regularized sum has the known closed form
    -pi e^{-i(N+1/2)phi} / (2 sin(pi gamma) cos(phi/2)).
    """
    t = _series_angle(phi, alpha_prime, "regularized_alternating_gamma_sum")
    return _abel_half(t, alpha_prime, (1.0, ()))


# =====================================================================
# Closed hypergeometric form
# =====================================================================

@dataclass(frozen=True)
class GValue:
    """Closed-form correction kernel G and the locus point x it was built at.

    x = e^{i phi/2} / (2 cos(phi/2)) = (1 + i tan(phi/2))/2, so Re x = 1/2
    identically; the conjugate point 1 - x = x* hosts the second argument
    family.
    """

    g: complex
    x: complex


def g_fn(alpha_prime: float, phi: float) -> GValue:
    """Assemble the correction kernel G(alpha', phi).

    Six hypergeometric evaluations F(c; .) = 2F1(1, 1; c; .) at the locus
    point x and its conjugate, with c running over gamma-shifted values:

        G = 2 a'^2 [ e^{i pi g}/(1-g) F(2-g; x*) - e^{-i pi g}/g F(1+g; x) ]
            + 12 a' cos(pi g)
            + a'^2 (1-a'/2) [ e^{i pi g}/(2-g) F(3-g; x*)
                              + e^{-i pi g}/(1-g) F(g; x) ]
            - a'^2 (1+a'/2) [ e^{i pi g}/g F(1-g; x*)
                              + e^{-i pi g}/(1+g) F(2+g; x) ]

    with g = gamma the fractional part of alpha'. gamma * G stays finite as
    gamma -> 0 (the two 1/gamma terms combine), which is what produces the
    finite integer-flux limits of the cross section.

    The mirror rule: G(alpha', phi) = G(-alpha', -phi), and x(-phi) = x*. So
    an alpha' < 0 is built at (|alpha'|, x*), with the six F there, and G is
    bitwise the same at both points of a mirror pair. ``GValue.x`` stays the
    caller's x.

    Returns
    -------
    GValue
        The kernel value and the locus point x.
    """
    require_noninteger(alpha_prime, "g_fn: alpha'", PoleError)
    t = _check_away_from_pi(phi, _PI_MARGIN)
    a = float(alpha_prime)
    x0 = 0.5 * (1.0 + 1j * math.tan(0.5 * t))
    # the mirror rule: G(a', phi) = G(-a', -phi) and x(-phi) = x*
    a, x = (a, x0) if a > 0.0 else (-a, x0.conjugate())
    xc = x.conjugate()
    gamma = flux_split(a).gamma_part
    e_plus = _cis_pi(gamma)
    e_minus = e_plus.conjugate()

    g = (
        2.0 * a * a * (
            e_plus / (1.0 - gamma) * hyp2f1_11(2.0 - gamma, xc)
            - e_minus / gamma * hyp2f1_11(1.0 + gamma, x)
        )
        + 12.0 * a * e_plus.real
        + a * a * (1.0 - 0.5 * a) * (
            e_plus / (2.0 - gamma) * hyp2f1_11(3.0 - gamma, xc)
            + e_minus / (1.0 - gamma) * hyp2f1_11(gamma, x)
        )
        - a * a * (1.0 + 0.5 * a) * (
            e_plus / gamma * hyp2f1_11(1.0 - gamma, xc)
            + e_minus / (1.0 + gamma) * hyp2f1_11(2.0 + gamma, x)
        )
    )
    return GValue(g=g, x=x0)


def f1_amp(phi: float, alpha_prime: float, params: PhysicalParams) -> complex:
    """First-order amplitude, closed hypergeometric form.

        f1 = i pi hbar^2 k^2 e^{-i(N + 1/2) phi}
             / (4 cos(phi/2) sqrt(2 pi i k)) * G(alpha', phi)

    Must agree with the ``f1_series`` oracle; their independent code paths
    (gamma reflection sums vs contiguous-shifted 2F1 values) are
    the main cross-validation of this module. The phase is one
    ``specfun._cis_neg``, exact in the product (N + 1/2) phi, and with
    ``g_fn``'s mirror rule f1 is bitwise invariant under
    (phi, alpha') -> (-phi, -alpha').
    """
    t = _check_away_from_pi(phi, _PI_MARGIN)
    kernel = g_fn(alpha_prime, t)
    n = flux_split(alpha_prime).n_part
    hk2 = square(params.hbar * params.k)
    pref = (
        1j * math.pi * hk2 * _cis_neg(n + 0.5, t)
        / (4.0 * math.cos(0.5 * t) * _sqrt_2pi_ik(params.k))
    )
    return _finite(pref * kernel.g, "f1_amp")


# =====================================================================
# Cross section
# =====================================================================

def dsigma_integer_limits(n: int, phi: float, params: PhysicalParams) -> tuple[float, float]:
    """One-sided integer-flux limits of the cross section at alpha' = n.

        upper (alpha' -> n from above):
            beta (pi hbar^2 k n^2 / 2) [ 2(n-2) cos^2(phi/2) + 6 - n ]
        lower (alpha' -> n from below):
            beta (pi hbar^2 k n^2 / 2) [ n + 6 - 2(n+2) cos^2(phi/2) ]

    Both vanish identically at n = 0 and at beta = 0. With s = sin^2(phi/2)
    they are formed as (n + 2) - 2(n - 2) s and (2 - n) + 2(n + 2) s, which
    cancel nowhere: at n = 2 the lower bracket is 8 s, not 8 - 8 cos^2(phi/2).
    An n that is not a finite integral value raises DomainValidationError.
    """
    n = require_integral(n, "dsigma_integer_limits: n")
    s2 = math.sin(0.5 * _principal(phi)) ** 2
    scale = params.beta * math.pi * square(params.hbar) * params.k * n * n / 2.0
    upper = scale * ((n + 2.0) - 2.0 * (n - 2.0) * s2)
    lower = scale * ((2.0 - n) + 2.0 * (n + 2.0) * s2)
    return _finite(upper, "dsigma_integer_limits"), _finite(lower, "dsigma_integer_limits")


def width(n: int, phi: float, params: PhysicalParams) -> float:
    """Jump of the cross section across integer flux alpha' = n.

    Computed as |upper - lower| from ``dsigma_integer_limits`` (same code
    path), which equals beta pi hbar^2 k n^3 |2 cos^2(phi/2) - 1| identically.
    """
    upper, lower = dsigma_integer_limits(n, phi, params)
    return abs(upper - lower)


def dsigma(
    phi: float,
    alpha_prime: float,
    params: PhysicalParams,
    form: str = "linearized",
) -> float:
    """Differential cross section per unit angle.

    Forms
    -----
    ``linearized`` (default):
        sin(pi gamma) [ sin(pi gamma) - beta (pi hbar^2 k^2 / 2) Re G ]
        / (2 pi k cos^2(phi/2))
    ``modulus``:
        | sin(pi gamma) - (pi hbar^2 k^2 beta / 4) G |^2
        / (2 pi k cos^2(phi/2))

    The two agree to O(beta^2). The linearized form is the default because
    it has the correct one-sided limits at integer flux: in the modulus
    form the |G|^2 piece diverges as gamma -> 0 at fixed beta, an artifact
    of squaring the truncated amplitude.

    Routing near integer flux: within 1e-4 (``core.ENDPOINT_BAND``) of an
    integer the value is taken from ``dsigma_integer_limits``. At beta = 0
    the exact undeformed value sin^2(pi gamma)/(2 pi k cos^2) is returned
    directly, which is exactly 0 at integer flux.

    sin(pi gamma) = (-1)^N sin(pi alpha') is taken from alpha' itself by
    ``specfun._cis_pi``, not from the rounded gamma, so it keeps its relative
    accuracy next to integer flux. With ``g_fn``'s mirror rule the value is
    bitwise invariant under (phi, alpha') -> (-phi, -alpha') at every beta.

    A value past the double range (extreme hbar, k or beta) raises
    AccuracyError.
    """
    if form not in ("linearized", "modulus"):
        raise DomainValidationError(f"unknown cross-section form {form!r}")
    t = _check_away_from_pi(phi, _PI_MARGIN)
    split = flux_split(alpha_prime)
    n, gamma = split.n_part, split.gamma_part
    k = params.k
    c2 = math.cos(0.5 * t) ** 2
    sin_g = (-1.0) ** n * _cis_pi(split.alpha_prime).imag  # sin(pi gamma), from alpha'

    if params.beta == 0.0:
        val = sin_g * sin_g / (2.0 * math.pi * k * c2)
    elif gamma < ENDPOINT_BAND:
        val = dsigma_integer_limits(n, t, params)[0]
    elif 1.0 - gamma < ENDPOINT_BAND:
        val = dsigma_integer_limits(n + 1, t, params)[1]
    else:
        kernel = g_fn(alpha_prime, t)
        hk2 = square(params.hbar * k)
        if form == "modulus":
            amp = sin_g - (math.pi * hk2 * params.beta / 4.0) * kernel.g
            val = square(abs(amp)) / (2.0 * math.pi * k * c2)
        else:
            val = (
                sin_g
                * (sin_g - params.beta * (math.pi * hk2 / 2.0) * kernel.g.real)
                / (2.0 * math.pi * k * c2)
            )
    return _finite(val, "dsigma")


def symmetry_probe(
    alpha_prime: float,
    theta: float,
    params: PhysicalParams,
) -> tuple[float, float]:
    """Measure the two mirror symmetries of the linearized cross section.

    Returns
    -------
    (delta_pi_symmetry, pm_phi_asymmetry):
        |dsigma(pi - theta) - dsigma(pi + theta)| and
        |dsigma(theta) - dsigma(-theta)|.

    Both vanish at beta = 0, where the cross section depends on phi only
    through cos^2(phi/2); the deformation kernel G breaks both.
    """
    theta = float(theta)
    if not _SERIES_PHI_MARGIN < theta < math.pi - _SERIES_PHI_MARGIN:
        raise DomainValidationError(
            f"theta = {theta} outside ({_SERIES_PHI_MARGIN}, pi - {_SERIES_PHI_MARGIN})"
        )
    d_back = dsigma(math.pi - theta, alpha_prime, params)
    d_fwd = dsigma(math.pi + theta, alpha_prime, params)
    d_plus = dsigma(theta, alpha_prime, params)
    d_minus = dsigma(-theta, alpha_prime, params)
    return abs(d_back - d_fwd), abs(d_plus - d_minus)


# =====================================================================
# Bundled sample
# =====================================================================

@dataclass(frozen=True)
class ScatterSample:
    """One evaluated scattering configuration.

    ``f1`` is the coefficient of the deformation parameter (the corrected
    amplitude is f0 + beta f1); ``dsigma`` is the cross section in the
    requested form at the beta carried by the parameters used to build the
    sample.
    """

    alpha_prime: float
    phi: float
    beta: float
    f0: complex
    f1: complex
    dsigma: float


def scatter_sample(
    phi: float,
    alpha_prime: float,
    params: PhysicalParams,
    form: str = "modulus",
) -> ScatterSample:
    """Evaluate amplitudes and cross section at one configuration.

    Uses the closed-form amplitude route; the modulus form is the default
    here so the stored cross section is the literal squared magnitude of
    the truncated amplitude (hence nonnegative). Raises PoleError at
    integer flux, where f1 has a pole (callers scanning grids should catch
    and skip).
    """
    t = _check_away_from_pi(phi, _PI_MARGIN)
    f0 = f0_amp(t, alpha_prime, params.k)
    f1 = f1_amp(t, alpha_prime, params)
    ds = dsigma(t, alpha_prime, params, form=form)
    return ScatterSample(
        alpha_prime=float(alpha_prime),
        phi=t,
        beta=params.beta,
        f0=f0,
        f1=f1,
        dsigma=float(ds),
    )
