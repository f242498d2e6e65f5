"""Scattering amplitudes and cross sections for a magnetic flux line.

Two independent routes to the first-order amplitude correction are kept
deliberately separate:

* ``f1_series``  -- Abel-regularized partial-wave sum over the per-mode
                    asymptotic constants (the brute-force oracle);
* ``f1_amp``     -- the closed hypergeometric form assembled by ``g_fn``.

The series route sums each side of the mode sum (w = m + alpha_prime > 0
and w < 0) with one helper, ``_abel_half``: explicit modes to |m| = m_max
and the rest in closed form, from the per-mode rational factor written as
partial fractions (a constant and three poles). The self-check
``regularized_alternating_gamma_sum`` runs the same helper with the factor
set to 1, against a known closed form, so it checks the code ``f1_series``
runs.

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
from typing import Callable

import numpy as np

from .core import (
    ENDPOINT_BAND,
    AccuracyError,
    DomainValidationError,
    ForwardSingularityError,
    PhysicalParams,
    PoleError,
    flux_split,
    require_noninteger,
    square,
)
from .specfun import gamma_fn, hyp2f1_11

_PI_MARGIN = 1e-6          # amplitude evaluations: keep |phi| away from pi
_SERIES_PHI_MARGIN = 1e-3  # series route additionally needs phi away from 0
_ABEL_R = (0.99, 0.995, 0.9975)  # Abel regulators, extrapolated to r = 1
_TAIL_FLOOR = 1e-18        # truncate Abel tails at this fraction of the leading term
_TAIL_CAP = 400_000        # hard cap on tail length (hit only for r very close to 1)
_LADDER_REL_TOL = 1e-3     # extrapolation correction above this flags non-convergence
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
    return math.sqrt(2.0 * math.pi * k) * cmath.exp(0.25j * math.pi)


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

        f0 = (1/sqrt(2 pi i k)) (-i) e^{-iN(phi-pi)} sin(pi alpha')
             e^{-i phi/2} / cos(phi/2)

    The sine is evaluated as (-1)^N sin(pi gamma) with the exact fractional
    split, so integer flux returns exactly 0 (the reflectionless case).

    Parameters
    ----------
    phi : float
        Observation angle; any finite value, reduced mod 2 pi. Must stay
        1e-6 away from the forward direction +-pi.
    alpha_prime : float
        Flux parameter.
    k : float
        Wave number, > 0.

    Returns
    -------
    complex
    """
    if k <= 0.0:
        raise DomainValidationError(f"wave number must be positive, got {k}")
    t = _check_away_from_pi(phi, _PI_MARGIN)
    split = flux_split(alpha_prime)
    n = split.n_part
    sin_a = (-1.0) ** n * math.sin(math.pi * split.gamma_part)
    if sin_a == 0.0:
        return 0.0 + 0.0j
    num = -1j * cmath.exp(-1j * n * (t - math.pi)) * sin_a * cmath.exp(-0.5j * t)
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
    sin(pi w) = (-1)^m sin(pi alpha') taken exactly, so the value stays
    finite for |m| far beyond direct-gamma overflow.

    Raises
    ------
    PoleError
        If m + alpha' is within 1e-6 of an integer.
    """
    w = float(m) + float(alpha_prime)
    require_noninteger(w, "g2m: m + alpha'", PoleError)
    nu = abs(w)
    hk2 = square(params.hbar * params.k)
    split = flux_split(alpha_prime)
    sin_pw = (-1.0) ** int(m) * math.sin(math.pi * split.gamma_part) * (-1.0) ** split.n_part
    gamma_pair = -math.pi / (w * sin_pw)
    return (
        -cmath.exp(-0.5j * math.pi * nu)
        * (hk2 / 4.0)
        * gamma_pair
        * (w * _mode_bracket(w, _bracket_fractions(alpha_prime)))
    )


# =====================================================================
# Abel-regularized partial-wave series (oracle route)
# =====================================================================

def _lerch_tail(q: complex, b: float, j_cut: int) -> complex:
    """sum_{j > j_cut} q^j / (j + b) for |q| < 1 by direct summation.

    The geometric envelope bounds the truncation: terms are cut once
    |q|^j falls below _TAIL_FLOOR relative to the first kept term.
    """
    r = abs(q)
    if r >= 1.0:
        raise DomainValidationError("Abel tail needs |q| < 1")
    length = min(int(math.log(_TAIL_FLOOR) / math.log(r)) + 1, _TAIL_CAP)
    js = np.arange(j_cut + 1, j_cut + 1 + length, dtype=float)
    powers = np.exp(js * cmath.log(q))
    return complex(np.sum(powers / (js + b)))


def _abel_half(
    t: float, alpha_prime: float, r: float, m_max: int, fractions, upper: bool
) -> complex:
    """One side of the bilateral mode sum at one Abel regulator r.

    Sums r^|m| e^{i m t} Gamma(w) Gamma(-w) w B(w), w = m + a', over the
    modes with w > 0 (``upper``: m = -N .. m_max) or with w < 0 (m = -m_max
    .. -N-1). B is given by its partial fractions, ``fractions`` = (C, ((p,
    c_p), ...)) as ``_mode_bracket`` reads them. The modes are summed
    explicitly to |m| = m_max and beyond it in closed form:

    * w > 0, in j = m + N > m_max + N: w = j + gamma, so the summand is a
      factor times q^j B(j + gamma) with q = -r e^{it}. C gives the
      geometric tail and each pole c_p _lerch_tail(q, gamma - p).
    * w < 0, in l = -m - N - 1 > m_max - N - 1: w = -(l + 1 - gamma), and
      with q = -r e^{-it} C gives the geometric tail and each pole
      -c_p _lerch_tail(q, 1 + p - gamma).
    """
    split = flux_split(alpha_prime)
    n, gamma = split.n_part, split.gamma_part
    sigma = (-1.0) ** n * math.sin(math.pi * gamma)  # sin(pi alpha'), exact split
    const, poles = fractions
    if upper:
        ms = np.arange(-n, m_max + 1, dtype=float)
        q = -r * cmath.exp(1j * t)
        cut = m_max + n
        scale = -(math.pi / sigma) * cmath.exp(-1j * n * t) * (-1.0) ** n * r ** (-n)
        lerch = [(c, gamma - p) for p, c in poles]
    else:
        ms = np.arange(-m_max, -n, dtype=float)
        q = -r * cmath.exp(-1j * t)
        cut = m_max - n - 1
        scale = (-1.0) ** n * (math.pi / sigma) * cmath.exp(-1j * (n + 1) * t) * r ** (n + 1)
        lerch = [(-c, (1.0 + p) - gamma) for p, c in poles]
    signs = np.where(np.mod(ms, 2.0) == 0.0, 1.0, -1.0)
    gamma_pair = -signs * math.pi / sigma  # Gamma(w) Gamma(-w) w = -pi / sin(pi w)
    weights = r ** np.abs(ms) * np.exp(1j * ms * t)
    explicit = complex(np.sum(weights * gamma_pair * _mode_bracket(ms + alpha_prime, fractions)))
    tail = const * q ** (cut + 1) / (1.0 - q)
    for c, b in lerch:
        tail = tail + c * _lerch_tail(q, b, cut)
    return explicit + scale * tail


def _series_at_r(t: float, alpha_prime: float, r: float, m_max: int) -> tuple[complex, complex]:
    """(S_J, S_K): the w > 0 and w < 0 partial-wave sums of ``f1_series`` at
    one Abel regulator r, each with its infinite tail beyond |m| = m_max."""
    fractions = _bracket_fractions(alpha_prime)
    return (
        _abel_half(t, alpha_prime, r, m_max, fractions, True),
        _abel_half(t, alpha_prime, r, m_max, fractions, False),
    )


def _series_angle(phi: float, alpha_prime: float, m_max: int, what: str) -> float:
    """The principal angle of a regularized-series call, after the checks the
    series routes share: non-integer flux, m_max >= 200, and phi away from
    +-pi and from 0."""
    require_noninteger(alpha_prime, f"{what}: alpha'", PoleError)
    if not m_max >= 200:
        raise DomainValidationError(f"m_max must be >= 200, got {m_max}")
    t = _check_away_from_pi(phi, _SERIES_PHI_MARGIN)
    if abs(t) < _SERIES_PHI_MARGIN:
        raise DomainValidationError(
            f"phi = {phi} is within {_SERIES_PHI_MARGIN} of 0; the regularized series "
            "loses its oscillatory convergence there"
        )
    return t


def _neville_to_zero(hs: list[float], ys: list[complex]) -> tuple[complex, float]:
    """Polynomial extrapolation of (h, y) samples to h = 0.

    Returns (value, correction) where correction is the magnitude of the
    final Neville update, a working error estimate for the ladder.
    """
    level = list(ys)
    prev_best = level[-1]
    for step in range(1, len(hs)):
        nxt = []
        for i in range(len(hs) - step):
            num = -hs[i + step] * level[i] + hs[i] * level[i + 1]
            nxt.append(num / (hs[i] - hs[i + step]))
        prev_best = level[-1]
        level = nxt
    return level[0], abs(level[0] - prev_best)


def _abel_limit(value_at: Callable[[float], complex], where: str) -> complex:
    """Extrapolate ``value_at(r)`` over the Abel ladder to r = 1 by a
    Neville polynomial in 1 - r.

    Raises AccuracyError, with the per-r values in the message, if the
    extrapolation correction exceeds 1e-3 of the result.
    """
    ys = [value_at(r) for r in _ABEL_R]
    value, corr = _neville_to_zero([1.0 - r for r in _ABEL_R], ys)
    if corr > _LADDER_REL_TOL * (abs(value) + 1e-12):
        detail = ", ".join(f"r={r}: {y}" for r, y in zip(_ABEL_R, ys))
        raise AccuracyError(
            f"Abel ladder did not converge {where}: "
            f"correction {corr:.3e} vs value {abs(value):.3e} [{detail}]"
        )
    return value


def f1_series(
    phi: float,
    alpha_prime: float,
    params: PhysicalParams,
    m_max: int = 2000,
) -> complex:
    """First-order amplitude by Abel-regularized partial-wave summation.

    For each regulator r of the ladder (0.99, 0.995, 0.9975) the bilateral
    mode sum (weighted by r^|m|) is evaluated explicitly to |m| = m_max plus
    its exact analytic tails, then the ladder is extrapolated to r = 1 by a
    Neville polynomial in 1 - r. The per-mode summands do not decay in |m|
    (their magnitude approaches a constant), which is why the bare partial
    sums oscillate and the Abel factor is required.

    This is the expensive-but-direct oracle that arbitrates ``f1_amp``.

    Parameters
    ----------
    phi : float
        Observation angle, at least 1e-3 away from both 0 and +-pi.
    alpha_prime : float
        Non-integer flux parameter.
    params : PhysicalParams
        Supplies hbar and k.
    m_max : int
        Bilateral cutoff, >= 200.

    Raises
    ------
    AccuracyError
        If the extrapolation correction exceeds 1e-3 of the result,
        with the per-r values in the message.
    """
    t = _series_angle(phi, alpha_prime, m_max, "f1_series")
    gamma = flux_split(alpha_prime).gamma_part
    hk2 = square(params.hbar * params.k)
    pref = -0.5j * hk2 * math.sin(math.pi * gamma) / _sqrt_2pi_ik(params.k)
    rot_j = cmath.exp(-1j * math.pi * gamma)
    rot_k = cmath.exp(1j * math.pi * gamma)

    def value_at(r: float) -> complex:
        s_j, s_k = _series_at_r(t, alpha_prime, r, int(m_max))
        return pref * (rot_j * s_j - rot_k * s_k)

    return _abel_limit(value_at, f"at phi={phi}, alpha'={alpha_prime}")


def regularized_alternating_gamma_sum(
    phi: float,
    alpha_prime: float,
    m_max: int = 2000,
) -> complex:
    """Abel-regularized sum of e^{i m phi} Gamma(1+m+a') Gamma(-m-a') over
    the modes with m + a' > 0.

    A check of the series machinery ``f1_series`` runs: the same
    ``_abel_half``, explicit modes and analytic tail, on its w > 0 side with
    the bracket set to 1 (Gamma(1+w) Gamma(-w) = w Gamma(w) Gamma(-w)), and
    the same extrapolation to r = 1. The regularized sum has the known closed
    form -pi e^{-i(N+1/2)phi} / (2 sin(pi gamma) cos(phi/2)). ``m_max``
    (>= 200) is the explicit cutoff, as in ``f1_series``.
    """
    t = _series_angle(phi, alpha_prime, m_max, "regularized_alternating_gamma_sum")
    return _abel_limit(
        lambda r: _abel_half(t, alpha_prime, r, int(m_max), (1.0, ()), True), "in the gamma sum"
    )


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

    Returns
    -------
    GValue
        The kernel value and the locus point x.
    """
    require_noninteger(alpha_prime, "g_fn: alpha'", PoleError)
    t = _check_away_from_pi(phi, _PI_MARGIN)
    a = float(alpha_prime)
    gamma = flux_split(alpha_prime).gamma_part

    x = 0.5 * (1.0 + 1j * math.tan(0.5 * t))
    xc = x.conjugate()
    e_plus = cmath.exp(1j * math.pi * gamma)
    e_minus = cmath.exp(-1j * math.pi * gamma)

    g = (
        2.0 * a * a * (
            e_plus / (1.0 - gamma) * hyp2f1_11(2.0 - gamma, xc)
            - e_minus / gamma * hyp2f1_11(1.0 + gamma, x)
        )
        + 12.0 * a * math.cos(math.pi * gamma)
        + a * a * (1.0 - 0.5 * a) * (
            e_plus / (2.0 - gamma) * hyp2f1_11(3.0 - gamma, xc)
            + e_minus / (1.0 - gamma) * hyp2f1_11(gamma, x)
        )
        - a * a * (1.0 + 0.5 * a) * (
            e_plus / gamma * hyp2f1_11(1.0 - gamma, xc)
            + e_minus / (1.0 + gamma) * hyp2f1_11(2.0 + gamma, x)
        )
    )
    return GValue(g=g, x=x)


def f1_amp(phi: float, alpha_prime: float, params: PhysicalParams) -> complex:
    """First-order amplitude, closed hypergeometric form.

        f1 = i pi hbar^2 k^2 e^{-i(N + 1/2) phi}
             / (4 cos(phi/2) sqrt(2 pi i k)) * G(alpha', phi)

    Must agree with the ``f1_series`` oracle; their independent code paths
    (gamma reflection sums vs contiguous-shifted continued fractions) are
    the main cross-validation of this module.
    """
    t = _check_away_from_pi(phi, _PI_MARGIN)
    kernel = g_fn(alpha_prime, t)
    n = flux_split(alpha_prime).n_part
    hk2 = square(params.hbar * params.k)
    pref = (
        1j * math.pi * hk2 * cmath.exp(-1j * (n + 0.5) * t)
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

    Both vanish identically at n = 0 and at beta = 0.
    """
    n = int(n)
    c2 = math.cos(0.5 * _principal(phi)) ** 2
    scale = params.beta * math.pi * square(params.hbar) * params.k * n * n / 2.0
    upper = scale * (2.0 * (n - 2.0) * c2 + 6.0 - n)
    lower = scale * (n + 6.0 - 2.0 * (n + 2.0) * c2)
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
    sin_g = math.sin(math.pi * gamma)

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
    form: str = "linearized",
) -> tuple[float, float]:
    """Measure the two mirror symmetries of the cross section.

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
    d_back = dsigma(math.pi - theta, alpha_prime, params, form=form)
    d_fwd = dsigma(math.pi + theta, alpha_prime, params, form=form)
    d_plus = dsigma(theta, alpha_prime, params, form=form)
    d_minus = dsigma(-theta, alpha_prime, params, form=form)
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
