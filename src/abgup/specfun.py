"""Scalar special functions built from scratch on top of numpy.

Everything the closed-form amplitude/radial paths need is implemented here
by hand so that comparisons against library routines (scipy, mpmath) and
against quadrature stay genuinely two-route:

* ``gamma_fn``   -- Lanczos approximation plus reflection.
* ``log_gamma``  -- log form of the same approximation (positive arguments).
* ``digamma``    -- recurrence into the asymptotic region plus Bernoulli tail.
* ``bessel_j``   -- J_nu for real order and z >= 0, vectorised over z, with an
                    ascending series / backward-recurrence / asymptotic split.
                    Negative orders come from ``_bessel_negative``, the one
                    downward order recurrence; the radial order table seeds it
                    from its own cached rows.
* ``hyp2f1_11``  -- 2F1(1, 1; c; x) via power series, Gauss continued fraction
                    and a contiguous downshift in c. The direct evaluations
                    are memoised (last 16, keyed on the exact (c, x)), so a
                    hit returns exactly what a fresh evaluation would.
* ``pfq_series`` -- generic hypergeometric sum with term-ratio stopping.

Branch switchovers are chosen so each branch runs well inside its comfort
zone; the overlaps are property-tested.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .core import AccuracyError, DomainValidationError, PoleError

# =====================================================================
# Gamma and friends
# =====================================================================

# Lanczos g = 7, 9-term coefficient set (double-precision classic).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _near_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    if x > 0.5:
        return False
    r = round(x)
    return r <= 0 and abs(x - r) < tol


def _lanczos_sum(x: float) -> float:
    """The rational Lanczos series shared by ``gamma_fn`` and ``log_gamma``."""
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (x - 1.0 + i)
    return acc


def _lanczos_core(x: float) -> float:
    """Gamma(x) for x >= 0.5 via the Lanczos sum.

    The power and exponential are combined into one exp() so arguments up to
    the overflow edge of Gamma itself (x ~ 171.6) stay representable. Beyond
    it the value overflows a double, which raises DomainValidationError.
    """
    t = x - 0.5 + _LANCZOS_G
    try:
        g = _SQRT_2PI * _lanczos_sum(x) * math.exp((x - 0.5) * math.log(t) - t)
    except OverflowError:
        g = math.inf
    if g == math.inf:
        raise DomainValidationError(
            f"Gamma({x}) overflows a double; gamma_fn needs about -170.6 < x < 171.6"
        )
    return g


def gamma_fn(x: float) -> float:
    """Gamma function for real argument.

    Parameters
    ----------
    x : float
        Any real number away from the poles at 0, -1, -2, ...

    Returns
    -------
    float

    Raises
    ------
    PoleError
        If x is within 1e-12 of a non-positive integer.
    DomainValidationError
        If x is not finite, or if Gamma(x) (x >= 0.5) or the reflection's
        Gamma(1 - x) (x < 0.5) overflows a double: x above about 171.6 or
        below about -170.6.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainValidationError(f"gamma_fn argument must be finite, got {x}")
    if _near_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at non-positive integer, x = {x}")
    if x >= 0.5:
        return _lanczos_core(x)
    # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). With n = round(x) the
    # remainder r = x - n is exact and sin(pi x) = (-1)^n sin(pi r), which keeps
    # its full relative accuracy next to the poles, where pi * x would not.
    n = round(x)
    s = math.sin(math.pi * (x - n))
    if n % 2:
        s = -s
    return math.pi / (s * _lanczos_core(1.0 - x))


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (no reflection branch needed)."""
    x = float(x)
    if not (x > 0.0):
        raise DomainValidationError(f"log_gamma needs x > 0, got {x}")
    if x >= 0.5:
        acc = _lanczos_sum(x)
        t = x - 0.5 + _LANCZOS_G
        return 0.5 * math.log(2.0 * math.pi) + (x - 0.5) * math.log(t) - t + math.log(acc)
    # Small positive x: shift up once; Gamma(x) = Gamma(x+1)/x.
    return log_gamma(x + 1.0) - math.log(x)


# Asymptotic digamma tail coefficients: psi(x) ~ ln x - 1/(2x) - sum c_n / x^(2n)
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma (logarithmic derivative of Gamma) for real argument.

    Uses the reflection formula for x < 0, the upward recurrence
    ``psi(x) = psi(x+1) - 1/x`` to push the argument above 10, then the
    Bernoulli asymptotic series. Accuracy is ~1e-12 absolute over the test
    range.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainValidationError(f"digamma argument must be finite, got {x}")
    if _near_nonpositive_integer(x):
        raise PoleError(f"digamma pole at non-positive integer, x = {x}")
    if x < 0.0:
        # psi(x) = psi(1-x) - pi / tan(pi x); tan has period pi, so its
        # argument is first reduced exactly to pi * (x - round(x)).
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


# =====================================================================
# Bessel J of real order
# =====================================================================

_SERIES_Z_MAX = 14.0
_ASYMPTOTIC_Z_MIN = 1000.0


def _bessel_series(nu: float, z: np.ndarray) -> np.ndarray:
    """Ascending series for J_nu(z), nu >= 0, vectorised over z < ~14."""
    out = np.zeros_like(z)
    pos = z > 0.0
    if nu == 0.0:
        out[~pos] = 1.0
    if np.any(pos):
        zp = z[pos]
        quarter = -0.25 * zp * zp
        term = np.ones_like(zp)
        acc = np.ones_like(zp)
        for j in range(1, 200):
            term = term * quarter / (j * (nu + j))
            acc += term
            done = np.abs(term) <= 1e-17 * np.abs(acc)
            if done.all():
                break
            term[done] = 0.0  # a converged point takes no further terms
        else:  # pragma: no cover - series range is capped well under this
            raise AccuracyError("bessel_j ascending series did not converge")
        half = 0.5 * zp
        prefactor = np.exp(nu * np.log(half) - log_gamma(nu + 1.0))
        out[pos] = prefactor * acc
    return out


def _bessel_miller(nu_frac: float, nu_int: int, z: np.ndarray) -> np.ndarray:
    """Backward (Miller) recurrence for J at order ``nu_frac + nu_int``.

    Parameters
    ----------
    nu_frac : float
        Fractional base order in [0, 1).
    nu_int : int
        Non-negative integer offset of the order.
    z : ndarray
        Arguments, all in the backward-recurrence window.

    Returns
    -------
    ndarray, shape (len(z),)

    Notes
    -----
    The trial solution is normalised with the Neumann-series identity

        sum_k (nu + 2k) Gamma(nu + k) / k!  J_{nu+2k}(z) = (z/2)^nu

    which reduces to ``J_0 + 2 J_2 + 2 J_4 + ... = 1`` at nu = 0.
    """
    starts = (z + 12.0 * np.sqrt(np.maximum(z, 1.0)) + 30.0).astype(int)
    starts = np.maximum(starts, nu_int + 20)
    start = int(np.max(starts))

    # Normalisation coefficients c_k = (nu + 2k) Gamma(nu + k) / k!.
    n_coef = start // 2 + 1
    coef = np.empty(n_coef)
    coef[0] = gamma_fn(nu_frac + 1.0) if nu_frac > 0.0 else 1.0
    if n_coef > 1:
        coef[1] = (nu_frac + 2.0) * (gamma_fn(nu_frac + 1.0) if nu_frac > 0.0 else 1.0)
        for k in range(2, n_coef):
            coef[k] = (
                coef[k - 1]
                * ((nu_frac + 2.0 * k) / (nu_frac + 2.0 * k - 2.0))
                * ((nu_frac + k - 1.0) / k)
            )

    f_hi = np.zeros_like(z)    # order nu_frac + j + 1
    f_cur = np.zeros_like(z)   # order nu_frac + j; 0 until the point's start
    norm = np.zeros_like(z)
    saved = np.zeros_like(z)

    for j in range(start, -1, -1):
        # each point starts its trial solution at its own order, so a batch
        # returns exactly what one-point calls would
        f_cur[starts == j] = 1e-30
        if j % 2 == 0:
            norm += coef[j // 2] * f_cur
        if j == nu_int:
            saved[:] = f_cur
        if j > 0:
            f_lo = (2.0 * (nu_frac + j) / z) * f_cur - f_hi
            f_hi = f_cur
            f_cur = f_lo
            if np.abs(f_cur).max() > 1e250:
                big = np.abs(f_cur) > 1e250
                f_cur[big] *= 1e-250
                f_hi[big] *= 1e-250
                norm[big] *= 1e-250
                saved[big] *= 1e-250

    scale = (0.5 * z) ** nu_frac / norm
    return saved * scale


def _bessel_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    """Large-argument asymptotic expansion of J_nu(z) (Hankel form).

    The scale factors are formed as 0.125 / z and 0.5 / (pi z / 4), which
    cannot overflow for any finite z; scaling by powers of two leaves every
    rounding as in 1 / (8 z) and 2 / (pi z).
    """
    mu = 4.0 * nu * nu
    inv8z = 0.125 / z
    p = np.ones_like(z)
    q = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(1, 25):
        term = term * (mu - (2.0 * k - 1.0) ** 2) * inv8z / k
        contrib = term * (-1.0) ** (k // 2)
        if k % 2 == 1:
            q += contrib
        else:
            p += contrib
        done = np.abs(term) < 1e-17
        if done.all():
            break
        term[done] = 0.0  # a converged point takes no further terms
    # cos and sin of omega = z - c from those of the exact z: z - c in floating
    # point would round omega to half an ulp of z, which is 0.06 at z = 1e15
    c = (0.5 * nu + 0.25) * math.pi
    cos_z, sin_z, cos_c, sin_c = np.cos(z), np.sin(z), math.cos(c), math.sin(c)
    cos_w = cos_z * cos_c + sin_z * sin_c
    sin_w = sin_z * cos_c - cos_z * sin_c
    return np.sqrt(0.5 / (0.25 * math.pi * z)) * (p * cos_w - q * sin_w)


def _bessel_nonneg(nu: float, z: np.ndarray) -> np.ndarray:
    """J_nu(z) for nu >= 0 over a flat array of z >= 0."""
    out = np.empty_like(z)
    small = z < _SERIES_Z_MAX
    big = z >= _ASYMPTOTIC_Z_MIN
    mid = ~small & ~big
    if np.any(small):
        out[small] = _bessel_series(nu, z[small])
    if np.any(mid):
        nu_int = int(math.floor(nu))
        nu_frac = nu - nu_int
        out[mid] = _bessel_miller(nu_frac, nu_int, z[mid])
    if np.any(big):
        out[big] = _bessel_asymptotic(nu, z[big])
    return out


def _bessel_negative(nu: float, z, seed):
    """J_nu(z) for nu < 0 from the nonnegative rows ``seed(mu)`` on the same z.

    ``z`` is a float or a flat array and ``seed(mu)`` returns J_mu on it for
    mu >= 0. A negative integer order is (-1)^n J_n. Otherwise the two seeds
    J_mu0 and J_(mu0+1), with mu0 = nu - floor(nu) in (0, 1), are carried
    down by the recurrence J_(mu-1) = (2 mu / z) J_mu - J_(mu+1) (DLMF
    10.6.1). ``bessel_j`` seeds from fresh evaluations; the radial order
    table seeds from its own cached rows, so both return the same floats.
    Where |J_nu| exceeds the largest double (a large negative order at small
    z) the recurrence overflows, which raises AccuracyError.
    """
    if abs(nu - round(nu)) < 1e-12:
        n = int(round(-nu))
        return (-1.0) ** n * seed(float(n))
    if np.any(z == 0.0):
        # J of negative non-integer order diverges at the origin; the
        # closed forms never need it, so reject instead of guessing.
        raise DomainValidationError("bessel_j at z = 0 needs nu >= 0 or integer nu")
    steps = int(math.ceil(-nu))  # mu0 - nu, an integer
    mu = nu + steps
    j_hi = seed(mu + 1.0)
    j_cur = seed(mu)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            j_lo = (2.0 * mu / z) * j_cur - j_hi
            j_hi = j_cur
            j_cur = j_lo
            mu -= 1.0
    if not np.all(np.isfinite(j_cur)):
        raise AccuracyError(f"|J_{nu}| overflows a double on this z range")
    return j_cur


def bessel_j(nu: float, z):
    """Bessel function of the first kind, real order, non-negative argument.

    Parameters
    ----------
    nu : float
        Order. Any real value; negative non-integer orders are reached by
        downward recurrence from the fractional seed orders
        (``_bessel_negative``).
    z : float or array_like
        Argument(s), >= 0.

    Returns
    -------
    float or ndarray
        J_nu evaluated at z, matching the input shape.

    Raises
    ------
    DomainValidationError
        If a z is negative or not finite, or z = 0 with a negative
        non-integer order.
    AccuracyError
        If |J_nu| exceeds the largest double, as a large negative order does
        at small z.

    Notes
    -----
    Branches: ascending power series for z < 14, Miller backward recurrence
    with Neumann normalisation for 14 <= z < 1000, and the Hankel asymptotic
    expansion beyond. Relative accuracy is ~1e-10 or better away from zeros
    of J over the tested range |nu| <= 13, z <= 1e15; in the asymptotic
    branch the absolute error is below 1e-15 of sqrt(2/(pi z)) there.

    Every point stops its series and starts its recurrence by its own
    criterion, so an array call returns, point by point, exactly what
    one-point calls return. Callers may therefore batch any point sets.
    """
    nu = float(nu)
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float).ravel()
    if np.any(flat < 0.0) or not np.all(np.isfinite(flat)):
        raise DomainValidationError("bessel_j needs finite z >= 0")

    if nu >= 0.0:
        res = _bessel_nonneg(nu, flat)
    else:
        res = _bessel_negative(nu, flat, lambda mu: _bessel_nonneg(mu, flat))

    if scalar:
        return float(res[0])
    return res.reshape(arr.shape)


# =====================================================================
# 2F1(1, 1; c; x)
# =====================================================================

_SERIES_RADIUS = 0.7
_MIN_DIRECT_C = 1.5
_DIRECT_MEMO_SIZE = 16  # three direct evaluations per kernel build, room for a few builds


def _hyp_series(c: float, x: complex) -> complex:
    """Power series sum n! x^n / (c)_n, reliable for |x| <= ~0.7."""
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    small_streak = 0
    for n in range(1, 4000):
        term = term * (n / (c + n - 1.0)) * x
        acc += term
        if abs(term) <= 1e-17 * (1.0 + abs(acc)):
            small_streak += 1
            if small_streak >= 2:
                return acc
        else:
            small_streak = 0
    raise AccuracyError(f"hyp2f1_11 series did not converge (c={c}, x={x})")


def _hyp_continued_fraction(c: float, x: complex) -> complex:
    """Gauss continued fraction for 2F1(1,1;c;x), evaluated by modified Lentz.

    F = 1 / (1 + e1 x / (1 + e2 x / (1 + ...))) with

        e_{2i+1} = -(i+1)(c-1+i) / ((c-1+2i)(c+2i))
        e_{2i+2} = -(i+1)(c-1+i) / ((c+2i)(c+1+2i))
    """
    tiny = 1e-280
    # Evaluate the denominator chain g = 1 + e1 x/(1 + e2 x/(1 + ...)) by
    # modified Lentz (b_n = 1 throughout), then return 1/g. Each pass of the
    # loop takes the odd step e_{2i+1} and then the even step e_{2i+2}; the
    # two share the numerator and the factor c + 2i.
    g = 1.0 + 0.0j
    big_c = g
    big_d = 0.0 + 0.0j
    c_lo = c - 1.0
    c_hi = c + 1.0
    for i in range(50000):
        num = -(i + 1.0) * (c_lo + i)
        two_i = 2.0 * i
        mid = c + two_i

        a = num / ((c_lo + two_i) * mid) * x
        big_d = 1.0 + a * big_d
        if big_d == 0.0:
            big_d = tiny
        big_c = 1.0 + a / big_c
        if big_c == 0.0:
            big_c = tiny
        big_d = 1.0 / big_d
        delta = big_c * big_d
        g *= delta
        if abs(delta - 1.0) < 5e-16:
            return 1.0 / g

        a = num / (mid * (c_hi + two_i)) * x
        big_d = 1.0 + a * big_d
        if big_d == 0.0:
            big_d = tiny
        big_c = 1.0 + a / big_c
        if big_c == 0.0:
            big_c = tiny
        big_d = 1.0 / big_d
        delta = big_c * big_d
        g *= delta
        if abs(delta - 1.0) < 5e-16:
            return 1.0 / g
    raise AccuracyError(f"hyp2f1_11 continued fraction stalled (c={c}, x={x})")


@functools.lru_cache(maxsize=_DIRECT_MEMO_SIZE)
def _hyp_direct(c: float, x: complex) -> complex:
    """One series or continued-fraction evaluation, memoised on exact (c, x).

    Keys compare with ``==``, so on the real axis x and its conjugate share
    one entry; both branches return bitwise equal values for the two signs
    of a zero imaginary part, so a hit is still exact there.
    """
    if abs(x) <= _SERIES_RADIUS:
        return _hyp_series(c, x)
    return _hyp_continued_fraction(c, x)


def hyp2f1_11(c: float, x) -> complex:
    """Gauss hypergeometric 2F1(1, 1; c; x) for real c and complex x.

    Parameters
    ----------
    c : float
        Lower parameter. Must stay away from the poles 0, -1, -2, ...
    x : complex
        Argument; the real interval [1, inf) (the branch cut) is rejected.

    Returns
    -------
    complex

    Raises
    ------
    DomainValidationError
        If c or x is not finite, or x lies on the branch cut.
    PoleError
        If c is within 1e-10 of a non-positive integer.

    Notes
    -----
    |x| <= 0.7 sums the series directly. Larger |x| uses the Gauss continued
    fraction. For c < 1.5 the value is reached by the first-order contiguous
    relation c (1 - x) F(c) = c - (c - 1) x F(c + 1), which is Gauss's
    c (1 - x) F(a, b; c) - c F(a - 1, b; c) + (c - b) x F(a, b; c + 1) = 0
    (DLMF §15.5(ii)) at a = b = 1, where F(0, 1; c; x) = 1. It steps down
    from the one anchor F(c + K), c + K >= 1.5, taken from the primary
    branches. Each step's c is formed from the original c, so the last step
    divides by c itself and the 1/c blow-up of the function as c -> 0+
    carries no rounding of c.

    The direct evaluations (the value itself for c >= 1.5, the anchor
    otherwise) go through a memo of the last 16 results, keyed on the exact
    (c, x). In a contiguous family c, c + 1, c + 2 at one x, each member
    below 1.5 steps down from the family's lowest member at or above 1.5, so
    the six values of one kernel build cost three direct evaluations (four
    at gamma = 1/2), and a repeated build costs none. A hit is exact: it
    returns the very value a fresh evaluation would.
    """
    c = float(c)
    x = complex(x)
    if not (math.isfinite(c) and cmath.isfinite(x)):
        raise DomainValidationError(f"hyp2f1_11 needs finite c and x, got c = {c}, x = {x}")
    if _near_nonpositive_integer(c, tol=1e-10):
        raise PoleError(f"hyp2f1_11 pole: c = {c} is (near) a non-positive integer")
    if x.imag == 0.0 and x.real >= 1.0:
        raise DomainValidationError(
            f"hyp2f1_11 argument on the branch cut [1, inf): x = {x}"
        )
    if c >= _MIN_DIRECT_C:
        return _hyp_direct(c, x)

    shift = int(math.ceil(_MIN_DIRECT_C - c))
    f = _hyp_direct(c + shift, x)  # the one anchor, F(c + shift)
    # First-order contiguous relation (a = b = 1, since F(0, 1; c; x) = 1):
    #   c (1 - x) F(c) = c - (c - 1) x F(c + 1)
    for k in range(shift - 1, -1, -1):
        ck = c + k  # from c itself, so the last step divides by the exact c
        f = (ck - (ck - 1.0) * x * f) / (ck * (1.0 - x))
    return f


# =====================================================================
# Generic pFq series
# =====================================================================

# Cap on pfq_series terms; its one caller, the 3F4 of the opposite-order F1
# series at z <= 4, stops well inside it.
_PFQ_MAX_TERMS = 800


def pfq_series(a_list, b_list, z) -> complex:
    """Generalised hypergeometric series sum with term-ratio stopping, at
    most ``_PFQ_MAX_TERMS`` (800) terms.

    Parameters
    ----------
    a_list, b_list : sequence of float
        Upper and lower parameters.
    z : float or complex
        Argument.

    Returns
    -------
    complex
        The partial sum at convergence.

    Raises
    ------
    PoleError
        If a lower-parameter Pochhammer factor hits zero before the series
        terminates through an upper parameter.
    AccuracyError
        If the terms have not fallen below the stopping threshold within
        ``_PFQ_MAX_TERMS`` terms.

    Notes
    -----
    A non-positive-integer upper parameter terminates the series; the zero
    numerator factor is detected before the denominator is touched, so
    near-degenerate parameter pairs like (a, b) = (delta, 2 delta) with tiny
    delta are evaluated stably through their ratio.
    """
    a = [float(v) for v in a_list]
    b = [float(v) for v in b_list]
    z = complex(z)
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    small_streak = 0
    for n in range(_PFQ_MAX_TERMS):
        num = 1.0
        for ai in a:
            num *= ai + n
        if num == 0.0:
            return acc  # series terminated exactly
        den = 1.0
        for bi in b:
            den *= bi + n
        if den == 0.0:
            raise PoleError(
                f"pfq_series lower-parameter pole at term {n}: b + n = 0 for b in {b}"
            )
        term = term * (num / den) * z / (n + 1.0)
        acc += term
        if abs(term) <= 1e-17 * (1.0 + abs(acc)):
            small_streak += 1
            if small_streak >= 2:
                return acc
        else:
            small_streak = 0
    raise AccuracyError(
        f"pfq_series did not converge in {_PFQ_MAX_TERMS} terms (a={a}, b={b}, z={z})"
    )
