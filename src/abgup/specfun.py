"""Scalar special functions on top of numpy and ``math``.

Everything the closed-form amplitude/radial paths need is implemented here
by hand, Gamma and log-Gamma aside, which come from ``math``. Neither is an
oracle, so comparisons against library routines (scipy, mpmath) and against
quadrature stay genuinely two-route:

* ``_cis_pi``    -- e^{i pi x} from the exact remainder x - round(x); the one
                    place a sine, cosine or phase of pi times a flux, an order
                    or an integer is formed, here and in ``scattering`` and
                    ``radial``.
* ``_cis_neg``   -- e^{-i nu t} for nu = N or N + 1/2 and an angle t, from
                    Dekker's error-free product: the one place ``scattering``
                    forms a phase of an angle times a flux.
* ``gamma_fn``   -- ``math.gamma`` with typed errors at the poles and wherever
                    |Gamma(x)| is not a normal double.
* ``log_gamma``  -- ``math.lgamma`` for finite x > 0, with a typed overflow.
* ``digamma``    -- recurrence into the asymptotic region plus Bernoulli tail.
* ``bessel_j``   -- J_nu for real order and z >= 0, vectorised over z, on two
                    branches: the Hankel expansion for z >= 1000 where
                    nu^2 <= z, and Miller's backward sweep below it, with the
                    series' leading term next to z = 0. One sweep
                    (``_bessel_rows``) gives every order nu_frac + k it passes,
                    so the radial order table fills all the orders of one
                    fraction from it. Negative orders come from
                    ``_bessel_negative``, the one downward order recurrence;
                    the radial order table seeds it from its own rows.
* ``hyp2f1_11``  -- 2F1(1, 1; c; x) via the power series (|x| <= 0.7),
                    Euler's integral on a fixed tanh-sinh rule (|x| > 0.7,
                    c <= 60), the connection to 1 - x next to x = 1 away
                    from integer c, and a contiguous downshift in c, all in the
                    closed upper half-plane: a lower-half x is mapped to x*
                    at the entry and its value conjugated once. Each direct
                    evaluation is one dot product of a vector of c alone with
                    one of x alone, each cached on its exact key; no branch
                    iterates. The direct evaluations are memoised (last 16,
                    keyed on the exact (c, x)), so a hit returns exactly what
                    a fresh evaluation would. ``_hyp2f1_11_rows`` is its array
                    form for the kernel G over an array of angles: the same
                    branches, anchors and cached c sides, one x side per row
                    and ``einsum`` row sums per direct value.
* ``pfq_series`` -- generic hypergeometric sum with term-ratio stopping.

Branch switchovers are chosen so each branch runs well inside its comfort
zone; the overlaps are property-tested.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import numpy as np

from .core import AccuracyError, DomainValidationError, PoleError

# =====================================================================
# Gamma and friends
# =====================================================================

def _cis_pi(x: float) -> complex:
    """e^{i pi x} for finite real x, with sin(pi x) as its ``.imag``.

    With n = round(x) the remainder r = x - n is exact, so e^{i pi x} =
    (-1)^n e^{i pi r} keeps full relative accuracy next to every integer,
    where pi * x itself would round before the sine sees it. At an integer
    the sine is a signed zero, and sin(-pi x) = -sin(pi x) exactly.
    """
    n = round(x)
    e = cmath.exp(1j * (math.pi * (x - n)))  # (cos, sin) of the real pi (x - n)
    return -e if n % 2 else e


def _cis_neg(nu: float, t: float) -> complex:
    """e^{-i nu t} for a flux-derived nu (N or N + 1/2) and a principal angle t.

    The product p = nu t rounds, by up to ulp(p)/2, which is about 1 at
    |N| = 2^52. Dekker's two-product (Numer. Math. 18, 1971) gives the exact
    remainder e = nu t - p from Veltkamp's split, and the phase is
    e^{-i p} e^{-i e}, so its error stays about 2e-16 however large |nu t|
    grows (at most 2.1e-16 against mpmath over 3,000 seeded points with |N|
    up to 2^52, where e^{-i p} alone read 0.94). A first-order
    e^{-i p} (1 - i e) would not do: e reaches about 1 there. p and e both
    negate exactly with nu, so e^{-i nu t} at (-nu, -t) is bitwise the value
    at (nu, t). The split overflows past |nu| of about 1.3e300.

    ``t`` may also be a 1-D array of angles; each element then takes the
    same steps as a float, in numpy, so a mirror pair of elements is still
    bitwise the same.
    """
    p = nu * t
    cn, ct = 134217729.0 * nu, 134217729.0 * t  # Veltkamp's split at 2^27 + 1
    nh, th = cn - (cn - nu), ct - (ct - t)
    nl, tl = nu - nh, t - th
    e = ((nh * th - p) + nh * tl + nl * th) + nl * tl
    exp = np.exp if isinstance(t, np.ndarray) else cmath.exp  # an array of angles: element-wise
    return exp(-1j * p) * exp(-1j * e)


def _near_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    if x > 0.5:
        return False
    r = round(x)
    return r <= 0 and abs(x - r) < tol


def gamma_fn(x: float) -> float:
    """Gamma function for real argument: ``math.gamma`` behind the package's
    domain rule.

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
        If x is not finite, or if |Gamma(x)| is not a normal double. It
        overflows past x of about 171.62, and it falls below 2.2e-308 for x
        below about -170.58, apart from windows next to the poles that narrow
        from 0.05 wide at -171 to 2e-13 at -176.

    Notes
    -----
    ``math`` is neither oracle (scipy, mpmath), so every closed form built on
    Gamma keeps its independent check. Against mpmath at 40 digits, over
    3,000 seeded points in [-170, 171.6] off the poles, it reads at most
    7.5e-16 relative.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainValidationError(f"gamma_fn argument must be finite, got {x}")
    if _near_nonpositive_integer(x):
        raise PoleError(f"gamma_fn pole at non-positive integer, x = {x}")
    try:
        g = math.gamma(x)
    except OverflowError:
        g = math.inf
    if not sys.float_info.min <= abs(g) < math.inf:
        raise DomainValidationError(f"Gamma({x}) overflows a double or is below its normal range")
    return g


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for finite x > 0: ``math.lgamma`` behind the
    package's domain rule.

    Raises DomainValidationError for x that is not finite and positive, and
    past x of about 2.6e305, where log Gamma(x) overflows a double. Against
    mpmath at 40 digits, over two seeded sets of 3,300 points in (0, 300] it
    reads at most 1.1e-15 times max(1, |log Gamma(x)|).
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainValidationError(f"log_gamma needs finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainValidationError(f"log Gamma({x}) overflows a double") from None


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
    Bernoulli asymptotic series. Against mpmath at 40 digits, over 3,000
    seeded points in [-30, 60], it reads at most 9.8e-16 of max(1, |psi|).
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

# Not a branch of bessel_j: perfbench's tracer reads it, by a copy that a test
# pins equal, to split the points it counts at z = 14.
_SERIES_Z_MAX = 14.0
_ASYMPTOTIC_Z_MIN = 1000.0
# The Hankel expansion runs only where also nu^2 <= z: its terms grow until
# k ~ nu^2 / (2 z), and at z = 1000 it read 1.3e-9 at nu = 100.3 and 1.2 at 150.3
# (in units of sqrt(2/(pi z))). Larger orders stay on Miller, up to this z, the
# one z cap of the package: the radial layer's degenerate-order panels end here too.
_MILLER_Z_MAX = 1.0e4
# The largest |nu| taken. Both order recurrences start from an integer that
# grows with |nu| (Miller at floor(nu) + 20, the negative-order one ceil(-nu)
# steps down), so a call costs time in proportion: 0.14 s at 1e4 and 1.1 s at
# 1e5, and at 1e20 the start no longer fits a 64-bit integer. Wherever a
# recurrence runs (z <= 1e4), |J_nu| at |nu| > 1e5 is past the double range:
# below the smallest double for nu > 0 or at a negative integer, above the
# largest otherwise. Only the Hankel range z >= nu^2 > 1e10 loses values.
_ORDER_MAX = 1.0e5
# Where (z/2)^2 / (nu + 1) < 2^-53 the ascending series is its leading term to
# within rounding; Miller's sweep would overflow below z of about 6e-71.
_LEAD_TOL = 2.0 ** -53


def _bessel_miller(nu_frac: float, lo: int, hi: int, z: np.ndarray, saved: np.ndarray) -> None:
    """J at the orders nu_frac + k, k = lo .. hi, by one backward (Miller)
    sweep over z > 0, sorted ascending, written into the rows of ``saved``.

    Each point starts its trial solution at max(z + 6 sqrt(max(z, 1)) + 24,
    hi + 20), at least 30, so up to hi = 10 a row is, bit for bit, what a
    sweep that keeps only its offset gives; and a batch gives, point by
    point, what one-point sweeps give. A start of z + 12 sqrt(max(z, 1)) +
    30 read the same against mpmath (to rounding, for nu from 0.3 to 300.3
    at z from 14 to 1e4, and below z = 14 as in ``bessel_j``'s Notes), in up
    to 40% more steps. The starts grow with z, so the points
    started by a step are a tail of z, and each step runs over those only.
    The trial solution is normalised with the Neumann-series identity

        sum_k (nu + 2k) Gamma(nu + k) / k!  J_{nu+2k}(z) = (z/2)^nu

    which reduces to ``J_0 + 2 J_2 + 2 J_4 + ... = 1`` at nu = 0.
    """
    starts = np.maximum((z + 6.0 * np.sqrt(np.maximum(z, 1.0)) + 24.0).astype(int), hi + 20)
    start = int(starts[-1])
    first = np.searchsorted(starts, np.arange(start + 1))  # z[first[j]:] have started by step j
    # Normalisation coefficients c_k = (nu + 2k) Gamma(nu + k) / k!.
    coef = [gamma_fn(nu_frac + 1.0) if nu_frac > 0.0 else 1.0]
    coef.append((nu_frac + 2.0) * coef[0])
    for k in range(2, start // 2 + 1):
        coef.append(coef[-1] * ((nu_frac + 2.0 * k) / (nu_frac + 2.0 * k - 2.0))
                    * ((nu_frac + k - 1.0) / k))

    # the trial solution at orders nu_frac + j + 1, + j and + j - 1, rotated
    # each step; 0 until a point's start
    *f, norm, work = np.zeros((5, z.size))
    # A point's trial solution is rescaled by 1e-250 where it passes 1e250. The
    # test is skipped while a running bound on every |f_cur| and |f_hi|, which
    # grows by at most 1 + 2 (nu_frac + j) / min(z) a step, stays below 1e249:
    # the tenth keeps the bound's own rounding from hiding a step that fires.
    bound = 1e-30
    m = z.size
    for j in range(start, -1, -1):
        if first[j] < m:  # points start: views over the started ones
            f[1][first[j]:m] = 1e-30
            m = first[j]
            f_hi, f_cur, f_lo, z_m, norm_m, work_m = (a[m:] for a in (*f, z, norm, work))
        if j % 2 == 0:
            norm_m += np.multiply(coef[j // 2], f_cur, out=work_m)
        if lo <= j <= hi:
            saved[j - lo, m:] = f_cur
        if j > 0:
            step = 2.0 * (nu_frac + j)
            np.divide(step, z_m, out=work_m)
            np.multiply(work_m, f_cur, out=work_m)
            np.subtract(work_m, f_hi, out=f_lo)
            f = [f[1], f[2], f[0]]
            f_hi, f_cur, f_lo = f_cur, f_lo, f_hi
            bound *= 1.0 + step / z[0]
            if bound > 1e249:
                big = np.abs(f_cur) > 1e250
                for a in (f_cur, f_hi, norm_m, saved[max(j - lo, 0):, m:]):  # the rows saved
                    a[..., big] *= 1e-250
                bound = max(np.abs(f_cur).max(), np.abs(f_hi).max(), 1e-30)
    saved *= (0.5 * z) ** nu_frac / norm


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
    # cos and sin of omega = z - c, c = (nu/2 + 1/4) pi, from those of the exact
    # z: z - c in floating point would round omega to half an ulp of z, which
    # is 0.06 at z = 1e15
    e_c = _cis_pi(0.5 * nu + 0.25)
    cos_z, sin_z, cos_c, sin_c = np.cos(z), np.sin(z), e_c.real, e_c.imag
    cos_w = cos_z * cos_c + sin_z * sin_c
    sin_w = sin_z * cos_c - cos_z * sin_c
    return np.sqrt(0.5 / (0.25 * math.pi * z)) * (p * cos_w - q * sin_w)


def _bessel_rows(nu_frac: float, lo: int, hi: int, z: np.ndarray) -> np.ndarray:
    """J at the orders nu_frac + k, k = lo .. hi, over a flat array of z >= 0:
    one row per order.

    A point takes, per order nu, the leading term where (z/2)^2 / (nu + 1) <
    2^-53, the Hankel expansion where z >= 1000 and nu^2 <= z, and Miller's
    sweep otherwise, up to z = 1e4. The points are taken in ascending order,
    so each rule takes a slice of them; one sweep serves every row.
    """
    by_z = None if np.all(z[:-1] <= z[1:]) else np.argsort(z, kind="stable")
    zs = z if by_z is None else z[by_z]
    orders = [nu_frac + k for k in range(lo, hi + 1)]
    # per order, the leading term takes zs[:a], Miller zs[a:b], the Hankel expansion zs[b:]
    ends = [(np.searchsorted(zs, 2.0 * math.sqrt(_LEAD_TOL * (nu + 1.0))),
             np.searchsorted(zs, max(_ASYMPTOTIC_Z_MIN, nu * nu))) for nu in orders]
    a, b = ends[0][0], ends[-1][1]  # the points some order takes Miller at
    if b > a and zs[b - 1] > _MILLER_Z_MAX:
        raise AccuracyError(
            f"bessel_j needs nu^2 <= z past z = {_MILLER_Z_MAX:g}, where the Hankel "
            f"expansion holds; got nu = {orders[-1]} at z = {zs[b - 1]:g}"
        )
    out = np.empty((len(orders), z.size))
    if b > a:
        _bessel_miller(nu_frac, lo, hi, zs[a:b], out[:, a:b])
    for row, (nu, (a, b)) in enumerate(zip(orders, ends)):
        if a:
            # (z/2)^nu / Gamma(nu + 1) as z^nu 2^-nu / Gamma(nu + 1), since z / 2
            # underflows at the smallest z; 0^0 = 1 gives J_0(0). Past nu = 170,
            # where Gamma overflows, every such value is below the smallest double
            out[row, :a] = zs[:a] ** nu * (2.0 ** -nu / math.gamma(nu + 1.0) if nu < 170.0 else 0.0)
        if b < z.size:
            out[row, b:] = _bessel_asymptotic(nu, zs[b:])
    if by_z is not None:
        out[:, by_z] = out.copy()
    return out


def _bessel_z(z) -> np.ndarray:
    """``bessel_j``'s z, a float or array_like, as a flat float array, or
    DomainValidationError unless every z is finite and >= 0."""
    flat = np.asarray(z, dtype=float).ravel()
    if np.any(flat < 0.0) or not np.all(np.isfinite(flat)):
        raise DomainValidationError("bessel_j needs finite z >= 0")
    return flat


def _bessel_negative(nu: float, z, rows):
    """J_nu(z) for nu < 0 from nonnegative rows on the same z.

    ``z`` is a float or a flat array, and ``rows(frac, lo, hi)`` returns J on
    it at the orders frac + lo .. frac + hi, as ``_bessel_rows`` does. A
    negative integer order is (-1)^n J_n. Otherwise the two seeds J_mu0 and
    J_(mu0+1), with mu0 = nu - floor(nu) in (0, 1), are the rows 0 and 1 of
    one sweep on mu0, carried down by the recurrence J_(mu-1) = (2 mu / z)
    J_mu - J_(mu+1) (DLMF 10.6.1). ``bessel_j`` seeds from a fresh sweep; the
    radial order table seeds from its own sweeps, so both return the same
    floats. Where |J_nu| exceeds the largest double (a large negative order
    at small z) the recurrence overflows, which raises AccuracyError. An
    order below -1e5 raises DomainValidationError, as in ``bessel_j``: the
    recurrence takes about |nu| steps.
    """
    if not -nu <= _ORDER_MAX:
        raise DomainValidationError(f"bessel_j needs |nu| <= {_ORDER_MAX:g}, got {nu}")
    if abs(nu - round(nu)) < 1e-12:
        n = int(round(-nu))
        return (-1.0) ** n * rows(0.0, n, n)[0]
    if np.any(z == 0.0):
        # J of negative non-integer order diverges at the origin; the
        # closed forms never need it, so reject instead of guessing.
        raise DomainValidationError("bessel_j at z = 0 needs nu >= 0 or integer nu")
    steps = int(math.ceil(-nu))  # mu0 - nu, an integer
    mu = nu + steps
    j_cur, j_hi = rows(mu, 0, 1)
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
        Order, |nu| <= 1e5; negative non-integer orders are reached by
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
        If a z is negative or not finite, z = 0 with a negative non-integer
        order, or nu is not finite or |nu| > 1e5: both order recurrences take
        about |nu| steps, and where they run |J_nu| is past the double range
        beyond that bound.
    AccuracyError
        If |J_nu| exceeds the largest double, as a large negative order does
        at small z; or if nu^2 > z at a z above 1e4, where the Hankel
        expansion does not hold and Miller's recurrence is not taken.

    Notes
    -----
    Two branches, and the leading term at the origin: the Hankel asymptotic
    expansion for z >= 1000 where also nu^2 <= z; Miller's backward
    recurrence with Neumann normalisation for every other z > 0 up to 1e4;
    and (z/2)^nu / Gamma(nu + 1) where (z/2)^2 / (nu + 1) < 2^-53, which
    is the whole series there to within rounding (J_0(0) = 1, J_nu(0) = 0).
    Against mpmath at 40 digits, for nu in {0, 0.3, 1.5, 2.7, 5.2, 10.4}:
    at most 1.3e-15 of the envelope sqrt(2/(pi max(z, 1))) on 140 seeded
    points in [0.5, 14); 7.2e-16 relative on 120 geometric points from
    z = 1e-3 to 2; and 3.6e-16 of max(|J|, the smallest normal double) at
    z = 0, 5e-324, 1e-300, 1e-152, 1e-71, 1e-9 and 1e-3. Error grows with
    the length of the sweep: 1.3e-13 relative at z = 999.9 (nu = 1.3, about
    1,200 steps), and up to 4.5e-14 of the envelope from z = 14 to 1000. The Hankel branch reads below 1e-13 of sqrt(2/(pi
    z)) for nu <= 2.7 up to z = 1e15 and below 4e-16 at nu = sqrt(z);
    Miller reads below 3e-13 for nu from 45 to 300 at z from 1e3 to 1e4,
    where one call takes 15-120 ms.

    Every point takes its rule and starts its recurrence by its own
    criterion, so an array call returns, point by point, exactly what
    one-point calls return. Callers may therefore batch any point sets.
    """
    nu = float(nu)
    if not abs(nu) <= _ORDER_MAX:  # also nan
        raise DomainValidationError(f"bessel_j needs |nu| <= {_ORDER_MAX:g}, got {nu}")
    flat = _bessel_z(z)
    rows = functools.partial(_bessel_rows, z=flat)
    n = math.floor(nu)  # a nonnegative nu is one row, on the exact split (nu - n) + n
    res = rows(nu - n, n, n)[0] if nu >= 0.0 else _bessel_negative(nu, flat, rows)
    return float(res[0]) if np.ndim(z) == 0 else res.reshape(np.shape(z))


# =====================================================================
# 2F1(1, 1; c; x)
# =====================================================================

_SERIES_RADIUS = 0.7  # |x| <= this sums the power series; Euler's integral runs above
_MIN_DIRECT_C = 1.5
# The lowest c taken. Below 1.5 the value is reached by ceil(1.5 - c) contiguous
# steps, about 0.4 us each: 4 ms at c = -1e4, 47 ms at -1e5, and days at -1e12.
_MIN_SHIFTED_C = -1.0e4
_DIRECT_MEMO_SIZE = 16  # three direct evaluations per kernel build, room for a few builds
# The rule's c side is keyed on (c, node set), so the three direct c values of
# one kernel build take up to six entries.
_SIDE_MEMO_SIZE = 6

# Term counts come from one bound: every factor n / (c + n - 1) of a term
# ratio is at most 1 for c >= 1, so the n-th term is at most |x|^n, which
# falls below _TERM_TOL from n = floor(_LOG_TOL / ln|x|) + 1 on.
_TERM_TOL = 1e-17
_LOG_TOL = math.log(_TERM_TOL)
_MAX_TERMS = int(_LOG_TOL / math.log(_SERIES_RADIUS)) + 2
_K = np.arange(float(_MAX_TERMS))  # k = 0, 1, 2, ...
_K1 = _K + 1.0


def _term_count(r: float) -> int:
    """Terms of a series whose n-th term is at most r^n (0 <= r < 1): one past
    the first n with r^n <= _TERM_TOL, so the sum reaches where two successive
    terms are below it."""
    return int(_LOG_TOL / math.log(r)) + 2 if r > 0.0 else 0


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: the side vectors are shared by every cache hit."""
    a.flags.writeable = False
    return a


# Every direct evaluation is one dot product of a vector that depends on c
# alone (the "c side") with one that depends on x alone (the "x side"). Each
# side is cached on its exact key, so a phi-scan (c fixed) builds only the x
# side of each row and an alpha-scan (x fixed) only the c side. Both sides are
# complex arrays, so the dot product casts neither.

@functools.lru_cache(maxsize=_SIDE_MEMO_SIZE)
def _series_c(c: float) -> np.ndarray:
    """n! / (c)_n for n = 1 .. _MAX_TERMS, the c side of the power series."""
    return _frozen(np.multiply.accumulate(_K1 / (c + _K)).astype(complex))


@functools.lru_cache(maxsize=_SIDE_MEMO_SIZE)
def _series_x(x: complex) -> np.ndarray:
    """x, x^2, ..., x^n with n = ``_term_count(|x|)``, the x side of the power
    series 1 + sum_n n! x^n / (c)_n for c >= 1 and |x| <= 0.7. The leading 1
    is added after the dot product, as the last rounding: inside it, it set
    the rounding of every partial sum (5.6e-16 against 1.6e-16 over 600
    seeded points)."""
    return _frozen(np.multiply.accumulate(np.full(_term_count(abs(x)), x)))


# Euler's integral (DLMF 15.6.1) at a = b = 1, for c > 1 and every |x| > 0.7:
#     F(1, 1; c; x) = (c - 1) int_0^1 (1 - t)^(c - 2) / (1 - x t) dt,
# by the tanh-sinh rule (Takahasi & Mori 1974): t = (1 + tanh(pi/2 sinh s)) / 2
# with step h = 1/16 in s. Its nodes are fixed: s = (k + 1/2) h, |s| <= 4.59
# (148 nodes), where 1 - t falls to 4e-68 and the weights below 1e-66; or the
# nodes s = k h, |s| <= 4.5625 (147 nodes) halfway between them, for a pole
# that nears a node of the first set. t and 1 - t are formed separately from
# u = pi/2 sinh s, so (1 - t)^(c - 2) keeps its relative accuracy next to
# t = 1 for c < 2.
_RULE_H = 1.0 / 16.0


def _tanh_sinh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, 1 - t and weights h dt/ds of the tanh-sinh rule at ``s``."""
    u = 0.5 * math.pi * np.sinh(s)
    t = 1.0 / (1.0 + np.exp(-2.0 * u))
    one_minus_t = 1.0 / (1.0 + np.exp(2.0 * u))
    return t, one_minus_t, _RULE_H * math.pi * np.cosh(s) * t * one_minus_t


_RULES = (_tanh_sinh((np.arange(148.0) - 73.5) * _RULE_H),
          _tanh_sinh((np.arange(147.0) - 73.0) * _RULE_H))
# The pole t0 = 1/x of the integrand is subtracted in closed form when it lies
# within _POLE_GATE of [0, 1] on the side Re t0 >= 0: nearer, the rule alone
# loses digits (1e-7 at 0.1). Behind t = 0 the nodes crowd towards the pole,
# so there it is subtracted only within _POLE_GATE_BEHIND of 0, because
# (1 - t0)^(c - 2) grows with c and the subtraction cancels (1e-13 at
# |t0| = 0.3 and c = 20; 3e-14 without it at |t0| = 0.02).
_POLE_GATE = 0.3
_POLE_GATE_BEHIND = 0.05
# The largest c the rule takes, the last at which it reads below 1e-13 (see
# hyp2f1_11's Notes): (1 - t)^(c - 2) narrows to a width of about 1/c at
# t = 0, which the fixed nodes resolve less well, worst where the pole lies
# just behind t = 0 outside _POLE_GATE_BEHIND (|x| near 20, Re x < 0).
_EULER_MAX_C = 60.0
# Next to x = 1 the rule loses digits at non-integer c below about 2.5 (the
# pole 1/x sits just past the end t = 1 of the integral): 8e-14 at |1 - x| =
# 1e-4, 1.2e-9 at 1e-6 and 2.1e-7 at 1e-8. ``_hyp_near_one`` takes over where
# |1 - x| < _ONE_RADIUS and also |1 - x| < _ONE_GAP d^2, d the distance of c
# from the nearest integer: next to an integer its two terms cancel, to about
# 3e-17 / d, while the rule there loses about 1e-15 d / |1 - x|, so the two
# meet at d = 0.1 sqrt|1 - x| (1e-5 at |1 - x| = 1e-8). d > 1e-10 as well,
# so that 3 - c stays clear of hyp2f1_11's pole guard.
_ONE_RADIUS = 1e-3
_ONE_GAP = 100.0


@functools.lru_cache(maxsize=_SIDE_MEMO_SIZE)
def _euler_c(c: float, rule: int) -> np.ndarray:
    """(c - 1) w_i (1 - t_i)^(c - 2) on the nodes of ``_RULES[rule]``, the c
    side of Euler's integral."""
    _, one_minus_t, w = _RULES[rule]
    return _frozen(((c - 1.0) * w * one_minus_t ** (c - 2.0)).astype(complex))


@functools.lru_cache(maxsize=_SIDE_MEMO_SIZE)
def _euler_x(x: complex) -> tuple[int, np.ndarray, complex | None, complex]:
    """The x side of Euler's integral: the rule, 1 / (1 - x t_i) on its nodes,
    and what the pole subtraction needs.

    1 - x t is formed as (1 - t) + (1 - x) t, which keeps its relative
    accuracy where x t nears 1. Near the cut the pole t0 = 1/x nears [0, 1],
    and the integral is taken as

        int ((1 - t)^(c-2) - (1 - t0)^(c-2)) / (1 - x t) dt + (1 - t0)^(c-2) (-ln(1 - x) / x).

    The rule is linear, so this is the plain rule plus (1 - t0)^(c - 2)
    times the rule's error on 1 / (1 - x t): ``(rule, g, base, resid)`` with
    base = 1 - t0 = (x - 1) / x (x - 1 is exact near 1) and resid = -ln(1 - x)/x
    - sum w_i g_i. Far from [0, 1] base is None and no correction is made.

    Both parts are rounded to about the largest term w_i g_i, which is 1/|x|
    times the node spacing over the pole's distance from the node. So when
    the pole nears [0, 1] at 0 < Re t0 < 1, the rule is the one whose nodes
    lie farther from it in s: a pole next to a node 1e-12 off the cut read
    up to 1e-5 on the first rule alone, and the half-step distance keeps that
    term below about 4 / |x|.
    """
    t0 = 1.0 / x
    if t0.real >= 0.0:
        near = abs(t0 - min(t0.real, 1.0)) < _POLE_GATE
    else:
        near = abs(t0) < _POLE_GATE_BEHIND
    rule = 0
    if near and 0.0 < t0.real < 1.0:
        # the pole's s, in steps: the first rule has its nodes at half steps
        steps = math.asinh(math.log(t0.real / (1.0 - t0.real)) / math.pi) / _RULE_H
        rule = int(abs(steps % 1.0 - 0.5) < 0.25)
    t, one_minus_t, w = _RULES[rule]
    g = _frozen(1.0 / (one_minus_t + (1.0 - x) * t))
    if not near:
        return rule, g, None, 0j
    return rule, g, (x - 1.0) / x, -cmath.log(1.0 - x) / x - complex(w @ g)


@functools.lru_cache(maxsize=_DIRECT_MEMO_SIZE)
def _hyp_direct(c: float, x: complex) -> complex:
    """One direct evaluation for c >= 1.5 and x in the closed upper half-plane,
    memoised on exact (c, x): a dot product of a c side and an x side, each
    cached on its own key, from the power series for |x| <= 0.7 and from
    Euler's integral otherwise.

    ``hyp2f1_11`` maps every x whose imaginary part has a negative sign bit to
    x* before it calls here, so this memo and the side caches only ever see
    keys with Im x >= +0, and x and x* share one entry.
    """
    r = 2.0 * abs(0.5 * x)  # halved first: abs(x) overflows past the largest double
    if r > 2.0 ** 1022:
        raise DomainValidationError(
            f"hyp2f1_11 needs |x| <= 2**1022 (about 4.5e307), where 1/x is still a "
            f"normal double; got x = {x}"
        )
    if r <= _SERIES_RADIUS:
        powers = _series_x(x)
        return 1.0 + complex(np.dot(_series_c(c)[: len(powers)], powers))
    if c > _EULER_MAX_C:
        raise AccuracyError(
            f"hyp2f1_11 at |x| > {_SERIES_RADIUS} is accurate to 1e-13 only for c <= "
            f"{_EULER_MAX_C:g}, where Euler's integral still resolves (1 - t)^(c - 2) "
            f"on its fixed nodes; got c = {c}"
        )
    rule, g, base, resid = _euler_x(x)
    f = complex(np.dot(_euler_c(c, rule), g))
    if base is not None:
        f += (c - 1.0) * base ** (c - 2.0) * resid
    return f


def _hyp_near_one(c: float, x: complex) -> complex:
    """F(1, 1; c; x) next to x = 1 from F(1, 1; 3 - c; 1 - x), by DLMF 15.8.4
    at a = b = 1, whose second function F(c - 1, c - 1; c - 1; 1 - x) is
    x^(1 - c):

        F(1, 1; c; x) = (c - 1)/(c - 2) F(1, 1; 3 - c; 1 - x)
                        + Gamma(c) Gamma(2 - c) x^(1 - c) (1 - x)^(c - 2),

    with Gamma(c) Gamma(2 - c) = pi (1 - c) / sin(pi c) and the sine from
    ``_cis_pi``. The inner F sits next to 0, on the power series. A value
    past the double range (at c < 1, as x -> 1) raises DomainValidationError.
    """
    try:
        f = ((c - 1.0) / (c - 2.0) * hyp2f1_11(3.0 - c, 1.0 - x)
             + math.pi * (1.0 - c) / _cis_pi(c).imag * x ** (1.0 - c) * (1.0 - x) ** (c - 2.0))
    except OverflowError:
        f = complex(math.inf)
    if not cmath.isfinite(f):
        raise DomainValidationError(f"hyp2f1_11({c}, {x}) overflows a double next to x = 1")
    return f


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
        If c or x is not finite, c < -1e4, x lies on the branch cut, or |x|
        exceeds 2^1022 (about 4.5e307), beyond which 1/x, the pole of
        Euler's integral, is no longer a normal double; or if the value is
        past the double range, as it is at c < 1 where x nears 1 closely
        enough, and at c well below 0 where Re x > 1/2.
    PoleError
        If c is within 1e-10 of a non-positive integer.
    AccuracyError
        If c > 60 at |x| > 0.7, past the c that Euler's integral resolves
        to 1e-13 on its fixed nodes.

    Notes
    -----
    c is real, so F(x*) = F(x)*. One rule at the entry applies it: an x
    whose imaginary part has a negative sign bit, -0.0 included, is replaced
    by x*, everything below runs in the closed upper half-plane, and the
    value is conjugated once at the exit. So a value at Im x < 0 is the
    conjugate of the value at x*, to the bit, and x and x* share one memo
    entry.

    Two branches give the value for c >= 1.5, each one dot product of a
    vector that depends on c alone with one that depends on x alone, so a
    scan that holds one of them fixed rebuilds only the other. |x| <= 0.7
    sums the power series, for every c. Every |x| > 0.7 takes Euler's
    integral (DLMF 15.6.1) on a fixed tanh-sinh rule (148 nodes, or the 147
    halfway between them when the integrand's pole 1/x nears a node), with
    the pole subtracted in closed form near the cut. Against mpmath it
    reads below 1e-15 on the kernel locus Re x = 1/2 and, for c up to 6, at
    |x| from 1.5 to 1e6 in every direction and at |x| = 2^1022; below 2e-15
    in the annulus 0.7 < |x| < 1.5 off the locus (also within 1e-8 of the
    cut) and 6e-15 for c up to 20 at |x| up to 1e3. Its error grows with c:
    over 1,000 seeded points with |x| from 0.75 to 50 it reads at most
    2.5e-14 at c = 60 and 1.9e-13 at c = 100, and 6.7e-14 at c = 60 next to
    the pole gate behind t = 0 (|x| near 20, Re x < 0). So the rule takes
    c <= 60 only.

    Next to x = 1 the rule loses digits at non-integer c below about 2.5,
    because the pole 1/x sits just past the end t = 1 of the integral. Where
    |1 - x| < 1e-3 and c (at most 60) lies more than 0.1 sqrt|1 - x| from
    every integer, the value comes instead from the connection to 1 - x
    (DLMF 15.8.4, see ``_hyp_near_one``), taken at c itself, so c < 1.5
    goes through no anchor there. Against mpmath, with |1 - x| from 1e-2 to
    1e-8 on the real axis, 1e-9 off it and past Re x = 1, and c from 0.3 to
    6 and within 1e-6 of 2 and 3, it reads at most 2.5e-15 down to
    |1 - x| = 1e-6, 1.4e-14 at 1e-7 and 1.1e-13 at 1e-8 (the rule alone read
    1.2e-9 at 1e-6 and 2.1e-7 at 1e-8). The worst sits next to c = 2, on
    either side of the switch: 1.3e-12 at |1 - x| = 1e-8, 1.6e-13 at 1e-6,
    growing like |1 - x|^(-1/2) as x nears 1 closer still.

    For c < 1.5 the value is reached by the first-order contiguous
    relation c (1 - x) F(c) = c - (c - 1) x F(c + 1), which is Gauss's
    c (1 - x) F(a, b; c) - c F(a - 1, b; c) + (c - b) x F(a, b; c + 1) = 0
    (DLMF §15.5(ii)) at a = b = 1, where F(0, 1; c; x) = 1. It steps down
    from the one anchor F(c + K), c + K >= 1.5, taken from the primary
    branches. Each step's c is formed from the original c, so the last step
    divides by c itself and the 1/c blow-up of the function as c -> 0+
    carries no rounding of c. The steps cost time in proportion to their
    number, so c below -1e4 (10,002 steps, about 4 ms) raises. Far below 0
    the value grows like |x / (1 - x)|^(-c) where Re x > 1/2 and leaves the
    double range (at c = -1e4, once that ratio passes about 1.07), which
    raises too. Against the connection to 1 - x (DLMF 15.8.4) in mpmath at
    50 digits (``mpmath.hyp2f1`` stops its series early at so negative a c),
    at c = -1e4 + f with f from 1e-6 to 1 - 1e-6, over 1,438 seeded finite
    values with |1 - x| < 1, |Re x - 1/2| < 0.02 or |x| from 1 to 50 in
    every direction, it reads at most 1.1e-12, next to an integer c at
    Re x = 1/2, where the two terms of the connection are of one size; at
    c = -1e3 + f, over 584 values, 6.8e-14.

    The direct evaluations (the value itself for c >= 1.5, the anchor
    otherwise) go through a memo of the last 16 results, keyed on the exact
    (c, x). In a contiguous family c, c + 1, c + 2 at one x, each member
    below 1.5 steps down from the family's lowest member at or above 1.5, so
    the six values of one kernel build cost three direct evaluations (four
    at gamma = 1/2), and a repeated build costs none. A hit is exact: it
    returns the very value a fresh evaluation would. These counts describe
    float calls, one x at a time. ``scattering`` builds the kernel over an
    array of angles with ``_hyp2f1_11_rows``, which goes through neither the
    memo nor the x-side caches; it shares only the cached c sides.
    """
    c = float(c)
    x = complex(x)
    if not (math.isfinite(c) and cmath.isfinite(x)):
        raise DomainValidationError(f"hyp2f1_11 needs finite c and x, got c = {c}, x = {x}")
    if _near_nonpositive_integer(c, tol=1e-10):
        raise PoleError(f"hyp2f1_11 pole: c = {c} is (near) a non-positive integer")
    if x.imag == 0.0 and x.real >= 1.0:
        raise DomainValidationError(f"hyp2f1_11 argument on the branch cut [1, inf): x = {x}")
    # c is real, so F(x*) = F(x)*: every x with a negative sign bit on Im x,
    # -0.0 included, is evaluated at x* and its value conjugated once at the exit
    lower = math.copysign(1.0, x.imag) < 0.0
    if lower:
        x = x.conjugate()
    # Re x first: the one test that every x far from 1 takes
    if (abs(x.real - 1.0) < _ONE_RADIUS and c <= _EULER_MAX_C
            and 1e-10 < (d := abs(c - round(c)))
            and abs(1.0 - x) < min(_ONE_RADIUS, _ONE_GAP * d * d)):
        f = _hyp_near_one(c, x)
    elif c >= _MIN_DIRECT_C:
        f = _hyp_direct(c, x)
    else:
        if c < _MIN_SHIFTED_C:
            raise DomainValidationError(
                f"hyp2f1_11 takes c >= {_MIN_SHIFTED_C:g}, got c = {c}"
            )
        shift = int(math.ceil(_MIN_DIRECT_C - c))
        f = _hyp_direct(c + shift, x)  # the one anchor, F(c + shift)
        # First-order contiguous relation (a = b = 1, since F(0, 1; c; x) = 1):
        #   c (1 - x) F(c) = c - (c - 1) x F(c + 1)
        for k in range(shift - 1, -1, -1):
            ck = c + k  # from c itself, so the last step divides by the exact c
            f = (ck - (ck - 1.0) * x * f) / (ck * (1.0 - x))
        if not cmath.isfinite(f):
            raise DomainValidationError(
                f"hyp2f1_11 is past the double range at c = {c}, x = {x}"
            )
    return f.conjugate() if lower else f


# The array routine below takes its rows this many at a time, so its x-side
# matrices, the real and the imaginary parts of up to 256 x 148 values (0.3 MB
# each), stay that size for any number of rows.
_ROW_CHUNK = 256


def _row_sums(re: np.ndarray, im: np.ndarray, c_side: np.ndarray) -> np.ndarray:
    """sum_j (re + i im)_ij c_j for each row i, for a c side with real
    entries: two ``np.einsum`` row reductions over float matrices, each of
    which sums every row in one order whatever the other rows are."""
    c = c_side.real
    out = np.empty(len(re), dtype=complex)
    out.real = np.einsum("ij,j->i", re, c)
    out.imag = np.einsum("ij,j->i", im, c)
    return out


def _direct_rows(cs, x: np.ndarray) -> dict[float, np.ndarray]:
    """``_hyp_direct(c, x_i)`` for every c of ``cs`` (each >= 1.5, at most 60)
    and every x_i of the 1-D array ``x`` (closed upper half-plane), as
    {c: values}.

    Each row's x side is built once, on ``_hyp_direct``'s branches and
    thresholds: the powers x, ..., x^n of the power series where |x| <= 0.7,
    zero past its term count n, and otherwise 1 / (1 - x t_i) on the rule's
    nodes, with the node set and the pole subtraction of ``_euler_x`` chosen
    per row. A group's x sides are kept as the float matrices of their real
    and imaginary parts, and each direct value is their row sums against the
    cached c side, whose entries are real (``_row_sums``).
    """
    r = 2.0 * np.abs(0.5 * x)
    out = {c: np.empty(len(x), dtype=complex) for c in cs}
    rows = np.flatnonzero(r <= _SERIES_RADIUS)
    if rows.size:
        z = x[rows]
        count = (_LOG_TOL / np.log(r[rows])).astype(int) + 2  # ``_term_count``, per row
        powers = np.multiply.accumulate(np.repeat(z[:, None], _MAX_TERMS, axis=1), axis=1)
        powers[_K[None, :] >= count[:, None]] = 0.0
        re, im = powers.real.copy(), powers.imag.copy()
        for c in cs:
            out[c][rows] = 1.0 + _row_sums(re, im, _series_c(c))
    rows = np.flatnonzero(r > _SERIES_RADIUS)
    if rows.size:
        z = x[rows]
        t0 = 1.0 / z
        near = np.where(t0.real >= 0.0, np.abs(t0 - np.minimum(t0.real, 1.0)) < _POLE_GATE,
                        np.abs(t0) < _POLE_GATE_BEHIND)
        rule = np.zeros(len(z), dtype=int)
        inside = near & (0.0 < t0.real) & (t0.real < 1.0)
        if inside.any():
            tr = t0.real[inside]
            steps = np.arcsinh(np.log(tr / (1.0 - tr)) / math.pi) / _RULE_H
            rule[inside] = np.abs(steps % 1.0 - 0.5) < 0.25
        for k in (0, 1):
            pick = rule == k
            if not pick.any():
                continue
            zk, close = z[pick], near[pick]
            t, one_minus_t, w = _RULES[k]
            # 1 / (1 - x t) with 1 - x t = (1 - t) + (1 - x) t = d_re + i d_im
            d_re = one_minus_t + (1.0 - zk.real)[:, None] * t
            d_im = -zk.imag[:, None] * t
            size = d_re * d_re + d_im * d_im
            re, im = d_re / size, -d_im / size
            zn = zk[close]
            log_base = np.log((zn - 1.0) / zn)
            resid = -np.log(1.0 - zn) / zn - _row_sums(re[close], im[close], w)
            for c in cs:
                f = _row_sums(re, im, _euler_c(c, k))
                f[close] += (c - 1.0) * np.exp((c - 2.0) * log_base) * resid
                out[c][rows[pick]] = f
    return out


def _hyp2f1_11_rows(c_at_x, c_at_conj, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """2F1(1, 1; c; x) for each c of ``c_at_x``, then 2F1(1, 1; c; x*) for each
    c of ``c_at_conj``, at every point of the 1-D complex array ``x``: one
    array per c, in that order.

    The array form of ``hyp2f1_11`` for the kernel G of ``scattering``, on
    its domain: x on the locus Re x = 1/2 with |x| up to about 1e6 (the
    kernel's angles stay 1e-6 from +-pi), so |1 - x| = |x| >= 1/2 and the
    connection next to x = 1 never applies, and c in (0, 60]. No argument is
    checked. It takes the same steps as
    ``hyp2f1_11``, for all rows at once:

    * the half-plane rule once, under a mask: every row computes at its x or
      x*, whichever has Im x >= +0, and the values that belong to the other
      one are conjugated at the end;
    * each row's x side built once for all the c, and the direct values of
      the anchors (each c >= 1.5 itself, and c + ceil(1.5 - c) for each
      c < 1.5) as row reductions against the cached c sides
      (``_direct_rows``);
    * each c < 1.5 stepped down from its anchor by the same contiguous
      relation, each step's c formed from c itself.

    Rows run ``_ROW_CHUNK`` (256) at a time. Every row's value depends on
    that row alone, bit for bit, so it is the same in any split of the
    array. It differs from ``hyp2f1_11``'s only by rounding: numpy's
    arithmetic, float ``einsum`` row sums in place of ``np.dot``, and the pole
    term's power as exp((c - 2) log(1 - 1/x)).
    """
    cs = (*c_at_x, *c_at_conj)
    shifts = [0 if c >= _MIN_DIRECT_C else int(math.ceil(_MIN_DIRECT_C - c)) for c in cs]
    anchors = {c + shift for c, shift in zip(cs, shifts)}
    lower = np.signbit(x.imag)
    upper = np.where(lower, x.conjugate(), x)
    out = np.empty((len(cs), len(x)), dtype=complex)
    for lo in range(0, len(x), _ROW_CHUNK):
        z = upper[lo:lo + _ROW_CHUNK]
        direct = _direct_rows(anchors, z)
        for i, (c, shift) in enumerate(zip(cs, shifts)):
            f = direct[c + shift]
            for k in range(shift - 1, -1, -1):
                ck = c + k
                f = (ck - (ck - 1.0) * z * f) / (ck * (1.0 - z))
            out[i, lo:lo + _ROW_CHUNK] = f
    # F(x*) = F(x)*: F(c; x) at a lower x, and F(c; x*) at an upper x, are conjugates
    n = len(c_at_x)
    out[:n] = np.where(lower, out[:n].conjugate(), out[:n])
    out[n:] = np.where(lower, out[n:], out[n:].conjugate())
    return tuple(out)


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
    DomainValidationError
        If a parameter or z is not finite.
    PoleError
        If a lower-parameter Pochhammer factor hits zero before the series
        terminates through an upper parameter.
    AccuracyError
        If the terms have not fallen below the stopping threshold within
        ``_PFQ_MAX_TERMS`` terms, or the sum overflows a double.

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
    if not (all(map(math.isfinite, a + b)) and cmath.isfinite(z)):
        raise DomainValidationError(
            f"pfq_series needs finite parameters and z (a={a}, b={b}, z={z})"
        )
    term = 1.0 + 0.0j
    acc = 1.0 + 0.0j
    small_streak = 0
    for n in range(_PFQ_MAX_TERMS):
        num = 1.0
        for ai in a:
            num *= ai + n
        if num == 0.0:
            break  # series terminated exactly
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
                break
        else:
            small_streak = 0
    else:
        raise AccuracyError(
            f"pfq_series did not converge in {_PFQ_MAX_TERMS} terms (a={a}, b={b}, z={z})"
        )
    if not cmath.isfinite(acc):
        raise AccuracyError(f"pfq_series overflows a double (a={a}, b={b}, z={z})")
    return acc
