"""Closed-form analyticity-radius estimates and sparse-grid error constants.

Given a sup bound M on the residual functional over a ball of radius R and
a bound a on the inverse linearization, the quantitative implicit function
theorem yields an analyticity radius Theta and a solution-norm bound Xi in
closed form.  The largest Bernstein polyellipse inside the union of
Theta-balls around [-1, 1] has log-parameter sigma* = asinh(Theta), which
feeds the sub-exponential / algebraic convergence bounds of the sparse grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import product, saturating
from .errors import DomainError
from .smolyak import check_dimension


# ---------------------------------------------------------------------------
# Implicit-function-theorem region
# ---------------------------------------------------------------------------

def _p_and_s(M: float, a: float, R: float):
    """(p, s) after checking M, a, R > 0: p = aM, formed once, as Theta and Xi read a and M only
    through it, and the common radical s = sqrt(pR^2(p + R)), factored to avoid cancellation."""
    _require_positive(M=M, a=a, R=R)
    p = a * M
    return p, R * math.sqrt(p * (p + R))


def theta(M: float, a: float, R: float) -> float:
    """Radius of the guaranteed analyticity ball around each parameter point."""
    p, s = _p_and_s(M, a, R)
    num = (p * R - s) * (p * R + R * R - s)
    den = 2 * p * p * R - R * s + p * (2 * R * R - 3 * s)
    return num / den


def xi(M: float, a: float, R: float) -> float:
    """Bound on the solution-perturbation norm inside the Theta-ball."""
    p, s = _p_and_s(M, a, R)
    return (p * R + R * R - s) / (p + R)


def sigma_star(theta_value: float) -> float:
    """Log-parameter of the largest inscribed Bernstein polyellipse."""
    if not theta_value >= 0.0:  # also rejects nan
        raise DomainError(f"theta must be nonnegative, got {theta_value}")
    return math.asinh(theta_value)


@dataclass(frozen=True)
class RegionEstimate:
    theta: float
    xi: float
    sigma_star: float


def region_estimate(M: float, a: float, R: float) -> RegionEstimate:
    """Theta, Xi and sigma*; DomainError naming M, a and R unless 0 < Theta, Xi < inf.

    The closed form cancels to 0 or below from aM / R ~ 1e16, where the
    exact Theta and Xi are positive, and its radical overflows once aM or R
    passes ~1e154.
    """
    t, x = theta(M, a, R), xi(M, a, R)
    if not (0.0 < t < math.inf and 0.0 < x < math.inf):  # also rejects nan
        overflow = not (math.isfinite(t) and math.isfinite(x))
        raise DomainError(f"theta {t} or xi {x} is not {'finite' if overflow else 'positive'} "
                          f"at M = {M}, a = {a}, R = {R}: the closed form "
                          f"{'overflows' if overflow else 'cancels'}", violated=("M", "a", "R"))
    return RegionEstimate(t, x, sigma_star(t))


def _require_positive(**kwargs):
    for name, v in kwargs.items():
        if not v > 0.0:
            raise DomainError(f"{name} must be positive, got {v}", violated=name)


# ---------------------------------------------------------------------------
# Polyellipse sampling
# ---------------------------------------------------------------------------

def polyellipse_boundary(sigma: float, samples: int = 64) -> np.ndarray:
    """Boundary of the Bernstein ellipse E_sigma: cosh(s)cos t + i sinh(s)sin t.

    DomainError unless sigma > 0 with cosh(sigma) finite (sigma <~ 710), and samples >= 1.
    """
    if not sigma > 0.0:  # also rejects nan
        raise DomainError(f"sigma must be positive, got {sigma}")
    cosh = saturating(math.cosh, sigma)
    if cosh == math.inf:
        raise DomainError(f"cosh(sigma) is not finite at sigma = {sigma}")
    if not samples >= 1:
        raise DomainError(f"samples must be >= 1, got {samples}", violated="samples")
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    return cosh * np.cos(t) + 1j * math.sinh(sigma) * np.sin(t)


def m_tilde(evaluator, sigma: float, N: int, samples: int = 64) -> float:
    """Sampled sup of |nu| over the distinguished boundary of the polyellipse.

    By the maximum modulus principle the sup over the closed polyellipse is
    attained on the boundary product; sampling gives a lower estimate.  The
    ring's N-fold product goes to the evaluator one first coordinate at a time.
    A value that is NaN or infinite raises DomainError.
    """
    ring = polyellipse_boundary(sigma, samples)
    check_dimension(N)
    rest = np.array(list(itertools.product(ring, repeat=N - 1)), dtype=complex)
    best = 0.0
    for first in ring:
        pts = np.column_stack([np.full(len(rest), first), rest])
        vals = np.abs(np.asarray(evaluator(pts), dtype=complex))
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"m_tilde: a value is not finite on the polyellipse, sigma = {sigma}")
        best = max(best, float(np.max(vals)))
    return best


# ---------------------------------------------------------------------------
# Sparse-grid error-bound constants
# ---------------------------------------------------------------------------

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ErrorBoundConstants:
    sigma: float
    c2_tilde: float
    delta_star: float
    mu1: float
    mu2: float
    mu3: float
    a_delta_sigma: float
    C1: float
    Q: float


@dataclass(frozen=True)
class ErrorBound:
    regime: str            # "subexponential" or "algebraic"
    subexp_bound: float
    algebraic_bound: float

    @property
    def bound(self) -> float:
        return self.subexp_bound if self.regime == "subexponential" else self.algebraic_bound


def error_constants(sigma_star_value: float, N: int, M_tilde: float) -> ErrorBoundConstants:
    """Evaluate the full constant block feeding both convergence bounds.

    The undefined prefactor C(sigma) inside C1 is taken equal to the
    adjacent constant C2~(sigma); intermediate values are all exposed for
    auditability.  Each value saturates (bounds.saturating): +inf past float
    range, never NaN, and C1 = Q = 0 at M_tilde = 0.
    """
    if not 0.0 < sigma_star_value < math.inf:  # also rejects nan
        raise DomainError(f"sigma_star must be finite and positive, got {sigma_star_value}")
    check_dimension(N)
    if not 0.0 <= M_tilde < math.inf:  # a zero function has a zero error
        raise DomainError(f"'M_tilde' must be finite and nonnegative, got {M_tilde}",
                          violated="M_tilde")
    sigma = sigma_star_value / 2.0
    # pi / sigma* is pi / 2 sigma, but never divides by 0; c2~ is +inf below sigma* ~ 1.7e-308
    c2t = 1.0 + math.sqrt(math.pi / sigma_star_value) / LOG2
    delta = (math.e * LOG2 - 1.0) / c2t
    mu1 = sigma / (1.0 + math.log(2.0 * N))
    mu2 = LOG2 / (N * (1.0 + math.log(2.0 * N)))
    ds = delta * sigma  # underflows to 0 from sigma* ~ 1e-216, with the same bits as sigma delta
    sdc = product(ds, c2t)  # sigma delta c2~, 0 where delta sigma is
    mu3 = sdc / (1.0 + 2.0 * math.log(2.0 * N))
    # at ds = 0 the exponent's limit is 0, and its bracket may be +inf or 1 / 0
    a_ds = 1.0 if ds == 0.0 else saturating(math.exp, ds * (
        1.0 / (sigma * LOG2**2) + 1.0 / (LOG2 * math.sqrt(2.0 * sigma)) + 2.0 * c2t))
    den = math.e * delta * sigma
    C1 = product(4.0, M_tilde, c2t, a_ds)
    C1 = C1 / den if den > 0.0 else product(C1, math.inf)
    if C1 == 1.0:  # nudged off the pole of 1 / |1 - C1|
        C1 += 1e-12
    Q = math.inf if C1 == math.inf else \
        product(C1 / saturating(math.exp, sdc), saturating(pow, max(1.0, C1), N) / abs(1.0 - C1))
    return ErrorBoundConstants(sigma, c2t, delta, mu1, mu2, mu3, a_ds, C1, Q)


def error_bound(sigma_star_value: float, N: int, M_tilde: float, w: int, eta: int) -> ErrorBound:
    """A priori sup-error bound for a level-w plan with eta knots.

    The sub-exponential form applies when w > N / log 2; otherwise only the
    algebraic bound holds.  Both are reported and saturate as the constants
    do; an infinite bound stays +inf before a factor that could be 0.
    """
    c = error_constants(sigma_star_value, N, M_tilde)
    if not eta >= 1:
        raise DomainError(f"eta must be >= 1, got {eta}", violated="eta")
    subexp = product(c.Q, saturating(pow, eta, c.mu3))
    if subexp < math.inf:
        subexp *= math.exp(-(N * c.sigma / 2 ** (1.0 / N)) * eta**c.mu2)
    growth = product(c.C1, saturating(pow, max(1.0, c.C1), N))
    algebraic = math.inf if growth == math.inf else (growth / abs(1.0 - c.C1)) * eta ** (-c.mu1)
    regime = "subexponential" if w > N / LOG2 else "algebraic"
    return ErrorBound(regime, subexp, algebraic)

