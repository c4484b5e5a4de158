"""Computable perturbation inequalities for the pulled-back operator family.

Everything here is a verbatim evaluation of closed-form bounds in terms of
the displacement-expansion norms ||B||_1, ||B||_inf, the parameter radii
|y0|_inf, |y|_inf, and coefficient/solution norms.  A Monte-Carlo checker
draws admissible (r, y0, y) samples from a concrete map and verifies the
sampled pointwise matrix quantities never exceed the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DomainError, HypothesisViolationError


@dataclass(frozen=True)
class BoundsInput:
    """Norms and radii of the bounds; building one checks their ranges and two hypotheses.

    C_max must be positive and every other field nonnegative.  The norms,
    C_max included, are inputs: no estimator in the package supplies them.
    """

    b1: float            # ||B||_1
    binf: float          # ||B||_inf
    y0_inf: float        # |y0|_inf
    y_inf: float         # |y|_inf
    eps_max: float = 1.0
    kappa2_max: float = 0.0
    C_max: float = 1.0   # Banach-algebra constant of the piecewise-H2 space
    u0_norm: float = 0.0
    u_norm: float = 0.0
    N_f: int = 0
    xi_l2: float = 0.0
    xi_grad_l2: float = 0.0
    mu_max: float = 0.0  # largest sqrt(mu_k)

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (value > 0.0 if name == "C_max" else value >= 0.0):  # also rejects nan
                sign = "positive" if name == "C_max" else "nonnegative"
                raise HypothesisViolationError(f"{name!r} must be {sign}, got {value}",
                                               violated=name)
        if not self.b1 < 0.25:  # a hypothesis is named by the field it bounds
            raise HypothesisViolationError(
                f"'b1' = {self.b1} violates ||B||_1 < 1/4", violated="b1"
            )
        if self.b1 > 0.0 and not self.y_inf < 1.0 / (4.0 * self.b1) - self.y0_inf:
            raise HypothesisViolationError(
                f"'y_inf' = {self.y_inf} violates |y|_inf < 1/(4||B||_1) - |y0|_inf "
                f"with 'b1' = {self.b1} and 'y0_inf' = {self.y0_inf}",
                violated="y_inf",
            )


@dataclass(frozen=True)
class PropABounds:
    jinv_y0: float        # ||J^-1(y0)||
    jinv_y0_y: float      # ||J^-1(y0 + y)||
    neumann_tail: float   # ||(I + J^-1 By)^-1 - I||
    absdet_y0: float      # |det J(y0)|
    absdet_y0_y: float    # |det J(y0 + y)|
    det_op_y0: float      # ||det J(y0)||_L
    det_op_y0_y: float    # ||det J(y0 + y)||_L
    det_ratio: float      # ||det(I + J^-1 By) - 1||_L

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def prop_a_bounds(inp: BoundsInput) -> PropABounds:
    """The eight closed-form operator/determinant bounds."""
    b1, y0, y = inp.b1, inp.y0_inf, inp.y_inf
    q0 = 4.0 * b1 * y0
    q = 4.0 * b1 * (y0 + y)
    t0 = b1 * y0
    t = b1 * (y0 + y)
    ratio3 = ((1.0 - t0) / (1.0 - t)) ** 3
    return PropABounds(
        jinv_y0=1.0 / (1.0 - q0),
        jinv_y0_y=1.0 / (1.0 - q),
        neumann_tail=4.0 * b1 * y / (1.0 - q),
        absdet_y0=1.0 / (1.0 - t0) ** 3,
        absdet_y0_y=1.0 / (1.0 - t) ** 3,
        det_op_y0=4.0 / (1.0 - t0) ** 3,
        det_op_y0_y=4.0 / (1.0 - t) ** 3,
        det_ratio=4.0 * (ratio3 - 1.0),
    )


def a_coeff(inp: BoundsInput) -> float:
    """Factor multiplying ||u||_H2 in the linear-part difference estimate."""
    b = prop_a_bounds(inp)
    return b.jinv_y0_y ** 2 * b.det_op_y0_y


def b_coeff(inp: BoundsInput) -> float:
    """Factor multiplying ||u0||_H2 in the linear-part difference estimate."""
    b = prop_a_bounds(inp)
    P = b.neumann_tail
    D = b.det_ratio
    bracket = P * P * D + 2.0 * P * D + P * P + 2.0 * P + D
    return bracket * b.jinv_y0 ** 2 * b.det_op_y0


def saturating(f, *args) -> float:
    """f(*args) for an f whose values are >= 0, or +inf where f raises OverflowError.

    With product, this is the saturation rule of the bounds here and in region.
    """
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def product(*factors: float) -> float:
    """Product of nonnegative factors: 0 if one is 0, even when another is +inf."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def nonlinear_term_bound(inp: BoundsInput) -> float:
    """Difference bound for the sinh reaction term in L2; +inf once cosh or sinh overflows."""
    b1, y0, y = inp.b1, inp.y0_inf, inp.y_inf
    t0 = b1 * y0
    t = b1 * (y0 + y)
    ratio3 = ((1.0 - t0) / (1.0 - t)) ** 3
    C = inp.C_max
    lead = math.sqrt(3.0) * inp.kappa2_max / (1.0 - t0) ** 3
    term1 = product(2.0, saturating(math.cosh, C * (inp.u0_norm + 0.5 * inp.u_norm)),
                    saturating(math.sinh, C * 0.5 * inp.u_norm), ratio3)
    term2 = product(saturating(math.sinh, C * inp.u_norm) / C, ratio3 - 1.0)
    return product(lead, term1 + term2)


def forcing_term_bound(inp: BoundsInput) -> float:
    """Difference bound for the shifted-charge forcing term in L2."""
    if inp.N_f == 0 or inp.y_inf == 0.0:
        return 0.0
    grad_part = 6.0 * inp.mu_max * inp.xi_grad_l2
    det_part = 3.0 * inp.xi_l2 * inp.binf / (1.0 - inp.b1 * inp.y_inf)
    return inp.N_f * inp.y_inf * (grad_part + det_part)


def m_estimate(inp: BoundsInput) -> float:
    """Combined sup bound for the residual-functional difference (L2 part only).

    The trace / co-normal components are not covered by a closed form and
    are excluded; callers should treat this as the L2 contribution to M.
    """
    linear = math.sqrt(3.0) * inp.eps_max * (
        a_coeff(inp) * inp.u_norm + b_coeff(inp) * inp.u0_norm
    )
    return linear + nonlinear_term_bound(inp) + forcing_term_bound(inp)


# ---------------------------------------------------------------------------
# Monte-Carlo verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    trials: int
    violations: list = field(default_factory=list)  # (trial, inequality, actual, bound)
    max_slack: dict = field(default_factory=dict)   # inequality -> max actual/bound ratio

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bounds_by_sampling(dmap, domain, inp: BoundsInput, trials: int = 1000,
                              seed: int = 0) -> VerificationReport:
    """Check the sampled pointwise quantities against the eight bounds.

    Pointwise spectral norms are one-sided witnesses for the operator-norm
    bounds; a violation indicates an implementation bug since the bounds are
    estimates.
    Each trial draws r, y0 and y in turn; the matrices of all trials are then
    formed at once by geometry.jacobian, one y per point, and a NaN or
    infinite entry raises DomainError before any inverse or SVD. So does
    trials < 1, which would check nothing.
    """
    if not trials >= 1:
        raise DomainError(f"trials must be >= 1, got {trials}", violated="trials")
    report = VerificationReport(trials=trials)
    N = dmap.n_modes
    rng = np.random.default_rng(seed)
    y_cap = 1.0 / (4.0 * inp.b1) - inp.y0_inf if inp.b1 > 0 else 1.0
    y_cap = min(y_cap * 0.999, inp.y_inf) if inp.y_inf > 0 else 0.0

    def record(trial, name, actual, bound):
        ratio = actual / bound if bound > 0 else (0.0 if actual == 0.0 else math.inf)
        report.max_slack[name] = max(report.max_slack.get(name, 0.0), ratio)
        if actual > bound * (1.0 + 1e-12):
            report.violations.append((trial, name, actual, bound))

    r = np.empty((trials, 3))
    y0 = np.empty((trials, N))
    y = np.zeros((trials, N))
    for trial in range(trials):
        r[trial] = rng.uniform(domain.box_min, domain.box_max)
        y0[trial] = rng.uniform(-inp.y0_inf, inp.y0_inf, size=N)
        if y_cap > 0:
            y[trial] = rng.uniform(-y_cap, y_cap, size=N)
    # J(r; y) = I + sum_k sqrt(mu_k) y_k B_k(r) at each trial's r and y
    J0, J1, Jy = (geometry.jacobian(dmap, r, ys.T) for ys in (y0, y0 + y, y))
    if not all(np.all(np.isfinite(J)) for J in (J0, J1, Jy)):
        raise DomainError("verify_bounds_by_sampling: the map's Jacobian is not finite")
    inv0 = np.linalg.inv(J0)
    step = np.eye(3) + inv0 @ (Jy - np.eye(3))  # I + J^-1(y0) By

    def norm2(mats):
        return np.linalg.norm(mats, 2, axis=(-2, -1))

    d0, d1 = np.abs(geometry.det3(J0)), np.abs(geometry.det3(J1))
    # the pointwise |det J| witnesses both its sup bound and its operator bound
    sampled = {
        "jinv_y0": norm2(inv0),
        "jinv_y0_y": norm2(np.linalg.inv(J1)),
        "neumann_tail": norm2(np.linalg.inv(step) - np.eye(3)),
        "absdet_y0": d0, "absdet_y0_y": d1, "det_op_y0": d0, "det_op_y0_y": d1,
        "det_ratio": np.abs(geometry.det3(step) - 1.0),
    }
    for trial in range(trials):
        sub = BoundsInput(b1=inp.b1, binf=inp.binf,
                          y0_inf=float(np.max(np.abs(y0[trial]), initial=0.0)),
                          y_inf=float(np.max(np.abs(y[trial]), initial=0.0)))
        for name, bound in prop_a_bounds(sub).as_dict().items():
            record(trial, name, float(sampled[name][trial]), bound)
    return report
