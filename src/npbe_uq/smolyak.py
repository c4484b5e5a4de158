"""Isotropic Smolyak sparse grids on nested Clenshaw-Curtis abscissas.

The sparse operator is expanded with the combination technique: an
integer-weighted sum of full tensor Lagrange interpolants over an
admissible (downward-closed) set of level multi-indices.  Nodes are keyed
by the fraction of the Chebyshev angle, j / 2^k, a dyadic rational that a
float holds exactly, so nesting and knot deduplication are exact rather
than tolerance-based.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, IncompleteStoreError

RULES = ("SM", "TD", "HC")


# ---------------------------------------------------------------------------
# 1D building blocks
# ---------------------------------------------------------------------------

def growth(i: int) -> int:
    """Number of Clenshaw-Curtis points at level i: m(0)=0, m(1)=1, m(i)=2^(i-1)+1."""
    if i < 0:
        raise DomainError("level must be nonnegative")
    if i == 0:
        return 0
    if i == 1:
        return 1
    return 2 ** (i - 1) + 1


@lru_cache(maxsize=None)
def node_keys(m: int) -> tuple[float, ...]:
    """Exact angle-fraction keys of the m closed CC nodes, sorted ascending.

    A key t stands for the abscissa -cos(pi * t).  The midpoint key 1/2 is
    the single node of the m=1 rule, which keeps nesting exact across levels.
    Every other count is 2^k + 1, so each key j / 2^k is exact as a float.
    """
    if m == 1:
        return (0.5,)
    if m < 3 or (m - 1) & (m - 2):
        raise DomainError(f"node count must be 1 or 2^k + 1, got {m}")
    return tuple(j / (m - 1) for j in range(m))


def node_value(key: float) -> float:
    # exact zero at the midpoint and exact antisymmetry about it
    if 2 * key == 1:
        return 0.0
    if 2 * key > 1:
        return -node_value(1 - key)
    return -math.cos(math.pi * key)


def cc_nodes(m: int) -> np.ndarray:
    """Closed Clenshaw-Curtis abscissas on [-1, 1], sorted ascending."""
    return np.array([node_value(k) for k in node_keys(m)])


@lru_cache(maxsize=None)
def _nodes_and_bary(m: int):
    """Nodes plus barycentric weights for the m-point CC rule, m >= 3."""
    x = cc_nodes(m)
    # classic closed-Chebyshev barycentric weights: (-1)^j, halved at the ends
    w = np.array([(-1.0) ** j for j in range(m)])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


@lru_cache(maxsize=None)
def _quadrature_weights(m: int) -> np.ndarray:
    """1D weights integrating the Lagrange basis against the uniform density 1/2.

    Closed-form Clenshaw-Curtis weights (Waldvogel, BIT 46, 2006) for the
    m = n + 1 nodes -cos(pi j / n), n even; the cosine angles are reduced
    exactly as integers mod 2n.  The array is cached, so it is read-only.
    """
    if m == 1:
        w = np.ones(1)
    else:
        n = m - 1
        j = np.arange(m)[:, None]
        k = np.arange(1, n // 2 + 1)
        c = np.cos(np.pi * ((2 * j * k) % (2 * n)) / n)
        c[:, -1] *= 0.5  # the k = n/2 term enters with half weight
        w = (1.0 - 2.0 * (c / (4.0 * k * k - 1.0)).sum(axis=1)) / n
        w[0] = w[-1] = 0.5 / (n * n - 1)
    w.flags.writeable = False
    return w


def lagrange_eval_matrix(m: int, pts: np.ndarray) -> np.ndarray:
    """Values of the m Lagrange basis polynomials at pts, shape (len(pts), m)."""
    pts = np.asarray(pts)
    if m == 1:
        return np.ones(pts.shape + (1,), dtype=pts.dtype if np.iscomplexobj(pts) else float)
    x, w = _nodes_and_bary(m)
    diff = pts[..., None] - x
    exact = diff == 0
    diff = np.where(exact, 1.0, diff)
    terms = w / diff
    out = terms / np.sum(terms, axis=-1, keepdims=True)
    hit = np.any(exact, axis=-1)
    if np.any(hit):
        out = np.where(hit[..., None], exact.astype(out.dtype), out)
    return out


# ---------------------------------------------------------------------------
# Index sets
# ---------------------------------------------------------------------------

def check_levels(rule: str, levels) -> None:
    """DomainError naming 'rule' unless rule is one of RULES, or 'levels' unless levels
    holds at least one level and each is >= 0."""
    if rule not in RULES:
        raise DomainError(f"unknown rule {rule!r}, not one of {RULES}", violated="rule")
    if not (levels and min(levels) >= 0):
        raise DomainError(f"needs at least one level, each >= 0, got {levels}", violated="levels")


def check_dimension(N) -> None:
    """DomainError naming 'N' unless N is an integer >= 1 (a numpy integer is, a bool is not)."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise DomainError(f"N must be an integer, got {N!r}", violated="N")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}", violated="N")


def index_set(rule: str, w: int, N: int) -> list[tuple[int, ...]]:
    """Admissible level multi-indices (components >= 1) for the given rule, sorted.

    A depth-first walk carries what is left of the rule's budget, so it tests each
    component once; HC keeps B - 1 of its product bound B, as a b <= B iff b <= B // a.
    """
    check_levels(rule, (w,))
    check_dimension(N)
    spend = {"SM": lambda left, i: left - (i - 1),
             "TD": lambda left, i: left - (growth(i) - 1),
             "HC": lambda left, i: (left + 1) // growth(i) - 1}[rule]

    def walk(prefix, left):
        if len(prefix) == N:
            yield prefix
            return
        i = 1
        while (rest := spend(left, i)) >= 0:
            yield from walk(prefix + (i,), rest)
            i += 1

    return list(walk((), w))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseGridPlan:
    N: int
    terms: tuple            # ((level multi-index, combination coefficient), ...)
    knots: tuple            # canonical knot keys: tuples of N dyadic float keys, one per axis
    knot_values: np.ndarray  # (eta, N) float abscissas, same order as knots
    term_knots: tuple       # per term, the knot row of each tensor point, shaped like the term

    @property
    def n_knots(self) -> int:
        return len(self.knots)


def _tensor_keys(i: tuple[int, ...]):
    per_dim = [node_keys(growth(ik)) for ik in i]
    return itertools.product(*per_dim)


def _combination_coefficients(levels: list) -> dict:
    """c_i = sum over e in {0,1}^N of (-1)^|e| [i + e in L], for i in L.

    That is the N-fold forward difference of the indicator of the
    downward-closed set L, taken one axis at a time: O(N |L|) work.
    """
    c = dict.fromkeys(levels, 1)
    for d in range(len(levels[0])):
        c = {i: ci - c.get(i[:d] + (i[d] + 1,) + i[d + 1:], 0) for i, ci in c.items()}
    return c


def build_plan(rule: str, w: int, N: int) -> SparseGridPlan:
    """Combination-technique plan: terms with nonzero coefficient plus the knot union.

    Costs O(N |L|) for the coefficients plus one pass over the terms'
    tensor points, which gives each point its row in the sorted knots.
    """
    levels = index_set(rule, w, N)
    coeffs = _combination_coefficients(levels)
    terms = tuple((i, coeffs[i]) for i in levels if coeffs[i] != 0)
    ids = {}
    rows = [np.array([ids.setdefault(key, len(ids)) for key in _tensor_keys(i)], dtype=np.intp)
            for i, _ in terms]
    keys = list(ids)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys))
    knots = tuple(keys[j] for j in order)
    term_knots = tuple(rank[row].reshape([growth(ik) for ik in i])
                       for row, (i, _) in zip(rows, terms))
    # one node_value call per distinct axis key
    axis_keys, at = np.unique(np.array(knots), return_inverse=True)
    table = np.array([node_value(k) for k in axis_keys.tolist()])
    values = table[at].reshape(len(knots), N)
    return SparseGridPlan(N, terms, knots, values, term_knots)


def evaluate_plan(plan: SparseGridPlan, func) -> dict:
    """Knot values {knot key: func(y)} at every knot of the plan."""
    return {key: func(y) for key, y in zip(plan.knots, plan.knot_values)}


def _knot_array(plan: SparseGridPlan, values) -> np.ndarray:
    """values read once, in plan.knots order; IncompleteStoreError names the first missing knot."""
    try:
        return np.array([values[key] for key in plan.knots], dtype=float)
    except KeyError as exc:
        raise IncompleteStoreError(f"knot {exc.args[0]} has not been evaluated") from None


def interpolate(plan: SparseGridPlan, values, y) -> np.ndarray:
    """Evaluate the sparse interpolant at one point (N,) or a batch (Q, N).

    values maps each knot key of the plan to its value, as evaluate_plan
    returns them; a missing knot raises IncompleteStoreError.  Complex
    coordinates are supported componentwise for polyellipse sampling.
    """
    y = np.asarray(y)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    if pts.shape[-1] != plan.N:
        raise DomainError(f"point dimension {pts.shape[-1]} != plan N {plan.N}")
    dtype = complex if np.iscomplexobj(pts) else float
    arr = _knot_array(plan, values).astype(dtype, copy=False)
    total = np.zeros(pts.shape[0], dtype=dtype)
    # one Lagrange matrix per (axis, level), shared by the terms
    L = {(n, ik): lagrange_eval_matrix(growth(ik), pts[:, n].astype(dtype))
         for n, ik in {(n, ik) for i, _ in plan.terms for n, ik in enumerate(i)}}
    for (i, coeff), rows in zip(plan.terms, plan.term_knots):
        vals = arr[rows]
        acc = np.broadcast_to(vals, (pts.shape[0],) + vals.shape)
        for n, ik in enumerate(i):
            acc = np.einsum("qm...,qm->q...", acc, L[n, ik])
        total += coeff * acc
    return total[0] if single else total


def integrate(plan: SparseGridPlan, values) -> float:
    """Integral of the sparse interpolant of values (as for interpolate)
    against the uniform probability density."""
    arr = _knot_array(plan, values)
    total = 0.0
    for (i, coeff), rows in zip(plan.terms, plan.term_knots):
        acc = arr[rows]
        for ik in i:
            # the one call np.tensordot(w, acc, axes=(0, 0)) makes, without its overhead
            m = growth(ik)
            acc = np.dot(_quadrature_weights(m).reshape(1, m), acc.reshape(m, -1))
        total += coeff * float(acc[0, 0])
    return total
