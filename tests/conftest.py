"""The references that the tests compare the package against.

``direct_newton`` is a tight NPBE solve by direct sparse steps, and
``linear_solve`` solves (A + diag K) u = b by the package's own linear path.
``npbe_residual`` is the one copy of R(u) = A u + K sinh u - b in the tests.
``map_forward`` evaluates F(r; y), complex y included, and
``polynomial_index_set`` lists the polynomials a sparse grid spans, with
``f_degree`` the level budget of a degree.  Tests import them from here.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from npbe_uq import pde, smolyak


def npbe_residual(A, kd, b, v):
    """R(v) = A v + K sinh v - b on the interior nodes, K = diag(kd)."""
    return A @ v + kd * np.sinh(v) - b


def assembled(domain, dmap, coeffs, y, grid):
    """(A, K, b) on the interior nodes, assembled as newton_solve_npbe assembles them."""
    return (pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid).matrix,
            pde.reaction_profile(domain, dmap, coeffs, y, grid).flat,
            pde.assemble_rhs(domain, dmap, coeffs, y, grid).flat)


def direct_newton(domain, dmap, coeffs, y, grid, rtol=1e-14):
    """Newton whose steps are direct sparse solves, from u = 0 to ||R(u)|| <= rtol ||b||.

    Returns u as a GridField.  A dielectric of 70 can put the rounding floor
    of ||R(u)|| near 2e-14 ||b||; such a case passes rtol = 1e-13.
    """
    A, kd, b = assembled(domain, dmap, coeffs, y, grid)
    v = np.zeros(len(b))
    for _ in range(30):
        r = npbe_residual(A, kd, b, v)
        if np.linalg.norm(r) <= rtol * np.linalg.norm(b):
            return pde.GridField(grid, v)
        v -= spsolve((A + sp.diags(kd * np.cosh(v))).tocsc(), r)
    raise AssertionError(f"direct Newton did not reach ||R(u)|| <= {rtol} ||b|| in 30 steps")


def linear_solve(op, reaction, rhs, tol=1e-10, maxiter=pde._MAX_CG):
    """Solve (A + diag K) u = b by the pipeline's linear path: _zero_jacobian, then _pcg.

    reaction is the GridField of K, or None for K = 0.  Returns u as a
    GridField and the CG report.
    """
    kd = np.zeros(len(rhs.flat)) if reaction is None else reaction.flat
    matrix, vcycle = pde._zero_jacobian(op, kd)
    u, info = pde._pcg(matrix, rhs.flat, vcycle, tol=tol, maxiter=maxiter)
    return pde.GridField(op.grid, u), info


def map_forward(dmap, r, y):
    """F(r; y) = r + sum_k sqrt(mu_k) b_k(r) y_k.  Complex y is allowed for analyticity probes."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y)
    out = r.astype(complex) if np.iscomplexobj(y) else r.copy()
    for k, (mu, fld) in enumerate(dmap.modes):
        for d, b in enumerate(fld.value(r)):
            out[..., d] += math.sqrt(mu) * y[k] * b
    return out


def f_degree(p: int) -> int:
    """Level budget consumed by polynomial degree p >= 0 in the Smolyak index set."""
    return p if p <= 1 else math.ceil(math.log2(p))


def polynomial_index_set(rule: str, w: int, N: int) -> set:
    """Degree multi-indices spanned exactly by the sparse interpolant.

    For SM this is the set with sum_n f(p_n) <= w; for TD total degree <= w;
    for HC product (p_n + 1) <= w + 1.
    """
    degs = set()
    for i in smolyak.index_set(rule, w, N):
        degs.update(itertools.product(*(range(smolyak.growth(ik)) for ik in i)))
    return degs


@pytest.fixture
def tight_solve():
    """direct_newton, for the tests that compare a solve against it."""
    return direct_newton
