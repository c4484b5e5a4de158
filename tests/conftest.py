"""The tight NPBE reference that the solver tests compare against."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from npbe_uq import pde


def direct_newton(domain, dmap, coeffs, y, grid, rtol=1e-14):
    """Newton whose steps are direct sparse solves, from u = 0 to ||R(u)|| <= rtol ||b||.

    R(u) = A u + K sinh u - b on the interior nodes, with A, K and b
    assembled as newton_solve_npbe assembles them.  Returns u as a GridField.
    A dielectric of 70 can put the rounding floor of ||R(u)|| near
    2e-14 ||b||; such a case passes rtol = 1e-13.
    """
    A = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid).matrix
    kd = pde.reaction_profile(domain, dmap, coeffs, y, grid).flat
    b = pde.assemble_rhs(domain, dmap, coeffs, y, grid).flat
    v = np.zeros(len(b))
    for _ in range(30):
        r = A @ v + kd * np.sinh(v) - b
        if np.linalg.norm(r) <= rtol * np.linalg.norm(b):
            return pde.GridField(grid, v)
        v -= spsolve((A + sp.diags(kd * np.cosh(v))).tocsc(), r)
    raise AssertionError(f"direct Newton did not reach ||R(u)|| <= {rtol} ||b|| in 30 steps")


@pytest.fixture
def tight_solve():
    """direct_newton, for the tests that compare a solve against it."""
    return direct_newton
