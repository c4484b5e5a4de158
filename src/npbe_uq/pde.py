"""Pulled-back nonlinear Poisson-Boltzmann solver on a Cartesian grid.

The diffusion tensor eps* J^-1 J^-T det J is discretized flux-conservatively:
axis-aligned fluxes use face coefficients with harmonic averaging of the
dielectric across interfaces, and the mixed-derivative part is split along
the two diagonal directions of each coordinate plane, which keeps the
assembled matrix symmetric.  The tensor is evaluated once per midpoint set
(three sets of axis faces, three of plane edges, whose two diagonals share
their midpoints), and only the entry each face uses is formed, from the two
adjugate rows it reads.  Each midpoint set, like the nodes where the forcing
and reaction take det J, is a tensor lattice and is passed to the map's
fields as a ``geometry.Lattice``, so a separable field evaluates per axis.
For a map with no modes J = I, the tensor reduces to eps*I and the stencil
degenerates to the classic 7-point one, and each charge's Gaussian forcing
on the node lattice is the outer product of three per-axis factors.

The sinh nonlinearity is handled by damped Newton iteration with residual
backtracking; from u = 0 its first residual is -b, formed without a matvec.
Inner linear systems are solved by conjugate gradients preconditioned with a
symmetric Galerkin multigrid V-cycle; CG tests each updated residual before
preconditioning it, so it never preconditions the residual it stops on.
Without an adjoint, Newton builds the hierarchy from its first Jacobian.
An adjoint (solve_adjoint) carries the u = 0 Jacobian A + diag K and the
V-cycle built from it, which then serve every Newton step of every knot.

Newton has two stopping rules.  Without an adjoint it stops on the l2
residual.  With one (goal-oriented, for the QoI Q(u) = w.u) it reports the
adjoint-corrected QoI Q(u~) + z.R(u~), where (A + diag K) z = w is solved
once per operator and R(u) = b - Au - K sinh u, and it stops once the error
estimate

    |r_z.e| + sum |z K| (cosh(|u~| + |e|) - 1) |e|,   e = V-cycle(R(u~)),

falls to 1e-12 max(|Q|, w.|u~|), or at once when R(u~) is exactly zero.
Here r_z = w - (A + diag K) z.  The scale w.|u~| is |Q| unless the QoI
cancels, as for a net-neutral charge set, where |Q| alone is out of reach.
The corrected QoI misses the exact value by
r_z.e* - z.K(sinh u* - sinh u~ - e*) with e* = u* - u~, and the estimate
approximates both terms with e in place of e*.  It is an estimate, not a
bound: one V-cycle of the u = 0 Jacobian gives e, and the estimate was
checked against tight direct solves on the 321 knots of the acceptance
study (n = 33) and on single charges of q = 20 and 2000, a dipole, and the
J != I cutoff map in the tests.  Each step's CG needs only a loose relative
tolerance: it sets the cost, while the estimate decides when to stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import geometry
from .errors import AssemblyError, ConvergenceError, DomainError


# ---------------------------------------------------------------------------
# Grid and fields
# ---------------------------------------------------------------------------

class Grid3D:
    """Uniform node-centered grid over the reference box with subdomain tags."""

    def __init__(self, domain: geometry.ReferenceDomain, shape):
        if np.isscalar(shape):
            shape = (int(shape),) * 3
        self.shape = tuple(int(n) for n in shape)
        if any(n < 2 for n in self.shape):
            raise DomainError("grid needs at least 2 nodes per axis")
        self.domain = domain
        spacings = (domain.box_max - domain.box_min) / (np.array(self.shape) - 1)
        if not np.allclose(spacings, spacings[0], rtol=1e-12):
            raise DomainError("grid spacing must be equal along all axes")
        self.h = float(spacings[0])
        self.axes = [
            np.linspace(domain.box_min[d], domain.box_max[d], self.shape[d])
            for d in range(3)
        ]
        self.lattice = geometry.Lattice(self.axes)
        self.points = np.asarray(self.lattice).reshape(-1, 3)
        self.subdomain_tag = geometry.classify_point(domain, self.points).reshape(self.shape)
        interior = np.zeros(self.shape, dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = True
        self.interior_mask = interior.ravel()
        self.boundary_mask = ~self.interior_mask
        self.interior_idx = np.flatnonzero(self.interior_mask)
        self.boundary_idx = np.flatnonzero(self.boundary_mask)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def node_weights(self) -> np.ndarray:
        """Node-centered cell volumes: h per axis, halved at the endpoints."""
        per_axis = []
        for n in self.shape:
            w = np.full(n, self.h)
            w[0] *= 0.5
            w[-1] *= 0.5
            per_axis.append(w)
        wx, wy, wz = per_axis
        return (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()


@dataclass
class GridField:
    """Scalar field on a Grid3D (solution, forcing, residuals)."""

    grid: Grid3D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid field contains non-finite values")

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()


@dataclass(frozen=True)
class Charge:
    position: np.ndarray  # Angstrom
    magnitude: float
    width: float          # Gaussian std-dev s, Angstrom

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        if self.width <= 0.0:
            raise DomainError("charge width must be positive")


@dataclass
class PBECoefficients:
    eps: np.ndarray      # dielectric per subdomain (U1, U2, U3)
    kappa2: np.ndarray   # modified Debye-Hueckel squared per subdomain
    charges: list = field(default_factory=list)
    boundary: object = 0.0  # scalar or callable(points) -> values

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.kappa2 = np.asarray(self.kappa2, dtype=float)
        if self.eps.shape != (3,) or np.any(self.eps <= 0.0):
            raise DomainError("eps must be 3 positive values")
        if self.kappa2.shape != (3,) or np.any(self.kappa2 < 0.0):
            raise DomainError("kappa2 must be 3 nonnegative values")


def boundary_values(grid: Grid3D, g) -> np.ndarray:
    """Dirichlet data sampled at the boundary nodes."""
    if callable(g):
        return np.asarray(g(grid.points[grid.boundary_idx]), dtype=float)
    return np.full(len(grid.boundary_idx), float(g))


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledOperator:
    """Interior diffusion matrix plus boundary coupling for Dirichlet data."""

    grid: Grid3D
    matrix: sp.csr_matrix          # interior x interior, symmetric PSD
    boundary_coupling: sp.csr_matrix  # interior x boundary

    def rhs_interior(self, f_flat: np.ndarray, g_bnd: np.ndarray) -> np.ndarray:
        return f_flat[self.grid.interior_idx] - self.boundary_coupling @ g_bnd


def _tensor_entry(dmap, y, mid, d: int, e: int, place: str) -> np.ndarray:
    """Entry [d, e] of the eps-free pulled-back tensor J^-1 J^-T det J at midpoints.

    mid is a Lattice; the entry comes flat, in its C order.  The tensor is
    adj(J) adj(J)^T / det J, so one entry needs only rows d and e of the
    adjugate.  Raises AssemblyError naming ``place`` where det J <= 0.
    """
    J = geometry.jacobian(dmap, mid, y).reshape(-1, 3, 3)
    det = geometry.det3(J)
    if np.any(det <= 0.0):
        raise AssemblyError(f"det J <= 0 at the {place} midpoints (min det {np.min(det):.6g})")
    row_d = geometry._adjugate_row(J, d)
    row_e = row_d if e == d else geometry._adjugate_row(J, e)
    return np.einsum("pj,pj->p", row_d, row_e) / det


def assemble_pulled_back_operator(domain, dmap, coeffs: PBECoefficients, y,
                                  grid: Grid3D) -> AssembledOperator:
    """Assemble the pulled-back diffusion operator in per-volume form.

    Face dielectric values use the harmonic mean of the two nodal values, so
    flux continuity holds weakly across the interfaces where eps jumps.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    identity = not dmap.modes
    shape = grid.shape
    n = grid.n_nodes
    strides = (shape[1] * shape[2], shape[2], 1)
    eps_node = coeffs.eps[grid.subdomain_tag].ravel()
    h2 = grid.h * grid.h

    rows, cols, vals = [], [], []

    def add_faces(p_idx, q_idx, coeff):
        # mixed-term coefficients vanish exactly wherever the modes' fields
        # are flat (the cutoff plateau, and everywhere at y = 0); storing
        # them would only slow every matvec
        keep = coeff != 0.0
        p_idx, q_idx, coeff = p_idx[keep], q_idx[keep], coeff[keep]
        rows.extend((p_idx, q_idx, p_idx, q_idx))
        cols.extend((p_idx, q_idx, q_idx, p_idx))
        vals.extend((coeff, coeff, -coeff, -coeff))

    half = [0.5 * (a[:-1] + a[1:]) for a in grid.axes]

    def midpoints(*dims):
        # the lattice of face or edge centres, halfway along the axes in dims
        return geometry.Lattice([half[a] if a in dims else grid.axes[a] for a in range(3)])

    def harmonic_eps(p_idx, q_idx):
        return 2.0 * eps_node[p_idx] * eps_node[q_idx] / (eps_node[p_idx] + eps_node[q_idx])

    idx = np.arange(n).reshape(shape)

    # axis-aligned fluxes
    for d in range(3):
        sl_lo = [slice(None)] * 3
        sl_lo[d] = slice(0, shape[d] - 1)
        p = idx[tuple(sl_lo)].ravel()
        q = p + strides[d]
        T_dd = 1.0 if identity else _tensor_entry(dmap, y, midpoints(d), d, d,
                                                  f"axis {d} face")
        add_faces(p, q, harmonic_eps(p, q) * T_dd / h2)

    # mixed-derivative part, split along the plane diagonals
    if not identity:
        for d, e in ((0, 1), (0, 2), (1, 2)):
            sl = [slice(None)] * 3
            sl[d] = slice(0, shape[d] - 1)
            sl[e] = slice(0, shape[e] - 1)
            lo = idx[tuple(sl)].ravel()
            # the d+e diagonal runs lo -> lo + s_d + s_e and the d-e diagonal
            # lo + s_e -> lo + s_d: the same edge centres, in the same order
            T_de = _tensor_entry(dmap, y, midpoints(d, e), d, e, f"plane ({d}, {e}) edge")
            for sign in (+1, -1):
                p = lo if sign > 0 else lo + strides[e]
                q = p + strides[d] + sign * strides[e]
                add_faces(p, q, sign * harmonic_eps(p, q) * T_de / (2.0 * h2))

    rows = np.concatenate([np.atleast_1d(r) for r in rows])
    cols = np.concatenate([np.atleast_1d(c) for c in cols])
    vals = np.concatenate([np.atleast_1d(v) for v in vals])
    full = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    ii = grid.interior_idx
    bb = grid.boundary_idx
    return AssembledOperator(grid, full[ii][:, ii].tocsr(), full[ii][:, bb].tocsr())


def assemble_rhs(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D) -> GridField:
    """Nodal values of f*(r; y) det J(r; y) for the Gaussian charge model.

    For a map with no modes (J = I) each charge's Gaussian on the node
    lattice is the product of one factor per axis, amp gx (x) gy (x) gz with
    g_d = exp(-(a_d - c_d)^2 / (2 s^2)) on grid.axes[d], so no per-node
    displacement is formed.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    identity = not dmap.modes
    vals = np.zeros(grid.n_nodes)
    if coeffs.charges:
        det = 1.0 if identity else geometry.det3(
            geometry.jacobian(dmap, grid.lattice, y)).ravel()
        # the modes' displacements at the nodes do not depend on the charge
        shifts = [(math.sqrt(mu) * y[k], fld, np.reshape(fld.value(grid.lattice), (-1, 3)))
                  for k, (mu, fld) in enumerate(dmap.modes)]
        for c in coeffs.charges:
            s2 = c.width**2
            amp = c.magnitude / (2.0 * math.pi * s2) ** 1.5
            if identity:
                gx, gy, gz = (np.exp(-0.5 * (a - p) ** 2 / s2)
                              for a, p in zip(grid.axes, c.position))
                vals += ((amp * gx)[:, None, None] * np.multiply.outer(gy, gz)).ravel()
                continue
            # charge centers ride along with the map; taking the displacement
            # difference mode by mode makes translation cancellation exact
            delta = grid.points - c.position
            for scale, fld, at_nodes in shifts:
                delta = delta + scale * (at_nodes - fld.value(c.position))
            d2 = np.sum(delta**2, axis=-1)
            vals += amp * np.exp(-0.5 * d2 / s2)
        vals = vals * det
    return GridField(grid, vals)


def reaction_profile(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D) -> GridField:
    """Nodal kappa^2(r) det J(r; y), the coefficient of sinh(u) in the residual."""
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    kap = coeffs.kappa2[grid.subdomain_tag].ravel()
    if dmap.modes:
        kap = kap * geometry.det3(geometry.jacobian(dmap, grid.lattice, y)).ravel()
    return GridField(grid, kap)


# ---------------------------------------------------------------------------
# Linear solver
# ---------------------------------------------------------------------------

@dataclass
class CGInfo:
    iterations: int
    residual: float       # final absolute residual norm


_OMEGA = 0.8           # damped-Jacobi weight of the V-cycle smoother
_DENSE_NODES = 512     # a level this small is not coarsened but inverted
_GOAL_CG_TOL = 1e-3    # relative CG tolerance of a goal-oriented Newton step
_GOAL_QOI_TOL = 1e-12  # relative QoI error at which goal-oriented Newton stops


def _interpolation_1d(m: int) -> sp.csr_matrix:
    """Linear interpolation from m coarse to 2m+1 fine interior nodes: [1/2, 1, 1/2]."""
    j = np.arange(m)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    vals = np.concatenate([np.ones(m), np.full(2 * m, 0.5)])
    return sp.csr_matrix((vals, (rows, np.tile(j, 3))), shape=(2 * m + 1, m))


def _invert_spd(a: np.ndarray) -> np.ndarray:
    """Invert a small SPD matrix in place by Gauss-Jordan elimination without pivoting.

    Plain ufunc arithmetic rather than np.linalg.inv: LAPACK would allocate
    OpenBLAS's level-3 buffers, several MB of resident memory, for a matrix
    that is inverted once per hierarchy.
    """
    for k in range(len(a)):
        piv = 1.0 / a[k, k]
        row = a[k] * piv
        col = a[:, k].copy()
        a -= np.outer(col, row)
        a[k] = row
        a[:, k] = -piv * col
        a[k, k] = piv
    return a


class VCycle:
    """Symmetric Galerkin V-cycle: the preconditioner of every CG solve.

    Built once from an SPD interior matrix on a grid.  A level is coarsened
    while every interior axis has an odd node count (at least 3) and the
    level has more than 512 nodes: trilinear interpolation P (the Kronecker
    product of per-axis [1/2, 1, 1/2] stencils), its restriction R = P^T, kept
    as CSR so that no cycle transposes P, and coarse operator P^T A P.
    Each level smooths with one damped-Jacobi sweep (omega = 0.8) before and
    one after its coarse correction.  The coarsest level is inverted densely
    when it has at most 512 nodes; a larger one (an axis with an even count)
    is only smoothed, so no large dense matrix is ever formed.
    """

    def __init__(self, matrix, grid: Grid3D):
        shape = [n - 2 for n in grid.shape]
        A = sp.csr_matrix(matrix)
        # (A, omega / diag A, P from the next coarser level and R = P^T, or None)
        self.levels = []
        while A.shape[0] > _DENSE_NODES and all(m >= 3 and m % 2 for m in shape):
            shape = [(m - 1) // 2 for m in shape]
            P = _interpolation_1d(shape[0])
            for m in shape[1:]:
                P = sp.kron(P, _interpolation_1d(m), format="csr")
            self.levels.append((A, _OMEGA / A.diagonal(), P, P.T.tocsr()))
            # R @ (A @ P) sums in another order and would change the coarse bits
            A = (P.T @ (A @ P)).tocsr()
        self.levels.append((A, _OMEGA / A.diagonal(), None, None))
        self.coarse_inverse = (_invert_spd(A.toarray()) if A.shape[0] <= _DENSE_NODES
                               else None)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        A, wdinv, P, R = self.levels[level]
        if P is None and self.coarse_inverse is not None:
            return self.coarse_inverse @ b
        x = wdinv * b
        if P is not None:
            x += P @ self._cycle(level + 1, R @ (b - A @ x))
        x += wdinv * (b - A @ x)
        return x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of 1-D arrays on the calling thread: einsum, unlike OpenBLAS, never
    splits a long dot over busy-waiting threads or ties its bits to their count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _pcg(A, b, precond, tol=1e-10, maxiter=20000):
    """Preconditioned CG from x = 0; precond maps a residual to M r, M SPD.

    Each iteration preconditions the residual the previous one left and
    tests the norm of the residual it updates, so a converged solve applies
    precond once per iteration and never to its final residual.
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), CGInfo(0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    p = None
    it = 0
    rnorm = bnorm
    while rnorm > tol * bnorm and it < maxiter:
        z = precond(r)
        rz_new = _dot(r, z)
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        rnorm = _norm(r)
        it += 1
    if rnorm > tol * bnorm:
        raise ConvergenceError(
            f"CG failed to reach tol {tol} in {maxiter} iterations", residual=float(rnorm)
        )
    return x, CGInfo(it, rnorm)


def solve_linear_interface(op: AssembledOperator, reaction, rhs: GridField, g=0.0,
                           tol=1e-10, maxiter=20000):
    """Solve (diffusion + reaction) u = rhs with Dirichlet data g.

    reaction is a GridField of nonnegative nodal coefficients (or None);
    returns the full-grid solution and the CG report.
    """
    grid = op.grid
    react = np.zeros(grid.n_nodes) if reaction is None else reaction.flat
    if np.any(react < 0.0):
        raise DomainError("reaction coefficient must be nonnegative")
    g_b = boundary_values(grid, g)
    b = op.rhs_interior(rhs.flat, g_b)
    A = op.matrix + sp.diags(react[grid.interior_idx])
    u_int, info = _pcg(A, b, VCycle(A, grid), tol=tol, maxiter=maxiter)
    full = np.empty(grid.n_nodes)
    full[grid.interior_idx] = u_int
    full[grid.boundary_idx] = g_b
    return GridField(grid, full), info


# ---------------------------------------------------------------------------
# Newton solver for the NPBE
# ---------------------------------------------------------------------------

@dataclass
class Adjoint:
    """Adjoint solution z of (A + diag K) z = w for the QoI weights w.

    K is the reaction profile, so A + diag K is Newton's Jacobian at u = 0.
    Newton reuses it for any step from u = 0 and preconditions every step
    with its V-cycle.  Built once per operator by solve_adjoint and passed
    to newton_solve_npbe.
    """

    matrix: object        # interior A + diag K
    vcycle: VCycle        # built from matrix
    weights: np.ndarray   # QoI weights w on the full grid
    z: np.ndarray         # interior
    residual: np.ndarray  # r_z = w - (A + diag K) z, interior


def solve_adjoint(op: AssembledOperator, reaction: GridField) -> Adjoint:
    """Solve (A + diag K) z = w for the node weights w of qoi_integral.

    K is the reaction profile.  The u = 0 Jacobian A + diag K and its V-cycle
    are built here and carried by the Adjoint.  CG runs to the QoI tolerance
    1e-12, since the adjoint's own error enters every corrected QoI.
    """
    grid = op.grid
    matrix = op.matrix + sp.diags(reaction.flat[grid.interior_idx])
    vcycle = VCycle(matrix, grid)
    w = grid.node_weights()
    w_int = w[grid.interior_idx]
    z, _ = _pcg(matrix, w_int, vcycle, tol=_GOAL_QOI_TOL)
    return Adjoint(matrix, vcycle, w, z, w_int - matrix @ z)


@dataclass
class NewtonInfo:
    iterations: int
    residual_history: list
    step_sizes: list
    cg_iterations: list  # CG iterations of each Newton step
    qoi: float = None        # adjoint-corrected QoI; None without an adjoint
    qoi_error: float = None  # its error estimate; None without an adjoint


def newton_solve_npbe(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D,
                      u0: GridField = None, tol=None, max_iter=50,
                      cg_tol=None, op: AssembledOperator = None,
                      rhs: GridField = None, reaction: GridField = None,
                      adjoint: Adjoint = None):
    """Damped Newton iteration for the pulled-back NPBE.

    Each step solves the linearization with reaction kappa^2 cosh(u) det J and
    backtracks on the l2 residual (halving, floor 1e-3).  Every step's CG is
    preconditioned by the adjoint's V-cycle, or, without an adjoint, by one
    built from the first step's Jacobian.  With an adjoint, a step from u = 0
    takes the adjoint's matrix as its Jacobian.

    Without an adjoint, CG runs to cg_tol (default 1e-12) and Newton
    terminates when the residual drops below tol * (1 + ||rhs||), tol
    defaulting to 1e-9.  With one (see the module docstring), CG runs to a
    relative 1e-3, Newton takes at least one step unless the residual is
    exactly zero and terminates on the QoI error estimate, and NewtonInfo
    carries the corrected QoI and the estimate; tol and cg_tol do not apply
    and passing either is a TypeError.
    """
    if adjoint is None:
        tol = 1e-9 if tol is None else tol
        cg_tol = 1e-12 if cg_tol is None else cg_tol
    elif tol is not None or cg_tol is not None:
        raise TypeError("tol and cg_tol set the l2 stop; with an adjoint Newton "
                        "stops on its QoI error estimate")
    if op is None:
        op = assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
    if rhs is None:
        rhs = assemble_rhs(domain, dmap, coeffs, y, grid)
    if reaction is None:
        reaction = reaction_profile(domain, dmap, coeffs, y, grid)
    g_b = boundary_values(grid, coeffs.boundary)
    ii = grid.interior_idx
    kd = reaction.flat[ii]
    b = op.rhs_interior(rhs.flat, g_b)
    A = op.matrix

    if u0 is None:
        u = np.zeros(len(ii))
    else:
        u = u0.flat[ii].copy()

    def residual(v):
        with np.errstate(over="ignore", invalid="ignore"):
            r = A @ v + kd * np.sinh(v) - b
        return r

    qoi = qoi_error = vcycle = None
    if adjoint is None:
        target = tol * (1.0 + _norm(b))
    else:
        cg_tol = _GOAL_CG_TOL
        vcycle = adjoint.vcycle
        w = adjoint.weights[ii]
        qoi_bnd = _dot(adjoint.weights[grid.boundary_idx], g_b)
        zk = np.abs(adjoint.z * kd)

    def converged():
        nonlocal qoi, qoi_error
        if adjoint is None:
            return rnorm <= target
        if rnorm == 0.0:  # u solves the discrete problem exactly
            qoi, qoi_error = _dot(w, u) + qoi_bnd, 0.0
            return True
        if it == 0:       # the estimate is only trusted near a Newton iterate
            return False
        # r = -R(u), so one V-cycle on it gives -e, e ~ u* - u
        e = vcycle(r)
        qoi = _dot(w, u) + qoi_bnd - _dot(adjoint.z, r)
        with np.errstate(over="ignore"):
            remainder = _dot(zk, (np.cosh(np.abs(u) + np.abs(e)) - 1.0) * np.abs(e))
        qoi_error = abs(_dot(adjoint.residual, e)) + remainder
        return qoi_error <= _GOAL_QOI_TOL * max(abs(qoi), _dot(w, np.abs(u)))

    r = -b if u0 is None else residual(u)  # at u = 0, A u + K sinh u = 0
    rnorm = _norm(r)
    history = [rnorm]
    steps, cg_iterations = [], []
    it = 0
    while not converged():
        if it == max_iter:
            raise ConvergenceError(
                f"Newton failed to converge in {max_iter} iterations",
                residual=rnorm, history=history,
            )
        if adjoint is not None and not u.any():
            Ait = adjoint.matrix  # the Jacobian at u = 0
        else:
            Ait = A + sp.diags(kd * np.cosh(u))
        if vcycle is None:
            vcycle = VCycle(Ait, grid)
        delta, cg = _pcg(Ait, -r, vcycle, tol=cg_tol)
        cg_iterations.append(cg.iterations)
        step = 1.0
        while True:
            trial = u + step * delta
            rt = residual(trial)
            tnorm = _norm(rt) if np.all(np.isfinite(rt)) else math.inf
            if tnorm < rnorm:
                break
            if step <= 1e-3:
                raise ConvergenceError(
                    "Newton line search stagnated", residual=rnorm, history=history
                )
            step *= 0.5
        u, r, rnorm = trial, rt, tnorm
        history.append(rnorm)
        steps.append(step)
        it += 1
    full = np.empty(grid.n_nodes)
    full[ii] = u
    full[grid.boundary_idx] = g_b
    return GridField(grid, full), NewtonInfo(it, history, steps, cg_iterations, qoi, qoi_error)


# ---------------------------------------------------------------------------
# Quantity of interest and residual checks
# ---------------------------------------------------------------------------

def qoi_integral(u: GridField) -> float:
    """Integral of u over the box: node values times node-centered cell volumes."""
    return _dot(u.grid.node_weights(), u.flat)


def operator_residual(domain, dmap, coeffs: PBECoefficients, y, u: GridField,
                      op: AssembledOperator = None) -> GridField:
    """Apply the assembled nonlinear operator to u and subtract the forcing.

    Acts as the data -> solution -> data consistency check; boundary nodes
    carry zero residual by convention.
    """
    grid = u.grid
    if op is None:
        op = assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
    rhs = assemble_rhs(domain, dmap, coeffs, y, grid)
    reaction = reaction_profile(domain, dmap, coeffs, y, grid)
    ii = grid.interior_idx
    g_b = boundary_values(grid, coeffs.boundary)
    r_int = (op.matrix @ u.flat[ii] + reaction.flat[ii] * np.sinh(u.flat[ii])
             - op.rhs_interior(rhs.flat, g_b))
    full = np.zeros(grid.n_nodes)
    full[ii] = r_int
    return GridField(grid, full)
