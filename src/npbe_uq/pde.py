"""Pulled-back nonlinear Poisson-Boltzmann solver on a Cartesian grid.

The diffusion tensor eps* J^-1 J^-T det J is discretized flux-conservatively:
axis-aligned fluxes use face coefficients with harmonic averaging of the
dielectric across interfaces, and the mixed-derivative part is split along
the two diagonal directions of each coordinate plane, which keeps the
assembled matrix symmetric.  The tensor is evaluated once per midpoint set
(three sets of axis faces, three of plane edges, whose two diagonals share
their midpoints), and only the entry each face uses is formed, from the two
adjugate rows it reads, which are built from the entries of J that the map's
fields return (see geometry): no stacked 3x3 matrix is formed.  Each
midpoint set, like the nodes where the forcing and reaction take det J, is a
tensor lattice and is passed to the fields as a ``geometry.Lattice``, so a
separable field evaluates per axis.  The Dirichlet data is zero: no map
moves the box boundary, and every solve takes u = 0 there.  So the face
coefficients go straight into the interior block, without a full-grid
matrix, and an entry towards a boundary node is not stored: each face
family is written straight into the diagonals of its two stencil offsets in
a DIA-layout array, and subtracted from the centre diagonal, which scipy
turns into the CSR block, dropping zero entries.  The forcing, reaction,
solution and residual are evaluated and held on the interior nodes only, in the block's
row order.  Every map takes this one path.  An entry that no mode touches
stays a scalar, so with no modes (J = I) each mixed term is the float 0.0
and adds no faces, leaving the classic 7-point stencil, det J is the float
1.0, and each charge's Gaussian forcing is the outer product of three
per-axis factors.

The sinh nonlinearity is handled by damped Newton iteration with residual
backtracking; from u = 0 its first residual is -b, formed without a matvec.
Inner linear systems are solved by conjugate gradients preconditioned with a
symmetric Galerkin multigrid V-cycle.  The grid has 2^k + 1 nodes per axis
(5, 9, 17, 33, ...), so the V-cycle halves it down to one node; each level
holds one transfer matrix, the restriction R, and applies P as its
transpose view.  CG tests each updated residual before preconditioning it,
so it never preconditions the residual it stops on, and it raises
ConvergenceError on a norm that is not finite or after 500 iterations.
Every step is preconditioned by the V-cycle of the u = 0 Jacobian
A + diag K, which a step from u = 0 also takes as its Jacobian.  An adjoint
(solve_adjoint) carries that matrix and V-cycle, which then serve every
Newton step of every knot; without one, Newton builds them on entry.  Each
Jacobian A + diag d holds its own data but shares the operator's index
arrays, which are read-only, so a knot holds one copy of its pattern.

Newton has two stopping rules.  Without an adjoint it stops on the l2
residual, at the fixed 1e-9 (1 + ||b||), with CG run to 1e-12.  With one
(goal-oriented, for the QoI Q(u) = w.u) it reports the adjoint-corrected
QoI Q(u~) + z.R(u~), where (A + diag K) z = w is solved once per operator
and R(u) = b - Au - K sinh u, and it stops once the error estimate

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
from .errors import ConvergenceError, DomainError, MapOrientationError


# ---------------------------------------------------------------------------
# Grid and fields
# ---------------------------------------------------------------------------

def _check_grid_n(n) -> None:
    """DomainError unless n is 2^k + 1 with k >= 2, a grid the V-cycle halves to one node."""
    if not (isinstance(n, int) and n >= 5 and not (n - 1) & (n - 2)):
        raise DomainError(f"grid n must be 2^k + 1 with k >= 2 (5, 9, 17, 33, 65, 129, ...), "
                          f"got {n!r}")


def grid_spacing(box_min, box_max, n: int) -> float:
    """Spacing of the grid with n nodes on each box axis; it must be positive and equal."""
    _check_grid_n(n)
    spacings = (box_max - box_min) / (n - 1)
    if not (spacings[0] > 0.0 and np.allclose(spacings, spacings[0], rtol=1e-12)):
        raise DomainError(f"grid spacing must be positive and equal along all axes, got box "
                          f"sides {(box_max - box_min).tolist()}")
    return float(spacings[0])


class Grid3D:
    """Uniform node-centered grid of n^3 nodes over the reference box with subdomain tags.

    n is 2^k + 1 with k >= 2, as _check_grid_n checks.  The Dirichlet data is
    zero, so the unknowns, and every field on the grid, live on the
    (n - 2)^3 interior nodes, the lattice ``interior``.  The full
    axes and tags stay for the assembly, whose face averages read the
    dielectric at boundary nodes too; ``subdomain_tag`` is the (n, n, n)
    array of region tags 0, 1, 2 (U1, U2, U3) that ``classify_point`` gives
    for the axes' lattice.
    """

    def __init__(self, domain: geometry.ReferenceDomain, n: int):
        n = int(n)
        self.h = grid_spacing(domain.box_min, domain.box_max, n)
        self.shape = (n, n, n)
        self.axes = [np.linspace(domain.box_min[d], domain.box_max[d], n) for d in range(3)]
        self.subdomain_tag = geometry.classify_point(domain, geometry.Lattice(self.axes))
        self.interior = geometry.Lattice([a[1:-1] for a in self.axes])


@dataclass
class GridField:
    """Scalar field on the interior nodes of a Grid3D (solution, forcing, residuals).

    The values are shaped like the interior lattice, and ``flat`` is in the
    row order of the assembled operator; the field is 0 on the boundary.
    """

    grid: Grid3D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.interior.shape[:-1])
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
    # Dirichlet data: only 0 is accepted, since every solve takes zero data.  The
    # field stays for positional callers; a later benchmark change may drop it.
    boundary: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.boundary, (int, float)) and self.boundary == 0.0):
            raise DomainError(f"'boundary' must be 0 (zero Dirichlet data), got {self.boundary!r}")
        self.eps = np.asarray(self.eps, dtype=float)
        self.kappa2 = np.asarray(self.kappa2, dtype=float)
        if self.eps.shape != (3,) or np.any(self.eps <= 0.0):
            raise DomainError("eps must be 3 positive values")
        if self.kappa2.shape != (3,) or np.any(self.kappa2 < 0.0):
            raise DomainError("kappa2 must be 3 nonnegative values")


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledOperator:
    """Interior diffusion matrix; with zero Dirichlet data no boundary block is needed.

    Its rows are in the order of GridField.flat.
    """

    grid: Grid3D
    matrix: sp.csr_matrix  # interior x interior, symmetric PSD


def _tensor_entry(dmap, y, mid, d: int, e: int, place: str) -> np.ndarray:
    """Entry [d, e] of the eps-free pulled-back tensor J^-1 J^-T det J on the lattice mid.

    The tensor is adj(J) adj(J)^T / det J, so one entry needs only rows d and
    e of the adjugate, formed from the entries of J, and det J is
    sum_j adj(J)[d, j] J[j, d].  Like those entries, it broadcasts over the
    lattice; an entry whose every product has a factor 0.0 is the float 0.0.
    Raises MapOrientationError where det J <= 0, naming ``place`` and the min det.
    """
    J = geometry._jacobian_entries(dmap, mid, y)
    row_d = geometry._adjugate_row(J, d)
    det = geometry._det(J, row_d, d)
    if np.any(det <= 0.0):
        raise MapOrientationError(f"det J <= 0 at the {place} midpoints "
                                  f"(min det {np.min(det):.6g})")
    row_e = row_d if e == d else geometry._adjugate_row(J, e)
    entry = geometry._sum_of_products(*((1, a, b) for a, b in zip(row_d, row_e)))
    return 0.0 if isinstance(entry, float) and entry == 0.0 else entry / det


def assemble_pulled_back_operator(domain, dmap, coeffs: PBECoefficients, y,
                                  grid: Grid3D) -> AssembledOperator:
    """Assemble the pulled-back diffusion operator in per-volume form.

    Face dielectric values use the harmonic mean of the two nodal values, so
    flux continuity holds weakly across the interfaces where eps jumps.  A
    face with coefficient c adds c to the diagonal at its two nodes and -c
    between them.  The matrix is built as one (S, m, m, m) array of
    diagonals in DIA layout, m = n - 2: row p's entry towards p + v sits at
    column p + v of the diagonal of v's flat offset, and the DIA-to-CSR
    conversion keeps each row's columns in order.  Each face family is one
    array over its midpoint lattice.  Its slices are written straight into
    the diagonals of its two offsets and subtracted from the centre
    diagonal, family by family in a fixed order, so no per-offset copy is
    held, and each family's tensor entry is freed once written, before the
    conversion.  The Dirichlet data is zero, so an entry towards a boundary
    node leaves the centre but is never written and stays 0.  On a 2^k + 1
    grid m >= 3, so the 19 stencil offsets have distinct flat offsets, one
    diagonal each, kept in sorted flat-offset order.  Mixed-term coefficients
    vanish exactly wherever the modes' fields are flat (the cutoff plateau,
    and everywhere at y = 0); the conversion drops zero entries, and a plane
    whose mixed term is the float 0.0 (every plane with no modes, and the
    plane of two axes that no mode moves) adds no diagonal faces.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    n, m = grid.shape[0], grid.shape[0] - 2
    eps = coeffs.eps[grid.subdomain_tag]
    h2 = grid.h * grid.h
    half = [0.5 * (a[:-1] + a[1:]) for a in grid.axes]
    unit, zero = np.eye(3, dtype=int), np.zeros(3, dtype=int)

    def midpoints(*dims):
        # the lattice of face or edge centres, halfway along the axes in dims
        return geometry.Lattice([half[a] if a in dims else grid.axes[a] for a in range(3)])

    # the face families (dims, a, b, sign, T): the faces lo + a -- lo + b
    # over the lattice of lo, in the order in which the centre sums them
    families = [((d,), zero, unit[d], 1,
                 _tensor_entry(dmap, y, midpoints(d), d, d, f"axis {d} face")) for d in range(3)]
    for d, e in ((0, 1), (0, 2), (1, 2)):
        # the d+e diagonal runs lo -> lo + e_d + e_e and the d-e diagonal
        # lo + e_e -> lo + e_d: the same edge centres
        T_de = _tensor_entry(dmap, y, midpoints(d, e), d, e, f"plane ({d}, {e}) edge")
        if not (isinstance(T_de, float) and T_de == 0.0):
            families += [((d, e), zero, unit[d] + unit[e], 1, T_de),
                         ((d, e), unit[e], unit[d], -1, T_de)]

    def flat(v):
        return int(np.dot(v, (m * m, m, 1)))

    offsets = sorted({0} | {flat(s * (b - a)) for _, a, b, _, _ in families for s in (1, -1)})
    diagonals = np.zeros((len(offsets), m, m, m))
    centre = diagonals[offsets.index(0)]

    def add_faces(dims, a, b, sign, T):
        # node p = lo + a gets -c towards p + b - a, and p = lo + b gets -c
        # towards p + a - b: the entries at p + v go to column p + v of v's
        # diagonal where both nodes are interior, and every entry leaves the
        # centre, in the order of the families
        ep, eq = (eps[tuple(slice(v[t], n - 1 + v[t]) if t in dims else slice(None)
                            for t in range(3))] for v in (a, b))
        neg = -(sign * (2.0 * ep * eq / (ep + eq)) * T / (len(dims) * h2))
        for start, v in ((a, b - a), (b, a - b)):
            centre[...] -= neg[tuple(slice(1 - s, n - 1 - s) for s in start)]
            diagonals[offsets.index(flat(v))][
                tuple(slice(max(t, 0), m + min(t, 0)) for t in v)] = \
                neg[tuple(slice(1 - s + max(-t, 0), n - 1 - s - max(t, 0))
                          for s, t in zip(start, v))]

    while families:  # popped, so that no tensor entry outlives its faces
        add_faces(*families.pop(0))
    matrix = sp.dia_matrix((diagonals.reshape(len(offsets), -1), offsets),
                           shape=(m**3, m**3)).tocsr()
    return AssembledOperator(grid, matrix)


def _amplitudes(charges: list):
    """(amp, s^2) per charge: amp = q / (2 pi s^2)^(3/2), each of shape (C,)."""
    s2 = np.array([c.width for c in charges]) ** 2
    return np.array([c.magnitude for c in charges]) / (2.0 * math.pi * s2) ** 1.5, s2


def gaussian_factors(axes, charges: list, positions):
    """Each charge's Gaussian on the lattice of axes as amp g_0 (x) g_1 (x) g_2.

    Returns (amp, [g_0, g_1, g_2]): amp = q / (2 pi s^2)^(3/2) per charge, shape
    (C,), and g_d = exp(-(a_d - c_d)^2 / (2 s^2)) on axes[d], shape (..., C,
    len(axes[d])).  The centres c are positions, shape (..., C, 3); a leading
    batch of shifted centres gives one factor set per shift.
    """
    amp, s2 = _amplitudes(charges)
    return amp, [np.exp(-0.5 * (a - positions[..., d, None]) ** 2 / s2[:, None])
                 for d, a in enumerate(axes)]


def assemble_rhs(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D) -> GridField:
    """Values of f*(r; y) det J(r; y) at the interior nodes for the Gaussian charge model.

    The charge centres ride along with the map: a charge at c gives node x
    amp g_0 g_1 g_2, g_d = exp(-delta_d^2 / (2 s^2)), for the offset
    delta = F(x) - F(c), whose component d is x_d - c_d plus
    sum_k sqrt(mu_k) y_k (b_kd(x) - b_kd(c)).  A component no mode displaces
    stays on its grid axis, so with no modes (J = I) each Gaussian is the
    outer product of three per-axis factors; no (n^3, 3) array is formed.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    x = grid.interior
    # the modes' displacements at the nodes do not depend on the charge
    shifts = [(math.sqrt(mu) * y[k], fld, fld.value(x)) for k, (mu, fld) in enumerate(dmap.modes)]
    axes = [x[..., d] for d in range(3)]
    vals = np.zeros(x.shape[:-1])
    for c, amp, s2 in zip(coeffs.charges, *_amplitudes(coeffs.charges)):
        delta = [a - p for a, p in zip(axes, c.position)]
        # taking the displacement difference mode by mode makes translation
        # cancellation exact; a float 0.0 component leaves its axis 1-D
        for scale, fld, at_nodes in shifts:
            at_c = fld.value(c.position)
            delta = [t + scale * (b - b_c) for t, b, b_c in zip(delta, at_nodes, at_c)]
        g0, g1, g2 = (np.exp(-0.5 * t**2 / s2) for t in delta)
        vals += (amp * g0) * (g1 * g2)
    return GridField(grid, vals * geometry.det_jacobian(dmap, x, y))


def reaction_profile(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D) -> GridField:
    """kappa^2(r) det J(r; y) at the interior nodes, the coefficient of sinh(u) in the residual."""
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    return GridField(grid, coeffs.kappa2[grid.subdomain_tag[1:-1, 1:-1, 1:-1]]
                     * geometry.det_jacobian(dmap, grid.interior, y))


# ---------------------------------------------------------------------------
# Linear solver
# ---------------------------------------------------------------------------

@dataclass
class CGInfo:
    iterations: int
    residual: float       # final absolute residual norm


_OMEGA = 0.8           # damped-Jacobi weight of the V-cycle smoother
_GOAL_CG_TOL = 1e-3    # relative CG tolerance of a goal-oriented Newton step
_GOAL_QOI_TOL = 1e-12  # relative QoI error at which goal-oriented Newton stops
# l2 Newton stops once ||R(u)|| <= _L2_TOL (1 + ||b||); at n = 65 that leaves a
# 1.25e-9 relative QoI bias on the cutoff map, which the benchmark's recorded
# cutoff references carry, so a tighter stop moves them
_L2_TOL = 1e-9
_L2_CG_TOL = 1e-12     # relative CG tolerance of an l2 Newton step
_MAX_NEWTON = 50       # Newton steps before ConvergenceError
# CG iterations before ConvergenceError: 25x the most any solve takes in the
# tests, the benchmark or a kT/e knot at n = 33 and 65 (20; the V-cycle keeps
# the count independent of the grid)
_MAX_CG = 500


def _restriction(m: int) -> sp.csr_matrix:
    """R = P^T from (2m + 1)^3 fine to m^3 coarse interior nodes, for trilinear P.

    Coarse node (i, j, k) reads the 27 fine nodes (2i + a, 2j + b, 2k + c),
    a, b, c in {0, 1, 2}, with weight w_a w_b w_c, w = (1/2, 1, 1/2): the
    rows of the Kronecker cube of the per-axis stencil, each row's columns in
    increasing order.  The weights are powers of 2, so every product is exact.
    """
    M = 2 * m + 1
    fine = 2 * np.arange(m)[:, None] + np.arange(3)  # (coarse node, a) -> fine node
    cols = (fine[:, None, None, :, None, None] * M + fine[None, :, None, None, :, None]) * M \
        + fine[None, None, :, None, None, :]
    w = np.array([0.5, 1.0, 0.5])
    weights = np.broadcast_to(w[:, None, None] * w[:, None] * w, cols.shape)
    return sp.csr_matrix((weights.ravel(), cols.ravel(), np.arange(0, 27 * m**3 + 1, 27)),
                         shape=(m**3, M**3))


class VCycle:
    """Symmetric Galerkin V-cycle: the preconditioner of every CG solve.

    Built once from an SPD interior matrix on a 2^k + 1 grid, whose cubic
    interior of m^3 nodes halves to m' = (m - 1) / 2 until one node is left.
    Each halving holds one transfer matrix: the restriction R = P^T of
    trilinear interpolation P, built as CSR from its 27 weights per row.  P
    is applied as the CSC view R^T of R's arrays, and formed as CSR only for
    the coarse operator R (A P), then freed.  Each level smooths with one
    damped-Jacobi sweep (omega = 0.8) before and one after its coarse
    correction, forming each residual in the output of its matvec; the
    one-node bottom level stores its exact inverse 1 / a in place of
    omega / a and solves.
    """

    def __init__(self, matrix, grid: Grid3D):
        m = grid.shape[0] - 2
        A = sp.csr_matrix(matrix)
        # (A, omega / diag A, P = R^T, R to the next coarser level), and at
        # the bottom (A, 1 / A, None, None)
        self.levels = []
        while m > 1:
            m = (m - 1) // 2
            R = _restriction(m)
            P = R.T
            self.levels.append((A, _OMEGA / A.diagonal(), P, R))
            A = (R @ (A @ P.tocsr())).tocsr()
        self.levels.append((A, 1.0 / A.diagonal(), None, None))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._cycle(0, r)

    def _cycle(self, level: int, b: np.ndarray) -> np.ndarray:
        A, wdinv, P, R = self.levels[level]
        x = wdinv * b
        if P is not None:
            t = A @ x  # each residual b - A x is formed in its matvec's output
            x += P @ self._cycle(level + 1, R @ np.subtract(b, t, out=t))
            t = A @ x
            x += np.multiply(wdinv, np.subtract(b, t, out=t), out=t)
        return x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of 1-D arrays on the calling thread: einsum, unlike OpenBLAS, never
    splits a long dot over busy-waiting threads or ties its bits to their count."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _pcg(A, b, precond, tol=1e-10, maxiter=_MAX_CG):
    """Preconditioned CG from x = 0; precond maps a residual to M r, M SPD.

    Each iteration preconditions the residual the previous one left and
    tests the norm of the residual it updates, so a converged solve applies
    precond once per iteration and never to its final residual.  The
    direction and the residual are updated in place, with the bits of the
    textbook loop.  Raises ConvergenceError after maxiter iterations, and at
    once when the norm of b or of an updated residual is NaN or inf, which
    no comparison with the tolerance catches.
    """
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), CGInfo(0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    p = None
    it = 0
    rnorm = bnorm
    while math.isfinite(rnorm) and rnorm > tol * bnorm and it < maxiter:
        z = precond(r)
        rz_new = _dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rz_new / rz
            p += z
        rz = rz_new
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        Ap *= alpha
        r -= Ap
        rnorm = _norm(r)
        it += 1
    if not math.isfinite(rnorm):  # rnorm starts as the norm of b
        raise ConvergenceError(f"CG residual norm is not finite: {rnorm} after {it} "
                               f"iterations (right-hand side norm {bnorm})", residual=rnorm)
    if rnorm > tol * bnorm:
        raise ConvergenceError(
            f"CG failed to reach tol {tol} in {maxiter} iterations", residual=float(rnorm)
        )
    return x, CGInfo(it, rnorm)


# ---------------------------------------------------------------------------
# Newton solver for the NPBE
# ---------------------------------------------------------------------------

def _plus_diagonal(A: sp.csr_matrix, d: np.ndarray) -> sp.csr_matrix:
    """A + diag d for a CSR matrix A that stores each diagonal entry once.

    The sum has A's pattern, so it shares A's indices and indptr, which
    become read-only, and copies only A's data, adding d at the diagonal
    positions: the bits of A + sp.diags(d).
    """
    A.indices.flags.writeable = A.indptr.flags.writeable = False
    rows = np.arange(A.shape[0], dtype=A.indices.dtype)
    at = np.flatnonzero(A.indices == np.repeat(rows, np.diff(A.indptr)))
    data = A.data.copy()
    data[at] += d
    return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)


def _zero_jacobian(op: AssembledOperator, kd: np.ndarray):
    """Newton's Jacobian A + diag K at u = 0, for interior K = kd, and its V-cycle.

    The Jacobian has its own data but the operator's index arrays.
    """
    matrix = _plus_diagonal(op.matrix, kd)
    return matrix, VCycle(matrix, op.grid)


@dataclass
class Adjoint:
    """Adjoint solution z of (A + diag K) z = w for the QoI weights w.

    K is the reaction profile, so A + diag K is Newton's Jacobian at u = 0.
    Newton reuses it for any step from u = 0 and preconditions every step
    with its V-cycle.  Built once per operator by solve_adjoint and passed
    to newton_solve_npbe.  The matrix holds its own data but the operator's
    index arrays (see _plus_diagonal), and the V-cycle one transfer matrix
    per level.
    """

    matrix: object        # interior A + diag K
    vcycle: VCycle        # built from matrix
    weights: np.ndarray   # QoI weights w, interior
    z: np.ndarray         # interior
    zk: np.ndarray        # |z K|, interior
    residual: np.ndarray  # r_z = w - (A + diag K) z, interior
    cg: CGInfo            # the CG solve that gave z


def solve_adjoint(op: AssembledOperator, reaction: GridField) -> Adjoint:
    """Solve (A + diag K) z = w for the weights w of qoi_integral.

    K is the reaction profile.  The u = 0 Jacobian A + diag K and its V-cycle
    are built here and carried by the Adjoint.  CG runs to the QoI tolerance
    1e-12, since the adjoint's own error enters every corrected QoI.
    """
    kd = reaction.flat
    matrix, vcycle = _zero_jacobian(op, kd)
    w = _qoi_weights(op.grid)
    z, cg = _pcg(matrix, w, vcycle, tol=_GOAL_QOI_TOL)
    return Adjoint(matrix, vcycle, w, z, np.abs(z * kd), w - matrix @ z, cg)


@dataclass
class NewtonInfo:
    iterations: int
    residual_history: list
    step_sizes: list
    cg_iterations: list  # CG iterations of each Newton step
    qoi: float = None        # adjoint-corrected QoI; None without an adjoint
    qoi_error: float = None  # its error estimate; None without an adjoint


def newton_solve_npbe(domain, dmap, coeffs: PBECoefficients, y, grid: Grid3D,
                      op: AssembledOperator = None, rhs: GridField = None,
                      reaction: GridField = None, adjoint: Adjoint = None):
    """Damped Newton iteration for the pulled-back NPBE, from u = 0.

    Each step solves the linearization with reaction kappa^2 cosh(u) det J and
    backtracks on the l2 residual (halving, floor 1e-3).  Every step's CG is
    preconditioned by the V-cycle of the u = 0 Jacobian A + diag K, and a
    step from u = 0 takes that matrix as its Jacobian.  The adjoint carries
    both; without one, they are built on entry.  A later step's Jacobian
    A + diag(K cosh u) copies only A's data (_plus_diagonal).

    Without an adjoint, CG runs to a relative 1e-12 and Newton terminates
    when the residual drops below 1e-9 (1 + ||rhs||).  With one (see the
    module docstring), CG runs to a relative 1e-3, Newton takes at least one
    step unless the residual is exactly zero and terminates on the QoI error
    estimate, and NewtonInfo carries the corrected QoI and the estimate.
    Either way Newton raises ConvergenceError after 50 steps.  Returns the
    interior solution and the NewtonInfo.
    """
    if op is None:
        op = assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
    if rhs is None:
        rhs = assemble_rhs(domain, dmap, coeffs, y, grid)
    if reaction is None:
        reaction = reaction_profile(domain, dmap, coeffs, y, grid)
    kd, b, A = reaction.flat, rhs.flat, op.matrix
    u = np.zeros(len(b))

    def residual(v):
        with np.errstate(over="ignore", invalid="ignore"):
            r = A @ v + kd * np.sinh(v) - b
        return r

    qoi = qoi_error = None
    if adjoint is None:
        target = _L2_TOL * (1.0 + _norm(b))
        cg_tol = _L2_CG_TOL
        J0, vcycle = _zero_jacobian(op, kd)
    else:
        cg_tol = _GOAL_CG_TOL
        J0, vcycle = adjoint.matrix, adjoint.vcycle
        w = adjoint.weights

    def converged():
        nonlocal qoi, qoi_error
        if adjoint is None:
            return rnorm <= target
        if rnorm == 0.0:  # u solves the discrete problem exactly
            qoi, qoi_error = _dot(w, u), 0.0
            return True
        if it == 0:       # the estimate is only trusted near a Newton iterate
            return False
        # r = -R(u), so one V-cycle on it gives -e, e ~ u* - u
        e = vcycle(r)
        qoi = _dot(w, u) - _dot(adjoint.z, r)
        with np.errstate(over="ignore"):
            remainder = _dot(adjoint.zk, (np.cosh(np.abs(u) + np.abs(e)) - 1.0) * np.abs(e))
        qoi_error = abs(_dot(adjoint.residual, e)) + remainder
        return qoi_error <= _GOAL_QOI_TOL * max(abs(qoi), _dot(w, np.abs(u)))

    r = -b  # at u = 0, A u + K sinh u = 0
    rnorm = _norm(r)
    history = [rnorm]
    steps, cg_iterations = [], []
    it = 0
    while not converged():
        if it == _MAX_NEWTON:
            raise ConvergenceError(
                f"Newton failed to converge in {_MAX_NEWTON} iterations", residual=rnorm)
        Ait = J0 if not u.any() else _plus_diagonal(A, kd * np.cosh(u))
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
                raise ConvergenceError("Newton line search stagnated", residual=rnorm)
            step *= 0.5
        u, r, rnorm = trial, rt, tnorm
        history.append(rnorm)
        steps.append(step)
        it += 1
    return GridField(grid, u), NewtonInfo(it, history, steps, cg_iterations, qoi, qoi_error)


# ---------------------------------------------------------------------------
# Quantity of interest
# ---------------------------------------------------------------------------

def _qoi_weights(grid: Grid3D) -> np.ndarray:
    """The trapezoid weight of each interior node: the cell volume (h*h)*h."""
    return np.full(np.prod(grid.interior.shape[:-1]), (grid.h * grid.h) * grid.h)


def qoi_integral(u: GridField) -> float:
    """Integral of u over the reference box by the trapezoid rule.

    u vanishes on the boundary, so only the interior nodes count, each with
    the cell volume h^3.  Under a map with J != I that is the pulled-back
    potential's integral, without det J.
    """
    return _dot(_qoi_weights(u.grid), u.flat)

