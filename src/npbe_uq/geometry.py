"""Reference domain, analytic domain maps, and Jacobian-level quantities.

The reference box holds two nested spheres (molecular surface and
ion-exclusion surface), splitting it into regions U1 (inner ball),
U2 (shell), and U3 (solvent out to the box boundary).  Domain maps are
finite expansions ``F(r; y) = r + sum_k sqrt(mu_k) b_k(r) y_k`` with
closed-form displacement fields, so Jacobians and their derivatives are
available analytically.  The solver reads a map only through
``tensor_entry``, ``offsets`` and ``det_jacobian``.

A field's ``value``, ``jac`` and ``jac_deriv`` take points r of shape
(..., 3), or a ``Lattice``: the tensor product of three coordinate axes,
which the solver's grids and the sampled checks here pass.  A field may read
a lattice's coordinate d as ``r[..., d]``, axis d shaped to broadcast over
the lattice, so a separable field such as ``CutoffShift`` evaluates its
factors once per axis coordinate; ``np.asarray(r)`` gives the lattice's
(n0, n1, n2, 3) points, so any other field works on it unchanged.  Results
have the points' leading shape, (n0, n1, n2) for a lattice.  ``value``
returns b as 3 entries and ``jac`` B as a 3x3 nested list of entries, each
broadcasting over that shape, and an entry that vanishes everywhere is the
float 0.0.

The entry protocol.  Only _active_modes reads y: None is the centre knot
y = 0, and any other y is taken as given, real or complex, (N,) or (N, ...)
for one y per point.  The modes active at y are those whose scale
sqrt(mu_k) y_k is not a real scalar exactly 0.0 (y_k = +-0, or mu_k = 0);
a skipped mode's field is not evaluated.  J is a 3x3 nested list of entries
summed over the active modes, so an entry that no active mode touches is
the float 0.0 or 1.0, and with no active mode J = I in floats.  Such an
entry costs no array operation in the adjugate rows, det J and the tensor
entries: a product with 0.0 is dropped, one with 1.0 is not multiplied, and
a sum of dropped products is the float 0.0 (a cutoff's untouched row
(0.0, 0.0, 1.0) costs nothing, and J = I gives det J = 1.0).  An offset
component that no active mode moves stays its lattice axis.  Like skipping
a mode, all this can change only the sign of a zero.  ``jacobian`` stacks J
for callers that need arrays, and ``jac_deriv`` returns dB stacked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MapOrientationError

# ---------------------------------------------------------------------------
# Reference domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceDomain:
    """Box with two concentric spheres defining a nested 3-region split."""

    box_min: np.ndarray
    box_max: np.ndarray
    sphere_center: np.ndarray
    radii: tuple[float, float]  # (r1, r2), r1 < r2

    def __post_init__(self):
        object.__setattr__(self, "box_min", np.asarray(self.box_min, dtype=float))
        object.__setattr__(self, "box_max", np.asarray(self.box_max, dtype=float))
        object.__setattr__(self, "sphere_center", np.asarray(self.sphere_center, dtype=float))
        r1, r2 = self.radii
        if not 0.0 < r1 < r2:
            raise DomainError(f"sphere radii must satisfy 0 < r1 < r2, got {self.radii}")
        # spheres must sit strictly inside the box for proper nesting
        if np.any(self.sphere_center - r2 <= self.box_min) or np.any(
            self.sphere_center + r2 >= self.box_max
        ):
            raise DomainError(f"outer sphere of radius {r2:g} not compactly contained in box")

    def levels(self, r):
        """Signed distances to the two sphere interfaces, vectorized; r may be a Lattice."""
        r = _points(r)
        d = np.sqrt(sum((r[..., k] - self.sphere_center[k]) ** 2 for k in range(3)))
        return d - self.radii[0], d - self.radii[1]

    def contains(self, r):
        """Whether each point lies in the closed box; r may be a Lattice."""
        r = _points(r)
        x, y, z = ((r[..., d] >= self.box_min[d]) & (r[..., d] <= self.box_max[d])
                   for d in range(3))
        return x & y & z


def classify_point(domain: ReferenceDomain, r) -> np.ndarray:
    """Region tags of points r (..., 3) or a Lattice: 0, 1, 2 for U1, U2, U3.

    The integer array has the points' leading shape, 0-d for a single point.
    """
    if not np.all(domain.contains(r)):
        raise DomainError("point outside reference box")
    phi1, phi2 = domain.levels(r)
    return np.where(phi1 <= 0.0, 0, np.where(phi2 <= 0.0, 1, 2))


# ---------------------------------------------------------------------------
# Lattices and displacement fields
# ---------------------------------------------------------------------------

class Lattice:
    """The points axes[0] x axes[1] x axes[2] of a tensor grid, held as the axes.

    ``r[..., d]`` is axis d shaped to broadcast over the lattice, and
    ``np.asarray(r)`` gives the (n0, n1, n2, 3) points in C order.
    """

    def __init__(self, axes):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.shape = tuple(len(a) for a in self.axes) + (3,)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and key[0] is Ellipsis):
            raise TypeError("a Lattice supports only r[..., d]; np.asarray(r) gives its points")
        d = key[1]
        return self.axes[d].reshape([-1 if a == d else 1 for a in range(3)])

    def __array__(self, dtype=None, copy=None):
        pts = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)
        return pts if dtype is None else pts.astype(dtype, copy=False)


def _points(r):
    """r unchanged if it is a Lattice, else as a float array of points."""
    return r if isinstance(r, Lattice) else np.asarray(r, dtype=float)


def _quintic_step(t, order: int):
    """C^2 smoothstep on [0, 1] and its derivatives up to ``order`` (at most 2)."""
    t = np.clip(t, 0.0, 1.0)
    out = [t * t * t * (10.0 + t * (-15.0 + 6.0 * t))]
    if order >= 1:
        out.append(30.0 * t * t * (1.0 + t * (-2.0 + t)))
    if order >= 2:
        out.append(60.0 * t * (1.0 + t * (-3.0 + 2.0 * t)))
    return out


class CutoffShift:
    """Unit axis shift scaled by a C^2 separable cutoff.

    The cutoff is 1 on the inner plateau of the box and decays to 0 over a
    margin of width ``margin`` at each box face, so the box boundary stays
    fixed while interior interfaces move.  It is the product of one factor
    per axis, each evaluated on that axis's coordinates alone.  Outside
    component ``axis`` of b and row ``axis`` of B every entry is the float 0.0.
    """

    def __init__(self, axis: int, box_min, box_max, margin: float):
        self.axis = axis
        self.box_min = np.asarray(box_min, dtype=float)
        self.box_max = np.asarray(box_max, dtype=float)
        if margin <= 0.0 or np.any(2.0 * margin >= self.box_max - self.box_min):
            raise DomainError("cutoff margin must be positive and below half the box width")
        self.margin = float(margin)

    def _axis_factors(self, r, order: int):
        """Cutoff factor q and its derivatives up to ``order``, each a list over the axes.

        Entry d is evaluated on ``r[..., d]`` alone, so on a Lattice only the
        axis coordinates are evaluated.  value needs q, jac q and q', and
        only jac_deriv q''.
        """
        out = [[] for _ in range(order + 1)]
        for d in range(3):
            lo = _quintic_step((r[..., d] - self.box_min[d]) / self.margin, order)
            hi = _quintic_step((self.box_max[d] - r[..., d]) / self.margin, order)
            out[0].append(lo[0] * hi[0])
            if order >= 1:
                out[1].append((lo[1] * hi[0] - lo[0] * hi[1]) / self.margin)
            if order >= 2:
                out[2].append((lo[2] * hi[0] - 2.0 * lo[1] * hi[1] + lo[0] * hi[2])
                              / self.margin**2)
        return out

    def value(self, r):
        (q,) = self._axis_factors(_points(r), 0)
        b = [0.0] * 3
        b[self.axis] = q[0] * q[1] * q[2]
        return b

    def jac(self, r):
        q, dq = self._axis_factors(_points(r), 1)
        B = [[0.0] * 3 for _ in range(3)]
        B[self.axis] = [dq[i] * q[j] * q[k] for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
        return B

    def jac_deriv(self, r):
        r = _points(r)
        q, dq, d2q = self._axis_factors(r, 2)
        out = np.zeros(r.shape[:-1] + (3, 3, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    k1, k2 = (d for d in range(3) if d != i)
                    hess = d2q[i] * q[k1] * q[k2]
                else:
                    hess = dq[i] * dq[j] * q[3 - i - j]
                out[..., i, self.axis, j] = hess
        return out


# ---------------------------------------------------------------------------
# Domain map
# ---------------------------------------------------------------------------

@dataclass
class DomainMap:
    """Analytic family F(r; y) = r + sum_k sqrt(mu_k) b_k(r) y_k."""

    modes: list  # list of (mu_k, field)

    def __post_init__(self):
        mus = [m for m, _ in self.modes]
        if not all(math.isfinite(m) for m in mus):
            raise DomainError(f"mode amplitudes mu_k must be finite, got {mus}")
        if any(m < 0.0 for m in mus):
            raise DomainError("mode amplitudes mu_k must be nonnegative")
        if any(mus[i] < mus[i + 1] for i in range(len(mus) - 1)):
            raise DomainError("mode amplitudes mu_k must be nonincreasing")

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def _box_grid(domain: ReferenceDomain, n: int) -> Lattice:
    return Lattice([np.linspace(domain.box_min[d], domain.box_max[d], n) for d in range(3)])


def _active_modes(dmap: DomainMap, y):
    """The (sqrt(mu_k) y_k, field) pairs of the modes active at y (module docstring).

    A left-out mode's field adds only +-0.0 to an entry, if finite.  A
    per-point y gives each scale as an array, and every mode stays.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y)
    scales = ((math.sqrt(mu) * y[k], fld) for k, (mu, fld) in enumerate(dmap.modes))
    return [(s, fld) for s, fld in scales if not (isinstance(s, float) and s == 0.0)]


def _jacobian_entries(dmap: DomainMap, r, y):
    """J(r; y) = I + sum_k sqrt(mu_k) B_k(r) y_k over the active modes, as nested entries."""
    r = _points(r)
    J = [[float(i == j) for j in range(3)] for i in range(3)]
    for scale, fld in _active_modes(dmap, y):
        for i, row in enumerate(fld.jac(r)):
            for j, b in enumerate(row):
                if not (isinstance(b, float) and b == 0.0):
                    J[i][j] = J[i][j] + scale * b
    return J


def _stack(entries, shape):
    """A 3x3 nested list of entries as stacked matrices of shape shape + (3, 3)."""
    return np.stack([np.stack([np.broadcast_to(e, shape) for e in row], axis=-1)
                     for row in entries], axis=-2)


def jacobian(dmap: DomainMap, r, y):
    """J(r; y) = I + sum_k sqrt(mu_k) B_k(r) y_k, shape (..., 3, 3); r may be a Lattice."""
    r = _points(r)
    return _stack(_jacobian_entries(dmap, r, y), r.shape[:-1])


def det3(J):
    """Determinant of stacked 3x3 matrices, shape (..., 3, 3)."""
    J = [[J[..., i, j] for j in range(3)] for i in range(3)]
    return _det(J, _adjugate_row(J, 0), 0)


def _adjugate_row(J, d: int):
    """Row d of the adjugate of a 3x3 nested list of entries J: J^-1 = adj(J) / det(J).

    adj(J)[d, j] is the cofactor of J[j, d], written with cyclic indices.
    """
    a, b = (d + 1) % 3, (d + 2) % 3
    return [_sum_of_products((1, J[(j + 1) % 3][a], J[(j + 2) % 3][b]),
                             (-1, J[(j + 1) % 3][b], J[(j + 2) % 3][a]))
            for j in range(3)]


def _det(J, adj_d, d: int):
    """det J = sum_j adj(J)[d, j] J[j, d], from row d of the adjugate."""
    return _sum_of_products(*((1, adj_d[j], J[j][d]) for j in range(3)))


def _sum_of_products(*terms):
    """The sum of sign * a * b over the (sign, a, b) terms, left to right, sign +-1.

    A float factor 0.0 drops its term and 1.0 is not multiplied (module
    docstring), so only the sign of a zero can differ from the plain sum.
    """
    total = None
    for sign, a, b in terms:
        if any(isinstance(f, float) and f == 0.0 for f in (a, b)):
            continue
        p = b if isinstance(a, float) and a == 1.0 else a if isinstance(b, float) and b == 1.0 \
            else a * b
        if total is None:
            total = p if sign > 0 else -p
        else:
            total = total + p if sign > 0 else total - p
    return 0.0 if total is None else total


def det_jacobian(dmap: DomainMap, r, y):
    """det J(r; y) from the entries of J, broadcasting over the points; r may be a Lattice."""
    J = _jacobian_entries(dmap, _points(r), y)
    return _det(J, _adjugate_row(J, 0), 0)


def tensor_entry(dmap: DomainMap, y, mid, d: int, e: int, place: str) -> np.ndarray:
    """Entry [d, e] of the eps-free pulled-back tensor J^-1 J^-T det J on the lattice mid.

    The tensor is adj(J) adj(J)^T / det J, so one entry needs only rows d and
    e of the adjugate, formed from the entries of J, and det J is
    sum_j adj(J)[d, j] J[j, d].  Like those entries, it broadcasts over the
    lattice; an entry whose every product has a factor 0.0 is the float 0.0.
    Raises MapOrientationError unless det J > 0 at every midpoint, so a NaN
    det raises too, naming ``place`` and the min det.
    """
    J = _jacobian_entries(dmap, mid, y)
    row_d = _adjugate_row(J, d)
    det = _det(J, row_d, d)
    if not np.all(det > 0.0):
        raise MapOrientationError(f"det J <= 0 or NaN at the {place} midpoints "
                                  f"(min det {np.min(det):.6g})")
    row_e = row_d if e == d else _adjugate_row(J, e)
    entry = _sum_of_products(*((1, a, b) for a, b in zip(row_d, row_e)))
    return 0.0 if isinstance(entry, float) and entry == 0.0 else entry / det


def offsets(dmap: DomainMap, r, centres, y):
    """Yield F(r; y) - F(c; y) as 3 components, for each centre c in turn.

    Component d is r_d - c_d plus sum_k sqrt(mu_k) y_k (b_kd(r) - b_kd(c))
    over the active modes, whose fields are evaluated at r once for all
    centres.  Taking the difference mode by mode makes a pure translation
    cancel exactly.
    """
    r = _points(r)
    shifts = [(scale, fld, fld.value(r)) for scale, fld in _active_modes(dmap, y)]
    for c in centres:
        delta = [r[..., d] - c[d] for d in range(3)]
        for scale, fld, at_r in shifts:
            delta = [t + scale * (b - b_c) for t, b, b_c in zip(delta, at_r, fld.value(c))]
        yield delta


# ---------------------------------------------------------------------------
# Norms and assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapBoundsProfile:
    """Sampled lower estimates of the displacement-expansion norms."""

    b_norm_1: float
    b_norm_inf: float
    b_norm_p: float


def mode_c1_norm(fld, domain: ReferenceDomain, n: int = 64) -> float:
    """Sampled sup over U of the spectral norms of B and its first derivatives.

    sigma_max <= ||.||_F, so after the matrix of largest Frobenius norm the
    SVD runs only where the Frobenius norm reaches the running sup times
    (1 - 1e-12), far above the rounding of either norm.  Each matrix's SVD
    is independent of the rest of the stack, so the sup is bit for bit that
    of the exhaustive sweep.  A NaN or infinite entry raises DomainError
    before any SVD; a finite Frobenius norm vouches for its matrix.
    """
    pts = _box_grid(domain, n)
    dB = fld.jac_deriv(pts)
    sup = 0.0
    for mats in [_stack(fld.jac(pts), pts.shape[:-1])] + [dB[..., i, :, :] for i in range(3)]:
        mats = mats.reshape(-1, 3, 3)
        fro = np.sqrt(np.einsum("pij,pij->p", mats, mats))
        if not (np.all(np.isfinite(fro)) or np.all(np.isfinite(mats))):
            raise DomainError("mode_c1_norm: the field's B or its derivatives are not finite")
        sup = max(sup, float(np.linalg.svd(mats[np.argmax(fro)], compute_uv=False)[0]))
        near = np.linalg.svd(mats[fro >= sup * (1.0 - 1e-12)], compute_uv=False)
        sup = max(sup, float(np.max(near[:, 0], initial=0.0)))
    return sup


def b_norms(dmap: DomainMap, domain: ReferenceDomain, p: float = 2.0, n: int = 64) -> MapBoundsProfile:
    """Sampled estimates of ||B||_1, ||B||_inf, ||B||_p (lower estimates of the sup)."""
    c1 = [mode_c1_norm(fld, domain, n=n) for _, fld in dmap.modes]
    terms = [math.sqrt(mu) * c for (mu, _), c in zip(dmap.modes, c1)]
    norm_1 = sum(terms, 0.0)
    norm_inf = max(terms, default=0.0)
    norm_p = sum(t**p for t in terms) ** (1.0 / p)
    return MapBoundsProfile(norm_1, norm_inf, norm_p)


@dataclass(frozen=True)
class AssumptionReport:
    c1: float  # lower bound on epsilon over U
    c2: float  # sampled lower bound on det J over Gamma x U


def check_assumptions(domain: ReferenceDomain, dmap: DomainMap, eps, kappa2) -> AssumptionReport:
    """Check the coefficient signs and sample det J over corner and random y for c2.

    Raises DomainError unless eps > 0 and kappa^2 >= 0 in every region, and
    MapOrientationError unless every sampled det J is > 0, so NaN fails too.
    det J is multilinear in y for this map family, so extrema sit near the
    corners of Gamma; a 5-point tensor grid per dimension plus 32 random
    interior draws (seed 0) covers both.  In space det J is sampled on 17
    nodes per axis, whose spacing must be below the narrowest feature of the
    fields: a cutoff's det J departs from 1 only inside its margin, so a
    coarser grid reports c2 = 1.  The small-B hypothesis ||B||_1 < 1/4 is
    checked where the bounds use it, when a bounds.BoundsInput is built.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise DomainError("epsilon must be positive in every region")
    if np.any(np.asarray(kappa2, dtype=float) < 0.0):
        raise DomainError("kappa^2 must be nonnegative in every region")
    pts = _box_grid(domain, 17)
    N = dmap.n_modes
    ys = np.vstack([list(itertools.product([-1.0, -0.5, 0.0, 0.5, 1.0], repeat=N)),
                    np.random.default_rng(0).uniform(-1.0, 1.0, size=(32, N))])
    # np.min carries a NaN det through, and "not > 0" rejects it
    c2 = float(np.min([np.min(det_jacobian(dmap, pts, y)) for y in ys]))
    if not c2 > 0.0:
        raise MapOrientationError(f"det J <= 0 or NaN sampled (min {c2:.3e}); map rejected")
    return AssumptionReport(c1=float(np.min(eps)), c2=c2)
