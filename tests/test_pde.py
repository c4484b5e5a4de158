import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from npbe_uq import geometry, pde
from npbe_uq.errors import ConvergenceError, DomainError, MapOrientationError
from conftest import assembled, linear_solve, map_forward, npbe_residual


def big_domain():
    return geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (15.0, 25.0))


def unit_domain():
    return geometry.ReferenceDomain([0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], (0.2, 0.35))


def identity_map():
    return geometry.DomainMap([])


def cutoff_map(domain, scales=(0.1, 0.05)):
    margin = 0.1 * float(np.min(domain.box_max - domain.box_min))
    modes = []
    for k, s in enumerate(scales):
        fld = geometry.CutoffShift(k, domain.box_min, domain.box_max, margin)
        c1 = geometry.mode_c1_norm(fld, domain, n=24)
        modes.append(((s / c1) ** 2, fld))
    return geometry.DomainMap(sorted(modes, key=lambda m: -m[0]))


def no_charge_coeffs(eps=(1, 1, 1), kappa2=(0, 0, 0)):
    return pde.PBECoefficients(np.array(eps, dtype=float), np.array(kappa2, dtype=float), [])


def grid_points(grid):
    """The (n^3, 3) node coordinates in C order, built from the grid's axes."""
    return np.asarray(geometry.Lattice(grid.axes)).reshape(-1, 3)


def interior_index(grid):
    """Full-grid flat index of each interior node, in GridField.flat order."""
    inner = np.zeros(grid.shape, dtype=bool)
    inner[1:-1, 1:-1, 1:-1] = True
    return np.flatnonzero(inner)


class TestGrid:
    def test_shape_and_spacing(self):
        grid = pde.Grid3D(big_domain(), 9)
        assert grid.shape == (9, 9, 9)
        assert abs(grid.h - 8.75) <= 1e-14
        assert grid.interior.shape == (7, 7, 7, 3)
        assert np.array_equal(np.asarray(grid.interior)[0, 0, 0], [8.75, 8.75, 8.75])

    def test_tags_match_classification(self):
        grid = pde.Grid3D(big_domain(), 17)
        d = np.linalg.norm(grid_points(grid) - 35.0, axis=-1)
        expect = np.where(d <= 15.0, 0, np.where(d <= 25.0, 1, 2))
        assert np.array_equal(grid.subdomain_tag.ravel(), expect)

    def test_too_small_grid_rejected(self):
        # only 2^k + 1 nodes with k >= 2 halve down to one interior node
        for n in (1, 2, 3, 4, 6, 7, 12, 13, 21, 34, 66):
            with pytest.raises(DomainError, match=r"grid n must be 2\^k \+ 1 with k >= 2"):
                pde.Grid3D(big_domain(), n)

    def test_gridfield_rejects_nan(self):
        grid = pde.Grid3D(big_domain(), 5)
        vals = np.zeros((3, 3, 3))
        vals[2, 2, 2] = np.nan
        with pytest.raises(DomainError):
            pde.GridField(grid, vals)


class TestCoefficients:
    def test_only_zero_dirichlet_data_accepted(self):
        for g in (0.0, 0):
            assert pde.PBECoefficients([1, 1, 1], [0, 0, 0], [], g).boundary == 0.0
        for g in (3.25, lambda pts: np.zeros(len(pts))):
            with pytest.raises(DomainError, match="'boundary'"):
                pde.PBECoefficients([1, 1, 1], [0, 0, 0], [], g)


class TestQoI:
    # every field vanishes on the boundary, where the Dirichlet data is zero
    def test_constant_one_inside_is_interior_volume(self):
        grid = pde.Grid3D(big_domain(), 33)
        u = pde.GridField(grid, np.ones(31**3))
        assert pde.qoi_integral(u) == pytest.approx(31**3 * (70.0 / 32) ** 3, abs=1e-6)

    def test_zero_field(self):
        grid = pde.Grid3D(big_domain(), 9)
        assert pde.qoi_integral(pde.GridField(grid, np.zeros(7**3))) == 0.0

    def test_linear_function_on_unit_box(self):
        grid = pde.Grid3D(unit_domain(), 17)
        hat = 1.0 - np.abs(2.0 * np.asarray(grid.interior) - 1.0)
        u = pde.GridField(grid, np.prod(hat, axis=-1))
        # the trapezoid rule integrates a product of piecewise-linear hats,
        # with their kinks at nodes, exactly
        assert abs(pde.qoi_integral(u) - 0.125) <= 1e-12


ORACLE_YS = [np.array([0.6, -0.4]), np.array([1.0, -1.0])]


ORACLE_NS = [5, 9, 17]


def oracle_case(n=9):
    domain = unit_domain()
    grid = pde.Grid3D(domain, n)
    coeffs = no_charge_coeffs(eps=(3.0, 2.0, 1.0))
    return domain, cutoff_map(domain, scales=(0.1, 0.05)), grid, coeffs


def oracle_operator(dmap, coeffs, y, grid):
    """Full-grid CSR matrix of the flux scheme, coded independently, a face family at a time.

    A family is the faces from each node P to P + step: an axis step e_d with
    coefficient harm(eps) T[d, d] / h^2, or a diagonal step e_d +- e_e with
    +-harm(eps) T[d, e] / (2 h^2), for the tensor T = J^-1 J^-T det J at the
    face midpoints (one geometry.jacobian call per family).  Each face adds
    its coefficient to A[P, P] and A[Q, Q] and subtracts it from A[P, Q] and
    A[Q, P], as COO triplets that the CSR conversion sums; exact zeros are
    dropped, so the stored pattern is the nonzero pattern.
    """
    n, h = grid.shape[0], grid.h
    eps_node = coeffs.eps[grid.subdomain_tag].ravel()
    pts = grid_points(grid)
    idx = np.arange(n**3).reshape(grid.shape)
    eye = np.eye(3, dtype=int)
    families = [(d, d, eye[d], 1.0) for d in range(3)]  # (d, e, step, coefficient scale)
    families += [(d, e, eye[d] + sgn * eye[e], sgn / 2.0)
                 for d, e in ((0, 1), (0, 2), (1, 2)) for sgn in (1, -1)]
    rows, cols, vals = [], [], []
    for d, e, step, scale in families:
        P = idx[tuple(slice(max(0, -s), n - max(0, s)) for s in step)].ravel()
        Q = P + step @ np.array([n * n, n, 1])
        J = geometry.jacobian(dmap, 0.5 * (pts[P] + pts[Q]), y)
        Jinv = np.linalg.inv(J)
        T = (Jinv @ np.swapaxes(Jinv, -1, -2)) * np.linalg.det(J)[:, None, None]
        harm = 2.0 * eps_node[P] * eps_node[Q] / (eps_node[P] + eps_node[Q])
        c = scale * harm * T[:, d, e] / h**2
        rows += [P, Q, P, Q]
        cols += [P, Q, Q, P]
        vals += [c, c, -c, -c]
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n**3, n**3)).tocsr()
    A.eliminate_zeros()
    return A


def interior_block(A, grid):
    """The interior x interior block of a full-grid CSR matrix, in canonical CSR form."""
    ii = interior_index(grid)
    block = A[ii][:, ii]
    block.sort_indices()
    return block


class TestAssembly:
    def test_seven_point_degeneration(self):
        # translation map, eps constant: matrix equals the scaled 7-point Laplacian
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), no_charge_coeffs(),
                                               None, grid)
        n = 9
        one = sp.identity(n)
        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        lap = (sp.kron(sp.kron(lap1, one), one) + sp.kron(sp.kron(one, lap1), one)
               + sp.kron(sp.kron(one, one), lap1)) / grid.h**2
        ii = interior_index(grid)
        full = lap.tocsr()
        diff = op.matrix - full[ii][:, ii]
        assert abs(diff).max() <= 1e-12

    def test_general_path_matches_fast_path_at_identity(self, monkeypatch):
        # at y = 0 no mode of the cutoff map is active, so its J = I is in
        # floats, as for the map with no modes: the knot must reproduce that
        # map's 7-point stencil, forcing and reaction
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1)], 0.0)
        general, fast = cutoff_map(domain), identity_map()
        y = np.zeros(2)
        calls = []
        entries = geometry._jacobian_entries
        monkeypatch.setattr(geometry, "_jacobian_entries",
                            lambda *args: calls.append(args) or entries(*args))
        op_g = pde.assemble_pulled_back_operator(domain, general, coeffs, y, grid)
        assert calls  # the general path really ran
        op_f = pde.assemble_pulled_back_operator(domain, fast, coeffs, None, grid)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op_g.matrix, attr), getattr(op_f.matrix, attr)), attr
        for build in (pde.assemble_rhs, pde.reaction_profile):
            assert np.array_equal(build(domain, general, coeffs, y, grid).values,
                                  build(domain, fast, coeffs, None, grid).values)

    def test_zero_mode_is_identity_bit_for_bit(self):
        # a mode whose field vanishes everywhere, in floats, leaves J = I in
        # floats at any y: the one assembly path must give the map with no
        # modes its results exactly
        class Zero:
            def value(self, r):
                return [0.0] * 3

            def jac(self, r):
                return [[0.0] * 3 for _ in range(3)]

            def jac_deriv(self, r):
                return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))

        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1),
                                      pde.Charge([0.6, 0.5, 0.45], -0.5, 0.15)], 0.0)
        zero = geometry.DomainMap([(0.3, Zero())])
        op_z = pde.assemble_pulled_back_operator(domain, zero, coeffs, np.array([0.7]), grid)
        op_i = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op_z.matrix, attr), getattr(op_i.matrix, attr)), attr
        for build in (pde.assemble_rhs, pde.reaction_profile):
            assert np.array_equal(build(domain, zero, coeffs, np.array([0.7]), grid).values,
                                  build(domain, identity_map(), coeffs, None, grid).values)

    def test_untouched_plane_is_not_assembled(self, monkeypatch):
        # a single axis-0 cutoff moves only row 0 of J, so every product of
        # the (1, 2) tensor entry has a factor 0.0: the entry is the float
        # 0.0, and the operator is that of a build which writes the plane's
        # zero faces, once scipy has dropped them
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        fld = geometry.CutoffShift(0, domain.box_min, domain.box_max, 7.0)
        dmap, y = geometry.DomainMap([(0.01, fld)]), np.array([0.8])
        coeffs = no_charge_coeffs(eps=(3.0, 2.0, 1.0))
        half = [0.5 * (a[:-1] + a[1:]) for a in grid.axes[1:]]
        edges = geometry.Lattice([grid.axes[0]] + half)
        entry = geometry.tensor_entry(dmap, y, edges, 1, 2, "plane (1, 2) edge")
        assert isinstance(entry, float) and entry == 0.0
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        tensor_entry, planes = geometry.tensor_entry, []

        def zero_plane(dmap, y, mid, d, e, place):
            T = tensor_entry(dmap, y, mid, d, e, place)
            if isinstance(T, float) and T == 0.0:
                planes.append((d, e))
                return np.zeros(mid.shape[:-1])
            return T

        monkeypatch.setattr(geometry, "tensor_entry", zero_plane)
        explicit = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        assert planes == [(1, 2)]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.matrix, attr), getattr(explicit.matrix, attr)), attr

    def test_harmonic_mean_across_interface(self):
        # face along x crossing the outer sphere: coefficient 2*70*1/71 / h^2
        domain = big_domain()
        grid = pde.Grid3D(domain, 33)  # h = 2.1875
        op = pde.assemble_pulled_back_operator(
            domain, identity_map(), no_charge_coeffs(eps=(70, 70, 1)), None, grid)
        shape = grid.shape
        flat = lambda i, j, k: (i * shape[1] + j) * shape[2] + k
        # x = 59.0625 (r = 24.0625, inside) and x = 61.25 (outside), y = z = 35
        p = flat(27, 16, 16)
        q = flat(28, 16, 16)
        assert grid.subdomain_tag.ravel()[p] == 1
        assert grid.subdomain_tag.ravel()[q] == 2
        pi = np.searchsorted(interior_index(grid), p)
        qi = np.searchsorted(interior_index(grid), q)
        expect = -2.0 * 70.0 * 1.0 / 71.0 / grid.h**2
        assert abs(op.matrix[pi, qi] - expect) <= 1e-12

    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_dense_oracle_on_cutoff_map(self, n):
        # independently coded dense assembly of the same flux scheme, at an
        # interior y and at a corner of Gamma
        domain, dmap, grid, coeffs = oracle_case(n)
        ii = interior_index(grid)
        for y in ORACLE_YS:
            op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
            block = interior_block(oracle_operator(dmap, coeffs, y, grid), grid)
            u = grid_points(grid) @ np.array([0.3, -0.2, 0.5])
            assert np.max(np.abs(op.matrix @ u[ii] - block @ u[ii])) <= 1e-8
            # entry by entry
            assert abs(op.matrix - block).max() <= 1e-12 * abs(block).max()

    @pytest.mark.parametrize("mapping", ["identity", "cutoff"])
    @pytest.mark.parametrize("n", ORACLE_NS)
    def test_blocks_are_canonical_csr_with_the_oracle_pattern(self, n, mapping):
        # rows in column order without duplicates, int32 indices, and a
        # stored entry exactly where the dense oracle has a nonzero; at
        # y = 0 every mixed term is zero and the 7-point pattern is left
        domain, dmap, grid, coeffs = oracle_case(n)
        ys = ORACLE_YS + [np.zeros(2)]
        if mapping == "identity":
            dmap, ys = identity_map(), [np.zeros(0)]
        m = grid.shape[0] - 2
        for y in ys:
            got = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid).matrix
            block = interior_block(oracle_operator(dmap, coeffs, y, grid), grid)
            assert got.indices.dtype == got.indptr.dtype == np.int32
            row = np.repeat(np.arange(m**3), np.diff(got.indptr))
            assert np.all(np.diff(got.indices)[np.diff(row) == 0] > 0)
            assert np.array_equal(got.indptr, block.indptr)
            assert np.array_equal(got.indices, block.indices)
            if not y.any():
                assert got.nnz == m**3 + 6 * m**2 * (m - 1)

    def test_knot_path_forms_no_stacked_jacobian(self, monkeypatch):
        # operator, forcing and reaction of a J != I knot come from the
        # entries of J alone
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        dmap = cutoff_map(domain)
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1)], 0.0)
        y = np.array([0.8, -0.6])
        expect = [build(domain, dmap, coeffs, y, grid)
                  for build in (pde.assemble_pulled_back_operator, pde.assemble_rhs,
                                pde.reaction_profile)]

        def dense(*args):
            raise AssertionError("a stacked Jacobian was formed")

        monkeypatch.setattr(geometry, "jacobian", dense)
        monkeypatch.setattr(geometry, "_stack", dense)
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        assert (op.matrix != expect[0].matrix).nnz == 0
        for build, ref in zip((pde.assemble_rhs, pde.reaction_profile), expect[1:]):
            assert np.array_equal(build(domain, dmap, coeffs, y, grid).values, ref.values)

    def test_jacobian_once_per_midpoint_set(self, monkeypatch):
        # three axis-face sets and three plane-edge sets, whose two diagonals
        # share their midpoints; with no modes every entry of J is a float,
        # so no array is formed
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        built = []
        entries = geometry._jacobian_entries
        monkeypatch.setattr(geometry, "_jacobian_entries",
                            lambda *args: built.append(entries(*args)) or built[-1])
        for dmap, y in ((cutoff_map(domain), np.array([0.5, -0.5])), (identity_map(), None)):
            built.clear()
            pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(), y, grid)
            assert len(built) == 6
        assert all(type(e) is float for J in built for row in J for e in row)

    def test_cutoff_evaluated_per_axis(self, monkeypatch):
        # every cutoff factor is taken on one lattice axis, n nodes or n - 1
        # midpoints, never on the points of a midpoint set
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        dmap = cutoff_map(domain)
        sizes = []
        step = geometry._quintic_step
        monkeypatch.setattr(geometry, "_quintic_step",
                            lambda t, order: sizes.append(np.size(t)) or step(t, order))
        pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(),
                                          np.array([0.8, -0.6]), grid)
        assert sizes and max(sizes) <= 9

    def test_lattice_path_matches_materialized_points(self):
        # a field that only forwards np.asarray(r) sees plain points; the
        # CutoffShift it wraps must give bit-identical operators and nodal fields
        class Materialized:
            def __init__(self, fld):
                self.fld = fld

            def value(self, r):
                return self.fld.value(np.asarray(r))

            def jac(self, r):
                return self.fld.jac(np.asarray(r))

            def jac_deriv(self, r):
                return self.fld.jac_deriv(np.asarray(r))

        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        dmap = cutoff_map(domain, scales=(0.15, 0.1))
        wrapped = geometry.DomainMap([(mu, Materialized(fld)) for mu, fld in dmap.modes])
        charges = [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1),
                   pde.Charge([0.6, 0.5, 0.45], -0.5, 0.1)]
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0], charges, 0.0)
        for y in (np.array([0.8, -0.6]), np.array([-1.0, 1.0])):
            op, ref = (pde.assemble_pulled_back_operator(domain, m, coeffs, y, grid)
                       for m in (dmap, wrapped))
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op.matrix, attr), getattr(ref.matrix, attr)), attr
            for fn in (pde.assemble_rhs, pde.reaction_profile):
                assert np.array_equal(fn(domain, dmap, coeffs, y, grid).values,
                                      fn(domain, wrapped, coeffs, y, grid).values)

    def test_symmetry_and_psd(self):
        domain = unit_domain()
        dmap = cutoff_map(domain, scales=(0.15, 0.1))
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(),
                                               np.array([0.8, -0.9]), grid)
        assert abs(op.matrix - op.matrix.T).max() <= 1e-12
        rng = np.random.default_rng(0)
        for v in rng.standard_normal((100, op.matrix.shape[0])):
            assert float(v @ (op.matrix @ v)) >= -1e-10 * float(v @ v)

    def test_orientation_violation_raises(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 5)

        class Collapse:
            # B = scale * I wherever at least `off` of x, y, z sit between
            # nodes: -2 folds every axis-face midpoint (det J = -1), and with
            # off = 2, -3 folds only the plane-edge midpoints (det J = -8)
            def __init__(self, scale, off):
                self.scale, self.off = scale, off

            def value(self, r):
                r = np.asarray(r, dtype=float)
                return [r[..., d] for d in range(3)]

            def jac(self, r):
                r = np.asarray(r, dtype=float)
                frac = r / grid.h - np.round(r / grid.h)
                folded = np.sum(np.abs(frac) > 0.25, axis=-1) >= self.off
                diag = np.where(folded, self.scale, 0.0)
                return [[diag if i == j else 0.0 for j in range(3)] for i in range(3)]

            def jac_deriv(self, r):
                return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))

        for fld, place, min_det in ((Collapse(-2.0, 1), "axis 0 face", "min det -1)"),
                                    (Collapse(-3.0, 2), "plane (0, 1) edge", "min det -8)")):
            dmap = geometry.DomainMap([(1.0, fld)])
            with pytest.raises(MapOrientationError) as exc:
                pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(),
                                                  np.array([1.0]), grid)
            assert place in str(exc.value)
            assert min_det in str(exc.value)

    def test_nan_det_raises(self):
        # det J <= 0 is False for NaN: a field that gives NaN must raise the
        # orientation error, not assemble an operator with NaN entries
        class NaNField:
            def jac(self, r):
                B = [[0.0] * 3 for _ in range(3)]
                B[0][0] = np.full(r.shape[:-1], np.nan)
                return B

        domain = unit_domain()
        dmap = geometry.DomainMap([(1.0, NaNField())])
        with pytest.raises(MapOrientationError,
                           match=r"NaN at the axis 0 face midpoints \(min det nan\)"):
            pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(), np.array([0.5]),
                                              pde.Grid3D(domain, 9))


class TestRhs:
    def test_no_charges_zero_field(self):
        grid = pde.Grid3D(big_domain(), 9)
        rhs = pde.assemble_rhs(big_domain(), identity_map(), no_charge_coeffs(), None, grid)
        assert np.all(rhs.values == 0.0)

    def test_gaussian_normalization(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 33)  # h = 2.1875
        s = 3.0 * grid.h
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0],
                                     [pde.Charge([35, 35, 35], 1.0, s)], 0.0)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        # the charge is 5.3 s from the boundary: the trapezoid rule on the interior
        assert abs(pde.qoi_integral(rhs) - 1.0) <= 1e-3

    def test_mode_fields_evaluated_once_per_call(self, monkeypatch):
        # the displacement at the nodes does not depend on the charge
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        dmap = cutoff_map(domain)
        charges = [pde.Charge(c, 1.0, 0.1)
                   for c in ([0.45, 0.5, 0.55], [0.5, 0.4, 0.5], [0.6, 0.5, 0.45])]
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0], charges, 0.0)
        at_nodes = []

        def is_nodes(r):
            # the nodes come as the grid's interior lattice, or as its points
            shape = r.shape if isinstance(r, geometry.Lattice) else np.shape(r)
            return shape in (grid.interior.shape, (7**3, 3))

        for k, (_, fld) in enumerate(dmap.modes):
            value = fld.value
            monkeypatch.setattr(fld, "value", lambda r, k=k, value=value: (
                at_nodes.append(k) if is_nodes(r) else None) or value(r))
        pde.assemble_rhs(domain, dmap, coeffs, np.array([0.5, -0.5]), grid)
        assert sorted(at_nodes) == [0, 1]

    def test_charge_width_positive(self):
        with pytest.raises(DomainError):
            pde.Charge([0, 0, 0], 1.0, 0.0)

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_identity_matches_direct_gaussian_sum(self, n):
        # the per-axis factors against exp of the squared distance at every
        # node; the third charge sits 0.5 A from one box face, 0.8 A from another
        domain = big_domain()
        grid = pde.Grid3D(domain, n)
        charges = [pde.Charge([35.0, 35.0, 35.0], 2.0, 2.0),
                   pde.Charge([31.3, 38.1, 42.7], -1.5, 3.5),
                   pde.Charge([0.5, 20.0, 69.2], 0.75, 4.0)]
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0], charges, 0.0)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        pts = np.asarray(grid.interior).reshape(-1, 3)
        direct = sum(c.magnitude / (2.0 * math.pi * c.width**2) ** 1.5
                     * np.exp(-0.5 * np.sum((pts - c.position) ** 2, axis=-1) / c.width**2)
                     for c in charges)
        assert np.max(np.abs(rhs.flat - direct)) <= 1e-14 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [9, 17])
    def test_cutoff_matches_mapped_gaussian_sum(self, n):
        # sum amp exp(-|F(x) - F(c)|^2 / 2 s^2) det J(x) at every node, with F
        # and det J from the stacked oracles
        domain = big_domain()
        grid = pde.Grid3D(domain, n)
        dmap = cutoff_map(domain)
        charges = [pde.Charge([35.0, 35.0, 35.0], 2.0, 4.0),
                   pde.Charge([31.3, 38.1, 42.7], -1.5, 3.5),
                   pde.Charge([5.5, 20.0, 64.2], 0.75, 6.0)]
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0], charges, 0.0)

        def gaussians(x, at):
            return sum(c.magnitude / (2.0 * math.pi * c.width**2) ** 1.5
                       * np.exp(-0.5 * np.sum((x - at(c.position)) ** 2, axis=-1) / c.width**2)
                       for c in charges)

        for y in (np.array([0.8, -0.6]), np.array([-1.0, 1.0])):
            rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
            mapped = map_forward(dmap, grid_points(grid), y)
            det = np.linalg.det(geometry.jacobian(dmap, grid_points(grid), y))
            direct = det * gaussians(mapped, lambda c: map_forward(dmap, c, y))
            # the map moves the third charge against the nodes of the grid, whose
            # boundary layer lies in the cutoff's rolloff
            flat = gaussians(grid_points(grid), lambda c: c)
            assert np.max(np.abs(direct - flat)) > 1e-3 * np.max(np.abs(direct))
            inner = direct[interior_index(grid)]
            assert np.max(np.abs(rhs.flat - inner)) <= 1e-14 * np.max(np.abs(direct))

    def test_identity_reads_no_grid_points(self, monkeypatch):
        # neither J = I nor the cutoff map forms the nodes' points from a lattice
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0],
                                     [pde.Charge([35.0, 35.0, 35.0], 1.0, 4.0),
                                      pde.Charge([30.0, 38.0, 41.0], -1.0, 4.0)], 0.0)
        maps = ((identity_map(), None), (cutoff_map(domain), np.array([0.8, -0.6])))

        def forbidden(self, dtype=None, copy=None):
            raise AssertionError("the rhs formed a lattice's points")

        monkeypatch.setattr(geometry.Lattice, "__array__", forbidden)
        for dmap, y in maps:
            rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
            assert np.any(rhs.values)


def textbook_pcg(A, b, precond, tol):
    """PCG that preconditions every residual, its last one included: the oracle of _pcg."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = pde._dot(r, z)
    bnorm = rnorm = pde._norm(b)
    it = 0
    while rnorm > tol * bnorm:
        Ap = A @ p
        alpha = rz / pde._dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rz_new = pde._dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        rnorm = pde._norm(r)
        it += 1
    return x, r, it


class TestLinearSolve:
    def test_zero_data_gives_zero(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        x, info = pde._pcg(op.matrix, np.zeros(7**3), pde.VCycle(op.matrix, grid))
        assert np.all(x == 0.0)
        assert info.iterations == 0

    def test_iteration_cap_raises(self):
        # n = 17 coarsens to one node in four levels, so two CG iterations
        # cannot reach 1e-14
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        with pytest.raises(ConvergenceError) as exc:
            pde._pcg(op.matrix, np.ones(15**3), pde.VCycle(op.matrix, grid), tol=1e-14,
                     maxiter=2)
        assert exc.value.residual is not None

    def test_iteration_cap_message_carries_relative_residual(self):
        # a failed knot's line in the study output is the message alone
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        b = np.ones(15**3)
        with pytest.raises(ConvergenceError, match=r"in 2 iterations: residual ") as exc:
            pde._pcg(op.matrix, b, pde.VCycle(op.matrix, grid), tol=1e-14, maxiter=2)
        assert str(exc.value).endswith(f"residual {exc.value.residual / pde._norm(b):.3e} ||b||")

    def counting_vcycle(self, matrix, grid, applied):
        vcycle = pde.VCycle(matrix, grid)

        def precond(r):
            applied.append(1)
            return vcycle(r)
        return precond

    def test_nan_in_rhs_raises_at_once(self):
        # NaN > tol * NaN is False, so a loop that only compares with the
        # tolerance would return x = 0 as converged
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        b = np.ones(7**3)
        b[100] = np.nan
        applied = []
        with pytest.raises(ConvergenceError, match="not finite") as exc:
            pde._pcg(op.matrix, b, self.counting_vcycle(op.matrix, grid, applied))
        assert math.isnan(exc.value.residual) and applied == []

    def test_inf_diagonal_raises_at_once(self):
        # an inf on the diagonal turns the first updated residual into NaN
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        d = np.zeros(7**3)
        d[171] = np.inf
        A = op.matrix + sp.diags(d)
        applied = []
        with pytest.raises(ConvergenceError, match="not finite") as exc:
            pde._pcg(A, np.ones(7**3), self.counting_vcycle(A, grid, applied))
        assert not math.isfinite(exc.value.residual) and applied == [1]

    def test_converged_cg_preconditions_once_per_iteration(self):
        # CG tests the updated residual before preconditioning it, and gives
        # the bits of the textbook loop, which preconditions its final residual too
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([5.0, 2.0, 1.0], [0.0, 0.0, 4.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1)], 0.0)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        A = op.matrix + sp.diags(pde.reaction_profile(domain, identity_map(), coeffs, None,
                                                      grid).flat)
        b = rhs.flat
        vcycle = pde.VCycle(A, grid)
        applied = []

        def precond(r):
            applied.append(1)
            return vcycle(r)

        for tol in (1e-3, 1e-12):
            applied.clear()
            x, info = pde._pcg(A, b, precond, tol=tol)
            assert info.iterations >= 1 and len(applied) == info.iterations
            x_ref, r_ref, it_ref = textbook_pcg(A, b, vcycle, tol)
            assert it_ref == info.iterations
            assert np.array_equal(x, x_ref) and info.residual == pde._norm(r_ref)

    def test_manufactured_solution_order(self):
        domain = unit_domain()
        errs = []
        for n in (17, 33, 65):
            grid = pde.Grid3D(domain, n)
            exact = np.prod(np.sin(math.pi * np.asarray(grid.interior)), axis=-1).ravel()
            op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                                   no_charge_coeffs(), None, grid)
            rhs = pde.GridField(grid, 3.0 * math.pi**2 * exact)
            u, _ = linear_solve(op, None, rhs, tol=1e-11)
            # exact is 0 on the boundary, where u is 0 too
            errs.append(math.sqrt(pde.qoi_integral(pde.GridField(grid, (u.flat - exact) ** 2))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_radial_interface_oracle(self):
        # piecewise dielectric ball problem against a radial quadrature oracle
        domain = big_domain()
        eps3 = np.array([70.0, 70.0, 1.0])
        q, s = 1.0, 3.0

        rr = np.linspace(1e-9, 62.0, 40001)
        eps_r = np.where(rr <= 15.0, eps3[0], np.where(rr <= 25.0, eps3[1], eps3[2]))
        f_r = q * (2 * math.pi * s * s) ** -1.5 * np.exp(-0.5 * rr**2 / s**2)
        G = cumulative_trapezoid(f_r * rr**2, rr, initial=0.0)
        H = cumulative_trapezoid(G / (eps_r * rr**2), rr, initial=0.0)

        def oracle(r):
            return np.interp(62.0, rr, H) - np.interp(r, rr, H)

        grid = pde.Grid3D(domain, 65)  # h = 70/64
        exact = oracle(np.linalg.norm(grid_points(grid) - 35.0, axis=-1)).reshape(grid.shape)
        coeffs = pde.PBECoefficients(eps3, [0, 0, 0], [pde.Charge([35, 35, 35], q, s)])
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        # the solver takes zero Dirichlet data, so the oracle's boundary values
        # g are lifted: every face between an interior and a boundary node
        # lies in U3 (eps = 1) and couples with -1/h^2, so g_nbr / h^2 joins
        # the forcing of each interior neighbour, and g is added back after
        tag = grid.subdomain_tag
        assert all(np.all(np.moveaxis(tag, a, 0)[side] == 2)
                   for a in range(3) for side in (slice(0, 2), slice(-2, None)))
        g = exact.copy()
        g[1:-1, 1:-1, 1:-1] = 0.0
        inner = (slice(1, -1),) * 3
        for a in range(3):
            for side in (slice(0, -2), slice(2, None)):
                nbr = tuple(side if t == a else inner[t] for t in range(3))
                rhs.values[...] += g[nbr] / grid.h**2
        u, _ = linear_solve(op, None, rhs, tol=1e-10)
        # u + g - exact over the whole grid: 0 on the boundary, where u = 0 and g = exact
        err = np.zeros(grid.shape)
        err[inner] = u.values - exact[inner]
        # the trapezoid rule over the whole grid: h per axis, halved at the ends
        w1 = np.full(grid.shape[0], grid.h)
        w1[[0, -1]] *= 0.5
        w = w1[:, None, None] * w1[None, :, None] * w1[None, None, :]
        rel = math.sqrt(float(np.sum(w * err**2)) / float(np.sum(w * exact**2)))
        assert rel <= 0.02


class TestVCycle:
    def interface_problem(self, n):
        # dielectric jumps 5 : 2 : 1, screening outside, an off-centre charge
        domain = unit_domain()
        grid = pde.Grid3D(domain, n)
        coeffs = pde.PBECoefficients([5.0, 2.0, 1.0], [0.0, 0.0, 4.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1)], 0.0)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        react = pde.reaction_profile(domain, identity_map(), coeffs, None, grid)
        return op, rhs, react

    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_iterations_independent_of_grid(self, n):
        op, rhs, react = self.interface_problem(n)
        _, info = linear_solve(op, react, rhs, tol=1e-12)
        assert info.iterations <= 25

    @pytest.mark.parametrize("n, sizes", [(9, [343, 27, 1]), (17, [3375, 343, 27, 1]),
                                          (33, [29791, 3375, 343, 27, 1]),
                                          (65, [250047, 29791, 3375, 343, 27, 1]),
                                          (5, [27, 1])])
    def test_dyadic_grids_coarsen_to_one_node(self, n, sizes):
        # a 2^k + 1 grid halves down to its one centre node, which stores 1 / a
        # where the other levels store omega / diag, and solves
        grid = pde.Grid3D(unit_domain(), n)
        op = pde.assemble_pulled_back_operator(unit_domain(), identity_map(),
                                               no_charge_coeffs(), None, grid)
        vcycle = pde.VCycle(op.matrix, grid)
        assert [A.shape[0] for A, *_ in vcycle.levels] == sizes
        for A, wdinv, *_ in vcycle.levels[:-1]:
            assert np.array_equal(wdinv, pde._OMEGA / A.diagonal())
        coarse, inverse, P, R = vcycle.levels[-1]
        assert P is None and R is None
        a = coarse.toarray()[0, 0]
        assert inverse.shape == (1,) and inverse[0] == 1.0 / a
        # the bottom of the cycle solves a x = b
        assert vcycle._cycle(len(sizes) - 1, np.array([0.7]))[0] == (1.0 / a) * 0.7

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_symmetric_positive_definite(self, n):
        domain = unit_domain()
        grid = pde.Grid3D(domain, n)
        coeffs = no_charge_coeffs(eps=(3.0, 2.0, 1.0), kappa2=(1.0, 0.5, 2.0))
        dmap, y = cutoff_map(domain, scales=(0.15, 0.1)), np.array([0.8, -0.9])
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        react = pde.reaction_profile(domain, dmap, coeffs, y, grid)
        vcycle = pde.VCycle(op.matrix + sp.diags(react.flat), grid)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u, v = rng.standard_normal((2, op.matrix.shape[0]))
            uMv, vMu = float(u @ vcycle(v)), float(v @ vcycle(u))
            uMu, vMv = float(u @ vcycle(u)), float(v @ vcycle(v))
            assert uMu > 0.0 and vMv > 0.0
            assert abs(uMv - vMu) <= 1e-12 * math.sqrt(uMu * vMv)

    @pytest.mark.parametrize("n", [9, 17])
    def test_cutoff_newton_matches_dense_solve(self, n, tight_solve):
        # J != I (19-point operator); n = 9 coarsens to one node (343, 27,
        # 1), n = 17 with one level more (3375, 343, 27, 1), so neither
        # V-cycle is the exact inverse
        domain = unit_domain()
        grid = pde.Grid3D(domain, n)
        dmap, y = cutoff_map(domain), np.array([0.6, -0.4])
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 40.0, 0.1)], 0.0)
        u, info = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid)
        assert info.iterations >= 2
        v = tight_solve(domain, dmap, coeffs, y, grid)
        assert np.max(np.abs(u.flat - v.flat)) <= 1e-10 * np.max(np.abs(v.flat))
        # the goal-oriented stop on the same J != I operator
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        adjoint = pde.solve_adjoint(op, pde.reaction_profile(domain, dmap, coeffs, y, grid))
        _, goal = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid, op=op, adjoint=adjoint)
        ref = pde.qoi_integral(v)
        assert abs(goal.qoi - ref) <= 1e-12 * abs(ref)
        assert 0.0 <= goal.qoi_error <= 1e-12 * abs(goal.qoi)


def stencil_dict_operator(dmap, coeffs, y, grid):
    """The interior CSR block built from an offset -> entries dict and a stacked DIA array.

    The reference for the bits of assemble_pulled_back_operator: each face
    family's entries towards one offset are kept in the dict, the centre is
    minus their sum in insertion order, and the diagonals are stacked into a
    DIA array that scipy converts.
    """
    y = np.zeros(dmap.n_modes) if y is None else np.asarray(y, dtype=float)
    n, m = grid.shape[0], grid.shape[0] - 2
    eps = coeffs.eps[grid.subdomain_tag]
    h2 = grid.h * grid.h
    half = [0.5 * (a[:-1] + a[1:]) for a in grid.axes]
    unit, zero = np.eye(3, dtype=int), np.zeros(3, dtype=int)
    stencil = {}

    def midpoints(*dims):
        return geometry.Lattice([half[a] if a in dims else grid.axes[a] for a in range(3)])

    def add_faces(dims, a, b, sign, T):
        ep, eq = (eps[tuple(slice(v[t], n - 1 + v[t]) if t in dims else slice(None)
                            for t in range(3))] for v in (a, b))
        neg = -(sign * (2.0 * ep * eq / (ep + eq)) * T / (len(dims) * h2))
        for start, end in ((a, b), (b, a)):
            stencil[tuple(end - start)] = neg[tuple(slice(1 - v, n - 1 - v) for v in start)]

    for d in range(3):
        add_faces((d,), zero, unit[d], 1, geometry.tensor_entry(dmap, y, midpoints(d), d, d, ""))
    for d, e in ((0, 1), (0, 2), (1, 2)):
        T_de = geometry.tensor_entry(dmap, y, midpoints(d, e), d, e, "")
        if not (isinstance(T_de, float) and T_de == 0.0):
            add_faces((d, e), zero, unit[d] + unit[e], 1, T_de)
            add_faces((d, e), unit[e], unit[d], -1, T_de)
    stencil[(0, 0, 0)] = -sum(stencil.values())
    flat = {v: int(np.dot(v, (m * m, m, 1))) for v in stencil}
    offsets = sorted(stencil, key=flat.get)
    diagonals = np.zeros((len(offsets), m, m, m))
    for diagonal, v in zip(diagonals, offsets):
        diagonal[tuple(slice(max(t, 0), m + min(t, 0)) for t in v)] = \
            stencil[v][tuple(slice(max(-t, 0), m - max(t, 0)) for t in v)]
    return sp.dia_matrix((diagonals.reshape(len(offsets), -1), [flat[v] for v in offsets]),
                         shape=(m**3, m**3)).tocsr()


def kron_levels(matrix, grid):
    """V-cycle levels (A, omega / diag A, P, R) with P the Kronecker cube of the 1-D
    interpolation [1/2, 1, 1/2], R = P^T as CSR and R (A P): the reference hierarchy."""
    m = grid.shape[0] - 2
    A, levels = matrix, []
    while m > 1:
        m = (m - 1) // 2
        j = np.arange(m)
        P1 = sp.csr_matrix((np.concatenate([np.ones(m), np.full(2 * m, 0.5)]),
                            (np.concatenate([2 * j + 1, 2 * j, 2 * j + 2]), np.tile(j, 3))),
                           shape=(2 * m + 1, m))
        P = sp.kron(sp.kron(P1, P1, format="csr"), P1, format="csr")
        R = P.T.tocsr()
        levels.append((A, pde._OMEGA / A.diagonal(), P, R))
        A = (R @ (A @ P)).tocsr()
    levels.append((A, 1.0 / A.diagonal(), None, None))
    return levels


def kron_cycle(levels, level, b):
    """The V-cycle on kron_levels, with out-of-place residuals."""
    A, wdinv, P, R = levels[level]
    x = wdinv * b
    if P is not None:
        x += P @ kron_cycle(levels, level + 1, R @ (b - A @ x))
        x += wdinv * (b - A @ x)
    return x


def assert_same_csr(a, b):
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)


class TestOneCopyPerKnot:
    """Each knot matrix exists once, with the bits of the stacked-DIA, A + sp.diags and
    sp.kron hierarchy that the references build."""

    coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                 [pde.Charge([0.45, 0.5, 0.55], 40.0, 0.1)], 0.0)

    @pytest.mark.parametrize("n, y", [(9, (0.6, -0.4)), (9, (-1.0, 0.7)),
                                      (17, (0.6, -0.4)), (17, (-1.0, 0.7)), (17, None)],
                             ids=["9-cutoff-a", "9-cutoff-b", "17-cutoff-a", "17-cutoff-b",
                                  "17-identity"])
    def test_matrices_match_the_references_bit_for_bit(self, n, y):
        dmap = identity_map() if y is None else cutoff_map(unit_domain())
        y = None if y is None else np.array(y)
        domain, coeffs = unit_domain(), self.coeffs
        grid = pde.Grid3D(domain, n)
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        kd = pde.reaction_profile(domain, dmap, coeffs, y, grid).flat
        b = pde.assemble_rhs(domain, dmap, coeffs, y, grid).flat
        assert_same_csr(op.matrix, stencil_dict_operator(dmap, coeffs, y, grid))
        J, vcycle = pde._zero_jacobian(op, kd)
        J_ref = op.matrix + sp.diags(kd)
        assert_same_csr(J, J_ref)
        # J shares the operator's index arrays, which no one may write
        assert np.shares_memory(J.indices, op.matrix.indices)
        assert np.shares_memory(J.indptr, op.matrix.indptr)
        for index in (J.indices, J.indptr, op.matrix.indices, op.matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = index[0]
        levels = kron_levels(J_ref, grid)
        assert len(vcycle.levels) == len(levels)
        rng = np.random.default_rng(5)
        for (A, wdinv, P, R), (A_ref, wdinv_ref, P_ref, R_ref) in zip(vcycle.levels, levels):
            assert_same_csr(A, A_ref)
            assert np.array_equal(wdinv, wdinv_ref)
            if R_ref is None:
                assert P is None and R is None
                continue
            assert_same_csr(R, R_ref)
            # P is a view of R's arrays, and applies P_ref's bits
            assert np.shares_memory(P.data, R.data) and np.shares_memory(P.indices, R.indices)
            e = rng.standard_normal(P.shape[1])
            assert np.array_equal(P @ e, P_ref @ e)
        x, info = pde._pcg(J, b, vcycle, tol=1e-10)
        x_ref, r_ref, it_ref = textbook_pcg(J_ref, b, lambda r: kron_cycle(levels, 0, r), 1e-10)
        assert info.iterations == it_ref and np.array_equal(x, x_ref)
        assert info.residual == pde._norm(r_ref)

    def test_traced_peaks_are_bounded_by_the_operator(self):
        # the assembly peaks in scipy's DIA -> CSR conversion, next to the
        # diagonals; Newton holds the u = 0 Jacobian's data, its V-cycle and a
        # later step's data.  A stencil dict, index arrays per Jacobian and a
        # CSR P per level reach 4.89x and 4.87x here, one copy of each 4.11x and 3.13x
        domain, coeffs = unit_domain(), self.coeffs
        dmap, y = cutoff_map(domain), np.array([0.6, -0.4])
        grid = pde.Grid3D(domain, 33)
        rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
        reaction = pde.reaction_profile(domain, dmap, coeffs, y, grid)
        tracemalloc.start()
        try:
            op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
            assembly = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, info = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid, op=op, rhs=rhs,
                                            reaction=reaction)
            newton = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        A = op.matrix
        csr = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        assert info.iterations >= 2  # later steps build their own Jacobians
        assert assembly <= 4.5 * csr
        assert newton <= 3.8 * csr


def every_mode_entries(dmap, r, y):
    """The entries of J summed over every mode, a zero y_k included."""
    r = geometry._points(r)
    J = [[float(i == j) for j in range(3)] for i in range(3)]
    for k, (mu, fld) in enumerate(dmap.modes):
        scale = math.sqrt(mu) * y[k]
        for i, row in enumerate(fld.jac(r)):
            for j, b in enumerate(row):
                if not (isinstance(b, float) and b == 0.0):
                    J[i][j] = J[i][j] + scale * b
    return J


def every_mode_rhs(dmap, coeffs, y, grid):
    """The forcing f* det J with every mode's shift applied to every charge, a zero y_k included."""
    x = grid.interior
    shifts = [(math.sqrt(mu) * y[k], fld, fld.value(x)) for k, (mu, fld) in enumerate(dmap.modes)]
    vals = np.zeros(x.shape[:-1])
    for c in coeffs.charges:
        amp = c.magnitude / (2.0 * math.pi * c.width**2) ** 1.5
        delta = [x[..., d] - c.position[d] for d in range(3)]
        for scale, fld, at_nodes in shifts:
            delta = [t + scale * (b - b_c)
                     for t, b, b_c in zip(delta, at_nodes, fld.value(c.position))]
        g0, g1, g2 = (np.exp(-0.5 * t**2 / c.width**2) for t in delta)
        vals += (amp * g0) * (g1 * g2)
    return vals * geometry.det_jacobian(dmap, x, y)


def active_mode_maps(domain):
    """The maps of the active-mode tests, each with knots that have zero components."""
    def shift(axis, margin):
        return geometry.CutoffShift(axis, domain.box_min, domain.box_max, margin)

    ys2 = [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-0.0, 0.6), (-0.0, -0.0), (0.6, -0.4)]
    # with both axis-0 modes active, at n = 9 and 17 the order of their
    # shifts shows in the forcing's last bits
    ys3 = [(0.0, 0.0, 0.0), (0.5, 0.0, -0.7), (-0.0, 0.3, 0.0), (0.0, 0.0, 1.0),
           (0.9, 0.9, -1.0), (1.0, 1.0, 1.0)]
    return {
        # the benchmark's cutoff-ledger map, ||B||_1 ~ 0.19
        "ledger": (cutoff_map(domain, scales=(0.1, 0.1)), ys2),
        # two cutoffs of different margins move axis 0, a third axis 2
        "axis0-twice": (geometry.DomainMap([(0.04, shift(0, 7.0)), (0.02, shift(0, 12.0)),
                                            (0.01, shift(2, 9.0))]), ys3),
        # a mode with mu_k = 0 never moves the map
        "zero-mu": (geometry.DomainMap([(0.03, shift(1, 7.0)), (0.0, shift(2, 7.0))]), ys2),
    }


class TestActiveModes:
    """A mode whose y_k is exactly 0 is skipped, with the bits of the every-mode sums."""

    coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [0.0, 0.5, 2.0],
                                 [pde.Charge([30.0, 35.0, 35.0], 1.0, 6.0),
                                  pde.Charge([40.0, 33.0, 37.0], -0.5, 6.0),
                                  pde.Charge([5.5, 20.0, 64.2], 0.7, 6.0)], 0.0)

    @pytest.mark.parametrize("name", ["ledger", "axis0-twice", "zero-mu"])
    @pytest.mark.parametrize("n", [9, 17])
    def test_results_match_the_every_mode_sums(self, n, name, monkeypatch):
        domain, coeffs = big_domain(), self.coeffs
        grid = pde.Grid3D(domain, n)
        dmap, ys = active_mode_maps(domain)[name]
        pts = np.random.default_rng(1).uniform(0.0, 70.0, size=(50, 3))
        # complex knots, and one y per point with zero entries and a zero row
        complex_ys = [np.array(y) + 0.2j * np.roll(y, 1) for y in ys]
        per_point = np.random.default_rng(2).uniform(-1.0, 1.0, size=(dmap.n_modes, 50))
        per_point[0] = 0.0
        per_point[-1, ::3] = -0.0

        def results():
            out = []
            for y in map(np.array, ys):
                out += [pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid).matrix,
                        pde.reaction_profile(domain, dmap, coeffs, y, grid).values,
                        geometry.jacobian(dmap, grid.interior, y),
                        geometry.det_jacobian(dmap, grid.interior, y)]
            for y in complex_ys + [per_point]:
                out += [geometry.jacobian(dmap, pts, y), geometry.det_jacobian(dmap, pts, y)]
            c2 = geometry.check_assumptions(domain, dmap, coeffs.eps, coeffs.kappa2).c2
            return out, c2

        got, c2 = results()
        rhs = [pde.assemble_rhs(domain, dmap, coeffs, np.array(y), grid).values for y in ys]
        monkeypatch.setattr(geometry, "_jacobian_entries", every_mode_entries)
        ref, c2_ref = results()
        assert c2 == c2_ref
        for a, b in zip(got, ref):
            if sp.issparse(b):
                assert_same_csr(a, b)
            else:
                # at a knot with no active mode det J is the float 1.0, as with no modes
                a = np.broadcast_to(a, b.shape)
                assert a.dtype == b.dtype and np.array_equal(a, b)
        for y, values in zip(ys, rhs):
            assert np.array_equal(values, every_mode_rhs(dmap, coeffs, np.array(y), grid))

    @pytest.mark.parametrize("name, y", [("ledger", (0.0, 0.0)), ("ledger", (1.0, 0.0)),
                                         ("ledger", (0.0, -1.0)), ("ledger", (-0.0, 0.6)),
                                         ("ledger", (0.6, -0.4)), ("zero-mu", (0.5, 0.7)),
                                         ("axis0-twice", (0.0, 0.3, 0.0))])
    def test_only_active_modes_are_evaluated(self, name, y, monkeypatch):
        # one knot's operator, forcing and reaction evaluate the fields of the
        # modes with sqrt(mu_k) y_k != 0 and of no other
        domain = big_domain()
        grid = pde.Grid3D(domain, 9)
        dmap, _ = active_mode_maps(domain)[name]
        calls = []
        for k, (_, fld) in enumerate(dmap.modes):
            for attr in ("jac", "value"):
                method = getattr(fld, attr)
                monkeypatch.setattr(fld, attr, lambda r, k=k, method=method:
                                    calls.append(k) or method(r))
        y = np.array(y)
        for build in (pde.assemble_pulled_back_operator, pde.assemble_rhs,
                      pde.reaction_profile):
            build(domain, dmap, self.coeffs, y, grid)
        active = {k for k, (mu, _) in enumerate(dmap.modes) if mu * y[k] != 0.0}
        assert set(calls) == active


class TestNewton:
    def strong_coeffs(self, q=5000.0):
        return pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                   [pde.Charge([35, 35, 35], q, 4.0)], 0.0)

    def test_linear_case_single_step(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([2, 2, 2], [0, 0, 0],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, info = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        assert info.iterations == 1
        assert len(info.cg_iterations) == 1 and info.cg_iterations[0] >= 1
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        ulin, _ = linear_solve(op, None, rhs, tol=1e-12)
        assert np.max(np.abs(u.values - ulin.values)) <= 1e-8

    def test_quadratic_residual_decay(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        _, info = pde.newton_solve_npbe(domain, identity_map(), self.strong_coeffs(),
                                        None, grid)
        hist = info.residual_history
        assert info.iterations >= 3
        checked = 0
        for rk, rk1 in zip(hist, hist[1:]):
            if rk <= 1e-2:
                assert rk1 <= 1.0 * rk * rk
                checked += 1
        assert checked >= 1

    def test_damping_engages_for_strong_data(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        _, info = pde.newton_solve_npbe(domain, identity_map(), self.strong_coeffs(),
                                        None, grid)
        assert min(info.step_sizes) < 1.0

    def test_adjoint_carries_the_only_vcycle(self, monkeypatch):
        # with an adjoint every step is preconditioned by its V-cycle; without
        # one, each call builds one V-cycle, that of the u = 0 Jacobian
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = self.strong_coeffs()
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        react = pde.reaction_profile(domain, identity_map(), coeffs, None, grid)
        adjoint = pde.solve_adjoint(op, react)
        built = []

        class Counting(pde.VCycle):
            def __init__(self, matrix, *args):
                built.append(matrix)
                super().__init__(matrix, *args)

        monkeypatch.setattr(pde, "VCycle", Counting)
        _, goal = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid, op=op,
                                        reaction=react, adjoint=adjoint)
        assert goal.iterations >= 2 and built == []
        _, info = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid,
                                        op=op, reaction=react)
        assert info.iterations >= 2 and len(built) == 1
        assert (built[0] != adjoint.matrix).nnz == 0  # the u = 0 Jacobian A + diag K

    @pytest.mark.parametrize("goal", [False, True])
    def test_first_residual_needs_no_matvec(self, monkeypatch, goal):
        # from u = 0 the residual is -b: the operator is first applied inside CG
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = self.strong_coeffs(q=100.0)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        react = pde.reaction_profile(domain, identity_map(), coeffs, None, grid)
        adjoint = pde.solve_adjoint(op, react) if goal else None
        events = []

        class Spy(sp.csr_matrix):
            def __matmul__(self, other):
                if np.ndim(other) == 1:
                    events.append("matvec")
                return super().__matmul__(other)

        pcg = pde._pcg

        def logging_pcg(*args, **kwargs):
            events.append("cg")
            return pcg(*args, **kwargs)

        monkeypatch.setattr(pde, "_pcg", logging_pcg)
        pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid,
                              op=replace(op, matrix=Spy(op.matrix)), reaction=react,
                              adjoint=adjoint)
        assert events[0] == "cg" and "matvec" in events

    @pytest.mark.parametrize("failure", ["step-cap", "stagnation"])
    def test_failure_message_carries_relative_residual(self, monkeypatch, failure):
        # a failed knot's line in the study output is the message alone
        domain = big_domain()
        grid = pde.Grid3D(domain, 9)
        coeffs = self.strong_coeffs()
        if failure == "step-cap":
            monkeypatch.setattr(pde, "_MAX_NEWTON", 1)
        else:  # a zero step never lowers the residual
            monkeypatch.setattr(pde, "_pcg", lambda A, rhs, precond, tol:
                                (np.zeros_like(rhs), pde.CGInfo(0, 0.0)))
        with pytest.raises(ConvergenceError) as exc:
            pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        b = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid).flat
        relative = exc.value.residual / pde._norm(b)
        assert str(exc.value).endswith(f"residual {relative:.3e} ||b||")
        assert relative > 0.0 if failure == "step-cap" else relative == 1.0

    def test_small_data_matches_linearization(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 1.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        # linearized PBE: sinh(u) replaced by u
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        react = pde.reaction_profile(domain, identity_map(), coeffs, None, grid)
        ulin, _ = linear_solve(op, react, rhs, tol=1e-12)
        sup = float(np.max(np.abs(u.values)))
        assert sup < 0.1
        assert np.max(np.abs(u.values - ulin.values)) <= 5.0 * sup**3

    def test_sinh_of_solution_in_l2(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), self.strong_coeffs(),
                                     None, grid)
        sh = np.sinh(u.values)
        assert np.all(np.isfinite(sh))
        assert math.sqrt(pde.qoi_integral(pde.GridField(grid, sh**2))) < np.inf


class TestOperatorResidual:
    def test_solution_residual_small(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        A, kd, b = assembled(domain, identity_map(), coeffs, None, grid)
        res = npbe_residual(A, kd, b, u.flat)
        assert np.linalg.norm(res) <= 1e-9 * (1.0 + np.linalg.norm(b))

    def test_perturbation_increases_residual(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        A, kd, b = assembled(domain, identity_map(), coeffs, None, grid)
        base = np.linalg.norm(npbe_residual(A, kd, b, u.flat))
        assert np.linalg.norm(npbe_residual(A, kd, b, u.flat + 1.0)) > base

    def test_linear_residual_matches_recomputation(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(eps=(5, 2, 1)), None, grid)
        rng = np.random.default_rng(2)
        rhs = pde.GridField(grid, rng.standard_normal(7**3))
        u, info = linear_solve(op, None, rhs, tol=1e-10)
        r = np.linalg.norm(rhs.flat - op.matrix @ u.flat)
        assert abs(r - info.residual) <= 1e-12 * (1.0 + r)

