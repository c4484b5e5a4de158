import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from npbe_uq import bounds, geometry, pde
from npbe_uq.errors import AssemblyError, ConvergenceError, DomainError


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


def no_charge_coeffs(eps=(1, 1, 1), kappa2=(0, 0, 0), g=0.0):
    return pde.PBECoefficients(np.array(eps, dtype=float),
                               np.array(kappa2, dtype=float), [], g)


class TestGrid:
    def test_shape_and_spacing(self):
        grid = pde.Grid3D(big_domain(), 15)
        assert grid.shape == (15, 15, 15)
        assert abs(grid.h - 5.0) <= 1e-14
        assert grid.n_nodes == 15**3

    def test_tags_match_classification(self):
        grid = pde.Grid3D(big_domain(), 15)
        d = np.linalg.norm(grid.points - 35.0, axis=-1)
        expect = np.where(d <= 15.0, 0, np.where(d <= 25.0, 1, 2))
        assert np.array_equal(grid.subdomain_tag.ravel(), expect)

    def test_node_weights_sum_to_volume(self):
        grid = pde.Grid3D(big_domain(), 12)
        assert abs(np.sum(grid.node_weights()) - 70.0**3) <= 1e-6

    def test_too_small_grid_rejected(self):
        with pytest.raises(DomainError):
            pde.Grid3D(big_domain(), 1)

    def test_gridfield_rejects_nan(self):
        grid = pde.Grid3D(big_domain(), 5)
        vals = np.zeros(grid.shape)
        vals[2, 2, 2] = np.nan
        with pytest.raises(DomainError):
            pde.GridField(grid, vals)


class TestQoI:
    def test_constant_one_is_box_volume(self):
        grid = pde.Grid3D(big_domain(), 33)
        u = pde.GridField(grid, np.ones(grid.shape))
        assert pde.qoi_integral(u) == pytest.approx(343000.0, abs=1e-6)

    def test_zero_field(self):
        grid = pde.Grid3D(big_domain(), 9)
        assert pde.qoi_integral(pde.GridField(grid, np.zeros(grid.shape))) == 0.0

    def test_linear_function_on_unit_box(self):
        grid = pde.Grid3D(unit_domain(), 17)
        u = pde.GridField(grid, grid.points[:, 0].reshape(grid.shape))
        # trapezoid weights integrate a linear function exactly
        assert abs(pde.qoi_integral(u) - 0.5) <= 1e-12


class TestAssembly:
    def test_seven_point_degeneration(self):
        # translation map, eps constant: matrix equals the scaled 7-point Laplacian
        domain = unit_domain()
        grid = pde.Grid3D(domain, 7)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), no_charge_coeffs(),
                                               None, grid)
        n = 7
        one = sp.identity(n)
        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        lap = (sp.kron(sp.kron(lap1, one), one) + sp.kron(sp.kron(one, lap1), one)
               + sp.kron(sp.kron(one, one), lap1)) / grid.h**2
        ii = grid.interior_idx
        full = lap.tocsr()
        diff = op.matrix - full[ii][:, ii]
        assert abs(diff).max() <= 1e-12

    def test_general_path_matches_fast_path_at_identity(self, monkeypatch):
        # at y = 0 the cutoff map has J = I exactly, so the 19-point path
        # must reproduce the 7-point fast path of the map with no modes,
        # down to the sparsity pattern once its zero mixed terms are dropped
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 1.0, 0.1)], 0.0)
        general, fast = cutoff_map(domain), identity_map()
        y = np.zeros(2)
        calls = []
        jacobian = geometry.jacobian
        monkeypatch.setattr(geometry, "jacobian",
                            lambda *args: calls.append(args) or jacobian(*args))
        op_g = pde.assemble_pulled_back_operator(domain, general, coeffs, y, grid)
        assert calls  # the general path really ran
        op_f = pde.assemble_pulled_back_operator(domain, fast, coeffs, None, grid)
        for a, b in ((op_g.matrix, op_f.matrix),
                     (op_g.boundary_coupling, op_f.boundary_coupling)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            a, b = a.toarray(), b.toarray()
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        for build in (pde.assemble_rhs, pde.reaction_profile):
            g = build(domain, general, coeffs, y, grid).values
            f = build(domain, fast, coeffs, None, grid).values
            assert np.max(np.abs(g - f)) <= 1e-12 * np.max(np.abs(f))

    def test_harmonic_mean_across_interface(self):
        # face along x crossing the outer sphere: coefficient 2*70*1/71 / h^2
        domain = big_domain()
        grid = pde.Grid3D(domain, 29)  # h = 2.5
        op = pde.assemble_pulled_back_operator(
            domain, identity_map(), no_charge_coeffs(eps=(70, 70, 1)), None, grid)
        shape = grid.shape
        flat = lambda i, j, k: (i * shape[1] + j) * shape[2] + k
        # x = 60 (r = 25, inside) and x = 62.5 (outside), y = z = 35
        p = flat(24, 14, 14)
        q = flat(25, 14, 14)
        assert grid.subdomain_tag.ravel()[p] == 1
        assert grid.subdomain_tag.ravel()[q] == 2
        pi = np.searchsorted(grid.interior_idx, p)
        qi = np.searchsorted(grid.interior_idx, q)
        expect = -2.0 * 70.0 * 1.0 / 71.0 / grid.h**2
        assert abs(op.matrix[pi, qi] - expect) <= 1e-12

    def test_dense_oracle_on_cutoff_map(self):
        # independently coded dense assembly of the same flux scheme, at an
        # interior y and at a corner of Gamma
        domain = unit_domain()
        dmap = cutoff_map(domain, scales=(0.1, 0.05))
        grid = pde.Grid3D(domain, 9)
        coeffs = no_charge_coeffs(eps=(3.0, 2.0, 1.0))
        n = grid.shape[0]
        h = grid.h
        eps_node = coeffs.eps[grid.subdomain_tag]
        pts = grid.points.reshape(grid.shape + (3,))
        idx = np.arange(n**3).reshape(grid.shape)
        ii, bb = grid.interior_idx, grid.boundary_idx

        def harm(a, b):
            return 2.0 * a * b / (a + b)

        for y in (np.array([0.6, -0.4]), np.array([1.0, -1.0])):
            op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
            A = np.zeros((n**3, n**3))

            def tensor(mid):
                J = geometry.jacobian(dmap, mid, y)
                Jinv = np.linalg.inv(J)
                return (Jinv @ Jinv.T) * np.linalg.det(J)

            def add(P, Q, c):
                A[idx[P], idx[P]] += c
                A[idx[Q], idx[Q]] += c
                A[idx[P], idx[Q]] -= c
                A[idx[Q], idx[P]] -= c

            for P in itertools.product(range(n), repeat=3):
                for d in range(3):
                    Q = list(P)
                    Q[d] += 1
                    Q = tuple(Q)
                    if Q[d] < n:
                        mid = 0.5 * (pts[P] + pts[Q])
                        add(P, Q, harm(eps_node[P], eps_node[Q]) * tensor(mid)[d, d] / h**2)
                for d, e in ((0, 1), (0, 2), (1, 2)):
                    for sgn in (1, -1):
                        Q = list(P)
                        Q[d] += 1
                        Q[e] += sgn
                        Q = tuple(Q)
                        if Q[d] < n and 0 <= Q[e] < n:
                            mid = 0.5 * (pts[P] + pts[Q])
                            add(P, Q, sgn * harm(eps_node[P], eps_node[Q])
                                * tensor(mid)[d, e] / (2.0 * h**2))
            u = grid.points @ np.array([0.3, -0.2, 0.5])
            r1 = op.matrix @ u[ii] + op.boundary_coupling @ u[bb]
            r2 = A[np.ix_(ii, np.arange(n**3))] @ u
            assert np.max(np.abs(r1 - r2)) <= 1e-8
            # entry by entry: interior x interior and interior x boundary blocks
            for got, block in ((op.matrix, A[np.ix_(ii, ii)]),
                               (op.boundary_coupling, A[np.ix_(ii, bb)])):
                assert np.max(np.abs(got.toarray() - block)) <= 1e-12 * np.max(np.abs(block))

    def test_jacobian_once_per_midpoint_set(self, monkeypatch):
        # three axis-face sets and three plane-edge sets, whose two diagonals
        # share their midpoints; the map with no modes needs no Jacobian
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        calls = []
        jacobian = geometry.jacobian
        monkeypatch.setattr(geometry, "jacobian",
                            lambda *args: calls.append(args) or jacobian(*args))
        for dmap, y, expect in ((cutoff_map(domain), np.array([0.5, -0.5]), 6),
                                (identity_map(), None, 0)):
            calls.clear()
            pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(), y, grid)
            assert len(calls) == expect

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
            for got, expect in ((op.matrix, ref.matrix),
                                (op.boundary_coupling, ref.boundary_coupling)):
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, attr), getattr(expect, attr)), attr
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
                return np.asarray(r, dtype=float)

            def jac(self, r):
                r = np.asarray(r, dtype=float)
                frac = r / grid.h - np.round(r / grid.h)
                folded = np.sum(np.abs(frac) > 0.25, axis=-1) >= self.off
                out = np.zeros(r.shape[:-1] + (3, 3))
                out[folded] = self.scale * np.eye(3)
                return out

            def jac_deriv(self, r):
                return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))

        for fld, place, min_det in ((Collapse(-2.0, 1), "axis 0 face", "min det -1)"),
                                    (Collapse(-3.0, 2), "plane (0, 1) edge", "min det -8)")):
            dmap = geometry.DomainMap([(1.0, fld)])
            with pytest.raises(AssemblyError) as exc:
                pde.assemble_pulled_back_operator(domain, dmap, no_charge_coeffs(),
                                                  np.array([1.0]), grid)
            assert place in str(exc.value)
            assert min_det in str(exc.value)


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
        total = float(grid.node_weights() @ rhs.flat)
        assert abs(total - 1.0) <= 1e-3

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
            # the nodes come as the grid's lattice, or as its (P, 3) points
            if isinstance(r, geometry.Lattice):
                return r.shape[:-1] == grid.shape
            return np.shape(r) == grid.points.shape

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
        direct = sum(c.magnitude / (2.0 * math.pi * c.width**2) ** 1.5
                     * np.exp(-0.5 * np.sum((grid.points - c.position) ** 2, axis=-1)
                              / c.width**2)
                     for c in charges)
        assert np.max(np.abs(rhs.flat - direct)) <= 1e-14 * np.max(np.abs(direct))

    def test_identity_reads_no_grid_points(self, monkeypatch):
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0],
                                     [pde.Charge([35.0, 35.0, 35.0], 1.0, 4.0),
                                      pde.Charge([30.0, 38.0, 41.0], -1.0, 4.0)], 0.0)

        def forbidden(self):
            raise AssertionError("the J = I rhs read grid.points")

        # a property on the class takes precedence over the instance's array
        monkeypatch.setattr(pde.Grid3D, "points", property(forbidden), raising=False)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
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
        zero = pde.GridField(grid, np.zeros(grid.shape))
        u, info = pde.solve_linear_interface(op, None, zero, g=0.0)
        assert np.all(u.values == 0.0)
        assert info.iterations == 0

    def test_constant_dirichlet_max_principle(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(eps=(5, 2, 1)), None, grid)
        zero = pde.GridField(grid, np.zeros(grid.shape))
        u, _ = pde.solve_linear_interface(op, None, zero, g=3.25, tol=1e-12)
        assert np.max(np.abs(u.values - 3.25)) <= 1e-9

    def test_negative_reaction_rejected(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 5)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        zero = pde.GridField(grid, np.zeros(grid.shape))
        react = pde.GridField(grid, -np.ones(grid.shape))
        with pytest.raises(DomainError):
            pde.solve_linear_interface(op, react, zero)

    def test_iteration_cap_raises(self):
        # at n = 9 the V-cycle is the exact inverse; n = 17 has two levels
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(), None, grid)
        rhs = pde.GridField(grid, np.ones(grid.shape))
        with pytest.raises(ConvergenceError) as exc:
            pde.solve_linear_interface(op, None, rhs, tol=1e-14, maxiter=2)
        assert exc.value.residual is not None

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
                                                      grid).flat[grid.interior_idx])
        b = op.rhs_interior(rhs.flat, np.zeros(len(grid.boundary_idx)))
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
            exact = np.prod(np.sin(math.pi * grid.points), axis=-1)
            op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                                   no_charge_coeffs(), None, grid)
            rhs = pde.GridField(grid, 3.0 * math.pi**2 * exact)
            u, _ = pde.solve_linear_interface(op, None, rhs, tol=1e-11)
            w = grid.node_weights()
            errs.append(math.sqrt(float(w @ (u.flat - exact) ** 2)))
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

        def gfun(pts):
            return oracle(np.linalg.norm(pts - 35.0, axis=-1))

        coeffs = pde.PBECoefficients(eps3, [0, 0, 0], [pde.Charge([35, 35, 35], q, s)], gfun)
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        u, _ = pde.solve_linear_interface(op, None, rhs, g=gfun, tol=1e-10)
        exact = oracle(np.linalg.norm(grid.points - 35.0, axis=-1))
        w = grid.node_weights()
        rel = math.sqrt(float(w @ (u.flat - exact) ** 2) / float(w @ exact**2))
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
        _, info = pde.solve_linear_interface(op, react, rhs, tol=1e-12)
        assert info.iterations <= 25

    @pytest.mark.parametrize("n, depth, dense", [(12, 1, False), (13, 2, True),
                                                 (21, 3, True)])
    def test_non_dyadic_grids_converge(self, n, depth, dense):
        # 12: an even axis with 1000 > 512 nodes, smoothed only; 13 and 21
        # coarsen to 125 and 64 nodes
        op, rhs, react = self.interface_problem(n)
        grid = op.grid
        A = op.matrix + sp.diags(react.flat[grid.interior_idx])
        vcycle = pde.VCycle(A, grid)
        assert len(vcycle.levels) == depth
        assert (vcycle.coarse_inverse is not None) == dense
        u, info = pde.solve_linear_interface(op, react, rhs, tol=1e-10)
        b = op.rhs_interior(rhs.flat, np.zeros(len(grid.boundary_idx)))
        assert np.linalg.norm(b - A @ u.flat[grid.interior_idx]) <= 1e-10 * np.linalg.norm(b)
        assert info.iterations <= 60

    @pytest.mark.parametrize("n", [12, 17, 21])
    def test_symmetric_positive_definite(self, n):
        domain = unit_domain()
        grid = pde.Grid3D(domain, n)
        coeffs = no_charge_coeffs(eps=(3.0, 2.0, 1.0), kappa2=(1.0, 0.5, 2.0))
        dmap, y = cutoff_map(domain, scales=(0.15, 0.1)), np.array([0.8, -0.9])
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        react = pde.reaction_profile(domain, dmap, coeffs, y, grid)
        vcycle = pde.VCycle(op.matrix + sp.diags(react.flat[grid.interior_idx]), grid)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u, v = rng.standard_normal((2, op.matrix.shape[0]))
            uMv, vMu = float(u @ vcycle(v)), float(v @ vcycle(u))
            uMu, vMv = float(u @ vcycle(u)), float(v @ vcycle(v))
            assert uMu > 0.0 and vMv > 0.0
            assert abs(uMv - vMu) <= 1e-12 * math.sqrt(uMu * vMv)

    @pytest.mark.parametrize("n", [9, 13])
    def test_cutoff_newton_matches_dense_solve(self, n):
        # J != I (19-point operator); at n = 9 the V-cycle is the exact
        # inverse, at n = 13 it has a Galerkin coarse level
        domain = unit_domain()
        grid = pde.Grid3D(domain, n)
        dmap, y = cutoff_map(domain), np.array([0.6, -0.4])
        coeffs = pde.PBECoefficients([3.0, 2.0, 1.0], [1.0, 0.5, 2.0],
                                     [pde.Charge([0.45, 0.5, 0.55], 40.0, 0.1)], 0.0)
        u, info = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid, tol=1e-13)
        assert info.iterations >= 2
        ii = grid.interior_idx
        op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
        A = op.matrix.toarray()
        kd = pde.reaction_profile(domain, dmap, coeffs, y, grid).flat[ii]
        rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
        b = op.rhs_interior(rhs.flat, np.zeros(len(grid.boundary_idx)))
        v = np.zeros(len(ii))
        for _ in range(30):
            v -= np.linalg.solve(A + np.diag(kd * np.cosh(v)), A @ v + kd * np.sinh(v) - b)
        assert np.linalg.norm(A @ v + kd * np.sinh(v) - b) <= 1e-12 * np.linalg.norm(b)
        assert np.max(np.abs(u.flat[ii] - v)) <= 1e-10 * np.max(np.abs(v))
        # the goal-oriented stop on the same J != I operator
        adjoint = pde.solve_adjoint(op, pde.reaction_profile(domain, dmap, coeffs, y, grid))
        _, goal = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid, op=op, adjoint=adjoint)
        ref = grid.node_weights()[ii] @ v
        assert abs(goal.qoi - ref) <= 1e-12 * abs(ref)
        assert 0.0 <= goal.qoi_error <= 1e-12 * abs(goal.qoi)
        # tol and cg_tol belong to the l2 stop
        for kw in ({"tol": 1e-9}, {"cg_tol": 1e-12}):
            with pytest.raises(TypeError, match="QoI error estimate"):
                pde.newton_solve_npbe(domain, dmap, coeffs, y, grid, op=op, adjoint=adjoint, **kw)


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
        ulin, _ = pde.solve_linear_interface(op, None, rhs, tol=1e-12)
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
        # with an adjoint every step is preconditioned by its V-cycle;
        # without one, Newton builds a hierarchy from its first Jacobian
        domain = big_domain()
        grid = pde.Grid3D(domain, 17)
        coeffs = self.strong_coeffs()
        op = pde.assemble_pulled_back_operator(domain, identity_map(), coeffs, None, grid)
        react = pde.reaction_profile(domain, identity_map(), coeffs, None, grid)
        adjoint = pde.solve_adjoint(op, react)
        built = []

        class Counting(pde.VCycle):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(pde, "VCycle", Counting)
        _, goal = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid, op=op,
                                        reaction=react, adjoint=adjoint)
        assert goal.iterations >= 2 and built == []
        pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid, op=op,
                              reaction=react)
        assert len(built) == 1

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

    def test_uniqueness_from_random_start(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 13)
        coeffs = self.strong_coeffs(q=1000.0)
        u0, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        rng = np.random.default_rng(1)
        start = pde.GridField(grid, rng.uniform(-1.0, 1.0, size=grid.shape))
        u1, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid, u0=start)
        assert np.max(np.abs(u0.values - u1.values)) <= 1e-7

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
        ulin, _ = pde.solve_linear_interface(op, react, rhs, tol=1e-12)
        sup = float(np.max(np.abs(u.values)))
        assert sup < 0.1
        assert np.max(np.abs(u.values - ulin.values)) <= 5.0 * sup**3

    def test_sinh_of_solution_in_l2(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 13)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), self.strong_coeffs(),
                                     None, grid)
        sh = np.sinh(u.values)
        assert np.all(np.isfinite(sh))
        assert math.sqrt(float(grid.node_weights() @ (sh.ravel() ** 2))) < np.inf


class TestOperatorResidual:
    def test_solution_residual_small(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 13)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid, tol=1e-10)
        res = pde.operator_residual(domain, identity_map(), coeffs, None, u)
        rhs = pde.assemble_rhs(domain, identity_map(), coeffs, None, grid)
        assert np.linalg.norm(res.flat) <= 1e-9 * (1.0 + np.linalg.norm(rhs.flat))

    def test_perturbation_increases_residual(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 13)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        base = np.linalg.norm(pde.operator_residual(domain, identity_map(), coeffs,
                                                    None, u).flat)
        bumped = u.values.copy()
        bumped[1:-1, 1:-1, 1:-1] += 1.0
        ub = pde.GridField(grid, bumped)
        assert np.linalg.norm(pde.operator_residual(domain, identity_map(), coeffs,
                                                    None, ub).flat) > base

    def test_linear_residual_matches_recomputation(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        op = pde.assemble_pulled_back_operator(domain, identity_map(),
                                               no_charge_coeffs(eps=(5, 2, 1)), None, grid)
        rng = np.random.default_rng(2)
        rhs = pde.GridField(grid, rng.standard_normal(grid.shape))
        u, info = pde.solve_linear_interface(op, None, rhs, tol=1e-10)
        ii = grid.interior_idx
        b = op.rhs_interior(rhs.flat, np.zeros(len(grid.boundary_idx)))
        r = np.linalg.norm(b - op.matrix @ u.flat[ii])
        assert abs(r - info.residual) <= 1e-12 * (1.0 + r)


class TestHNormHelpers:
    def test_h_norm_on_solution(self):
        domain = big_domain()
        grid = pde.Grid3D(domain, 13)
        coeffs = pde.PBECoefficients([2, 2, 2], [0.5, 0.5, 0.5],
                                     [pde.Charge([35, 35, 35], 100.0, 4.0)], 0.0)
        u, _ = pde.newton_solve_npbe(domain, identity_map(), coeffs, None, grid)
        assert bounds.h_norm(u) > 0.0
