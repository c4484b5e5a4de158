import math

import numpy as np
import pytest

from npbe_uq import bounds, geometry
from npbe_uq.errors import DomainError, HypothesisViolationError, MapOrientationError
from conftest import map_forward


def make_domain():
    return geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (15.0, 25.0))


def cutoff_map(domain, scales=(0.1, 0.05), margin=7.0):
    modes = []
    for k, s in enumerate(scales):
        fld = geometry.CutoffShift(k, domain.box_min, domain.box_max, margin)
        c1 = geometry.mode_c1_norm(fld, domain, n=24)
        modes.append(((s / c1) ** 2, fld))
    return geometry.DomainMap(sorted(modes, key=lambda m: -m[0]))


class TestReferenceDomain:
    def test_radii_must_nest(self):
        with pytest.raises(DomainError):
            geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (25.0, 15.0))

    def test_outer_sphere_inside_box(self):
        with pytest.raises(DomainError):
            geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (15.0, 40.0))

    def test_classify_center_is_u1(self):
        assert geometry.classify_point(make_domain(), [35, 35, 35]) == 0

    def test_classify_corner_is_u3(self):
        assert geometry.classify_point(make_domain(), [0, 0, 0]) == 2

    def test_classify_shell_is_u2(self):
        # radius 20 sits between the sphere radii 15 and 25
        assert geometry.classify_point(make_domain(), [55, 35, 35]) == 1

    def test_classify_outside_raises(self):
        with pytest.raises(DomainError):
            geometry.classify_point(make_domain(), [80, 35, 35])

    def test_partition_is_exact(self):
        domain = make_domain()
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 70, size=(2000, 3))
        tags = geometry.classify_point(domain, pts)
        assert tags.shape == (2000,)
        assert np.all((tags >= 0) & (tags <= 2))
        d = np.linalg.norm(pts - 35.0, axis=-1)
        expect = np.where(d <= 15.0, 0, np.where(d <= 25.0, 1, 2))
        assert np.array_equal(tags, expect)

    def test_lattice_matches_its_points(self):
        # a lattice is read by axis, and gives the bits of its (n0, n1, n2, 3) points
        domain = make_domain()
        lattice = geometry.Lattice([np.linspace(0, 70, 9), np.linspace(5, 65, 7),
                                    np.linspace(0, 70, 11)])
        pts = np.asarray(lattice)
        for got, ref in zip(domain.levels(lattice), domain.levels(pts)):
            assert got.shape == (9, 7, 11) and np.array_equal(got, ref)
        assert np.array_equal(domain.contains(lattice), np.ones((9, 7, 11), dtype=bool))
        assert np.array_equal(geometry.classify_point(domain, lattice),
                              geometry.classify_point(domain, pts))
        with pytest.raises(DomainError):
            geometry.classify_point(domain, geometry.Lattice([[0, 80], [0], [0]]))

    def test_level_set_gradient_nonzero_on_shell(self):
        # |d/dr of (|r-c| - radius)| = 1 on a sampled shell away from the center
        domain = make_domain()
        rng = np.random.default_rng(1)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        pts = 35.0 + 15.0 * dirs
        h = 1e-6
        phi_p, _ = domain.levels(pts + h * dirs)
        phi_m, _ = domain.levels(pts - h * dirs)
        grad = (phi_p - phi_m) / (2 * h)
        assert np.all(np.abs(grad) > 0.99)


class TestMapForward:
    def test_identity_at_y_zero(self):
        domain = make_domain()
        dmap = cutoff_map(domain)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 70, size=(100, 3))
        assert np.allclose(map_forward(dmap, pts, np.zeros(2)), pts, atol=0)
        J = geometry.jacobian(dmap, pts, np.zeros(2))
        assert np.allclose(J, np.eye(3), atol=0)
        assert np.allclose(geometry.det3(J), 1.0, atol=0)

    def test_no_modes_is_identity_in_floats(self):
        # y = None is the centre knot: with no active mode the tensor entries
        # are the floats of J = I, and each offset component stays its
        # lattice axis, 1-D and shaped to broadcast
        dmap = geometry.DomainMap([])
        lat = geometry.Lattice([np.linspace(0.0, 70.0, 5), np.linspace(1.0, 69.0, 4),
                                np.linspace(2.0, 68.0, 3)])
        for d in range(3):
            for e in range(3):
                T = geometry.tensor_entry(dmap, None, lat, d, e, "")
                assert type(T) is float and T == float(d == e)
        centres = [np.array([35.0, 30.0, 40.0]), np.array([10.0, 60.0, 5.0])]
        for c, delta in zip(centres, geometry.offsets(dmap, lat, centres, None)):
            for d in range(3):
                assert np.array_equal(delta[d], lat[..., d] - c[d])  # shapes compared too

    @pytest.mark.parametrize("y", [-1.0, 0.37, 1.0])
    def test_translation_offsets_cancel_exactly(self, y):
        # a mode whose field is a constant vector moves r and c alike, so
        # F(r) - F(c) is r - c in every bit
        class Translation:
            vector = (0.3, -1.7, 2.9)

            def value(self, r):
                return [np.full(np.asarray(r).shape[:-1], v) for v in self.vector]

        dmap = geometry.DomainMap([(0.49, Translation())])
        pts = np.random.default_rng(5).uniform(0.0, 70.0, size=(40, 3))
        centres = [np.array([35.0, 30.0, 40.0]), np.array([0.1, 69.9, 17.3])]
        count = 0
        for c, delta in zip(centres, geometry.offsets(dmap, pts, centres, np.array([y]))):
            for d in range(3):
                assert np.array_equal(delta[d], pts[:, d] - c[d])
            count += 1
        assert count == len(centres)

    def test_cutoff_value_against_scalar_recomputation(self):
        # independent evaluation of the separable quintic cutoff at a few points
        domain = make_domain()
        margin = 7.0
        dmap = geometry.DomainMap([(0.01, geometry.CutoffShift(0, domain.box_min,
                                                              domain.box_max, margin)),
                                   (0.01, geometry.CutoffShift(1, domain.box_min,
                                                               domain.box_max, margin))])
        y = np.array([1.0, -1.0])

        def step(t):
            t = min(max(t, 0.0), 1.0)
            return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)

        def chi(r):
            out = 1.0
            for d in range(3):
                out *= step(r[d] / margin) * step((70.0 - r[d]) / margin)
            return out

        for r in ([3.0, 35.0, 35.0], [35.0, 66.0, 20.0], [10.0, 10.0, 10.0]):
            got = map_forward(dmap, np.array(r), y)
            expect = np.array(r, dtype=float)
            expect[0] += 0.1 * chi(r) * 1.0
            expect[1] += 0.1 * chi(r) * -1.0
            assert np.allclose(got, expect, atol=1e-14)

    def test_complex_y_supported(self):
        domain = make_domain()
        dmap = cutoff_map(domain)
        y = np.array([0.3 + 0.2j, -0.1j])
        out = map_forward(dmap, np.array([20.0, 30.0, 40.0]), y)
        assert np.iscomplexobj(out)
        J = geometry.jacobian(dmap, np.array([5.0, 30.0, 40.0]), y)
        assert np.iscomplexobj(J)


class TestLattice:
    def lattice(self):
        # unequal axis lengths catch a swapped axis; the axes reach into the
        # 7 A margin on both sides and cross the plateau
        return geometry.Lattice([np.linspace(0.0, 70.0, 5), np.linspace(2.0, 69.0, 7),
                                 np.array([0.5, 6.0, 30.0, 64.5, 69.9, 70.0])])

    def test_points_and_axis_access(self):
        lat = self.lattice()
        pts = np.asarray(lat)
        assert pts.shape == lat.shape == (5, 7, 6, 3)
        for d in range(3):
            assert np.array_equal(np.broadcast_to(lat[..., d], lat.shape[:-1]), pts[..., d])
        with pytest.raises(TypeError):
            lat[0]

    def test_cutoff_on_lattice_matches_points(self):
        domain = make_domain()
        lat = self.lattice()
        pts = np.asarray(lat)
        for axis in range(3):
            fld = geometry.CutoffShift(axis, domain.box_min, domain.box_max, 7.0)
            assert np.array_equal(fld.jac_deriv(lat), fld.jac_deriv(pts))
            b = fld.value(lat)
            for got, expect in zip(b + sum(fld.jac(lat), []),
                                   fld.value(pts) + sum(fld.jac(pts), [])):
                assert np.array_equal(got, expect)
            # the two components the shift does not displace are the float 0.0
            assert all(type(b[d]) is float and b[d] == 0.0 for d in range(3) if d != axis)
        dmap = cutoff_map(domain)
        for y in (np.array([0.8, -0.6]), np.array([-1.0, 1.0])):
            assert np.array_equal(geometry.jacobian(dmap, lat, y),
                                  geometry.jacobian(dmap, pts, y))


class TestJacobian:
    def test_matches_finite_differences(self):
        domain = make_domain()
        dmap = cutoff_map(domain)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.5, 69.5, size=(1000, 3))
        ys = rng.uniform(-1, 1, size=(1000, 2))
        h = 1e-5
        worst = 0.0
        for r, y in zip(pts, ys):
            J = geometry.jacobian(dmap, r, y)
            Jfd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                Jfd[:, j] = (map_forward(dmap, r + e, y)
                             - map_forward(dmap, r - e, y)) / (2 * h)
            worst = max(worst, np.max(np.abs(J - Jfd)) / max(1.0, np.max(np.abs(J))))
        assert worst <= 1e-6

    def test_det_and_adjugate_against_numpy(self):
        domain = make_domain()
        dmap = cutoff_map(domain, scales=(0.2, 0.1))
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 70, size=(200, 3))
        ys = rng.uniform(-1, 1, size=(200, 2))
        for r, y in zip(pts, ys):
            J = geometry.jacobian(dmap, r, y)
            assert abs(geometry.det3(J) - np.linalg.det(J)) <= 1e-12
            adj = np.linalg.det(J) * np.linalg.inv(J)
            for d in range(3):
                assert np.allclose(geometry._adjugate_row(J, d), adj[d], atol=1e-12)

    def test_stacked_shape(self):
        # bench tracing reads the points count from jacobian's leading shape
        domain = make_domain()
        dmap = cutoff_map(domain)
        lat = TestLattice().lattice()
        pts = np.asarray(lat)[1, :4, 2]
        y = np.array([0.8, -0.6])
        assert geometry.jacobian(dmap, lat, y).shape == (5, 7, 6, 3, 3)
        assert geometry.jacobian(dmap, pts, y).shape == (4, 3, 3)
        assert geometry.jacobian(dmap, pts[0], y).shape == (3, 3)
        assert geometry.jacobian(geometry.DomainMap([]), pts, []).shape == (4, 3, 3)
        # one y per point, as the bound sampling passes it
        ys = np.array([[0.8, -0.6], [0.1, 0.2], [-1.0, 1.0], [0.0, 0.5]])
        expect = np.array([geometry.jacobian(dmap, r, yk) for r, yk in zip(pts, ys)])
        assert np.array_equal(geometry.jacobian(dmap, pts, ys.T), expect)

    def test_singular_value_lower_bound(self):
        # sigma_min(J) >= 1 - ||B||_1 |y|_inf for small maps
        domain = make_domain()
        dmap = cutoff_map(domain)
        prof = geometry.b_norms(dmap, domain, p=1.0, n=24)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 70, size=(300, 3))
        ys = rng.uniform(-1, 1, size=(300, 2))
        for r, y in zip(pts, ys):
            J = geometry.jacobian(dmap, r, y)
            smin = np.linalg.svd(J, compute_uv=False)[-1]
            assert smin >= 1.0 - prof.b_norm_1 * np.max(np.abs(y)) - 1e-9


class FullRank:
    """B_ij(r) = sin(a_ij . r + c_ij), full rank at almost every point."""

    def __init__(self):
        rng = np.random.default_rng(7)
        self.a, self.c = rng.uniform(-0.2, 0.2, (3, 3, 3)), rng.uniform(0.0, 6.0, (3, 3))

    def value(self, r):
        return [0.0] * 3

    def jac(self, r):
        phase = np.asarray(r) @ self.a.reshape(9, 3).T + self.c.ravel()
        return [[np.sin(phase[..., 3 * i + j]) for j in range(3)] for i in range(3)]

    def jac_deriv(self, r):
        phase = np.asarray(r) @ self.a.reshape(9, 3).T + self.c.ravel()
        # [..., k, i, j] = dB_ij / dr_k
        return np.cos(phase).reshape(phase.shape[:-1] + (1, 3, 3)) * np.moveaxis(self.a, -1, 0)


class Constant:
    """The same B at every point, so every point ties at the sup."""

    def value(self, r):
        return [0.0] * 3

    def jac(self, r):
        return [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 3.0]]

    def jac_deriv(self, r):
        return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))


class TestNorms:
    @pytest.mark.parametrize("name", ["cutoff", "full-rank", "ties"])
    def test_pruned_sweep_matches_exhaustive(self, name, monkeypatch):
        domain = make_domain()
        fld = {"cutoff": geometry.CutoffShift(1, domain.box_min, domain.box_max, 7.0),
               "full-rank": FullRank(), "ties": Constant()}[name]
        n = 20
        pts = np.asarray(geometry._box_grid(domain, n))
        mats = [geometry._stack(fld.jac(pts), pts.shape[:-1])]
        mats += [fld.jac_deriv(pts)[..., i, :, :] for i in range(3)]
        expect = max(float(np.max(np.linalg.svd(b, compute_uv=False)[..., 0])) for b in mats)
        svd, sizes = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: sizes.append(a.size // 9) or svd(a, **kw))
        assert geometry.mode_c1_norm(fld, domain, n=n) == expect
        if name == "ties":  # one SVD per stack at its largest norm, then every point of B
            assert sum(sizes) == 4 + n**3
        else:
            assert sum(sizes) < n**3

    def test_nan_field_raises_before_the_svd(self, monkeypatch):
        # numpy's SVD of a NaN matrix raises an untyped LinAlgError
        class NaNJacobian(Constant):
            def jac(self, r):
                return [[np.nan, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 3.0]]

        monkeypatch.setattr(np.linalg, "svd", None)
        domain = make_domain()
        with pytest.raises(DomainError, match="mode_c1_norm"):
            geometry.mode_c1_norm(NaNJacobian(), domain, n=8)
        with pytest.raises(DomainError, match="mode_c1_norm"):
            geometry.b_norms(geometry.DomainMap([(0.01, NaNJacobian())]), domain, n=8)

    def test_empty_map_gives_zero_norms(self):
        prof = geometry.b_norms(geometry.DomainMap([]), make_domain())
        assert prof.b_norm_1 == 0.0

    def test_single_mode_scaling(self):
        # mode with ||B||_C1 = 1 and mu = 0.04 gives norms sqrt(0.04) = 0.2
        class UnitJac:
            def value(self, r):
                return [0.0] * 3

            def jac(self, r):
                return [[1.0 if i == j == 0 else 0.0 for j in range(3)] for i in range(3)]

            def jac_deriv(self, r):
                return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))

        dmap = geometry.DomainMap([(0.04, UnitJac())])
        prof = geometry.b_norms(dmap, make_domain(), n=8)
        assert abs(prof.b_norm_1 - 0.2) <= 1e-12
        assert abs(prof.b_norm_inf - 0.2) <= 1e-12

    def test_norm_ordering(self):
        domain = make_domain()
        dmap = cutoff_map(domain)
        p2 = geometry.b_norms(dmap, domain, p=2.0, n=16)
        p3 = geometry.b_norms(dmap, domain, p=3.0, n=16)
        assert p2.b_norm_inf <= p2.b_norm_1 + 1e-15
        assert p3.b_norm_p <= p2.b_norm_p + 1e-15

    def test_hoelder_inequality_sampled(self):
        domain = make_domain()
        dmap = cutoff_map(domain)
        prof = geometry.b_norms(dmap, domain, p=1.0, n=24)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 70, size=(100, 3))
        ys = rng.uniform(-1, 1, size=(100, 2))
        for r, y in zip(pts, ys):
            By = geometry.jacobian(dmap, r, y) - np.eye(3)
            lhs = np.linalg.norm(By, 2)
            dBy = sum(math.sqrt(mu) * y[k] * fld.jac_deriv(r)
                      for k, (mu, fld) in enumerate(dmap.modes))
            for i in range(3):
                lhs = max(lhs, np.linalg.norm(dBy[i], 2))
            assert lhs <= prof.b_norm_1 * np.max(np.abs(y)) + 1e-9


class TestDomainMapValidation:
    def test_mu_must_be_nonincreasing(self):
        domain = make_domain()
        fx, fy = (geometry.CutoffShift(k, domain.box_min, domain.box_max, 7.0) for k in (0, 1))
        with pytest.raises(DomainError):
            geometry.DomainMap([(1.0, fx), (2.0, fy)])

    def test_mu_must_be_nonnegative(self):
        domain = make_domain()
        fld = geometry.CutoffShift(0, domain.box_min, domain.box_max, 7.0)
        with pytest.raises(DomainError):
            geometry.DomainMap([(-0.5, fld)])

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_mu_must_be_finite(self, mu):
        # NaN passes both the sign and the order test, and inf turns the
        # operator's entries into NaN; either must fail when the map is made
        domain = make_domain()
        fld = geometry.CutoffShift(0, domain.box_min, domain.box_max, 7.0)
        with pytest.raises(DomainError, match="finite"):
            geometry.DomainMap([(mu, fld)])


class TestAssumptions:
    def test_translation_map_trivial(self):
        domain = make_domain()
        rep = geometry.check_assumptions(domain, geometry.DomainMap([]), [70, 70, 1],
                                         [0, 0, 0.5])
        assert rep.c2 == 1.0
        assert rep.c1 == 1.0

    def test_large_map_not_small(self):
        # the small-B hypothesis is BoundsInput's to check, not check_assumptions'
        domain = make_domain()
        prof = geometry.b_norms(cutoff_map(domain, scales=(0.3,)), domain, p=1.0, n=16)
        assert prof.b_norm_1 > 0.25
        with pytest.raises(HypothesisViolationError) as info:
            bounds.BoundsInput(b1=prof.b_norm_1, binf=prof.b_norm_inf, y0_inf=0.0, y_inf=0.0)
        assert info.value.violated == "b1" and "||B||_1 < 1/4" in str(info.value)

    def test_no_norm_sampling(self, monkeypatch):
        domain = make_domain()
        dmap = cutoff_map(domain, scales=(0.1, 0.1))
        calls = []
        for name in ("b_norms", "mode_c1_norm"):
            monkeypatch.setattr(geometry, name, lambda *a, name=name, **kw: calls.append(name))
        geometry.check_assumptions(domain, dmap, [1, 1, 1], [0, 0, 0])
        assert calls == []

    def test_cutoff_margin_sampled(self):
        # det J of the cutoff map departs from 1 only inside the 7 A margin;
        # the default sample grid must reach into it (about 0.868 there)
        domain = make_domain()
        rep = geometry.check_assumptions(domain, cutoff_map(domain, scales=(0.1, 0.1)),
                                         [1, 1, 1], [0, 0, 0])
        assert 0.0 < rep.c2 < 0.9

    def test_orientation_violation_rejected(self):
        class Collapse:
            def value(self, r):
                r = np.asarray(r, dtype=float)
                return [r[..., d] for d in range(3)]

            def jac(self, r):
                return [[-2.0 if i == j else 0.0 for j in range(3)] for i in range(3)]

            def jac_deriv(self, r):
                return np.zeros(np.asarray(r).shape[:-1] + (3, 3, 3))

        domain = make_domain()
        dmap = geometry.DomainMap([(1.0, Collapse())])
        with pytest.raises(MapOrientationError):
            geometry.check_assumptions(domain, dmap, [1, 1, 1], [0, 0, 0])

    def test_nan_det_rejected(self):
        # det J <= 0 is False for NaN, so a map whose det J is NaN must still
        # be rejected, not reported with c2 = nan
        class NaNField:
            def jac(self, r):
                B = [[0.0] * 3 for _ in range(3)]
                B[0][0] = np.full(r.shape[:-1], np.nan)
                return B

        dmap = geometry.DomainMap([(0.01, NaNField())])
        with pytest.raises(MapOrientationError, match=r"NaN .*\(min nan\)"):
            geometry.check_assumptions(make_domain(), dmap, [1, 1, 1], [0, 0, 0])

    def test_negative_eps_rejected(self):
        domain = make_domain()
        with pytest.raises(DomainError):
            geometry.check_assumptions(domain, geometry.DomainMap([]), [1, -1, 1], [0, 0, 0])

    def test_negative_kappa2_rejected(self):
        domain = make_domain()
        with pytest.raises(DomainError, match="kappa"):
            geometry.check_assumptions(domain, geometry.DomainMap([]), [1, 1, 1], [0, -0.5, 0])
