import math

import numpy as np
import pytest
from scipy.integrate import quad

from npbe_uq import bounds, geometry, pde
from npbe_uq.errors import HypothesisViolationError


def base_input(**kw):
    args = dict(b1=0.1, binf=0.1, y0_inf=1.0, y_inf=0.5)
    args.update(kw)
    return bounds.BoundsInput(**args)


def big_domain():
    return geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (15.0, 25.0))


def unit_domain():
    return geometry.ReferenceDomain([0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], (0.2, 0.35))


def scaled_cutoff_map(domain, scales, margin=7.0):
    modes = []
    for k, s in enumerate(scales):
        fld = geometry.CutoffShift(k, domain.box_min, domain.box_max, margin)
        c1 = geometry.mode_c1_norm(fld, domain, n=32)
        modes.append(((s / c1) ** 2, fld))
    return geometry.DomainMap(sorted(modes, key=lambda m: -m[0]))


class TestHypotheses:
    # the hypotheses are checked once, when the input is built
    def test_small_b_violation_named(self):
        with pytest.raises(HypothesisViolationError) as exc:
            base_input(b1=0.3)
        assert exc.value.violated == "small-b"

    def test_y_radius_violation_named(self):
        with pytest.raises(HypothesisViolationError) as exc:
            base_input(b1=0.2, y0_inf=1.0, y_inf=0.3)
        assert exc.value.violated == "y-radius"

    def test_admissible_passes(self):
        assert base_input().b1 == 0.1


class TestGaussianNorms:
    def test_against_quadrature(self):
        for q, s in ((1.0, 2.0), (-3.5, 1.3), (0.7, 4.0)):
            l2, grad = bounds.gaussian_xi_norms(q, s)

            def xi(r):
                return q * (2 * math.pi * s * s) ** -1.5 * math.exp(-0.5 * r * r / (s * s))

            val, _ = quad(lambda r: 4 * math.pi * r * r * xi(r) ** 2, 0, 30 * s)
            assert abs(l2 - math.sqrt(val)) <= 1e-10 * l2
            # each gradient component integrates to ||xi||^2 / (2 s^2)
            gval, _ = quad(
                lambda r: (4.0 / 3.0) * math.pi * r**4 * (xi(r) / (s * s)) ** 2, 0, 30 * s)
            assert abs(grad - math.sqrt(gval)) <= 1e-8 * grad


class TestPropABounds:
    def test_anchor_values(self):
        b = bounds.prop_a_bounds(base_input())
        assert abs(b.jinv_y0 - 1.0 / 0.6) <= 1e-14
        assert abs(b.jinv_y0_y - 2.5) <= 1e-14
        assert abs(b.absdet_y0 - 1.0 / 0.9**3) <= 1e-14
        assert abs(b.absdet_y0 - 1.37174) <= 1e-5
        assert abs(b.det_op_y0 - 4.0 / 0.9**3) <= 1e-13

    def test_zero_perturbation_vanishes(self):
        b = bounds.prop_a_bounds(base_input(y_inf=0.0))
        assert b.neumann_tail == 0.0
        assert b.det_ratio == 0.0

    def test_monotone_in_y(self):
        prev = None
        for y in np.linspace(0.0, 1.4, 100):
            b = bounds.prop_a_bounds(base_input(y_inf=float(y)))
            vals = list(b.as_dict().values())
            if prev is not None:
                assert all(v >= p - 1e-13 for v, p in zip(vals, prev))
            prev = vals

    def test_as_dict_has_eight_entries(self):
        assert len(bounds.prop_a_bounds(base_input()).as_dict()) == 8


class TestCoefficients:
    def test_a_coeff_anchor(self):
        got = bounds.a_coeff(base_input())
        assert abs(got - (1.0 / 0.4) ** 2 * 4.0 / 0.85**3) <= 1e-12
        assert abs(got - 40.7083) <= 1e-3

    def test_b_coeff_zero_at_y_zero(self):
        assert bounds.b_coeff(base_input(y_inf=0.0)) == 0.0

    def test_a_coeff_monotone(self):
        vals = [bounds.a_coeff(base_input(y_inf=float(y)))
                for y in np.linspace(0.0, 1.4, 50)]
        assert all(vals[i] <= vals[i + 1] + 1e-13 for i in range(len(vals) - 1))


class TestTermBounds:
    def test_nonlinear_vanishes_without_solution_perturbation(self):
        inp = base_input(kappa2_max=1.0, C_max=2.0, u0_norm=1.0, u_norm=0.0)
        assert bounds.nonlinear_term_bound(inp) == 0.0

    def test_nonlinear_vanishes_without_ions(self):
        inp = base_input(kappa2_max=0.0, C_max=2.0, u0_norm=1.0, u_norm=1.0)
        assert bounds.nonlinear_term_bound(inp) == 0.0

    def test_forcing_vanishes_without_charges(self):
        inp = base_input(N_f=0, xi_l2=1.0, xi_grad_l2=1.0, mu_max=1.0)
        assert bounds.forcing_term_bound(inp) == 0.0

    def test_forcing_vanishes_at_y_zero(self):
        inp = base_input(y_inf=0.0, N_f=3, xi_l2=1.0, xi_grad_l2=1.0, mu_max=1.0)
        assert bounds.forcing_term_bound(inp) == 0.0


class TestMEstimate:
    def test_zero_perturbation_gives_zero(self):
        inp = base_input(y_inf=0.0, u_norm=0.0, u0_norm=1.0, eps_max=70.0,
                         kappa2_max=1.0, C_max=2.0, N_f=3, xi_l2=1.0,
                         xi_grad_l2=1.0, mu_max=1.0)
        assert bounds.m_estimate(inp) == 0.0

    def test_desk_configuration_anchor(self):
        # frozen regression value from the first verified evaluation
        inp = bounds.BoundsInput(b1=0.05, binf=0.05, y0_inf=1.0, y_inf=0.1,
                                 eps_max=70.0, kappa2_max=1.0, C_max=2.0,
                                 u0_norm=1.0, u_norm=1.0, N_f=3,
                                 xi_l2=1.0, xi_grad_l2=1.0, mu_max=1.0)
        assert abs(bounds.m_estimate(inp) - 1100.28904877) <= 1e-6

    def test_monotone_along_rays(self):
        for field in ("y_inf", "u_norm", "u0_norm", "kappa2_max"):
            vals = []
            for t in np.linspace(0.0, 1.0, 30):
                kw = dict(eps_max=70.0, kappa2_max=1.0, C_max=2.0, u0_norm=1.0,
                          u_norm=0.5, N_f=3, xi_l2=1.0, xi_grad_l2=1.0,
                          mu_max=1.0, y_inf=0.5)
                kw[field] = float(t)
                vals.append(bounds.m_estimate(base_input(**kw)))
            assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))


class TestSamplingVerification:
    def test_translation_map_trivial(self):
        domain = big_domain()
        dmap = geometry.DomainMap([])
        inp = bounds.BoundsInput(b1=0.0, binf=0.0, y0_inf=1.0, y_inf=0.5)
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=50)
        assert rep.ok
        assert rep.max_slack["neumann_tail"] == 0.0

    def test_thousand_draws_no_violations(self):
        domain = big_domain()
        dmap = scaled_cutoff_map(domain, (0.1, 0.1))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        inp = bounds.BoundsInput(b1=prof.b_norm_1 * 1.02, binf=prof.b_norm_inf * 1.02,
                                 y0_inf=0.5, y_inf=0.5)
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=1000, seed=1)
        assert rep.trials == 1000
        assert rep.ok, rep.violations[:3]
        assert all(v <= 1.0 for v in rep.max_slack.values())

    def test_self_test_hook_detects(self):
        domain = big_domain()
        dmap = scaled_cutoff_map(domain, (0.1, 0.1))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        inp = bounds.BoundsInput(b1=prof.b_norm_1 * 1.02, binf=prof.b_norm_inf * 1.02,
                                 y0_inf=0.5, y_inf=0.5)
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=100,
                                               seed=1, bound_scale=0.1)
        assert not rep.ok
        assert len(rep.violations) > 0


def per_trial_report(dmap, domain, inp, trials, seed, bound_scale):
    """verify_bounds_by_sampling one trial at a time: the oracle of its batched form."""
    report = bounds.VerificationReport(trials=trials)
    N = dmap.n_modes
    rng = np.random.default_rng(seed)
    y_cap = 1.0 / (4.0 * inp.b1) - inp.y0_inf if inp.b1 > 0 else 1.0
    y_cap = min(y_cap * 0.999, inp.y_inf) if inp.y_inf > 0 else 0.0

    def record(trial, name, actual, bound):
        bound = bound * bound_scale
        ratio = actual / bound if bound > 0 else (0.0 if actual == 0.0 else math.inf)
        report.max_slack[name] = max(report.max_slack.get(name, 0.0), ratio)
        if actual > bound * (1.0 + 1e-12):
            report.violations.append((trial, name, actual, bound))

    for trial in range(trials):
        r = rng.uniform(domain.box_min, domain.box_max)
        y0 = rng.uniform(-inp.y0_inf, inp.y0_inf, size=N)
        y = rng.uniform(-y_cap, y_cap, size=N) if y_cap > 0 else np.zeros(N)
        b = bounds.prop_a_bounds(bounds.BoundsInput(
            b1=inp.b1, binf=inp.binf,
            y0_inf=float(np.max(np.abs(y0))) if N else 0.0,
            y_inf=float(np.max(np.abs(y))) if N else 0.0))
        J0 = geometry.jacobian(dmap, r, y0)
        J1 = geometry.jacobian(dmap, r, y0 + y)
        By = geometry.jacobian(dmap, r, y) - np.eye(3)
        inv0 = np.linalg.inv(J0)
        record(trial, "jinv_y0", float(np.linalg.norm(inv0, 2)), b.jinv_y0)
        record(trial, "jinv_y0_y", float(np.linalg.norm(np.linalg.inv(J1), 2)), b.jinv_y0_y)
        tail = np.linalg.inv(np.eye(3) + inv0 @ By) - np.eye(3)
        record(trial, "neumann_tail", float(np.linalg.norm(tail, 2)), b.neumann_tail)
        d0 = abs(geometry.det3(J0))
        d1 = abs(geometry.det3(J1))
        record(trial, "absdet_y0", float(d0), b.absdet_y0)
        record(trial, "absdet_y0_y", float(d1), b.absdet_y0_y)
        record(trial, "det_op_y0", float(d0), b.det_op_y0)
        record(trial, "det_op_y0_y", float(d1), b.det_op_y0_y)
        dr = abs(geometry.det3(np.eye(3) + inv0 @ By) - 1.0)
        record(trial, "det_ratio", float(dr), b.det_ratio)
    return report


class TestBatchedSampling:
    def cutoff_case(self):
        domain = big_domain()
        dmap = scaled_cutoff_map(domain, (0.1, 0.1))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        return domain, dmap, bounds.BoundsInput(b1=prof.b_norm_1 * 1.02,
                                                binf=prof.b_norm_inf * 1.02,
                                                y0_inf=0.5, y_inf=0.5)

    @pytest.mark.parametrize("seed, bound_scale", [(0, 1.0), (1, 1.0), (1, 0.1)])
    def test_report_equals_per_trial_loop(self, seed, bound_scale):
        domain, dmap, inp = self.cutoff_case()
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=300, seed=seed,
                                               bound_scale=bound_scale)
        ref = per_trial_report(dmap, domain, inp, 300, seed, bound_scale)
        assert rep.trials == ref.trials
        assert rep.violations == ref.violations
        assert rep.max_slack == ref.max_slack
        assert (len(rep.violations) > 0) == (bound_scale < 1.0)

    def test_identity_map_equals_per_trial_loop(self):
        domain = big_domain()
        inp = bounds.BoundsInput(b1=0.0, binf=0.0, y0_inf=1.0, y_inf=0.5)
        rep = bounds.verify_bounds_by_sampling(geometry.DomainMap([]), domain, inp, trials=50)
        ref = per_trial_report(geometry.DomainMap([]), domain, inp, 50, 0, 1.0)
        assert (rep.violations, rep.max_slack) == (ref.violations, ref.max_slack)

    def test_each_mode_field_evaluated_on_the_batch(self, monkeypatch):
        domain, dmap, inp = self.cutoff_case()
        calls = []
        for k, (_, fld) in enumerate(dmap.modes):
            monkeypatch.setattr(fld, "jac", lambda r, k=k, jac=fld.jac: calls.append(k) or jac(r))
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=1000)
        assert rep.trials == 1000
        assert all(calls.count(k) <= 3 for k in range(dmap.n_modes)), calls[:10]


class TestMonteCarloTermOracles:
    def test_forcing_difference_below_bound(self):
        # charge sits in the cutoff rolloff so the map actually moves it
        domain = big_domain()
        dmap = scaled_cutoff_map(domain, (0.15,))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        grid = pde.Grid3D(domain, 17)
        q, s = 1.0, 3.0
        xi_l2, xi_grad = bounds.gaussian_xi_norms(q, s)
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0],
                                     [pde.Charge([5.0, 35, 35], q, s)], 0.0)
        w = grid.node_weights()
        rng = np.random.default_rng(3)
        mu_max = math.sqrt(dmap.modes[0][0])
        for _ in range(100):
            y0 = rng.uniform(-0.5, 0.5, size=1)
            dy = rng.uniform(-0.3, 0.3, size=1)
            r0 = pde.assemble_rhs(domain, dmap, coeffs, y0, grid)
            r1 = pde.assemble_rhs(domain, dmap, coeffs, y0 + dy, grid)
            diff = math.sqrt(float(w @ (r1.flat - r0.flat) ** 2))
            inp = bounds.BoundsInput(b1=prof.b_norm_1, binf=prof.b_norm_inf,
                                     y0_inf=float(abs(y0[0])), y_inf=float(abs(dy[0])),
                                     N_f=1, xi_l2=xi_l2, xi_grad_l2=xi_grad,
                                     mu_max=mu_max)
            assert diff <= bounds.forcing_term_bound(inp) + 1e-14

    def test_nonlinear_difference_below_bound(self):
        # unit-volume domain so the L2-versus-sup constants stay honest
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        kap = 0.8
        rng = np.random.default_rng(4)
        mesh = grid.axes
        w = grid.node_weights()

        def smooth(scale):
            vals = np.zeros(grid.shape)
            for _ in range(3):
                k = rng.integers(1, 4, size=3)
                vals += rng.standard_normal() * np.multiply.outer(
                    np.sin(math.pi * k[0] * mesh[0]),
                    np.multiply.outer(np.sin(math.pi * k[1] * mesh[1]),
                                      np.sin(math.pi * k[2] * mesh[2])))
            f = pde.GridField(grid, vals)
            n = bounds.h_norm(f)
            return pde.GridField(grid, vals / n * scale), scale

        for _ in range(100):
            u0, n0 = smooth(rng.uniform(0.2, 1.0))
            du, nu = smooth(rng.uniform(0.1, 0.5))
            mid = pde.GridField(grid, u0.values + 0.5 * du.values)
            c_wit = max(np.max(np.abs(f.values)) / bounds.h_norm(f)
                        for f in (u0, du, mid))
            diff = math.sqrt(float(
                w @ (kap * (np.sinh(u0.flat + du.flat) - np.sinh(u0.flat))) ** 2))
            inp = bounds.BoundsInput(b1=0.0, binf=0.0, y0_inf=0.0, y_inf=0.0,
                                     kappa2_max=kap, C_max=c_wit,
                                     u0_norm=n0, u_norm=nu)
            assert diff <= bounds.nonlinear_term_bound(inp)


class TestDiscreteNormHelpers:
    def test_h_norm_of_constant(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        u = pde.GridField(grid, np.ones(grid.shape))
        # constant field: only the L2 part survives, volume is 1
        assert abs(bounds.h_norm(u) - 1.0) <= 1e-12

    def test_h_norm_scales_linearly(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(grid.shape)
        n1 = bounds.h_norm(pde.GridField(grid, vals))
        n3 = bounds.h_norm(pde.GridField(grid, 3.0 * vals))
        assert abs(n3 - 3.0 * n1) <= 1e-10 * n1

    def test_estimate_c_max_positive(self):
        domain = unit_domain()
        grid = pde.Grid3D(domain, 9)
        c = bounds.estimate_c_max(grid, trials=8, seed=0)
        assert c > 0.0
