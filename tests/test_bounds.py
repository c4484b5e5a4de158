import math

import numpy as np
import pytest
from scipy.integrate import quad

from npbe_uq import bounds, geometry, pde
from npbe_uq.errors import DomainError, HypothesisViolationError
from conftest import map_forward


def base_input(**kw):
    args = dict(b1=0.1, binf=0.1, y0_inf=1.0, y_inf=0.5)
    args.update(kw)
    return bounds.BoundsInput(**args)


def big_domain():
    return geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], [35, 35, 35], (15.0, 25.0))


def unit_domain():
    return geometry.ReferenceDomain([0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], (0.2, 0.35))


def gaussian_norms_by_quadrature(q, s):
    """(||xi||_L2, ||d xi / d x_j||_L2) of xi = q (2 pi s^2)^(-3/2) exp(-|x|^2 / (2 s^2))."""
    def xi(r):
        return q * (2 * math.pi * s * s) ** -1.5 * math.exp(-0.5 * r * r / (s * s))

    val, _ = quad(lambda r: 4 * math.pi * r * r * xi(r) ** 2, 0, 30 * s)
    # each gradient component integrates to a third of |grad xi|^2 = (r xi / s^2)^2
    gval, _ = quad(lambda r: (4.0 / 3.0) * math.pi * r**4 * (xi(r) / (s * s)) ** 2, 0, 30 * s)
    return math.sqrt(val), math.sqrt(gval)


def shrink_bounds(monkeypatch, factor):
    """Scale each of the eight closed-form bounds by factor where the sampling reads them."""
    closed_form = bounds.prop_a_bounds
    monkeypatch.setattr(bounds, "prop_a_bounds", lambda inp: bounds.PropABounds(
        **{k: v * factor for k, v in closed_form(inp).as_dict().items()}))


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
        assert exc.value.violated == "b1" and "||B||_1 < 1/4" in str(exc.value)

    def test_y_radius_violation_named(self):
        with pytest.raises(HypothesisViolationError) as exc:
            base_input(b1=0.2, y0_inf=1.0, y_inf=0.3)
        assert exc.value.violated == "y_inf" and "|y|_inf < 1/(4||B||_1)" in str(exc.value)

    def test_admissible_passes(self):
        assert base_input().b1 == 0.1
        assert base_input(b1=0.0, y_inf=0.0).y_inf == 0.0

    @pytest.mark.parametrize("name,value", [
        *((name, -1) for name in bounds.BoundsInput.__dataclass_fields__ if name != "C_max"),
        ("C_max", 0.0), ("C_max", math.nan)])
    def test_out_of_range_field_named(self, name, value):
        with pytest.raises(HypothesisViolationError) as exc:
            base_input(**{name: value})
        assert exc.value.violated == name and repr(name) in str(exc.value)


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

    def test_nonlinear_overflow_is_inf_and_zero_factors_stay_zero(self):
        # cosh and sinh overflow past ~710: the bound is +inf, but a zero
        # factor (u_norm, kappa2_max, or ratio3 - 1 at y_inf = 0) never makes it nan
        for kw, expect in ((dict(kappa2_max=1.0, u_norm=800.0), math.inf),
                           (dict(kappa2_max=1.0, u_norm=800.0, y_inf=0.0), math.inf),
                           (dict(kappa2_max=1.0, u0_norm=800.0, u_norm=0.0), 0.0),
                           (dict(kappa2_max=0.0, u_norm=800.0), 0.0)):
            assert bounds.nonlinear_term_bound(base_input(**kw)) == expect, kw

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

    def test_nan_field_raises_before_the_svd(self):
        # numpy's SVD of a NaN matrix raises an untyped LinAlgError
        class NaNField:
            def jac(self, r):
                B = [[0.0] * 3 for _ in range(3)]
                B[0][0] = np.full(r.shape[:-1], np.nan)
                return B

        dmap = geometry.DomainMap([(0.01, NaNField())])
        with pytest.raises(DomainError, match="verify_bounds_by_sampling"):
            bounds.verify_bounds_by_sampling(dmap, big_domain(), base_input(), trials=20)

    @pytest.mark.parametrize("trials", [-1, 0])
    def test_no_trials_rejected(self, trials):
        # -1 raised an untyped numpy error, and 0 gave a report that checked nothing
        with pytest.raises(DomainError, match=f"trials must be >= 1, got {trials}") as exc:
            bounds.verify_bounds_by_sampling(geometry.DomainMap([]), big_domain(), base_input(),
                                             trials=trials)
        assert exc.value.violated == "trials"

    def test_self_test_hook_detects(self, monkeypatch):
        # bounds shrunk tenfold must be violated
        domain = big_domain()
        dmap = scaled_cutoff_map(domain, (0.1, 0.1))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        inp = bounds.BoundsInput(b1=prof.b_norm_1 * 1.02, binf=prof.b_norm_inf * 1.02,
                                 y0_inf=0.5, y_inf=0.5)
        shrink_bounds(monkeypatch, 0.1)
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=100, seed=1)
        assert not rep.ok
        assert len(rep.violations) > 0


def per_trial_report(dmap, domain, inp, trials, seed):
    """verify_bounds_by_sampling one trial at a time: the oracle of its batched form."""
    report = bounds.VerificationReport(trials=trials)
    N = dmap.n_modes
    rng = np.random.default_rng(seed)
    y_cap = 1.0 / (4.0 * inp.b1) - inp.y0_inf if inp.b1 > 0 else 1.0
    y_cap = min(y_cap * 0.999, inp.y_inf) if inp.y_inf > 0 else 0.0

    def record(trial, name, actual, bound):
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

    @pytest.mark.parametrize("seed, shrink", [(0, 1.0), (1, 1.0), (1, 0.1)])
    def test_report_equals_per_trial_loop(self, seed, shrink, monkeypatch):
        domain, dmap, inp = self.cutoff_case()
        if shrink < 1.0:
            shrink_bounds(monkeypatch, shrink)
        rep = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=300, seed=seed)
        ref = per_trial_report(dmap, domain, inp, 300, seed)
        assert rep.trials == ref.trials
        assert rep.violations == ref.violations
        assert rep.max_slack == ref.max_slack
        assert (len(rep.violations) > 0) == (shrink < 1.0)

    def test_identity_map_equals_per_trial_loop(self):
        domain = big_domain()
        inp = bounds.BoundsInput(b1=0.0, binf=0.0, y0_inf=1.0, y_inf=0.5)
        rep = bounds.verify_bounds_by_sampling(geometry.DomainMap([]), domain, inp, trials=50)
        ref = per_trial_report(geometry.DomainMap([]), domain, inp, 50, 0)
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
        xi_l2, xi_grad = gaussian_norms_by_quadrature(q, s)
        charge = pde.Charge([5.0, 35, 35], q, s)
        coeffs = pde.PBECoefficients([1, 1, 1], [0, 0, 0], [charge], 0.0)
        # the trapezoid rule over the whole grid: h per axis, halved at the ends
        w1 = np.full(grid.shape[0], grid.h)
        w1[[0, -1]] *= 0.5
        w = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
        points = np.asarray(geometry.Lattice(grid.axes)).reshape(-1, 3)
        rng = np.random.default_rng(3)
        mu_max = math.sqrt(dmap.modes[0][0])

        def forcing(y):
            # f*(x; y) det J(x; y) at every node: the charge is 5 A from a face,
            # so the boundary layer carries part of the difference
            offset = (map_forward(dmap, points, y)
                      - map_forward(dmap, charge.position, y))
            f = (geometry.det3(geometry.jacobian(dmap, points, y))
                 * q * (2.0 * math.pi * s * s) ** -1.5
                 * np.exp(-0.5 * np.sum(offset**2, axis=-1) / (s * s)))
            # the solver's forcing is f on the interior nodes
            inner = f.reshape(grid.shape)[1:-1, 1:-1, 1:-1]
            rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
            assert np.max(np.abs(rhs.values - inner)) <= 1e-14 * np.max(np.abs(f))
            return f

        for _ in range(100):
            y0 = rng.uniform(-0.5, 0.5, size=1)
            dy = rng.uniform(-0.3, 0.3, size=1)
            diff = math.sqrt(float(w @ (forcing(y0 + dy) - forcing(y0)) ** 2))
            inp = bounds.BoundsInput(b1=prof.b_norm_1, binf=prof.b_norm_inf,
                                     y0_inf=float(abs(y0[0])), y_inf=float(abs(dy[0])),
                                     N_f=1, xi_l2=xi_l2, xi_grad_l2=xi_grad,
                                     mu_max=mu_max)
            assert diff <= bounds.forcing_term_bound(inp) + 1e-14

    def test_nonlinear_difference_below_bound(self):
        # unit-volume domain, so sup norms with C_max = 1 bound the L2 difference
        domain = unit_domain()
        grid = pde.Grid3D(domain, 17)
        kap = 0.8
        rng = np.random.default_rng(4)
        # sin(pi k x) vanishes on the boundary, so the interior nodes carry the norm
        mesh = grid.interior.axes
        w = grid.h**3

        def smooth(scale):
            vals = np.zeros((15, 15, 15))
            for _ in range(3):
                k = rng.integers(1, 4, size=3)
                vals += rng.standard_normal() * np.multiply.outer(
                    np.sin(math.pi * k[0] * mesh[0]),
                    np.multiply.outer(np.sin(math.pi * k[1] * mesh[1]),
                                      np.sin(math.pi * k[2] * mesh[2])))
            return vals / np.max(np.abs(vals)) * scale, scale  # sup norm = scale

        for _ in range(100):
            u0, n0 = smooth(rng.uniform(0.2, 1.0))
            du, nu = smooth(rng.uniform(0.1, 0.5))
            diff = math.sqrt(w * float(np.sum((kap * (np.sinh(u0 + du) - np.sinh(u0))) ** 2)))
            inp = bounds.BoundsInput(b1=0.0, binf=0.0, y0_inf=0.0, y_inf=0.0,
                                     kappa2_max=kap, C_max=1.0,
                                     u0_norm=n0, u_norm=nu)
            assert diff <= bounds.nonlinear_term_bound(inp)

