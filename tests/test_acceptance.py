"""Acceptance gate: one pass/fail line per criterion.

Every test prints "<criterion>: PASS" on success; a failing assertion makes
pytest report the criterion name in the failure line.
"""

import itertools
import math
import time

import mpmath
import numpy as np

from npbe_uq import bounds, geometry, harness, pde, region, smolyak
from conftest import linear_solve, polynomial_index_set


def report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def study_config(**kw):
    base = dict(
        charges_inline=[[30.0, 35.0, 35.0, 1.0],
                        [40.0, 35.0, 35.0, -0.5],
                        [35.0, 30.0, 35.0, 0.7]],
        alpha=(3.0, 3.0),
        charge_width=2.0,
    )
    base.update(kw)
    return harness.RunConfig(**base)


class TestAcceptance:
    def test_convergence_study(self):
        t0 = time.perf_counter()
        result = harness.run_study(study_config())
        elapsed = time.perf_counter() - t0
        errs = [r.error for r in result.records]
        fit = harness.fit_rate(result.records)
        ok = (elapsed < 600.0
              and [r.w for r in result.records] == [1, 2, 3, 4]
              and all(e > 0 for e in errs)
              and all(a > b for a, b in zip(errs, errs[1:]))
              and fit.slope < -0.5
              and fit.r_squared >= 0.9)
        report("sparse-grid convergence study", ok)

    def test_preconditioner_quality(self, monkeypatch):
        # the counts repeat exactly, so a hierarchy that weakens the V-cycle
        # fails here instead of only running slower
        knots = []
        newton = pde.newton_solve_npbe

        def counting_newton(*args, **kwargs):
            u, info = newton(*args, **kwargs)
            knots.append(info.cg_iterations)
            return u, info

        monkeypatch.setattr(pde, "newton_solve_npbe", counting_newton)
        result = harness.run_study(study_config())
        report("preconditioner quality: adjoint 18 CG, 13 knots of 1 Newton step x 6 CG",
               result.adjoint_cg.iterations == 18 and result.knot_solves == 13
               and knots == [[6]] * 13)

    def test_manufactured_solution_order(self):
        t0 = time.perf_counter()
        domain = geometry.ReferenceDomain([0, 0, 0], [1, 1, 1],
                                          [0.5, 0.5, 0.5], (0.2, 0.35))
        dmap = geometry.DomainMap([])
        coeffs = pde.PBECoefficients(np.ones(3), np.zeros(3), [], 0.0)
        errs = []
        for n in (17, 33, 65):
            grid = pde.Grid3D(domain, n)
            exact = np.prod(np.sin(math.pi * np.asarray(grid.interior)), axis=-1).ravel()
            op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, None, grid)
            rhs = pde.GridField(grid, 3.0 * math.pi**2 * exact)
            u, _ = linear_solve(op, None, rhs, tol=1e-11)
            # exact is 0 on the boundary, where u is 0 too
            errs.append(math.sqrt(pde.qoi_integral(pde.GridField(grid, (u.flat - exact) ** 2))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        elapsed = time.perf_counter() - t0
        report("manufactured-solution L2 order",
               min(orders) >= 1.8 and elapsed < 120.0)

    def test_newton_behavior(self):
        domain = geometry.ReferenceDomain([0, 0, 0], [70, 70, 70],
                                          [35, 35, 35], (15.0, 25.0))
        dmap = geometry.DomainMap([])
        grid = pde.Grid3D(domain, 17)
        charge = pde.Charge([35, 35, 35], 5000.0, 4.0)
        strong = pde.PBECoefficients(np.full(3, 2.0), np.full(3, 0.5), [charge], 0.0)
        _, info = pde.newton_solve_npbe(domain, dmap, strong, None, grid)
        hist = info.residual_history
        quad_ok, checked = True, 0
        for rk, rk1 in zip(hist, hist[1:]):
            if rk <= 1e-2:
                quad_ok = quad_ok and rk1 <= 1.0 * rk * rk
                checked += 1

        linear = pde.PBECoefficients(np.full(3, 2.0), np.zeros(3), [charge], 0.0)
        u, li = pde.newton_solve_npbe(domain, dmap, linear, None, grid)
        op = pde.assemble_pulled_back_operator(domain, dmap, linear, None, grid)
        rhs = pde.assemble_rhs(domain, dmap, linear, None, grid)
        ulin, _ = linear_solve(op, None, rhs, tol=1e-12)
        rel = (np.max(np.abs(u.values - ulin.values))
               / max(1e-30, float(np.max(np.abs(ulin.values)))))
        report("newton quadratic decay and linear one-step",
               quad_ok and checked >= 1 and li.iterations == 1 and rel <= 1e-6)

    def test_sparse_grid_exactness(self):
        rng = np.random.default_rng(0)
        ok = True
        for N in (1, 2, 3):
            pts = rng.uniform(-1, 1, size=(20, N))
            for w in range(5):
                plan = smolyak.build_plan("SM", w, N)
                for p in sorted(polynomial_index_set("SM", w, N)):
                    store = smolyak.evaluate_plan(
                        plan, lambda y, p=p: float(np.prod(np.asarray(y) ** p)))
                    got = smolyak.interpolate(plan, store, pts)
                    ok = ok and np.max(np.abs(got - np.prod(pts**p, axis=-1))) <= 1e-10

        def brute(rule, w, N):
            pts = set()
            for i in smolyak.index_set(rule, w, N):
                grids = [smolyak.cc_nodes(smolyak.growth(ik)) for ik in i]
                for combo in itertools.product(*grids):
                    pts.add(tuple(round(c, 12) for c in combo))
            return len(pts)

        counts = all(smolyak.build_plan(r, w, N).n_knots == brute(r, w, N)
                     for r in smolyak.RULES for N in (1, 2, 3) for w in range(5))
        five = smolyak.build_plan("SM", 1, 2).n_knots == 5
        nest = all(set(smolyak.build_plan("SM", w, N).knots)
                   <= set(smolyak.build_plan("SM", w + 1, N).knots)
                   for N in (1, 2, 3) for w in range(4))
        report("sparse-grid exactness suite", ok and counts and five and nest)

    def test_quadrature_second_moment(self):
        ok = True
        for rule in smolyak.RULES:
            for N, w in ((1, 2), (1, 4), (2, 2), (2, 4), (3, 3)):
                plan = smolyak.build_plan(rule, w, N)
                if max(smolyak.growth(i[0]) for i, _ in plan.terms) < 3:
                    continue
                store = smolyak.evaluate_plan(plan, lambda y: y[0] ** 2)
                ok = ok and abs(smolyak.integrate(plan, store) - 1.0 / 3.0) <= 1e-12
        report("quadrature second moment", ok)

    def test_error_bound_consistency(self):
        sigma_star = 2.0  # the pole of nu sits at cosh(sigma) = 4
        rng = np.random.default_rng(7)
        ok = True
        for N in (1, 2, 3):
            def nu(y):
                return 1.0 / (2.0 + 0.5 * np.sum(np.asarray(y), axis=-1) / N)

            m_tilde = region.m_tilde(lambda z: nu(z), sigma_star, N, samples=16)
            pts = rng.uniform(-1, 1, size=(10000, N))
            exact = nu(pts)
            for w in range(1, 6):
                plan = smolyak.build_plan("SM", w, N)
                store = smolyak.evaluate_plan(plan, lambda y: float(nu(y)))
                err = float(np.max(np.abs(smolyak.interpolate(plan, store, pts) - exact)))
                eb = region.error_bound(sigma_star, N, m_tilde, w, plan.n_knots)
                expect = "subexponential" if w > N / math.log(2.0) else "algebraic"
                ok = ok and err <= eb.bound and eb.regime == expect
        report("sparse-grid error bound consistency", ok)

    def test_closed_form_anchors(self):
        with mpmath.workdps(60):
            M = a = R = mpmath.mpf(1)
            s = mpmath.sqrt(a * M * R**2 * (a * M + R))
            th_hp = float(((a * M * R - s) * (a * M * R + R**2 - s))
                          / (2 * a**2 * M**2 * R - R * s + a * M * (2 * R**2 - 3 * s)))
            xi_hp = float((a * M * R + R**2 - s) / (a * M + R))
        anchors = (abs(region.theta(1, 1, 1) - th_hp) <= 1e-12
                   and abs(region.xi(1, 1, 1) - xi_hp) <= 1e-12
                   and abs(th_hp - 0.146447) <= 1e-6
                   and abs(xi_hp - 0.292893) <= 1e-6
                   and region.sigma_star(0.0) == 0.0)
        contain = True
        for M, a, R in ((1.0, 1.0, 1.0), (2.0, 0.5, 3.0), (0.3, 4.0, 1.5)):
            est = region.region_estimate(M, a, R)
            z = region.polyellipse_boundary(est.sigma_star, 10000)
            dist = np.abs(z - np.clip(z.real, -1.0, 1.0))  # distance to [-1, 1]
            contain = contain and float(np.max(dist)) <= est.theta + 1e-12
        report("analyticity-region closed forms", anchors and contain)

    def test_jacobian_bound_sampling(self, monkeypatch):
        domain = geometry.ReferenceDomain([0, 0, 0], [70, 70, 70],
                                          [35, 35, 35], (15.0, 25.0))
        margin = 7.0
        modes = []
        for k, scale in enumerate((0.1, 0.1)):
            fld = geometry.CutoffShift(k, domain.box_min, domain.box_max, margin)
            c1 = geometry.mode_c1_norm(fld, domain, n=24)
            modes.append(((scale / c1) ** 2, fld))
        dmap = geometry.DomainMap(sorted(modes, key=lambda m: -m[0]))
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        inp = bounds.BoundsInput(b1=1.02 * prof.b_norm_1, binf=1.02 * prof.b_norm_inf,
                                 y0_inf=0.5, y_inf=0.5)
        clean = bounds.verify_bounds_by_sampling(dmap, domain, inp,
                                                 trials=1000, seed=0)
        # the same draws against bounds shrunk tenfold must show violations
        closed_form = bounds.prop_a_bounds
        monkeypatch.setattr(bounds, "prop_a_bounds", lambda sub: bounds.PropABounds(
            **{k: 0.1 * v for k, v in closed_form(sub).as_dict().items()}))
        hooked = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=1000, seed=0)
        report("jacobian bound verification",
               clean.ok and clean.trials == 1000 and not hooked.ok)

    def test_determinism(self):
        config = study_config(grid_n=17, levels=(1, 2), reference_level=3)
        a = harness.run_study(config).csv_text
        b = harness.run_study(config).csv_text
        report("bit-identical study csv", a == b)
