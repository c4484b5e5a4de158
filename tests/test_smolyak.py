import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from npbe_uq import smolyak
from npbe_uq.errors import DomainError, IncompleteStoreError
from conftest import f_degree, polynomial_index_set


def moment_solve_weights(m):
    """Uniform-density weights from the Vandermonde moment system in 60 digits."""
    x = smolyak.cc_nodes(m)
    with mpmath.workdps(60):
        V = mpmath.matrix(m, m)
        rhs = mpmath.matrix(m, 1)
        for k in range(m):
            for j in range(m):
                V[k, j] = mpmath.mpf(x[j]) ** k
            rhs[k] = mpmath.mpf(1) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)
        w = mpmath.lu_solve(V, rhs)
    return np.array([float(wi) for wi in w])


def brute_force_knots(rule, w, N):
    """Union of admissible tensor grids with float dedup, for cross-checking."""
    pts = set()
    for i in smolyak.index_set(rule, w, N):
        grids = [smolyak.cc_nodes(smolyak.growth(ik)) for ik in i]
        for combo in itertools.product(*grids):
            pts.add(tuple(round(c, 12) for c in combo))
    return pts


def corner_scan_terms(rule, w, N):
    """Combination coefficients by the 2^N-corner scan of every index."""
    levels = set(smolyak.index_set(rule, w, N))
    terms = []
    for i in sorted(levels):
        coeff = sum((-1) ** sum(e) for e in itertools.product((0, 1), repeat=N)
                    if tuple(ik + ek for ik, ek in zip(i, e)) in levels)
        if coeff != 0:
            terms.append((i, coeff))
    return tuple(terms)


def probe_index_set(rule, w, N):
    """Index sets by re-testing each padded prefix against the rule, then sorting."""
    def admissible(i):
        p = [smolyak.growth(ik) - 1 for ik in i]
        return {"SM": sum(ik - 1 for ik in i) <= w, "TD": sum(p) <= w,
                "HC": math.prod(pk + 1 for pk in p) <= w + 1}[rule]

    out = []

    def rec(prefix):
        if len(prefix) == N:
            out.append(tuple(prefix))
            return
        i = 1
        while admissible(tuple(prefix) + (i,) + (1,) * (N - len(prefix) - 1)):
            rec(prefix + [i])
            i += 1

    rec([])
    return sorted(out)


def term_values(values, i):
    """A term's tensor of knot values, looked up point by point."""
    ms = [smolyak.growth(ik) for ik in i]
    vals = np.empty(ms)
    keys = itertools.product(*[smolyak.node_keys(m) for m in ms])
    for idx, key in zip(itertools.product(*[range(m) for m in ms]), keys):
        vals[idx] = values[key]
    return vals


def per_point_integrate(plan, values):
    total = 0.0
    for i, coeff in plan.terms:
        acc = term_values(values, i)
        for ik in i:
            acc = np.tensordot(smolyak._quadrature_weights(smolyak.growth(ik)), acc,
                               axes=(0, 0))
        total += coeff * float(acc)
    return total


def per_point_interpolate(plan, values, pts):
    dtype = complex if np.iscomplexobj(pts) else float
    total = np.zeros(pts.shape[0], dtype=dtype)
    for i, coeff in plan.terms:
        vals = term_values(values, i).astype(dtype)
        acc = np.broadcast_to(vals, (pts.shape[0],) + vals.shape)
        for n, ik in enumerate(i):
            L = smolyak.lagrange_eval_matrix(smolyak.growth(ik), pts[:, n].astype(dtype))
            acc = np.einsum("qm...,qm->q...", acc, L)
        total += coeff * acc
    return total


class TestGrowthAndDegrees:
    def test_growth_values(self):
        assert [smolyak.growth(i) for i in range(6)] == [0, 1, 3, 5, 9, 17]

    def test_growth_negative_rejected(self):
        with pytest.raises(DomainError):
            smolyak.growth(-1)

    def test_f_degree_table(self):
        assert [f_degree(p) for p in range(6)] == [0, 1, 1, 2, 2, 3]


class TestNodes:
    def test_m1_is_origin(self):
        assert np.array_equal(smolyak.cc_nodes(1), [0.0])

    def test_m3(self):
        assert np.allclose(smolyak.cc_nodes(3), [-1.0, 0.0, 1.0], atol=0)

    def test_m5(self):
        s = math.sqrt(2.0) / 2.0
        assert np.allclose(smolyak.cc_nodes(5), [-1.0, -s, 0.0, s, 1.0], atol=1e-15)

    def test_even_m_rejected(self):
        with pytest.raises(DomainError):
            smolyak.cc_nodes(4)

    def test_non_dyadic_count_rejected(self):
        # the keys j / 6 of 7 nodes are not exact as floats
        with pytest.raises(DomainError):
            smolyak.node_keys(7)

    def test_keys_are_exact_dyadic_floats(self):
        for i in range(1, 13):
            m = smolyak.growth(i)
            exact = [Fraction(1, 2)] if m == 1 else [Fraction(j, m - 1) for j in range(m)]
            keys = smolyak.node_keys(m)
            assert all(type(k) is float for k in keys)
            assert list(keys) == exact
            assert [hash(k) for k in keys] == [hash(f) for f in exact]

    def test_keys_are_exactly_nested(self):
        for m_small, m_big in ((1, 3), (3, 5), (5, 9), (9, 17)):
            assert set(smolyak.node_keys(m_small)) <= set(smolyak.node_keys(m_big))


class TestIndexSets:
    def test_1d_w2(self):
        assert smolyak.index_set("SM", 2, 1) == [(1,), (2,), (3,)]
        degs = polynomial_index_set("SM", 2, 1)
        assert max(p[0] for p in degs) == smolyak.growth(3) - 1 == 4

    def test_2d_w0_single(self):
        assert smolyak.index_set("SM", 0, 2) == [(1, 1)]

    def test_poly_set_matches_f_table(self):
        for N in (1, 2, 3):
            for w in range(5):
                got = polynomial_index_set("SM", w, N)
                expect = {p for p in itertools.product(range(17), repeat=N)
                          if sum(f_degree(pn) for pn in p) <= w}
                assert got == expect

    def test_td_and_hc_sets(self):
        # exactness sets are unions of tensor degree boxes over admissible levels
        td = polynomial_index_set("TD", 2, 2)
        assert (2, 0) in td and (0, 2) in td and (1, 1) not in td
        hc = polynomial_index_set("HC", 4, 2)
        assert (4, 0) in hc and (1, 1) not in hc and (2, 2) not in hc

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            smolyak.index_set("XX", 1, 1)

    def test_unknown_rule_named(self):
        # the message lists the rules, and violated names the rejected input
        listed = r"unknown rule 'XX', not one of \('SM', 'TD', 'HC'\)$"
        with pytest.raises(DomainError, match=listed) as exc:
            smolyak.index_set("XX", 1, 1)
        assert exc.value.violated == "rule"

    @pytest.mark.parametrize("rule", smolyak.RULES)
    def test_budget_walk_matches_probe_recursion(self, rule):
        for N in range(1, 7):
            for w in range(7):
                assert smolyak.index_set(rule, w, N) == probe_index_set(rule, w, N)


class TestPlans:
    def test_2d_w1_cross(self):
        plan = smolyak.build_plan("SM", 1, 2)
        got = {tuple(v) for v in np.round(plan.knot_values, 12)}
        assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}

    def test_1d_collapse_to_cc(self):
        plan = smolyak.build_plan("SM", 2, 1)
        assert np.allclose(plan.knot_values.ravel(), smolyak.cc_nodes(5), atol=0)

    def test_3d_w0_origin(self):
        plan = smolyak.build_plan("SM", 0, 3)
        assert plan.n_knots == 1
        assert np.array_equal(plan.knot_values, [[0.0, 0.0, 0.0]])

    def test_knot_counts_2d(self):
        counts = [smolyak.build_plan("SM", w, 2).n_knots for w in range(7)]
        assert counts == [1, 5, 13, 29, 65, 145, 321]

    def test_counts_match_brute_force(self):
        for rule in smolyak.RULES:
            for N in (1, 2, 3):
                for w in range(5):
                    plan = smolyak.build_plan(rule, w, N)
                    assert plan.n_knots == len(brute_force_knots(rule, w, N))

    def test_nesting_exact(self):
        for N in (1, 2, 3):
            for w in range(4):
                lo = set(smolyak.build_plan("SM", w, N).knots)
                hi = set(smolyak.build_plan("SM", w + 1, N).knots)
                assert lo <= hi

    @pytest.mark.parametrize("rule", smolyak.RULES)
    def test_coefficients_match_corner_scan(self, rule):
        for N in range(1, 6):
            for w in range(6):
                assert smolyak.build_plan(rule, w, N).terms == corner_scan_terms(rule, w, N)

    def test_sm_coefficients_closed_form(self):
        N, w = 8, 3
        terms = smolyak.build_plan("SM", w, N).terms
        # w - |i - 1| <= w < N, so every index of L has a nonzero coefficient
        expect = [(i, (-1) ** (w - sum(i) + N) * math.comb(N - 1, w - sum(i) + N))
                  for i in smolyak.index_set("SM", w, N)]
        assert list(terms) == expect and len(terms) == math.comb(N + w, w)

    def test_term_knots_index_the_tensor_points(self):
        plan = smolyak.build_plan("HC", 5, 2)
        for (i, _), rows in zip(plan.terms, plan.term_knots):
            assert rows.shape == tuple(smolyak.growth(ik) for ik in i)
            keys = itertools.product(*[smolyak.node_keys(smolyak.growth(ik)) for ik in i])
            assert [plan.knots[r] for r in rows.ravel()] == list(keys)

    def test_combination_coefficients_sum_to_one(self):
        for rule in smolyak.RULES:
            for N in (1, 2, 3):
                for w in range(5):
                    plan = smolyak.build_plan(rule, w, N)
                    assert sum(c for _, c in plan.terms) == 1


class TestInterpolation:
    def test_collocation_property(self):
        rng = np.random.default_rng(0)
        for N, w in ((1, 3), (2, 2), (3, 1)):
            plan = smolyak.build_plan("SM", w, N)
            vals = rng.standard_normal(plan.n_knots)
            store = {key: float(v) for key, v in zip(plan.knots, vals)}
            got = smolyak.interpolate(plan, store, plan.knot_values)
            assert np.max(np.abs(got - vals) / np.maximum(1e-30, np.abs(vals))) <= 1e-12

    def test_missing_knot_raises(self):
        plan = smolyak.build_plan("SM", 1, 2)
        store = {plan.knots[0]: 1.0, plan.knots[2]: 1.0}
        named = re.escape(f"knot {plan.knots[1]} has not been evaluated")
        with pytest.raises(IncompleteStoreError, match=named):
            smolyak.interpolate(plan, store, np.array([0.3, 0.3]))
        with pytest.raises(IncompleteStoreError, match=named):
            smolyak.integrate(plan, store)

    @pytest.mark.parametrize("rule", smolyak.RULES)
    @pytest.mark.parametrize("N", [2, 3])
    def test_readers_match_per_point_lookup_bits(self, rule, N):
        rng = np.random.default_rng(5)
        for w in range(5):
            plan = smolyak.build_plan(rule, w, N)
            vals = rng.standard_normal(plan.n_knots)
            store = {key: float(v) for key, v in zip(plan.knots, vals)}
            assert smolyak.integrate(plan, store) == per_point_integrate(plan, store)
            pts = rng.uniform(-1, 1, size=(9, N))
            for y in (pts, pts + 0.2j * rng.uniform(-1, 1, size=pts.shape)):
                assert np.array_equal(smolyak.interpolate(plan, store, y),
                                      per_point_interpolate(plan, store, y))

    def test_one_lagrange_matrix_per_axis_and_level(self, monkeypatch):
        plan = smolyak.build_plan("SM", 5, 3)
        store = {key: 1.0 for key in plan.knots}
        calls = []
        build = smolyak.lagrange_eval_matrix

        def counting(m, pts):
            calls.append(m)
            return build(m, pts)

        monkeypatch.setattr(smolyak, "lagrange_eval_matrix", counting)
        smolyak.interpolate(plan, store, np.zeros((4, 3)))
        # the nonzero terms have levels 1..6 on each of the 3 axes
        assert len(calls) == 18

    def test_td_exactness_for_y1sq_y2sq(self):
        plan = smolyak.build_plan("TD", 4, 2)
        store = smolyak.evaluate_plan(plan, lambda y: y[0] ** 2 * y[1] ** 2)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(30, 2))
        got = smolyak.interpolate(plan, store, pts)
        assert np.max(np.abs(got - pts[:, 0] ** 2 * pts[:, 1] ** 2)) <= 1e-10

    def test_1d_matches_full_lagrange(self):
        w = 3
        m = smolyak.growth(w + 1)
        plan = smolyak.build_plan("SM", w, 1)
        fn = lambda y: math.sin(2.5 * y[0])
        store = smolyak.evaluate_plan(plan, fn)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=20)
        nodes = smolyak.cc_nodes(m)
        fvals = np.array([fn([x]) for x in nodes])
        L = smolyak.lagrange_eval_matrix(m, pts)
        expect = L @ fvals
        got = smolyak.interpolate(plan, store, pts[:, None])
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_monomial_exactness_suite(self):
        rng = np.random.default_rng(3)
        for N in (1, 2, 3):
            pts = rng.uniform(-1, 1, size=(20, N))
            for w in range(5):
                plan = smolyak.build_plan("SM", w, N)
                for p in sorted(polynomial_index_set("SM", w, N)):
                    store = smolyak.evaluate_plan(
                        plan, lambda y, p=p: float(np.prod(np.asarray(y) ** p)))
                    got = smolyak.interpolate(plan, store, pts)
                    expect = np.prod(pts**p, axis=-1)
                    assert np.max(np.abs(got - expect)) <= 1e-10, (N, w, p)

    def test_complex_points(self):
        plan = smolyak.build_plan("SM", 3, 1)
        store = smolyak.evaluate_plan(plan, lambda y: y[0] ** 3)
        z = np.array([[0.2 + 0.1j]])
        got = smolyak.interpolate(plan, store, z)
        assert abs(got[0] - (0.2 + 0.1j) ** 3) <= 1e-12

    def test_dimension_mismatch(self):
        plan = smolyak.build_plan("SM", 1, 2)
        store = smolyak.evaluate_plan(plan, lambda y: 0.0)
        with pytest.raises(DomainError):
            smolyak.interpolate(plan, store, np.zeros(3))


class TestQuadrature:
    def test_constant_integrates_to_itself(self):
        for rule in smolyak.RULES:
            for N, w in ((1, 4), (2, 2), (3, 1)):
                plan = smolyak.build_plan(rule, w, N)
                store = smolyak.evaluate_plan(plan, lambda y: 2.75)
                assert abs(smolyak.integrate(plan, store) - 2.75) <= 1e-13

    def test_second_moment_one_third(self):
        for rule in smolyak.RULES:
            for N, w in ((1, 2), (1, 4), (2, 2), (2, 4), (3, 3)):
                plan = smolyak.build_plan(rule, w, N)
                if max(smolyak.growth(i[0]) for i, _ in plan.terms) < 3:
                    continue
                store = smolyak.evaluate_plan(plan, lambda y: y[0] ** 2)
                assert abs(smolyak.integrate(plan, store) - 1.0 / 3.0) <= 1e-12

    def test_odd_function_integrates_to_zero(self):
        plan = smolyak.build_plan("SM", 3, 2)
        store = smolyak.evaluate_plan(plan, lambda y: y[0] * y[1])
        assert abs(smolyak.integrate(plan, store)) <= 1e-13

    def test_quadrature_equals_integral_of_interpolant(self):
        # Gauss-Legendre of the interpolant, exact for its polynomial degree
        gx, gw = np.polynomial.legendre.leggauss(48)
        gw = gw / 2.0  # uniform probability density on [-1, 1]
        for w in range(4):
            plan = smolyak.build_plan("SM", w, 2)
            store = smolyak.evaluate_plan(
                plan, lambda y: math.exp(0.4 * y[0] - 0.3 * y[1]))
            pts = np.array(list(itertools.product(gx, gx)))
            vals = smolyak.interpolate(plan, store, pts).reshape(48, 48)
            dense = float(gw @ vals @ gw)
            assert abs(smolyak.integrate(plan, store) - dense) <= 1e-8

    def test_closed_form_weights_match_moment_solve(self):
        for i in range(1, 9):
            m = smolyak.growth(i)
            w = smolyak._quadrature_weights(m)
            ref = moment_solve_weights(m)
            assert np.max(np.abs(w - ref)) <= 4e-16
            assert abs(math.fsum(w) - 1.0) <= 4e-16

    def test_package_import_does_not_load_mpmath(self):
        code = "import sys, npbe_uq; print('mpmath' in sys.modules)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(smolyak.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"


class TestAnalyticDecay:
    def test_sup_error_monotone_in_w(self):
        N = 2

        def nu(y):
            return 1.0 / (2.0 + 0.5 * np.sum(np.asarray(y), axis=-1) / N)

        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(500, N))
        exact = nu(pts)
        errs = []
        for w in range(1, 5):
            plan = smolyak.build_plan("SM", w, N)
            store = smolyak.evaluate_plan(plan, lambda y: float(nu(y)))
            errs.append(float(np.max(np.abs(smolyak.interpolate(plan, store, pts) - exact))))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))

