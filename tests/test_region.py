import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from npbe_uq import region, smolyak
from npbe_uq.errors import DomainError


def theta_xi_highprec(M, a, R):
    """Independent extended-precision evaluation of the two closed forms."""
    with mpmath.workdps(60):
        M, a, R = mpmath.mpf(M), mpmath.mpf(a), mpmath.mpf(R)
        s = mpmath.sqrt(a * M * R**2 * (a * M + R))
        num = (a * M * R - s) * (a * M * R + R**2 - s)
        den = 2 * a**2 * M**2 * R - R * s + a * M * (2 * R**2 - 3 * s)
        th = num / den
        x = (a * M * R + R**2 - s) / (a * M + R)
        return float(th), float(x)


def first_coordinate(z):
    """An evaluator for m_tilde: the first coordinate of each point."""
    return z[:, 0]


class TestClosedForms:
    def test_unit_anchor(self):
        th, x = theta_xi_highprec(1, 1, 1)
        assert abs(region.theta(1, 1, 1) - th) <= 1e-12
        assert abs(region.xi(1, 1, 1) - x) <= 1e-12
        # closed forms collapse to surd expressions at the unit triple
        assert abs(th - (4 - 3 * math.sqrt(2)) / (4 - 4 * math.sqrt(2))) <= 1e-15
        assert abs(x - (2 - math.sqrt(2)) / 2) <= 1e-15
        assert abs(th - 0.146447) <= 1e-6
        assert abs(x - 0.292893) <= 1e-6

    def test_random_triples_match_highprec(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M, a, R = rng.uniform(0.1, 10.0, size=3)
            th, x = theta_xi_highprec(M, a, R)
            assert abs(region.theta(M, a, R) - th) <= 1e-12 * max(1.0, abs(th))
            assert abs(region.xi(M, a, R) - x) <= 1e-12 * max(1.0, abs(x))

    @pytest.mark.parametrize("M,a", [(1e200, 1e-200), (1e-200, 1e200)])
    def test_theta_reads_a_and_M_only_through_their_product(self, M, a):
        # a^2 M^2 formed apart underflowed (0.0664) or overflowed (-0.0) at aM = 1
        assert region.theta(M, a, 1.0) == pytest.approx(region.theta(1.0, 1.0, 1.0), rel=1e-15)

    def test_theta_vanishes_for_large_M(self):
        assert region.theta(1e8, 1.0, 1.0) < 1e-3

    def test_xi_below_proof_ceiling(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            M, a, R = rng.uniform(0.05, 20.0, size=3)
            assert region.xi(M, a, R) < R * R / (R + a * M)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            region.theta(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            region.xi(1.0, -2.0, 1.0)

    def test_scale_consistency_recorded(self):
        # no identity is asserted, only that rescaled inputs stay admissible
        base = region.region_estimate(1.0, 1.0, 1.0)
        for c in (0.5, 2.0, 10.0):
            scaled = region.region_estimate(c * 1.0, 1.0 / c, 1.0)
            assert scaled.theta > 0.0
            assert scaled.sigma_star > 0.0
        assert base.theta > 0.0

    def test_overflowing_radical_raises(self):
        # at M = 1e300 the radical sqrt(aMR^2(aM + R)) is inf: Theta is NaN
        # and Xi -inf, which fed the rest of the ledger as numbers
        with pytest.raises(DomainError, match=r"M = 1e\+300, a = 1\.0, R = 1\.0"):
            region.region_estimate(1e300, 1.0, 1.0)


class TestRejectedInputNamed:
    # violated names the parameter the error rejects, or the parameters together
    @pytest.mark.parametrize("call, violated, message", [
        (lambda: region.theta(-1.0, 1.0, 1.0), "M", "M must be positive, got -1.0"),
        (lambda: region.xi(1.0, 0.0, 1.0), "a", "a must be positive, got 0.0"),
        (lambda: region.region_estimate(1.0, 1.0, math.nan), "R", "R must be positive, got nan"),
        (lambda: region.region_estimate(1e300, 1.0, 1.0), ("M", "a", "R"), "is not finite at M"),
        (lambda: region.region_estimate(1e20, 1.0, 1.0), ("M", "a", "R"), "closed form cancels"),
        (lambda: region.error_constants(0.5, 0, 1.0), "N", "N must be >= 1, got 0"),
        (lambda: region.error_constants(0.5, 2, -2.0), "M_tilde", "got -2.0"),
        (lambda: region.error_constants(math.nan, 2, 1.0), None, "sigma_star must be"),
        # cosh(800) raised an untyped OverflowError, and sigma = inf gave a ring of NaN
        (lambda: region.polyellipse_boundary(800.0, 8), None, "not finite at sigma = 800.0"),
        (lambda: region.polyellipse_boundary(math.inf, 8), None, "not finite at sigma = inf"),
        (lambda: region.m_tilde(first_coordinate, 800.0, 1, 8), None,
         "not finite at sigma = 800.0"),
        (lambda: region.m_tilde(first_coordinate, math.inf, 1, 8), None,
         "not finite at sigma = inf"),
        # a sup over no points was 0.0, and so was every error bound built on it
        (lambda: region.m_tilde(first_coordinate, 0.1, 1, samples=0), "samples",
         "samples must be >= 1, got 0"),
        # 0 knots divided by zero, and -1 raised a TypeError from a complex power
        (lambda: region.error_bound(0.1, 2, 1.0, 1, 0), "eta", "eta must be >= 1, got 0"),
        (lambda: region.error_bound(0.1, 2, 1.0, 1, -1), "eta", "eta must be >= 1, got -1"),
    ], ids=["M", "a", "R", "M-a-R", "M-a-R-cancelled", "N", "M_tilde", "sigma_star",
            "sigma-800", "sigma-inf", "m_tilde-sigma-800", "m_tilde-sigma-inf", "samples",
            "eta-0", "eta-negative"])
    def test_violated(self, call, violated, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert exc.value.violated == violated and message in str(exc.value)


@pytest.mark.parametrize("N", [0, 1.5, True], ids=["zero", "fractional", "bool"])
@pytest.mark.parametrize("call", [
    lambda N: smolyak.index_set("SM", 1, N),
    lambda N: region.m_tilde(first_coordinate, 0.1, N, 8),
    lambda N: region.error_constants(0.1, N, 1.0),
], ids=["index_set", "m_tilde", "error_constants"])
def test_dimension_is_an_integer_at_least_one(call, N):
    # smolyak.check_dimension states the rule once for all three
    with pytest.raises(DomainError) as exc:
        call(N)
    assert exc.value.violated == "N" and str(exc.value).endswith(f", got {N!r}")


def test_numpy_integer_dimension_accepted():
    assert smolyak.index_set("SM", 2, np.int64(2)) == smolyak.index_set("SM", 2, 2)


class TestSigmaStar:
    def test_zero(self):
        assert region.sigma_star(0.0) == 0.0

    def test_log_form_anchor(self):
        th = 0.146447
        assert abs(region.sigma_star(th) - math.log(math.sqrt(th * th + 1) + th)) <= 1e-15
        assert abs(region.sigma_star(th) - 0.145929) <= 1e-6

    def test_monotone(self):
        ts = np.linspace(0.0, 3.0, 50)
        vals = [region.sigma_star(t) for t in ts]
        assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            region.sigma_star(-0.1)
        with pytest.raises(DomainError, match="nan"):
            region.sigma_star(math.nan)


class TestPolyellipse:
    def test_degenerates_to_segment(self):
        z = region.polyellipse_boundary(1e-9, 64)
        assert np.max(np.abs(z.imag)) <= 2e-9
        assert np.max(np.abs(z.real)) <= 1.0 + 1e-12

    def test_theta_zero_point(self):
        z = region.polyellipse_boundary(0.7, 64)
        assert abs(z[0] - math.cosh(0.7)) <= 1e-14

    def test_containment_within_theta(self):
        for M, a, R in ((1.0, 1.0, 1.0), (2.0, 0.5, 3.0), (0.3, 4.0, 1.5)):
            est = region.region_estimate(M, a, R)
            z = region.polyellipse_boundary(est.sigma_star, 10000)
            d = np.abs(z - np.clip(z.real, -1.0, 1.0))  # distance to [-1, 1]
            assert np.max(d) <= est.theta + 1e-12


def m_tilde_per_point_tuples(evaluator, sigma, N, samples):
    """m_tilde with each chunk built from tuples, N = 1 as its own case."""
    ring = region.polyellipse_boundary(sigma, samples)
    best = 0.0
    for first in ring:
        if N == 1:
            pts = np.array([[first]])
        else:
            pts = np.array([(first,) + tail for tail in itertools.product(*([ring] * (N - 1)))])
        best = max(best, float(np.max(np.abs(np.asarray(evaluator(pts), dtype=complex)))))
    return best


class TestMTilde:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_per_point_tuples(self, N):
        plan = smolyak.build_plan("SM", 3, N)
        store = smolyak.evaluate_plan(plan, lambda y: 1.0 / (2.5 - y.sum()))

        def nu(z):
            return smolyak.interpolate(plan, store, z)

        assert region.m_tilde(nu, 0.7, N, 16) == m_tilde_per_point_tuples(nu, 0.7, N, 16)

    def test_constant(self):
        assert abs(region.m_tilde(lambda z: np.full(z.shape[0], -3.0), 0.5, 2, 16) - 3.0) <= 1e-14

    def test_linear_max_on_ellipse(self):
        got = region.m_tilde(lambda z: z[:, 0], 1.0, 1, samples=256)
        assert abs(got - math.cosh(1.0)) <= 1e-3

    def test_nan_knot_raises_naming_sigma(self):
        # Python's max drops a NaN, which made M~ 0.0 and every bound 0.0
        plan = smolyak.build_plan("SM", 1, 2)
        store = smolyak.evaluate_plan(plan, lambda y: math.nan if y[0] > 0.0 else 1.0)
        with pytest.raises(DomainError, match=r"sigma = 0\.5\b"):
            region.m_tilde(lambda z: smolyak.interpolate(plan, store, z), 0.5, 2, 8)

    def test_pole_growth(self):
        def nu(z):
            return 1.0 / (2.0 - z[:, 0])

        pole_sigma = math.log(2.0 + math.sqrt(3.0))
        small = region.m_tilde(nu, 0.5, 1, 64)
        close = region.m_tilde(nu, 0.98 * pole_sigma, 1, 64)
        assert np.isfinite(small) and np.isfinite(close)
        assert close > 10.0 * small


class TestConstants:
    def test_constant_block_anchor(self):
        c = region.error_constants(0.5, 2, 1.0)
        assert c.sigma == 0.25
        assert abs(c.c2_tilde - (1.0 + math.sqrt(math.pi / 0.5) / math.log(2.0))) <= 1e-14
        assert abs(c.c2_tilde - 4.61664) <= 5e-4
        assert abs(c.delta_star - 0.191520) <= 5e-4
        assert abs(c.mu2 - 0.145230) <= 2e-5
        for name in ("sigma", "c2_tilde", "delta_star", "mu1", "mu2", "mu3",
                     "a_delta_sigma", "C1", "Q"):
            assert getattr(c, name) > 0.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            region.error_constants(0.0, 2, 1.0)
        with pytest.raises(DomainError):
            region.error_constants(0.5, 0, 1.0)
        with pytest.raises(DomainError, match="'M_tilde'"):
            region.error_constants(0.5, 2, -2.0)
        # M_tilde = 0 is legal: a zero function has a zero error
        assert region.error_bound(0.5, 2, 0.0, 3, 29).bound == 0.0

    def test_infinite_m_tilde_rejected(self):
        # M~ = inf made both bounds NaN
        with pytest.raises(DomainError, match="'M_tilde' must be finite"):
            region.error_constants(0.5, 2, math.inf)
        with pytest.raises(DomainError, match="'M_tilde' must be finite"):
            region.error_bound(0.5, 2, math.inf, 1, 5)

    @pytest.mark.parametrize("sigma_star", [math.nan, math.inf])
    def test_non_finite_sigma_star_rejected(self, sigma_star):
        # both made C1 and Q NaN
        with pytest.raises(DomainError, match=f"must be finite and positive, got {sigma_star}"):
            region.error_constants(sigma_star, 2, 1.0)

    @pytest.mark.parametrize("N, m_tilde", [(16, 1e20), (2, 1e300), (2, 1.7e308)],
                             ids=["power", "power-N2", "C1-inf"])
    def test_overflow_is_inf_not_nan(self, N, m_tilde):
        # max(1, C1)^N past float range raised OverflowError, and an infinite
        # C1 gave inf / inf; both are +inf, as are both bounds at any eta
        sigma_star = region.region_estimate(1.0, 1.0, 1.0).sigma_star
        c = region.error_constants(sigma_star, N, m_tilde)
        assert c.Q == math.inf
        for w, eta in ((1, 5), (3, 10**6)):
            eb = region.error_bound(sigma_star, N, m_tilde, w, eta)
            assert eb.subexp_bound == eb.algebraic_bound == math.inf

    @pytest.mark.parametrize("N", [1, 2, 16])
    @pytest.mark.parametrize("m_tilde", [0.0, 1.0])
    @pytest.mark.parametrize("sigma_star", [789.0, 800.0, 1500.0, 1e6])
    def test_large_sigma_saturates(self, sigma_star, m_tilde, N):
        # exp(a_delta_sigma) overflows from sigma* ~ 790, exp(sigma delta c2~)
        # in Q from ~1600, and eta^mu3 at sigma* = 1e6: each raised
        # OverflowError, and a zero M~ times an infinite factor would be NaN
        c = region.error_constants(sigma_star, N, m_tilde)
        assert c.a_delta_sigma == math.inf
        assert c.C1 == c.Q == (0.0 if m_tilde == 0.0 else math.inf)
        for w, eta in ((1, 3), (3, 29), (10, 10**6)):
            eb = region.error_bound(sigma_star, N, m_tilde, w, eta)
            assert eb.subexp_bound == eb.algebraic_bound == c.Q

    @pytest.mark.parametrize("N", [1, 2, 16])
    @pytest.mark.parametrize("m_tilde", [0.0, 1.0])
    @pytest.mark.parametrize("sigma_star", [1e-215, 1e-220, 1e-300, 1e-310, 5e-324])
    def test_tiny_sigma_saturates(self, sigma_star, m_tilde, N):
        # delta sigma in the denominator of C1 underflows to 0 from sigma* ~
        # 1e-216, which raised ZeroDivisionError; C1 is +inf as at 1e-215.  At a
        # subnormal sigma*, c2~ is +inf and delta 0 (NaN products), and at
        # 5e-324 sigma rounds to 0 (ZeroDivisionError)
        c = region.error_constants(sigma_star, N, m_tilde)
        assert not any(math.isnan(v) for v in dataclasses.astuple(c))
        assert c.C1 == c.Q == (0.0 if m_tilde == 0.0 else math.inf)
        for w, eta in ((1, 3), (3, 29), (10, 10**6)):
            eb = region.error_bound(sigma_star, N, m_tilde, w, eta)
            assert eb.subexp_bound == eb.algebraic_bound == c.Q

    def test_c1_near_one_is_finite(self):
        c0 = region.error_constants(0.5, 2, 1.0)
        scale = c0.C1 / (4.0 * c0.c2_tilde * c0.a_delta_sigma
                         / (math.e * c0.delta_star * c0.sigma))
        m_tilde = 1.0 / scale * 1.0  # drives C1 to 1 up to rounding
        c = region.error_constants(0.5, 2, m_tilde)
        assert math.isfinite(c.Q)

    def test_regime_switch(self):
        # N=2: threshold N/log2 is about 2.885
        assert region.error_bound(0.5, 2, 1.0, 2, 13).regime == "algebraic"
        assert region.error_bound(0.5, 2, 1.0, 3, 29).regime == "subexponential"
        assert region.error_bound(0.5, 1, 1.0, 2, 5).regime == "subexponential"

    def test_subexp_bound_monotone_past_crossover(self):
        c = region.error_constants(1.0, 2, 1.0)
        etas = np.unique(np.logspace(3, 7, 40).astype(int))
        vals = [region.error_bound(1.0, 2, 1.0, 4, int(e)).subexp_bound for e in etas]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        assert c.Q > 0.0


class TestErrorBoundConsistency:
    def test_measured_error_below_bound(self):
        sigma_star = 2.0  # pole of nu sits at cosh(sigma) = 4, safely outside
        rng = np.random.default_rng(7)
        for N in (1, 2, 3):
            def nu(y):
                return 1.0 / (2.0 + 0.5 * np.sum(np.asarray(y), axis=-1) / N)

            m_tilde = region.m_tilde(lambda z: nu(z), sigma_star, N, samples=16)
            pts = rng.uniform(-1, 1, size=(2000, N))
            exact = nu(pts)
            for w in range(1, 6):
                plan = smolyak.build_plan("SM", w, N)
                store = smolyak.evaluate_plan(plan, lambda y: float(nu(y)))
                err = float(np.max(np.abs(smolyak.interpolate(plan, store, pts) - exact)))
                eb = region.error_bound(sigma_star, N, m_tilde, w, plan.n_knots)
                assert err <= eb.bound, (N, w)
                assert eb.regime == ("subexponential" if w > N / math.log(2.0)
                                     else "algebraic")

