import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from npbe_uq import cli, geometry, harness, pde, smolyak
from npbe_uq.errors import ConfigError, ConvergenceError, ParseError, RateFitError
from conftest import npbe_residual

PQR_OK = """\
REMARK  minimal pqr subset
ATOM      1  N   ALA      30.000  35.000  35.000  1.0000 1.5000
ATOM      2  O   ALA      40.000  35.000  35.000 -0.5000 1.4000
HETATM    3  X   LIG       0.000   0.000   0.000  9.0000 1.0000
ATOM      3  C   ALA      35.000  30.000  35.000  0.7000 1.7000
"""


def failing_newton(*args, **kwargs):
    raise ConvergenceError("Newton failed to converge in 50 iterations")


ACCEPTANCE_CHARGES = [[30.0, 35.0, 35.0, 1.0], [40.0, 35.0, 35.0, -0.5],
                      [35.0, 30.0, 35.0, 0.7]]


def small_config(**kw):
    base = dict(charges_inline=[[35.0, 35.0, 35.0, 1.0]], grid_n=9,
                levels=(0,), reference_level=1, N=1, alpha=(2.0,),
                kappa2=(0.0, 0.0, 0.0))
    base.update(kw)
    return harness.RunConfig(**base)


def all_knot_study(config):
    """(level means, level errors, reference mean) with every reference knot solved."""
    solver = harness.KnotSolver(config)
    ref_plan = smolyak.build_plan(config.rule, config.reference_level, config.N)
    store = smolyak.evaluate_plan(ref_plan, lambda y: solver.solve(y)[1].qoi)
    ref = smolyak.integrate(ref_plan, store)
    means = [smolyak.integrate(smolyak.build_plan(config.rule, w, config.N), store)
             for w in config.levels]
    return means, [abs(m - ref) for m in means], ref


class TestParsePqr:
    def test_atom_lines_parsed(self):
        # the HETATM record (a ligand's charge) is read in file order too
        pairs = harness.parse_pqr(PQR_OK)
        assert len(pairs) == 4
        pos, q = pairs[1]
        assert np.allclose(pos, [40.0, 35.0, 35.0], atol=0)
        assert q == -0.5
        pos, q = pairs[2]
        assert np.array_equal(pos, [0.0, 0.0, 0.0]) and q == 9.0

    def test_chain_id_and_residue_number_are_optional(self):
        # one atom in the subset layout, with a residue number, and with a chain ID too
        lines = ["ATOM      1  N   ILE         -8.155   9.648  20.365  0.1010 2.0000",
                 "ATOM      1  N   ILE    16   -8.155   9.648  20.365  0.1010 2.0000",
                 "ATOM      1  N   ILE A  16   -8.155   9.648  20.365  0.1010 2.0000"]
        for line in lines:
            (pos, q), = harness.parse_pqr(line)
            assert np.array_equal(pos, [-8.155, 9.648, 20.365]) and q == 0.1010

    def test_non_numeric_coordinate(self):
        bad = "ATOM 1 N ALA 1 abc 35.0 35.0 1.0 1.5\n"
        with pytest.raises(ParseError, match="line 1"):
            harness.parse_pqr(bad)

    def test_short_atom_line(self):
        with pytest.raises(ParseError, match="line 2: ATOM record has 6 fields"):
            harness.parse_pqr("REMARK x\nATOM 1 N ALA 1 2\n")
        with pytest.raises(ParseError, match="line 1: HETATM record has 5 fields"):
            harness.parse_pqr("HETATM 1 NA NA 301\n")

    def test_non_atom_lines_skipped(self):
        # a record is named by its whole first field
        assert harness.parse_pqr("REMARK only\nATOMS 1 N ALA 1 2\nTER\nEND\n") == []


class TestIngest:
    def test_inline_charges(self):
        config = small_config(charges_inline=[[30, 35, 35, 1.0], [40, 35, 35, -0.5]])
        charges = harness.ingest_charges(config)
        assert len(charges) == 2
        assert all(isinstance(c, pde.Charge) for c in charges)

    def test_empty_raises(self):
        config = small_config(charges_inline=[])
        with pytest.raises(ParseError):
            harness.ingest_charges(config)

    def test_recentring_moves_centroid(self):
        config = small_config(charges_inline=[[0, 0, 0, 1.0], [10, 0, 0, 1.0]])
        charges = harness.ingest_charges(config)
        centroid = np.mean([c.position for c in charges], axis=0)
        assert np.allclose(centroid, [35, 35, 35], atol=1e-12)

    def test_out_of_box_dropped_with_warning(self):
        # the centroid is at x = 45, so recentring moves the last charge to x = 135
        config = small_config(charges_inline=[[35, 35, 35, 1.0]] * 10 + [[145, 35, 35, 1.0]])
        with pytest.warns(UserWarning, match="dropped 1 charges"):
            charges = harness.ingest_charges(config)
        assert len(charges) == 10
        assert all(np.array_equal(c.position, [25.0, 35.0, 35.0]) for c in charges)

    def test_pqr_file(self, tmp_path):
        path = tmp_path / "c.pqr"
        path.write_text(PQR_OK)
        config = small_config(charges_inline=[], charges_path=str(path))
        charges = harness.ingest_charges(config)
        assert [c.magnitude for c in charges] == [1.0, -0.5, 9.0, 0.7]

    def test_default_width_two_h(self):
        # bit-equal to the spacing of the grid the solver builds
        for box_max in (70.0, 61.3):
            for grid_n in (5, 9, 17, 33, 65):
                config = small_config(charge_width=None, grid_n=grid_n, box_min=[-0.7] * 3,
                                      box_max=[box_max] * 3)
                assert config.width() == max(2.0 * config.grid().h, 1.0)

    def test_ingest_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("ingest_charges built a Grid3D")

        monkeypatch.setattr(pde, "Grid3D", no_grid)
        charges = harness.ingest_charges(small_config(charge_width=None, grid_n=9))
        assert charges[0].width == 17.5  # 2h with h = 70 / 8


class TestShiftedCharges:
    def base(self):
        return [pde.Charge(np.array([35.0, 35.0, 35.0]), 1.0, 2.0)]

    def test_zero_shift_identical(self):
        out = harness.shifted_charges(self.base(), (2.0,), np.zeros(1), small_config().domain)
        assert np.array_equal(out[0].position, [35.0, 35.0, 35.0])

    def test_axis_shift_amplitude(self):
        out = harness.shifted_charges(self.base(), (10.0,), np.array([0.1]),
                                      small_config().domain)
        assert np.allclose(out[0].position, [36.0, 35.0, 35.0], atol=1e-12)

    def test_second_axis(self):
        out = harness.shifted_charges(self.base(), (1.0, 3.0), np.array([0.0, 1.0]),
                                      small_config().domain)
        assert np.allclose(out[0].position, [35.0, 38.0, 35.0], atol=0)

    def test_margin_violation(self):
        domain = small_config().domain
        with pytest.raises(ConfigError):
            harness.shifted_charges(self.base(), (40.0,), np.array([1.0]), domain=domain)

    def test_shift_changes_solution_field(self):
        # the shifted problem is not a pure translation of the grid values
        config = small_config()
        domain = config.domain
        grid = config.grid()
        charges = harness.ingest_charges(config)
        coeffs = pde.PBECoefficients(np.array(config.eps), np.zeros(3), charges, 0.0)
        from npbe_uq.geometry import DomainMap
        dmap = DomainMap([])
        u0, _ = pde.newton_solve_npbe(domain, dmap, coeffs, None, grid)
        ch = harness.shifted_charges(charges, (5.0,), np.array([1.0]), domain)
        c1 = pde.PBECoefficients(coeffs.eps, coeffs.kappa2, ch, 0.0)
        u1, _ = pde.newton_solve_npbe(domain, dmap, c1, None, grid)
        assert np.max(np.abs(u0.values - u1.values)) > 1e-6


class TestConfig:
    def test_defaults(self):
        config = harness.RunConfig()
        assert config.grid_n == 33
        assert config.alpha == (2.0, 2.0)
        assert np.array_equal(config.domain.sphere_center, [35, 35, 35])

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(N=4)

    @pytest.mark.parametrize("grid_n", [1, 2, 4, 13, 21, 33.5, "33"])
    def test_bad_grid_n(self, grid_n):
        # width() reads h from grid_n, so grid_n must be the grid's own node
        # count, and 2^k + 1 with k >= 2, whose interior the V-cycle halves
        # down to one node
        with pytest.raises(ConfigError, match="key 'n' in block 'grid': grid n"):
            harness.RunConfig(grid_n=grid_n)

    def test_alpha_length_mismatch(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(N=2, alpha=(1.0,))

    def test_inline_charge_needs_four_entries(self):
        # YAML reads each inline charge as 4 numbers; a RunConfig built in
        # code is checked too, and quotes the charge
        with pytest.raises(ConfigError, match=r"each charge needs \[x, y, z, q\], "
                                              r"got \[35\.0, 35\.0, 1\.0\]$"):
            harness.RunConfig(charges_inline=[[35.0, 35.0, 35.0, 1.0], [35.0, 35.0, 1.0]])

    def test_repeated_level_rejected(self):
        # a repeated level printed its CSV row twice and weighed twice in the rate fit
        with pytest.raises(ConfigError, match=r"^key 'levels' in block 'sparse_grid': .*"
                                              r"\(2, 1, 2\)$"):
            harness.RunConfig(grid_n=9, levels=(2, 1, 2))
        assert harness.RunConfig(grid_n=9, levels=(2, 1)).levels == (2, 1)  # order is kept

    def test_reference_must_exceed_levels(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(levels=(1, 2, 3), reference_level=3)

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(rule="GL")

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "geometry:\n  radii: [12.0, 22.0]\n"
            "stochastic:\n  N: 1\n  alpha: [3.0]\n"
            "grid:\n  n: 17\n"
            "charges:\n  inline: [[35, 35, 35, 1.0]]\n  width: 2.5\n"
            "sparse_grid:\n  levels: [1, 2]\n  reference_level: 4\n"
        )
        config = harness.load_config(str(path))
        assert config.radii == (12.0, 22.0)
        assert config.N == 1
        assert config.grid_n == 17
        assert config.charge_width == 2.5
        assert config.levels == (1, 2)

    def test_unknown_block(self):
        with pytest.raises(ConfigError):
            harness.config_from_dict({"mystery": {}})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            harness.config_from_dict({"grid": {"spacing": 1.0}})

    @pytest.mark.parametrize("block,key", [("coefficients", "boundary_value"),
                                           ("geometry", "sphere_center"),
                                           ("charges", "recenter"),
                                           ("charges", "recenter_charges")])
    def test_removed_keys_rejected(self, block, key):
        with pytest.raises(ConfigError, match=f"unknown key {key!r} in block {block!r}"):
            harness.config_from_dict({block: {key: 0.0}})

    @pytest.mark.parametrize("key", ["newton_tol", "cg_tol"])
    def test_removed_solver_key_names_replacement(self, key):
        with pytest.raises(ConfigError, match="unknown config block 'solver'"):
            harness.config_from_dict({"solver": {key: 1e-9}})

    def test_every_field_has_one_yaml_key(self):
        # the table is the only way from the YAML config to a RunConfig field
        fields = [f for keys in harness.STUDY_KEYS.values() for f, _ in keys.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(harness.RunConfig))

    def test_bounds_region_blocks_ignored(self):
        config = harness.config_from_dict({"bounds": {"b1": 0.1}, "region": {"M": 1}})
        assert config.grid_n == 33


class TestFitRate:
    def test_power_law_recovered(self):
        recs = [harness.ConvergenceRecord(w, eta, 0.0, 7.0 * eta**-2.0, 0.0)
                for w, eta in ((1, 5), (2, 13), (3, 29), (4, 65))]
        fit = harness.fit_rate(recs)
        assert abs(fit.slope + 2.0) <= 1e-6
        assert abs(fit.r_squared - 1.0) <= 1e-12

    def test_constant_errors_flat(self):
        recs = [harness.ConvergenceRecord(w, 2**w, 0.0, 0.5, 0.0) for w in (1, 2, 3)]
        fit = harness.fit_rate(recs)
        assert abs(fit.slope) <= 1e-12

    def test_nonpositive_excluded(self):
        recs = [harness.ConvergenceRecord(1, 5, 0.0, 1e-3, 0.0),
                harness.ConvergenceRecord(2, 13, 0.0, 0.0, 0.0),
                harness.ConvergenceRecord(3, 29, 0.0, 1e-5, 0.0)]
        fit = harness.fit_rate(recs)
        assert fit.excluded == [2]

    def test_too_few_points(self):
        with pytest.raises(RateFitError):
            harness.fit_rate([harness.ConvergenceRecord(1, 5, 0.0, 1e-3, 0.0)])


class TestRunStudy:
    def test_small_study_levels(self):
        config = small_config(levels=(0, 1), reference_level=2)
        result = harness.run_study(config)
        assert [r.w for r in result.records] == [0, 1]
        assert [r.eta for r in result.records] == [1, 3]
        assert result.reference_eta == 5
        assert all(math.isfinite(r.error) for r in result.records)

    def test_w0_mean_is_center_solve(self, tight_solve):
        config = small_config(levels=(0,), reference_level=1)
        result = harness.run_study(config)
        domain = config.domain
        grid = config.grid()
        charges = harness.ingest_charges(config)
        coeffs = pde.PBECoefficients(np.array(config.eps), np.array(config.kappa2),
                                     charges, 0.0)
        # rtol 1e-13: eps = 70 puts the rounding floor of ||R|| near 2e-14 ||b||
        u = tight_solve(domain, geometry.DomainMap([]), coeffs, None, grid, rtol=1e-13)
        ref = pde.qoi_integral(u)
        assert abs(result.records[0].qoi_mean - ref) <= 1e-12 * abs(ref)

    def test_csv_deterministic(self):
        config = small_config(levels=(0, 1), reference_level=2)
        a = harness.run_study(config).csv_text
        b = harness.run_study(config).csv_text
        assert a == b
        assert a.splitlines()[0] == "w,eta,qoi_mean,error,wall_time_s"
        assert all(line.endswith("0.000") for line in a.splitlines()[1:])

    def test_csv_file_written(self, tmp_path):
        out = tmp_path / "study.csv"
        config = small_config(csv_path=str(out))
        harness.run_study(config)
        assert out.read_text().startswith("w,eta,")

    def test_svg_written(self, tmp_path):
        out = tmp_path / "study.svg"
        config = small_config(levels=(0, 1), reference_level=3, svg_path=str(out))
        harness.run_study(config)
        text = out.read_text()
        assert "<svg" in text and "polyline" in text

    def test_each_nonlinear_knot_solved_once(self, monkeypatch):
        newton, solve = pde.newton_solve_npbe, harness.KnotSolver.solve
        calls, solved, ticks = [], [], []

        def counting_newton(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        def recording_solve(self, y):
            solved.append(tuple(y))
            return solve(self, y)

        monkeypatch.setattr(pde, "newton_solve_npbe", counting_newton)
        monkeypatch.setattr(harness.KnotSolver, "solve", recording_solve)
        config = small_config(levels=(0, 1), reference_level=3)
        result = harness.run_study(config,
                                   progress=lambda done, total: ticks.append((done, total)))
        plan = smolyak.build_plan(config.rule, result.nonlinear_level, config.N)
        eta = plan.n_knots
        assert len(calls) == len(solved) == len(set(solved)) == result.knot_solves == eta
        assert set(solved) == {tuple(y) for y in plan.knot_values}
        assert eta < result.reference_eta
        assert ticks[-1] == (eta, eta)
        assert all(a[0] + 1 == b[0] for a, b in zip(ticks, ticks[1:]))

    def test_one_multigrid_hierarchy_per_study(self, monkeypatch):
        built = []

        class Counting(pde.VCycle):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(pde, "VCycle", Counting)
        result = harness.run_study(small_config(levels=(0, 1), reference_level=3))
        assert result.reference_eta > 1 and len(built) == 1

    def test_one_adjoint_per_study(self, monkeypatch):
        solved = []
        solve_adjoint = pde.solve_adjoint

        def counting(*args):
            solved.append(1)
            return solve_adjoint(*args)

        monkeypatch.setattr(pde, "solve_adjoint", counting)
        result = harness.run_study(small_config(levels=(0, 1), reference_level=3))
        assert result.reference_eta > 1 and len(solved) == 1

    def test_first_newton_step_reuses_the_adjoint_jacobian(self, monkeypatch):
        # Newton starts from u = 0, where its Jacobian is the matrix the
        # adjoint was solved with, so only its later steps build one
        built, later_steps = [], []
        plus_diagonal, solve = pde._plus_diagonal, harness.KnotSolver.solve

        def counting_plus_diagonal(*args, **kwargs):
            built.append(1)
            return plus_diagonal(*args, **kwargs)

        def counting_solve(self, y):
            u, info = solve(self, y)
            later_steps.append(max(info.iterations - 1, 0))
            return u, info

        monkeypatch.setattr(pde, "_plus_diagonal", counting_plus_diagonal)
        monkeypatch.setattr(harness.KnotSolver, "solve", counting_solve)
        result = harness.run_study(small_config(levels=(0, 1), reference_level=3))
        assert result.reference_eta > 1
        assert len(built) == 1 + sum(later_steps)

    def test_non_convergence_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("solver bug")

        monkeypatch.setattr(pde, "newton_solve_npbe", broken)
        with pytest.raises(ValueError, match="solver bug"):
            harness.run_study(small_config())

    def test_newton_failure_recorded_as_nan(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        out = tmp_path / "study.csv"
        result = harness.run_study(small_config(levels=(0, 1), reference_level=2,
                                                csv_path=str(out)))
        # the first knot, y = 0, fails: w_N = 0, and every level loses its mean
        assert result.failure == ((0.0,), "Newton failed to converge in 50 iterations")
        assert all(math.isnan(r.qoi_mean) and math.isnan(r.error) for r in result.records)
        assert out.read_text() == result.csv_text
        assert result.csv_text.splitlines()[1:] == ["0,1,nan,nan,0.000", "1,3,nan,nan,0.000"]

    def test_reference_failure_fails_every_level(self, monkeypatch):
        solve = harness.KnotSolver.solve

        def fail_off_centre(self, y):
            if np.any(y != 0.0):
                raise ConvergenceError("stalled off centre")
            return solve(self, y)

        monkeypatch.setattr(harness.KnotSolver, "solve", fail_off_centre)
        result = harness.run_study(small_config())
        rec, = result.records  # level 0 solves only y = 0
        assert math.isnan(rec.error) and math.isfinite(rec.qoi_mean)
        assert result.failure == ((-1.0,), "stalled off centre")
        assert result.nonlinear_level == 1

    def test_failure_between_study_levels(self, monkeypatch):
        # kT/e charges raise w_N past 1, and the knots new at level 2 fail:
        # levels 0 and 1 lie below the failed knot, levels 2 and 3 use it
        solve = harness.KnotSolver.solve
        failed = []

        def fail_at_level_2(self, y):
            if 0.0 < abs(y[0]) < 1.0:
                failed.append(tuple(float(v) for v in y))
                raise ConvergenceError("stalled at level 2")
            return solve(self, y)

        monkeypatch.setattr(harness.KnotSolver, "solve", fail_at_level_2)
        charges = [c[:3] + [7046.0 * c[3]] for c in ACCEPTANCE_CHARGES]
        config = harness.RunConfig(charges_inline=charges, grid_n=17, N=1, alpha=(3.0,),
                                   levels=(0, 1, 2, 3), reference_level=4)
        result = harness.run_study(config)
        plans = [smolyak.build_plan(config.rule, w, 1) for w in range(3)]
        first = next(tuple(float(v) for v in y) for y in plans[2].knot_values
                     if 0.0 < abs(y[0]) < 1.0)
        assert failed == [first] and abs(abs(first[0]) - math.sqrt(0.5)) <= 1e-15
        assert result.knot_solves == 4 and result.nonlinear_level == 2
        assert math.isnan(result.nonlinear_mean) and math.isnan(result.nonlinear_estimate)
        assert math.isnan(result.reference_qoi)
        assert result.failure == (first, "stalled at level 2")
        assert all(math.isnan(r.error) for r in result.records)
        below, above = result.records[:2], result.records[2:]
        solver = harness.KnotSolver(config)
        store = smolyak.evaluate_plan(plans[1], lambda y: solve(solver, y)[1].qoi)
        for r, p in zip(below, plans):
            mean = smolyak.integrate(p, store)
            assert abs(r.qoi_mean - mean) <= 1e-12 * abs(mean)
        assert all(math.isnan(r.qoi_mean) for r in above)

    def test_wall_time_covers_knot_solves(self):
        result = harness.run_study(small_config(levels=(0, 1), reference_level=2,
                                                grid_n=17, deterministic_csv=False))
        printed = [float(line.split(",")[-1]) for line in result.csv_text.splitlines()[1:]]
        assert all(t > 0.0 for t in printed)
        # the finest level's knots are a superset of the coarsest's
        assert result.records[-1].wall_time >= result.records[0].wall_time


    def test_split_matches_all_knot_study(self):
        # near-linear: N(y) is ~1e-10 of Q, so a coarse nonlinear level suffices
        config = harness.RunConfig(charges_inline=ACCEPTANCE_CHARGES, grid_n=17,
                                   alpha=(3.0, 3.0), levels=(1, 2, 3), reference_level=5)
        result = harness.run_study(config)
        means, errors, ref = all_knot_study(config)
        assert result.knot_solves < result.reference_eta
        assert result.nonlinear_estimate <= result.nonlinear_target
        # here 1% of the finest level's z.b error sets the target, not the floor
        ref_plan, finest_plan = (smolyak.build_plan(config.rule, w, config.N) for w in (5, 3))
        linear = dict(zip(ref_plan.knots,
                          harness.KnotSolver(config).linear_parts(ref_plan.knot_values)))
        ref_linear = smolyak.integrate(ref_plan, linear)
        finest_error = abs(smolyak.integrate(finest_plan, linear) - ref_linear)
        assert result.nonlinear_target == 0.01 * finest_error > 1e-12 * abs(ref_linear)
        assert abs(result.reference_qoi - ref) <= 1e-12 * abs(ref)
        for r, mean, err in zip(result.records, means, errors):
            assert abs(r.qoi_mean - mean) <= 1e-12 * abs(mean)
            assert abs(r.error - err) <= 1e-11

    def test_nonlinear_level_is_the_first_within_target(self):
        # the finest level is so close to the reference that the floor
        # 1e-12 |E_ref[z.b]| sets the target, above the ~1e-11 noise of N
        config = small_config(kappa2=(0.0, 0.0, 0.5), charges_inline=[[35.0, 35.0, 35.0, 20.0]],
                              levels=(3,), reference_level=5)
        result = harness.run_study(config)
        solver = harness.KnotSolver(config)
        plans = [smolyak.build_plan(config.rule, w, config.N) for w in range(6)]
        linear, remainder = {}, {}
        for key, y, value in zip(plans[5].knots, plans[5].knot_values,
                                 solver.linear_parts(plans[5].knot_values)):
            linear[key] = value
            remainder[key] = solver.solve(y)[1].qoi - value
        ref_linear = smolyak.integrate(plans[5], linear)
        finest_error = abs(smolyak.integrate(plans[3], linear) - ref_linear)
        assert 0.01 * finest_error < 1e-12 * abs(ref_linear) == result.nonlinear_target
        means = [smolyak.integrate(p, remainder) for p in plans]
        estimates = [abs(b - a) for a, b in zip(means, means[1:])]  # of w = 1, 2, ...
        w_n = result.nonlinear_level
        assert 1 <= w_n < 5
        assert result.nonlinear_estimate == estimates[w_n - 1] <= result.nonlinear_target
        assert all(e > result.nonlinear_target for e in estimates[:w_n - 1])
        assert result.nonlinear_mean == means[w_n]
        assert result.reference_qoi == ref_linear + means[w_n]

    @pytest.mark.parametrize("N, levels, reference_level", [(1, (1, 2), 4), (2, (1, 2), 3)])
    def test_scaled_charges_escalate(self, N, levels, reference_level):
        # charges in kT/e units (x 4 pi l_B): |u| reaches ~5 and N(y) is O(Q)
        charges = [c[:3] + [7046.0 * c[3]] for c in ACCEPTANCE_CHARGES]
        config = harness.RunConfig(charges_inline=charges, grid_n=17, N=N, alpha=(3.0,) * N,
                                   levels=levels, reference_level=reference_level)
        result = harness.run_study(config)
        means, errors, ref = all_knot_study(config)
        assert result.nonlinear_level == reference_level
        assert result.knot_solves == result.reference_eta
        assert abs(result.nonlinear_mean) > 1e-3 * abs(ref)
        assert abs(result.reference_qoi - ref) <= 1e-12 * abs(ref)
        for r, mean, err in zip(result.records, means, errors):
            assert abs(r.qoi_mean - mean) <= 1e-12 * abs(mean)
            assert abs(r.error - err) <= 1e-12 * abs(ref)

    def test_linear_parts_match_assembled_rhs(self):
        config = small_config(charges_inline=ACCEPTANCE_CHARGES, N=2, alpha=(3.0, 2.0),
                              grid_n=17, kappa2=(0.0, 0.0, 0.5))
        solver = harness.KnotSolver(config)
        ys = np.array([[0.0, 0.0], [0.5, -1.0], [-0.7, 0.3], [1.0, 1.0]])
        for y, value in zip(ys, solver.linear_parts(ys)):
            charges = harness.shifted_charges(solver.coeffs.charges, config.alpha,
                                              harness.SQRT3 * y, solver.domain)
            rhs = pde.assemble_rhs(solver.domain, solver.dmap,
                                   replace(solver.coeffs, charges=charges), None, solver.grid)
            ref = solver.adjoint.z @ rhs.flat
            assert abs(value - ref) <= 1e-14 * abs(ref)

    @staticmethod
    def every_axis_per_knot(solver, ys):
        """z.b with all three axes contracted per knot, in 2^16-float knot chunks."""
        charges = solver.coeffs.charges
        positions = harness.shifted_positions(np.array([c.position for c in charges]),
                                              solver.config.alpha,
                                              harness.SQRT3 * np.asarray(ys, dtype=float),
                                              solver.domain)
        interior = solver.grid.interior
        Z = solver.adjoint.z.reshape(interior.shape[:-1])
        step = max(1, 2**16 // (len(charges) * Z.shape[1] * Z.shape[2]))
        out = []
        for s in range(0, len(positions), step):
            amp, (gx, gy, gz) = pde.gaussian_factors(interior.axes, charges, positions[s:s + step])
            t = np.einsum("qcij,qcj->qci", np.einsum("ijk,qck->qcij", Z, gz), gy)
            out.append(np.einsum("qci,qci,c->q", t, gx, amp))
        return np.concatenate(out)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_linear_parts_bits_with_unshifted_axes_contracted_once(self, N, monkeypatch):
        # 50 charges fit one chunk of 2^16 / 15^2 = 291, so contracting the
        # unshifted axes once per charge must leave every bit as it was;
        # in chunks of 7 charges the partial sums may move the last bits
        rng = np.random.default_rng(11)
        charges = np.column_stack([rng.uniform(20.0, 50.0, (50, 3)), rng.uniform(-1, 1, 50)])
        config = small_config(charges_inline=charges.tolist(), N=N, alpha=(2.0,) * N,
                              grid_n=17, kappa2=(0.0, 0.0, 0.5))
        solver = harness.KnotSolver(config)
        ys = rng.uniform(-1.0, 1.0, (40, N))
        ref = self.every_axis_per_knot(solver, ys)
        assert np.array_equal(solver.linear_parts(ys), ref)
        monkeypatch.setattr(harness, "_CHUNK_FLOATS", 7 * 15**2)
        assert np.max(np.abs(solver.linear_parts(ys) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_charge_out_of_box_raises_before_any_solve(self, monkeypatch):
        calls = []
        newton = pde.newton_solve_npbe

        def counting(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve_npbe", counting)
        # sqrt(3) * 25 > 35: the knots y = +-1 push the charge out of the box
        with pytest.raises(ConfigError, match="key 'alpha' in block 'stochastic': .*leaves the box"):
            harness.run_study(small_config(alpha=(25.0,), levels=(0, 1), reference_level=2))
        assert calls == []


class TestKnotSolver:
    def test_forms_no_point_array(self, monkeypatch):
        # the grid's tags and a knot solve read the lattices' axes, never their points
        def forbidden(self, dtype=None, copy=None):
            raise AssertionError("a lattice's points were formed")

        monkeypatch.setattr(geometry.Lattice, "__array__", forbidden)
        solver = harness.KnotSolver(small_config(grid_n=9))
        _, info = solver.solve([0.5])
        assert math.isfinite(info.qoi) and info.qoi != 0.0

    def tight_qoi(self, tight_solve, solver, y, rtol=1e-14):
        """QoI of the knot's direct sparse Newton solve, run to ||R|| <= rtol ||b||."""
        charges = harness.shifted_charges(solver.coeffs.charges, solver.config.alpha,
                                          harness.SQRT3 * np.asarray(y), solver.domain)
        return pde.qoi_integral(tight_solve(solver.domain, solver.dmap,
                                            replace(solver.coeffs, charges=charges), None,
                                            solver.grid, rtol))

    @pytest.mark.parametrize("q, min_steps", [(20.0, 1), (2000.0, 2)])
    def test_nonlinear_knot_matches_tight_solve(self, q, min_steps, tight_solve):
        config = small_config(kappa2=(0.0, 0.0, 0.5), charges_inline=[[35.0, 35.0, 35.0, q]])
        solver = harness.KnotSolver(config)
        _, info = solver.solve([0.5])
        # rtol 1e-13: eps = 70 puts the rounding floor of ||R|| near 2e-14 ||b||
        ref = self.tight_qoi(tight_solve, solver, [0.5], rtol=1e-13)
        assert abs(info.qoi - ref) <= 1e-12 * abs(ref)
        assert 0.0 <= info.qoi_error <= 1e-12 * abs(info.qoi)
        assert info.iterations >= min_steps

    @pytest.mark.parametrize("n", [9, 17])
    def test_kte_knots_match_tight_solve(self, n, tight_solve):
        # the acceptance charges in units of kT/e take 3-5 Newton steps a knot;
        # error <= estimate is not gated: at n = 17, y = (-0.7, 0.3) the error
        # was 1.2e-15 relative against an estimate of 3.3e-16
        charges = [[x, y, z, 7046.0 * q] for x, y, z, q in ACCEPTANCE_CHARGES]
        solver = harness.KnotSolver(harness.RunConfig(charges_inline=charges, N=2,
                                                      alpha=(3.0, 3.0), grid_n=n))
        for y in ([0.0, 0.0], [1.0, -1.0], [-0.7, 0.3]):
            _, info = solver.solve(y)
            ref = self.tight_qoi(tight_solve, solver, y, rtol=1e-13)
            assert abs(info.qoi - ref) <= 1e-12 * abs(ref)

    def test_qoi_estimate_of_an_exact_residual(self, monkeypatch):
        # r = 0: u solves the discrete problem, so the QoI is w.u and no V-cycle runs
        adjoint = harness.KnotSolver(small_config(kappa2=(0.0, 0.0, 0.5))).adjoint
        monkeypatch.setattr(adjoint, "vcycle", None)
        u = np.linspace(-1.0, 2.0, len(adjoint.weights))
        assert pde._qoi_estimate(adjoint, u, np.zeros_like(u)) == (pde._dot(adjoint.weights, u),
                                                                    0.0)

    @pytest.mark.parametrize("q", [20.0, 2000.0])
    def test_qoi_estimate_at_a_tight_solution(self, q, tight_solve):
        # at u* the corrected QoI is w.u* to rounding and the estimate nearly
        # vanishes: 2.8e-15 and 1.2e-23 relative at q = 20, 3.6e-15 and
        # 1.2e-19 at q = 2000
        solver = harness.KnotSolver(small_config(kappa2=(0.0, 0.0, 0.5),
                                                 charges_inline=[[35.0, 35.0, 35.0, q]]))
        charges = harness.shifted_charges(solver.coeffs.charges, solver.config.alpha,
                                          np.zeros(1), solver.domain)
        coeffs = replace(solver.coeffs, charges=charges)
        u = tight_solve(solver.domain, solver.dmap, coeffs, None, solver.grid, rtol=1e-13).flat
        b = pde.assemble_rhs(solver.domain, solver.dmap, coeffs, None, solver.grid).flat
        r = npbe_residual(solver.op.matrix, solver.reaction.flat, b, u)
        qoi, estimate = pde._qoi_estimate(solver.adjoint, u, r)
        wu = pde._dot(solver.adjoint.weights, u)
        assert abs(qoi - wu) <= 1e-13 * abs(wu)
        assert 0.0 <= estimate <= 1e-12 * abs(wu)

    def test_coarse_grid_knots_match_direct_newton(self, monkeypatch, tight_solve):
        # N = 3, n = 9, default width 2h: the V-cycle is not the exact
        # inverse, so e = V-cycle(R(u~)) in the stop rule is only approximate
        config = harness.RunConfig(charges_inline=ACCEPTANCE_CHARGES, N=3, alpha=(3.0,) * 3,
                                   grid_n=9, levels=(1, 2, 3, 4, 5), reference_level=7)
        solve, knots = harness.KnotSolver.solve, []

        def recording_solve(self, y):
            u, info = solve(self, y)
            knots.append((self, y, info))
            return u, info

        monkeypatch.setattr(harness.KnotSolver, "solve", recording_solve)
        result = harness.run_study(config)
        assert result.nonlinear_level == 2 and len(knots) == result.knot_solves == 25
        for solver, y, info in knots:
            ref = self.tight_qoi(tight_solve, solver, y)
            assert abs(info.qoi - ref) <= 1e-12 * abs(ref)

    def test_knot_vcycles_are_cg_iterations_plus_estimates(self, monkeypatch):
        # one V-cycle per CG iteration and one per step's error estimate: CG
        # does not precondition the residual it stops on
        config = small_config(kappa2=(0.0, 0.0, 0.5), grid_n=17,
                              charges_inline=[[35.0, 35.0, 35.0, 2000.0]])
        solver = harness.KnotSolver(config)
        vcycle = solver.adjoint.vcycle
        applied = []

        def counting(r):
            applied.append(1)
            return vcycle(r)

        monkeypatch.setattr(solver.adjoint, "vcycle", counting)
        _, info = solver.solve([0.5])
        assert info.iterations >= 2
        assert len(applied) == sum(info.cg_iterations) + info.iterations

    def test_zero_charge_knot_is_exact_without_a_step(self):
        config = small_config(kappa2=(0.0, 0.0, 0.5), charges_inline=[[35.0, 35.0, 35.0, 0.0]],
                              levels=(0, 1), reference_level=2)
        u, info = harness.KnotSolver(config).solve([0.0])
        assert info.iterations == 0 and not np.any(u.values)
        assert info.qoi == 0.0 and info.qoi_error == 0.0
        result = harness.run_study(config)
        assert [r.qoi_mean for r in result.records] == [0.0, 0.0]

    def test_centred_dipole_knot_converges(self, tight_solve):
        # u is odd about the centre, so Q cancels to rounding and only the
        # scale w.|u| makes the stopping test reachable
        config = small_config(kappa2=(0.0, 0.0, 0.5), levels=(0, 1), reference_level=2,
                              charges_inline=[[30.0, 35.0, 35.0, 1.0], [40.0, 35.0, 35.0, -1.0]])
        solver = harness.KnotSolver(config)
        u, info = solver.solve([0.0])
        scale = pde.qoi_integral(pde.GridField(solver.grid, np.abs(u.values)))
        assert abs(info.qoi) <= 1e-12 * scale
        assert abs(info.qoi - self.tight_qoi(tight_solve, solver, [0.0])) <= 1e-12 * scale
        assert 0.0 <= info.qoi_error <= 1e-12 * scale
        result = harness.run_study(config)
        assert result.failure is None
        assert all(math.isfinite(r.qoi_mean) for r in result.records)

    def test_knot_bits_do_not_depend_on_blas_threads(self):
        # 31^3 interior nodes: OpenBLAS would split each dot product over
        # two threads and change the last bits of the QoI
        script = ("from npbe_uq import harness\n"
                  "config = harness.RunConfig(charges_inline=[[35.0, 35.0, 35.0, 20.0]],\n"
                  "    grid_n=33, levels=(0,), reference_level=1, N=1, alpha=(2.0,),\n"
                  "    kappa2=(0.0, 0.0, 0.5))\n"
                  "solver = harness.KnotSolver(config)\n"
                  "_, info = solver.solve([0.5])\n"
                  "print(repr((info.qoi, info.qoi_error, info.residual_history)))\n"
                  "print(repr(solver.linear_parts([[0.5], [-0.25]]).tolist()))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, env=dict(os.environ, PYTHONPATH=path,
                                                    OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")}
        assert len(outs) == 1

    def test_width_below_spacing_warns(self):
        with pytest.warns(UserWarning, match=r"below the grid spacing h = 4\.375.* = 0\.016"):
            harness.KnotSolver(small_config(charge_width=2.0, grid_n=17))

    def test_default_width_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness.KnotSolver(small_config(grid_n=17))


class TestSvg:
    def test_empty_records_still_valid(self):
        text = harness.convergence_svg([])
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_points_drawn(self):
        recs = [harness.ConvergenceRecord(w, 2**w, 0.0, 10.0**-w, 0.0)
                for w in (1, 2, 3)]
        text = harness.convergence_svg(recs)
        assert text.count("<circle") == 3


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "stochastic:\n  N: 1\n  alpha: [2.0]\n"
            "grid:\n  n: 9\n"
            "coefficients:\n  kappa2: [0.0, 0.0, 0.0]\n"
            "charges:\n  inline: [[35, 35, 35, 1.0]]\n"
            "sparse_grid:\n  levels: [0, 1]\n  reference_level: 2\n"
            + extra
        )
        return str(path)

    def write_with(self, tmp_path, block, **entries):
        """Path of the test config with the given entries set in block."""
        path = pathlib.Path(self.write_config(tmp_path))
        raw = yaml.safe_load(path.read_text())
        raw.setdefault(block, {}).update(entries)
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def test_solve(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", self.write_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "qoi integral" in out
        fields = dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln)
        cg = [int(v) for v in fields["cg iterations per newton step"].strip("[]").split(",")]
        assert len(cg) == int(fields["newton iterations"]) >= 1
        assert all(1 <= c <= 25 for c in cg)
        qoi, estimate = float(fields["qoi integral"]), float(fields["qoi error estimate"])
        assert 0.0 <= estimate <= 1e-12 * abs(qoi)
        # over the box: a positive unit charge gives u > 0 inside and 0 on the boundary
        lo, hi = (float(v) for v in fields["potential range"].strip("[]").split(","))
        assert lo == 0.0 and hi > 0.0

    def test_solve_with_y(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", self.write_config(tmp_path), "--y", "0.5"])
        assert rc == 0
        assert "newton iterations" in capsys.readouterr().out

    def test_solve_bad_y_length(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", self.write_config(tmp_path),
                       "--y", "0.1,0.2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_study(self, tmp_path, capsys):
        rc = cli.main(["study", "--config", self.write_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("w,eta,qoi_mean")
        assert "# slope" in out
        line, = [ln for ln in out.splitlines() if ln.startswith("# nonlinear remainder: ")]
        assert line.startswith("# nonlinear remainder: level ") and "reference knots" in line
        lines = out.splitlines()
        assert re.fullmatch(r"# adjoint: [1-9][0-9]* CG iterations", lines[lines.index(line) + 1])

    def test_study_reports_failed_levels(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        rc = cli.main(["study", "--config", self.write_config(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        # the first knot fails, so w_N = 0 and both levels show a NaN mean and error
        assert lines[1:3] == ["0,1,nan,nan,0.000", "1,3,nan,nan,0.000"]
        assert lines[3] == "# knot y=0.0 failed at level 0: " \
                           "Newton failed to converge in 50 iterations"
        # the failed knot fails the reference: no error is called "not positive"
        assert "# no rate fit: need at least 2 positive errors to fit a rate, got 0; " \
               "levels [0, 1] have a NaN error" in lines

    def test_failed_study_prints_one_knot_line(self, tmp_path, capsys, monkeypatch):
        # the knots off y = 0 fail at w_N = 1: one line names the knot, level 0
        # keeps the mean of the study without a failure, and every error is NaN
        path = self.write_config(tmp_path)
        assert cli.main(["study", "--config", path]) == 0
        healthy = capsys.readouterr().out.splitlines()[:3]
        solve = harness.KnotSolver.solve

        def fail_off_centre(self, y):
            if np.any(y != 0.0):
                raise ConvergenceError("stalled off centre")
            return solve(self, y)

        monkeypatch.setattr(harness.KnotSolver, "solve", fail_off_centre)
        assert cli.main(["study", "--config", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        w0, eta0, mean0, _, wall0 = healthy[1].split(",")
        assert lines[:3] == [healthy[0], f"{w0},{eta0},{mean0},nan,{wall0}", "1,3,nan,nan,0.000"]
        knot = [ln for ln in lines if ln.startswith("# knot y=")]
        assert knot == ["# knot y=-1.0 failed at level 1: stalled off centre"]
        assert not any(ln.startswith("# level ") for ln in lines)

    @pytest.mark.parametrize("bad", ["missing-config", "unclosed-bracket", "pqr-byte-0xff"])
    def test_bad_input_file_is_one_error_line(self, tmp_path, capsys, bad):
        path = tmp_path / "cfg.yaml"  # not written for missing-config
        pqr = tmp_path / "bad.pqr"
        pqr.write_bytes(b"ATOM 1 N ALA 1 35.0 35.0 35.0 1.0 1.5\n\xff\n")
        text = {"unclosed-bracket": "charges: {inline: [[35, 35, 35, 1.0]]}\ngrid: {n: [9\n",
                "pqr-byte-0xff": yaml.safe_dump({"charges": {"path": str(pqr)}, "grid": {"n": 9}})}
        if bad in text:
            path.write_text(text[bad])
        rc = cli.main(["study", "--config", str(path)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        where = "key 'path' in block 'charges'" if bad == "pqr-byte-0xff" else repr(str(path))
        assert where in err

    def test_one_level_study_fits_no_rate(self, tmp_path, capsys):
        # one error cannot give a slope: the study says so rather than nothing
        rc = cli.main(["study", "--config", self.write_with(tmp_path, "sparse_grid", levels=[1])])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "# no rate fit: need at least 2 positive errors to fit a rate, got 1" in lines
        assert not any(ln.startswith("# slope") for ln in lines)

    def test_study_of_zero_charge_fits_no_rate(self, tmp_path, capsys):
        # every level error is exactly 0: the study is correct, and says why it fits no rate
        rc = cli.main(["study", "--config",
                       self.write_with(tmp_path, "charges", inline=[[35, 35, 35, 0.0]])])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "error" not in err
        lines = out.splitlines()
        assert [ln.split(",")[3] for ln in lines[1:3]] == ["0", "0"]
        assert "# no rate fit: need at least 2 positive errors to fit a rate, got 0; " \
               "levels [0, 1] have an error that is not positive" in lines
        assert not any(ln.startswith("# slope") for ln in lines)

    def test_study_slope_names_left_out_levels(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "fit_rate", lambda records: harness.RateFit(-1.5, 0.99, [1]))
        assert cli.main(["study", "--config", self.write_config(tmp_path)]) == 0
        assert "# slope -1.5000, r^2 0.9900, levels [1] left out (error not positive)" \
            in capsys.readouterr().out.splitlines()

    def test_bounds(self, tmp_path, capsys):
        extra = ("bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n")
        rc = cli.main(["bounds", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("name,value")
        row = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert abs(float(row["a_coeff"]) - 40.70832485243234) <= 1e-9

    def test_bounds_overflow_prints_inf(self, tmp_path, capsys):
        # cosh and sinh of C_max u_norm = 800 overflow a float: the bound is +inf
        extra = ("bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n"
                 "  kappa2_max: 1.0\n  C_max: 1.0\n  u_norm: 800.0\n")
        rc = cli.main(["bounds", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        row = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert row["nonlinear_term"] == "inf" and row["m_estimate_l2"] == "inf"
        assert "nan" not in out

    def test_region(self, tmp_path, capsys):
        extra = "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  N: 2\n"
        rc = cli.main(["region", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        row = dict(line.split(",", 1) for line in out.strip().splitlines()
                   if line.count(",") == 1)
        assert abs(float(row["theta"]) - 0.14644660940672619) <= 1e-12
        assert "w,eta,regime,bound" in out

    def test_region_at_high_dimension(self, tmp_path, capsys):
        # nested CC on a downward-closed L: eta = sum over i in L of prod_d dm(i_d), with
        # dm(1) = 1, dm(2) = 2, dm(k) = 2^(k-2); for SM that is the sum of the coefficients
        # of x^s, s <= w, in g(x)^N, g = dm(1) + dm(2) x + dm(3) x^2 + ...
        N, levels = 16, [1, 2, 3]
        top = max(levels)
        g = [1, 2] + [2 ** (k - 2) for k in range(3, top + 2)]
        power = [1] + [0] * top
        for _ in range(N):
            power = [sum(power[j] * g[s - j] for j in range(s + 1)) for s in range(top + 1)]
        extra = f"region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  N: {N}\n  levels: {levels}\n"
        rc = cli.main(["region", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        rows = out.strip().splitlines()
        table = [line.split(",") for line in rows[rows.index("w,eta,regime,bound") + 1:]]
        assert [(int(w), int(eta)) for w, eta, *_ in table] == \
            [(w, sum(power[:w + 1])) for w in levels]

    def test_missing_bounds_block(self, tmp_path, capsys):
        rc = cli.main(["bounds", "--config", self.write_config(tmp_path)])
        assert rc == 1
        assert "bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("command,block,key", [
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  N: 2\n", "R"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  radius: 2.0\n", "radius"),
        ("region", "region:\n  M: 1.0\n  a: one\n  R: 1.0\n", "a"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  levels: [1, x]\n", "levels"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  rule: XX\n", "rule"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  N: 2.5\n", "N"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  levels: [1.5]\n", "levels"),
        ("bounds", "bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n", "y_inf"),
        ("bounds", "bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n"
                   "  yinf: 0.5\n", "yinf"),
        ("bounds", "bounds:\n  b1: small\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "b1"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  M_tilde: -2.0\n", "M_tilde"),
        ("bounds", "bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n"
                   "  C_max: 0\n", "C_max"),
        ("bounds", "bounds:\n  b1: -0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "b1"),
        ("bounds", "bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: -0.5\n", "y_inf"),
        ("bounds", "bounds:\n  b1: 0.3\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "b1"),
        ("bounds", "bounds:\n  b1: 0.2\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "y_inf"),
    ], ids=["region-missing", "region-unknown", "region-non-numeric", "region-level",
            "region-rule", "region-fractional-N", "region-fractional-level", "bounds-missing",
            "bounds-unknown", "bounds-non-numeric", "region-M_tilde-negative",
            "bounds-C_max-zero", "bounds-b1-negative", "bounds-y_inf-negative",
            "bounds-small-b", "bounds-y-radius"])
    def test_bad_block_key_named(self, tmp_path, capsys, command, block, key):
        rc = cli.main([command, "--config", self.write_config(tmp_path, block)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and repr(key) in err

    @pytest.mark.parametrize("command,block,key", [
        ("region", "region:\n  M: -1.0\n  a: 1.0\n  R: 1.0\n", "M"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 0.0\n", "R"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  M_tilde: -2.0\n", "M_tilde"),
        ("bounds", "bounds:\n  b1: 0.1\n  binf: -0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "binf"),
        ("bounds", "bounds:\n  b1: 0.3\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "b1"),
        ("bounds", "bounds:\n  b1: 0.2\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n", "y_inf"),
    ], ids=["region-M-negative", "region-R-zero", "region-M_tilde-negative",
            "bounds-binf-negative", "bounds-small-b", "bounds-y-radius"])
    def test_out_of_range_value_names_block_and_key(self, tmp_path, capsys, command, block,
                                                    key):
        # as the study's errors do: the first line still starts with "error: "
        rc = cli.main([command, "--config", self.write_config(tmp_path, block)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: key {key!r} in block {command!r}: ")

    @pytest.mark.parametrize("block,key,kind", [
        (block, key, kind) for block, keys in harness.STUDY_KEYS.items()
        for key, (_, kind) in keys.items()])
    def test_study_key_of_wrong_kind_named(self, tmp_path, capsys, block, key, kind):
        def wrong(kind):
            """A value of the right shape whose innermost entries have the wrong kind."""
            if isinstance(kind, list):
                item, length = kind
                return [wrong(item)] * (length or 1)
            return {float: "x", int: 2.5, str: 5, bool: 1}[kind]

        path = self.write_with(tmp_path, block, **{key: wrong(kind)})
        rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: key {key!r} in block {block!r}: ") and " is not " in err

    @pytest.mark.parametrize("block,key,value,got", [
        ("coefficients", "eps", [-1, 70, 1], "(-1.0, 70.0, 1.0)"),
        ("coefficients", "eps", [0, 70, 1], "(0.0, 70.0, 1.0)"),
        ("coefficients", "kappa2", [0.0, 0.0, -0.5], "(0.0, 0.0, -0.5)"),
        ("geometry", "radii", [25.0, 15.0], "(25.0, 15.0)"),
        ("geometry", "radii", [0.0, 15.0], "(0.0, 15.0)"),
        ("charges", "width", -1.0, "-1.0"), ("charges", "width", 0.0, "0.0"),
        ("sparse_grid", "levels", [-1, 1], "(-1, 1)"),
        ("stochastic", "N", 4, "4"), ("stochastic", "alpha", [2.0, 3.0], "(2.0, 3.0)"),
        ("stochastic", "alpha", [-2.0], "(-2.0,)"), ("sparse_grid", "reference_level", 1, "1"),
        ("grid", "n", 21, "21"),
    ], ids=["eps", "eps-zero", "kappa2", "radii-order", "radii-zero", "width-neg", "width-zero",
            "level-neg", "N", "alpha-length", "alpha-neg", "reference-level", "grid-n"])
    def test_study_value_out_of_range_named(self, tmp_path, capsys, monkeypatch, block, key,
                                            value, got):
        # the config layer rejects it before the solver would warn about it or
        # solve, and quotes the rejected value
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        path = self.write_with(tmp_path, block, **{key: value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert caught == []
        assert err.startswith(f"error: key {key!r} in block {block!r}: ")
        assert err.endswith(f", got {got}\n")

    @pytest.mark.parametrize(*test_study_value_out_of_range_named.pytestmark[0].args,
                             **test_study_value_out_of_range_named.pytestmark[0].kwargs)
    def test_config_error_names_a_key_of_its_block(self, tmp_path, block, key, value, got):
        # the cases above, on the exception: violated is the key, and the message's block holds it
        with pytest.raises(ConfigError) as exc:
            harness.load_config(self.write_with(tmp_path, block, **{key: value}))
        named = re.match(r"key '(\w+)' in block '(\w+)': ", str(exc.value))
        assert named and named[2] == block
        assert exc.value.violated == named[1] == key and key in harness.STUDY_KEYS[block]

    def test_solve_grid_n_not_dyadic_named(self, tmp_path, capsys):
        rc = cli.main(["solve", "--config", self.write_with(tmp_path, "grid", n=21)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: key 'n' in block 'grid': ")

    def test_module_entry_point_prints_one_error_line(self, tmp_path):
        # python -m npbe_uq.cli: the exit status is main's, and a config error is one line
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        config = self.write_with(tmp_path, "grid", n=21)
        run = subprocess.run([sys.executable, "-m", "npbe_uq.cli", "solve", "--config", config],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert (run.returncode, run.stdout) == (1, "")
        line, = run.stderr.splitlines()
        assert line.startswith("error: key 'n' in block 'grid': ")
        assert "Traceback" not in run.stderr

    def test_study_two_charge_sources_named(self, tmp_path, capsys, monkeypatch):
        # inline charges and a PQR file: neither is dropped in silence
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        pqr = tmp_path / "two.pqr"
        pqr.write_text("ATOM 1 N ALA 1 35.0 35.0 35.0 1.0 1.5\n"
                       "ATOM 2 C ALA 1 36.0 35.0 35.0 -1.0 1.5\n")
        path = self.write_with(tmp_path, "charges", path=str(pqr))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert caught == []
        assert err.startswith("error: key 'path' in block 'charges': 'inline' is set too")

    def test_study_empty_levels_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)  # a solve would print
        path = self.write_with(tmp_path, "sparse_grid", levels=[])
        rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: key 'levels' in block 'sparse_grid': ")

    def test_study_repeated_levels_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)  # a solve would print
        rc = cli.main(["study", "--config", self.write_with(tmp_path, "sparse_grid",
                                                           levels=[1, 1])])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: key 'levels' in block 'sparse_grid': ")

    def test_region_overflow_prints_inf(self, tmp_path, capsys):
        # max(1, C1)^16 overflows a float: Q and the bound are +inf, not a traceback
        path = self.write_with(tmp_path, "region", M=1.0, a=1.0, R=1.0, N=16, M_tilde=1e20,
                               levels=[1])
        rc = cli.main(["region", "--config", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Q,inf" in out.splitlines() and out.endswith("1,33,algebraic,inf\n")
        assert "nan" not in out

    @pytest.mark.parametrize("entries", [{}, {"M_tilde": 1.0}], ids=["xi", "M_tilde"])
    def test_region_overflowing_radius_named(self, tmp_path, capsys, entries):
        # at M = 1e300 Theta is NaN and Xi -inf: without M_tilde the error named
        # that key, and with it the table printed nan
        path = self.write_with(tmp_path, "region", M=1e300, a=1.0, R=1.0, **entries)
        rc = cli.main(["region", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: keys 'M', 'a', 'R' in block 'region': ")
        assert len(err.splitlines()) == 1 and "M_tilde" not in err

    def test_region_cancelled_radius_named(self, tmp_path, capsys):
        # at M = 1e20 the closed form gives Theta = -0.0 and Xi = 0.0: the error
        # named sigma_star, which is no key of the block
        path = self.write_with(tmp_path, "region", M=1e20, a=1, R=1)
        rc = cli.main(["region", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: keys 'M', 'a', 'R' in block 'region': ")
        assert len(err.splitlines()) == 1 and "cancels" in err

    @pytest.mark.parametrize("entries,key", [({"N": 0}, "N"), ({"levels": [-1]}, "levels"),
                                             ({"levels": []}, "levels")],
                             ids=["N-0", "level-neg", "levels-empty"])
    def test_region_error_prints_no_rows(self, tmp_path, capsys, entries, key):
        path = self.write_with(tmp_path, "region", M=1.0, a=1.0, R=1.0, **entries)
        rc = cli.main(["region", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: key {key!r} in block 'region': ")

    @pytest.mark.parametrize("command,block,line", [
        ("region", "region:\n  M: -1.0\n  a: 1.0\n  R: 1.0\n",
         "key 'M' in block 'region': M must be positive, got -1.0"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  N: 0\n",
         "key 'N' in block 'region': N must be >= 1, got 0"),
        ("region", "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  rule: XX\n",
         "key 'rule' in block 'region': unknown rule 'XX', not one of ('SM', 'TD', 'HC')"),
        ("bounds", "bounds:\n  b1: 0.3\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n",
         "key 'b1' in block 'bounds': 'b1' = 0.3 violates ||B||_1 < 1/4"),
    ], ids=["region-M", "region-N", "region-rule", "bounds-small-b"])
    def test_ledger_error_is_the_library_message_at_its_key(self, tmp_path, capsys, command,
                                                           block, line):
        # the check that rejects the input words the message; main adds the key
        rc = cli.main([command, "--config", self.write_config(tmp_path, block)])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["solve", "study", "bounds", "region"])
    def test_unknown_block_rejected_by_every_subcommand(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # bounds and region read only their own block, and ran past a misspelt one
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        extra = ("bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n"
                 "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  levels: [1]\n"
                 "regoin:\n  M: 1.0\n")
        rc = cli.main([command, "--config", self.write_config(tmp_path, extra)])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (1, "", "error: unknown config block 'regoin'\n")

    @pytest.mark.parametrize("entries,key", [
        ({"box_max": [40, 40, 40]}, "radii"),
        ({"box_max": [70, 70, 80]}, "box_max"),
        ({"box_min": [70, 70, 70], "box_max": [0, 0, 0]}, "box_max"),
    ], ids=["sphere-outside-box", "unequal-spacing", "inverted-box"])
    def test_study_geometry_out_of_range_named(self, tmp_path, capsys, monkeypatch, entries,
                                               key):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        path = self.write_with(tmp_path, "geometry", **entries)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert caught == []
        assert err.startswith(f"error: key {key!r} in block 'geometry': ")
        assert ("sphere" in err) == (key == "radii")

    @pytest.mark.parametrize("block,key,value", [
        ("charges", "path", "missing.pqr"),
        ("output", "csv_path", "missing/study.csv"),
        ("output", "svg_path", "missing/study.svg"),
        ("output", "csv_path", "."),
    ], ids=["charges-path", "csv-dir", "svg-dir", "csv-is-dir"])
    def test_bad_file_named_before_any_knot(self, tmp_path, capsys, monkeypatch,
                                            block, key, value):
        monkeypatch.setattr(pde, "newton_solve_npbe", failing_newton)
        path = self.write_with(tmp_path, block, **{key: str(tmp_path / value)})
        rc = cli.main(["study", "--config", path])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: key {key!r} in block {block!r}")

    def test_solve_negative_first_y(self, tmp_path, capsys):
        path = self.write_with(tmp_path, "stochastic", N=2, alpha=[2.0, 2.0])
        outs = []
        for y in (["--y", "-0.5,0.3"], ["--y=-0.5,0.3"]):
            assert cli.main(["solve", "--config", path] + y) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "qoi integral" in outs[0]

    @pytest.mark.parametrize("y,message", [("2.5", "y_1 = 2.5 is not in"),
                                           ("-1.01", "y_1 = -1.01 is not in"),
                                           ("nan", "y_1 = nan is not in"),
                                           ("-inf", "y_1 = -inf is not in"),
                                           ("abc", "comma-separated numbers")])
    def test_solve_bad_y_rejected(self, tmp_path, capsys, y, message):
        rc = cli.main(["solve", "--config", self.write_config(tmp_path), f"--y={y}"])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_readme_example_config(self, tmp_path, capsys, monkeypatch):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
        with open(readme) as fh:
            readme = fh.read()
        text = readme.split("Example config:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        solve, = [ln.split("#")[0].split() for ln in readme.splitlines()
                  if ln.startswith("npbe-uq solve ")]
        harness.config_from_dict(yaml.safe_load(text))
        monkeypatch.chdir(tmp_path)  # the study writes study.csv and study.svg here
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        for command in ("bounds", "region"):
            assert cli.main([command, "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["study", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "w,eta,qoi_mean,error,wall_time_s"
        assert [ln.split(",")[0] for ln in lines[1:5]] == ["1", "2", "3", "4"]
        assert lines[5].startswith("# ")
        # the README's solve line, on the same config
        assert solve[-2:] == ["--y", "-0.5,0.3"]
        args = [str(path) if arg == "config.yaml" else arg for arg in solve[1:]]
        assert cli.main(args) == 0
        assert any(ln.startswith("qoi integral: ") for ln in capsys.readouterr().out.splitlines())
