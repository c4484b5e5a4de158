import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from npbe_uq import cli, geometry, harness, pde
from npbe_uq.errors import ConfigError, ConvergenceError, ParseError

PQR_OK = """\
REMARK  minimal pqr subset
ATOM      1  N   ALA      30.000  35.000  35.000  1.0000 1.5000
ATOM      2  O   ALA      40.000  35.000  35.000 -0.5000 1.4000
HETATM    3  X   LIG       0.000   0.000   0.000  9.0000 1.0000
ATOM      3  C   ALA      35.000  30.000  35.000  0.7000 1.7000
"""


def small_config(**kw):
    base = dict(charges_inline=[[35.0, 35.0, 35.0, 1.0]], grid_n=13,
                levels=(0,), reference_level=1, N=1, alpha=(2.0,),
                kappa2=(0.0, 0.0, 0.0))
    base.update(kw)
    return harness.RunConfig(**base)


class TestParsePqr:
    def test_atom_lines_parsed(self):
        pairs = harness.parse_pqr(PQR_OK)
        assert len(pairs) == 3
        pos, q = pairs[1]
        assert np.allclose(pos, [40.0, 35.0, 35.0], atol=0)
        assert q == -0.5

    def test_non_numeric_coordinate(self):
        bad = "ATOM 1 N ALA 1 abc 35.0 35.0 1.0 1.5\n"
        with pytest.raises(ParseError, match="line 1"):
            harness.parse_pqr(bad)

    def test_short_atom_line(self):
        with pytest.raises(ParseError, match="line 2"):
            harness.parse_pqr("REMARK x\nATOM 1 N ALA 1 2\n")

    def test_non_atom_lines_skipped(self):
        assert harness.parse_pqr("REMARK only\nTER\nEND\n") == []


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
        config = small_config(
            charges_inline=[[35, 35, 35, 1.0], [200, 35, 35, 1.0]],
            recenter_charges=False)
        with pytest.warns(UserWarning):
            charges = harness.ingest_charges(config)
        assert len(charges) == 1

    def test_pqr_file(self, tmp_path):
        path = tmp_path / "c.pqr"
        path.write_text(PQR_OK)
        config = small_config(charges_inline=[], charges_path=str(path))
        charges = harness.ingest_charges(config)
        assert len(charges) == 3
        assert charges[2].magnitude == 0.7

    def test_default_width_two_h(self):
        config = small_config(charge_width=None, grid_n=15)
        grid = config.grid()
        assert config.width(grid) == max(2.0 * grid.h, 1.0)


class TestShiftedCharges:
    def base(self):
        return [pde.Charge(np.array([35.0, 35.0, 35.0]), 1.0, 2.0)]

    def test_zero_shift_identical(self):
        out = harness.shifted_charges(self.base(), (2.0,), np.zeros(1))
        assert np.array_equal(out[0].position, [35.0, 35.0, 35.0])

    def test_axis_shift_amplitude(self):
        out = harness.shifted_charges(self.base(), (10.0,), np.array([0.1]))
        assert np.allclose(out[0].position, [36.0, 35.0, 35.0], atol=1e-12)

    def test_second_axis(self):
        out = harness.shifted_charges(self.base(), (1.0, 3.0), np.array([0.0, 1.0]))
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
        charges = harness.ingest_charges(config, grid)
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
        assert np.allclose(config.sphere_center, [35, 35, 35], atol=0)

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(N=4)

    def test_alpha_length_mismatch(self):
        with pytest.raises(ConfigError):
            harness.RunConfig(N=2, alpha=(1.0,))

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

    @pytest.mark.parametrize("key", ["newton_tol", "cg_tol"])
    def test_removed_solver_key_names_replacement(self, key):
        with pytest.raises(ConfigError, match=f"{key}.*removed.*fixed relative 1e-12"):
            harness.config_from_dict({"solver": {key: 1e-9}})

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
        with pytest.raises(ConfigError):
            harness.fit_rate([harness.ConvergenceRecord(1, 5, 0.0, 1e-3, 0.0)])


class TestRunStudy:
    def test_small_study_levels(self):
        config = small_config(levels=(0, 1), reference_level=2)
        result = harness.run_study(config)
        assert [r.w for r in result.records] == [0, 1]
        assert [r.eta for r in result.records] == [1, 3]
        assert result.reference_eta == 5
        assert all(math.isfinite(r.error) for r in result.records)

    def test_w0_mean_is_center_solve(self):
        config = small_config(levels=(0,), reference_level=1)
        result = harness.run_study(config)
        domain = config.domain
        grid = config.grid()
        charges = harness.ingest_charges(config, grid)
        coeffs = pde.PBECoefficients(np.array(config.eps), np.array(config.kappa2),
                                     charges, 0.0)
        u, _ = pde.newton_solve_npbe(domain, geometry.DomainMap([]), coeffs, None, grid,
                                     tol=1e-13, cg_tol=1e-13)
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

    def test_each_reference_knot_solved_once(self, monkeypatch):
        solve = pde.newton_solve_npbe
        calls, ticks = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pde, "newton_solve_npbe", counting)
        result = harness.run_study(small_config(levels=(0, 1), reference_level=3),
                                   progress=lambda done, total: ticks.append((done, total)))
        eta = result.reference_eta
        assert len(calls) == eta
        assert ticks[-1] == (eta, eta)
        assert all(a[0] < b[0] for a, b in zip(ticks, ticks[1:]))

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
        diags, solve = sp.diags, harness.KnotSolver.solve

        def counting_diags(*args, **kwargs):
            built.append(1)
            return diags(*args, **kwargs)

        def counting_solve(self, y):
            u, info = solve(self, y)
            later_steps.append(max(info.iterations - 1, 0))
            return u, info

        monkeypatch.setattr(sp, "diags", counting_diags)
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

    def test_newton_failure_recorded_as_nan(self, tmp_path):
        out = tmp_path / "study.csv"
        result = harness.run_study(small_config(levels=(0, 1), reference_level=2,
                                                max_newton=0, csv_path=str(out)))
        assert all(r.failed and math.isnan(r.error) for r in result.records)
        assert all("Newton failed to converge" in r.reason for r in result.records)
        assert all(len(r.failed_at) == 1 for r in result.records)
        assert out.read_text() == result.csv_text

    def test_reference_failure_fails_every_level(self, monkeypatch):
        solve = harness.KnotSolver.solve

        def fail_off_centre(self, y):
            if np.any(y != 0.0):
                raise ConvergenceError("stalled off centre")
            return solve(self, y)

        monkeypatch.setattr(harness.KnotSolver, "solve", fail_off_centre)
        rec, = harness.run_study(small_config()).records  # level 0 solves only y = 0
        assert rec.failed and math.isnan(rec.error) and math.isfinite(rec.qoi_mean)
        assert rec.failed_at == (-1.0,)
        assert rec.reason == "reference level 1: stalled off centre"

    def test_wall_time_covers_knot_solves(self):
        result = harness.run_study(small_config(levels=(0, 1), reference_level=2,
                                                grid_n=21, deterministic_csv=False))
        printed = [float(line.split(",")[-1]) for line in result.csv_text.splitlines()[1:]]
        assert all(t > 0.0 for t in printed)
        # the finest level's knots are a superset of the coarsest's
        assert result.records[-1].wall_time >= result.records[0].wall_time


class TestKnotSolver:
    def tight_qoi(self, solver, y):
        """QoI of a direct Newton solve with a tight l2 stop."""
        charges = harness.shifted_charges(solver.coeffs.charges, solver.config.alpha,
                                          harness.SQRT3 * np.asarray(y), solver.domain)
        u, _ = pde.newton_solve_npbe(solver.domain, solver.dmap,
                                     replace(solver.coeffs, charges=charges), None,
                                     solver.grid, tol=1e-13, cg_tol=1e-13)
        return pde.qoi_integral(u)

    @pytest.mark.parametrize("q, min_steps", [(20.0, 1), (2000.0, 2)])
    def test_nonlinear_knot_matches_tight_solve(self, q, min_steps):
        config = small_config(kappa2=(0.0, 0.0, 0.5), charges_inline=[[35.0, 35.0, 35.0, q]])
        solver = harness.KnotSolver(config)
        _, info = solver.solve([0.5])
        ref = self.tight_qoi(solver, [0.5])
        assert abs(info.qoi - ref) <= 1e-12 * abs(ref)
        assert 0.0 <= info.qoi_error <= 1e-12 * abs(info.qoi)
        assert info.iterations >= min_steps

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

    def test_centred_dipole_knot_converges(self):
        # u is odd about the centre, so Q cancels to rounding and only the
        # scale w.|u| makes the stopping test reachable
        config = small_config(kappa2=(0.0, 0.0, 0.5), levels=(0, 1), reference_level=2,
                              charges_inline=[[30.0, 35.0, 35.0, 1.0], [40.0, 35.0, 35.0, -1.0]])
        solver = harness.KnotSolver(config)
        u, info = solver.solve([0.0])
        scale = solver.grid.node_weights() @ np.abs(u.flat)
        assert abs(info.qoi) <= 1e-12 * scale
        assert abs(info.qoi - self.tight_qoi(solver, [0.0])) <= 1e-12 * scale
        assert 0.0 <= info.qoi_error <= 1e-12 * scale
        result = harness.run_study(config)
        assert not any(r.failed for r in result.records)
        assert all(math.isfinite(r.qoi_mean) for r in result.records)

    def test_knot_bits_do_not_depend_on_blas_threads(self):
        # 23^3 interior nodes: OpenBLAS would split each dot product over
        # two threads and change the last bits of the QoI
        script = ("from npbe_uq import harness\n"
                  "config = harness.RunConfig(charges_inline=[[35.0, 35.0, 35.0, 20.0]],\n"
                  "    grid_n=25, levels=(0,), reference_level=1, N=1, alpha=(2.0,),\n"
                  "    kappa2=(0.0, 0.0, 0.5))\n"
                  "_, info = harness.KnotSolver(config).solve([0.5])\n"
                  "print(repr((info.qoi, info.qoi_error, info.residual_history)))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, env=dict(os.environ, PYTHONPATH=path,
                                                    OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")}
        assert len(outs) == 1

    def test_width_below_spacing_warns(self):
        with pytest.warns(UserWarning, match=r"below the grid spacing h = 5\.833.* = 0\.098"):
            harness.KnotSolver(small_config(charge_width=2.0, grid_n=13))

    def test_default_width_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness.KnotSolver(small_config(grid_n=13))


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
            "grid:\n  n: 13\n"
            "coefficients:\n  kappa2: [0.0, 0.0, 0.0]\n"
            "charges:\n  inline: [[35, 35, 35, 1.0]]\n"
            "sparse_grid:\n  levels: [0, 1]\n  reference_level: 2\n"
            + extra
        )
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

    def test_study_reports_failed_levels(self, tmp_path, capsys):
        extra = "solver:\n  max_newton: 0\n"
        rc = cli.main(["study", "--config", self.write_config(tmp_path, extra)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        failed = [ln for ln in lines if ln.startswith("# level ")]
        assert [ln.split()[2] for ln in failed] == ["0", "1"]
        assert all(" failed at y=" in ln and "Newton failed" in ln for ln in failed)
        assert lines.index(failed[0]) == 3  # after the header and both CSV rows

    def test_bounds(self, tmp_path, capsys):
        extra = ("bounds:\n  b1: 0.1\n  binf: 0.1\n  y0_inf: 1.0\n  y_inf: 0.5\n")
        rc = cli.main(["bounds", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("name,value")
        row = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert abs(float(row["a_coeff"]) - 40.70832485243234) <= 1e-9

    def test_region(self, tmp_path, capsys):
        extra = "region:\n  M: 1.0\n  a: 1.0\n  R: 1.0\n  N: 2\n"
        rc = cli.main(["region", "--config", self.write_config(tmp_path, extra)])
        out = capsys.readouterr().out
        assert rc == 0
        row = dict(line.split(",", 1) for line in out.strip().splitlines()
                   if line.count(",") == 1)
        assert abs(float(row["theta"]) - 0.14644660940672619) <= 1e-12
        assert "w,eta,regime,bound" in out

    def test_missing_bounds_block(self, tmp_path, capsys):
        rc = cli.main(["bounds", "--config", self.write_config(tmp_path)])
        assert rc == 1
        assert "bounds" in capsys.readouterr().err
