"""Command-line entry points.

Subcommands: solve (single NPBE solve at a parameter point), study (the
sparse-grid convergence study), bounds (the closed-form perturbation bound
ledger), region (analyticity-region radii and sparse-grid error constants).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import bounds as bounds_mod
from . import harness, region, smolyak
from .errors import ConfigError, NpbeUqError, RateFitError


def cmd_solve(args) -> int:
    config = harness.load_config(args.config)
    y = np.zeros(config.N)
    if args.y:
        try:
            y = np.array([float(t) for t in args.y.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--y needs comma-separated numbers: {exc}") from None
        if len(y) != config.N:
            raise ConfigError(f"--y needs {config.N} components")
        for k, yk in enumerate(y, start=1):
            if not abs(yk) <= 1.0:  # also rejects nan
                raise ConfigError(f"--y component y_{k} = {yk} is not in [-1, 1]")
    solver = harness.KnotSolver(config)
    u, info = solver.solve(y)
    grid = solver.grid
    print(f"grid {grid.shape[0]}^3, h = {grid.h:.4f}")
    print(f"newton iterations: {info.iterations}")
    print(f"cg iterations per newton step: {info.cg_iterations}")
    print(f"final residual: {info.residual_history[-1]:.3e}")
    print(f"qoi integral: {info.qoi:.12g}")
    print(f"qoi error estimate: {info.qoi_error:.3e}")
    # over the box: u holds the interior nodes, and the boundary value is 0
    lo, hi = u.values.min(initial=0.0), u.values.max(initial=0.0)
    print(f"potential range: [{lo:.6g}, {hi:.6g}]")
    return 0


def cmd_study(args) -> int:
    config = harness.load_config(args.config)

    def progress(done, total):
        print(f"\rknot solves: {done}/{total}", end="", file=sys.stderr, flush=True)

    result = harness.run_study(config, progress=progress)
    print(file=sys.stderr)
    print(result.csv_text, end="")
    if result.failure:
        y, message = result.failure
        print(f"# knot y={','.join(repr(v) for v in y)} failed at level "
              f"{result.nonlinear_level}: {message}")
    print(f"# nonlinear remainder: level {result.nonlinear_level}, mean "
          f"{result.nonlinear_mean:.6g}, estimate {result.nonlinear_estimate:.3g} "
          f"(target {result.nonlinear_target:.3g}), {result.knot_solves} knot solves "
          f"of {result.reference_eta} reference knots")
    print(f"# adjoint: {result.adjoint_cg.iterations} CG iterations")
    try:
        fit = harness.fit_rate(result.records)
    except RateFitError as exc:  # e.g. one level, zero charges, or a failed knot
        print(f"# no rate fit: {exc}")
    else:
        left_out = (f", levels {fit.excluded} left out (error not positive)"
                    if fit.excluded else "")
        print(f"# slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f}{left_out}")
    if config.csv_path:
        print(f"# csv written to {config.csv_path}")
    if config.svg_path:
        print(f"# svg written to {config.svg_path}")
    return 1 if result.failure else 0


def cmd_bounds(args) -> int:
    fields = dataclasses.fields(bounds_mod.BoundsInput)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    kinds = {f.name: int if f.type in (int, "int") else float for f in fields}
    blk = harness.read_block(harness.load_raw(args.config), "bounds", kinds, required)
    inp = bounds_mod.BoundsInput(**blk)
    rows = [("b1", inp.b1), ("binf", inp.binf),
            ("y0_inf", inp.y0_inf), ("y_inf", inp.y_inf)]
    rows += list(bounds_mod.prop_a_bounds(inp).as_dict().items())
    rows += [("a_coeff", bounds_mod.a_coeff(inp)),
             ("b_coeff", bounds_mod.b_coeff(inp)),
             ("nonlinear_term", bounds_mod.nonlinear_term_bound(inp)),
             ("forcing_term", bounds_mod.forcing_term_bound(inp)),
             ("m_estimate_l2", bounds_mod.m_estimate(inp))]
    print("name,value")
    for name, value in rows:
        print(f"{name},{value:.12g}")
    return 0


def cmd_region(args) -> int:
    kinds = {"M": float, "a": float, "R": float, "N": int, "M_tilde": float,
             "levels": [int, None], "rule": str}
    blk = harness.read_block(harness.load_raw(args.config), "region", kinds, ("M", "a", "R"))
    N, levels, rule = blk.get("N", 1), blk.get("levels", (1, 2, 3, 4, 5)), blk.get("rule", "SM")
    smolyak.check_levels(rule, levels)
    est = region.region_estimate(blk["M"], blk["a"], blk["R"])
    # the solution-norm bound doubles as the polyellipse sup estimate
    m_tilde = blk.get("M_tilde", est.xi)
    # every row is built before any is printed, so an error leaves stdout empty
    rows = [f"{name},{getattr(est, name):.12g}" for name in ("theta", "xi", "sigma_star")]
    c = region.error_constants(est.sigma_star, N, m_tilde)
    rows += [f"{name},{getattr(c, name):.12g}" for name in
             ("sigma", "c2_tilde", "delta_star", "mu1", "mu2", "mu3", "a_delta_sigma", "C1", "Q")]
    rows.append("w,eta,regime,bound")
    for w in levels:
        eta = smolyak.build_plan(rule, w, N).n_knots
        eb = region.error_bound(est.sigma_star, N, m_tilde, w, eta)
        rows.append(f"{w},{eta},{eb.regime},{eb.bound:.6g}")
    print("\n".join(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="npbe-uq",
        description="Nonlinear Poisson-Boltzmann solver with sparse-grid "
                    "uncertainty quantification under random domain shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the NPBE at one parameter point")
    p.add_argument("--config", required=True)
    p.add_argument("--y", default=None, help="comma-separated parameter point on [-1,1]^N")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("study", help="run the sparse-grid convergence study")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("bounds", help="print the perturbation bound ledger")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("region", help="analyticity region and error constants")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_region)

    argv = list(sys.argv[1:] if argv is None else argv)
    if "--y" in argv[:-1]:  # argparse takes a value such as -0.5,0.3 for an option
        i = argv.index("--y")
        argv[i:i + 2] = [f"--y={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NpbeUqError as exc:
        # the bounds and region blocks' keys are the names of the model inputs they set
        if exc.violated and args.command in ("bounds", "region") and \
                not isinstance(exc, ConfigError):
            exc = harness.config_error(args.command, exc.violated, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
