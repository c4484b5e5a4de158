"""Benchmark workloads: inputs generated from a seed, the timed call, and output checks.

Each workload is built so that one layer likely to be optimised does most of
its work, while another workload bypasses that layer:

- ``study-acceptance``: the acceptance study through ``npbe-uq study``; the
  Jacobi-PCG solves dominate.
- ``study-many-knots``: many cheap solves, so the sparse-grid plan build,
  the cold quadrature weights and the study's knot bookkeeping dominate.
- ``cutoff-ledger-n65``: a collocation of the general pulled-back (J != I)
  operator followed by the a priori bound ledger; per-knot assembly and
  ``geometry.jacobian`` dominate, and it is the only workload that calls
  ``bounds``, ``region`` and ``smolyak.interpolate``.

Everything under ``npbe_uq`` is reached through module attributes at call
time, so the traced run sees these calls through its wrappers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from npbe_uq import bounds, cli, geometry, pde, region, smolyak

ACCEPTANCE_CHARGES = [[30.0, 35.0, 35.0, 1.0], [40.0, 35.0, 35.0, -0.5],
                      [35.0, 30.0, 35.0, 0.7]]
CENTRE = np.array([35.0, 35.0, 35.0])
EPS = (70.0, 70.0, 1.0)
KAPPA2 = (0.0, 0.0, 0.5)

STUDIES = {
    # charge width None means the program default 2h (17.5 A at n=9);
    # knots is the Smolyak knot count of the reference level, all solved once
    "study-acceptance": dict(N=2, n=33, width=2.0, levels=[1, 2, 3, 4], reference_level=6,
                             knots=321, smoke_knots=29),
    "study-many-knots": dict(N=3, n=9, width=None, levels=[1, 2, 3, 4, 5], reference_level=7,
                             knots=2561, smoke_knots=69),
}
# shrunken sizes for the benchmark's own smoke test; at n=9 a 2 A charge is
# far below h, so the smoke study uses the default width
SMOKE_STUDY = dict(n=9, width=None, levels=[1, 2], reference_level=3)
CUTOFF_N, SMOKE_CUTOFF_N = 65, 9
CUTOFF_MARGIN = 7.0
BOUND_TRIALS = 1000

# Seed-0 reference outputs, recorded with this benchmark on the parent code.
# A QoI must agree to QOI_RTOL relative; a level error to
# ERR_ATOL + ERR_RTOL * |reference|, which admits solver changes that move
# per-knot QoIs by ~1e-12 but not a wrong integral.
QOI_RTOL = 1e-9
ERR_RTOL, ERR_ATOL = 1e-3, 1e-11
SEED0_STUDY = {  # (w, eta, qoi_mean, error) per study level
    "study-acceptance": [
        (1, 5, 18.704162440425183, 3.9334180431893628e-05),
        (2, 13, 18.704201139258924, 6.3534669081377615e-07),
        (3, 29, 18.704201794532384, 1.9926769567746305e-08),
        (4, 65, 18.704201773988562, 6.17053075302465e-10),
    ],
    "study-many-knots": [
        (1, 7, 15.256178962474465, 0.0015088352124390525),
        (2, 25, 15.257667392632563, 2.0405054341310347e-05),
        (3, 69, 15.2576878452044, 4.7517495715965197e-08),
        (4, 177, 15.257687798063946, 3.7704239730373956e-10),
        (5, 441, 15.25768779768695, 4.6185277824406512e-14),
    ],
}
SEED0_CUTOFF_QOIS = [17.586360277273947, 17.586318176246543, 17.586250046607326,
                     17.586244221166016, 17.586201802101638]  # in plan-knot order
SEED0_CUTOFF_MEAN = 17.58627076166713


def charges_for_seed(seed: int) -> list:
    """Seed 0: the acceptance charges; otherwise 3 charges uniform in a 6 A ball."""
    if seed == 0:
        return [list(c) for c in ACCEPTANCE_CHARGES]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = 6.0 * rng.uniform() ** (1.0 / 3.0)
        pos = CENTRE + radius * direction
        out.append([float(v) for v in pos] + [float(rng.uniform(-1.0, 1.0))])
    return out


@dataclass
class Outcome:
    text: str       # deterministic outputs, compared bit for bit across passes
    knots: int      # knots solved
    problems: list  # failed output checks, empty when correct


def _close(a, b, rtol, atol=0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def rate_fit(etas, errors):
    """Least-squares slope and r^2 of log error against log knot count."""
    x = np.log(np.asarray(etas, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, icpt = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + icpt)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


class StudyWorkload:
    """``npbe-uq study`` on a generated YAML config, as a CLI user runs it."""

    def __init__(self, name: str, seed: int, smoke: bool, out_dir: str):
        spec = dict(STUDIES[name], **(SMOKE_STUDY if smoke else {}))
        self.name, self.seed, self.smoke = name, seed, smoke
        self.levels = spec["levels"]
        self.csv_path = os.path.join(out_dir, "study.csv")
        charges = {"inline": charges_for_seed(seed)}
        if spec["width"] is not None:
            charges["width"] = spec["width"]
        config = {
            "geometry": {"radii": [15.0, 25.0]},
            "coefficients": {"eps": list(EPS), "kappa2": list(KAPPA2)},
            "charges": charges,
            "stochastic": {"N": spec["N"], "alpha": [3.0] * spec["N"]},
            "grid": {"n": spec["n"]},
            "sparse_grid": {"levels": spec["levels"],
                            "reference_level": spec["reference_level"]},
            "output": {"csv_path": self.csv_path},
        }
        self.config_path = os.path.join(out_dir, "config.yaml")
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(config, fh)
        self.knots = spec["smoke_knots" if smoke else "knots"]

    def run(self) -> Outcome:
        rc = cli.main(["study", "--config", self.config_path])
        with open(self.csv_path) as fh:
            text = fh.read()
        return Outcome(text, self.knots, self.check(rc, text))

    def check(self, rc: int, text: str) -> list:
        problems = [] if rc == 0 else [f"cli exit code {rc}"]
        rows = [line.split(",") for line in text.splitlines()[1:]]
        recs = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]
        if [r[0] for r in recs] != list(self.levels):
            return problems + [f"csv levels {[r[0] for r in recs]} != {self.levels}"]
        if not all(math.isfinite(r[2]) and math.isfinite(r[3]) for r in recs):
            return problems + ["a level is NaN or failed"]
        errs = [r[3] for r in recs]
        # an error can round to exactly 0 at the last level; like
        # harness.fit_rate, the fit then skips it
        positive = [(r[1], r[3]) for r in recs if r[3] > 0.0]
        slope, r2 = rate_fit(*zip(*positive)) if len(positive) >= 2 else (math.nan, math.nan)
        if not slope < -0.5:
            problems.append(f"rate fit slope {slope:.3f} is not below -0.5")
        if self.seed == 0 and not self.smoke:
            # the acceptance gate's criteria, which these charges meet
            if not (all(a > b for a, b in zip(errs, errs[1:])) and r2 >= 0.9):
                problems.append(f"errors {errs} do not decrease or r^2 {r2:.3f} < 0.9")
            for got, ref in zip(recs, SEED0_STUDY[self.name]):
                if got[:2] != ref[:2] or not _close(got[2], ref[2], QOI_RTOL):
                    problems.append(f"level {ref[0]} qoi {got[2]!r} != reference {ref[2]!r}")
                if not _close(got[3], ref[3], ERR_RTOL, ERR_ATOL):
                    problems.append(f"level {ref[0]} error {got[3]!r} != reference {ref[3]!r}")
        elif errs[-1] != min(errs):
            # Other charges can be pre-asymptotic at the coarse levels (an
            # error that rises from level 1 to 2, or stalls between 2 and 3
            # when the 2 A charges alias on the n=33 grid), so only the
            # finest level is required to be the most accurate.
            problems.append(f"the finest level is not the most accurate: {errs}")
        return problems


class CutoffLedger:
    """Pulled-back collocation under two CutoffShift modes, then the bound ledger."""

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self.n = SMOKE_CUTOFF_N if smoke else CUTOFF_N
        self.domain = geometry.ReferenceDomain([0, 0, 0], [70, 70, 70], CENTRE, (15.0, 25.0))
        box_min, box_max = self.domain.box_min, self.domain.box_max
        modes = []
        # scaled as in the acceptance bound-sampling check: ||B||_1 ~ 0.19
        for k, scale in enumerate((0.1, 0.1)):
            fld = geometry.CutoffShift(k, box_min, box_max, CUTOFF_MARGIN)
            c1 = geometry.mode_c1_norm(fld, self.domain, n=24)
            modes.append(((scale / c1) ** 2, fld))
        self.dmap = geometry.DomainMap(sorted(modes, key=lambda m: -m[0]))
        charges = [pde.Charge(np.array(c[:3]), c[3], 2.0) for c in charges_for_seed(seed)]
        self.coeffs = pde.PBECoefficients(np.array(EPS), np.array(KAPPA2), charges, 0.0)

    def run(self) -> Outcome:
        domain, dmap, coeffs = self.domain, self.dmap, self.coeffs
        grid = pde.Grid3D(domain, self.n)
        plan = smolyak.build_plan("SM", 1, dmap.n_modes)

        def qoi(y):
            op = pde.assemble_pulled_back_operator(domain, dmap, coeffs, y, grid)
            rhs = pde.assemble_rhs(domain, dmap, coeffs, y, grid)
            reaction = pde.reaction_profile(domain, dmap, coeffs, y, grid)
            u, _ = pde.newton_solve_npbe(domain, dmap, coeffs, y, grid,
                                         op=op, rhs=rhs, reaction=reaction)
            return pde.qoi_integral(u)

        store = smolyak.evaluate_plan(plan, qoi)
        mean = smolyak.integrate(plan, store)
        geometry.check_assumptions(domain, dmap, EPS, KAPPA2)
        prof = geometry.b_norms(dmap, domain, p=1.0, n=32)
        inp = bounds.BoundsInput(b1=1.02 * prof.b_norm_1, binf=1.02 * prof.b_norm_inf,
                                 y0_inf=0.5, y_inf=0.5)
        report = bounds.verify_bounds_by_sampling(dmap, domain, inp, trials=BOUND_TRIALS,
                                                  seed=self.seed)
        est = region.region_estimate(1.0, 1.0, 1.0)
        mt = region.m_tilde(lambda pts: smolyak.interpolate(plan, store, pts),
                            est.sigma_star, dmap.n_modes)
        eb = region.error_bound(est.sigma_star, dmap.n_modes, mt, 1, plan.n_knots)
        # the interpolant must reproduce the knot values it was built from
        at_knots = smolyak.interpolate(plan, store, plan.knot_values)

        qois = [store.get(k) for k in plan.knots]
        lines = [f"qoi,{q:.17g}" for q in qois]
        lines += [f"mean,{mean:.17g}", f"b_norm_1,{prof.b_norm_1:.17g}",
                  f"violations,{len(report.violations)}", f"m_tilde,{mt:.17g}",
                  f"bound_w1,{eb.bound:.17g},{eb.regime}"]
        problems = []
        if not all(math.isfinite(v) for v in qois + [mean, mt, eb.bound]):
            problems.append("a knot QoI, the mean, m_tilde or the bound is not finite")
        if report.trials != BOUND_TRIALS or report.violations:
            problems.append(f"{len(report.violations)} bound violations in {report.trials} trials")
        if not (mt > 0.0 and eb.bound > 0.0):
            problems.append(f"m_tilde {mt!r} or bound {eb.bound!r} not positive")
        scale = max(abs(q) for q in qois)
        if not np.allclose(at_knots, qois, rtol=0.0, atol=1e-12 * scale):
            problems.append("the interpolant does not reproduce the knot values")
        if self.seed == 0 and not self.smoke:
            for got, ref in zip(qois + [mean], SEED0_CUTOFF_QOIS + [SEED0_CUTOFF_MEAN]):
                if not _close(got, ref, QOI_RTOL):
                    problems.append(f"cutoff QoI {got!r} != reference {ref!r}")
        return Outcome("\n".join(lines) + "\n", plan.n_knots, problems)


def make(name: str, seed: int, smoke: bool, out_dir: str):
    """Generate the workload's inputs (the set-up part) and return it."""
    if name in STUDIES:
        return StudyWorkload(name, seed, smoke, out_dir)
    if name == "cutoff-ledger-n65":
        return CutoffLedger(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
