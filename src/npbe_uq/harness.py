"""Desk-scale convergence-study orchestration.

Builds the rigid-shift experiment: Gaussian charges inside the inner sphere
are translated by sum_k alpha_k e_k Y_k with Y_k uniform on [-sqrt(3),
sqrt(3)], the NPBE is solved at every sparse-grid knot, and the expected
quantity of interest is compared against a higher-level reference.  The
Clenshaw-Curtis family is nested, so the reference plan's knots cover every
study level and each is solved exactly once.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import geometry, pde, smolyak
from .errors import ConfigError, ConvergenceError, ParseError

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Each study block's YAML keys, key -> (RunConfig field, kind).  A kind is float
# (a finite number, not a bool, read as a float), int (not a bool or 2.0), str,
# bool, or [kind, length]: a list read as a tuple, of any length if length is None.
STUDY_KEYS = {
    "geometry": {"box_min": ("box_min", [float, 3]), "box_max": ("box_max", [float, 3]),
                 "radii": ("radii", [float, 2])},
    "coefficients": {"eps": ("eps", [float, 3]), "kappa2": ("kappa2", [float, 3])},
    "charges": {"inline": ("charges_inline", [[float, 4], None]),
                "path": ("charges_path", str), "width": ("charge_width", float)},
    "stochastic": {"N": ("N", int), "alpha": ("alpha", [float, None])},
    "grid": {"n": ("grid_n", int)},
    "sparse_grid": {"rule": ("rule", str), "levels": ("levels", [int, None]),
                    "reference_level": ("reference_level", int)},
    "output": {"csv_path": ("csv_path", str), "svg_path": ("svg_path", str),
               "deterministic_csv": ("deterministic_csv", bool)},
}
_AT = {name: f"key {key!r} in block {block!r}"  # where the YAML config sets a field
       for block, keys in STUDY_KEYS.items() for key, (name, _) in keys.items()}
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string", bool: "true or false"}


def _read(value, kind, where: str):
    """value read as kind (see STUDY_KEYS); ConfigError naming where if it is not of that kind."""
    if isinstance(kind, list):
        if not isinstance(value, list) or kind[1] not in (None, len(value)):
            size = f" of {kind[1]}" if kind[1] else ""
            raise ConfigError(f"{where}: {value!r} is not a list{size}")
        return tuple(_read(v, kind[0], where) for v in value)
    ok = isinstance(value, (int, float) if kind is float else kind)
    ok = ok and isinstance(value, bool) == (kind is bool)
    if not ok or kind is float and not abs(value) <= sys.float_info.max:  # finite, as a float
        raise ConfigError(f"{where}: {value!r} is not {_KIND_NAMES[kind]}")
    return float(value) if kind is float else value


def read_block(raw: dict, block: str, kinds: dict, required=()) -> dict:
    """The config's block with each value read as its kind in kinds (see STUDY_KEYS).

    ConfigError names the block and key of a missing or unknown key or a bad value.
    """
    entries = raw.get(block)
    if not isinstance(entries, dict):
        raise ConfigError(f"config needs a {block!r} block that is a mapping, got {entries!r}")
    for key in (*required, *entries):
        if key not in entries:
            raise ConfigError(f"block {block!r} needs key {key!r}")
        if key not in kinds:
            raise ConfigError(f"unknown key {key!r} in block {block!r}")
    return {key: _read(value, kinds[key], f"key {key!r} in block {block!r}")
            for key, value in entries.items()}


@dataclass
class RunConfig:
    # geometry
    box_min: np.ndarray = (0.0, 0.0, 0.0)
    box_max: np.ndarray = (70.0, 70.0, 70.0)
    radii: tuple = (15.0, 25.0)
    # coefficients
    eps: tuple = (70.0, 70.0, 1.0)
    kappa2: tuple = (0.0, 0.0, 0.5)
    # charges
    charges_inline: list = field(default_factory=list)  # [[x, y, z, q], ...]
    charges_path: str = None
    charge_width: float = None  # default 2h, clamped >= 1 Angstrom
    # stochastic shift model
    N: int = 2
    alpha: tuple = None  # Angstrom amplitudes, default 2.0 each
    # discretization
    grid_n: int = 33
    # sparse grid
    rule: str = "SM"
    levels: tuple = (1, 2, 3, 4)
    reference_level: int = 6
    # output
    csv_path: str = None
    svg_path: str = None
    deterministic_csv: bool = True

    def __post_init__(self):
        self.box_min = np.asarray(self.box_min, dtype=float)
        self.box_max = np.asarray(self.box_max, dtype=float)
        if not (isinstance(self.grid_n, int) and self.grid_n >= 2):
            raise ConfigError(f"grid n must be an integer >= 2, got {self.grid_n!r}")
        if self.N not in (1, 2, 3):
            raise ConfigError(f"{_AT['N']}: shift model supports N in {{1, 2, 3}}")
        if self.alpha is None:
            self.alpha = (2.0,) * self.N
        self.alpha = tuple(float(a) for a in self.alpha)
        if len(self.alpha) != self.N:
            raise ConfigError(f"{_AT['alpha']}: alpha must list one amplitude per dimension")
        if any(a <= 0.0 for a in self.alpha):
            raise ConfigError(f"{_AT['alpha']}: shift amplitudes must be positive")
        if any(self.reference_level <= w for w in self.levels):
            raise ConfigError(f"{_AT['reference_level']}: must exceed every study level")
        if self.rule not in smolyak.RULES:
            raise ConfigError(f"{_AT['rule']}: unknown sparse-grid rule {self.rule!r}")
        if any(len(c) != 4 for c in self.charges_inline):
            raise ConfigError(f"{_AT['charges_inline']}: each charge needs [x, y, z, q]")
        if self.charges_path and not os.path.isfile(self.charges_path):
            raise ConfigError(f"{_AT['charges_path']}: no file {self.charges_path!r}")
        for name, path in (("csv_path", self.csv_path), ("svg_path", self.svg_path)):
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
                raise ConfigError(f"{_AT[name]}: cannot write a file at {path!r}")

    @property
    def domain(self) -> geometry.ReferenceDomain:
        """The box with both spheres centred in it."""
        return geometry.ReferenceDomain(self.box_min, self.box_max,
                                        0.5 * (self.box_min + self.box_max), tuple(self.radii))

    def grid(self) -> pde.Grid3D:
        return pde.Grid3D(self.domain, self.grid_n)

    def width(self) -> float:
        """The charge width: charge_width if set, else 2h clamped to >= 1 Angstrom.

        h = (box_max - box_min)[0] / (grid_n - 1) is the spacing of grid(),
        computed without building the grid.
        """
        if self.charge_width is not None:
            return float(self.charge_width)
        h = float((self.box_max - self.box_min)[0] / (self.grid_n - 1))
        return max(2.0 * h, 1.0)


def config_from_dict(raw: dict) -> RunConfig:
    kwargs = {}
    for block in (b for b in raw if b not in ("bounds", "region")):  # read by the CLI
        keys = STUDY_KEYS.get(block)
        if keys is None:
            raise ConfigError(f"unknown config block {block!r}")
        entries = read_block(raw, block, {key: kind for key, (_, kind) in keys.items()})
        kwargs.update((keys[key][0], value) for key, value in entries.items())
    return RunConfig(**kwargs)


def load_raw(path: str) -> dict:
    """The YAML config file as a mapping, with every block still raw."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return raw


def load_config(path: str) -> RunConfig:
    return config_from_dict(load_raw(path))


# ---------------------------------------------------------------------------
# Charge ingestion
# ---------------------------------------------------------------------------

def parse_pqr(text: str) -> list:
    """Parse ATOM lines of a PQR-subset file into (position, charge) pairs.

    Expected layout per line: ATOM id name res x y z charge radius; extra
    trailing fields are ignored.  Malformed ATOM lines raise with the
    1-based line number.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip().startswith("ATOM"):
            continue
        tok = line.split()
        if len(tok) < 8:
            raise ParseError(f"line {lineno}: ATOM record has {len(tok)} fields, need 8")
        try:
            x, y, z, q = (float(t) for t in tok[4:8])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric coordinate or charge ({exc})")
        out.append((np.array([x, y, z]), q))
    return out


def ingest_charges(config: RunConfig) -> list:
    """Charge list from the config: inline entries or a PQR-subset file.

    Every charge gets config.width().  Positions are recentred so their
    centroid sits at the sphere center; charges still landing outside the
    box are dropped with a warning.
    """
    width = config.width()
    if config.charges_path:
        with open(config.charges_path) as fh:
            pairs = [(p, q) for p, q in parse_pqr(fh.read())]
    else:
        pairs = [(np.array(c[:3], dtype=float), float(c[3])) for c in config.charges_inline]
    if not pairs:
        raise ParseError("no valid charges found")
    domain = config.domain
    positions = np.array([p for p, _ in pairs])
    positions = positions - positions.mean(axis=0) + domain.sphere_center
    charges, rejected = [], []
    for pos, (_, q) in zip(positions, pairs):
        if not domain.contains(pos):
            rejected.append(pos)
            continue
        charges.append(pde.Charge(pos, q, width))
    if rejected:
        warnings.warn(f"dropped {len(rejected)} charges outside the box after recentring")
    if not charges:
        raise ParseError("all charges fell outside the box after recentring")
    return charges


def shifted_charges(charges: list, alpha, y, domain: geometry.ReferenceDomain) -> list:
    """Rigid shift of every charge by sum_k alpha_k e_k y_k, kept inside the domain's box."""
    y = np.asarray(y, dtype=float)
    shift = np.zeros(3)
    for k, (a, yk) in enumerate(zip(alpha, y)):
        shift[k] = a * yk
    out = [replace(c, position=c.position + shift) for c in charges]
    for c in out:
        if not domain.contains(c.position):
            raise ConfigError("shifted charge leaves the box; reduce alpha")
    return out


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRecord:
    w: int
    eta: int
    qoi_mean: float
    error: float
    wall_time: float
    failed: bool = False
    failed_at: tuple = None  # y of the first failing knot, when failed
    reason: str = ""         # its ConvergenceError message


@dataclass
class StudyResult:
    records: list
    reference_qoi: float
    reference_level: int
    reference_eta: int
    csv_text: str


def _csv_text(records, deterministic: bool) -> str:
    lines = ["w,eta,qoi_mean,error,wall_time_s"]
    for r in records:
        wall = 0.0 if deterministic else r.wall_time
        lines.append(f"{r.w},{r.eta},{r.qoi_mean:.17g},{r.error:.17g},{wall:.3f}")
    return "\n".join(lines) + "\n"


class KnotSolver:
    """Goal-oriented NPBE solves of the shift model at parameter points y, for one config.

    The shift moves only the charges (J = I), so the grid, the operator,
    the reaction profile and the adjoint z of the QoI are built once; the
    adjoint carries the multigrid hierarchy that preconditions every CG
    solve, and each solve assembles only its rhs.  Its NewtonInfo carries
    the adjoint-corrected QoI and Newton's estimate of its error, with
    e ~ u* - u~ from one V-cycle (see the pde module docstring); Newton stops
    once the estimate is within 1e-12 relative.  The estimate is not a
    bound; it was checked against tight direct solves on the acceptance
    study's knots and in the tests.  A charge width below the grid spacing h
    is warned about, since the grid then aliases the charges.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.domain = config.domain
        self.grid = config.grid()
        s, h = config.width(), self.grid.h
        if s < h:
            amplitude = math.exp(-2.0 * (math.pi * s / h) ** 2)
            warnings.warn(f"charge width {s:.4g} is below the grid spacing h = {h:.4g}: the "
                          f"grid aliases the charges with amplitude exp(-2 pi^2 s^2 / h^2) "
                          f"= {amplitude:.2g}")
        self.dmap = geometry.DomainMap([])
        self.coeffs = pde.PBECoefficients(np.array(config.eps), np.array(config.kappa2),
                                          ingest_charges(config), 0.0)
        self.op = pde.assemble_pulled_back_operator(self.domain, self.dmap, self.coeffs,
                                                    None, self.grid)
        self.reaction = pde.reaction_profile(self.domain, self.dmap, self.coeffs, None,
                                             self.grid)
        self.adjoint = pde.solve_adjoint(self.op, self.reaction)

    def solve(self, y):
        """(u, NewtonInfo) with the charges shifted by sqrt(3) alpha_k y_k, y in [-1, 1]^N."""
        c = self.config
        ch = shifted_charges(self.coeffs.charges, c.alpha, SQRT3 * np.asarray(y, dtype=float),
                             self.domain)
        coeffs = replace(self.coeffs, charges=ch)
        return pde.newton_solve_npbe(self.domain, self.dmap, coeffs, None, self.grid,
                                     op=self.op, reaction=self.reaction, adjoint=self.adjoint)


def run_study(config: RunConfig, progress=None) -> StudyResult:
    """Execute the shift-model convergence study described by the config.

    Only the reference plan is evaluated: under nesting its knots cover
    every study level, so each knot is solved exactly once, by one
    KnotSolver; its value is the adjoint-corrected QoI.  A knot whose
    Newton iteration raises ConvergenceError is recorded as NaN and poisons
    only the levels that use it, whose records keep the y and message of
    their first failing knot; any other error propagates.  A level's wall
    time is the solve time of its knots plus its integration.
    """
    solver = KnotSolver(config)
    plans = {w: smolyak.build_plan(config.rule, w, config.N)
             for w in list(config.levels) + [config.reference_level]}
    ref_plan = plans[config.reference_level]
    seconds, errors = [], []  # per knot, in the order evaluate_plan visits ref_plan.knots

    def qoi_at(y):
        t0 = time.perf_counter()
        error = None
        try:
            value = solver.solve(y)[1].qoi
        except ConvergenceError as exc:
            value, error = math.nan, str(exc)
        seconds.append(time.perf_counter() - t0)
        errors.append(error)
        if progress is not None:
            progress(len(seconds), ref_plan.n_knots)
        return value

    store = smolyak.evaluate_plan(ref_plan, qoi_at)
    knot_seconds = dict(zip(ref_plan.knots, seconds))
    knot_errors = dict(zip(ref_plan.knots, errors))

    def first_failure(w):
        """(y, message) of the first knot of level w whose solve failed, or None."""
        for key, y in zip(plans[w].knots, plans[w].knot_values):
            if knot_errors[key] is not None:
                return tuple(float(v) for v in y), knot_errors[key]
        return None

    ref_failure = first_failure(config.reference_level)
    ref_qoi = math.nan if ref_failure else smolyak.integrate(ref_plan, store)
    records = []
    for w in config.levels:
        t0 = time.perf_counter()
        failure = first_failure(w)
        mean = math.nan if failure else smolyak.integrate(plans[w], store)
        wall = time.perf_counter() - t0 + sum(knot_seconds[k] for k in plans[w].knots)
        if failure is None and ref_failure is not None:
            y, message = ref_failure
            failure = (y, f"reference level {config.reference_level}: {message}")
        err = math.nan if failure else abs(mean - ref_qoi)
        y, reason = failure or (None, "")
        records.append(ConvergenceRecord(w, plans[w].n_knots, mean, err, wall,
                                         failure is not None, y, reason))
    csv = _csv_text(records, config.deterministic_csv)
    if config.csv_path:
        with open(config.csv_path, "w") as fh:
            fh.write(csv)
    if config.svg_path:
        with open(config.svg_path, "w") as fh:
            fh.write(convergence_svg(records))
    return StudyResult(records, ref_qoi, config.reference_level, ref_plan.n_knots, csv)


# ---------------------------------------------------------------------------
# Rate fitting and plotting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    slope: float
    r_squared: float
    excluded: list  # levels skipped for nonpositive error


def fit_rate(records: list) -> RateFit:
    """Least-squares slope of log error versus log knot count."""
    pts, excluded = [], []
    for r in records:
        if r.error > 0.0 and math.isfinite(r.error):
            pts.append((math.log(r.eta), math.log(r.error)))
        else:
            excluded.append(r.w)
    if len(pts) < 2:
        raise ConfigError("need at least 2 positive errors to fit a rate")
    x = np.array([p[0] for p in pts])
    yv = np.array([p[1] for p in pts])
    A = np.stack([x, np.ones_like(x)], axis=-1)
    sol, *_ = np.linalg.lstsq(A, yv, rcond=None)
    fitted = A @ sol
    ss_res = float(np.sum((yv - fitted) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(sol[0]), r2, excluded)


def convergence_svg(records: list, width: int = 480, height: int = 360) -> str:
    """Minimal standalone SVG of log10 error versus log10 knot count."""
    pts = [(math.log10(r.eta), math.log10(r.error))
           for r in records if r.error > 0.0 and math.isfinite(r.error)]
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        pad = 40
        xr = (max(xs) - min(xs)) or 1.0
        yr = (max(ys) - min(ys)) or 1.0

        def sx(v):
            return pad + (v - min(xs)) / xr * (width - 2 * pad)

        def sy(v):
            return height - pad - (v - min(ys)) / yr * (height - 2 * pad)

        poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        body.append(f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="2"/>')
        for x, y in pts:
            body.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="steelblue"/>')
        body.append(f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" '
                    f'font-size="12">log10 knots</text>')
        body.append(f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
                    f'transform="rotate(-90 14 {height / 2:.0f})">log10 error</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"
