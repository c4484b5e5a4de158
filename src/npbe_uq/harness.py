"""Desk-scale convergence-study orchestration.

Builds the rigid-shift experiment: Gaussian charges inside the inner sphere
are translated by sum_k alpha_k e_k Y_k with Y_k uniform on [-sqrt(3),
sqrt(3)], and the expected quantity of interest on each sparse-grid level is
compared against a higher-level reference.

The shift moves only the charges (J = I), and the solver's Dirichlet data is
zero by construction, so the adjoint-corrected knot QoI splits exactly as
Q(y) = z.b(y) + N(y): z is the study's one adjoint solution, b(y) the knot's
interior forcing, and the remainder N = r_z.u + z.K(u - sinh u) holds the
nonlinearity and the adjoint's residual r_z.  The linear part z.b needs no
solve and is taken at every knot of the reference level in one batched
contraction.  The NPBE is solved only at the knots of a nonlinear level w_N,
raised from 1 until N's own estimate |E_{w_N}[N] - E_{w_N - 1}[N]| is at
most max(0.01 x the finest study level's error, 1e-12 |E_ref[z.b]|); at the
latest w_N is the reference level, where every knot is solved as in a plain
collocation.  A level's mean is E_w[z.b] + E_{min(w, w_N)}[N] and the
reference is E_ref[z.b] + E_{w_N}[N], so the error column measures the
linear part's sparse-grid error, plus N's for w < w_N.  The Clenshaw-Curtis
family is nested, so the reference plan's knots cover every level and each
knot is solved at most once.  (This is the multifidelity or control-variate
split of Narayan, Gittelson & Xiu, SIAM J. Sci. Comput. 36, 2014, with the
solve-free linear part as the cheap model.)  A knot whose Newton iteration
fails stops w_N there, and StudyResult.failure holds its y and message: every
level's error is NaN, and so is the mean of each level w >= w_N.
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
from .errors import ConfigError, ConvergenceError, DomainError, ParseError, RateFitError

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
CONFIG_BLOCKS = (*STUDY_KEYS, "bounds", "region")  # every block some subcommand reads
_BLOCK_OF = {key: block for block, keys in STUDY_KEYS.items() for key in keys}  # keys are unique
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string", bool: "true or false"}


def config_error(block: str, violated, message) -> ConfigError:
    """ConfigError "key 'k' in block 'b': message", with violated the key k of block b, or
    "keys 'k1', 'k2' in block 'b': message" for a tuple of keys rejected together."""
    keys = (violated,) if isinstance(violated, str) else violated
    return ConfigError(f"key{'s' if len(keys) > 1 else ''} {', '.join(map(repr, keys))} "
                       f"in block {block!r}: {message}", violated=violated)


def _read(value, kind, block: str, key: str):
    """value read as kind (see STUDY_KEYS); config_error at key if it is not of that kind."""
    if isinstance(kind, list):
        if not isinstance(value, list) or kind[1] not in (None, len(value)):
            size = f" of {kind[1]}" if kind[1] else ""
            raise config_error(block, key, f"{value!r} is not a list{size}")
        return tuple(_read(v, kind[0], block, key) for v in value)
    ok = isinstance(value, (int, float) if kind is float else kind)
    ok = ok and isinstance(value, bool) == (kind is bool)
    if not ok or kind is float and not abs(value) <= sys.float_info.max:  # finite, as a float
        raise config_error(block, key, f"{value!r} is not {_KIND_NAMES[kind]}")
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
    return {key: _read(value, kinds[key], block, key) for key, value in entries.items()}


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
        try:  # the model's own checks state its rules; only the rest are written here
            pde.grid_spacing(self.box_min, self.box_max, self.grid_n)  # checks grid n first
            self.domain  # 0 < r1 < r2, and the outer sphere fits in the box
            geometry.check_coefficients(self.eps, self.kappa2)
            if self.charge_width is not None:
                pde.check_width(self.charge_width)
            if self.N not in (1, 2, 3):
                raise DomainError(f"shift model supports N in {{1, 2, 3}}, got {self.N!r}",
                                  violated="N")
            self.alpha = tuple(float(a) for a in ((2.0,) * self.N if self.alpha is None
                                                  else self.alpha))
            if not (len(self.alpha) == self.N and all(a > 0.0 for a in self.alpha)):
                raise DomainError(f"alpha must list one positive amplitude per dimension "
                                  f"(N = {self.N}), got {self.alpha}", violated="alpha")
            smolyak.check_levels(self.rule, self.levels)
            if len(set(self.levels)) < len(self.levels):
                raise DomainError(f"each level may appear once, got {self.levels}",
                                  violated="levels")
            if any(self.reference_level <= w for w in self.levels):
                raise DomainError(f"must exceed every study level {self.levels}, "
                                  f"got {self.reference_level!r}", violated="reference_level")
            for c in self.charges_inline:
                if len(c) != 4:
                    raise DomainError(f"each charge needs [x, y, z, q], got {c!r}",
                                      violated="inline")
            if self.charges_path and self.charges_inline:
                raise DomainError("'inline' is set too; give the charges one way", violated="path")
            for key, path in (("csv_path", self.csv_path), ("svg_path", self.svg_path)):
                if path and (os.path.isdir(path)
                             or not os.path.isdir(os.path.dirname(path) or ".")):
                    raise DomainError(f"cannot write a file at {path!r}", violated=key)
        except DomainError as exc:
            raise config_error(_BLOCK_OF[exc.violated], exc.violated, exc) from None

    @property
    def domain(self) -> geometry.ReferenceDomain:
        """The box with both spheres centred in it."""
        return geometry.ReferenceDomain(self.box_min, self.box_max,
                                        0.5 * self.box_min + 0.5 * self.box_max, tuple(self.radii))

    def grid(self) -> pde.Grid3D:
        return pde.Grid3D(self.domain, self.grid_n)

    def width(self) -> float:
        """The charge width: charge_width if set, else 2h clamped to >= 1 Angstrom.

        h is the spacing of grid(), computed without building the grid.
        """
        if self.charge_width is not None:
            return float(self.charge_width)
        return max(2.0 * pde.grid_spacing(self.box_min, self.box_max, self.grid_n), 1.0)


def _known_blocks(raw: dict) -> dict:
    """raw, after a ConfigError naming its first block that is not in CONFIG_BLOCKS."""
    for block in raw:
        if block not in CONFIG_BLOCKS:
            raise ConfigError(f"unknown config block {block!r}")
    return raw


def config_from_dict(raw: dict) -> RunConfig:
    kwargs = {}
    for block in (b for b in _known_blocks(raw) if b in STUDY_KEYS):
        keys = STUDY_KEYS[block]
        entries = read_block(raw, block, {key: kind for key, (_, kind) in keys.items()})
        kwargs.update((keys[key][0], value) for key, value in entries.items())
    return RunConfig(**kwargs)


def load_raw(path: str) -> dict:
    """The YAML config file as a mapping, with every block known and still raw; ConfigError
    naming the path, on one line, if the file cannot be read or is not YAML."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        why = " ".join(str(exc).split())  # a YAML error spans several lines
        raise ConfigError(f"cannot read config file {path!r}: {why}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return _known_blocks(raw)


def load_config(path: str) -> RunConfig:
    return config_from_dict(load_raw(path))


# ---------------------------------------------------------------------------
# Charge ingestion
# ---------------------------------------------------------------------------

def parse_pqr(text: str) -> list:
    """Parse the ATOM and HETATM records of a PQR file into (position, charge) pairs.

    A record is a line whose first field is ATOM or HETATM, so the ions,
    cofactors and ligands that pdb2pqr writes as HETATM keep their charges.
    Fields are whitespace-delimited, as APBS and pdb2pqr write them: x, y, z,
    charge and radius are the last five, so a line may carry a chain ID and a
    residue number or neither (ATOM id name res [chain] [resnum] x y z q r).
    Malformed records raise with the 1-based line number.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok = line.split()
        if not tok or tok[0] not in ("ATOM", "HETATM"):
            continue
        if len(tok) < 9:
            raise ParseError(f"line {lineno}: {tok[0]} record has {len(tok)} fields, need 9")
        try:
            x, y, z, q = (float(t) for t in tok[-5:-1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric coordinate or charge ({exc})")
        out.append((np.array([x, y, z]), q))
    return out


def ingest_charges(config: RunConfig) -> list:
    """Charge list from the config: inline entries or a PQR file, never both.

    Every charge gets config.width().  Positions are recentred so their
    centroid sits at the sphere center; charges still landing outside the
    box are dropped with a warning.
    """
    width = config.width()
    if config.charges_path:
        try:
            with open(config.charges_path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise config_error("charges", "path",
                               f"cannot read {config.charges_path!r}: {exc}") from None
        pairs = parse_pqr(text)
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


def shifted_positions(positions: np.ndarray, alpha, ys, domain: geometry.ReferenceDomain):
    """positions (C, 3) shifted by sum_k alpha_k e_k y_k for each row y of ys (K, N): (K, C, 3).

    Raises ConfigError if any shifted position leaves the domain's box.
    """
    ys = np.asarray(ys, dtype=float)
    shift = np.zeros((len(ys), 3))
    shift[:, :ys.shape[1]] = np.asarray(alpha) * ys
    out = shift[:, None, :] + positions
    if not np.all(domain.contains(out)):
        raise config_error("stochastic", "alpha", "shifted charge leaves the box; reduce alpha")
    return out


def shifted_charges(charges: list, alpha, y, domain: geometry.ReferenceDomain) -> list:
    """Rigid shift of every charge by sum_k alpha_k e_k y_k, kept inside the domain's box."""
    out, = shifted_positions(np.array([c.position for c in charges]), alpha, [y], domain)
    return [replace(c, position=p) for c, p in zip(charges, out)]


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRecord:
    """One CSV row; after a failed knot every error is NaN, as is each w >= w_N mean."""

    w: int
    eta: int
    qoi_mean: float
    error: float
    wall_time: float


@dataclass
class StudyResult:
    records: list
    reference_qoi: float
    reference_eta: int
    csv_text: str
    nonlinear_level: int       # w_N, the level whose knots were solved
    nonlinear_mean: float      # E_{w_N}[N], NaN if one of its knots failed
    nonlinear_estimate: float  # |E_{w_N}[N] - E_{w_N - 1}[N]|, NaN at w_N = 0 or on failure
    nonlinear_target: float    # the estimate at which w_N stops rising
    knot_solves: int
    adjoint_cg: pde.CGInfo     # the study's one adjoint solve
    failure: tuple             # (y, message) of the failed knot, new at level w_N, or None


def _csv_text(records, deterministic: bool) -> str:
    lines = ["w,eta,qoi_mean,error,wall_time_s"]
    for r in records:
        wall = 0.0 if deterministic else r.wall_time
        lines.append(f"{r.w},{r.eta},{r.qoi_mean:.17g},{r.error:.17g},{wall:.3f}")
    return "\n".join(lines) + "\n"


_CHUNK_FLOATS = 2**16  # bound on the floats of each array linear_parts holds at once


class KnotSolver:
    """Goal-oriented NPBE solves of the shift model at parameter points y, for one config.

    The shift moves only the charges (J = I), so the grid, the operator,
    the reaction profile and the adjoint z of the QoI are built once; the
    adjoint carries the multigrid hierarchy that preconditions every CG
    solve, and each solve assembles only its rhs.  Its NewtonInfo carries
    the adjoint-corrected QoI and the error estimate that Newton stops on
    (pde._qoi_estimate).  The solver's Dirichlet data is zero, so the
    corrected QoI is z.b(y) + N(y) for the knot's interior forcing b(y);
    linear_parts gives z.b for a whole batch of points without a solve.  A
    charge width below the grid spacing h is warned about, since the grid
    then aliases the charges.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.domain = config.domain
        self.grid = config.grid()
        self.coeffs = pde.PBECoefficients(np.array(config.eps), np.array(config.kappa2),
                                          ingest_charges(config))
        s, h = config.width(), self.grid.h
        if s < h:
            amplitude = math.exp(-2.0 * (math.pi * s / h) ** 2)
            warnings.warn(f"charge width {s:.4g} is below the grid spacing h = {h:.4g}: the "
                          f"grid aliases the charges with amplitude exp(-2 pi^2 s^2 / h^2) "
                          f"= {amplitude:.2g}")
        self.dmap = geometry.DomainMap([])
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

    def linear_parts(self, ys) -> np.ndarray:
        """z.b(y) at each row y of ys (K, N), the charges shifted as in solve.

        z.b = sum_charges amp sum_ijk Z[i, j, k] gx[i] gy[j] gz[k] over the
        interior nodes, with Z the adjoint on the grid's interior lattice and
        the per-axis factors of pde.gaussian_factors on its axes.  Every
        shifted charge is checked against the box first.  Component k of y
        moves axis k only, so for any N the fixed axes N, ..., 2 do not depend
        on the knot: Z is contracted with their factors once per charge, last
        axis first, and the shifted axes N - 1, ..., 0 per knot.  The charges
        are taken in chunks of at most 2^16 / m^2 and the knots in chunks that
        bound each held array to 2^16 floats; with one charge chunk the bits
        are those of contracting every axis per knot, and each further chunk
        adds its partial sum.  The contraction is np.einsum, whose sums never
        go to BLAS, so the bits do not depend on the thread count.
        """
        charges, N = self.coeffs.charges, self.config.N
        positions = shifted_positions(np.array([c.position for c in charges]), self.config.alpha,
                                      SQRT3 * np.asarray(ys, dtype=float), self.domain)
        interior = self.grid.interior
        Z = self.adjoint.z.reshape(interior.shape[:-1])
        m = Z.shape[0]
        out = np.zeros(len(positions))
        per_chunk = max(1, _CHUNK_FLOATS // m**2)
        for c in range(0, len(charges), per_chunk):
            chunk = slice(c, c + per_chunk)
            amp, fixed = pde.gaussian_factors(interior.axes[N:], charges[chunk],
                                              positions[0, chunk, N:])
            W = np.broadcast_to(Z, (len(amp),) + Z.shape)
            for g in fixed[::-1]:
                W = np.einsum("c...k,ck->c...", W, g)
            step = max(1, _CHUNK_FLOATS // (len(amp) * m ** max(N - 1, 1)))
            for s in range(0, len(positions), step):
                _, g = pde.gaussian_factors(interior.axes[:N], charges[chunk],
                                            positions[s:s + step, chunk, :N])
                t = np.broadcast_to(W, g[0].shape[:1] + W.shape)
                for gd in g[:0:-1]:
                    t = np.einsum("qc...k,qck->qc...", t, gd)
                out[s:s + step] += np.einsum("qci,qci,c->q", t, g[0], amp)
        return out


# The nonlinear level stops rising once N's estimate is at most this fraction
# of the finest study level's error: leaving N's own error out of the level
# errors then moves that error by at most 1%, 0.01 in the log error the rate
# fit reads, far below the decades between levels.
_REMAINDER_FRACTION = 0.01


def run_study(config: RunConfig, progress=None) -> StudyResult:
    """Execute the shift-model convergence study described by the config.

    The corrected knot QoI splits as Q(y) = z.b(y) + N(y) (see the module
    docstring).  z.b is taken at every knot of the reference plan, by one
    batched KnotSolver.linear_parts call; a charge shifted out of the box
    raises ConfigError there, before any solve.  KnotSolver.solve then runs
    at the knots of levels 0, 1, 2, ..., each knot once, storing
    N = Q - z.b, until the first level w_N >= 1 whose estimate
    |E_{w_N}[N] - E_{w_N - 1}[N]| is at most
    max(0.01 |E_finest[z.b] - E_ref[z.b]|, 1e-12 |E_ref[z.b]|), the floor being
    the knot QoI's own tolerance; at the latest w_N is the reference level,
    where every knot is solved.  A level's mean is E_w[z.b] + E_{min(w, w_N)}[N]
    and the reference is E_ref[z.b] + E_{w_N}[N].

    A knot whose Newton iteration raises ConvergenceError stops the
    escalation at once, so a study has at most one failed knot, and it is
    new at level w_N.  The result's failure then holds the knot's y and
    message, and the reference and every error are NaN.  A level w >= w_N,
    whose N mean uses that knot, has a NaN mean too; a level w < w_N keeps
    its mean, since only the reference uses the knot.  Any other error
    propagates.
    progress(done, total) ticks once per solve, total being the knot count
    of the level being solved.  A level's wall time is its share of the
    batched z.b time, plus the solve time of the knots its N mean uses, plus
    its z.b integration.
    """
    solver = KnotSolver(config)
    plans = {}

    def plan(w):
        if w not in plans:
            plans[w] = smolyak.build_plan(config.rule, w, config.N)
        return plans[w]

    ref_plan = plan(config.reference_level)
    t0 = time.perf_counter()
    linear = dict(zip(ref_plan.knots, solver.linear_parts(ref_plan.knot_values)))
    linear_s = time.perf_counter() - t0
    ref_linear = smolyak.integrate(ref_plan, linear)
    finest_error = abs(smolyak.integrate(plan(max(config.levels)), linear) - ref_linear)
    target = max(_REMAINDER_FRACTION * finest_error, pde.GOAL_QOI_TOL * abs(ref_linear))

    remainder = {}
    seconds = {}  # solve time per solved knot
    means = []    # E_w[N] for w = 0, 1, ..., w_N, NaN at w_N if a knot failed

    def solve_new_knots(p):
        """Solve the knots of plan p not solved yet; (y, message) of one that fails, or None."""
        for key, y in zip(p.knots, p.knot_values):
            if key in seconds:
                continue
            t0 = time.perf_counter()
            failure = None
            try:
                remainder[key] = solver.solve(y)[1].qoi - linear[key]
            except ConvergenceError as exc:
                failure = tuple(float(v) for v in y), str(exc)
            seconds[key] = time.perf_counter() - t0
            if progress is not None:
                progress(len(seconds), p.n_knots)
            if failure:
                return failure
        return None

    for w_n in range(config.reference_level + 1):
        failure = solve_new_knots(plan(w_n))
        means.append(math.nan if failure else smolyak.integrate(plan(w_n), remainder))
        if failure or w_n and abs(means[-1] - means[-2]) <= target:
            break
    estimate = abs(means[-1] - means[-2]) if w_n else math.nan
    ref_qoi = ref_linear + means[w_n]
    records = []
    for w in config.levels:
        t0 = time.perf_counter()
        w_mean = min(w, w_n)  # a level w >= w_N after a failure gets the NaN means[w_N]
        mean = smolyak.integrate(plan(w), linear) + means[w_mean]
        wall = (time.perf_counter() - t0 + linear_s * plan(w).n_knots / ref_plan.n_knots
                + sum(seconds.get(k, 0.0) for k in plan(w_mean).knots))
        records.append(ConvergenceRecord(w, plan(w).n_knots, mean, abs(mean - ref_qoi), wall))
    csv = _csv_text(records, config.deterministic_csv)
    if config.csv_path:
        with open(config.csv_path, "w") as fh:
            fh.write(csv)
    if config.svg_path:
        with open(config.svg_path, "w") as fh:
            fh.write(convergence_svg(records))
    return StudyResult(records, ref_qoi, ref_plan.n_knots, csv, w_n, means[w_n], estimate,
                       target, len(seconds), solver.adjoint.cg, failure)


# ---------------------------------------------------------------------------
# Rate fitting and plotting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    slope: float
    r_squared: float
    excluded: list  # levels skipped for an error that is not positive, or NaN


def fit_rate(records: list) -> RateFit:
    """Least-squares slope of log error versus log knot count.

    Raises RateFitError when fewer than two records have a positive finite
    error, naming the levels whose error is not positive or is NaN.
    """
    pts, excluded = [], []
    for r in records:
        if r.error > 0.0 and math.isfinite(r.error):
            pts.append((math.log(r.eta), math.log(r.error)))
        else:
            excluded.append(r.w)
    if len(pts) < 2:
        low = [r.w for r in records if r.error <= 0.0]
        nan = [r.w for r in records if math.isnan(r.error)]  # a failed knot's levels
        why = ((f"; levels {low} have an error that is not positive" if low else "")
               + (f"; levels {nan} have a NaN error" if nan else ""))
        raise RateFitError(f"need at least 2 positive errors to fit a rate, got {len(pts)}{why}")
    x = np.array([p[0] for p in pts])
    yv = np.array([p[1] for p in pts])
    A = np.stack([x, np.ones_like(x)], axis=-1)
    sol, *_ = np.linalg.lstsq(A, yv, rcond=None)
    fitted = A @ sol
    ss_res = float(np.sum((yv - fitted) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(sol[0]), r2, excluded)


def convergence_svg(records: list) -> str:
    """Minimal standalone 480 x 360 SVG of log10 error versus log10 knot count."""
    width, height = 480, 360
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
