"""Configuration-driven experiment suites and their output artifacts.

Each suite is a plan step, ``plan_<suite>(cfg)``: it builds its run's
inputs, plans every matrix the run assembles and returns the run, which
assembles those paths and plans no matrix again, and whose result holds
labelled pass/fail checks and named CSV tables.  The writer
lands everything in an output directory in one atomic swap so a crashed
run never leaves a half-written directory behind.  Config files are flat
"key = value" text with dotted key names; unknown keys are rejected.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .berezin import (
    BerezinPlan,
    MatrixSymbol,
    berezin_errors,
    berezin_of_operator,
    berezin_plan,
    berezin_transform,
    decay_table,
    default_radius_schedule,
    essential_spectrum_sample,
    fredholm_index_report,
    min_singular_probe,
    radial_expansion_degree,
)
from .core import (
    BallGeometry,
    WeightedSpace,
    count_basis,
    csv_lines,
    dim_level,
    format_cell,
    format_float,
    levels_up_to,
)
from .errors import DomainError
from .levels import (
    FACTORIZATION_TOL,
    LevelBlock,
    _compare_routes,
    _level_route,
    _pair_plans,
    block_norms,
    off_block_mass,
    recover_symbol_and_remainder,
)
from .quadrature import (
    GAUSS_JACOBI,
    MONTE_CARLO,
    QuadratureSpec,
    as_point_function,
    require_sample_count,
)
from .symbols import (
    Const,
    ProductSymbol,
    SymbolExpr,
    parse_symbol,
    rebase_inner,
    symbol_to_text,
)
from .toeplitz import (
    AssemblyPath,
    _assemble_semicommutator,
    _semicommutator_paths,
    assemble,
    assembly_path,
    gamma_sequence,
    operator_norm,
    radial_table_order,
)

# ---------------------------------------------------------------------------
# Configuration


def _as_int_list(s: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in s.replace(",", " ").split()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p, 10) for p in parts)


# key -> (caster, default); casters run on the raw string value
_KNOWN_KEYS: Dict[str, Tuple[Callable[[str], object], object]] = {
    "geometry.n": (int, 2),
    "geometry.ell": (int, 1),
    "geometry.k": (_as_int_list, (1,)),
    "space.lambda": (float, 0.0),
    "truncation.D": (int, 8),
    "truncation.R": (int, 6),
    "truncation.D_eval": (int, 1800),
    "truncation.D_remainder": (int, 60),
    "symbol.a": (str, "r1^2"),
    "symbol.c": (str, "1 - abs2(zc)"),
    "symbol.f": (str, "2 - abs2(zc)"),
    "quad.scheme": (str, GAUSS_JACOBI),
    "quad.q": (int, 0),
    "quad.angular": (int, 0),
    "quad.samples": (int, QuadratureSpec.n_samples),
    "quad.seed": (int, QuadratureSpec.seed),
    "schedule.mu": (_as_int_list, (1, 2, 4, 8, 16, 32)),
    "schedule.eval_levels": (_as_int_list, (32, 48, 64, 96, 128)),
    "schedule.remainder_levels": (_as_int_list, (32, 48, 64)),
    "schedule.radii": (int, 6),
    "grid.points": (int, 25),
    "grid.tmax": (float, 0.9),
    "tol.norm": (float, 1e-10),
    "tol.norm_quadrature": (float, 1e-6),
    "tol.factorization": (float, FACTORIZATION_TOL),
    "tol.commutator": (float, 1e-8),
    "tol.offblock": (float, 1e-8),
    "tol.berezin": (float, 1e-6),
    "tol.remainder": (float, 1e-6),
    "tol.spectrum": (float, 1e-6),
    "out.dir": (str, "runs/latest"),
    "threads": (int, 0),
}

# minutes-scale desk envelope; larger requests are refused, not attempted
_MAX_N = 4
_MAX_ELL = 2
_MAX_D = 12
_MAX_R = 10
_MAX_MATRIX = 2000

# weight of the quantization suite's boundary-vanishing probe
_BOUNDARY_MU = 2.0


def parse_config_text(text: str) -> Dict[str, str]:
    """Flat key = value lines; '#' starts a comment, blanks are skipped."""
    out: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise DomainError(f"config line {ln}: empty key or value")
        if key in out:
            raise DomainError(f"config line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated settings shared by all suites.

    ``settings`` holds the typed value of every config key as requested
    (``from_mapping`` rewrites none); the other fields are the forms the
    suites read.
    """

    settings: Dict[str, object] = field(repr=False)
    geometry: BallGeometry
    lam: float
    D: int
    R: int
    D_eval: int
    D_remainder: int
    a_text: str
    c_text: str
    spec: QuadratureSpec
    mu_schedule: Tuple[int, ...]
    eval_levels: Tuple[int, ...]
    remainder_levels: Tuple[int, ...]
    radii_count: int
    grid_points: int
    grid_tmax: float
    tolerances: Dict[str, float]
    out_dir: str
    a_expr: SymbolExpr = field(repr=False, default=None)
    c_expr: SymbolExpr = field(repr=False, default=None)
    f_expr: SymbolExpr = field(repr=False, default=None)

    @staticmethod
    def from_mapping(raw: Dict[str, str]) -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(_KNOWN_KEYS))
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(unknown)}")
        values: Dict[str, object] = {}
        for key, (cast, default) in _KNOWN_KEYS.items():
            if key in raw:
                try:
                    values[key] = cast(raw[key])
                except ValueError as exc:
                    raise DomainError(f"config key {key}: {exc}") from None
            else:
                values[key] = default

        geometry = BallGeometry(
            values["geometry.n"], values["geometry.ell"], values["geometry.k"]
        )
        lam = values["space.lambda"]
        if not (math.isfinite(lam) and lam > -1.0):
            raise DomainError(f"space.lambda must be finite and exceed -1, got {lam}")
        D = values["truncation.D"]
        R = values["truncation.R"]
        if geometry.n > _MAX_N or geometry.ell > _MAX_ELL:
            raise DomainError(
                f"geometry exceeds the desk envelope n <= {_MAX_N}, ell <= {_MAX_ELL}"
            )
        if D > _MAX_D or R > _MAX_R:
            raise DomainError(
                f"cutoffs exceed the desk envelope D <= {_MAX_D}, R <= {_MAX_R}"
            )
        if R > D:
            raise DomainError(f"every level needs D >= |rho|; got R={R} > D={D}")
        if geometry.d_inner < 1:
            raise DomainError("suites need a nonempty z'' block")
        if values["threads"] < 0:
            raise DomainError(
                f"threads must be nonnegative (0 = all cores), got {values['threads']}"
            )
        # refused here, not halfway through a suite
        for key in ("truncation.D", "truncation.R", "truncation.D_eval",
                    "truncation.D_remainder", "schedule.eval_levels",
                    "schedule.remainder_levels"):
            if np.min(values[key]) < 0:
                raise DomainError(f"{key} must be nonnegative, got {format_cell(values[key])}")
        if np.min(values["schedule.mu"]) <= -1:
            raise DomainError(
                f"schedule.mu weights must exceed -1, got {format_cell(values['schedule.mu'])}"
            )

        # the boundary probe's last radius must stay within the budget of
        # the radial Berezin expansion
        radii_count = values["schedule.radii"]
        if radii_count < 1:
            raise DomainError(f"schedule.radii must be at least 1, got {radii_count}")
        r_last = default_radius_schedule(radii_count, include_terminal=False)[-1]
        try:
            radial_expansion_degree(geometry.d_inner, _BOUNDARY_MU, r_last**2)
        except DomainError as exc:
            raise DomainError(
                f"schedule.radii = {radii_count} takes the boundary probe to "
                f"r = {r_last!r}: {exc}"
            ) from None

        # refused here with its keys, not in the quantization suite's plan step
        grid_points = values["grid.points"]
        grid_tmax = values["grid.tmax"]
        try:
            _radial_grid(geometry.d_inner, grid_tmax, grid_points)
        except DomainError as exc:
            raise DomainError(
                f"grid.points = {grid_points}, grid.tmax = {grid_tmax!r}: {exc}"
            ) from None

        require_sample_count(values["quad.samples"], "quad.samples")
        spec = QuadratureSpec(
            scheme=values["quad.scheme"],
            q=values["quad.q"],
            angular=values["quad.angular"],
            n_samples=values["quad.samples"],
            seed=values["quad.seed"],
        )

        a_text = values["symbol.a"]
        c_text = values["symbol.c"]
        composite = parse_symbol(f"prod(a = {a_text}, c = {c_text})", geometry)
        f_wrap = parse_symbol(f"prod(a = 1, c = {values['symbol.f']})", geometry)

        tolerances = {
            key.split(".", 1)[1]: values[key]
            for key in _KNOWN_KEYS
            if key.startswith("tol.")
        }
        return ExperimentConfig(
            settings=values,
            geometry=geometry,
            lam=lam,
            D=D,
            R=R,
            D_eval=values["truncation.D_eval"],
            D_remainder=values["truncation.D_remainder"],
            a_text=a_text,
            c_text=c_text,
            spec=spec,
            mu_schedule=values["schedule.mu"],
            eval_levels=values["schedule.eval_levels"],
            remainder_levels=values["schedule.remainder_levels"],
            radii_count=radii_count,
            grid_points=grid_points,
            grid_tmax=grid_tmax,
            tolerances=tolerances,
            out_dir=values["out.dir"],
            a_expr=composite.a,
            c_expr=composite.c,
            f_expr=f_wrap.c,
        )

    def echo(self) -> str:
        """The full effective configuration, one key per line."""
        return "\n".join(
            f"{key} = {format_cell(v)}" for key, v in sorted(self.settings.items())
        )

    def worker_count(self) -> int:
        return self.settings["threads"] or os.cpu_count() or 1


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    text = Path(path).read_text()
    return ExperimentConfig.from_mapping(parse_config_text(text))


def default_config(overrides: Optional[Dict[str, object]] = None) -> ExperimentConfig:
    raw = {str(k): str(v) for k, v in (overrides or {}).items()}
    return ExperimentConfig.from_mapping(raw)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class CheckLine:
    label: str
    passed: bool
    detail: str


@dataclass
class SuiteResult:
    name: str
    checks: List[CheckLine] = field(default_factory=list)
    tables: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, label: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckLine(label, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _radial_grid(d: int, tmax: float, points: int) -> np.ndarray:
    """``points`` points z = (sqrt(t), 0, ...) with t equispaced on [0, tmax]."""
    if points < 1:
        raise DomainError(f"the radial grid needs at least one point, got {points}")
    if not 0.0 <= tmax < 1.0:
        raise DomainError(f"the radial grid's tmax must lie in [0, 1), got {tmax!r}")
    ts = np.linspace(0.0, tmax, points)
    grid = np.zeros((points, d), dtype=complex)
    grid[:, 0] = np.sqrt(ts)
    return grid


# ---------------------------------------------------------------------------
# Suites


def _plan_or_refuse(what: str, plan: Callable[..., object], *args, **kwargs) -> object:
    """``plan(*args, **kwargs)``; its refusal names the suite and ``what`` needed it."""
    try:
        return plan(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"suite {what}: {exc}; or leave the suite out with --only") from None


def plan_norm_identity(cfg: ExperimentConfig) -> Callable[[], SuiteResult]:
    """The norm-identity suite's run, once its matrices are planned: c =
    1 - |z|^2 on each level's inner ball, on the diagonal and on the
    quadrature route, and the level route of 1 (x) c on the full ball."""
    geo = cfg.geometry
    d_in = geo.d_inner
    c_expr = parse_symbol("1 - abs2(z)", BallGeometry(d_in, d_in, (d_in,)))
    spaces = [geo.level_space(cfg.lam, (k,) + (0,) * (geo.m - 1)) for k in range(cfg.R + 1)]
    routes = [[_plan_or_refuse(f"norm_identity: the {route} route of c at mu = {space.lam}",
                               assembly_path, c_expr, space, cfg.D, cfg.spec, use_fast_paths=fast)
               for route, fast in (("diagonal", True), ("quadrature", False))]
              for space in spaces]
    f_c = ProductSymbol(a=Const(1.0), c=c_expr, geometry=geo)
    full = _plan_or_refuse("norm_identity: the level route of 1 (x) c", _level_route, f_c,
                           WeightedSpace(geo.n, cfg.lam, geometry=geo), cfg.D, cfg.spec)
    return functools.partial(run_norm_identity, cfg, routes, full)


def run_norm_identity(cfg: ExperimentConfig, routes: Sequence[list],
                      full: AssemblyPath) -> SuiteResult:
    """Block norms of the canonical vanishing symbol against closed forms:
    each level's diagonal and quadrature ``routes``, the sup over the
    blocks of the ``full``-ball matrix of 1 (x) c on its level route
    against its norm, and the block norms' climb toward the sup."""
    res = SuiteResult("norm_identity")
    geo = cfg.geometry
    d_in = geo.d_inner
    tol = cfg.tolerances

    rows = []
    worst_closed = 0.0
    worst_quad = 0.0
    for k_level, (diagonal, quadrature) in enumerate(routes):
        mu = diagonal.space.lam
        closed = (mu + 1.0) / (d_in + mu + 1.0)
        sigma_diag = operator_norm(assemble(diagonal))
        sigma_quad = operator_norm(assemble(quadrature))
        worst_closed = max(worst_closed, abs(sigma_diag - closed))
        worst_quad = max(worst_quad, abs(sigma_quad - closed))
        rows.append((k_level, mu, closed, sigma_diag, sigma_quad))
    res.add(
        "closed_form",
        worst_closed <= tol["norm"],
        f"max |sigma - closed| = {worst_closed:.3e} (tol {tol['norm']:.1e})",
    )
    res.add(
        "quadrature",
        worst_quad <= tol["norm_quadrature"],
        f"max |sigma - closed| = {worst_quad:.3e} (tol {tol['norm_quadrature']:.1e})",
    )

    # the monomial eigenvalues 1 - (|alpha''| + d'') / (|alpha| + n + lam + 1)
    # of T_c on the full ball peak at |alpha''| = 0, |alpha| = D
    sup_blocks = max(block_norms(assemble(full), geo).values())
    sigma_full = 1.0 - d_in / (cfg.D + geo.n + cfg.lam + 1.0)
    gap = abs(sup_blocks - sigma_full)
    res.add(
        "sup_over_blocks",
        gap <= tol["norm"],
        f"|sup_rho sigma - sigma_full| = {gap:.3e}",
    )

    norms = [r[3] for r in rows]
    sup_c = 1.0  # the profile 1 - t attains its sup at the origin
    monotone = all(b > a for a, b in zip(norms, norms[1:]))
    below = all(v <= sup_c + 1e-12 for v in norms)
    res.add(
        "monotone_approach",
        monotone and below,
        f"block norms climb from {norms[0]:.6f} to {norms[-1]:.6f} toward {sup_c}",
    )

    res.tables["norm_identity.csv"] = csv_lines(
        "k,mu,closed_form,sigma_diagonal,sigma_quadrature", rows
    )
    return res


def _canned_pairs(cfg: ExperimentConfig) -> List[Tuple[str, str]]:
    pairs = [
        ("r1^2", "1"),
        ("r1^2", "1 - abs2(zc)"),
        ("1 - r1^2", "re(zc1)"),
    ]
    own = (cfg.a_text, cfg.c_text)
    if own not in pairs:
        pairs.append(own)
    return pairs


def plan_factorization_suite(cfg: ExperimentConfig) -> Callable[[], SuiteResult]:
    """The factorization suite's run, once both routes of each pair
    (``_pair_plans``) and the commutator's two operators are planned."""
    geo = cfg.geometry
    space = WeightedSpace(geo.n, cfg.lam, geometry=geo)
    pairs = []
    for a_text, c_text in _canned_pairs(cfg):
        composite = parse_symbol(f"prod(a = {a_text}, c = {c_text})", geo)
        pairs.append(((a_text, c_text), [
            _plan_or_refuse(f"factorization: the {route} of pair ({a_text} | {c_text})", plan)
            for route, plan in _pair_plans(composite, space, cfg.D, cfg.spec)]))
    one_sided = [
        _plan_or_refuse(f"factorization: the commutator's matrix of {symbol_to_text(f)}",
                        assembly_path, f, space, cfg.D, cfg.spec)
        for f in (parse_symbol(f"prod(a = {cfg.a_text}, c = 1)", geo),
                  parse_symbol(f"prod(a = 1, c = {cfg.c_text})", geo))]
    return functools.partial(run_factorization_suite, cfg, pairs, one_sided)


def run_factorization_suite(cfg: ExperimentConfig, pairs: Sequence[tuple],
                            one_sided: Sequence[AssemblyPath]) -> SuiteResult:
    """Two-route factorization deviations over every level up to R for each
    of the ``pairs`` ((a text, c text), its two route plans), and the
    commutator of the ``one_sided`` operators."""
    res = SuiteResult("factorization")
    geo = cfg.geometry
    tol = cfg.tolerances
    levels = levels_up_to(cfg.R, geo.m)

    def one_pair(routes: Sequence[AssemblyPath]):
        return _compare_routes(*routes, levels, tol["factorization"])

    with ThreadPoolExecutor(max_workers=cfg.worker_count()) as pool:
        outcomes = list(pool.map(one_pair, [routes for _, routes in pairs]))

    table = []
    for ((a_text, c_text), _), (_, reports) in zip(pairs, outcomes):
        worst = max(r.max_deviation for r in reports)
        ok = all(r.passed for r in reports)
        if cfg.spec.scheme == MONTE_CARLO:
            ratio = max(r.max_se_ratio for r in reports)
            detail = f"worst dev {worst:.3e}, max dev/(5 SE) {ratio:.2f}"
        else:
            detail = f"worst dev {worst:.3e} (tol {tol['factorization']:.1e})"
        res.add(f"pair({a_text} | {c_text})", ok, detail)
        table += [
            (a_text, c_text, r.rho, r.mu, r.max_deviation, r.passed) for r in reports
        ]
    res.tables["factorization.csv"] = csv_lines("a,c,rho,mu,max_deviation,passed", table)

    # the two one-sided operators must commute (their levels share bases)
    t_a, t_c = (assemble(path) for path in one_sided)
    comm = operator_norm((t_a @ t_c) - (t_c @ t_a))
    res.add(
        "commutator",
        comm <= tol["commutator"],
        f"||[T_fa, T_fc]|| = {comm:.3e} (tol {tol['commutator']:.1e})",
    )

    if cfg.spec.scheme == GAUSS_JACOBI:
        off, total = off_block_mass(outcomes[-1][0], geo)
        rel = off / total if total > 0 else 0.0
        res.add(
            "off_block_mass",
            rel <= tol["offblock"],
            f"off-block fraction {rel:.3e} of ||M||_F (honest quadrature)",
        )
    return res


def _probe_cutoff(symbols: Sequence[SymbolExpr], d: int, spec: QuadratureSpec) -> int:
    """Largest cutoff <= 60 whose matrices of these symbols on the d-ball
    fit the matrix envelope and whose plans ``assembly_path`` accepts."""

    def fits(D: int) -> bool:
        if count_basis(d, D) > _MAX_MATRIX:
            return False
        try:
            for sym in symbols:
                assembly_path(sym, WeightedSpace(d, 0.0), D, spec)
        except DomainError:
            return False
        return True

    probe_D = 60
    while probe_D > 4 and not fits(probe_D):
        probe_D -= 1
    return probe_D


def plan_quantization_suite(cfg: ExperimentConfig) -> Callable[[], SuiteResult]:
    """The quantization suite's run, once everything it assembles is
    planned: each semicommutator's distinct matrices, each recovery block
    and each remainder's estimate, a callable (on radial blocks its moment
    table, else its matrix), the consistency probe's matrices, and each
    probe's Berezin transforms at each weight over its points at once."""
    geo = cfg.geometry
    d_in = geo.d_inner
    c_in = rebase_inner(cfg.c_expr)
    mus = list(cfg.mu_schedule)
    c_disk = parse_symbol("1 - abs2(z)", BallGeometry(1, 1, (1,)))
    semis = [(c_in, c_in, WeightedSpace(d_in, float(mu)), cfg.D) for mu in mus]
    semis += [(c_in, Const(1.0), WeightedSpace(d_in, float(mus[-1])), cfg.D),
              (c_disk, c_disk, WeightedSpace(1, 0.0), 4)]
    semi_paths = [
        _semicommutator_paths(c1, c2, None, lambda f: _plan_or_refuse(
            f"quantization: the semicommutator at mu = {space.lam}, D = {D}, "
            f"its matrix of {symbol_to_text(f)}", assembly_path, f, space, D, cfg.spec))
        for c1, c2, space, D in semis]

    pad = (0,) * (geo.m - 1)
    recovery = [
        [(rho, _plan_or_refuse(
            f"quantization: the recovery block of level {rho[0]} at {key} = {D}",
            assembly_path, c_in, geo.level_space(cfg.lam, rho), D, cfg.spec))
         for rho in ((tot,) + pad for tot in levels)]
        for key, D, levels in (("truncation.D_eval", cfg.D_eval, cfg.eval_levels),
                               ("truncation.D_remainder", cfg.D_remainder,
                                cfg.remainder_levels))]
    radial = all(path.kind == "radial" for rows in recovery for _, path in rows)
    c_fn = as_point_function(c_in)
    D = cfg.D_remainder
    for rho, _ in recovery[1]:
        _plan_or_refuse(
            f"quantization: the recovery remainder of level {rho[0]} at "
            f"truncation.D_remainder = {D}",
            lambda: radial_table_order(c_fn, D, f"the radial moment table for degrees <= {D}")
            if radial else assembly_path(c_fn, geo.level_space(cfg.lam, rho), D, cfg.spec))

    # the consistency probe: the two smallest weights, c and re(z1), at a few
    # grid points with |z|^2 <= 1/2, where its cutoff swallows the kernel mass
    grid = _radial_grid(d_in, cfg.grid_tmax, cfg.grid_points)
    keep = np.sum(np.abs(grid) ** 2, axis=1) <= 0.5
    probe_pts = grid[keep][:: max(1, int(np.count_nonzero(keep)) // 4 or 1)]
    probe_mus = sorted(set(mus))[:2] if len(mus) >= 2 else mus
    probe_symbols = [c_in, parse_symbol("re(z1)", BallGeometry(d_in, d_in, (d_in,)))]
    probe_D = _probe_cutoff(probe_symbols, d_in, cfg.spec)
    probe_paths = [_plan_or_refuse(
        f"quantization: the Berezin-consistency probe's matrix of {symbol_to_text(sym)} at "
        f"mu = {mu}, D = {probe_D}",
        assembly_path, sym, WeightedSpace(d_in, float(mu)), probe_D, cfg.spec)
        for mu in probe_mus for sym in probe_symbols]
    radii = default_radius_schedule(cfg.radii_count, include_terminal=False)
    b_points = np.zeros((len(radii), d_in), dtype=complex)
    b_points[:, 0] = radii
    probes = [("Berezin error probe", c_in, mus, grid)]
    probes += [("Berezin-consistency probe", sym, probe_mus, probe_pts) for sym in probe_symbols]
    probes.append(("boundary probe", c_in, [_BOUNDARY_MU], b_points))
    decay_plans, *consistency, (boundary,) = [
        [_plan_or_refuse(f"quantization: the {what} of {symbol_to_text(sym)} at mu = {mu}",
                         berezin_plan, sym, float(mu), pts, cfg.spec) for mu in weights]
        for what, sym, weights, pts in probes]
    # each consistency matrix with its transform: by weight, then symbol
    probe = list(zip(probe_paths, [plan for at_mu in zip(*consistency) for plan in at_mu]))
    return functools.partial(run_quantization_suite, cfg, c_in, semi_paths, grid, recovery,
                             decay_plans, probe, (radii, boundary))


def run_quantization_suite(cfg: ExperimentConfig, c_in: SymbolExpr, semi_paths: Sequence[tuple],
                           grid: np.ndarray, recovery: Sequence[list],
                           decay_plans: Sequence[BerezinPlan], probe: Sequence[tuple],
                           boundary: tuple) -> SuiteResult:
    """Semicommutator decay, Berezin error decay, boundary table, recovery;
    ``semi_paths`` holds each semicommutator's plans: c c at each weight
    of the schedule, c 1 at the largest, the disk's degree-0 one.  The
    Berezin transforms are plans: ``decay_plans`` one per weight over the
    error grid, ``probe`` each consistency matrix's plan with its
    transform's, and ``boundary`` the radii with the boundary table's."""
    res = SuiteResult("quantization")
    geo = cfg.geometry
    tol = cfg.tolerances
    mus = list(cfg.mu_schedule)

    *decay_mats, single, s_disk = [_assemble_semicommutator(paths) for paths in semi_paths]
    semi_norms = [operator_norm(n_mat) for n_mat in decay_mats]
    decreasing = all(b < a for a, b in zip(semi_norms, semi_norms[1:]))
    res.add(
        "semicommutator_decay",
        decreasing,
        "norms " + ", ".join(f"{v:.3e}" for v in semi_norms),
    )
    if 4 in mus and 32 in mus:
        v4 = semi_norms[mus.index(4)]
        v32 = semi_norms[mus.index(32)]
        res.add(
            "semicommutator_ratio",
            v32 < 0.25 * v4,
            f"norm(32) = {v32:.3e} vs norm(4)/4 = {0.25 * v4:.3e}",
        )

    # fixed low-weight disk value of the degree-0 semicommutator entry
    v0 = complex(s_disk.entry((0,), (0,)))
    res.add(
        "degree0_value",
        abs(v0 - (-1.0 / 12.0)) <= tol["norm"],
        f"entry = {v0.real!r} vs -1/12",
    )

    nrm_single = operator_norm(single)
    res.add(
        "single_generator",
        nrm_single == 0.0,
        f"||T_c T_1 - T_c|| = {format_float(nrm_single)}",
    )

    decay = decay_table(decay_plans)
    errs = [row[1] for row in decay.rows]
    res.add(
        "berezin_error_decay",
        all(b < a for a, b in zip(errs, errs[1:])),
        "sup errors " + ", ".join(f"{v:.3e}" for v in errs),
    )
    res.tables["quantization_berezin.csv"] = decay.csv_lines()

    res.tables["quantization_semicommutator.csv"] = csv_lines(
        "mu,semicommutator_norm", zip(mus, semi_norms)
    )

    # operator side vs symbol side of the Berezin transform
    worst_consistency = 0.0
    for path, plan in probe:
        t_sym = assemble(path)
        for z, rhs_z in zip(plan.points, berezin_transform(plan).tolist()):
            lhs = berezin_of_operator(t_sym, plan.mu, z)
            worst_consistency = max(worst_consistency, abs(lhs - rhs_z))
    res.add(
        "berezin_consistency",
        worst_consistency <= tol["berezin"],
        f"max |operator - symbol| = {worst_consistency:.3e}",
    )

    # |c - B_mu[c]| at r e_1 of the inner ball, one probe point per radius
    radii, b_plan = boundary
    b_errs = berezin_errors(b_plan)
    res.add(
        "boundary_vanishing",
        all(b < a for a, b in zip(b_errs, b_errs[1:])) and b_errs[-1] < 0.05,
        f"errors fall to {b_errs[-1]:.3e} at r = {radii[-1]}",
    )
    res.tables["boundary_decay.csv"] = csv_lines("radius,error", zip(radii, b_errs))

    eval_blocks, rem_blocks = (
        [LevelBlock(rho, dim_level(rho, geo.k), assemble(path)) for rho, path in blocks]
        for blocks in recovery
    )
    recovery = recover_symbol_and_remainder(
        eval_blocks, grid, cfg.spec, remainder_blocks=rem_blocks
    )
    c_fn = as_point_function(c_in)
    true_vals = np.asarray(c_fn(grid))
    sup_err = float(np.max(np.abs(recovery.values - true_vals)))
    mu_max = max(b.mu for b in eval_blocks)
    res.add(
        "recovery_grid",
        sup_err <= 2.0 / mu_max,
        f"sup |c_est - c| = {sup_err:.3e} (allowed {2.0 / mu_max:.3e})",
    )
    res.add(
        "recovery_remainders",
        recovery.max_remainder() <= tol["remainder"],
        f"max ||N_rho|| = {recovery.max_remainder():.3e}",
    )
    res.tables["recovery_remainders.csv"] = recovery.remainder_csv_lines()
    res.tables["recovery_grid.csv"] = recovery.grid_csv_lines()
    return res


def plan_spectrum_suite(cfg: ExperimentConfig) -> Callable[[], SuiteResult]:
    """The spectrum suite's run, once its sigma_min matrices are planned: a
    vanishing and an invertible symbol on the disk at mu = 2, at D = 4, 8, 16."""
    disk = BallGeometry(1, 1, (1,))
    sigma_min = [[_plan_or_refuse(f"spectrum: the sigma_min matrix at D = {n}", assembly_path,
                                  parse_symbol(text, disk), WeightedSpace(1, 2.0), n, cfg.spec)
                  for n in (4, 8, 16)] for text in ("1 - abs2(z)", "2 - abs2(z)")]
    return functools.partial(run_spectrum_suite, cfg, sigma_min)


def run_spectrum_suite(cfg: ExperimentConfig, sigma_min: Sequence[list]) -> SuiteResult:
    """Essential spectrum samples, Fredholm verdicts, and the sigma_min
    trends of the vanishing and the invertible symbol's ``sigma_min``
    matrices, each given by its plan."""
    res = SuiteResult("spectrum")
    tol = cfg.tolerances
    # boundary sampling needs a sphere with room for a vanishing locus;
    # the disk's circle never sees one for coordinate symbols
    d_spec = max(2, cfg.geometry.d_inner)
    seed = cfg.spec.seed

    f_expr = cfg.f_expr
    sample = essential_spectrum_sample(f_expr, d_spec, seed=seed)
    terminal = [v for _, r, v in sample.rows if r >= 1.0]
    worst = max(abs(v - 1.0) for v in terminal) if terminal else math.inf
    res.add(
        "scalar_fredholm",
        sample.fredholm and worst <= tol["spectrum"],
        f"terminal |det - 1| max = {worst:.3e}, verdict "
        + ("Fredholm" if sample.fredholm else "non-Fredholm"),
    )
    report = fredholm_index_report(f_expr, sample)
    res.add("scalar_index", report.index == 0, f"index = {report.index}")
    res.tables["spectrum_scalar.csv"] = sample.csv_lines()

    zc1 = parse_symbol("prod(a = 1, c = zc1)", BallGeometry(d_spec + 1, 1, (1,))).c
    sample_z = essential_spectrum_sample(zc1, d_spec, seed=seed)
    res.add(
        "coordinate_non_fredholm",
        not sample_z.fredholm,
        f"min |det| = {sample_z.min_abs_det:.3e} at a boundary zero",
    )
    refused = False
    try:
        fredholm_index_report(zc1, sample_z)
    except DomainError:
        refused = True
    res.add("coordinate_refusal", refused, "index report refuses non-Fredholm input")
    res.tables["spectrum_coordinate.csv"] = sample_z.csv_lines()

    two = MatrixSymbol.diagonal(
        (
            parse_symbol("2 - abs2(z)", BallGeometry(d_spec, d_spec, (d_spec,))),
            parse_symbol("3 - abs2(z)", BallGeometry(d_spec, d_spec, (d_spec,))),
        )
    )
    sample_m = essential_spectrum_sample(two, d_spec, seed=seed)
    report_m = fredholm_index_report(two, sample_m)
    res.add(
        "matrix_index",
        sample_m.fredholm and report_m.index == 0,
        f"2x2 diagonal symbol: index = {report_m.index}",
    )
    res.tables["spectrum_matrix.csv"] = sample_m.csv_lines()

    gam = gamma_sequence(cfg.a_expr, cfg.geometry.k, cfg.lam, cfg.R)
    sample_w = essential_spectrum_sample(f_expr, d_spec, gamma=gam, seed=seed)
    res.add(
        "weighted_variant",
        sample_w.fredholm,
        f"min |det(gamma c)| over levels = {sample_w.min_abs_det:.3e}",
    )
    res.tables["spectrum_weighted.csv"] = sample_w.csv_lines()

    tab_v, tab_i = (
        min_singular_probe([assemble(path) for path in paths])
        for paths in sigma_min
    )
    res.add(
        "sigma_min_trends",
        tab_v.verdict == "decaying" and tab_i.verdict == "flat",
        f"vanishing symbol: {tab_v.verdict}; invertible symbol: {tab_i.verdict}",
    )
    res.tables["sigma_min_vanishing.csv"] = tab_v.csv_lines()
    res.tables["sigma_min_invertible.csv"] = tab_i.csv_lines()

    text = report.text_lines() + ["", "2x2 diagonal:"] + report_m.text_lines()
    res.tables["fredholm.txt"] = text
    return res


_ALL_SUITES: Tuple[Tuple[str, Callable[[ExperimentConfig], Callable[[], SuiteResult]]], ...] = (
    ("norm_identity", plan_norm_identity),
    ("factorization", plan_factorization_suite),
    ("quantization", plan_quantization_suite),
    ("spectrum", plan_spectrum_suite),
)


def plan_suites(
    cfg: ExperimentConfig, only: Optional[Sequence[str]] = None
) -> List[Tuple[str, Callable[[], SuiteResult]]]:
    """The name and run of each suite of this selection, from its plan
    step, so whatever a suite would stop on is refused before any runs.
    Unknown names are refused too."""
    missing = set(only or ()) - {name for name, _ in _ALL_SUITES}
    if missing:
        raise DomainError(f"unknown suite names: {', '.join(sorted(missing))}")
    return [(name, plan(cfg)) for name, plan in _ALL_SUITES if not only or name in only]


def run_all(cfg: ExperimentConfig, only: Optional[Sequence[str]] = None) -> List[SuiteResult]:
    """Run the suites sequentially (each may parallelize internally)."""
    return [run() for _, run in plan_suites(cfg, only)]


# ---------------------------------------------------------------------------
# Output


def _atomic_replace_dir(out_dir: Path, writer: Callable[[Path], None]) -> None:
    """Populate a fresh directory and swap it into place.

    The target either keeps its old content or shows the complete new
    content; readers never observe a partial mixture.
    """
    out_dir = Path(out_dir).resolve()
    tmp = out_dir.with_name(out_dir.name + f".tmp{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        writer(tmp)
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        if out_dir.exists():
            old = out_dir.with_name(out_dir.name + f".old{os.getpid()}")
            if old.exists():
                shutil.rmtree(old)
            os.replace(out_dir, old)
            os.replace(tmp, out_dir)
            shutil.rmtree(old)
        else:
            os.replace(tmp, out_dir)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)


def summary_lines(results: Sequence[SuiteResult]) -> List[str]:
    lines = []
    for r in results:
        for c in r.checks:
            word = "PASS" if c.passed else "FAIL"
            lines.append(f"{word} {r.name}.{c.label}: {c.detail}")
    overall = all(r.passed for r in results)
    lines.append("OVERALL " + ("PASS" if overall else "FAIL"))
    return lines


def write_outputs(
    results: Sequence[SuiteResult],
    out_dir: Union[str, Path],
    cfg: ExperimentConfig,
) -> bool:
    """Land tables, summary.txt and the effective config; returns overall."""

    def writer(tmp: Path) -> None:
        for r in results:
            for fname, lines in r.tables.items():
                (tmp / fname).write_text("\n".join(lines) + "\n")
        (tmp / "summary.txt").write_text("\n".join(summary_lines(results)) + "\n")
        (tmp / "config.txt").write_text(cfg.echo() + "\n")

    _atomic_replace_dir(Path(out_dir), writer)
    return all(r.passed for r in results)
