"""Command-line front end.

Exit codes: 0 success, 1 domain or validation error, 2 failing acceptance
check.  Errors print to stderr with the prefix "error:".  Every command
echoes its effective settings (as '#'-prefixed lines on stdout, or into
the output directory for suite runs) so results can be reproduced.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .berezin import (
    berezin_of_operator,
    berezin_of_symbol,
    berezin_plan,
    essential_spectrum_sample,
    fredholm_index_report,
    quantization_probe,
)
from .core import (
    BallGeometry,
    WeightedSpace,
    count_basis,
    csv_lines,
    format_float,
    levels_up_to,
)
from .errors import DomainError
from .levels import FACTORIZATION_TOL, _level_route, verify_tensor_factorization
from .quadrature import GAUSS_JACOBI, MONTE_CARLO, QuadratureSpec, require_sample_count
from .suites import (
    ExperimentConfig,
    _as_int_list,
    _radial_grid,
    parse_config_text,
    plan_suites,
    run_all,
    summary_lines,
    write_outputs,
)
from .symbols import (
    ProductSymbol,
    classify_symbol,
    parse_symbol,
    rebase_inner,
    symbol_to_text,
)
from .toeplitz import (
    _require_dense,
    assembly_path,
    export_matrix_csv,
    gamma_sequence,
    operator_norm,
    toeplitz_matrix,
)

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2; bad flags are validation errors.

    Partition flags and other integer lists (``--mus``) parse as the
    config's integer lists do.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register("type", "partition", _as_int_list)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"error: {message}\n")


def _geometry_from(args: argparse.Namespace) -> Optional[BallGeometry]:
    if args.n is None:
        return None
    ell = args.ell if args.ell is not None else 1
    k = args.k or (ell,)
    return BallGeometry(args.n, ell, k)


def _spec_from(args: argparse.Namespace) -> QuadratureSpec:
    require_sample_count(args.samples, "--samples")
    return QuadratureSpec(
        scheme=args.scheme,
        q=args.q,
        angular=args.angular,
        n_samples=args.samples,
        seed=args.seed if args.seed is not None else QuadratureSpec.seed,
    )


def _echo(pairs: dict) -> None:
    for key in sorted(pairs):
        print(f"# {key} = {pairs[key]}")


def _output(lines: List[str], out: Optional[str]) -> List[str]:
    """Write the lines to ``out`` and return the line that says so, or
    return them for stdout."""
    if not out:
        return lines
    path = Path(out)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return [f"wrote {path}"]


# what a plan step returns: the settings to echo, its plan line, and the
# run, which gives the output lines and the exit code
_Plan = Tuple[dict, str, Callable[[], Tuple[List[str], int]]]


_FLAGS = {
    "--config": dict(help="config file supplying defaults"),
    "--out": dict(help="output file or directory"),
    "--seed": dict(type=int, default=None, help="RNG seed"),
    "--threads": dict(type=int, default=None, help="worker pool size (0 = cores)"),
    "--tol": dict(type=float, default=None, help="tolerance override"),
}


def _add_common(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Register --dry-run plus the named flags the subcommand reads."""
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])
    sub.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved plan without computing",
    )


def _add_geometry(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="total complex dimension")
    sub.add_argument("--ell", type=int, default=None, help="split point")
    sub.add_argument("--k", type="partition", default=None, help="partition, e.g. '1,1'")


def _add_quad(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--scheme", choices=(GAUSS_JACOBI, MONTE_CARLO), default=GAUSS_JACOBI
    )
    sub.add_argument("--q", type=int, default=0, help="radial rule order (0 = auto)")
    sub.add_argument("--angular", type=int, default=0, help="phase count (0 = auto)")
    sub.add_argument("--samples", type=int, default=QuadratureSpec.n_samples)


# ---------------------------------------------------------------------------
# Subcommands: each but ``suite`` is a plan step.  It parses, validates and
# plans every assembly its run makes, so a refusal comes before any output
# and under --dry-run too; ``main`` echoes, stops there or runs.


def cmd_parse(args: argparse.Namespace) -> _Plan:
    geometry = _geometry_from(args)
    echo = {"symbol": args.symbol}
    if geometry is not None:
        echo.update({"n": geometry.n, "ell": geometry.ell, "k": geometry.k})
    expr = parse_symbol(args.symbol, geometry)
    return echo, "plan: parse and classify the symbol", lambda: (
        [symbol_to_text(expr), f"class: {classify_symbol(expr, geometry)}"], 0)


def cmd_matrix(args: argparse.Namespace) -> _Plan:
    geometry = _geometry_from(args)
    d = args.d if args.d is not None else (geometry.n if geometry else None)
    if d is None:
        raise DomainError("matrix needs --d or a geometry via --n/--ell/--k")
    expr = parse_symbol(args.symbol, geometry)
    space = WeightedSpace(d, args.mu, geometry=geometry)
    request = _spec_from(args)
    # record the orders the assembly uses, not the 0 = auto request;
    # assembling the request itself keeps every inner plan the recorded one
    path = assembly_path(expr, space, args.D, request)
    spec = path.spec
    if args.out:  # the CSV lists every entry, a radial form's too
        _require_dense(d, args.D)
    echo = {"symbol": args.symbol, "d": d, "mu": args.mu, "D": args.D,
            "scheme": spec.scheme, "seed": spec.seed, "size": count_basis(d, args.D)}
    if spec.scheme == GAUSS_JACOBI:
        echo.update(q=spec.q, angular=spec.angular)
    if path.kind == "torus":
        echo["band"] = path.record()["band"]

    def run():
        mat = toeplitz_matrix(expr, space, args.D, request)
        lines = [f"size = {mat.size}, norm = {format_float(operator_norm(mat))}"]
        if args.out:
            export_matrix_csv(
                mat, args.out, symbol_text=args.symbol, spec=spec,
                extra={"assembly": path.record()},
            )
            lines.append(f"wrote {args.out}")
        return lines, 0

    return echo, "plan: assemble the truncated matrix" + (
        " and write CSV" if args.out else ""), run


def cmd_gamma(args: argparse.Namespace) -> _Plan:
    k = args.k
    echo = {"profile": args.profile, "k": k, "lambda": args.lam, "rmax": args.rmax}
    profile = parse_symbol(args.profile, BallGeometry(sum(k), sum(k), k))

    def run():
        seq = gamma_sequence(profile, k, args.lam, args.rmax)
        if any(isinstance(v, complex) for v in seq.values()):
            raise DomainError("gamma prints one real column; the profile is complex-valued")
        return _output(csv_lines("rho,gamma", seq.items()), args.out), 0

    return echo, "plan: tabulate gamma over all levels |rho| <= rmax", run


def cmd_norm(args: argparse.Namespace) -> _Plan:
    spec = _spec_from(args)
    echo = {"symbol": args.symbol, "d": args.d, "mu": args.mu, "D": args.D}
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    space = WeightedSpace(args.d, args.mu, geometry=geometry)
    assembly_path(expr, space, args.D, spec)
    return echo, "plan: sigma_max of the truncated matrix", lambda: (
        [format_float(operator_norm(toeplitz_matrix(expr, space, args.D, spec)))], 0)


def cmd_decompose(args: argparse.Namespace) -> _Plan:
    geometry = _geometry_from(args)
    if geometry is None:
        raise DomainError("decompose needs --n (and usually --ell/--k)")
    spec = _spec_from(args)
    tol = args.tol if args.tol is not None else FACTORIZATION_TOL
    if args.R < 0:
        raise DomainError(f"the level range must be nonnegative; got R={args.R}")
    if args.R > args.D:
        raise DomainError(f"every level needs D >= |rho|; got R={args.R} > D={args.D}")
    echo = {"a": args.a, "c": args.c, "n": geometry.n, "ell": geometry.ell, "k": geometry.k,
            "lambda": args.lam, "D": args.D, "R": args.R, "tol": tol, "scheme": spec.scheme}
    composite = parse_symbol(f"prod(a = {args.a}, c = {args.c})", geometry)
    # plan both routes, so the dry run refuses what the check would
    space = WeightedSpace(geometry.n, args.lam, geometry=geometry)
    assembly_path(composite, space, args.D, spec, use_fast_paths=False)
    _level_route(composite, space, args.D, spec)

    def run():
        levels = levels_up_to(args.R, geometry.m)
        _, reports = verify_tensor_factorization(
            composite.a, composite.c, geometry, args.lam, levels, args.D, spec, tol=tol
        )
        rows = [(rep.rho, rep.mu, rep.max_deviation, rep.passed) for rep in reports]
        lines = [rep.summary() for rep in reports]
        lines += _output(csv_lines("rho,mu,max_deviation,passed", rows), args.out)
        if all(rep.passed for rep in reports):
            return lines, 0
        worst = max(rep.max_deviation for rep in reports)
        return lines + [f"worst deviation {worst:.3e} exceeds tolerance {tol:.1e}"], 2

    return echo, "plan: two-route factorization check on every level |rho| <= R", run


def _parse_point(text: str, d: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise DomainError(f"point needs {d} comma-separated components")
    try:
        return np.array([complex(p.replace("i", "j")) for p in parts])
    except ValueError:
        raise DomainError(f"cannot parse point {text!r}") from None


def cmd_berezin(args: argparse.Namespace) -> _Plan:
    spec = _spec_from(args)
    echo = {"symbol": args.symbol, "d": args.d, "mu": args.mu, "D": args.D, "z": args.z}
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    z = _parse_point(args.z, args.d)
    space = WeightedSpace(args.d, args.mu, geometry=geometry)
    assembly_path(expr, space, args.D, spec)
    _require_dense(args.d, args.D)  # the operator side reads the basis
    berezin_plan(expr, args.mu, z, spec, geometry=geometry)

    def run():
        mat = toeplitz_matrix(expr, space, args.D, spec)
        op_side = berezin_of_operator(mat, args.mu, z)
        sym_side = berezin_of_symbol(expr, args.mu, z, spec, geometry=geometry)
        return [
            f"operator side = {format_float(op_side.real)} + {format_float(op_side.imag)}i",
            f"symbol side   = {format_float(sym_side.real)} + {format_float(sym_side.imag)}i",
            f"difference    = {abs(op_side - sym_side):.3e}",
        ], 0

    return echo, "plan: operator-side and symbol-side transforms at z", run


def cmd_quantize(args: argparse.Namespace) -> _Plan:
    spec = _spec_from(args)
    echo = {"symbol": args.symbol, "d": args.d, "mus": " ".join(str(v) for v in args.mus),
            "grid_points": args.grid_points, "tmax": args.tmax}
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    grid = _radial_grid(args.d, args.tmax, args.grid_points)
    for mu in args.mus:
        for z in grid:
            berezin_plan(expr, float(mu), z, spec, geometry=geometry)

    def run():
        table = quantization_probe(expr, args.mus, grid, spec, geometry=geometry)
        return _output(table.csv_lines(), args.out), 0

    return echo, "plan: sup-grid Berezin error for each weight", run


def _inner_symbol(text: str):
    expr = parse_symbol(text, None)
    if isinstance(expr, ProductSymbol):
        raise DomainError("boundary sampling works on the inner factor; pass c directly")
    return rebase_inner(expr)


def cmd_spectrum(args: argparse.Namespace) -> _Plan:
    seed = args.seed if args.seed is not None else QuadratureSpec.seed
    echo = {"symbol": args.symbol, "d": args.d, "R": args.R, "seed": seed}
    if args.weight_profile:
        echo["weight_profile"] = args.weight_profile
    expr = _inner_symbol(args.symbol)
    k = args.weight_k or (1,)
    profile = None
    if args.weight_profile:
        profile = parse_symbol(args.weight_profile, BallGeometry(sum(k), sum(k), k))

    def run():
        gamma = None
        if profile is not None:
            gamma = gamma_sequence(profile, k, args.lam, args.R)
        sample = essential_spectrum_sample(expr, args.d, seed=seed, gamma=gamma)
        verdict = "Fredholm" if sample.fredholm else "non-Fredholm"
        lines = [f"verdict: {verdict} (min |det| = {format_float(sample.min_abs_det)})"]
        return lines + _output(sample.csv_lines(), args.out), 0

    return echo, "plan: sample det c near and on the boundary sphere", run


def cmd_fredholm(args: argparse.Namespace) -> _Plan:
    seed = args.seed if args.seed is not None else QuadratureSpec.seed
    echo = {"symbol": args.symbol, "d": args.d, "seed": seed}
    expr = _inner_symbol(args.symbol)

    def run():
        sample = essential_spectrum_sample(expr, args.d, seed=seed)
        return _output(fredholm_index_report(expr, sample).text_lines(), args.out), 0

    return echo, "plan: essential spectrum sample, then the index report", run


def cmd_suite(args: argparse.Namespace) -> int:
    raw = parse_config_text(Path(args.config).read_text()) if args.config else {}
    if args.seed is not None:
        raw["quad.seed"] = str(args.seed)
    if args.threads is not None:
        raw["threads"] = str(args.threads)
    if args.out:
        raw["out.dir"] = args.out
    cfg = ExperimentConfig.from_mapping(raw)
    only = args.only.split(",") if args.only else None
    if args.dry_run:
        plan_suites(cfg, only)
        print(cfg.echo())
        names = only or ["all four suites"]
        print(f"plan: run {', '.join(names)}, write tables to {cfg.out_dir}")
        return 0
    results = run_all(cfg, only=only)  # plans every suite before the first runs
    ok = write_outputs(results, cfg.out_dir, cfg)
    for line in summary_lines(results):
        print(line)
    print(f"wrote {cfg.out_dir}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="berglab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse and classify a symbol")
    p.add_argument("--symbol", required=True)
    _add_geometry(p)
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("matrix", help="assemble a truncated Toeplitz matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--mu", type=float, required=True, help="weight parameter")
    p.add_argument("--D", type=int, required=True, help="degree cutoff")
    _add_geometry(p)
    _add_quad(p)
    _add_common(p, "--out", "--seed")
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("gamma", help="tabulate the quasi-radial eigenvalues")
    p.add_argument("--profile", required=True, help="profile in group radii")
    p.add_argument(
        "--k", type="partition", required=True, help="partition, e.g. '2' or '1,1'"
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--rmax", type=int, default=5)
    _add_common(p, "--out")
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("norm", help="sigma_max of a truncated matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--D", type=int, required=True)
    _add_quad(p)
    _add_common(p, "--seed")
    p.set_defaults(func=cmd_norm)

    p = subs.add_parser("decompose", help="verify the level factorization")
    p.add_argument("--a", required=True, help="z'-factor symbol text")
    p.add_argument("--c", required=True, help="z''-factor symbol text")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--D", type=int, default=6)
    p.add_argument("--R", type=int, default=3)
    _add_geometry(p)
    _add_quad(p)
    _add_common(p, "--out", "--seed", "--tol")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("berezin", help="transform values at a point")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--D", type=int, default=48)
    p.add_argument("--z", required=True, help="point, e.g. '0.3+0.1i,0'")
    _add_quad(p)
    _add_common(p, "--seed")
    p.set_defaults(func=cmd_berezin)

    p = subs.add_parser("quantize", help="Berezin error decay table")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mus", type="partition", default="1,2,4,8,16,32")
    p.add_argument("--grid-points", type=int, default=25)
    p.add_argument("--tmax", type=float, default=0.9)
    _add_quad(p)
    _add_common(p, "--out", "--seed")
    p.set_defaults(func=cmd_quantize)

    p = subs.add_parser("spectrum", help="essential spectrum sample")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, required=True, help="inner ball dimension")
    p.add_argument("--R", type=int, default=0, help="levels for the weighted variant")
    p.add_argument(
        "--weight-profile", default=None, help="quasi-radial profile for gamma"
    )
    p.add_argument(
        "--weight-k", type="partition", default=None, help="partition for the profile"
    )
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    _add_common(p, "--out", "--seed")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("fredholm", help="index report for a boundary-regular symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p, "--out", "--seed")
    p.set_defaults(func=cmd_fredholm)

    p = subs.add_parser("suite", help="run the experiment suites")
    p.add_argument("--only", default=None, help="comma list of suite names")
    _add_common(p, "--config", "--out", "--seed", "--threads")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and flag errors by exiting; callers of
        # main() get the code back instead of the exception
        return int(exc.code or 0)
    try:
        if args.command == "suite":
            return cmd_suite(args)
        echo, plan, run = args.func(args)
        lines, code = ([plan], 0) if args.dry_run else run()
        _echo(echo)
        for line in lines:
            print(line)
        return code
    except (DomainError, OSError) as exc:  # parse errors are DomainErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
