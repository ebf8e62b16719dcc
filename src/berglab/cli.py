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
from typing import List, Optional, Sequence

import numpy as np

from .berezin import (
    berezin_of_operator,
    berezin_of_symbol,
    essential_spectrum_sample,
    fredholm_index_report,
    quantization_probe,
)
from .core import BallGeometry, WeightedSpace, count_basis, format_float, levels_up_to
from .errors import DomainError
from .levels import full_route_matrix, verify_tensor_factorization
from .quadrature import GAUSS_JACOBI, MONTE_CARLO, QuadratureSpec
from .suites import (
    ExperimentConfig,
    _as_int_list,
    _radial_grid,
    default_config,
    load_config,
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
    return QuadratureSpec(
        scheme=args.scheme,
        q=args.q,
        angular=args.angular,
        n_samples=args.samples or 100_000,
        seed=args.seed if args.seed is not None else 20_260_813,
    )


def _echo(pairs: dict) -> None:
    for key in sorted(pairs):
        print(f"# {key} = {pairs[key]}")


def _write_or_print(lines: List[str], out: Optional[str]) -> None:
    if out:
        path = Path(out)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
    else:
        for line in lines:
            print(line)


_FLAGS = {
    "--config": dict(help="config file supplying defaults"),
    "--out": dict(help="output file or directory"),
    "--seed": dict(type=int, default=None, help="RNG seed"),
    "--threads": dict(type=int, default=0, help="worker pool size (0 = cores)"),
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
    sub.add_argument("--samples", type=int, default=100_000)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_parse(args: argparse.Namespace) -> int:
    geometry = _geometry_from(args)
    plan = {"symbol": args.symbol}
    if geometry is not None:
        plan.update({"n": geometry.n, "ell": geometry.ell, "k": geometry.k})
    if args.dry_run:
        _echo(plan)
        print("plan: parse and classify the symbol")
        return 0
    expr = parse_symbol(args.symbol, geometry)
    _echo(plan)
    print(symbol_to_text(expr))
    print(f"class: {classify_symbol(expr, geometry)}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    geometry = _geometry_from(args)
    d = args.d if args.d is not None else (geometry.n if geometry else None)
    if d is None:
        raise DomainError("matrix needs --d or a geometry via --n/--ell/--k")
    expr = parse_symbol(args.symbol, geometry)
    space = WeightedSpace(d, args.mu, geometry=geometry)
    # record the orders the assembly uses, not the 0 = auto request
    path = assembly_path(expr, space, args.D, _spec_from(args))
    spec = path.spec
    plan = {
        "symbol": args.symbol,
        "d": d,
        "mu": args.mu,
        "D": args.D,
        "scheme": spec.scheme,
        "seed": spec.seed,
        "size": count_basis(d, args.D),
    }
    if spec.scheme == GAUSS_JACOBI:
        plan.update(q=spec.q, angular=spec.angular)
    if args.dry_run:
        _echo(plan)
        print("plan: assemble the truncated matrix" + (" and write CSV" if args.out else ""))
        return 0
    mat = toeplitz_matrix(expr, space, args.D, spec)
    _echo(plan)
    print(f"size = {mat.size}, norm = {format_float(operator_norm(mat))}")
    if args.out:
        export_matrix_csv(
            mat, args.out, symbol_text=args.symbol, spec=spec,
            extra={"assembly": path.record()},
        )
        print(f"wrote {args.out}")
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    k = args.k
    plan = {
        "profile": args.profile,
        "k": k,
        "lambda": args.lam,
        "rmax": args.rmax,
    }
    if args.dry_run:
        _echo(plan)
        print("plan: tabulate gamma over all levels |rho| <= rmax")
        return 0
    geometry = BallGeometry(sum(k), sum(k), k)
    profile = parse_symbol(args.profile, geometry)
    seq = gamma_sequence(profile, k, args.lam, args.rmax)
    if any(isinstance(v, complex) for v in seq.values.values()):
        raise DomainError("gamma prints one real column; the profile is complex-valued")
    _echo(plan)
    lines = ["rho,gamma"]
    for rho in seq.levels:
        rho_txt = " ".join(str(v) for v in rho)
        lines.append(f"{rho_txt},{format_float(seq(rho))}")
    _write_or_print(lines, args.out)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    plan = {"symbol": args.symbol, "d": args.d, "mu": args.mu, "D": args.D}
    if args.dry_run:
        _echo(plan)
        print("plan: sigma_max of the truncated matrix")
        return 0
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    space = WeightedSpace(args.d, args.mu, geometry=geometry)
    value = operator_norm(toeplitz_matrix(expr, space, args.D, spec))
    _echo(plan)
    print(format_float(value))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    geometry = _geometry_from(args)
    if geometry is None:
        raise DomainError("decompose needs --n (and usually --ell/--k)")
    spec = _spec_from(args)
    tol = args.tol if args.tol is not None else 1e-5
    plan = {
        "a": args.a,
        "c": args.c,
        "n": geometry.n,
        "ell": geometry.ell,
        "k": geometry.k,
        "lambda": args.lam,
        "D": args.D,
        "R": args.R,
        "tol": tol,
        "scheme": spec.scheme,
    }
    if args.dry_run:
        _echo(plan)
        print("plan: two-route factorization check on every level |rho| <= R")
        return 0
    composite = parse_symbol(f"prod(a = {args.a}, c = {args.c})", geometry)
    _echo(plan)
    space = WeightedSpace(geometry.n, args.lam, geometry=geometry)
    full, full_se = full_route_matrix(composite, space, args.D, spec)
    lines = ["rho,mu,max_deviation,passed"]
    worst = 0.0
    ok = True
    for rho in levels_up_to(args.R, geometry.m):
        rep = verify_tensor_factorization(
            composite.a,
            composite.c,
            geometry,
            args.lam,
            rho,
            args.D,
            spec,
            tol=tol,
            full_matrix=full,
            full_se=full_se,
        )
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed
        rho_txt = " ".join(str(v) for v in rho)
        lines.append(
            f"{rho_txt},{format_float(rep.mu)},"
            f"{format_float(rep.max_deviation)},{int(rep.passed)}"
        )
        print(rep.summary())
    _write_or_print(lines, args.out)
    if not ok:
        print(f"worst deviation {worst:.3e} exceeds tolerance {tol:.1e}")
        return 2
    return 0


def _parse_point(text: str, d: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != d:
        raise DomainError(f"point needs {d} comma-separated components")
    try:
        return np.array([complex(p.replace("i", "j")) for p in parts])
    except ValueError:
        raise DomainError(f"cannot parse point {text!r}") from None


def cmd_berezin(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    plan = {"symbol": args.symbol, "d": args.d, "mu": args.mu, "D": args.D, "z": args.z}
    if args.dry_run:
        _echo(plan)
        print("plan: operator-side and symbol-side transforms at z")
        return 0
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    z = _parse_point(args.z, args.d)
    space = WeightedSpace(args.d, args.mu)
    mat = toeplitz_matrix(expr, space, args.D, spec)
    op_side = berezin_of_operator(mat, args.mu, z)
    sym_side = berezin_of_symbol(expr, args.mu, z, spec)
    _echo(plan)
    print(f"operator side = {format_float(op_side.real)} + {format_float(op_side.imag)}i")
    print(f"symbol side   = {format_float(sym_side.real)} + {format_float(sym_side.imag)}i")
    print(f"difference    = {abs(op_side - sym_side):.3e}")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    plan = {
        "symbol": args.symbol,
        "d": args.d,
        "mus": " ".join(str(v) for v in args.mus),
        "grid_points": args.grid_points,
        "tmax": args.tmax,
    }
    if args.dry_run:
        _echo(plan)
        print("plan: sup-grid Berezin error for each weight")
        return 0
    geometry = BallGeometry(args.d, args.d, (args.d,))
    expr = parse_symbol(args.symbol, geometry)
    grid = _radial_grid(args.d, args.tmax, args.grid_points)
    table = quantization_probe(expr, args.mus, grid, spec)
    _echo(plan)
    _write_or_print(table.csv_lines(), args.out)
    return 0


def _inner_symbol(text: str):
    expr = parse_symbol(text, None)
    if isinstance(expr, ProductSymbol):
        raise DomainError(
            "boundary sampling works on the inner factor; pass c directly"
        )
    return rebase_inner(expr)


def cmd_spectrum(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 20_260_813
    plan = {"symbol": args.symbol, "d": args.d, "R": args.R, "seed": seed}
    if args.weight_profile:
        plan["weight_profile"] = args.weight_profile
    if args.dry_run:
        _echo(plan)
        print("plan: sample det c near and on the boundary sphere")
        return 0
    expr = _inner_symbol(args.symbol)
    gamma = None
    if args.weight_profile:
        k = args.weight_k or (1,)
        geo = BallGeometry(sum(k), sum(k), k)
        profile = parse_symbol(args.weight_profile, geo)
        gamma = gamma_sequence(profile, k, args.lam, args.R)
    sample = essential_spectrum_sample(
        expr, args.d, R=args.R, seed=seed, gamma=gamma
    )
    _echo(plan)
    print(
        "verdict: "
        + ("Fredholm" if sample.fredholm else "non-Fredholm")
        + f" (min |det| = {format_float(sample.min_abs_det)})"
    )
    _write_or_print(sample.csv_lines(), args.out)
    return 0


def cmd_fredholm(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 20_260_813
    plan = {"symbol": args.symbol, "d": args.d, "seed": seed}
    if args.dry_run:
        _echo(plan)
        print("plan: essential spectrum sample, then the index report")
        return 0
    expr = _inner_symbol(args.symbol)
    sample = essential_spectrum_sample(expr, args.d, seed=seed)
    report = fredholm_index_report(expr, sample)
    _echo(plan)
    _write_or_print(report.text_lines(), args.out)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    overrides = {}
    if args.seed is not None:
        overrides["quad.seed"] = args.seed
    if args.threads:
        overrides["threads"] = args.threads
    if args.out:
        overrides["out.dir"] = args.out
    if overrides:
        # rebuild through the validating constructor with flag overrides
        raw = {}
        for line in cfg.echo().splitlines():
            key, value = line.split(" = ", 1)
            raw[key] = value
        for key, value in overrides.items():
            raw[key] = str(value)
        cfg = ExperimentConfig.from_mapping(raw)
    if args.dry_run:
        print(cfg.echo())
        names = args.only.split(",") if args.only else ["all four suites"]
        print(f"plan: run {', '.join(names)}, write tables to {cfg.out_dir}")
        return 0
    only = args.only.split(",") if args.only else None
    results = run_all(cfg, only=only)
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
    p.set_defaults(func=cmd_suite)

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
        return args.func(args)
    except (DomainError, OSError) as exc:  # parse errors are DomainErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
