"""Level decomposition: invariant subspaces, blocks, and symbol recovery.

A torus-invariant symbol leaves each subspace spanned by the monomials of
a fixed group degree rho invariant.  A level's positions come from the
one layout ``core.level_layout``, an (hdim, K_inner) array of
(z'-index, z''-index) pairs read off the basis, the inner index fastest.
On a level, a product symbol's matrix is a small factor on the z'-slot
(x) a Toeplitz matrix on the inner ball at weight mu = lam + |rho| + ell:
the "levels" path of ``toeplitz_matrix`` builds it so, and the
factorization check compares it with full-ball quadrature.  A level
block of a pure inner-variable symbol is that Toeplitz matrix alone, one
``OperatorMatrix`` in whichever form its route gives: a radial c's is a
radial form, its per-degree eigenvalues, at any cutoff.

Recovery runs the Berezin transform over the available levels and, when
several shifted weights are present, extrapolates the values to the
infinite-level limit through the node 1/(d + mu + 1) -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .berezin import berezin_of_operator, kernel_tail, radial_berezin_sum
from .core import (
    BallGeometry,
    MultiIndex,
    WeightedSpace,
    csv_lines,
    dim_level,
    level_layout,
)
from .errors import DomainError
from .quadrature import MONTE_CARLO, QuadratureSpec, SymbolLike
from .symbols import ProductSymbol, SymbolExpr, is_symbolic, rebase_inner
from .toeplitz import (
    OperatorMatrix,
    _diagonal_norm,
    assembly_path,
    operator_norm,
    radial_toeplitz_diagonal,
    toeplitz_matrix,
    toeplitz_matrix_with_stderr,
)


# ---------------------------------------------------------------------------
# Index bookkeeping


def _check_level(
    rho: Sequence[int], geometry: BallGeometry, D: float = math.inf
) -> Tuple[int, ...]:
    """rho as a tuple, refused unless a level of the partition with total <= D."""
    rho_t = tuple(int(v) for v in rho)
    if len(rho_t) != geometry.m or min(rho_t) < 0:
        raise DomainError(f"{rho_t} is not a level of the partition {geometry.k}")
    if geometry.d_inner < 1:
        raise DomainError("level maps need a nonempty second coordinate block")
    total = sum(rho_t)
    if total > D:
        raise DomainError(f"level total {total} exceeds the cutoff {D}")
    return rho_t


# ---------------------------------------------------------------------------
# Blocks


@dataclass(frozen=True)
class LevelBlock:
    """One invariant level rho of a torus-invariant operator: ``block``,
    its factor on the inner ball at the level's weight ``mu``
    (``BallGeometry.level_space``) and cutoff ``D``, whose ``mu``, ``d``
    and ``D`` the block reads off it.  For a pure inner-variable symbol
    the level is I (x) block.  A radial block is a radial form, its D + 1
    per-degree values, at any cutoff.  ``pair_entries`` is always None:
    blocks are built on the inner ball, never compressed from a full-ball
    matrix, but the benchmark tracer (``perfbench/tracer.py``) reads the
    field on every block it counts.
    """

    rho: Tuple[int, ...]
    hdim: int
    block: OperatorMatrix = field(repr=False)
    pair_entries: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def mu(self) -> float:
        return self.block.lam

    @property
    def d(self) -> int:
        return self.block.d

    @property
    def D(self) -> int:
        return self.block.D


def off_block_mass(M: OperatorMatrix, geometry: BallGeometry) -> Tuple[float, float]:
    """Frobenius mass outside the level-diagonal blocks, and the total.

    A diagonal form has none outside them, and its total is the norm of
    its values.
    """
    layout = level_layout(M.basis, geometry)
    if M.diag is not None:
        return 0.0, float(np.linalg.norm(M.diag))
    same = np.zeros(M.entries.shape, dtype=bool)
    for rows in layout.values():
        same[np.ix_(rows.ravel(), rows.ravel())] = True
    total = float(np.linalg.norm(M.entries))
    off = float(np.linalg.norm(np.where(same, 0.0, M.entries)))
    return off, total


def level_block_direct(
    c: SymbolLike,
    geometry: BallGeometry,
    lam: float,
    rho: Sequence[int],
    D_inner: int,
    spec: QuadratureSpec,
) -> LevelBlock:
    """Build the level block of a pure inner-variable symbol directly.

    For such symbols the level acts as identity (x) T_c at the shifted
    weight, so the block is ``toeplitz_matrix`` of c on the inner ball at
    that weight, without ever materializing the full-ball matrix; this is
    how levels beyond any practical full-ball cutoff are produced.  A
    radial c gives a radial form of D_inner + 1 values and builds no
    basis.
    """
    rho_t = _check_level(rho, geometry)
    c_inner = rebase_inner(c) if is_symbolic(c) else c
    block = toeplitz_matrix(c_inner, geometry.level_space(lam, rho_t), D_inner, spec)
    return LevelBlock(rho_t, dim_level(rho_t, geometry.k), block)


def block_norms(
    M: OperatorMatrix, geometry: BallGeometry
) -> Dict[Tuple[int, ...], float]:
    """sigma_max of each level compression of a full-ball matrix; a
    diagonal form's is the largest modulus of its values on the level."""
    out: Dict[Tuple[int, ...], float] = {}
    for rho, rows in level_layout(M.basis, geometry).items():
        pos = rows.ravel()
        if M.diag is not None:
            out[rho] = _diagonal_norm(M.diag[pos])
        else:
            out[rho] = operator_norm(M.entries[np.ix_(pos, pos)])
    return out


# ---------------------------------------------------------------------------
# Factorization check


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of the two-route comparison on one level."""

    rho: Tuple[int, ...]
    mu: float
    max_deviation: float
    worst_beta: MultiIndex
    worst_alpha: MultiIndex
    tol: float
    passed: bool
    monte_carlo: bool = False
    max_se_ratio: float = 0.0

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        extra = (
            f" (max dev / SE = {self.max_se_ratio:.2f})" if self.monte_carlo else ""
        )
        return (
            f"rho={self.rho}: max |full - levels| = {self.max_deviation:.3e} "
            f"at ({self.worst_beta}, {self.worst_alpha}) [{status}]{extra}"
        )


# the default deviation bound of the rule route's factorization check
FACTORIZATION_TOL = 1e-5


def _level_route(
    f_ac: ProductSymbol, space: WeightedSpace, D: int, spec: QuadratureSpec
) -> QuadratureSpec:
    """The spec of the check's level route, refused off the "levels" path.
    Under sampling it is the rule of the same orders: the reference's own
    noise stays out of the 5 SE gate."""
    if spec.scheme == MONTE_CARLO:
        spec = QuadratureSpec(q=spec.q, angular=spec.angular)
    if assembly_path(f_ac, space, D, spec).kind != "levels":
        raise DomainError("the z'-factor must be invariant under the group torus action")
    return spec


def verify_tensor_factorization(
    a: SymbolExpr,
    c: SymbolExpr,
    geometry: BallGeometry,
    lam: float,
    levels: Sequence[Sequence[int]],
    D: int,
    spec: QuadratureSpec,
    tol: float = FACTORIZATION_TOL,
) -> Tuple[OperatorMatrix, List[FactorizationReport]]:
    """Compare full-ball quadrature of the product symbol with its level
    route on each level.

    The full route integrates over all 2n real dimensions with no use of
    the factorization and is assembled once for all the levels: a sampling
    spec gives the Monte Carlo matrix and its per-entry standard errors, a
    rule gives plain quadrature with the fast paths off.  The factorized
    route is the symbol's matrix on the "levels" path of
    ``toeplitz_matrix``.  Agreement is the numerical content of the level
    decomposition.  A level that is not one of the partition, or whose
    total exceeds D, a factor that is not a parsed symbol, and an a-factor
    that path does not take are refused before anything is planned or
    assembled.  Returns the full-route matrix and one report per level, in
    the order given.
    """
    for name, factor in (("a", a), ("c", c)):
        if not is_symbolic(factor):
            raise DomainError(
                f"the {name}-factor must be a parsed symbol, got a {type(factor).__name__}"
            )
    levels_t = [_check_level(rho, geometry, D) for rho in levels]
    f_ac = ProductSymbol(a=a, c=c, geometry=geometry)
    space = WeightedSpace(geometry.n, lam, geometry=geometry)
    mc = spec.scheme == MONTE_CARLO
    level_spec = _level_route(f_ac, space, D, spec)
    if mc:
        full, se = toeplitz_matrix_with_stderr(f_ac, space, D, spec)
    else:
        full = toeplitz_matrix(f_ac, space, D, spec, use_fast_paths=False)
    factored = toeplitz_matrix(f_ac, space, D, level_spec)
    layout = level_layout(full.basis, geometry)
    reports = []
    for rho in levels_t:
        rows = layout[rho].ravel()
        pos = np.ix_(rows, rows)
        dev = np.abs(full.entries[pos] - factored.entries[pos])
        wb, wa = np.unravel_index(int(np.argmax(dev)), dev.shape)
        max_dev = float(dev[wb, wa])
        passed, max_ratio = max_dev < tol, 0.0
        if mc:
            max_ratio = float(np.max(dev / (5.0 * se[pos] + 1e-12)))
            passed = max_ratio <= 1.0
        reports.append(FactorizationReport(
            rho=rho, mu=geometry.level_space(lam, rho).lam, max_deviation=max_dev,
            worst_beta=full.basis.indices[rows[wb]], worst_alpha=full.basis.indices[rows[wa]],
            tol=tol, passed=passed, monte_carlo=mc, max_se_ratio=max_ratio,
        ))
    return full, reports


# ---------------------------------------------------------------------------
# Recovery


def _neville_to_zero(us: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of samples (u_i, v_i) to u = 0.

    ``values`` may carry extra trailing axes; the interpolation acts on
    the leading axis.
    """
    vs = [np.asarray(v, dtype=complex) for v in values]
    n = len(vs)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            ui, uj = us[i], us[i + level]
            nxt.append((uj * vs[i] - ui * vs[i + 1]) / (uj - ui))
        vs = nxt
    return vs[0]


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered inner symbol samples plus per-level remainder norms."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    by_level: Tuple[Tuple[Tuple[int, ...], float, int, float], ...]

    def remainder_csv_lines(self) -> List[str]:
        return csv_lines("rho,mu,hdim,remainder_norm", self.by_level)

    def grid_csv_lines(self) -> List[str]:
        d = self.grid.shape[1]
        header = ",".join(
            [f"re_z{i+1},im_z{i+1}" for i in range(d)] + ["re_c,im_c"]
        )
        cols = np.column_stack([self.grid, self.values])
        # re and im of each complex column side by side
        rows = np.stack([cols.real, cols.imag], axis=-1).reshape(len(cols), -1)
        return csv_lines(header, rows)

    def max_remainder(self) -> float:
        return max((row[3] for row in self.by_level), default=0.0)


# Recovery keeps the blocks whose kernel tail beyond their cutoff is at
# most _TAIL_CAP at the point, and extrapolates through at most
# _MAX_NODES of them.
_TAIL_CAP = 1e-9
_MAX_NODES = 6


class RecoveredSymbol:
    """Callable estimate of the inner symbol from a family of blocks.

    Each block's Berezin transform is its kernel-mass sum at |z|^2 over
    its per-degree values when the block is a radial form, its quadratic
    form otherwise.  At each point the blocks whose truncation still
    resolves the kernel are kept; with two or more of them the values
    extrapolate through u = 1/(d + mu + 1) to u = 0, otherwise the largest
    reliable weight wins.  Falls back to the largest weight outright when
    nothing is reliable (far outside the trusted radius).
    """

    def __init__(self, blocks: Sequence[LevelBlock]):
        if not blocks:
            raise DomainError("recovery needs at least one block")
        by_mu: Dict[float, LevelBlock] = {}
        for blk in blocks:
            mu = float(blk.mu)
            cur = by_mu.get(mu)
            if cur is None or blk.D > cur.D:
                by_mu[mu] = blk
        self.blocks = [by_mu[mu] for mu in sorted(by_mu, reverse=True)]
        self.d = self.blocks[0].d

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        if z.ndim not in (1, 2) or z.shape[-1] != self.d:
            raise DomainError(f"points of shape {z.shape} are not on the {self.d}-ball")
        if single:
            z = z[None, :]
        t = np.sum(np.abs(z) ** 2, axis=1)
        s_exps = np.array([b.d + b.mu + 1.0 for b in self.blocks])
        # usable[i, j]: block j enters the value at point i
        tails = [kernel_tail(s, b.D, t) for s, b in zip(s_exps, self.blocks)]
        usable = np.array(tails).T <= _TAIL_CAP
        usable &= np.cumsum(usable, axis=1) <= _MAX_NODES
        usable[~usable.any(axis=1), 0] = True
        table = np.zeros(usable.shape, dtype=complex)
        for j, blk in enumerate(self.blocks):
            rows = np.flatnonzero(usable[:, j])
            if blk.block.per_degree is None:
                table[rows, j] = [
                    berezin_of_operator(blk.block, blk.mu, z[i]) for i in rows
                ]
            else:
                table[rows, j] = radial_berezin_sum(blk.block.per_degree, s_exps[j], t[rows])
        out = np.empty(z.shape[0], dtype=complex)
        for i in range(z.shape[0]):
            cols = np.flatnonzero(usable[i])
            if cols.size == 1:
                out[i] = table[i, cols[0]]
            else:
                out[i] = _neville_to_zero(1.0 / s_exps[cols], table[i, cols])
        return out[0] if single else out


def recover_symbol_and_remainder(
    blocks: Sequence[LevelBlock],
    grid: np.ndarray,
    spec: Optional[QuadratureSpec] = None,
    *,
    remainder_blocks: Optional[Sequence[LevelBlock]] = None,
) -> RecoveryReport:
    """Estimate the inner symbol and the per-level remainders.

    The symbol estimate feeds on the supplied blocks (the larger the
    weights and cutoffs, the better); each remainder is the block minus
    the Toeplitz matrix of the estimate at the block's own weight, and
    its norm is ``operator_norm`` of the difference.  The estimate from
    radial blocks alone is radial, and at a radial block it is held as a
    radial form: the estimate's eigenvalues, degree by degree.  By default
    remainders are computed for the same blocks used in the estimate;
    pass ``remainder_blocks`` to separate the two roles.
    """
    spec = spec or QuadratureSpec()
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim == 1:
        grid = grid[:, None]
    estimator = RecoveredSymbol(list(blocks))
    values = estimator(grid)
    # radial blocks make the estimate radial: its profile in |z| is its
    # value along the first axis
    radial = all(b.block.per_degree is not None for b in estimator.blocks)
    axis = np.eye(1, estimator.d)
    targets = list(remainder_blocks) if remainder_blocks is not None else list(blocks)
    by_level: List[Tuple[Tuple[int, ...], float, int, float]] = []
    for blk in targets:
        if radial and blk.block.per_degree is not None:
            per_degree = radial_toeplitz_diagonal(
                lambda r: estimator(r * axis), blk.d, blk.mu, blk.D
            )
            estimate = OperatorMatrix.radial(blk.d, blk.D, blk.mu, per_degree)
        else:
            estimate = toeplitz_matrix(estimator, WeightedSpace(blk.d, blk.mu), blk.D, spec)
        norm = operator_norm(blk.block - estimate)
        by_level.append((blk.rho, float(blk.mu), blk.hdim, norm))
    return RecoveryReport(grid=grid, values=np.asarray(values), by_level=tuple(by_level))
