"""Truncated Toeplitz matrices and their diagonal closed forms.

A symbol f on the d-ball at weight lam is compressed to the span of the
normalized monomials of degree <= D.  Entry (beta, alpha) of the matrix
is <f e_alpha, e_beta>.  The general Gauss-Jacobi path streams the
product rule (radial x simplex x equispaced phases^d) one slab of radial
nodes at a time: on each torus of phases the phase sum of f z^alpha
conj(z)^beta is one DFT coefficient of the symbol samples, at
beta - alpha, so an FFT over the phase axes plus real radial powers give
every entry.  With ``angular = 2D + deg + 1`` phases no frequency an
entry needs aliases onto another, so polynomial symbols stay exact.
Monte Carlo samples have no torus structure and contract a weighted
Vandermonde matrix with itself instead.  Symbols that only depend on
group radii (or on |z|^2) skip quadrature over phases entirely and are
assembled as exact diagonals.

Truncation is compression: norms computed here are lower bounds that
increase toward the operator norm as D grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    MultiIndex,
    TruncatedBasis,
    WeightedSpace,
    enumerate_basis,
    level_of,
    levels_up_to,
)
from .errors import DomainError
from .quadrature import (
    MONTE_CARLO,
    BallRule,
    PointFunction,
    QuadratureSpec,
    as_point_function,
    axis_winding,
    ball_rule,
    gauss_jacobi_rule,
    is_symbolic,
    monte_carlo_points,
    simplex_radial_rule,
)
from .symbols import (
    BinOp,
    Func,
    GroupRadius,
    Neg,
    Power,
    ProductSymbol,
    SymbolExpr,
    _winding,
    classify_symbol,
    quasi_radial_profile,
    radial_profile,
    symbol_degree_hint,
    symbol_to_text,
)

SymbolLike = Union[SymbolExpr, ProductSymbol, PointFunction]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense compression of an operator to a truncated monomial basis.

    ``entries[i, j]`` is the coefficient of basis vector i in the image of
    basis vector j, i.e. row index = output (beta), column = input (alpha).
    """

    basis: TruncatedBasis
    entries: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        k = self.basis.count
        if arr.shape != (k, k):
            raise DomainError(
                f"matrix shape {arr.shape} does not match the basis size {k}"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.basis.count

    def entry(self, beta: Sequence[int], alpha: Sequence[int]) -> complex:
        return complex(
            self.entries[self.basis.index_of(beta), self.basis.index_of(alpha)]
        )

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(
            np.max(np.abs(self.entries - self.entries.conj().T)) <= tol
        )

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        b1, b2 = self.basis, other.basis
        if (b1.d, b1.D, b1.lam) != (b2.d, b2.D, b2.lam) or b1.indices != b2.indices:
            raise DomainError("operator matrices live on different bases")

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(
            self.basis, self.entries @ other.entries,
            label=f"({self.label})({other.label})",
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(
            self.basis, self.entries + other.entries,
            label=f"{self.label} + {other.label}",
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_basis(other)
        return OperatorMatrix(
            self.basis, self.entries - other.entries,
            label=f"{self.label} - {other.label}",
        )

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.entries * scalar, label=self.label)

    __rmul__ = __mul__

    def conj_transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(
            self.basis, self.entries.conj().T.copy(), label=f"adj({self.label})"
        )

    @staticmethod
    def identity(basis: TruncatedBasis) -> "OperatorMatrix":
        return OperatorMatrix(basis, np.eye(basis.count, dtype=complex), label="1")

    @staticmethod
    def diagonal(
        basis: TruncatedBasis, values: Sequence[complex], label: str = ""
    ) -> "OperatorMatrix":
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (basis.count,):
            raise DomainError("diagonal length does not match the basis")
        return OperatorMatrix(basis, np.diag(vals), label=label)


# ---------------------------------------------------------------------------
# Diagonal closed forms


def radial_eigenvalue(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    d: int,
    mu: float,
    m: int,
    q: Optional[int] = None,
) -> float:
    """Eigenvalue of a radial symbol on degree-m monomials at weight mu.

    Computes the ratio of the a-weighted moment to the plain moment with a
    single Jacobi rule, so a == 1 returns exactly 1.0 and polynomial
    profiles are integrated exactly.
    """
    if m < 0:
        raise DomainError(f"degree must be nonnegative, got {m}")
    profile = _as_radial_profile(a)
    if q is None:
        q = max(32, _profile_degree(a))
    t, w = gauss_jacobi_rule(q, float(mu), float(m + d - 1))
    vals = np.asarray(profile(t), dtype=complex)
    # contiguous copy: the strided .real view would hit a different dot
    # kernel than the ones vector and lose the bitwise a == 1 identity
    num = np.dot(w, np.ascontiguousarray(vals.real))
    den = np.dot(w, np.ones_like(w))
    return float(num / den)


def radial_toeplitz_diagonal(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    d: int,
    mu: float,
    D: int,
    q: Optional[int] = None,
) -> np.ndarray:
    """All radial eigenvalues for degrees 0..D from one quadrature rule.

    The per-degree monomial factor t^m is folded into the weights in log
    space, which stays finite for cutoffs in the thousands.
    """
    profile = _as_radial_profile(a)
    if q is None:
        q = max(48, (D + _profile_degree(a)) // 2 + 4)
    t, w = gauss_jacobi_rule(q, float(mu), float(d - 1))
    if np.any(w <= 0.0):
        raise DomainError("quadrature produced nonpositive weights")
    log_w = np.log(w)
    log_t = np.log(t)
    ms = np.arange(D + 1, dtype=float)
    log_a = log_w[None, :] + ms[:, None] * log_t[None, :]
    log_a -= np.max(log_a, axis=1, keepdims=True)
    aw = np.exp(log_a)
    # one real matvec for each side: a == 1 then gives num == den bitwise
    # (contiguous copy keeps both sides on the same gemv kernel)
    vals = np.ascontiguousarray(np.real(np.asarray(profile(t), dtype=complex)))
    num = aw @ vals
    den = aw @ np.ones(aw.shape[1])
    return num / den


def gamma_quasi_radial(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    k: Sequence[int],
    lam: float,
    rho: Sequence[int],
    q: Optional[int] = None,
) -> float:
    """Diagonal value of a quasi-radial symbol on the level rho.

    Normalized moment of the profile over the set of group radii against
    (1 - |r|^2)^lam prod r_j^(2 rho_j + 2 k_j - 1) dr; the normalization is
    the same quadrature sum with a == 1, so constants are exact.
    """
    k = tuple(int(v) for v in k)
    rho = tuple(int(v) for v in rho)
    if len(rho) != len(k):
        raise DomainError("level and partition lengths differ")
    if any(v < 0 for v in rho):
        raise DomainError(f"level entries must be nonnegative, got {rho}")
    profile = _as_group_profile(a, len(k))
    if q is None:
        q = max(24, _profile_degree(a))
    powers = tuple(2 * r + 2 * kk - 1 for r, kk in zip(rho, k))
    rule = simplex_radial_rule(lam, powers, q)
    vals = np.asarray(profile(rule.radii), dtype=complex)
    # same contiguity note as radial_eigenvalue
    num = np.dot(rule.weights, np.ascontiguousarray(vals.real))
    den = np.dot(rule.weights, np.ones_like(rule.weights))
    return float(num / den)


@dataclass(frozen=True)
class GammaSequence:
    """The map rho -> gamma(rho) for one profile, partition and weight."""

    k: Tuple[int, ...]
    lam: float
    R: int
    values: Dict[Tuple[int, ...], float] = field(repr=False)
    label: str = ""

    def __call__(self, rho: Sequence[int]) -> float:
        key = tuple(int(v) for v in rho)
        try:
            return self.values[key]
        except KeyError:
            raise DomainError(f"level {key} exceeds the computed range") from None

    @property
    def levels(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.values.keys())

    def oscillation(self, min_total: int = 0) -> float:
        """sup |gamma(rho) - gamma(rho')| over unit steps with |rho| >= L.

        Descriptive output only; slow oscillation has no finite test.
        """
        worst = 0.0
        for rho, g in self.values.items():
            if sum(rho) < min_total:
                continue
            for j in range(len(rho)):
                step = list(rho)
                step[j] += 1
                key = tuple(step)
                if key in self.values:
                    worst = max(worst, abs(g - self.values[key]))
        return worst


def gamma_sequence(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    k: Sequence[int],
    lam: float,
    R: int,
    q: Optional[int] = None,
    label: str = "",
) -> GammaSequence:
    """Tabulate gamma over all levels with |rho| <= R."""
    k = tuple(int(v) for v in k)
    values = {
        rho: gamma_quasi_radial(a, k, lam, rho, q=q)
        for rho in levels_up_to(R, len(k))
    }
    if not label and is_symbolic(a):
        label = symbol_to_text(a)
    return GammaSequence(k=k, lam=lam, R=R, values=values, label=label)


def _as_radial_profile(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
    if is_symbolic(a):
        profile = radial_profile(a)
        if profile is None:
            raise DomainError("symbol is not radial; no profile in t = |z|^2")
        return profile
    if callable(a):
        return a
    raise DomainError(f"cannot interpret {a!r} as a radial profile")


def _as_group_profile(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]], m: int
) -> Callable[[np.ndarray], np.ndarray]:
    if is_symbolic(a):
        profile = quasi_radial_profile(a, m)
        if profile is None:
            raise DomainError("symbol is not a function of the group radii")
        return profile
    if callable(a):
        return a
    raise DomainError(f"cannot interpret {a!r} as a group-radius profile")


def _profile_degree(a: object) -> int:
    if is_symbolic(a):
        return symbol_degree_hint(a)
    return 16


# ---------------------------------------------------------------------------
# Assembly


def _vandermonde_block(
    z: np.ndarray, basis: TruncatedBasis
) -> np.ndarray:
    """Normalized monomials evaluated on a slab of nodes, shape (N, K).

    Real input (the moduli |z_j|) gives the real radial powers.
    """
    n_pts = z.shape[0]
    exps = basis.exponent_array()
    out = np.ones((n_pts, basis.count), dtype=z.dtype)
    for ax in range(basis.d):
        degs = exps[:, ax]
        max_deg = int(degs.max()) if degs.size else 0
        powers = np.empty((n_pts, max_deg + 1), dtype=z.dtype)
        powers[:, 0] = 1.0
        col = z[:, ax]
        for p in range(1, max_deg + 1):
            powers[:, p] = powers[:, p - 1] * col
        out *= powers[:, degs]
    out *= basis.norms[None, :]
    return out


def _assemble_from_nodes(
    nodes: np.ndarray,
    weights: np.ndarray,
    fn: PointFunction,
    basis: TruncatedBasis,
) -> np.ndarray:
    k = basis.count
    chunk = max(1024, 8_000_000 // max(k, 1))
    total = nodes.shape[0]
    acc = np.zeros((k, k), dtype=complex)
    for start in range(0, total, chunk):
        sl = slice(start, min(start + chunk, total))
        z = nodes[sl]
        fv = np.asarray(fn(z))
        if not np.all(np.isfinite(fv)):
            raise DomainError("symbol evaluates non-finite on a quadrature node")
        v = _vandermonde_block(z, basis)
        acc += v.conj().T @ (v * (weights[sl] * fv)[:, None])
    return acc


# Working-set caps for one slab of the torus assembly, in array elements:
# nodes on the slab's tori, and gathered (beta, alpha) phase coefficients.
_SLAB_NODES = 1 << 18
_SLAB_ENTRIES = 1 << 20


def _assemble_on_torus(
    rule: BallRule, fn: PointFunction, basis: TruncatedBasis
) -> np.ndarray:
    """Entries from the factored product rule, streamed by radial slab.

    On the torus of radial node i the phase sum of f z^alpha conj(z)^beta
    is the DFT coefficient F_i[beta - alpha (mod P)] of the symbol samples,
    so entry (beta, alpha) is sum_i w_i R[i, beta] R[i, alpha] F_i[beta -
    alpha] with R the real normalized radial powers.  Each slab holds at
    most _SLAB_NODES torus nodes and _SLAB_ENTRIES gathered coefficients
    (never fewer than one torus), whatever the rule size or K.
    """
    d, p = basis.d, rule.n_phase
    k = basis.count
    n_torus = p**d
    exps = basis.exponent_array()
    diff = np.mod(exps[:, None, :] - exps[None, :, :], p)  # beta - alpha
    shift = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)), (p,) * d).ravel()
    slab = max(1, min(_SLAB_NODES // n_torus, _SLAB_ENTRIES // (k * k)))
    acc = np.zeros(k * k, dtype=complex)
    for start in range(0, rule.n_radial, slab):
        rows = slice(start, min(start + slab, rule.n_radial))
        z = rule.torus_nodes(rows)
        n = z.shape[0]
        fv = np.asarray(fn(z.reshape(-1, d)))
        if not np.all(np.isfinite(fv)):
            raise DomainError("symbol evaluates non-finite on a quadrature node")
        fv = np.broadcast_to(fv, (n * n_torus,)).reshape(z.shape[:-1])
        coef = np.fft.fftn(fv, axes=tuple(range(1, d + 1))).reshape(n, n_torus)
        r = _vandermonde_block(rule.radii[rows], basis)
        wr = r * rule.radial_weights[rows, None]
        pair = (wr[:, :, None] * r[:, None, :]).reshape(n, k * k)
        # real and imaginary parts apart: no complex copy of ``pair``
        acc.real += np.einsum("ip,ip->p", coef.real[:, shift], pair)
        acc.imag += np.einsum("ip,ip->p", coef.imag[:, shift], pair)
    return acc.reshape(k, k)


def _is_non_polynomial(e) -> bool:
    """True when evaluation is not polynomial in (z, conj z) jointly."""
    if isinstance(e, ProductSymbol):
        return True
    if isinstance(e, GroupRadius):
        return True
    if isinstance(e, Power):
        if isinstance(e.base, GroupRadius) and e.exponent % 2 == 0:
            return False
        return _is_non_polynomial(e.base)
    if isinstance(e, BinOp):
        if e.op == "/":
            return True
        return _is_non_polynomial(e.lhs) or _is_non_polynomial(e.rhs)
    if isinstance(e, Func):
        if e.name == "sqrt":
            return True
        return _is_non_polynomial(e.arg)
    if isinstance(e, Neg):
        return _is_non_polynomial(e.arg)
    return False


def resolve_assembly_spec(
    f: SymbolLike, d: int, D: int, spec: QuadratureSpec
) -> QuadratureSpec:
    """The quadrature orders the general assembly uses for this request.

    Explicit orders pass through.  Automatic ones follow the cutoff and
    the symbol's degree hint; rational or root-bearing symbols get 24
    extra radial nodes, because their integrands converge geometrically
    in the radial order instead of terminating.  Sampling specs have no
    orders and are returned as they are.
    """
    if spec.scheme == MONTE_CARLO:
        return spec
    deg_hint = symbol_degree_hint(f) if is_symbolic(f) else 8
    resolved = spec.resolved(d, D, deg_hint)
    if spec.q == 0 and is_symbolic(f) and _is_non_polynomial(f):
        resolved = replace(resolved, q=resolved.q + 24)
    return resolved


def _group_levels(basis: TruncatedBasis, geometry) -> np.ndarray:
    """Group-degree vectors of the z' part for each basis index, (K, m)."""
    exps = basis.exponent_array()
    out = np.empty((basis.count, geometry.m), dtype=np.int64)
    pos = 0
    for j, kj in enumerate(geometry.k):
        out[:, j] = exps[:, pos : pos + kj].sum(axis=1)
        pos += kj
    return out


def toeplitz_matrix(
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
    *,
    use_fast_paths: bool = True,
    label: Optional[str] = None,
) -> OperatorMatrix:
    """Compression of the symbol's Toeplitz operator to degrees <= D.

    Fast paths: radial symbols become exact diagonals of radial
    eigenvalues, group-radius symbols become diagonals of the gamma
    sequence, and for phase-homogeneous symbols the entries that the
    rotation bookkeeping forces to vanish are set to exactly zero.
    ``use_fast_paths=False`` forces plain quadrature for every entry,
    which is the honest reference the fast paths are tested against.
    """
    basis = enumerate_basis(space.d, D, space.lam)
    geometry = space.geometry
    if label is None:
        label = symbol_to_text(f) if is_symbolic(f) else "callable"

    if use_fast_paths and is_symbolic(f) and not isinstance(f, ProductSymbol):
        cls = classify_symbol(f, geometry)
        if cls.kind == "Radial":
            profile = radial_profile(f)
            if profile is not None:
                per_degree = radial_toeplitz_diagonal(
                    profile, space.d, space.lam, D,
                    q=max(48, (D + symbol_degree_hint(f)) // 2 + 4),
                )
                return OperatorMatrix.diagonal(
                    basis, per_degree[basis.degrees], label=label
                )
        if (
            cls.kind == "QuasiRadial"
            and geometry is not None
            and sum(geometry.k) == space.d
        ):
            profile = quasi_radial_profile(f, geometry.m)
            if profile is not None:
                values = np.empty(basis.count, dtype=complex)
                cache: Dict[Tuple[int, ...], float] = {}
                for i, alpha in enumerate(basis.indices):
                    rho = level_of(alpha, geometry.k)
                    if rho not in cache:
                        cache[rho] = gamma_quasi_radial(
                            profile, geometry.k, space.lam, rho,
                            q=max(24, symbol_degree_hint(f)),
                        )
                    values[i] = cache[rho]
                return OperatorMatrix.diagonal(basis, values, label=label)

    fn = as_point_function(f, geometry)

    if spec.scheme == MONTE_CARLO:
        z, _ = monte_carlo_points(space.d, space.lam, spec.n_samples, spec.seed)
        weights = np.full(z.shape[0], 1.0 / z.shape[0])
        entries = _assemble_from_nodes(z, weights, fn, basis)
    else:
        resolved = resolve_assembly_spec(f, space.d, D, spec)
        rule = ball_rule(space.d, space.lam, resolved.q, resolved.angular)
        entries = _assemble_on_torus(rule, fn, basis)

    if use_fast_paths and is_symbolic(f):
        entries = _apply_vanishing_masks(entries, f, basis, geometry, space.d)
    return OperatorMatrix(basis, entries, label=label)


def _apply_vanishing_masks(
    entries: np.ndarray,
    f: SymbolLike,
    basis: TruncatedBasis,
    geometry,
    d: int,
) -> np.ndarray:
    """Zero the entries that rotation invariance kills exactly.

    Quadrature already sends them below the phase-rule roundoff; the mask
    removes that noise so structural claims hold exactly.
    """
    offset = geometry.ell if geometry is not None else 0
    w_axis = axis_winding(f, d, zc_offset=offset)
    if w_axis is not None:
        exps = basis.exponent_array()
        diff = exps[:, None, :] - exps[None, :, :]  # beta - alpha
        keep = np.all(diff == np.asarray(w_axis)[None, None, :], axis=-1)
        return np.where(keep, entries, 0.0)
    if geometry is not None and d == geometry.n:
        # The stretch in a product symbol only touches moduli, so the
        # group winding of the a-factor is the group winding of the whole.
        w_grp = (
            _winding(f.a, geometry)
            if isinstance(f, ProductSymbol)
            else _winding(f, geometry)
        )
        if w_grp == (0,) * geometry.m:
            lv = _group_levels(basis, geometry)
            keep = np.all(lv[:, None, :] == lv[None, :, :], axis=-1)
            return np.where(keep, entries, 0.0)
    return entries


def toeplitz_matrix_with_stderr(
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
) -> Tuple[OperatorMatrix, np.ndarray]:
    """Monte Carlo assembly plus a per-entry standard error estimate.

    The error matrix bounds the magnitude of the complex deviation of
    each sample-mean entry, from the sample second moments.  Only the
    sampling scheme supports this; a fixed rule has no comparable notion.
    """
    if spec.scheme != MONTE_CARLO:
        raise DomainError("standard errors are only defined for sampling schemes")
    basis = enumerate_basis(space.d, D, space.lam)
    geometry = space.geometry
    fn = as_point_function(f, geometry)
    z, _ = monte_carlo_points(space.d, space.lam, spec.n_samples, spec.seed)
    n = z.shape[0]
    k = basis.count
    chunk = max(1024, 8_000_000 // max(k, 1))
    acc = np.zeros((k, k), dtype=complex)
    acc2 = np.zeros((k, k), dtype=float)
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        zz = z[sl]
        fv = np.asarray(fn(zz))
        if not np.all(np.isfinite(fv)):
            raise DomainError("symbol evaluates non-finite on a sample point")
        v = _vandermonde_block(zz, basis)
        acc += v.conj().T @ (v * (fv / n)[:, None])
        a2 = np.abs(v) ** 2
        acc2 += a2.T @ (a2 * (np.abs(fv) ** 2 / n)[:, None])
    var = np.maximum(acc2 - np.abs(acc) ** 2, 0.0) / max(n - 1, 1)
    label = symbol_to_text(f) if is_symbolic(f) else "callable"
    return OperatorMatrix(basis, acc, label=label), np.sqrt(var)


def operator_norm(
    M: Union[OperatorMatrix, np.ndarray],
    *,
    method: str = "auto",
    tol: float = 1e-12,
) -> float:
    """Largest singular value.

    Small matrices go through the dense solver; large ones use power
    iteration on A*A with two fixed starting vectors (all-ones and
    alternating signs) so runs are deterministic.
    """
    a = M.entries if isinstance(M, OperatorMatrix) else np.asarray(M, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("operator norm needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    k = a.shape[0]
    if k == 0:
        return 0.0
    if method not in ("auto", "svd", "power"):
        raise DomainError(f"unknown method {method!r}")
    if method == "svd" or (method == "auto" and k <= 1024):
        return float(np.linalg.svd(a, compute_uv=False)[0])

    def run(x: np.ndarray) -> float:
        x = x / np.linalg.norm(x)
        sigma = 0.0
        for _ in range(20_000):
            y = a @ x
            x_next = a.conj().T @ y
            nrm = np.linalg.norm(x_next)
            if nrm == 0.0:
                return 0.0
            x = x_next / nrm
            sigma_new = math.sqrt(nrm)
            if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
                return sigma_new
            sigma = sigma_new
        return sigma

    start1 = np.ones(k, dtype=complex)
    start2 = np.array([(-1.0) ** i for i in range(k)], dtype=complex)
    return max(run(start1), run(start2))


def semicommutator(
    c1: SymbolLike,
    c2: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
    *,
    use_fast_paths: bool = True,
) -> OperatorMatrix:
    """Matrix of T_{c1} T_{c2} - T_{c1 c2} on the truncation.

    The product of compressions differs from the compressed product by
    terms supported above the cutoff; for diagonal (radial) factors the
    difference vanishes and the result is exact.
    """
    t1 = toeplitz_matrix(c1, space, D, spec, use_fast_paths=use_fast_paths)
    t2 = toeplitz_matrix(c2, space, D, spec, use_fast_paths=use_fast_paths)
    if is_symbolic(c1) and is_symbolic(c2) and not (
        isinstance(c1, ProductSymbol) or isinstance(c2, ProductSymbol)
    ):
        product: SymbolLike = BinOp("*", c1, c2)
    else:
        f1 = as_point_function(c1, space.geometry)
        f2 = as_point_function(c2, space.geometry)

        def product(z: np.ndarray) -> np.ndarray:
            return np.asarray(f1(z)) * np.asarray(f2(z))

    t12 = toeplitz_matrix(product, space, D, spec, use_fast_paths=use_fast_paths)
    out = t1.entries @ t2.entries - t12.entries
    return OperatorMatrix(
        t1.basis, out, label=f"semi({t1.label}, {t2.label})"
    )


# ---------------------------------------------------------------------------
# Export


def _fmt(x: float) -> str:
    return repr(float(x))


def export_matrix_csv(
    M: OperatorMatrix,
    path: str,
    *,
    symbol_text: str = "",
    spec: Optional[QuadratureSpec] = None,
    extra: Optional[dict] = None,
) -> None:
    """Write all entries as row_index,col_index,re,im plus a metadata file.

    The sidecar (same path with .meta.json appended) records the basis
    order and enough context to reproduce the matrix.
    """
    k = M.size
    lines = ["row_index,col_index,re,im"]
    for i in range(k):
        row = M.entries[i]
        for j in range(k):
            v = row[j]
            lines.append(f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = {
        "basis_order": [",".join(str(v) for v in a) for a in M.basis.indices],
        "D": M.basis.D,
        "lam": M.basis.lam,
        "d": M.basis.d,
        "symbol": symbol_text or M.label,
        "quadrature": None
        if spec is None
        else {
            "scheme": spec.scheme,
            "q": spec.q,
            "angular": spec.angular,
            "n_samples": spec.n_samples,
            "seed": spec.seed,
        },
        "seed": None if spec is None else spec.seed,
    }
    if extra:
        meta.update(extra)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
