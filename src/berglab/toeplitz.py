"""Truncated Toeplitz matrices and their diagonal closed forms.

A symbol f on the d-ball at weight lam is compressed to the span of the
normalized monomials of degree <= D.  Entry (beta, alpha) of the matrix
is <f e_alpha, e_beta>.  Every streamed block holds at most
``quadrature._BLOCK_VALUES`` values, one cache-sized budget.  The
general Gauss-Jacobi path streams the product rule (radial x simplex x
equispaced phases^d) one slab of radial nodes at a time, at most that
many torus nodes (or one torus): on each torus of phases the phase sum
of f z^alpha conj(z)^beta is one phase coefficient of the symbol
samples, at beta - alpha (mod P), so those coefficients plus real radial
powers give every entry.  Only the residues the pairs read are taken:
one (P, F_j) phase matrix per axis over its F_j residues, applied axis by
axis.  A slab builds its samples (from axis-major nodes), phase
coefficients and radial monomial rows once, and its contraction runs
over tiles of (beta, alpha) pairs of at most that many gathered
coefficients.  With D + b + 1 phases for a symbol of phase band reach b
(``symbols.axis_band``), else 2D + deg + 1, nothing an entry needs
aliases, and the fast paths contract only the pairs in the band; a band
that keeps no pair gives the zero matrix with no node built.
Monte Carlo samples have no torus structure and contract the monomial
values with themselves instead.  The monomials are built row by row in a
(K, n) layout: each axis gets a table of powers of the samples, and row
alpha is its prefix row (alpha less its last nonzero exponent) times one
table row, then its norm.  One draw of samples per spec is kept and
shared; the symbol is evaluated on it once, every sample weighs 1/n,
and the samples are taken in chunks of at most _BLOCK_VALUES monomial
values, built into buffers reused from chunk to chunk.  The second
moment behind the standard errors is one S S^T product, S = |e|^2
sqrt(w) |f| with |e|^2 taken as re^2 + im^2.  Symbols that only depend
on group radii (or on |z|^2) skip quadrature over phases entirely and are
assembled as diagonals: a radial symbol as its D + 1 per-degree values
(an OperatorMatrix's radial form, which builds no basis), a group-radius
one as its K values (its diagonal form); either builds its K x K entries
only when a caller asks for them.  Every diagonal value (radial
eigenvalues, the gamma of a level, the Berezin expansion's sequence)
comes from ``diagonal_values``, whose profiles take the group radii.  A
polynomial profile is exact: written in s_j = r_j^2 and u = 1 - |s|, its
terms c s^p u^l give each value as a sum of Pochhammer ratios, with no
rule; a level where that float sum cancels is summed again in exact
rational arithmetic.  Other profiles (rational, with roots, callables,
or too high a degree) take one rule: a Gauss-Jacobi table over the
degrees for one group, a simplex rule per level for several.  Arrays
past _MAX_DENSE_ENTRIES are refused before they are allocated: dense
matrices, diagonal forms whose dense form would be, the basis of a
radial form, and the one-group moment table (``radial_table_order``).

A product symbol f = a(z' / sqrt(1 - |z''|^2)) c(z'') whose a-factor is
invariant under the group torus is assembled level by level, by the
paper's decomposition A^2_lam = (+)_rho H_rho (x) A^2_{mu_rho} with
mu_rho = lam + |rho| + ell: level rho is (a's factor on H_rho) (x) T_c
at weight mu_rho, the factor the level's rows of one T_a on the z'-ball.
T_a and T_c take their balls' own paths (so a quasi-radial a gives
gamma_a(rho) I), and no full-ball rule is built; within one z'-exponent
the basis order is the inner basis order.

Truncation is compression: norms computed here are lower bounds that
increase toward the operator norm as D grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    TruncatedBasis,
    WeightedSpace,
    _check_weight,
    basis_norm_constant,
    count_basis,
    csv_lines,
    enumerate_basis,
    level_layout,
    levels_up_to,
)
from .errors import DomainError
from .quadrature import (
    MONTE_CARLO,
    _BLOCK_VALUES,
    BallRule,
    PointFunction,
    QuadratureSpec,
    SymbolLike,
    as_point_function,
    ball_rule,
    evaluate_finite,
    gauss_jacobi_log_rule,
    monte_carlo_points,
    require_rule_size,
    simplex_radial_rule,
)
from .symbols import (
    BinOp,
    Band,
    ProductSymbol,
    SymbolExpr,
    axis_band,
    group_band,
    group_winding,
    is_polynomial,
    is_radial,
    is_symbolic,
    profile_form,
    quasi_radial_profile,
    rebase_inner,
    symbol_degree_hint,
    symbol_to_text,
)


# Largest dense array an assembly may allocate, in entries: a K x K
# matrix (K <= 8192, 1.07 GB complex) or a (D + 1) x q radial moment table
_MAX_DENSE_ENTRIES = 1 << 26


def _require_budget(
    entries: int, what: str, advice: str = "lower the cutoff or the dimension"
) -> None:
    """Refuse, before allocating, an array over the dense-entry budget."""
    if entries > _MAX_DENSE_ENTRIES:
        raise DomainError(
            f"{what} needs {entries} entries (over the {_MAX_DENSE_ENTRIES} "
            f"desk budget); {advice}"
        )


def _require_dense(d: int, D: int) -> None:
    """Refuse the basis of the d-ball at cutoff D where its dense matrix
    would pass the desk budget."""
    k = count_basis(d, D)
    _require_budget(k * k, f"a {k} x {k} matrix")


class OperatorMatrix:
    """Compression of an operator to a truncated monomial basis.

    ``entries[i, j]`` is the coefficient of basis vector i in the image of
    basis vector j, i.e. row index = output (beta), column = input (alpha).

    A matrix is dense, diagonal (``diagonal``: its K values ``diag``, one
    per row) or radial (``radial``: its D + 1 values ``per_degree``, one
    per degree, None for the other forms).  A radial form holds d, D and
    lam and builds its ``basis`` and ``diag`` (each row's degree's value)
    only when read, under the desk budget; either diagonal form builds
    ``entries`` (``np.diag`` of ``diag``) only on first access, and each
    keeps what it built.  The norm, the Berezin transform, the level
    checks and products, sums and scalings read the values instead, and
    those of two radial forms stay radial.
    """

    __slots__ = ("d", "D", "lam", "per_degree", "_basis", "_diag", "_dense")

    def __init__(self, basis: TruncatedBasis, entries: np.ndarray) -> None:
        arr = np.asarray(entries, dtype=complex)
        k = basis.count
        if arr.shape != (k, k):
            raise DomainError(
                f"matrix shape {arr.shape} does not match the basis size {k}"
            )
        self._hold(basis.d, basis.D, basis.lam, basis=basis, dense=arr)

    def _hold(self, d, D, lam, *, basis=None, diag=None, dense=None, per_degree=None):
        self.d, self.D, self.lam, self.per_degree = d, D, lam, per_degree
        self._basis, self._diag, self._dense = basis, diag, dense
        return self

    @classmethod
    def diagonal(cls, basis: TruncatedBasis, values: Sequence[complex]) -> "OperatorMatrix":
        """The diagonal matrix of ``values``, kept as the K values.

        Refused, like a dense matrix, when its dense form would pass the
        desk budget.
        """
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (basis.count,):
            raise DomainError("diagonal length does not match the basis")
        _require_dense(basis.d, basis.D)
        return cls.__new__(cls)._hold(basis.d, basis.D, basis.lam, basis=basis, diag=vals)

    @classmethod
    def radial(cls, d: int, D: int, lam: float, values: Sequence[complex]) -> "OperatorMatrix":
        """The radial operator acting on degree m as ``values[m]``, kept as
        the D + 1 values, at any size."""
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (D + 1,):
            raise DomainError("radial values need one value per degree 0..D")
        return cls.__new__(cls)._hold(d, D, lam, per_degree=vals)

    @property
    def basis(self) -> TruncatedBasis:
        if self._basis is None:
            _require_dense(self.d, self.D)
            self._basis = enumerate_basis(self.d, self.D, self.lam)
        return self._basis

    @property
    def diag(self) -> Optional[np.ndarray]:
        if self._diag is None and self.per_degree is not None:
            self._diag = self.per_degree[self.basis.degrees]
        return self._diag

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            self._dense = np.diag(self.diag)
        return self._dense

    @property
    def size(self) -> int:
        return count_basis(self.d, self.D)

    def entry(self, beta: Sequence[int], alpha: Sequence[int]) -> complex:
        i, j = self.basis.index_of(beta), self.basis.index_of(alpha)
        if self.diag is not None:
            return complex(self.diag[i]) if i == j else 0j
        return complex(self.entries[i, j])

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        if (self.d, self.D, self.lam) != (other.d, other.D, other.lam):
            raise DomainError("operator matrices live on different bases")

    def _combine(self, other: "OperatorMatrix", diag_op, dense_op):
        """diag_op of two radial forms stays radial, of two diagonal forms
        diagonal; else dense_op."""
        self._require_same_basis(other)
        if self.per_degree is not None and other.per_degree is not None:
            values = diag_op(self.per_degree, other.per_degree)
            return OperatorMatrix.radial(self.d, self.D, self.lam, values)
        if self.diag is not None and other.diag is not None:
            return OperatorMatrix.diagonal(self.basis, diag_op(self.diag, other.diag))
        return OperatorMatrix(self.basis, dense_op(self.entries, other.entries))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.multiply, np.matmul)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add, np.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.subtract, np.subtract)

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        if self.per_degree is not None:
            return OperatorMatrix.radial(self.d, self.D, self.lam, self.per_degree * scalar)
        if self.diag is not None:
            return OperatorMatrix.diagonal(self.basis, self.diag * scalar)
        return OperatorMatrix(self.basis, self.entries * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        form = ("radial" if self.per_degree is not None
                else "diagonal" if self._diag is not None else "dense")
        return f"OperatorMatrix({form}, K={self.size})"


# ---------------------------------------------------------------------------
# Diagonal closed forms


def _normalized_moment(w: np.ndarray, vals: np.ndarray):
    """w @ vals / w @ 1 for real weights w (a matrix or one vector).

    Each part of the values gets its own real matvec on a contiguous copy,
    the same kernel the ones vector takes, so a == 1 gives num == den
    bitwise.  The imaginary part is reduced only when it is nonzero, so
    real profiles give real, bitwise unchanged results.
    """
    vals = np.asarray(vals, dtype=complex)
    den = np.dot(w, np.ones(w.shape[-1]))
    out = np.dot(w, np.ascontiguousarray(vals.real)) / den
    if np.any(vals.imag):
        out = out + 1j * (np.dot(w, np.ascontiguousarray(vals.imag)) / den)
    return out


# A level where the terms of a polynomial diagonal cancel, their moduli
# summing to more than this factor of the value, is summed again in exact
# rational arithmetic: the running products round each term to a few ulp,
# so the float sum is trusted to about 1e3 (n + 2) ulp of the value.
_CANCELLATION = 1e3


def _form_moments(form, tops, base, one):
    """(c, E[s^p u^l]) for each term c s^p u^l of a profile form: the
    running product of its n factors (top + i) / (base + j), in the
    arithmetic of ``one`` (float arrays over levels, or a Fraction)."""
    for exps, c in form[1].items():
        term, i = one, 0
        for top, power in zip(tops, exps):
            for s in range(power):
                term = term * ((top + s) / (base + i))
                i += 1
        yield c, term


def _exact_diagonal(
    a: SymbolExpr, k: Sequence[int], lam: float, levels: np.ndarray
) -> np.ndarray:
    """Exact diagonal values of a polynomial symbol, one per level row.

    The symbol's ``profile_form`` in s_j = r_j^2 and u = 1 - |s| (one
    group, s = |z|^2, on the radial path) has on level rho the Dirichlet
    moments
        E[s^p u^l] = prod_j (rho_j + k_j)_{p_j} (lam + 1)_l / (|rho| + d + lam + 1)_n
    with d = sum k and n = |p| + l, the weight the quasi-radial picture
    gives level rho (on the radial path, (m + d)_j / (m + d + mu + 1)_j for
    s^j at degree m).  Each is one running product of n factors, each
    below 1, with no lgamma and no exp.  The levels where the sum
    cancels by more than _CANCELLATION are summed again in exact rational
    arithmetic and rounded once: the coefficients, lam and the level are
    exact binary fractions, so that rounding is correct.  Real
    coefficients give a real array.
    """
    form = profile_form(a, len(k))
    levels = levels.astype(float)
    real = all(c.imag == 0.0 for c in form[1].values())
    out = np.zeros(levels.shape[0], dtype=float if real else complex)
    size = np.zeros(levels.shape[0])
    base = levels.sum(axis=1) + (sum(k) + lam + 1.0)
    tops = [levels[:, j] + k[j] for j in range(len(k))] + [lam + 1.0]
    for c, term in _form_moments(form, tops, base, np.ones(levels.shape[0])):
        out += (c.real if real else c) * term
        size += abs(c) * term
    lam_q = Fraction(lam)
    for i in np.flatnonzero(size > _CANCELLATION * np.abs(out)):
        rho = [int(r) for r in levels[i]]
        tops_q = [Fraction(r + kj) for r, kj in zip(rho, k)] + [lam_q + 1]
        re = im = Fraction(0)
        for c, term in _form_moments(form, tops_q, sum(rho) + sum(k) + lam_q + 1, 1):
            re += Fraction(c.real) * term
            im += Fraction(c.imag) * term
        out[i] = float(re) if real else complex(float(re), float(im))
    return out


# degree hint of a profile callable, whose degree is unknown
_CALLABLE_DEGREE = 16


def _diagonal_order(a: SymbolLike, m: int, top: int) -> Optional[int]:
    """Nodes of the rule the diagonal of ``a``, a profile in m group radii,
    takes on the levels up to |rho| = top; None where exact sums take it
    (a polynomial symbol).  The Gauss-Jacobi table of one group follows
    the top degree, the simplex rule of each of several levels the
    profile alone.  A callable, or None, stands for a profile of unknown
    degree."""
    if is_symbolic(a) and profile_form(a, m) is not None:
        return None
    degree = symbol_degree_hint(a) if is_symbolic(a) else _CALLABLE_DEGREE
    return max(48, (top + degree) // 2 + 4) if m == 1 else max(24, degree)


def radial_table_order(a: Optional[SymbolLike], top: int, what: str,
                       advice: str = "lower the cutoff or the dimension",
                       q: Optional[int] = None) -> Optional[int]:
    """``q``, or ``_diagonal_order`` (None for exact sums), the rule order of
    the one-group moment table of ``a`` over the degrees 0..top: the one
    budget of radial eigenvalues, refusing as ``what`` a table of
    (top + 1) x q entries (top + 1 for exact sums) past the desk budget."""
    q = _diagonal_order(a, 1, top) if q is None else q
    _require_budget((top + 1) * (q or 1), what, advice)
    return q


def _require_partition(k: Sequence[int], lam: float) -> Tuple[int, ...]:
    """The partition k as a tuple; refused if it has no group or an empty
    one, or if the weight lam is not a finite number above -1."""
    k = tuple(int(v) for v in k)
    if not k or min(k) < 1:
        raise DomainError(f"partition parts must be positive integers, got {k}")
    _check_weight(lam)
    return k


def diagonal_values(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    k: Sequence[int],
    lam: float,
    levels,
    q: Optional[int] = None,
) -> np.ndarray:
    """Diagonal values of a torus-invariant symbol, one per level row.

    ``a`` is a symbol that is a profile in the group radii of the
    partition k, or a callable taking the group radii as an (N, len(k))
    array.  Row rho of ``levels`` (shape (N, len(k)), or the degrees for
    one group) gets the normalized moment of the profile against
    (1 - |r|^2)^lam prod r_j^(2 rho_j + 2 k_j - 1) dr: gamma(rho), and for
    one group of size d the radial eigenvalue of degree rho on the d-ball
    at weight lam.  A polynomial symbol takes the exact sums of
    ``_exact_diagonal`` and builds no rule.  Any other profile takes one
    rule of ``q`` nodes (``_diagonal_order`` by default): one Gauss-Jacobi
    table over the degrees for one group (``_radial_diagonal``), one
    simplex rule per level for several.  The normalization is the same
    rule with a == 1, so constants are exact.  Real profiles give a real
    array.  A weight lam <= -1, a partition with an empty group or none,
    and levels that are negative or do not match k are refused before
    either route runs.
    """
    k = _require_partition(k, lam)
    rows = np.asarray(levels, dtype=np.int64)
    if rows.ndim == 1 and len(k) == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[1] != len(k) or rows.size == 0:
        raise DomainError(f"levels must be a nonempty (N, {len(k)}) array")
    if rows.min() < 0:
        raise DomainError("level entries must be nonnegative")
    auto = _diagonal_order(a, len(k), int(rows.sum(axis=1).max()))
    if auto is None:
        return _exact_diagonal(a, k, lam, rows)
    profile = quasi_radial_profile(a, len(k)) if is_symbolic(a) else a
    if not callable(profile):
        what = symbol_to_text(a) if is_symbolic(a) else repr(a)
        raise DomainError(f"not a profile in {len(k)} group radii: {what}")
    q = auto if q is None else q
    if len(k) == 1:
        return _radial_diagonal(profile, k[0], lam, rows[:, 0], q)
    values = []
    for rho in rows:
        radii, weights = simplex_radial_rule(lam, 2 * rho + 2 * np.array(k) - 1, q)
        values.append(_normalized_moment(weights, evaluate_finite(profile, radii)))
    return np.array(values)


def radial_toeplitz_diagonal(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    d: int,
    mu: float,
    D: int,
) -> np.ndarray:
    """All radial eigenvalues for degrees 0..D: the ``diagonal_values`` of
    one group of size d.  A profile callable takes |z| as an (N, 1) array."""
    if D < 0:
        raise DomainError(f"cutoff D must be nonnegative, got {D}")
    return diagonal_values(a, (d,), mu, np.arange(D + 1))


def _radial_diagonal(
    profile: Callable[[np.ndarray], np.ndarray],
    d: int,
    mu: float,
    degrees: np.ndarray,
    q: int,
) -> np.ndarray:
    """Radial eigenvalues of the given degrees: the moments of ``profile``
    (a function of |z|, shape (N, 1)) under one Gauss-Jacobi rule of q
    nodes.

    The per-degree monomial factor t^m is folded into the rule's weights
    in log space, with log weights that stay finite where the weights
    underflow, so cutoffs in the thousands keep all their mass.  The
    (degrees x q) table of those weights is built about _BLOCK_VALUES at a
    time, in blocks of a multiple of 8 degrees: BLAS matvec kernels reduce
    rows in groups of up to 8, so each degree is reduced as a
    single-threaded product over the whole table would reduce it.
    """
    top = int(degrees.max())
    radial_table_order(profile, top, f"the radial moment table for degrees <= {top}", q=q)
    t, log_w = gauss_jacobi_log_rule(q, float(mu), float(d - 1))
    log_t = np.log(t)
    vals = evaluate_finite(profile, np.sqrt(t)[:, None])
    rows = max(8, _BLOCK_VALUES // q // 8 * 8)
    parts = []
    for start in range(0, len(degrees), rows):
        ms = degrees[start : start + rows].astype(float)
        log_a = log_w[None, :] + ms[:, None] * log_t[None, :]
        log_a -= np.max(log_a, axis=1, keepdims=True)
        parts.append(_normalized_moment(np.exp(log_a, out=log_a), vals))
    return np.concatenate(parts)


def gamma_sequence(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    k: Sequence[int],
    lam: float,
    R: int,
) -> Dict[Tuple[int, ...], complex]:
    """gamma(rho) on every level |rho| <= R, in graded order: the
    ``diagonal_values`` of the profile ``a`` on those levels."""
    if R < 0:
        raise DomainError(f"level range R must be nonnegative, got {R}")
    levels = levels_up_to(R, len(k))
    return dict(zip(levels, diagonal_values(a, k, lam, levels).tolist()))


# ---------------------------------------------------------------------------
# Assembly


@lru_cache(maxsize=32)
def _row_plan(d: int, D: int) -> Tuple[Tuple[int, int, int], ...]:
    """(prefix row, axis, power) of each basis row after the first.

    The prefix of alpha is alpha with its last nonzero exponent, a_j on
    axis j, set to 0: a lower degree, so graded order lists it first.
    Row alpha is its prefix row times power a_j of axis j, which keeps
    the product ((P0[a0] * P1[a1]) * ...) in axis order, factors of 1
    aside.
    """
    indices = levels_up_to(D, d)
    position = {alpha: i for i, alpha in enumerate(indices)}
    plan = []
    for alpha in indices[1:]:
        j = max(ax for ax, a in enumerate(alpha) if a)
        plan.append((position[alpha[:j] + (0,) * (d - j)], j, alpha[j]))
    return tuple(plan)


def _monomial_rows(
    z: np.ndarray, basis: TruncatedBasis, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Normalized monomials on a slab of nodes, one row per basis index.

    A (d, D + 1, N) table holds the powers of every axis, built by
    repeated multiplication; each row is then its prefix row times one
    table row (``_row_plan``), and last the norm.  ``out`` is an optional
    (K, N) buffer of z's dtype.  Real input (the moduli |z_j|) gives the
    real radial powers.
    """
    n_pts = z.shape[0]
    if out is None:
        out = np.empty((basis.count, n_pts), dtype=z.dtype)
    powers = np.empty((basis.d, basis.D + 1, n_pts), dtype=z.dtype)
    powers[:, 0] = 1.0
    for p in range(1, basis.D + 1):
        np.multiply(powers[:, p - 1], z.T, out=powers[:, p])
    out[0] = 1.0
    for row, (prefix, ax, p) in enumerate(_row_plan(basis.d, basis.D), 1):
        np.multiply(out[prefix], powers[ax, p], out=out[row])
    out *= basis.norms[:, None]
    return out



@lru_cache(maxsize=1)
def _sample_points(d: int, lam: float, n: int, seed: int) -> np.ndarray:
    """The points of ``monte_carlo_points(d, lam, n, seed)``, read-only.

    The last draw is kept, so the Monte Carlo assemblies of one spec on
    one space (a matrix and its standard errors, several symbols) share
    it.
    """
    z, _ = monte_carlo_points(d, lam, n, seed)
    z.setflags(write=False)
    return z


def _node_sums(
    nodes: np.ndarray,
    weights: Union[float, np.ndarray],
    fn: PointFunction,
    basis: TruncatedBasis,
    second_moment: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """sum_i w_i f(z_i) conj(e_beta(z_i)) e_alpha(z_i) over a flat node set.

    ``weights`` is one weight per node, or one for all (the 1/n of a
    sample mean).  With ``second_moment`` the sum of w_i |f(z_i)|^2
    |e_beta(z_i)|^2 |e_alpha(z_i)|^2 comes along, as S S^T with S = |e|^2
    sqrt(w) |f| and |e|^2 taken as re^2 + im^2.  The symbol is evaluated
    once on the whole node set; w f and sqrt(w) |f| are taken chunk by
    chunk from those values (elementwise, so the bits of a whole-set
    product).  Nodes are taken in chunks of at most _BLOCK_VALUES
    monomial values (never fewer than one node), each built into the same
    preallocated buffers.
    """
    k = basis.count
    total = nodes.shape[0]
    chunk = max(1, min(total, _BLOCK_VALUES // k))
    fv = evaluate_finite(fn, nodes)
    acc = np.zeros((k, k), dtype=complex)
    # flat buffers, so the shorter last chunk still gets contiguous rows
    bufs = [np.empty(k * chunk, dtype=complex) for _ in range(2)]
    acc2 = None
    if second_moment:
        acc2 = np.zeros((k, k))
        bufs += [np.empty(k * chunk) for _ in range(2)]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        w = weights[start:stop] if np.ndim(weights) else weights
        v, work, *sq = (b[: k * (stop - start)].reshape(k, -1) for b in bufs)
        _monomial_rows(nodes[start:stop], basis, v)
        if second_moment:
            s, im2 = sq
            np.multiply(v.real, v.real, out=s)
            np.multiply(v.imag, v.imag, out=im2)
            s += im2
            s *= np.sqrt(w) * np.abs(fv[start:stop])
            acc2 += s @ s.T  # one symmetric rank-k update (syrk)
        np.multiply(v, w * fv[start:stop], out=work)
        acc += np.conjugate(v, out=v) @ work.T
    return acc, acc2


def _phase_coefficients(coef: np.ndarray, phases: Sequence[np.ndarray]) -> np.ndarray:
    """Samples (n, P, ..., P) times the (P, F_j) phase matrix of each
    axis j: the coefficients, shape (n, F_1 * ... * F_d).  Each step takes
    the last phase axis against its matrix and moves its residues to the
    front, so after all d steps the axes are back in order.  A product
    runs over blocks of rows of at most _BLOCK_VALUES multiply-adds (one
    row at least): cache-sized, few calls however small P is, and small
    enough that the BLAS runs each on one thread."""
    n, p = coef.shape[:2]
    for phase in phases[::-1]:
        flat = coef.reshape(-1, p)
        part = np.empty((flat.shape[0], phase.shape[1]), dtype=complex)
        rows = max(1, _BLOCK_VALUES // phase.size)
        for lo in range(0, flat.shape[0], rows):
            np.matmul(flat[lo : lo + rows], phase, out=part[lo : lo + rows])
        coef = np.moveaxis(part.reshape(n, -1, phase.shape[1]), -1, 1)
    return coef.reshape(n, -1)


def _assemble_on_torus(
    rule: BallRule, fn: PointFunction, basis: TruncatedBasis,
    keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Entries from the factored product rule, streamed by radial slab.

    On the torus of radial node i the phase sum of f z^alpha conj(z)^beta
    is the coefficient F_i[beta - alpha (mod P)] of the symbol samples,
    sum_k f(k) exp(-2 pi i k . (beta - alpha) / P) over the phases k, so
    entry (beta, alpha) is sum_i w_i R[i, beta] R[i, alpha] F_i[beta -
    alpha] with R the real normalized radial powers; a mask ``keep``
    restricts the pairs, the rest are exact zeros.  Only the residues
    the pairs read are computed: axis j gets one (P, F_j) phase matrix
    exp(-2 pi i ((k f) mod P) / P) over its F_j residues f, taken from the
    exact integer residue, and the samples meet the matrices axis by axis
    (``_phase_coefficients``).  A slab holds at most _BLOCK_VALUES torus
    nodes and radial monomial values, or one torus, and builds its symbol
    samples, phase coefficients and monomial rows once.  Its contraction runs over tiles of pairs, each gathering at
    most _BLOCK_VALUES coefficients (one pair at least).
    """
    d, p = basis.d, rule.n_phase
    k = basis.count
    exps = basis.exponent_array()
    b_idx, a_idx = np.nonzero(np.ones((k, k), dtype=bool) if keep is None else keep)
    residues = np.mod(exps[b_idx] - exps[a_idx], p)  # beta - alpha (mod P)
    # per axis, the residues some pair reads and each pair's place among them
    freqs, places = zip(*(np.unique(r, return_inverse=True) for r in residues.T))
    shift = np.ravel_multi_index(places, tuple(f.size for f in freqs))
    # exp(-2 pi i m / P), root P - m the exact conjugate of root m and root
    # P / 2 exactly -1, so a real symbol's coefficients at -f and f are
    # exact conjugates
    half = np.exp(-2j * np.pi * np.arange(p // 2 + 1) / p)
    if p % 2 == 0:
        half[-1] = -1.0
    roots = np.concatenate([half, np.conj(half[1 : (p + 1) // 2][::-1])])
    phases = [roots[np.multiply.outer(np.arange(p), f) % p] for f in freqs]
    slab = max(1, _BLOCK_VALUES // max(p**d, k))
    acc = np.zeros(shift.size, dtype=complex)
    for start in range(0, rule.n_radial, slab):
        rows = slice(start, min(start + slab, rule.n_radial))
        z = rule.torus_nodes(rows)
        n = z.shape[0]
        coef = evaluate_finite(fn, z.reshape(-1, d)).reshape(z.shape[:-1])
        del z  # not needed past the samples: freed before the phase stage
        coef = _phase_coefficients(coef, phases)
        r = _monomial_rows(rule.radii[rows], basis).T
        wr = r * rule.radial_weights[rows, None]
        tile = max(1, _BLOCK_VALUES // n)
        for lo in range(0, shift.size, tile):
            pairs = slice(lo, lo + tile)
            # gathered, so C order whatever the layout of r (a transposed
            # view): einsum's summation order follows the operand layout
            pair = wr[:, b_idx[pairs]]
            pair *= r[:, a_idx[pairs]]
            sh = shift[pairs]
            # real and imaginary parts apart: no complex copy of ``pair``
            acc.real[pairs] += np.einsum("ip,ip->p", coef.real[:, sh], pair)
            acc.imag[pairs] += np.einsum("ip,ip->p", coef.imag[:, sh], pair)
    out = np.zeros((k, k), dtype=complex)
    out[b_idx, a_idx] = acc
    return out


def _axis_band(f: SymbolLike, d: int, geometry) -> Optional[Band]:
    """``axis_band`` with zc at the geometry's split point; None for callables."""
    return axis_band(f, d, geometry.ell if geometry else 0) if is_symbolic(f) else None


def resolve_assembly_spec(
    f: SymbolLike, d: int, D: int, spec: QuadratureSpec, geometry=None
) -> QuadratureSpec:
    """The quadrature orders the general assembly uses for this request.

    Explicit orders pass through.  Automatic ones follow the cutoff and
    the degree hint, but ``angular`` is D + b + 1 where the symbol has a
    phase band (``axis_band``, zc placed by ``geometry``), b the largest
    max(hi, -lo).  Rational or root-bearing symbols get 24 extra radial
    nodes, because their integrands converge geometrically in the radial
    order instead of terminating.  Sampling specs are returned as they are.
    """
    if spec.scheme == MONTE_CARLO:
        return spec
    deg_hint = symbol_degree_hint(f) if is_symbolic(f) else 8
    resolved = spec.resolved(d, D, deg_hint)
    band = _axis_band(f, d, geometry)
    if spec.angular == 0 and band is not None:
        resolved = replace(resolved, angular=D + 1 + max(max(hi, -lo) for lo, hi in band))
    if spec.q == 0 and is_symbolic(f) and not is_polynomial(f):
        resolved = replace(resolved, q=resolved.q + 24)
    return resolved


@dataclass(frozen=True)
class AssemblyPath:
    """The plan ``toeplitz_matrix`` follows for one request: its route and
    the orders of that route.

    ``kind`` is "radial" (a radial form, its eigenvalues one per
    degree), "quasi_radial" (a diagonal of the gamma sequence, one value
    per level), "levels" (a product symbol, the rows of T_a times an
    inner-ball matrix of c on each level), "torus" (the product rule of
    ``spec``) or "monte_carlo" (the samples of ``spec``).  The first two
    take ``diagonal_values`` over the partition ``parts`` ((d,) on the
    radial path, the geometry's k otherwise), with the rule order ``q``,
    or exact sums where ``q`` is None.  On the "levels" path ``factor``
    is the plan of T_a on the z'-ball and ``inner`` the inner-ball plan
    of each level |rho| <= D, in graded order.  ``spec`` is the
    resolved request whatever the path; ``band`` is the torus or Monte
    Carlo one's.
    """

    kind: str
    spec: QuadratureSpec
    parts: Tuple[int, ...] = ()
    q: Optional[int] = None
    inner: Tuple["AssemblyPath", ...] = field(default=(), repr=False)
    band: Optional[Band] = None
    factor: Optional["AssemblyPath"] = None

    def record(self) -> dict:
        """The path and the orders it used, for run records.

        A torus path adds its phase band, [lo, hi] per axis, or None.  A
        "levels" path is exact when its factor and every level are;
        otherwise it lists the factor's record and each level's.
        """
        if self.kind == "torus":
            band = None if self.band is None else [list(b) for b in self.band]
            return {"path": self.kind, "q": self.spec.q, "angular": self.spec.angular,
                    "band": band}
        if self.kind == "monte_carlo":
            return {
                "path": self.kind,
                "n_samples": self.spec.n_samples,
                "seed": self.spec.seed,
            }
        if self.kind == "levels":
            factor = self.factor.record()
            blocks = [p.record() for p in self.inner]
            if factor.get("exact") and all(b.get("exact") for b in blocks):
                return {"path": self.kind, "exact": True}
            return {"path": self.kind, "factor": factor, "blocks": blocks}
        if self.q is None:
            return {"path": self.kind, "exact": True}
        return {"path": self.kind, "q": self.q}


def assembly_path(
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
    *,
    use_fast_paths: bool = True,
) -> AssemblyPath:
    """The route and orders ``toeplitz_matrix`` uses for this request.

    Refuses, with a ``DomainError``, a negative cutoff and, before
    anything of that size is built, a radial moment table past the desk
    budget (``radial_table_order``), a basis whose dense matrix would
    pass it (a radial form's only where read: its plan refuses a basis
    norm past the float range instead, where the form fits the budget),
    and a torus plan (an inner one too) whose product rule would exceed
    the node budget.  The plan sums and assembles nothing.  A product symbol takes the levels where the
    spec is a rule, its geometry splits this space's ball and its
    a-factor has group winding zero on the z'-ball (a quasi-radial one
    does): the one judgement of the level route.  Its factor is this
    function's plan of a on the z'-ball.  The group radii of a symbol's
    geometry are moduli on this space's ball only where its groups cover
    that ball.
    """
    k = count_basis(space.d, D)
    geometry = space.geometry
    resolved = resolve_assembly_spec(f, space.d, D, spec, geometry)
    if (use_fast_paths and is_symbolic(f) and not isinstance(f, ProductSymbol)
            and is_radial(f, geometry)):
        q = radial_table_order(f, D, f"the radial moment table for degrees <= {D}")
        if k * k <= _MAX_DENSE_ENTRIES:
            even = [D // space.d + (j < D % space.d) for j in range(space.d)]
            basis_norm_constant(even, space.d, space.lam)
        return AssemblyPath("radial", resolved, (space.d,), q)
    _require_dense(space.d, D)
    if use_fast_paths and isinstance(f, ProductSymbol):
        geo = f.geometry
        if spec.scheme != MONTE_CARLO and geo and geo.n == space.d and geo.d_inner >= 1:
            prime = geo.prime_space(space.lam)
            if group_winding(f.a, prime.geometry) == (0,) * geo.m:
                factor = assembly_path(f.a, prime, D, spec)
                c_inner = rebase_inner(f.c)
                inner = tuple(
                    assembly_path(c_inner, geo.level_space(space.lam, rho), D - sum(rho), spec)
                    for rho in levels_up_to(D, geo.m)
                )
                return AssemblyPath("levels", resolved, inner=inner, factor=factor)
    elif (use_fast_paths and is_symbolic(f) and geometry is not None
          and sum(geometry.k) == space.d and quasi_radial_profile(f, geometry.m) is not None):
        q = _diagonal_order(f, geometry.m, D)
        return AssemblyPath("quasi_radial", resolved, geometry.k, q)
    kind = "monte_carlo" if spec.scheme == MONTE_CARLO else "torus"
    if kind == "torus":
        require_rule_size(space.d, resolved.q, resolved.angular)
    return AssemblyPath(kind, resolved, band=_axis_band(f, space.d, geometry))


def toeplitz_matrix(
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
    *,
    use_fast_paths: bool = True,
) -> OperatorMatrix:
    """Compression of the symbol's Toeplitz operator to degrees <= D.

    Fast paths: radial symbols become radial forms, their D + 1
    eigenvalues, group-radius symbols diagonals of the gamma sequence, product
    symbols whose a-factor is invariant under the group torus are
    assembled level by level (a diagonal form when T_a and every inner
    matrix are one), and on the torus and Monte Carlo paths only the
    entries inside the symbol's phase bands are computed, every other
    one an exact zero.  The diagonal of a
    polynomial symbol is exact, a sum of Pochhammer ratios over its
    terms; any other diagonal comes from one Gauss-Jacobi or simplex rule.
    ``use_fast_paths=False`` forces plain quadrature for every entry,
    which is the honest reference the fast paths are tested against.
    ``assembly_path`` names the route taken.
    """
    path = assembly_path(f, space, D, spec, use_fast_paths=use_fast_paths)
    return _assemble(path, f, space, D, use_fast_paths)


def _assemble(
    path: AssemblyPath,
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    use_fast_paths: bool = True,
) -> OperatorMatrix:
    """The matrix of ``f`` along a path ``assembly_path`` chose for it."""
    if path.kind == "radial":
        values = diagonal_values(f, path.parts, space.lam, np.arange(D + 1), path.q)
        return OperatorMatrix.radial(space.d, D, space.lam, values)
    basis = enumerate_basis(space.d, D, space.lam)
    geometry = space.geometry
    if path.kind == "quasi_radial":
        degrees = basis.group_degrees(path.parts)
        # the distinct rows, in lexicographic order, through one integer key each
        key = np.ravel_multi_index(degrees.T, degrees.max(axis=0) + 1)
        _, first, of_row = np.unique(key, return_index=True, return_inverse=True)
        values = diagonal_values(f, path.parts, space.lam, degrees[first], path.q)
        return OperatorMatrix.diagonal(basis, values[of_row])
    if path.kind == "levels":
        return _assemble_by_levels(path, f, basis)

    keep = _band_pairs(path.band, f, basis, geometry) if use_fast_paths else None
    if keep is not None and not keep.any():
        # the band keeps no pair: every entry is an exact zero, with no node
        return OperatorMatrix(basis, np.zeros((basis.count, basis.count), dtype=complex))
    fn = as_point_function(f, geometry)
    if path.kind == "monte_carlo":
        z = _sample_points(space.d, space.lam, path.spec.n_samples, path.spec.seed)
        entries = _node_sums(z, 1.0 / z.shape[0], fn, basis)[0]
        entries = entries if keep is None else np.where(keep, entries, 0.0)
    else:
        rule = ball_rule(space.d, space.lam, path.spec.q, path.spec.angular)
        entries = _assemble_on_torus(rule, fn, basis, keep)
    return OperatorMatrix(basis, entries)


def _band_pairs(
    band: Optional[Band], f: SymbolLike, basis: TruncatedBasis, geometry
) -> Optional[np.ndarray]:
    """The (beta, alpha) pairs whose beta - alpha lies in the axis
    ``band`` and whose group degrees differ by the symbol's group band,
    as a (K, K) mask; every other entry vanishes.  None for all pairs."""
    boxes = [(band, basis.exponent_array())]
    if geometry is not None and is_symbolic(f):
        boxes.append((group_band(f, geometry), basis.group_degrees(geometry.k)))
    keep = np.ones((basis.count, basis.count), dtype=bool)
    for box, deg in boxes:
        for j, (lo, hi) in enumerate(box or ()):
            diff = np.subtract.outer(deg[:, j], deg[:, j])  # beta - alpha
            keep &= (lo <= diff) & (diff <= hi)
    return None if keep.all() else keep


def _assemble_by_levels(
    path: AssemblyPath, f: ProductSymbol, basis: TruncatedBasis
) -> OperatorMatrix:
    """(rows of T_a on H_rho) (x) T_c at weight mu_rho on every level.

    T_a is assembled once on the z'-ball, along ``path.factor``; level
    rho reads its rows at that ball's ``level_layout`` positions (a
    quasi-radial a gives gamma(rho) I).  The full basis's ``level_layout``
    rows are in inner-basis order, so the inner matrix times a factor
    entry lands on a pair of rows as it is; zero factor entries are
    skipped, so their pairs stay exact +0.0, never 0 times the inner
    matrix.  A diagonal T_a with diagonal inner matrices gives a diagonal
    form, anything else a dense matrix.
    """
    geo = f.geometry
    layout = level_layout(basis, geo)
    c_inner = rebase_inner(f.c)
    blocks = [
        _assemble(inner, c_inner, geo.level_space(basis.lam, rho), basis.D - sum(rho))
        for rho, inner in zip(layout, path.inner)
    ]
    prime = geo.prime_space(basis.lam)
    t_a = _assemble(path.factor, f.a, prime, basis.D)
    # the same levels in the same order; on the z'-ball each row is one position
    pos = [rows[:, 0] for rows in level_layout(t_a.basis, prime.geometry).values()]
    if t_a.diag is not None and all(blk.diag is not None for blk in blocks):
        diag = np.empty(basis.count, dtype=complex)
        for rows, i, blk in zip(layout.values(), pos, blocks):
            diag[rows] = t_a.diag[i, None] * blk.diag
        return OperatorMatrix.diagonal(basis, diag)
    entries = np.zeros((basis.count, basis.count), dtype=complex)
    for rows, i, blk in zip(layout.values(), pos, blocks):
        for (p, r), value in np.ndenumerate(t_a.entries[np.ix_(i, i)]):
            if not value:
                continue
            if blk.diag is not None:
                entries[rows[p], rows[r]] = value * blk.diag
            else:
                entries[np.ix_(rows[p], rows[r])] = value * blk.entries
    return OperatorMatrix(basis, entries)


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
    This is the honest route: every pair, no band mask, so the matrix
    equals ``toeplitz_matrix(..., use_fast_paths=False)`` on the same
    draw bitwise, and it refuses what that route's ``assembly_path``
    refuses.
    """
    if spec.scheme != MONTE_CARLO:
        raise DomainError("standard errors are only defined for sampling schemes")
    assembly_path(f, space, D, spec, use_fast_paths=False)
    basis = enumerate_basis(space.d, D, space.lam)
    z = _sample_points(space.d, space.lam, spec.n_samples, spec.seed)
    n = z.shape[0]
    acc, acc2 = _node_sums(z, 1.0 / n, as_point_function(f, space.geometry), basis,
                           second_moment=True)
    var = np.maximum(acc2 - np.abs(acc) ** 2, 0.0) / max(n - 1, 1)
    return OperatorMatrix(basis, acc), np.sqrt(var)


def _diagonal_norm(values: np.ndarray) -> float:
    """Largest singular value of the diagonal matrix of ``values``: the
    largest modulus, with no dense matrix."""
    if not np.all(np.isfinite(values)):
        raise DomainError("matrix has non-finite entries")
    return float(np.max(np.abs(values)))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a dense 2-D array, largest first; a non-finite
    array, or one the solver does not converge on, is refused."""
    if a.ndim != 2:
        raise DomainError(f"singular values need a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"singular value decomposition failed: {exc}") from None


def operator_norm(M: Union[OperatorMatrix, np.ndarray]) -> float:
    """Largest singular value.

    A radial form gives the largest modulus of its D + 1 values, a
    diagonal form of its K values, without a dense matrix.  Every dense
    matrix, at any size, gives the top value of ``np.linalg.svd`` through
    ``_singular_values``, the route ``min_singular_probe`` reads too; a
    non-finite matrix, or one the decomposition does not converge on,
    raises a ``DomainError``.
    """
    if isinstance(M, OperatorMatrix) and M.per_degree is not None:
        return _diagonal_norm(M.per_degree)
    if isinstance(M, OperatorMatrix) and M.diag is not None:
        return _diagonal_norm(M.diag)
    a = M.entries if isinstance(M, OperatorMatrix) else np.asarray(M, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("operator norm needs a square matrix")
    if a.shape[0] == 0:
        return 0.0
    return float(_singular_values(a)[0])


def semicommutator(
    c1: SymbolLike,
    c2: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
) -> OperatorMatrix:
    """Matrix of T_{c1} T_{c2} - T_{c1 c2} on the truncation.

    The product of compressions differs from the compressed product by
    terms supported above the cutoff; for radial factors the difference
    vanishes, the result is exact, and it is a radial form of D + 1
    values at any cutoff.
    """
    t1 = toeplitz_matrix(c1, space, D, spec)
    t2 = toeplitz_matrix(c2, space, D, spec)
    if is_symbolic(c1) and is_symbolic(c2) and not (
        isinstance(c1, ProductSymbol) or isinstance(c2, ProductSymbol)
    ):
        product: SymbolLike = BinOp("*", c1, c2)
    else:
        f1 = as_point_function(c1, space.geometry)
        f2 = as_point_function(c2, space.geometry)

        def product(z: np.ndarray) -> np.ndarray:
            return np.asarray(f1(z)) * np.asarray(f2(z))

    t12 = toeplitz_matrix(product, space, D, spec)
    return t1 @ t2 - t12


# ---------------------------------------------------------------------------
# Export


def export_matrix_csv(
    M: OperatorMatrix,
    path: str,
    *,
    symbol_text: str,
    spec: Optional[QuadratureSpec] = None,
    extra: Optional[dict] = None,
) -> None:
    """Write all entries as row_index,col_index,re,im plus a metadata file.

    The sidecar (same path with .meta.json appended) records the basis
    order and enough context to reproduce the matrix.
    """
    cells = ((i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(M.entries))
    lines = csv_lines("row_index,col_index,re,im", cells)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = {
        "basis_order": [",".join(str(v) for v in a) for a in M.basis.indices],
        "D": M.basis.D,
        "lam": M.basis.lam,
        "d": M.basis.d,
        "symbol": symbol_text,
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
