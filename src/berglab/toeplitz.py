"""Truncated Toeplitz matrices and their diagonal closed forms.

A symbol f on the d-ball at weight lam is compressed to the span of the
normalized monomials of degree <= D.  Entry (beta, alpha) of the matrix
is <f e_alpha, e_beta>.  The general Gauss-Jacobi path streams the
product rule (radial x simplex x equispaced phases^d) one slab of radial
nodes at a time: on each torus of phases the phase sum of f z^alpha
conj(z)^beta is one DFT coefficient of the symbol samples, at
beta - alpha, so an FFT over the phase axes plus real radial powers give
every entry.  With D + b + 1 phases for a symbol of phase band reach b
(``symbols.axis_band``), else 2D + deg + 1, nothing an entry needs
aliases, and the fast paths contract only the pairs in the band.
Monte Carlo samples have no torus structure and contract the monomial
values with themselves instead.  The monomials are built row by row in a
(K, n) layout: each axis gets a table of powers of the samples, and row
alpha is its prefix row (alpha less its last nonzero exponent) times one
table row, then its norm.  One draw of samples per spec is kept and
shared; the symbol is evaluated on it once, and the samples are taken
in cache-sized chunks of at most _CHUNK_ENTRIES monomial values, built
into buffers reused from chunk to chunk.  The second moment behind the
standard errors is one S S^T product, S = |e|^2 sqrt(w) |f| with |e|^2
taken as re^2 + im^2.  Symbols that only depend on
group radii (or on |z|^2) skip quadrature over phases entirely and are
assembled as diagonals, kept as their K values: an OperatorMatrix has a
dense form and a diagonal form, and the diagonal one builds its K x K
entries only when a caller asks for them.  Every diagonal value (radial
eigenvalues, the gamma of a level, the Berezin expansion's sequence)
comes from ``diagonal_values``, whose profiles take the group radii.  A
polynomial profile is exact: written in s_j = r_j^2 and u = 1 - |s|, its
terms c s^p u^l give each value as a sum of Pochhammer ratios, with no
rule; a level where that float sum cancels is summed again in exact
rational arithmetic.  Other profiles (rational, with roots, callables,
or too high a degree) take one rule: a Gauss-Jacobi table over the
degrees for one group, a simplex rule per level for several.  Arrays
past _MAX_DENSE_ENTRIES are refused before they are allocated, and so
are diagonal forms whose dense form would be.

A product symbol f = a(z' / sqrt(1 - |z''|^2)) c(z'') whose a-factor is
quasi-radial is assembled level by level, by the paper's decomposition
A^2_lam = (+)_rho H_rho (x) A^2_{mu_rho} of the ball with mu_rho = lam +
|rho| + ell: on level rho it acts as gamma_a(rho) I (x) T_c at weight
mu_rho, so each level takes gamma (exact for a polynomial a) times one
inner-ball matrix of c, assembled by the inner ball's own paths, and no
full-ball rule is built.  Within one z'-exponent the basis order is the
inner basis order, so each inner matrix lands on those rows as it is.

Truncation is compression: norms computed here are lower bounds that
increase toward the operator norm as D grows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    TruncatedBasis,
    WeightedSpace,
    count_basis,
    csv_lines,
    enumerate_basis,
    level_layout,
    levels_up_to,
)
from .errors import DomainError
from .quadrature import (
    MONTE_CARLO,
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


class OperatorMatrix:
    """Compression of an operator to a truncated monomial basis.

    ``entries[i, j]`` is the coefficient of basis vector i in the image of
    basis vector j, i.e. row index = output (beta), column = input (alpha).

    A matrix is stored dense, or, when built by ``diagonal``, as its K
    diagonal values ``diag`` (None for a dense matrix).  A diagonal form
    builds ``entries`` (``np.diag`` of the values) only on first access
    and keeps it; the norm, the Berezin transform, the level checks and
    products, sums and scalings of diagonal forms read ``diag`` instead.
    """

    __slots__ = ("basis", "label", "diag", "_dense")

    def __init__(
        self, basis: TruncatedBasis, entries: np.ndarray, label: str = ""
    ) -> None:
        arr = np.asarray(entries, dtype=complex)
        k = basis.count
        if arr.shape != (k, k):
            raise DomainError(
                f"matrix shape {arr.shape} does not match the basis size {k}"
            )
        self.basis = basis
        self.label = label
        self.diag: Optional[np.ndarray] = None
        self._dense: Optional[np.ndarray] = arr

    @classmethod
    def diagonal(
        cls, basis: TruncatedBasis, values: Sequence[complex], label: str = ""
    ) -> "OperatorMatrix":
        """The diagonal matrix of ``values``, kept as the K values.

        Refused, like a dense matrix, when its dense form would pass the
        desk budget.
        """
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (basis.count,):
            raise DomainError("diagonal length does not match the basis")
        _require_budget(basis.count**2, f"a {basis.count} x {basis.count} matrix")
        out = cls.__new__(cls)
        out.basis = basis
        out.label = label
        out.diag = vals
        out._dense = None
        return out

    @staticmethod
    def identity(basis: TruncatedBasis) -> "OperatorMatrix":
        return OperatorMatrix.diagonal(basis, np.ones(basis.count), label="1")

    @property
    def entries(self) -> np.ndarray:
        if self._dense is None:
            self._dense = np.diag(self.diag)
        return self._dense

    @property
    def size(self) -> int:
        return self.basis.count

    def entry(self, beta: Sequence[int], alpha: Sequence[int]) -> complex:
        i, j = self.basis.index_of(beta), self.basis.index_of(alpha)
        if self.diag is not None:
            return complex(self.diag[i]) if i == j else 0j
        return complex(self.entries[i, j])

    def _require_same_basis(self, other: "OperatorMatrix") -> None:
        b1, b2 = self.basis, other.basis
        if (b1.d, b1.D, b1.lam) != (b2.d, b2.D, b2.lam) or b1.indices != b2.indices:
            raise DomainError("operator matrices live on different bases")

    def _combine(self, other: "OperatorMatrix", diag_op, dense_op, label: str):
        """diag_op of two diagonal forms stays diagonal; else dense_op."""
        self._require_same_basis(other)
        if self.diag is not None and other.diag is not None:
            return OperatorMatrix.diagonal(
                self.basis, diag_op(self.diag, other.diag), label
            )
        return OperatorMatrix(self.basis, dense_op(self.entries, other.entries), label)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(
            other, np.multiply, np.matmul, f"({self.label})({other.label})"
        )

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, np.add, np.add, f"{self.label} + {other.label}")

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(
            other, np.subtract, np.subtract, f"{self.label} - {other.label}"
        )

    def __mul__(self, scalar: complex) -> "OperatorMatrix":
        if self.diag is not None:
            return OperatorMatrix.diagonal(self.basis, self.diag * scalar, self.label)
        return OperatorMatrix(self.basis, self.entries * scalar, label=self.label)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        form = "diagonal" if self.diag is not None else "dense"
        return f"OperatorMatrix({form}, K={self.size}, label={self.label!r})"


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


# entries of the radial moment table built per pass (at least 8 rows)
_MOMENT_ENTRIES = 1 << 16

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


def _require_partition(k: Sequence[int], lam: float) -> Tuple[int, ...]:
    """The partition k as a tuple; refused if it has no group or an empty
    one, or if the weight lam is not a finite number above -1."""
    k = tuple(int(v) for v in k)
    if not k or min(k) < 1:
        raise DomainError(f"partition parts must be positive integers, got {k}")
    if not -1.0 < lam < math.inf:
        raise DomainError(f"weight lambda must be finite and exceed -1, got {lam!r}")
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
        rule = simplex_radial_rule(lam, 2 * rho + 2 * np.array(k) - 1, q)
        vals = evaluate_finite(profile, rule.radii)
        values.append(_normalized_moment(rule.weights, vals))
    return np.array(values)


def radial_toeplitz_diagonal(
    a: Union[SymbolExpr, Callable[[np.ndarray], np.ndarray]],
    d: int,
    mu: float,
    D: int,
    q: Optional[int] = None,
) -> np.ndarray:
    """All radial eigenvalues for degrees 0..D: the ``diagonal_values`` of
    one group of size d.  A profile callable takes |z| as an (N, 1) array."""
    if D < 0:
        raise DomainError(f"cutoff D must be nonnegative, got {D}")
    return diagonal_values(a, (d,), mu, np.arange(D + 1), q)


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
    (degrees x q) table of those weights is built about _MOMENT_ENTRIES at a time, in
    blocks of a multiple of 8 degrees: BLAS matvec kernels reduce rows in
    groups of up to 8, so each degree is reduced as a single-threaded
    product over the whole table would reduce it.
    """
    _require_budget(
        len(degrees) * q, f"the radial moment table for degrees <= {degrees.max()}"
    )
    t, log_w = gauss_jacobi_log_rule(q, float(mu), float(d - 1))
    log_t = np.log(t)
    vals = evaluate_finite(profile, np.sqrt(t)[:, None])
    rows = max(8, _MOMENT_ENTRIES // q // 8 * 8)
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


# Working-set caps for one slab of the torus assembly, in array elements:
# nodes on the slab's tori and gathered (beta, alpha) phase coefficients
_SLAB_NODES = 1 << 18
_SLAB_ENTRIES = 1 << 20
# monomial values in one chunk of the node sums: about 1 MB, cache-sized
_CHUNK_ENTRIES = 1 << 16


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
    weights: np.ndarray,
    fn: PointFunction,
    basis: TruncatedBasis,
    second_moment: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """sum_i w_i f(z_i) conj(e_beta(z_i)) e_alpha(z_i) over a flat node set.

    With ``second_moment`` the sum of w_i |f(z_i)|^2 |e_beta(z_i)|^2
    |e_alpha(z_i)|^2 comes along, as S S^T with S = |e|^2 sqrt(w) |f|
    and |e|^2 taken as re^2 + im^2.  The symbol, w f and sqrt(w) |f| are
    evaluated once on the whole node set.  Nodes are taken in chunks of
    at most _CHUNK_ENTRIES monomial values (never fewer than one node),
    each built into the same preallocated buffers.
    """
    k = basis.count
    total = nodes.shape[0]
    chunk = max(1, min(total, _CHUNK_ENTRIES // k))
    fv = evaluate_finite(fn, nodes)
    wf = weights * fv
    acc = np.zeros((k, k), dtype=complex)
    # flat buffers, so the shorter last chunk still gets contiguous rows
    bufs = [np.empty(k * chunk, dtype=complex) for _ in range(2)]
    acc2 = None
    if second_moment:
        sf = np.sqrt(weights) * np.abs(fv)
        acc2 = np.zeros((k, k))
        bufs += [np.empty(k * chunk) for _ in range(2)]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        v, work, *sq = (b[: k * (stop - start)].reshape(k, -1) for b in bufs)
        _monomial_rows(nodes[start:stop], basis, v)
        if second_moment:
            s, im2 = sq
            np.multiply(v.real, v.real, out=s)
            np.multiply(v.imag, v.imag, out=im2)
            s += im2
            s *= sf[start:stop]
            acc2 += s @ s.T  # one symmetric rank-k update (syrk)
        np.multiply(v, wf[start:stop], out=work)
        acc += np.conjugate(v, out=v) @ work.T
    return acc, acc2


def _assemble_on_torus(
    rule: BallRule, fn: PointFunction, basis: TruncatedBasis,
    keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Entries from the factored product rule, streamed by radial slab.

    On the torus of radial node i the phase sum of f z^alpha conj(z)^beta
    is the DFT coefficient F_i[beta - alpha (mod P)] of the symbol samples,
    so entry (beta, alpha) is sum_i w_i R[i, beta] R[i, alpha] F_i[beta -
    alpha] with R the real normalized radial powers; a mask ``keep``
    restricts the pairs, the rest are exact zeros.  A slab holds at most
    _SLAB_NODES torus nodes and _SLAB_ENTRIES coefficients, or one torus.
    """
    d, p = basis.d, rule.n_phase
    k = basis.count
    n_torus = p**d
    exps = basis.exponent_array()
    if keep is None:
        diff = exps[:, None, :] - exps[None, :, :]  # beta - alpha
    else:
        b_idx, a_idx = np.nonzero(keep)
        diff = exps[b_idx] - exps[a_idx]
    shift = np.ravel_multi_index(tuple(np.mod(diff, p).reshape(-1, d).T), (p,) * d)
    slab = max(1, min(_SLAB_NODES // n_torus, _SLAB_ENTRIES // max(1, shift.size)))
    acc = np.zeros(shift.size, dtype=complex)
    for start in range(0, rule.n_radial, slab):
        rows = slice(start, min(start + slab, rule.n_radial))
        z = rule.torus_nodes(rows)
        n = z.shape[0]
        fv = evaluate_finite(fn, z.reshape(-1, d)).reshape(z.shape[:-1])
        if k == 1:
            # frequency 0 alone: the plain phase sum of the samples
            coef = fv.reshape(n, n_torus).sum(axis=1, keepdims=True)
        else:
            coef = np.fft.fftn(fv, axes=tuple(range(1, d + 1))).reshape(n, n_torus)
        r = _monomial_rows(rule.radii[rows], basis).T
        wr = r * rule.radial_weights[rows, None]
        if keep is None:
            # C order whatever the layout of r (a transposed view): einsum's
            # summation order follows the operand layout
            pair = np.multiply(wr[:, :, None], r[:, None, :], order="C")
            pair = pair.reshape(n, k * k)
        else:
            pair = wr[:, b_idx]
            pair *= r[:, a_idx]
        # real and imaginary parts apart: no complex copy of ``pair``
        acc.real += np.einsum("ip,ip->p", coef.real[:, shift], pair)
        acc.imag += np.einsum("ip,ip->p", coef.imag[:, shift], pair)
    if keep is None:
        return acc.reshape(k, k)
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

    ``kind`` is "radial" (a diagonal of radial eigenvalues, one per
    degree), "quasi_radial" (a diagonal of the gamma sequence, one value
    per level), "levels" (a product symbol with a quasi-radial a-factor,
    gamma times an inner-ball matrix of c on each level), "torus" (the
    product rule of ``spec``) or "monte_carlo" (the samples of ``spec``).
    The first three take ``diagonal_values`` over the partition ``parts``
    ((d,) on the radial path, the geometry's k otherwise), with the rule
    order ``q``, or exact sums where ``q`` is None.  On the "levels" path
    ``inner`` holds the inner-ball plan of each level |rho| <= D, in
    graded order.  ``spec`` is the resolved request whatever the path;
    ``band`` is the torus or Monte Carlo one's.
    """

    kind: str
    spec: QuadratureSpec
    parts: Tuple[int, ...] = ()
    q: Optional[int] = None
    inner: Tuple["AssemblyPath", ...] = field(default=(), repr=False)
    band: Optional[Band] = None

    def record(self) -> dict:
        """The path and the orders it used, for run records.

        A torus path adds its phase band, [lo, hi] per axis, or None.  A
        "levels" path with no rule anywhere is exact; otherwise it lists
        the order of the gamma rule, if any, and each level's inner record.
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
            blocks = [p.record() for p in self.inner]
            if self.q is None and all(b.get("exact") for b in blocks):
                return {"path": self.kind, "exact": True}
            out = {"path": self.kind, "blocks": blocks}
            if self.q is not None:
                out["q"] = self.q
            return out
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

    Refuses, with a ``DomainError``, a basis whose dense matrix would
    exceed the desk budget and a torus plan (an inner one too) whose
    product rule would exceed the node budget, before anything of that
    size is built.  The plan sums and assembles nothing.  A product
    symbol takes the levels where its a-factor is quasi-radial, the spec
    is a rule and its geometry splits this space's ball; the group radii
    of a symbol's geometry are moduli on this space's ball only where its
    groups cover that ball.
    """
    k = count_basis(space.d, D)
    _require_budget(k * k, f"a {k} x {k} matrix")
    geometry = space.geometry
    resolved = resolve_assembly_spec(f, space.d, D, spec, geometry)
    kind = None
    if use_fast_paths and isinstance(f, ProductSymbol):
        geo, a = f.geometry, f.a
        if (spec.scheme != MONTE_CARLO and geo is not None and geo.n == space.d
                and geo.d_inner >= 1 and quasi_radial_profile(a, geo.m) is not None):
            kind, parts = "levels", geo.k
    elif use_fast_paths and is_symbolic(f):
        a = f
        if is_radial(f, geometry):
            kind, parts = "radial", (space.d,)
        elif (geometry is not None and sum(geometry.k) == space.d
                and quasi_radial_profile(f, geometry.m) is not None):
            kind, parts = "quasi_radial", geometry.k
    if kind is None:
        kind = "monte_carlo" if spec.scheme == MONTE_CARLO else "torus"
        if kind == "torus":
            require_rule_size(space.d, resolved.q, resolved.angular)
        return AssemblyPath(kind, resolved, band=_axis_band(f, space.d, geometry))
    q = _diagonal_order(a, len(parts), D)
    inner = ()
    if kind == "levels":
        c_inner = rebase_inner(f.c)
        inner = tuple(
            assembly_path(c_inner, geo.level_space(space.lam, rho), D - sum(rho), spec)
            for rho in levels_up_to(D, geo.m)
        )
    return AssemblyPath(kind, resolved, parts, q, inner)


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

    Fast paths: radial symbols become diagonals of radial eigenvalues,
    group-radius symbols become diagonals of the gamma sequence, product
    symbols with a quasi-radial a-factor are assembled level by level
    (a diagonal form when every inner matrix is one), and on the torus
    and Monte Carlo paths only the entries inside the symbol's phase
    bands are computed, every other one an exact zero.  The diagonal of a
    polynomial symbol is exact, a sum of Pochhammer ratios over its
    terms; any other diagonal comes from one Gauss-Jacobi or simplex rule.
    ``use_fast_paths=False`` forces plain quadrature for every entry,
    which is the honest reference the fast paths are tested against.
    ``assembly_path`` names the route taken.
    """
    path = assembly_path(f, space, D, spec, use_fast_paths=use_fast_paths)
    if label is None:
        label = symbol_to_text(f) if is_symbolic(f) else "callable"
    return _assemble(path, f, space, D, label, use_fast_paths)


def _assemble(
    path: AssemblyPath,
    f: SymbolLike,
    space: WeightedSpace,
    D: int,
    label: str,
    use_fast_paths: bool = True,
) -> OperatorMatrix:
    """The matrix of ``f`` along a path ``assembly_path`` chose for it."""
    basis = enumerate_basis(space.d, D, space.lam)
    geometry = space.geometry
    if path.kind in ("radial", "quasi_radial"):
        degrees = basis.group_degrees(path.parts)
        # the distinct rows, in lexicographic order, through one integer key each
        key = np.ravel_multi_index(degrees.T, degrees.max(axis=0) + 1)
        _, first, of_row = np.unique(key, return_index=True, return_inverse=True)
        values = diagonal_values(f, path.parts, space.lam, degrees[first], path.q)
        return OperatorMatrix.diagonal(basis, values[of_row], label=label)
    if path.kind == "levels":
        return _assemble_by_levels(path, f, basis, label)

    fn = as_point_function(f, geometry)
    keep = _band_pairs(path.band, f, basis, geometry) if use_fast_paths else None
    if path.kind == "monte_carlo":
        z = _sample_points(space.d, space.lam, path.spec.n_samples, path.spec.seed)
        weights = np.full(z.shape[0], 1.0 / z.shape[0])
        entries = _node_sums(z, weights, fn, basis)[0]
        entries = entries if keep is None else np.where(keep, entries, 0.0)
    else:
        rule = ball_rule(space.d, space.lam, path.spec.q, path.spec.angular)
        entries = _assemble_on_torus(rule, fn, basis, keep)
    return OperatorMatrix(basis, entries, label=label)


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
    path: AssemblyPath, f: ProductSymbol, basis: TruncatedBasis, label: str
) -> OperatorMatrix:
    """gamma(rho) I (x) T_c at weight mu_rho on every level of the basis.

    Each row of a level's ``level_layout`` array is in inner-basis order,
    so the level's inner matrix, times gamma, lands on it as it is;
    entries between two rows are zero.  Diagonal inner matrices give a
    diagonal form, any dense one a dense matrix.
    """
    geo = f.geometry
    layout = level_layout(basis, geo)
    gammas = diagonal_values(f.a, path.parts, basis.lam, list(layout), path.q)
    c_inner = rebase_inner(f.c)
    blocks = [
        _assemble(inner, c_inner, geo.level_space(basis.lam, rho), basis.D - sum(rho), "")
        for rho, inner in zip(layout, path.inner)
    ]
    if all(blk.diag is not None for blk in blocks):
        diag = np.empty(basis.count, dtype=complex)
        for rows, gamma, blk in zip(layout.values(), gammas, blocks):
            diag[rows] = gamma * blk.diag
        return OperatorMatrix.diagonal(basis, diag, label=label)
    entries = np.zeros((basis.count, basis.count), dtype=complex)
    for rows, gamma, blk in zip(layout.values(), gammas, blocks):
        if blk.diag is not None:
            entries[rows, rows] = gamma * blk.diag
            continue
        scaled = gamma * blk.entries
        for row in rows:
            entries[np.ix_(row, row)] = scaled
    return OperatorMatrix(basis, entries, label=label)


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
    k = count_basis(space.d, D)
    _require_budget(k * k, f"a {k} x {k} matrix")
    basis = enumerate_basis(space.d, D, space.lam)
    geometry = space.geometry
    fn = as_point_function(f, geometry)
    z = _sample_points(space.d, space.lam, spec.n_samples, spec.seed)
    n = z.shape[0]
    acc, acc2 = _node_sums(z, np.full(n, 1.0 / n), fn, basis, second_moment=True)
    var = np.maximum(acc2 - np.abs(acc) ** 2, 0.0) / max(n - 1, 1)
    label = symbol_to_text(f) if is_symbolic(f) else "callable"
    return OperatorMatrix(basis, acc, label=label), np.sqrt(var)


# iteration cap and relative tolerance of the power method in operator_norm
_POWER_ITERATIONS = 20_000
_POWER_TOL = 1e-12


def _diagonal_norm(values: np.ndarray) -> float:
    """Largest singular value of the diagonal matrix of ``values``: the
    largest modulus, with no dense matrix."""
    if not np.all(np.isfinite(values)):
        raise DomainError("matrix has non-finite entries")
    return float(np.max(np.abs(values)))


def operator_norm(M: Union[OperatorMatrix, np.ndarray]) -> float:
    """Largest singular value.

    A diagonal form gives the largest modulus of its values, without a
    dense matrix.  Small dense matrices go through the dense solver.  Large ones take the
    Hermitian eigensolver when the matrix equals its adjoint exactly, and
    otherwise power iteration on A*A with two fixed starting vectors
    (all-ones and alternating signs) so runs are deterministic.  Power
    iteration that does not converge within its iteration cap raises a
    ``DomainError``.
    """
    if isinstance(M, OperatorMatrix) and M.diag is not None:
        return _diagonal_norm(M.diag)
    a = M.entries if isinstance(M, OperatorMatrix) else np.asarray(M, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("operator norm needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    k = a.shape[0]
    if k == 0:
        return 0.0
    if k <= 1024:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    if np.array_equal(a, a.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))

    def run(x: np.ndarray) -> float:
        x = x / np.linalg.norm(x)
        sigma = 0.0
        for _ in range(_POWER_ITERATIONS):
            y = a @ x
            x_next = a.conj().T @ y
            nrm = np.linalg.norm(x_next)
            if nrm == 0.0:
                return 0.0
            x = x_next / nrm
            sigma_new = math.sqrt(nrm)
            if abs(sigma_new - sigma) <= _POWER_TOL * max(1.0, sigma_new):
                return sigma_new
            sigma = sigma_new
        raise DomainError(
            f"power iteration did not converge to relative tolerance {_POWER_TOL:g} "
            f"in {_POWER_ITERATIONS} iterations (last estimate {sigma!r})"
        )

    start1 = np.ones(k, dtype=complex)
    start2 = np.array([(-1.0) ** i for i in range(k)], dtype=complex)
    return max(run(start1), run(start2))


def semicommutator(
    c1: SymbolLike,
    c2: SymbolLike,
    space: WeightedSpace,
    D: int,
    spec: QuadratureSpec,
) -> OperatorMatrix:
    """Matrix of T_{c1} T_{c2} - T_{c1 c2} on the truncation.

    The product of compressions differs from the compressed product by
    terms supported above the cutoff; for diagonal (radial) factors the
    difference vanishes, the result is exact, and it is a diagonal form.
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
    out = t1 @ t2 - t12
    out.label = f"semi({t1.label}, {t2.label})"
    return out


# ---------------------------------------------------------------------------
# Export


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
    cells = ((i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(M.entries))
    lines = csv_lines("row_index,col_index,re,im", cells)
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
