"""Berezin transforms, boundary probes, and spectral sampling.

The operator-side transform is a quadratic form against the coefficient
vector of the normalized reproducing kernel in the truncated basis; the
symbol-side transform of a radial symbol is a kernel-mass sum over its
diagonal, and of any other symbol integrates its Mobius pullback.  That
integral is <T_{g o phi_z} 1, 1>, the degree-0 entry of the pullback's
Toeplitz matrix, so it is assembled, streamed, as any matrix is; no flat
node array is built.  The symbol side takes one point or an (N, d) point
set; over a set a radial symbol's route and eigenvalue sequence are
found once, and every value keeps the bits of a one-point call.  Both
sides carry explicit truncation bookkeeping: ``kernel_tail`` is the
kernel mass the operator side neglects (``kernel_tail_at_most`` compares
it with a cap from two bounds, over a point set), and the symbol side
upgrades its quadrature orders as the evaluation point approaches the
boundary (the pullback develops a near-pole there).

Spectral objects (essential spectrum, Fredholm verdicts) are finite
surrogates: boundary values are sampled along a radius schedule plus the
terminal sphere, and level behaviour is sampled up to a maximal total
degree.  The compactifications behind the exact statements are not
constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import BallGeometry, WeightedSpace, csv_lines, format_float
from .errors import DomainError
from .quadrature import (
    MONTE_CARLO,
    _BLOCK_VALUES,
    PointFunction,
    QuadratureSpec,
    SymbolLike,
    as_point_function,
)
from .symbols import (
    SymbolExpr,
    is_radial,
    is_symbolic,
    quasi_radial_profile,
    symbol_degree_hint,
)
from .toeplitz import (
    AssemblyPath,
    OperatorMatrix,
    _diagonal_order,
    _singular_values,
    assemble,
    assembly_path,
    diagonal_values,
    radial_table_order,
)


# ---------------------------------------------------------------------------
# Mobius machinery


def mobius(z: Sequence[complex], w: np.ndarray) -> np.ndarray:
    """The ball automorphism exchanging 0 and z, applied to points w.

    Accepts a single base point z and an array of points w with shape
    (..., d); returns an array of the same shape and memory layout,
    built one coordinate at a time, so axis-major points (a torus slab's)
    give axis-major images with no full-size (..., d) temporary.
    """
    z_arr = np.asarray(z, dtype=complex).reshape(-1)
    w_arr = np.asarray(w, dtype=complex)
    single = w_arr.ndim == 1
    if single:
        w_arr = w_arr[None, :]
    d = z_arr.shape[0]
    if w_arr.shape[-1] != d:
        raise DomainError("base point and arguments have different dimensions")
    t = float(np.sum(np.abs(z_arr) ** 2))
    if t >= 1.0:
        raise DomainError("Mobius base point must lie in the open ball")
    if t == 0.0:
        out = -w_arr
        return out[0] if single else out
    wz = w_arr @ np.conj(z_arr)  # <w, z>
    scale = wz / t
    den = 1.0 - wz
    s = math.sqrt(1.0 - t)
    out = np.empty_like(w_arr)
    for j in range(d):
        proj = scale * z_arr[j]  # coordinate j of P_z w
        out[..., j] = (z_arr[j] - proj - s * (w_arr[..., j] - proj)) / den
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Berezin transforms


def _interior(z) -> Tuple[np.ndarray, np.ndarray, bool]:
    """z as an (N, d) complex point set, the |z|^2 of each point, and
    whether z was one (d,) point; a point off the open ball is refused."""
    z_arr = np.asarray(z, dtype=complex)
    single = z_arr.ndim < 2
    points = z_arr.reshape(1, -1) if single else z_arr
    if points.ndim != 2:
        raise DomainError(f"an array of shape {z_arr.shape} is neither a point nor a point set")
    ts = np.sum(np.abs(points) ** 2, axis=1)
    if not np.all(ts < 1.0):  # NaN coordinates fail this too
        raise DomainError("Berezin evaluation needs an interior point")
    return points, ts, single


def kernel_coefficients(
    basis_norms: np.ndarray,
    exponents: np.ndarray,
    z: Sequence[complex],
    s_exp: float,
) -> np.ndarray:
    """Coefficients of the normalized kernel at z in the truncated basis."""
    z_arr = np.asarray(z, dtype=complex)
    d = exponents.shape[1]
    if z_arr.shape[-1:] != (d,) or z_arr.size != d:
        raise DomainError(f"a point of shape {z_arr.shape} is not a point of the {d}-ball")
    points, ts, _ = _interior(z_arr.reshape(-1))
    z_arr, t = points[0], float(ts[0])
    mono = np.ones(exponents.shape[0], dtype=complex)
    for ax in range(exponents.shape[1]):
        mono *= np.conj(z_arr[ax]) ** exponents[:, ax]
    return math.pow(1.0 - t, 0.5 * s_exp) * basis_norms * mono


@lru_cache(maxsize=32)
def _log_binomial_table(s_exp: float, length: int) -> np.ndarray:
    """log C(s + m - 1, m) for m < length, the t-independent part of the
    kernel masses, read-only.

    The running sum of the log-ratios log((s + j - 1)/j) = log1p((s - 1)/j)
    of the recurrence m_j / m_(j-1) = t (s + j - 1)/j.  The rounding error
    of each step (an exact TwoSum) is summed alongside, so the table keeps
    the accuracy of its terms, a few ulp of each, at any length; a prefix
    does not depend on the length.
    """
    terms = np.log1p((s_exp - 1.0) / np.arange(1.0, length))
    sums = np.cumsum(terms)
    prev = np.concatenate(([0.0], sums[:-1]))
    virt = sums - prev
    err = (prev - (sums - virt)) + (terms - virt)
    out = np.concatenate(([0.0], sums + np.cumsum(err)))
    out.setflags(write=False)
    return out


# longest log-binomial table kept for reuse (512 KB)
_SHARED_TABLE = 1 << 16


def _log_binomials(s_exp: float, n_terms: int) -> np.ndarray:
    """The first n_terms entries of a table shared up to _SHARED_TABLE
    entries, its length a power of two: the same weight meets many
    cutoffs and points."""
    length = max(1024, 1 << (n_terms - 1).bit_length())
    build = _log_binomial_table
    if length > _SHARED_TABLE:
        build = build.__wrapped__
    return build(float(s_exp), length)[:n_terms]


# e^x rounds to 0.0 below about -745.13: a log-mass under this bound is
# an exact zero without its exp
_LOG_UNDERFLOW = -745.5


def _mass_rows(
    s_exp: float, t_points: Sequence[float], start: int, stop: int
) -> Iterator[np.ndarray]:
    """The kernel masses of the degrees start..stop-1 at each radius^2 in
    ``t_points``, one row per point, in blocks of at most _BLOCK_VALUES
    entries (one row at least).  Each row is computed on its own, so the
    block size moves no bit.

    The log-mass is log C(s + m - 1, m) + (m log t + s log1p(-t)), from
    the shared log-binomial table; only its entries at or above
    _LOG_UNDERFLOW are exponentiated, the others are the exact zeros their
    exp gives.  It is concave in m, so a row with both ends live is live
    throughout and any other has its live entries in one run (a dead entry
    exponentiated inside it is 0.0 all the same).  At t = 0 the mass sits
    at degree 0, and NaN gives NaN rows.  A t below 0 or at or past 1 is
    refused before any table is built.
    """
    ts = np.asarray(t_points, dtype=float).reshape(-1).tolist()
    for t in ts:
        if t < 0.0 or t >= 1.0:
            raise DomainError(f"kernel masses need 0 <= |z|^2 < 1, got {t!r}")
    log_binomials = _log_binomials(s_exp, stop)[start:]
    ms = np.arange(start, stop, dtype=float)
    step = max(1, _BLOCK_VALUES // max(1, ms.shape[0]))
    for lo in range(0, len(ts), step):
        block = ts[lo : lo + step]
        rows = np.zeros((len(block), ms.shape[0]))
        for i, t in enumerate(block):
            row = rows[i]
            if t == 0.0:
                row[:1] = float(start == 0)
                continue
            arg = log_binomials + (ms * math.log(t) + s_exp * math.log1p(-t))
            first, end = 0, arg.shape[0]
            if not (end and min(arg[0], arg[-1]) >= _LOG_UNDERFLOW):
                # an end is dead: the run from the first live entry to the last
                live = np.flatnonzero(~(arg < _LOG_UNDERFLOW))  # NaN is live
                first, end = (live[0], live[-1] + 1) if live.shape[0] else (0, 0)
            np.exp(arg[first:end], out=row[first:end])
        yield rows


def kernel_masses(s_exp: float, n_terms: int, t: float) -> np.ndarray:
    """Degree-m masses of the normalized kernel at radius^2 0 <= t < 1,
    m < n_terms.

    The squared kernel coefficients of degree m sum to C(s + m - 1, m)
    t^m (1 - t)^s with s = d + mu + 1, a negative-binomial law in m; the
    binomial is taken in log space so degrees in the thousands stay finite.
    """
    return next(_mass_rows(s_exp, [t], 0, n_terms))[0]


def _log_choose(s_exp: float, n: float) -> float:
    """log C(s + n - 1, n) from log-gamma: rough by the size of the logs."""
    return math.lgamma(s_exp + n) - math.lgamma(n + 1.0) - math.lgamma(s_exp)


def _log_mass(s_exp: float, t: float, n: int) -> float:
    """log of the kernel mass of degree n from log-gamma, plenty for
    choosing how many masses to sum."""
    return _log_choose(s_exp, n) + n * math.log(t) + s_exp * math.log1p(-t)


def _far_end(s_exp: float, t: float, start: int, log_floor: float) -> int:
    """A degree n >= start past which the kernel masses at t sum below
    exp(log_floor), by doubling.

    Past the mode the ratios r_k = m_k / m_(k-1) fall toward t, so the
    masses beyond n sum to at most m_n r / (1 - r), r = r_(n+1).
    """
    n = max(start, 1)
    while True:
        r = t * max(1.0, (s_exp + n) / (n + 1.0))
        if r < 1.0 and _log_mass(s_exp, t, n) + math.log(r / (1.0 - r)) <= log_floor:
            return n
        n *= 2


def berezin_of_operator(M: OperatorMatrix, mu: float, z: Sequence[complex]) -> complex:
    """Diagonal kernel coefficient <M k_z, k_z> on the truncation.

    The neglected kernel mass, ``kernel_tail(d + mu + 1, D, |z|^2)``,
    bounds the truncation error relative to ||M||.
    """
    basis = M.basis
    if abs(basis.lam - mu) > 1e-12:
        raise DomainError(
            f"matrix lives at weight {basis.lam}, transform requested at {mu}"
        )
    s_exp = basis.d + mu + 1.0
    coef = kernel_coefficients(
        basis.norms, basis.exponent_array(), z, s_exp
    )
    # a diagonal form gives sum_i d_i |coef_i|^2 without a dense matrix
    image = M.diag * coef if M.diag is not None else M.entries @ coef
    return complex(np.vdot(coef, image))


# kernel mass left out of the radial expansion of berezin_of_symbol
_TAIL_TOL = 1e-13


def _kernel_tail(s_exp: float, D: int, t: float) -> float:
    """``kernel_tail`` at one point 0 < t < 1."""
    if D + 1.0 <= s_exp * t / (1.0 - t):
        # below the mean degree the tail is most of the mass: 1 - the head
        return 1.0 - float(np.sum(kernel_masses(s_exp, D + 1, t)))
    # 2^-64 of the first mass past D bounds what the far end leaves out
    far = _far_end(s_exp, t, D + 1, _log_mass(s_exp, t, D + 1) - 44.5)
    masses = next(_mass_rows(s_exp, [t], D + 1, far + 1))[0]
    return float(np.cumsum(masses[::-1])[-1])


def kernel_tail(s_exp: float, D: int, t) -> np.ndarray:
    """Kernel mass beyond degree D at radius^2 t, elementwise in t.

    P(m > D) of the negative-binomial law of ``kernel_masses``: past the
    mean degree the sum of the masses beyond D, from the far end where
    they fall below 2^-64 of the first; below it, one minus the masses up
    to D.  Past the mean the masses fall, so where the first one, at
    D + 1, is below the underflow bound (by a margin of 1 for the
    roughness of its log-gamma logarithm) the tail is exactly 0.0, found
    for all points at once.  It is 0 at t <= 0, 1 on or past the sphere
    and NaN at NaN.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.where(t_arr >= 1.0, 1.0, 0.0)
    out[np.isnan(t_arr)] = np.nan
    inside = (t_arr > 0.0) & (t_arr < 1.0)
    ts = t_arr[inside]
    past = D + 1.0 > s_exp * ts / (1.0 - ts)
    dead = np.zeros(ts.shape, dtype=bool)
    if np.any(past):
        n = D + 1.0
        first = _log_choose(s_exp, n) + n * np.log(ts[past]) + s_exp * np.log1p(-ts[past])
        dead[past] = first < _LOG_UNDERFLOW - 1.0
    tails = np.zeros(ts.shape)
    for i in np.flatnonzero(~dead):
        tails[i] = _kernel_tail(s_exp, D, float(ts[i]))
    out[inside] = tails
    return out[()]


# slack, in log, of the tail bounds below: log-gamma is rough by a few
# ulp of its size, under 1e-7 at the 2 * 10^7 degrees of the largest table
# the desk budget holds
_TAIL_SLACK = 1e-6


def kernel_tail_at_most(s_exp: float, D: int, t, cap: float) -> np.ndarray:
    """``kernel_tail(s_exp, D, t) <= cap``, elementwise in t, taking the
    tail only where two bounds on it leave the answer open.

    The tail lies between its first mass m, at D + 1, and m / (1 - r),
    with r the ratio bound of ``_far_end`` past D + 1 (while r < 1).  A
    point whose lower bound is above the cap, or whose upper bound is
    below it, by more than _TAIL_SLACK in log, is decided by the bound,
    all points at once; ``kernel_tail`` runs on the others.  A t at or
    below 0 passes, one on or past the sphere or NaN does not.
    """
    t_arr = np.asarray(t, dtype=float)
    out = t_arr <= 0.0
    inside = (t_arr > 0.0) & (t_arr < 1.0)
    ts = t_arr[inside]
    n = D + 1.0
    log_first = _log_choose(s_exp, n) + n * np.log(ts) + s_exp * np.log1p(-ts)
    r = ts * max(1.0, (s_exp + n) / (n + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # r >= 1 bounds nothing
        log_upper = log_first - np.log1p(-r)
    log_cap = math.log(cap)
    below = log_upper < log_cap - _TAIL_SLACK
    unsure = ~below & ~(log_first > log_cap + _TAIL_SLACK)
    if np.any(unsure):
        below[unsure] = kernel_tail(s_exp, D, ts[unsure]) <= cap
    out[inside] = below
    return out


def radial_berezin_sum(
    eigenvalues: np.ndarray, s_exp: float, t_points: np.ndarray
) -> np.ndarray:
    """Berezin transform of a radial operator at radial points t = |z|^2.

    A radial operator acts on the degree-m monomials as eigenvalues[m], so
    its transform is sum_m masses_m(t) eigenvalues[m] with the kernel
    masses at s = d + mu + 1, in every dimension d.  Degrees past the
    sequence are dropped; the values are complex when the eigenvalues are.
    The mass rows come in blocks of points, and each row is summed on its
    own, over every degree.
    """
    lam = np.asarray(eigenvalues)
    t_points = np.asarray(t_points, dtype=float)
    flat = t_points.reshape(-1)
    out = np.empty(flat.shape, dtype=np.result_type(lam, float))
    i = 0
    for rows in _mass_rows(s_exp, flat, 0, lam.shape[0]):
        for row in rows:
            out[i] = lam[0] if flat[i] == 0.0 else np.dot(row, lam)
            i += 1
    return out.reshape(t_points.shape)


@lru_cache(maxsize=1024)
def radial_expansion_degree(d: int, nu: float, t: float) -> int:
    """Cutoff degree of the radial Berezin expansion at |z|^2 = t < 1.

    The expansion carries all but 1e-13 of the kernel mass at t.  A point
    so close to the sphere that the eigenvalue table of the expansion
    (degrees x radial nodes) would pass the desk budget is refused with a
    ``DomainError`` before anything is built.  Degrees are kept for reuse:
    a plan (``berezin_plan``) and the transforms that follow it ask for
    the same points.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"radial expansion needs 0 <= |z|^2 < 1, got {t!r}")
    if t == 0.0:
        return 1
    s_exp = d + nu + 1.0

    def require(terms: int) -> None:
        # the rule a profile callable takes, where no exact sum holds
        radial_table_order(None, terms, f"the radial Berezin expansion at |z|^2 = {t!r}",
                           "take a point farther from the sphere")

    # the cutoff lies past the mean degree s t / (1 - t): a mean past the
    # budget is refused before any mass is summed (the clip keeps int() finite)
    mean = int(min(s_exp * t / (1.0 - t), 1e12))
    require(mean + 16)
    far = _far_end(s_exp, t, mean + 1, math.log(_TAIL_TOL) - 44.5)
    masses = next(_mass_rows(s_exp, [t], mean, far + 1))[0]
    # entry k: the mass past degree mean + k, summed from the far end
    tails = np.concatenate((np.cumsum(masses[:0:-1])[::-1], [0.0]))
    terms = mean + int(np.argmax(tails <= _TAIL_TOL)) + 16
    require(terms)
    return terms


# exact radial eigenvalue sequences kept for reuse, by (symbol, d, nu)
_EXACT_SEQUENCES: Dict[Tuple[SymbolExpr, int, float], np.ndarray] = {}
_MAX_SEQUENCES = 64


def _exact_sequence(g: SymbolExpr, d: int, nu: float, N: int) -> Optional[np.ndarray]:
    """The exact radial eigenvalues of degrees 0..N of a polynomial symbol,
    None for any other.

    One sequence is kept per (symbol, d, nu) and extended only when a
    point needs a longer one, to at least twice its length, so points
    taken in order of growing |z| extend it a few times, not once each.
    Each degree's value is summed on its own, so an extended sequence has
    the bits of one summed whole.
    """
    if _diagonal_order(g, 1, N) is not None:
        return None
    key = (g, d, float(nu))
    have = _EXACT_SEQUENCES.get(key)
    start = 0 if have is None else have.shape[0]
    if start <= N:
        more = diagonal_values(g, (d,), nu, np.arange(start, max(N + 1, 2 * start)))
        have = more if have is None else np.concatenate((have, more))
        if key not in _EXACT_SEQUENCES and len(_EXACT_SEQUENCES) >= _MAX_SEQUENCES:
            del _EXACT_SEQUENCES[next(iter(_EXACT_SEQUENCES))]
        _EXACT_SEQUENCES[key] = have
    return have[: N + 1]


def berezin_plan(
    g: SymbolLike,
    mu: float,
    z,
    spec: QuadratureSpec,
    *,
    geometry: Optional[BallGeometry] = None,
) -> Union[int, AssemblyPath, List[Union[int, AssemblyPath]]]:
    """The route ``berezin_of_symbol`` takes at z, refused where it would be;
    at an (N, d) point set, the list of its points' routes.

    A radial symbol (``is_radial``) expands over its diagonal: the plan is
    its ``radial_expansion_degree``, which refuses a point whose
    eigenvalue table would pass the desk budget.  Any other symbol
    integrates its Mobius pullback: the plan is the ``assembly_path`` of
    the pullback at z, at cutoff 0, which ``berezin_of_symbol`` assembles
    as it is; a refusal names |z|^2 of the point.  The pullback has a
    near-pole at distance ~ (1 - |z|) outside the closed ball, so the
    rule's orders rise as z approaches the boundary, up to 128 radial
    nodes and 128 phases per axis (4096 on the disk); a sampling spec is
    taken as it is.  A point off the open ball and a geometry of another
    dimension are refused.  The route is chosen once for all the points.
    Nothing is summed or assembled.
    """
    points, ts, single = _interior(z)
    d = points.shape[1]
    space = WeightedSpace(d, mu, geometry=geometry)  # refuses a geometry of another n
    if is_symbolic(g) and is_radial(g, geometry):
        plans = [radial_expansion_degree(d, mu, t) for t in ts.tolist()]
        return plans[0] if single else plans
    fn = as_point_function(g, geometry)
    resolved = spec.resolved(8, symbol_degree_hint(g) if is_symbolic(g) else 8)
    ang_cap = 4096 if d == 1 else 128
    plans = []
    for z_i, t in zip(points, ts.tolist()):
        point_spec = spec
        if spec.scheme != MONTE_CARLO:
            closeness = max(1.0 - math.sqrt(t), 1e-3)
            q_eff = max(resolved.q, min(128, int(14.0 / math.sqrt(closeness)) + 8))
            ang_eff = max(resolved.angular, min(ang_cap, int(30.0 / closeness) + 8))
            point_spec = replace(spec, q=q_eff, angular=ang_eff)
        try:
            plans.append(assembly_path(_pullback(fn, z_i), space, 0, point_spec))
        except DomainError as exc:
            raise DomainError(f"{exc} (the Mobius pullback at |z|^2 = {t!r})") from None
    return plans[0] if single else plans


def _pullback(fn: PointFunction, z: np.ndarray) -> PointFunction:
    """g o phi_z for the point function of g."""

    def pulled(w: np.ndarray) -> np.ndarray:
        x = mobius(z, w)
        # roundoff can push |x| onto the boundary; nudge inward
        nrm2 = np.sum(np.abs(x) ** 2, axis=-1)
        over = nrm2 >= 1.0
        if np.any(over):
            x = np.where(over[..., None], x * (1.0 - 1e-13), x)
        return np.asarray(fn(x))

    return pulled


def berezin_of_symbol(
    g: SymbolLike,
    mu: float,
    z,
    spec: QuadratureSpec,
    *,
    geometry: Optional[BallGeometry] = None,
) -> Union[complex, np.ndarray]:
    """Integral of g against the Mobius-pulled-back weight at z, along the
    route ``berezin_plan`` gives: a complex at one (d,) point, a complex
    array of N values at an (N, d) point set.

    A radial symbol takes a diagonal expansion, which stays accurate
    arbitrarily close to the boundary (a polynomial one over its exact
    diagonal).  Over a point set, one eigenvalue sequence up to the
    largest planned degree serves every point, and each point sums the
    prefix up to its own degree, so it keeps the bits of a one-point call.
    Any other symbol gives <T_{g o phi_z} 1, 1>_mu, the degree-0 entry of
    the pullback's Toeplitz matrix, assembled along its plan point by
    point.  The geometry, when given, declares the partition that group
    radii such as ``r1`` read.
    """
    plans = berezin_plan(g, mu, z, spec, geometry=geometry)
    points, ts, single = _interior(z)
    plans = [plans] if single else plans
    d = points.shape[1]
    out = np.empty(len(plans), dtype=complex)
    if plans and isinstance(plans[0], int):
        # expand each point to its planned degree over the diagonal: exact
        # for a polynomial, and shared across points; else from the rule its
        # profile callable takes, of an order set by the top degree, so one
        # rule per distinct degree
        degrees = np.array(plans)
        lam = _exact_sequence(g, d, mu, max(plans))
        for top in sorted(set(plans)):
            rows = degrees == top
            seq = lam[: top + 1] if lam is not None else diagonal_values(
                quasi_radial_profile(g, 1), (d,), mu, np.arange(top + 1))
            out[rows] = radial_berezin_sum(seq, d + mu + 1.0, ts[rows])
    else:
        out[:] = [assemble(plan).entries[0, 0] for plan in plans]
    return complex(out[0]) if single else out


# ---------------------------------------------------------------------------
# Probes


@dataclass(frozen=True)
class DecayTable:
    """Rows of (parameter, sup error) with the grid that produced them."""

    rows: Tuple[Tuple[float, float], ...]

    def csv_lines(self, header: str = "mu,sup_error") -> List[str]:
        return csv_lines(header, self.rows)


def berezin_errors(
    c: SymbolLike,
    mu: float,
    points: np.ndarray,
    spec: QuadratureSpec,
    *,
    geometry: Optional[BallGeometry] = None,
) -> List[float]:
    """|c(z) - B_mu[c](z)| at each point of an (N, d) set, from one
    :func:`berezin_of_symbol` call.  Each modulus is Python's ``abs``:
    numpy's complex modulus can differ from it in the last bit."""
    points = np.asarray(points, dtype=complex)
    c_vals = np.asarray(as_point_function(c, geometry)(points))
    b = berezin_of_symbol(c, float(mu), points, spec, geometry=geometry)
    return [abs(v) for v in (b - c_vals).tolist()]


def quantization_probe(
    c: SymbolLike,
    mu_list: Sequence[float],
    grid: np.ndarray,
    spec: Optional[QuadratureSpec] = None,
    *,
    geometry: Optional[BallGeometry] = None,
) -> DecayTable:
    """sup-grid |B_mu[c] - c| for each mu; the decay surrogate.

    The grid is an array of interior points, shape (N, d), with N >= 1,
    transformed whole at each mu (:func:`berezin_errors`).  The geometry
    is passed on to :func:`berezin_of_symbol`.
    """
    spec = spec or QuadratureSpec()
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.shape[0] == 0:
        raise DomainError("the probe grid needs at least one point")
    rows = [(float(mu), max([0.0] + berezin_errors(c, mu, grid, spec, geometry=geometry)))
            for mu in mu_list]
    return DecayTable(rows=tuple(rows))


# the probe's ray: e_1 of the disk
_PROBE_DIRECTION = np.array([1.0 + 0.0j])


def boundary_vanishing_probe(
    f: SymbolLike,
    mu: float,
    radii: Sequence[float],
    spec: Optional[QuadratureSpec] = None,
) -> DecayTable:
    """|f(z) - B_mu[f](z)| at z = r e_1 on the disk, r approaching 1, all
    radii transformed at once (:func:`berezin_errors`)."""
    spec = spec or QuadratureSpec()
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise DomainError(f"probe radius must lie in [0, 1), got {r}")
    points = np.asarray(radii, dtype=float)[:, None] * _PROBE_DIRECTION
    errors = berezin_errors(f, mu, points, spec)
    return DecayTable(rows=tuple((float(r), err) for r, err in zip(radii, errors)))


# ---------------------------------------------------------------------------
# Matrix symbols and spectra


MatrixEntry = Union[SymbolExpr, PointFunction]


@dataclass(frozen=True)
class MatrixSymbol:
    """A p x p array of symbols on the inner ball."""

    entries: Tuple[Tuple[MatrixEntry, ...], ...]

    def __post_init__(self) -> None:
        p = len(self.entries)
        if p == 0 or any(len(row) != p for row in self.entries):
            raise DomainError("matrix symbol must be square and nonempty")

    @property
    def p(self) -> int:
        return len(self.entries)

    @staticmethod
    def scalar(entry: MatrixEntry) -> "MatrixSymbol":
        return MatrixSymbol(entries=((entry,),))

    @staticmethod
    def diagonal(entries: Sequence[MatrixEntry]) -> "MatrixSymbol":
        p = len(entries)
        zero = lambda z: np.zeros(np.asarray(z).shape[0], dtype=complex)  # noqa: E731
        rows = []
        for i in range(p):
            rows.append(
                tuple(entries[i] if i == j else zero for j in range(p))
            )
        return MatrixSymbol(entries=tuple(rows))

    def eval_on_points(self, z: np.ndarray) -> np.ndarray:
        """Values of shape (N, p, p)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            z = z[None, :]
        n = z.shape[0]
        out = np.empty((n, self.p, self.p), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                out[:, i, j] = as_point_function(entry)(z)
        return out

    def det_on_points(self, z: np.ndarray) -> np.ndarray:
        vals = self.eval_on_points(z)
        if self.p == 1:
            return vals[:, 0, 0]
        return np.linalg.det(vals)


def _sphere_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Axis directions, pairwise mixes, then seeded random fill, (N, d)."""
    out = []
    eye = np.eye(d, dtype=complex)
    for i in range(d):
        out.append(eye[i])
    for i in range(d):
        for j in range(i + 1, d):
            out.append((eye[i] + eye[j]) / math.sqrt(2.0))
            out.append((eye[i] + 1j * eye[j]) / math.sqrt(2.0))
    rng = np.random.Generator(np.random.PCG64(seed))
    while len(out) < count:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append(v / np.linalg.norm(v))
    return np.asarray(out[:count])


def default_radius_schedule(j_max: int = 8, include_terminal: bool = True) -> Tuple[float, ...]:
    """Radii 1 - 2^-j approaching the sphere, optionally ending on it."""
    radii = [1.0 - 0.5**j for j in range(1, j_max + 1)]
    if include_terminal:
        radii.append(1.0)
    return tuple(radii)


@dataclass(frozen=True)
class SpectrumSample:
    """Finite surrogate of the essential spectrum of a Toeplitz family.

    ``rows`` hold (rho_total, radius, det value); rho_total is -1 for rows
    that sample only the boundary behaviour (no quasi-radial weighting).
    """

    rows: Tuple[Tuple[int, float, complex], ...]
    min_abs_det: float
    threshold: float
    fredholm: bool
    argmin_point: Tuple[int, Tuple[complex, ...]] = field(repr=False, default=(-1, ()))

    def csv_lines(self) -> List[str]:
        return csv_lines(
            "rho_total,radius,re_det,im_det,abs_det",
            ((rho, r, v.real, v.imag, abs(v)) for rho, r, v in self.rows),
        )


# sphere directions per radius, and the Fredholm threshold relative to
# the largest sampled |det|
_SPECTRUM_DIRECTIONS = 48
_FREDHOLM_THRESHOLD_REL = 1e-6


def essential_spectrum_sample(
    c: Union[MatrixSymbol, MatrixEntry],
    d_inner: int,
    *,
    gamma: Optional[Dict[Tuple[int, ...], complex]] = None,
    seed: int = QuadratureSpec.seed,
) -> SpectrumSample:
    """Sample det c on the spheres of ``default_radius_schedule``, the
    boundary sphere last (and over levels).

    Fredholmness of the operator family is judged by whether |det c| stays
    above _FREDHOLM_THRESHOLD_REL times its largest sampled value; with a
    gamma sequence (``gamma_sequence``) the sampled quantity is
    det(gamma(rho) c) over its levels rho as well.
    """
    if not isinstance(c, MatrixSymbol):
        c = MatrixSymbol.scalar(c)
    dirs = _sphere_directions(d_inner, _SPECTRUM_DIRECTIONS, seed)
    rows: List[Tuple[int, float, complex]] = []
    min_abs = math.inf
    max_abs = 0.0
    argmin: Tuple[int, Tuple[complex, ...]] = (-1, ())

    level_scales: List[Tuple[int, float]] = [(-1, 1.0)]
    if gamma is not None:
        level_scales = [(sum(rho), g ** c.p) for rho, g in gamma.items()]

    for r in default_radius_schedule():
        pts = r * dirs
        dets = c.det_on_points(pts)
        for rho_total, scale in level_scales:
            for i in range(pts.shape[0]):
                v = complex(scale * dets[i])
                rows.append((rho_total, float(r), v))
                a = abs(v)
                max_abs = max(max_abs, a)
                if a < min_abs:
                    min_abs = a
                    argmin = (rho_total, tuple(pts[i]))
    threshold = _FREDHOLM_THRESHOLD_REL * max_abs
    return SpectrumSample(
        rows=tuple(rows),
        min_abs_det=float(min_abs),
        threshold=float(threshold),
        fredholm=bool(min_abs > threshold),
        argmin_point=argmin,
    )


@dataclass(frozen=True)
class MinSingularTable:
    """sigma_min against truncation size, with a flat/decaying verdict."""

    rows: Tuple[Tuple[int, float], ...]
    verdict: str

    def csv_lines(self) -> List[str]:
        return csv_lines("size,sigma_min", self.rows)


def min_singular_probe(matrices: Sequence[OperatorMatrix]) -> MinSingularTable:
    """Smallest singular value per truncation; classifies the trend.

    A sequence collapsing toward 0 is evidence against invertibility
    modulo compacts; a flat positive floor corroborates a Fredholm verdict.
    A matrix that is not 2-D, has no singular values (no rows or no
    columns) or has a non-finite entry is refused.
    """
    if not matrices:
        raise DomainError("need at least one matrix")
    rows = []
    for m in matrices:
        a = m.entries if isinstance(m, OperatorMatrix) else np.asarray(m)
        sv = _singular_values(a)
        if sv.size == 0:
            raise DomainError(f"a {a.shape[0]} x {a.shape[1]} matrix has no singular values")
        rows.append((a.shape[0], float(sv[-1])))
    first, last = rows[0][1], rows[-1][1]
    verdict = "decaying" if last <= 0.6 * first else "flat"
    return MinSingularTable(rows=tuple(rows), verdict=verdict)


@dataclass(frozen=True)
class FredholmReport:
    """Index report with the spectrum sample that backs it."""

    index: int
    sample: SpectrumSample

    def text_lines(self) -> List[str]:
        return [
            f"index = {self.index}",
            f"min |det c| over samples = {format_float(self.sample.min_abs_det)}"
            f" (threshold {format_float(self.sample.threshold)})",
        ]


def fredholm_index_report(
    c: Union[MatrixSymbol, MatrixEntry],
    sample: SpectrumSample,
) -> FredholmReport:
    """Index 0, refusing non-Fredholm input.

    The index value follows from the family being homotopic to a constant
    invertible symbol within the sampled class; the sample corroborates
    the Fredholm verdict rather than re-deriving the index.
    """
    if not sample.fredholm:
        rho_total, point = sample.argmin_point
        where = (
            f"level total {rho_total}, point {point}"
            if rho_total >= 0
            else f"boundary point {point}"
        )
        raise DomainError(
            "symbol is not Fredholm over the sampled sets: "
            f"|det c| = {sample.min_abs_det:.3e} at {where}"
        )
    return FredholmReport(index=0, sample=sample)
