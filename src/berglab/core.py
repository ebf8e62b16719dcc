"""Dimensions, weights, multi-index combinatorics and basis normalization.

Everything downstream (quadrature, matrix assembly, level decomposition)
is phrased in terms of the types defined here.  The conventions:

* balls are complex unit balls of complex dimension ``d``;
* the reference measure at weight ``lam > -1`` is the normalized weighted
  volume ``dv_lam = c_lam (1 - |z|^2)^lam dv`` with total mass 1;
* the monomials ``z^alpha`` scaled by :func:`basis_norm_constant` form an
  orthonormal basis of the corresponding weighted space;
* bases are truncated by total degree and ordered graded-lexicographically.

All Gamma-function ratios are taken in log space so that degrees of a few
hundred do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import DomainError

MultiIndex = Tuple[int, ...]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


# integer arguments up to this take the product form of beta_fn
_BETA_PRODUCT_MAX = 1024


def beta_fn(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0.

    With an integer argument n the running product
    B(z, n) = (1/z) prod_(k<n) k/(z + k) keeps a few ulp per factor,
    where the log-gamma difference loses the size of the logs.
    """
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta_fn requires positive arguments, got ({x}, {y})")
    ints = [v for v in (x, y) if float(v).is_integer() and v <= _BETA_PRODUCT_MAX]
    if not ints:
        return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))
    n = int(min(ints))
    z = x + y - n
    out = 1.0 / z
    for k in range(1, n):
        out *= k / (z + k)
    return out


def format_float(x: float) -> str:
    """Shortest text that reads back as the same float: the one number
    format of every table, CSV and report line."""
    return repr(float(x))


def format_cell(v: object) -> str:
    """Text of one table cell or config value: floats (numpy floats too)
    by :func:`format_float`, bools as 0/1, tuples space-joined, anything
    else by ``str``."""
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, tuple):
        return " ".join(format_cell(x) for x in v)
    return str(v)


def csv_lines(header: str, rows: Iterable[Sequence[object]]) -> List[str]:
    """The header plus one comma-joined line of cells per row."""
    return [header] + [",".join(map(format_cell, row)) for row in rows]


def _check_weight(lam: float) -> None:
    if not -1.0 < lam < math.inf:
        raise DomainError(f"weight must be finite and exceed -1, got {lam}")


@dataclass(frozen=True)
class BallGeometry:
    """Coordinate split of the ball in C^n.

    The first ``ell`` coordinates form z', the remaining ``n - ell`` form
    z''.  The partition ``k`` groups the z' coordinates into ``m = len(k)``
    consecutive blocks of sizes k_1, ..., k_m.
    """

    n: int
    ell: int
    k: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"total dimension must be positive, got {self.n}")
        # ell == n leaves no z'' block; that degenerate split carries the
        # partition when the z'-factor is treated as a space of its own.
        if not 1 <= self.ell <= self.n:
            raise DomainError(
                f"split point must lie in 1..{self.n}, got {self.ell}"
            )
        kk = tuple(int(v) for v in self.k)
        object.__setattr__(self, "k", kk)
        if not kk or any(v < 1 for v in kk):
            raise DomainError(f"partition entries must be positive, got {kk}")
        if sum(kk) != self.ell:
            raise DomainError(
                f"partition {kk} must sum to the split point {self.ell}"
            )

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def d_inner(self) -> int:
        """Complex dimension of the z'' ball."""
        return self.n - self.ell

    def level_space(self, lam: float, rho: Sequence[int]) -> "WeightedSpace":
        """The inner ball of level rho at its weight mu_rho = lam + |rho| + ell,
        the one place that weight is computed.  A negative level entry is
        refused."""
        rho_t = tuple(int(v) for v in rho)
        if any(v < 0 for v in rho_t):
            raise DomainError(f"level entries must be nonnegative, got {rho_t}")
        return WeightedSpace(self.d_inner, float(lam + sum(rho_t) + self.ell))

    def prime_space(self, lam: float) -> "WeightedSpace":
        """The z'-ball at weight lam, split by this partition alone."""
        return WeightedSpace(self.ell, lam, geometry=BallGeometry(self.ell, self.ell, self.k))

    def group_of(self, axis: int) -> int:
        """Group index (0-based) of a z' axis (0-based)."""
        if not 0 <= axis < self.ell:
            raise DomainError(f"axis {axis} is not a z' coordinate")
        upto = 0
        for j, kj in enumerate(self.k):
            upto += kj
            if axis < upto:
                return j
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class WeightedSpace:
    """A weighted Bergman-type space on the ball of complex dimension d.

    A geometry, when given, splits this same ball: its ``n`` must be d.
    """

    d: int
    lam: float
    geometry: BallGeometry | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"dimension must be positive, got {self.d}")
        _check_weight(self.lam)
        if self.geometry is not None and self.geometry.n != self.d:
            raise DomainError(
                f"space dimension d = {self.d} differs from the geometry's "
                f"n = {self.geometry.n}"
            )

    @property
    def log_volume_const(self) -> float:
        """log of c_lam = Gamma(d + lam + 1) / (pi^d Gamma(lam + 1))."""
        return (
            log_gamma(self.d + self.lam + 1.0)
            - self.d * math.log(math.pi)
            - log_gamma(self.lam + 1.0)
        )


def dim_level(rho: Sequence[int], k: Sequence[int]) -> int:
    """Number of z'-monomials with group degrees rho.

    Equals the product over groups of C(rho_j + k_j - 1, k_j - 1), the
    count of degree-rho_j monomials in k_j variables.
    """
    if len(rho) != len(k):
        raise DomainError("level and partition lengths differ")
    out = 1
    for rj, kj in zip(rho, k):
        out *= math.comb(int(rj) + int(kj) - 1, int(kj) - 1)
    return out


def basis_norm_constant(alpha: Sequence[int], d: int, lam: float) -> float:
    """Normalization making z^alpha a unit vector at weight lam.

    sqrt(Gamma(d + |alpha| + lam + 1) / (alpha! Gamma(d + lam + 1))),
    evaluated via log-gamma differences.  A norm past the float range is
    refused with a ``DomainError``.
    """
    _check_weight(lam)
    total = int(sum(alpha))
    log_val = log_gamma(d + total + lam + 1.0) - log_gamma(d + lam + 1.0)
    for a in alpha:
        log_val -= log_gamma(float(a) + 1.0)
    try:
        return math.exp(0.5 * log_val)
    except OverflowError:
        raise DomainError(
            f"the basis norm of z^{tuple(alpha)} (degree {total}) at weight "
            f"{lam} overflows a float; lower the cutoff or the weight"
        ) from None


def monomial_moment(alpha: Sequence[int], d: int, lam: float) -> float:
    """Closed form of the squared monomial norm <z^a, z^a> at weight lam."""
    _check_weight(lam)
    total = int(sum(alpha))
    log_val = log_gamma(d + lam + 1.0) - log_gamma(d + total + lam + 1.0)
    for a in alpha:
        log_val += log_gamma(float(a) + 1.0)
    return math.exp(log_val)


def compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given total degree, lexicographically
    descending, e.g. (2,0), (1,1), (0,2); with no parts, only () of degree 0."""
    if parts < 1:
        yield from [()] if parts == 0 and total == 0 else []
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class TruncatedBasis:
    """Monomial basis of total degree <= D, graded-lexicographic order.

    The order lists degrees 0, 1, ..., D and sorts each degree block
    lexicographically descending, so (1,0) precedes (0,1).  ``norms``
    holds the per-entry normalization constants at the space weight.
    """

    d: int
    D: int
    lam: float
    indices: Tuple[MultiIndex, ...]
    norms: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    position: Dict[MultiIndex, int] = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.indices)

    def index_of(self, alpha: Sequence[int]) -> int:
        key = tuple(int(v) for v in alpha)
        try:
            return self.position[key]
        except KeyError:
            raise DomainError(f"multi-index {key} is not in the basis") from None

    def exponent_array(self) -> np.ndarray:
        """Basis exponents as an integer array of shape (count, d)."""
        return np.array(self.indices, dtype=np.int64).reshape(self.count, self.d)

    def group_degrees(self, k: Sequence[int]) -> np.ndarray:
        """Group degrees of every basis index's leading sum(k) exponents,
        shape (count, len(k)): the one level labelling of the basis."""
        exps = self.exponent_array()
        out = np.empty((self.count, len(k)), dtype=np.int64)
        pos = 0
        for j, kj in enumerate(k):
            out[:, j] = exps[:, pos : pos + kj].sum(axis=1)
            pos += kj
        return out


# Assembly asks for the same few bases again and again; callers share one
# object per (d, D, lam) and its arrays are read-only.
@lru_cache(maxsize=32, typed=True)
def enumerate_basis(d: int, D: int, lam: float) -> TruncatedBasis:
    """Build the truncated basis on the d-ball at weight lam, cutoff D."""
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if D < 0:
        raise DomainError(f"degree cutoff must be nonnegative, got {D}")
    _check_weight(lam)
    indices = []
    for deg in range(D + 1):
        indices.extend(compositions(deg, d))
    indices_t = tuple(indices)
    norms = np.array([basis_norm_constant(a, d, lam) for a in indices_t])
    degrees = np.array([sum(a) for a in indices_t], dtype=np.int64)
    norms.setflags(write=False)
    degrees.setflags(write=False)
    position = {a: i for i, a in enumerate(indices_t)}
    assert len(indices_t) == math.comb(D + d, d)
    return TruncatedBasis(
        d=d, D=D, lam=lam, indices=indices_t, norms=norms,
        degrees=degrees, position=position,
    )


def count_basis(d: int, D: int) -> int:
    """Size of the degree-<=D basis in d variables: C(D + d, d).  A
    negative cutoff is refused."""
    if D < 0:
        raise DomainError(f"degree cutoff must be nonnegative, got {D}")
    return math.comb(D + d, d)


def level_layout(
    basis: TruncatedBasis, geometry: BallGeometry
) -> Dict[MultiIndex, np.ndarray]:
    """Basis positions of every level rho, in graded order, each as an
    (hdim, K_inner) array: one z'-exponent per row, descending (z'_1
    first), and along a row the order of the inner basis at cutoff
    D - |rho|.  Flattened, the inner index varies fastest, so a level
    block of a factorizable operator is literally a Kronecker product."""
    if geometry.n != basis.d:
        raise DomainError(
            f"geometry dimension {geometry.n} does not match the basis "
            f"dimension {basis.d}"
        )
    primes = basis.exponent_array()[:, : geometry.ell]
    degrees = basis.group_degrees(geometry.k)
    # lexsort is stable and takes its last key as the primary one: the
    # level total, then the level and the z'-exponent, both descending
    order = np.lexsort([*-primes[:, ::-1].T, *-degrees[:, ::-1].T, degrees.sum(axis=1)])
    cuts = np.flatnonzero(np.any(np.diff(degrees[order], axis=0) != 0, axis=1)) + 1
    out: Dict[MultiIndex, np.ndarray] = {}
    for rows in np.split(order, cuts):
        rho = tuple(int(v) for v in degrees[rows[0]])
        out[rho] = rows.reshape(-1, count_basis(geometry.d_inner, basis.D - sum(rho)))
    return out


def levels_up_to(R: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """All group-degree tuples of length m with total <= R, graded order."""
    out = []
    for total in range(R + 1):
        out.extend(compositions(total, m))
    return tuple(out)
