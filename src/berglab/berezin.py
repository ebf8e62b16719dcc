"""Berezin transforms, boundary probes, and spectral sampling.

The operator-side transform is a quadratic form against the coefficient
vector of the normalized reproducing kernel in the truncated basis; the
symbol-side transform integrates the Mobius pullback of the symbol.  That
integral is <T_{g o phi_z} 1, 1>, the degree-0 entry of the pullback's
Toeplitz matrix, so it is assembled, streamed, as any matrix is; no flat
node array is built.  Both sides carry explicit truncation bookkeeping:
``kernel_tail`` is the kernel mass the operator side neglects, and the
symbol side upgrades its quadrature orders as the evaluation point
approaches the boundary (the pullback develops a near-pole there).

Spectral objects (essential spectrum, Fredholm verdicts) are finite
surrogates: boundary values are sampled along a radius schedule plus the
terminal sphere, and level behaviour is sampled up to a maximal total
degree.  The compactifications behind the exact statements are not
constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as sp_special

from .core import WeightedSpace, format_float
from .errors import DomainError
from .quadrature import (
    MONTE_CARLO,
    PointFunction,
    QuadratureSpec,
    SymbolLike,
    as_point_function,
)
from .symbols import (
    ProductSymbol,
    SymbolExpr,
    eval_on_points,
    is_symbolic,
    radial_profile,
    symbol_degree_hint,
    symbol_to_text,
)
from .toeplitz import (
    GammaSequence,
    OperatorMatrix,
    _radial_order,
    _require_budget,
    radial_toeplitz_diagonal,
    toeplitz_matrix,
)


# ---------------------------------------------------------------------------
# Mobius machinery


def mobius(z: Sequence[complex], w: np.ndarray) -> np.ndarray:
    """The ball automorphism exchanging 0 and z, applied to points w.

    Accepts a single base point z and an array of points w with shape
    (..., d); returns an array of the same shape.
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
    proj = (wz / t)[..., None] * z_arr  # P_z w
    rest = w_arr - proj
    s = math.sqrt(1.0 - t)
    out = (z_arr - proj - s * rest) / (1.0 - wz)[..., None]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Berezin transforms


def kernel_coefficients(
    basis_norms: np.ndarray,
    exponents: np.ndarray,
    z: Sequence[complex],
    s_exp: float,
) -> np.ndarray:
    """Coefficients of the normalized kernel at z in the truncated basis."""
    z_arr = np.asarray(z, dtype=complex).reshape(-1)
    t = float(np.sum(np.abs(z_arr) ** 2))
    if not t < 1.0:  # NaN coordinates fail this too
        raise DomainError("Berezin evaluation needs an interior point")
    mono = np.ones(exponents.shape[0], dtype=complex)
    for ax in range(exponents.shape[1]):
        mono *= np.conj(z_arr[ax]) ** exponents[:, ax]
    return math.pow(1.0 - t, 0.5 * s_exp) * basis_norms * mono


def kernel_masses(s_exp: float, n_terms: int, t: float) -> np.ndarray:
    """Degree-m masses of the normalized kernel at radius^2 t > 0, m < n_terms.

    The squared kernel coefficients of degree m sum to C(s + m - 1, m)
    t^m (1 - t)^s with s = d + mu + 1, a negative-binomial law in m; the
    binomial is taken in log space so degrees in the thousands stay finite.
    """
    ms = np.arange(n_terms, dtype=float)
    log_p = (
        sp_special.gammaln(s_exp + ms)
        - sp_special.gammaln(ms + 1.0)
        - sp_special.gammaln(s_exp)
        + ms * math.log(t)
        + s_exp * math.log1p(-t)
    )
    return np.exp(log_p)


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


def kernel_tail(s_exp: float, D: int, t) -> np.ndarray:
    """Kernel mass beyond degree D at radius^2 t, elementwise in t.

    The closed form of the negative-binomial tail of ``kernel_masses``:
    P(m > D) = I_t(D + 1, s), the regularized incomplete beta function.
    """
    return sp_special.betainc(D + 1.0, s_exp, t)


def radial_berezin_sum(
    eigenvalues: np.ndarray, s_exp: float, t_points: np.ndarray
) -> np.ndarray:
    """Berezin transform of a radial operator at radial points t = |z|^2.

    A radial operator acts on the degree-m monomials as eigenvalues[m], so
    its transform is sum_m masses_m(t) eigenvalues[m] with the kernel
    masses at s = d + mu + 1, in every dimension d.  Degrees past the
    sequence are dropped; the values are complex when the eigenvalues are.
    """
    lam = np.asarray(eigenvalues)
    t_points = np.asarray(t_points, dtype=float)
    out = np.empty(t_points.shape, dtype=np.result_type(lam, float))
    for i, t in np.ndenumerate(t_points):
        if t == 0.0:
            out[i] = lam[0]
        else:
            out[i] = np.dot(kernel_masses(s_exp, lam.shape[0], t), lam)
    return out


def radial_expansion_degree(d: int, nu: float, t: float) -> int:
    """Cutoff degree of the radial Berezin expansion at |z|^2 = t < 1.

    The expansion carries all but 1e-13 of the kernel mass at t.  A point
    so close to the sphere that the eigenvalue table of the expansion
    (degrees x radial nodes) would pass the desk budget is refused with a
    ``DomainError`` before anything is built.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"radial expansion needs 0 <= |z|^2 < 1, got {t!r}")
    if t == 0.0:
        return 1
    s_exp = d + nu + 1.0
    # nbdtrik inverts the negative-binomial CDF over real degrees, one CDF
    # step (betainc) settles the integer
    q, p = 1.0 - _TAIL_TOL, 1.0 - t
    quant = float(np.ceil(sp_special.nbdtrik(q, s_exp, p)))
    if quant > 0.0 and sp_special.betainc(s_exp, quant, p) >= q:
        quant -= 1.0
    # counts past the budget are all refused alike; the clip keeps int() finite
    terms = int(min(quant + 16, 1e12))
    # q: the order radial_toeplitz_diagonal takes for a profile callable
    _require_budget(
        (terms + 1) * _radial_order(terms, 16),
        f"the radial Berezin expansion at |z|^2 = {t!r}",
        "take a point farther from the sphere",
    )
    if kernel_tail(s_exp, terms, t) > 1e3 * _TAIL_TOL:
        raise DomainError(
            "kernel expansion truncated too early for the requested point"
        )
    return terms


def _radial_berezin_value(
    profile: Callable[[np.ndarray], np.ndarray], d: int, nu: float, t: float
) -> complex:
    """Berezin transform of a radial symbol at a point with |z|^2 = t < 1.

    Expands over the diagonal eigenvalue sequence with negative-binomial
    kernel masses, cut where all but 1e-13 of the mass at t is carried.
    """
    lam = radial_toeplitz_diagonal(profile, d, nu, radial_expansion_degree(d, nu, t))
    return complex(radial_berezin_sum(lam, d + nu + 1.0, np.array([t]))[0])


def berezin_of_symbol(
    g: SymbolLike,
    mu: float,
    z: Sequence[complex],
    spec: QuadratureSpec,
) -> complex:
    """Integral of g against the Mobius-pulled-back weight at z.

    Radial symbols take a diagonal expansion instead of quadrature, which
    stays accurate arbitrarily close to the boundary.  Any other symbol
    gives <T_{g o phi_z} 1, 1>_mu, the degree-0 entry of the pullback's
    Toeplitz matrix, from the samples of a sampling spec or from a product
    rule whose orders grow as z nears the sphere.
    """
    z_arr = np.asarray(z, dtype=complex).reshape(-1)
    d = z_arr.shape[0]
    t = float(np.sum(np.abs(z_arr) ** 2))
    if not t < 1.0:  # NaN coordinates fail this too
        raise DomainError("Berezin evaluation needs an interior point")

    if is_symbolic(g) and not isinstance(g, ProductSymbol):
        profile = radial_profile(g)
        if profile is not None:
            return _radial_berezin_value(profile, d, mu, t)

    fn = as_point_function(g)

    def pulled(w: np.ndarray) -> np.ndarray:
        x = mobius(z_arr, w)
        # roundoff can push |x| onto the boundary; nudge inward
        nrm2 = np.sum(np.abs(x) ** 2, axis=-1)
        over = nrm2 >= 1.0
        if np.any(over):
            x = np.where(over[..., None], x * (1.0 - 1e-13), x)
        return np.asarray(fn(x))

    if spec.scheme != MONTE_CARLO:
        deg = symbol_degree_hint(g) if is_symbolic(g) else 8
        resolved = spec.resolved(d, 8, deg)
        # The pullback has a near-pole at distance ~ (1 - |z|) outside the
        # closed ball; raise the orders as the point approaches the boundary.
        closeness = max(1.0 - math.sqrt(t), 1e-3)
        q_eff = max(resolved.q, min(128, int(14.0 / math.sqrt(closeness)) + 8))
        ang_cap = 4096 if d == 1 else 128
        ang_eff = max(resolved.angular, min(ang_cap, int(30.0 / closeness) + 8))
        spec = replace(spec, q=q_eff, angular=ang_eff)
    return complex(toeplitz_matrix(pulled, WeightedSpace(d, mu), 0, spec).entries[0, 0])


# ---------------------------------------------------------------------------
# Probes


@dataclass(frozen=True)
class DecayTable:
    """Rows of (parameter, sup error) with the grid that produced them."""

    rows: Tuple[Tuple[float, float], ...]
    label: str = ""

    def csv_lines(self, header: str = "mu,sup_error") -> List[str]:
        lines = [header]
        for a, b in self.rows:
            lines.append(f"{format_float(a)},{format_float(b)}")
        return lines


def quantization_probe(
    c: SymbolLike,
    mu_list: Sequence[float],
    grid: np.ndarray,
    spec: Optional[QuadratureSpec] = None,
) -> DecayTable:
    """sup-grid |B_mu[c] - c| for each mu; the decay surrogate.

    The grid is an array of interior points, shape (N, d), with N >= 1.
    """
    spec = spec or QuadratureSpec()
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.shape[0] == 0:
        raise DomainError("the probe grid needs at least one point")
    c_fn = as_point_function(c)
    c_vals = np.asarray(c_fn(grid))
    rows = []
    for mu in mu_list:
        worst = 0.0
        for i in range(grid.shape[0]):
            b = berezin_of_symbol(c, float(mu), grid[i], spec)
            worst = max(worst, abs(b - complex(c_vals[i])))
        rows.append((float(mu), worst))
    label = symbol_to_text(c) if is_symbolic(c) else "callable"
    return DecayTable(rows=tuple(rows), label=label)


# the probe's ray: e_1 of the disk
_PROBE_DIRECTION = np.array([1.0 + 0.0j])


def boundary_vanishing_probe(
    f: SymbolLike,
    mu: float,
    radii: Sequence[float],
    spec: Optional[QuadratureSpec] = None,
) -> DecayTable:
    """|f(z) - B_mu[f](z)| at z = r e_1 on the disk, r approaching 1."""
    spec = spec or QuadratureSpec()
    f_fn = as_point_function(f)
    rows = []
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise DomainError(f"probe radius must lie in [0, 1), got {r}")
        z = r * _PROBE_DIRECTION
        fv = complex(np.asarray(f_fn(z[None, :]))[0])
        bv = berezin_of_symbol(f, mu, z, spec)
        rows.append((float(r), abs(fv - bv)))
    label = symbol_to_text(f) if is_symbolic(f) else "callable"
    return DecayTable(rows=tuple(rows), label=label)


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

    def eval_on_points(
        self, z: np.ndarray, *, allow_boundary: bool = False
    ) -> np.ndarray:
        """Values of shape (N, p, p)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            z = z[None, :]
        n = z.shape[0]
        out = np.empty((n, self.p, self.p), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, entry in enumerate(row):
                if is_symbolic(entry):
                    out[:, i, j] = eval_on_points(
                        entry, z, allow_boundary=allow_boundary, check_ball=False
                    )
                else:
                    out[:, i, j] = np.asarray(entry(z))
        return out

    def det_on_points(
        self, z: np.ndarray, *, allow_boundary: bool = False
    ) -> np.ndarray:
        vals = self.eval_on_points(z, allow_boundary=allow_boundary)
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
    max_abs_det: float
    threshold: float
    fredholm: bool
    argmin_point: Tuple[int, Tuple[complex, ...]] = field(repr=False, default=(-1, ()))

    def values(self) -> Tuple[complex, ...]:
        return tuple(r[2] for r in self.rows)

    def csv_lines(self) -> List[str]:
        lines = ["rho_total,radius,re_det,im_det,abs_det"]
        for rho_total, radius, v in self.rows:
            lines.append(
                f"{rho_total},{format_float(radius)},{format_float(v.real)},"
                f"{format_float(v.imag)},{format_float(abs(v))}"
            )
        return lines


# sphere directions per radius, and the Fredholm threshold relative to
# the largest sampled |det|
_SPECTRUM_DIRECTIONS = 48
_FREDHOLM_THRESHOLD_REL = 1e-6


def essential_spectrum_sample(
    c: Union[MatrixSymbol, MatrixEntry],
    d_inner: int,
    R: int = 0,
    radii: Optional[Sequence[float]] = None,
    *,
    gamma: Optional[GammaSequence] = None,
    seed: int = 20_260_813,
) -> SpectrumSample:
    """Sample det c near and on the boundary sphere (and over levels).

    Fredholmness of the operator family is judged by whether |det c| stays
    above _FREDHOLM_THRESHOLD_REL times its largest sampled value; with a
    gamma sequence the sampled quantity is det(gamma(rho) c) over levels
    |rho| <= R as well.
    """
    if not isinstance(c, MatrixSymbol):
        c = MatrixSymbol.scalar(c)
    if radii is None:
        radii = default_radius_schedule()
    dirs = _sphere_directions(d_inner, _SPECTRUM_DIRECTIONS, seed)
    rows: List[Tuple[int, float, complex]] = []
    min_abs = math.inf
    max_abs = 0.0
    argmin: Tuple[int, Tuple[complex, ...]] = (-1, ())

    level_scales: List[Tuple[int, float]] = [(-1, 1.0)]
    if gamma is not None:
        level_scales = [
            (sum(rho), gamma(rho) ** c.p) for rho in gamma.levels
        ]

    for r in radii:
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"schedule radius must lie in [0, 1], got {r}")
        pts = r * dirs
        dets = c.det_on_points(pts, allow_boundary=True)
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
        max_abs_det=float(max_abs),
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
        lines = ["size,sigma_min"]
        for k, s in self.rows:
            lines.append(f"{k},{format_float(s)}")
        return lines


def min_singular_probe(matrices: Sequence[OperatorMatrix]) -> MinSingularTable:
    """Smallest singular value per truncation; classifies the trend.

    A sequence collapsing toward 0 is evidence against invertibility
    modulo compacts; a flat positive floor corroborates a Fredholm verdict.
    """
    if not matrices:
        raise DomainError("need at least one matrix")
    rows = []
    for m in matrices:
        a = m.entries if isinstance(m, OperatorMatrix) else np.asarray(m)
        s = np.linalg.svd(a, compute_uv=False)
        rows.append((a.shape[0], float(s[-1])))
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
