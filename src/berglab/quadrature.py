"""Integration against weighted ball volumes and radial product measures.

Two schemes are provided.  The deterministic one substitutes t = |z|^2 so
the radial factor becomes the Jacobi weight (1 - t)^lam t^(d-1), splits t
over the coordinates through recursive simplex fractions (Gauss-Jacobi in
each fraction), and uses equispaced phase points, which integrate
trigonometric monomials exactly below the chosen order.  The Monte Carlo
scheme samples the same factorization with a seeded generator and serves
as an independent cross-check and as the fallback in high dimension.

The ball rule is kept factored (radial x simplex nodes, each carrying a
torus of phases) so that assembly can stream it.  No library code sums
over a rule or a sample set outside the Toeplitz assembly: an integral
against the weight is the degree-0 entry of the integrand's matrix.  The
flat (nodes, weights) views of a rule are built on demand, for tests and
the benchmark tracer.  Weights sum to the total mass of the measure,
which is 1 for the normalized ball volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import BallGeometry, WeightedSpace, beta_fn
from .errors import DomainError
from .symbols import ProductSymbol, SymbolExpr, eval_on_points, is_symbolic

GAUSS_JACOBI = "gauss_jacobi"
MONTE_CARLO = "monte_carlo"

# product-rule cap: 20 M symbol evaluations per assembly are past desk scale
# (the flat views, built only for tests and the tracer, would be ~3 GiB at d=4);
# a Monte Carlo draw is held to it too
_MAX_RULE_NODES = 20_000_000

# values in one streamed block (about 0.5 MB of doubles, cache-sized): the
# nodes of a torus slab, a tile of its gathered phase coefficients, a chunk
# of Monte Carlo monomial values, a block of radial moments or kernel masses;
# and the multiply-adds of one phase-stage product or one Monte Carlo node
# block product.  OpenBLAS's zgemm runs a product of up to 2^16 multiply-adds
# on one thread (OpenBLAS 0.3.31, 2 cores: 35 * 35 * 53 = 64,925 on one,
# 35 * 35 * 54 = 66,150 on two), so products within the budget never wake a
# second BLAS thread.  Monte Carlo assembly puts the core that leaves idle
# to work with one helper thread of its own, which contracts a chunk's node
# blocks while the next chunk is built
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: scheme, orders, sample count and seed.

    ``q`` (radial order) and ``angular`` (phase points per angle) may be
    left at 0, in which case each caller picks values sufficient for its
    basis cutoff.  A fixed seed makes Monte Carlo runs bit-reproducible.
    """

    scheme: str = GAUSS_JACOBI
    q: int = 0
    angular: int = 0
    n_samples: int = 100_000
    seed: int = 20_260_813

    def __post_init__(self) -> None:
        if self.scheme not in (GAUSS_JACOBI, MONTE_CARLO):
            raise DomainError(f"unknown quadrature scheme {self.scheme!r}")
        if self.q < 0 or self.angular < 0 or self.n_samples < 1:
            raise DomainError("quadrature orders must be nonnegative and N >= 1")
        require_sample_count(self.n_samples)

    def resolved(self, max_degree: int, sym_degree: int = 0) -> "QuadratureSpec":
        """Fill in automatic orders for a basis cutoff and symbol degree: 2D +
        deg + 1 phases, the fallback for a symbol with no phase band."""
        q = self.q if self.q > 0 else max_degree + (sym_degree + 1) // 2 + 3
        angular = self.angular if self.angular > 0 else 2 * max_degree + sym_degree + 1
        return replace(self, q=q, angular=angular)


def _jacobi_matrix(q: int, a: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """The orthonormal Jacobi matrix of (1-t)^a t^b on (0, 1): its
    diagonal, and its off-diagonal, where ``off[k]`` couples p_k and
    p_(k+1) (q values; the last one is the coefficient of p_q)."""
    k = np.arange(q, dtype=float)
    n = 2.0 * k + a + b
    diag = np.empty(q)
    diag[0] = 0.5 + (b - a) / (2.0 * (a + b + 2.0))
    diag[1:] = 0.5 + (b * b - a * a) / (2.0 * n[1:] * (n[1:] + 2.0))
    k, n = k + 1.0, n + 2.0
    beta = k * (k + a) * (k + b) * (k + a + b) / (n * n * (n + 1.0) * (n - 1.0))
    # k = 1 with the factor 1 + a + b cancelled, which may vanish
    beta[0] = (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    return diag, np.sqrt(beta)


# past 2^256 a recurrence value and its companions are scaled down by it,
# checked every 8 steps: 8 steps grow a value by far less than 2^256
_RESCALE_BITS = 256
_RESCALE = 2.0**_RESCALE_BITS


def _recurrence(
    x: np.ndarray, diag: np.ndarray, off: np.ndarray, derivative: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three-term recurrence p_0 = 1, ..., p_q at every node x at once.

    Returns the Newton step p_q / p_q', the Christoffel sum of p_k^2 over
    k < q, and how often each node was scaled down by _RESCALE (the sum
    then stands for its value times _RESCALE^(-2 times that)).  Without
    ``derivative`` the step takes p_q' from the Christoffel-Darboux
    identity sum_(k<q) p_k^2 = off[q-1] p_q' p_(q-1), which holds at the
    zeros: a polish for nodes already accurate to roundoff.
    """
    q = diag.shape[0]
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    total, scaled = np.ones_like(x), np.zeros(x.shape, dtype=int)
    for k in range(q):
        c = x - diag[k]
        prev = off[k - 1] if k else 0.0
        p0, p1 = p1, (c * p1 - prev * p0) / off[k]
        if derivative:
            d0, d1 = d1, (c * d1 + p0 - prev * d0) / off[k]
        if k < q - 1:
            total += p1 * p1
        if k % 8 == 7:
            big = np.abs(p1) > _RESCALE
            if big.any():
                for arr in (p0, p1, d0, d1):
                    arr[big] /= _RESCALE
                total[big] /= _RESCALE * _RESCALE
                scaled[big] += 1
    if derivative:
        return p1 / d1, total, scaled
    return off[q - 1] * p1 * p0 / total, total, scaled


def _sturm_count(x: np.ndarray, diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Number of Jacobi-matrix eigenvalues below each x: the negative
    pivots of the LDL^T factorization of J - x (a zero pivot turns the
    next one into -inf, which counts as one, as it should)."""
    pivot = diag[0] - x
    count = (pivot < 0.0).astype(np.int64)
    with np.errstate(divide="ignore"):
        for k in range(1, diag.shape[0]):
            pivot = (diag[k] - x) - off2[k - 1] / pivot
            count += pivot < 0.0
    return count


def _bisected_nodes(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Every node to a small fraction of its spacing, by Sturm counts.

    Counts on 4q points uniform in arccos(2t - 1), where the nodes are
    roughly uniform, bracket node i by the count changing from i to
    i + 1; all brackets are then bisected together until each holds one
    node and has been halved four times.
    """
    q = diag.shape[0]
    off2 = off[: q - 1] ** 2
    grid = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, 4 * q + 1))
    counts = _sturm_count(grid, diag, off2)
    counts[0], counts[-1] = 0, q
    i = np.arange(q)
    upper = np.searchsorted(counts, i, side="right")
    lo, hi = grid[upper - 1], grid[upper]
    c_lo, c_hi = counts[upper - 1], counts[upper]
    halvings = 0
    while halvings < 4 or np.any((c_lo != i) | (c_hi != i + 1)):
        mid = 0.5 * (lo + hi)
        c_mid = _sturm_count(mid, diag, off2)
        below = c_mid <= i
        lo, c_lo = np.where(below, mid, lo), np.where(below, c_mid, c_lo)
        hi, c_hi = np.where(below, hi, mid), np.where(below, c_hi, c_mid)
        halvings += 1
    return 0.5 * (lo + hi)


# Largest rule whose nodes come from a dense eigensolver (a q x q array);
# larger rules bisect Sturm counts and iterate Newton on the recurrence.
_DENSE_RULE_MAX = 256


@lru_cache(maxsize=256)
def gauss_jacobi_rule(q: int, a_exp: float, b_exp: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0,1) absorbing the weight (1-t)^a t^b.

    sum w_i g(t_i) equals the integral of (1-t)^a t^b g(t) over (0,1)
    exactly for polynomials g of degree <= 2q - 1.  Golub-Welsch: the
    nodes are the eigenvalues of the Jacobi matrix, polished by one
    Newton step on the three-term recurrence, and the weights are the
    Christoffel numbers mu_0 / sum_(k<q) p_k(t)^2 (p_0 = 1, mu_0 the
    total mass B(b + 1, a + 1)), summed in the same pass.
    """
    if q < 1:
        raise DomainError(f"rule order must be positive, got {q}")
    if a_exp <= -1.0 or b_exp <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    diag, off = _jacobi_matrix(q, float(a_exp), float(b_exp))
    if q <= _DENSE_RULE_MAX:
        jac = np.zeros((q, q))
        jac.flat[:: q + 1] = diag
        jac.flat[q :: q + 1] = off[: q - 1]  # the lower triangle eigvalsh reads
        t = np.linalg.eigvalsh(jac)
    else:
        t = _bisected_nodes(diag, off)
        for _ in range(8):  # quadratic from a few percent of the spacing
            step = _recurrence(t, diag, off, derivative=True)[0]
            t = t - step
            if np.max(np.abs(step)) <= 1e-15:
                break
    step, total, scaled = _recurrence(t, diag, off, derivative=False)
    t = t - step
    w = np.ldexp(beta_fn(b_exp + 1.0, a_exp + 1.0) / total, -2 * _RESCALE_BITS * scaled)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_jacobi_log_rule(q: int, a_exp: float, b_exp: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and natural-log weights of ``gauss_jacobi_rule``, finite where
    a weight underflows: below the normal range the log is taken from the
    node's rescaled Christoffel sum, which never leaves it, and the total
    mass, whose log comes from log-gamma where the mass itself leaves it."""
    t, w = gauss_jacobi_rule(q, a_exp, b_exp)
    tiny = np.finfo(float).tiny
    low = w < tiny
    log_w = np.log(np.where(low, 1.0, w))
    if low.any():
        diag, off = _jacobi_matrix(q, float(a_exp), float(b_exp))
        _, total, scaled = _recurrence(t[low], diag, off, derivative=False)
        mass = beta_fn(b_exp + 1.0, a_exp + 1.0)
        ratio = mass / total  # as the rule's own
        if mass >= tiny:
            log_mass = math.log(mass)
        else:
            a1, b1 = a_exp + 1.0, b_exp + 1.0
            log_mass = math.lgamma(a1) + math.lgamma(b1) - math.lgamma(a1 + b1)
        # where the ratio leaves the normal range, its log in two parts
        log_ratio = np.where(
            ratio >= tiny, np.log(np.maximum(ratio, tiny)), log_mass - np.log(total)
        )
        log_w[low] = log_ratio - (2 * _RESCALE_BITS * math.log(2.0)) * scaled
    return t, log_w


@dataclass(frozen=True)
class BallRule:
    """Product rule for a weighted ball volume, kept in factored form.

    The rule is radial x simplex x equispaced phases^d.  Radial node i
    (one radial x simplex pair) carries the moduli ``radii[i]`` and the
    weight ``radial_weights[i]``, shared by the n_phase^d nodes of its
    torus, whose phase on axis j is 2 pi k_j / n_phase.  The flat arrays
    ``nodes``, ``weights`` and ``radial_t`` (phase axes varying fastest)
    are built on first access; only tests and the benchmark tracer read
    them, since the assembly streams the factored form.
    """

    d: int
    radii: np.ndarray  # (N_rs, d) real moduli |z_j|
    radial_weights: np.ndarray  # (N_rs,) weight of each node on that torus
    n_phase: int

    @property
    def n_radial(self) -> int:
        return self.radii.shape[0]

    @property
    def size(self) -> int:
        return self.n_radial * self.n_phase**self.d

    def torus_nodes(self, rows: slice = slice(None)) -> np.ndarray:
        """Nodes on the tori of radial nodes ``rows``, shape (n, P, ..., P, d).

        Stored axis-major: the array is a view of a (d, n, P, ..., P)
        block, so each coordinate is contiguous and a reshape to (N, d)
        stays a view whose columns a symbol evaluation reads in order.
        """
        d, p = self.d, self.n_phase
        radii = self.radii[rows]
        phase = np.exp(1j * (2.0 * math.pi * np.arange(p) / p))
        out = np.empty((d, radii.shape[0]) + (p,) * d, dtype=complex)
        for axis in range(d):
            # the (n, P) values of this axis, spread over the other axes
            block = out[axis].reshape(-1, p**axis, p, p ** (d - 1 - axis))
            block[...] = np.multiply.outer(radii[:, axis], phase)[:, None, :, None]
        return np.moveaxis(out, 0, -1)

    @cached_property
    def nodes(self) -> np.ndarray:  # (N, d) complex
        return self.torus_nodes().reshape(-1, self.d)

    @cached_property
    def weights(self) -> np.ndarray:  # (N,) real
        return np.repeat(self.radial_weights, self.n_phase**self.d)

    @cached_property
    def radial_t(self) -> np.ndarray:  # (N,) |z|^2 per node
        return np.repeat(np.sum(self.radii**2, axis=1), self.n_phase**self.d)


def _stick_breaking(
    rules: Sequence[Tuple[np.ndarray, np.ndarray]], combine=np.prod
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor product of 1-D rules on (0, 1), broken into simplex pieces.

    Piece j takes the fraction v_j of what pieces 0..j-1 left over.
    Returns (pieces (N, len(rules)), remainder (N,), weights (N,)), each
    node's weight the ``combine`` of its per-rule weights (``np.sum`` for
    log weights); with no rules, one node of weight 1 with the whole
    stick left over.
    """
    if not rules:
        return np.empty((1, 0)), np.ones(1), np.ones(1)
    grids = np.meshgrid(*[v for v, _ in rules], indexing="ij")
    wgrids = np.meshgrid(*[w for _, w in rules], indexing="ij")
    vv = np.stack([g.ravel() for g in grids], axis=-1)
    weights = combine(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    pieces = np.empty_like(vv)
    remaining = np.ones(vv.shape[0])
    for j in range(len(rules)):
        pieces[:, j] = remaining * vv[:, j]
        remaining = remaining * (1.0 - vv[:, j])
    return pieces, remaining, weights


def ball_rule_size(d: int, q_radial: int, n_phase: int) -> int:
    """Node count of ``ball_rule`` at these orders, without building it."""
    return q_radial**d * n_phase**d


def require_rule_size(d: int, q_radial: int, n_phase: int) -> int:
    """``ball_rule_size``, refused with a ``DomainError`` over the node budget."""
    total = ball_rule_size(d, q_radial, n_phase)
    if total > _MAX_RULE_NODES:
        raise DomainError(
            f"the product rule needs {total} nodes (over the "
            f"{_MAX_RULE_NODES} desk budget); lower the cutoff, the "
            "dimension or the requested orders, or switch to sampling"
        )
    return total


def require_sample_count(n: int, key: str = "n_samples") -> None:
    """Refuse, with a ``DomainError`` that names ``key``, a Monte Carlo
    sample count n over the node budget, before any draw."""
    if n > _MAX_RULE_NODES:
        raise DomainError(
            f"{key} = {n} is over the {_MAX_RULE_NODES}-node desk budget; "
            "lower the sample count"
        )


def ball_rule(d: int, lam: float, q_radial: int, n_phase: int) -> BallRule:
    """Deterministic product rule for the normalized weight on the d-ball.

    Exact for integrands z^alpha conj(z)^beta with |alpha|, |beta| bounded
    by roughly q_radial and phase differences below n_phase.  Each simplex
    fraction takes q_radial nodes too.  Rules over the node budget are
    refused before anything of their size is built.
    """
    require_rule_size(d, q_radial, n_phase)
    u, wu = gauss_jacobi_rule(q_radial, lam, float(d - 1))
    # Simplex fractions of t = |z|^2 across the d axes.
    pieces, rest, ws = _stick_breaking(
        [gauss_jacobi_rule(q_radial, float(d - 1 - i), 0.0) for i in range(1, d)]
    )
    s = np.column_stack([pieces, rest])

    n_frac = s.shape[0]
    radii = np.sqrt(u.reshape(q_radial, 1, 1) * s.reshape(1, n_frac, d))

    log_c = WeightedSpace(d, lam).log_volume_const
    scale = math.exp(log_c - d * math.log(2.0) + d * math.log(2.0 * math.pi / n_phase))
    w_full = scale * wu.reshape(q_radial, 1) * ws.reshape(1, n_frac)
    return BallRule(
        d=d,
        radii=radii.reshape(-1, d),
        radial_weights=w_full.ravel(),
        n_phase=n_phase,
    )


def monte_carlo_points(
    d: int, lam: float, n: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded samples from the normalized weight; returns (points, t).

    Radius: t = |z|^2 follows Beta(d, lam + 1).  Directions: simplex
    fractions are Dirichlet(1, ..., 1), phases are uniform.  The point is
    sqrt(t s) exp(i theta), built with no temporary of the points' size:
    the fractions s are scaled by t and square-rooted in place, exp(i
    theta) is taken inside the output array, which the moduli then
    multiply in place.  Each step rounds as the plain formula does, so
    the points are its bits.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    t = rng.beta(d, lam + 1.0, size=n)
    if d == 1:
        moduli = np.sqrt(t)[:, None]
    else:
        moduli = rng.dirichlet(np.ones(d), size=n)
        moduli *= t[:, None]
        np.sqrt(moduli, out=moduli)
    z = np.empty((n, d), dtype=complex)
    z.real = 0.0
    z.imag = rng.uniform(0.0, 2.0 * math.pi, size=(n, d))
    np.exp(z, out=z)
    z *= moduli
    return z, t


PointFunction = Callable[[np.ndarray], np.ndarray]
SymbolLike = Union[SymbolExpr, ProductSymbol, PointFunction]


def as_point_function(
    f: SymbolLike, geometry: Optional[BallGeometry] = None
) -> PointFunction:
    """Wrap a symbol (or pass through a callable) as z-array -> values."""
    if callable(f) and not is_symbolic(f):
        return f

    def fn(z: np.ndarray) -> np.ndarray:
        return eval_on_points(f, z, geometry=geometry, check_ball=False)

    return fn


def evaluate_finite(fn: PointFunction, nodes: np.ndarray) -> np.ndarray:
    """fn on nodes of shape (n, d), one value per node.

    This is the one finiteness check of every rule and sampler: a value
    that is not finite is refused with a ``DomainError`` naming its node.
    """
    values = np.broadcast_to(np.asarray(fn(nodes)), nodes.shape[:-1])
    if not np.all(np.isfinite(values)):
        bad = np.flatnonzero(~np.isfinite(values))[0]
        raise DomainError(f"symbol evaluates non-finite at quadrature node {nodes[bad]}")
    return values


def simplex_radial_rule(
    lam: float, powers: Sequence[int], q: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Rule for profile moments over the set of group radii: (radii,
    weights), the r-nodes of shape (N, m) and their weights.

    Integrates a(r_1, ..., r_m) against (1 - |r|^2)^lam prod r_j^(p_j) dr
    over the positive orthant piece of the unit ball, via t_j = r_j^2,
    up to one constant factor: the largest weight is 1, so the rule
    gives normalized moments, w @ a / w @ 1.

    The powers p_j on each r_j must be odd, so that t_j = r_j^2 turns the
    measure into the Dirichlet-type weight prod t^((p_j - 1)/2)
    (1 - sum t)^lam, which the per-axis Jacobi rules absorb exactly.  The
    per-axis weights are taken as logs (``gauss_jacobi_log_rule``), summed
    per node and shifted by their largest, so large weights and levels,
    whose Jacobi weights underflow, keep their mass.
    """
    powers = tuple(int(p) for p in powers)
    if any(p < 1 or p % 2 == 0 for p in powers):
        raise DomainError(f"radial exponents must be odd and positive, got {powers}")
    m = len(powers)
    c = [(p - 1) // 2 for p in powers]
    t, _, log_w = _stick_breaking(
        [
            gauss_jacobi_log_rule(
                q, float(lam + (m - 1 - j) + sum(c[j + 1 :])), float(c[j])
            )
            for j in range(m)
        ],
        combine=np.sum,
    )
    log_w -= np.max(log_w)
    return np.sqrt(t), np.exp(log_w)
