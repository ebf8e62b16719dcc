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
# roots_jacobi imports scipy.linalg on its first call; importing it here
# pays that once with the package instead of inside the first rule build
import scipy.linalg  # noqa: F401
from scipy import special as sp_special

from .core import BallGeometry, WeightedSpace
from .errors import DomainError
from .symbols import ProductSymbol, SymbolExpr, eval_on_points, is_symbolic

GAUSS_JACOBI = "gauss_jacobi"
MONTE_CARLO = "monte_carlo"

# product-rule cap: 20 M symbol evaluations per assembly are past desk scale
# (the flat views, built only for tests and the tracer, would be ~3 GiB at d=4)
_MAX_RULE_NODES = 20_000_000


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

    def resolved(self, d: int, max_degree: int, sym_degree: int = 0) -> "QuadratureSpec":
        """Fill in automatic orders for a basis cutoff and symbol degree."""
        q = self.q if self.q > 0 else max_degree + (sym_degree + 1) // 2 + 3
        angular = self.angular if self.angular > 0 else 2 * max_degree + sym_degree + 1
        return replace(self, q=q, angular=angular)


@lru_cache(maxsize=256)
def gauss_jacobi_rule(q: int, a_exp: float, b_exp: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0,1) absorbing the weight (1-t)^a t^b.

    sum w_i g(t_i) equals the integral of (1-t)^a t^b g(t) over (0,1)
    exactly for polynomials g of degree <= 2q - 1.
    """
    if q < 1:
        raise DomainError(f"rule order must be positive, got {q}")
    if a_exp <= -1.0 or b_exp <= -1.0:
        raise DomainError("Jacobi exponents must exceed -1")
    x, w = sp_special.roots_jacobi(q, a_exp, b_exp)
    t = 0.5 * (x + 1.0)
    w01 = w * math.exp(-(a_exp + b_exp + 1.0) * math.log(2.0))
    t.setflags(write=False)
    w01.setflags(write=False)
    return t, w01


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
    lam: float
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
        """Nodes on the tori of radial nodes ``rows``, shape (n, P, ..., P, d)."""
        d, p = self.d, self.n_phase
        radii = self.radii[rows]
        phase = np.exp(1j * (2.0 * math.pi * np.arange(p) / p))
        out = np.empty((radii.shape[0],) + (p,) * d + (d,), dtype=complex)
        for axis in range(d):
            ph_shape = [1] * (1 + d)
            ph_shape[1 + axis] = p
            out[..., axis] = radii[:, axis].reshape(-1, *([1] * d)) * phase.reshape(
                ph_shape
            )
        return out

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
    rules: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor product of 1-D rules on (0, 1), broken into simplex pieces.

    Piece j takes the fraction v_j of what pieces 0..j-1 left over.
    Returns (pieces (N, len(rules)), remainder (N,), weights (N,)); with
    no rules, one node of weight 1 with the whole stick left over.
    """
    if not rules:
        return np.empty((1, 0)), np.ones(1), np.ones(1)
    grids = np.meshgrid(*[v for v, _ in rules], indexing="ij")
    wgrids = np.meshgrid(*[w for _, w in rules], indexing="ij")
    vv = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    pieces = np.empty_like(vv)
    remaining = np.ones(vv.shape[0])
    for j in range(len(rules)):
        pieces[:, j] = remaining * vv[:, j]
        remaining = remaining * (1.0 - vv[:, j])
    return pieces, remaining, weights


def ball_rule_size(d: int, q_radial: int, n_phase: int) -> int:
    """Node count of ``ball_rule`` at these orders, without building it."""
    return q_radial**d * n_phase**d


def ball_rule(d: int, lam: float, q_radial: int, n_phase: int) -> BallRule:
    """Deterministic product rule for the normalized weight on the d-ball.

    Exact for integrands z^alpha conj(z)^beta with |alpha|, |beta| bounded
    by roughly q_radial and phase differences below n_phase.  Each simplex
    fraction takes q_radial nodes too.  Rules over the node budget are
    refused before anything of their size is built.
    """
    total = ball_rule_size(d, q_radial, n_phase)
    if total > _MAX_RULE_NODES:
        raise DomainError(
            f"the product rule needs {total} nodes (over the "
            f"{_MAX_RULE_NODES} desk budget); lower the cutoff, the "
            "dimension or the requested orders, or switch to sampling"
        )
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
        lam=lam,
        radii=radii.reshape(-1, d),
        radial_weights=w_full.ravel(),
        n_phase=n_phase,
    )


def monte_carlo_points(
    d: int, lam: float, n: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded samples from the normalized weight; returns (points, t).

    Radius: t = |z|^2 follows Beta(d, lam + 1).  Directions: simplex
    fractions are Dirichlet(1, ..., 1), phases are uniform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    t = rng.beta(d, lam + 1.0, size=n)
    if d == 1:
        s = np.ones((n, 1))
    else:
        s = rng.dirichlet(np.ones(d), size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(n, d))
    z = np.sqrt(t[:, None] * s) * np.exp(1j * theta)
    return z, t


PointFunction = Callable[[np.ndarray], np.ndarray]
SymbolLike = Union[SymbolExpr, ProductSymbol, PointFunction]


def as_point_function(
    f: SymbolLike,
    geometry: Optional[BallGeometry] = None,
    allow_boundary: bool = False,
) -> PointFunction:
    """Wrap a symbol (or pass through a callable) as z-array -> values."""
    if callable(f) and not is_symbolic(f):
        return f

    def fn(z: np.ndarray) -> np.ndarray:
        return eval_on_points(
            f, z, geometry=geometry, allow_boundary=allow_boundary, check_ball=False
        )

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


@dataclass(frozen=True)
class SimplexRule:
    """Rule for profile moments over the set of group radii.

    Integrates a(r_1, ..., r_m) against (1 - |r|^2)^lam prod r_j^(p_j) dr
    over the positive orthant piece of the unit ball, via t_j = r_j^2.
    ``radii`` holds the r-nodes, shape (N, m).
    """

    m: int
    lam: float
    powers: Tuple[int, ...]
    radii: np.ndarray
    weights: np.ndarray


def simplex_radial_rule(
    lam: float, powers: Sequence[int], q: int
) -> SimplexRule:
    """Build the rule; powers are the odd exponents p_j on each r_j.

    Each p_j must be odd so that t_j = r_j^2 turns the measure into the
    Dirichlet-type weight prod t^((p_j - 1)/2) (1 - sum t)^lam, which the
    per-axis Jacobi rules absorb exactly.
    """
    powers = tuple(int(p) for p in powers)
    if any(p < 1 or p % 2 == 0 for p in powers):
        raise DomainError(f"radial exponents must be odd and positive, got {powers}")
    m = len(powers)
    c = [(p - 1) // 2 for p in powers]
    t, _, ww = _stick_breaking(
        [
            gauss_jacobi_rule(q, float(lam + (m - 1 - j) + sum(c[j + 1 :])), float(c[j]))
            for j in range(m)
        ]
    )
    # The substitution contributes 2^-m; fold it into the weights so the
    # rule integrates directly against the r-measure.
    ww = ww * math.exp(-m * math.log(2.0))
    return SimplexRule(
        m=m, lam=lam, powers=powers, radii=np.sqrt(t), weights=ww
    )
