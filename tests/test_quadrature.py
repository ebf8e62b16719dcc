"""Quadrature rules against independent moment formulas."""

import math

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    QuadratureSpec,
    WeightedSpace,
    ball_rule,
    gauss_jacobi_rule,
    monte_carlo_points,
    parse_symbol,
    toeplitz_matrix,
    toeplitz_matrix_with_stderr,
)
from berglab.core import beta_fn, monomial_moment
from berglab.quadrature import GAUSS_JACOBI, MONTE_CARLO, gauss_jacobi_log_rule


def test_gauss_jacobi_nodes_inside_unit_interval():
    u, w = gauss_jacobi_rule(16, 0.5, 2.0)
    assert np.all((u > 0) & (u < 1))
    assert np.all(w > 0)


@pytest.mark.parametrize("a, b", [(3001.0, 3000.0), (1001.0, 2000.0), (0.5, 2.0)])
def test_gauss_jacobi_log_weights_sum_to_the_log_mass(a, b):
    # B(3001, 3002) is about 1e-1808: the mass and every weight underflow
    _, log_w = gauss_jacobi_log_rule(24, a, b)
    top = np.max(log_w)
    log_total = top + math.log(np.sum(np.exp(log_w - top)))
    log_mass = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    assert np.all(np.isfinite(log_w))
    assert log_total == pytest.approx(log_mass, rel=1e-12, abs=1e-12)


def test_gauss_jacobi_total_mass_is_beta():
    # the rule integrates the raw weight t^b (1-t)^a on (0,1)
    for a, b in [(0.0, 0.0), (1.5, 2.0), (0.5, 0.0), (3.0, 1.0)]:
        u, w = gauss_jacobi_rule(10, a, b)
        assert w.sum() == pytest.approx(beta_fn(b + 1.0, a + 1.0), rel=1e-14)


@pytest.mark.parametrize("q", [2, 5, 9])
def test_gauss_jacobi_moment_exactness(q):
    # polynomial moments up to degree 2q-1 integrate exactly
    a, b = 1.25, 3.0
    u, w = gauss_jacobi_rule(q, a, b)
    for m in range(2 * q):
        got = float(np.dot(w, u**m))
        exact = beta_fn(b + 1.0 + m, a + 1.0)
        assert got == pytest.approx(exact, rel=1e-12), m


def test_ball_rule_has_unit_mass():
    for d, lam in [(1, 0.0), (2, 0.5), (2, 2.0)]:
        rule = ball_rule(d, lam, 8, 5)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        t = np.sum(np.abs(rule.nodes) ** 2, axis=-1)
        assert np.all(t < 1.0)


def test_ball_rule_monomial_moments():
    # |z^alpha|^2 moments against the closed form
    d, lam = 2, 0.5
    rule = ball_rule(d, lam, 10, 7)
    for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        vals = np.prod(np.abs(rule.nodes) ** (2 * np.asarray(alpha)), axis=-1)
        got = float(np.dot(rule.weights, vals))
        assert got == pytest.approx(monomial_moment(alpha, d, lam), rel=1e-12)


def test_ball_rule_phase_orthogonality():
    # mixed powers with unbalanced winding integrate to zero
    rule = ball_rule(2, 0.0, 6, 7)
    v = rule.nodes[:, 0] * np.conj(rule.nodes[:, 1])
    assert abs(np.dot(rule.weights, v)) < 1e-14
    v2 = rule.nodes[:, 0] ** 2 * np.conj(rule.nodes[:, 0])
    assert abs(np.dot(rule.weights, v2)) < 1e-14


def test_ball_rule_node_budget():
    with pytest.raises(DomainError):
        ball_rule(3, 0.0, 60, 101)


def test_monte_carlo_points_seeded():
    z1, t1 = monte_carlo_points(2, 0.5, 5000, seed=11)
    z2, t2 = monte_carlo_points(2, 0.5, 5000, seed=11)
    z3, _ = monte_carlo_points(2, 0.5, 5000, seed=12)
    assert np.array_equal(z1, z2) and np.array_equal(t1, t2)
    assert not np.array_equal(z1, z3)
    assert np.all(t1 < 1.0)
    assert np.allclose(np.sum(np.abs(z1) ** 2, axis=-1), t1)


def test_monte_carlo_radial_law():
    # E[t] for the weighted measure is d / (d + lam + 1)
    d, lam, n = 2, 1.0, 200_000
    _, t = monte_carlo_points(d, lam, n, seed=3)
    mean = d / (d + lam + 1.0)
    var = t.var()
    assert abs(t.mean() - mean) < 5.0 * math.sqrt(var / n)


# An integral against the weight is the degree-0 entry <T_f 1, 1> of the
# integrand's Toeplitz matrix; the library has no other summation.


def test_integrate_ball_routes_agree():
    g = BallGeometry(2, 1, (1,))
    f = parse_symbol("abs2(z1) * (1 - abs2(z))", g)
    space = WeightedSpace(2, 0.5, geometry=g)
    exact = toeplitz_matrix(f, space, 0, QuadratureSpec()).entries[0, 0]
    n = 200_000
    m, se = toeplitz_matrix_with_stderr(
        f, space, 0, QuadratureSpec(scheme=MONTE_CARLO, n_samples=n, seed=5)
    )
    # the stderr matrix divides the sample variance by n - 1; the gate is
    # 5 standard errors of the variance divided by n
    mc_err = se[0, 0] * math.sqrt((n - 1) / n)
    assert abs(m.entries[0, 0] - exact) < 5.0 * mc_err + 1e-12


def test_integrate_constant_is_exact():
    space = WeightedSpace(1, 0.0)
    val = toeplitz_matrix(parse_symbol("1", None), space, 0, QuadratureSpec())
    assert val.entries[0, 0] == 1.0


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(scheme="simpson")
    with pytest.raises(DomainError):
        QuadratureSpec(q=-1)
    with pytest.raises(DomainError):
        QuadratureSpec(scheme=MONTE_CARLO, n_samples=0)


def test_spec_resolution_honors_explicit_orders():
    spec = QuadratureSpec(q=17, angular=9)
    r = spec.resolved(8, 4)
    assert r.q == 17 and r.angular == 9
    auto = QuadratureSpec().resolved(8, 4)
    assert auto.q > 0 and auto.angular >= 2 * 8 + 1
