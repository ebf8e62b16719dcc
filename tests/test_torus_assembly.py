"""Streamed torus-FFT Gauss-Jacobi assembly against independent routes.

The exact oracle for polynomial symbols comes from closed-form monomial
moments; the dense route sums the flat product rule through a weighted
Vandermonde matrix, which is what Monte Carlo assembly still does.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import (
    BallGeometry,
    BallRule,
    DomainError,
    QuadratureSpec,
    WeightedSpace,
    ball_rule,
    berezin_of_symbol,
    parse_symbol,
    resolve_assembly_spec,
    toeplitz_matrix,
)
from berglab import quadrature, toeplitz
from berglab.core import enumerate_basis, monomial_moment
from berglab.quadrature import as_point_function


def _sign(x):
    return "-" if x < 0 else "+"


@st.composite
def polynomial_symbols(draw):
    """(d, D, lam, text, terms) for a sum of c * z_i^a * conj(z_j)^b."""
    d = draw(st.integers(1, 3))
    D = draw(st.integers(0, 3 if d == 3 else 5))
    lam = draw(st.sampled_from([0.0, 0.5, 2.0]))
    coef = st.integers(-1000, 1000).map(lambda v: v / 1000.0)
    terms, texts = [], []
    for _ in range(draw(st.integers(1, 3))):
        re, im = draw(coef), draw(coef)
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        p, q = [0] * d, [0] * d
        p[i] += a
        q[j] += b
        terms.append((complex(re, im), tuple(p), tuple(q)))
        factors = [f"({re!r} {_sign(im)} {abs(im)!r}*i)"]
        if a:
            factors.append(f"z{i + 1}^{a}")
        if b:
            factors.append(f"conj(z{j + 1})^{b}")
        texts.append("*".join(factors))
    return d, D, lam, " + ".join(texts), terms


def _oracle(terms, basis):
    """Entry (beta, alpha) = sum c [alpha+p = beta+q] moment(alpha+p) n_alpha n_beta."""
    out = np.zeros((basis.count, basis.count), dtype=complex)
    for c, p, q in terms:
        for j, alpha in enumerate(basis.indices):
            s = tuple(x + y for x, y in zip(alpha, p))
            i = basis.position.get(tuple(x - y for x, y in zip(s, q)))
            if i is not None:
                out[i, j] += (
                    c
                    * monomial_moment(s, basis.d, basis.lam)
                    * basis.norms[i]
                    * basis.norms[j]
                )
    return out


@settings(max_examples=40, deadline=None)
@given(polynomial_symbols())
def test_polynomial_symbols_match_exact_moments(case):
    d, D, lam, text, terms = case
    geo = BallGeometry(d, d, (d,))
    m = toeplitz_matrix(
        parse_symbol(text, geo),
        WeightedSpace(d, lam, geometry=geo),
        D,
        QuadratureSpec(),
        use_fast_paths=False,
    )
    ref = _oracle(terms, m.basis)
    scale = max(1.0, float(np.max(np.abs(m.entries))))
    assert np.max(np.abs(m.entries - ref)) <= 1e-13 * scale


def _dense_reference(f, space, D, spec):
    """The flat-rule Vandermonde contraction on the same product rule."""
    resolved = resolve_assembly_spec(f, space.d, D, spec)
    rule = ball_rule(space.d, space.lam, resolved.q, resolved.angular)
    basis = enumerate_basis(space.d, D, space.lam)
    fn = as_point_function(f, space.geometry)
    return toeplitz._assemble_from_nodes(rule.nodes, rule.weights, fn, basis)


@pytest.mark.parametrize(
    "text, geo, D, spec",
    [
        # any rule pairs the two routes; small explicit orders keep the
        # dense reference cheap at d = 3
        ("1/(2.2 - abs2(z))", BallGeometry(3, 3, (3,)), 3, QuadratureSpec(q=10, angular=7)),
        ("prod(a = 1 - r1^2, c = re(zc1))", BallGeometry(2, 1, (1,)), 6, QuadratureSpec()),
    ],
)
def test_torus_assembly_matches_dense_route(text, geo, D, spec):
    f = parse_symbol(text, geo)
    space = WeightedSpace(geo.n, 0.0, geometry=geo)
    m = toeplitz_matrix(f, space, D, spec, use_fast_paths=False)
    ref = _dense_reference(f, space, D, spec)
    assert np.max(np.abs(m.entries - ref)) <= 1e-13


def test_slab_size_does_not_change_entries(monkeypatch):
    geo = BallGeometry(2, 2, (2,))
    f = parse_symbol("z1*conj(z2)^2 + 1/(3 - abs2(z))", geo)
    space = WeightedSpace(2, 0.5, geometry=geo)
    whole = toeplitz_matrix(f, space, 5, QuadratureSpec(), use_fast_paths=False)
    monkeypatch.setattr(toeplitz, "_SLAB_NODES", 1)  # one torus per slab
    streamed = toeplitz_matrix(f, space, 5, QuadratureSpec(), use_fast_paths=False)
    assert np.max(np.abs(whole.entries - streamed.entries)) <= 1e-14


def _general_assembly_on_b3():
    geo = BallGeometry(3, 3, (3,))
    f = parse_symbol("re(z1) + 2*abs2(z2)*conj(z3)", geo)
    m = toeplitz_matrix(f, WeightedSpace(3, 0.0), 3, QuadratureSpec(), use_fast_paths=False)
    return m.entries


def _berezin_off_axis_on_b2():
    # non-radial, so the transform is the degree-0 entry of the pullback
    f = parse_symbol("re(z1) + 2*abs2(z2)*conj(z1)", None)
    return berezin_of_symbol(f, 1.0, (0.3 + 0.1j, -0.2j), QuadratureSpec())


@pytest.mark.parametrize(
    "run", [_general_assembly_on_b3, _berezin_off_axis_on_b2], ids=["assembly", "berezin"]
)
def test_gauss_jacobi_assembly_builds_no_flat_arrays(monkeypatch, run):
    def refuse(*args, **kwargs):
        raise AssertionError("flat node array built")

    dense = toeplitz._vandermonde_block

    def real_powers_only(z, basis):
        # the torus route only takes radial powers of the real moduli
        assert not np.iscomplexobj(z), "complex Vandermonde built"
        return dense(z, basis)

    monkeypatch.setattr(toeplitz, "_vandermonde_block", real_powers_only)
    monkeypatch.setattr(BallRule, "nodes", property(refuse))
    monkeypatch.setattr(BallRule, "weights", property(refuse))
    monkeypatch.setattr(BallRule, "radial_t", property(refuse))
    assert np.all(np.isfinite(run()))


def _assembly_at_d24():
    # d = 2, D = 24: 2.0M nodes, so the flat node array alone is 65 MB and
    # the dense route's Vandermonde would be 10.6 GB
    f = parse_symbol("z1*conj(z2) + 1", None)
    spec = resolve_assembly_spec(f, 2, 24, QuadratureSpec())
    toeplitz_matrix(f, WeightedSpace(2, 0.0), 24, spec, use_fast_paths=False)


def _berezin_point_on_b2():
    # |z| = 0.49 on B²: the pullback rule has 3.3M nodes, a 105 MB flat array
    f = parse_symbol("z1*conj(z2) + abs2(z1)", None)
    berezin_of_symbol(f, 0.0, (0.45, 0.2j), QuadratureSpec())


@pytest.mark.parametrize(
    "run", [_assembly_at_d24, _berezin_point_on_b2], ids=["assembly", "berezin"]
)
def test_streamed_memory_stays_below_the_flat_node_array(monkeypatch, run):
    sizes = []
    size_of = quadrature.ball_rule_size

    def recording_size(*args):
        sizes.append(size_of(*args))
        return sizes[-1]

    # every product rule is sized by this before it is built
    monkeypatch.setattr(quadrature, "ball_rule_size", recording_size)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (n_nodes,) = sizes
    assert n_nodes > 10**6
    assert peak < n_nodes * 2 * 16


def test_non_finite_symbol_is_refused_on_the_streamed_path():
    def blows_up_near_boundary(z):
        t = np.sum(np.abs(z) ** 2, axis=-1)
        return np.where(t > 0.9, np.nan, 1.0)

    with pytest.raises(DomainError):
        toeplitz_matrix(
            blows_up_near_boundary,
            WeightedSpace(2, 0.0),
            3,
            QuadratureSpec(),
            use_fast_paths=False,
        )


def test_over_budget_rule_is_refused_before_any_slab():
    calls = []

    def symbol(z):
        calls.append(z.shape)
        return np.ones(z.shape[0])

    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="desk budget"):
            toeplitz_matrix(
                symbol,
                WeightedSpace(3, 0.0),
                2,
                QuadratureSpec(q=60, angular=101),
                use_fast_paths=False,
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 4_000_000


def test_resolved_orders_add_the_margin_only_when_automatic():
    geo = BallGeometry(2, 2, (2,))
    poly = parse_symbol("z1*conj(z2)", geo)
    rational = parse_symbol("1/(2 - abs2(z))", geo)
    base = QuadratureSpec().resolved(2, 6, 2)
    assert resolve_assembly_spec(poly, 2, 6, QuadratureSpec()) == base
    bumped = resolve_assembly_spec(rational, 2, 6, QuadratureSpec())
    assert bumped.q == QuadratureSpec().resolved(2, 6, 0).q + 24
    explicit = QuadratureSpec(q=11, angular=13)
    assert resolve_assembly_spec(rational, 2, 6, explicit) == explicit
    mc = QuadratureSpec(scheme="monte_carlo")
    assert resolve_assembly_spec(rational, 2, 6, mc) is mc
