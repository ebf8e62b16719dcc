"""Streamed torus Gauss-Jacobi assembly against independent routes.

On each torus of phases an entry reads one phase coefficient of the
symbol samples, computed by per-axis phase matrices over the residues the
pairs read; the slab's nodes are stored axis-major.  The exact oracle for
polynomial symbols comes from closed-form monomial moments; the dense
route sums the flat product rule through a weighted Vandermonde matrix,
which is what Monte Carlo assembly still does; the FFT route takes every
coefficient of every torus by ``np.fft.fftn`` and gathers the ones the
pairs read.
"""

import tracemalloc
from dataclasses import replace

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
    assembly_path,
    ball_rule,
    berezin_of_symbol,
    parse_symbol,
    resolve_assembly_spec,
    toeplitz_matrix,
)
from berglab import quadrature, toeplitz
from berglab.core import enumerate_basis, monomial_moment
from berglab.quadrature import as_point_function
from berglab.symbols import axis_band, symbol_degree_hint


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
    """Entry (beta, alpha) = sum c [alpha+p = beta+q] moment(alpha+p) n_alpha n_beta.

    An independent reference only for non-cancelling inputs: summed term
    by term in floating point, the monomial terms of a symbol such as
    ``(1 - abs2(z))^8`` cancel and the sum loses its relative accuracy,
    so this oracle cannot judge such a symbol's entries.
    """
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
    return toeplitz._node_sums(rule.nodes, rule.weights, fn, basis)[0]


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
    # a budget of one torus: one torus per slab, while the phase blocks and
    # pair tiles keep more than one row or pair each
    path = assembly_path(f, space, 5, QuadratureSpec(), use_fast_paths=False)
    monkeypatch.setattr(toeplitz, "_BLOCK_VALUES", path.spec.angular**2)
    slabs, rows = [], toeplitz._monomial_rows

    def slab_rows(z, basis, *bufs):
        slabs.append(z.shape[0])
        return rows(z, basis, *bufs)

    monkeypatch.setattr(toeplitz, "_monomial_rows", slab_rows)
    streamed = toeplitz_matrix(f, space, 5, QuadratureSpec(), use_fast_paths=False)
    assert set(slabs) == {1}
    assert np.max(np.abs(whole.entries - streamed.entries)) <= 1e-14


@pytest.mark.parametrize("use_fast_paths", [False, True], ids=["every_pair", "band"])
def test_pair_tiles_split_a_slab_and_keep_the_entries(monkeypatch, use_fast_paths):
    # K = 45 on B^2 at D = 8: K^2 = 2025 pairs against a budget of 2^8
    # values, so a slab of two tori takes 16 tiles (two in the band)
    budget, D, k = 2**8, 8, 45
    geo = BallGeometry(2, 2, (2,))
    f = parse_symbol("z1*conj(z2)^2 + 1/(3 - abs2(z))", geo)
    space = WeightedSpace(2, 0.5, geometry=geo)
    path = assembly_path(f, space, D, QuadratureSpec(), use_fast_paths=use_fast_paths)
    n_radial, n_torus = path.spec.q**2, path.spec.angular**2
    assert path.kind == "torus" and 2 * n_torus <= budget < k * k // 4

    def run(values):
        monkeypatch.setattr(toeplitz, "_BLOCK_VALUES", values)
        spec = QuadratureSpec()
        return toeplitz_matrix(f, space, D, spec, use_fast_paths=use_fast_paths)

    # one slab and one tile: the untiled contraction
    untiled = run(n_radial * k * k).entries
    slabs, tiles = [], []
    rows, einsum = toeplitz._monomial_rows, np.einsum

    def slab_rows(z, basis, *bufs):
        slabs.append(z.shape[0])
        return rows(z, basis, *bufs)

    def tile_sum(subscripts, coef, pair):
        tiles.append(pair.shape)
        return einsum(subscripts, coef, pair)

    monkeypatch.setattr(toeplitz, "_monomial_rows", slab_rows)
    monkeypatch.setattr(np, "einsum", tile_sum)
    tiled = run(budget).entries
    # the monomial rows once per slab of several tori, never once per torus
    assert slabs[0] == budget // n_torus and sum(slabs) == n_radial
    # more tiles (two einsums each, real and imaginary parts) than slabs,
    # each gathering at most the budget's coefficients
    assert len(tiles) // 2 > len(slabs)
    assert max(n * w for n, w in tiles) <= budget
    assert np.max(np.abs(tiled - untiled)) <= 1e-14 * np.max(np.abs(untiled))


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

    dense = toeplitz._monomial_rows

    def real_powers_only(z, basis, *bufs):
        # the torus route only takes radial powers of the real moduli
        assert not np.iscomplexobj(z), "complex Vandermonde built"
        return dense(z, basis, *bufs)

    monkeypatch.setattr(toeplitz, "_monomial_rows", real_powers_only)
    monkeypatch.setattr(BallRule, "nodes", property(refuse))
    monkeypatch.setattr(BallRule, "weights", property(refuse))
    monkeypatch.setattr(BallRule, "radial_t", property(refuse))
    assert np.all(np.isfinite(run()))


def _assembly_at_d24():
    # d = 2, D = 24 at the band-blind orders 2D + deg + 1: 2.0M nodes, so
    # the flat node array alone is 65 MB and the dense route's Vandermonde
    # would be 10.6 GB
    f = parse_symbol("z1*conj(z2) + 1", None)
    spec = QuadratureSpec().resolved(24, 2)
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

    # every product rule is sized by this before it is built, and a torus
    # plan sizes the rule it plans as well
    monkeypatch.setattr(quadrature, "ball_rule_size", recording_size)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_nodes = sizes[0]
    assert sizes == [n_nodes] * len(sizes)
    assert n_nodes > 10**6
    # a quarter of the flat complex node array
    assert peak < n_nodes * 2 * 16 / 4


def test_a_general_assembly_on_the_3_ball_holds_a_few_blocks():
    # 1/(2.14 - abs2(z)) on B^3 at D = 2, fast paths off: 658,503 nodes,
    # whose flat complex node array alone would be 31.6 MB
    geo = BallGeometry(3, 3, (3,))
    f = parse_symbol("1/(2.14 - abs2(z))", geo)
    space = WeightedSpace(3, 0.0, geometry=geo)
    spec = assembly_path(f, space, 2, QuadratureSpec(), use_fast_paths=False).spec
    assert quadrature.ball_rule_size(3, spec.q, spec.angular) == 658_503
    tracemalloc.start()
    try:
        toeplitz_matrix(f, space, 2, QuadratureSpec(), use_fast_paths=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a slab's nodes (d complex values each), its samples and the
    # symbol's temporaries: d + 5 blocks of complex values in all (7.5
    # blocks measured; the phase coefficients are a block at most)
    assert peak < (3 + 5) * quadrature._BLOCK_VALUES * 16


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
    # a phase band [lo, hi] per axis sets angular = D + max(hi, -lo) + 1
    base = QuadratureSpec().resolved(6, 2)
    assert resolve_assembly_spec(poly, 2, 6, QuadratureSpec()) == replace(base, angular=8)
    bumped = resolve_assembly_spec(rational, 2, 6, QuadratureSpec())
    assert bumped.q == QuadratureSpec().resolved(6, 0).q + 24
    assert bumped.angular == 7
    # no band: the 2D + deg + 1 fallback
    unbanded = resolve_assembly_spec(parse_symbol("1/(2 - z1)", geo), 2, 6, QuadratureSpec())
    assert unbanded.angular == QuadratureSpec().resolved(6, 0).angular == 13
    explicit = QuadratureSpec(q=11, angular=13)
    assert resolve_assembly_spec(rational, 2, 6, explicit) == explicit
    mc = QuadratureSpec(scheme="monte_carlo")
    assert resolve_assembly_spec(rational, 2, 6, mc) is mc


@pytest.mark.parametrize(
    "text", ["re(z1) + 2*abs2(z2)*conj(z1)", "1/(2 - abs2(z)) + z2^3*conj(z1)"]
)
def test_degree_zero_entry_is_the_fft_routes_frequency_zero(text):
    # K = 1 is no special case: it reads residue 0 alone, so each phase
    # matrix is a column of ones, and must give the FFT's frequency 0
    rule = ball_rule(2, 1.0, 12, 40)
    basis = enumerate_basis(2, 0, 1.0)
    fn = as_point_function(parse_symbol(text, None))
    got = toeplitz._assemble_on_torus(rule, fn, basis)[0, 0]
    z = rule.torus_nodes()
    samples = fn(z.reshape(-1, 2)).reshape(z.shape[:-1])
    frequency_zero = np.fft.fftn(samples, axes=(1, 2))[:, 0, 0]
    want = np.sum(rule.radial_weights * basis.norms[0] ** 2 * frequency_zero)
    assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


def _fft_route(rule, fn, basis, keep):
    """Every entry from one ``np.fft.fftn`` over all P^d phases of every
    torus: sum_i w_i R[i, beta] R[i, alpha] F_i[beta - alpha (mod P)]."""
    d, p = basis.d, rule.n_phase
    z = rule.torus_nodes()
    flat = z.reshape(-1, d)
    samples = np.broadcast_to(fn(flat), flat.shape[:-1]).reshape(z.shape[:-1])
    coef = np.fft.fftn(samples, axes=tuple(range(1, d + 1))).reshape(rule.n_radial, -1)
    exps = basis.exponent_array()
    residue = np.mod(exps[:, None, :] - exps[None, :, :], p)  # beta - alpha
    shift = np.ravel_multi_index(tuple(np.moveaxis(residue, -1, 0)), (p,) * d)
    r = toeplitz._monomial_rows(rule.radii, basis).T
    out = np.einsum("ib,ia,iba->ba", r * rule.radial_weights[:, None], r, coef[:, shift])
    return out if keep is None else np.where(keep, out, 0.0)


@pytest.mark.parametrize("banded", [False, True], ids=["every_pair", "band"])
@pytest.mark.parametrize(
    "text, d, D, spec",
    [
        ("z1^2*conj(z1) + 1/(3 - abs2(z))", 1, 5, QuadratureSpec()),
        ("z1^2*conj(z1) + 1/(3 - abs2(z))", 1, 0, QuadratureSpec()),
        ("re(z1)*conj(z2) + 1/(2.5 - abs2(z))", 2, 4, QuadratureSpec()),
        ("re(z1)*conj(z2) + 1/(2.5 - abs2(z))", 2, 0, QuadratureSpec()),
        ("z1*conj(z3)^2 + abs2(z2)", 3, 2, QuadratureSpec()),
        ("z1*conj(z3)^2 + abs2(z2)", 3, 0, QuadratureSpec()),
        # P < 2D + 1: residues alias, so pairs of different beta - alpha
        # share a coefficient
        ("z1^2 + conj(z1)", 1, 6, QuadratureSpec(q=10, angular=4)),
        ("z1^3*conj(z2) + 1/(2 - z1)", 2, 4, QuadratureSpec(q=8, angular=3)),
        ("re(z1) + z2*conj(z3)", 3, 2, QuadratureSpec(q=6, angular=2)),
    ],
)
def test_phase_stage_matches_the_fft_route(text, d, D, spec, banded):
    f = parse_symbol(text, None)
    resolved = resolve_assembly_spec(f, d, D, spec)
    rule = ball_rule(d, 0.5, resolved.q, resolved.angular)
    basis = enumerate_basis(d, D, 0.5)
    keep = toeplitz._band_pairs(axis_band(f, d), f, basis, None) if banded else None
    fn = as_point_function(f)
    got = toeplitz._assemble_on_torus(rule, fn, basis, keep)
    ref = _fft_route(rule, fn, basis, keep)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "spec", [QuadratureSpec(), QuadratureSpec(scheme="monte_carlo", n_samples=4000, seed=5)]
)
def test_a_band_that_keeps_no_pair_gives_zeros_without_evaluating(monkeypatch, spec):
    # z1^5 on B^2 at D = 2: beta_1 - alpha_1 is at most 2, never 5
    def refuse(*args, **kwargs):
        raise AssertionError("nodes built or the symbol evaluated")

    for name in ("evaluate_finite", "ball_rule", "_sample_points"):
        monkeypatch.setattr(toeplitz, name, refuse)
    m = toeplitz_matrix(parse_symbol("z1^5", None), WeightedSpace(2, 0.0), 2, spec)
    assert m.diag is None and m.entries.shape == (6, 6)
    assert np.array_equal(m.entries, np.zeros((6, 6), dtype=complex))


def _band_blind_spec(f, d, D):
    """The automatic orders with 2D + deg + 1 phases, as if f had no band."""
    resolved = resolve_assembly_spec(f, d, D, QuadratureSpec())
    blind = QuadratureSpec().resolved(D, symbol_degree_hint(f))
    return replace(resolved, angular=blind.angular)


@pytest.mark.parametrize(
    "text, geo, D",
    [
        ("conj(z2)/(3 - z1*conj(z1))", BallGeometry(2, 2, (2,)), 4),
        ("sqrt(1 + abs2(z1))*z2", BallGeometry(2, 2, (2,)), 4),
        ("z1/(2 - abs2(z))", BallGeometry(3, 3, (3,)), 2),
        ("prod(a = 1 - r1^2, c = re(zc1))", BallGeometry(2, 1, (1,)), 6),
        # band [-1, 1]^2: a zero band would drop entries up to 0.31 here
        ("abs2(z1 + z2)", BallGeometry(2, 2, (2,)), 3),
    ],
)
def test_band_phase_count_matches_the_band_blind_torus(text, geo, D):
    # the band sets fewer phases, with nothing aliased: the same entries
    # to roundoff, on the honest route and on the fast torus
    f = parse_symbol(text, geo)
    space = WeightedSpace(geo.n, 0.5, geometry=geo)
    blind = _band_blind_spec(f, geo.n, D)
    honest = assembly_path(f, space, D, QuadratureSpec(), use_fast_paths=False)
    assert honest.spec.angular < blind.angular
    ref = toeplitz_matrix(f, space, D, blind, use_fast_paths=False).entries
    scale = np.max(np.abs(ref))
    got = toeplitz_matrix(f, space, D, QuadratureSpec(), use_fast_paths=False).entries
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    if assembly_path(f, space, D, QuadratureSpec()).kind == "torus":
        fast = toeplitz_matrix(f, space, D, QuadratureSpec()).entries
        assert np.max(np.abs(fast - ref)) <= 1e-13 * scale


def test_a_symbol_without_band_keeps_the_band_blind_torus_bitwise():
    f = parse_symbol("1/(2 - z1)", None)
    space = WeightedSpace(2, 0.0)
    path = assembly_path(f, space, 4, QuadratureSpec())
    assert path.record()["band"] is None
    assert path.spec == replace(QuadratureSpec().resolved(4, 0), q=7 + 24)
    rule = ball_rule(2, 0.0, path.spec.q, path.spec.angular)
    every_pair = toeplitz._assemble_on_torus(rule, as_point_function(f), enumerate_basis(2, 4, 0.0))
    assert np.array_equal(toeplitz_matrix(f, space, 4, QuadratureSpec()).entries, every_pair)


@pytest.mark.parametrize(
    "spec", [QuadratureSpec(), QuadratureSpec(scheme="monte_carlo", n_samples=4000, seed=5)]
)
def test_fast_paths_compute_only_the_pairs_in_the_band(spec):
    # band [-1, 1] x {-1}: the only new zeros are the entries off the band
    f = parse_symbol("re(z1)*conj(z2)", None)
    space = WeightedSpace(2, 1.0)
    fast = toeplitz_matrix(f, space, 5, spec).entries
    honest = toeplitz_matrix(f, space, 5, spec, use_fast_paths=False).entries
    exps = enumerate_basis(2, 5, 1.0).exponent_array()
    diff = exps[:, None, :] - exps[None, :, :]  # beta - alpha
    in_band = (np.abs(diff[..., 0]) <= 1) & (diff[..., 1] == -1)
    assert np.all(fast[~in_band] == 0.0)
    if spec.scheme == "monte_carlo":
        # the same samples: the kept entries are the honest ones, bit for bit
        assert np.array_equal(fast[in_band], honest[in_band])
    else:
        assert np.max(np.abs(honest[~in_band])) <= 1e-15
        assert np.max(np.abs(fast - honest)) <= 1e-15


def test_a_product_symbol_has_its_band_only_on_its_own_ball():
    g = BallGeometry(3, 1, (1,))
    f = parse_symbol("prod(a = re(z1), c = zc1)", g)
    assert axis_band(f, 3) == ((-1, 1), (1, 1), (0, 0))
    assert axis_band(f, 2) is None
    # so a ball of another dimension is refused by the evaluation, as before
    with pytest.raises(DomainError, match="dimension 3"):
        toeplitz_matrix(f, WeightedSpace(2, 0.0), 2, QuadratureSpec())
