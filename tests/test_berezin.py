"""Transforms, boundary probes and the Fredholm machinery."""

import math
import time

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    MatrixSymbol,
    QuadratureSpec,
    WeightedSpace,
    berezin_of_operator,
    berezin_of_symbol,
    boundary_vanishing_probe,
    default_radius_schedule,
    essential_spectrum_sample,
    fredholm_index_report,
    gamma_sequence,
    min_singular_probe,
    mobius,
    parse_symbol,
    quantization_probe,
    toeplitz_matrix,
)
from berglab import berezin, toeplitz
from berglab.berezin import (
    berezin_plan,
    berezin_transform,
    decay_table,
    kernel_coefficients,
    kernel_masses,
    kernel_tail,
    kernel_tail_at_most,
    radial_expansion_degree,
)
from berglab.core import enumerate_basis
from berglab.levels import _TAIL_CAP
from berglab.quadrature import MONTE_CARLO, as_point_function, ball_rule, monte_carlo_points
from test_kernel_masses import SWEEP_S, SWEEP_T, _log_first_tail_mass


def _kernel_form_berezin(g, mu, z):
    """Reference transform without the Mobius substitution: g integrated
    against |k_z|^2 dv_mu directly, on a fixed product rule (deep enough
    for |z| <= 0.65) streamed by radial slab."""
    z = np.asarray(z, dtype=complex)
    d = z.shape[0]
    t = float(np.sum(np.abs(z) ** 2))
    s_exp = d + mu + 1.0
    fn = as_point_function(g)
    rule = ball_rule(d, mu, 32, 64)
    total = 0j
    for start in range(0, rule.n_radial, 64):
        rows = slice(start, start + 64)
        w = rule.torus_nodes(rows).reshape(-1, d)
        dens = (1.0 - t) ** s_exp / np.abs(1.0 - w @ np.conj(z)) ** (2.0 * s_exp)
        weights = np.repeat(rule.radial_weights[rows], rule.n_phase**d)
        total += np.dot(weights, np.asarray(fn(w)) * dens)
    return complex(total)


def test_mobius_is_an_involution():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        z = rng.normal(size=d) * 0.3 + 1j * rng.normal(size=d) * 0.2
        w = rng.normal(size=(5, d)) * 0.25
        back = mobius(z, mobius(z, w))
        assert np.max(np.abs(back - w)) < 1e-12


def test_mobius_swaps_origin_and_center():
    z = np.array([0.4 + 0.1j, -0.2j])
    assert np.max(np.abs(mobius(z, np.zeros((1, 2))) - z)) < 1e-14
    assert np.max(np.abs(mobius(z, z[None, :]))) < 1e-14


def test_mobius_stays_in_ball():
    rng = np.random.default_rng(3)
    z = np.array([0.5, 0.3j])
    w = rng.normal(size=(50, 2)) * 0.4
    w = w[np.sum(np.abs(w) ** 2, axis=1) < 1.0]
    img = mobius(z, w)
    assert np.all(np.sum(np.abs(img) ** 2, axis=1) < 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mobius_keeps_the_points_layout_and_the_formula_bits(d):
    # axis-major points, as a torus slab stores them: each coordinate is
    # one contiguous block, and so is each coordinate of the image
    rng = np.random.default_rng(4)
    z = rng.normal(size=d) * 0.3 + 1j * rng.normal(size=d) * 0.2
    block = (rng.normal(size=(d, 40)) + 1j * rng.normal(size=(d, 40))) * 0.2
    w = np.moveaxis(block, 0, -1)
    img = mobius(z, w)
    assert w.flags.f_contiguous
    assert img.shape == w.shape and img.flags.f_contiguous
    # P_z w and its complement on the whole (N, d) array at once
    t = float(np.sum(np.abs(z) ** 2))
    wz = w @ np.conj(z)
    proj = (wz / t)[:, None] * z
    want = (z - proj - np.sqrt(1.0 - t) * (w - proj)) / (1.0 - wz)[:, None]
    assert np.array_equal(img, want)
    assert np.array_equal(mobius(z, w[0]), want[0])


def test_kernel_coefficients_match_binomial_series():
    # pairing the normalized kernel against the basis values at z gives
    # (1 - |z|^2)^(s/2) K(z, z) = (1 - |z|^2)^(-s/2)
    basis = enumerate_basis(1, 24, 2.0)
    z = [0.4]
    s = 1.0 + 2.0 + 1.0
    coeffs = kernel_coefficients(basis.norms, basis.exponent_array(), z, s_exp=s)
    e_at_z = basis.norms * (0.4 ** np.arange(25))
    total = np.real(np.dot(coeffs, e_at_z))
    assert total == pytest.approx((1 - 0.16) ** (-s / 2.0), rel=1e-10)
    # the coefficient vector of a unit vector has norm at most 1
    assert float(np.vdot(coeffs, coeffs).real) <= 1.0 + 1e-14


def test_berezin_refuses_a_point_of_another_dimension():
    mat = toeplitz_matrix(parse_symbol("1 - abs2(z)", None), WeightedSpace(1, 0.0), 8,
                          QuadratureSpec())
    for z in ([0.3, 0.4], [], [[0.3], [0.1]]):
        with pytest.raises(DomainError):
            berezin_of_operator(mat, 0.0, z)
    basis = enumerate_basis(2, 3, 0.0)
    with pytest.raises(DomainError):
        kernel_coefficients(basis.norms, basis.exponent_array(), [0.3], 4.0)
    assert berezin_of_operator(mat, 0.0, [0.3]) == berezin_of_operator(mat, 0.0, [[0.3]])


def test_berezin_of_identity_operator_is_one():
    # cutoff deep enough that the kernel tail sits below the tolerance
    space = WeightedSpace(1, 1.0)
    mat = toeplitz_matrix(parse_symbol("1", None), space, 60, QuadratureSpec())
    for t in (0.0, 0.2, 0.5):
        val = berezin_of_operator(mat, 1.0, [complex(np.sqrt(t))])
        assert val.real == pytest.approx(1.0, abs=1e-12)
        assert abs(val.imag) < 1e-14


def test_berezin_at_origin_is_weighted_mean():
    spec = QuadratureSpec()
    f = parse_symbol("1 - abs2(z)", None)
    for d, mu in [(1, 1.0), (1, 4.0), (2, 2.0)]:
        got = berezin_of_symbol(f, mu, [0.0] * d, spec)
        assert got.real == pytest.approx((mu + 1.0) / (d + mu + 1.0), abs=1e-12)


def test_berezin_sides_agree_off_origin():
    spec = QuadratureSpec()
    f = parse_symbol("re(z1)", None)
    space = WeightedSpace(1, 2.0)
    mat = toeplitz_matrix(f, space, 60, spec)
    for t in (0.1, 0.3, 0.5):
        z = [complex(np.sqrt(t))]
        op_side = berezin_of_operator(mat, 2.0, z)
        sym_side = berezin_of_symbol(f, 2.0, z, spec)
        assert abs(op_side - sym_side) < 1e-6


@pytest.mark.parametrize(
    "text", ["re(z1)", "z1*conj(z2) + abs2(z1)", "1/(2 - abs2(z))", "re(z1)^2"]
)
def test_berezin_matches_kernel_form(text):
    # the Mobius pullback (and, for 1/(2 - abs2(z)), the radial diagonal
    # expansion) against a direct kernel-form integral
    spec = QuadratureSpec()
    f = parse_symbol(text, BallGeometry(2, 2, (2,)))
    points = ([0.3 + 0.1j, -0.15 + 0.15j], [0.5 - 0.2j, 0.25 + 0.2j])  # |z| 0.38, 0.63
    for z in points:
        for mu in (0.0, 2.0):
            want = _kernel_form_berezin(f, mu, z)
            assert abs(berezin_of_symbol(f, mu, z, spec) - want) <= 1e-12, (z, mu)


@pytest.mark.parametrize(
    "text, mu, z",
    [("z1*conj(z2) + abs2(z1)", 2.0, (0.5, 0.35j)), ("re(z1)", 0.0, (0.63, 0.0))],
)
def test_monte_carlo_berezin_is_the_sample_mean_of_the_pullback(text, mu, z):
    # the sampling branch: the mean of g o phi_z over the weight's samples
    spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=50_000, seed=9)
    f = parse_symbol(text, None)
    pts, _ = monte_carlo_points(2, mu, spec.n_samples, spec.seed)
    want = complex(np.mean(as_point_function(f)(mobius(np.asarray(z), pts))))
    got = berezin_of_symbol(f, mu, z, spec)
    assert abs(got - want) <= 1e-14
    # and it estimates the kernel-form integral to sampling accuracy
    assert abs(got - _kernel_form_berezin(f, mu, z)) < 2e-2


def test_quantization_probe_decay():
    spec = QuadratureSpec()
    f = parse_symbol("1 - abs2(z)", None)
    ts = np.linspace(0.0, 0.5, 6)
    grid = np.sqrt(ts)[:, None].astype(complex)
    table = quantization_probe(f, [1.0, 2.0, 4.0, 8.0], grid, spec)
    errs = [row[1] for row in table.rows]
    assert errs == sorted(errs, reverse=True)
    # sup over the grid of |f - B_mu f| for f = 1 - t peaks at t = 0
    assert errs[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    lines = table.csv_lines()
    assert lines[0] == "mu,sup_error"
    with pytest.raises(DomainError, match="at least one point"):
        quantization_probe(f, [1.0], np.zeros((0, 1)), spec)


def test_quantization_probe_of_a_constant_product_symbol():
    # a constant product has one value per grid point, as any symbol does
    g = BallGeometry(2, 1, (1,))
    f = parse_symbol("prod(a = 1, c = 2)", g)
    grid = np.array([[0.1, 0.2j], [0.3, -0.1]])
    table = decay_table([berezin_plan(f, mu, grid, QuadratureSpec(), geometry=g)
                         for mu in (1.0, 4.0)])
    assert [mu for mu, _ in table.rows] == [1.0, 4.0]
    assert all(err <= 1e-13 for _, err in table.rows)


def test_boundary_probe_monotone_and_validated():
    spec = QuadratureSpec()
    f = parse_symbol("1 - abs2(z)", None)
    radii = default_radius_schedule(6, include_terminal=False)
    table = boundary_vanishing_probe(f, 2.0, radii, spec=spec)
    vals = [row[1] for row in table.rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05
    with pytest.raises(DomainError):
        boundary_vanishing_probe(f, 2.0, [1.0], spec=spec)


def test_radius_schedule():
    radii = default_radius_schedule(4, include_terminal=True)
    assert radii[:4] == (0.5, 0.75, 0.875, 0.9375)
    assert radii[-1] == 1.0
    assert default_radius_schedule(4, include_terminal=False)[-1] < 1.0


def test_matrix_symbol_diagonal_det():
    c = MatrixSymbol.diagonal(
        [parse_symbol("2 - abs2(zc)", None), parse_symbol("3 - abs2(zc)", None)]
    )
    pts = np.array([[0.0 + 0.0j, 0.0], [0.5, 0.0]])
    dets = c.det_on_points(pts)
    assert dets[0] == pytest.approx(6.0)
    assert dets[1] == pytest.approx((2 - 0.25) * (3 - 0.25))


def test_spectrum_sample_scalar_fredholm():
    c = parse_symbol("2 - abs2(z)", None)
    sample = essential_spectrum_sample(c, 2)
    assert sample.fredholm
    # on the boundary sphere the symbol is exactly 1
    terminal = [v for rho, r, v in sample.rows if r == 1.0]
    assert terminal and max(abs(v - 1.0) for v in terminal) < 1e-6


def test_spectrum_sample_detects_vanishing():
    c = parse_symbol("z1", None)
    sample = essential_spectrum_sample(c, 2)
    assert not sample.fredholm
    assert sample.min_abs_det < sample.threshold


def test_spectrum_sample_is_seeded():
    c = parse_symbol("2 - abs2(z)", None)
    s1 = essential_spectrum_sample(c, 2, seed=5)
    s2 = essential_spectrum_sample(c, 2, seed=5)
    assert s1.rows == s2.rows


def test_spectrum_weighted_variant():
    g = BallGeometry(1, 1, (1,))
    gamma = gamma_sequence(parse_symbol("r1^2", g), (1,), 0.0, 4)
    c = parse_symbol("2 - abs2(z)", None)
    sample = essential_spectrum_sample(c, 2, gamma=gamma)
    totals = {rho for rho, _, _ in sample.rows}
    assert totals == {0, 1, 2, 3, 4}
    assert sample.fredholm


def test_fredholm_report_scalar_index_zero():
    c = parse_symbol("2 - abs2(z)", None)
    sample = essential_spectrum_sample(c, 2)
    report = fredholm_index_report(c, sample)
    assert report.index == 0
    assert any("index = 0" in line for line in report.text_lines())


def test_fredholm_report_refuses_vanishing_symbol():
    c = parse_symbol("z1", None)
    sample = essential_spectrum_sample(c, 2)
    with pytest.raises(DomainError):
        fredholm_index_report(c, sample)


def test_fredholm_matrix_symbol_index_zero():
    c = MatrixSymbol.diagonal(
        [parse_symbol("2 - abs2(z)", None), parse_symbol("3 - abs2(z)", None)]
    )
    sample = essential_spectrum_sample(c, 2)
    report = fredholm_index_report(c, sample)
    assert report.index == 0


def test_min_singular_probe_verdicts():
    spec = QuadratureSpec()
    flat_mats = []
    dec_mats = []
    for D in (4, 8, 16):
        space = WeightedSpace(2, 2.0)
        flat_mats.append(
            toeplitz_matrix(parse_symbol("2 - abs2(z)", None), space, D, spec)
        )
        dec_mats.append(toeplitz_matrix(parse_symbol("z1", None), space, D, spec))
    assert min_singular_probe(flat_mats).verdict == "flat"
    assert min_singular_probe(dec_mats).verdict == "decaying"
    with pytest.raises(DomainError):
        min_singular_probe([])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_min_singular_probe_refuses_a_non_finite_matrix(bad):
    a = np.eye(4, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        min_singular_probe([np.eye(3), a])
    with pytest.raises(DomainError, match="2-D"):
        min_singular_probe([np.ones(3)])


def test_min_singular_probe_refuses_a_matrix_with_no_singular_values():
    with pytest.raises(DomainError, match="0 x 0 matrix has no singular values"):
        min_singular_probe([np.zeros((0, 0))])


def test_kernel_tail_is_the_mass_beyond_the_cutoff():
    for s_exp, D, t in [(2.0, 10, 0.3), (12.0, 40, 0.5), (4.5, 200, 0.9)]:
        mass = float(kernel_masses(s_exp, D + 1, t).sum())
        assert kernel_tail(s_exp, D, t) == pytest.approx(1.0 - mass, abs=1e-14)


def test_radial_berezin_keeps_the_imaginary_part():
    spec = QuadratureSpec()
    real = berezin_of_symbol(parse_symbol("abs2(z)", None), 0.0, [0.5], spec)
    got = berezin_of_symbol(parse_symbol("i*abs2(z)", None), 0.0, [0.5], spec)
    assert got == pytest.approx(1j * real, abs=1e-15)
    assert abs(got - 0.589j) < 1e-3


@pytest.mark.parametrize("t", [1.0 - 1e-4, 1.0 - 1e-12])
def test_radial_expansion_near_the_sphere_is_refused_before_allocating(t):
    # at t = 1 - 1e-4 the expansion needs ~42,000 degrees: a 42,000 x 21,000
    # eigenvalue table, far past the budget
    start = time.perf_counter()
    with pytest.raises(DomainError, match="desk budget"):
        f = parse_symbol("abs2(z)", None)
        berezin_of_symbol(f, 2.0, [np.sqrt(t)], QuadratureSpec())
    assert time.perf_counter() - start < 1.0
    # the default probe schedule stays well inside it
    r = default_radius_schedule(6, include_terminal=False)[-1]
    assert radial_expansion_degree(1, 2.0, r**2) < 2000


def test_symbol_transform_refuses_a_geometry_of_another_dimension():
    # the route is chosen on the weighted space of z, which carries the geometry
    g = BallGeometry(3, 3, (3,))
    for text in ("1 - abs2(z)", "re(z1)"):
        with pytest.raises(DomainError, match="differs from the geometry"):
            berezin_transform(berezin_plan(parse_symbol(text, g), 1.0, (0.3, 0.2),
                                           QuadratureSpec(), geometry=g))


def test_symbol_transform_integrates_with_the_pullback_orders(monkeypatch):
    seen = []
    real = berezin.assemble

    def spy(path):
        seen.append(path.spec)
        return real(path)

    monkeypatch.setattr(berezin, "assemble", spy)
    g = parse_symbol("re(z1)", None)
    spec = QuadratureSpec()
    for r, orders in ((0.0, (22, 38)), (0.3, (24, 50)), (0.6, (30, 83))):
        z = np.array([r, 0.0], dtype=complex)
        berezin_of_symbol(g, 1.0, z, spec)
        (route,) = berezin_plan(g, 1.0, z, spec).routes
        assert route.kind == "torus" and seen[-1] == route.spec
        assert (route.spec.q, route.spec.angular) == orders
    # the orders rise toward the sphere; a sampling spec passes through
    assert seen[0].q < seen[-1].q and seen[0].angular < seen[-1].angular
    mc = QuadratureSpec(scheme=MONTE_CARLO, n_samples=1000)
    assert berezin_plan(g, 1.0, [0.9, 0.0], mc).routes[0].spec == mc


def test_the_pullback_plan_refuses_what_the_transform_would(monkeypatch):
    # on the 3-ball the pullback of re(z1) needs 584,277,056 nodes at the centre
    def refuse(*args, **kwargs):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(toeplitz, "ball_rule", refuse)
    g = parse_symbol("re(z1)", None)
    spec = QuadratureSpec()
    with pytest.raises(DomainError, match="584277056 nodes"):
        berezin_plan(g, 0.0, [0.0, 0.0, 0.0], spec)
    with pytest.raises(DomainError, match="584277056 nodes"):
        berezin_of_symbol(g, 0.0, [0.0, 0.0, 0.0], spec)


def test_the_radial_plan_is_the_expansion_degree_taken_once(monkeypatch):
    """On the radial route the plan is ``radial_expansion_degree``, with
    its refusal, and the transform computes that degree once per point."""
    calls = []
    real = berezin.radial_expansion_degree

    def spy(d, nu, t):
        calls.append((d, nu, t))
        return real(d, nu, t)

    monkeypatch.setattr(berezin, "radial_expansion_degree", spy)
    f = parse_symbol("1/(2 - abs2(z))", None)
    z = [0.5, 0.3j]
    t = 0.5**2 + 0.3**2
    assert berezin_plan(f, 4.0, z, QuadratureSpec()).routes == (real(2, 4.0, t),)
    calls.clear()
    berezin_of_symbol(f, 4.0, z, QuadratureSpec())
    assert calls == [(2, 4.0, t)]
    with pytest.raises(DomainError, match="radial Berezin expansion"):
        berezin_plan(f, 16.0, [np.sqrt(0.995), 0.0], QuadratureSpec())


# points of the 2-ball: the centre, two of one radius, and radii toward the sphere
POINT_SET = [[0.0, 0.0], [0.3, 0.4j], [0.4j, 0.3], [0.6 + 0.2j, -0.3], [0.5, 0.5],
             [0.9, 0.1j]]


@pytest.mark.parametrize("text, points", [
    ("1 - abs2(z) + 0.5*abs2(z)^2", POINT_SET),  # exact diagonal
    ("1/(2 - abs2(z))", POINT_SET),  # the rule its profile callable takes
    ("re(z1) + abs2(z1)", [[0.0], [0.3], [0.2 + 0.3j], [-0.5j]]),  # the pullback
])
def test_a_point_set_transform_keeps_the_bits_of_one_point_calls(monkeypatch, text, points):
    spec = QuadratureSpec()
    points = np.array(points, dtype=complex)
    d = points.shape[1]
    f = parse_symbol(text, BallGeometry(d, d, (d,)))
    for mu in (0.0, 3.0):
        # each side builds its exact sequence afresh: the set's is summed
        # once to its top degree, the points' extended point by point
        monkeypatch.setattr(berezin, "_EXACT_SEQUENCES", {})
        got = berezin_of_symbol(f, mu, points, spec)
        monkeypatch.setattr(berezin, "_EXACT_SEQUENCES", {})
        want = [berezin_of_symbol(f, mu, z, spec) for z in points]
        assert all(type(w) is complex for w in want)
        assert got.dtype == complex and got.tobytes() == np.array(want).tobytes(), (text, mu)
        routes = berezin_plan(f, mu, points, spec).routes
        assert routes == tuple(berezin_plan(f, mu, z, spec).routes[0] for z in points)
        assert all(isinstance(route, int) == ("re(" not in text) for route in routes)
    assert berezin_of_symbol(f, 1.0, points[:0], spec).shape == (0,)


def test_a_point_set_takes_one_route_and_one_rule_per_degree(monkeypatch):
    radial_calls, tops = [], []
    is_radial, diagonal_values = berezin.is_radial, berezin.diagonal_values

    def radial_spy(*args):
        radial_calls.append(args)
        return is_radial(*args)

    def diagonal_spy(a, k, lam, levels, *args):
        tops.append(int(np.max(levels)))
        return diagonal_values(a, k, lam, levels, *args)

    monkeypatch.setattr(berezin, "is_radial", radial_spy)
    monkeypatch.setattr(berezin, "diagonal_values", diagonal_spy)
    spec = QuadratureSpec()
    points = np.array(POINT_SET, dtype=complex)
    f = parse_symbol("1/(2 - abs2(z))", None)
    degrees = berezin_plan(f, 3.0, points, spec).routes
    assert len(set(degrees)) == 5 < len(degrees)  # two points share a radius
    radial_calls.clear()
    berezin_of_symbol(f, 3.0, points, spec)
    assert len(radial_calls) == 1 and tops == sorted(set(degrees))
    # a polynomial sums its diagonal once, to the largest degree
    monkeypatch.setattr(berezin, "_EXACT_SEQUENCES", {})
    tops.clear()
    berezin_of_symbol(parse_symbol("1 - abs2(z)", None), 3.0, points, spec)
    assert tops == [max(degrees)]


def test_the_probes_transform_each_weight_once(monkeypatch):
    spec = QuadratureSpec()
    f = parse_symbol("1 - abs2(z) + 0.25*abs2(z)^3", None)
    grid = np.sqrt(np.linspace(0.0, 0.6, 7))[:, None].astype(complex)
    radii = default_radius_schedule(5, include_terminal=False)
    mus = [1.0, 2.0, 8.0]
    # the one-point loops the probes replace
    want = [(mu, max([0.0] + [abs(berezin_of_symbol(f, mu, z, spec) - (1.0 - t + 0.25 * t**3))
                              for z, t in zip(grid, np.abs(grid[:, 0]) ** 2)]))
            for mu in mus]
    want_boundary = [
        (r, abs(complex(as_point_function(f)(np.array([[r + 0j]]))[0])
                - berezin_of_symbol(f, 2.0, [r], spec)))
        for r in radii
    ]
    shapes = []
    transform = berezin.berezin_transform

    def spy(plan):
        shapes.append(plan.points.shape)
        return transform(plan)

    monkeypatch.setattr(berezin, "berezin_transform", spy)
    assert quantization_probe(f, mus, grid, spec).rows == tuple(want)
    assert shapes == [(7, 1)] * 3
    shapes.clear()
    assert boundary_vanishing_probe(f, 2.0, radii, spec).rows == tuple(want_boundary)
    assert shapes == [(5, 1)]


def _near_cap_points(s_exp, D, cap):
    """t on both sides of where kernel_tail(s_exp, D, t) crosses cap, the
    tail at each within 1e-7 relative of the cap, by bisection in
    log(t / (1 - t))."""

    def at(u):
        t = 1.0 / (1.0 + math.exp(-u))
        return t, float(kernel_tail(s_exp, D, t))

    (t_lo, tail_lo), (t_hi, tail_hi) = at(-40.0), at(40.0)
    u_lo, u_hi = -40.0, 40.0
    while max(cap - tail_lo, tail_hi - cap) > 1e-7 * cap:
        u = 0.5 * (u_lo + u_hi)
        t, tail = at(u)
        if tail <= cap:
            u_lo, t_lo, tail_lo = u, t, tail
        else:
            u_hi, t_hi, tail_hi = u, t, tail
    return [t_lo, t_hi]


def test_the_tail_bounds_decide_as_the_tail_does(monkeypatch):
    """Recovery's usability test, ``kernel_tail <= _TAIL_CAP``, from the
    first tail mass and its geometric bound, and the tail itself only
    where they leave it open: at the points bisected onto the cap."""
    cap, slack = _TAIL_CAP, berezin._TAIL_SLACK
    asked = []

    def spy(s_exp, D, t):
        asked.extend(np.atleast_1d(t).tolist())
        return kernel_tail(s_exp, D, t)

    monkeypatch.setattr(berezin, "kernel_tail", spy)
    near = 0
    for s_exp in SWEEP_S:
        for D in (1, 60, 1800):
            close = _near_cap_points(s_exp, D, cap)
            ts = np.array(SWEEP_T + [math.nan, 1.0, 1.5, -0.5] + close)
            asked.clear()
            got = kernel_tail_at_most(s_exp, D, ts, cap)
            assert np.array_equal(got, kernel_tail(s_exp, D, ts) <= cap), (s_exp, D)
            unsure = []
            for t in ts[(ts > 0.0) & (ts < 1.0)].tolist():
                log_first = _log_first_tail_mass(s_exp, D, t)
                r = t * max(1.0, (s_exp + D + 1.0) / (D + 2.0))
                above = log_first > math.log(cap) + slack
                below = r < 1.0 and log_first - math.log1p(-r) < math.log(cap) - slack
                if not (above or below):
                    unsure.append(t)
            assert asked == unsure, (s_exp, D)
            assert set(close) <= set(unsure)
            near += len(close)
    assert near == 2 * len(SWEEP_S) * 3
