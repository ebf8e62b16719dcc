"""Matrix assembly against closed-form eigenvalues and exact identities."""

import json
import math
import pathlib
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    OperatorMatrix,
    QuadratureSpec,
    WeightedSpace,
    assembly_path,
    berezin_of_operator,
    berezin_of_symbol,
    block_norms,
    export_matrix_csv,
    diagonal_values,
    gamma_sequence,
    level_block_direct,
    off_block_mass,
    operator_norm,
    parse_symbol,
    radial_toeplitz_diagonal,
    semicommutator,
    toeplitz_matrix,
    toeplitz_matrix_with_stderr,
)
from berglab import quadrature, toeplitz
from berglab.cli import main
from berglab.core import count_basis, enumerate_basis
from berglab.quadrature import MONTE_CARLO
from berglab.symbols import BinOp, profile_form, quasi_radial_profile
from polynomial_reference import expand_polynomial


def test_identity_symbol_gives_exact_identity():
    """T_1 must be the identity bitwise, not merely to roundoff."""
    diag = radial_toeplitz_diagonal(lambda r: np.ones(len(r)), 1, 0.0, 200)
    assert np.all(diag == 1.0)
    space = WeightedSpace(2, 0.5)
    mat = toeplitz_matrix(parse_symbol("1", None), space, 6, QuadratureSpec())
    assert np.array_equal(mat.entries, np.eye(mat.size))


def test_radial_eigenvalue_closed_form():
    # a(t) = t acting on degree-m monomials of the d-ball, weight mu
    for d, mu, m in [(1, 0.0, 0), (1, 2.0, 5), (2, 0.5, 3), (3, 1.0, 0)]:
        got = radial_toeplitz_diagonal(lambda r: r[:, 0] ** 2, d, mu, m)[m]
        assert got == pytest.approx((m + d) / (m + d + mu + 1.0), abs=1e-13)


def test_radial_diagonal_matches_eigenvalues():
    diag = radial_toeplitz_diagonal(lambda r: 1.0 - r[:, 0] ** 2, 1, 0.0, 6)
    expect = [1.0 - (m + 1.0) / (m + 2.0) for m in range(7)]
    assert np.allclose(diag, expect, atol=1e-13)


def test_gamma_of_one_is_exactly_one():
    seq = gamma_sequence(parse_symbol("1", None), (1, 1), 0.5, 6)
    assert all(v == 1.0 for v in seq.values())


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_gamma_closed_form_single_group(ell, lam):
    # profile r1^2 on one group of size ell: (rho + ell) / (rho + ell + lam + 1)
    g = BallGeometry(ell, ell, (ell,))
    profile = parse_symbol("r1^2", g)
    seq = gamma_sequence(profile, (ell,), lam, 10)
    for rho in range(11):
        expect = (rho + ell) / (rho + ell + lam + 1.0)
        assert seq[(rho,)] == pytest.approx(expect, abs=1e-10)


def test_gamma_quasi_radial_two_groups():
    # product profile r1^2 * r2^2 factorizes through the groups
    k = (1, 1)
    profile = parse_symbol("r1^2 * r2^2", BallGeometry(2, 2, k))
    (got,) = diagonal_values(profile, k, 0.0, [(1, 2)])
    lam_eff = 0.0
    # evaluate each factor against the same 2-group simplex measure
    (g1,) = diagonal_values(parse_symbol("r1^2", BallGeometry(2, 2, k)), k, lam_eff,
                            [(1, 2)])
    assert 0.0 < got < g1  # the extra factor shrinks the mean


@pytest.mark.parametrize(
    "lam, rho, expect",
    [(500.0, (300, 300), 0.8187), (1000.0, (2000, 10), 0.6714), (0.0, (3000, 3000), 1.4998)],
)
def test_several_group_rule_keeps_its_mass_at_large_weights_and_levels(lam, rho, expect):
    # the per-axis Gauss-Jacobi weights of these levels underflow to 0
    k = (1, 1)
    f = parse_symbol("r1^2 + 2*r2^2", BallGeometry(2, 2, k))
    (ruled,) = diagonal_values(quasi_radial_profile(f, 2), k, lam, [rho])
    (exact,) = diagonal_values(f, k, lam, [rho])
    assert exact == pytest.approx(expect, abs=5e-5)
    assert abs(ruled - exact) <= 1e-12 * abs(exact)


def test_basis_norms_past_the_float_range_are_refused():
    f = parse_symbol("1/(2 - abs2(z))", None)
    with pytest.raises(DomainError, match=r"degree \d+\) at weight 1000\.0 overflows"):
        toeplitz_matrix(f, WeightedSpace(1, 1000.0), 2000, QuadratureSpec())


@pytest.mark.parametrize("text", ["r1^2", "1/(2 - r1^2)"])
def test_diagonal_requests_outside_the_envelope_are_refused(text):
    # the exact route (a polynomial profile) checks what the rule route does
    disk = BallGeometry(1, 1, (1,))
    f = parse_symbol(text, disk)
    radial = parse_symbol(text.replace("r1^2", "abs2(z)"), None)
    for lam in (-1.0, -1.5, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="exceed -1"):
            gamma_sequence(f, (1,), lam, 3)
        with pytest.raises(DomainError, match="exceed -1"):
            radial_toeplitz_diagonal(radial, 1, lam, 3)
    for k in [(), (0,), (1, 0)]:
        with pytest.raises(DomainError, match="partition"):
            gamma_sequence(f, k, 0.0, 3)
    with pytest.raises(DomainError, match="partition"):
        radial_toeplitz_diagonal(radial, 0, 0.0, 3)
    with pytest.raises(DomainError, match="nonnegative"):
        diagonal_values(f, (1,), 0.0, [0, 1, -1])
    with pytest.raises(DomainError, match="nonnegative"):
        diagonal_values(f, (1, 1), 0.0, [(0, 1), (2, -1)])
    with pytest.raises(DomainError, match=r"\(N, 2\)"):
        diagonal_values(f, (1, 1), 0.0, [0, 1])
    with pytest.raises(DomainError, match="nonnegative"):
        radial_toeplitz_diagonal(radial, 1, 0.0, -1)
    with pytest.raises(DomainError, match="nonnegative"):
        gamma_sequence(f, (1,), 0.0, -2)
    for other in ("abs2(z1)", "prod(a = r1^2, c = 1 - abs2(zc))"):
        with pytest.raises(DomainError, match="not a profile"):
            gamma_sequence(parse_symbol(other, None), (1,), 0.0, 3)
    # the envelope's edges stay open
    assert gamma_sequence(f, (1,), -0.5, 0)[(0,)] > 0.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("text", ["1/(2 - r1^2)", "sqrt(1 + r1^2)"])
def test_one_group_gamma_is_the_radial_diagonal_bitwise(d, text):
    # one group spanning the ball: gamma and the radial eigenvalues are one route
    g = BallGeometry(d, d, (d,))
    seq = gamma_sequence(parse_symbol(text, g), (d,), 0.5, 12)
    radial = parse_symbol(text.replace("r1^2", "abs2(z)"), None)
    want = radial_toeplitz_diagonal(radial, d, 0.5, 12)
    assert np.array_equal(list(seq.values()), want)


def test_norm_identity_diagonal_and_quadrature():
    d = 1
    for mu in [1.0, 2.0, 4.0]:
        space = WeightedSpace(d, mu)
        f = parse_symbol("1 - abs2(z)", None)
        fast = toeplitz_matrix(f, space, 8, QuadratureSpec())
        slow = toeplitz_matrix(f, space, 8, QuadratureSpec(), use_fast_paths=False)
        expect = (mu + 1.0) / (d + mu + 1.0)
        assert operator_norm(fast) == pytest.approx(expect, abs=1e-10)
        assert operator_norm(slow) == pytest.approx(expect, abs=1e-6)


def test_fast_and_slow_paths_agree():
    g = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.5, geometry=g)
    for text in ["1 - abs2(z)", "abs2(z1)", "re(z1)"]:
        f = parse_symbol(text, g)
        fast = toeplitz_matrix(f, space, 4, QuadratureSpec())
        slow = toeplitz_matrix(f, space, 4, QuadratureSpec(), use_fast_paths=False)
        assert np.max(np.abs(fast.entries - slow.entries)) < 1e-9, text


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("text", ["i*abs2(z)", "(1+i)*(1-abs2(z))"])
def test_complex_radial_fast_path_matches_quadrature(d, text):
    space = WeightedSpace(d, 0.5)
    f = parse_symbol(text, None)
    fast = toeplitz_matrix(f, space, 4, QuadratureSpec())
    honest = toeplitz_matrix(f, space, 4, QuadratureSpec(), use_fast_paths=False)
    assert np.max(np.abs(fast.entries - honest.entries)) <= 1e-10


def test_complex_quasi_radial_fast_path_matches_quadrature():
    g = BallGeometry(2, 2, (1, 1))
    f = parse_symbol("i*r1^2", g)
    space = WeightedSpace(2, 0.0, geometry=g)
    fast = toeplitz_matrix(f, space, 4, QuadratureSpec())
    honest = toeplitz_matrix(f, space, 4, QuadratureSpec(), use_fast_paths=False)
    assert np.max(np.abs(fast.entries - honest.entries)) <= 1e-10
    seq = gamma_sequence(f, (1, 1), 0.0, 2)
    real = gamma_sequence(parse_symbol("r1^2", g), (1, 1), 0.0, 2)
    for rho in seq:
        assert seq[rho] == pytest.approx(1j * real[rho], abs=1e-15)


def test_real_symbol_gives_hermitian_matrix():
    g = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=g)
    f = parse_symbol("re(z1) + abs2(z)", g)
    mat = toeplitz_matrix(f, space, 4, QuadratureSpec())
    assert np.max(np.abs(mat.entries - mat.entries.conj().T)) < 1e-12


def test_winding_mask_zeroes_are_exact():
    space = WeightedSpace(1, 0.0)
    mat = toeplitz_matrix(parse_symbol("z1", None), space, 5, QuadratureSpec())
    # only the first subdiagonal survives: beta = alpha + 1
    for i in range(mat.size):
        for j in range(mat.size):
            if j != i + 1:
                assert mat.entries[j, i] == 0.0


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    expect = float(np.linalg.svd(a, compute_uv=False)[0])
    assert operator_norm(a) == pytest.approx(expect, rel=1e-12)


def test_semicommutator_degree_zero_entry():
    # c1 = c2 = 1 - abs2 on the disk at weight 0: entry (0,0) is
    # <c1 c2>_0 - sum_m <c1 e_m, e_0><c2 e_0, e_m> = 1/3 - ... = -1/12
    space = WeightedSpace(1, 0.0)
    f = parse_symbol("1 - abs2(z)", None)
    sc = semicommutator(f, f, space, 24, QuadratureSpec())
    assert sc.entries[0, 0].real == pytest.approx(-1.0 / 12.0, abs=1e-10)
    assert abs(sc.entries[0, 0].imag) < 1e-14


def test_semicommutator_norms_shrink_with_weight():
    f = parse_symbol("1 - abs2(z)", None)
    norms = []
    for mu in [1.0, 4.0, 16.0]:
        sc = semicommutator(f, f, WeightedSpace(1, mu), 24, QuadratureSpec())
        norms.append(operator_norm(sc))
    assert norms[0] > norms[1] > norms[2]


def test_monte_carlo_assembly_and_errors():
    g = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=g)
    f = parse_symbol("1 - abs2(z)", g)
    spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=150_000, seed=9)
    approx, se = toeplitz_matrix_with_stderr(f, space, 3, spec)
    exact = toeplitz_matrix(f, space, 3, QuadratureSpec())
    dev = np.abs(approx.entries - exact.entries)
    assert np.all(dev <= 5.0 * se + 1e-12)
    assert np.all(se >= 0.0)
    with pytest.raises(DomainError):
        toeplitz_matrix_with_stderr(f, space, 3, QuadratureSpec())


def test_monte_carlo_assembly_is_seeded():
    space = WeightedSpace(1, 0.0)
    f = parse_symbol("1 - abs2(z)", None)
    spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=20_000, seed=123)
    m1 = toeplitz_matrix(f, space, 3, spec)
    m2 = toeplitz_matrix(f, space, 3, spec)
    assert np.array_equal(m1.entries, m2.entries)


def test_csv_export_is_deterministic(tmp_path):
    space = WeightedSpace(1, 1.0)
    mat = toeplitz_matrix(parse_symbol("2 - abs2(z)", None), space, 4, QuadratureSpec())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_matrix_csv(mat, str(p1), symbol_text="2 - abs2(z)")
    export_matrix_csv(mat, str(p2), symbol_text="2 - abs2(z)")
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == "row_index,col_index,re,im"
    import json

    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["symbol"] == "2 - abs2(z)"
    assert meta["D"] == 4


def test_rational_symbol_assembles_accurately():
    # division leaves the polynomial class; the raised order must still land
    space = WeightedSpace(1, 0.0)
    f = parse_symbol("1 / (2 - abs2(z))", None)
    mat = toeplitz_matrix(f, space, 6, QuadratureSpec(), use_fast_paths=False)
    # diagonal oracle via the radial route at high order
    diag = diagonal_values(lambda r: 1.0 / (2.0 - r[:, 0] ** 2), (1,), 0.0, np.arange(7), q=80)
    assert np.max(np.abs(np.diag(mat.entries).real - diag)) < 1e-9


def test_large_non_hermitian_norm_is_exact():
    # 1100 rows, not Hermitian: the norm of a diagonal is its largest modulus
    vals = np.linspace(0.1, 0.5, 1100)
    vals[-1] = 1.0
    a = np.diag(1j * vals)
    assert operator_norm(a) == pytest.approx(1.0, rel=1e-12)


def test_large_hermitian_norm_matches_the_svd():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(1100, 1100)) + 1j * rng.normal(size=(1100, 1100))
    a = b + b.conj().T
    expect = float(np.linalg.svd(a, compute_uv=False)[0])
    assert operator_norm(a) == pytest.approx(expect, rel=1e-12)


def test_lab_norm_over_1024_rows_is_the_top_singular_value():
    # re(z1) on the 2-ball at D = 44 (K = 1035), which assembly roundoff
    # leaves not exactly Hermitian: the norm is the top singular value
    m = toeplitz_matrix(parse_symbol("re(z1)", None), WeightedSpace(2, 0.0), 44,
                        QuadratureSpec())
    assert m.size == 1035
    expect = float(np.linalg.svd(m.entries, compute_uv=False)[0])
    assert abs(operator_norm(m) - expect) <= 1e-14 * expect


def test_a_decomposition_that_fails_is_a_domain_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(DomainError, match="SVD did not converge"):
        operator_norm(np.eye(3))


def test_oversized_dense_matrices_are_refused():
    # K = 8193 is the first basis size past the 2^26-entry budget
    basis = enumerate_basis(1, 8192, 0.0)
    with pytest.raises(DomainError, match="desk budget"):
        OperatorMatrix.diagonal(basis, np.ones(basis.count))
    space = WeightedSpace(4, 0.0)  # K = 135,751 at D = 40
    with pytest.raises(DomainError, match="desk budget"):
        toeplitz_matrix(parse_symbol("re(z1)", None), space, 40, QuadratureSpec())
    # a radial symbol answers from its D + 1 values; its dense views refuse
    f = parse_symbol("abs2(z)", None)
    m = toeplitz_matrix(f, space, 40, QuadratureSpec())
    assert m.size == 135_751 and m.per_degree.shape == (41,)
    values = radial_toeplitz_diagonal(f, 4, 0.0, 40)
    assert operator_norm(m) == float(np.max(np.abs(values))) > 0.0
    for read in (lambda: m.entries, lambda: m.basis, lambda: m.diag,
                 lambda: berezin_of_operator(m, 0.0, np.zeros(4))):
        with pytest.raises(DomainError, match="desk budget"):
            read()
    with pytest.raises(DomainError, match="desk budget"):
        radial_toeplitz_diagonal(lambda r: r[:, 0] ** 2, 1, 0.0, 20_000)


def test_a_negative_cutoff_is_refused_before_any_plan():
    f = parse_symbol("z1", None)
    for D in (-1, -3):
        for call in (assembly_path, toeplitz_matrix):
            with pytest.raises(DomainError, match=f"cutoff must be nonnegative, got {D}"):
                call(f, WeightedSpace(2, 0.0), D, QuadratureSpec())


def test_assembly_path_names_the_route_and_its_orders():
    space = WeightedSpace(2, 1.0, geometry=BallGeometry(2, 2, (1, 1)))
    spec = QuadratureSpec()
    radial = assembly_path(parse_symbol("1/(2-abs2(z))", space.geometry), space, 4, spec)
    assert radial.record() == {"path": "radial", "q": 48}
    quasi = assembly_path(parse_symbol("1/(2-r1^2)", space.geometry), space, 4, spec)
    assert quasi.record() == {"path": "quasi_radial", "q": 24}
    # polynomial diagonals are exact and build no rule, so they have no order
    exact = assembly_path(parse_symbol("2 - abs2(z)", space.geometry), space, 4, spec)
    assert exact.record() == {"path": "radial", "exact": True}
    quasi = assembly_path(parse_symbol("r1^2", space.geometry), space, 4, spec)
    assert quasi.record() == {"path": "quasi_radial", "exact": True}
    general = parse_symbol("z1*conj(z2) + 1", space.geometry)
    torus = assembly_path(general, space, 4, spec)
    assert torus.record() == {
        "path": "torus", "q": 8, "angular": 6, "band": [[0, 1], [-1, 0]],
    }
    assert assembly_path(parse_symbol("r1^2", space.geometry), space, 4, spec,
                         use_fast_paths=False).kind == "torus"
    mc = QuadratureSpec(scheme=MONTE_CARLO, n_samples=1000, seed=3)
    assert assembly_path(general, space, 4, mc).record() == {
        "path": "monte_carlo", "n_samples": 1000, "seed": 3,
    }


@pytest.mark.parametrize(
    "geometry", [BallGeometry(2, 1, (1,)), BallGeometry(3, 2, (2,))]
)
def test_group_radius_on_part_of_the_ball_is_not_radial(geometry):
    # r1 is |z'| here, not |z|: no radial diagonal may stand in for it
    space = WeightedSpace(geometry.n, 0.0, geometry=geometry)
    spec = QuadratureSpec()
    f = parse_symbol("r1^2", geometry)
    assert assembly_path(f, space, 3, spec).kind == "torus"
    fast = toeplitz_matrix(f, space, 3, spec)
    honest = toeplitz_matrix(f, space, 3, spec, use_fast_paths=False)
    assert np.max(np.abs(fast.entries - honest.entries)) <= 1e-12


def test_group_radius_matches_the_modulus_of_its_group():
    g = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=g)
    r1 = toeplitz_matrix(parse_symbol("r1^2", g), space, 3, QuadratureSpec())
    z1 = toeplitz_matrix(parse_symbol("abs2(z1)", g), space, 3, QuadratureSpec())
    assert np.max(np.abs(r1.entries - z1.entries)) <= 1e-12


def test_group_radius_spanning_the_ball_stays_radial():
    g = BallGeometry(2, 2, (2,))
    space = WeightedSpace(2, 0.0, geometry=g)
    f = parse_symbol("r1^2", g)
    assert assembly_path(f, space, 3, QuadratureSpec()).kind == "radial"
    fast = toeplitz_matrix(f, space, 3, QuadratureSpec())
    abs2 = toeplitz_matrix(parse_symbol("abs2(z)", g), space, 3, QuadratureSpec())
    assert np.max(np.abs(fast.entries - abs2.entries)) <= 1e-12


# ---------------------------------------------------------------------------
# Diagonal forms

RADIAL_CASES = [
    (1, 0.0, "2 - abs2(z)"),
    (2, 1.5, "1/(2-abs2(z))"),
    (3, 0.5, "(1+i)*(1-abs2(z))"),
]
QUASI_RADIAL_CASES = [((1, 1), "r1^2 - 2*r2^4"), ((2, 1), "i*r1^2 + r2^2")]


def _radial_case(d, mu, text, D=6):
    g = BallGeometry(d, d, (d,))
    mat = toeplitz_matrix(parse_symbol(text, g), WeightedSpace(d, mu, geometry=g), D,
                          QuadratureSpec())
    return mat, radial_toeplitz_diagonal(parse_symbol(text, g), d, mu, D)


def _quasi_radial_case(k, text, lam=0.5, D=5):
    g = BallGeometry(sum(k), sum(k), k)
    f = parse_symbol(text, g)
    mat = toeplitz_matrix(f, WeightedSpace(g.n, lam, geometry=g), D, QuadratureSpec())
    return mat, diagonal_values(f, k, lam, mat.basis.group_degrees(k)).astype(complex)


def _diagonal_cases():
    for d, mu, text in RADIAL_CASES:
        mat, per_degree = _radial_case(d, mu, text)
        yield mat, per_degree[mat.basis.degrees]
    for k, text in QUASI_RADIAL_CASES:
        yield _quasi_radial_case(k, text)


def _dense_copy(mat):
    return OperatorMatrix(mat.basis, mat.entries.copy())


def _rel_dev(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def test_diagonal_forms_materialize_the_closed_form_diagonal_bitwise():
    for mat, values in _diagonal_cases():
        assert mat.diag is not None
        assert np.array_equal(mat.diag, values)
        entries = mat.entries
        assert np.array_equal(entries, np.diag(values))
        assert mat.entries is entries  # built once
        beta, alpha = mat.basis.indices[-1], mat.basis.indices[0]
        assert mat.entry(beta, beta) == entries[-1, -1]
        assert mat.entry(beta, alpha) == 0.0


def test_diagonal_norm_and_berezin_match_the_dense_matrix():
    for mat, _ in _diagonal_cases():
        dense = _dense_copy(mat)
        assert dense.diag is None
        assert _rel_dev(operator_norm(mat), operator_norm(dense)) <= 1e-15
        z = np.full(mat.basis.d, 0.3 + 0.2j) / np.sqrt(mat.basis.d)
        mu = mat.basis.lam
        assert _rel_dev(
            berezin_of_operator(mat, mu, z), berezin_of_operator(dense, mu, z)
        ) <= 1e-15


def test_diagonal_algebra_stays_diagonal():
    (a, _), (b, _) = _radial_case(2, 1.0, "1 - abs2(z)"), _radial_case(2, 1.0, "i*abs2(z)")
    for out, ref in [
        (a @ b, a.entries @ b.entries),
        (a + b, a.entries + b.entries),
        (a - b, a.entries - b.entries),
        (a * (2 - 1j), a.entries * (2 - 1j)),
        ((2 - 1j) * a, a.entries * (2 - 1j)),
    ]:
        assert out.diag is not None
        assert _rel_dev(out.entries, ref) <= 1e-15
    identity = OperatorMatrix.diagonal(a.basis, np.ones(a.size))
    assert identity.diag is not None
    assert np.array_equal(identity.entries, np.eye(a.size))


def test_semicommutator_of_diagonals_is_diagonal():
    space = WeightedSpace(1, 2.0)
    c1, c2 = parse_symbol("1 - abs2(z)", None), parse_symbol("i*abs2(z)^2 + 1", None)
    spec = QuadratureSpec()
    sc = semicommutator(c1, c2, space, 12, spec)
    assert sc.diag is not None
    t1, t2 = (toeplitz_matrix(c, space, 12, spec) for c in (c1, c2))
    t12 = toeplitz_matrix(parse_symbol("(1 - abs2(z))*(i*abs2(z)^2 + 1)", None),
                          space, 12, spec)
    ref = t1.entries @ t2.entries - t12.entries
    assert _rel_dev(sc.entries, ref) <= 1e-15
    assert _rel_dev(operator_norm(sc), operator_norm(ref)) <= 1e-15


def test_dense_consumers_accept_diagonal_forms(tmp_path):
    mat, _ = _radial_case(1, 1.0, "2 - abs2(z)", D=4)
    other = toeplitz_matrix(parse_symbol("re(z1)", None), WeightedSpace(1, 1.0), 4,
                            QuadratureSpec())
    assert other.diag is None
    for out, ref in [(mat @ other, np.diag(mat.diag) @ other.entries),
                     (other @ mat, other.entries @ np.diag(mat.diag)),
                     (mat - other, np.diag(mat.diag) - other.entries)]:
        assert out.diag is None
        assert np.array_equal(out.entries, ref)
    p1, p2 = tmp_path / "diag.csv", tmp_path / "dense.csv"
    export_matrix_csv(mat, str(p1), symbol_text="2 - abs2(z)")
    export_matrix_csv(_dense_copy(mat), str(p2), symbol_text="2 - abs2(z)")
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().splitlines()) == 1 + mat.size**2


# ---------------------------------------------------------------------------
# Exact diagonals of polynomial symbols

POLY_PROFILES = {  # radial symbol -> coefficients c_j of t^j, t = |z|^2
    "1 - abs2(z)": (1, -1),
    "2 - abs2(z)": (2, -1),
    "0.3 - 0.7*abs2(z) + 0.9*abs2(z)^2": (0.3, -0.7, 0.9),
    "abs2(z)^5": (0, 0, 0, 0, 0, 1),
}
# powers vanishing at the sphere, whose coefficients in t alternate and
# cancel: against them the rule route's own roundoff reaches 3e-12 of the
# largest value at D = 1800, so they are pinned against rational
# arithmetic only
VANISHING_PROFILES = {
    "(1 - abs2(z))^5": tuple((-1) ** j * math.comb(5, j) for j in range(6)),
    "(1 - abs2(z))^60": tuple((-1) ** j * math.comb(60, j) for j in range(61)),
}


def _rational_eigenvalue(coefs, d, mu, m):
    """sum_j c_j (m + d)_j / (m + d + mu + 1)_j in rational arithmetic."""
    total, ratio = Fraction(0), Fraction(1)
    top, bottom = Fraction(m + d), Fraction(m + d + 1) + Fraction(mu)
    for j, c in enumerate(coefs):
        total += Fraction(c) * ratio
        ratio *= (top + j) / (bottom + j)
    return float(total)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mu", [0.0, 0.5, 33.0, 129.0])
def test_exact_radial_diagonal_matches_rational_arithmetic(d, mu):
    # relative to each value itself, also where (1 - t)^60 is 1e-150
    ms = [0, 1, 2, 7, 60, 1800, 10_000]
    for text, coefs in {**POLY_PROFILES, **VANISHING_PROFILES}.items():
        got = radial_toeplitz_diagonal(parse_symbol(text, None), d, mu, 10_000)[ms]
        want = np.array([_rational_eigenvalue(coefs, d, mu, m) for m in ms])
        # a few ulp for each factor of a running product
        tol = 4 * np.finfo(float).eps * len(coefs)
        assert np.all(np.abs(got - want) <= tol * np.abs(want)), text


@pytest.mark.parametrize(
    "d, mu, D, tol",
    [
        (1, 33.0, 1800, 1e-13),
        (2, 0.0, 1800, 1e-13),
        (3, 129.0, 1800, 1e-13),
        (1, 33.0, 10_000, 1e-12),
        (1, 129.0, 10_000, 1e-12),
        (1, 1000.0, 2000, 1e-12),
    ],
)
def test_exact_radial_diagonal_matches_the_rule_route(d, mu, D, tol):
    # the same profile passed as a plain callable takes the Gauss-Jacobi rule
    for text in POLY_PROFILES:
        f = parse_symbol(text, None)
        exact = radial_toeplitz_diagonal(f, d, mu, D)
        ruled = radial_toeplitz_diagonal(quasi_radial_profile(f, 1), d, mu, D)
        assert _rel_dev(exact, ruled) <= tol, text


def test_rule_weights_below_the_normal_range_keep_their_mass():
    # at mu = 1000 the table's weights past t ~ 0.52 underflow, while the
    # mass of degree 2000 peaks near t = 2/3
    mu, m = 1000.0, np.arange(2001.0)
    f = parse_symbol("1/(2 - abs2(z))")
    assert quadrature.gauss_jacobi_rule(toeplitz._diagonal_order(f, 1, 2000), mu, 0.0)[1].min() == 0
    # 1/(2 - t) = sum_j t^j / 2^(j+1), with E[t^j] = (m + 1)_j / (m + mu + 2)_j
    series, moment = np.zeros_like(m), np.ones_like(m)
    for j in range(80):
        series += moment / 2.0 ** (j + 1)
        moment *= (m + 1 + j) / (m + mu + 2 + j)
    got = radial_toeplitz_diagonal(f, 1, mu, 2000)
    assert np.all(np.abs(got - series) <= 1e-13 * series)


@pytest.mark.parametrize("d, mu", [(1, 0.0), (2, 0.5), (3, 33.0)])
def test_abs2_radial_eigenvalue_is_the_closed_form(d, mu):
    per_degree = radial_toeplitz_diagonal(parse_symbol("abs2(z)", None), d, mu, 40)
    for m in range(41):
        assert per_degree[m] == pytest.approx((m + d) / (m + d + mu + 1.0), rel=1e-15)


@pytest.mark.parametrize(
    "geometry, D, text",
    [
        (BallGeometry(1, 1, (1,)), 6, "0.3 - 0.7*abs2(z) + 0.9*abs2(z)^2"),
        (BallGeometry(2, 2, (2,)), 6, "(1+i)*(2 - r1^2)^2"),
        (BallGeometry(3, 3, (3,)), 4, "1 - abs2(z) + abs2(z)^2"),
        (BallGeometry(2, 2, (1, 1)), 6, "r1^2 - 2*r2^4 + i*r1^2*r2^2"),
        (BallGeometry(3, 3, (2, 1)), 4, "2 - r1^2 + 3*r2^2*abs2(z)"),
    ],
)
def test_exact_diagonals_match_the_torus_reference(geometry, D, text):
    space = WeightedSpace(geometry.n, 0.5, geometry=geometry)
    f = parse_symbol(text, geometry)
    path = assembly_path(f, space, D, QuadratureSpec())
    assert path.kind in ("radial", "quasi_radial") and path.q is None
    exact = toeplitz_matrix(f, space, D, QuadratureSpec())
    honest = toeplitz_matrix(f, space, D, QuadratureSpec(), use_fast_paths=False)
    assert exact.diag is not None
    assert np.max(np.abs(exact.entries - honest.entries)) <= 1e-12


def test_polynomial_diagonals_build_no_rule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    for module in (toeplitz, quadrature):
        monkeypatch.setattr(module, "gauss_jacobi_log_rule", refuse)
        monkeypatch.setattr(module, "simplex_radial_rule", refuse)
    monkeypatch.setattr(quadrature, "gauss_jacobi_rule", refuse)
    spec = QuadratureSpec()
    disk = BallGeometry(2, 2, (2,))
    radial = toeplitz_matrix(
        parse_symbol("2 - r1^2", disk), WeightedSpace(2, 1.0, geometry=disk), 8, spec
    )
    groups = BallGeometry(2, 2, (1, 1))
    quasi = toeplitz_matrix(
        parse_symbol("r1^2 - 2*r2^4", groups),
        WeightedSpace(2, 0.5, geometry=groups), 8, spec,
    )
    assert radial.diag is not None and quasi.diag is not None
    gamma_sequence(parse_symbol("1 - r1^2 + i*r2^2", groups), (1, 1), 0.5, 6)
    split = BallGeometry(2, 1, (1,))
    c = parse_symbol("prod(a = 1, c = 1 - abs2(zc))", split).c
    block = level_block_direct(c, split, 0.0, (32,), 1800, spec)
    assert block.block.diag is not None
    semicommutator(parse_symbol("1 - abs2(z)", None), parse_symbol("abs2(z)^2", None),
                   WeightedSpace(1, 33.0), 60, spec)
    berezin_of_symbol(parse_symbol("1 - abs2(z)", None), 2.0, (0.9,), spec)
    # the bitwise promises hold on the exact route
    one = toeplitz_matrix(parse_symbol("1", None), WeightedSpace(3, 0.5), 6, spec)
    assert np.all(one.diag == 1.0)
    seq = gamma_sequence(parse_symbol("1", None), (1, 1), 0.5, 6)
    assert all(v == 1.0 and isinstance(v, float) for v in seq.values())
    # the patch is live: a rational profile still takes a rule
    with pytest.raises(AssertionError, match="rule was built"):
        toeplitz_matrix(parse_symbol("1/(2 - abs2(z))", None), WeightedSpace(1, 0.0), 4,
                        spec)


def _rational_moment_sum(terms, alpha, lam):
    """sum_p c_(p,p) prod_i (alpha_i + 1)_(p_i) / (|alpha| + d + lam + 1)_|p|
    over ``expand_polynomial``'s diagonal terms, in rational arithmetic."""
    d = len(alpha)
    total = Fraction(0)
    for (p, q), c in terms.items():
        if p != q:
            continue
        term, i = Fraction(c.real), 0
        base = sum(alpha) + d + 1 + Fraction(lam)
        for a, power in zip(alpha, p):
            for s in range(power):
                term *= Fraction(a + 1 + s) / (base + i)
                i += 1
        total += term
    return total


# 0.5 - 2^-30 in decimal: the level-0 value is 2^-30, cancelled 5e8-fold
NEAR_HALF = "0.499999999068677425384521484375"


def test_a_cancelling_exact_sum_is_summed_in_rational_arithmetic(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    for module in (toeplitz, quadrature):
        monkeypatch.setattr(module, "gauss_jacobi_log_rule", refuse)
        monkeypatch.setattr(module, "simplex_radial_rule", refuse)
    monkeypatch.setattr(quadrature, "gauss_jacobi_rule", refuse)
    spec = QuadratureSpec()
    # abs2(z) - 1/2 averages to exactly 0 at degree 0 of the unweighted disc
    for text, level0 in (("abs2(z) - 0.5", 0.0), (f"abs2(z) - {NEAR_HALF}", 2.0**-30)):
        f = parse_symbol(text, None)
        terms = expand_polynomial(f, 1)
        space = WeightedSpace(1, 0.0)
        path = assembly_path(f, space, 40, spec)
        assert path.record() == {"path": "radial", "exact": True}
        got = radial_toeplitz_diagonal(f, 1, 0.0, 40)
        assert got[0] == level0 == float(_rational_moment_sum(terms, (0,), 0.0))
        want = [float(_rational_moment_sum(terms, (m,), 0.0)) for m in range(41)]
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(toeplitz_matrix(f, space, 40, spec).diag, got)

    # r1^2 - r2^2 averages to 0 on the levels with rho_1 = rho_2
    groups = BallGeometry(2, 2, (1, 1))
    g = parse_symbol("r1^2 - r2^2", groups)
    terms = expand_polynomial(g, 2, geometry=groups)
    seq = gamma_sequence(g, (1, 1), 0.5, 6)
    for rho in seq:
        want = _rational_moment_sum(terms, rho, 0.5)
        if rho[0] == rho[1]:
            assert seq[rho] == float(want) == 0.0
        else:
            assert abs(seq[rho] - float(want)) <= 4 * np.spacing(abs(float(want)))
        assert seq[rho] == diagonal_values(g, (1, 1), 0.5, [rho]).item()
    space = WeightedSpace(2, 0.5, geometry=groups)
    assert assembly_path(g, space, 6, spec).record() == {
        "path": "quasi_radial", "exact": True,
    }
    mat = toeplitz_matrix(g, space, 6, spec)
    basis = enumerate_basis(2, 6, 0.5)
    assert np.array_equal(mat.diag, [seq[tuple(a)] for a in basis.indices])

    # the matrix command's sidecar says so
    out = tmp_path / "m.csv"
    argv = ["matrix", "--symbol", "abs2(z) - 0.5", "--d", "1", "--mu", "0", "--D", "8",
            "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["assembly"] == {"path": "radial", "exact": True}


def test_high_powers_take_the_rule_before_anything_is_expanded():
    # (1 - abs2(z))^100 is bounded by C(101, 1) * 100 factors, over the budget
    f = parse_symbol("(1 - abs2(z))^100", None)
    assert profile_form(f, 1) is None
    space, spec = WeightedSpace(4, 0.0), QuadratureSpec()
    start = time.perf_counter()
    path = assembly_path(f, space, 4, spec)
    mat = toeplitz_matrix(f, space, 4, spec)
    assert time.perf_counter() - start < 5.0
    assert path.record() == {"path": "radial", "q": 106}
    assert np.all(mat.diag > 0.0)
    # (1 - abs2(z))^60 is the one term u^60, exact on the 4-ball too
    g = parse_symbol("(1 - abs2(z))^60", None)
    exact = assembly_path(g, space, 4, spec)
    assert exact.record() == {"path": "radial", "exact": True}
    coefs = VANISHING_PROFILES["(1 - abs2(z))^60"]
    got = radial_toeplitz_diagonal(g, 4, 0.0, 4)
    want = np.array([_rational_eigenvalue(coefs, 4, 0.0, m) for m in range(5)])
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def _per_row_form(f, space, D):
    """The diagonal form of f's radial values at each basis row's degree."""
    basis = enumerate_basis(space.d, D, space.lam)
    values = toeplitz_matrix(f, space, D, QuadratureSpec()).per_degree
    return OperatorMatrix.diagonal(basis, values[basis.degrees])


@pytest.mark.parametrize("d, D", [(1, 0), (1, 60), (2, 7), (2, 60)])
def test_radial_form_gives_the_bits_of_the_per_row_diagonal(d, D):
    """A radial form, its D + 1 values, and the diagonal form of those
    values at each row's degree give the same bits through every reader:
    rows, entries, norms, products, sums, scalings, the semicommutator,
    the level checks and the Berezin transform.  The rows are also the
    values ``diagonal_values`` gives every row on its own, exact (a complex
    polynomial) and by rule."""
    spec = QuadratureSpec()
    space = WeightedSpace(d, 0.5)
    geo = BallGeometry(d, 1, (1,))
    texts = ("(1+i)*(1 - abs2(z)) + 0.5*abs2(z)^2", "1/(2 - abs2(z))")
    f, g = (parse_symbol(t, None) for t in texts)
    rf, rg = (toeplitz_matrix(s, space, D, spec) for s in (f, g))
    pf, pg = (_per_row_form(s, space, D) for s in (f, g))
    basis = pf.basis
    for r, p, s in ((rf, pf, f), (rg, pg, g)):
        assert r.per_degree.shape == (D + 1,) and p.per_degree is None
        assert r.size == p.size == basis.count
        rows = diagonal_values(s, (d,), space.lam, basis.degrees).astype(complex)
        assert np.array_equal(r.diag, rows) and np.array_equal(r.diag, p.diag)
        assert np.array_equal(r.entries, p.entries)
        assert operator_norm(r) == operator_norm(p)
        assert block_norms(r, geo) == block_norms(p, geo)
        assert off_block_mass(r, geo) == off_block_mass(p, geo)
        for z in (np.zeros(d), np.full(d, 0.3 + 0.2j), np.linspace(0.5, 0.1, d)):
            assert berezin_of_operator(r, space.lam, z) == berezin_of_operator(p, space.lam, z)
        last = basis.indices[-1]
        for beta, alpha in ((basis.indices[0],) * 2, (last, last), (basis.indices[0], last)):
            assert r.entry(beta, alpha) == p.entry(beta, alpha)
    for r, p in ((rf @ rg, pf @ pg), (rf + rg, pf + pg), (rf - rg, pf - pg),
                 (rf * 2.5j, pf * 2.5j), (0.5 * rg, 0.5 * pg)):
        assert r.per_degree is not None and np.array_equal(r.diag, p.diag)
    with pytest.raises(DomainError, match="different bases"):
        rf + toeplitz_matrix(f, WeightedSpace(d, 1.5), D, spec)
    semi = semicommutator(f, g, space, D, spec)
    ref = pf @ pg - _per_row_form(BinOp("*", f, g), space, D)
    assert semi.per_degree is not None and np.array_equal(semi.diag, ref.diag)
    assert operator_norm(semi) == operator_norm(ref)


def test_a_deep_radial_semicommutator_builds_no_basis(monkeypatch):
    """On the 2-ball at D = 200 the dense form has K = 20,301 rows, past the
    desk budget, but the semicommutator of 1 - abs2(z) with itself answers
    from its 201 values; the exact route's values do not depend on the
    range, so its degrees <= 60 are the D = 60 result bitwise."""

    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(toeplitz, "enumerate_basis", refuse)
    c = parse_symbol("1 - abs2(z)", None)
    space = WeightedSpace(2, 1.0)
    tracemalloc.start()
    try:
        deep = semicommutator(c, c, space, 200, QuadratureSpec())
        norm = operator_norm(deep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = count_basis(2, 200)
    assert rows == 20_301
    # one value per row would take 16 bytes a row
    assert peak < rows * 16 / 4
    assert deep.per_degree.shape == (201,) and deep.size == rows
    shallow = semicommutator(c, c, space, 60, QuadratureSpec())
    assert np.array_equal(deep.per_degree[:61], shallow.per_degree)
    assert norm == float(np.max(np.abs(deep.per_degree))) > 0.0
    with pytest.raises(DomainError, match="desk budget"):
        deep.entries
