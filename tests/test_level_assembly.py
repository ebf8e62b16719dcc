"""Product symbols assembled level by level, against the full-ball rule."""

import json

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    QuadratureSpec,
    WeightedSpace,
    assembly_path,
    berezin_of_symbol,
    default_config,
    off_block_mass,
    parse_symbol,
    run_all,
    toeplitz_matrix,
    verify_tensor_factorization,
)
from berglab import berezin, toeplitz
from berglab.berezin import radial_berezin_sum, radial_expansion_degree
from berglab.cli import main

# explicit orders keep the 3-ball reference rule within the node budget;
# they integrate these polynomial integrands exactly
SMALL = QuadratureSpec(q=10, angular=13)

# (geometry, lam, D, spec, symbol): every full-ball integrand is a
# polynomial, so the torus route is exact up to roundoff
POLYNOMIAL_PRODUCTS = [
    (BallGeometry(2, 1, (1,)), 0.0, 8, QuadratureSpec(), "prod(a = 1, c = 1 - abs2(zc))"),
    (BallGeometry(2, 1, (1,)), 0.0, 8, QuadratureSpec(),
     "prod(a = r1^2, c = 1 - abs2(zc))"),
    (BallGeometry(2, 1, (1,)), 0.5, 6, QuadratureSpec(),
     "prod(a = 2, c = re(zc1) + i*abs2(zc))"),
    (BallGeometry(3, 2, (1, 1)), 0.5, 4, SMALL,
     "prod(a = r1^2*r2^2 + 2*r1^2, c = (1 - abs2(zc))^2)"),
    (BallGeometry(3, 2, (2,)), 1.0, 4, SMALL,
     "prod(a = 3 - r1^2, c = (1 - abs2(zc))*(re(zc1) + 2))"),
    (BallGeometry(3, 1, (1,)), 0.0, 4, SMALL,
     "prod(a = r1^2, c = (1 - abs2(zc))*(zc1*conj(zc2) + abs2(zc)))"),
]


@pytest.mark.parametrize("geo, lam, D, spec, text", POLYNOMIAL_PRODUCTS)
def test_level_route_matches_the_full_ball_rule(geo, lam, D, spec, text):
    f = parse_symbol(text, geo)
    space = WeightedSpace(geo.n, lam, geometry=geo)
    assert assembly_path(f, space, D, spec).kind == "levels"
    levels = toeplitz_matrix(f, space, D, spec)
    honest = toeplitz_matrix(f, space, D, spec, use_fast_paths=False)
    assert np.max(np.abs(levels.entries - honest.entries)) <= 1e-13


def test_level_route_gamma_is_exact_where_the_rule_is_not():
    # a = r1^2 stretches to |z1|^2 / (1 - |z2|^2): rational, so the torus
    # rule carries an error, while gamma((r,)) = (r + 1)/(r + 2) is exact
    geo = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=geo)
    f = parse_symbol("prod(a = r1^2, c = 1)", geo)
    m = toeplitz_matrix(f, space, 8, QuadratureSpec())
    assert assembly_path(f, space, 8, QuadratureSpec()).record() == {
        "path": "levels", "exact": True,
    }
    rho = m.basis.exponent_array()[:, 0]
    assert np.array_equal(m.diag, (rho + 1.0) / (rho + 2.0))
    honest = toeplitz_matrix(f, space, 8, QuadratureSpec(), use_fast_paths=False)
    assert np.max(np.abs(m.entries - honest.entries)) <= 1e-6


def test_diagonal_blocks_give_a_diagonal_form_and_dense_ones_a_dense_matrix():
    geo = BallGeometry(3, 2, (1, 1))
    space = WeightedSpace(3, 0.0, geometry=geo)
    spec = QuadratureSpec()
    diag = toeplitz_matrix(parse_symbol("prod(a = 1 + r2^2, c = 2 - abs2(zc))", geo),
                           space, 5, spec)
    assert diag.diag is not None
    f = parse_symbol("prod(a = 1 + r2^2, c = re(zc1))", geo)
    dense = toeplitz_matrix(f, space, 5, spec)
    assert dense.diag is None
    # entries between two z'-exponents are exact zeros, not roundoff
    primes = dense.basis.exponent_array()[:, :2]
    other = np.any(primes[:, None, :] != primes[None, :, :], axis=-1)
    assert np.all(dense.entries[other] == 0.0)
    record = assembly_path(f, space, 5, spec).record()
    assert record["path"] == "levels" and "q" not in record
    assert [b["path"] for b in record["blocks"]] == ["torus"] * 21


def test_a_non_polynomial_gamma_records_its_rule():
    geo = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=geo)
    f = parse_symbol("prod(a = 1/(2 - r1^2), c = 1 - abs2(zc))", geo)
    record = assembly_path(f, space, 3, QuadratureSpec()).record()
    exact_block = {"path": "radial", "exact": True}
    assert record == {"path": "levels", "q": 48, "blocks": [exact_block] * 4}
    m = toeplitz_matrix(f, space, 3, QuadratureSpec())
    honest = toeplitz_matrix(f, space, 3, QuadratureSpec(q=80), use_fast_paths=False)
    assert m.diag is not None
    assert np.max(np.abs(m.entries - honest.entries)) <= 1e-6


def test_the_honest_routes_stay_on_the_full_ball_rule(monkeypatch):
    built = []
    rule = toeplitz.ball_rule

    def record(d, *args):
        built.append(d)
        return rule(d, *args)

    monkeypatch.setattr(toeplitz, "ball_rule", record)
    geo = BallGeometry(2, 1, (1,))
    space = WeightedSpace(2, 0.0, geometry=geo)
    f = parse_symbol("prod(a = r1^2, c = 1 - abs2(zc))", geo)
    full, _ = verify_tensor_factorization(f.a, f.c, geo, 0.0, [], 4, QuadratureSpec())
    assert built == [2] and full.diag is None
    honest = assembly_path(f, space, 4, QuadratureSpec(), use_fast_paths=False)
    assert honest.kind == "torus"
    mc = QuadratureSpec(scheme="monte_carlo", n_samples=1000, seed=1)
    assert assembly_path(f, space, 4, mc).kind == "monte_carlo"


def test_torus_invariant_a_factor_keeps_the_masked_rule():
    # re(z1*conj(z2)) is invariant under the one group's torus but not
    # quasi-radial: no gamma exists, so the full-ball rule and its mask stay
    geo = BallGeometry(3, 2, (2,))
    space = WeightedSpace(3, 0.0, geometry=geo)
    f = parse_symbol("prod(a = re(z1*conj(z2)), c = 1 - abs2(zc))", geo)
    spec = QuadratureSpec(q=8, angular=11)
    assert assembly_path(f, space, 3, spec).kind == "torus"
    m = toeplitz_matrix(f, space, 3, spec)
    off, total = off_block_mass(m, geo)
    assert off == 0.0 and total > 0.0


def test_oversized_products_are_refused_before_anything_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("diagonal_values", "enumerate_basis", "rebase_inner",
                 "quasi_radial_profile"):
        monkeypatch.setattr(toeplitz, name, refuse)
    geo = BallGeometry(2, 1, (1,))
    f = parse_symbol("prod(a = r1^2, c = 1 - abs2(zc))", geo)
    # K = C(202, 2) = 20301 rows, past the 2^26-entry budget
    with pytest.raises(DomainError, match="desk budget"):
        toeplitz_matrix(f, WeightedSpace(2, 0.0, geometry=geo), 200, QuadratureSpec())


def test_matrix_sidecar_records_the_level_route(tmp_path):
    out = tmp_path / "m.csv"
    argv = ["matrix", "--symbol", "prod(a = r1^2, c = 1 - abs2(zc))", "--n", "2",
            "--ell", "1", "--k", "1", "--mu", "0", "--D", "4", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["assembly"] == {"path": "levels", "exact": True}


def test_norm_identity_on_the_3_ball_builds_no_full_ball_rule(monkeypatch):
    built = []
    rule = toeplitz.ball_rule

    def record(d, *args):
        built.append(d)
        return rule(d, *args)

    monkeypatch.setattr(toeplitz, "ball_rule", record)
    cfg = default_config({"geometry.n": 3})
    (result,) = run_all(cfg, only=["norm_identity"])
    assert result.passed
    # sigma_quadrature is the honest rule on the inner 2-ball, once per weight
    assert built == [2] * (cfg.R + 1)


def test_extended_berezin_sequences_keep_their_bits(monkeypatch):
    summed = []
    exact = berezin.diagonal_values

    def count(g, k, nu, levels):
        summed.append(len(levels))
        return exact(g, k, nu, levels)

    monkeypatch.setattr(berezin, "_EXACT_SEQUENCES", {})
    monkeypatch.setattr(berezin, "diagonal_values", count)
    g = parse_symbol("0.3 - 0.7*abs2(z) + 0.9*abs2(z)^2", None)
    spec = QuadratureSpec()
    lengths = []
    for x in (0.7, 0.3, 0.95, 0.8, 0.95):
        z = (x, 0.0)
        got = berezin_of_symbol(g, 3.0, z, spec)
        t = x * x
        n_deg = radial_expansion_degree(2, 3.0, t)
        whole = exact(g, (2,), 3.0, np.arange(n_deg + 1))
        want = complex(radial_berezin_sum(whole, 2 + 3.0 + 1.0, np.array([t]))[0])
        assert got == want
        lengths.append(n_deg + 1)
    # each degree was summed once, and the sequence grew by doubling
    (seq,) = berezin._EXACT_SEQUENCES.values()
    assert sum(summed) == len(seq) >= max(lengths) and len(summed) == 2
