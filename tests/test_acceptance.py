"""Acceptance checks: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines while
passing; each line repeats inside the assertion message on failure.
"""

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
    block_norms,
    boundary_vanishing_probe,
    count_basis,
    default_radius_schedule,
    dim_level,
    enumerate_basis,
    essential_spectrum_sample,
    fredholm_index_report,
    gamma_sequence,
    level_block_direct,
    level_layout,
    levels_up_to,
    min_singular_probe,
    off_block_mass,
    operator_norm,
    parse_symbol,
    rebase_inner,
    recover_symbol_and_remainder,
    semicommutator,
    toeplitz_matrix,
    verify_tensor_factorization,
)
from berglab.quadrature import MONTE_CARLO


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


def test_criterion_1_norm_formula():
    t0 = time.perf_counter()
    n, ell, lam, D = 2, 1, 0.0, 8
    d_inner = n - ell
    f = parse_symbol("1 - abs2(z)", None)
    worst_closed = 0.0
    worst_quad = 0.0
    for k in range(7):
        mu = lam + k + ell
        expect = (lam + k + ell + 1.0) / (n + lam + k + 1.0)
        space = WeightedSpace(d_inner, mu)
        closed = operator_norm(toeplitz_matrix(f, space, D, QuadratureSpec()))
        quad = operator_norm(
            toeplitz_matrix(f, space, D, QuadratureSpec(), use_fast_paths=False)
        )
        worst_closed = max(worst_closed, abs(closed - expect))
        worst_quad = max(worst_quad, abs(quad - expect))
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_quad < 1e-6 and elapsed < 10.0
    _report(
        1,
        "norm formula",
        ok,
        f"closed dev {worst_closed:.2e} (tol 1e-10), quadrature dev "
        f"{worst_quad:.2e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_gamma_closed_forms():
    t0 = time.perf_counter()
    one = parse_symbol("1", None)
    exact_one = all(
        gamma_sequence(one, k, lam, 6)[rho] == 1.0
        for k in [(1,), (2,), (1, 1)]
        for lam in [0.0, 0.5]
        for rho in levels_up_to(6, len(k))
    )
    worst = 0.0
    for ell in (1, 2):
        g = BallGeometry(ell, ell, (ell,))
        profile = parse_symbol("r1^2", g)
        for lam in (0.0, 0.5, 2.0):
            seq = gamma_sequence(profile, (ell,), lam, 10)
            for rho in range(11):
                expect = (rho + ell) / (rho + ell + lam + 1.0)
                worst = max(worst, abs(seq[(rho,)] - expect))
    elapsed = time.perf_counter() - t0
    ok = exact_one and worst < 1e-10 and elapsed < 5.0
    _report(
        2,
        "gamma closed forms",
        ok,
        f"gamma(1) exact: {exact_one}, closed-form dev {worst:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_3_tensor_factorization():
    t0 = time.perf_counter()
    g = BallGeometry(2, 1, (1,))
    D = 6
    pairs = [("r1^2", "1"), ("r1^2", "1 - abs2(zc)"), ("1 - r1^2", "re(zc1)")]
    spec = QuadratureSpec()
    worst = 0.0
    for a_text, c_text in pairs:
        composite = parse_symbol(f"prod(a = {a_text}, c = {c_text})", g)
        _, reports = verify_tensor_factorization(
            composite.a, composite.c, g, 0.0, levels_up_to(D, g.m), D, spec, tol=1e-5
        )
        for rep in reports:
            worst = max(worst, rep.max_deviation)
    # sampling route for one pair: deviations inside five standard errors
    mc_spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=100_000, seed=20_260_813)
    composite = parse_symbol("prod(a = r1^2, c = 1 - abs2(zc))", g)
    _, reports = verify_tensor_factorization(
        composite.a, composite.c, g, 0.0, levels_up_to(D, g.m), D, mc_spec, tol=1e-5
    )
    mc_ok = True
    mc_ratio = 0.0
    for rep in reports:
        mc_ok = mc_ok and rep.passed
        mc_ratio = max(mc_ratio, rep.max_se_ratio)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and mc_ok and elapsed < 120.0
    _report(
        3,
        "tensor factorization",
        ok,
        f"worst deviation {worst:.2e} (tol 1e-5), sampling dev/SE "
        f"{mc_ratio:.2f} (limit 5), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_4_block_structure():
    t0 = time.perf_counter()
    g = BallGeometry(2, 1, (1,))
    D = 6
    spec = QuadratureSpec()
    space = WeightedSpace(g.n, 0.0, geometry=g)
    f_a = parse_symbol("prod(a = r1^2, c = 1)", g)
    f_c = parse_symbol("prod(a = 1, c = 1 - abs2(zc))", g)
    # the full-ball rule: the level route would build the blocks it checks
    M_a = toeplitz_matrix(f_a, space, D, spec, use_fast_paths=False)
    M_c = toeplitz_matrix(f_c, space, D, spec, use_fast_paths=False)
    worst_off = 0.0
    for M in (M_a, M_c):
        off, total = off_block_mass(M, g)
        worst_off = max(worst_off, off / total)
    sup_dev = 0.0
    for M in (M_a, M_c):
        sup_dev = max(
            sup_dev, abs(max(block_norms(M, g).values()) - operator_norm(M))
        )
    comm = M_a.entries @ M_c.entries - M_c.entries @ M_a.entries
    comm_norm = operator_norm(comm)
    elapsed = time.perf_counter() - t0
    ok = worst_off < 1e-8 and sup_dev < 1e-10 and comm_norm < 1e-8
    _report(
        4,
        "block structure",
        ok,
        f"off-block mass {worst_off:.2e} (tol 1e-8), sup-vs-full "
        f"{sup_dev:.2e} (tol 1e-10), commutator {comm_norm:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_5_quantization_decay():
    t0 = time.perf_counter()
    f = parse_symbol("1 - abs2(z)", None)
    spec = QuadratureSpec()
    D = 24
    norms = {}
    for mu in (1, 2, 4, 8, 16, 32):
        sc = semicommutator(f, f, WeightedSpace(1, float(mu)), D, spec)
        norms[mu] = operator_norm(sc)
    seq = [norms[m] for m in (1, 2, 4, 8, 16, 32)]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    quarter = norms[32] < 0.25 * norms[4]
    sc0 = semicommutator(f, f, WeightedSpace(1, 0.0), D, spec)
    deg0 = sc0.entries[0, 0].real
    deg0_ok = abs(deg0 - (-1.0 / 12.0)) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = decreasing and quarter and deg0_ok and elapsed < 30.0
    _report(
        5,
        "quantization decay",
        ok,
        f"norms decreasing: {decreasing}, mu32/mu4 = "
        f"{norms[32] / norms[4]:.3f} (< 0.25), degree-0 dev "
        f"{abs(deg0 + 1.0 / 12.0):.2e} (tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_6_berezin_and_recovery():
    t0 = time.perf_counter()
    spec = QuadratureSpec()
    # consistency of the two transform routes on the corpus
    corpus = [parse_symbol("1 - abs2(z)", None), parse_symbol("re(z1)", None)]
    worst_consistency = 0.0
    for f in corpus:
        for mu in (1.0, 2.0):
            mat = toeplitz_matrix(f, WeightedSpace(1, mu), 60, spec)
            for t in (0.0, 0.25, 0.5):
                z = [complex(np.sqrt(t))]
                dev = abs(
                    berezin_of_operator(mat, mu, z)
                    - berezin_of_symbol(f, mu, z, spec)
                )
                worst_consistency = max(worst_consistency, dev)
    # recovery of the inner symbol from high-weight blocks
    g = BallGeometry(2, 1, (1,))
    c = parse_symbol("2 - abs2(zc)", None)
    eval_blocks = [
        level_block_direct(c, g, 0.0, (rho,), 1800, spec)
        for rho in (32, 48, 64, 96, 128)
    ]
    rem_blocks = [
        level_block_direct(c, g, 0.0, (rho,), 60, spec) for rho in (32, 48, 64)
    ]
    ts = np.linspace(0.0, 0.81, 12)
    grid = np.sqrt(ts)[:, None].astype(complex)
    report = recover_symbol_and_remainder(
        eval_blocks, grid, spec, remainder_blocks=rem_blocks
    )
    mu_max = max(b.mu for b in eval_blocks)
    grid_dev = float(
        np.max(np.abs(np.array([v.real for v in report.values]) - (2.0 - ts)))
    )
    grid_ok = grid_dev < 2.0 / mu_max
    rem = report.max_remainder()
    elapsed = time.perf_counter() - t0
    ok = worst_consistency < 1e-6 and grid_ok and rem < 1e-6 and elapsed < 60.0
    _report(
        6,
        "Berezin consistency and recovery",
        ok,
        f"route dev {worst_consistency:.2e} (tol 1e-6), grid dev "
        f"{grid_dev:.2e} (allow {2.0 / mu_max:.2e}), remainder {rem:.2e} "
        f"(tol 1e-6), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_boundary_vanishing():
    t0 = time.perf_counter()
    f = parse_symbol("1 - abs2(z)", None)
    radii = tuple(1.0 - 2.0 ** (-j) for j in range(1, 7))
    assert radii == default_radius_schedule(6, include_terminal=False)
    table = boundary_vanishing_probe(f, 2.0, radii, spec=QuadratureSpec())
    vals = [row[1] for row in table.rows]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and vals[-1] < 0.05
    _report(
        7,
        "boundary vanishing",
        ok,
        f"monotone: {monotone}, last value {vals[-1]:.2e} (< 0.05), "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_fredholm_spectrum_index():
    t0 = time.perf_counter()
    spec = QuadratureSpec()
    scalar = parse_symbol("2 - abs2(z)", None)
    sample = essential_spectrum_sample(scalar, 2)
    terminal = [v for _, r, v in sample.rows if r == 1.0]
    spectrum_dev = max(abs(v - 1.0) for v in terminal)
    scalar_report = fredholm_index_report(scalar, sample)
    vanishing = parse_symbol("zc1", None)
    v_sample = essential_spectrum_sample(rebase_inner(vanishing), 2)
    refused = False
    try:
        fredholm_index_report(rebase_inner(vanishing), v_sample)
    except DomainError:
        refused = True
    matrix = MatrixSymbol.diagonal(
        [parse_symbol("2 - abs2(z)", None), parse_symbol("3 - abs2(z)", None)]
    )
    m_report = fredholm_index_report(matrix, essential_spectrum_sample(matrix, 2))
    flat_mats = [
        toeplitz_matrix(scalar, WeightedSpace(2, 2.0), D, spec) for D in (4, 8, 16)
    ]
    dec_mats = [
        toeplitz_matrix(parse_symbol("z1", None), WeightedSpace(2, 2.0), D, spec)
        for D in (4, 8, 16)
    ]
    flat_verdict = min_singular_probe(flat_mats).verdict
    dec_verdict = min_singular_probe(dec_mats).verdict
    elapsed = time.perf_counter() - t0
    ok = (
        sample.fredholm
        and spectrum_dev < 1e-6
        and scalar_report.index == 0
        and not v_sample.fredholm
        and refused
        and m_report.index == 0
        and flat_verdict == "flat"
        and dec_verdict == "decaying"
        and elapsed < 60.0
    )
    _report(
        8,
        "Fredholm, spectrum, index",
        ok,
        f"spectrum dev {spectrum_dev:.2e} (tol 1e-6), scalar index "
        f"{scalar_report.index}, vanishing refused: {refused}, matrix index "
        f"{m_report.index}, sigma_min {flat_verdict}/{dec_verdict}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_9_counting_identity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(2, 5):
        for ell in range(1, min(2, n - 1) + 1):
            for k in ([(1,)] if ell == 1 else [(2,), (1, 1)]):
                for D in range(0, 9):
                    geometry = BallGeometry(n, ell, k)
                    layout = level_layout(enumerate_basis(n, D, 0.0), geometry)
                    ok = ok and list(layout) == list(levels_up_to(D, geometry.m))
                    ok = ok and all(
                        rows.shape == (dim_level(rho, k), count_basis(n - ell, D - sum(rho)))
                        for rho, rows in layout.items()
                    )
                    ok = ok and sum(rows.size for rows in layout.values()) == count_basis(n, D)
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "counting identity",
        ok,
        f"{checked} (n, ell, k, D) cases, exhaustive for n <= 4, D <= 8, "
        f"{elapsed:.1f}s",
    )
