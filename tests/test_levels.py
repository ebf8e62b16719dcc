"""Level decomposition, factorization and symbol recovery."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    OperatorMatrix,
    QuadratureSpec,
    RecoveredSymbol,
    WeightedSpace,
    berezin_of_operator,
    block_norms,
    classify_symbol,
    count_basis,
    dim_level,
    enumerate_basis,
    level_block_direct,
    level_layout,
    levels_up_to,
    off_block_mass,
    operator_norm,
    parse_symbol,
    recover_symbol_and_remainder,
    toeplitz_matrix,
    verify_tensor_factorization,
)
from berglab import levels as levels_module
from berglab import toeplitz as toeplitz_module
from berglab.core import compositions
from berglab.berezin import kernel_tail, radial_berezin_sum
from berglab.levels import _MAX_NODES, _TAIL_CAP, _neville_to_zero
from berglab.quadrature import MONTE_CARLO
from berglab.suites import ExperimentConfig, plan_factorization_suite


@pytest.fixture
def split31():
    return BallGeometry(3, 2, (1, 1))


def _pair_positions(basis, geometry, rho):
    """Reference pair order built by enumeration: each z' of the per-group
    compositions product (outer groups slowest), followed by every inner
    index of degree <= D - |rho|, looked up in the basis."""
    per_group = [compositions(r, kj) for r, kj in zip(rho, geometry.k)]
    primes = [sum(combo, ()) for combo in itertools.product(*per_group)]
    inner = [
        a for deg in range(basis.D - sum(rho) + 1)
        for a in compositions(deg, geometry.d_inner)
    ]
    return [basis.index_of(p + i) for p in primes for i in inner]


@pytest.mark.parametrize(
    "geometry",
    [BallGeometry(3, 2, (1, 1)), BallGeometry(4, 3, (2, 1)), BallGeometry(3, 1, (1,))],
    ids=["n3_k11", "n4_k21", "n3_k1"],
)
def test_level_positions_match_the_pair_construction(geometry):
    D = 5
    basis = enumerate_basis(geometry.n, D, 0.0)
    covered = []
    for rho, rows in level_layout(basis, geometry).items():
        pos = rows.ravel()
        assert pos.tolist() == _pair_positions(basis, geometry, rho)
        inner_count = count_basis(geometry.d_inner, D - sum(rho))
        assert len(pos) == dim_level(rho, geometry.k) * inner_count
        covered.extend(pos.tolist())
    assert sorted(covered) == list(range(basis.count))


@pytest.mark.parametrize(
    "geometry",
    [BallGeometry(2, 1, (1,)), BallGeometry(3, 2, (1, 1)), BallGeometry(4, 3, (2, 1))],
    ids=["n2_k1", "n3_k11", "n4_k21"],
)
def test_level_layout_has_one_row_per_z_prime_exponent(geometry):
    D = 5
    basis = enumerate_basis(geometry.n, D, 0.0)
    layout = level_layout(basis, geometry)
    assert list(layout) == list(levels_up_to(D, geometry.m))
    exps = basis.exponent_array()
    for rho, rows in layout.items():
        inner_count = count_basis(geometry.d_inner, D - sum(rho))
        assert rows.shape == (dim_level(rho, geometry.k), inner_count)
        assert rows.ravel().tolist() == _pair_positions(basis, geometry, rho)
        # one z'-exponent per row, and the inner basis order along it
        primes = exps[rows, : geometry.ell]
        assert np.all(primes == primes[:, :1])
        inner = enumerate_basis(geometry.d_inner, D - sum(rho), 0.0).exponent_array()
        assert np.all(exps[rows, geometry.ell :] == inner)


def test_index_map_partitions_basis(split31):
    D = 5
    basis = enumerate_basis(split31.n, D, 0.0)
    covered = set()
    for rho, rows in level_layout(basis, split31).items():
        pos = rows.ravel()
        inner_count = count_basis(split31.d_inner, D - sum(rho))
        assert len(pos) == dim_level(rho, split31.k) * inner_count
        for p in pos.tolist():
            assert p not in covered
            covered.add(p)
    assert len(covered) == count_basis(split31.n, D)


def test_index_map_orders_inner_fastest(split31):
    D = 4
    for geometry, rho in [(split31, (1, 0)), (BallGeometry(4, 3, (2, 1)), (2, 1))]:
        basis = enumerate_basis(geometry.n, D, 0.0)
        pos = level_layout(basis, geometry)[rho].ravel()
        inner_count = count_basis(geometry.d_inner, D - sum(rho))
        hdim = dim_level(rho, geometry.k)
        d_prime = geometry.n - geometry.d_inner
        # flat index i = i_prime * inner_count + i_inner: each run of
        # inner_count positions shares its z' part and walks the inner
        # indices in the same order.
        rows = [basis.indices[p] for p in pos.tolist()]
        assert len(rows) == hdim * inner_count
        primes = []
        for i_prime in range(hdim):
            run = rows[i_prime * inner_count:(i_prime + 1) * inner_count]
            assert len({a[:d_prime] for a in run}) == 1
            assert [a[d_prime:] for a in run] == [a[d_prime:] for a in rows[:inner_count]]
            primes.append(run[0][:d_prime])
        assert len(set(primes)) == hdim


def test_level_positions_refuse_a_foreign_level(split31):
    c = parse_symbol("1 - abs2(zc)", None)
    with pytest.raises(DomainError):  # another dimension
        level_layout(enumerate_basis(3, 4, 0.0), BallGeometry(4, 2, (1, 1)))
    for geometry, rho in [
        (split31, (1,)),  # another partition length
        (split31, (-1, 0)),  # a negative group degree
        (BallGeometry(3, 3, (2, 1)), (1, 0)),  # no inner block
    ]:
        with pytest.raises(DomainError):
            level_block_direct(c, geometry, 0.0, rho, 4, QuadratureSpec())
    a = parse_symbol("1", split31)
    with pytest.raises(DomainError, match="level total 5 exceeds the cutoff 4"):
        verify_tensor_factorization(a, c, split31, 0.0, [(3, 2)], 4, QuadratureSpec())


def test_factorization_identity_tensor(split31):
    # f depends only on the inner coordinate: each level of the full-ball
    # rule is I (x) T_c.  a == 1 keeps the integrand polynomial, so explicit
    # modest orders are exact and the 3-dim product rule stays within the
    # node budget.
    spec = QuadratureSpec(q=16, angular=9)
    a, c = parse_symbol("1", split31), parse_symbol("1 - abs2(zc)", None)
    levels = [(0, 0), (1, 0), (1, 1)]
    _, reports = verify_tensor_factorization(a, c, split31, 0.0, levels, 4, spec, tol=1e-10)
    assert [rep.rho for rep in reports] == levels
    for rep in reports:
        assert rep.mu == 0.0 + sum(rep.rho) + split31.ell
        assert rep.passed and rep.max_deviation < 1e-10, rep.summary()


def test_off_block_mass_of_a_non_invariant_symbol(split31):
    spec = QuadratureSpec()
    space = WeightedSpace(3, 0.0, geometry=split31)
    M = toeplitz_matrix(parse_symbol("re(z1)", split31), space, 3, spec)
    off, total = off_block_mass(M, split31)
    assert off > 1e-8 * total > 0.0


def test_off_block_mass_zero_for_invariant(split31):
    spec = QuadratureSpec()
    space = WeightedSpace(3, 0.5, geometry=split31)
    M = toeplitz_matrix(parse_symbol("abs2(z1) + abs2(z3)", split31), space, 3, spec)
    off, total = off_block_mass(M, split31)
    assert off <= 1e-12 * total


def test_block_norm_sup_equals_full_norm():
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    space = WeightedSpace(2, 0.0, geometry=g)
    f = parse_symbol("prod(a = r1^2, c = 1)", g)
    M = toeplitz_matrix(f, space, 5, spec, use_fast_paths=False)
    norms = block_norms(M, g)
    assert max(norms.values()) == pytest.approx(operator_norm(M), abs=1e-10)


def test_reassemble_recovers_matrix(split31):
    spec = QuadratureSpec(q=16, angular=9)
    space = WeightedSpace(3, 0.0, geometry=split31)
    f = parse_symbol("prod(a = 1, c = 2 - abs2(zc))", split31)
    M = toeplitz_matrix(f, space, 4, spec, use_fast_paths=False)
    # the level blocks scattered back are M: nothing lies outside them
    off, _ = off_block_mass(M, split31)
    assert off < 1e-12


@pytest.mark.parametrize("check", [off_block_mass, block_norms])
def test_level_checks_refuse_a_geometry_of_another_dimension(split31, check):
    space = WeightedSpace(2, 0.0)
    M = toeplitz_matrix(parse_symbol("1 - abs2(z)", None), space, 3, QuadratureSpec())
    with pytest.raises(DomainError):
        check(M, split31)


@pytest.mark.parametrize(
    "a_text,c_text",
    [("r1^2", "1"), ("r1^2", "1 - abs2(zc)"), ("1 - r1^2", "re(zc1)")],
)
def test_factorization_small(a_text, c_text):
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    a = parse_symbol(a_text, g)
    c = parse_symbol(c_text, None)
    _, reports = verify_tensor_factorization(a, c, g, 0.0, [(0,), (2,)], 4, spec)
    assert [rep.rho for rep in reports] == [(0,), (2,)]
    for rep in reports:
        assert rep.passed, rep.summary()
        assert rep.max_deviation < 1e-5


def test_factorization_refuses_a_level_over_the_cutoff_before_assembling(monkeypatch):
    g = BallGeometry(2, 1, (1,))
    a, c = parse_symbol("r1^2", g), parse_symbol("re(zc1)", None)

    class Assembled(Exception):
        pass

    def sentinel(*args, **kwargs):
        raise Assembled

    monkeypatch.setattr(levels_module, "assemble", sentinel)
    monkeypatch.setattr(levels_module, "_assemble_with_stderr", sentinel)
    mc = QuadratureSpec(scheme=MONTE_CARLO, n_samples=1000, seed=1)
    for spec in (QuadratureSpec(), mc):
        for bad in ([(0,), (5,)], [(1, 0)], [(-1,)]):
            with pytest.raises(DomainError):
                verify_tensor_factorization(a, c, g, 0.0, bad, 4, spec)
        with pytest.raises(DomainError, match="level total 5 exceeds the cutoff 4"):
            verify_tensor_factorization(a, c, g, 0.0, levels_up_to(6, 1), 4, spec)
        with pytest.raises(Assembled):
            verify_tensor_factorization(a, c, g, 0.0, levels_up_to(4, 1), 4, spec)


def test_factorization_refuses_a_non_invariant_a_before_assembling(monkeypatch):
    # re(z1) turns under the group torus: the levels path does not take it,
    # and the check says so before either route is assembled
    g = BallGeometry(3, 2, (2,))
    a, c = parse_symbol("re(z1)", g), parse_symbol("1 - abs2(zc)", None)

    class Assembled(Exception):
        pass

    def sentinel(*args, **kwargs):
        raise Assembled

    monkeypatch.setattr(levels_module, "assemble", sentinel)
    monkeypatch.setattr(levels_module, "_assemble_with_stderr", sentinel)
    monkeypatch.setattr(toeplitz_module, "ball_rule", sentinel)
    mc = QuadratureSpec(scheme=MONTE_CARLO, n_samples=1000, seed=1)
    for spec in (QuadratureSpec(), mc):
        with pytest.raises(DomainError, match="invariant under the group torus action"):
            verify_tensor_factorization(a, c, g, 0.0, [(0,), (1,)], 2, spec)


def test_factorization_refuses_a_callable_factor_before_any_plan(monkeypatch):
    g = BallGeometry(2, 1, (1,))
    one = parse_symbol("1", None)

    def sentinel(*args, **kwargs):
        raise AssertionError("planned or assembled")

    for name in ("assembly_path", "assemble", "_assemble_with_stderr"):
        monkeypatch.setattr(levels_module, name, sentinel)
    fn = lambda z: np.ones(len(z))  # noqa: E731
    for which, (a, c) in (("a", (fn, one)), ("c", (one, fn))):
        with pytest.raises(DomainError, match=f"the {which}-factor must be a parsed symbol"):
            verify_tensor_factorization(a, c, g, 0.0, [(0,)], 2, QuadratureSpec())


def test_factorization_report_fields():
    g = BallGeometry(2, 1, (1,))
    _, (rep,) = verify_tensor_factorization(
        parse_symbol("r1^2", g), parse_symbol("1", None), g, 0.5, [(1,)], 3, QuadratureSpec()
    )
    assert rep.rho == (1,)
    assert rep.mu == 0.5 + 1 + 1
    assert "rho=(1,)" in rep.summary()


def test_neville_extrapolation_exact_on_polynomials():
    us = np.array([0.5, 0.25, 0.125, 0.0625])
    values = 3.0 - 2.0 * us + 7.0 * us**2
    out = _neville_to_zero(us, values)
    assert out == pytest.approx(3.0, abs=1e-12)


def test_recovery_reproduces_inner_symbol():
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("2 - abs2(zc)", None)
    # evaluation blocks carry a deep cutoff so the kernel series has
    # converged wherever the remainder quadrature puts its nodes
    eval_blocks = [
        level_block_direct(c, g, 0.0, (rho,), 1800, spec)
        for rho in (32, 48, 64, 96, 128)
    ]
    rem_blocks = [level_block_direct(c, g, 0.0, (32,), 60, spec)]
    ts = np.linspace(0.0, 0.3, 6)
    grid = np.sqrt(ts)[:, None].astype(complex)
    report = recover_symbol_and_remainder(
        eval_blocks, grid, spec, remainder_blocks=rem_blocks
    )
    exact = 2.0 - ts
    got = np.array([v.real for v in report.values])
    assert np.max(np.abs(got - exact)) < 2.0 / 96.0
    assert report.max_remainder() < 1e-6


def test_radial_recovery_on_an_inner_two_ball():
    """Radial blocks of an inner 2-ball: the kernel-mass sums match the
    dense quadratic forms extrapolated the same way, on and off the axis."""
    g = BallGeometry(3, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("1 - abs2(zc)", None)
    blocks = [level_block_direct(c, g, 0.0, (r,), 40, spec) for r in (16, 12, 8)]
    # |z|^2 <= 0.25: every block's kernel tail is below the usability cap
    grid = np.array([[0.0, 0.0], [0.3, 0.0], [0.2 + 0.1j, -0.3j], [0.3j, 0.35]])
    report = recover_symbol_and_remainder(blocks, grid, spec)
    us = np.array([1.0 / (2 + b.mu + 1.0) for b in blocks])
    for z, got in zip(grid, report.values):
        dense = np.array([berezin_of_operator(b.block, b.mu, z) for b in blocks])
        assert abs(got - _neville_to_zero(us, dense)) <= 1e-12
    assert len(report.by_level) == 3
    assert all(np.isfinite(row[3]) for row in report.by_level)


def test_recovery_of_a_non_radial_symbol():
    """Dense blocks take the quadratic forms and the general remainder
    route; the values are pinned from a run whose Gauss-Jacobi rules were
    50-digit ones (mpmath.eigsy of the Jacobi matrix) rounded once."""
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("re(z1) + 1 - abs2(z)", None)
    blocks = [level_block_direct(c, g, 0.0, (r,), 40, spec) for r in (16, 24, 32)]
    assert all(b.block.per_degree is None and b.block.diag is None for b in blocks)
    rem = [level_block_direct(c, g, 0.0, (16,), 8, spec)]
    grid = np.array([[0.0], [0.3], [0.2 + 0.3j]])
    report = recover_symbol_and_remainder(blocks, grid, spec, remainder_blocks=rem)
    expect = [0.999999999999936, 1.2100057559348139, 1.070006583327177]
    assert np.max(np.abs(report.values - expect)) < 1e-12
    assert report.max_remainder() == pytest.approx(0.033835053586477884, abs=1e-12)


def test_monte_carlo_factorization_gate():
    """The Kronecker reference takes the rule, not the samples, so the
    5 SE gate meets only the full route's own noise."""
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=400_000, seed=7)
    f = parse_symbol("prod(a = 1 - r1^2, c = re(zc1))", g)
    levels = levels_up_to(6, g.m)
    _, reports = verify_tensor_factorization(f.a, f.c, g, 0.0, levels, 8, spec)
    assert [rep.rho for rep in reports] == list(levels)
    for rep in reports:
        assert rep.monte_carlo
        assert rep.passed, rep.summary()


def test_a_deviation_of_five_standard_errors_reads_one(monkeypatch):
    """The sampling gate's ratio is max dev / (5 SE), and both the level
    summary and the suite's pair detail say so: a full route exactly
    5 SE off the level route reads 1.00 and passes."""
    g = BallGeometry(2, 1, (1,))

    def five_se_off(path):
        factored = toeplitz_module.assemble(
            levels_module._level_route(path.symbol, path.space, path.D, path.spec))
        full = OperatorMatrix(factored.basis, factored.entries + (0.25 - 0.5j))
        return full, np.abs(full.entries - factored.entries) / 5.0

    monkeypatch.setattr(levels_module, "_assemble_with_stderr", five_se_off)
    spec = QuadratureSpec(scheme=MONTE_CARLO, n_samples=2000, seed=3)
    f = parse_symbol("prod(a = 1 - r1^2, c = re(zc1))", g)
    _, reports = verify_tensor_factorization(f.a, f.c, g, 0.0, [(0,), (1,)], 3, spec)
    for rep in reports:
        assert rep.passed and "[ok] (max dev/(5 SE) = 1.00)" in rep.summary(), rep.summary()

    cfg = ExperimentConfig.from_mapping({
        "quad.scheme": "monte_carlo", "quad.samples": "2000", "truncation.D": "3",
        "truncation.R": "1", "threads": "1",
    })
    pairs = [c for c in plan_factorization_suite(cfg)().checks if c.label.startswith("pair(")]
    assert pairs and all(c.passed and c.detail.endswith(", max dev/(5 SE) 1.00") for c in pairs)


def test_recovery_refuses_points_of_another_dimension():
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    radial = [level_block_direct(parse_symbol("1 - abs2(zc)", None), g, 0.0, (8,), 24, spec)]
    dense = [level_block_direct(parse_symbol("re(z1) + 1 - abs2(z)", None), g, 0.0,
                                (8,), 8, spec)]
    with pytest.raises(DomainError):
        recover_symbol_and_remainder(radial, np.array([[0.3, 0.4]]), spec)
    for z in ([0.3, 0.4], np.array([[0.3, 0.4]]), 0.3):
        with pytest.raises(DomainError):
            RecoveredSymbol(dense)(z)
    assert RecoveredSymbol(dense)(np.array([[0.3], [0.1j]])).shape == (2,)


def test_recovery_grid_csv_headers():
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("1 - abs2(zc)", None)
    blocks = [level_block_direct(c, g, 0.0, (8,), 24, spec)]
    grid = np.array([[0.0 + 0.0j], [0.5 + 0.0j]])
    report = recover_symbol_and_remainder(blocks, grid, spec, remainder_blocks=blocks)
    lines = report.grid_csv_lines()
    assert lines[0].startswith("re_z1,im_z1")
    assert len(lines) == 3
    rem = report.remainder_csv_lines()
    assert rem[0] == "rho,mu,hdim,remainder_norm"


def test_group_invariance_without_axis_winding():
    """Symbols invariant under the group torus but not under each axis's
    rotation: the group winding is not the per-axis winding summed."""
    g = BallGeometry(3, 2, (2,))
    space = WeightedSpace(3, 0.0, geometry=g)
    for text in ("re(z1*conj(z2)) * re(zc1)", "abs2(z1) + re(zc1)"):
        f = parse_symbol(text, g)
        assert str(classify_symbol(f, g)) == "TorusInvariant", text
        fast = toeplitz_matrix(f, space, 4, QuadratureSpec())
        # exact: the level mask is applied, not mere roundoff
        assert off_block_mass(fast, g)[0] == 0.0, text
        honest = toeplitz_matrix(f, space, 4, QuadratureSpec(), use_fast_paths=False)
        assert off_block_mass(honest, g)[0] < 1e-14, text

    spec = QuadratureSpec(q=16, angular=12)
    f = parse_symbol("prod(a = re(z1*conj(z2)), c = 1 - abs2(zc))", g)
    assert off_block_mass(toeplitz_matrix(f, space, 2, spec), g)[0] == 0.0
    _, (report,) = verify_tensor_factorization(f.a, f.c, g, 0.0, [(1,)], 2, spec)
    assert report.passed and report.max_deviation < 1e-12


def _dense_block(blk):
    """The same block held as a dense matrix: it takes the quadratic form."""
    return dataclasses.replace(blk, block=OperatorMatrix(blk.block.basis, blk.block.entries))


def test_diagonal_blocks_give_the_dense_blocks_recovery():
    """A radial block is a radial form, its D + 1 eigenvalues, whose rows
    are the diagonal of its Toeplitz matrix, and their kernel-mass sums
    give the values the same block gives through the dense quadratic
    form, on the disk and on the 2-ball."""
    spec = QuadratureSpec()
    c = parse_symbol("(1+i)*(1 - abs2(zc)) + 0.5*abs2(zc)^2", None)
    c_inner = parse_symbol("(1+i)*(1 - abs2(z)) + 0.5*abs2(z)^2", None)
    for n, D in itertools.product((2, 3), (24, 60)):
        g = BallGeometry(n, 1, (1,))
        grid = np.zeros((4, n - 1), dtype=complex)
        grid[:, 0] = [0.0, 0.3, 0.2 + 0.1j, 0.4j]
        if n == 3:
            grid[2:, 1] = [-0.3j, 0.2]
        for r in (16, 12, 8):
            blk = level_block_direct(c, g, 0.0, (r,), D, spec)
            values = blk.block.per_degree
            assert values.dtype == complex and values.shape == (D + 1,)
            assert blk.block._basis is None and blk.block._diag is None
            t_c = toeplitz_matrix(c_inner, g.level_space(0.0, (r,)), D, spec)
            assert np.array_equal(values, t_c.per_degree)
            assert np.array_equal(blk.block.diag, t_c.diag)
            dense = _dense_block(blk)
            assert dense.block.diag is None
            got = RecoveredSymbol([blk])(grid)
            ref = RecoveredSymbol([dense])(grid)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (n, D, r)


def _recovered_point_by_point(estimator, z):
    """The per-point loop ``RecoveredSymbol`` ran before point sets: each
    block's kernel tail at each point and one extrapolation per point.
    Returns the values and, per point, how many blocks resolved it before
    the _MAX_NODES cut and which blocks entered its value."""
    t = np.sum(np.abs(z) ** 2, axis=1)
    s_exps = np.array([b.d + b.mu + 1.0 for b in estimator.blocks])
    out = np.empty(z.shape[0], dtype=complex)
    resolved, entered = [], []
    for i in range(z.shape[0]):
        usable = np.array([kernel_tail(s, b.D, t[i]) <= _TAIL_CAP
                           for s, b in zip(s_exps, estimator.blocks)])
        resolved.append(int(np.count_nonzero(usable)))
        usable &= np.cumsum(usable) <= _MAX_NODES
        usable[0] |= not usable.any()
        cols = np.flatnonzero(usable)
        entered.append(cols.tolist())
        row = np.array([
            berezin_of_operator(estimator.blocks[j].block, estimator.blocks[j].mu, z[i])
            if estimator.blocks[j].block.per_degree is None
            else radial_berezin_sum(estimator.blocks[j].block.per_degree, s_exps[j], t[i : i + 1])[0]
            for j in cols
        ], dtype=complex)
        out[i] = row[0] if cols.size == 1 else _neville_to_zero(1.0 / s_exps[cols], row)
    return out, resolved, entered


def test_recovery_over_a_point_set_keeps_the_bits_of_the_point_loop():
    """Usability decided by the tail bounds and one extrapolation per
    pattern of usable blocks give the per-point loop's values bitwise,
    with a dense block among radial ones, points past the node cut, points
    one block resolves and points none does (the largest-weight fallback)."""
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("2 - abs2(zc) + 0.3*abs2(zc)^2", None)
    blocks = [level_block_direct(c, g, 0.0, (r,), 40, spec) for r in (4, 8, 16, 24, 32, 48, 64)]
    blocks.append(level_block_direct(c, g, 0.0, (20,), 60, spec))
    blocks.append(_dense_block(level_block_direct(c, g, 0.0, (12,), 40, spec)))
    ts = np.linspace(0.0, 0.6, 40)
    grid = (np.sqrt(ts) * np.exp(1j * np.arange(40.0)))[:, None]
    estimator = RecoveredSymbol(blocks)
    want, resolved, entered = _recovered_point_by_point(estimator, grid)
    got = estimator(grid)
    assert got.tobytes() == want.tobytes()
    assert {0, 1, 2}.issubset(resolved) and max(resolved) > _MAX_NODES
    dense = next(j for j, b in enumerate(estimator.blocks) if b.block.per_degree is None)
    assert any(dense in cols and len(cols) > 1 for cols in entered)
    assert estimator(grid[5]) == got[5]


def test_deep_radial_recovery_never_builds_a_dense_block():
    """A disk block at D_inner = 1800 through recovery stays O(K) in memory."""
    g = BallGeometry(2, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("2 - abs2(zc)", None)
    k = 1801
    grid = np.sqrt(np.linspace(0.0, 0.3, 6))[:, None].astype(complex)
    tracemalloc.start()
    try:
        blk = level_block_direct(c, g, 0.0, (32,), 1800, spec)
        assert blk.block.per_degree.shape == (1801,)
        report = recover_symbol_and_remainder([blk], grid, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blk.block._basis is None and blk.block._dense is None
    assert blk.block.basis.count == k
    assert peak < k * k * 16 / 10
    assert len(report.by_level) == 1 and np.isfinite(report.max_remainder())


def test_deep_recovery_on_an_inner_two_ball_builds_no_basis(monkeypatch):
    """Radial blocks on the inner 2-ball at D_inner = 1800, where a basis
    has 1,622,701 rows, are their 1801 eigenvalues: recovery runs with no
    basis built and recovers c to within 2 / mu_max."""

    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(toeplitz_module, "enumerate_basis", refuse)
    g = BallGeometry(3, 1, (1,))
    spec = QuadratureSpec()
    c = parse_symbol("2 - abs2(zc)", None)
    ts = np.linspace(0.0, 0.81, 10)
    grid = np.zeros((len(ts), 2), dtype=complex)
    grid[:, 0] = np.sqrt(ts)
    tracemalloc.start()
    try:
        blocks = [level_block_direct(c, g, 0.0, (r,), 1800, spec)
                  for r in (32, 48, 64, 96, 128)]
        rem = [level_block_direct(c, g, 0.0, (r,), 60, spec) for r in (32, 48, 64)]
        report = recover_symbol_and_remainder(blocks, grid, spec, remainder_blocks=rem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = count_basis(2, 1800)
    assert rows == 1_622_701
    # the basis norms alone would take 8 bytes a row
    assert peak < rows * 8 / 10
    mu_max = max(b.mu for b in blocks)
    assert np.max(np.abs(report.values - (2.0 - ts))) <= 2.0 / mu_max
    assert report.max_remainder() <= 1e-6
