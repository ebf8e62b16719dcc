"""Geometry, basis enumeration and the counting combinatorics."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import (
    BallGeometry,
    DomainError,
    WeightedSpace,
    basis_norm_constant,
    count_basis,
    dim_level,
    enumerate_basis,
    level_layout,
    levels_up_to,
)
from berglab.core import compositions, csv_lines, format_cell, monomial_moment


def test_geometry_accepts_valid_partitions():
    g = BallGeometry(3, 2, (1, 1))
    assert g.d_inner == 1
    assert g.m == 2
    g2 = BallGeometry(4, 2, (2,))
    assert g2.d_inner == 2


def test_geometry_rejects_bad_input():
    with pytest.raises(DomainError):
        BallGeometry(0, 0, ())
    with pytest.raises(DomainError):
        BallGeometry(2, 3, (3,))  # split exceeds dimension
    with pytest.raises(DomainError):
        BallGeometry(3, 2, (1,))  # partition does not sum to the split
    with pytest.raises(DomainError):
        BallGeometry(3, 2, (2, 0))  # zero part


def test_weighted_space_validates_weight():
    WeightedSpace(2, -0.5)
    with pytest.raises(DomainError):
        WeightedSpace(2, -1.0)
    with pytest.raises(DomainError):
        WeightedSpace(0, 0.0)


def test_weighted_space_refuses_a_geometry_of_another_dimension():
    WeightedSpace(2, 0.0, geometry=BallGeometry(2, 1, (1,)))
    with pytest.raises(DomainError, match="d = 1 .* n = 2"):
        WeightedSpace(1, 0.0, geometry=BallGeometry(2, 1, (1,)))


def test_count_basis_is_binomial():
    for d in range(1, 5):
        for D in range(0, 9):
            assert count_basis(d, D) == math.comb(d + D, d)


def test_enumerate_basis_roundtrip():
    basis = enumerate_basis(2, 5, 0.5)
    assert basis.count == count_basis(2, 5)
    seen = set()
    for i, alpha in enumerate(basis.indices):
        assert basis.index_of(alpha) == i
        seen.add(tuple(alpha))
    assert len(seen) == basis.count


def test_enumerate_basis_is_shared_and_read_only():
    basis = enumerate_basis(2, 5, 0.5)
    assert enumerate_basis(2, 5, 0.5) is basis
    # an int weight is its own basis, so records keep the type they were given
    assert enumerate_basis(2, 5, 0) is not enumerate_basis(2, 5, 0.0)
    for arr in (basis.norms, basis.degrees):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2


def test_enumerate_basis_degree_sorted():
    basis = enumerate_basis(3, 4, 0.0)
    degs = [sum(a) for a in basis.indices]
    assert degs == sorted(degs)


def test_norm_constant_matches_gamma_formula():
    # ||z^alpha||^2 = alpha! Gamma(d+lam+1) / Gamma(d+lam+1+|alpha|)
    for d, lam in [(1, 0.0), (2, 0.5), (3, 2.0)]:
        for alpha in [(0,) * d, (1,) + (0,) * (d - 1), (2, 1)[:d] + (0,) * max(0, d - 2)]:
            a = tuple(alpha)
            total = sum(a)
            expect = math.exp(
                sum(math.lgamma(ai + 1) for ai in a)
                + math.lgamma(d + lam + 1)
                - math.lgamma(d + lam + 1 + total)
            )
            assert monomial_moment(a, d, lam) == pytest.approx(expect, rel=1e-13)
            assert basis_norm_constant(a, d, lam) == pytest.approx(
                1.0 / math.sqrt(expect), rel=1e-13
            )


def test_format_cell_writes_each_type_one_way():
    assert format_cell(True) == "1" and format_cell(np.bool_(False)) == "0"
    assert format_cell(np.float64(0.1)) == "0.1" and format_cell(1e-05) == "1e-05"
    assert format_cell(np.float32(0.5)) == "0.5" and format_cell(2.0) == "2.0"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell((1, 0, np.int64(2))) == "1 0 2"
    assert format_cell("1 - abs2(zc)") == "1 - abs2(zc)"
    assert csv_lines("rho,mu,passed", [((0, 1), 3.0, True)]) == ["rho,mu,passed", "0 1,3.0,1"]


def test_group_degrees_sum_each_group():
    k = (2, 1)
    basis = enumerate_basis(4, 6, 0.0)
    lv = basis.group_degrees(k)
    assert lv.shape == (basis.count, 2)
    assert tuple(lv[basis.index_of((0, 0, 0, 0))]) == (0, 0)
    assert tuple(lv[basis.index_of((1, 2, 3, 0))]) == (3, 3)
    assert tuple(lv[basis.index_of((4, 0, 1, 1))]) == (4, 1)


def test_dim_level_is_binomial():
    assert dim_level((0,), (1,)) == 1
    assert dim_level((5,), (1,)) == 1
    assert dim_level((3,), (2,)) == 4  # compositions of 3 into 2 parts
    assert dim_level((2, 3), (2, 2)) == 3 * 4


def test_compositions_cover_simplex():
    out = list(compositions(4, 3))
    assert len(out) == math.comb(4 + 2, 2)
    assert len(set(out)) == len(out)
    assert all(sum(c) == 4 for c in out)


def test_levels_up_to_counts():
    assert len(levels_up_to(6, 1)) == 7
    assert len(levels_up_to(4, 2)) == math.comb(4 + 2, 2)
    for rho in levels_up_to(3, 2):
        assert sum(rho) <= 3


def test_no_parts_hold_only_degree_zero():
    # the empty multi-index; a part count below 0 has no compositions
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == list(compositions(2, -1)) == []
    assert levels_up_to(3, 0) == ((),)


@given(st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration(d, D):
    assert count_basis(d, D) == len(enumerate_basis(d, D, 0.0).indices)


@given(st.integers(0, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dim_level_counts_compositions(total, parts):
    k = (parts,)
    assert dim_level((total,), k) == len(list(compositions(total, parts)))


def test_counting_identity_exhaustive():
    """Level dimensions tile the truncated basis, every desk-size case:
    the level layout has one (dim_level, inner count) array per level up
    to D, and their sizes add up to the basis count."""
    cases = 0
    for n in range(2, 5):
        for ell in range(1, min(2, n - 1) + 1):
            parts = [(ell,)] if ell == 1 else [(2,), (1, 1)]
            for k in parts:
                for D in range(0, 9):
                    geometry = BallGeometry(n, ell, k)
                    layout = level_layout(enumerate_basis(n, D, 0.0), geometry)
                    assert list(layout) == list(levels_up_to(D, geometry.m))
                    for rho, rows in layout.items():
                        inner = count_basis(n - ell, D - sum(rho))
                        assert rows.shape == (dim_level(rho, k), inner), (n, ell, k, D)
                    total = sum(rows.size for rows in layout.values())
                    assert total == count_basis(n, D), (n, ell, k, D)
                    cases += 1
    assert cases == 63


def test_a_basis_norm_past_the_float_range_is_refused():
    assert math.isfinite(basis_norm_constant((1000,), 1, 1000.0))
    with pytest.raises(DomainError, match=r"degree 2000\) at weight 1000\.0"):
        basis_norm_constant((2000,), 1, 1000.0)
