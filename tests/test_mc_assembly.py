"""Monte Carlo assembly: rows built by degree tables, in bounded chunks.

The reference below is the earlier kernel: one (n, K) Vandermonde matrix
per chunk, gathered column-wise from per-axis power tables, contracted
with itself, and |v|^2 for the second moment.  The row kernel must give
the same entries and standard errors on the same samples.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import (
    DomainError,
    QuadratureSpec,
    WeightedSpace,
    monte_carlo_points,
    parse_symbol,
    toeplitz_matrix,
    toeplitz_matrix_with_stderr,
)
from berglab import toeplitz
from berglab.core import enumerate_basis
from berglab.quadrature import MONTE_CARLO, as_point_function


def _gathered_vandermonde(z, basis):
    n_pts = z.shape[0]
    exps = basis.exponent_array()
    out = np.ones((n_pts, basis.count), dtype=z.dtype)
    for ax in range(basis.d):
        degs = exps[:, ax]
        max_deg = int(degs.max()) if degs.size else 0
        powers = np.empty((n_pts, max_deg + 1), dtype=z.dtype)
        powers[:, 0] = 1.0
        col = z[:, ax]
        for p in range(1, max_deg + 1):
            powers[:, p] = powers[:, p - 1] * col
        out *= powers[:, degs]
    out *= basis.norms[None, :]
    return out


def _reference_with_stderr(f, space, D, spec):
    basis = enumerate_basis(space.d, D, space.lam)
    fn = as_point_function(f, space.geometry)
    z, _ = monte_carlo_points(space.d, space.lam, spec.n_samples, spec.seed)
    n = z.shape[0]
    k = basis.count
    chunk = max(1024, 8_000_000 // max(k, 1))
    acc = np.zeros((k, k), dtype=complex)
    acc2 = np.zeros((k, k), dtype=float)
    for start in range(0, n, chunk):
        zz = z[start : start + chunk]
        fv = np.asarray(fn(zz))
        v = _gathered_vandermonde(zz, basis)
        acc += v.conj().T @ (v * (fv / n)[:, None])
        a2 = np.abs(v) ** 2
        acc2 += a2.T @ (a2 * (np.abs(fv) ** 2 / n)[:, None])
    var = np.maximum(acc2 - np.abs(acc) ** 2, 0.0) / max(n - 1, 1)
    return acc, np.sqrt(var)


def _rel_dev(a, ref):
    return float(np.max(np.abs(a - ref))) / float(np.max(np.abs(ref)))


def _mc(n_samples, seed=5):
    return QuadratureSpec(scheme=MONTE_CARLO, n_samples=n_samples, seed=seed)


SYMBOLS = [
    "(0.3 - 0.7*i)*z1^2*conj(z1) + 1/(2 - abs2(z))",
    "re(z1)*abs2(z) + 0.5",
    "conj(z1)^3",
]


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 3),
    D=st.integers(0, 4),
    lam=st.sampled_from([0.0, 0.5, 2.0]),
    text=st.sampled_from(SYMBOLS),
    seed=st.integers(0, 1000),
)
def test_row_kernel_matches_the_gathered_kernel(d, D, lam, text, seed):
    f = parse_symbol(text, None)
    space = WeightedSpace(d, lam)
    spec = _mc(3000, seed)
    m, se = toeplitz_matrix_with_stderr(f, space, D, spec)
    ref, ref_se = _reference_with_stderr(f, space, D, spec)
    assert _rel_dev(m.entries, ref) <= 1e-13
    assert _rel_dev(se, ref_se) <= 1e-13


def test_matrix_and_stderr_share_one_node_sum():
    f = parse_symbol("z1*conj(z2) + 1/(3 - abs2(z))", None)
    space = WeightedSpace(2, 0.5)
    spec = _mc(5000)
    m = toeplitz_matrix(f, space, 3, spec, use_fast_paths=False)
    m_se, _ = toeplitz_matrix_with_stderr(f, space, 3, spec)
    assert np.array_equal(m.entries, m_se.entries)


def test_row_kernel_keeps_the_gathered_bits():
    rng = np.random.default_rng(3)
    basis = enumerate_basis(3, 4, 0.5)
    z = rng.normal(size=(257, 3)) + 1j * rng.normal(size=(257, 3))
    for nodes in (z, np.abs(z)):
        got = toeplitz._monomial_rows(nodes, basis).T
        assert np.array_equal(got, _gathered_vandermonde(nodes, basis))


def test_chunk_size_does_not_change_entries(monkeypatch):
    f = parse_symbol("z1^2*conj(z2) + 1/(2 - abs2(z))", None)
    space = WeightedSpace(2, 0.0)
    spec = _mc(4000)
    whole, whole_se = toeplitz_matrix_with_stderr(f, space, 4, spec)
    monkeypatch.setattr(toeplitz, "_SLAB_ENTRIES", 7)  # one node per chunk
    chunked, chunked_se = toeplitz_matrix_with_stderr(f, space, 4, spec)
    assert _rel_dev(chunked.entries, whole.entries) <= 1e-14
    assert _rel_dev(chunked_se, whole_se) <= 1e-14


def test_memory_stays_below_one_chunk_of_the_gathered_kernel():
    # d = 3, D = 4, K = 35: the earlier kernel's one-chunk Vandermonde
    # over 400,000 samples was n * K * 16 B = 224 MB
    n, k = 400_000, 35
    f = parse_symbol("(0.2 + 0.1*i)*z3^2*conj(z2) + conj(z1)^3", None)
    tracemalloc.start()
    try:
        toeplitz_matrix_with_stderr(f, WeightedSpace(3, 0.0), 4, _mc(n, 7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 16


@pytest.mark.parametrize("with_stderr", [False, True])
def test_non_finite_symbol_is_refused(with_stderr):
    def nan_near_boundary(z):
        t = np.sum(np.abs(z) ** 2, axis=-1)
        return np.where(t > 0.9, np.nan, 1.0)

    space = WeightedSpace(2, 0.0)
    with pytest.raises(DomainError, match="non-finite"):
        if with_stderr:
            toeplitz_matrix_with_stderr(nan_near_boundary, space, 3, _mc(5000))
        else:
            toeplitz_matrix(nan_near_boundary, space, 3, _mc(5000))
