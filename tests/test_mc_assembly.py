"""Monte Carlo assembly: prefix-row monomials, in cache-sized chunks,
contracted in node blocks.

The reference below is the earlier kernel: one (n, K) Vandermonde matrix
per chunk, gathered column-wise from per-axis power tables, contracted
with itself, and |v|^2 for the second moment.  The row kernel must give
the same entries and standard errors on the same samples, and one spec
draws its samples once.  A chunk's products are taken in node blocks of
_BLOCK_VALUES // K^2 samples while K^3 <= 2 _BLOCK_VALUES (K = 35 and 45
here), so no product passes _BLOCK_VALUES multiply-adds, and as one
product past that cut (K = 84); both sides must match the reference.
On the blocked side one helper thread contracts a chunk while the next
is built: the sums must keep the bits of an inline run, the helper must
be the only thread that adds to them, and it must be gone when the
assembly returns or fails.
"""

import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

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
    for d in range(1, 5):
        z = rng.normal(size=(257, d)) + 1j * rng.normal(size=(257, d))
        for D in range(9):
            basis = enumerate_basis(d, D, 0.5)
            for nodes in (z, np.abs(z)):
                got = toeplitz._monomial_rows(nodes, basis).T
                assert np.array_equal(got, _gathered_vandermonde(nodes, basis)), (d, D)


def _record_products(monkeypatch):
    """The (a, b) shapes of every ``np.matmul`` call from now on."""
    seen = []
    matmul = np.matmul

    def recorded(a, b, *args, **kwargs):
        seen.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return seen


def _multiply_adds(a_shape, b_shape):
    """Multiply-adds of one product of a stack: m * p * n."""
    assert a_shape[-1] == b_shape[-2]
    return a_shape[-2] * a_shape[-1] * b_shape[-1]


def _one_node_chunks_keep_the_entries(monkeypatch, d, text, blocked_values):
    f = parse_symbol(text, None)
    space = WeightedSpace(d, 0.0)
    spec = _mc(4000)
    k = enumerate_basis(d, 4, 0.0).count
    whole, whole_se = toeplitz_matrix_with_stderr(f, space, 4, spec)
    monkeypatch.setattr(toeplitz, "_BLOCK_VALUES", 7)  # one node per chunk
    rows = toeplitz._monomial_rows
    chunk_sizes = set()

    def recorded(z, basis, *bufs):
        chunk_sizes.add(z.shape[0])
        return rows(z, basis, *bufs)

    monkeypatch.setattr(toeplitz, "_monomial_rows", recorded)
    chunked, chunked_se = toeplitz_matrix_with_stderr(f, space, 4, spec)
    assert chunk_sizes == {1}
    assert _rel_dev(chunked.entries, whole.entries) <= 1e-14
    assert _rel_dev(chunked_se, whole_se) <= 1e-14

    # several node blocks to a chunk, the last one short
    nb = blocked_values // (k * k)
    chunk = blocked_values // k
    assert k**3 <= 2 * blocked_values and chunk // nb >= 2 and chunk % nb
    monkeypatch.setattr(toeplitz, "_BLOCK_VALUES", blocked_values)
    products = _record_products(monkeypatch)
    blocked, blocked_se = toeplitz_matrix_with_stderr(f, space, 4, spec)
    stacks = [a for a, _ in products if len(a) == 3]
    assert stacks[0] == (chunk // nb, k, nb) and all(a[2] == nb for a in stacks)
    assert any(a == (k, chunk % nb) for a, _ in products)
    assert max(_multiply_adds(a, b) for a, b in products) <= blocked_values
    assert _rel_dev(blocked.entries, whole.entries) <= 1e-14
    assert _rel_dev(blocked_se, whole_se) <= 1e-14


def test_chunk_size_does_not_change_entries(monkeypatch):
    # K = 15: 8-node blocks, 133-node chunks
    _one_node_chunks_keep_the_entries(
        monkeypatch, 2, "z1^2*conj(z2) + 1/(2 - abs2(z))", 2000)


def test_chunk_size_does_not_change_entries_on_the_3_ball(monkeypatch):
    # K = 35: 17-node blocks, 628-node chunks
    _one_node_chunks_keep_the_entries(
        monkeypatch, 3, "z1^2*conj(z3) + 1/(2 - abs2(z))", 22_000)


@pytest.mark.parametrize("D, k, blocked", [(4, 35, True), (6, 84, False)])
def test_both_sides_of_the_node_block_cut_match_the_reference(monkeypatch, D, k, blocked):
    # 4,001 samples: a short last chunk, and at K = 35 a short last block
    f = parse_symbol("(0.2 + 0.1*i)*z3^2*conj(z2) + conj(z1)^3 + 1/(2 - abs2(z))", None)
    space = WeightedSpace(3, 0.5)
    spec = _mc(4001, 7)
    products = _record_products(monkeypatch)
    m, se = toeplitz_matrix_with_stderr(f, space, D, spec)
    ref, ref_se = _reference_with_stderr(f, space, D, spec)
    assert m.size == k
    chunk = toeplitz._BLOCK_VALUES // k
    assert 4001 % chunk
    if blocked:
        nb = toeplitz._BLOCK_VALUES // (k * k)
        assert (4001 % chunk) % nb
        assert max(_multiply_adds(a, b) for a, b in products) <= toeplitz._BLOCK_VALUES
    else:  # one product per moment and chunk
        assert len(products) == 2 * -(-4001 // chunk)
        assert {a[1] for a, _ in products} == {chunk, 4001 % chunk}
    assert _rel_dev(m.entries, ref) <= 1e-13
    assert _rel_dev(se, ref_se) <= 1e-13


@pytest.mark.parametrize("d, D, k", [(3, 4, 35), (2, 8, 45)])
def test_every_node_product_stays_within_the_block_budget(monkeypatch, d, D, k):
    # K = 35 is the benchmark's Monte Carlo basis; K = 45 the full route of
    # the default factorization check (n = 2, D = 8) under sampling
    f = parse_symbol("z1*conj(z2) + 1/(2 - abs2(z))", None)
    products = _record_products(monkeypatch)
    m, _ = toeplitz_matrix_with_stderr(f, WeightedSpace(d, 0.0), D, _mc(20_000))
    assert m.size == k and products
    assert max(_multiply_adds(a, b) for a, b in products) <= toeplitz._BLOCK_VALUES


class _InlineExecutor:
    """A one-worker executor that runs each job as it is submitted."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def submit(self, fn, *args):
        done = Future()
        try:
            done.set_result(fn(*args))
        except BaseException as exc:
            done.set_exception(exc)
        return done

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def helpers(monkeypatch):
    """Every helper pool ``_node_sums`` starts, and the thread of every
    ``_add_node_products`` call."""
    made, callers = [], []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    add = toeplitz._add_node_products

    def recorded(*args, **kwargs):
        callers.append(threading.get_ident())
        return add(*args, **kwargs)

    monkeypatch.setattr(toeplitz, "ThreadPoolExecutor", Recorded)
    monkeypatch.setattr(toeplitz, "_add_node_products", recorded)
    return made, callers


# K = 35 (1,872-node chunks) and K = 45 (1,456-node chunks) over 10,001
# samples: several chunks and a short last one
@pytest.mark.parametrize("d, D, k", [(3, 4, 35), (2, 8, 45)])
def test_the_pipeline_keeps_the_bits_of_one_thread(monkeypatch, helpers, d, D, k):
    made, callers = helpers
    f = parse_symbol("(0.2 + 0.1*i)*z1^2*conj(z2) + conj(z1)^3 + 1/(2 - abs2(z))", None)
    space = WeightedSpace(d, 0.5)
    spec = _mc(10_001, 7)
    chunk = toeplitz._BLOCK_VALUES // k
    assert k**3 <= 2 * toeplitz._BLOCK_VALUES and 10_001 // chunk >= 5 and 10_001 % chunk

    m, se = toeplitz_matrix_with_stderr(f, space, D, spec)
    plain = toeplitz_matrix(f, space, D, spec, use_fast_paths=False)
    assert m.size == k and len(made) == 2
    assert all(pool._max_workers == 1 and pool._shutdown for pool in made)
    # only the helpers add to the sums: 2 + 1 products per chunk
    assert len(callers) == 3 * -(-10_001 // chunk)
    assert threading.get_ident() not in callers

    monkeypatch.setattr(toeplitz, "ThreadPoolExecutor", _InlineExecutor)
    m_inline, se_inline = toeplitz_matrix_with_stderr(f, space, D, spec)
    plain_inline = toeplitz_matrix(f, space, D, spec, use_fast_paths=False)
    assert m.entries.tobytes() == m_inline.entries.tobytes()
    assert se.tobytes() == se_inline.tobytes()
    assert plain.entries.tobytes() == plain_inline.entries.tobytes()
    assert plain.entries.tobytes() == m.entries.tobytes()


def test_past_the_node_block_cut_no_helper_is_started(monkeypatch):
    # K = 84: the BLAS threads each product itself, and the chunks run inline
    def refuse(*args, **kwargs):
        raise AssertionError("a helper pool was started")

    monkeypatch.setattr(toeplitz, "ThreadPoolExecutor", refuse)
    f = parse_symbol("z1*conj(z2) + 1/(2 - abs2(z))", None)
    m, se = toeplitz_matrix_with_stderr(f, WeightedSpace(3, 0.0), 6, _mc(4001))
    assert m.size == 84 and 4001 > toeplitz._BLOCK_VALUES // 84
    assert np.all(np.isfinite(se))


def test_an_assembly_leaves_no_thread_behind():
    f = parse_symbol("z1*conj(z2) + 0.5", None)
    before = threading.active_count()
    toeplitz_matrix_with_stderr(f, WeightedSpace(3, 0.0), 4, _mc(20_000))
    toeplitz_matrix(f, WeightedSpace(2, 0.0), 8, _mc(20_000), use_fast_paths=False)
    assert threading.active_count() == before


def test_a_failed_contraction_propagates_and_shuts_the_helper_down(monkeypatch, helpers):
    made, _ = helpers
    add = toeplitz._add_node_products  # the recording wrapper
    calls = []

    def third_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("third contraction")
        return add(*args, **kwargs)

    monkeypatch.setattr(toeplitz, "_add_node_products", third_fails)
    f = parse_symbol("z1*conj(z3) + 0.5", None)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="third contraction"):
        # first moment only: one product per chunk, 22 chunks of K = 35
        toeplitz_matrix(f, WeightedSpace(3, 0.0), 4, _mc(40_000), use_fast_paths=False)
    assert len(made) == 1 and made[0]._shutdown
    assert 3 <= len(calls) < 22
    assert threading.active_count() == before


def test_concurrent_pipelined_assemblies_keep_their_bits(monkeypatch):
    # four callers, each with its own helper, so eight busy threads, and a
    # thread switch every microsecond: a reused buffer set or a lost or
    # reordered add would move the bits of some sum
    cases = [("z1*conj(z2) + 1/(2 - abs2(z))", 3, 4), ("conj(z1)^3 + abs2(z)", 2, 8)]
    spec = _mc(12_000, 3)

    def assemble(i):
        text, d, D = cases[i % 2]
        return toeplitz_matrix_with_stderr(parse_symbol(text, None), WeightedSpace(d, 0.0), D, spec)

    monkeypatch.setattr(toeplitz, "ThreadPoolExecutor", _InlineExecutor)
    want = [assemble(i) for i in range(2)]
    monkeypatch.undo()
    got = {}

    def run(i):
        got[i] = assemble(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == 4
    for i, (m, se) in got.items():
        m_want, se_want = want[i % 2]
        assert m.entries.tobytes() == m_want.entries.tobytes()
        assert se.tobytes() == se_want.tobytes()


def test_concurrent_callers_of_one_key_share_one_draw(monkeypatch):
    calls = []

    def slow(d, lam, n, seed):
        calls.append((d, lam, n, seed))
        time.sleep(0.2)  # the second caller arrives while the first draws
        return monte_carlo_points(d, lam, n, seed)

    toeplitz._sample_points.cache_clear()
    monkeypatch.setattr(toeplitz, "monte_carlo_points", slow)
    start = threading.Barrier(2)
    got = [None, None]

    def draw(i):
        start.wait()
        got[i] = toeplitz._sample_points(2, 0.0, 5000, 20_260_813)

    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        toeplitz._sample_points.cache_clear()
    assert not any(t.is_alive() for t in threads)
    assert calls == [(2, 0.0, 5000, 20_260_813)]
    assert got[0] is got[1] and not got[0].flags.writeable


@pytest.fixture
def draws(monkeypatch):
    """The (d, lam, n, seed) of every fresh Monte Carlo draw, from an
    empty draw cache."""
    seen = []

    def counted(d, lam, n, seed):
        seen.append((d, lam, n, seed))
        return monte_carlo_points(d, lam, n, seed)

    toeplitz._sample_points.cache_clear()
    monkeypatch.setattr(toeplitz, "monte_carlo_points", counted)
    yield seen
    toeplitz._sample_points.cache_clear()


def test_assemblies_of_one_spec_draw_once(draws):
    f = parse_symbol("z1*conj(z2) + 0.5", None)
    space = WeightedSpace(2, 0.5)
    m = toeplitz_matrix(f, space, 3, _mc(2000), use_fast_paths=False)
    m_se, _ = toeplitz_matrix_with_stderr(f, space, 3, _mc(2000))
    toeplitz_matrix_with_stderr(parse_symbol("conj(z1)^3", None), space, 2, _mc(2000))
    assert draws == [(2, 0.5, 2000, 5)]
    assert np.array_equal(m.entries, m_se.entries)


def test_the_kept_draw_is_read_only_and_fresh_bitwise(draws):
    z = toeplitz._sample_points(3, 0.5, 1000, 11)
    fresh, _ = monte_carlo_points(3, 0.5, 1000, 11)
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 0.0
    assert z.dtype == fresh.dtype and z.shape == fresh.shape
    assert z.tobytes() == fresh.tobytes()


def test_a_changed_draw_key_draws_anew(draws):
    keys = [(2, 0.5, 1500, 5), (2, 0.5, 1500, 6), (2, 0.5, 1600, 6),
            (2, 2.0, 1600, 6), (3, 2.0, 1600, 6)]
    f = parse_symbol("re(z1) + 1", None)
    for d, lam, n, seed in keys:
        toeplitz_matrix_with_stderr(f, WeightedSpace(d, lam), 2, _mc(n, seed))
    assert draws == keys


@pytest.mark.parametrize("with_stderr", [False, True])
def test_a_callable_symbol_is_called_once_per_assembly(with_stderr):
    calls = []

    def f(z):
        calls.append(z.shape)
        return z[:, 0] * np.conj(z[:, 1]) + 1.0

    space = WeightedSpace(2, 0.0)
    spec = _mc(50_000)
    if with_stderr:
        toeplitz_matrix_with_stderr(f, space, 4, spec)
    else:
        toeplitz_matrix(f, space, 4, spec)
    assert calls == [(50_000, 2)]


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


def test_the_stderr_sums_add_only_their_chunk_buffers_to_the_evaluation():
    # on a kept 400,000-sample draw of the 3-ball, w f and sqrt(w) |f| taken
    # over the whole draw added 9.6 MB (and a 3.2 MB |f|) to its 6.4 MB of
    # symbol values; chunk by chunk they stay within the chunk buffers
    n = 400_000
    f = parse_symbol("conj(z1)", None)
    space = WeightedSpace(3, 0.0)
    try:
        toeplitz_matrix_with_stderr(f, space, 4, _mc(n, 7))  # keeps the draw
        z = toeplitz._sample_points(3, 0.0, n, 7)
        fn = as_point_function(f)
        tracemalloc.start()
        try:
            toeplitz.evaluate_finite(fn, z)
            _, evaluation = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            toeplitz_matrix_with_stderr(f, space, 4, _mc(n, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        toeplitz._sample_points.cache_clear()
    # the evaluation peaks at twice its 6.4 MB of values; the two buffer
    # sets (two complex and one real chunk buffer of _BLOCK_VALUES values
    # each, plus their product stacks, 7.3 MB at K = 35) go over that peak
    # by at most four complex chunk buffers
    assert peak <= evaluation + 4 * toeplitz._BLOCK_VALUES * 16


def _reference_points(d, lam, n, seed):
    """The draw as one formula over full-size temporaries."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = rng.beta(d, lam + 1.0, size=n)
    s = np.ones((n, 1)) if d == 1 else rng.dirichlet(np.ones(d), size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(n, d))
    return np.sqrt(t[:, None] * s) * np.exp(1j * theta), t


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_the_in_place_draw_keeps_the_formula_bits(d, lam):
    for seed in (0, 7, 20_260_813):
        z, t = monte_carlo_points(d, lam, 3000, seed)
        ref_z, ref_t = _reference_points(d, lam, 3000, seed)
        assert z.dtype == ref_z.dtype and z.shape == ref_z.shape
        assert z.tobytes() == ref_z.tobytes() and t.tobytes() == ref_t.tobytes()


def test_the_draw_holds_no_temporary_of_the_points_size():
    # the formula's temporaries peak at 70 MB for these 22 MB of points
    # and radii
    tracemalloc.start()
    try:
        z, t = monte_carlo_points(3, 0.0, 400_000, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (z.nbytes + t.nbytes)


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
