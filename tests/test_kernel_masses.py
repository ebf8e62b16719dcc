"""Kernel masses computed only where they are nonzero keep every bit.

The references below are the per-point routines that exponentiated every
mass: ``_reference_masses``, ``_reference_tail`` and
``_reference_berezin_sum``.  The masses skip the entries whose
exponential underflows to 0.0 and a tail whose first mass does so is 0.0
outright, so each result must equal its reference bitwise, across the
head and far-end branches and at points whose first tail mass sits
within 2 of the underflow bound in log.
"""

import math

import numpy as np
import pytest

from berglab import (
    BallGeometry,
    DomainError,
    QuadratureSpec,
    level_block_direct,
    parse_symbol,
    recover_symbol_and_remainder,
)
from berglab import berezin
from berglab.berezin import (
    _far_end,
    _log_binomials,
    _log_mass,
    kernel_masses,
    kernel_tail,
    radial_berezin_sum,
)


def _reference_masses(log_binomials, s_exp, t, start=0):
    ms = np.arange(start, start + log_binomials.shape[0], dtype=float)
    return np.exp(log_binomials + (ms * math.log(t) + s_exp * math.log1p(-t)))


def _reference_tail(s_exp, D, t):
    if math.isnan(t):
        return math.nan
    if t <= 0.0 or t >= 1.0:
        return float(t >= 1.0)
    if D + 1.0 <= s_exp * t / (1.0 - t):
        head = _reference_masses(_log_binomials(s_exp, D + 1), s_exp, t)
        return 1.0 - float(np.sum(head))
    far = _far_end(s_exp, t, D + 1, _log_mass(s_exp, t, D + 1) - 44.5)
    masses = _reference_masses(_log_binomials(s_exp, far + 1)[D + 1 :], s_exp, t, D + 1)
    return float(np.cumsum(masses[::-1])[-1])


def _reference_berezin_sum(lam, s_exp, t_points):
    out = np.empty(t_points.shape, dtype=np.result_type(lam, float))
    log_binomials = _log_binomials(s_exp, lam.shape[0])
    for i, t in np.ndenumerate(t_points):
        if t == 0.0:
            out[i] = lam[0]
        else:
            out[i] = np.dot(_reference_masses(log_binomials, s_exp, t), lam)
    return out


SWEEP_S = [2.0, 2.5, 3.0, 4.5, 12.0, 34.0, 66.0, 131.0]
SWEEP_D = [0, 1, 60, 1800]
SWEEP_T = [0.0, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]
# offsets, in log, of the first tail mass from the underflow bound
NEAR_OFFSETS = np.linspace(-2.0, 2.0, 17)


def _log_first_tail_mass(s_exp, D, t):
    n = D + 1.0
    return (math.lgamma(s_exp + n) - math.lgamma(n + 1.0) - math.lgamma(s_exp)
            + n * math.log(t) + s_exp * math.log1p(-t))


def _near_threshold_points(s_exp, D):
    """Points past the mean whose mass at degree D + 1 is the underflow
    bound plus each offset, by bisection in log t; offsets out of reach
    of a double t are left out."""
    top = (D + 1.0) / (s_exp + D + 1.0)  # the mass at D + 1 peaks here
    points = []
    for offset in NEAR_OFFSETS:
        goal = berezin._LOG_UNDERFLOW + offset
        lo, hi = -800.0, math.log(top)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            t = math.exp(mid)
            if t > 0.0 and _log_first_tail_mass(s_exp, D, t) < goal:
                lo = mid
            else:
                hi = mid
        t = math.exp(hi)
        if 0.0 < t < top and abs(_log_first_tail_mass(s_exp, D, t) - goal) < 0.01:
            points.append(t)
    return points


def _sweep_mismatches():
    """(routine, s, D, points) of every sweep case that differs from its
    reference, and the count of head-branch and near-bound points."""
    rng = np.random.default_rng(19)
    bad, heads, near = [], 0, 0
    for s_exp in SWEEP_S:
        for D in SWEEP_D:
            close = _near_threshold_points(s_exp, D)
            near += len(close)
            ts = np.array(SWEEP_T + close)
            heads += sum(D + 1.0 <= s_exp * t / (1.0 - t) for t in SWEEP_T)
            table = _log_binomials(s_exp, D + 1)
            for t in ts[ts > 0.0].tolist():
                if not np.array_equal(kernel_masses(s_exp, D + 1, t),
                                      _reference_masses(table, s_exp, t)):
                    bad.append(("kernel_masses", s_exp, D, t))
            want = np.array([_reference_tail(s_exp, D, t) for t in ts.tolist()])
            if not np.array_equal(kernel_tail(s_exp, D, ts), want):
                bad.append(("kernel_tail", s_exp, D, ts[kernel_tail(s_exp, D, ts) != want]))
            for lam in (rng.normal(size=D + 1),
                        rng.normal(size=D + 1) + 1j * rng.normal(size=D + 1)):
                got = radial_berezin_sum(lam, s_exp, ts)
                if not np.array_equal(got, _reference_berezin_sum(lam, s_exp, ts)):
                    bad.append(("radial_berezin_sum", s_exp, D, lam.dtype))
    return bad, heads, near


def test_masses_tails_and_berezin_sums_keep_the_reference_bits():
    bad, heads, near = _sweep_mismatches()
    assert bad == []
    assert heads >= 20  # the head branch, 1 - the masses up to D
    assert near >= 250  # first tail masses within 2 of the bound


def test_dropping_masses_below_two_to_the_minus_64_is_caught(monkeypatch):
    # a helper that treats every mass under 2^-64 as dead moves the bits
    monkeypatch.setattr(berezin, "_LOG_UNDERFLOW", -64.0 * math.log(2.0))
    bad, _, _ = _sweep_mismatches()
    assert {case[0] for case in bad} == {"kernel_masses", "kernel_tail", "radial_berezin_sum"}


def test_a_dead_tail_builds_no_table(monkeypatch):
    # past the mean, a first tail mass under the bound makes the tail 0.0
    # for every point at once: no far end is sought and no table is built
    def refuse(*args):
        raise AssertionError("a far end or table was built")

    monkeypatch.setattr(berezin, "_far_end", refuse)
    monkeypatch.setattr(berezin, "_log_binomials", refuse)
    ts = np.linspace(0.01, 0.3, 50)
    assert np.array_equal(kernel_tail(131.0, 1800, ts), np.zeros(50))


@pytest.mark.parametrize("t", [1.0, 1.5, -0.1])
def test_kernel_masses_refuse_a_radius_off_the_ball_before_any_table(monkeypatch, t):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(berezin, "_log_binomials", refuse)
    with pytest.raises(DomainError, match=f"got {t!r}"):
        kernel_masses(3.0, 10, t)
    with pytest.raises(DomainError, match=f"got {t!r}"):
        radial_berezin_sum(np.ones(10), 3.0, np.array([0.2, t]))


def test_kernel_masses_at_the_centre_and_at_nan():
    assert np.array_equal(kernel_masses(3.0, 4, 0.0), [1.0, 0.0, 0.0, 0.0])
    assert np.isnan(kernel_masses(3.0, 4, math.nan)).all()
    lam = np.array([2.0 - 1.0j, 3.0, 4.0])
    got = radial_berezin_sum(lam, 3.0, np.array([0.0, math.nan]))
    assert got[0] == lam[0] and np.isnan(got[1])
    # the tail keeps its values at the ends
    ends = np.array([0.0, -0.5, 1.0, 1.5, math.nan])
    assert np.array_equal(kernel_tail(3.0, 5, ends), [0.0, 0.0, 1.0, 1.0, math.nan],
                          equal_nan=True)


@pytest.mark.parametrize("r", [1.0, 1.2])
def test_recovery_refuses_a_grid_point_off_the_ball(r):
    g = BallGeometry(2, 1, (1,))
    c = parse_symbol("2 - abs2(zc)", None)
    spec = QuadratureSpec()
    blocks = [level_block_direct(c, g, 0.0, (tot,), 40, spec) for tot in (8, 16)]
    grid = np.array([[0.5 + 0.0j], [r + 0.0j]])
    with pytest.raises(DomainError, match=r"kernel masses need 0 <= \|z\|\^2 < 1"):
        recover_symbol_and_remainder(blocks, grid, spec)
