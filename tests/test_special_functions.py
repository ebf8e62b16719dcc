"""The numpy/stdlib special functions against SciPy and 40-digit mpmath.

SciPy is no runtime dependency: it is the independent route the
Gauss-Jacobi rules and the kernel-mass quantile are checked against.
mpmath gives the exact Beta moments, kernel masses and tails.
"""

import numpy as np
import pytest

from berglab import DomainError, gauss_jacobi_rule
from berglab.berezin import (
    _TAIL_TOL,
    kernel_masses,
    kernel_tail,
    radial_expansion_degree,
)
from berglab.core import beta_fn
from berglab.toeplitz import _MAX_DENSE_ENTRIES, _diagonal_order

special = pytest.importorskip("scipy.special")
mpmath = pytest.importorskip("mpmath")

# every (q, a, b) that the default suite and the geometry.n = 3 suites
# build (seed 7), and the two largest rules of the deep-recovery tests
SUITE_RULES = [
    (6, 7.0, 0.0), (7, 6.0, 0.0), (8, 5.0, 0.0), (9, 4.0, 0.0), (10, 3.0, 0.0),
    (11, 2.0, 0.0), (12, 0.0, 0.0), (12, 1.0, 0.0), (12, 1.0, 1.0), (12, 2.0, 0.0),
    (12, 2.0, 1.0), (12, 3.0, 0.0), (12, 3.0, 1.0), (12, 4.0, 0.0), (12, 4.0, 1.0),
    (12, 5.0, 0.0), (12, 5.0, 1.0), (12, 6.0, 0.0), (12, 6.0, 1.0), (12, 7.0, 0.0),
    (12, 7.0, 1.0), (22, 0.0, 0.0), (22, 1.0, 0.0), (22, 1.0, 1.0), (22, 2.0, 0.0),
    (22, 2.0, 1.0), (25, 0.0, 0.0), (25, 1.0, 0.0), (25, 1.0, 1.0), (25, 2.0, 0.0),
    (25, 2.0, 1.0), (27, 0.0, 0.0), (27, 1.0, 0.0), (27, 1.0, 1.0), (27, 2.0, 0.0),
    (27, 2.0, 1.0), (29, 0.0, 0.0), (29, 1.0, 0.0), (29, 1.0, 1.0), (29, 2.0, 0.0),
    (29, 2.0, 1.0), (32, 0.0, 0.0), (32, 1.0, 0.0), (32, 1.0, 1.0), (32, 2.0, 0.0),
    (32, 2.0, 1.0), (36, 0.0, 0.0), (36, 0.0, 1.0), (37, 0.0, 0.0), (37, 0.0, 1.0),
    (48, 0.0, 0.0), (48, 1.0, 1.0), (48, 2.0, 1.0), (48, 33.0, 0.0), (48, 33.0, 1.0),
    (48, 49.0, 0.0), (48, 49.0, 1.0), (48, 65.0, 0.0), (48, 65.0, 1.0), (64, 1.0, 0.0),
    (64, 2.0, 0.0),
]
LARGE_RULES = [(912, 33.0, 0.0), (906, 129.0, 0.0)]


def _scipy_rule(q, a, b):
    x, w = special.roots_jacobi(q, a, b)
    return 0.5 * (x + 1.0), w * 2.0 ** -(a + b + 1.0)


@pytest.mark.parametrize("q, a, b", SUITE_RULES + LARGE_RULES)
def test_rule_nodes_match_scipy(q, a, b):
    t, _ = gauss_jacobi_rule(q, a, b)
    assert np.max(np.abs(t - _scipy_rule(q, a, b)[0])) <= 1e-14


@pytest.mark.parametrize("q, a, b", SUITE_RULES + LARGE_RULES)
def test_rule_moments_match_the_beta_function(q, a, b):
    # sum_i w_i t_i^j = B(b + 1 + j, a + 1) for every j <= 2q - 1
    t, w = gauss_jacobi_rule(q, a, b)
    with mpmath.workdps(40):
        exact = mpmath.beta(b + 1, a + 1)
        worst = 0.0
        power = np.ones(q)
        for j in range(2 * q):
            got = float(np.dot(w, power))
            worst = max(worst, abs(float((got - exact) / exact)))
            exact *= (b + 1 + j) / mpmath.mpf(a + b + 2 + j)
            power *= t
    assert worst <= 2e-13


def test_beta_fn_products_are_accurate():
    with mpmath.workdps(40):
        for x, y in [(1.0, 34.0), (130.0, 1.0), (2.5, 3.0), (34.0, 130.0), (0.5, 1.5)]:
            exact = mpmath.beta(x, y)
            assert abs(beta_fn(x, y) - exact) <= 4e-15 * exact, (x, y)


# degrees < 2000, s = d + mu + 1 <= 131, t <= 0.99
MASS_S = [1.5, 2.0, 3.0, 4.5, 12.0, 34.0, 66.0, 131.0]
MASS_T = [1e-6, 0.01, 0.1, 0.3, 0.5, 0.75, 0.9, 0.99]


def _mp_mass(s, k, t):
    s, t = mpmath.mpf(s), mpmath.mpf(t)
    return mpmath.binomial(s + k - 1, k) * t**k * (1 - t) ** s


@pytest.mark.parametrize("s", MASS_S)
def test_kernel_masses_match_mpmath(s):
    degrees = list(range(0, 2000, 13)) + [1999]
    with mpmath.workdps(40):
        for t in MASS_T:
            got = kernel_masses(s, 2000, t)
            for k in degrees:
                exact = _mp_mass(s, k, t)
                if exact > 1e-300:  # normal doubles
                    assert abs(got[k] - exact) <= 1e-12 * exact, (s, t, k)


@pytest.mark.parametrize("s", MASS_S)
def test_kernel_tails_match_mpmath(s):
    with mpmath.workdps(40):
        for t in MASS_T:
            for D in (0, 3, 40, 250, 1000, 1999):
                exact = mpmath.betainc(D + 1, s, 0, t, regularized=True)
                got = kernel_tail(s, D, t)
                if exact > 1e-300:
                    assert abs(got - exact) <= 1e-12 * exact, (s, t, D)
                else:
                    assert got <= 1e-290
    # elementwise, with the centre, the sphere and NaN as betainc has them
    ends = np.array([[0.0, 1.0, np.nan]])
    assert np.array_equal(kernel_tail(s, 5, ends), special.betainc(6, s, ends), equal_nan=True)


def _scipy_quantile(s, t):
    """The cutoff degree's quantile as nbdtrik and one betainc step give it."""
    q, p = 1.0 - _TAIL_TOL, 1.0 - t
    quant = float(np.ceil(special.nbdtrik(q, s, p)))
    if quant > 0.0 and special.betainc(s, quant, p) >= q:
        quant -= 1.0
    return int(quant)


# (d, nu, t) where the SciPy route's integer is one below: the exact tail
# past it is 1.00006e-13 to 1.0008e-13, over the tolerance by less than
# the 1e-16 roundoff of a CDF near 1
QUANTILE_OFF_BY_ONE = {
    (1, 64.0, 0.77), (1, 128.0, 0.8525), (2, 16.0, 0.99), (3, 4.0, 0.99),
    (3, 64.0, 0.9625),
}


def test_expansion_degree_matches_the_scipy_quantile():
    off, count = set(), 0
    with mpmath.workdps(40):
        for d in (1, 2, 3):
            for nu in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
                s = d + nu + 1.0
                for t in np.linspace(0.0, 0.99, 37)[1:]:
                    t = float(t)
                    theirs = _scipy_quantile(s, t)
                    try:
                        ours = radial_expansion_degree(d, nu, t) - 16
                    except DomainError:
                        # refused alike: the SciPy cutoff is past the budget
                        terms = theirs + 16
                        assert (terms + 1) * _diagonal_order(None, 1, terms) > _MAX_DENSE_ENTRIES
                        continue
                    if ours != theirs:
                        off.add((d, nu, t))
                        assert ours == theirs + 1
                        # P(m > theirs): just over the tolerance
                        tail = mpmath.betainc(theirs + 1, s, 0, t, regularized=True)
                        assert _TAIL_TOL < tail <= _TAIL_TOL + 1e-16, (d, nu, t)
                    count += 1
    assert off == QUANTILE_OFF_BY_ONE
    assert count > 1000
