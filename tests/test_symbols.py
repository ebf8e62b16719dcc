"""Symbol grammar: parsing, printing, evaluation and classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import (
    BallGeometry,
    DomainError,
    ProductSymbol,
    SymbolSyntaxError,
    classify_symbol,
    eval_on_points,
    expand_polynomial,
    parse_symbol,
    rebase_inner,
    symbol_to_text,
)
from berglab.symbols import (
    axis_band, axis_winding, eval_profile, group_band, group_winding, profile_form,
    symbol_degree_hint,
)

ROUNDTRIP_CORPUS = [
    "1",
    "0",
    "2.5",
    "1e-3",
    "z1",
    "zc2",
    "r1",
    "-z1",
    "1 + z1",
    "1 - abs2(z)",
    "2 - abs2(zc)",
    "abs2(z1)",
    "abs2(zc)",
    "re(z1)",
    "im(z2)",
    "conj(z1)",
    "sqrt(1 - abs2(z))",
    "r1^2",
    "r2^3",
    "1 - r1^2",
    "z1 * z2",
    "z1 * conj(z2)",
    "z1 / (2 - abs2(z))",
    "(1 + z1) * (1 - z1)",
    "z1^2",
    "z1^2 * conj(z1)",
    "1 + 2 * z1",
    "1 - 2 * abs2(z1) + abs2(z1)^2",
    "re(z1 * conj(z2))",
    "im(z1 * z2)",
    "abs2(z1 + z2)",
    "r1^2 * r2^2",
    "1 - r1^2 - r2^2",
    "0.5 + 0.5 * abs2(z)",
    "2 * re(z1) + 3 * im(z1)",
    "conj(z1) * conj(z2)",
    "sqrt(abs2(z1))",
    "(z1 + z2)^2",
    "1 / (1 + abs2(z))",
    "abs2(z) * (1 - abs2(z))",
    "z3",
    "zc1 * conj(zc1)",
    "1 - abs2(zc1)",
    "re(zc1)",
    "im(zc2)",
    "3.25 * z1 - 1.5",
    "z1 - z2 - z3",
    "z1 * z2 * z3",
    "(1 - abs2(z))^3",
    "2 - abs2(z)",
    "abs2(z)^2 - 2 * abs2(z) + 1",
    "r1^2 / (1 + r1^2)",
    "prod(a = r1^2, c = 1 - abs2(zc))",
    "prod(a = 1, c = 2 - abs2(zc))",
    "prod(a = 1 - r1^2, c = re(zc1))",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
def test_roundtrip(text):
    expr = parse_symbol(text, None)
    printed = symbol_to_text(expr)
    again = parse_symbol(printed, None)
    assert symbol_to_text(again) == printed


def test_roundtrip_is_canonical():
    # different spellings of the same tree print identically
    a = symbol_to_text(parse_symbol("1-abs2(z)", None))
    b = symbol_to_text(parse_symbol("1  -  abs2( z )", None))
    assert a == b == "1 - abs2(z)"


EVAL_CASES = [
    # (text, point, expected)
    ("1", [0.2 + 0.1j], 1.0),
    ("z1", [0.2 + 0.1j], 0.2 + 0.1j),
    ("conj(z1)", [0.2 + 0.1j], 0.2 - 0.1j),
    ("re(z1)", [0.2 + 0.1j], 0.2),
    ("im(z1)", [0.2 + 0.1j], 0.1),
    ("abs2(z1)", [0.2 + 0.1j], 0.05),
    ("abs2(z)", [0.3, 0.4j], 0.09 + 0.16),
    ("1 - abs2(z)", [0.3, 0.4j], 1 - 0.25),
    ("z1 * z2", [0.1j, 0.5], 0.05j),
    ("z1^2", [0.2 + 0.1j], (0.2 + 0.1j) ** 2),
    ("z1 / (2 - abs2(z))", [0.4], 0.4 / (2 - 0.16)),
    ("sqrt(1 - abs2(z))", [0.6], math.sqrt(1 - 0.36)),
    ("2 * re(z1) + 3 * im(z1)", [0.2 + 0.1j], 0.7),
    ("-z1 + 1", [0.25], 0.75),
]


@pytest.mark.parametrize("text,point,expected", EVAL_CASES)
def test_eval_matches_plain_arithmetic(text, point, expected):
    got = eval_on_points(parse_symbol(text, None), np.array([point]))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, abs=1e-14)


def test_eval_on_points_shapes():
    expr = parse_symbol("abs2(z)", None)
    z = np.array([[0.1, 0.2], [0.3j, 0.1], [0.0, 0.0]])
    vals = eval_on_points(expr, z)
    assert vals.shape == (3,)
    assert vals[2] == 0.0


def test_eval_rejects_outside_ball():
    expr = parse_symbol("z1", None)
    with pytest.raises(DomainError):
        eval_on_points(expr, np.array([[1.2]]))
    # boundary needs the explicit flag
    with pytest.raises(DomainError):
        eval_on_points(expr, np.array([[1.0]]))
    assert eval_on_points(expr, np.array([[1.0]]), allow_boundary=True)[0] == 1.0


def test_group_radius_requires_partition_context():
    g = BallGeometry(2, 2, (1, 1))
    expr = parse_symbol("r1^2 + r2^2", g)
    # on the z'-ball the group radii are |z_group| values
    val = eval_on_points(expr, np.array([[0.3, 0.4j]]), geometry=g)
    assert val[0] == pytest.approx(0.25, abs=1e-14)


def test_validation_against_geometry():
    g = BallGeometry(2, 1, (1,))
    parse_symbol("z2", g)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z3", g)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("zc2", g)  # inner ball is 1-dimensional
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("prod(a = r2^2, c = 1)", g)  # only one group


def test_syntax_errors_carry_position():
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol("1 + + 2", None)
    assert "line 1" in str(exc.value)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("abs2(z", None)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z0", None)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("", None)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1 @ z2", None)


@pytest.mark.parametrize("geometry", [None, BallGeometry(2, 2, (2,))])
@pytest.mark.parametrize(
    "text, col",
    [("re(z) + 1", 4), ("z", 1), ("1 - zc", 5), ("abs2(z + 1)", 6), ("abs2((z))", 7)],
)
def test_bare_tuple_is_refused_outside_abs2(geometry, text, col):
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol(text, geometry)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert "abs2" in str(exc.value)
    assert symbol_to_text(parse_symbol("abs2(z) - abs2(zc)", geometry)) == (
        "abs2(z) - abs2(zc)"
    )


def test_zc_is_refused_in_the_a_factor():
    # a lives on z' alone; zc1 there used to evaluate silently as z1
    for geometry in (BallGeometry(3, 2, (2,)), None):
        with pytest.raises(SymbolSyntaxError) as exc:
            parse_symbol("prod(a = re(zc1), c = 1)", geometry)
        assert (exc.value.line, exc.value.col) == (1, 13)
        assert "a factor" in str(exc.value)
    parse_symbol("prod(a = re(z1), c = re(zc1))", BallGeometry(3, 2, (2,)))


@pytest.mark.parametrize("text, col", [("1e999", 1), ("2 - 1e400*abs2(z)", 5), ("9" * 400, 1)])
def test_overflowing_literal_is_refused_at_its_token(text, col):
    with pytest.raises(SymbolSyntaxError) as exc:
        parse_symbol(text, None)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert "overflows" in str(exc.value)
    assert symbol_to_text(parse_symbol("1e308", None)) == "1e+308"


def test_power_requires_integer_exponent():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1^2.5", None)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1^(-1)", None)


def test_classification_table():
    g11 = BallGeometry(2, 2, (1, 1))
    g2 = BallGeometry(2, 2, (2,))
    split = BallGeometry(2, 1, (1,))
    assert str(classify_symbol(parse_symbol("1 - abs2(z)", g2), g2)) == "Radial"
    assert str(classify_symbol(parse_symbol("r1^2", g11), g11)).startswith("QuasiRadial")
    assert str(classify_symbol(parse_symbol("abs2(z1)", g11), g11)) == "TorusInvariant"
    assert str(classify_symbol(parse_symbol("re(z1)", g11), g11)) == "General"
    assert str(classify_symbol(parse_symbol("zc1", split), split)) == "CzOnly"
    assert (
        str(classify_symbol(parse_symbol("prod(a = 1, c = zc1)", split), split))
        == "Product"
    )


def test_group_radius_is_radial_only_when_one_group_spans_the_ball():
    spans = BallGeometry(2, 2, (2,))
    assert str(classify_symbol(parse_symbol("r1^2", spans), spans)) == "Radial"
    for part in (BallGeometry(2, 1, (1,)), BallGeometry(3, 2, (2,))):
        assert str(classify_symbol(parse_symbol("r1^2", part), part)) == (
            f"QuasiRadial{part.k}"
        )
    assert str(classify_symbol(parse_symbol("r1^2", None))) == "QuasiRadial"


def test_product_symbol_parses_without_geometry():
    expr = parse_symbol("prod(a = r1^2, c = 1 - abs2(zc))", None)
    assert isinstance(expr, ProductSymbol)
    assert expr.geometry is None
    assert symbol_to_text(expr) == "prod(a = r1^2, c = 1 - abs2(zc))"
    # evaluation needs the geometry
    with pytest.raises(DomainError):
        eval_on_points(expr, np.array([[0.1, 0.2]]))


def test_product_symbol_evaluates_with_geometry():
    g = BallGeometry(2, 1, (1,))
    expr = parse_symbol("prod(a = 1 - r1^2, c = 2 - abs2(zc))", g)
    z1, z2 = 0.3 + 0.1j, 0.2j
    t_in = abs(z2) ** 2
    stretched = abs(z1) ** 2 / (1 - t_in)
    expected = (1 - stretched) * (2 - t_in)
    got = eval_on_points(expr, np.array([[z1, z2]]))
    assert got[0] == pytest.approx(expected, abs=1e-14)


def test_rebase_inner_renames_zc():
    expr = parse_symbol("1 - abs2(zc) + re(zc1)", None)
    rebased = rebase_inner(expr)
    assert symbol_to_text(rebased) == "1 - abs2(z) + re(z1)"
    # values agree on the inner ball
    z = np.array([[0.3 + 0.2j]])
    assert eval_on_points(expr, z)[0] == eval_on_points(rebased, z)[0]


def test_degree_hint_monotone_in_structure():
    assert symbol_degree_hint(parse_symbol("1", None)) == 0
    assert symbol_degree_hint(parse_symbol("z1", None)) == 1
    assert symbol_degree_hint(parse_symbol("abs2(z1)", None)) == 2
    assert symbol_degree_hint(parse_symbol("z1^3", None)) == 3
    d_prod = symbol_degree_hint(parse_symbol("prod(a = r1^2, c = zc1)", None))
    assert d_prod >= 3


# z1, z2 form the one group and zc1 is z3; r1 is |z'|
_G = BallGeometry(3, 2, (2,))
_POINT = np.array([[0.21 + 0.05j, -0.3j, 0.1 + 0.2j]])
_LEAVES = (
    "1", "2.5", "z1", "z2", "zc1", "abs2(z)", "abs2(zc)", "sqrt(abs2(z))",
    "re(z1)", "conj(z2)",
)


def _combine(children):
    a, b = children
    return st.sampled_from(
        [
            f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"(-({a}))", f"({a})^2",
            f"conj({a})", f"im({a})", f"({a}) / (2 - abs2(z))",
        ]
    )


def _band_combine(children):
    # abs2, re and roots of arbitrary arguments, and denominators that are
    # phase-homogeneous or not, none of them vanishing
    a, b = children
    return st.sampled_from([
        f"abs2({a})", f"re({a})", f"sqrt(1 + abs2({a}))", f"({a}) / (4 + abs2({b}))",
        f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"conj({a})", f"({a})^2",
    ])


@st.composite
def _expr_text(draw, depth=3, radius=True, combine=_combine):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES + (("r1",) if radius else ())))
    a = draw(_expr_text(depth=depth - 1, radius=radius, combine=combine))
    b = draw(_expr_text(depth=depth - 1, radius=radius, combine=combine))
    return draw(combine((a, b)))


@given(_expr_text())
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(text):
    expr = parse_symbol(text, None)
    printed = symbol_to_text(expr)
    assert symbol_to_text(parse_symbol(printed, None)) == printed


@given(_expr_text())
@settings(max_examples=40, deadline=None)
def test_print_preserves_value(text):
    expr = parse_symbol(text, _G)
    again = parse_symbol(symbol_to_text(expr), _G)
    v1 = eval_on_points(expr, _POINT, geometry=_G)[0]
    v2 = eval_on_points(again, _POINT, geometry=_G)[0]
    assert v1 == pytest.approx(v2, abs=1e-13)


def _rotation_gap(expr, phases, winding, theta):
    """|f(e^{i theta} z) - e^{i w.theta} f(z)| relative to |f(z)| (or 1)."""
    rotated = eval_on_points(expr, _POINT * np.exp(1j * phases), geometry=_G)[0]
    value = eval_on_points(expr, _POINT, geometry=_G)[0]
    expected = np.exp(1j * np.dot(winding, theta)) * value
    return abs(rotated - expected) / max(1.0, abs(value))


_ANGLE = st.floats(-3.2, 3.2, allow_nan=False)


@given(_expr_text(), st.tuples(_ANGLE, _ANGLE, _ANGLE))
@settings(max_examples=80, deadline=None)
def test_axis_winding_is_sound(text, theta):
    # an independent route: rotate the point and compare values
    expr = parse_symbol(text, _G)
    winding = axis_winding(expr, _G.n, zc_offset=_G.ell)
    if winding is not None:
        assert _rotation_gap(expr, np.array(theta), winding, theta) <= 1e-12


_PHASES = 64


@given(_expr_text(combine=_band_combine), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_axis_band_is_sound(text, rotation):
    # an independent route: the DFT of the values over _PHASES turns of one
    # axis (rotation 0..2), or of the group torus (rotation 3), has nothing
    # outside the band but roundoff
    expr = parse_symbol(text, _G)
    if rotation < 3:
        band = axis_band(expr, _G.n, zc_offset=_G.ell)
        turns = np.eye(3)[rotation]
        slot = rotation
    else:
        band, turns, slot = group_band(expr, _G), np.array([1.0, 1.0, 0.0]), 0
    if band is None:
        return
    theta = 2 * np.pi * np.arange(_PHASES) / _PHASES
    values = eval_on_points(expr, _POINT * np.exp(1j * np.outer(theta, turns)), geometry=_G)
    coef = np.fft.fft(values) / _PHASES  # coef[m]: the frequency m (mod _PHASES)
    freq = np.fft.fftfreq(_PHASES, 1.0 / _PHASES)
    lo, hi = band[slot]
    assert -_PHASES // 2 < lo <= hi < _PHASES // 2
    outside = (freq < lo) | (freq > hi)
    assert np.max(np.abs(coef[outside])) <= 1e-13 * max(1.0, np.max(np.abs(values)))


def test_abs2_of_a_sum_carries_the_difference_band():
    # |z1 + z2|^2 = |z1|^2 + |z2|^2 + 2 re(z1 conj(z2)): frequencies -1..1
    geo = BallGeometry(2, 2, (2,))
    f = parse_symbol("abs2(z1 + z2)", geo)
    assert axis_band(f, 2) == ((-1, 1), (-1, 1))
    assert axis_winding(f, 2) is None
    # z1 and z2 turn together under the group torus, which leaves it fixed
    assert group_band(f, geo) == ((0, 0),) and group_winding(f, geo) == (0,)
    assert axis_band(parse_symbol("1/(2 - z1)", None), 2) is None
    assert axis_band(parse_symbol("conj(z2)/(3 - z1*conj(z1))", None), 2) == ((0, 0), (-1, -1))


@given(_expr_text(), _ANGLE)
@settings(max_examples=80, deadline=None)
def test_group_winding_is_sound(text, theta):
    # the group torus turns z1 and z2 together and leaves z'' alone
    expr = parse_symbol(text, _G)
    winding = group_winding(expr, _G)
    if winding is not None:
        phases = np.array([theta, theta, 0.0])
        assert _rotation_gap(expr, phases, winding, (theta,)) <= 1e-12


@given(_expr_text(radius=False))
@settings(max_examples=40, deadline=None)
def test_rebase_inner_keeps_values_on_the_inner_ball(text):
    expr = parse_symbol(text, None)
    rebased = rebase_inner(expr)
    assert symbol_to_text(rebased) == symbol_to_text(expr).replace("zc", "z")
    assert eval_on_points(rebased, _POINT)[0] == eval_on_points(expr, _POINT)[0]


# ---------------------------------------------------------------------------
# Polynomial expansion

# zc under a product geometry, and group radii on a covering partition
_POLY_GEOMETRIES = (_G, BallGeometry(3, 3, (2, 1)))
_POLY_LEAVES = (
    "1", "2.5", "i", "z1", "z2", "z3", "abs2(z)", "abs2(z1)", "re(z1)", "im(z2)",
    "conj(z3)", "r1^2", "r1^4",
)


def _poly_combine(children):
    a, b = children
    return st.sampled_from(
        [
            f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"(-({a}))", f"({a})^2",
            f"({a})^3", f"conj({a})", f"re({a})", f"im({a})", f"abs2({a})",
        ]
    )


@st.composite
def _poly_text(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_POLY_LEAVES))
    a = draw(_poly_text(depth=depth - 1))
    b = draw(_poly_text(depth=depth - 1))
    return draw(_poly_combine((a, b)))


_COORD = st.floats(-0.4, 0.4, allow_nan=False)  # |z|^2 < 6 * 0.16


def _sum_terms(terms, z):
    """sum coef z^p conj(z)^q at the points z (N, d)."""
    out = np.zeros(z.shape[0], dtype=complex)
    for (p, q), c in terms.items():
        out += c * np.prod(z ** np.array(p) * np.conj(z) ** np.array(q), axis=1)
    return out


@given(
    _poly_text(),
    st.sampled_from(_POLY_GEOMETRIES),
    st.lists(st.tuples(*[_COORD] * 6), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_expansion_matches_evaluation(text, geometry, coords):
    # at random interior points the terms sum to the evaluated symbol
    text = text.replace("z3", "zc1") if geometry.ell < geometry.n else text
    expr = parse_symbol(text, geometry)
    c = np.array(coords)
    z = c[:, :3] + 1j * c[:, 3:]
    terms = expand_polynomial(expr, geometry.n, geometry=geometry)
    assert terms is not None
    got = _sum_terms(terms, z)
    want = eval_on_points(expr, z, geometry=geometry)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize(
    "text", ["1/(2 - abs2(z))", "z1/2", "sqrt(abs2(z))", "r1", "r1^3", "1 - r1^2*r1"]
)
def test_expansion_is_none_off_the_polynomials(text):
    g = BallGeometry(2, 2, (2,))
    assert expand_polynomial(parse_symbol(text, g), 2, geometry=g) is None
    product = parse_symbol("prod(a = 1, c = abs2(zc))", BallGeometry(2, 1, (1,)))
    assert expand_polynomial(product, 2) is None


def test_expansion_reads_group_radii_and_whole_tuples():
    g = BallGeometry(3, 3, (2, 1))
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert expand_polynomial(parse_symbol("r1^2", g), 3, geometry=g) == {
        (e1, e1): 1, (e2, e2): 1,
    }
    assert expand_polynomial(parse_symbol("abs2(z)", g), 3, geometry=g) == {
        (e1, e1): 1, (e2, e2): 1, (e3, e3): 1,
    }
    # zc counts from the split point on a product geometry
    split = BallGeometry(3, 2, (2,))
    assert expand_polynomial(parse_symbol("abs2(zc)", split), 3, geometry=split) == {
        (e3, e3): 1,
    }
    with pytest.raises(DomainError, match="partition"):
        expand_polynomial(parse_symbol("r1^2", None), 3)


# ---------------------------------------------------------------------------
# Profile forms

_FORM_LEAVES = ("1", "2.5", "i", "abs2(z)", "r1^2", "r2^4", "0.5*r2^2")


@st.composite
def _form_text(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_FORM_LEAVES))
    a = draw(_form_text(depth=depth - 1))
    b = draw(_form_text(depth=depth - 1))
    return draw(
        st.sampled_from(
            [
                f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"(-({a}))",
                f"({a})^2", f"conj({a})", f"re({a})", f"im({a})", f"abs2({a})",
            ]
        )
    )


def _sum_form(form, s):
    """sum coef s^p u^l at the points s (N, m), u = 1 - |s|."""
    n, terms = form
    su = np.column_stack([s, 1.0 - s.sum(axis=1)])
    out = np.zeros(s.shape[0], dtype=complex)
    for exps, c in terms.items():
        assert sum(exps) == n
        out += c * np.prod(su ** np.array(exps), axis=1)
    return out


@given(
    _form_text(),
    st.lists(
        st.tuples(st.floats(0.0, 0.49), st.floats(0.0, 0.49)), min_size=1, max_size=4
    ),
)
@settings(max_examples=80, deadline=None)
def test_profile_form_matches_the_profile(text, points):
    # a homogeneous form in (s, u) with the profile's values on the simplex
    expr = parse_symbol(text, BallGeometry(3, 3, (2, 1)))
    s = np.array(points)
    form = profile_form(expr, 2)
    assert form is not None
    want = eval_profile(expr, np.sqrt(s))
    got = _sum_form(form, s)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_profile_form_lifts_sums_so_vanishing_powers_stay_one_term():
    def form(text, m=1):
        return profile_form(parse_symbol(text, BallGeometry(2, 2, (1, 1))), m)

    assert form("1") == (0, {(0, 0): 1})
    assert form("0") == (0, {})
    assert form("abs2(z)") == form("r1^2") == (1, {(1, 0): 1})
    assert form("1 - abs2(z)") == (1, {(0, 1): 1})
    assert form("(1 - abs2(z))^60") == (60, {(0, 60): 1})
    assert form("2 - abs2(z)") == (1, {(1, 0): 1, (0, 1): 2})
    assert form("1 - r1^2 - r2^2", 2) == (1, {(0, 0, 1): 1})
    assert form("r2^4 - r1^2", 2) == (2, {(0, 2, 0): 1, (2, 0, 0): -1, (1, 1, 0): -1,
                                         (1, 0, 1): -1})


@pytest.mark.parametrize(
    "text",
    ["1/(2 - abs2(z))", "sqrt(abs2(z))", "r1", "r1^3", "z1", "abs2(z1)", "abs2(zc)",
     "(1 - abs2(z))^100"],
)
def test_profile_form_is_none_off_the_small_quasi_radial_polynomials(text):
    # division, roots, odd radii, single coordinates, and a degree whose
    # C(n + m, m) n bound is over the budget (here 101 * 100)
    g = BallGeometry(2, 1, (1,))
    assert profile_form(parse_symbol(text, g), 1) is None
