"""Polynomial expansion of a symbol: a reference the tests read.

``expand_polynomial`` gives the terms c z^p conj(z)^q of a polynomial
symbol.  The tests sum them in rational arithmetic as an independent
check of the exact diagonal sums, and pin the expansion itself; the
package never expands a symbol into monomials.
"""

from typing import Dict, Optional, Tuple, Union

from berglab import BallGeometry, DomainError
from berglab.symbols import (
    Const,
    Coord,
    Func,
    GroupRadius,
    Neg,
    Power,
    ProductSymbol,
    SymbolExpr,
    _fold,
    _is_tuple,
    is_polynomial,
)

# The terms of a polynomial symbol: {(p, q): coef} for coef z^p conj(z)^q.
PolynomialTerms = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], complex]


def _poly_add(
    a: PolynomialTerms, b: PolynomialTerms, sign: float = 1.0
) -> PolynomialTerms:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0j) + sign * c
    return out


def _poly_mul(a: PolynomialTerms, b: PolynomialTerms) -> PolynomialTerms:
    out: PolynomialTerms = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            key = (
                tuple(x + y for x, y in zip(p1, p2)),
                tuple(x + y for x, y in zip(q1, q2)),
            )
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _poly_conj(a: PolynomialTerms) -> PolynomialTerms:
    return {(q, p): c.conjugate() for (p, q), c in a.items()}


def expand_polynomial(
    expr: Union[SymbolExpr, ProductSymbol],
    d: int,
    *,
    geometry: Optional[BallGeometry] = None,
    zc_offset: Optional[int] = None,
) -> Optional[PolynomialTerms]:
    """The terms {(p, q): coef} of coef z^p conj(z)^q of a symbol on the d-ball.

    None where ``is_polynomial`` is false (division, sqrt, odd powers of
    a group radius, product symbols).  Coordinates, whole tuples and
    group radii are read as ``eval_on_points`` reads them for the same
    ``geometry`` and ``zc_offset``; an even power r<j>^(2k) of a group
    radius is the polynomial (sum over group j of |z_i|^2)^k.
    """
    if not is_polynomial(expr):
        return None
    if zc_offset is None:
        zc_offset = geometry.ell if geometry is not None else 0
    zero = (0,) * d

    def unit(axis: int) -> Tuple[int, ...]:
        return tuple(int(i == axis) for i in range(d))

    def abs2_of(axes: range) -> PolynomialTerms:
        return {(unit(i), unit(i)): 1 + 0j for i in axes}

    def group_axes(node: GroupRadius) -> range:
        if geometry is None or node.group > geometry.m:
            raise DomainError(
                f"line {node.pos[0]}, column {node.pos[1]}: r{node.group} needs "
                "a declared partition that has that group"
            )
        start = sum(geometry.k[: node.group - 1])
        return range(start, start + geometry.k[node.group - 1])

    def visit(node: SymbolExpr, children: list) -> Optional[PolynomialTerms]:
        if isinstance(node, Const):
            return {(zero, zero): complex(node.value)}
        if isinstance(node, Coord):
            offset = zc_offset if node.part == "zc" else 0
            if node.index is None:
                # a whole tuple stands only under abs2, and takes its value
                return abs2_of(range(offset, d))
            axis = offset + node.index - 1
            if axis >= d:
                raise DomainError(
                    f"line {node.pos[0]}, column {node.pos[1]}: coordinate "
                    f"{node.part}{node.index} exceeds dimension {d - offset}"
                )
            return {(unit(axis), zero): 1 + 0j}
        if isinstance(node, GroupRadius):
            return None  # polynomial only under an even power, read there
        if isinstance(node, Neg):
            return {key: -c for key, c in children[0].items()}
        if isinstance(node, Func):
            x = children[0]
            if node.name == "abs2":
                return x if _is_tuple(node.arg) else _poly_mul(x, _poly_conj(x))
            if node.name == "conj":
                return _poly_conj(x)
            if node.name == "re":
                both = _poly_add(x, _poly_conj(x))
                return {key: 0.5 * c for key, c in both.items()}
            # im; sqrt never gets here, is_polynomial refused it
            diff = _poly_add(x, _poly_conj(x), -1.0)
            return {key: -0.5j * c for key, c in diff.items()}
        if isinstance(node, Power):
            if isinstance(node.base, GroupRadius):
                base, times = abs2_of(group_axes(node.base)), node.exponent // 2
            else:
                base, times = children[0], node.exponent
            out: PolynomialTerms = {(zero, zero): 1 + 0j}
            for _ in range(times):
                out = _poly_mul(out, base)
            return out
        lhs, rhs = children
        if node.op == "*":
            return _poly_mul(lhs, rhs)
        return _poly_add(lhs, rhs, 1.0 if node.op == "+" else -1.0)

    return _fold(expr, visit)
