"""A small expression language for bounded symbols on a ball.

The grammar (whitespace insensitive)::

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ['^' uint]
    atom    := number | 'i' | coord | 'r' uint | 'abs2' '(' tuple ')'
             | func '(' expr ')' | '(' expr ')'
    coord   := 'z' uint | 'zc' uint
    tuple   := 'z' | 'zc'
    func    := 're' | 'im' | 'conj' | 'abs2' | 'sqrt'
    product := 'prod(' 'a' '=' expr ',' 'c' '=' expr ')'

``z<i>`` indexes ball coordinates starting at 1; ``zc<i>`` indexes the
second coordinate block (offset by the split point on the full ball, no
offset on the z''-ball itself) and is refused in the ``a`` factor of a
product, which lives on z' alone.  Bare ``z`` and ``zc`` denote the whole
tuple and stand only as the entire argument of ``abs2``; anywhere else
they are a parse error.  ``r<j>`` is the modulus of the j-th coordinate
group under a declared partition; it is also the natural variable for
profiles living on the set of group radii.  It is a function of |z| alone
only when one group spans the whole ball.

ASTs are immutable; evaluation is vectorized over arrays of points.
This is the one module that inspects node types.  Every analysis
(printing, evaluation, validation, phase band, degree, renaming, polynomial
expansion) is a visitor handed to the one bottom-up traversal ``_fold``,
which reads the children of each node type from ``_CHILD_FIELDS``.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Tuple, TypeVar, Union,
)

import numpy as np

from .core import BallGeometry
from .errors import DomainError

_BOUNDARY_SLACK = 1e-12


class SymbolSyntaxError(DomainError):
    """Parse failure with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: complex
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class Coord:
    part: str  # "z" or "zc"
    index: Optional[int]  # 1-based, None for the whole tuple
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class GroupRadius:
    group: int  # 1-based
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class Func:
    name: str  # re | im | conj | abs2 | sqrt
    arg: "SymbolExpr"
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    lhs: "SymbolExpr"
    rhs: "SymbolExpr"
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class Power:
    base: "SymbolExpr"
    exponent: int
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "SymbolExpr"
    pos: Tuple[int, int] = field(default=(1, 1), compare=False)


SymbolExpr = Union[Const, Coord, GroupRadius, Func, BinOp, Power, Neg]

# The child fields of each node type, in source order.
_CHILD_FIELDS = {Const: (), Coord: (), GroupRadius: (), Func: ("arg",),
                 BinOp: ("lhs", "rhs"), Power: ("base",), Neg: ("arg",)}

_T = TypeVar("_T")


def _fold(node: SymbolExpr, visit: Callable[[SymbolExpr, list], _T]) -> _T:
    """The one traversal: ``visit(node, results)`` runs on every node after
    its children, with their results in source order."""
    try:
        fields = _CHILD_FIELDS[type(node)]
    except KeyError:
        raise TypeError(f"unexpected node {node!r}") from None
    return visit(node, [_fold(getattr(node, f), visit) for f in fields] if fields else [])


def _rebuild(node: SymbolExpr, children: list) -> SymbolExpr:
    """The node with its children replaced, through the child table."""
    if not children:
        return node
    return replace(node, **dict(zip(_CHILD_FIELDS[type(node)], children)))


def _is_tuple(node: SymbolExpr) -> bool:
    return isinstance(node, Coord) and node.index is None


@dataclass(frozen=True)
class ProductSymbol:
    """f(z) = a(z' / sqrt(1 - |z''|^2)) * c(z'') on the full ball.

    A geometry is needed to evaluate or assemble the symbol; parsing
    without one still yields the AST for display and round-tripping.
    """

    a: SymbolExpr
    c: SymbolExpr
    geometry: Optional[BallGeometry]


@dataclass(frozen=True)
class SymbolClass:
    kind: str  # General | TorusInvariant | QuasiRadial | Radial | CzOnly | Product
    k: Optional[Tuple[int, ...]] = None

    def __str__(self) -> str:
        if self.kind == "QuasiRadial" and self.k is not None:
            return f"QuasiRadial{self.k}"
        return self.kind


# ---------------------------------------------------------------------------
# Tokenizer / parser

_FUNCS = ("re", "im", "conj", "abs2", "sqrt")


@dataclass
class _Token:
    kind: str  # num | name | op | end
    text: str
    line: int
    col: int


_NUM_RE = _re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")
_NAME_RE = _re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        col = pos - line_start + 1
        m = _NUM_RE.match(text, pos)
        if m:
            if float(m.group()) == float("inf"):
                raise SymbolSyntaxError(
                    f"number {m.group()!r} overflows a float", line, col
                )
            tokens.append(_Token("num", m.group(), line, col))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(_Token("name", m.group(), line, col))
            pos = m.end()
            continue
        if ch in "-+*/^(),=":
            tokens.append(_Token("op", ch, line, col))
            pos += 1
            continue
        raise SymbolSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            found = repr(tok.text) if tok.text else "end of input"
            raise SymbolSyntaxError(f"expected {op!r}, found {found}", tok.line, tok.col)
        return self.next()

    def parse_expr(self) -> SymbolExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            node: SymbolExpr = Neg(self.parse_term(), pos=(tok.line, tok.col))
        else:
            node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                rhs = self.parse_term()
                node = BinOp(tok.text, node, rhs, pos=(tok.line, tok.col))
            else:
                return node

    def parse_term(self) -> SymbolExpr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.parse_factor()
                node = BinOp(tok.text, node, rhs, pos=(tok.line, tok.col))
            else:
                return node

    def parse_factor(self) -> SymbolExpr:
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            exp_tok = self.peek()
            if exp_tok.kind != "num" or not exp_tok.text.isdigit():
                raise SymbolSyntaxError(
                    "exponent must be a nonnegative integer", exp_tok.line, exp_tok.col
                )
            self.next()
            node = Power(node, int(exp_tok.text), pos=(tok.line, tok.col))
        return node

    def parse_atom(self) -> SymbolExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            text = tok.text
            if _re.fullmatch(r"\d+", text):
                value: complex = complex(int(text))
            else:
                value = complex(float(text))
            return Const(value, pos=(tok.line, tok.col))
        if tok.kind == "name":
            return self.parse_name()
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        found = repr(tok.text) if tok.text else "end of input"
        raise SymbolSyntaxError(f"expected a value, found {found}", tok.line, tok.col)

    def parse_name(self) -> SymbolExpr:
        tok = self.next()
        name = tok.text
        pos = (tok.line, tok.col)
        if name == "i":
            return Const(1j, pos=pos)
        if name in _FUNCS:
            self.expect_op("(")
            whole, close = self.peek(), self.peek(1)
            if name == "abs2" and whole.text in ("z", "zc") and close.text == ")":
                self.next()
                arg: SymbolExpr = Coord(whole.text, None, pos=(whole.line, whole.col))
            else:
                arg = self.parse_expr()
            self.expect_op(")")
            return Func(name, arg, pos=pos)
        m = _re.fullmatch(r"(zc|z)(\d*)", name)
        if m:
            if not m.group(2):
                raise SymbolSyntaxError(
                    f"bare {name!r} is only valid as the whole argument of abs2(...)",
                    *pos,
                )
            idx = int(m.group(2))
            if idx == 0:
                raise SymbolSyntaxError("coordinate indices start at 1", *pos)
            return Coord(m.group(1), idx, pos=pos)
        m = _re.fullmatch(r"r(\d+)", name)
        if m:
            grp = int(m.group(1))
            if grp == 0:
                raise SymbolSyntaxError("group indices start at 1", *pos)
            return GroupRadius(grp, pos=pos)
        raise SymbolSyntaxError(f"unknown identifier {name!r}", *pos)


def parse_symbol(
    text: str, geometry: Optional[BallGeometry] = None
) -> Union[SymbolExpr, ProductSymbol]:
    """Parse a symbol, returning a ProductSymbol for prod(a=..., c=...).

    When a geometry is supplied, coordinate and group indices are checked
    against it (z against n, zc against n - ell, r against the partition).
    Group radii are refused in the c factor and zc in the a factor.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    first = parser.peek()
    if first.kind == "name" and first.text == "prod":
        if geometry is not None and geometry.d_inner < 1:
            raise DomainError("a product symbol needs a nonempty second block")
        parser.next()
        parser.expect_op("(")
        key = parser.next()
        if not (key.kind == "name" and key.text == "a"):
            raise SymbolSyntaxError("expected 'a ='", key.line, key.col)
        parser.expect_op("=")
        a = parser.parse_expr()
        parser.expect_op(",")
        key = parser.next()
        if not (key.kind == "name" and key.text == "c"):
            raise SymbolSyntaxError("expected 'c ='", key.line, key.col)
        parser.expect_op("=")
        c = parser.parse_expr()
        parser.expect_op(")")
        tail = parser.peek()
        if tail.kind != "end":
            raise SymbolSyntaxError(
                f"unexpected trailing input {tail.text!r}", tail.line, tail.col
            )
        # a lives on z' alone, so zc there would silently alias a z coordinate
        _validate(a, geometry.ell if geometry else None, geometry, allow_zc=False)
        _validate(c, geometry.d_inner if geometry else None, None, allow_radius=False)
        return ProductSymbol(a=a, c=c, geometry=geometry)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise SymbolSyntaxError(
            f"unexpected trailing input {tail.text!r}", tail.line, tail.col
        )
    if geometry is not None:
        _validate(expr, geometry.n, geometry)
    return expr


def _validate(
    expr: SymbolExpr,
    dim: Optional[int],
    geometry: Optional[BallGeometry],
    *,
    allow_radius: bool = True,
    allow_zc: bool = True,
) -> None:
    """Range-check coordinate and group indices against a dimension.

    ``dim=None`` skips the range checks but keeps the structural ones
    (radius and zc placement), for parsing without a geometry.  Leaves
    are visited in source order, so the first offending token is named.
    """

    def visit(node: SymbolExpr, _children: list) -> None:
        if isinstance(node, Coord):
            if node.part == "zc" and not allow_zc:
                raise SymbolSyntaxError(
                    "zc coordinates are not available in the a factor", *node.pos
                )
            if node.index is not None:
                limit = dim
                if node.part == "zc" and geometry is not None:
                    limit = geometry.d_inner
                if limit is not None and node.index > limit:
                    raise SymbolSyntaxError(
                        f"coordinate {node.part}{node.index} exceeds dimension {limit}",
                        *node.pos,
                    )
        elif isinstance(node, GroupRadius):
            if not allow_radius:
                raise SymbolSyntaxError(
                    "group radius is not available for this symbol", *node.pos
                )
            if geometry is not None and node.group > geometry.m:
                raise SymbolSyntaxError(
                    f"group r{node.group} exceeds the partition size {geometry.m}",
                    *node.pos,
                )

    _fold(expr, visit)


# ---------------------------------------------------------------------------
# Canonical printer

# Precedence of each printed form: sums, differences, negation and negative
# or complex constants 1, products and quotients 2, powers 3, atoms 4.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _wrap(printed: Tuple[str, int], need: int) -> str:
    """The one parenthesisation rule: a form binding looser than its slot
    needs gets parentheses."""
    text, prec = printed
    return text if prec >= need else f"({text})"


def _const_text(v: complex) -> Tuple[str, int]:
    if v == 1j:
        return "i", 4
    if v.imag == 0.0:
        x = v.real
        text = str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(x)
        return text, 4 if x >= 0 else 1
    re_text = _wrap(_const_text(complex(v.real)), 0)
    im_text = _wrap(_const_text(complex(v.imag)), 2)
    return f"{re_text} + {im_text}*i", 1


def _print(node: SymbolExpr, children: list) -> Tuple[str, int]:
    """Printer visitor: the (text, precedence) pair of a node."""
    if isinstance(node, Const):
        return _const_text(node.value)
    if isinstance(node, Coord):
        return f"{node.part}{node.index if node.index is not None else ''}", 4
    if isinstance(node, GroupRadius):
        return f"r{node.group}", 4
    if isinstance(node, Func):
        return f"{node.name}({children[0][0]})", 4
    if isinstance(node, Neg):
        return f"-{_wrap(children[0], 2)}", 1
    if isinstance(node, Power):
        return f"{_wrap(children[0], 4)}^{node.exponent}", 3
    # The grammar is left associative: an equal-precedence right operand
    # keeps its parentheses, so "a - (b - c)" does not print as "a - b - c".
    prec = _PRECEDENCE[node.op]
    lhs, rhs = children
    return f"{_wrap(lhs, prec)} {node.op} {_wrap(rhs, prec + 1)}", prec


def symbol_to_text(expr: Union[SymbolExpr, ProductSymbol]) -> str:
    """Canonical text form; parsing it back gives a structurally equal AST."""
    if isinstance(expr, ProductSymbol):
        return f"prod(a = {_fold(expr.a, _print)[0]}, c = {_fold(expr.c, _print)[0]})"
    return _fold(expr, _print)[0]


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class _EvalContext:
    z: Optional[np.ndarray]  # (..., d) complex, or None for pure profiles
    r: Optional[np.ndarray]  # (..., m) real group radii, or None
    zc_offset: int = 0
    k: Optional[Tuple[int, ...]] = None

    def coord(self, part: str, index: int, pos: Tuple[int, int]) -> np.ndarray:
        if self.z is None:
            raise DomainError(
                f"line {pos[0]}, column {pos[1]}: coordinates are not available "
                "on a radial-profile domain"
            )
        offset = self.zc_offset if part == "zc" else 0
        axis = offset + index - 1
        if axis >= self.z.shape[-1]:
            raise DomainError(
                f"line {pos[0]}, column {pos[1]}: coordinate {part}{index} "
                f"exceeds dimension {self.z.shape[-1] - offset}"
            )
        return self.z[..., axis]

    def tuple_abs2(self, part: str) -> np.ndarray:
        if self.z is None:
            if self.r is None:
                raise DomainError("no point data to evaluate abs2 against")
            return np.sum(self.r * self.r, axis=-1)
        if part == "zc" and self.zc_offset > 0:
            block = self.z[..., self.zc_offset :]
        else:
            block = self.z
        return np.sum(np.abs(block) ** 2, axis=-1)

    def radius(self, group: int, pos: Tuple[int, int]) -> np.ndarray:
        if self.r is not None:
            if group > self.r.shape[-1]:
                raise DomainError(
                    f"line {pos[0]}, column {pos[1]}: group r{group} exceeds "
                    f"the profile dimension {self.r.shape[-1]}"
                )
            return self.r[..., group - 1]
        if self.z is None or self.k is None:
            raise DomainError(
                f"line {pos[0]}, column {pos[1]}: r{group} needs a declared partition"
            )
        if group > len(self.k):
            raise DomainError(
                f"line {pos[0]}, column {pos[1]}: group r{group} exceeds "
                f"the partition size {len(self.k)}"
            )
        start = sum(self.k[: group - 1])
        stop = start + self.k[group - 1]
        return np.sqrt(np.sum(np.abs(self.z[..., start:stop]) ** 2, axis=-1))

    def visit(self, node: SymbolExpr, children: list) -> np.ndarray:
        """Evaluation visitor: the values of a node on this context."""
        if isinstance(node, Const):
            return np.asarray(node.value)
        if isinstance(node, Coord):
            if node.index is None:
                # a whole tuple stands only under abs2, and takes its value
                return self.tuple_abs2(node.part).astype(complex)
            return self.coord(node.part, node.index, node.pos)
        if isinstance(node, GroupRadius):
            return self.radius(node.group, node.pos).astype(complex)
        if isinstance(node, Neg):
            return -children[0]
        if isinstance(node, Func):
            v = children[0]
            if node.name == "abs2":
                return v if _is_tuple(node.arg) else (np.abs(v) ** 2).astype(complex)
            if node.name == "re":
                return np.real(v).astype(complex)
            if node.name == "im":
                return np.imag(v).astype(complex)
            if node.name == "conj":
                return np.conj(v)
            if node.name == "sqrt":
                real = np.real(v)
                if np.any(np.abs(np.imag(v)) > 1e-10) or np.any(real < -1e-12):
                    raise DomainError(
                        f"line {node.pos[0]}, column {node.pos[1]}: sqrt needs a "
                        "nonnegative real argument"
                    )
                return np.sqrt(np.clip(real, 0.0, None)).astype(complex)
            raise AssertionError(f"unknown function {node.name}")
        if isinstance(node, Power):
            return children[0] ** node.exponent
        lhs, rhs = children
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        with np.errstate(divide="ignore", invalid="ignore"):
            return lhs / rhs

    def evaluate(self, expr: SymbolExpr) -> np.ndarray:
        return _fold(expr, self.visit)


def eval_on_points(
    expr: Union[SymbolExpr, ProductSymbol],
    z: np.ndarray,
    *,
    geometry: Optional[BallGeometry] = None,
    zc_offset: Optional[int] = None,
    check_ball: bool = True,
    allow_boundary: bool = False,
) -> np.ndarray:
    """Evaluate on an array of ball points of shape (..., d).

    ``zc_offset`` controls where zc-coordinates start; by default it is the
    geometry's split point (full-ball evaluation) or 0 without a geometry
    (evaluation directly on the z''-ball).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 1:
        z = z[None, :]
    if check_ball:
        t = np.sum(np.abs(z) ** 2, axis=-1)
        bad = t > 1.0 + _BOUNDARY_SLACK if allow_boundary else t >= 1.0
        if np.any(bad):
            idx = tuple(np.argwhere(bad)[0])
            raise DomainError(
                f"point {z[idx]} lies outside the closed unit ball"
                if allow_boundary
                else f"point {z[idx]} lies outside the open unit ball"
            )
    if isinstance(expr, ProductSymbol):
        geo = expr.geometry
        if geo is None:
            raise DomainError(
                "this product symbol was parsed without a geometry; "
                "reparse it with one to evaluate"
            )
        if z.shape[-1] != geo.n:
            raise DomainError(
                f"product symbol needs points in dimension {geo.n}, got {z.shape[-1]}"
            )
        z_in = z[..., geo.ell :]
        t_in = np.sum(np.abs(z_in) ** 2, axis=-1)
        stretch = np.sqrt(np.clip(1.0 - t_in, 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            z_out = z[..., : geo.ell] / stretch[..., None]
        a_ctx = _EvalContext(z=z_out, r=None, zc_offset=0, k=geo.k)
        c_ctx = _EvalContext(z=z_in, r=None, zc_offset=0, k=None)
        return np.asarray(a_ctx.evaluate(expr.a) * c_ctx.evaluate(expr.c))
    if zc_offset is None:
        zc_offset = geometry.ell if geometry is not None else 0
    ctx = _EvalContext(
        z=z, r=None, zc_offset=zc_offset, k=geometry.k if geometry else None
    )
    out = ctx.evaluate(expr)
    return np.broadcast_to(np.asarray(out), z.shape[:-1]).copy()


def eval_profile(expr: SymbolExpr, radii: np.ndarray) -> np.ndarray:
    """Evaluate a quasi-radial profile on group-radius tuples (..., m)."""
    r = np.asarray(radii, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    out = _EvalContext(z=None, r=r, zc_offset=0, k=None).evaluate(expr)
    return np.broadcast_to(np.asarray(out), r.shape[:-1]).copy()


# ---------------------------------------------------------------------------
# Classification


_AST_TYPES = (*_CHILD_FIELDS, ProductSymbol)


def is_symbolic(f: object) -> bool:
    """True for DSL values (AST nodes and product symbols)."""
    return isinstance(f, _AST_TYPES)


# A phase band: per torus slot, the (lo, hi) of the frequencies it turns
Band = Tuple[Tuple[int, int], ...]


def _negated(b: Band) -> Band:
    return tuple((-hi, -lo) for lo, hi in b)


def _added(a: Band, b: Band) -> Band:
    return tuple((l1 + l2, h1 + h2) for (l1, h1), (l2, h2) in zip(a, b))


def _hull(a: Band, b: Band) -> Band:
    return tuple((min(l1, l2), max(h1, h2)) for (l1, h1), (l2, h2) in zip(a, b))


# asked again for the same symbol by every torus assembly, like _degree
@lru_cache(maxsize=256)
def _band(
    expr: SymbolExpr, slots: Tuple[Optional[int], ...], m: int, zc_offset: int
) -> Optional[Band]:
    """Phase band of the symbol under an m-dimensional torus action: on
    every orbit it is a trigonometric polynomial with frequencies in the
    band.  ``slots[axis]`` is the torus coordinate rotating that axis, or
    None; zc-coordinates sit ``zc_offset`` axes in.  abs2(x) = x conj(x)
    has band(x) - band(x); a denominator needs a point band and sqrt the
    zero one (powers are nonnegative in the grammar).  None where no band
    is established, an axis past the slots included: sound, not complete.
    """
    zero = ((0, 0),) * m

    def visit(node: SymbolExpr, children: list) -> Optional[Band]:
        if isinstance(node, (Const, GroupRadius)) or _is_tuple(node):
            # a whole tuple stands only under abs2, which is invariant
            return zero
        if isinstance(node, Coord):
            axis = node.index - 1 + (zc_offset if node.part == "zc" else 0)
            if axis >= len(slots):
                return None
            return tuple((int(j == slots[axis]),) * 2 for j in range(m))
        if any(b is None for b in children):
            return None
        b = children[0]
        if isinstance(node, Neg):
            return b
        if isinstance(node, Func):
            if node.name == "abs2":
                return _added(b, _negated(b))
            if node.name == "conj":
                return _negated(b)
            if node.name in ("re", "im"):
                return _hull(b, _negated(b))
            return b if b == zero else None  # sqrt
        if isinstance(node, Power):
            return tuple((node.exponent * lo, node.exponent * hi) for lo, hi in b)
        rhs = children[1]
        if node.op == "*":
            return _added(b, rhs)
        if node.op == "/":
            return None if _point(rhs) is None else _added(b, _negated(rhs))
        return _hull(b, rhs)

    return _fold(expr, visit)


def axis_band(
    expr: Union[SymbolExpr, ProductSymbol], d: int, zc_offset: int = 0
) -> Optional[Band]:
    """Per-axis phase band of the symbol on the d-ball, or None: the
    pairing of f z^alpha with z^beta vanishes unless beta - alpha lies in
    it.  zc-coordinates start ``zc_offset`` axes in.  A product symbol's
    band on its n-ball is those of a and c in turn (the stretch is real)."""
    if isinstance(expr, ProductSymbol):
        geo = expr.geometry
        if geo is None or geo.n != d:
            return None
        ba, bc = axis_band(expr.a, geo.ell), axis_band(expr.c, geo.d_inner)
        return None if ba is None or bc is None else ba + bc
    return _band(expr, tuple(range(d)), d, zc_offset)


def group_band(
    expr: Union[SymbolExpr, ProductSymbol], geometry: BallGeometry
) -> Optional[Band]:
    """Phase band under the per-group torus action on z', or None.  Not
    the per-axis band summed within groups: re(z1 conj(z2)) with z1, z2
    in one group has group band {0}.  A product symbol's is its a's."""
    if isinstance(expr, ProductSymbol):
        expr = expr.a
    slots = tuple(geometry.group_of(axis) for axis in range(geometry.ell))
    return _band(expr, slots + (None,) * geometry.d_inner, geometry.m, geometry.ell)


def _point(b: Optional[Band]) -> Optional[Tuple[int, ...]]:
    """The one frequency of a point band (its winding), else None."""
    return None if b is None or any(lo != hi for lo, hi in b) else tuple(lo for lo, _ in b)


def axis_winding(
    expr: Union[SymbolExpr, ProductSymbol], d: int, zc_offset: int = 0
) -> Optional[Tuple[int, ...]]:
    """Per-axis phase degree: the ``axis_band`` where it is a point."""
    return _point(axis_band(expr, d, zc_offset))


def group_winding(
    expr: Union[SymbolExpr, ProductSymbol], geometry: BallGeometry
) -> Optional[Tuple[int, ...]]:
    """Group phase degree: the ``group_band`` where it is a point."""
    return _point(group_band(expr, geometry))


# the whole tuple z, which stands only under abs2, as _leaves names it
_WHOLE_Z = ("z", None)


def _leaves(expr: SymbolExpr) -> FrozenSet[Tuple[str, Optional[int]]]:
    """The variables the expression names: ("z" or "zc", index, None for
    the whole tuple) for coordinates and ("r", group) for group radii."""

    def visit(node: SymbolExpr, children: list) -> FrozenSet:
        if isinstance(node, Coord):
            return frozenset({(node.part, node.index)})
        if isinstance(node, GroupRadius):
            return frozenset({("r", node.group)})
        return frozenset().union(*children)

    return _fold(expr, visit)


def classify_symbol(
    expr: Union[SymbolExpr, ProductSymbol],
    geometry: Optional[BallGeometry] = None,
) -> SymbolClass:
    """Syntactic classification of a symbol.

    The verdict is sound but not complete: every QuasiRadial or
    TorusInvariant answer implies true invariance under the group torus
    action, while a disguised invariant expression may come back General.
    Radial is the verdict of ``is_radial``.
    """
    if isinstance(expr, ProductSymbol):
        geo = expr.geometry if expr.geometry is not None else geometry
        return SymbolClass("Product", k=geo.k if geo is not None else None)

    k = geometry.k if geometry is not None else None
    if is_radial(expr, geometry):
        return SymbolClass("Radial", k=k)
    leaves = _leaves(expr)
    if all(part == "r" for part, _ in leaves - {_WHOLE_Z}):
        return SymbolClass("QuasiRadial", k=k)
    if geometry is not None:
        inner_only = all(
            part == "zc" or (part == "z" and index is not None and index > geometry.ell)
            for part, index in leaves
        )
        if inner_only:
            return SymbolClass("CzOnly", k=k)
        if group_winding(expr, geometry) == (0,) * geometry.m:
            return SymbolClass("TorusInvariant", k=k)
    return SymbolClass("General", k=k)


def is_radial(
    expr: Union[SymbolExpr, ProductSymbol], geometry: Optional[BallGeometry] = None
) -> bool:
    """Whether the symbol is a function of |z|^2 on its ball.

    This is the one judgement of radiality.  The expression may use
    abs2(z) of the whole tuple and constants; a group radius counts as
    |z| only when the geometry has one group spanning the whole ball, so
    r1 qualifies under k = (n,) and nowhere else.  A product symbol is
    never radial.
    """
    spans = geometry is not None and geometry.k == (geometry.n,)
    allowed = {_WHOLE_Z, ("r", 1)} if spans else {_WHOLE_Z}
    return not isinstance(expr, ProductSymbol) and _leaves(expr) <= allowed


def quasi_radial_profile(
    expr: Union[SymbolExpr, ProductSymbol], m: int
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Interpret the symbol as a profile a(r_1, ..., r_m) of the group
    radii, shape (N, m), or None (always for a product symbol)."""
    if isinstance(expr, ProductSymbol):
        return None
    leaves = _leaves(expr) - {_WHOLE_Z}
    if any(part != "r" or index > m for part, index in leaves):
        return None

    def profile(radii: np.ndarray) -> np.ndarray:
        return eval_profile(expr, radii)

    return profile


def rebase_inner(expr: SymbolExpr) -> SymbolExpr:
    """Rename zc coordinates to plain z ones.

    On the z''-ball itself the two alias the same axes, so the renaming
    preserves values while letting the inner factor of a product symbol
    hit every single-ball fast path.
    """

    def visit(node: SymbolExpr, children: list) -> SymbolExpr:
        if isinstance(node, Coord) and node.part == "zc":
            return Coord("z", node.index, pos=node.pos)
        return _rebuild(node, children)

    return _fold(expr, visit)


def _degree_visit(node: SymbolExpr, children: list) -> Tuple[int, bool]:
    if isinstance(node, Const):
        return 0, True
    if isinstance(node, Coord):
        return 1, True
    if isinstance(node, GroupRadius):
        return 1, False
    if isinstance(node, Neg):
        return children[0]
    if isinstance(node, Func):
        deg, poly = children[0]
        if node.name == "abs2":
            return 2 * max(1, deg), poly
        return deg, poly and node.name != "sqrt"
    if isinstance(node, Power):
        deg, poly = children[0]
        # an even power of a group radius is a polynomial in |z_j|^2
        even_radius = isinstance(node.base, GroupRadius) and node.exponent % 2 == 0
        return node.exponent * deg, poly or even_radius
    (dl, pl), (dr, pr) = children
    poly = pl and pr and node.op != "/"
    if node.op == "*":
        return dl + dr, poly
    if node.op == "/":
        return dl, poly
    return max(dl, dr), poly


# asked again for the same symbol by every route decision, like profile_form
@lru_cache(maxsize=256)
def _degree(expr: Union[SymbolExpr, ProductSymbol]) -> Tuple[int, bool]:
    """Degree hint in (z, conj z), and whether evaluation is polynomial
    in (z, conj z) jointly."""
    if isinstance(expr, ProductSymbol):
        return _fold(expr.a, _degree_visit)[0] + _fold(expr.c, _degree_visit)[0], False
    return _fold(expr, _degree_visit)


def symbol_degree_hint(expr: Union[SymbolExpr, ProductSymbol]) -> int:
    """Crude bound on the polynomial degree in (z, conj z), for quadrature
    order selection.  Division contributes its numerator only; rational
    symbols are handled by raising the order, not by exactness."""
    return _degree(expr)[0]


def is_polynomial(expr: Union[SymbolExpr, ProductSymbol]) -> bool:
    """True when evaluation is polynomial in (z, conj z) jointly; roots,
    division, product symbols and group radii other than their even
    powers are not."""
    return _degree(expr)[1]


# ---------------------------------------------------------------------------
# Polynomial expansion

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


# ---------------------------------------------------------------------------
# Profile forms

# A profile of degree n in the group radii as a form in (s_1, ..., s_m, u),
# s_j = r_j^2 and u = 1 - |s|: (n, {exponents: coef}), every exponent
# tuple of sum n.  Zero coefficients are dropped.
ProfileForm = Tuple[int, Dict[Tuple[int, ...], complex]]

# Largest form worth expanding, in terms times degree: its exact moment
# takes one running product of n factors per term.  C(n + m, m) terms at
# most, so one group allows n <= 63 and three groups n <= 11.
_MAX_FORM_FACTORS = 1 << 12


def _form_mul(a: ProfileForm, b: ProfileForm) -> ProfileForm:
    out: Dict[Tuple[int, ...], complex] = {}
    for p1, c1 in a[1].items():
        for p2, c2 in b[1].items():
            key = tuple(x + y for x, y in zip(p1, p2))
            out[key] = out.get(key, 0j) + c1 * c2
    return a[0] + b[0], {key: c for key, c in out.items() if c != 0}


def _form_map(a: ProfileForm, fn: Callable[[complex], complex]) -> ProfileForm:
    mapped = ((key, fn(c)) for key, c in a[1].items())
    return a[0], {key: c for key, c in mapped if c != 0}


# The fast paths read the same few symbols' forms for every weight and
# cutoff; equal ASTs (positions aside) have equal forms, which callers
# share and so must not modify.
@lru_cache(maxsize=256)
def profile_form(
    expr: Union[SymbolExpr, ProductSymbol], m: int
) -> Optional[ProfileForm]:
    """A polynomial quasi-radial symbol as a form in (s, u).

    Where ``quasi_radial_profile(expr, m)`` reads the symbol as a profile
    in the group radii (abs2(z) being |s|, the sum of s_j = r_j^2) and
    ``is_polynomial`` holds, the profile is a polynomial in s.  It comes
    back homogeneous of its degree n in s_1..s_m and u = 1 - |s|: a sum
    of two parts first lifts the lower one by factors |s| + u = 1, so
    1 - abs2(z) is u, (1 - abs2(z))^k is u^k and 2 - abs2(z) is s + 2u,
    with no cancelling coefficients.  None for any other symbol, and
    for one whose C(n + m, m) n bound from the degree hint is over
    _MAX_FORM_FACTORS, so the cost is known before anything is expanded.
    """
    if not is_polynomial(expr) or quasi_radial_profile(expr, m) is None:
        return None
    n = symbol_degree_hint(expr) // 2
    if math.comb(n + m, m) * max(n, 1) > _MAX_FORM_FACTORS:
        return None
    units = [tuple(int(i == j) for i in range(m + 1)) for j in range(m + 1)]
    lift: ProfileForm = (1, {e: 1 + 0j for e in units})  # |s| + u = 1

    def lifted(a: ProfileForm, n: int) -> ProfileForm:
        for _ in range(n - a[0]):
            a = _form_mul(a, lift)
        return a

    def visit(node: SymbolExpr, children: list) -> Optional[ProfileForm]:
        if isinstance(node, Const):
            return _form_map((0, {(0,) * (m + 1): complex(node.value)}), complex)
        if isinstance(node, Coord):
            # the whole tuple z, which stands only under abs2: |s|
            return 1, {e: 1 + 0j for e in units[:-1]}
        if isinstance(node, GroupRadius):
            return None  # polynomial only under an even power, read there
        if isinstance(node, Neg):
            return _form_map(children[0], lambda c: -c)
        if isinstance(node, Func):
            x = children[0]
            if node.name == "abs2":
                if _is_tuple(node.arg):
                    return x
                return _form_mul(x, _form_map(x, complex.conjugate))
            # s and u are real: conj, re and im act on the coefficients
            part = {
                "conj": complex.conjugate,
                "re": lambda c: complex(c.real),
                "im": lambda c: complex(c.imag),
            }[node.name]
            return _form_map(x, part)
        if isinstance(node, Power):
            if isinstance(node.base, GroupRadius):
                k = node.exponent // 2
                return k, {tuple(k * v for v in units[node.base.group - 1]): 1 + 0j}
            out: ProfileForm = (0, {(0,) * (m + 1): 1 + 0j})
            for _ in range(node.exponent):
                out = _form_mul(out, children[0])
            return out
        lhs, rhs = children
        if node.op == "*":
            return _form_mul(lhs, rhs)
        n = max(lhs[0], rhs[0])
        sign = 1.0 if node.op == "+" else -1.0
        total = _poly_add(lifted(lhs, n)[1], lifted(rhs, n)[1], sign)
        return n, {key: c for key, c in total.items() if c != 0}

    return _fold(expr, visit)
