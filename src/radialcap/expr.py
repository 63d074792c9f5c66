"""Radial expression language: parsing, printing and evaluation of smooth
functions of the radial variable ``r > 0``.

Expressions are built from numeric literals, the variable ``r``, the ten
functions of ``FUNCTIONS`` and ``+ - * / ^`` (``^`` right-associative).

One walk of the AST (:class:`_CodeGen`) lowers an expression to
straight-line code in three forms: a numpy value function behind
:func:`evaluate`, a numpy order-2 jet function behind :func:`eval_jet2`,
which propagates (value, first, second derivative) triplets exactly through
the chain and product rules, and the C ``value_d1`` of the Monte Carlo
kernel (:func:`c_value_d1`), each function by its row of one table of f',
f'' and domain checks (``_RULES``).  The numpy functions are compiled once
per expression; no derivative is a finite difference.  An exponent without
``r`` is a number a when the code is generated, so the power rule is fixed
then (at a zero base, a < 0 is a division by zero and a >= 2 is smooth); an
exponent with ``r`` needs a positive base, and its derivatives are those
of exp(b log u).  A jet's value is the value, bit for bit, and values and
jets share every domain check but the derivative poles: sqrt and abs at 0,
and u^a at u = 0 for a non-integer 0 < a < 2.

Out-of-domain evaluation (log of a non-positive value, division by zero,
the pole of coth, ...) raises :class:`~radialcap.errors.DomainError`; a NaN
is never returned silently.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError

__all__ = [
    "RadialExpr",
    "Jet2",
    "parse",
    "eval_jet2",
    "evaluate",
    "FUNCTIONS",
]

# One row per function f, read by _CodeGen.call: f' and f'' as templates in
# {u} (the argument), {f} (the value), {fp} (f') and function names ({cos} is
# cos(u) as the mode spells it), None for f'' = 0; the domain check and the
# derivative pole (jets only), each (bad, detail); the C name where numpy's
# differs.  coth is cosh/sinh in call, as a closed-form f' would move bits.
_Rule = namedtuple("_Rule", "fp fpp check pole c", defaults=("", None, None, None, ""))
_RULES = {
    "sin": _Rule("{cos}", "-{f}"),
    "cos": _Rule("-{sin}", "-{f}"),
    "sinh": _Rule("{cosh}", "{f}"),
    "cosh": _Rule("{sinh}", "{f}"),
    "tanh": _Rule("1.0 - {f}*{f}", "-2.0*{f}*{fp}"),
    "coth": _Rule(),
    "exp": _Rule("{f}", "{f}"),
    "log": _Rule("1.0/{u}", "-{fp}*{fp}", ("{u} <= 0", "log of non-positive value")),
    "sqrt": _Rule("0.5/{f}", "-0.5*{fp}/{u}", ("{u} < 0", "sqrt of negative value"),
                  ("{u} == 0", "sqrt is not differentiable at 0")),
    "abs": _Rule("{sign}", None, pole=("{u} == 0", "abs is not differentiable at 0"), c="fabs"),
}
FUNCTIONS = tuple(_RULES)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * / ^
    lhs: Node
    rhs: Node


@dataclass(frozen=True)
class RadialExpr:
    """Immutable parsed expression of the radial variable.

    ``str()`` yields a canonical form whose re-parse is structurally
    identical to the original tree.  The numpy functions behind
    :func:`evaluate` and :func:`eval_jet2` are compiled on first use and
    kept on the instance.  Safe for unrestricted concurrent use.
    """

    root: Node

    def __str__(self) -> str:
        return _format(self.root, 0)

    @cached_property
    def constant(self) -> Optional[float]:
        """The value of an expression without ``r``; None when it depends
        on ``r`` or its value leaves the domain (callers then evaluate it
        pointwise and meet the error there)."""
        if _uses_r(self.root):
            return None
        try:
            return evaluate(self, 1.0)
        except DomainError:
            return None

    @cached_property
    def _value(self):
        return _numpy_fn(self.root, "value")

    @cached_property
    def _jet(self):
        return _numpy_fn(self.root, "jet")

    def __getstate__(self):
        return {"root": self.root}  # compiled functions are rebuilt on demand


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: function value with first and second derivative.

    Components are floats for scalar evaluation points or ndarrays for
    vectorized evaluation.
    """

    value: Union[float, np.ndarray]
    d1: Union[float, np.ndarray]
    d2: Union[float, np.ndarray]


def _uses_r(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Neg, Call)):
        return _uses_r(node.arg)
    if isinstance(node, BinOp):
        return _uses_r(node.lhs) or _uses_r(node.rhs)
    return False


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()−×÷]))"
)

_OP_ALIASES = {"−": "-", "×": "*", "÷": "/"}


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # trailing spaces, or a character that starts no token
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", n - len(rest))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            op = _OP_ALIASES.get(m.group("op"), m.group("op"))
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent over the grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := ("-")? atom
    atom   := number | "r" | ident "(" expr ")" | "(" expr ")"
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def unexpected(self, token, expected):
        kind, value, pos = token
        return ParseError(f"got {value!r}" if kind != "eof" else "unexpected end of input",
                          pos, expected=expected)

    def expect_op(self, op):
        token = self.peek()
        if token[:2] == ("op", op):
            return self.advance()
        raise self.unexpected(token, (repr(op),))

    def parse(self) -> Node:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return node

    def chain(self, ops: str, operand) -> Node:
        """``operand ((op in ops) operand)*``, left-associative."""
        node = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = BinOp(value, node, operand())

    def expr(self) -> Node:
        return self.chain("+-", self.term)

    def term(self) -> Node:
        return self.chain("*/", self.factor)

    def factor(self) -> Node:
        node = self.unary()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = BinOp("^", node, self.factor())  # right-associative
        return node

    def unary(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Node:
        token = kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if value == "r":
                return Var()
            if value in _RULES:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise UnknownIdentifierError(value, pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise self.unexpected(token, ("number", "'r'", "function", "'('"))


def parse(text: str) -> RadialExpr:
    """Parse expression text into a :class:`RadialExpr`.

    Raises :class:`~radialcap.errors.ParseError` (with position and expected
    set) or :class:`~radialcap.errors.UnknownIdentifierError`.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    return RadialExpr(_Parser(text).parse())


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------

# Precedence levels used for minimal parenthesization.  The slot a node is
# printed into carries a minimum level; anything below it gets parentheses.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _num_str(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _format(node: Node, min_level: int) -> str:
    if isinstance(node, Num):
        s, level = _num_str(node.value), 4
    elif isinstance(node, Var):
        s, level = "r", 4
    elif isinstance(node, Call):
        s, level = f"{node.name}({_format(node.arg, 0)})", 4
    elif isinstance(node, Neg):
        s, level = "-" + _format(node.arg, 4), 3
    elif isinstance(node, BinOp):
        op = node.op
        level = _LEVEL[op]
        if op in "+-":
            s = f"{_format(node.lhs, 1)} {op} {_format(node.rhs, 2)}"
        elif op in "*/":
            s = f"{_format(node.lhs, 2)}{op}{_format(node.rhs, 3)}"
        else:  # ^ binds its base one level tighter, exponent at own level
            s = f"{_format(node.lhs, 4)}^{_format(node.rhs, 3)}"
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    return f"({s})" if level < min_level else s


# ---------------------------------------------------------------------------
# Lowering: one walk of the AST emits straight-line code
# ---------------------------------------------------------------------------

def _first_bad(mask, r):
    """The evaluation point of the first True entry in mask, as a Python number."""
    mask = np.asarray(mask)
    if mask.ndim == 0:
        return r if type(r) in (int, float) else float(np.asarray(r).flat[0])
    idx = int(np.argmax(mask))
    return float(np.asarray(r + np.zeros_like(mask, dtype=float)).flat[idx])


def _check(bad, r, detail):
    """Raise at the first True entry of ``bad``, a bool or a bool array, with
    ``bad`` as the error's mask (``.any()`` and plain truth skip the
    dispatch cost of ``np.any``)."""
    if bad.any() if type(bad) is np.ndarray else bad:
        raise DomainError(detail, _first_bad(bad, r), mask=bad)


def _prod(*factors):
    """Source of the product of ``factors``, dropping factors 1.0: x*1.0 is
    exactly x, so this saves work without changing a bit."""
    return "*".join(str(f) for f in factors if f != "1.0") or "1.0"


class _At(dict):
    """A rule's template fields at the argument ``u``: a function name is
    spelled at ``u``, by the mode's ``fn``, only when a template uses it."""

    def __missing__(self, name):
        return self["fn"](name, self["u"])


class _CodeGen:
    """Straight-line code for an expression, one temporary per step.

    ``mode`` picks the output: ``"value"`` (numpy, values only, the domain
    rules of :func:`evaluate`), ``"jet"`` (numpy, value, d1 and d2, the
    rules of :func:`eval_jet2`) or ``"c"`` (C, value and d1, no checks).
    A jet is a (value, d1, d2) tuple of source names; the derivatives a
    mode does not carry are None.  Every rule (a function's is its row of
    ``_RULES``) is picked here, so the generated code holds no ``if``.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.c = mode == "c"
        self.order = {"value": 0, "c": 1, "jet": 2}[mode]
        self.lines = []
        self.n = 0

    def line(self, src):
        self.lines.append("    " + src)

    def tmp(self, src):
        if src.isidentifier():
            return src
        name = f"t{self.n}"
        self.n += 1
        self.line(f"double {name} = {src};" if self.c else f"{name} = {src}")
        return name

    def deriv(self, src, order=1, at=None):
        """A temporary for derivatives up to ``order`` only; ``at`` fills a template ``src``."""
        if self.order < order:
            return None
        return self.tmp(src if at is None else src.format_map(at))

    def out(self, *srcs):
        """Temporaries for a value and the derivatives this mode carries."""
        return tuple(self.tmp(s) if k <= self.order else None for k, s in enumerate(srcs))

    def check(self, bad, detail, pole=False):
        """Raise where ``bad`` holds, in values and jets; at a derivative ``pole``, in jets."""
        if self.mode == "jet" or (self.mode == "value" and not pole):
            self.line(f"_check({bad}, r, {detail!r})")

    def fn(self, name, arg):
        if not self.c:
            return f"np.{name}({arg})"
        if name == "sign":
            return f"(double)(({arg} > 0) - ({arg} < 0))"
        return f"{'pow' if name == 'power' else _RULES[name].c or name}({arg})"

    def num(self, v):
        """Source for v, which is never NaN (see RadialExpr.constant)."""
        if math.isinf(v):
            s = "INFINITY" if self.c else "np.inf"
        else:
            s = repr(abs(v))
        return f"(-{s})" if math.copysign(1.0, v) < 0 else s

    # -- rules ----------------------------------------------------------------
    def chain(self, u, f, fp, fpp):
        """Jet of f(u) from the names of f, f' and f'' (None: 0) at u's value."""
        d2 = _prod(fp, u[2]) if fpp is None else f"{_prod(fpp, u[1], u[1])} + {_prod(fp, u[2])}"
        return self.out(f, _prod(fp, u[1]), d2)

    def mul(self, a, b):
        return self.out(_prod(a[0], b[0]), f"{_prod(a[1], b[0])} + {_prod(a[0], b[1])}",
                        f"{_prod(a[2], b[0])} + {_prod('2.0', a[1], b[1])} + "
                        f"{_prod(a[0], b[2])}")

    def div(self, a, b, checked=False):
        if not checked:
            self.check(f"{b[0]} == 0", "division by zero")
        w = self.tmp(f"{a[0]}/{b[0]}")
        w1 = self.deriv(f"({a[1]} - {_prod(w, b[1])})/{b[0]}")
        return self.out(w, w1, f"({a[2]} - {_prod('2.0', w1, b[1])} - {_prod(w, b[2])})/{b[0]}")

    def call(self, name, u):
        """The jet of ``name(u)``, by the function's row of ``_RULES``."""
        v = u[0]
        if name == "coth":
            s = self.tmp(self.fn("sinh", v))
            self.check(f"{s} == 0", "pole of coth")
            c = self.tmp(self.fn("cosh", v))
            return self.div(self.chain(u, c, s, c), self.chain(u, s, c, s), checked=True)
        rule, at = _RULES[name], _At(u=v, fn=self.fn)
        for check, pole in ((rule.check, False), (rule.pole, True)):
            if check:
                self.check(check[0].format(u=v), check[1], pole)
        at["f"] = self.tmp(self.fn(name, v))
        at["fp"] = self.deriv(rule.fp, 1, at)
        return self.chain(u, at["f"], at["fp"], rule.fpp and self.deriv(rule.fpp, 2, at))

    def pow(self, u, expo: Node):
        """The jet of ``u^expo``.  An exponent without r is a number ``a``
        here, so its rule and checks are picked now; an exponent with r
        needs a positive base.  The value is ``np.power`` in every mode."""
        a = RadialExpr(expo).constant
        b = self.emit(expo if a is None else Num(a))
        if a is None:
            self.check(f"{u[0]} <= 0", "power with varying exponent needs positive base")
        elif a in (0.0, 1.0):
            return ("1.0", "0.0", "0.0") if a == 0.0 else u
        else:
            if not float(a).is_integer():
                self.check(f"{u[0]} < 0", "fractional power of negative value")
            if a < 0.0:
                self.check(f"{u[0]} == 0", "division by zero")
            elif a < 2.0:  # u^(a-2) is singular at u == 0
                self.check(f"{u[0]} == 0", "fractional power at 0 has singular derivatives",
                           pole=True)
        v = self.tmp(self.fn("power", f"{u[0]}, {b[0]}"))
        if self.mode == "value":
            return v, None, None
        if a is None:  # v = exp(b log u), so the exp rule on the jet of b log u
            return self.chain(self.mul(b, self.call("log", u)), v, v, v)
        if a >= 2.0:  # exact at u == 0 as well: u^0 == 1
            vm1 = self.deriv(self.fn("power", f"{u[0]}, {self.num(a - 1.0)}"))
            vm2 = self.deriv(self.fn("power", f"{u[0]}, {self.num(a - 2.0)}"), 2)
        else:
            vm1 = self.deriv(f"{v}/{u[0]}")
            vm2 = self.deriv(f"{vm1}/{u[0]}", 2)
        return self.out(v, _prod(b[0], vm1, u[1]),
                        f"{_prod(self.num(a * (a - 1.0)), vm2, u[1], u[1])} + "
                        f"{_prod(b[0], vm1, u[2])}")

    def emit(self, node: Node):
        """The jet of ``node``, as source names."""
        if isinstance(node, Num):
            return self.num(node.value), "0.0", "0.0"
        if isinstance(node, Var):
            return "r", "1.0", "0.0"
        if isinstance(node, Neg):
            return self.out(*(f"-{x}" for x in self.emit(node.arg)))
        if isinstance(node, Call):
            return self.call(node.name, self.emit(node.arg))
        if node.op == "^":
            return self.pow(self.emit(node.lhs), node.rhs)
        a, b = self.emit(node.lhs), self.emit(node.rhs)
        if node.op in "+-":
            return self.out(*(f"{x} {node.op} {y}" for x, y in zip(a, b)))
        if node.op == "*":
            return self.mul(a, b)
        return self.div(a, b)


@lru_cache(maxsize=256)
def _exec(src: str):
    namespace = {"np": np, "_check": _check}
    exec(src, namespace)  # noqa: S102 - trusted, generated from our own AST
    return namespace["f"]


def _numpy_fn(root: Node, mode: str):
    """The compiled numpy function of ``mode`` ("value" or "jet")."""
    gen = _CodeGen(mode)
    out = gen.emit(root)[:gen.order + 1]
    return _exec("\n".join(["def f(r):", *gen.lines, f"    return {', '.join(out)},", ""]))


def _radius(r):
    """``r`` as a float or a float array, checked to be positive (NaN
    passes: evaluation reports it)."""
    if isinstance(r, float) or np.ndim(r) == 0:
        rv = float(r)
        _check(rv <= 0, rv, "radial variable must be positive")
        return rv
    rv = np.asarray(r, dtype=float)
    # fmin skips NaN, so this is any(rv <= 0) in one reduction
    if rv.size and np.fmin.reduce(rv, axis=None) <= 0:
        _check(rv <= 0, rv, "radial variable must be positive")
    return rv


def _owned(x, rv, taken):
    """``x`` as a float array of ``rv``'s shape that the caller owns: an
    array the generated code computed is returned as it is, while the input,
    constants and arrays already in ``taken`` are copied."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == rv.shape:
        if x.flags.c_contiguous and x is not rv and all(x is not y for y in taken):
            return x
        return x.copy()
    out = np.empty(rv.shape)
    out[...] = x
    return out


# the detail of the NaN guard below: a NaN that no domain check caught,
# such as inf/inf past float range
_NAN_DETAIL = "evaluation produced NaN"


def _run(fn, r) -> list:
    """The outputs of the compiled ``fn`` at ``r``: floats for a scalar r,
    else float arrays of r's shape that the caller owns.  Overflow to
    +/-inf is tolerated (callers rely on it for growth detection); a NaN in
    any output is always a reported domain failure."""
    rv = _radius(r)
    with np.errstate(all="ignore"):
        out = fn(rv)
    if isinstance(rv, float):
        out = [*map(float, out)]
        for x in out:
            _check(x != x, rv, _NAN_DETAIL)
        return out
    bad = np.isnan(out[0])
    for x in out[1:]:
        bad = bad | np.isnan(x)
    _check(bad, rv, _NAN_DETAIL)
    arrays = []
    for x in out:
        arrays.append(_owned(x, rv, arrays))
    return arrays


def eval_jet2(expr: RadialExpr, r) -> Jet2:
    """Evaluate ``expr`` with exact first and second derivatives at ``r``.

    ``r`` may be a positive scalar or an ndarray of positive reals; jet
    components mirror the input shape.  Raises
    :class:`~radialcap.errors.DomainError` on out-of-domain points (the
    error reports the first offending point), never a silent NaN.  A point
    is not an input: r = +inf gives the expression's limit as its value
    (``r`` is inf, ``exp(-r)`` 0.0), and NaN, at r = NaN or from inf - inf
    or inf * 0, is a :class:`~radialcap.errors.DomainError`.
    """
    return Jet2(*_run(expr._jet, r))


def evaluate(expr: RadialExpr, r):
    """Value-only evaluation.

    Same domain rules as :func:`eval_jet2` except its derivative poles (see
    the module docstring), and no derivative work, so values near float
    overflow stay inf instead of turning into NaN through ``inf * 0``
    derivative terms.  As there, r = +inf gives the limit and NaN raises.
    """
    return _run(expr._value, r)[0]


def c_value_d1(expr: RadialExpr) -> str:
    """C source of ``static inline void value_d1(double r, double *value,
    double *d1)``, by the jet rules of :func:`eval_jet2` (needs
    ``<math.h>``).  Out-of-domain points give NaN or inf, never an error;
    callers check the result for finiteness.
    """
    gen = _CodeGen("c")
    v, d, _ = gen.emit(expr.root)
    return "\n".join(["static inline void value_d1(double r, double *value, double *d1)",
                      "{", *gen.lines, f"    *value = {v};", f"    *d1 = {d};", "}", ""])
