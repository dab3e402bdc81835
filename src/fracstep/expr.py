"""A small expression language for user-supplied right-hand sides and solutions.

Grammar (binary ops left-associative except '^', which is right-associative
and binds tighter than unary minus, so -u^2 reads as -(u^2)):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'i' | 't' | 'u' | ident '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: exp, sin, cos, abs, re, im, conj (one argument), pow (two),
mlf (three: order, parameter, argument; the first two must be real).
All arithmetic is complex.
"""

import cmath
import re as _re
from dataclasses import dataclass
from typing import Tuple

from .special import mittag_leffler

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "variables",
    "to_source",
    "Num",
    "Imag",
    "Var",
    "Neg",
    "BinOp",
    "Call",
]

_MAX_SOURCE_BYTES = 64 * 1024
_DIV_FLOOR = 1e-300

_ARITY = {"exp": 1, "sin": 1, "cos": 1, "abs": 1, "re": 1, "im": 1, "conj": 1, "pow": 2, "mlf": 3}


class ExprError(ValueError):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure: division blowup, domain violation, bad function input."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "u"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Node", ...]


Node = (Num, Imag, Var, Neg, BinOp, Call)

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            tail = src[pos:].lstrip()
            if not tail:
                break
            at = len(src) - len(tail)
            raise ExprSyntaxError(f"unexpected character {tail[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, text, off = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}, found {text or 'end of input'!r}", off)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(op=text, left=node, right=self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(op=text, left=node, right=self.parse_factor())
            else:
                return node

    def parse_factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(operand=self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp(op="^", left=base, right=self.parse_factor())
        return base

    def parse_atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(value=float(text))
        if kind == "ident":
            if text == "i":
                return Imag()
            if text in ("t", "u"):
                return Var(name=text)
            if text in _ARITY:
                self.expect_op("(")
                args = [self.parse_expr()]
                while True:
                    k2, t2, _ = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.advance()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != _ARITY[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {_ARITY[text]} argument(s), got {len(args)}", off
                    )
                return Call(name=text, args=tuple(args))
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}", off)


def parse(source: str):
    """Parse source into an AST; raises ExprSyntaxError with a byte offset."""
    if not isinstance(source, str):
        raise ExprSyntaxError("expression source must be a string", 0)
    if len(source.encode()) > _MAX_SOURCE_BYTES:
        raise ExprSyntaxError(f"expression longer than {_MAX_SOURCE_BYTES} bytes", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
    return node


def evaluate(node, t=0.0, u=0.0) -> complex:
    """Evaluate an AST (or source string) at the point (t, u)."""
    if isinstance(node, str):
        node = parse(node)
    return _eval(node, complex(t), complex(u))


def variables(node) -> set:
    """Names of the variables ("t", "u") that an AST reads."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        return set().union(*map(variables, node.args))
    return set()


def _eval(node, t, u):
    if isinstance(node, Num):
        return complex(node.value)
    if isinstance(node, Imag):
        return 1j
    if isinstance(node, Var):
        return t if node.name == "t" else u
    if isinstance(node, Neg):
        return -_eval(node.operand, t, u)
    if isinstance(node, BinOp):
        a = _eval(node.left, t, u)
        b = _eval(node.right, t, u)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if abs(b) < _DIV_FLOOR:
                raise ExprEvalError(f"division by near-zero value {b!r}")
            return a / b
        return _power(a, b)
    if isinstance(node, Call):
        args = [_eval(arg, t, u) for arg in node.args]
        return _call(node.name, args)
    raise ExprEvalError(f"malformed expression node {node!r}")


def _power(a, b):
    try:
        return a ** b
    except (ZeroDivisionError, OverflowError) as exc:
        raise ExprEvalError(f"power failure: {a!r} ^ {b!r} ({exc})") from None


def _call(name, args):
    try:
        if name == "exp":
            return cmath.exp(args[0])
        if name == "sin":
            return cmath.sin(args[0])
        if name == "cos":
            return cmath.cos(args[0])
        if name == "abs":
            return complex(abs(args[0]))
        if name == "re":
            return complex(args[0].real)
        if name == "im":
            return complex(args[0].imag)
        if name == "conj":
            return args[0].conjugate()
        if name == "pow":
            return _power(args[0], args[1])
        if name == "mlf":
            a, b, z = args
            if abs(a.imag) > 1e-14 or abs(b.imag) > 1e-14:
                raise ExprEvalError("mlf order and parameter must be real")
            try:
                return mittag_leffler(a.real, b.real, z)
            except (ValueError, ArithmeticError) as exc:
                raise ExprEvalError(f"mlf failure: {exc}") from None
    except OverflowError as exc:
        raise ExprEvalError(f"{name} overflow: {exc}") from None
    raise ExprEvalError(f"unknown function {name!r}")  # pragma: no cover


def to_source(node) -> str:
    """Render an AST back to parseable source (round-trips to an equal tree)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        # Outer parentheses keep a negated base from re-associating under '^',
        # which binds tighter than unary minus when reparsed.
        return f"(-({to_source(node.operand)}))"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)}{node.op}{to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({','.join(to_source(a) for a in node.args)})"
    raise ExprError(f"not an expression node: {node!r}")
