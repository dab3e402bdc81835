"""A small expression language for user-supplied right-hand sides and solutions.

An operand is a number, i, t, u, '(' expr ')', '-' operand, or a call of a
function in _FUNCTIONS: exp, sin, cos, abs, re, im, conj (one argument), pow
(two), mlf (three: order, parameter, argument; the first two real).  The
binding levels of _OPERATORS join operands: '+' '-' loosest, then '*' '/',
then unary minus, then '^'; all but '^' are left-associative, so -u^2 is
-(u^2) and 2^3^2 is 2^(3^2).  All arithmetic is complex.

Nesting is bounded by _MAX_DEPTH = 256 levels, so parsing, evaluating and
rendering stay clear of Python's recursion limit.  Each parenthesis, call and
unary minus opens a level, and an operator's right operand sits as many levels
deeper as its left operand's tree is tall, so a chain of n operators takes n
levels.  A deeper source is an ExprSyntaxError.
"""

import cmath
import operator
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
_MAX_DEPTH = 256
_DIV_FLOOR = 1e-300


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


def _divide(a, b):
    if abs(b) < _DIV_FLOOR:
        raise ExprEvalError(f"division by near-zero value {b!r}")
    return a / b


def _power(a, b):
    try:
        return a ** b
    except (ZeroDivisionError, OverflowError) as exc:
        raise ExprEvalError(f"power failure: {a!r} ^ {b!r} ({exc})") from None


def _mlf(a, b, z):
    if abs(a.imag) > 1e-14 or abs(b.imag) > 1e-14:
        raise ExprEvalError("mlf order and parameter must be real")
    try:
        return mittag_leffler(a.real, b.real, z)
    except (ValueError, ArithmeticError) as exc:
        raise ExprEvalError(f"mlf failure: {exc}") from None


# name -> (arity, function of complex arguments)
_FUNCTIONS = {
    "exp": (1, cmath.exp),
    "sin": (1, cmath.sin),
    "cos": (1, cmath.cos),
    "abs": (1, lambda z: complex(abs(z))),
    "re": (1, lambda z: complex(z.real)),
    "im": (1, lambda z: complex(z.imag)),
    "conj": (1, lambda z: z.conjugate()),
    "pow": (2, _power),
    "mlf": (3, _mlf),
}

# symbol -> ((left, right) binding level, function of complex arguments).  An operator
# takes the operand before it if its left level reaches the floor being parsed, and
# parses the one after it with its right level as the floor: left + 1 makes it
# left-associative, left right-associative.  Unary minus, "neg", has no left operand.
_OPERATORS = {
    "+": ((1, 2), operator.add),
    "-": ((1, 2), operator.sub),
    "*": ((3, 4), operator.mul),
    "/": ((3, 4), _divide),
    "neg": ((None, 5), operator.neg),
    "^": ((6, 6), _power),
}

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

    def operand(self, depth, floor):
        """(node, tree height) of the operand at this depth whose operators reach the
        binding level floor.  A right operand starts as deep as its left operand is
        tall, so an operand at depth d is at most _MAX_DEPTH - d + 1 tall."""
        kind, text, off = self.peek()
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", off)
        if kind == "op" and text == "-":
            self.advance()
            node, height = self.operand(depth + 1, _OPERATORS["neg"][0][1])
            node, height = Neg(operand=node), height + 1
        else:
            node, height = self.atom(depth)
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in _OPERATORS or _OPERATORS[text][0][0] < floor:
                return node, height
            self.advance()
            right, right_height = self.operand(depth + height, _OPERATORS[text][0][1])
            node, height = BinOp(op=text, left=node, right=right), 1 + max(height, right_height)

    def atom(self, depth):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(value=float(text)), 1
        if kind == "ident":
            if text == "i":
                return Imag(), 1
            if text in ("t", "u"):
                return Var(name=text), 1
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.operand(depth + 1, 0)]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.operand(depth + 1, 0))
                self.expect_op(")")
                arity = _FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExprSyntaxError(f"{text} takes {arity} argument(s), got {len(args)}", off)
                return Call(name=text, args=tuple(a for a, _ in args)), 1 + max(h for _, h in args)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            inner = self.operand(depth + 1, 0)
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}", off)


def parse(source: str):
    """Parse source into an AST; raises ExprSyntaxError with a byte offset."""
    if not isinstance(source, str):
        raise ExprSyntaxError("expression source must be a string", 0)
    if len(source.encode()) > _MAX_SOURCE_BYTES:
        raise ExprSyntaxError(f"expression longer than {_MAX_SOURCE_BYTES} bytes", 0)
    parser = _Parser(_tokenize(source))
    node, _ = parser.operand(0, 0)
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
    # Operators and leaves, the most frequent nodes, are tested first.
    if isinstance(node, BinOp) and node.op in _OPERATORS:
        name, table, args = node.op, _OPERATORS, (_eval(node.left, t, u), _eval(node.right, t, u))
    elif isinstance(node, Var):
        return t if node.name == "t" else u
    elif isinstance(node, Num):
        return complex(node.value)
    elif isinstance(node, Imag):
        return 1j
    elif isinstance(node, Neg):
        name, table, args = "neg", _OPERATORS, (_eval(node.operand, t, u),)
    elif isinstance(node, Call) and _FUNCTIONS.get(node.name, (None,))[0] == len(node.args):
        name, table, args = node.name, _FUNCTIONS, [_eval(arg, t, u) for arg in node.args]
    else:
        raise ExprEvalError(f"malformed expression node {node!r}")
    try:
        return table[name][1](*args)
    except OverflowError as exc:
        raise ExprEvalError(f"{name} overflow: {exc}") from None
    except ExprError:
        raise
    except ValueError as exc:  # cmath on an infinite argument
        raise ExprEvalError(f"{name} failure: {exc}") from None


def to_source(node) -> str:
    """Render an AST back to parseable source: it parses to an equal tree unless
    its parentheses, one pair per operation or chain of minuses, nest deeper
    than _MAX_DEPTH (a chain of n minuses takes n + 1 levels)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        # A chain of minuses takes one pair of parentheses, which keeps a negated
        # base from re-associating under '^', binding tighter than unary minus.
        count = 0
        while isinstance(node, Neg):
            node, count = node.operand, count + 1
        return f"({'-' * count}{to_source(node)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)}{node.op}{to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.name}({','.join(to_source(a) for a in node.args)})"
    raise ExprError(f"not an expression node: {node!r}")
