"""Tests for the right-hand-side expression language."""

import cmath

import pytest
from hypothesis import given, settings, strategies as st

from fracstep import ExprEvalError, ExprSyntaxError, evaluate, parse
from fracstep.expr import BinOp, Call, Imag, Neg, Num, Var, to_source, variables


def test_arithmetic_basics():
    assert evaluate("2*t + u/4 - 1", t=1.5, u=8.0) == 4.0
    assert evaluate("1 + 2*3^2") == 19.0
    assert evaluate("(1+2)*3") == 9.0
    assert evaluate("i*i") == -1.0
    assert evaluate(" 1 +\t2 ") == 3.0
    assert evaluate("--3") == 3.0


def test_power_is_right_associative():
    assert evaluate("2^3^2") == 512.0


def test_unary_minus_binds_looser_than_power():
    assert evaluate("-u^2", u=3.0) == -9.0
    assert evaluate("2^-1") == 0.5


def test_function_calls():
    assert abs(evaluate("exp(i*t)", t=cmath.pi) + 1.0) < 1e-15
    assert abs(evaluate("sin(u)^2 + cos(u)^2", u=0.3 + 0.2j) - 1.0) < 1e-14
    assert evaluate("abs(3 + 4*i)") == 5.0
    assert evaluate("re(u) + im(u)*i", u=2.0 + 3.0j) == 2.0 + 3.0j
    assert evaluate("conj(u)", u=1.0 + 2.0j) == 1.0 - 2.0j
    assert evaluate("pow(2, 10)") == 1024.0


def test_mlf_call():
    val = evaluate("mlf(0.5, 1, t)", t=-0.8)
    assert abs(val - 0.48910058922311471) < 1e-13
    # order 1 collapses to the exponential
    assert abs(evaluate("mlf(1, 1, 1)") - cmath.e) < 1e-13


def test_evaluate_accepts_ast():
    node = parse("u*2")
    assert evaluate(node, u=3.0) == 6.0


@pytest.mark.parametrize("source, names", [
    ("3 - 2*i", set()),
    ("exp(-t) + 1", {"t"}),
    ("-u^2", {"u"}),
    ("pow(t, mlf(0.5, 1, conj(u)))", {"t", "u"}),
])
def test_variables(source, names):
    assert variables(parse(source)) == names


@pytest.mark.parametrize("source, offset", [
    ("2 +", 3),
    ("1 2", 2),
    ("qq(1)", 0),
    ("exp(1, 2)", 0),
    ("$", 0),
    ("(1", 2),
])
def test_syntax_errors_carry_offsets(source, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(source)
    assert err.value.offset == offset


def test_source_guardrails():
    with pytest.raises(ExprSyntaxError):
        parse(123)
    with pytest.raises(ExprSyntaxError):
        parse("1+" * 40000 + "1")


def test_eval_errors():
    with pytest.raises(ExprEvalError):
        evaluate("1/0")
    with pytest.raises(ExprEvalError):
        evaluate("1/(t-t)", t=0.7)
    with pytest.raises(ExprEvalError):
        evaluate("0^-1")
    with pytest.raises(ExprEvalError):
        evaluate("mlf(i, 1, 0)")
    with pytest.raises(ExprEvalError):
        evaluate("mlf(3, 1, 0.5)")


def test_to_source_round_trips():
    for source in ["2^3^2", "-u^2", "mlf(0.5, 1, -t)", "exp(i*t)/(1+u)", "pow(t, 2) - i",
                   "--u^2", "(--u)^2", "2^-(-t)", "u - -u", "-" * 86 + "u", "-" * 255 + "u"]:
        node = parse(source)
        assert parse(to_source(node)) == node
    # a chain of minuses renders inside one pair of parentheses: n + 1 levels
    assert to_source(parse("---u")) == "(---u)"
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(to_source(parse("-" * 256 + "u")))


_FUNCS = {"exp": 1, "sin": 1, "cos": 1, "abs": 1, "re": 1, "im": 1,
          "conj": 1, "pow": 2, "mlf": 3}

_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Imag()),
    st.builds(Var, st.sampled_from(["t", "u"])),
)


def _compound(children):
    calls = st.sampled_from(sorted(_FUNCS)).flatmap(
        lambda name: st.tuples(*[children] * _FUNCS[name]).map(
            lambda args: Call(name=name, args=args)))
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        calls,
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves, _compound, max_leaves=20))
def test_ast_round_trip_property(node):
    assert parse(to_source(node)) == node


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="tu0123456789.+-*/^(), iexpsncoabrjmlf#", max_size=60))
def test_random_source_never_panics(source):
    try:
        evaluate(source, t=0.5, u=1.0 + 0.5j)
    except (ExprSyntaxError, ExprEvalError):
        pass


_DEPTH = 256  # the parser's nesting bound, expr._MAX_DEPTH

_TOO_DEEP = {
    "parentheses": "(" * 400 + "u" + ")" * 400,
    "unary_minus": "-" * 3000 + "u",
    "calls": "exp(" * 300 + "u" + ")" * 300,
    "power_chain": "^".join(["u"] * 2001),
    "long_sum": "0+" * 30000 + "u",
}


@pytest.mark.parametrize("source", _TOO_DEEP.values(), ids=_TOO_DEEP.keys())
def test_nesting_past_the_bound_is_a_syntax_error(source):
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {_DEPTH} levels"):
        parse(source)


# name -> (source nested n levels deep, u, value at u); at n = _DEPTH each
# parses and evaluates, and at n = _DEPTH + 1 it is a syntax error.
_AT_BOUND = {
    "parentheses": (lambda n: "(" * n + "u" + ")" * n, 0.25, 0.25),
    "unary_minus": (lambda n: "-" * n + "u", 0.25, 0.25),
    "calls": (lambda n: "re(" * n + "u" + ")" * n, 0.25, 0.25),
    "power_chain": (lambda n: "^".join(["u"] * (n + 1)), 1.0, 1.0),
    "sum": (lambda n: "0+" * n + "u", 0.25, 0.25),
    "product": (lambda n: "u*" * n + "1", 0.5, 0.5 ** _DEPTH),
    "sum_in_calls": (lambda n: "conj(" * (n - 128) + "u" + "+u" * 128 + ")" * (n - 128), 0.25, 0.25 * 129),
}


@pytest.mark.parametrize("nested, u, value", _AT_BOUND.values(), ids=_AT_BOUND.keys())
def test_source_at_the_bound_parses_and_evaluates(nested, u, value):
    node = parse(nested(_DEPTH))
    assert evaluate(node, t=0.5, u=u) == value
    assert variables(node) == {"u"}
    assert isinstance(to_source(node), str)
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(nested(_DEPTH + 1))


_DEEP = {
    # chains inside nested groups: the tree height, not only the nesting, is bounded
    "sums_in_parentheses": "(" * 120 + ("u+" * 120 + "u)") * 120,
    "products_under_powers": "(" * 60 + ("u*" * 250 + "u)^") * 59 + "u*" * 250 + "u)",
    "negated_sums": "-(" * 100 + "u" + "+u)" * 100,
    "sums_in_calls": "pow(" * 100 + "u" + ",u+u+u)" * 100,
    "right_nested_differences": "u" + "-(u" * 150 + ")" * 150,
}


@pytest.mark.parametrize("source", _DEEP.values(), ids=_DEEP.keys())
def test_deep_sources_raise_only_expression_errors(source):
    try:
        node = parse(source)
        variables(node)
        to_source(node)
        evaluate(node, t=0.5, u=0.5)
    except (ExprSyntaxError, ExprEvalError):
        pass


@pytest.mark.parametrize("source", ["cos(1e999)", "sin(1e999)", "1/(1.5e308+1.5e308*i)"])
def test_infinite_and_huge_values_are_eval_errors(source):
    with pytest.raises(ExprEvalError):
        evaluate(source)
