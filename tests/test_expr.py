import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialcap.errors import DomainError, ParseError, UnknownIdentifierError
from radialcap.expr import (
    BinOp, Call, Neg, Num, Var,
    FUNCTIONS, Jet2, RadialExpr, eval_jet2, evaluate, parse,
)


def fd12(expr, r, h=1e-5):
    """Central finite-difference oracle for first/second derivatives."""
    fp = evaluate(expr, r + h)
    fm = evaluate(expr, r - h)
    f0 = evaluate(expr, r)
    return (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / (h * h)


def test_parse_sinh():
    assert parse("sinh(r)").root == Call("sinh", Var())


def test_parse_precedence():
    assert parse("r^2 + 3*r").root == BinOp(
        "+", BinOp("^", Var(), Num(2.0)), BinOp("*", Num(3.0), Var()))


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("sinh(q)")
    assert exc.value.name == "q"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("r + * 2")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse("sinh r")  # function without parentheses
    with pytest.raises(ParseError):
        parse("(r + 1")  # unbalanced
    with pytest.raises(ParseError, match=r"^unexpected character '\$' at position 2$") as exc:
        parse("r $ 2")
    assert exc.value.position == 2
    with pytest.raises(ParseError, match=r"^unexpected trailing input 'r' at position 7$") as exc:
        parse("sin(r) r")
    assert exc.value.position == 7
    with pytest.raises(TypeError):
        parse(3)
    # trailing spaces end the input
    assert parse("r ").root == parse("r").root


def test_parse_unicode_operators():
    assert parse("r − 1").root == parse("r - 1").root


def test_right_associative_power():
    assert evaluate(parse("2^3^2"), 1.0) == 512.0


def test_unary_minus_binds_to_atom_before_power():
    # grammar: factor := unary ("^" factor)?  so -2^2 == (-2)^2
    assert evaluate(parse("-2^2"), 1.0) == 4.0


def test_jet_sinh_near_zero():
    j = eval_jet2(parse("sinh(r)"), 1e-12)
    assert j.value == pytest.approx(0.0, abs=1e-11)
    assert j.d1 == pytest.approx(1.0, rel=1e-12)
    assert j.d2 == pytest.approx(0.0, abs=1e-11)


def test_jet_polynomial():
    j = eval_jet2(parse("r^2"), 2.0)
    assert (j.value, j.d1, j.d2) == (4.0, 4.0, 2.0)


def test_jet_exp_over_r():
    j = eval_jet2(parse("exp(r)/r"), 1.0)
    d1_fd, d2_fd = fd12(parse("exp(r)/r"), 1.0)
    assert j.value == pytest.approx(math.e, rel=1e-14)
    assert j.d1 == pytest.approx(d1_fd, abs=1e-6)
    assert j.d2 == pytest.approx(d2_fd, abs=1e-4)
    # exact values: d1 = 0, d2 = e
    assert j.d1 == pytest.approx(0.0, abs=1e-14)
    assert j.d2 == pytest.approx(math.e, rel=1e-14)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(r - 2)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("1/(r - 1)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(r - 5)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("coth(r - 1)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("r"), -1.0)


def test_array_evaluation_matches_scalar():
    e = parse("sinh(r)/r + r^2")
    rs = np.linspace(0.2, 4.0, 17)
    j = eval_jet2(e, rs)
    for i, r in enumerate(rs):
        js = eval_jet2(e, float(r))
        assert j.value[i] == pytest.approx(js.value, rel=1e-15)
        assert j.d1[i] == pytest.approx(js.d1, rel=1e-15)
        assert j.d2[i] == pytest.approx(js.d2, rel=1e-15)


def test_array_domain_error_reports_first_point():
    e = parse("log(r - 1)")
    with pytest.raises(DomainError) as exc:
        evaluate(e, np.array([2.0, 3.0, 0.5]))
    assert exc.value.r == 0.5
    with pytest.raises(DomainError, match=r"radial variable must be positive at r=-1\.0") as exc:
        evaluate(parse("r"), np.array([1.0, -1.0]))
    assert exc.value.r == -1.0


# ---------------------------------------------------------------------------
# randomized AD-vs-finite-difference property (200 pairs, depth <= 4)
# ---------------------------------------------------------------------------

_UNARY = FUNCTIONS


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var()
        return Num(round(rng.uniform(0.3, 2.5), 3))
    kind = rng.random()
    if kind < 0.35:
        return Call(rng.choice(_UNARY), _random_tree(rng, depth - 1))
    if kind < 0.45:
        return Neg(_random_tree(rng, depth - 1))
    if kind < 0.55:
        return BinOp("^", _random_tree(rng, depth - 1),
                     Num(rng.choice([-2.0, -1.0, 0.5, 1.5, 2.0, 3.0])))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_ad_matches_finite_differences_200_pairs():
    rng = random.Random(20240817)
    checked = 0
    while checked < 200:
        expr = RadialExpr(_random_tree(rng, rng.randint(1, 4)))
        r = rng.uniform(0.2, 3.0)
        try:
            j = eval_jet2(expr, r)
            d1_fd, d2_fd = fd12(expr, r)
        except DomainError:
            continue
        vals = [j.value, j.d1, j.d2, d1_fd, d2_fd]
        if not all(math.isfinite(v) for v in vals):
            continue
        if max(abs(v) for v in vals) > 1e8:
            continue  # FD oracle itself loses accuracy on wild magnitudes
        assert abs(j.d1 - d1_fd) <= 1e-6 * (1 + abs(j.d1)), str(expr)
        assert abs(j.d2 - d2_fd) <= 1e-4 * (1 + abs(j.d2)), str(expr)
        checked += 1


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=40, deadline=None)
@given(r=st.floats(0.1, 4.0))
def test_each_function_rule_matches_centred_differences(name, r):
    # both arguments stay >= 0.1 away from coth's pole, log's and sqrt's 0
    # and abs's kink
    for e in (parse(f"{name}(r)"), parse(f"{name}(r/2 + 0.25)")):
        j = eval_jet2(e, r)
        d1_fd, d2_fd = fd12(e, r)
        assert abs(j.d1 - d1_fd) <= 1e-6 * (1 + abs(j.d1)), (str(e), r)
        assert abs(j.d2 - d2_fd) <= 1e-4 * (1 + abs(j.d2)), (str(e), r)


# ---------------------------------------------------------------------------
# print/parse round trip
# ---------------------------------------------------------------------------

CORPUS = [
    "sinh(r)",
    "r^2 + 3*r",
    "-r^2",
    "2^-3",
    "r^2^3",
    "(r + 1)/(r - 1)*2",
    "coth(r)",
    "1/(r*log(r))",
    "r - r - r",
    "r/(2/r)",
    "-(r + 1)",
    "3*-r",
    "abs(r - 2) + sqrt(r)",
    "2.5e-3*r + 1e2",
]


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_corpus(text):
    tree = parse(text)
    assert parse(str(tree)) == tree


def _trees(depth):
    if depth == 0:
        return st.one_of(
            st.just(Var()),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
        )
    sub = _trees(depth - 1)
    return st.one_of(
        sub,
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(_UNARY), sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
    )


@settings(max_examples=300, deadline=None)
@given(_trees(3))
def test_roundtrip_random_trees(tree):
    e = RadialExpr(tree)
    assert parse(str(e)).root == tree


# the texts of the checks jets make and values do not: a value exists there,
# its derivatives do not
DERIVATIVE_POLES = ("sqrt is not differentiable at 0",
                    "abs is not differentiable at 0",
                    "fractional power at 0 has singular derivatives")


@settings(max_examples=300, deadline=None)
@given(_trees(3), st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 5.0)))
def test_values_and_jets_differ_only_at_derivative_poles(tree, r):
    # where values raise, jets raise at the same r with the same text or a
    # pole's; where both exist, the jet's value is the value, bit for bit
    e = RadialExpr(tree)
    try:
        value = evaluate(e, r)
    except DomainError as err:
        with pytest.raises(DomainError) as jet:
            eval_jet2(e, r)
        assert jet.value.r == err.r
        assert jet.value.detail in (err.detail, *DERIVATIVE_POLES), str(e)
        return
    try:
        jet_value = eval_jet2(e, r).value
    except DomainError:
        return  # a pole, or a derivative past float range
    assert np.asarray(jet_value).tobytes() == np.asarray(value).tobytes(), str(e)


@pytest.mark.parametrize("text", ["sqrt(r - 1)", "abs(r - 1)"])
def test_value_and_jet_domains_differ_at_derivative_poles(text):
    # sqrt and abs have values at 0 but no derivatives there
    assert evaluate(parse(text), 1.0) == 0.0
    with pytest.raises(DomainError) as exc:
        eval_jet2(parse(text), 1.0)
    assert exc.value.r == 1.0


def test_power_rule_is_fixed_by_whether_the_exponent_uses_r():
    # an exponent without r is a number, so its own derivative pole is moot
    assert eval_jet2(parse("r^sqrt(0)"), 2.0) == Jet2(1.0, 0.0, 0.0)
    # an exponent with r takes exp(b log u), even where its derivatives vanish
    with pytest.raises(DomainError, match="power with varying exponent needs positive base") as info:
        eval_jet2(parse("(r - 1)^(r - r)"), 0.5)
    assert info.value.r == 0.5


@pytest.mark.parametrize("text", ["(r - 1)^2.5", "(r - 1)^3.7", "0^-1", "(r - 1)^-1"])
def test_power_at_a_zero_base(text):
    e = parse(text)
    if text.endswith("-1"):  # u^a with a < 0 at u == 0 is a division by zero, as 1/0 is
        for f in (evaluate, eval_jet2):
            with pytest.raises(DomainError, match=r"^division by zero at r=1\.0$"):
                f(e, 1.0)
        return
    # u^a with a >= 2 has a zero value, d1 and d2 at u == 0
    assert eval_jet2(e, 1.0) == Jet2(0.0, 0.0, 0.0)
    j = eval_jet2(e, 1.0 + 1e-2)
    d1_fd, d2_fd = fd12(e, 1.0 + 1e-2)
    assert abs(j.d1 - d1_fd) <= 1e-6 * (1 + abs(j.d1))
    assert abs(j.d2 - d2_fd) <= 1e-4 * (1 + abs(j.d2))
    # below r = 1 the base is negative, where a non-integer power has no value
    with pytest.raises(DomainError, match="fractional power of negative value"):
        eval_jet2(e, 1.0 - 1e-2)


@pytest.mark.parametrize("text, r2", [("0^(-r)", 2.0), ("(r - 1)^(r - 2)", 0.5), ("(-2)^r", 2.0),
                                     ("0^r", 2.0)])
def test_an_exponent_with_r_needs_a_positive_base_in_every_mode(text, r2):
    # the base is non-positive at r = 1 and at r2; values used to give inf,
    # -2 or 0 there, or another text, where jets raised
    e, want = parse(text), "^power with varying exponent needs positive base at r="
    for r in (1.0, r2, np.array([r2, 1.0])):
        for f in (evaluate, eval_jet2):
            with pytest.raises(DomainError, match=want) as info:
                f(e, r)
            assert info.value.r == np.ravel(r)[0]


@pytest.mark.parametrize("text", ["sqrt(-r)", "sqrt(r - 2)"])
def test_sqrt_of_a_negative_value_has_one_text_in_every_mode(text):
    for f in (evaluate, eval_jet2):
        with pytest.raises(DomainError, match=r"^sqrt of negative value at r=1\.0$"):
            f(parse(text), 1.0)


def test_values_and_jets_share_the_constant_power_rule():
    # an infinite exponent is no integer, so a negative base has no power
    for f in (evaluate, eval_jet2):
        with pytest.raises(DomainError, match="^fractional power of negative value"):
            f(parse("(-2)^exp(1000)"), 1.0)


def _outcome(f, e, r):
    """The bytes of f(e, r), or the text and point of its DomainError."""
    try:
        out = f(e, r)
    except DomainError as err:
        return str(err), err.r
    parts = (out.value, out.d1, out.d2) if isinstance(out, Jet2) else (out,)
    return [np.asarray(x).tobytes() for x in parts]


@pytest.mark.parametrize("base", ["r", "r - 1", "1 - r", "r - r", "0", "-2", "sinh(r - 1)"])
@pytest.mark.parametrize("expo", ["-2", "1/2", "2^-1", "3 - 1.5", "-1/2", "4/2", "2 - 1", "1 - 1"])
def test_exponent_without_r_acts_as_its_value(base, expo):
    power = RadialExpr(BinOp("^", parse(base).root, parse(expo).root))
    folded = RadialExpr(BinOp("^", parse(base).root, Num(parse(expo).constant)))
    for r in (0.5, 1.0, 2.0, np.array([2.0, 1.0, 0.5, 3.0])):
        for f in (evaluate, eval_jet2):
            assert _outcome(f, power, r) == _outcome(f, folded, r)


def test_compiled_expression_pickles_without_its_functions():
    e = parse("sinh(r)/r")
    j = eval_jet2(e, 2.0)
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and eval_jet2(copy, 2.0) == j


@pytest.mark.parametrize("text, value", [
    ("1", 1.0), ("0.8", 0.8), ("2*3 - 1", 5.0), ("-0", 0.0), ("exp(1000)", math.inf),
    ("r", None), ("r - r", None), ("sinh(2*r)", None),
    ("log(0)", None), ("1/0", None), ("sqrt(-1)", None), ("0^-1", None),
])
def test_constant_is_the_value_of_an_expression_without_r(text, value):
    # out-of-domain constants read None: pointwise evaluation raises there
    assert parse(text).constant == value


def test_domain_error_masks_the_points_its_check_flagged():
    with pytest.raises(DomainError) as info:
        evaluate(parse("log(r - 2)"), np.array([3.0, 1.0, 4.0, 2.0]))
    assert info.value.r == 1.0
    assert info.value.mask.tolist() == [False, True, False, True]
    with pytest.raises(DomainError) as info:
        eval_jet2(parse("1/(r - 2)"), 2.0)
    assert bool(info.value.mask)
