import copy
import pickle
import sys
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dunklinv import exactalg
from dunklinv.exactalg import (
    DimensionMismatch,
    ParseError,
    Polynomial,
    divide_with_remainder,
    exact_str,
    grlex_key,
    integral,
    monomials_of_degree,
    parse,
    render,
)
from dunklinv.rootsys import root_system
from oracles import (breadth_first_group, conjugated_a2, naive_product, termwise_map,
                     tower_substitute)


def poly(text, dim=3):
    return parse(text, dim)


# -- hypothesis strategies ---------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def monomials(dim=3, max_degree=4):
    pool = [m for d in range(max_degree + 1) for m in monomials_of_degree(dim, d)]
    return st.sampled_from(pool)


def polynomials(dim=3, max_degree=4, max_terms=5):
    return st.dictionaries(monomials(dim, max_degree), coeffs, max_size=max_terms).map(
        lambda d: Polynomial(dim, d))


def matrices(dim=3):
    return st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


def rational_matrices(dim=3):
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


# -- basic arithmetic ---------------------------------------------------------

def test_additive_inverse():
    assert poly("x1") + poly("-x1") == Polynomial.zero(3)


def test_add_distinct_monomials():
    assert poly("x1^2") + poly("x1 x2") == poly("x1^2 + x1 x2")


def test_constructor_rejects_malformed_exponent_vectors():
    with pytest.raises(DimensionMismatch, match="length 3"):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(DimensionMismatch, match="length 1"):
        Polynomial(2, [((2,), 3)])
    with pytest.raises(ValueError, match="nonnegative ints"):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError, match="nonnegative ints"):
        Polynomial(2, {(1.0, 0): 1})
    assert Polynomial(2, {(2, 0): 1}) == poly("x1^2", 2)


def test_constructor_rejects_float_coefficients():
    with pytest.raises(TypeError, match="float"):
        Polynomial(1, {(1,): 0.1})
    with pytest.raises(TypeError, match="float"):
        Polynomial.linear_form([1, 0.5])
    with pytest.raises(TypeError, match="float"):
        Polynomial.constant(1, 2.0)
    with pytest.raises(TypeError):
        poly("x1", 1) * 0.5


def test_directional_derivative_rejects_float_direction():
    with pytest.raises(TypeError, match="float"):
        parse("x1^2", 1).directional_derivative([0.1])
    assert parse("x1^2", 1).directional_derivative([Fraction(1, 10)]) == parse("1/5 x1", 1)
    assert Polynomial(1, {(1,): Fraction(1, 10)}) == poly("1/10 x1", 1)


def test_exact_rational_sum():
    assert poly("1/2 x1") + poly("1/3 x1") == poly("5/6 x1")


def test_difference_of_squares():
    assert poly("x1 + x2") * poly("x1 - x2") == poly("x1^2 - x2^2")


def test_multiply_by_zero():
    assert poly("x1 + 3 x2^2") * Polynomial.zero(3) == Polynomial.zero(3)


def test_scalar_coefficient_product():
    assert poly("1/2 x1") * poly("2/3 x2") == poly("1/3 x1 x2")


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        parse("x1", 2) + parse("x1", 3)
    with pytest.raises(DimensionMismatch):
        parse("x1", 2) * parse("x1", 3)


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# -- derivatives ---------------------------------------------------------------

def test_derivative_examples():
    assert parse("x1^3", 1).directional_derivative([1]) == parse("3 x1^2", 1)
    assert parse("x1^2", 2).directional_derivative([0, 1]) == Polynomial.zero(2)
    assert parse("x1 x2", 2).directional_derivative([1, 1]) == parse("x1 + x2", 2)


def test_derivative_drops_degree_by_one():
    p = poly("x1^2 x2 + x3^3")
    assert p.directional_derivative([1, 2, 3]).degree() == 2


@settings(max_examples=60)
@given(polynomials(), polynomials())
def test_leibniz_rule(p, q):
    xi = [1, -2, Fraction(1, 3)]
    lhs = (p * q).directional_derivative(xi)
    rhs = p.directional_derivative(xi) * q + p * q.directional_derivative(xi)
    assert lhs == rhs


@settings(max_examples=40)
@given(polynomials(), polynomials())
def test_derivative_linear_in_polynomial(p, q):
    xi = [2, 0, -1]
    assert (p + q).directional_derivative(xi) == (
        p.directional_derivative(xi) + q.directional_derivative(xi))


def test_derivative_length_mismatch():
    with pytest.raises(DimensionMismatch):
        poly("x1").directional_derivative([1, 2])


def test_monomial_derivative_in_ints():
    assert exactalg.derivative([2, 0, -3], (2, 1, 1)) == {(1, 1, 1): 4, (2, 1, 0): -3}
    assert exactalg.derivative([1, 1, 1], (0, 0, 0)) == {}


# -- the one applier of linear maps on monomials ---------------------------------

@settings(max_examples=60)
@given(polynomials(), matrices(), st.integers(1, 6), st.integers(1, 6))
def test_apply_map_matches_termwise_oracle(p, matrix, a, b):
    # p mixes degrees and denominators, and den(d) = a b^d changes with the
    # degree, so the factor top // den(|m|) differs from term to term.
    def den(d):
        return a * b ** d
    _, image = exactalg.substitution(matrix)
    assert exactalg.apply_map(p, image, den) == termwise_map(p, image, den)
    derive = partial(exactalg.derivative, [a, -b, 0])
    assert exactalg.apply_map(p, derive, den) == termwise_map(p, derive, den)


# -- linear substitution -------------------------------------------------------

def test_substitute_identity():
    p = poly("x1^2 x2 - x3")
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert p.substitute(ident) == p


def test_substitute_negation_parity():
    neg = [[-1]]
    assert parse("x1^2", 1).substitute(neg) == parse("x1^2", 1)
    assert parse("x1^3", 1).substitute(neg) == parse("-x1^3", 1)


@settings(max_examples=40)
@given(polynomials(), matrices(), matrices())
def test_substitution_composes(p, m, n):
    mn = [[sum(m[i][t] * n[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
    assert p.substitute(m).substitute(n) == p.substitute(mn) == tower_substitute(p, mn)


def test_substitute_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        poly("x1").substitute([[1, 0], [0, 1]])


# -- the term-dict product and the integer substitution -----------------------------

def test_product_keeps_cancelled_terms_as_zeros():
    # (x1 + 1/2 x2)(x1 - 1/2 x2): the x1 x2 terms cancel to a zero entry,
    # which the Polynomial product drops.
    out = exactalg.product(poly("x1 + 1/2 x2").terms, poly("x1 - 1/2 x2").terms)
    assert out == {(2, 0, 0): 1, (1, 1, 0): 0, (0, 2, 0): Fraction(-1, 4)}
    assert all(type(c) is Fraction for c in out.values())
    assert poly("x1 + 1/2 x2") * poly("x1 - 1/2 x2") == poly("x1^2 - 1/4 x2^2")


@settings(max_examples=60)
@given(polynomials(), polynomials())
def test_product_matches_naive_double_loop(p, q):
    out = exactalg.product(p.terms, q.terms)
    assert {k: c for k, c in out.items() if c} == naive_product(p, q).terms
    assert p * q == naive_product(p, q)
    # The cross terms p q and -q p cancel, term by term.
    assert (p + q) * (p - q) == naive_product(p, p) - naive_product(q, q)


def test_substitution_keeps_cancelled_terms_as_zeros():
    # x1 -> x1 + x2/3 and x2 -> x1 - x2/3: D = 3, and 9 x1 x2 goes to
    # (3 x1 + x2)(3 x1 - x2), whose x1 x2 terms cancel.
    scale, image = exactalg.substitution([[1, Fraction(1, 3)], [1, Fraction(-1, 3)]])
    assert scale == 3
    assert image((1, 1)) == {(2, 0): 9, (1, 1): 0, (0, 2): -1}
    assert parse("x1 x2", 2).substitute([[1, Fraction(1, 3)], [1, Fraction(-1, 3)]]) == \
        parse("x1^2 - 1/9 x2^2", 2)
    assert parse("x1 - x2", 2).substitute([[1, 2], [1, 2]]) == Polynomial.zero(2)


@settings(max_examples=60)
@given(polynomials(), rational_matrices())
def test_substitute_matches_fraction_tower(p, m):
    assert p.substitute(m) == tower_substitute(p, m)


@settings(max_examples=40)
@given(st.lists(monomials(), min_size=1, max_size=6), rational_matrices())
def test_substitution_is_integral(monos, m):
    # image(mono) is D^|mono| mono(Mx) in ints, whatever powers earlier calls
    # left in the towers and whatever callers did to the dicts they got.
    scale, image = exactalg.substitution(m)
    assert scale == lcm(*(Fraction(x).denominator for row in m for x in row))
    for mono in monos + monos[::-1]:
        out = image(mono)
        assert all(type(c) is int for c in out.values())
        assert Polynomial(3, out) == \
            tower_substitute(Polynomial(3, {mono: 1}), m) * scale ** sum(mono)
        out[mono] = out.get(mono, 0) + 1


@pytest.mark.parametrize("elements", [
    lambda: breadth_first_group(conjugated_a2()),
    lambda: [root_system("G2").reflection(i) for i in range(12)],
], ids=["A2 conjugated", "G2 reflections"])
def test_substitution_of_group_elements_matches_fraction_tower(elements):
    elements = elements()
    assert len(elements) > 1
    for w in elements:
        scale, image = exactalg.substitution(w)
        for d in range(6):
            for mono in monomials_of_degree(2, d):
                m = Polynomial(2, {mono: 1})
                assert m.substitute(w) == tower_substitute(m, w)
                assert Polynomial(2, image(mono)) == tower_substitute(m, w) * scale ** d
    assert any(exactalg.substitution(w)[0] > 1 for w in elements) == \
        any(x.denominator > 1 for w in elements for row in w for x in row)


# -- exact division --------------------------------------------------------------

def test_divide_difference_of_squares():
    assert divide_with_remainder(poly("x1^2 - x2^2"), poly("x1 - x2")) == (
        poly("x1 + x2"), Polynomial.zero(3))


def test_divide_monomial():
    assert divide_with_remainder(poly("x1 x2"), poly("x2")) == (poly("x1"), Polynomial.zero(3))


def test_not_divisible_reports_remainder():
    quotient, remainder = divide_with_remainder(poly("x1^2"), poly("x2"))
    assert quotient == Polynomial.zero(3)
    assert remainder == poly("x1^2")


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divide_with_remainder(poly("x1"), Polynomial.zero(3))


def test_division_identity():
    p = poly("x1^2 + 2 x1 x2 + x2^2 - x3^2")
    q, r = divide_with_remainder(p, poly("x1 + x2 + x3"))
    assert p == q * poly("x1 + x2 + x3") + r


@settings(max_examples=60)
@given(polynomials(max_degree=3), polynomials(max_degree=2))
def test_exact_divide_roundtrip(p, d):
    if not d:
        return
    assert divide_with_remainder(p * d, d) == (p, Polynomial.zero(p.ambient_dim))


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials(max_degree=2))
def test_remainder_linear_in_dividend(p, q, d):
    # single-divisor normal forms are unique, hence linear
    if not d:
        return
    rp = divide_with_remainder(p, d)[1]
    rq = divide_with_remainder(q, d)[1]
    assert divide_with_remainder(p + q, d)[1] == rp + rq
    assert divide_with_remainder(p * Fraction(3, 2), d)[1] == rp * Fraction(3, 2)


# -- components ------------------------------------------------------------------

def test_homogeneous_component():
    assert poly("1 + x1 + x1^2").homogeneous_component(1) == poly("x1")
    assert poly("x1^2").homogeneous_component(3) == Polynomial.zero(3)
    p = poly("x1 x2 + x2^2")
    assert p.homogeneous_component(2) == p


# -- text form --------------------------------------------------------------------

def test_parse_example():
    p = poly("3/2 x1^2 x2 - x3")
    assert p.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}


def test_parse_zero():
    assert parse("0", 3) == Polynomial.zero(3)


def test_parse_canonicalizes_repeats():
    assert parse("x1 + x1", 3) == poly("2 x1")


def test_render_order_highest_degree_first():
    assert render(poly("3/2 x1^2 x2 - x3")) == "3/2 x1^2 x2 - x3"
    assert render(Polynomial.zero(3)) == "0"
    assert render(poly("-x1")) == "-x1"


def test_parse_with_alias_names():
    p = parse("u v + 2 v^2", names=["u", "v"])
    assert p == parse("x1 x2 + 2 x2^2", 2)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as excinfo:
        parse("x1 + ", 2)
    assert excinfo.value.position == 5
    with pytest.raises(ParseError) as excinfo:
        parse("x9", 2)
    assert excinfo.value.position == 0
    with pytest.raises(ParseError):
        parse("x1 ^ -2", 2)
    with pytest.raises(ParseError):
        parse("", 2)
    # A superscript digit is a digit to str.isdigit but not a decimal: int() refuses it.
    with pytest.raises(ParseError, match="expected an integer") as excinfo:
        parse("x1^²", 1)
    assert excinfo.value.position == 3
    with pytest.raises(ParseError, match="expected a term") as excinfo:
        parse("²x1", 1)
    assert excinfo.value.position == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
def test_parse_positions_an_integer_past_the_digit_limit(int_digit_limit):
    int_digit_limit(4300)               # CPython's default, whatever this process runs with
    digits = "1" * 5000
    for text, position in ((digits + " x1", 0), ("x1^" + digits, 3),
                           ("1/" + digits + " x1", 2)):
        with pytest.raises(ParseError, match="Exceeds the limit") as excinfo:
            parse(text, 1)
        assert excinfo.value.position == position


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
def test_a_number_past_the_digit_limit_is_refused_without_cpythons_advice(int_digit_limit):
    # CPython's message ends by advising a call to lift the limit, which no
    # user of the command line can make; the ParseError keeps the rest.
    int_digit_limit(4300)
    digits = "1" * 5000
    refused = "Exceeds the limit (4300 digits) for integer string conversion: value has " \
        "5000 digits (at position {})"
    for read, text, position in ((partial(parse, ambient_dim=1), digits + " x1", 0),
                                 (partial(parse, ambient_dim=1), "x1^" + digits, 3),
                                 (exactalg.rational, " " + digits, 1),
                                 (exactalg.rational, "1/" + digits, 0)):
        with pytest.raises(ParseError) as excinfo:
            read(text)
        assert str(excinfo.value) == refused.format(position), text[:8]
    # Text that is no number keeps its whole message, semicolon included.
    with pytest.raises(ParseError) as excinfo:
        exactalg.rational("1; x")
    assert str(excinfo.value) == "Invalid literal for Fraction: '1; x' (at position 0)"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
def test_render_prints_coefficients_past_the_digit_limit(int_digit_limit):
    # Printed at CPython's default limit; the expected text is built with it lifted.
    p = Polynomial(2, {(1, 0): Fraction(10 ** 5000),
                       (0, 0): Fraction(-(10 ** 5000 + 7), 3 ** 10000)})
    int_digit_limit(4300)
    text = render(p)
    int_digit_limit(0)
    assert text == f"{10 ** 5000} x1 - {10 ** 5000 + 7}/{3 ** 10000}"
    assert parse(text, 2) == p


@pytest.mark.parametrize("x", [0, 7, -7, Fraction(-3, 4), 10 ** 1199, -(10 ** 600),
                               Fraction(10 ** 600 - 1, 10 ** 601 + 1), 3 ** 10000],
                         ids=["zero", "int", "negative", "fraction", "1200-digits",
                              "minus-one-chunk", "600-over-602-digits", "4772-digits"])
def test_exact_str_is_str_at_any_length(x, int_digit_limit):
    int_digit_limit(640)                # the lowest limit CPython accepts
    text = exact_str(x)
    int_digit_limit(0)
    assert text == str(x)


@settings(max_examples=80)
@given(polynomials())
def test_parse_render_roundtrip(p):
    assert parse(render(p), p.ambient_dim) == p


def test_integral_scales_every_row_by_one_common_denominator():
    assert integral([[1, -2], [3]]) == (1, [[1, -2], [3]])
    assert integral([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5, 4)]]) == (12, [[6, -8], [15]])
    assert integral([[Fraction(-3, 4), 2, 0], [], [Fraction(-1, 6)]]) == \
        (12, [[-9, 24, 0], [], [-2]])
    assert integral([{(1, 0): Fraction(7, 3)}.values()]) == (3, [[7]])
    assert integral([]) == (1, [])
    assert integral([[], []]) == (1, [[], []])
    _, rows = integral([[Fraction(4, 2), 5, Fraction(-1, 3)]])
    assert rows == [[6, 15, -1]] and all(type(x) is int for x in rows[0])


def test_monomials_of_degree_count_and_order():
    monos = monomials_of_degree(3, 2)
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)                 # x1^2 first in descending grlex
    assert monos[-1] == (0, 0, 2)


@pytest.mark.parametrize("dim,degree", [(1, 0), (1, 5), (2, 4), (3, 3), (4, 4), (5, 2)])
def test_monomials_of_degree_are_all_monomials_in_descending_grlex(dim, degree):
    # The oracle filters every exponent vector by its degree and sorts.
    vectors = [e for e in product(range(degree + 1), repeat=dim) if sum(e) == degree]
    expected = sorted(vectors, key=grlex_key, reverse=True)
    assert monomials_of_degree(dim, degree) == expected
    assert monomials_of_degree(dim, -1) == []


ROUND_TRIPS = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
               "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_values_survive_pickling_and_copying(how):
    # Each copy is rebuilt through the validating constructor: an equal,
    # still immutable polynomial, also inside the values that hold them.
    from dunklinv.dunkl import dunkl_apply, make_context
    from dunklinv.liealg import invariants_graded, make_sl, takiff_extend

    round_trip = ROUND_TRIPS[how]
    p = poly("x1^2 x3 - 1/2 x2 + 3")
    q = round_trip(p)
    assert q == p and hash(q) == hash(p) and type(q) is Polynomial
    assert all(type(c) is Fraction for c in q.terms.values())
    with pytest.raises(AttributeError):
        q.terms = {}
    space = invariants_graded(takiff_extend(make_sl(2), 2), 4)
    assert space.dim > 0 and round_trip(space) == space
    ctx = make_context("B3", "long=1,short=1/2")
    image = dunkl_apply(ctx, [1, 0, 0], p)          # fills part of the quotient memo
    copied = round_trip(ctx)
    assert copied is not ctx
    assert (copied.rs, copied.weyl, copied.k, copied._acting, copied._r, copied._reflected,
            copied._quotients, copied._dual_directions) == \
        (ctx.rs, ctx.weyl, ctx.k, ctx._acting, ctx._r, ctx._reflected,
         ctx._quotients, ctx._dual_directions)
    assert dunkl_apply(copied, [1, 0, 0], p) == image


def test_power_and_scalar_division():
    p = poly("x1 + 1")
    assert p ** 2 == poly("x1^2 + 2 x1 + 1")
    assert poly("2 x1") * Fraction(1, 2) == poly("x1")
