import random
from fractions import Fraction
from math import comb, prod

import pytest

from dunklinv import cli, dunkl
from dunklinv.dunkl import (
    DunklContext,
    commutator_check,
    dunkl_apply,
    dunkl_compose,
    gram_basis,
    gram_matrix,
    make_context,
    positivity_certificate,
)
from dunklinv import exactalg
from dunklinv.exactalg import Polynomial, monomials_of_degree, parse
from dunklinv.linalg import identity, mat_inv
from dunklinv.rootsys import (SUPPORTED, MultiplicityAssignment, RootSystem, generate_weyl,
                              invariant_basis)
from oracles import (a1_dunkl, a1_pairing, adjointness_check, apolarity, composed_gram,
                     derivative_pairing, dual_form, dunkl_pairing, equivariance_check,
                     invariant_stability_check, seeded_polynomials, taylor_divided_difference,
                     taylor_dunkl, two_sided_dunkl, variable)

K_VALUES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)]


def monomial_corpus(rank, max_degree):
    return [Polynomial(rank, {mono: Fraction(1)})
            for d in range(max_degree + 1) for mono in monomials_of_degree(rank, d)]


# -- rank-1 closed form -------------------------------------------------------

@pytest.mark.parametrize("k", K_VALUES)
def test_a1_matches_closed_form(k):
    ctx = make_context("A1", f"all={k}")
    for n in range(9):
        p = parse("x1", 1) ** n
        assert dunkl_apply(ctx, [1], p) == a1_dunkl(p, k)


def test_a1_spec_values():
    ctx = make_context("A1", "all=1")   # k = 1
    x = parse("x1", 1)
    assert dunkl_apply(ctx, [1], x) == Polynomial.constant(1, 3)
    assert dunkl_apply(ctx, [1], x ** 2) == parse("2 x1", 1)
    assert dunkl_apply(ctx, [1], x ** 3) == parse("5 x1^2", 1)


@pytest.mark.parametrize("system", ["A1", "A2", "B2"])
def test_zero_multiplicity_is_plain_derivative(system):
    ctx = make_context(system, "all=0")
    for p in monomial_corpus(ctx.rank, 5):
        for i in range(ctx.rank):
            xi = [Fraction(i == j) for j in range(ctx.rank)]
            assert dunkl_apply(ctx, xi, p) == p.directional_derivative(xi)


def test_constants_map_to_zero():
    for system in ("A1", "B2", "G2"):
        ctx = make_context(system, "all=1")
        one = Polynomial.constant(ctx.rank, 1)
        for i in range(ctx.rank):
            xi = [Fraction(i == j) for j in range(ctx.rank)]
            assert dunkl_apply(ctx, xi, one) == Polynomial.zero(ctx.rank)


@pytest.mark.parametrize("system,k", [("A2", "all=1/2"), ("B2", "long=1,short=3/2"),
                                      ("G2", "long=1,short=1/3")])
def test_degree_minus_one_on_homogeneous(system, k):
    ctx = make_context(system, k)
    for d in range(1, 6):
        for mono in monomials_of_degree(ctx.rank, d):
            p = Polynomial(ctx.rank, {mono: Fraction(1)})
            image = dunkl_apply(ctx, [1, 1], p)
            if image:
                assert image.is_homogeneous() and image.degree() == d - 1


TWO_SIDED_K = {"A1": "all=1/2", "A2": "all=1/2", "A3": "all=2/3",
               "B2": "long=1,short=3/2", "B3": "long=1/2,short=2",
               "C2": "long=2/3,short=1", "C3": "long=3,short=1/2",
               "D3": "all=5/4", "G2": "long=1,short=1/3"}


def assert_two_sided_sum_agrees(ctx):
    rng = random.Random(0)
    axes = [[int(i == j) for j in range(ctx.rank)] for i in range(ctx.rank)]
    slanted = [2, -3, Fraction(5, 2)][:ctx.rank]
    for p in seeded_polynomials(rng, ctx.rank, 4, 6):
        for xi in axes + [slanted]:
            assert dunkl_apply(ctx, xi, p) == two_sided_dunkl(ctx.rs, ctx.k, xi, p)


@pytest.mark.parametrize("system,k", [(name, TWO_SIDED_K[name]) for name in SUPPORTED])
def test_literal_two_sided_sum_agrees(system, k):
    assert_two_sided_sum_agrees(make_context(system, k))


def test_operator_runs_without_substitution_or_division(monkeypatch):
    ctx = make_context("B3", "long=1,short=1/2")
    p = parse("x1^3 x2 - 2 x2 x3^2 + 1/3 x1 x3", 3)
    xi = [1, -2, 3]
    expected = two_sided_dunkl(ctx.rs, ctx.k, xi, p)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Dunkl operator must not substitute or divide")

    monkeypatch.setattr(Polynomial, "substitute", forbidden)
    monkeypatch.setattr(exactalg, "divide_with_remainder", forbidden)
    assert dunkl_apply(ctx, xi, p) == expected
    matrix = gram_matrix(ctx, gram_basis(ctx, 3, invariants_only=False))
    assert len(matrix) == 10
    assert all(matrix[i][j] == matrix[j][i] for i in range(10) for j in range(10))
    assert all(matrix[i][i] > 0 for i in range(10))


def test_operator_computes_each_quotient_once(monkeypatch):
    # T_xi reads the context's memo: one product-rule quotient per (acting
    # root, monomial on the peel chains of p's monomials), whatever the
    # direction and however often it is applied.  A direction fills only the
    # roots with alpha(xi) != 0: e1 touches 5 of B3's 9 acting roots.
    calls = []
    real = dunkl._product_rule

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dunkl, "_product_rule", counted)
    ctx = make_context("B3", "long=1,short=1/2")
    p = parse("x1^3 x2 - 2 x2 x3^2 + 1/3 x1 x3", 3)
    image = dunkl_apply(ctx, [1, 0, 0], p)
    # x1^3 x2 -> x1^2 x2 -> x1 x2 -> x2, x2 x3^2 -> x3^2 -> x3 and x1 x3 -> x3
    held = {(3, 1, 0), (2, 1, 0), (1, 1, 0), (0, 1, 0), (0, 1, 2), (0, 0, 2), (0, 0, 1),
            (1, 0, 1)}
    assert set(ctx._quotients) == held | {(0, 0, 0)}
    touched = [a for a, w in enumerate(ctx._weights([1, 0, 0])) if w]
    assert len(touched) == 5 and len(ctx._acting) == 9
    assert len(calls) == len(touched) * len(held)
    for c in held:
        assert [a for a, q in enumerate(ctx._quotients[c]) if q is not None] == touched, c
    for xi in ([0, 1, 0], [1, -2, 3], [1, 0, 0]):
        assert dunkl_apply(ctx, xi, p) == taylor_dunkl(ctx.rs, ctx.k, xi, p)
    assert dunkl_apply(ctx, [1, 0, 0], p) == image
    assert len(calls) == 9 * 8


def test_gram_after_partial_memo_matches_fresh_context():
    # After T_e1 has filled 5 of B3's 9 roots, the Gram recursion fills the
    # rest on the monomials already held, and agrees with a fresh context.
    ctx = make_context("B3", "long=1,short=1/2")
    dunkl_apply(ctx, [1, 0, 0], parse("x1^3 x2 - 2 x2 x3^2 + 1/3 x1 x3", 3))
    for invariants_only, degree in ((False, 4), (True, 6)):
        basis = gram_basis(ctx, degree, invariants_only)
        fresh = make_context("B3", "long=1,short=1/2")
        assert gram_matrix(ctx, basis) == gram_matrix(fresh, basis)
    assert all(None not in quotients for quotients in ctx._quotients.values())


def test_float_direction_rejected():
    ctx = make_context("A2", "all=1")
    with pytest.raises(TypeError, match="float"):
        dunkl_apply(ctx, [0.1, 0], parse("x1^2", 2))
    with pytest.raises(TypeError, match="float"):
        Polynomial.linear_form([0.5, 0])        # where a float dual form is refused
    with pytest.raises(TypeError, match="float"):
        equivariance_check(ctx, ctx.weyl.elements[1], [0.5, 0], parse("x1^2", 2))


def sympy_divided_difference(sympy, rs, idx):
    """p -> (p - r_alpha p) / alpha for root idx by sympy's rational-function
    cancellation, with r_alpha x = x - alpha(x) H_alpha substituted symbolically:
    no Taylor expansion, no product rule and no code shared with the operator.
    Returns the map and the converter from Polynomial to sympy."""
    xs = sympy.symbols(f"x1:{rs.rank + 1}")

    def rat(c):
        return sympy.Rational(c.numerator, c.denominator)

    def to_sympy(p):
        return sum((rat(c) * prod(xs[v] ** e for v, e in enumerate(mono))
                    for mono, c in p.terms.items()), sympy.Integer(0))

    alpha_x = to_sympy(Polynomial.linear_form(rs.roots[idx]))
    reflect = {x: x - alpha_x * rat(h) for x, h in zip(xs, rs.coroots[idx])}

    def quotient(p):
        expr = to_sympy(p)
        return sympy.cancel((expr - expr.subs(reflect, simultaneous=True)) / alpha_x)

    return quotient, to_sympy


def test_divided_difference_matches_sympy():
    # The Taylor form of the oracle taylor_dunkl against sympy's cancellation.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for system in SUPPORTED:
        rs = make_context(system, "all=1").rs
        for p in seeded_polynomials(rng, rs.rank, 4, 2):
            for idx in rs.positive_indivisible():
                expected, to_sympy = sympy_divided_difference(sympy, rs, idx)
                got = to_sympy(taylor_divided_difference(p, rs.roots[idx], rs.coroots[idx]))
                assert sympy.expand(got - expected(p)) == 0, (system, rs.roots[idx], p)


def gram_quotient_tables(ctx, degree):
    """The context's memo after a degree-d monomial Gram matrix, by degree:
    [(degree-e monomials, [(root index, {monomial: terms}) per acting root])]
    for e = 1..d.  The memo must hold exactly the monomials of degree <= d."""
    gram_matrix(ctx, gram_basis(ctx, degree, invariants_only=False))
    layers = [monomials_of_degree(ctx.rank, e) for e in range(degree + 1)]
    assert set(ctx._quotients) == {c for monos in layers for c in monos}
    return [(monos, [(idx, {c: dict(dunkl._pairs(ctx._quotients[c][n])) for c in monos})
                     for n, (idx, _) in enumerate(ctx._acting)])
            for monos in layers[1:]]


QUOTIENT_K = [(name, "all=1") for name in SUPPORTED] + \
    [("B2", "long=0,short=1"), ("B3", "long=0,short=1"), ("C3", "long=1,short=0"),
     ("G2", "long=0,short=1")]


@pytest.mark.parametrize("system,k", QUOTIENT_K)
def test_gram_quotients_match_taylor_form(system, k):
    # The memo's product-rule quotients against the Taylor form of the oracle,
    # at every monomial of degree 1..6 (degree 0 is the seed: the quotient of
    # 1 vanishes).  The memo holds R^|c| times the quotient of c.
    ctx = make_context(system, k)
    zero_labels = {label for label, value in ctx.k.resolve(ctx.rs).items() if not value}
    expected_acting = [idx for idx in ctx.rs.positive_indivisible()
                       if ctx.rs.orbit_labels[idx] not in zero_labels]
    tables = gram_quotient_tables(ctx, 6)
    assert [len(monos) for monos, _ in tables] == \
        [len(monomials_of_degree(ctx.rank, e)) for e in range(1, 7)]
    one = Polynomial.constant(ctx.rank, 1)
    short_branch = False
    for monos, roots in tables:
        assert [idx for idx, _ in roots] == expected_acting
        for idx, table in roots:
            alpha, coroot = ctx.rs.roots[idx], ctx.rs.coroots[idx]
            assert not taylor_divided_difference(one, alpha, coroot)
            assert set(table) == set(monos)
            for c in monos:
                short_branch |= not coroot[next(v for v, e in enumerate(c) if e)]
                p = Polynomial(ctx.rank, {c: Fraction(1)})
                assert Polynomial(ctx.rank, table[c]) == \
                    taylor_divided_difference(p, alpha, coroot) * ctx._r ** sum(c), (c, coroot)
                assert all(table[c].values())
    assert short_branch or ctx.rank == 1       # H_alpha[i] = 0 for some peeled x_i


@pytest.mark.parametrize("system,k", [("A3", "all=1"), ("B3", "long=0,short=1"),
                                      ("G2", "all=1")])
def test_gram_quotients_match_sympy(system, k):
    sympy = pytest.importorskip("sympy")
    ctx = make_context(system, k)
    for monos, roots in gram_quotient_tables(ctx, 4):
        for idx, table in roots:
            expected, to_sympy = sympy_divided_difference(sympy, ctx.rs, idx)
            for c in monos:
                got = to_sympy(Polynomial(ctx.rank, table[c]) / ctx._r ** sum(c))
                p = Polynomial(ctx.rank, {c: Fraction(1)})
                assert sympy.expand(got - expected(p)) == 0, (system, ctx.rs.coroots[idx], c)


def test_direction_length_checked():
    ctx = make_context("A2", "all=1")
    with pytest.raises(ValueError):
        dunkl_apply(ctx, [1], parse("x1", 2))


# -- commutativity --------------------------------------------------------------

def test_commutators_vanish_a2_exhaustive():
    ctx = make_context("A2", "all=1/2")
    for p in monomial_corpus(2, 5):
        assert not commutator_check(ctx, [1, 0], [0, 1], p)


def test_commutator_equal_directions_trivial():
    ctx = make_context("B2", "long=1,short=2")
    p = parse("x1^3 x2", 2)
    assert not commutator_check(ctx, [1, 2], [1, 2], p)


def test_commutators_vanish_g2_random():
    ctx = make_context("G2", "long=1,short=1/3")
    rng = random.Random(0)
    for p in seeded_polynomials(rng, 2, 4, 5):
        assert not commutator_check(ctx, [1, 0], [0, 1], p)


MIXED_K = {"A1": "all=1/2", "A2": "all=1/2", "A3": "all=1/2", "D3": "all=1/2",
           "B2": "long=1,short=1/2", "B3": "long=1,short=1/2",
           "C2": "long=1,short=1/2", "C3": "long=1,short=1/2",
           "G2": "long=1,short=1/3"}


@pytest.mark.parametrize("system", sorted(MIXED_K))
def test_commutators_vanish_every_supported_system(system):
    ctx = make_context(system, MIXED_K[system])
    rank = ctx.rank
    for p in monomial_corpus(rank, 5):
        for i in range(rank):
            for j in range(i + 1, rank):
                xi = [Fraction(i == t) for t in range(rank)]
                eta = [Fraction(j == t) for t in range(rank)]
                assert not commutator_check(ctx, xi, eta, p)


# -- composition ------------------------------------------------------------------

def test_compose_single_variable_is_apply():
    for system in ("A1", "B2"):    # identity-form realizations: x_i acts as T_{e_i}
        ctx = make_context(system, "all=1")
        q = monomial_corpus(ctx.rank, 4)[-1]
        xi = [Fraction(0)] * ctx.rank
        xi[0] = Fraction(1)
        assert dunkl_compose(ctx, variable(ctx.rank, 0), q) == \
            dunkl_apply(ctx, xi, q)


def test_compose_constant_scales():
    ctx = make_context("A2", "all=1/2")
    q = parse("x1^2 x2", 2)
    assert dunkl_compose(ctx, Polynomial.constant(2, Fraction(3, 2)), q) == q * Fraction(3, 2)


@pytest.mark.parametrize("k", K_VALUES)
def test_compose_a1_iterated(k):
    ctx = make_context("A1", f"all={k}")
    x2 = parse("x1^2", 1)
    assert dunkl_compose(ctx, x2, x2) == Polynomial.constant(1, 2 * (1 + 2 * k))


# -- pairing ------------------------------------------------------------------------

def test_pairing_of_ones():
    ctx = make_context("B2", "all=1")
    one = Polynomial.constant(2, 1)
    assert dunkl_pairing(ctx, one, one) == 1


@pytest.mark.parametrize("system", ["A1", "A2", "B2"])
def test_cross_degree_orthogonality(system):
    ctx = make_context(system, "all=1/2")
    corpus = monomial_corpus(ctx.rank, 4)
    for p in corpus:
        for q in corpus:
            if p.degree() != q.degree():
                assert dunkl_pairing(ctx, p, q) == 0


@pytest.mark.parametrize("k", K_VALUES)
def test_pairing_a1_oracle(k):
    ctx = make_context("A1", f"all={k}")
    x = parse("x1", 1)
    assert dunkl_pairing(ctx, x, x) == 1 + 2 * k
    for a in range(5):
        for b in range(5):
            assert dunkl_pairing(ctx, x ** a, x ** b) == a1_pairing(x ** a, x ** b, k)


@pytest.mark.parametrize("system,k", [("A2", "all=1/2"), ("B2", "long=1,short=3/2"),
                                      ("G2", "long=7/3,short=1/2")])
def test_pairing_symmetric_on_random_corpus(system, k):
    ctx = make_context(system, k)
    rng = random.Random(0)
    polys = seeded_polynomials(rng, ctx.rank, 4, 6)
    for i, p in enumerate(polys):
        for q in polys[i + 1:]:
            assert dunkl_pairing(ctx, p, q) == dunkl_pairing(ctx, q, p)


def test_zero_multiplicity_equals_apolarity_identity_form():
    # B = I realizations: closed-form factorial pairing is the oracle
    for system in ("A1", "B2"):
        ctx = make_context(system, "all=0")
        rng = random.Random(1)
        polys = seeded_polynomials(rng, ctx.rank, 4, 6)
        for p in polys:
            for q in polys:
                assert dunkl_pairing(ctx, p, q) == apolarity(p, q)


def test_zero_multiplicity_equals_derivative_path_a2():
    # Non-orthogonal realization: oracle composes plain derivatives along the
    # form-dual directions, touching no Dunkl code.
    ctx = make_context("A2", "all=0")
    directions = [[row[i] for row in mat_inv(ctx.rs.form)] for i in range(2)]
    rng = random.Random(2)
    polys = seeded_polynomials(rng, 2, 4, 6)
    for p in polys:
        for q in polys:
            assert dunkl_pairing(ctx, p, q) == derivative_pairing(p, q, directions)


# -- gram matrices ----------------------------------------------------------------

def test_gram_degree_zero():
    ctx = make_context("G2", "all=1")
    assert gram_matrix(ctx, gram_basis(ctx, 0, invariants_only=False)) == [[Fraction(1)]]


@pytest.mark.parametrize("k", K_VALUES)
def test_gram_a1_degree_two(k):
    ctx = make_context("A1", f"all={k}")
    assert gram_matrix(ctx, gram_basis(ctx, 2, invariants_only=False)) == [[2 * (1 + 2 * k)]]


def test_gram_a1_cli_example():
    ctx = make_context("A1", "all=1")
    assert gram_matrix(ctx, gram_basis(ctx, 1, invariants_only=False)) == [[Fraction(3)]]


def _k_choices(system):
    """One orbit for every system; unequal and one zero orbit where there are two."""
    if system[0] in "AD":
        return ["all=1/2", "all=2"]
    return ["all=1/2", "long=1,short=1/3", "long=0,short=1/2"]


@pytest.mark.parametrize("system,k", [(name, k) for name in SUPPORTED for k in _k_choices(name)])
def test_gram_recursion_matches_composition_oracle(system, k):
    ctx = make_context(system, k)
    for d in range(4):
        basis = gram_basis(ctx, d, invariants_only=False)
        assert gram_matrix(ctx, basis) == composed_gram(ctx, basis), d
    for d in range(5):
        basis = gram_basis(ctx, d, invariants_only=True)
        assert gram_matrix(ctx, basis) == composed_gram(ctx, basis), d


def test_gram_mixed_degree_basis():
    ctx = make_context("B2", "long=1,short=1/2")
    basis = [parse(text, 2) for text in ("1", "x1", "x1^2 + x2", "x1 x2")]
    matrix = gram_matrix(ctx, basis)
    assert matrix == composed_gram(ctx, basis)
    assert matrix[0][2] == matrix[2][0] == 0    # x1^2 + x2 has no constant term
    # Fractional coefficients: each component is scaled to integers by its own lcm.
    basis = [parse(text, 2)
             for text in ("1/3", "1/2 x1 + 2/5 x2", "x1 x2", "3/7 x1^2 - x2 + 1/5")]
    matrix = gram_matrix(ctx, basis)
    assert matrix == composed_gram(ctx, basis)
    assert all(type(x) is Fraction for row in matrix for x in row)


def _custom_context(simple_roots, form, k):
    rs = RootSystem(name="X", rank=len(form), simple_roots=simple_roots, form=form)
    return DunklContext(rs=rs, weyl=generate_weyl(rs), k=MultiplicityAssignment.parse(k))


# Realizations whose denominators the integer recursion must clear beyond the
# benchmark's: A3's dual directions have denominators 2 and 4; the custom ones
# have coroots 2/3 and 2/5 (so fractional H_alpha); A2 conjugated by
# diag(1, 1/3) has reflected variables r_alpha x_i with coefficients 1/3.
SCALING_CONTEXTS = {
    "G2 long=5/7,short=3/11": lambda: make_context("G2", "long=5/7,short=3/11"),
    "A3 all=7/9": lambda: make_context("A3", "all=7/9"),
    "roots 3x1 all=2/3": lambda: _custom_context([[3]], [[1]], "all=2/3"),
    "roots 3x1,5x2 long=1/2,short=5/3": lambda: _custom_context(
        [[3, 0], [0, 5]], identity(2), "long=1/2,short=5/3"),
    "A2 conjugated all=3/4": lambda: _custom_context(
        [[2, Fraction(-1, 3)], [-1, Fraction(2, 3)]],
        [[2, Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 9)]], "all=3/4"),
}


@pytest.mark.parametrize("name", sorted(SCALING_CONTEXTS))
def test_literal_two_sided_sum_agrees_beyond_unit_scaling(name):
    # The custom realizations have R = 3 or 15: the memo holds R^|c| times
    # each quotient, which T_xi must divide out at every degree.
    assert_two_sided_sum_agrees(SCALING_CONTEXTS[name]())


@pytest.mark.parametrize("name", sorted(SCALING_CONTEXTS))
def test_operator_on_mixed_degrees_matches_taylor_beyond_unit_scaling(name):
    # p mixes degrees, so the applier divides each term by its own D R^|m|
    # (R = 3 or 15 on the custom realizations), under fractional directions.
    ctx = SCALING_CONTEXTS[name]()
    rng = random.Random(11)
    for p in seeded_polynomials(rng, ctx.rank, 4, 3):
        for xi in ([Fraction(1, 2)] + [Fraction(-2, 3)] * (ctx.rank - 1),
                   [Fraction(j + 1, 5) for j in range(ctx.rank)]):
            assert dunkl_apply(ctx, xi, p) == taylor_dunkl(ctx.rs, ctx.k, xi, p), (p, xi)


@pytest.mark.parametrize("name", sorted(SCALING_CONTEXTS))
def test_gram_scaling_matches_composition_oracle(name):
    ctx = SCALING_CONTEXTS[name]()
    for d in range(5):
        basis = gram_basis(ctx, d, invariants_only=False)
        assert gram_matrix(ctx, basis) == composed_gram(ctx, basis), d
    for d in range(6):
        basis = gram_basis(ctx, d, invariants_only=True)
        matrix = gram_matrix(ctx, basis)
        assert matrix == composed_gram(ctx, basis), d
        assert all(type(x) is Fraction for row in matrix for x in row)


def test_gram_scaling_reaches_fractional_coroots_and_reflections():
    # The custom realizations above really carry the denominators they are for.
    assert {h for c in SCALING_CONTEXTS["roots 3x1 all=2/3"]().rs.coroots for h in c} == \
        {Fraction(2, 3), Fraction(-2, 3)}
    assert Fraction(2, 5) in SCALING_CONTEXTS["roots 3x1,5x2 long=1/2,short=5/3"]().rs.coroots[1]
    conjugated = SCALING_CONTEXTS["A2 conjugated all=3/4"]().rs
    assert Fraction(1, 3) in conjugated.reflection(0)[0]


def test_gram_empty_basis_and_wrong_ring():
    ctx = make_context("A2", "all=1")
    assert gram_matrix(ctx, []) == []
    assert gram_matrix(ctx, [Polynomial.zero(2)]) == [[Fraction(0)]]
    with pytest.raises(ValueError):
        gram_matrix(ctx, [parse("x1", 3)])


def test_gram_work_guard(monkeypatch):
    # One product-rule quotient per (acting root, monomial of degree 1..4) and
    # no operator composition: a fall-back to composition fails here.  B3 with
    # a zero long orbit acts through its 3 short roots only.  The quotients
    # stay in the context's memo: a second Gram matrix computes none again.
    calls = []
    real = dunkl._product_rule

    def counted(*args):
        calls.append(args)
        return real(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("gram_matrix must not compose operators")

    monkeypatch.setattr(dunkl, "_product_rule", counted)
    monkeypatch.setattr(dunkl, "dunkl_compose", forbidden)
    monkeypatch.setattr(dunkl, "dunkl_apply", forbidden)
    for system, k, acting in (("A3", "all=1/2", 6), ("B3", "long=0,short=1", 3)):
        ctx = make_context(system, k)
        calls.clear()
        gram_matrix(ctx, gram_basis(ctx, 4, invariants_only=False))
        assert len(ctx._acting) == acting
        assert len(calls) == acting * sum(comb(e + 2, 2) for e in range(1, 5)), system
        gram_matrix(ctx, gram_basis(ctx, 4, invariants_only=True))
        assert len(calls) == acting * sum(comb(e + 2, 2) for e in range(1, 5)), system

    # The recursion holds integer rows only: no Fraction enters _next_gram's output.
    rows = []
    real_next_gram = dunkl._next_gram

    def integral(*args):
        gram = real_next_gram(*args)
        rows.extend(gram.values())
        return gram

    monkeypatch.setattr(dunkl, "_next_gram", integral)
    for system, k in (("A3", "all=1/2"), ("B3", "long=1,short=1/2")):
        ctx = make_context(system, k)
        rows.clear()
        gram_matrix(ctx, gram_basis(ctx, 4, invariants_only=False))
        assert len(rows) == sum(comb(e + 2, 2) for e in range(1, 5)), system
        assert all(type(x) is int for row in rows for x in row.values()), system

    # `dunkl gram` reads only the generators of W: no context closes its group.
    monkeypatch.undo()
    contexts = []

    def recorded(*args):
        contexts.append(make_context(*args))
        return contexts[-1]

    monkeypatch.setattr(cli, "make_context", recorded)
    assert cli.main(["dunkl", "gram", "--type", "B3", "--k", "long=1,short=1/2",
                     "--degree", "8", "--invariants-only"]) == cli.EXIT_PASS
    assert contexts
    assert all("elements" not in ctx.weyl.__dict__ for ctx in contexts)


@pytest.mark.parametrize("system", ["B3", "D3"])
def test_gram_zero_multiplicity_is_factorial_diagonal(system):
    # Identity-form realizations: at k = 0 the pairing is apolarity, so the
    # monomial Gram matrix is diagonal with entries prod e_j!.
    ctx = make_context(system, "all=0")
    basis = gram_basis(ctx, 4, invariants_only=False)
    matrix = gram_matrix(ctx, basis)
    assert matrix == [[apolarity(p, q) for q in basis] for p in basis]
    assert all(matrix[i][j] == 0 for i in range(len(basis)) for j in range(len(basis)) if i != j)


def test_gram_zero_multiplicity_a3_is_derivative_pairing():
    # A3 lives in simple-coroot coordinates, where x_i acts as the derivative
    # along the form-dual direction: not diagonal, but plain derivatives.
    ctx = make_context("A3", "all=0")
    directions = [[row[i] for row in mat_inv(ctx.rs.form)] for i in range(3)]
    basis = gram_basis(ctx, 4, invariants_only=False)
    assert gram_matrix(ctx, basis) == \
        [[derivative_pairing(p, q, directions) for q in basis] for p in basis]


@pytest.mark.parametrize("k", K_VALUES)
def test_gram_a1_mixed_degrees_closed_form(k):
    ctx = make_context("A1", f"all={k}")
    basis = monomial_corpus(1, 6)
    assert gram_matrix(ctx, basis) == [[a1_pairing(p, q, k) for q in basis] for p in basis]


def test_gram_positive_definite_on_invariants_a2():
    ctx = make_context("A2", "all=1")
    for d in range(5):
        matrix = gram_matrix(ctx, gram_basis(ctx, d, invariants_only=True))
        if matrix:
            definite, minors = positivity_certificate(matrix)
            assert definite, (d, minors)


# -- invariant stability -------------------------------------------------------------

@pytest.mark.parametrize("system,k", [("A2", "all=1/2"), ("B2", "long=1,short=3/2")])
def test_invariant_stability(system, k):
    ctx = make_context(system, k)
    invariants = [b for d in range(5) for b in invariant_basis(ctx.weyl, d).basis]
    for p in invariants:
        for q in invariants:
            assert invariant_stability_check(ctx, p, q)


def test_invariant_stability_constant():
    ctx = make_context("B2", "all=1")
    one = Polynomial.constant(2, 5)
    q = invariant_basis(ctx.weyl, 2).basis[0]
    assert invariant_stability_check(ctx, one, q)


def test_invariant_stability_rejects_non_invariant():
    ctx = make_context("A2", "all=1")
    with pytest.raises(ValueError):
        invariant_stability_check(ctx, parse("x1", 2), parse("x1^2", 2))


# -- adjointness and equivariance ------------------------------------------------------

def test_adjointness_a1_spec_case():
    ctx = make_context("A1", "all=1")
    one = Polynomial.constant(1, 1)
    x = parse("x1", 1)
    assert dunkl_pairing(ctx, dual_form(ctx, [1]) * one, x) == \
        dunkl_pairing(ctx, one, dunkl_apply(ctx, [1], x)) == 3
    assert adjointness_check(ctx, [1], one, x)


def test_adjointness_zero_inputs():
    ctx = make_context("B2", "all=1")
    zero = Polynomial.zero(2)
    assert adjointness_check(ctx, [1, 0], zero, parse("x1", 2))


@pytest.mark.parametrize("system,k", [("A2", "all=1/2"), ("B2", "long=1,short=3/2"),
                                      ("G2", "long=1,short=1/3")])
def test_adjointness_random(system, k):
    ctx = make_context(system, k)
    rng = random.Random(3)
    polys = seeded_polynomials(rng, ctx.rank, 3, 5)
    for p in polys:
        for q in polys:
            for xi in ([1, 0], [0, 1]):
                assert adjointness_check(ctx, xi, p, q)


def test_equivariance_identity_and_a1():
    ctx = make_context("A1", "all=1")
    p = parse("x1^3", 1)
    assert equivariance_check(ctx, ctx.weyl.elements[0], [1], p)
    refl = ctx.rs.reflection(0)
    assert equivariance_check(ctx, refl, [1], p)


def test_equivariance_b2_exhaustive():
    ctx = make_context("B2", "long=1,short=1/2")
    for w in ctx.weyl.elements:
        for p in monomial_corpus(2, 3):
            assert equivariance_check(ctx, w, [1, 0], p)
            assert equivariance_check(ctx, w, [1, -2], p)
