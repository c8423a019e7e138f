from fractions import Fraction
from math import lcm

import pytest

from dunklinv.exactalg import ParseError, Polynomial, monomials_of_degree, parse
from dunklinv.liealg import make_sl, takiff_extend
from dunklinv.restriction import CartanFrame
from dunklinv.linalg import GradedSubspace, identity, mat_vec
from dunklinv.rootsys import (
    SUPPORTED,
    MultiplicityAssignment,
    RootSystem,
    UnsupportedSystem,
    WeylClosureError,
    WeylGroup,
    _closure,
    build_root_system,
    generate_weyl,
    invariance_maps,
    invariant_basis,
    reynolds,
    root_system,
)
from oracles import (act, breadth_first_group, classical_root_table, conjugated_a2,
                     mat_mul, polynomial_joint_kernel, root_orbits, series_coefficients,
                     tower_substitute, transpose)

ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "B3": 18,
               "C2": 8, "C3": 18, "D3": 12, "G2": 12}
WEYL_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48,
              "C2": 8, "C3": 48, "D3": 24, "G2": 12}


@pytest.mark.parametrize("name", SUPPORTED)
def test_construction_table(name):
    rs = root_system(name)
    assert len(rs.roots) == ROOT_COUNTS[name]
    assert len(breadth_first_group(generate_weyl(rs).generators)) == WEYL_ORDER[name]


@pytest.mark.parametrize("name", SUPPORTED)
def test_derived_roots_match_classical_table(name):
    # Roots, coroots and labels derived from the simple roots and the form
    # agree with the hand enumeration of the classical descriptions.
    rs = root_system(name)
    derived = {alpha: (h, label)
               for alpha, h, label in zip(rs.roots, rs.coroots, rs.orbit_labels)}
    assert len(derived) == len(rs.roots)
    assert derived == classical_root_table(name)


def test_simple_roots_come_first():
    rs = root_system("B3")
    assert rs.roots[:3] == rs.simple_roots


def test_hyperbolic_simple_roots_rejected():
    # The Cartan matrix [[2, -3], [-3, 2]] is hyperbolic: the orbit of the
    # simple roots is infinite, so the closure must hit its bound.
    rows = [[2, -3], [-3, 2]]
    with pytest.raises(WeylClosureError):
        RootSystem(name="H2", rank=2, simple_roots=rows, form=rows)


@pytest.mark.parametrize("name", SUPPORTED)
def test_coroot_normalization(name):
    rs = root_system(name)
    for alpha, coroot in zip(rs.roots, rs.coroots):
        assert sum(a * h for a, h in zip(alpha, coroot)) == 2


def test_isotropic_simple_root_is_refused():
    with pytest.raises(ValueError, match=r"\(1, 0\) has norm zero under the form"):
        RootSystem(name="isotropic", rank=2, simple_roots=[(1, 0)], form=[[0, 1], [1, 0]])


@pytest.mark.parametrize("rank,simple_roots,form", [
    (3, [[1]], [[1]]), (2, [[1, 0]], [[1]]), (2, [[1]], identity(2)),
    (2, [[1, 0]], [[1, 0], [0]]),
], ids=["rank-over-form", "form-under-rank", "short-simple-root", "ragged-form"])
def test_a_shape_that_disagrees_with_the_rank_is_refused(rank, simple_roots, form):
    # W, its invariants and the Dunkl layer take rank variables from the form
    # and from every root: a 1 x 1 form on a rank-3 system, say, would give
    # no invariants of degree 2 and an IndexError in DunklContext.
    with pytest.raises(ValueError, match=f"rank-{rank} system needs a {rank} x {rank} form"):
        RootSystem(name="X", rank=rank, simple_roots=simple_roots, form=form)


def test_fewer_simple_roots_than_rank_span_a_subsystem():
    rs = RootSystem(name="A1+0", rank=2, simple_roots=[[1, 0]], form=identity(2))
    assert rs.roots == ((1, 0), (-1, 0)) and rs.coroots == ((2, 0), (-2, 0))
    assert [invariant_basis(generate_weyl(rs), d).dim for d in range(4)] == [1, 1, 2, 2]


@pytest.mark.parametrize("simple_roots,form", [([[0.1]], [[1]]), ([[1]], [[0.5]])],
                         ids=["simple-root", "form"])
def test_a_float_entry_is_refused(simple_roots, form):
    # 0.1 has no exact meaning: as a Fraction it is 3602879701896397/2^55, not 1/10.
    with pytest.raises(TypeError, match="float"):
        RootSystem(name="X", rank=1, simple_roots=simple_roots, form=form)
    with pytest.raises(TypeError, match="float"):
        root_system("A1").root_index([2.0])
    assert RootSystem(name="X", rank=1, simple_roots=[["1/10"]], form=[[1]]).roots == (
        (Fraction(1, 10),), (Fraction(-1, 10),))


@pytest.mark.parametrize("name", SUPPORTED)
def test_roots_closed_under_negation(name):
    rs = root_system(name)
    roots = set(rs.roots)
    for alpha in rs.roots:
        assert tuple(-a for a in alpha) in roots


@pytest.mark.parametrize("name", SUPPORTED)
def test_reflections_involutive_and_permute_roots(name):
    rs = root_system(name)
    root_index = {row: i for i, row in enumerate(rs.roots)}
    for i in range(len(rs.roots)):
        refl = rs.reflection(i)
        assert mat_mul(refl, refl) == identity(rs.rank)
        # r_alpha(H_alpha) = -H_alpha
        assert mat_vec(refl, rs.coroots[i]) == [-h for h in rs.coroots[i]]
        for j, beta in enumerate(rs.roots):
            image = tuple(mat_vec(transpose(refl), beta))
            assert image in root_index
            # coroots transform along with their roots
            assert tuple(mat_vec(refl, rs.coroots[j])) == rs.coroots[root_index[image]]


@pytest.mark.parametrize("name", SUPPORTED)
def test_weyl_preserves_invariant_form(name):
    rs = root_system(name)
    weyl = generate_weyl(rs)
    form = [list(row) for row in rs.form]
    for w in weyl.generators:
        wt = transpose(w)
        assert mat_mul(wt, mat_mul(form, [list(r) for r in w])) == form


def test_reflection_rejects_non_root():
    rs = root_system("A2")
    with pytest.raises(ValueError):
        rs.reflection((5, 5))


def test_unsupported_system():
    with pytest.raises(UnsupportedSystem):
        build_root_system("E", 8)
    with pytest.raises(UnsupportedSystem):
        build_root_system("A", 4)
    with pytest.raises(UnsupportedSystem):
        root_system("Q17")
    with pytest.raises(UnsupportedSystem, match="bad root system name"):
        root_system("A²")


# -- group action ---------------------------------------------------------------

def test_act_identity_and_sign():
    rs = root_system("A1")
    weyl = generate_weyl(rs)
    p = parse("x1^3", 1)
    assert act(breadth_first_group(weyl.generators)[0], p) == p
    r = rs.reflection(0)
    assert act(r, parse("x1", 1)) == parse("-x1", 1)


def test_act_composition_law_exhaustive_a2():
    rs = root_system("A2")
    weyl = generate_weyl(rs)
    p = parse("x1^2 x2 - 3 x2^3 + x1", 2)
    group = breadth_first_group(weyl.generators)
    for w1 in group:
        for w2 in group:
            w1w2 = tuple(tuple(row) for row in mat_mul(w1, w2))
            assert act(w1, act(w2, p)) == act(w1w2, p)


def test_reynolds_projector():
    rs = root_system("A1")
    weyl = generate_weyl(rs)
    assert reynolds(weyl, parse("x1", 1)) == Polynomial.zero(1)
    assert reynolds(weyl, parse("x1^2", 1)) == parse("x1^2", 1)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_reynolds_idempotent_and_invariant(name):
    rs = root_system(name)
    weyl = generate_weyl(rs)
    for d in range(6):
        p = Polynomial(rs.rank, {mono: Fraction(1 + i)
                                 for i, mono in enumerate(monomials_of_degree(rs.rank, d))})
        image = reynolds(weyl, p)
        assert reynolds(weyl, image) == image
        for w in breadth_first_group(weyl.generators):
            assert act(w, image) == image


def test_invariant_basis_a1():
    weyl = generate_weyl(root_system("A1"))
    assert invariant_basis(weyl, 2).render() == ["x1^2"]
    assert invariant_basis(weyl, 3).dim == 0


@pytest.mark.parametrize("name", SUPPORTED)
def test_invariant_basis_equals_reynolds_span(name):
    # The generator kernel and the span of the Reynolds images of the monomials
    # are the same subspace.
    rs = root_system(name)
    weyl = generate_weyl(rs)
    for d in range(5):
        projected = [reynolds(weyl, Polynomial(rs.rank, {mono: Fraction(1)}))
                     for mono in monomials_of_degree(rs.rank, d)]
        assert invariant_basis(weyl, d) == GradedSubspace.from_polynomials(
            projected, rs.rank, d)


@pytest.mark.parametrize("name", SUPPORTED)
def test_invariant_basis_matches_polynomial_kernel(name):
    # The monomial-coordinate kernel and the kernel of p -> p o s - p, taken
    # on whole polynomials by the Fraction power tower, give the same
    # canonical basis.
    rs = root_system(name)
    weyl = generate_weyl(rs)
    for d in range(7):
        space = [Polynomial(rs.rank, {mono: 1}) for mono in monomials_of_degree(rs.rank, d)]
        maps = [lambda p, s=s: tower_substitute(p, s) - p for s in weyl.generators]
        assert invariant_basis(weyl, d) == GradedSubspace.from_polynomials(
            polynomial_joint_kernel(space, maps), rs.rank, d)


def _custom_weyl(simple_roots, form):
    return generate_weyl(RootSystem(name="X", rank=len(form), simple_roots=simple_roots, form=form))


# Every kind of group whose invariance maps a kernel path reads: the nine
# supported Weyl groups, the diagonal groups of the sl2 (m = 2) and sl3
# (m = 1) Cartan frames, the custom realizations with coroots 2/3 and 2/5
# (their reflections stay integral) and A2 conjugated by diag(1, 1/3), the
# one group here whose generators have a denominator.
def _frame_weyl(n, m):
    return CartanFrame(takiff_extend(make_sl(n), m)).weyl


INVARIANCE_GROUPS = {
    **{name: lambda name=name: generate_weyl(root_system(name)) for name in SUPPORTED},
    "sl2 m=2 frame": lambda: _frame_weyl(2, 2),
    "sl3 m=1 frame": lambda: _frame_weyl(3, 1),
    "roots 3x1": lambda: _custom_weyl([[3]], [[1]]),
    "roots 3x1,5x2": lambda: _custom_weyl([[3, 0], [0, 5]], identity(2)),
    "A2 conjugated": lambda: _custom_weyl(
        [[2, Fraction(-1, 3)], [-1, Fraction(2, 3)]],
        [[2, Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 9)]]),
}


@pytest.mark.parametrize("name", list(INVARIANCE_GROUPS))
def test_invariance_maps_are_integer_multiples_of_substitution(name):
    # Map i sends a degree-d monomial m to D^d (m o s_i - m), D the lcm of the
    # denominators of s_i, in integers keyed by exponent vectors, and its
    # scale sends d to D^d; m o s_i comes from the Fraction power tower of
    # the oracles.
    weyl = INVARIANCE_GROUPS[name]()
    n, scales = weyl.rank, []
    for s, (image, den) in zip(weyl.generators, invariance_maps(weyl)):
        scales.append(lcm(*(x.denominator for row in s for x in row)))
        for d in range(5):
            assert den(d) == scales[-1] ** d
            for mono in monomials_of_degree(n, d):
                m = Polynomial(n, {mono: 1})
                out = image(mono)
                assert all(type(c) is int for c in out.values())
                assert Polynomial(n, out) == (tower_substitute(m, s) - m) * scales[-1] ** d
    assert len(scales) == len(weyl.generators)
    assert (max(scales) > 1) == (name == "A2 conjugated")


def test_invariant_dimensions_a2_match_hilbert_series():
    weyl = generate_weyl(root_system("A2"))
    expected = series_coefficients([2, 3], 6)
    assert expected == [1, 0, 1, 1, 1, 1, 2]
    dims = [invariant_basis(weyl, d).dim for d in range(7)]
    assert dims == expected


def test_invariant_dimensions_b2_match_hilbert_series():
    weyl = generate_weyl(root_system("B2"))
    expected = series_coefficients([2, 4], 5)
    dims = [invariant_basis(weyl, d).dim for d in range(6)]
    assert dims == expected


# -- orbits and multiplicities -----------------------------------------------------

def test_b2_orbit_structure():
    rs = root_system("B2")
    weyl = generate_weyl(rs)
    orbits = root_orbits(rs, weyl)
    assert sorted(len(o) for o in orbits) == [4, 4]
    for orbit in orbits:
        labels = {rs.orbit_labels[i] for i in orbit}
        assert len(labels) == 1


@pytest.mark.parametrize("name", SUPPORTED)
def test_orbit_labels_constant_on_orbits(name):
    rs = root_system(name)
    weyl = generate_weyl(rs)
    for orbit in root_orbits(rs, weyl):
        assert len({rs.orbit_labels[i] for i in orbit}) == 1


def test_g2_has_six_long_six_short():
    rs = root_system("G2")
    assert sorted(rs.orbit_labels).count("long") == 6
    assert sorted(rs.orbit_labels).count("short") == 6


def test_multiplicity_parse():
    k = MultiplicityAssignment.parse("all=1/2")
    assert k.values == {"all": Fraction(1, 2)}
    k = MultiplicityAssignment.parse("long=1,short=3/2")
    assert k.values == {"long": Fraction(1), "short": Fraction(3, 2)}


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        MultiplicityAssignment({"all": Fraction(-1)})
    with pytest.raises(ValueError):
        MultiplicityAssignment({"weird": Fraction(1)})
    with pytest.raises(ValueError):
        MultiplicityAssignment.parse("all")


def test_multiplicity_parse_positions_a_bad_number(int_digit_limit):
    # A number that is no number, or past CPython's 4300-digit limit on
    # reading an int, is a ParseError at its first character in the text.
    int_digit_limit(4300)
    digits = "1" * 5000
    for text, position in (("all=" + digits, 4), ("long=1, short= " + digits, 15),
                           ("long=x,short=1", 5), ("long=1,short=", 13)):
        with pytest.raises(ParseError) as excinfo:
            MultiplicityAssignment.parse(text)
        assert excinfo.value.position == position, text
    assert MultiplicityAssignment.parse(" long = 1 , short= 3/2 ").values == {
        "long": Fraction(1), "short": Fraction(3, 2)}


def test_multiplicity_rejects_float_but_parses_decimal_text():
    with pytest.raises(TypeError, match="float"):
        MultiplicityAssignment({"all": 0.1})
    assert MultiplicityAssignment.parse("all=0.1").values == {"all": Fraction(1, 10)}


def test_multiplicity_resolution():
    b2 = root_system("B2")
    assert MultiplicityAssignment.parse("all=2").resolve(b2) == {
        "long": Fraction(2), "short": Fraction(2)}
    assert MultiplicityAssignment.parse("long=1,short=3/2").resolve(b2) == {
        "long": Fraction(1), "short": Fraction(3, 2)}
    with pytest.raises(ValueError):
        MultiplicityAssignment.parse("long=1").resolve(b2)
    with pytest.raises(ValueError):
        MultiplicityAssignment.parse("long=1,short=2").resolve(root_system("A2"))


def test_positive_indivisible_picks_one_per_pair():
    for name in SUPPORTED:
        rs = root_system(name)
        positives = rs.positive_indivisible()
        assert len(positives) == len(rs.roots) // 2
        rows = {rs.roots[i] for i in positives}
        for row in rows:
            assert tuple(-a for a in row) not in rows


def test_generate_weyl_deterministic():
    rs = root_system("B2")
    assert generate_weyl(rs) == generate_weyl(rs)
    assert generate_weyl(rs).generators == (rs.reflection(0), rs.reflection(1))


@pytest.mark.parametrize("name", SUPPORTED)
def test_generate_weyl_matches_textbook_closure(name):
    # W is held by its simple reflections, every entry an exact Fraction; the
    # textbook closure of those has the order of the table.
    rs = root_system(name)
    weyl = generate_weyl(rs)
    simple_reflections = tuple(rs.reflection(i) for i in range(len(rs.simple_roots)))
    assert weyl == WeylGroup(rs.rank, simple_reflections)
    assert all(type(x) is Fraction for g in weyl.generators for row in g for x in row)
    assert len(breadth_first_group(weyl.generators)) == WEYL_ORDER[name]


def test_close_group_rational_generators_match_textbook_closure():
    # The A2 reflections conjugated by diag(1, 1/3) have entries 1/3 and 3.
    # They generate a group of order 6, all Fractions, whose generator kernel
    # is the span of the Reynolds images of the monomials.
    generators = conjugated_a2()
    assert Fraction(1, 3) in {x for g in generators for row in g for x in row}
    group = breadth_first_group(generators)
    assert len(group) == 6
    assert all(type(x) is Fraction for w in group for row in w for x in row)
    weyl = WeylGroup(2, generators)
    for d in range(5):
        projected = [reynolds(weyl, Polynomial(2, {mono: 1}))
                     for mono in monomials_of_degree(2, d)]
        assert invariant_basis(weyl, d) == GradedSubspace.from_polynomials(projected, 2, d)


@pytest.mark.parametrize("name", [*SUPPORTED, "A2 conjugated", "sl3 m=1 frame"])
def test_reynolds_is_the_group_average(name):
    # reynolds closes only the orbit of p.  By orbit-stabilizer its mean is the
    # average of p o w over the group, which the oracle closes here.
    weyl = INVARIANCE_GROUPS[name]()
    n = weyl.rank
    group = breadth_first_group(weyl.generators)
    assert len(group) == WEYL_ORDER.get(name, 6)      # both extra groups have order 6
    for text in ("7/2", "x1", f"x1^3 + 2 x1 x{n}", "1/3 x1^4 - x1^2 + 5"):
        p = parse(text, n)
        average = sum((p.substitute(w) for w in group), Polynomial.zero(n)) * \
            Fraction(1, len(group))
        assert reynolds(weyl, p) == average, text


def test_reynolds_orbit_meets_orbit_stabilizer():
    # Under W(B3) the orbit of x1^2 is {x1^2, x2^2, x3^2}: 48 / |Stab(x1^2)| = 3.
    weyl = generate_weyl(root_system("B3"))
    p = parse("x1^2", 3)
    group = breadth_first_group(weyl.generators)
    stabilizer = sum(p.substitute(w) == p for w in group)
    orbit = _closure([p], weyl.generators, Polynomial.substitute)
    assert len(group) == 48 and 48 % stabilizer == 0
    assert len(orbit) == 48 // stabilizer == 3
    assert set(orbit) == {p.substitute(w) for w in group} == \
        {parse(f"x{i}^2", 3) for i in (1, 2, 3)}


def test_root_systems_groups_and_multiplicities_are_immutable_values():
    # Equal inputs give equal, equally hashed values; a Weyl group is its rank
    # and generators only, and no attribute can be assigned.
    b3, again = root_system("B3"), root_system("B3")
    assert b3 is not again and b3 == again and hash(b3) == hash(again)
    weyl, other = generate_weyl(b3), generate_weyl(again)
    assert weyl == other and hash(weyl) == hash(other)
    assert list(vars(weyl)) == ["rank", "generators"]
    k = MultiplicityAssignment.parse("long=1,short=1/2")
    assert k == MultiplicityAssignment.parse("long=1,short=1/2")
    assert k != MultiplicityAssignment.parse("long=1,short=1")
    for obj, attr in ((b3, "rank"), (b3, "roots"), (b3, "extra"), (weyl, "generators"),
                      (k, "values")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


def test_close_group_rejects_infinite_group():
    # A unipotent shear has infinite order: the orbit of x1 is x1 + j x2 for
    # j = 0, 1, ..., so reynolds must hit the closure bound.
    shear = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    with pytest.raises(WeylClosureError):
        reynolds(WeylGroup(2, (shear,)), parse("x1", 2))
