from fractions import Fraction
from math import lcm

import pytest

from dunklinv.dunkl import DunklContext, make_context
from dunklinv.exactalg import Polynomial, monomials_of_degree, parse
from dunklinv.liealg import make_sl, takiff_extend
from dunklinv.restriction import CartanFrame
from dunklinv.linalg import GradedSubspace, identity, mat_mul, mat_vec
from dunklinv.rootsys import (
    SUPPORTED,
    MultiplicityAssignment,
    RootSystem,
    UnsupportedSystem,
    WeylClosureError,
    build_root_system,
    generate_weyl,
    invariance_maps,
    invariant_basis,
    reynolds,
    root_system,
)
from oracles import (act, breadth_first_group, classical_root_table, close_group,
                     invariant_stability_check, polynomial_joint_kernel, root_orbits,
                     series_coefficients, tower_substitute, transpose)

ROOT_COUNTS = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "B3": 18,
               "C2": 8, "C3": 18, "D3": 12, "G2": 12}
WEYL_ORDER = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48,
              "C2": 8, "C3": 48, "D3": 24, "G2": 12}


@pytest.mark.parametrize("name", SUPPORTED)
def test_construction_table(name):
    rs = root_system(name)
    assert len(rs.roots) == ROOT_COUNTS[name]
    assert generate_weyl(rs).order == WEYL_ORDER[name]


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


# -- group action ---------------------------------------------------------------

def test_act_identity_and_sign():
    rs = root_system("A1")
    weyl = generate_weyl(rs)
    p = parse("x1^3", 1)
    assert act(weyl.elements[0], p) == p
    r = rs.reflection(0)
    assert act(r, parse("x1", 1)) == parse("-x1", 1)


def test_act_composition_law_exhaustive_a2():
    rs = root_system("A2")
    weyl = generate_weyl(rs)
    p = parse("x1^2 x2 - 3 x2^3 + x1", 2)
    for w1 in weyl.elements:
        for w2 in weyl.elements:
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
        for w in weyl.elements:
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
    # denominators of s_i, in integers keyed by exponent vectors; m o s_i
    # comes from the Fraction power tower of the oracles.
    weyl = INVARIANCE_GROUPS[name]()
    n, scales = weyl.rank, []
    for s, image in zip(weyl.generators, invariance_maps(weyl)):
        scales.append(lcm(*(x.denominator for row in s for x in row)))
        for d in range(5):
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
    assert generate_weyl(rs).elements == generate_weyl(rs).elements


@pytest.mark.parametrize("name", SUPPORTED)
def test_generate_weyl_matches_textbook_closure(name):
    # Same elements in the same order, every entry an exact Fraction.
    # The group is closed on first read of `elements`, not when it is built.
    rs = root_system(name)
    weyl = generate_weyl(rs)
    assert "elements" not in weyl.__dict__
    simple_reflections = [rs.reflection(i) for i in range(len(rs.simple_roots))]
    assert weyl.elements == breadth_first_group(simple_reflections)
    assert all(type(x) is Fraction for w in weyl.elements for row in w for x in row)
    assert weyl.elements is weyl.elements


def test_close_group_rational_generators_match_textbook_closure():
    # The A2 reflections conjugated by diag(1, 1/3) have entries 1/3 and 3;
    # close_group closes them at once, in the oracle's order, all Fractions.
    s, s_inv = [[1, 0], [0, Fraction(1, 3)]], [[1, 0], [0, 3]]
    a2 = root_system("A2")
    generators = [mat_mul(mat_mul(s, a2.reflection(i)), s_inv) for i in range(2)]
    assert Fraction(1, 3) in {x for g in generators for row in g for x in row}
    group = close_group(generators, 2)
    assert "elements" in group.__dict__
    assert group.elements == breadth_first_group(generators)
    assert group.order == 6
    assert all(type(x) is Fraction for w in group.elements for row in w for x in row)


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
def test_lazy_weyl_closure_agrees_with_eager(name):
    # reynolds and invariant_stability_check on a fresh context close W on
    # first use and agree with a group closed at construction.
    rs = root_system(name)
    fresh = make_context(name, "all=1")
    eager = close_group(fresh.weyl.generators, rs.rank)
    assert "elements" not in fresh.weyl.__dict__
    p = parse(" + ".join(f"x{i + 1}^2" for i in range(rs.rank)) + " + x1", rs.rank)
    assert reynolds(fresh.weyl, p) == reynolds(eager, p)
    assert "elements" in fresh.weyl.__dict__
    assert fresh.weyl.elements == eager.elements

    fresh = make_context(name, "all=1")
    eager_ctx = DunklContext(rs=fresh.rs, weyl=eager, k=fresh.k)
    invariants = invariant_basis(fresh.weyl, 2).basis + invariant_basis(fresh.weyl, 4).basis
    assert "elements" not in fresh.weyl.__dict__
    for q in invariants:
        assert invariant_stability_check(fresh, invariants[0], q) is \
            invariant_stability_check(eager_ctx, invariants[0], q) is True
    assert "elements" in fresh.weyl.__dict__


def test_root_systems_groups_and_multiplicities_are_immutable_values():
    # Equal inputs give equal, equally hashed values, whether or not a group
    # has been closed yet; no attribute can be assigned, not even `elements`.
    b3, again = root_system("B3"), root_system("B3")
    assert b3 is not again and b3 == again and hash(b3) == hash(again)
    weyl, closed = generate_weyl(b3), generate_weyl(again)
    assert closed.elements is closed.elements
    assert weyl == closed and hash(weyl) == hash(closed)
    k = MultiplicityAssignment.parse("long=1,short=1/2")
    assert k == MultiplicityAssignment.parse("long=1,short=1/2")
    assert k != MultiplicityAssignment.parse("long=1,short=1")
    for obj, attr in ((b3, "rank"), (b3, "roots"), (b3, "extra"), (weyl, "generators"),
                      (weyl, "elements"), (k, "values")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert "elements" not in weyl.__dict__


def test_close_group_rejects_infinite_group():
    # A unipotent shear has infinite order, so the closure must hit its bound.
    with pytest.raises(WeylClosureError):
        close_group([[[1, 1], [0, 1]]], 2)
