from fractions import Fraction
from functools import partial

import pytest

from dunklinv import linalg, restriction, rootsys
from dunklinv.dunkl import DunklContext, gram_basis, gram_matrix, make_context
from dunklinv.exactalg import Polynomial, monomials_of_degree, parse
from dunklinv.liealg import LieAlgebra, invariants_graded, make_sl, takiff_extend
from dunklinv.linalg import GradedSubspace, mat_inv, mat_mul, mat_vec
from dunklinv.restriction import (
    CartanFrame,
    CriterionReport,
    RestrictionError,
    chevalley_graded_check,
    criterion_check,
    criterion_subspace,
    image_basis,
    restrict,
)
from oracles import (close_group, coroot_delta, coroot_remainder, polynomial_joint_kernel,
                     series_coefficients, tower_substitute, transpose)


@pytest.fixture(scope="module")
def frame1(sl2):
    return CartanFrame(takiff_extend(sl2, 1))


@pytest.fixture(scope="module")
def frame2(sl2):
    return CartanFrame(takiff_extend(sl2, 2))


def h_span(frame, texts, degree):
    return GradedSubspace.from_polynomials(
        [frame.parse(t) for t in texts], frame.dim, degree)


# -- frame construction ---------------------------------------------------------

def test_sl2_frame_layout(frame1):
    assert frame1.names == ["u", "v"]
    assert frame1.raw_pairs == [(1, 0), (1, 1)]
    i = frame1.positive_roots[0]
    assert frame1.rs.roots[i] == (Fraction(2),)
    assert frame1.rs.coroots[i] == (Fraction(1),)
    assert frame1.weyl.order == 2


def test_sl3_frame_layout(sl3):
    frame = CartanFrame(takiff_extend(sl3, 1))
    assert frame.names == ["u1", "u2", "v1", "v2"]
    assert len(frame.positive_roots) == 3
    assert frame.weyl.order == 6
    for i in frame.positive_roots:
        assert sum(a * h for a, h in zip(frame.rs.roots[i], frame.rs.coroots[i])) == 2


def test_frame_weyl_is_the_diagonal_group(sl3):
    frame = CartanFrame(takiff_extend(sl3, 1))
    elements = frame.weyl.elements
    for w in elements:
        for v in elements:
            assert tuple(tuple(row) for row in mat_mul(w, v)) in elements
    # generators[i] is the diagonal reflection of positive_roots[i]: it negates
    # the coroot's coordinate form on every T-level.
    for i, refl in zip(frame.positive_roots, frame.weyl.generators):
        for level in range(frame.gm.m + 1):
            coeffs = [Fraction(0)] * frame.dim
            coeffs[2 * level:2 * level + 2] = frame.rs.coroots[i]
            form = Polynomial.linear_form(coeffs)
            assert form.substitute(refl) == -form


def test_divisor_and_delta_direction(frame1, frame2):
    root = frame1.positive_roots[0]
    assert frame1.divisor(root) == frame1.parse("v")
    assert frame1.delta_direction(root) == [Fraction(2), Fraction(0)]
    root2 = frame2.positive_roots[0]
    assert frame2.divisor(root2) == frame2.parse("w")
    assert frame2.delta_direction(root2) == [Fraction(2), Fraction(0), Fraction(0)]


def test_delta_direction_matches_the_pairing_on_g_m(sl2, sl3):
    # The frame reads delta(H_alpha (x) T^m) off the form on h; the oracle
    # pairs H_alpha (x) T^m with every generator of g_m.
    frames = [CartanFrame(takiff_extend(g, m)) for g, m in (
        (sl2, 0), (sl2, 1), (sl2, 2), (sl3, 1),
        (_sl3_with_cartan_basis(sl3, [[1, 0], [2, 1]]), 1))]
    for frame in frames:
        for i in range(len(frame.rs.roots)):
            assert frame.delta_direction(i) == coroot_delta(frame, i)


@pytest.mark.parametrize("n,name", [(2, "A1"), (3, "A2"), (4, "A3")])
def test_frame_root_system_is_the_table_system(n, name):
    # sl(n) in its Chevalley basis has A_{n-1}'s roots and coroots in
    # simple-coroot coordinates; from sl3 on, its trace form is the table's
    # form too, so the Dunkl layer on the frame's roots is the table's.
    rs, table = CartanFrame(takiff_extend(make_sl(n), 0)).rs, rootsys.root_system(name)
    assert dict(zip(rs.roots, rs.coroots)) == dict(zip(table.roots, table.coroots))
    if n == 2:
        return
    assert rs.form == table.form
    k = rootsys.MultiplicityAssignment.parse("all=1/2")
    ctx = DunklContext(rs, rootsys.generate_weyl(rs), k)
    reference = make_context(name, "all=1/2")
    for d in range(4):
        assert gram_matrix(ctx, gram_basis(ctx, d, False)) == \
            gram_matrix(reference, gram_basis(reference, d, False))
    for d in range(7):
        assert rootsys.invariant_basis(ctx.weyl, d) == rootsys.invariant_basis(reference.weyl, d)


def test_frame_of_an_abelian_algebra_has_no_roots():
    # gl1: no weights, so W is trivial and every polynomial on h_m lies in
    # the image and in the criterion space.
    g = LieAlgebra(1, ("z",), (({},),), ((Fraction(1),),), (0,))
    frame = CartanFrame(takiff_extend(g, 1))
    assert frame.rs.roots == () and frame.positive_roots == [] and frame.weyl.order == 1
    for d in range(4):
        assert criterion_subspace(frame, d) == image_basis(frame, d)
        assert image_basis(frame, d).dim == d + 1


def test_frame_refuses_a_cartan_that_is_not_maximal(sl3):
    # h1 alone: h2 commutes with it, so weight zero lies outside the Cartan.
    g = LieAlgebra(sl3.dim, sl3.basis_names, sl3.structure, sl3.form, (3,))
    with pytest.raises(ValueError, match="h2 has weight zero outside the Cartan"):
        CartanFrame(takiff_extend(g, 1))


def test_frame_refuses_an_isotropic_weight():
    # The diamond algebra [J, P] = P, [J, Q] = -Q, [P, Q] = T with <J, T> =
    # <P, Q> = 1: on the Cartan (J, T) the weight (1, 0) of P has norm zero.
    structure = [[{} for _ in range(4)] for _ in range(4)]
    for i, j, k, c in ((0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 3, 1)):
        structure[i][j], structure[j][i] = {k: Fraction(c)}, {k: Fraction(-c)}
    form = [[Fraction(i + j == 3) for j in range(4)] for i in range(4)]
    g = LieAlgebra(4, ("J", "P", "Q", "T"), tuple(map(tuple, structure)),
                   tuple(map(tuple, form)), (0, 3))
    with pytest.raises(ValueError, match=r"\(1, 0\) has norm zero"):
        CartanFrame(takiff_extend(g, 1))


# -- restriction ---------------------------------------------------------------------

def test_restrict_spec_examples(sl2, frame1):
    g1 = frame1.gm
    names = list(g1.basis_names)
    assert restrict(frame1, parse("h_1^2 + 4 e_1 f_1", names=names)) == frame1.parse("v^2")
    assert restrict(frame1, parse("2 h h_1 + 4 e f_1 + 4 f e_1", names=names)) == \
        frame1.parse("2 u v")
    assert restrict(frame1, parse("e f + e_1 f_1", names=names)) == Polynomial.zero(2)


def test_restrict_is_ring_homomorphism(frame1):
    g1 = frame1.gm
    names = list(g1.basis_names)
    p = parse("h^2 + 2 e f_1 + h_1", names=names)
    q = parse("h h_1 - f e_1 + 3", names=names)
    assert restrict(frame1, p * q) == restrict(frame1, p) * restrict(frame1, q)


# -- image bases -----------------------------------------------------------------------

def test_image_basis_sl2_m1_degree2(frame1):
    assert image_basis(frame1, 2) == h_span(frame1, ["v^2", "u v"], 2)


def test_image_basis_sl2_m1_degree4(frame1):
    assert image_basis(frame1, 4) == h_span(frame1, ["v^4", "u v^3", "u^2 v^2"], 4)


def test_image_basis_sl2_m2_degree2_paper_generators(frame2):
    expected = h_span(frame2, ["w^2", "v w", "v^2 + 2 u w"], 2)
    assert image_basis(frame2, 2) == expected


def test_image_dimension_equals_invariant_dimension(frame1, frame2):
    for frame in (frame1, frame2):
        for d in range(5):
            assert image_basis(frame, d).dim == invariants_graded(frame.gm, d).dim


def test_image_elements_diagonally_invariant(frame1):
    for d in range(5):
        for b in image_basis(frame1, d).basis:
            for w in frame1.weyl.elements:
                assert b.substitute(w) == b


# -- criterion checks ---------------------------------------------------------------------

def test_criterion_u_squared_fails_divisibility(frame1):
    report = criterion_check(frame1, frame1.parse("u^2"))
    assert report.condition1
    assert not report.condition2
    root, n, remainder = report.condition2_witness
    assert n == 1
    assert remainder == "4 u"
    assert report.in_image == "fail"


def test_criterion_uv_passes(frame1):
    report = criterion_check(frame1, frame1.parse("u v"))
    assert report.condition1 and report.condition2
    assert report.in_image == "pass"


def test_criterion_v_squared_m2_shows_insufficiency(frame2):
    report = criterion_check(frame2, frame2.parse("v^2"))
    assert report.condition1 and report.condition2
    assert report.in_image == "fail"


def test_criterion_zero_polynomial(frame1):
    report = criterion_check(frame1, Polynomial.zero(2))
    assert report.condition1 and report.condition2 and report.in_image == "pass"


def test_criterion_odd_degree_fails_reflection(frame1):
    report = criterion_check(frame1, frame1.parse("u"))
    assert not report.condition1
    assert report.condition1_witness == "(2)"


def test_criterion_membership_bound(frame1):
    report = criterion_check(frame1, frame1.parse("u v"), image_degree_bound=1)
    assert report.in_image == "unknown"


def test_report_consistency_guard():
    with pytest.raises(RestrictionError):
        CriterionReport(polynomial="u", condition1=False, condition1_witness="(2)",
                        condition2=True, condition2_witness=None,
                        in_image="pass", image_degree_bound=8)


def test_frame_roots_and_reports_are_immutable_values(frame1, sl2):
    # Two runs on equal input give equal, equally hashed values; none can be assigned to.
    values = [(frame1.rs, CartanFrame(frame1.gm).rs),
              (criterion_check(frame1, frame1.parse("u")),
               criterion_check(frame1, frame1.parse("u"))),
              (chevalley_graded_check(sl2, 2), chevalley_graded_check(sl2, 2))]
    for value, again in values:
        assert value is not again and value == again and hash(value) == hash(again)
        for attr in ("degree", "label", "polynomial", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
    assert values[1][0] != criterion_check(frame1, frame1.parse("u^2"))


# -- criterion subspaces ---------------------------------------------------------------------

def test_criterion_subspace_sl2_m1(frame1):
    assert criterion_subspace(frame1, 2) == h_span(frame1, ["u v", "v^2"], 2)
    assert criterion_subspace(frame1, 3).dim == 0


def test_criterion_subspace_sl2_m2_degree2(frame2):
    space = criterion_subspace(frame2, 2)
    assert space == h_span(frame2, ["u w", "v^2", "v w", "w^2"], 2)
    assert space.contains(frame2.parse("v^2"))


@pytest.mark.parametrize("algebra,m,max_degree", [("sl2", 1, 6), ("sl2", 2, 6), ("sl3", 1, 4)])
def test_criterion_subspace_matches_polynomial_kernel(request, algebra, m, max_degree):
    # Both conditions as maps on whole polynomials, reflections first, cut
    # down in Fractions from all monomials of the degree: condition 1 by the
    # Fraction power tower (`oracles.tower_substitute`), condition 2 by
    # derivatives and exactalg's division (`oracles.coroot_remainder`).
    frame = CartanFrame(takiff_extend(request.getfixturevalue(algebra), m))
    for d in range(max_degree + 1):
        space = [Polynomial(frame.dim, {mono: 1}) for mono in monomials_of_degree(frame.dim, d)]
        maps = [*(lambda p, s=s: tower_substitute(p, s) - p for s in frame.weyl.generators),
                *(partial(coroot_remainder, frame, i, n)
                  for i in frame.positive_roots for n in range(1, d + 1))]
        assert criterion_subspace(frame, d) == GradedSubspace.from_polynomials(
            polynomial_joint_kernel(space, maps), frame.dim, d)


def test_criterion_and_weyl_kernels_run_in_integers(monkeypatch, frame2, sl3):
    # No polynomial is substituted, added or subtracted, and only ints appear
    # in every monomial image and in every row and vector that the
    # elimination handles.
    def forbidden(*args):
        raise AssertionError("polynomial arithmetic on an integer kernel path")

    values = []
    real_nullspace, real_kernel = linalg.nullspace, linalg.joint_kernel

    def watched_nullspace(rows, ncols):
        kernel = real_nullspace(rows, ncols)
        values.extend(x for row in rows + kernel for x in row.values())
        return kernel

    def watched(linear_map):
        def image(mono):
            out = linear_map(mono)
            values.extend(out.values())
            return out
        return image

    conjugated = close_group(
        [mat_mul(mat_mul([[1, 0], [0, Fraction(1, 3)]], rootsys.root_system("A2").reflection(i)),
                 [[1, 0], [0, 3]]) for i in range(2)], 2)
    for name in ("substitute", "__add__", "__sub__"):
        monkeypatch.setattr(Polynomial, name, forbidden)
    monkeypatch.setattr(linalg, "nullspace", watched_nullspace)
    for module in (restriction, rootsys):
        monkeypatch.setattr(module, "joint_kernel", lambda dim, monos, maps: real_kernel(
            dim, monos, map(watched, maps)))
    frame3 = CartanFrame(takiff_extend(sl3, 1))
    assert [criterion_subspace(frame, d).dim for frame in (frame2, frame3) for d in range(5)] \
        == [1, 0, 4, 0, 9, 1, 0, 2, 2, 3]
    for weyl in (rootsys.generate_weyl(rootsys.root_system("B3")), conjugated):
        assert rootsys.invariant_basis(weyl, 6).dim > 0
    assert len(values) > 1000 and all(type(x) is int for x in values)


def _sl3_with_cartan_basis(sl3, rows):
    """sl3 with its Cartan basis replaced by `rows`, coordinates on (h1, h2)."""
    n, cartan = sl3.dim, sl3.cartan_indices
    change = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c, row in zip(cartan, rows):
        change[c] = [Fraction(0)] * n
        for d, x in zip(cartan, row):
            change[c][d] = Fraction(x)
    back = transpose(mat_inv(change))       # old coordinates -> new coordinates

    def bracket(i, j):
        old = [Fraction(0)] * n
        for a, x in enumerate(change[i]):
            for b, y in enumerate(change[j]):
                for k, c in sl3.structure[a][b].items():
                    old[k] += x * y * c
        return {k: c for k, c in enumerate(mat_vec(back, old)) if c}

    form = mat_mul(mat_mul(change, sl3.form), transpose(change))
    return LieAlgebra(dim=n, basis_names=sl3.basis_names,
                      structure=tuple(tuple(bracket(i, j) for j in range(n)) for i in range(n)),
                      form=tuple(map(tuple, form)), cartan_indices=cartan)


def test_criterion_with_non_unit_leading_divisor_coefficient(sl3):
    # In the Cartan basis (h1, 2 h1 + h2) one coroot has coordinates +-(2, -1),
    # so its divisor leads with 2 and the division scales by 2^|m|.  The
    # criterion still equals the image (m = 1) and the kernel of the
    # remainders that exactalg's division gives from derivatives.
    frame = CartanFrame(takiff_extend(_sl3_with_cartan_basis(sl3, [[1, 0], [2, 1]]), 1))
    leads = [restriction._Divisibility(frame, i, 1).lead for i in frame.positive_roots]
    assert sorted(leads) == [-1, 1, 2]
    for d in range(5):
        space = [Polynomial(frame.dim, {mono: 1}) for mono in monomials_of_degree(frame.dim, d)]
        maps = [*(lambda p, s=s: tower_substitute(p, s) - p for s in frame.weyl.generators),
                *(partial(coroot_remainder, frame, i, n)
                  for i in frame.positive_roots for n in range(1, d + 1))]
        expected = GradedSubspace.from_polynomials(polynomial_joint_kernel(space, maps),
                                                   frame.dim, d)
        assert criterion_subspace(frame, d) == expected == image_basis(frame, d)
        assert expected.dim == [1, 0, 2, 2, 3][d]
        for q in space:
            for i, n, f in restriction._condition2_maps(frame, d):
                assert f(q) == coroot_remainder(frame, i, n, q)


def test_remark_strict_inclusion(frame2):
    image = image_basis(frame2, 2)
    criterion = criterion_subspace(frame2, 2)
    assert criterion.contains_subspace(image)
    assert not image.contains_subspace(criterion)
    assert criterion.dim - image.dim == 1


def test_theorem_base_case_equality_even_degrees(frame1):
    for d in range(0, 9, 2):
        assert image_basis(frame1, d) == criterion_subspace(frame1, d)


def test_necessity_every_image_element_passes(frame1):
    for d in range(9):
        for b in image_basis(frame1, d).basis:
            report = criterion_check(frame1, b, image_degree_bound=0)
            assert report.condition1 and report.condition2


# -- chevalley graded check ----------------------------------------------------------------------

def test_chevalley_sl2(sl2):
    dims = [chevalley_graded_check(sl2, d) for d in range(9)]
    expected = series_coefficients([2], 8)
    for d, rep in enumerate(dims):
        assert rep.dim_invariants == rep.dim_restricted == rep.dim_target == expected[d]
        assert rep.isomorphic


def test_chevalley_sl3_low_degrees(sl3):
    for d in (0, 1, 2, 3):
        rep = chevalley_graded_check(sl3, d)
        assert rep.isomorphic
        assert rep.dim_target == series_coefficients([2, 3], 3)[d]


def test_chevalley_sl4_matches_a3_series():
    expected = series_coefficients([2, 3, 4], 5)
    for d in range(6):
        rep = chevalley_graded_check(make_sl(4), d)
        assert rep.isomorphic
        assert rep.dim_target == expected[d]


def test_chevalley_target_matches_reference_root_system(sl2, sl3):
    """The frame's Weyl group gives the invariant dimensions of the tabulated system."""
    for g, name, top in ((sl2, "A1", 8), (sl3, "A2", 6)):
        weyl = rootsys.generate_weyl(rootsys.root_system(name))
        for d in range(top + 1):
            assert chevalley_graded_check(g, d).dim_target == rootsys.invariant_basis(weyl, d).dim


def test_chevalley_degree_one_trivial(sl2, sl3):
    for g in (sl2, sl3):
        rep = chevalley_graded_check(g, 1)
        assert (rep.dim_invariants, rep.dim_restricted, rep.dim_target) == (0, 0, 0)
