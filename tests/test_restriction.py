import random
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from dunklinv import linalg, restriction, rootsys
from dunklinv.dunkl import DunklContext, gram_basis, gram_matrix, make_context
from dunklinv.exactalg import Polynomial, apply_map, monomials_of_degree, parse
from dunklinv.liealg import LieAlgebra, invariants_graded, make_sl, takiff_extend
from dunklinv.linalg import GradedSubspace, mat_inv, mat_vec
from dunklinv.restriction import (
    CartanFrame,
    RestrictionError,
    chevalley_graded_check,
    criterion_check,
    criterion_maps,
    criterion_subspace,
    image_basis,
    restrict,
)
from oracles import (breadth_first_group, conjugated_a2, coroot_delta, coroot_remainder,
                     intersection, kernel_invariants, mat_mul, polynomial_joint_kernel,
                     rank_one_image, restricted_generator_image, series_coefficients,
                     tower_substitute, transpose)
from test_dunkl import RANK4_SIMPLE_ROOTS


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
    assert len(breadth_first_group(frame1.weyl.generators)) == 2


def test_sl3_frame_layout(sl3):
    frame = CartanFrame(takiff_extend(sl3, 1))
    assert frame.names == ["u1", "u2", "v1", "v2"]
    # Descending lexicographic order is g's basis order, e12, e13, f23.
    assert [frame.label(i) for i in frame.positive_roots] == ["(2, -1)", "(1, 1)", "(1, -2)"]
    assert len(breadth_first_group(frame.weyl.generators)) == 6
    for i in frame.positive_roots:
        assert sum(a * h for a, h in zip(frame.rs.roots[i], frame.rs.coroots[i])) == 2


def test_frame_weyl_is_the_diagonal_group(sl3):
    frame = CartanFrame(takiff_extend(sl3, 1))
    elements = breadth_first_group(frame.weyl.generators)
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
    ctx = DunklContext(rs, k)
    reference = make_context(name, "all=1/2")
    for d in range(4):
        assert gram_matrix(ctx, gram_basis(ctx, d, False)) == \
            gram_matrix(reference, gram_basis(reference, d, False))
    for d in range(7):
        assert rootsys.invariant_basis(ctx.weyl, d) == rootsys.invariant_basis(reference.weyl, d)


def test_frame_of_an_abelian_algebra_has_no_roots():
    # gl1: no weights, so W has no generators and every polynomial on h_m
    # lies in the image and in the criterion space.
    g = LieAlgebra(1, ("z",), (({},),), ((Fraction(1),),), (0,))
    frame = CartanFrame(takiff_extend(g, 1))
    assert frame.rs.roots == () and frame.positive_roots == [] and frame.weyl.generators == ()
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


# -- root frames: paper result 2 from root data alone --------------------------------

@pytest.mark.parametrize("name,algebra,max_m,max_degree",
                         [("A1", "sl2", 3, 8), ("A2", "sl3", 2, 6)], ids=["sl2", "sl3"])
def test_root_frame_of_the_table_system_is_the_lie_frame(request, name, algebra, max_m,
                                                        max_degree):
    # The table's roots and coroots are those of (g, h) (A1's form is half of
    # sl2's trace form, which rescales delta but no kernel), so the frame
    # built from the table alone has g's names, roots and W, the image of the
    # Lie path that restricts g's own generators, and g's criterion spaces.
    g = request.getfixturevalue(algebra)
    for m in range(1, max_m + 1):
        lie, root = CartanFrame(takiff_extend(g, m)), restriction.RootFrame(
            rootsys.root_system(name), m)
        assert (root.names, root.weyl) == (lie.names, lie.weyl)
        assert [root.label(i) for i in root.positive_roots] == \
            [lie.label(i) for i in lie.positive_roots]
        for d in range(max_degree + 1):
            image = image_basis(root, d)
            assert image == image_basis(lie, d) == restricted_generator_image(lie, d), (m, d)
            assert criterion_subspace(root, d) == criterion_subspace(lie, d), (m, d)


_RESULT_2_TOP_DEGREE = {1: 10, 2: 8, 3: 6}      # at m = 1, by rank


@pytest.mark.parametrize("name", rootsys.SUPPORTED)
def test_image_is_the_criterion_at_m1_on_every_supported_type(name):
    # Paper result 2: at m = 1 the two conditions cut out the restriction
    # image exactly, on every Weyl type, read from its roots alone.
    rs = rootsys.root_system(name)
    frame = restriction.RootFrame(rs, 1)
    for d in range(_RESULT_2_TOP_DEGREE[rs.rank] + 1):
        assert image_basis(frame, d) == criterion_subspace(frame, d), d


# (dim image, dim criterion) at m = 2 for d = 0..6: the criterion is larger from d = 2 on.
_M2_GAPS = {
    "A2": [(1, 1), (0, 0), (3, 4), (3, 5), (6, 10), (9, 18), (16, 32)],
    "B2": [(1, 1), (0, 0), (3, 4), (0, 0), (9, 16), (0, 0), (19, 41)],
    "G2": [(1, 1), (0, 0), (3, 4), (0, 0), (6, 10), (0, 0), (13, 28)],
}


@pytest.mark.parametrize("name", rootsys.SUPPORTED)
def test_image_lies_in_the_criterion_at_m2_on_every_supported_type(name):
    # At m = 2 the conditions stay necessary but no longer suffice.
    frame = restriction.RootFrame(rootsys.root_system(name), 2)
    dims = []
    for d in range(len(_M2_GAPS.get(name, range(5)))):
        image, criterion = image_basis(frame, d), criterion_subspace(frame, d)
        assert criterion.contains_subspace(image), d
        dims.append((image.dim, criterion.dim))
    assert dims == _M2_GAPS.get(name, dims)


# dim S^d(h)^W for d = 0..8: the t^d coefficients of prod_i (1 - t^(d_i))^-1.
_M0_DIMS = {
    "A1": [1, 0, 1, 0, 1, 0, 1, 0, 1],
    "A2": [1, 0, 1, 1, 1, 1, 2, 1, 2],
    "G2": [1, 0, 1, 0, 1, 0, 2, 0, 2],
    "B2": [1, 0, 1, 0, 2, 0, 2, 0, 3],
    "C2": [1, 0, 1, 0, 2, 0, 2, 0, 3],
}


@pytest.mark.parametrize("name", rootsys.SUPPORTED)
def test_root_image_at_m0_is_the_weyl_invariants(name):
    # At m = 0 the image polarizes nothing: the products of W's basic
    # invariants span S^d(h)^W, read from the roots alone, with no Lie algebra.
    frame = restriction.RootFrame(rootsys.root_system(name), 0)
    dims = []
    for d in range(9):
        image = image_basis(frame, d)
        assert image == rootsys.invariant_basis(frame.weyl, d), d
        dims.append(image.dim)
    assert dims == _M0_DIMS.get(name, dims)


def test_root_frame_at_m0_has_an_image():
    # A root frame holds no g, and the m = 0 image needs none.
    assert image_basis(restriction.RootFrame(rootsys.root_system("A2"), 0), 2).dim == 1


def test_root_frame_refuses_a_level_past_the_names():
    with pytest.raises(ValueError, match="within 0..3"):
        restriction.RootFrame(rootsys.root_system("A1"), 4)


@pytest.mark.parametrize("name,m", [("A1", 3), ("A2", 2), ("G2", 1), ("B3", 0)])
def test_root_frame_holds_w_on_h_and_lifts_it_block_by_block(name, m):
    # base_weyl is W on h as the frame acts on level 0, generator i the
    # transposed reflection of positive_roots[i]; weyl repeats each generator
    # on every T-level and is W on h itself at m = 0.
    rs = rootsys.root_system(name)
    frame = restriction.RootFrame(rs, m)
    r = rs.rank
    assert frame.base_weyl.rank == r and frame.weyl.rank == frame.dim == r * (m + 1)
    assert frame.base_weyl.generators == tuple(
        tuple(map(tuple, transpose(rs.reflection(i)))) for i in frame.positive_roots)
    for base, lifted in zip(frame.base_weyl.generators, frame.weyl.generators, strict=True):
        assert lifted == tuple(tuple(base[i % r][j % r] if i // r == j // r else 0
                                     for j in range(frame.dim)) for i in range(frame.dim))
    assert (frame.weyl == frame.base_weyl) == (m == 0)


def test_image_basis_builds_no_frame(monkeypatch, sl3):
    # W on h is the frame's own base_weyl, at every degree and level; the
    # Chevalley check reads it too.
    frames = [restriction.RootFrame(rootsys.root_system(name), m)
              for name, m in [("A2", 0), ("B2", 1), ("G2", 2)]]
    lie = CartanFrame(sl3)
    built = []
    real = restriction.RootFrame.__init__
    monkeypatch.setattr(restriction.RootFrame, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    for frame in frames:
        for d in range(5):
            image_basis(frame, d)
    for d in range(4):
        chevalley_graded_check(lie, d)
    assert built == []
    restriction.RootFrame(rootsys.root_system("A1"), 0)        # the count sees a frame
    assert len(built) == 1


def test_the_criterion_refuses_m0(sl3):
    # At m = 0 the two conditions mean nothing: the degree-2 image element
    # u1^2 + u1 u2 + u2^2 of A2 would fail them.  Root and Lie frames alike
    # refuse, in criterion_maps, before any map is built.
    for frame in (restriction.RootFrame(rootsys.root_system("A2"), 0), CartanFrame(sl3)):
        p = frame.parse("u1^2 + u1 u2 + u2^2")
        assert image_basis(frame, 2).contains(p)
        for d in range(5):
            with pytest.raises(ValueError, match="the criterion is meaningless at m = 0"):
                criterion_subspace(frame, d)
            with pytest.raises(ValueError, match="meaningless at m = 0"):
                next(criterion_maps(frame, d))
        for q in (p, frame.parse("u1"), Polynomial(frame.dim)):
            with pytest.raises(ValueError, match="meaningless at m = 0"):
                criterion_check(frame, q)


# -- root by root: the image from rank-one images ----------------------------------
#
# Observation (ROADMAP item 12; the proof sketch there is not written out):
#
#     Image_W(m, d) = S^d(h_m)^W  ∩  ⋂_alpha Image_<r_alpha>(m, d),
#
# alpha running over one positive root per W-orbit, and Image_<r_alpha> the
# same construction as the image for the two-element group <r_alpha> on h
# (`oracles.rank_one_image`).  A1 at m = 4 needs level names past z.

_ROOT_BY_ROOT = [("A1", 2, 8), ("A1", 3, 8),
                 ("A2", 2, 6), ("B2", 2, 6), ("C2", 2, 6), ("G2", 2, 6),
                 ("A3", 2, 4), ("B3", 2, 4),
                 ("A2", 3, 4), ("B2", 3, 4), ("G2", 3, 4),
                 ("B4", 2, 4), ("F4", 2, 4)]


def _system(name: str) -> rootsys.RootSystem:
    if name in RANK4_SIMPLE_ROOTS:
        return rootsys.RootSystem(name, 4, RANK4_SIMPLE_ROOTS[name], linalg.identity(4))
    return rootsys.root_system(name)


def _one_root_per_orbit(frame) -> list[int]:
    """For each orbit label, the place k in positive_roots of its first root."""
    first: dict[str, int] = {}
    for k, i in enumerate(frame.positive_roots):
        first.setdefault(frame.rs.orbit_labels[i], k)
    return list(first.values())


@pytest.mark.parametrize("name,m,top", _ROOT_BY_ROOT,
                         ids=[f"{name}-m{m}" for name, m, _ in _ROOT_BY_ROOT])
def test_image_is_cut_out_root_by_root(name, m, top):
    frame = restriction.RootFrame(_system(name), m)
    orbits = _one_root_per_orbit(frame)
    assert len(orbits) == len(set(frame.rs.orbit_labels))
    for d in range(top + 1):
        cut = rootsys.invariant_basis(frame.weyl, d)
        for k in orbits:
            cut = intersection(cut, rank_one_image(frame, k, d))
        assert image_basis(frame, d) == cut, d


def test_the_weyl_invariants_alone_are_larger_than_the_image():
    # The rank-one images do cut: on B2 at m = 2 in degree 2, S^2(h_2)^W has
    # dimension 6 and the image 3.
    frame = restriction.RootFrame(rootsys.root_system("B2"), 2)
    invariants = rootsys.invariant_basis(frame.weyl, 2)
    image = image_basis(frame, 2)
    assert (invariants.dim, image.dim) == (6, 3)
    assert invariants.contains_subspace(image)


@pytest.mark.parametrize("name,top", [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 4), ("B3", 4)])
def test_rank_one_image_is_its_roots_criterion_at_m1(name, top):
    # At m = 1 the rank-one image of alpha is the joint kernel of alpha's own
    # criterion maps: condition 1 for r_alpha and condition 2 for alpha,
    # n = 1..d.  So the paper's criterion is the root-by-root cut at m = 1.
    frame = restriction.RootFrame(rootsys.root_system(name), 1)
    for d in range(top + 1):
        maps = list(criterion_maps(frame, d))
        for k, i in enumerate(frame.positive_roots):
            own = [image for _, root, _, image, _ in maps if root == i]
            assert len(own) == 1 + d
            assert rank_one_image(frame, k, d) == linalg.joint_kernel(frame.dim, d, own), (i, d)


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
            for w in breadth_first_group(frame1.weyl.generators):
                assert b.substitute(w) == b


# Raïs-Tauvel: for m >= 1, S(g_m)^{g_m} is the polynomial ring on the m + 1
# top polarizations of each basic invariant of g.  The kernel oracle solves
# for the invariants instead, on every weight-zero monomial of S^d(g_m).
@pytest.mark.parametrize("n,m,max_degree", [(2, 2, 8), (2, 3, 6), (3, 1, 6), (3, 2, 4),
                                            (4, 1, 4)],
                         ids=["sl2-m2", "sl2-m3", "sl3-m1", "sl3-m2", "sl4-m1"])
def test_polarized_bases_match_kernel_oracle(n, m, max_degree):
    frame = CartanFrame(takiff_extend(make_sl(n), m))
    for d in range(max_degree + 1):
        invariants = kernel_invariants(frame.gm, d)
        assert invariants_graded(frame.gm, d, work_bound=10 ** 6) == invariants
        assert image_basis(frame, d) == GradedSubspace.from_polynomials(
            [restrict(frame, b) for b in invariants.basis], frame.dim, d)


@pytest.mark.parametrize("algebra,degrees,max_m,max_degree", [
    ("sl2", [2], 3, 8), ("sl3", [2, 3], 2, 6)], ids=["sl2", "sl3"])
def test_image_dimensions_follow_the_hilbert_series(request, algebra, degrees, max_m,
                                                    max_degree):
    # dim_image at degree d is the t^d coefficient of prod_i (1 - t^(d_i))^-(m + 1).
    g = request.getfixturevalue(algebra)
    for m in range(max_m + 1):
        frame = CartanFrame(takiff_extend(g, m))
        assert [image_basis(frame, d).dim for d in range(max_degree + 1)] == \
            series_coefficients(degrees * (m + 1), max_degree)


def test_dependent_restricted_generators_raise(monkeypatch, sl2):
    # A generator listed twice makes the products dependent: the image then
    # has fewer dimensions than generator monomials.
    frame = CartanFrame(takiff_extend(sl2, 1))
    twice = [Polynomial(1, {(2,): 1})] * 2
    monkeypatch.setattr(restriction, "basic_invariants", lambda invariants, rank, degree: twice)
    assert image_basis(frame, 0).dim == 1
    with pytest.raises(RestrictionError, match="injective"):
        image_basis(frame, 2)


def test_chevalley_check_refuses_a_restriction_that_loses_invariants(monkeypatch, sl3):
    # The check reports the image's dimension as the invariants'; that holds
    # only because the image refuses to be smaller than the invariants it
    # restricts.
    frame = CartanFrame(sl3)
    monkeypatch.setattr(restriction, "restrict", lambda frame, p: Polynomial.zero(frame.dim))
    with pytest.raises(RestrictionError, match="injective"):
        chevalley_graded_check(frame, 2)


# -- criterion checks ---------------------------------------------------------------------

def test_criterion_u_squared_fails_divisibility(frame1):
    report = criterion_check(frame1, frame1.parse("u^2"))
    assert report.condition1_witness is None
    assert report.condition2_witness is not None
    root, n, remainder = report.condition2_witness
    assert n == 1
    assert remainder == "4 u"
    assert report.in_image == "fail"


def test_criterion_uv_passes(frame1):
    report = criterion_check(frame1, frame1.parse("u v"))
    assert report.condition1_witness is None and report.condition2_witness is None
    assert report.in_image == "pass"


def test_criterion_v_squared_m2_shows_insufficiency(frame2):
    report = criterion_check(frame2, frame2.parse("v^2"))
    assert report.condition1_witness is None and report.condition2_witness is None
    assert report.in_image == "fail"


def test_criterion_zero_polynomial(frame1):
    report = criterion_check(frame1, Polynomial.zero(2))
    assert report.condition1_witness is None and report.condition2_witness is None
    assert report.in_image == "pass"


def test_criterion_odd_degree_fails_reflection(frame1):
    report = criterion_check(frame1, frame1.parse("u"))
    assert report.condition1_witness is not None
    assert report.condition1_witness == "(2)"


def test_criterion_membership_bound(frame1):
    report = criterion_check(frame1, frame1.parse("u v"), image_degree_bound=1)
    assert report.in_image == "unknown"


def test_report_consistency_guard(monkeypatch, frame1):
    # u is odd, so it fails condition 1; an image that contains it is a bug.
    monkeypatch.setattr(restriction, "image_basis",
                        lambda frame, d, work_bound: h_span(frame, ["u"], 1))
    with pytest.raises(RestrictionError, match="violating the necessary conditions"):
        criterion_check(frame1, frame1.parse("u"))


def test_frame_roots_and_reports_are_immutable_values(frame1, sl2):
    # Two runs on equal input give equal, equally hashed values; none can be assigned to.
    values = [(frame1.rs, CartanFrame(frame1.gm).rs),
              (criterion_check(frame1, frame1.parse("u")),
               criterion_check(frame1, frame1.parse("u"))),
              (chevalley_graded_check(CartanFrame(sl2), 2),
               chevalley_graded_check(CartanFrame(sl2), 2))]
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


# Paper result 2 for sl2, at every m the CLI builds: with x_s the level-s
# coordinate of h_m (u, v, w, z), the criterion space is the W-even part of
# C[x_1, ..., x_m, x_0 x_m].  That ring is spanned by the monomials whose power
# of x_0 is at most that of x_m; W = {1, -1} keeps those of even degree.  Its
# Hilbert series is sum_j C(m, 2j) t^(2j) / (1 - t^2)^(m + 1).
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl2_criterion_space_is_the_even_part_of_a_monomial_ring(sl2, m):
    frame = CartanFrame(takiff_extend(sl2, m))
    dims = []
    for d in range(9):
        ring = [Polynomial(frame.dim, {e: 1}) for e in monomials_of_degree(frame.dim, d)
                if d % 2 == 0 and e[0] <= e[m]]
        space = criterion_subspace(frame, d)
        assert space == GradedSubspace.from_polynomials(ring, frame.dim, d), (m, d)
        dims.append(space.dim)
    assert dims == [sum(comb(m, 2 * j) * comb(d // 2 - j + m, m) for j in range(d // 2 + 1))
                    if d % 2 == 0 else 0 for d in range(9)]
    if m == 3:
        assert dims[::2] == [1, 7, 22, 50, 95]


@pytest.mark.parametrize("algebra,m,max_degree", [("sl2", 2, 6), ("sl2", 3, 4), ("sl3", 1, 4)])
def test_criterion_space_is_closed_under_products(request, algebra, m, max_degree):
    # Reflections are ring maps, and delta^n obeys Leibniz: delta^n (pq) is a
    # sum of delta^k p delta^(n-k) q, which h^k h^(n-k) divides.
    frame = CartanFrame(takiff_extend(request.getfixturevalue(algebra), m))
    spaces = [criterion_subspace(frame, d) for d in range(max_degree + 1)]
    for d1 in range(1, max_degree + 1):
        for d2 in range(d1, max_degree + 1 - d1):
            for p in spaces[d1].basis:
                for q in spaces[d2].basis:
                    assert spaces[d1 + d2].contains(p * q), (d1, d2)


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

    conjugated = rootsys.WeylGroup(2, conjugated_a2())
    for name in ("substitute", "__add__", "__sub__"):
        monkeypatch.setattr(Polynomial, name, forbidden)
    monkeypatch.setattr(linalg, "nullspace", watched_nullspace)
    for module in (restriction, rootsys):
        monkeypatch.setattr(module, "joint_kernel", lambda dim, degree, maps: real_kernel(
            dim, degree, map(watched, maps)))
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
    # remainders that exactalg's division gives from derivatives, and each
    # criterion map applies to the oracle's value.
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
        maps = list(criterion_maps(frame, d))
        assert [row[:3] for row in maps] == (
            [(1, i, 0) for i in frame.positive_roots]
            + [(2, i, n) for i in frame.positive_roots for n in range(1, d + 1)])
        reflections = dict(zip(frame.positive_roots, frame.weyl.generators))
        for q in space:
            for condition, i, n, image, den in maps:
                got = apply_map(q, image, den)
                if condition == 2:
                    assert got == coroot_remainder(frame, i, n, q)
                else:
                    assert got == tower_substitute(q, reflections[i]) - q


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
            assert report.condition1_witness is None and report.condition2_witness is None


@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1)])
def test_criterion_check_agrees_with_criterion_subspace(n, m):
    # Both read `criterion_maps`: a homogeneous p of degree d passes both
    # conditions exactly when the degree-d criterion space contains it.  At
    # m = 2 the conditions are not sufficient, but the two must still agree.
    frame = CartanFrame(takiff_extend(make_sl(n), m))
    rng = random.Random(f"agree {n} {m}")
    for d in range(5):
        space = criterion_subspace(frame, d)
        monomials = [Polynomial(frame.dim, {mono: 1})
                     for mono in monomials_of_degree(frame.dim, d)]
        combinations = [sum((b * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                             for b in pool), Polynomial(frame.dim))
                        for pool in (space.basis, monomials) for _ in range(4)]
        for p in [*space.basis, *monomials, *filter(None, combinations)]:
            report = criterion_check(frame, p, image_degree_bound=0)
            passes = report.condition1_witness is None and report.condition2_witness is None
            assert passes == space.contains(p), \
                (d, frame.render(p))


# -- chevalley graded check ----------------------------------------------------------------------

def test_chevalley_sl2(sl2):
    frame = CartanFrame(sl2)
    sides = [chevalley_graded_check(frame, d) for d in range(9)]
    expected = series_coefficients([2], 8)
    for d, (image, target) in enumerate(sides):
        assert image.dim == target.dim == expected[d]
        assert image == target


@pytest.mark.parametrize("algebra,top", [("sl2", 12), ("sl3", 9)])
def test_chevalley_image_is_the_weyl_invariants_as_canonical_bases(request, algebra, top):
    # The Lie side: g's own invariants, restricted, not the root image, which
    # is W's invariants by construction.
    frame = CartanFrame(request.getfixturevalue(algebra))
    for d in range(top + 1):
        assert chevalley_graded_check(frame, d)[0] == rootsys.invariant_basis(frame.weyl, d), d


def test_chevalley_sl3_low_degrees(sl3):
    frame = CartanFrame(sl3)
    for d in (0, 1, 2, 3):
        image, target = chevalley_graded_check(frame, d)
        assert image == target
        assert target.dim == series_coefficients([2, 3], 3)[d]


def test_chevalley_sl4_matches_a3_series():
    expected = series_coefficients([2, 3, 4], 5)
    frame = CartanFrame(make_sl(4))
    for d in range(6):
        image, target = chevalley_graded_check(frame, d)
        assert image == target
        assert target.dim == expected[d]


def test_chevalley_target_matches_reference_root_system(sl2, sl3):
    """The frame's Weyl group gives the invariant dimensions of the tabulated system."""
    for g, name, top in ((sl2, "A1", 8), (sl3, "A2", 6)):
        weyl, frame = rootsys.generate_weyl(rootsys.root_system(name)), CartanFrame(g)
        for d in range(top + 1):
            assert (chevalley_graded_check(frame, d)[1].dim
                    == rootsys.invariant_basis(weyl, d).dim)


def test_chevalley_degree_one_trivial(sl2, sl3):
    for g in (sl2, sl3):
        image, target = chevalley_graded_check(CartanFrame(g), 1)
        assert (image.dim, target.dim) == (0, 0)
