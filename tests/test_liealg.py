import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from dunklinv import liealg, linalg
from dunklinv.exactalg import Polynomial, WorkBoundExceeded, monomials_of_degree, parse
from dunklinv.liealg import (
    LieAlgebra,
    adjoint_derivation,
    basic_invariants,
    derivation_generators,
    invariants_graded,
    make_sl,
    matrix_algebra,
    polarizations,
    takiff_extend,
)
from dunklinv.linalg import GradedSubspace
from oracles import (bracket_derivation, delta_direction, kernel_invariants,
                     polynomial_joint_kernel, seeded_polynomials, series_coefficients,
                     kronecker_takiff, sl_structure, variable)


def gm_parse(gm, text):
    return parse(text, names=list(gm.basis_names))


# -- construction -------------------------------------------------------------

def test_sl2_structure(sl2):
    e, h, f = 0, 1, 2
    assert sl2.basis_names == ("e", "h", "f")
    assert sl2.structure[h][e] == {e: 2}
    assert sl2.structure[h][f] == {f: -2}
    assert sl2.structure[e][f] == {h: 1}
    assert sl2.cartan_indices == (1,)


def test_sl2_trace_form(sl2):
    assert sl2.form[1][1] == 2      # (h, h)
    assert sl2.form[0][2] == 1      # (e, f)
    assert sl2.form[1][0] == 0      # (h, e)


def test_sl3_shape(sl3):
    assert sl3.dim == 8
    assert len(sl3.cartan_indices) == 2
    assert sl3.basis_names == ("e12", "e13", "e23", "h1", "h2", "f12", "f13", "f23")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_make_sl_matches_hand_decoded_commutators(n):
    structure, form = sl_structure(n)
    g = make_sl(n)
    assert g.structure == structure
    assert g.form == form


@pytest.mark.parametrize("n", [1, 0])
def test_make_sl_rejects_n_below_two(n):
    with pytest.raises(ValueError):
        make_sl(n)


def test_matrix_algebra_refuses_a_span_that_is_not_a_lie_algebra():
    e, f = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="not closed"):
        matrix_algebra([e, f], ("e", "f"), ())         # [e, f] = h is missing
    with pytest.raises(ValueError, match="singular"):
        matrix_algebra([e, e], ("e", "e'"), ())
    with pytest.raises(TypeError):
        matrix_algebra([[[0.5]]], ("x",), ())


def test_validation_rejects_bad_structure():
    # antisymmetry violated: [x,y] = y but [y,x] = 0
    with pytest.raises(ValueError):
        LieAlgebra(dim=2, basis_names=("x", "y"),
                   structure=(({}, {1: Fraction(1)}), ({}, {})),
                   form=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                   cartan_indices=())


def _sl2_data(sl2, bracket=None, form=None):
    structure = [list(row) for row in sl2.structure]
    for (i, j), value in (bracket or {}).items():
        structure[i][j] = value
    return dict(dim=3, basis_names=sl2.basis_names,
                structure=tuple(tuple(row) for row in structure),
                form=form or sl2.form, cartan_indices=sl2.cartan_indices)


ZERO3 = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
TWISTED_FORM = ((Fraction(0), Fraction(0), Fraction(2)),   # <e, f> = <h, h>: not a trace form
                (Fraction(0), Fraction(2), Fraction(0)),
                (Fraction(2), Fraction(0), Fraction(0)))


@pytest.mark.parametrize("bracket,form,message", [
    ({(0, 2): {1: Fraction(1)}, (2, 0): {1: Fraction(1)}}, None, "antisymmetric"),
    ({(1, 0): {0: Fraction(3)}, (0, 1): {0: Fraction(-3)}}, None, "Jacobi"),
    (None, TWISTED_FORM, "not invariant"),
    (None, ZERO3, "degenerate"),
    ({(0, 1): {7: Fraction(1)}, (1, 0): {7: Fraction(-1)}}, None,
     r"structure entry \[0\]\[1\] names basis index 7, outside range\(3\)"),
], ids=["antisymmetry", "jacobi", "invariance", "nondegeneracy", "bracket-index"])
def test_validation_rejects_each_broken_axiom(sl2, bracket, form, message):
    LieAlgebra(**_sl2_data(sl2))                      # the unmodified data is accepted
    with pytest.raises(ValueError, match=message):
        LieAlgebra(**_sl2_data(sl2, bracket, form))


@pytest.mark.parametrize("key,shown", [(1.0, "1.0"), ("1", "'1'"), (True, "True")],
                         ids=["float", "str", "bool"])
def test_validation_refuses_a_bracket_key_that_is_not_an_int(sl2, key, shown):
    # Each passes `in range(3)` or names index 1 in text; the message shows it as given.
    bracket = {(0, 2): {key: Fraction(1)}, (2, 0): {1: Fraction(-1)}}
    with pytest.raises(ValueError, match=rf"\[0\]\[2\] names basis index {shown}, outside"):
        LieAlgebra(**_sl2_data(sl2, bracket))


@pytest.mark.parametrize("bracket,form", [
    (None, ((Fraction(1), 0, 0), (0, 1.5, 0), (0, 0, 1))),
    ({(0, 2): {1: 1.0}, (2, 0): {1: -1.0}}, None),
    ({(0, 2): [0, 1, 0], (2, 0): [0, -1, 0]}, None),
], ids=["float-in-form", "float-in-bracket", "bracket-as-list"])
def test_validation_rejects_an_entry_of_the_wrong_type(sl2, bracket, form):
    # Each entry is read through `exactalg.rational`, as everywhere else, and
    # a bracket must map basis indices to coefficients.
    with pytest.raises(TypeError):
        LieAlgebra(**_sl2_data(sl2, bracket, form))
    exact = LieAlgebra(**_sl2_data(sl2, {(0, 2): {1: "1"}, (2, 0): {1: -1}},
                                   tuple(tuple(map(int, row)) for row in sl2.form)))
    assert exact.structure == sl2.structure and exact.form == sl2.form


@pytest.mark.parametrize("change,message", [
    ({"dim": 2}, "basis_names has 3 entries, not dim = 2"),
    ({"dim": 4}, "basis_names has 3 entries, not dim = 4"),
    ({"structure": lambda s: s[:2]}, "structure has 2 entries, not dim = 3"),
    ({"structure": lambda s: (s[0], s[1][:2], s[2])}, "structure row 1 has 2 entries"),
    ({"form": lambda f: f[:2]}, "form has 2 entries, not dim = 3"),
    ({"form": lambda f: (f[0], f[1], f[2] + (Fraction(0),))}, "form row 2 has 4 entries"),
], ids=["dim-2", "dim-4", "structure", "structure-row", "form", "form-row"])
def test_validation_rejects_a_table_of_the_wrong_shape(sl2, change, message):
    # With dim = 2 the sl2 tables were once accepted, and the invariants then
    # indexed past them; with dim = 4 the Jacobi check did.
    data = _sl2_data(sl2)
    data.update({key: value(data[key]) if callable(value) else value
                 for key, value in change.items()})
    with pytest.raises(ValueError, match=message):
        LieAlgebra(**data)


@pytest.mark.parametrize("z_norm,accepted", [(1, True), (0, False)])
def test_validation_rejects_a_nonzero_degenerate_form(sl2, z_norm, accepted):
    # sl2 + a central line z, with the trace form of sl2 and <z, z> = z_norm:
    # invariant either way, and degenerate (though nonzero) when z_norm = 0.
    data = dict(
        dim=4, basis_names=sl2.basis_names + ("z",), cartan_indices=sl2.cartan_indices,
        structure=tuple(tuple(sl2.structure[i][j] if max(i, j) < 3 else {} for j in range(4))
                        for i in range(4)),
        form=tuple(tuple(sl2.form[i][j] if max(i, j) < 3 else Fraction(z_norm * (i == j))
                         for j in range(4)) for i in range(4)))
    if accepted:
        assert LieAlgebra(**data).dim == 4
    else:
        with pytest.raises(ValueError, match="degenerate"):
            LieAlgebra(**data)


def _rescaled_sl2(sl2, bracket=None):
    """sl2 on the basis (e/2, h, f): [e/2, f] = h/2 and <e/2, f> = 1/2."""
    scale = (Fraction(1, 2), Fraction(1), Fraction(1))
    structure = [[{k: scale[i] * scale[j] / scale[k] * c for k, c in sl2.structure[i][j].items()}
                  for j in range(3)] for i in range(3)]
    for (i, j), value in (bracket or {}).items():
        structure[i][j] = value
    form = tuple(tuple(scale[i] * scale[j] * sl2.form[i][j] for j in range(3)) for i in range(3))
    return LieAlgebra(dim=3, basis_names=("X", "h", "f"),
                      structure=tuple(tuple(row) for row in structure),
                      form=form, cartan_indices=sl2.cartan_indices)


def test_rescaled_basis_scales_the_bracket_table(sl2):
    g = _rescaled_sl2(sl2)
    assert g.structure[0][2] == {1: Fraction(1, 2)}
    for m, expected in ((1, [1, 0, 2, 0, 3]), (2, [1, 0, 3, 0, 6])):
        gm = takiff_extend(g, m)
        assert gm._den == 2
        assert [invariants_graded(gm, d).dim for d in range(5)] == expected
        assert [invariants_graded(takiff_extend(sl2, m), d).dim for d in range(5)] == expected
        for b in invariants_graded(gm, 4).basis:
            assert all(not bracket_derivation(gm, x, b) for x in range(gm.dim))
    g0 = takiff_extend(g, 0)
    f = variable(3, 2)
    assert adjoint_derivation(g0, 0, f) == variable(3, 1) * Fraction(1, 2)
    # [h, f] = -3f/2 keeps antisymmetry but breaks Jacobi on (h, X, f).
    broken = {(1, 2): {2: Fraction(-3, 2)}, (2, 1): {2: Fraction(3, 2)}}
    with pytest.raises(ValueError, match="Jacobi"):
        _rescaled_sl2(sl2, broken)
    g1 = takiff_extend(g, 1)
    structure = [list(row) for row in g1.structure]
    structure[1][5] = {5: Fraction(-3, 2)}
    structure[5][1] = {5: Fraction(3, 2)}
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(g1.dim, g1.basis_names, tuple(map(tuple, structure)), g1.form,
                   g1.cartan_indices)


@pytest.mark.parametrize("n,m,pair,image,triple", [
    (2, 1, (1, 5), 5, (0, 1, 5)),
    (3, 2, (1, 5), 5, (0, 1, 5)),
    (3, 2, (0, 12), 12, (0, 1, 12)),
    (3, 2, (3, 20), 7, (0, 5, 20)),
])
def test_jacobi_names_the_first_failing_triple(n, m, pair, image, triple):
    # Jacobi runs once per sorted triple i < j < k; antisymmetry covers every
    # other ordering and repeated indices.  The first failing sorted triple is
    # the first failing ordered one, which the message names.
    gm = takiff_extend(make_sl(n), m)
    structure = [list(row) for row in gm.structure]
    a, b = pair
    structure[a][b], structure[b][a] = {image: Fraction(-3, 2)}, {image: Fraction(3, 2)}
    with pytest.raises(ValueError, match=re.escape(f"fails on basis triple {triple}")):
        LieAlgebra(gm.dim, gm.basis_names, tuple(map(tuple, structure)), gm.form,
                   gm.cartan_indices)


def test_cartan_weight(sl2, sl3):
    assert [sl2.cartan_weight(j) for j in range(3)] == [(2,), (0,), (-2,)]
    # e12 has weight alpha1 = (2, -1) under (h1, h2); f13 has -(alpha1 + alpha2)
    assert sl3.cartan_weight(0) == (2, -1)
    assert sl3.cartan_weight(6) == (-1, -1)
    e_and_h = LieAlgebra(**dict(_sl2_data(sl2), cartan_indices=(0, 1)))
    with pytest.raises(ValueError, match="not abelian"):
        e_and_h.cartan_weight(0)
    e_only = LieAlgebra(**dict(_sl2_data(sl2), cartan_indices=(0,)))
    with pytest.raises(ValueError, match="weight basis"):
        e_only.cartan_weight(1)


# -- takiff extension ----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_every_cli_takiff_algebra_passes_validation(n):
    # g_m is built without `_validate`, trusting g; the axioms still hold
    # on every g_m a CLI row can build.
    g = make_sl(n)
    for m in range(4):
        gm = takiff_extend(g, m)
        assert (gm.base, gm.m) == (g, m)
        gm._validate()


def test_takiff_extend_trusts_the_validated_base(monkeypatch):
    calls = []
    validate = LieAlgebra._validate
    monkeypatch.setattr(LieAlgebra, "_validate", lambda self: calls.append(self) or validate(self))
    g = make_sl(3)
    assert calls == [g]
    for m in (1, 2, 3):
        assert takiff_extend(g, m).base is g
    assert calls == [g]
    # A table given by hand is still checked, even one copied from a g_m.
    g2 = takiff_extend(g, 2)
    copy = LieAlgebra(g2.dim, g2.basis_names, g2.structure, g2.form, g2.cartan_indices)
    assert calls == [g, copy] and copy.base is copy


def test_m0_is_the_base_algebra(sl2):
    g0 = takiff_extend(sl2, 0)
    assert g0 is sl2 and (g0.base, g0.m) == (sl2, 0)
    assert g0.dim == 3
    for i in range(3):
        for j in range(3):
            assert g0.structure[i][j] == sl2.structure[i][j]
            assert g0.form[i][j] == sl2.form[i][j]


def test_bracket_truncation(sl2):
    g1 = takiff_extend(sl2, 1)
    e1 = g1.flat(0, 1)
    f1 = g1.flat(2, 1)
    assert g1.structure[e1][f1] == {}
    assert g1.structure[g1.flat(0, 0)][f1] == {g1.flat(1, 1): Fraction(1)}


def test_takiff_pairing_values(sl2):
    g1 = takiff_extend(sl2, 1)
    h = g1.flat(1, 0)
    h1 = g1.flat(1, 1)
    assert g1.form[h][h1] == 2
    assert g1.form[h][h] == 0
    assert g1.form[g1.flat(0, 0)][g1.flat(2, 1)] == 1      # <e, f (x) T>


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_takiff_extension_matches_kronecker_matrices(n, m):
    # The truncated bracket against commutators of X (x) N^s, N the nilpotent
    # shift, and the form against its definition: <X, Y> at s + t = m, else 0.
    g = make_sl(n)
    gm = takiff_extend(g, m)
    structure, form = kronecker_takiff(n, m)
    assert gm.structure == structure
    assert gm.form == form
    for x in range(gm.dim):
        for y in range(gm.dim):
            (s, i), (t, j) = divmod(x, g.dim), divmod(y, g.dim)
            assert gm.form[x][y] == (g.form[i][j] if s + t == m else 0)


def test_takiff_bound(sl2):
    with pytest.raises(ValueError):
        takiff_extend(sl2, 4)


def test_basis_names_suffix(sl2):
    g2 = takiff_extend(sl2, 2)
    assert g2.basis_names == ("e", "h", "f", "e_1", "h_1", "f_1", "e_2", "h_2", "f_2")


# -- adjoint derivation -----------------------------------------------------------

def test_derivation_kills_constants(sl2):
    g1 = takiff_extend(sl2, 1)
    c = Polynomial.constant(g1.dim, 7)
    for x in range(g1.dim):
        assert adjoint_derivation(g1, x, c) == Polynomial.zero(g1.dim)


def test_derivation_reads_back_bracket(sl2):
    g0 = takiff_extend(sl2, 0)
    e = variable(3, 0)
    assert adjoint_derivation(g0, 1, e) == e * 2       # [h, e] = 2e


def test_casimir_is_not_takiff_invariant(sl2):
    g1 = takiff_extend(sl2, 1)
    casimir = gm_parse(g1, "h^2 + 4 e f")
    image = adjoint_derivation(g1, g1.flat(0, 1), casimir)
    assert image == gm_parse(g1, "-4 h e_1 + 4 e h_1")


def test_derivation_leibniz_and_linearity(sl2):
    g1 = takiff_extend(sl2, 1)
    rng = random.Random(0)
    polys = seeded_polynomials(rng, g1.dim, 2, 4)
    for x in (0, g1.flat(2, 1)):
        for p in polys:
            for q in polys:
                assert adjoint_derivation(g1, x, p * q) == \
                    adjoint_derivation(g1, x, p) * q + p * adjoint_derivation(g1, x, q)
                assert adjoint_derivation(g1, x, p + q) == \
                    adjoint_derivation(g1, x, p) + adjoint_derivation(g1, x, q)


@pytest.mark.parametrize("algebra,m,max_degree", [("sl2", 2, 3), ("sl3", 1, 2)])
def test_derivation_output_is_canonical(request, algebra, m, max_degree):
    # adjoint_derivation wraps its term dict without re-validating it, so the
    # dict must already be what the validating constructor builds.
    gm = takiff_extend(request.getfixturevalue(algebra), m)
    rng = random.Random(11)
    for p in seeded_polynomials(rng, gm.dim, max_degree, 3):
        for x in range(gm.dim):
            result = adjoint_derivation(gm, x, p)
            rebuilt = Polynomial(gm.dim, result.terms)
            assert result == rebuilt and list(result.terms) == list(rebuilt.terms)
            assert all(type(c) is Fraction for c in result.terms.values())


# -- delta derivation ---------------------------------------------------------------

def test_delta_values(sl2):
    g1 = takiff_extend(sl2, 1)
    h1 = g1.flat(1, 1)
    u = variable(g1.dim, g1.flat(1, 0))
    v = variable(g1.dim, h1)
    delta = delta_direction(g1, h1)
    assert u.directional_derivative(delta) == Polynomial.constant(g1.dim, 2)
    assert v.directional_derivative(delta) == Polynomial.zero(g1.dim)
    assert Polynomial.constant(g1.dim, 9).directional_derivative(delta) == Polynomial.zero(g1.dim)
    assert (u * u).directional_derivative(delta) == u * 4


def test_delta_accepts_element_vectors(sl3):
    g1 = takiff_extend(sl3, 1)
    # H_{alpha1+alpha2} (x) T = (h1 + h2) (x) T
    element = [Fraction(0)] * g1.dim
    element[g1.flat(3, 1)] = Fraction(1)
    element[g1.flat(4, 1)] = Fraction(1)
    u1 = variable(g1.dim, g1.flat(3, 0))
    # <(h1+h2) (x) T, h1> = form(h1+h2, h1) = 2 - 1 = 1
    delta = delta_direction(g1, element)
    assert u1.directional_derivative(delta) == Polynomial.constant(g1.dim, 1)


# -- graded invariants -----------------------------------------------------------------

def test_sl2_classical_invariants(sl2):
    g0 = takiff_extend(sl2, 0)
    assert invariants_graded(g0, 1).dim == 0
    basis = invariants_graded(g0, 2)
    assert basis.dim == 1
    expected = GradedSubspace.from_polynomials([gm_parse(g0, "h^2 + 4 e f")], 3, 2)
    assert basis == expected


def test_sl2_takiff_degree_two_basis(sl2):
    g1 = takiff_extend(sl2, 1)
    basis = invariants_graded(g1, 2)
    expected = GradedSubspace.from_polynomials(
        [gm_parse(g1, "h_1^2 + 4 e_1 f_1"),
         gm_parse(g1, "2 h h_1 + 4 e f_1 + 4 f e_1")], g1.dim, 2)
    assert basis == expected


def test_sl2_takiff_dimension_series(sl2):
    g1 = takiff_extend(sl2, 1)
    expected = series_coefficients([2, 2], 4)
    assert expected == [1, 0, 2, 0, 3]
    assert [invariants_graded(g1, d).dim for d in range(5)] == expected


# Rais-Tauvel: S(g_m)^{g_m} is a polynomial ring whose generator degrees are
# those of S(g)^g, each repeated m + 1 times.
@pytest.mark.parametrize("algebra,degrees,m,upto,expected", [
    ("sl2", [2], 2, 6, [1, 0, 3, 0, 6, 0, 10]),
    ("sl2", [2], 3, 5, [1, 0, 4, 0, 10, 0]),
    ("sl3", [2, 3], 1, 4, [1, 0, 2, 2, 3]),
], ids=["sl2-m2", "sl2-m3", "sl3-m1"])
def test_takiff_dimension_series_rais_tauvel(request, algebra, degrees, m, upto, expected):
    gm = takiff_extend(request.getfixturevalue(algebra), m)
    assert series_coefficients(degrees * (m + 1), upto) == expected
    assert [invariants_graded(gm, d).dim for d in range(upto + 1)] == expected


def test_sl2_classical_dimension_series(sl2):
    g0 = takiff_extend(sl2, 0)
    expected = series_coefficients([2], 6)
    assert [invariants_graded(g0, d).dim for d in range(7)] == expected


def test_sl3_classical_dimension_series(sl3):
    g0 = takiff_extend(sl3, 0)
    expected = series_coefficients([2, 3], 6)
    assert expected == [1, 0, 1, 1, 1, 1, 2]
    assert [invariants_graded(g0, d).dim for d in range(7)] == expected


@pytest.mark.parametrize("m,degree", [(0, 2), (1, 2), (1, 3), (2, 2)])
def test_invariants_annihilated_by_every_derivation(sl2, m, degree):
    gm = takiff_extend(sl2, m)
    basis = invariants_graded(gm, degree)
    for b in basis.basis:
        for x in range(gm.dim):
            assert adjoint_derivation(gm, x, b) == Polynomial.zero(gm.dim)


def test_sl3_takiff_invariants_annihilated(sl3):
    g1 = takiff_extend(sl3, 1)
    for d in (2, 3):
        for b in invariants_graded(g1, d).basis:
            for x in range(g1.dim):
                assert adjoint_derivation(g1, x, b) == Polynomial.zero(g1.dim)


def _oracle_invariants(gm, degree):
    """Degree-d invariants from every bracket_derivation, Cartan included,
    on the monomials of weight zero under the diagonal of the base bracket."""
    base = gm.base
    weight = [[base.structure[c][v % base.dim].get(v % base.dim, 0) for c in base.cartan_indices]
              for v in range(gm.dim)]
    space = [Polynomial(gm.dim, {mono: 1}) for mono in monomials_of_degree(gm.dim, degree)
             if not any(sum(e * weight[v][i] for v, e in enumerate(mono))
                        for i in range(len(base.cartan_indices)))]
    maps = [partial(bracket_derivation, gm, x) for x in range(gm.dim)]
    return GradedSubspace.from_polynomials(polynomial_joint_kernel(space, maps), gm.dim, degree)


@pytest.mark.parametrize("algebra,m,max_degree", [
    ("sl2", 0, 5), ("sl2", 1, 5), ("sl2", 2, 5), ("sl2", 3, 5), ("sl3", 0, 4), ("sl3", 1, 4),
])
def test_invariants_match_bracket_oracle(request, algebra, m, max_degree):
    gm = takiff_extend(request.getfixturevalue(algebra), m)
    for d in range(max_degree + 1):
        basis = invariants_graded(gm, d)
        assert basis == _oracle_invariants(gm, d)
        for b in basis.basis:
            assert all(not bracket_derivation(gm, x, b) for x in range(gm.dim))


@pytest.mark.parametrize("algebra,m,max_degree", [("sl2", 2, 5), ("sl3", 1, 4)])
def test_invariants_do_not_depend_on_derivation_order(request, algebra, m, max_degree):
    # The kernel oracle runs the derivations by descending T-degree; seeded
    # shuffles of that order give the polarized bases all the same.
    gm = takiff_extend(request.getfixturevalue(algebra), m)
    order = sorted(derivation_generators(gm), key=lambda x: -(x // gm.base.dim))
    expected = [invariants_graded(gm, d) for d in range(max_degree + 1)]
    for seed in range(3):
        shuffled = random.Random(seed).sample(order, len(order))
        assert [kernel_invariants(gm, d, shuffled) for d in range(max_degree + 1)] == expected


def test_takiff_kernel_work_guard(monkeypatch):
    """sl3, m = 0, degree 6: the kernel path reads integer monomial images
    only, each (derivation, monomial) image at most once in its step, and
    never builds a polynomial derivation."""
    real_kernel = liealg.joint_kernel
    steps: list[Counter] = []

    def forbidden(*args):
        raise AssertionError("adjoint_derivation on the kernel path")

    def watched(linear_map):
        seen = Counter()
        steps.append(seen)

        def image(mono):
            seen[mono] += 1
            out = linear_map(mono)
            assert all(type(c) is int for c in out.values())
            return out
        return image

    def guarded_kernel(ambient_dim, degree, maps, monomials=None):
        return real_kernel(ambient_dim, degree, [watched(f) for f in maps], monomials)

    monkeypatch.setattr(liealg, "adjoint_derivation", forbidden)
    monkeypatch.setattr(liealg, "joint_kernel", guarded_kernel)
    assert invariants_graded(takiff_extend(make_sl(3), 0), 6).dim == 2
    assert sum(map(len, steps)) > 0
    assert all(count == 1 for seen in steps for count in seen.values())


def test_takiff_kernel_builds_no_fraction(monkeypatch):
    """Once the algebra's integer weights are cached, the sl3, m = 0, degree-6
    invariants build no Fraction until `linalg._canonical`, the step that
    `from_polynomials` also ends in, canonicalises them."""
    gm = takiff_extend(make_sl(3), 0)
    assert gm._weights == [[2, -1], [1, 1], [-1, 2], [0, 0], [0, 0], [-2, 1], [-1, -1], [1, -2]]
    outside, inside = [0], [0]
    real_new, real_canonical = Fraction.__new__, linalg._canonical

    def counted_new(cls, *args, **kwargs):
        outside[0] += not inside[0]
        return real_new(cls, *args, **kwargs)

    def canonical(*args, **kwargs):
        inside[0] += 1
        try:
            return real_canonical(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(linalg, "_canonical", canonical)
    assert invariants_graded(gm, 6).dim == 2
    assert outside == [0]


def test_derivation_generators_skip_diagonal_cartan(sl2):
    g1 = takiff_extend(sl2, 1)
    gens = derivation_generators(g1)
    assert g1.flat(1, 0) not in gens
    assert g1.flat(1, 1) in gens
    assert len(gens) == g1.dim - 1


def test_work_bound(sl3):
    # `takiff invariants` counts S^d(g_m) whichever path computes it: here
    # C(19, 4) = 3876 monomials on the 16 variables of g_1.
    g1 = takiff_extend(sl3, 1)
    with pytest.raises(WorkBoundExceeded, match="dimension 3876 > 10"):
        invariants_graded(g1, 4, work_bound=10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basic_invariant_degrees(n):
    # sl(n) has basic invariants of degrees 2, ..., n; asked through degree 8,
    # the search still stops at its n - 1 generators.
    g = make_sl(n)
    invariants = partial(invariants_graded, g)
    assert [p.degree() for p in basic_invariants(invariants, n - 1, 2)] == [2]
    assert [p.degree() for p in basic_invariants(invariants, n - 1, 8)] == list(range(2, n + 1))


def test_polarizations_of_the_sl2_casimir(sl2):
    # The t^1 and t^2 coefficients of c(e + e_1 t, h + h_1 t, f + f_1 t), c = h^2 + 4 e f.
    g1 = takiff_extend(sl2, 1)
    casimir = gm_parse(takiff_extend(sl2, 0), "h^2 + 4 e f")
    polarized = [Polynomial(g1.dim, q) for q in polarizations(casimir, 1)]
    assert polarized == [gm_parse(g1, "2 h h_1 + 4 e f_1 + 4 f e_1"),
                         gm_parse(g1, "h_1^2 + 4 e_1 f_1")]
    assert all(type(c) is int for q in polarizations(casimir * Fraction(1, 3), 2)
               for c in q.values())
