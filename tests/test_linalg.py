import random
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest

from dunklinv import liealg, linalg
from dunklinv.dunkl import gram_basis, gram_matrix, make_context
from dunklinv.exactalg import Polynomial, grlex_key, monomials_of_degree, parse
from dunklinv.liealg import invariants_graded, make_sl, takiff_extend
from dunklinv.linalg import (
    GradedSubspace,
    joint_kernel,
    leading_principal_minors,
    mat_inv,
    nullspace,
    rref,
)
from oracles import det, dense_nullspace, dense_rref, mat_mul, seeded_polynomials, stacked_kernel


def sparse(rows):
    """Dense rows as the `{column: value}` rows that `rref` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def coprime(vectors):
    """Dense rational vectors as the sparse coprime integer vectors, each a
    positive multiple of its input, that `nullspace` returns."""
    out = []
    for vec in vectors:
        den = lcm(*(Fraction(x).denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        out.append({j: x // g for j, x in enumerate(ints) if x})
    return out


def test_rref_canonical_under_row_operations():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    shuffled = [[8, 10, 12], [7, 8, 9], [1, 2, 3]]   # scaled + reordered, same span
    assert rref(sparse(rows), 3) == rref(sparse(shuffled), 3)


def test_rref_unit_pivots():
    reduced, pivots = rref(sparse([[2, 4, 0], [0, 0, 3]]), 3)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1]]


def test_nullspace_annihilates():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]]
    kernel = nullspace(sparse(rows), 4)
    assert len(kernel) == 2
    for vec in kernel:
        assert all(type(x) is int for x in vec.values())
        for row in rows:
            assert sum(row[j] * x for j, x in vec.items()) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace(sparse([[1, 0], [0, 1]]), 2) == []


def test_det_values():
    assert det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert det([[Fraction(1, 2)]]) == Fraction(1, 2)


def test_leading_principal_minors():
    m = [[2, 1], [1, 2]]
    assert leading_principal_minors(m) == [2, 3]
    assert leading_principal_minors([[Fraction(1, 2), Fraction(1, 3)],
                                     [Fraction(1, 3), Fraction(1, 4)]]) == [Fraction(1, 2),
                                                                            Fraction(1, 72)]
    assert leading_principal_minors([]) == []


def test_leading_principal_minors_stop_at_the_first_zero():
    # The second minor is 0 while the whole determinant is not: without row
    # exchanges the third minor is not reached, so the list ends at the zero.
    m = [[1, 1, 2], [1, 1, 3], [2, 3, 1]]
    assert det(m) == -1
    assert leading_principal_minors(m) == [1, 0]
    assert leading_principal_minors([[0, 1], [1, 0]]) == [0]


def oracle_minors(matrix):
    """`oracles.det` of each leading block, through the first zero."""
    minors = []
    for k in range(1, len(matrix) + 1):
        minors.append(det([row[:k] for row in matrix[:k]]))
        if not minors[-1]:
            break
    return minors


@pytest.mark.parametrize("seed", range(20))
def test_leading_principal_minors_match_the_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if seed % 4 == 0:                   # a zero minor part way down
        k = rng.randrange(n)
        m[k][:k + 1] = [2 * x for x in m[0][:k + 1]] if k else [Fraction(0)]
    assert leading_principal_minors(m) == oracle_minors(m)


@pytest.mark.parametrize("system,k,degree,invariants_only", [
    ("B3", "long=1,short=1/2", 8, True),           # the gram-invariant benchmark's matrix
    ("A3", "all=1/2", 4, False),                   # 15 x 15 on monomials
])
def test_leading_principal_minors_of_gram_matrices(system, k, degree, invariants_only):
    ctx = make_context(system, k)
    matrix = gram_matrix(ctx, gram_basis(ctx, degree, invariants_only))
    minors = leading_principal_minors(matrix)
    assert len(minors) == len(matrix) and all(x > 0 for x in minors)
    assert minors == oracle_minors(matrix)


def test_mat_inv_roundtrip():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert mat_mul(m, mat_inv(m)) == [[1, 0], [0, 1]]


def test_mat_inv_singular_raises():
    with pytest.raises(ValueError):
        mat_inv([[1, 2], [2, 4]])


# -- graded subspaces ---------------------------------------------------------

def span(texts, dim=2, degree=2):
    return GradedSubspace.from_polynomials([parse(t, dim) for t in texts], dim, degree)


def test_subspace_canonical_basis():
    a = span(["x1^2 + x2^2", "x1 x2"])
    b = span(["2 x1^2 + x1 x2 + 2 x2^2", "3 x1 x2", "x1^2 + x1 x2 + x2^2"])
    assert a == b
    assert a.dim == 2


def test_subspace_contains_and_reduce():
    a = span(["x1^2 + x2^2", "x1 x2"])
    assert a.contains(parse("5 x1^2 - 2 x1 x2 + 5 x2^2", 2))
    assert not a.contains(parse("x1^2", 2))
    assert a.reduce(parse("x1^2 + x1 x2 + x2^2", 2)) == Polynomial.zero(2)


def test_subspace_containment_order():
    big = span(["x1^2", "x1 x2", "x2^2"])
    small = span(["x1^2 - x2^2"])
    assert big.contains_subspace(small)
    assert not small.contains_subspace(big)


def test_subspace_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        GradedSubspace.from_polynomials([parse("x1 + x1^2", 2)], 2, 2)
    with pytest.raises(ValueError):
        GradedSubspace.from_polynomials([parse("x1 x2", 2)], 2, 3)


def test_subspace_drops_zero_and_handles_empty():
    empty = GradedSubspace.from_polynomials([Polynomial.zero(2)], 2, 4)
    assert empty.dim == 0
    assert empty.contains(Polynomial.zero(2))


def test_subspace_render():
    a = span(["x1 x2 + x2^2"])
    assert a.render() == ["x1 x2 + x2^2"]
    assert a.render(["u", "v"]) == ["u v + v^2"]


def test_graded_subspace_is_an_immutable_value():
    # Equality and hashing go by (ambient_dim, degree, basis).
    space = GradedSubspace.from_polynomials([parse("x1^2 - x2^2", 2), parse("x1 x2", 2)], 2, 2)
    same = GradedSubspace(2, 2, space.basis)
    assert space == same and hash(space) == hash(same)
    assert space != GradedSubspace(2, 2, space.basis[:1])
    assert GradedSubspace(2, 2) != GradedSubspace(2, 3) != GradedSubspace(3, 3)
    assert GradedSubspace(2, 2) == GradedSubspace(2, 2, ())
    for attr in ("ambient_dim", "degree", "basis", "extra"):
        with pytest.raises(AttributeError):
            setattr(space, attr, None)


# -- joint kernels ------------------------------------------------------------

def _random_maps(rng, dim, degree):
    """Seeded linear maps on degree-d polynomials, with small and large kernels."""
    monomials = monomials_of_degree(dim, degree)
    maps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["derivative", "substitution", "coefficients", "zero"])
        if kind == "derivative":
            direction = [rng.randint(-2, 2) for _ in range(dim)]
            maps.append(lambda p, xi=direction: p.directional_derivative(xi))
        elif kind == "substitution":
            matrix = [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(dim)]
            maps.append(lambda p, m=matrix: p.substitute(m) - p)
        elif kind == "coefficients":
            chosen = rng.sample(monomials, rng.randint(1, len(monomials)))
            weights = [rng.randint(-3, 3) for _ in chosen]
            maps.append(lambda p, c=chosen, w=weights: Polynomial.constant(
                dim, sum((p.coefficient(mono) * x for mono, x in zip(c, w)), Fraction(0))))
        else:
            maps.append(lambda p: Polynomial.zero(dim))
    return maps


def on_monomials(dim, linear_map):
    """A map on polynomials as the map of its values on monomials."""
    return lambda mono: linear_map(Polynomial(dim, {mono: 1})).terms


@pytest.mark.parametrize("seed", range(30))
def test_joint_kernel_matches_stacked_elimination(seed):
    """The input space is spanned by the monomials of seeded polynomials, a
    random subset of the degree-d monomials; the same seeded maps act on it
    through their values on monomials."""
    rng = random.Random(seed)
    dim, degree = rng.randint(1, 3), rng.randint(1, 3)
    seeded = seeded_polynomials(rng, dim, degree, rng.randint(1, 6), homogeneous=degree)
    monomials = sorted({mono for p in seeded for mono in p.terms})
    space = [Polynomial(dim, {mono: 1}) for mono in monomials]
    maps = _random_maps(rng, dim, degree)
    ours = joint_kernel(dim, degree, [on_monomials(dim, f) for f in maps], monomials)
    oracle = GradedSubspace.from_polynomials(stacked_kernel(space, maps), dim, degree)
    assert ours == oracle
    for b in ours.basis:
        assert all(not f(b) for f in maps)


def test_joint_kernel_skips_zero_maps_and_empties_on_injective_ones():
    monomials = [(2, 0), (1, 1), (0, 2)]
    space = [parse("x1^2", 2), parse("x1 x2", 2), parse("x2^2", 2)]
    assert joint_kernel(2, 2, [lambda mono: {}], monomials).basis == tuple(space)
    assert joint_kernel(2, 2, [lambda mono: {mono: 1}], monomials).basis == ()
    assert joint_kernel(2, 2, [lambda mono: {mono: 1}], []).basis == ()


def test_joint_kernel_is_canonical_whatever_the_monomial_order():
    """A shuffled monomial list, or none (every degree-d monomial), gives the
    reduced basis that `from_polynomials` gives, with Fraction coefficients."""
    def swap(mono):         # p -> p(x2, x1, x3) - p
        image = {mono[1::-1] + mono[2:]: 1}
        image[mono] = image.get(mono, 0) - 1
        return image

    dim, degree = 3, 3
    expected = GradedSubspace.from_polynomials(
        [parse("x1^3 + x2^3", 3), parse("x1^2 x2 + x1 x2^2", 3), parse("x1^2 x3 + x2^2 x3", 3),
         parse("x1 x2 x3", 3), parse("x1 x3^2 + x2 x3^2", 3), parse("x3^3", 3)], dim, degree)
    assert expected.dim == 6
    assert joint_kernel(dim, degree, [swap]) == expected
    for seed in range(5):
        shuffled = random.Random(seed).sample(monomials_of_degree(dim, degree), 10)
        kernel = joint_kernel(dim, degree, [swap], shuffled)
        assert kernel == expected
        assert all(type(c) is Fraction for b in kernel.basis for c in b.terms.values())


def test_joint_kernel_skips_maps_whose_images_cancel(monkeypatch):
    # After the first map the kernel is x1^2 - x2^2; the second map sends
    # both monomials to 1, so its image rows cancel and nothing is eliminated.
    calls = []
    real_nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda *a: calls.append(a) or real_nullspace(*a))
    coefficient_sum = lambda mono: {(0, 0): 1}   # noqa: E731
    monomials = [(2, 0), (0, 2)]
    kernel = joint_kernel(2, 2, [coefficient_sum, coefficient_sum], monomials)
    assert kernel == GradedSubspace.from_polynomials([parse("x1^2 - x2^2", 2)], 2, 2)
    assert len(calls) == 1


# -- sympy as a differential oracle (test-only; skipped without sympy) ------------

def _seeded_rational_matrix(seed):
    """Up to 6 x 6 with small rational entries; every third seed is square and
    singular, its last row a combination of two others, and every even seed
    starts with a zero entry, so elimination has to swap rows."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(2, 6), rng.randint(1, 6)
    singular = seed % 3 == 0
    if singular:
        ncols = nrows
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7
             else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]
    if seed % 2 == 0:
        rows[0][0] = Fraction(0)
    if singular:
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(1, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


def _from_sympy(value):
    return Fraction(int(value.numerator), int(value.denominator))


@pytest.mark.parametrize("seed", range(30))
def test_elimination_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows = _seeded_rational_matrix(seed)
    ncols = len(rows[0])
    qq_rows = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows]
    sym_reduced, sym_pivots = DomainMatrix(qq_rows, (len(rows), ncols), sympy.QQ).rref()
    reduced, pivots = rref(sparse(rows), ncols)
    assert pivots == list(sym_pivots)
    assert reduced == [[_from_sympy(x) for x in row]
                       for row in sym_reduced.to_list()[:len(sym_pivots)]]

    matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in rows])
    assert nullspace(sparse(rows), ncols) == coprime([[_from_sympy(x) for x in vec]
                                                      for vec in matrix.nullspace()])
    n = min(len(rows), ncols)
    assert det([row[:n] for row in rows[:n]]) == _from_sympy(matrix[:n, :n].det())


# -- the sparse path against the dense oracle (and sympy, where installed) ------

def _sympy_elimination(rows, ncols):
    """sympy's reduced rows, pivots and kernel basis of dense rows; None without sympy."""
    try:
        import sympy
        from sympy.polys.matrices import DomainMatrix
    except ImportError:
        return None
    qq_rows = [[sympy.QQ(x.numerator, x.denominator) for x in row] for row in rows]
    reduced, pivots = DomainMatrix(qq_rows, (len(rows), ncols), sympy.QQ).rref()
    matrix = sympy.Matrix(len(rows), ncols,
                          [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])
    return ([[_from_sympy(x) for x in row] for row in reduced.to_list()[:len(pivots)]],
            list(pivots), [[_from_sympy(x) for x in vec] for vec in matrix.nullspace()])


def _check_against_oracles(rows, ncols):
    rows = [[Fraction(x) for x in row] for row in rows]
    reduced, pivots = rref(sparse(rows), ncols)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert (reduced, pivots) == dense_rref(rows, ncols)
    kernel = nullspace(sparse(rows), ncols)
    assert kernel == coprime(dense_nullspace(rows, ncols))
    expected = _sympy_elimination(rows, ncols)
    if expected is not None:
        sym_reduced, sym_pivots, sym_kernel = expected
        assert (reduced, pivots, kernel) == (sym_reduced, sym_pivots, coprime(sym_kernel))


def _seeded_sparse_matrix(seed):
    """Up to 8 x 10, about a quarter of the entries nonzero; some rows are
    rescaled copies of earlier ones, so the rank often falls short."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 8), rng.randint(1, 10)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            scale = Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3))
            rows.append([scale * x for x in rng.choice(rows)])
        else:
            rows.append([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         if rng.random() < 0.25 else Fraction(0) for _ in range(ncols)])
    return rows, ncols


@pytest.mark.parametrize("seed", range(40))
def test_sparse_elimination_matches_dense_oracle(seed):
    _check_against_oracles(*_seeded_sparse_matrix(seed))


@pytest.mark.parametrize("rows, ncols", [
    ([], 3),                                                  # no rows at all
    ([[0, 0, 0], [0, 0, 0]], 3),                              # all-zero rows
    ([[1, 2, 0], [1, 2, 0], [1, 2, 0]], 3),                   # duplicate rows
    ([[1, 0, 2], [3, 0, Fraction(1, 2)]], 3),                 # a column no row touches
    ([[1, 2, 0, 0, 0]], 5),                                   # ncols past the largest key
    ([[3], [-2], [0]], 1),                                    # a single column
    ([[-2, 1, 0], [0, -3, 6], [-4, 0, Fraction(-1, 3)]], 3),  # negative leading entries
], ids=["empty", "zero-rows", "duplicates", "absent-column", "wide", "one-column",
        "negative-leads"])
def test_sparse_elimination_edge_cases(rows, ncols):
    _check_against_oracles(rows, ncols)


def test_stored_zero_entries_are_ignored():
    assert rref([{0: 0, 2: Fraction(0)}, {}], 3) == ([], [])
    assert rref([{1: 0, 2: 4}], 3) == rref([{2: 1}], 3)


@pytest.mark.parametrize("seed", range(20))
def test_from_polynomials_matches_dense_canonicalisation(seed):
    rng = random.Random(seed)
    dim, degree = rng.randint(1, 4), rng.randint(0, 4)
    polys = seeded_polynomials(rng, dim, degree, rng.randint(1, 6), homogeneous=degree)
    polys.append(polys[0] * Fraction(rng.randint(-3, 3), 2) + polys[-1])
    columns = sorted(monomials_of_degree(dim, degree), key=grlex_key, reverse=True)
    reduced, _ = dense_rref([[p.coefficient(m) for m in columns] for p in polys], len(columns))
    expected = tuple(Polynomial(dim, dict(zip(columns, row))) for row in reduced)
    assert GradedSubspace.from_polynomials(polys, dim, degree).basis == expected


def test_kernel_path_eliminates_sparse_rows_only(monkeypatch):
    """Every elimination behind the sl3, m = 0, degree-6 invariants gets
    mapping rows that store no more entries than the terms of the
    polynomials they were read from: the derivation images of monomials,
    then the surviving kernel bases.  A dense or transposed fallback stores
    more."""
    entries, terms, calls = [0], [0], []
    real_elimination, real_kernel = linalg._pivot_rows, liealg.joint_kernel
    real_canonical = linalg._canonical

    def recording_elimination(rows):
        calls.append(all(isinstance(row, Mapping) for row in rows))
        entries[0] += sum(len(row) for row in rows)
        return real_elimination(rows)

    def counted(linear_map, mono):
        image = linear_map(mono)
        terms[0] += len(image)
        return image

    def counted_kernel(ambient_dim, degree, maps, monomials=None):
        return real_kernel(ambient_dim, degree, [partial(counted, f) for f in maps], monomials)

    def counted_canonical(ambient_dim, degree, survivors):
        terms[0] += sum(len(terms) for terms in survivors)
        return real_canonical(ambient_dim, degree, survivors)

    monkeypatch.setattr(linalg, "_pivot_rows", recording_elimination)
    monkeypatch.setattr(linalg, "_canonical", counted_canonical)
    monkeypatch.setattr(liealg, "joint_kernel", counted_kernel)
    result = invariants_graded(takiff_extend(make_sl(3), 0), 6)
    assert result.dim > 0
    assert calls and all(calls)
    assert 0 < entries[0] <= terms[0]
