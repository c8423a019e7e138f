"""Exact linear algebra over Q and canonical graded subspaces.

Rows are sparse, `{column: value}`.  Elimination turns each input row into
coprime integers once (lcm of its denominators, then its content) and runs
fraction-free from there: a row is reduced against the pivot row sitting at
its leading column until its leading column is free, then becomes a pivot
itself, and back-substitution clears the pivot columns highest pivot first.
`nullspace` reads integer kernel vectors off those pivot rows; `rref`
divides each by its pivot, the only place elimination makes a `Fraction`.
`leading_principal_minors`, the package's one determinant computation, is a
Bareiss pass in the same integer arithmetic.

Reduced row echelon form depends only on the row span and the column
order; columns are always supplied in descending graded-lex monomial order,
which makes every basis produced here canonical: two subspaces are equal
exactly when their reduced bases render identically.

Every graded subspace cut out by linear conditions (adjoint invariants,
Weyl invariants, the restriction criterion) goes through one kernel path,
`joint_kernel`: maps given by their integer values on monomials, images
keyed by exponent vectors as everywhere in the package, and the kernel held
as coprime integer vectors over those monomials.  Each map's image of a
monomial is computed once, spread into one sparse row per image monomial,
and the `nullspace` recombines the vectors, all in ints.  No other module of
the package calls `nullspace`; `GradedSubspace.from_polynomials`
canonicalises the result on the same rows.  The maps come from the int maps
that `exactalg.apply_map` applies to whole polynomials: the Weyl invariance
maps take their values from `exactalg.substitution`, the one linear change
of variables, which multiplies with `exactalg.product`, the one product of
term dicts; the adjoint derivations and condition 2, whose delta chains
derive monomials by `exactalg.derivative`, build theirs in the liealg and
restriction modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exactalg import Monomial, MonomialMap, Polynomial, grlex_key, render

Matrix = Sequence[Sequence[Fraction]]
Row = Mapping[int, Fraction | int]


def _integer_row(row: Row) -> dict[int, int]:
    """The row scaled to coprime integers, zero entries dropped."""
    entries = [(col, x) for col, x in row.items() if x]
    den = lcm(*(x.denominator for _, x in entries))
    return _primitive({col: x.numerator * (den // x.denominator) for col, x in entries})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A row of nonzero integers divided by their gcd."""
    g = gcd(*row.values())
    return {col: x // g for col, x in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], col: int, pivot: dict[int, int]) -> dict[int, int]:
    """The row with its entry at `col` cleared by the pivot row at `col`, fraction-free."""
    g = gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in pivot.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            del out[c]
    return _primitive(out)


def _pivot_rows(rows: Sequence[Row]) -> dict[int, dict[int, int]]:
    """The fully reduced pivot rows of the span, coprime integers, keyed by pivot column."""
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _integer_row(row)
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                pivot_rows[lead] = row
                break
            row = _eliminate(row, lead, pivot)
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for col in [c for c in row if c != lead and c in pivot_rows]:
            row = _eliminate(row, col, pivot_rows[col])
        pivot_rows[lead] = row
    return pivot_rows


def rref(rows: Sequence[Row], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q of sparse rows with keys in range(ncols).

    Returns the reduced rows, dense over the columns with unit pivots, and
    the pivot columns in increasing order.
    """
    pivot_rows = _pivot_rows(rows)
    pivots = sorted(pivot_rows)
    zero = Fraction(0)
    reduced = []
    for lead in pivots:
        row = pivot_rows[lead]
        pv = row[lead]
        dense = [zero] * ncols
        for col, x in row.items():
            dense[col] = Fraction(x, pv)
        reduced.append(dense)
    return reduced, pivots


def nullspace(rows: Sequence[Row], ncols: int) -> list[dict[int, int]]:
    """Canonical kernel basis: one vector per free column, sparse, in coprime
    integers and positive at that column."""
    pivot_rows = _pivot_rows(rows)
    basis = []
    for free in range(ncols):
        if free not in pivot_rows:
            column = [(lead, row[lead], row[free])
                      for lead, row in pivot_rows.items() if free in row]
            scale = lcm(*(abs(pv) for _, pv, _ in column))
            basis.append(_primitive({free: scale} | {lead: -x * (scale // pv)
                                                     for lead, pv, x in column}))
    return basis


def joint_kernel(ambient_dim: int, monomials: Sequence[Monomial],
                 maps: Iterable[MonomialMap]) -> list[Polynomial]:
    """Polynomials spanning the part of span(`monomials`) that every map kills.

    The unit vectors are cut down one map at a time; a map that kills every
    kernel vector is skipped.  The basis returned is not canonical and has
    int coefficients; pass it through `GradedSubspace.from_polynomials`.
    """
    kernel: list[dict[int, int]] = [{j: 1} for j in range(len(monomials))]
    for linear_map in maps:
        if not kernel:
            break
        users: dict[int, list[tuple[int, int]]] = {}     # monomial -> (vector, coefficient)
        for k, vec in enumerate(kernel):
            for j, a in vec.items():
                users.setdefault(j, []).append((k, a))
        rows: dict[Monomial, dict[int, Fraction | int]] = {}
        for j, uses in users.items():
            for mono, c in linear_map(monomials[j]).items():
                row = rows.setdefault(mono, {})
                for k, a in uses:
                    row[k] = row.get(k, 0) + a * c
        del users           # each image is gone already; free the index before eliminating
        live = [row for row in rows.values() if any(row.values())]
        if live:                # else the map kills every vector: images may cancel in sums
            kernel = [_recombine(kernel, v) for v in nullspace(live, len(kernel))]
    zero = Polynomial(ambient_dim)
    return [zero._wrap({monomials[j]: a for j, a in vec.items()}) for vec in kernel]


def _recombine(kernel: Sequence[dict[int, int]], coefficients: Mapping[int, int]) -> dict:
    """sum_k coefficients[k] kernel[k], scaled to coprime integers."""
    out: dict[int, int] = {}
    for k, c in coefficients.items():
        for j, a in kernel[k].items():
            out[j] = out.get(j, 0) + c * a
    return _primitive({j: a for j, a in out.items() if a})


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """a b for Fraction or int entries; floats are refused upstream, not re-checked here."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction | int]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_inv(a: Matrix) -> list[list[Fraction]]:
    n = len(a)
    augmented = [{j: x for j, x in enumerate(row) if x} | {n + i: 1} for i, row in enumerate(a)]
    reduced, pivots = rref(augmented, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def leading_principal_minors(a: Matrix) -> list[Fraction]:
    """The leading principal minors of a square matrix, from one Bareiss pass.

    The matrix is scaled once to integers by D, the lcm of its entries'
    denominators, and eliminated fraction-free without row exchanges: step k
    takes a[i][j] to (a[i][j] p_k - a[i][k] a[k][j]) / p_(k-1), an exact
    division, and leaves the pivot p_k = a[k][k] equal to the order-(k+1)
    leading minor of the scaled matrix, so minor k+1 is p_k / D^(k+1).  The
    list ends at the first zero minor, which it includes: the minors after it
    need row exchanges and are not computed.
    """
    den = lcm(*(x.denominator for row in a for x in row))
    work = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    minors, previous = [], 1
    for k, top in enumerate(work):
        pivot = top[k]
        minors.append(Fraction(pivot, den ** (k + 1)))
        if not pivot:
            break
        for row in work[k + 1:]:
            row[k + 1:] = [(x * pivot - row[k] * y) // previous
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        previous = pivot
    return minors


class GradedSubspace(NamedTuple):
    """A degree-d subspace held by its canonical reduced basis.

    The basis is in reduced row echelon form with respect to descending
    graded-lex monomial order: leading coefficients are 1 and each leading
    monomial is absent from every other basis element.  Equality of
    subspaces is literal equality of bases.
    """

    ambient_dim: int
    degree: int
    basis: tuple[Polynomial, ...] = ()

    @classmethod
    def from_polynomials(cls, polys: Sequence[Polynomial], ambient_dim: int,
                         degree: int) -> "GradedSubspace":
        polys = [p for p in polys if p]
        for p in polys:
            if p.ambient_dim != ambient_dim:
                raise ValueError("mixed ambient dimensions in subspace input")
            if not p.is_homogeneous() or p.degree() != degree:
                raise ValueError(f"expected homogeneous polynomials of degree {degree}")
        if not polys:
            return cls(ambient_dim, degree, ())
        columns = sorted({mono for p in polys for mono in p.terms}, key=grlex_key, reverse=True)
        index = {mono: j for j, mono in enumerate(columns)}
        rows = [{index[mono]: c for mono, c in p.terms.items()} for p in polys]
        reduced, _ = rref(rows, len(columns))
        basis = tuple(Polynomial(ambient_dim,
                                 {columns[j]: c for j, c in enumerate(row) if c})
                      for row in reduced)
        return cls(ambient_dim, degree, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, p: Polynomial) -> Polynomial:
        """Remainder of p after eliminating every basis leading monomial."""
        if p.ambient_dim != self.ambient_dim:
            raise ValueError("polynomial lives in a different ring")
        for b in self.basis:
            lead, _ = b.leading_term()
            c = p.coefficient(lead)
            if c:
                p = p - b * c
        return p

    def contains(self, p: Polynomial) -> bool:
        return not self.reduce(p)

    def contains_subspace(self, other: "GradedSubspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def render(self, names: Sequence[str] | None = None) -> list[str]:
        return [render(b, names) for b in self.basis]
