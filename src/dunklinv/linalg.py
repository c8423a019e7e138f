"""Exact linear algebra over Q and canonical graded subspaces.

Elimination clears denominators row by row and runs fraction-free over the
integers with gcd reduction, so entries remain small and nothing is ever
rounded.  Reduced row echelon form depends only on the row span and the
column order; columns are always supplied in descending graded-lex monomial
order, which makes every basis produced here canonical: two subspaces are
equal exactly when their reduced bases render identically.

Every graded subspace cut out by linear conditions (adjoint invariants,
Weyl invariants, the restriction criterion) goes through one kernel path,
`joint_kernel`: it applies each linear map to the current spanning list,
eliminates the coefficient matrix of the images with `nullspace` and
recombines.  No other module of the package calls `nullspace`;
`GradedSubspace.from_polynomials` canonicalises the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .exactalg import Monomial, Polynomial, grlex_key, render

Matrix = Sequence[Sequence[Fraction]]


def _integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        if any(ints):
            out.append(ints)
    return out


def _forward_eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon with gcd-reduced rows; returns (rows, pivot columns)."""
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if not f:
                continue
            top = rows[rank]
            row = rows[r]
            new = [pv * a - f * b for a, b in zip(row, top)]
            g = 0
            for x in new:
                g = gcd(g, x)
            if g > 1:
                new = [x // g for x in new]
            rows[r] = new
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def rref(rows: Sequence[Sequence[Fraction | int]], ncols: int
         ) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: unit pivots, pivot columns cleared."""
    echelon, pivots = _forward_eliminate(_integer_rows(rows), ncols)
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        pv = echelon[i][col]
        for r in range(i):
            f = echelon[r][col]
            if not f:
                continue
            row = echelon[r]
            new = [pv * a - f * b for a, b in zip(row, echelon[i])]
            g = 0
            for x in new:
                g = gcd(g, x)
            if g > 1:
                new = [x // g for x in new]
            echelon[r] = new
    reduced = []
    for i, col in enumerate(pivots):
        pv = Fraction(echelon[i][col])
        reduced.append([Fraction(x) / pv for x in echelon[i]])
    return reduced, pivots


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[list[Fraction]]:
    """Canonical kernel basis: one vector per free column, unit at that column."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -reduced[i][free]
        basis.append(vec)
    return basis


def joint_kernel(space: Sequence[Polynomial],
                 maps: Iterable[Callable[[Polynomial], Polynomial]]) -> list[Polynomial]:
    """Combinations of `space` spanning its part that every map in `maps` kills.

    The space is cut down one map at a time.  A map whose images are all
    zero, the only way its kernel can be the whole space, is skipped and
    leaves the basis as it is.  The basis returned is not canonical; pass
    it through `GradedSubspace.from_polynomials`.
    """
    space = list(space)
    for linear_map in maps:
        if not space:
            break
        support, rows = _coefficient_rows([linear_map(p) for p in space])
        if not support:
            continue
        kernel = nullspace(transpose(rows), len(space))
        zero = Polynomial.zero(space[0].ambient_dim)
        space = [sum((p * c for p, c in zip(space, vec) if c), zero) for vec in kernel]
    return space


def _coefficient_rows(polys: Sequence[Polynomial]
                      ) -> tuple[list[Monomial], list[list[Fraction]]]:
    """The joint support in descending graded-lex order, one coefficient row per polynomial."""
    support: set[Monomial] = set()
    for p in polys:
        support.update(p.terms)
    n = polys[0].ambient_dim
    columns = sorted(support, key=lambda m: grlex_key(m, n), reverse=True)
    return columns, [[p.coefficient(m) for m in columns] for p in polys]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """a b for Fraction or int entries; floats are refused upstream, not re-checked here."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction | int]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def transpose(a: Matrix) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def mat_inv(a: Matrix) -> list[list[Fraction]]:
    n = len(a)
    augmented = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    reduced, pivots = rref(augmented, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def det(a: Matrix) -> Fraction:
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pv = work[col][col]
        result *= pv
        for r in range(col + 1, n):
            f = work[r][col] / pv
            if f:
                work[r] = [a_ - f * b_ for a_, b_ in zip(work[r], work[col])]
    return result * sign


def leading_principal_minors(a: Matrix) -> list[Fraction]:
    return [det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


@dataclass(frozen=True)
class GradedSubspace:
    """A degree-d subspace held by its canonical reduced basis.

    The basis is in reduced row echelon form with respect to descending
    graded-lex monomial order: leading coefficients are 1 and each leading
    monomial is absent from every other basis element.  Equality of
    subspaces is literal equality of bases.
    """

    ambient_dim: int
    degree: int
    basis: tuple[Polynomial, ...] = field(default=())

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
        columns, rows = _coefficient_rows(polys)
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
