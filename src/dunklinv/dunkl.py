"""Rational Dunkl operators, operator composition and the Dunkl pairing.

T_xi deforms the directional derivative by one divided-difference term per
positive indivisible root:

    T_xi p = d_xi p + sum_{alpha > 0} k_alpha alpha(xi) (p - r_alpha p) / alpha

The two-sided sum over Sigma with prefactor 1/2 collapses to this because
the alpha and -alpha terms coincide; the test oracle two_sided_dunkl
(tests/oracles.py) evaluates the two-sided form by reflecting and dividing,
so the collapse and the divisibility are checked on a path not run here.

Nothing is substituted and no polynomial is divided, so no division can
fail.  Since r_alpha is a ring map with r_alpha x_i = x_i - H_alpha[i] alpha,
the divided difference obeys the product rule

    (x_i c - r_alpha(x_i c)) / alpha
        = H_alpha[i] c + (x_i - H_alpha[i] alpha) (c - r_alpha c) / alpha,

which is x_i times the lower quotient when H_alpha[i] = 0.  This is the one
form of the divided difference here.  A context keeps, for every monomial c
it has met and every acting root (k_alpha != 0) asked for, the quotient of
c as int terms in a flat tuple (a dict per quotient took three times the
memory: 0.33 against 0.11 MB after a B3 degree-8 Gram matrix).  It peels
c = x_i c', x_i the lowest-index variable, down to the first monomial that
holds the roots asked for and climbs back by the product rule, so each
quotient costs one linear form times a quotient one degree down and is
computed once per context.  A direction xi asks only for the roots with
alpha(xi) != 0.  `DunklContext._images` is the one T_xi on a monomial, in
ints: the derivative of c plus the weighted quotients of c.
`dunkl_apply` (and with it `dunkl_compose` and the commutator checks)
applies it to p through `exactalg.apply_map`; `gram_matrix`, which visits
every monomial of every degree, reads it degree by degree in `_next_gram`.
The Taylor expansion along the coroot,

    (p - r_alpha p) / alpha = sum_{j >= 1} (-alpha)^(j-1) / j! d_{H_alpha}^j p,

is the test oracle taylor_dunkl (tests/oracles.py).

p(T) substitutes a commuting Dunkl operator for each coordinate: coordinate
x_i is paired with the direction dual to it under the root system's
invariant form, column i of `RootSystem.form_inv` (for the orthogonal
realizations this is just e_i).  The pairing <p, q> = (p(T) q)(0) is then
symmetric, W-invariant, and positive definite for positive multiplicities,
and the adjoint of T_xi is multiplication by the linear form dual to xi.

Gram matrices never compose operators entry by entry.  Write T_i for the
operator paired with x_i.  Since the T's commute, (x_i m)(T) = m(T) T_i, so

    <x_i m, c> = <m, T_i c>,

and on monomials of degree e the row of x_i m is the row of m in G_{e-1}
times the matrix of T_i (Dunkl and Xu, *Orthogonal Polynomials of Several
Variables*, ch. 7).  `gram_matrix` starts from G_0 = [1], peels the
lowest-index variable off each monomial, and needs T_i only on single
monomials, whose divided differences the context's memo holds and every
direction shares.  It builds only the rows a basis reads: at each degree
the supports of the basis there and the peels of the rows one degree up.
Below the top degree a row needs every column, since T_i c reaches any
monomial; at the top only the columns of the supports are built.  It holds
G_e = N_e / s_e with N_e an integer matrix, fraction-free as in Bareiss's
elimination.  With R the lcm of the denominators of H_alpha and the
reflected variables r_alpha x_i (1 on every supported system), the memo
holds R^|c| times the quotient of c; with D that of the dual directions
and of the weights k_alpha alpha(xi_i), D R^e T_i is integral on degree e and s_e = D R^e s_{e-1}.  The pairing
vanishes across degrees, so a basis is paired one homogeneous component at a
time, scaled to integers by one lcm.  R, D and each component come from
`exactalg.integral`.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

from . import linalg
from .exactalg import (Monomial, Polynomial, apply_map, derivative, integral,
                       monomials_of_degree, rational)
from .rootsys import MultiplicityAssignment, RootSystem, generate_weyl, invariant_basis, root_system


class DunklContext:
    """A root system, its Weyl group, a multiplicity assignment, and the memo
    of divided differences of monomials (see the module docstring)."""

    def __init__(self, rs: RootSystem, k: MultiplicityAssignment):
        self.rs = rs
        self.weyl = generate_weyl(rs)
        self.k = k
        by_label = self.k.resolve(self.rs)
        # (index, k_alpha) of each acting root: positive, indivisible, k_alpha != 0
        self._acting = [(idx, by_label[rs.orbit_labels[idx]])
                        for idx in rs.positive_indivisible() if by_label[rs.orbit_labels[idx]]]
        # per acting root, H_alpha and then the rows of r_alpha, scaled by R
        self._r, scaled = integral([[*rs.coroots[idx], *chain.from_iterable(rs.reflection(idx))]
                                    for idx, _ in self._acting])
        self._reflected = [_reflected_variables(rs.rank, row) for row in scaled]
        one = (0,) * rs.rank
        self._monomials = {one: one}                # one tuple per monomial met
        # c -> R^|c| (c - r_alpha c) / alpha for each acting root, None until a
        # root is asked for; those of 1 vanish
        self._quotients = {one: [() for _ in self._acting]}
        self._dual_directions = [list(column) for column in zip(*rs.form_inv)]

    @property
    def rank(self) -> int:
        return self.rs.rank

    def _weights(self, xi: Sequence[Fraction]) -> list[Fraction]:
        """k_alpha alpha(xi) for each acting root."""
        return [k_alpha * sum((a * c for a, c in zip(self.rs.roots[idx], xi)), Fraction(0))
                for idx, k_alpha in self._acting]

    def _scaled(self, directions: Sequence[Sequence[Fraction]]) -> tuple[int, list, list]:
        """(D, D xi for each direction xi, D k_alpha alpha(xi)), all ints: the
        weights hold one row per acting root, one entry per direction, and D is
        the lcm of the denominators of the directions and the weights."""
        d, rows = integral([*directions, *zip(*map(self._weights, directions))])
        return d, rows[:len(directions)], rows[len(directions):]

    def _images(self, c: Monomial, directions, weights) -> list[dict[Monomial, int]]:
        """D R^|c| T_xi c for each direction, as int term dicts, from the D-scaled
        directions and weights of `_scaled`: the derivative of c plus each
        quotient of c times its weight.  Only the roots with a nonzero weight
        are read from the memo, and filled in it."""
        lift = self._r ** sum(c)
        images = [derivative([lift * x for x in xi], c) for xi in directions]
        roots = [a for a, row in enumerate(weights) if any(row)]
        if roots:
            quotients = self._quotients_of(c, roots)
            for a in roots:
                for image, w in zip(images, weights[a]):
                    if w:
                        for t, q in _pairs(quotients[a]):
                            image[t] = image.get(t, 0) + w * q
        return images

    def _quotients_of(self, c: Monomial, roots: Sequence[int]) -> list:
        """R^|c| (c - r_alpha c) / alpha for each acting root, as int terms
        stored flat (see `_pairs`); those of the acting roots indexed by
        `roots` are filled, the others may be None.

        The peels of c that lack one of them are walked down, then filled in
        bottom-up by `_product_rule`; no recursion, so the depth is |c| at most.
        """
        memo, canonical = self._quotients, self._monomials
        peels = []
        while (held := memo.get(c)) is None or None in [held[a] for a in roots]:
            i, rest = _peel(c)
            peels.append((c, i))
            c = rest
        rest = canonical[c]
        lift = self._r ** sum(rest)
        for c, i in reversed(peels):
            c = canonical.setdefault(c, c)
            lower, held = memo[rest], memo.setdefault(c, [None] * len(self._acting))
            for a in roots:
                if held[a] is None:
                    h, reflected = self._reflected[a][i]
                    held[a] = _product_rule(lift * h, reflected, rest, lower[a], canonical)
            rest, lift = c, lift * self._r
        return memo[rest]


def dunkl_apply(ctx: DunklContext, xi: Sequence[Fraction | int], p: Polynomial) -> Polynomial:
    """Apply T_xi to p; homogeneous degree d goes to homogeneous degree d-1."""
    if len(xi) != ctx.rank:
        raise ValueError(f"direction of length {len(xi)} for rank {ctx.rank}")
    if p.ambient_dim != ctx.rank:
        raise ValueError("polynomials must live on the reflection representation")
    d, directions, weights = ctx._scaled([[rational(c) for c in xi]])
    return apply_map(p, lambda c: ctx._images(c, directions, weights)[0],
                     lambda e: d * ctx._r ** e)


def dunkl_compose(ctx: DunklContext, p: Polynomial, q: Polynomial) -> Polynomial:
    """p(T) applied to q, expanding p monomial by monomial.

    Coordinate x_i acts as T along the form-dual of e_i (equal to e_i in the
    orthogonal realizations); exponents are applied right-to-left in
    variable-index order, which is immaterial since the T's commute.
    """
    if p.ambient_dim != ctx.rank or q.ambient_dim != ctx.rank:
        raise ValueError("polynomials must live on the reflection representation")
    total = Polynomial.zero(ctx.rank)
    for mono, coeff in p.terms.items():
        current = q
        for var in reversed(range(ctx.rank)):
            for _ in range(mono[var]):
                current = dunkl_apply(ctx, ctx._dual_directions[var], current)
        total = total + current * coeff
    return total


def commutator_check(ctx: DunklContext, xi: Sequence[Fraction | int],
                     eta: Sequence[Fraction | int], p: Polynomial) -> Polynomial:
    """T_xi T_eta p - T_eta T_xi p; must be the zero polynomial."""
    return (dunkl_apply(ctx, xi, dunkl_apply(ctx, eta, p))
            - dunkl_apply(ctx, eta, dunkl_apply(ctx, xi, p)))


def gram_basis(ctx: DunklContext, degree: int, invariants_only: bool) -> list[Polynomial]:
    """The degree-d monomials, or the canonical basis of the degree-d W-invariants."""
    if invariants_only:
        return list(invariant_basis(ctx.weyl, degree).basis)
    return [Polynomial(ctx.rank, {mono: Fraction(1)})
            for mono in monomials_of_degree(ctx.rank, degree)]


def gram_matrix(ctx: DunklContext, basis: Sequence[Polynomial]) -> list[list[Fraction]]:
    """Gram matrix of the pairing on a basis, such as one from `gram_basis`.

    Built by recursion on degree through <x_i m, c> = <m, T_i c>, with each
    divided difference (c - r_alpha c) / alpha read from the context's memo
    and each G_e held as N_e / s_e with N_e integral (see the module
    docstring), on the rows and columns the basis reads.  Two degrees of N
    are held at once; bases may mix degrees.
    """
    if any(b.ambient_dim != ctx.rank for b in basis):
        raise ValueError("polynomials must live on the reflection representation")
    # components[e][j]: (L, L times the degree-e terms of basis[j]), L their lcm denominator
    components: dict[int, dict[int, tuple]] = defaultdict(dict)
    for j, b in enumerate(basis):
        for e in set(map(sum, b.terms)):
            terms = b.homogeneous_component(e).terms
            den, [coefficients] = integral([terms.values()])
            components[e][j] = den, dict(zip(terms, coefficients))
    top = max(components, default=-1)
    # rows[e]: the degree-e rows read, the components' supports and the peels of rows[e + 1]
    rows: dict[int, set] = defaultdict(set)
    for e in range(top, 0, -1):
        rows[e].update(m for _, terms in components.get(e, {}).values() for m in terms)
        rows[e - 1].update(_peel(m)[1] for m in rows[e])
    matrix = [[Fraction(0)] * len(basis) for _ in basis]
    d, directions, weights = ctx._scaled(ctx._dual_directions)
    one = (0,) * ctx.rank
    gram, scale = {one: {one: 1}}, 1                # N_0 as sparse rows, s_0
    for e in range(top + 1):
        if e:
            # the top degree pairs only its own support, every lower row feeds the next
            columns = rows[e] if e == top else monomials_of_degree(ctx.rank, e)
            gram = _next_gram(ctx, rows[e], columns, gram, directions, weights)
            scale *= d * ctx._r ** e
        for j, (den_j, row_terms) in components.get(e, {}).items():
            paired: dict = defaultdict(int)         # basis[j]'s scaled degree-e part times N_e
            for m, coeff in row_terms.items():
                for c, g in gram[m].items():
                    paired[c] += coeff * g
            for l, (den_l, col_terms) in components[e].items():
                total = sum(coeff * paired[c] for c, coeff in col_terms.items() if c in paired)
                if total:
                    matrix[j][l] += Fraction(total, scale * den_j * den_l)
    return matrix


def _peel(m: Monomial) -> tuple[int, Monomial]:
    """(i, m') with m = x_i m' and x_i the lowest-index variable of m."""
    i = next(compress(range(len(m)), m))
    return i, m[:i] + (m[i] - 1,) + m[i + 1:]


def _pairs(flat: tuple) -> Iterator[tuple[Monomial, int]]:
    """The (monomial, coefficient) terms of a quotient held flat as m1, q1, m2, q2, ..."""
    it = iter(flat)
    return zip(it, it)


def _times_variable(m: Monomial, j: int, canonical: dict) -> Monomial:
    """x_j m, as the one tuple `canonical` holds for it."""
    mono = m[:j] + (m[j] + 1,) + m[j + 1:]
    return canonical.setdefault(mono, mono)


def _reflected_variables(rank: int, scaled: Sequence[int]) -> list[tuple]:
    """(r H_alpha[i], r r_alpha x_i) for each i, with r_alpha x_i = x_i - H_alpha[i] alpha,
    from `scaled`: r H_alpha, then the rows of r times the reflection matrix, in ints.

    The linear form is a list of (variable, coefficient) pairs, read off row i
    of the reflection matrix.
    """
    return [(scaled[i], [(j, a) for j, a in enumerate(scaled[rank * (i + 1):rank * (i + 2)]) if a])
            for i in range(rank)]


def _product_rule(h, reflected: list, rest: Monomial, lower: tuple, canonical: dict) -> tuple:
    """Terms of (c - r_alpha c) / alpha for c = x_i c', from lower = that quotient of c'.

    r_alpha(x_i c') = r_alpha(x_i) r_alpha(c') and r_alpha c' = c' - alpha q'
    give H_alpha[i] c' + r_alpha(x_i) q' (scaled as in the memo); with h = 0
    this is x_i q'.  Monomials come from `canonical`, one tuple each; the
    terms are returned flat, as `_pairs` reads them.
    """
    out = {rest: h} if h else {}
    for t, q in _pairs(lower):
        for j, a in reflected:
            mono = _times_variable(t, j, canonical)
            acc = out.get(mono, 0) + a * q
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return tuple(chain.from_iterable(out.items()))


def _next_gram(ctx: DunklContext, rows: Iterable[Monomial], columns: Iterable[Monomial],
               previous: dict, directions, weights) -> dict:
    """N_e from N_{e-1} on the given rows and columns: row x_i m' is row m' of
    N_{e-1} times D R^e T_i, i lowest in x_i m'.

    The images D R^e T_i c are the context's `_images` of c, from the
    D-scaled `directions` and `weights`, so every sum is over ints.  N_e is
    filled one column c at a time, so only the images of one monomial are held.
    """
    gram: dict = {m: {} for m in rows}
    peeled = []                 # (row of x_i m', i, row of m' in G_{e-1})
    for m in gram:
        i, rest = _peel(m)
        peeled.append((gram[m], i, previous[rest]))
    for c in columns:
        images = ctx._images(c, directions, weights)
        for row, i, lower in peeled:
            entry = sum(lower[t] * coeff for t, coeff in images[i].items() if t in lower)
            if entry:
                row[c] = entry
    return gram


def positivity_certificate(matrix: Sequence[Sequence[Fraction]]) -> tuple[bool, list[Fraction]]:
    """Exact positive-definiteness of a symmetric matrix by Sylvester's criterion.

    The minors come from `linalg.leading_principal_minors`, one fraction-free
    pass; the matrix is definite exactly when all of them are positive.  A
    zero minor ends the list, and the verdict is then False.
    """
    minors = linalg.leading_principal_minors(matrix)
    return all(m > 0 for m in minors), minors


def make_context(system: str, k: str | MultiplicityAssignment) -> DunklContext:
    """Convenience constructor from names, e.g. make_context("B2", "long=1,short=1/2")."""
    rs = root_system(system)
    if isinstance(k, str):
        k = MultiplicityAssignment.parse(k)
    return DunklContext(rs=rs, k=k)
