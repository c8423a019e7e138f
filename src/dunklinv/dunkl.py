"""Rational Dunkl operators, operator composition and the Dunkl pairing.

T_xi deforms the directional derivative by one divided-difference term per
positive indivisible root:

    T_xi p = d_xi p + sum_{alpha > 0} k_alpha alpha(xi) (p - r_alpha p) / alpha

The two-sided sum over Sigma with prefactor 1/2 collapses to this because
the alpha and -alpha terms coincide; the test oracle two_sided_dunkl
(tests/oracles.py) evaluates the two-sided form by reflecting and dividing,
so the collapse and the divisibility are checked on a path not run here.

Nothing is substituted and no polynomial is divided, so no division can
fail.  Since r_alpha x = x - alpha(x) H_alpha, the divided difference has
two exact forms.  Taylor expansion along the coroot gives the finite sum

    (p - r_alpha p) / alpha = sum_{j >= 1} (-alpha)^(j-1) / j! d_{H_alpha}^j p,

evaluated Horner-style; it needs nothing but p, so `dunkl_apply` (and with
it `dunkl_compose` and the commutator checks) uses it on any polynomial.
Since r_alpha is a ring map with r_alpha x_i = x_i - H_alpha[i] alpha,

    (x_i c - r_alpha(x_i c)) / alpha
        = H_alpha[i] c + (x_i - H_alpha[i] alpha) (c - r_alpha c) / alpha,

which is x_i times the lower quotient when H_alpha[i] = 0.  `gram_matrix`
visits every monomial of every degree anyway, so it uses this product rule:
each quotient costs one linear form times a quotient one degree down, where
the Taylor sum rebuilds the whole tower of derivatives.  For one polynomial
the product rule would first need the quotients of all divisors of its
monomials, which is slower than the Taylor sum; kept apart, each form is
also an independent check on the other.

p(T) substitutes a commuting Dunkl operator for each coordinate: coordinate
x_i is paired with the direction dual to it under the root system's
invariant form (for the orthogonal realizations this is just e_i).  The
pairing <p, q> = (p(T) q)(0) is then symmetric, W-invariant, and positive
definite for positive multiplicities, and the adjoint of T_xi is
multiplication by the linear form dual to xi.

Gram matrices never compose operators entry by entry.  Write T_i for the
operator paired with x_i.  Since the T's commute, (x_i m)(T) = m(T) T_i, so

    <x_i m, c> = <m, T_i c>,

and on monomials of degree e the row of x_i m is the row of m in G_{e-1}
times the matrix of T_i (Dunkl and Xu, *Orthogonal Polynomials of Several
Variables*, ch. 7).  `gram_matrix` starts from G_0 = [1], peels the
lowest-index variable off each monomial, and needs T_i only on single
monomials; each root's divided difference of a monomial comes from the
product rule above with the same peel and is shared by every direction.
It holds G_e = N_e / s_e with N_e an integer matrix, fraction-free as in
Bareiss's elimination.  With D the lcm of the denominators of the dual
directions and of the weights k_alpha alpha(xi_i), and R that of H_alpha and
the reflected variables r_alpha x_i (1 on every supported system), the
tables hold R^e times the quotients, D R^e T_i is integral and
s_e = D R^e s_{e-1}.  The pairing vanishes across degrees, so a basis is
paired one homogeneous component at a time, scaled to integers by one lcm.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Sequence

from . import linalg
from .exactalg import Monomial, Polynomial, monomials_of_degree, rational
from .rootsys import (MultiplicityAssignment, RootSystem, WeylGroup, generate_weyl,
                      invariant_basis, reflection_matrix, root_system)


class DunklContext:
    """A root system, its Weyl group, and a multiplicity assignment."""

    def __init__(self, rs: RootSystem, weyl: WeylGroup, k: MultiplicityAssignment):
        self.rs = rs
        self.weyl = weyl
        self.k = k
        by_label = self.k.resolve(self.rs)
        self._terms = []
        for idx in self.rs.positive_indivisible():
            k_alpha = by_label[self.rs.orbit_labels[idx]]
            self._terms.append((k_alpha,
                                self.rs.roots[idx],
                                Polynomial.linear_form([-a for a in self.rs.roots[idx]]),
                                self.rs.coroots[idx]))
        form_inv = linalg.mat_inv(self.rs.form)
        self._dual_directions = [[row[i] for row in form_inv] for i in range(self.rs.rank)]

    @property
    def rank(self) -> int:
        return self.rs.rank


def _divided_difference(p: Polynomial, minus_alpha: Polynomial, coroot) -> Polynomial:
    """(p - r_alpha p) / alpha = sum_j (-alpha)^(j-1) q_j, q_j = d_H^j p / j!, by Horner."""
    q = [p]
    while q[-1]:
        q.append(q[-1].directional_derivative([h / len(q) for h in coroot]))
    total = Polynomial.zero(p.ambient_dim)
    for term in reversed(q[1:-1]):
        total = term + minus_alpha * total
    return total


def _root_weights(ctx: DunklContext, directions: Sequence[Sequence[Fraction]]) -> list:
    """(alpha, -alpha, H_alpha, [k_alpha alpha(xi) for xi in directions]) for each root
    that acts, alpha as its row of coefficients and -alpha as a polynomial.

    A root drops out when k_alpha = 0 or when alpha(xi) = 0 for every direction.
    """
    out = []
    for k_alpha, row, minus_alpha, coroot in ctx._terms:
        if not k_alpha:
            continue
        weights = [k_alpha * sum((a * c for a, c in zip(row, xi)), Fraction(0))
                   for xi in directions]
        if any(weights):
            out.append((row, minus_alpha, coroot, weights))
    return out


def dunkl_apply(ctx: DunklContext, xi: Sequence[Fraction | int], p: Polynomial) -> Polynomial:
    """Apply T_xi to p; homogeneous degree d goes to homogeneous degree d-1."""
    if len(xi) != ctx.rank:
        raise ValueError(f"direction of length {len(xi)} for rank {ctx.rank}")
    xi = [rational(c) for c in xi]
    image = p.directional_derivative(xi)
    for _, minus_alpha, coroot, (weight,) in _root_weights(ctx, [xi]):
        image = image + _divided_difference(p, minus_alpha, coroot) * weight
    return image


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
            direction = ctx._dual_directions[var]
            for _ in range(mono[var]):
                current = dunkl_apply(ctx, direction, current)
                if not current:
                    break
            if not current:
                break
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
    divided difference (c - r_alpha c) / alpha taken from the degree below by
    the product rule, each G_e held as N_e / s_e with N_e integral (see the
    module docstring).  Two degrees of tables are held at once; bases may mix degrees.
    """
    if any(b.ambient_dim != ctx.rank for b in basis):
        raise ValueError("polynomials must live on the reflection representation")
    # components[e][j]: (L, L times the degree-e terms of basis[j]), L their lcm denominator
    components: dict[int, dict[int, tuple]] = defaultdict(dict)
    for j, b in enumerate(basis):
        for e in set(map(sum, b.terms)):
            terms = b.homogeneous_component(e).terms
            den = lcm(*(c.denominator for c in terms.values()))
            components[e][j] = den, {m: int(den * coeff) for m, coeff in terms.items()}
    matrix = [[Fraction(0)] * len(basis) for _ in basis]
    acting = _root_weights(ctx, ctx._dual_directions)
    d = lcm(*(x.denominator for row in [*ctx._dual_directions, *(w for *_, w in acting)]
              for x in row))
    r = lcm(*((h * a).denominator for alpha, _, coroot, _ in acting
              for h in coroot for a in (1, *alpha)))
    directions = [[int(d * x) for x in xi] for xi in ctx._dual_directions]
    roots = [([int(d * w) for w in weights], _reflected_variables(alpha, coroot, r))
             for alpha, _, coroot, weights in acting]
    one = (0,) * ctx.rank
    gram, scale = {one: {one: 1}}, 1                # N_0 as sparse rows, s_0
    quotients = [{one: {}} for _ in roots]          # divided differences of 1 vanish
    canonical = {one: one}                          # the degree-(e-1) monomials
    for e in range(max(components, default=-1) + 1):
        if e:
            monos = monomials_of_degree(ctx.rank, e)
            for n, (_, reflected) in enumerate(roots):      # frees each lower table
                quotients[n] = _next_quotients(monos, quotients[n], reflected, canonical,
                                               r ** (e - 1))
            gram = _next_gram(monos, gram, [[r ** e * x for x in xi] for xi in directions],
                              roots, quotients)
            canonical = {m: m for m in monos}
            scale *= d * r ** e
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


def _times_variable(m: Monomial, j: int) -> Monomial:
    """x_j m."""
    return m[:j] + (m[j] + 1,) + m[j + 1:]


def _reflected_variables(alpha, coroot, r: int) -> list[tuple]:
    """(r H_alpha[i], r r_alpha x_i) for each i, with r_alpha x_i = x_i - H_alpha[i] alpha.

    The linear form is a list of (variable, coefficient) pairs, read off row i
    of the reflection matrix.  r clears every denominator, so they are ints.
    """
    return [(int(r * h), [(j, int(r * a)) for j, a in enumerate(row) if a])
            for h, row in zip(coroot, reflection_matrix(alpha, coroot))]


def _product_rule(h, reflected: list, rest: Monomial, lower: dict, canonical: dict) -> dict:
    """Terms of (c - r_alpha c) / alpha for c = x_i c', from lower = that quotient of c'.

    r_alpha(x_i c') = r_alpha(x_i) r_alpha(c') and r_alpha c' = c' - alpha q'
    give H_alpha[i] c' + r_alpha(x_i) q' (scaled as in `gram_matrix`); with
    h = 0 this is x_i q'.  Monomials come from `canonical`, one tuple each.
    """
    if not h:
        ((i, a),) = reflected
        return {canonical[_times_variable(t, i)]: a * q for t, q in lower.items()}
    out = {rest: h}
    for t, q in lower.items():
        for j, a in reflected:
            mono = canonical[_times_variable(t, j)]
            acc = out.get(mono, 0) + a * q
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return out


def _next_quotients(monos: Sequence[Monomial], lower: dict, reflected: list,
                    canonical: dict, lift: int) -> dict:
    """One root's divided differences on the degree-e monomials, from degree e-1.

    lift = R^(e-1) (see `gram_matrix`); canonical maps each degree-(e-1) monomial to itself.
    """
    table = {}
    for c in monos:
        i, rest = _peel(c)
        h, form = reflected[i]
        table[c] = _product_rule(lift * h, form, canonical[rest], lower[rest], canonical)
    return table


def _next_gram(monos: Sequence[Monomial], previous: dict, directions, roots,
               quotients: list) -> dict:
    """N_e from N_{e-1}: row x_i m' is row m' of N_{e-1} times D R^e T_i, i lowest in x_i m'.

    T_i c = d_i c + sum_alpha k_alpha alpha(xi_i) (c - r_alpha c) / alpha, the
    quotients read from this degree's tables; with `directions` scaled by D R^e
    and the weights by D, every sum is over ints.  N_e is filled one column c
    at a time, so only the images of one monomial are held.
    """
    gram: dict = {m: {} for m in monos}
    rows = []                   # (row of x_i m', i, row of m' in G_{e-1})
    for m in monos:
        i, rest = _peel(m)
        rows.append((gram[m], i, previous[rest]))
    for c in monos:
        images = []
        for xi in directions:
            image = defaultdict(int)
            for v in compress(range(len(c)), c):
                if xi[v]:
                    image[c[:v] + (c[v] - 1,) + c[v + 1:]] += c[v] * xi[v]
            images.append(image)
        for (weights, _), table in zip(roots, quotients):
            quot = table[c]
            for image, w in zip(images, weights):
                if w:
                    for t, q in quot.items():
                        image[t] += w * q
        for row, i, lower in rows:
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
    return DunklContext(rs=rs, weyl=generate_weyl(rs), k=k)
