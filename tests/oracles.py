"""Independent oracles used only by the tests.

Everything here is deliberately written against closed forms, plain
derivative composition, reflection and division, or the Taylor form of the
divided difference, sharing no code with the operator implementations it
checks.  `taylor_dunkl` is the second form of T_xi: the package keeps only
the product-rule quotients, and the Gram oracles `composed_gram` and
`dunkl_pairing` compose through the Taylor form instead.  `kernel_invariants`
is the second form of the Takiff invariants at m >= 1: the package spans them
by products of polarized generators, and the oracle solves for them as the
joint kernel of the adjoint derivations on S^d(g_m).
`restricted_generator_image` is the second form of the restriction image at
m >= 1: the package polarizes W's basic invariants on h, and the oracle
restricts g's own, found from g's kernel by the same complement search.
`rank_one_image` is the same construction for the group of one reflection,
and `intersection` intersects two canonical subspaces, so that the tests can
cut the image out root by root.  `kronecker_takiff`
is the second form of g_m itself: commutators of matrices X (x) N^s,
against the package's truncated structure constants.  The last section
holds the checks and helpers that only tests call: the pairing and the
identities it satisfies and the group action on polynomials.  The package
holds a Weyl group by its generators only; `breadth_first_group` closes a
finite one here, by the textbook product.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import factorial, gcd

from dunklinv.dunkl import dunkl_apply, dunkl_compose
from dunklinv.exactalg import (Polynomial, divide_with_remainder, mono_from_variables,
                               monomials_of_degree, rational)
from dunklinv.liealg import (_monomial_derivation, basic_invariants, derivation_generators,
                             invariants_graded, polarized_products)
from dunklinv.linalg import GradedSubspace, joint_kernel, mat_inv, mat_vec, nullspace
from dunklinv.restriction import CartanFrame, restrict
from dunklinv.rootsys import WeylGroup, invariant_basis, reynolds, root_system


def a1_dunkl_monomial(n: int, k) -> Polynomial:
    """Closed-form rank-1 operator on x1^n: (n + k(1 - (-1)^n)) x1^(n-1)."""
    if n == 0:
        return Polynomial.zero(1)
    coeff = Fraction(n) + Fraction(k) * (1 - (-1) ** n)
    return Polynomial(1, {(n - 1,): coeff})


def a1_dunkl(p: Polynomial, k) -> Polynomial:
    out = Polynomial.zero(1)
    for (n,), coeff in p.terms.items():
        out = out + a1_dunkl_monomial(n, k) * coeff
    return out


def a1_pairing(p: Polynomial, q: Polynomial, k) -> Fraction:
    """p(T) q at 0 using only the closed-form rank-1 operator."""
    total = Fraction(0)
    for (n,), coeff in p.terms.items():
        current = q
        for _ in range(n):
            current = a1_dunkl(current, k)
        total += coeff * current.coefficient((0,) * current.ambient_dim)
    return total


def two_sided_dunkl(rs, k, xi, p: Polynomial) -> Polynomial:
    """T_xi p as the literal sum over every root, positive and negative:

        d_xi p + 1/2 sum_{alpha in Sigma} k_alpha alpha(xi) (p - r_alpha p) / alpha

    Built from the root table, its reflections and the resolved
    multiplicities alone, not from the operator's own per-root terms, and
    by substitution and polynomial division, which the operator never
    runs; the zero remainder asserts that alpha divides p - r_alpha p.
    """
    k_by_label = k.resolve(rs)
    result = p.directional_derivative(xi)
    for idx, alpha in enumerate(rs.roots):
        weight = k_by_label[rs.orbit_labels[idx]] * sum(
            (a * Fraction(c) for a, c in zip(alpha, xi)), Fraction(0)) / 2
        if weight:
            diff = p - p.substitute(rs.reflection(idx))
            quotient, remainder = divide_with_remainder(diff, Polynomial.linear_form(alpha))
            assert not remainder, f"{alpha} does not divide p - r_alpha p"
            result = result + quotient * weight
    return result


def taylor_divided_difference(p: Polynomial, alpha, coroot) -> Polynomial:
    """(p - r_alpha p) / alpha by Taylor expansion along the coroot,

        sum_{j >= 1} (-alpha)^(j-1) q_j,   q_j = d_{H_alpha}^j p / j!,

    summed Horner-style: derivatives and products only, no reflection, no
    division and no product rule."""
    minus_alpha = Polynomial.linear_form([-a for a in alpha])
    q = [p]
    while q[-1]:
        q.append(q[-1].directional_derivative([h / len(q) for h in coroot]))
    total = Polynomial.zero(p.ambient_dim)
    for term in reversed(q[1:-1]):
        total = term + minus_alpha * total
    return total


def taylor_dunkl(rs, k, xi, p: Polynomial) -> Polynomial:
    """T_xi p = d_xi p + sum_{alpha > 0} k_alpha alpha(xi) (p - r_alpha p) / alpha,
    one `taylor_divided_difference` per positive indivisible root, built from
    the root table and the resolved multiplicities alone."""
    k_by_label = k.resolve(rs)
    xi = [rational(c) for c in xi]
    result = p.directional_derivative(xi)
    for idx in rs.positive_indivisible():
        alpha = rs.roots[idx]
        weight = k_by_label[rs.orbit_labels[idx]] * sum(
            (a * c for a, c in zip(alpha, xi)), Fraction(0))
        if weight:
            result = result + taylor_divided_difference(p, alpha, rs.coroots[idx]) * weight
    return result


def naive_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p q by the schoolbook double loop over their terms; the Polynomial
    constructor adds up equal monomials and drops what cancels."""
    return Polynomial(p.ambient_dim, [(tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                                      for m1, c1 in p.terms.items()
                                      for m2, c2 in q.terms.items()])


def tower_substitute(p: Polynomial, matrix) -> Polynomial:
    """p(Mx) in Fractions: x_i becomes the linear form of row i, each monomial
    is the product of those forms, one `naive_product` per factor, and the
    terms are summed."""
    n = p.ambient_dim
    forms = [Polynomial.linear_form(row) for row in matrix]
    total = Polynomial.zero(n)
    for mono, coeff in p.terms.items():
        term = Polynomial.constant(n, coeff)
        for v, e in enumerate(mono):
            for _ in range(e):
                term = naive_product(term, forms[v])
        total = total + term
    return total


def termwise_map(p: Polynomial, image, den) -> Polynomial:
    """sum_m p_m image(m) / den(|m|) in `Fraction`s, term by term: each image
    term becomes its own `Fraction`, with no common scale and no integer sum."""
    total = Polynomial.zero(p.ambient_dim)
    for mono, coeff in p.terms.items():
        for k, x in image(mono).items():
            total = total + Polynomial(p.ambient_dim, {k: coeff * Fraction(x, den(sum(mono)))})
    return total


def classical_root_table(name: str) -> dict[tuple, tuple[tuple, str]]:
    """{root: (coroot, label)} enumerated by hand from the classical descriptions.

    A_n: roots t_i - t_j in simple-coroot coordinates (t_i = x_i - x_{i-1},
    x_0 = x_{n+1} = 0), coroot H_i + ... + H_{j-1} up to sign.  B/C/D:
    +-e_i +- e_j (their own coroots), then +-e_i (B, coroot +-2e_i) or
    +-2e_i (C, coroot +-e_i).  G2: c1 alpha1 + c2 alpha2 in simple-coroot
    coordinates with alpha1 = (2, -1) short and alpha2 = (-3, 2) long.
    """
    type_, n = name[0], int(name[1])
    table = {}

    def add(row, coroot, label):
        table[tuple(Fraction(x) for x in row)] = (tuple(Fraction(x) for x in coroot), label)

    def unit(i, scale=1):
        return [scale if j == i else 0 for j in range(n)]

    if type_ == "A":
        def t_row(i):
            row = [0] * n
            if i <= n:
                row[i - 1] += 1
            if i >= 2:
                row[i - 2] -= 1
            return row

        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if i != j:
                    lo, hi = min(i, j), max(i, j)
                    sign = 1 if i < j else -1
                    add([a - b for a, b in zip(t_row(i), t_row(j))],
                        [sign if lo <= k + 1 < hi else 0 for k in range(n)], "all")
    elif type_ in "BCD":
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        row = [0] * n
                        row[i], row[j] = si, sj
                        add(row, row, {"B": "long", "C": "short", "D": "all"}[type_])
        for i in range(n):
            for s in (1, -1):
                if type_ == "B":
                    add(unit(i, s), unit(i, 2 * s), "short")
                elif type_ == "C":
                    add(unit(i, 2 * s), unit(i, s), "long")
    else:
        a1, a2 = (2, -1), (-3, 2)
        for (c1, c2), label in [((1, 0), "short"), ((0, 1), "long"), ((1, 1), "short"),
                                ((2, 1), "short"), ((3, 1), "long"), ((3, 2), "long")]:
            row = (c1 * a1[0] + c2 * a2[0], c1 * a1[1] + c2 * a2[1])
            coroot = (c1, 3 * c2) if label == "short" else (Fraction(c1, 3), c2)
            for s in (1, -1):
                add([s * x for x in row], [s * h for h in coroot], label)
    return table


# -- dense elimination, the differential oracle beside sympy --------------------

def transpose(a) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def mat_mul(a, b) -> list[list[Fraction]]:
    """a b for Fraction or int entries."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def det(a) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Q with row swaps."""
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


def _integer_rows(rows) -> list[list[int]]:
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


def dense_rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of dense rows by column-by-column elimination."""
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


def dense_nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Kernel basis of dense rows, one vector per free column, unit at that column."""
    reduced, pivots = dense_rref(rows, ncols)
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


def stacked_kernel(space, maps) -> list[Polynomial]:
    """Joint kernel by one dense elimination: the coefficient rows of every
    map's images of the whole space, stacked into a single matrix."""
    rows = []
    for linear_map in maps:
        images = [linear_map(p) for p in space]
        support = set()
        for q in images:
            support.update(q.terms)
        rows.extend([q.coefficient(mono) for q in images] for mono in sorted(support))
    kernel = dense_nullspace(rows, len(space))
    return [sum((p * c for p, c in zip(space, vec) if c), Polynomial.zero(space[0].ambient_dim))
            for vec in kernel]


def polynomial_joint_kernel(space, maps) -> list[Polynomial]:
    """Joint kernel of polynomial maps on span(space), one elimination per map.

    Each map is applied to the current spanning polynomials; each monomial of
    the images gives one dense row over the spanning elements, and the
    spanning list is recombined from `dense_nullspace` in `Fraction`s.  A map
    whose images are all zero is skipped.
    """
    space = list(space)
    for linear_map in maps:
        if not space:
            break
        rows: dict = {}
        for j, p in enumerate(space):
            for mono, c in linear_map(p).terms.items():
                rows.setdefault(mono, [0] * len(space))[j] = c
        if rows:
            space = [sum((p * c for p, c in zip(space, vec) if c),
                         Polynomial.zero(space[0].ambient_dim))
                     for vec in dense_nullspace(list(rows.values()), len(space))]
    return space


def sl_basis(n: int) -> tuple:
    """The Chevalley basis e_ij (i < j), h_k = E_kk - E_k+1,k+1, f_ij of sl(n)
    as dense matrices, and the decoder of a traceless matrix into its
    coordinates, written by hand: an off-diagonal entry is an e or f
    coordinate, and the h_k coordinate is the diagonal summed through k."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def unit(*entries):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for r, c, x in entries:
            mat[r][c] = Fraction(x)
        return mat

    def expand(mat) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for idx, (i, j) in enumerate(pairs):
            if mat[i][j]:
                out[idx] = mat[i][j]
            if mat[j][i]:
                out[len(pairs) + n - 1 + idx] = mat[j][i]
        partial = Fraction(0)
        for k in range(n - 1):
            partial += mat[k][k]
            if partial:
                out[len(pairs) + k] = partial
        return out

    mats = ([unit((i, j, 1)) for i, j in pairs]
            + [unit((k, k, 1), (k + 1, k + 1, -1)) for k in range(n - 1)]
            + [unit((j, i, 1)) for i, j in pairs])
    return mats, expand


def sl_structure(n: int) -> tuple[tuple, tuple]:
    """Structure constants and trace form of sl(n) in the Chevalley basis of
    `sl_basis`, each commutator multiplied out densely and decoded by hand."""
    mats, expand = sl_basis(n)
    structure = tuple(tuple(expand([[a - b for a, b in zip(ab, ba)]
                                    for ab, ba in zip(mat_mul(x, y), mat_mul(y, x))])
                            for y in mats) for x in mats)
    form = tuple(tuple(sum((x[r][c] * y[c][r] for r in range(n) for c in range(n)), Fraction(0))
                       for y in mats) for x in mats)
    return structure, form


def kronecker_takiff(n: int, m: int) -> tuple[tuple, tuple]:
    """Structure constants and top-degree form of sl(n)_m on the flat basis
    u dim(sl(n)) + k, from matrices: X_k (x) T^u is the Kronecker product
    X_k (x) N^u, N the (m + 1) x (m + 1) nilpotent shift, so N^(m+1) = 0
    truncates every commutator with no rule for it.  The level-u coordinates
    of a commutator are its entries at rows (r, 0) and columns (c, u),
    decoded by `sl_basis`, and the commutator must be rebuilt from them.
    The form of A and B is the trace of the block of AB at rows (r, 0) and
    columns (c, m): tr(XY) when s + t = m, and 0 otherwise.  Matrices are
    sparse, {(row, column): entry}."""
    mats, expand = sl_basis(n)
    levels = m + 1

    def product(a, b):
        out: dict = {}
        for (r, k), x in a.items():
            for (l, c), y in b.items():
                if k == l:
                    out[r, c] = out.get((r, c), 0) + x * y
        return out

    def block(mat, u):
        return [[mat.get((r * levels, c * levels + u), 0) for c in range(n)] for r in range(n)]

    basis = [{(r * levels + a, c * levels + a + u): x                  # X (x) N^u
              for r, row in enumerate(mat) for c, x in enumerate(row) if x
              for a in range(levels - u)}
             for u in range(levels) for mat in mats]
    structure = []
    for a in basis:
        row = []
        for b in basis:
            bracket = product(a, b)
            for key, x in product(b, a).items():
                bracket[key] = bracket.get(key, 0) - x
            coords = {u * len(mats) + k: c for u in range(levels)
                      for k, c in expand(block(bracket, u)).items()}
            rebuilt: dict = {}
            for x, c in coords.items():
                for key, y in basis[x].items():
                    rebuilt[key] = rebuilt.get(key, 0) + c * y
            assert {k: x for k, x in rebuilt.items() if x} == \
                {k: x for k, x in bracket.items() if x}, "commutator outside the span"
            row.append(coords)
        structure.append(tuple(row))
    form = tuple(tuple(sum((block(product(a, b), m)[r][r] for r in range(n)), Fraction(0))
                       for b in basis) for a in basis)
    return tuple(structure), form


def bracket_derivation(gm, x: int, p: Polynomial) -> Polynomial:
    """sum_y [X_x, Y] dp/dy on S[g_m], from the base structure constants.

    [X_i T^s, X_j T^t] = sum_k c_ijk X_k T^(s+t), zero once s + t > m, with
    c_ijk read from `gm.base.structure` as `Fraction`s; every product and sum
    is `Polynomial` arithmetic.
    """
    base = gm.base
    i, s = x % base.dim, x // base.dim
    result = Polynomial.zero(gm.dim)
    for y in range(gm.dim):
        j, t = y % base.dim, y // base.dim
        if s + t > gm.m:
            continue
        unit = [Fraction(int(v == y)) for v in range(gm.dim)]
        partial = p.directional_derivative(unit)
        for k, c in base.structure[i][j].items():
            result = result + variable(gm.dim, (s + t) * base.dim + k) * partial * c
    return result


def kernel_invariants(gm, degree: int, order=None):
    """Canonical degree-d invariants of g_m as a joint kernel, at any m: the
    derivations run on the monomials of weight zero under the base Cartan,
    block by block of total T-degree (the truncated bracket preserves it).
    `order` lists the derivations (basis indices) to run; by default every
    one but the diagonal base-Cartan ones, highest T-degree first, since
    ad(X (x) T^s) kills every variable of T-degree above m - s."""
    if order is None:
        order = sorted(derivation_generators(gm), key=lambda x: -(x // gm.base.dim))
    # One integer per weight, in a base above twice any weight sum of the degree.
    base = 2 * degree * max((abs(w) for weight in gm._weights for w in weight), default=0) + 1
    packed = [sum(w * base ** i for i, w in enumerate(weight)) for weight in gm._weights]
    blocks: dict = {}
    for variables in combinations_with_replacement(range(gm.dim), degree):
        if not sum(packed[v] for v in variables):
            blocks.setdefault(sum(v // gm.base.dim for v in variables), []).append(
                mono_from_variables(gm.dim, variables))
    maps = [partial(_monomial_derivation, gm, x) for x in order]
    survivors = [p for tau in sorted(blocks)
                 for p in joint_kernel(gm.dim, degree, maps, blocks[tau]).basis]
    return GradedSubspace.from_polynomials(survivors, gm.dim, degree)


def kernel_image(frame, degree: int):
    """The restriction image at degree d: `kernel_invariants` restricted to h_m."""
    invariants = kernel_invariants(frame.gm, degree)
    return GradedSubspace.from_polynomials([restrict(frame, b) for b in invariants.basis],
                                           frame.dim, degree)


def restricted_generator_image(frame, degree: int):
    """The restriction image at m >= 1 by the Lie path: g's basic invariants,
    found from its kernel at m = 0, restricted to h, polarized to h_m and
    multiplied out to degree d.  The package reads W's generators instead."""
    g = frame.gm.base
    rank = len(g.cartan_indices)
    generators = [restrict(CartanFrame(g), p)
                  for p in basic_invariants(partial(invariants_graded, g), rank, degree)]
    return GradedSubspace.from_polynomials(
        [Polynomial(frame.dim, terms)
         for terms in polarized_products(generators, rank, frame.m, degree)], frame.dim, degree)


def rank_one_image(frame, k: int, degree: int) -> GradedSubspace:
    """Image_<r_alpha>(m, d) for alpha = frame.positive_roots[k]: the canonical
    span of the degree-d products of the level-m polarizations of the basic
    invariants of the two-element group <r_alpha> on h, found as `image_basis`
    finds W's, with r_alpha read as the frame's `base_weyl.generators[k]`."""
    rank = frame.rs.rank
    group = WeylGroup(rank, (frame.base_weyl.generators[k],))
    generators = basic_invariants(partial(invariant_basis, group), rank, degree)
    return GradedSubspace.from_polynomials(
        [Polynomial(frame.dim, terms)
         for terms in polarized_products(generators, rank, frame.m, degree)], frame.dim, degree)


def intersection(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """A ∩ B, canonical: sum_i x_i a_i for each kernel vector (x, y) of the
    stacked bases [a_1 .. a_p, -b_1 .. -b_q], by `linalg.nullspace`."""
    rows: dict = {}
    for column, p in enumerate([*a.basis, *(-q for q in b.basis)]):
        for mono, c in p.terms.items():
            rows.setdefault(mono, {})[column] = c
    kernel = nullspace(list(rows.values()), a.dim + b.dim)
    return GradedSubspace.from_polynomials(
        [sum((a.basis[i] * x for i, x in vector.items() if i < a.dim),
             Polynomial.zero(a.ambient_dim)) for vector in kernel], a.ambient_dim, a.degree)


def delta_direction(gm, x) -> list[Fraction]:
    """delta(X) as a direction on g_m: generator Y gets <X, Y> in the Takiff pairing.

    X is a basis index or a coefficient vector on the flat basis.
    """
    element = {x: Fraction(1)} if isinstance(x, int) else dict(enumerate(x))
    return [sum((Fraction(c) * gm.form[v][y] for v, c in element.items() if c), Fraction(0))
            for y in range(gm.dim)]


def coroot_delta(frame, i: int) -> list[Fraction]:
    """delta(H_alpha (x) T^m) for root i of `frame.rs`, built on all of g_m by
    `delta_direction` and read at the frame's Cartan variables."""
    gm = frame.gm
    element = [Fraction(0)] * gm.dim
    for c, h in zip(gm.base.cartan_indices, frame.rs.coroots[i]):
        element[gm.flat(c, gm.m)] = h
    direction = delta_direction(gm, element)
    return [direction[v] for v in frame.cartan_flat]


def coroot_remainder(frame, i: int, n: int, q: Polynomial) -> Polynomial:
    """Condition 2 in `Fraction`s: the remainder of delta^n q by h^n, for h the
    coordinate of H_alpha (x) T^m (alpha root i of `frame.rs`) and delta from
    `coroot_delta`, applied n times by `directional_derivative` and then
    divided by `divide_with_remainder`."""
    cartan, coroot, m = frame.gm.base.cartan_indices, frame.rs.coroots[i], frame.gm.m
    h = Polynomial.linear_form([coroot[cartan.index(c)] if s == m else 0
                                for c, s in frame.raw_pairs])
    direction = coroot_delta(frame, i)
    for _ in range(n):
        q = q.directional_derivative(direction)
    return divide_with_remainder(q, h ** n)[1]


def breadth_first_group(generators) -> tuple:
    """Closure of square matrix generators under the textbook product, breadth-first
    from the identity, elements in discovery order.  There is no bound: call it on
    finite groups only."""
    n = len(generators[0])

    def product(a, b):
        return tuple(tuple(sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(n)),
                               Fraction(0)) for j in range(n)) for i in range(n))

    identity = tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n))
    elements, frontier = [identity], [identity]
    while frontier:
        found = []
        for w in frontier:
            for g in generators:
                wg = product(w, g)
                if wg not in elements:
                    elements.append(wg)
                    found.append(wg)
        frontier = found
    return tuple(elements)


def root_orbits(rs, weyl) -> list[set[int]]:
    """W-orbits on the roots (acting on functionals by alpha o w^{-1})."""
    index = {row: i for i, row in enumerate(rs.roots)}
    remaining = set(range(len(rs.roots)))
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for i in frontier:
                for g in weyl.generators:
                    j = index[tuple(mat_vec(transpose(g), rs.roots[i]))]
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(j)
            frontier = nxt
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def apolarity(p: Polynomial, q: Polynomial) -> Fraction:
    """Fischer pairing sum_a a! p_a q_a (orthonormal coordinates)."""
    total = Fraction(0)
    for mono, c in p.terms.items():
        d = q.terms.get(mono)
        if d:
            fact = 1
            for e in mono:
                fact *= factorial(e)
            total += c * d * fact
    return total


def derivative_pairing(p: Polynomial, q: Polynomial, directions) -> Fraction:
    """Plain-derivative composition path: x_i acts as the derivative along
    directions[i].  Touches no Dunkl code at all."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        current = q
        for var, exp in reversed(list(enumerate(mono))):
            for _ in range(exp):
                current = current.directional_derivative(directions[var])
        total += coeff * current.coefficient((0,) * current.ambient_dim)
    return total


def series_coefficients(generator_degrees, upto: int) -> list[int]:
    """Coefficients of prod 1/(1 - t^d), by truncated geometric-series product."""
    coeffs = [1] + [0] * upto
    for d in generator_degrees:
        geometric = [1 if i % d == 0 else 0 for i in range(upto + 1)]
        coeffs = [sum(coeffs[j] * geometric[i - j] for j in range(i + 1))
                  for i in range(upto + 1)]
    return coeffs


def seeded_polynomials(rng, dim: int, max_degree: int, count: int,
                       homogeneous: int | None = None) -> list[Polynomial]:
    """Deterministic random corpus with small rational coefficients."""
    out = []
    degrees = [homogeneous] if homogeneous is not None else list(range(max_degree + 1))
    for _ in range(count):
        terms = {}
        for d in degrees:
            for mono in monomials_of_degree(dim, d):
                if rng.random() < 0.45:
                    num = rng.randint(-5, 5)
                    if num:
                        terms[mono] = Fraction(num, rng.randint(1, 4))
        out.append(Polynomial(dim, terms))
    return out


def composed_gram(ctx, basis) -> list[list[Fraction]]:
    """Gram matrix entry by entry: one full Taylor-form composition p(T) q per pair."""
    return [[dunkl_pairing(ctx, b, c) for c in basis] for b in basis]


# -- test-only API: the pairing, its identities, the group action ----------------

def variable(ambient_dim: int, index: int) -> Polynomial:
    """The coordinate x_(index + 1) as a polynomial in ambient_dim variables."""
    return Polynomial(ambient_dim, {tuple(int(v == index) for v in range(ambient_dim)): 1})


def dunkl_pairing(ctx, p: Polynomial, q: Polynomial) -> Fraction:
    """<p, q> = (p(T) q)(0), each T from `taylor_dunkl`: x_i acts along the
    form-dual of e_i, column i of the inverse form.  Symmetric, and zero
    across distinct homogeneous degrees."""
    directions = transpose(mat_inv(ctx.rs.form))
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        current = q
        for var, exp in reversed(list(enumerate(mono))):
            for _ in range(exp):
                current = taylor_dunkl(ctx.rs, ctx.k, directions[var], current)
        total += coeff * current.coefficient((0,) * current.ambient_dim)
    return total


def invariant_stability_check(ctx, p: Polynomial, q: Polynomial) -> bool:
    """For W-invariant p, q: is p(T) q again W-invariant?  Must be True."""
    if reynolds(ctx.weyl, p) != p or reynolds(ctx.weyl, q) != q:
        raise ValueError("invariant_stability_check requires W-invariant inputs")
    image = dunkl_compose(ctx, p, q)
    return reynolds(ctx.weyl, image) == image


def dual_form(ctx, xi) -> Polynomial:
    """The linear form <xi, .> dual to the vector xi: multiplication partner of T_xi."""
    return Polynomial.linear_form(mat_vec(ctx.rs.form, xi))


def adjointness_check(ctx, xi, p: Polynomial, q: Polynomial) -> bool:
    """<xi . p, q> == <p, T_xi q> with xi. multiplication by the dual form."""
    left = dunkl_pairing(ctx, dual_form(ctx, xi) * p, q)
    right = dunkl_pairing(ctx, p, dunkl_apply(ctx, xi, q))
    return left == right


def equivariance_check(ctx, w, xi, p: Polynomial) -> bool:
    """w . T_xi (w^{-1} . p) == T_{w xi} p for a Weyl element w."""
    xi = [rational(c) for c in xi]
    inner = dunkl_apply(ctx, xi, act(mat_inv(w), p))
    left = act(w, inner)
    right = dunkl_apply(ctx, mat_vec(w, xi), p)
    return left == right


def act(w, p: Polynomial) -> Polynomial:
    """Left action on functions: (w.p)(x) = p(w^{-1} x)."""
    if p.ambient_dim != len(w):
        raise ValueError("polynomial dimension does not match the group rank")
    return p.substitute(mat_inv(w))


def conjugated_a2() -> tuple:
    """The A2 simple reflections conjugated by s = diag(1, 1/3): entries 1/3 and 3."""
    s, s_inv = [[1, 0], [0, Fraction(1, 3)]], [[1, 0], [0, 3]]
    a2 = root_system("A2")
    return tuple(tuple(map(tuple, mat_mul(mat_mul(s, a2.reflection(i)), s_inv))) for i in range(2))
