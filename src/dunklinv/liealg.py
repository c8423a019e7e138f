"""Lie algebras by structure constants, Takiff extensions, and invariants.

A Lie algebra is built from a basis of matrices (`matrix_algebra`): the
bracket is the commutator, read back in that basis, and the form is the
trace form of the matrices.  `make_sl(n)` supplies the Chevalley basis of
sl(n) for any n >= 2.  A Takiff algebra g_m = g (x) C[T]/T^{m+1} is one more
`LieAlgebra` (`takiff_extend`), with the truncated bracket and the
top-degree form; g_0 is g itself.  Every algebra given by its own table is
validated (antisymmetry, Jacobi, an invariant nondegenerate form), and g_m
records g as its base and trusts g's checked axioms, from which its own
follow; the test suite validates every g_m the CLI builds.

The symmetric algebra S[g_m] is realized literally: polynomial variable
(i, s) *is* the basis vector X_i (x) T^s, with flat index s*dim(g) + i, and
the adjoint action extends Y -> [X, Y] as a derivation.  Invariance is
tested through these derivations (the group is connected, so Lie-algebra
invariance is group invariance).

The graded invariants come from a theorem when m >= 1.  S(g_m)^{g_m} is the
polynomial ring on the polarizations of the basic invariants of g: for p of
degree d, the coefficients of t^j, m(d - 1) <= j <= md, in
p(sum_s X (x) T^s t^s) (M. Rais and P. Tauvel, J. reine angew. Math. 425,
1992; T. Macedo and A. Savage, J. Pure Appl. Algebra 223, 2019).  So
`invariants_graded` at m >= 1 spans the degree-d products of these
polarizations (`polarizations`, `polarized_products`), all in ints.
`basic_invariants` finds basic generators of any graded invariant ring
from its canonical bases, degree by degree: here those of g's kernel at
m = 0, found again on each call, and in the restriction module those of
the Weyl group on h.  m = 0 keeps the kernel: there `invariants_graded` is one
`linalg.joint_kernel` call, the canonical joint kernel of the derivations on
the monomials of weight zero under the base Cartan, filtered as multisets of
variables by integer sums, because `chevalley check` tests Chevalley's
theorem and so must not assume it.

The bracket table is scaled once to integers by a common denominator
(`exactalg.integral`, as are the Cartan weights and the form).  The
Jacobi and invariance checks read it exactly (they are homogeneous in the
constants), and so does the derivation of a monomial: an integer image keyed
by exponent vectors, the package's one monomial form, which the kernel path
takes as it is.  `adjoint_derivation` hands that same map to
`exactalg.apply_map`, which scales a polynomial to integers once and makes
one `Fraction` per term of its image.

Rendered names follow the base algebra with a tensor-degree suffix:
"h" is h (x) 1 and "h_2" is h (x) T^2.  The form of g_m is the top-degree
one; the contraction directions delta(H (x) T^m) that the restriction
criterion needs are read on h from the frame's root system
(`restriction.RootFrame.delta_direction`).  The test suite rechecks the
invariants against every basis derivation, and at m >= 1 against the
kernel on all of S^d(g_m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations, combinations_with_replacement, takewhile
from typing import Callable, Mapping, Sequence

from .exactalg import (WORK_BOUND, Monomial, Polynomial, apply_map, check_work_bound, integral,
                       mono_from_variables, product, rational, substitution)
from .linalg import GradedSubspace, Matrix, _canonical, _pivot_rows, joint_kernel, mat_inv, rref


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q by structure constants, with a
    symmetric invariant nondegenerate form: g itself, or a Takiff algebra g_m
    from `takiff_extend`, which records g as its `base` and m as its `m`.

    An algebra that is its own base (any table given here, every
    `matrix_algebra`) is validated at construction, each bracket a dict and
    each entry read through `exactalg.rational`, so a float is a TypeError.
    A Takiff algebra is not: its axioms follow from those of its base,
    already checked."""

    def __init__(self, dim: int, basis_names: tuple[str, ...],
                 structure: tuple[tuple[dict[int, Fraction], ...], ...],
                 form: tuple[tuple[Fraction, ...], ...], cartan_indices: tuple[int, ...],
                 base: LieAlgebra | None = None, m: int = 0):
        if base is None:
            if not all(isinstance(entry, Mapping) for row in structure for entry in row):
                raise TypeError("each bracket is a dict {basis index: coefficient}")
            structure = tuple(tuple({k: rational(c) for k, c in entry.items()} for entry in row)
                              for row in structure)
            form = tuple(tuple(map(rational, row)) for row in form)
        self.dim = dim
        self.basis_names = basis_names
        self.structure = structure          # [X_i, X_j] = sum_k c_ijk X_k
        self.form = form
        self.cartan_indices = cartan_indices
        self.base, self.m = self if base is None else base, m   # g is its own g_0
        # the bracket times one common denominator, in ints
        self._den, scaled = integral([entry.values() for row in structure for entry in row])
        values = iter(scaled)
        self._table = [[dict(zip(entry, next(values))) for entry in row] for row in structure]
        # per basis index x, the variables that ad(X_x) does not kill
        self._acting = [[v for v, image in enumerate(row) if image] for row in self._table]
        if self.base is self:
            self._validate()

    def flat(self, i: int, s: int) -> int:
        """The basis index of X_i (x) T^s, X_i a basis vector of `base`."""
        return s * self.base.dim + i

    def cartan_weight(self, j: int) -> tuple[Fraction, ...]:
        """The weight of basis vector X_j: its ad(h_c)-eigenvalue for each Cartan h_c."""
        rows = [self.structure[c][j] for c in self.cartan_indices]
        if j in self.cartan_indices:
            if any(rows):
                raise ValueError("Cartan is not abelian")
            return tuple(Fraction(0) for _ in rows)
        if any(set(row) - {j} for row in rows):
            raise ValueError("basis is not a Cartan weight basis")
        return tuple(row.get(j, Fraction(0)) for row in rows)

    @cached_property
    def _weights(self) -> list[list[int]]:
        """Each variable's Cartan weight, scaled once to integers."""
        return integral([self.cartan_weight(v) for v in range(self.dim)])[1]

    def _validate(self) -> None:
        """Antisymmetry and the Jacobi identity on the integer table; the form
        symmetric, invariant and nondegenerate, that is of full rank under the
        fraction-free elimination of `linalg`.  Before these, `basis_names`,
        `structure`, `form` and each row of the last two must have `dim` entries,
        and every bracket must name only basis indices in range(dim)."""
        dim, table = self.dim, self._table
        shapes = [("basis_names", self.basis_names), ("structure", self.structure),
                  ("form", self.form),
                  *((f"structure row {i}", row) for i, row in enumerate(self.structure)),
                  *((f"form row {i}", row) for i, row in enumerate(self.form))]
        for what, entries in shapes:
            if len(entries) != dim:
                raise ValueError(f"{what} has {len(entries)} entries, not dim = {dim}")
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
        for i, j in pairs:
            if outside := [k for k in table[i][j] if type(k) is not int or k not in range(dim)]:
                raise ValueError(f"structure entry [{i}][{j}] names basis index {outside[0]!r}, "
                                 f"outside range({dim})")
        if any(table[i][j] != {k: -c for k, c in table[j][i].items()} for i, j in pairs):
            raise ValueError("structure constants are not antisymmetric")
        if any(self.form[i][j] != self.form[j][i] for i, j in pairs):
            raise ValueError("form is not symmetric")
        # Antisymmetry carries Jacobi from i < j < k to every ordering and to
        # repeated indices, so the first failing triple is a sorted one.
        for i, j, k in combinations(range(dim), 3):
            acc: dict[int, int] = {}
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                for l, c in table[y][z].items():
                    for r, c2 in table[x][l].items():
                        acc[r] = acc.get(r, 0) + c * c2
            if any(acc.values()):
                raise ValueError(f"Jacobi identity fails on basis triple {(i, j, k)}")
        _, form = integral(self.form)
        for i, j in pairs:
            for k in range(dim):
                lhs = sum(c * form[l][k] for l, c in table[i][j].items())
                rhs = sum(c * form[j][l] for l, c in table[i][k].items())
                if lhs + rhs != 0:
                    raise ValueError("form is not invariant under the bracket")
        if len(_pivot_rows([dict(enumerate(row)) for row in form])) < dim:
            raise ValueError("form is degenerate")


def matrix_algebra(matrices: Sequence[Matrix], names: Sequence[str],
                   cartan_indices: Sequence[int]) -> LieAlgebra:
    """The Lie algebra spanned by square matrices under the commutator, with
    the trace form tr(XY).

    [X_i, X_j] is read in the given basis off the pivot entries of the
    flattened matrices: one `rref` finds them and one `mat_inv`, kept as a
    sparse solve, turns them into coordinates.  Dependent matrices make that
    inverse singular, and a commutator that its coordinates do not rebuild
    lies outside the span: both are refused.
    """
    n = len(matrices[0])
    basis = [{(r, c): rational(x) for r, row in enumerate(mat) for c, x in enumerate(row) if x}
             for mat in matrices]
    _, pivots = rref([{r * n + c: x for (r, c), x in b.items()} for b in basis], n * n)
    pivots = [divmod(p, n) for p in pivots]
    inverse = mat_inv([[b.get(p, 0) for p in pivots] for b in basis])
    solve = {p: {k: x for k, x in enumerate(row) if x} for p, row in zip(pivots, inverse)}

    def coordinates(x, y):
        residue = {}                    # [x, y], less its rebuild below
        for (r, j), a in x.items():
            for (k, c), b in y.items():
                if j == k:
                    residue[r, c] = residue.get((r, c), 0) + a * b
                if c == r:
                    residue[k, j] = residue.get((k, j), 0) - a * b
        coords = {}
        for p, a in residue.items():
            for k, b in solve.get(p, {}).items():
                coords[k] = coords.get(k, 0) + a * b
        for k, c in coords.items():
            for p, a in basis[k].items():
                residue[p] = residue.get(p, 0) - c * a
        if any(residue.values()):
            raise ValueError("matrices are not closed under the commutator")
        return {k: c for k, c in coords.items() if c}

    structure = tuple(tuple(coordinates(x, y) for y in basis) for x in basis)
    form = tuple(tuple(sum((a * y.get((j, r), 0) for (r, j), a in x.items()), Fraction(0))
                       for y in basis) for x in basis)
    return LieAlgebra(len(basis), tuple(names), structure, form, tuple(cartan_indices))


def make_sl(n: int) -> LieAlgebra:
    """Chevalley basis of sl(n) with the defining-representation trace form;
    sl(2) keeps the names e, h, f."""
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entries = ([{(i, j): 1} for i, j in pairs]
               + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
               + [{(j, i): 1} for i, j in pairs])
    names = ([f"e{i + 1}{j + 1}" for i, j in pairs] + [f"h{k + 1}" for k in range(n - 1)]
             + [f"f{i + 1}{j + 1}" for i, j in pairs])
    matrices = [[[e.get((r, c), 0) for c in range(n)] for r in range(n)] for e in entries]
    return matrix_algebra(matrices, ("e", "h", "f") if n == 2 else names,
                          range(len(pairs), len(pairs) + n - 1))


def takiff_extend(g: LieAlgebra, m: int) -> LieAlgebra:
    """g_m = g (x) C[T]/T^{m+1} as a `LieAlgebra`; m = 0 returns g itself.

    X_i (x) T^s is basis index s dim(g) + i (`LieAlgebra.flat`), named after
    X_i with the suffix _s for s >= 1.  The bracket [X (x) T^s, Y (x) T^t] is
    [X, Y] (x) T^(s+t), zero once s + t > m, and the form is the top-degree
    one: <X (x) T^s, Y (x) T^t> = <X, Y> when s + t = m, and 0 otherwise.
    The Cartan indices are those of h (x) 1, whose weights grade S(g_m).
    g_m records g as its `base` and m as its `m`, and is not validated
    again: antisymmetry and Jacobi hold levelwise because they hold in g
    and T-degrees add, and the top-degree form is symmetric, invariant and
    nondegenerate because g's form is.
    """
    if not 0 <= m <= 3:
        raise ValueError("truncation order m must be within 0..3")
    if not m:
        return g
    n, levels = g.dim, range(m + 1)
    structure = tuple(tuple({(s + t) * n + k: c for k, c in g.structure[i][j].items()}
                            if s + t <= m else {} for t in levels for j in range(n))
                      for s in levels for i in range(n))
    form = tuple(tuple(g.form[i][j] if s + t == m else Fraction(0)
                       for t in levels for j in range(n)) for s in levels for i in range(n))
    names = tuple(f"{name}_{s}" if s else name for s in levels for name in g.basis_names)
    return LieAlgebra(n * (m + 1), names, structure, form, g.cartan_indices, base=g, m=m)


def _monomial_derivation(gm: LieAlgebra, x: int, mono: Monomial) -> dict[Monomial, int]:
    """The derivation extending Y -> [X_x, Y], times the table's denominator, on one monomial."""
    images = gm._table[x]
    exps = list(mono)
    out: dict[Monomial, int] = {}
    for v in gm._acting[x]:
        e = mono[v]
        if e:
            exps[v] -= 1
            for w, c in images[v].items():
                exps[w] += 1
                target = tuple(exps)
                out[target] = out.get(target, 0) + e * c
                exps[w] -= 1
            exps[v] += 1
    return {target: c for target, c in out.items() if c}


def adjoint_derivation(gm: LieAlgebra, x: int, p: Polynomial) -> Polynomial:
    """The derivation of S[g_m] extending Y -> [X_x, Y] on generators."""
    if p.ambient_dim != gm.dim:
        raise ValueError("polynomial does not live on g_m")
    return apply_map(p, partial(_monomial_derivation, gm, x), lambda d: gm._den)


def derivation_generators(gm: LieAlgebra) -> list[int]:
    """All basis derivations but the diagonal base-Cartan ones."""
    return [x for x in range(gm.dim) if x not in gm.cartan_indices]


def polarizations(p: Polynomial, m: int) -> list[dict[Monomial, int]]:
    """The polarizations of a homogeneous p of degree d on n variables, in ints.

    c p(sum_s x_(i,s) t^s), for c the lcm of p's denominators, is one
    `substitution` on the padded ring of n(m + 1) variables, flat index
    s n + i; its terms split by T-degree sum_s s e_(i,s), the power of t.
    The int term dicts of t^j, for j = m(d - 1), ..., md, are returned.
    """
    n, size = p.ambient_dim, p.ambient_dim * (m + 1)
    _, image = substitution([[int(j % n == i) for j in range(size)] for i in range(size)])
    _, [coefficients] = integral([p.terms.values()])
    out: list[dict[Monomial, int]] = [{} for _ in range(m * p.degree() + 1)]
    for mono, coeff in zip(p.terms, coefficients):
        for k, x in image(mono + (0,) * (size - n)).items():
            level = out[sum(e * (v // n) for v, e in enumerate(k))]
            level[k] = level.get(k, 0) + coeff * x
    return [{k: c for k, c in terms.items() if c} for terms in out[m * (p.degree() - 1):]]


def polarized_products(ps: Sequence[Polynomial], n: int, m: int, degree: int) -> list[dict]:
    """The degree-d products of the polarizations to m of homogeneous polynomials
    on n variables, each polarization weighted by the degree of its polynomial:
    one int term dict per multiset of polarizations, not canonical."""
    generators = [(p.degree(), q) for p in ps for q in polarizations(p, m)]
    one = {(0,) * (n * (m + 1)): 1}
    products = (reduce(product, [q for _, q in factors], one) for size in range(degree + 1)
                for factors in combinations_with_replacement(generators, size)
                if sum(d for d, _ in factors) == degree)
    return [{k: c for k, c in terms.items() if c} for terms in products]


def basic_invariants(invariants: Callable[[int], GradedSubspace], rank: int,
                     degree: int) -> list[Polynomial]:
    """The basic generators of degree at most d of a graded invariant ring
    on `rank` generators, lowest degree first; `invariants(d)` is its
    canonical degree-d basis: g's kernel (`invariants_graded` at m = 0) or
    W's (`rootsys.invariant_basis`).

    Degree by degree, the generators are a complement of the products of the
    lower ones inside the invariants: the canonical invariants whose leading
    monomials lead no element of that product span.  The search stops at
    `rank` generators.
    """
    found: list[Polynomial] = []
    for d in takewhile(lambda d: len(found) < rank, range(1, degree + 1)):
        basis = invariants(d)
        span = _canonical(basis.ambient_dim, d,
                          polarized_products(found, basis.ambient_dim, 0, d))
        leads = {b.leading_term()[0] for b in span.basis}
        found += [b for b in basis.basis if b.leading_term()[0] not in leads]
    return found


def invariants_graded(gm: LieAlgebra, degree: int,
                      work_bound: int = WORK_BOUND) -> GradedSubspace:
    """Canonical basis of the degree-d invariants S^d[g_m]^{g_m}.

    For m >= 1, the span of the degree-d products of the polarizations of
    the basic invariants of g; for m = 0, the joint kernel of the adjoint
    derivations on the weight-zero monomials.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_work_bound(gm.dim, degree, work_bound)
    if gm.m:
        g = gm.base
        basic = basic_invariants(partial(invariants_graded, g), len(g.cartan_indices), degree)
        return _canonical(gm.dim, degree, polarized_products(basic, g.dim, gm.m, degree))
    # One integer per weight, in a base above twice any weight sum of the degree.
    top = 2 * degree * max((abs(w) for weight in gm._weights for w in weight), default=0) + 1
    packed = [sum(w * top ** i for i, w in enumerate(weight)) for weight in gm._weights]
    monomials = [mono_from_variables(gm.dim, variables)
                 for variables in combinations_with_replacement(range(gm.dim), degree)
                 if not sum(map(packed.__getitem__, variables))]
    maps = [partial(_monomial_derivation, gm, x) for x in derivation_generators(gm)]
    return joint_kernel(gm.dim, degree, maps, monomials)
