"""Matrix Lie algebras by structure constants, Takiff extensions, and invariants.

A Lie algebra is built from a basis of matrices (`matrix_algebra`): the
bracket is the commutator, read back in that basis, and the form is the
trace form of the matrices.  `make_sl(n)` supplies the Chevalley basis of
sl(n) for any n >= 2.

The symmetric algebra S[g_m] is realized literally: polynomial variable
(i, s) *is* the basis vector X_i (x) T^s, with flat index s*dim(g) + i, and
the adjoint action extends Y -> [X, Y] as a derivation.  Invariance is
tested through these derivations (the group is connected, so Lie-algebra
invariance is group invariance) and graded invariant spaces are joint
kernels of the derivations (`linalg.joint_kernel`).

The bracket table is scaled once to integers by a common denominator.  The
Jacobi and invariance checks read it exactly (they are homogeneous in the
constants), and so does the derivation of a monomial: an integer image keyed
by exponent vectors, the package's one monomial form, which the kernel path
takes as it is.  `adjoint_derivation` hands that same map to
`exactalg.apply_map`, which scales a polynomial to integers once and makes
one `Fraction` per term of its image.

Rendered names follow the base algebra with a tensor-degree suffix:
"h" is h (x) 1 and "h_2" is h (x) T^2.  `TakiffAlgebra.pairing` is the
top-degree form; the contraction directions delta(H (x) T^m) that the
restriction criterion needs are read on h from the frame's root system
(`restriction.CartanFrame.delta_direction`).

Two structural gradings cut the kernel problem down before any elimination:
monomials are filtered to weight zero under the base Cartan (those
derivations are diagonal) as multisets of variables, by integer sums, and
the truncated bracket is graded by total T-degree, so the invariant space
splits by T-degree as well.  The result is rechecked against every basis
derivation by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations_with_replacement
from math import lcm
from typing import Sequence

from .exactalg import (Monomial, Polynomial, WorkBoundExceeded,  # noqa: F401 (raised here)
                       apply_map, check_work_bound, mono_from_variables, rational)
from .linalg import GradedSubspace, Matrix, _pivot_rows, joint_kernel, mat_inv, rref


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q with an invariant trace form."""

    def __init__(self, dim: int, basis_names: tuple[str, ...],
                 structure: tuple[tuple[dict[int, Fraction], ...], ...],
                 form: tuple[tuple[Fraction, ...], ...], cartan_indices: tuple[int, ...]):
        self.dim = dim
        self.basis_names = basis_names
        self.structure = structure          # [X_i, X_j] = sum_k c_ijk X_k
        self.form = form
        self.cartan_indices = cartan_indices
        self._takiff_cache: dict[int, TakiffAlgebra] = {}     # m -> g_m, see takiff_extend
        self._validate()

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        return self.structure[i][j]

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

    def _validate(self) -> None:
        for i in range(self.dim):
            for j in range(self.dim):
                anti = {k: -c for k, c in self.structure[j][i].items()}
                if self.structure[i][j] != anti:
                    raise ValueError("structure constants are not antisymmetric")
        _check_lie_structure(_integer_table(self.dim, self.bracket)[0], self.form)


def _integer_table(dim: int, bracket) -> tuple[list[list[dict[int, int]]], int]:
    """The bracket on basis indices times one common denominator, and that denominator."""
    table = [[bracket(x, y) for y in range(dim)] for x in range(dim)]
    den = lcm(*(c.denominator for row in table for entry in row for c in entry.values()))
    return [[{z: c.numerator * (den // c.denominator) for z, c in entry.items()}
             for entry in row] for row in table], den


def _check_lie_structure(table, form: Sequence[Sequence[Fraction]]) -> None:
    """Jacobi identity for a scaled bracket table; `form` invariant and nondegenerate,
    that is of full rank under the fraction-free elimination of `linalg`."""
    dim = len(table)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc: dict[int, int] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, c in table[y][z].items():
                        for r, c2 in table[x][l].items():
                            acc[r] = acc.get(r, 0) + c * c2
                if any(acc.values()):
                    raise ValueError(f"Jacobi identity fails on basis triple {(i, j, k)}")
    den = lcm(*(x.denominator for row in form for x in row))
    form = [[x.numerator * (den // x.denominator) for x in row] for row in form]
    for i in range(dim):
        for j in range(dim):
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


class TakiffAlgebra:
    """g_m = g (x) C[T]/T^{m+1}, with truncated bracket and top-degree pairing."""

    def __init__(self, base: LieAlgebra, m: int):
        self.base = base
        self.m = m
        self._inv_cache: dict[int, GradedSubspace] = {}     # degree -> invariants_graded
        self._table, self._den = _integer_table(self.dim, self.bracket_flat)
        # per basis index x, the variables that ad(X_x) does not kill
        self._acting = [[v for v, image in enumerate(row) if image] for row in self._table]
        self._check_structure()

    @property
    def dim(self) -> int:
        return self.base.dim * (self.m + 1)

    @property
    def basis_names(self) -> tuple[str, ...]:
        names = []
        for s in range(self.m + 1):
            for name in self.base.basis_names:
                names.append(name if s == 0 else f"{name}_{s}")
        return tuple(names)

    def flat(self, i: int, s: int) -> int:
        return s * self.base.dim + i

    def unflat(self, x: int) -> tuple[int, int]:
        return x % self.base.dim, x // self.base.dim

    def bracket_flat(self, x: int, y: int) -> dict[int, Fraction]:
        i, s = self.unflat(x)
        j, t = self.unflat(y)
        if s + t > self.m:
            return {}
        return {self.flat(k, s + t): c for k, c in self.base.structure[i][j].items()}

    def pairing(self, x: int, y: int) -> Fraction:
        i, s = self.unflat(x)
        j, t = self.unflat(y)
        if s + t != self.m:
            return Fraction(0)
        return self.base.form[i][j]

    @cached_property
    def _weights(self) -> list[list[int]]:
        """Each variable's base-Cartan weight, scaled once to integers."""
        weights = [self.base.cartan_weight(self.unflat(v)[0]) for v in range(self.dim)]
        scale = lcm(*(w.denominator for weight in weights for w in weight))
        return [[w.numerator * (scale // w.denominator) for w in weight] for weight in weights]

    def _check_structure(self) -> None:
        pairing = [[self.pairing(x, y) for y in range(self.dim)] for x in range(self.dim)]
        if any(pairing[x][y] != pairing[y][x]
               for x in range(self.dim) for y in range(self.dim)):
            raise ValueError("pairing is not symmetric")
        _check_lie_structure(self._table, pairing)


def takiff_extend(g: LieAlgebra, m: int) -> TakiffAlgebra:
    """Build g_m; m = 0 returns g with its own form repackaged.

    Extensions are memoized per base algebra so graded results accumulate.
    """
    if not 0 <= m <= 3:
        raise ValueError("truncation order m must be within 0..3")
    if m not in g._takiff_cache:
        g._takiff_cache[m] = TakiffAlgebra(base=g, m=m)
    return g._takiff_cache[m]


def _monomial_derivation(gm: TakiffAlgebra, x: int, mono: Monomial) -> dict[Monomial, int]:
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


def adjoint_derivation(gm: TakiffAlgebra, x: int, p: Polynomial) -> Polynomial:
    """The derivation of S[g_m] extending Y -> [X_x, Y] on generators."""
    if p.ambient_dim != gm.dim:
        raise ValueError("polynomial does not live on g_m")
    return apply_map(p, partial(_monomial_derivation, gm, x), lambda d: gm._den)


def derivation_generators(gm: TakiffAlgebra) -> list[int]:
    """All basis derivations but the diagonal base-Cartan ones, highest T-degree first:
    ad(X (x) T^s) kills every variable of T-degree above m - s, so its images are
    short and cut the kernel while elimination is cheap."""
    skip = {gm.flat(c, 0) for c in gm.base.cartan_indices}
    return [x for x in sorted(range(gm.dim), key=lambda x: -gm.unflat(x)[1]) if x not in skip]


def invariants_graded(gm: TakiffAlgebra, degree: int,
                      work_bound: int = 20000) -> GradedSubspace:
    """Canonical basis of the degree-d invariants S^d[g_m]^{g_m}."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_work_bound(gm.dim, degree, work_bound)
    key = degree
    if key in gm._inv_cache:
        return gm._inv_cache[key]

    # One integer per weight, in a base above twice any weight sum of the degree.
    base = 2 * degree * max((abs(w) for weight in gm._weights for w in weight), default=0) + 1
    packed = [sum(w * base ** i for i, w in enumerate(weight)) for weight in gm._weights]
    t_degree = [gm.unflat(v)[1] for v in range(gm.dim)]
    blocks: dict[int, list[Monomial]] = {}
    for variables in combinations_with_replacement(range(gm.dim), degree):
        if not sum(map(packed.__getitem__, variables)):
            blocks.setdefault(sum(map(t_degree.__getitem__, variables)), []).append(
                mono_from_variables(gm.dim, variables))

    maps = [partial(_monomial_derivation, gm, x) for x in derivation_generators(gm)]
    survivors: list[Polynomial] = []
    for tau in sorted(blocks):
        survivors.extend(joint_kernel(gm.dim, blocks[tau], maps))
    result = GradedSubspace.from_polynomials(survivors, gm.dim, degree)
    gm._inv_cache[key] = result
    return result
