"""Chevalley-type restriction to the Cartan and the image criterion.

The Cartan frame holds the roots of (g, h) as one `rootsys.RootSystem`,
`CartanFrame.rs`: the Cartan weights of g's basis with the trace form on h,
the same kind of system the Dunkl layer runs on.  Every label, coroot and
reflection the criterion uses is read from it.  The Chevalley check
compares, degree by degree, the adjoint invariants of g, their restriction
to h, and the invariants on h of the Weyl group of those roots.

Restriction is coordinate projection: under the trace-form identification
the complement of h_m inside g_m is spanned by the root-vector coordinates,
so an invariant polynomial restricts by setting every non-Cartan variable
to zero.  The restricted ring S[h_m] keeps the base Weyl group acting
diagonally (same matrix on every T-level).

Membership in the restriction image is tested by two conditions:

  1. invariance under every diagonal reflection r_alpha, and
  2. for every root alpha and every n >= 1, the n-th power of the coordinate
     of H_alpha (x) T^m divides the n-th delta(H_alpha (x) T^m) derivative.

delta lowers degree by one, so n ranges over 1..deg(p).  For m = 1 this is
exactly the hatted-root divisibility condition (and it characterizes the
image); for m = 2 it is the direct generalization, which is necessary but
not sufficient: the generalized sl(2) case exhibits a one-dimensional gap
at degree 2.  The conditions are not meaningful for m = 0.

Both run as integer maps on monomials (`_Divisibility` for condition 2),
keyed by exponent vectors like every polynomial here; restriction reads the
Cartan entries of a vector and keeps the term when they carry its degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from math import lcm
from operator import add, itemgetter
from typing import NamedTuple

from . import linalg, rootsys
from .exactalg import (Frozen, Monomial, Polynomial, apply_map, derivative,
                       monomials_of_degree, render)
from .liealg import LieAlgebra, TakiffAlgebra, invariants_graded, takiff_extend
from .linalg import GradedSubspace, joint_kernel


class RestrictionError(RuntimeError):
    """An identity that is a theorem failed to hold: implementation bug."""


_LEVEL_LETTERS = "uvwz"


class CartanFrame:
    """Cartan coordinates of a Takiff algebra with the diagonal Weyl action.

    `rs` is the root system of (g, h): the distinct Cartan weights of g's
    basis, with the trace form on h.  `positive_roots` indexes rs.roots in
    basis order, and every root datum below is read from `rs`.  `weyl` is
    the base Weyl group acting diagonally on S[h_m], held as a
    rootsys.WeylGroup of substitution matrices on the frame coordinates.
    """

    def __init__(self, gm: TakiffAlgebra):
        base = gm.base
        cartan = base.cartan_indices
        nc = len(cartan)
        self.gm = gm
        self.cartan_flat = [gm.flat(c, s) for s in range(gm.m + 1) for c in cartan]
        self.dim = len(self.cartan_flat)
        self.raw_pairs = [(c, s) for s in range(gm.m + 1) for c in cartan]
        if nc == 1:
            self.names = [_LEVEL_LETTERS[s] for s in range(gm.m + 1)]
        else:
            self.names = [f"{_LEVEL_LETTERS[s]}{k + 1}"
                          for s in range(gm.m + 1) for k in range(nc)]

        weights = []
        for j in range(base.dim):
            if j in cartan:
                continue
            weight = base.cartan_weight(j)
            if not any(weight):
                raise ValueError(f"{base.basis_names[j]} has weight zero outside the "
                                 "Cartan: the Cartan is not maximal")
            if weight not in weights:
                weights.append(weight)
        positive = [w for w in weights if next(c for c in w if c) > 0]
        sums = {tuple(map(add, a, b)) for a in positive for b in positive}
        self.rs = rootsys.RootSystem(
            name="(g, h)", rank=nc, simple_roots=[w for w in positive if w not in sums],
            form=[[base.form[cb][cc] for cc in cartan] for cb in cartan])
        if set(self.rs.roots) != set(weights):
            raise ValueError("the Cartan weights of g are not a root system")
        self.positive_roots = [self.rs.root_index(w) for w in positive]

        # Generators are vectors, so w acts on S[h_m] by substituting
        # blockdiag(w^T), one block per T-level.  generators[i] is the
        # diagonal reflection of positive_roots[i]; the group permutes the
        # finite frame roots, so it is finite, and is closed on first use.
        def lift(w):
            return tuple(tuple(w[j % nc][i % nc] if i // nc == j // nc else Fraction(0)
                               for j in range(self.dim)) for i in range(self.dim))

        self.weyl = rootsys.WeylGroup(rank=self.dim, generators=tuple(
            lift(self.rs.reflection(i)) for i in self.positive_roots))

    # -- criterion ingredients ----------------------------------------------

    def label(self, i: int) -> str:
        """Root i of `rs` as its coordinates, like "(2, -1)"."""
        return "(" + ", ".join(map(str, self.rs.roots[i])) + ")"

    def divisor(self, i: int) -> Polynomial:
        """The coordinate of H_alpha (x) T^m as a linear form on h_m, alpha = root i."""
        below = [Fraction(0)] * (self.dim - self.rs.rank)
        return Polynomial.linear_form(below + list(self.rs.coroots[i]))

    def delta_direction(self, i: int) -> list[Fraction]:
        """delta(H_alpha (x) T^m) on S[h_m], alpha = root i: the Takiff pairing
        couples T^m only with T^0, so it is <H_alpha, .> on level 0 and zero above."""
        rest = [Fraction(0)] * (self.dim - self.rs.rank)
        return linalg.mat_vec(self.rs.form, self.rs.coroots[i]) + rest

    def parse(self, text: str) -> Polynomial:
        from .exactalg import parse as parse_poly
        return parse_poly(text, names=self.names)

    def render(self, p: Polynomial) -> str:
        return render(p, self.names)


def restrict(frame: CartanFrame, p: Polynomial) -> Polynomial:
    """Set every non-Cartan coordinate of g_m to zero; a ring homomorphism."""
    if p.ambient_dim != frame.gm.dim:
        raise ValueError("polynomial does not live on g_m")
    out = {}
    for mono, coeff in p.terms.items():
        restricted = tuple(mono[v] for v in frame.cartan_flat)
        if sum(restricted) == sum(mono):
            out[restricted] = coeff
    return Polynomial(frame.dim, out)


def image_basis(frame: CartanFrame, degree: int, work_bound: int = 20000) -> GradedSubspace:
    """Canonical basis of the degree-d restriction image Res S^d[g_m]^{g_m}."""
    invariants = invariants_graded(frame.gm, degree, work_bound)
    restricted = [restrict(frame, b) for b in invariants.basis]
    image = GradedSubspace.from_polynomials(restricted, frame.dim, degree)
    if image.dim != invariants.dim:
        raise RestrictionError("restriction failed to be injective on invariants")
    return image


class CriterionReport(Frozen):
    polynomial: str
    condition1: bool
    condition1_witness: str | None
    condition2: bool
    condition2_witness: tuple[str, int, str] | None   # (root, n, remainder)
    in_image: str                                      # "pass" | "fail" | "unknown"
    image_degree_bound: int

    def __init__(self, polynomial, condition1, condition1_witness, condition2,
                 condition2_witness, in_image, image_degree_bound):
        if in_image == "pass" and not (condition1 and condition2):
            raise RestrictionError("image member violating the necessary conditions")
        self.__dict__.update(
            polynomial=polynomial, condition1=condition1, condition1_witness=condition1_witness,
            condition2=condition2, condition2_witness=condition2_witness,
            in_image=in_image, image_degree_bound=image_degree_bound)


def criterion_check(frame: CartanFrame, p: Polynomial,
                    image_degree_bound: int = 8,
                    work_bound: int = 20000) -> CriterionReport:
    """Run both membership conditions on p and, within bounds, test membership."""
    if p.ambient_dim != frame.dim:
        raise ValueError("polynomial does not live on h_m")
    cond1, witness1 = True, None
    for i, refl in zip(frame.positive_roots, frame.weyl.generators):
        if p.substitute(refl) != p:
            cond1, witness1 = False, frame.label(i)
            break
    cond2, witness2 = True, None
    for i, n, remainder in _condition2_maps(frame, p.degree()):
        r = remainder(p)
        if r:
            cond2, witness2 = False, (frame.label(i), n, frame.render(r))
            break
    membership = "pass"
    if p:
        degrees = sorted(set(map(sum, p.terms)))
        for d in degrees:
            if d > image_degree_bound:
                membership = "unknown"
                continue
            component = p.homogeneous_component(d)
            if not image_basis(frame, d, work_bound).contains(component):
                membership = "fail"
                break
    return CriterionReport(polynomial=frame.render(p),
                           condition1=cond1, condition1_witness=witness1,
                           condition2=cond2, condition2_witness=witness2,
                           in_image=membership, image_degree_bound=image_degree_bound)


class _Divisibility:
    """Condition 2 for root i of `frame.rs`: `image(n, m)` is c^|m| D^n times
    the remainder of delta^n m by h^n, in ints.  D and E scale delta's
    direction and h to integers, and c leads Eh, at x_l: a step of the
    division by (Eh)^n that lowers the power of x_l by j divides by c^j, so
    from c^|m| m it is exact.  delta^n m is derived from delta^(n-1) m by
    `exactalg.derivative`, once per monomial; `remainder` applies image(n, .)
    to a polynomial through `exactalg.apply_map`."""

    def __init__(self, frame: CartanFrame, i: int, max_power: int):
        direction = frame.delta_direction(i)
        self.scale = lcm(*(x.denominator for x in direction))
        self.direction = [x.numerator * (self.scale // x.denominator) for x in direction]
        divisor = frame.divisor(i) * lcm(*(x.denominator for x in frame.rs.coroots[i]))
        unit, lead = divisor.leading_term()
        self.var, self.lead, self.chains = unit.index(1), int(lead), {}
        self.powers = [[(mono, int(x))          # (Eh)^n but its leading term x_l^n
                        for mono, x in (divisor ** n).terms.items() if mono[self.var] < n]
                       for n in range(max_power + 1)]

    def image(self, n: int, mono: Monomial) -> dict[Monomial, int]:
        derived = self.chains.setdefault(mono, [])       # c^|m| (D delta)^k m, k = 0, 1, ...
        if not derived:
            derived.append({mono: self.lead ** sum(mono)})
        while len(derived) <= n:
            derived.append({})
            for exps, c in derived[-2].items():
                for k, x in derivative(self.direction, exps).items():
                    derived[-1][k] = derived[-1].get(k, 0) + c * x
        var, work = self.var, {k: c for k, c in derived[n].items() if c}
        while work:
            exps = max(work, key=itemgetter(var))
            if exps[var] < n:
                break
            q = work.pop(exps) // self.lead ** n
            base = exps[:var] + (exps[var] - n,) + exps[var + 1:]
            for k, x in self.powers[n]:
                key = tuple(map(add, base, k))
                work[key] = work.get(key, 0) - q * x
                if not work[key]:
                    del work[key]
        return work

    def remainder(self, n: int, q: Polynomial) -> Polynomial:
        """The remainder of delta^n q by h^n."""
        return apply_map(q, partial(self.image, n), lambda d: self.lead ** d * self.scale ** n)


def _condition2_maps(frame: CartanFrame, max_power: int):
    """Condition 2 as linear maps: (root index, n, q -> remainder of delta^n q by divisor^n)."""
    for i in frame.positive_roots:
        condition = _Divisibility(frame, i, max_power)
        for n in range(1, max_power + 1):
            yield i, n, partial(condition.remainder, n)


def criterion_subspace(frame: CartanFrame, degree: int) -> GradedSubspace:
    """Degree-d polynomials on h_m satisfying both criterion conditions."""
    conditions = (_Divisibility(frame, i, degree) for i in frame.positive_roots)
    condition2 = (partial(c.image, n) for c in conditions for n in range(1, degree + 1))
    kernel = joint_kernel(frame.dim, monomials_of_degree(frame.dim, degree),
                          chain(rootsys.invariance_maps(frame.weyl), condition2))
    return GradedSubspace.from_polynomials(kernel, frame.dim, degree)


class ChevalleyReport(NamedTuple):
    degree: int
    dim_invariants: int
    dim_restricted: int
    dim_target: int

    @property
    def surjective(self) -> bool:
        return self.dim_restricted == self.dim_target

    @property
    def injective(self) -> bool:
        return self.dim_invariants == self.dim_restricted

    @property
    def isomorphic(self) -> bool:
        return self.surjective and self.injective


def chevalley_graded_check(g: LieAlgebra, degree: int,
                           work_bound: int = 20000) -> ChevalleyReport:
    """Compare adjoint invariants, their restriction, and W-invariants at one degree.

    W is the frame's own Weyl group of (g, h), acting on h."""
    gm = takiff_extend(g, 0)
    frame = CartanFrame(gm)
    invariants = invariants_graded(gm, degree, work_bound)
    image = image_basis(frame, degree, work_bound)
    target = rootsys.invariant_basis(frame.weyl, degree)
    return ChevalleyReport(degree=degree,
                           dim_invariants=invariants.dim,
                           dim_restricted=image.dim,
                           dim_target=target.dim)
