"""Chevalley-type restriction to the Cartan and the image criterion.

A frame is the coordinate ring S[h_m] with its roots, in two parts.  The
root frame, `RootFrame(rs, m)`, is built from a `rootsys.RootSystem` of h
and a level m alone: the names, the positive roots, the Weyl group W on h
(`base_weyl`, held once) and acting diagonally on h_m (`weyl`, the same
block on every T-level), and every label, coroot and direction the
criterion reads.  The Lie frame, `CartanFrame(g_m)`, is the root frame of
(g, h) plus g_m itself: `cartan_roots` derives that root system from the
Cartan weights of g's basis and g's form on h, the same kind of system the
Dunkl layer runs on.  The Chevalley check is one equality per degree, the
theorem's own statement: the canonical basis of the restricted adjoint
invariants of g equals that of the invariants on h of the Weyl group of
those roots.

Restriction is coordinate projection: under the trace-form identification
the complement of h_m inside g_m is spanned by the root-vector coordinates,
so an invariant polynomial restricts by setting every non-Cartan variable
to zero.  Only the Lie frame restricts, and only the Chevalley check does.

At every m the image is read off generators, not off S^d(g_m), and from
root data alone.  S(g_m)^{g_m} is the polynomial ring on the polarizations
of the basic invariants of g (Rais and Tauvel, 1992; see the liealg
module; at m = 0 the polarizations are the invariants themselves);
restriction commutes with polarization level by level, and by Chevalley's
theorem the restricted basic invariants of g are basic invariants of W on
h.  The polarized ring does not depend on which basic invariants are
polarized, so `image_basis` finds W's own (`liealg.basic_invariants` over
`rootsys.invariant_basis` of the frame's `base_weyl`, W acting on h as the
frame acts on level 0), polarizes them on h_m and spans their degree-d
products; at m = 0 that span is S^d(h)^W.  Restriction is injective on a
polynomial ring exactly when the restricted generators stay algebraically
independent, which the dimension of that span checks degree by degree.  So
result 2 runs on any root system, each supported Weyl type included.  Only
the Chevalley check, which must not assume Chevalley's theorem, restricts
g's own invariants: `chevalley_graded_check` restricts the kernel basis of
S^d(g)^g and compares it with S^d(h)^W.  The work bound of `image_basis` and
`criterion_subspace` counts the degree-d monomials of S[h_m], the space
they compute in; that of the Chevalley check, those of S^d(g).

Membership in the restriction image is tested by two conditions:

  1. invariance under every diagonal reflection r_alpha, and
  2. for every root alpha and every n >= 1, the n-th power of the coordinate
     of H_alpha (x) T^m divides the n-th delta(H_alpha (x) T^m) derivative.

delta lowers degree by one, so n ranges over 1..deg(p).  For m = 1 this is
exactly the hatted-root divisibility condition (and it characterizes the
image); for m = 2 it is the direct generalization, which is necessary but
not sufficient: the generalized sl(2) case exhibits a one-dimensional gap
at degree 2, and every supported Weyl type has a gap from degree 2 on.
The conditions are not meaningful for m = 0: `criterion_maps` refuses that
level with a `ValueError`, and so `criterion_check` and `criterion_subspace`
do too.

Both run as integer maps on monomials, keyed by exponent vectors like every
polynomial here, and `criterion_maps` lists them once, in one order:
condition 1 per lifted reflection (`rootsys.invariance_maps`), then
condition 2 per root and n (`_Divisibility`).  `criterion_subspace` is their
joint kernel, one `linalg.joint_kernel` call, and `criterion_check` applies
each to p through
`exactalg.apply_map` and keeps the first witness of each condition, None
when the condition holds.
Restriction reads the Cartan entries of a vector and keeps the term when
they carry its degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from operator import add, itemgetter
from typing import NamedTuple

from . import linalg, rootsys
from .exactalg import (WORK_BOUND, Monomial, Polynomial, apply_map, check_work_bound,
                       derivative, exact_str, integral, parse as parse_poly, product, render)
from .liealg import LieAlgebra, basic_invariants, invariants_graded, polarized_products
from .linalg import GradedSubspace, _canonical, joint_kernel


class RestrictionError(RuntimeError):
    """An identity that is a theorem failed to hold: implementation bug."""


_LEVEL_LETTERS = "uvwz"

IMAGE_DEGREE_BOUND = 8      # default top degree at which `criterion_check` tests membership


class RootFrame:
    """Coordinates of h_m, for h carrying the root system `rs` (h itself at
    m = 0), with the diagonal Weyl action: all that the criterion and the
    image read.

    `positive_roots` indexes the positive roots of rs
    (`RootSystem.positive_indivisible`) in descending lexicographic order of
    their coordinates, and every root datum below is read from `rs`.
    `base_weyl` is the Weyl group of rs on S[h], as the frame acts on level
    0, and `weyl` the same group acting diagonally on S[h_m]: each a
    rootsys.WeylGroup of substitution matrices, generator i the reflection
    of positive_roots[i], held once per frame.
    """

    def __init__(self, rs: rootsys.RootSystem, m: int):
        if not 0 <= m < len(_LEVEL_LETTERS):
            raise ValueError("truncation order m must be within 0..3")
        nc = rs.rank
        self.rs, self.m, self.dim = rs, m, nc * (m + 1)
        suffixes = [f"{k + 1}" for k in range(nc)] if nc > 1 else [""]
        self.names = [_LEVEL_LETTERS[s] + x for s in range(m + 1) for x in suffixes]
        self.positive_roots = sorted(rs.positive_indivisible(), key=rs.roots.__getitem__,
                                     reverse=True)

        # Generators are vectors, so w acts on S[h] by substituting w^T, and on
        # S[h_m] by blockdiag(w^T), one block per T-level.  generators[i] is
        # the reflection of positive_roots[i] in both; the group permutes the
        # finite frame roots, so it is finite.
        self.base_weyl = rootsys.WeylGroup(nc, tuple(tuple(zip(*rs.reflection(i)))
                                                     for i in self.positive_roots))

        def lift(w):
            return tuple(tuple(w[i % nc][j % nc] if i // nc == j // nc else Fraction(0)
                               for j in range(self.dim)) for i in range(self.dim))

        self.weyl = rootsys.WeylGroup(self.dim, tuple(map(lift, self.base_weyl.generators)))

    # -- criterion ingredients ----------------------------------------------

    def label(self, i: int) -> str:
        """Root i of `rs` as its coordinates, like "(2, -1)"."""
        return "(" + ", ".join(map(exact_str, self.rs.roots[i])) + ")"

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
        return parse_poly(text, names=self.names)

    def render(self, p: Polynomial) -> str:
        return render(p, self.names)


def cartan_roots(g: LieAlgebra) -> rootsys.RootSystem:
    """The root system of (g, h): the distinct Cartan weights of g's basis,
    with g's form on h.  Its simple roots are the positive weights
    (`rootsys.is_positive`, the rule of `RootSystem.positive_indivisible`)
    that are no sum of two."""
    cartan = g.cartan_indices
    weights = {j: g.cartan_weight(j) for j in range(g.dim) if j not in cartan}
    if zero := [j for j, weight in weights.items() if not any(weight)]:
        raise ValueError(f"{g.basis_names[zero[0]]} has weight zero outside the "
                         "Cartan: the Cartan is not maximal")
    positive = list(dict.fromkeys(w for w in weights.values() if rootsys.is_positive(w)))
    sums = {tuple(map(add, a, b)) for a in positive for b in positive}
    rs = rootsys.RootSystem("(g, h)", len(cartan), [w for w in positive if w not in sums],
                            form=[[g.form[b][c] for c in cartan] for b in cartan])
    if set(rs.roots) != set(weights.values()):
        raise ValueError("the Cartan weights of g are not a root system")
    return rs


class CartanFrame(RootFrame):
    """The root frame of (g, h) at level m for a Takiff algebra g_m (g itself
    at m = 0), with g_m and the place of each frame coordinate in it:
    `raw_pairs[k]` is (Cartan index c, T-level s) and `cartan_flat[k]` the
    basis index of h_c (x) T^s in g_m."""

    def __init__(self, gm: LieAlgebra):
        super().__init__(cartan_roots(gm.base), gm.m)
        self.gm = gm
        self.raw_pairs = [(c, s) for s in range(gm.m + 1) for c in gm.cartan_indices]
        self.cartan_flat = [gm.flat(c, s) for c, s in self.raw_pairs]


def restrict(frame: CartanFrame, p: Polynomial) -> Polynomial:
    """Set every non-Cartan coordinate of g_m to zero; a ring homomorphism."""
    if p.ambient_dim != frame.gm.dim:
        raise ValueError("polynomial does not live on g_m")
    cartan = frame.cartan_flat
    return Polynomial(frame.dim, {tuple(mono[v] for v in cartan): coeff
                                  for mono, coeff in p.terms.items()
                                  if sum(mono[v] for v in cartan) == sum(mono)})


def image_basis(frame: RootFrame, degree: int, work_bound: int = WORK_BOUND) -> GradedSubspace:
    """Canonical basis of the degree-d restriction image Res S^d[g_m]^{g_m},
    read from the frame's roots alone at every m: the degree-d products of
    the polarizations to h_m of the basic invariants of W on h (at m = 0,
    of those invariants themselves), which must stay independent.  W on h
    is the frame's `base_weyl`.
    """
    check_work_bound(frame.dim, degree, work_bound)
    weyl = frame.base_weyl
    generators = basic_invariants(partial(rootsys.invariant_basis, weyl), weyl.rank, degree)
    return _independent(frame.dim, degree,
                        polarized_products(generators, weyl.rank, frame.m, degree))


def _independent(dim: int, degree: int, spanning: list[dict[Monomial, int]]) -> GradedSubspace:
    """The canonical span of `spanning`; `RestrictionError` unless the list is independent."""
    image = _canonical(dim, degree, spanning)
    if image.dim != len(spanning):
        raise RestrictionError("restriction failed to be injective on invariants")
    return image


class CriterionReport(NamedTuple):
    condition1_witness: str | None                     # a root whose reflection moves p
    condition2_witness: tuple[str, int, str] | None    # (root, n, remainder)
    in_image: str                                      # "pass" | "fail" | "unknown"


def criterion_check(frame: RootFrame, p: Polynomial,
                    image_degree_bound: int = IMAGE_DEGREE_BOUND,
                    work_bound: int = WORK_BOUND) -> CriterionReport:
    """Run both membership conditions on p and, within bounds, test membership.

    Each witness is None when its condition holds.  Membership is tested
    in each degree of p up to `image_degree_bound`, "unknown" above it; a
    member of the image that fails a condition raises `RestrictionError`,
    since both conditions are necessary."""
    if p.ambient_dim != frame.dim:
        raise ValueError("polynomial does not live on h_m")
    witnesses = {}          # condition -> its first witness; n = 0 only in condition 1
    for condition, i, n, image, den in criterion_maps(frame, p.degree()):
        if condition not in witnesses and (r := apply_map(p, image, den)):
            witnesses[condition] = (frame.label(i), n, frame.render(r)) if n else frame.label(i)
    membership = "pass"
    for d in sorted(set(map(sum, p.terms))):
        if d > image_degree_bound:
            membership = "unknown"
        elif not image_basis(frame, d, work_bound).contains(p.homogeneous_component(d)):
            membership = "fail"
            break
    if membership == "pass" and witnesses:
        raise RestrictionError("image member violating the necessary conditions")
    return CriterionReport(witnesses.get(1), witnesses.get(2), membership)


class _Divisibility:
    """Condition 2 for root i of `frame.rs`: `image(n, m)` is c^|m| D^n times
    the remainder of delta^n m by h^n, in ints.  D and E scale delta's
    direction and h to integers (`exactalg.integral`), the powers of Eh are
    `exactalg.product`s, and c leads Eh, at x_l: a step of the
    division by (Eh)^n that lowers the power of x_l by j divides by c^j, so
    from c^|m| m it is exact.  delta^n m is derived from delta^(n-1) m by
    `exactalg.derivative`, once per monomial; `den(n, |m|)` is the scale of
    image(n, m), so `exactalg.apply_map` divides it out."""

    def __init__(self, frame: RootFrame, i: int, max_power: int):
        self.scale, [self.direction] = integral([frame.delta_direction(i)])
        h = frame.divisor(i)
        unit, _ = h.leading_term()
        _, [coefficients] = integral([h.terms.values()])
        divisor = dict(zip(h.terms, coefficients))          # Eh
        self.var, self.lead, self.chains = unit.index(1), divisor[unit], {}
        powers = accumulate(repeat(divisor, max_power), product, initial={(0,) * frame.dim: 1})
        self.powers = [[(mono, x) for mono, x in power.items() if mono[self.var] < n]
                       for n, power in enumerate(powers)]   # (Eh)^n but its leading term x_l^n

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

    def den(self, n: int, d: int) -> int:
        return self.lead ** d * self.scale ** n


def criterion_maps(frame: RootFrame, degree: int):
    """Every map the criterion asks to vanish through degree d, as
    (condition, root index, n, image, den) for `exactalg.apply_map`: condition 1
    per lifted reflection (n = 0, from `rootsys.invariance_maps`), then
    condition 2 per root and n = 1..d.  Lazy: a root's `_Divisibility` is
    built when the generator reaches it.  The conditions mean nothing at
    m = 0, where the generator raises `ValueError` before its first map."""
    if not frame.m:
        raise ValueError("the criterion is meaningless at m = 0")
    for i, (image, den) in zip(frame.positive_roots, rootsys.invariance_maps(frame.weyl)):
        yield 1, i, 0, image, den
    for i in frame.positive_roots:
        condition = _Divisibility(frame, i, degree)
        for n in range(1, degree + 1):
            yield 2, i, n, partial(condition.image, n), partial(condition.den, n)


def criterion_subspace(frame: RootFrame, degree: int,
                       work_bound: int = WORK_BOUND) -> GradedSubspace:
    """Degree-d polynomials on h_m satisfying both criterion conditions: the
    joint kernel of `criterion_maps`."""
    check_work_bound(frame.dim, degree, work_bound)
    return joint_kernel(frame.dim, degree,
                        (image for *_, image, _ in criterion_maps(frame, degree)))


def chevalley_graded_check(frame: CartanFrame, degree: int, work_bound: int = WORK_BOUND
                           ) -> tuple[GradedSubspace, GradedSubspace]:
    """The two sides of Chevalley's theorem at one degree, as canonical bases:
    the restriction image of the adjoint invariants and the W-invariants on
    h (`rootsys.invariant_basis`).  The theorem holds at this degree exactly
    when the two are equal.

    `frame` is the Cartan frame of g itself (m = 0), built once per check and
    read at every degree; W is its own Weyl group of (g, h) on h, `base_weyl`.
    The image side must not assume the theorem, so it is not `image_basis`:
    it restricts the basis of g's own invariants (`invariants_graded`) and
    raises `RestrictionError` unless that restricted basis stays
    independent, so restriction is injective on every image returned, and
    the invariants have the image's dimension."""
    spanning = [restrict(frame, b).terms
                for b in invariants_graded(frame.gm, degree, work_bound).basis]
    return (_independent(frame.dim, degree, spanning),
            rootsys.invariant_basis(frame.base_weyl, degree))
