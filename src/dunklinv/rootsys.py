"""Root systems with exact rational Weyl groups and orbit labels.

A root is stored as a pair: the linear functional alpha (a row of rational
coefficients, so alpha as a polynomial is sum_i a_i x_i) and the coroot
H_alpha (a vector), normalized so alpha(H_alpha) = 2.  The reflection
r_alpha(x) = x - alpha(x) H_alpha is then an exact rational matrix.

Supported systems are realized over Q directly: B/C/D in standard
coordinates of Q^n, A_n in simple-coroot coordinates of the sum-zero
hyperplane of Q^{n+1}, and G2 in simple-coroot coordinates.  Each system
carries its W-invariant inner product `form` explicitly (the identity for
the orthogonal realizations); the Dunkl module uses it to dualize
coordinates, which is what keeps the pairing symmetric in the non-orthogonal
realizations.

Polynomials here are functions on the reflection representation, and the
group acts by act(w, p) = p o w^{-1}.  Group closure and invariants are
written once, for any finite matrix group given by generators: the
restriction module reuses them for the diagonal Weyl action on S[h_m].
Invariant bases come from the generator kernel, the polynomials with
p o s = p for each generator s (`linalg.joint_kernel`); averaging over the
whole group (`reynolds`) is kept as the projector onto invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .exactalg import Polynomial, monomials_of_degree, rational
from .linalg import GradedSubspace, joint_kernel

SUPPORTED = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")

_CLOSURE_BOUND = 1000


class UnsupportedSystem(ValueError):
    """Type/rank outside the supported construction table."""


class WeylClosureError(RuntimeError):
    """Group closure exceeded the safety bound; the construction is broken."""


@dataclass(frozen=True)
class RootSystem:
    name: str
    rank: int
    roots: tuple[tuple[Fraction, ...], ...]       # functionals alpha, both signs
    coroots: tuple[tuple[Fraction, ...], ...]     # H_alpha, aligned with roots
    simple: tuple[int, ...]                       # indices of simple roots
    orbit_labels: tuple[str, ...]                 # "all" or "long"/"short", per root
    form: tuple[tuple[Fraction, ...], ...]        # W-invariant inner product on the space

    def __post_init__(self):
        form_inv = linalg.mat_inv(self.form)
        for alpha, coroot in zip(self.roots, self.coroots):
            if _dot(alpha, coroot) != 2:
                raise ValueError("coroot normalization alpha(H_alpha) = 2 violated")
            dual = linalg.mat_vec(form_inv, alpha)
            norm = _dot(alpha, dual)
            if tuple(2 * x / norm for x in dual) != coroot:
                raise ValueError("coroot disagrees with the invariant form")

    def root_index(self, alpha: Sequence[Fraction | int]) -> int:
        key = tuple(Fraction(a) for a in alpha)
        try:
            return self.roots.index(key)
        except ValueError:
            raise ValueError(f"{key} is not a root of {self.name}") from None

    def reflection(self, alpha: int | Sequence[Fraction | int]) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix of r_alpha(x) = x - alpha(x) H_alpha."""
        idx = alpha if isinstance(alpha, int) else self.root_index(alpha)
        row = self.roots[idx]
        coroot = self.coroots[idx]
        return tuple(tuple(Fraction(i == j) - coroot[i] * row[j] for j in range(self.rank))
                     for i in range(self.rank))

    def positive_indivisible(self) -> list[int]:
        """One representative of each {alpha, -alpha} pair (every system here is reduced)."""
        return [idx for idx, row in enumerate(self.roots) if next(c for c in row if c) > 0]


@dataclass(frozen=True)
class MultiplicityAssignment:
    """Per-orbit multiplicity parameters k >= 0, keyed "all" or "long"/"short"."""

    values: dict[str, Fraction]

    def __post_init__(self):
        cleaned = {}
        for label, v in self.values.items():
            if label not in ("all", "long", "short"):
                raise ValueError(f"unknown orbit label {label!r}")
            v = rational(v)
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
            cleaned[label] = v
        object.__setattr__(self, "values", cleaned)

    @classmethod
    def parse(cls, text: str) -> "MultiplicityAssignment":
        """Parse CLI syntax like "all=1/2" or "long=1,short=3/2"."""
        values = {}
        for piece in text.split(","):
            if "=" not in piece:
                raise ValueError(f"bad multiplicity piece {piece!r}; expected label=value")
            label, _, raw = piece.partition("=")
            values[label.strip()] = Fraction(raw.strip())
        return cls(values)

    def resolve(self, rs: RootSystem) -> dict[str, Fraction]:
        """Map each of rs's orbit labels to its k value."""
        labels = set(rs.orbit_labels)
        if "all" in self.values:
            extra = set(self.values) - {"all"}
            if extra:
                raise ValueError("'all' cannot be combined with other labels")
            return {label: self.values["all"] for label in labels}
        if set(self.values) != labels:
            raise ValueError(
                f"{rs.name} needs multiplicities for orbits {sorted(labels)}, "
                f"got {sorted(self.values)}")
        return dict(self.values)


@dataclass(frozen=True)
class WeylGroup:
    rank: int
    elements: tuple[tuple[tuple[Fraction, ...], ...], ...]
    generators: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _fr(seq) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in seq)


def _unit(n: int, i: int, scale=1) -> tuple[Fraction, ...]:
    return tuple(Fraction(scale) if j == i else Fraction(0) for j in range(n))


def build_root_system(type_: str, rank: int) -> RootSystem:
    """Standard exact construction for the supported (type, rank) table."""
    name = f"{type_}{rank}"
    if name not in SUPPORTED:
        raise UnsupportedSystem(f"unsupported root system {name}; supported: {SUPPORTED}")
    roots: list[tuple[Fraction, ...]] = []
    coroots: list[tuple[Fraction, ...]] = []
    labels: list[str] = []

    def add(row, coroot, label):
        roots.append(_fr(row))
        coroots.append(_fr(coroot))
        labels.append(label)

    if type_ == "A":
        n = rank
        # Coordinates w.r.t. simple coroots H_1..H_n; a point is diag(t_1..t_{n+1})
        # with t_i = x_i - x_{i-1} (x_0 = x_{n+1} = 0).
        def t_row(i: int) -> list[int]:
            row = [0] * n
            if i <= n:
                row[i - 1] += 1
            if i >= 2:
                row[i - 2] -= 1
            return row

        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if i == j:
                    continue
                row = [a - b for a, b in zip(t_row(i), t_row(j))]
                lo, hi = min(i, j), max(i, j)
                coroot = [1 if lo <= k + 1 < hi else 0 for k in range(n)]
                if i > j:
                    coroot = [-c for c in coroot]
                add(row, coroot, "all")
        simple_rows = [tuple(Fraction(x) for x in
                             [a - b for a, b in zip(t_row(i), t_row(i + 1))])
                       for i in range(1, n + 1)]
        if n == 1:
            form = [[Fraction(1)]]
        else:
            form = [[Fraction(2 if i == j else (-1 if abs(i - j) == 1 else 0))
                     for j in range(n)] for i in range(n)]
    elif type_ in ("B", "C", "D"):
        n = rank
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        row = [0] * n
                        row[i], row[j] = si, sj
                        label = {"B": "long", "C": "short", "D": "all"}[type_]
                        add(row, row, label)
        if type_ == "B":
            for i in range(n):
                for s in (1, -1):
                    add(_unit(n, i, s), _unit(n, i, 2 * s), "short")
        elif type_ == "C":
            for i in range(n):
                for s in (1, -1):
                    add(_unit(n, i, 2 * s), _unit(n, i, s), "long")
        simple_rows = [tuple(Fraction(a - b) for a, b in
                             zip(_unit(n, i), _unit(n, i + 1))) for i in range(n - 1)]
        if type_ == "B":
            simple_rows.append(_unit(n, n - 1))
        elif type_ == "C":
            simple_rows.append(_unit(n, n - 1, 2))
        else:
            simple_rows.append(tuple(Fraction(a + b) for a, b in
                                     zip(_unit(n, n - 2), _unit(n, n - 1))))
        form = linalg.identity(n)
    else:  # G2, simple-coroot coordinates; alpha1 short, alpha2 long
        a1, a2 = (2, -1), (-3, 2)
        combos = [((1, 0), "short"), ((0, 1), "long"), ((1, 1), "short"),
                  ((2, 1), "short"), ((3, 1), "long"), ((3, 2), "long")]
        for (c1, c2), label in combos:
            row = (c1 * a1[0] + c2 * a2[0], c1 * a1[1] + c2 * a2[1])
            if label == "short":
                coroot = (c1, 3 * c2)
            else:
                coroot = (Fraction(c1, 3), c2)
            for s in (1, -1):
                add((s * row[0], s * row[1]), (s * coroot[0], s * coroot[1]), label)
        simple_rows = [_fr(a1), _fr(a2)]
        form = [[Fraction(6), Fraction(-3)], [Fraction(-3), Fraction(2)]]

    simple = tuple(roots.index(row) for row in simple_rows)
    return RootSystem(name=name, rank=rank,
                      roots=tuple(roots), coroots=tuple(coroots),
                      simple=simple,
                      orbit_labels=tuple(labels),
                      form=tuple(tuple(Fraction(x) for x in row) for row in form))


def root_system(name: str) -> RootSystem:
    """Build from a string like "A2" or "G2"."""
    if len(name) != 2 or not name[1].isdigit():
        raise UnsupportedSystem(f"bad root system name {name!r}")
    return build_root_system(name[0], int(name[1]))


def close_group(generators, rank: int) -> WeylGroup:
    """Breadth-first closure of rank x rank rational generators, deterministic order."""
    gens = tuple(tuple(tuple(Fraction(x) for x in row) for row in g) for g in generators)
    ident = tuple(tuple(row) for row in linalg.identity(rank))
    elements: list = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in gens:
                prod = tuple(tuple(row) for row in linalg.mat_mul(w, g))
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    next_frontier.append(prod)
                    if len(elements) > _CLOSURE_BOUND:
                        raise WeylClosureError(
                            f"group closure exceeded {_CLOSURE_BOUND} elements")
        frontier = next_frontier
    return WeylGroup(rank=rank, elements=tuple(elements), generators=gens)


def generate_weyl(rs: RootSystem) -> WeylGroup:
    """The Weyl group of rs, closed from its simple reflections."""
    return close_group([rs.reflection(i) for i in rs.simple], rs.rank)


def act(w: Sequence[Sequence[Fraction]], p: Polynomial) -> Polynomial:
    """Left action on functions: (w.p)(x) = p(w^{-1} x)."""
    if p.ambient_dim != len(w):
        raise ValueError("polynomial dimension does not match the group rank")
    return p.substitute(linalg.mat_inv(w))


def reynolds(weyl: WeylGroup, p: Polynomial) -> Polynomial:
    """The projector onto W-invariants: the average of p o w = act(w^{-1}, p) over W."""
    total = Polynomial.zero(p.ambient_dim)
    for w in weyl.elements:
        total = total + p.substitute(w)
    return total / weyl.order


def invariant_basis(weyl: WeylGroup, degree: int) -> GradedSubspace:
    """Canonical basis of degree-d W-invariants: the kernel of p -> p o s - p, all generators s."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    monomials = [Polynomial(weyl.rank, {mono: Fraction(1)})
                 for mono in monomials_of_degree(weyl.rank, degree)]
    maps = [lambda p, s=s: p.substitute(s) - p for s in weyl.generators]
    return GradedSubspace.from_polynomials(joint_kernel(monomials, maps), weyl.rank, degree)
