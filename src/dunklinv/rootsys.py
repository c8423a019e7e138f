"""Root systems with exact rational Weyl groups and orbit labels.

A root is stored as a pair: the linear functional alpha (a row of rational
coefficients, so alpha as a polynomial is sum_i a_i x_i) and the coroot
H_alpha (a vector), normalized so alpha(H_alpha) = 2.  The reflection
r_alpha(x) = x - alpha(x) H_alpha is then an exact rational matrix.

A system is given by its simple roots and its W-invariant inner product
`form`; the roots, coroots and orbit labels are derived from these.  The
roots are the orbit of the simple roots under the simple reflections, the
coroot is H_alpha = 2 form^-1 alpha / <alpha, form^-1 alpha> (`coroot`; a
root of norm zero is refused), and a root is "long" or "short" by that norm
("all" when there is one length).  Besides the table systems below, the
restriction module's Cartan frame builds one from the Cartan weights of a
Lie algebra and its trace form.

Supported systems are realized over Q directly: B/C/D in standard
coordinates of Q^n, A_n in simple-coroot coordinates of the sum-zero
hyperplane of Q^{n+1}, and G2 in simple-coroot coordinates.  The form is the
identity for the orthogonal realizations; the Dunkl module uses it to
dualize coordinates, which is what keeps the pairing symmetric in the
non-orthogonal realizations.

Polynomials here are functions on the reflection representation, and the
group acts by w.p = p o w^{-1}.  Group closure and invariants are written
once, for any finite matrix group given by generators: the restriction
module reuses them for the diagonal Weyl action on S[h_m].  Invariant bases
come from the generator kernel, the polynomials with p o s = p for each
generator s (`linalg.joint_kernel`); averaging over the whole group
(`reynolds`) is kept as the projector onto invariants.  Both compose
polynomials with matrices through `exactalg.substitution`, the package's
one linear change of variables: `reynolds` by `Polynomial.substitute`, the
kernel maps on its integer images directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from typing import Iterator, Sequence

from . import linalg
from .exactalg import (Frozen, Monomial, MonomialMap, Polynomial, monomials_of_degree,
                       rational, substitution)
from .linalg import GradedSubspace, joint_kernel

SUPPORTED = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")

_CLOSURE_BOUND = 1000


class UnsupportedSystem(ValueError):
    """Type/rank outside the supported construction table."""


class WeylClosureError(RuntimeError):
    """A group or root-orbit closure exceeded the safety bound; the input is broken."""


class RootSystem(Frozen):
    """A reduced root system derived from its simple roots and invariant form.

    `roots` is the breadth-first orbit of the simple roots, which come first.
    """

    name: str
    rank: int
    simple_roots: tuple[tuple[Fraction, ...], ...]
    form: tuple[tuple[Fraction, ...], ...]        # W-invariant inner product on the space
    roots: tuple[tuple[Fraction, ...], ...]       # functionals alpha, both signs
    coroots: tuple[tuple[Fraction, ...], ...]     # H_alpha, aligned with roots
    orbit_labels: tuple[str, ...]                 # "all" or "long"/"short"

    def __init__(self, name, rank, simple_roots, form):
        simple_roots = tuple(_fr(row) for row in simple_roots)
        form = tuple(_fr(row) for row in form)
        form_inv = linalg.mat_inv(form)
        # Reflections keep the norm <alpha, form^-1 alpha>, so each root
        # carries the norm of the simple root its orbit started from.
        duals = [linalg.mat_vec(form_inv, alpha) for alpha in simple_roots]
        seeds = [(alpha, _norm(alpha, dual)) for alpha, dual in zip(simple_roots, duals)]
        simple = [(alpha, coroot(dual, norm)) for (alpha, norm), dual in zip(seeds, duals)]
        orbit = _closure(seeds, simple, _reflect_root)
        long_norm = max((norm for _, norm in orbit), default=None)   # None: no roots
        one_length = all(norm == long_norm for _, norm in orbit)
        roots = tuple(alpha for alpha, _ in orbit)
        coroots = [h for _, h in simple] + [coroot(linalg.mat_vec(form_inv, alpha), norm)
                                            for alpha, norm in orbit[len(simple):]]
        self.__dict__.update(
            name=name, rank=rank, simple_roots=simple_roots, form=form, roots=roots,
            coroots=tuple(coroots),
            orbit_labels=tuple("all" if one_length else "long" if norm == long_norm else "short"
                               for _, norm in orbit))

    def root_index(self, alpha: Sequence[Fraction | int]) -> int:
        key = tuple(Fraction(a) for a in alpha)
        try:
            return self.roots.index(key)
        except ValueError:
            raise ValueError(f"{key} is not a root of {self.name}") from None

    def reflection(self, alpha: int | Sequence[Fraction | int]) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix of r_alpha(x) = x - alpha(x) H_alpha."""
        idx = alpha if isinstance(alpha, int) else self.root_index(alpha)
        return reflection_matrix(self.roots[idx], self.coroots[idx])

    def positive_indivisible(self) -> list[int]:
        """One representative of each {alpha, -alpha} pair (every system here is reduced)."""
        return [idx for idx, row in enumerate(self.roots) if next(c for c in row if c) > 0]


class MultiplicityAssignment(Frozen):
    """Per-orbit multiplicity parameters k >= 0, keyed "all" or "long"/"short"."""

    values: dict[str, Fraction]

    def __init__(self, values):
        cleaned = {}
        for label, v in values.items():
            if label not in ("all", "long", "short"):
                raise ValueError(f"unknown orbit label {label!r}")
            v = rational(v)
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
            cleaned[label] = v
        self.__dict__["values"] = cleaned

    @classmethod
    def parse(cls, text: str) -> "MultiplicityAssignment":
        """Parse CLI syntax like "all=1/2" or "long=1,short=3/2"."""
        values = {}
        for piece in text.split(","):
            if "=" not in piece:
                raise ValueError(f"bad multiplicity piece {piece!r}; expected label=value")
            label, _, raw = piece.partition("=")
            label = label.strip()
            if label in values:
                raise ValueError(f"orbit label {label!r} given twice")
            values[label] = rational(raw.strip())
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


class WeylGroup(Frozen):
    """A finite rational matrix group; `elements`, the breadth-first closure of
    `generators` from the identity, is computed on first read and kept."""

    rank: int
    generators: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, rank, generators):
        self.__dict__.update(rank=rank, generators=generators)

    def __eq__(self, other: object) -> bool:      # `elements`, once cached, is not compared
        return (type(other) is WeylGroup and self.rank == other.rank
                and self.generators == other.generators)

    def __hash__(self) -> int:
        return hash((self.rank, self.generators))

    @cached_property
    def elements(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        ident = tuple(map(tuple, linalg.identity(self.rank)))
        return tuple(_closure([ident], self.generators,
                              lambda w, g: tuple(map(tuple, linalg.mat_mul(w, g)))))

    @property
    def order(self) -> int:
        return len(self.elements)


def _fr(seq) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in seq)


def _norm(alpha: Sequence[Fraction], dual: Sequence[Fraction]) -> Fraction:
    """<alpha, form^-1 alpha> from dual = form^-1 alpha; a root of norm zero is refused."""
    (norm,) = linalg.mat_vec([alpha], dual)
    if not norm:
        raise ValueError(f"({', '.join(map(str, alpha))}) has norm zero under the form")
    return norm


def coroot(dual: Sequence[Fraction], norm: Fraction) -> tuple[Fraction, ...]:
    """H_alpha = 2 form^-1 alpha / norm from dual = form^-1 alpha, so that alpha(H_alpha) = 2."""
    return tuple(2 * x / norm for x in dual)


def reflection_matrix(alpha: Sequence[Fraction],
                      h: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of x -> x - alpha(x) h; with h = H_alpha this is the reflection r_alpha."""
    n = len(alpha)
    return tuple(tuple(Fraction(i == j) - h[i] * alpha[j] for j in range(n)) for i in range(n))


def _reflect_root(root, simple):
    """(alpha, norm) -> (alpha o r_s = alpha - alpha(H_s) alpha_s, norm), s = (alpha_s, H_s)."""
    (alpha, norm), (alpha_s, h_s) = root, simple
    (c,) = linalg.mat_vec([alpha], h_s)
    return tuple(a - c * b for a, b in zip(alpha, alpha_s)), norm


def _closure(seeds, generators, step) -> list:
    """Breadth-first closure of seeds under x -> step(x, g): seeds first, then discovery order."""
    elements = list(seeds)
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        next_frontier = []
        for x in frontier:
            for g in generators:
                y = step(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    next_frontier.append(y)
                    if len(elements) > _CLOSURE_BOUND:
                        raise WeylClosureError(f"closure exceeded {_CLOSURE_BOUND} elements")
        frontier = next_frontier
    return elements


def build_root_system(type_: str, rank: int) -> RootSystem:
    """The supported (type, rank) table: simple roots and invariant form."""
    name = f"{type_}{rank}"
    if name not in SUPPORTED:
        raise UnsupportedSystem(f"unsupported root system {name}; supported: {SUPPORTED}")
    n = rank
    if type_ == "A":
        # Coordinates w.r.t. simple coroots H_1..H_n: the simple roots are the
        # rows of the Cartan matrix, which is also the form.  A1 keeps the
        # form [[1]], which fixes its dual directions and so its Gram matrices.
        simple = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
                  for i in range(n)]
        form = simple if n > 1 else [[1]]
    elif type_ in ("B", "C", "D"):
        simple = [[(j == i) - (j == i + 1) for j in range(n)] for i in range(n - 1)]
        last = {"B": [0] * (n - 1) + [1], "C": [0] * (n - 1) + [2], "D": [0] * (n - 2) + [1, 1]}
        simple.append(last[type_])
        form = linalg.identity(n)
    else:  # G2, simple-coroot coordinates; alpha1 short, alpha2 long
        simple = [(2, -1), (-3, 2)]
        form = [[6, -3], [-3, 2]]
    return RootSystem(name=name, rank=rank, simple_roots=simple, form=form)


def root_system(name: str) -> RootSystem:
    """Build from a string like "A2" or "G2"."""
    if len(name) != 2 or not name[1].isdigit():
        raise UnsupportedSystem(f"bad root system name {name!r}")
    return build_root_system(name[0], int(name[1]))


def generate_weyl(rs: RootSystem) -> WeylGroup:
    """The Weyl group of rs from its simple reflections (the first roots), closed on first use."""
    return WeylGroup(rs.rank, tuple(rs.reflection(i) for i in range(len(rs.simple_roots))))


def reynolds(weyl: WeylGroup, p: Polynomial) -> Polynomial:
    """The projector onto W-invariants: the average of p o w over W."""
    total = Polynomial.zero(p.ambient_dim)
    for w in weyl.elements:
        total = total + p.substitute(w)
    return total / weyl.order


def invariance_maps(weyl: WeylGroup) -> Iterator[MonomialMap]:
    """m -> D^d (m o s - m) on degree-d monomials, one map per generator s, each built
    when it is reached: ints keyed by monomials, from `exactalg.substitution(s)`,
    where D clears the denominators of s."""
    for s in weyl.generators:
        yield partial(_difference, *substitution(s))


def _difference(scale: int, image, mono: Monomial) -> dict[Monomial, int]:
    out = image(mono)
    out[mono] = out.get(mono, 0) - scale ** sum(mono)
    return {k: c for k, c in out.items() if c}


def invariant_basis(weyl: WeylGroup, degree: int) -> GradedSubspace:
    """Canonical basis of degree-d W-invariants: the kernel of p -> p o s - p, all generators s."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    monomials = monomials_of_degree(weyl.rank, degree)
    return GradedSubspace.from_polynomials(
        joint_kernel(weyl.rank, monomials, invariance_maps(weyl)), weyl.rank, degree)
