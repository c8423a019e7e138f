"""Sparse multivariate polynomials with exact rational coefficients.

This is the substrate every other module computes in.  A monomial x^a is
its exponent vector a, a tuple with one nonnegative int per variable, so
x1^2*x3 in a four-variable ring is (2, 0, 1, 0) and 1 is (0, 0, 0, 0).
Every module, down to the integer maps of the kernel path, uses this one
form.  A polynomial maps monomials to nonzero Fractions; the zero
polynomial has no terms, so two polynomials are equal exactly when their
term maps are.

Four operations here are the only ones of their kind in the package.
`product` multiplies term dicts ({exponent vector: coefficient}, any exact
coefficients); `Polynomial.__mul__` wraps it.  `substitution(M)` is the one
linear change of variables: it returns D, the lcm of M's denominators, and
a map from a monomial m to the int term dict of D^|m| m(Mx), multiplying
powers of each x_i(DMx) that it keeps between calls; the Weyl invariance
maps of the rootsys module subtract D^|m| m from them and stay in ints.
`derivative(xi, m)` is the one derivative of a monomial, in ints.
`apply_map(p, image, den)` is the one way a linear map given on monomials
reaches a polynomial: image(m) is the int term dict of den(|m|) L(m), and
p is scaled to ints once, its images summed in ints and divided back with
one `Fraction` per output term.  `Polynomial.substitute` and
`Polynomial.directional_derivative` are `apply_map` over `substitution`
and `derivative`; so are the adjoint derivations, criterion condition 2 and
T_xi in the liealg, restriction and dunkl modules.

Terms are ordered graded-lexicographically: by (|a|, a), total degree
first, ties broken with x1 before x2 before ..., highest first (Cox, Little
and O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 section 2).
Rendering, leading terms and every reduced basis downstream use this one
order, which is what makes rendered bases canonical.

All values are immutable after construction and every operation is a pure
function, so independent computations can safely run in parallel.  No
floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, compress
from math import comb, lcm
from operator import add, ge, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]

Scalar = Fraction | int

MonomialMap = Callable[[Monomial], Mapping[Monomial, Scalar]]


class DimensionMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ParseError(ValueError):
    """Polynomial text did not match the grammar; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WorkBoundExceeded(RuntimeError):
    """A graded computation would exceed the configured monomial budget."""


def check_work_bound(ambient_dim: int, degree: int, work_bound: int) -> None:
    """Refuse a degree-d computation whose monomial space exceeds work_bound."""
    size = comb(ambient_dim + degree - 1, degree)
    if size > work_bound:
        raise WorkBoundExceeded(
            f"degree-{degree} monomial space has dimension {size} > {work_bound}")


def rational(value: Scalar | str) -> Fraction:
    """value (or text such as "3/2") as an exact Fraction; a float is refused,
    having no exact meaning here, and a zero denominator is a ValueError."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r}; use an int or a Fraction")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def grlex_key(mono: Monomial) -> tuple:
    """Sort key: graded-lex, so max() picks the leading monomial."""
    return sum(mono), mono


class Frozen:
    """Base of immutable records, which `__init__` fills with `self.__dict__.update`:
    assignment raises, and equality and hashing go by the attribute values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class Polynomial:
    """Immutable sparse polynomial over Q in ``ambient_dim`` variables."""

    __slots__ = ("ambient_dim", "terms")

    def __init__(self, ambient_dim: int,
                 terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        if ambient_dim <= 0:
            raise ValueError("ambient_dim must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != ambient_dim:
                raise DimensionMismatch(
                    f"exponent vector of length {len(mono)} in a ring of dimension {ambient_dim}")
            if not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(f"exponents must be nonnegative ints, got {mono}")
            coeff = rational(coeff) + canonical.get(mono, Fraction(0))
            if coeff:
                canonical[mono] = coeff
            else:
                canonical.pop(mono, None)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):           # pickle and copy rebuild through the validating constructor
        return Polynomial, (self.ambient_dim, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient_dim: int) -> "Polynomial":
        return cls(ambient_dim)

    @classmethod
    def constant(cls, ambient_dim: int, value: Scalar) -> "Polynomial":
        return cls(ambient_dim, {(0,) * ambient_dim: value})

    @classmethod
    def linear_form(cls, coefficients: Sequence[Scalar]) -> "Polynomial":
        """The polynomial sum_i c_i x_i in len(coefficients) variables."""
        n = len(coefficients)
        return cls(n, {tuple(int(i == j) for j in range(n)): c
                       for i, c in enumerate(coefficients) if c})

    # -- ring structure ----------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"mixed ambient dimensions {self.ambient_dim} and {other.ambient_dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return self._wrap(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial(self.ambient_dim)
            other = Fraction(other)
            return self._wrap({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        return self._wrap({m: c for m, c in product(self.terms, other.terms).items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.ambient_dim, 1)
        for _ in range(n):
            result = result * self
        return result

    def _wrap(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        p = object.__new__(Polynomial)
        object.__setattr__(p, "ambient_dim", self.ambient_dim)
        object.__setattr__(p, "terms", terms)
        return p

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial)
                and self.ambient_dim == other.ambient_dim
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.ambient_dim}, {render(self)!r})"

    # -- structure queries -------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def homogeneous_component(self, d: int) -> "Polynomial":
        return self._wrap({m: c for m, c in self.terms.items() if sum(m) == d})

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order."""
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            yield mono, self.terms[mono]

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    # -- calculus and substitution ----------------------------------------

    def directional_derivative(self, direction: Sequence[Scalar]) -> "Polynomial":
        """d_xi p = sum_i xi_i dp/dx_i; drops degree by one on homogeneous input."""
        if len(direction) != self.ambient_dim:
            raise DimensionMismatch(
                f"direction of length {len(direction)} in dimension {self.ambient_dim}")
        direction = [rational(c) for c in direction]
        scale = lcm(*(c.denominator for c in direction))
        direction = [c.numerator * (scale // c.denominator) for c in direction]
        return apply_map(self, partial(derivative, direction), lambda d: scale)

    def substitute(self, matrix: Sequence[Sequence[Scalar]]) -> "Polynomial":
        """p(Mx): variable x_i becomes the linear form sum_j M[i][j] x_j.

        Composes covariantly: p.substitute(M).substitute(N) == p.substitute(M@N).
        """
        n = self.ambient_dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DimensionMismatch("substitution matrix shape does not match ring")
        scale, image = substitution(matrix)
        return apply_map(self, image, lambda d: scale ** d)


def apply_map(p: Polynomial, image: MonomialMap, den: Callable[[int], int]) -> Polynomial:
    """L(p) for a linear map L given on monomials: image(m) is the int term dict
    of den(|m|) L(m), and L(p) lives in p's ring.

    p is scaled to ints once: by s, the lcm of its denominators, and by
    top // den(|m|), with top the lcm of den over p's degrees.  The images
    are summed in ints and the sum divided by s top, one `Fraction` per term.
    """
    scale = lcm(*(c.denominator for c in p.terms.values()))
    dens = {d: den(d) for d in set(map(sum, p.terms))}
    top = lcm(*dens.values())
    out: dict[Monomial, int] = {}
    for mono, coeff in p.terms.items():
        factor = coeff.numerator * (scale // coeff.denominator) * (top // dens[sum(mono)])
        for k, x in image(mono).items():
            out[k] = out.get(k, 0) + factor * x
    top *= scale
    return p._wrap({k: Fraction(c, top) for k, c in out.items() if c})


def derivative(direction: Sequence[int], mono: Monomial) -> dict[Monomial, int]:
    """The int term dict of d_xi m = sum_v xi_v dm/dx_v, for an int direction xi."""
    return {mono[:v] + (mono[v] - 1,) + mono[v + 1:]: mono[v] * direction[v]
            for v in compress(range(len(mono)), mono) if direction[v]}


def product(a: Mapping[Monomial, Scalar], b: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """The term dict of the product of two term dicts, in their coefficients' type.

    Terms that cancel are kept as zeros; callers that need a canonical dict drop them.
    """
    out: dict[Monomial, Scalar] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(add, ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return out


def substitution(matrix: Sequence[Sequence[Scalar]]) -> tuple[int, Callable[[Monomial], dict]]:
    """(D, image) for a square M: D is the lcm of M's denominators, and image(m)
    is the int term dict of D^|m| m(Mx), zeros included.  It multiplies powers
    of the forms x_i(DMx), kept between calls."""
    rows = [[rational(x) for x in row] for row in matrix]
    scale = lcm(*(x.denominator for row in rows for x in row))
    one = (0,) * len(rows)
    towers = [[{one: 1}, {one[:j] + (1,) + one[j + 1:]: x.numerator * (scale // x.denominator)
                          for j, x in enumerate(row) if x}] for row in rows]

    def image(mono: Monomial) -> dict[Monomial, int]:
        out = None          # the first power is copied, not multiplied by 1: callers may edit it
        for v in compress(range(len(rows)), mono):
            tower = towers[v]
            while len(tower) <= mono[v]:
                tower.append(product(tower[-1], tower[1]))
            power = tower[mono[v]]
            out = dict(power) if out is None else product(out, power)
        return {one: 1} if out is None else out
    return scale, image


def divide_with_remainder(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Reduce p by d under graded-lex: p = q*d + r, no term of r divisible by lt(d).

    For a single divisor the remainder is linear in p and vanishes exactly
    when d divides p.
    """
    p._require_same_ring(d)
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    n = p.ambient_dim
    lt_mono, lt_coeff = d.leading_term()
    work = dict(p.terms)
    quotient: dict[Monomial, Fraction] = {}
    remainder: dict[Monomial, Fraction] = {}
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        if all(map(ge, mono, lt_mono)):
            q_mono = tuple(map(sub, mono, lt_mono))
            q_coeff = coeff / lt_coeff
            quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
            for m2, c2 in d.terms.items():
                if m2 == lt_mono:
                    continue
                target = tuple(map(add, q_mono, m2))
                acc = work.get(target, Fraction(0)) - q_coeff * c2
                if acc:
                    work[target] = acc
                else:
                    work.pop(target, None)
        else:
            remainder[mono] = coeff
    return Polynomial(n, quotient), Polynomial(n, remainder)


# -- text form ---------------------------------------------------------------
#
# term     ::= [sign] [rational] {var}
# var      ::= name "^" posint | name
# rational ::= int | int "/" posint
#
# Terms are joined by "+"/"-"; whitespace between variable factors implies
# multiplication.  Default names are x1..xn; callers may pass aliases.


def default_names(ambient_dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(ambient_dim)]


def render(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Graded-lex text form, highest degree first; inverse of parse."""
    if names is None:
        names = default_names(p.ambient_dim)
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for mono, coeff in p.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        factors = [f"{names[v]}^{e}" if e > 1 else names[v] for v, e in enumerate(mono) if e]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " ".join(factors)
        else:
            body = " ".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def parse(text: str, ambient_dim: int | None = None,
          names: Sequence[str] | None = None) -> Polynomial:
    """Parse the grammar above; raises ParseError with the offending position.

    >>> render(parse("x1 + x1", 2))
    '2 x1'
    >>> parse("3/2 x1^2 x2 - x3", 3).coefficient((0, 0, 1))
    Fraction(-1, 1)
    """
    if names is None:
        if ambient_dim is None:
            raise ValueError("parse needs ambient_dim or names")
        names = default_names(ambient_dim)
    elif ambient_dim is None:
        ambient_dim = len(names)
    elif ambient_dim != len(names):
        raise ValueError("ambient_dim disagrees with len(names)")
    index = {name: i for i, name in enumerate(names)}

    pos = 0
    end = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < end and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        return int(text[start:pos])

    def read_name() -> str:
        nonlocal pos
        start = pos
        pos += 1
        while pos < end and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    terms: list[tuple[Monomial, Fraction]] = []
    skip_ws()
    if pos == end:
        raise ParseError("empty polynomial text", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    while True:
        skip_ws()
        coeff = Fraction(1)
        exps = [0] * ambient_dim
        seen = False
        if pos < end and text[pos].isdigit():
            num = read_int()
            skip_ws()
            if pos < end and text[pos] == "/":
                pos += 1
                skip_ws()
                den_at = pos
                den = read_int()
                if den == 0:
                    raise ParseError("zero denominator", den_at)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            seen = True
        while True:
            skip_ws()
            if pos < end and (text[pos].isalpha() or text[pos] == "_"):
                name_at = pos
                name = read_name()
                if name not in index:
                    raise ParseError(f"unknown variable {name!r}", name_at)
                e = 1
                if pos < end and text[pos] == "^":
                    pos += 1
                    exp_at = pos
                    e = read_int()
                    if e <= 0:
                        raise ParseError("exponent must be positive", exp_at)
                exps[index[name]] += e
                seen = True
            else:
                break
        if not seen:
            raise ParseError("expected a term", pos)
        terms.append((tuple(exps), sign * coeff))
        skip_ws()
        if pos == end:
            break
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-' between terms", pos)
        sign = -1 if text[pos] == "-" else 1
        pos += 1
        skip_ws()
        if pos == end:
            raise ParseError("dangling sign", pos)
    return Polynomial(ambient_dim, terms)


def monomials_of_degree(ambient_dim: int, degree: int) -> list[Monomial]:
    """All monomials of total degree ``degree``, descending graded-lex."""
    if degree < 0:
        return []
    return [mono_from_variables(ambient_dim, variables)
            for variables in combinations_with_replacement(range(ambient_dim), degree)]


def mono_from_variables(ambient_dim: int, variables: Iterable[int]) -> Monomial:
    """The monomial of a multiset of variables, counted into an exponent vector.  Sorted
    multisets of one size in lexicographic order give descending graded-lex order."""
    exps = [0] * ambient_dim
    for v in variables:
        exps[v] += 1
    return tuple(exps)
