"""Acceptance suite: every criterion is an exact identity with zero tolerance.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see them
live).  All expected values come either from closed-form rank-1 oracles,
generating-series oracles expanded independently in tests/oracles.py, or
generator lists asserted literally.
"""

import random
from fractions import Fraction

import pytest

from dunklinv.dunkl import (
    commutator_check,
    gram_basis,
    gram_matrix,
    make_context,
    positivity_certificate,
)
from dunklinv.exactalg import Polynomial, monomials_of_degree, render
from dunklinv.liealg import invariants_graded, takiff_extend
from dunklinv.linalg import GradedSubspace, mat_inv
from dunklinv.restriction import (
    CartanFrame,
    chevalley_graded_check,
    criterion_check,
    criterion_subspace,
    image_basis,
)
from dunklinv.rootsys import invariant_basis
from oracles import (adjointness_check, apolarity, delta_direction, derivative_pairing,
                     dunkl_pairing, invariant_stability_check, seeded_polynomials,
                     series_coefficients, variable)

K_GRID_1 = ["0", "1/2", "1", "7/3"]


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, f"{name}: {detail}"


def monomial_corpus(rank: int, max_degree: int) -> list[Polynomial]:
    return [Polynomial(rank, {mono: Fraction(1)})
            for d in range(max_degree + 1) for mono in monomials_of_degree(rank, d)]


@pytest.fixture(scope="module")
def frame_m1(sl2):
    return CartanFrame(takiff_extend(sl2, 1))


@pytest.fixture(scope="module")
def frame_m2(sl2):
    return CartanFrame(takiff_extend(sl2, 2))


def test_criterion_01_dunkl_commutativity():
    failures = []
    for system in ("A2", "B2", "G2"):
        for k in K_GRID_1:
            ctx = make_context(system, f"all={k}")
            for p in monomial_corpus(2, 5):
                if commutator_check(ctx, [1, 0], [0, 1], p):
                    failures.append((system, k, p))
    report("criterion 1: commutativity of T_xi on A2/B2/G2, k in {0,1/2,1,7/3}, deg <= 5",
           not failures, f"{len(failures)} nonzero commutators" if failures else "")


def test_criterion_02_pairing_structure():
    problems = []

    # symmetry on a seeded random corpus, degree <= 4
    for system, k in (("A1", "all=1"), ("A2", "all=1/2"), ("B2", "long=1,short=3/2")):
        ctx = make_context(system, k)
        rng = random.Random(0)
        polys = seeded_polynomials(rng, ctx.rank, 4, 6)
        for i, p in enumerate(polys):
            for q in polys[i:]:
                if dunkl_pairing(ctx, p, q) != dunkl_pairing(ctx, q, p):
                    problems.append(("symmetry", system))

    # adjointness, exhaustive at rank <= 2: monomial pairs with matching degrees
    for system, k in (("A1", "all=1"), ("A2", "all=1/2"),
                      ("B2", "long=1,short=3/2"), ("G2", "long=1,short=1/3")):
        ctx = make_context(system, k)
        by_degree = {d: monomials_of_degree(ctx.rank, d) for d in range(5)}
        for d in range(4):
            for pm in by_degree[d]:
                for qm in by_degree[d + 1]:
                    p = Polynomial(ctx.rank, {pm: Fraction(1)})
                    q = Polynomial(ctx.rank, {qm: Fraction(1)})
                    for i in range(ctx.rank):
                        xi = [Fraction(i == j) for j in range(ctx.rank)]
                        if not adjointness_check(ctx, xi, p, q):
                            problems.append(("adjointness", system, d))

    # cross-degree orthogonality
    ctx = make_context("B2", "all=1")
    corpus = monomial_corpus(2, 4)
    for p in corpus:
        for q in corpus:
            if p.degree() != q.degree() and dunkl_pairing(ctx, p, q) != 0:
                problems.append(("orthogonality", render(p)))

    # k = 0 degeneration vs independent plain-derivative code paths
    for system in ("A1", "B2"):
        ctx = make_context(system, "all=0")
        rng = random.Random(1)
        polys = seeded_polynomials(rng, ctx.rank, 4, 5)
        for p in polys:
            for q in polys:
                if dunkl_pairing(ctx, p, q) != apolarity(p, q):
                    problems.append(("apolarity", system))
    ctx = make_context("A2", "all=0")
    duals = [[row[i] for row in mat_inv(ctx.rs.form)] for i in range(2)]
    rng = random.Random(2)
    polys = seeded_polynomials(rng, 2, 4, 5)
    for p in polys:
        for q in polys:
            if dunkl_pairing(ctx, p, q) != derivative_pairing(p, q, duals):
                problems.append(("apolarity", "A2"))

    report("criterion 2: pairing symmetry / adjointness / orthogonality / k=0 degeneration",
           not problems, str(problems[:3]) if problems else "")


def test_criterion_03_positivity_on_invariants():
    bad = []
    for system, k in (("A1", "all=1"), ("A2", "all=1/2"),
                      ("B2", "long=1,short=3/2"), ("G2", "long=7/3,short=1/2")):
        ctx = make_context(system, k)
        for d in range(5):
            matrix = gram_matrix(ctx, gram_basis(ctx, d, invariants_only=True))
            if not matrix:
                continue
            definite, minors = positivity_certificate(matrix)
            if not definite:
                bad.append((system, d, [str(m) for m in minors]))
    report("criterion 3: Gram positivity on W-invariants, deg <= 4, k > 0",
           not bad, str(bad) if bad else "")


def test_criterion_04_invariant_stability():
    failures = []
    for system, k in (("A1", "all=1"), ("A2", "all=1/2"),
                      ("B2", "long=1,short=3/2"), ("G2", "long=1,short=1/3")):
        ctx = make_context(system, k)
        invariants = [b for d in range(5) for b in invariant_basis(ctx.weyl, d).basis]
        for p in invariants:
            for q in invariants:
                if not invariant_stability_check(ctx, p, q):
                    failures.append((system, p, q))
    report("criterion 4: p(T) preserves W-invariants, deg <= 4, rank <= 2",
           not failures, str(len(failures)) if failures else "")


def test_criterion_05_chevalley_graded(sl2, sl3):
    rows = []
    ok = True
    frame2, frame3 = CartanFrame(sl2), CartanFrame(sl3)
    for d in range(9):
        image, target = chevalley_graded_check(frame2, d)
        rows.append(("sl2", d, image, target))
        ok = ok and image == target and target.dim == series_coefficients([2], 8)[d]
    sl3_series = series_coefficients([2, 3], 6)
    for d in range(7):
        image, target = chevalley_graded_check(frame3, d)
        rows.append(("sl3", d, image, target))
        ok = ok and image == target and target.dim == sl3_series[d]
    ok = ok and sl3_series[6] == 2
    report("criterion 5: Chevalley image = W-invariants per degree (sl2 <= 8, sl3 <= 6; "
           "sl3@6 = 2)", ok, str([(n, d, (image.dim, target.dim))
                                 for n, d, image, target in rows if image != target]))


def test_criterion_06_theorem_base_case(frame_m1):
    series = series_coefficients([2, 2], 8)
    ok = True
    detail = ""
    for d in range(0, 9, 2):
        image = image_basis(frame_m1, d)
        criterion = criterion_subspace(frame_m1, d)
        if image != criterion:
            ok, detail = False, f"basis mismatch at degree {d}"
            break
        if image.dim != series[d]:
            ok, detail = False, f"dim {image.dim} != series {series[d]} at degree {d}"
            break
    report("criterion 6: sl2 m=1 image = criterion space, even deg <= 8, dims per 1/(1-t^2)^2",
           ok, detail)


def test_criterion_07_necessity_sl3(sl3):
    frame = CartanFrame(takiff_extend(sl3, 1))
    failures = []
    for d in range(5):
        for b in image_basis(frame, d).basis:
            result = criterion_check(frame, b, image_degree_bound=0)
            if result.condition1_witness is not None or result.condition2_witness is not None:
                failures.append((d, frame.render(b)))
    report("criterion 7: every sl3 m=1 image element (deg <= 4) passes both conditions",
           not failures, str(failures) if failures else "")


def test_criterion_08_remark_insufficiency(frame_m2):
    image = image_basis(frame_m2, 2)
    expected = GradedSubspace.from_polynomials(
        [frame_m2.parse("w^2"), frame_m2.parse("v w"), frame_m2.parse("v^2 + 2 u w")],
        frame_m2.dim, 2)
    criterion = criterion_subspace(frame_m2, 2)
    v2 = frame_m2.parse("v^2")
    result = criterion_check(frame_m2, v2)
    ok = (image == expected
          and image.dim == 3
          and criterion.dim == 4
          and criterion.contains(v2)
          and criterion.contains_subspace(image)
          and not image.contains_subspace(criterion)
          and result.condition1_witness is None and result.condition2_witness is None
          and result.in_image == "fail")
    report("criterion 8: sl2 m=2 strict inclusion; v^2 passes conditions but is not in image",
           ok)


def test_criterion_09_generator_structure(frame_m1):
    invariants = invariants_graded(frame_m1.gm, 2)
    image = image_basis(frame_m1, 2)
    expected = GradedSubspace.from_polynomials(
        [frame_m1.parse("v^2"), frame_m1.parse("u v")], frame_m1.dim, 2)
    ok = invariants.dim == 2 and image == expected
    report("criterion 9: sl2 m=1 degree-2 invariants have dim 2 and restrict to {v^2, u v}",
           ok)


def test_criterion_10_square_zero_roots(sl2):
    g1 = takiff_extend(sl2, 1)
    h_flat = g1.flat(1, 0)
    h1_flat = g1.flat(1, 1)
    u = variable(g1.dim, h_flat)
    v = variable(g1.dim, h1_flat)
    delta = delta_direction(g1, h1_flat)
    ok = (v.directional_derivative(delta) == Polynomial.zero(g1.dim)
          and u.directional_derivative(delta) == Polynomial.constant(g1.dim, 2))
    report("criterion 10: delta(h(x)T) sends v to 0 and u to 2, literally", ok)
