"""Command-line front end: property sweeps and exact reports.

Subcommands:
    dunkl commute | gram | apply
    chevalley check
    takiff invariants | image | criterion

A report is the dict its JSON prints.  Each command builds "parameters"
and "cases", a case being "name", "status" ("pass", "fail" or "unknown"),
"witness" and "data"; `main` puts the command's `_COMMANDS` key first, as
"command", `_finish` adds "summary" and "wall_time_ms", and `_text` renders
the same dict as text.  Every rational
is emitted as a "p/q" string, never a float, and in full, through
`exactalg.exact_str`, whatever CPython's limit on the digits of an int
printed as text; a number given past that limit is refused as text that
does not parse.  A fixed seed makes randomized cases reproducible:
identical configurations produce byte-identical JSON apart from the
wall-time field.

Exit codes: 0 all cases passed, 1 some property failed, 2 usage or parse
error (including a parameter that leaves nothing to check), 3 a work bound
was exceeded, 4 an internal invariant failed (a bug, reported in one line).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import accumulate

from .exactalg import (WORK_BOUND, ParseError, Polynomial, WorkBoundExceeded, check_work_bound,
                       exact_str, monomials_of_degree, parse as parse_poly, rational, render)
from .dunkl import (commutator_check, dunkl_apply, gram_basis, gram_matrix, make_context,
                    positivity_certificate)
from .liealg import adjoint_derivation, invariants_graded, make_sl, takiff_extend
from .restriction import (IMAGE_DEGREE_BOUND, CartanFrame, RestrictionError,
                          chevalley_graded_check, criterion_check, criterion_subspace,
                          image_basis)
from .rootsys import WeylClosureError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4


def _case(name: str, status: str, witness: str | None = None, data: dict | None = None) -> dict:
    """One row of a report; status is "pass", "fail" or "unknown"."""
    return {"name": name, "status": status, "witness": witness,
            "data": {} if data is None else data}


def _finish(report: dict, wall_ms: int) -> dict:
    """Add the summary of the cases and the wall time, the last two keys of a report."""
    statuses = [case["status"] for case in report["cases"]]
    report["summary"] = {"total": len(statuses), "passed": statuses.count("pass"),
                         "failed": statuses.count("fail"), "unknown": statuses.count("unknown")}
    report["wall_time_ms"] = wall_ms
    return report


def _text(report: dict) -> str:
    """The text form of a finished report."""
    lines = [f"command: {report['command']}"]
    for key, value in report["parameters"].items():
        lines.append(f"  {key}: {value}")
    for c in report["cases"]:
        line = f"[{c['status'].upper():>4}] {c['name']}"
        if c["witness"]:
            line += f"  witness: {c['witness']}"
        lines.append(line)
        for key, value in c["data"].items():
            if isinstance(value, list):
                for item in value:
                    lines.append(f"         {key}: {item}")
            else:
                lines.append(f"         {key}: {value}")
    s = report["summary"]
    lines.append(f"summary: {s['passed']}/{s['total']} passed, "
                 f"{s['failed']} failed, {s['unknown']} unknown ({report['wall_time_ms']} ms)")
    return "\n".join(lines)


def _random_polynomial(rng: random.Random, dim: int, max_degree: int) -> Polynomial:
    terms = {}
    for d in range(max_degree + 1):
        for mono in monomials_of_degree(dim, d):
            if rng.random() < 0.4:
                num = rng.randint(-4, 4)
                den = rng.randint(1, 3)
                if num:
                    terms[mono] = Fraction(num, den)
    return Polynomial(dim, terms)


# -- dunkl ----------------------------------------------------------------


def cmd_dunkl_commute(args: argparse.Namespace) -> dict:
    ctx = make_context(args.type, args.k)
    rank = ctx.rank
    if rank < 2:
        raise ValueError(f"{args.type} has rank 1: there is no pair of operators to commute")
    if args.max_degree < 2:
        raise ValueError(f"--max-degree {args.max_degree}: commutators vanish below degree 2")
    check_work_bound(rank, args.max_degree, args.work_bound)
    cases = []
    directions = [[Fraction(i == j) for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            failures = []
            count = 0
            for d in range(args.max_degree + 1):
                for mono in monomials_of_degree(rank, d):
                    p = Polynomial(rank, {mono: Fraction(1)})
                    count += 1
                    if commutator_check(ctx, directions[i], directions[j], p):
                        failures.append(render(p))
            cases.append(_case(
                f"[T_e{i + 1}, T_e{j + 1}] on monomials of degree <= {args.max_degree}",
                "pass" if not failures else "fail",
                witness=failures[0] if failures else None,
                data={"cases": count}))
    if args.random_cases:
        rng = random.Random(args.seed)
        failures = []
        for _ in range(args.random_cases):
            p = _random_polynomial(rng, rank, args.max_degree)
            for i in range(rank):
                for j in range(i + 1, rank):
                    if commutator_check(ctx, directions[i], directions[j], p):
                        failures.append(render(p))
        cases.append(_case(f"random polynomials ({args.random_cases})",
                           "pass" if not failures else "fail",
                           witness=failures[0] if failures else None))
    return {"parameters": {"type": args.type, "k": args.k, "max_degree": args.max_degree,
                           "random": args.random_cases, "seed": args.seed},
            "cases": cases}


def cmd_dunkl_gram(args: argparse.Namespace) -> dict:
    ctx = make_context(args.type, args.k)
    check_work_bound(ctx.rank, args.degree, args.work_bound)
    basis = gram_basis(ctx, args.degree, args.invariants_only)
    if not basis:
        raise ValueError(f"{args.type} has no W-invariants of degree {args.degree}: "
                         "the Gram matrix would be empty")
    matrix = gram_matrix(ctx, basis)
    symmetric = all(matrix[i][j] == matrix[j][i]
                    for i in range(len(matrix)) for j in range(len(matrix)))
    cases = [_case(f"gram matrix ({len(basis)}x{len(basis)})",
                   "pass" if symmetric else "fail",
                   witness=None if symmetric else "matrix is not symmetric",
                   data={"basis": [render(b) for b in basis],
                         "matrix": [list(map(exact_str, row)) for row in matrix]})]
    k_values = ctx.k.resolve(ctx.rs)
    if args.invariants_only and all(v > 0 for v in k_values.values()):
        definite, minors = positivity_certificate(matrix)
        cases.append(_case("positive definiteness (leading principal minors)",
                           "pass" if definite else "fail",
                           data={"minors": list(map(exact_str, minors))}))
    return {"parameters": {"type": args.type, "k": args.k, "degree": args.degree,
                           "invariants_only": args.invariants_only},
            "cases": cases}


def cmd_dunkl_apply(args: argparse.Namespace) -> dict:
    ctx = make_context(args.type, args.k)
    parts = args.xi.split(",")
    xi = list(map(rational, parts, accumulate((len(part) + 1 for part in parts), initial=0)))
    p = parse_poly(args.poly, ctx.rank)
    check_work_bound(ctx.rank, max(p.degree(), 0), args.work_bound)
    result = dunkl_apply(ctx, xi, p)
    return {"parameters": {"type": args.type, "k": args.k, "xi": args.xi, "poly": args.poly},
            "cases": [_case(f"T_xi({render(p)})", "pass", data={"result": render(result)})]}


# -- chevalley -------------------------------------------------------------


class BoundExceededWithPartial(Exception):
    """Carries the report of the rows finished before a work bound stopped the sweep."""

    def __init__(self, report: dict, cause: WorkBoundExceeded):
        super().__init__(str(cause))
        self.report = report


def cmd_chevalley_check(args: argparse.Namespace) -> dict:
    frame = CartanFrame(_algebra(args.algebra))
    report = {"parameters": {"algebra": args.algebra, "max_degree": args.max_degree,
                             "work_bound": args.work_bound},
              "cases": []}
    for d in range(args.max_degree + 1):
        try:
            image, target = chevalley_graded_check(frame, d, args.work_bound)
        except WorkBoundExceeded as exc:
            raise BoundExceededWithPartial(report, exc) from exc
        # The check restricts g's own invariants and raises unless restriction
        # is injective on them, so the invariants have the image's dimension.
        report["cases"].append(_case(
            f"degree {d}", "pass" if image == target else "fail",
            data={"dim_invariants": image.dim, "dim_restricted": image.dim,
                  "dim_target": target.dim}))
    return report


# -- takiff ----------------------------------------------------------------


# --algebra name -> (n of sl(n), the highest m `takiff image` accepts,
#                    whether the `takiff image` report lists bases)
_ALGEBRAS = {"sl2": (2, 2, True), "sl3": (3, 1, False)}


def _algebra(name: str):
    return make_sl(_ALGEBRAS[name][0])


def _degree_range(args: argparse.Namespace) -> list[int]:
    """[--degree], else 0..--max-degree (default 4); the two flags exclude each other."""
    top = 4 if args.max_degree is None else args.max_degree
    return list(range(top + 1)) if args.degree is None else [args.degree]


def cmd_takiff_invariants(args: argparse.Namespace) -> dict:
    gm = takiff_extend(_algebra(args.algebra), args.m)
    names = list(gm.basis_names)
    cases = []
    for d in _degree_range(args):
        basis = invariants_graded(gm, d, args.work_bound)
        annihilated = all(
            not adjoint_derivation(gm, x, b)
            for b in basis.basis for x in range(gm.dim))
        cases.append(_case(f"degree {d} invariants", "pass" if annihilated else "fail",
                           data={"dim": basis.dim, "basis": basis.render(names)}))
    return {"parameters": {"algebra": args.algebra, "m": args.m, "work_bound": args.work_bound},
            "cases": cases}


def cmd_takiff_image(args: argparse.Namespace) -> dict:
    _, max_m, list_bases = _ALGEBRAS[args.algebra]
    if args.m > max_m:
        raise ValueError(f"takiff image supports {args.algebra} with m <= {max_m}")
    frame = CartanFrame(takiff_extend(_algebra(args.algebra), args.m))
    cases = []
    for d in _degree_range(args):
        image = image_basis(frame, d, args.work_bound)
        criterion = criterion_subspace(frame, d, args.work_bound)
        included = criterion.contains_subspace(image)
        if image.dim == criterion.dim and included:
            verdict = "equal"
        elif included:
            verdict = "strict inclusion"
        else:
            verdict = "criterion does not contain image"
        data = {"dim_image": image.dim, "dim_criterion": criterion.dim,
                "verdict": verdict}
        if list_bases:
            data["image_basis"] = image.render(frame.names)
            data["criterion_basis"] = criterion.render(frame.names)
        cases.append(_case(f"degree {d}", "pass" if included else "fail", data=data))
    return {"parameters": {"algebra": args.algebra, "m": args.m,
                           "mode": "basis" if list_bases else "dims",
                           "work_bound": args.work_bound},
            "cases": cases}


def cmd_takiff_criterion(args: argparse.Namespace) -> dict:
    frame = CartanFrame(takiff_extend(_algebra(args.algebra), args.m))
    p = frame.parse(args.poly)
    reflection, divisibility, membership = criterion_check(
        frame, p, image_degree_bound=args.max_degree, work_bound=args.work_bound)
    return {"parameters": {"algebra": args.algebra, "m": args.m, "poly": args.poly,
                           "variables": list(frame.names),
                           "raw_variables": [[i, s] for (i, s) in frame.raw_pairs],
                           "image_degree_bound": args.max_degree},
            "cases": [_case("condition 1: diagonal reflection invariance",
                            "pass" if reflection is None else "fail",
                            witness=None if reflection is None
                            else f"not fixed by r_alpha, alpha = {reflection}"),
                      _case("condition 2: coroot-power divisibility",
                            "pass" if divisibility is None else "fail",
                            witness=None if divisibility is None
                            else "alpha = {}, n = {}, remainder = {}".format(*divisibility)),
                      _case("membership in the restriction image", membership,
                            data={"degree_bound": args.max_degree})]}


# -- driver ----------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer >= low, so a run cannot silently check nothing."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_NONNEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklinv",
        description="Exact Dunkl operators, Weyl invariants, and Takiff restriction images.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized cases")
    parser.add_argument("--work-bound", type=_POSITIVE, default=WORK_BOUND,
                        help="monomial-space size limit for graded computations")
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-level absence from clobbering a top-level occurrence.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--work-bound", type=_POSITIVE, default=argparse.SUPPRESS)
    parents = {"parents": [common]}
    top = parser.add_subparsers(dest="group", required=True)

    dunkl = top.add_parser("dunkl", help="Dunkl operator properties").add_subparsers(
        dest="action", required=True)
    commute = dunkl.add_parser("commute", help="check pairwise commutativity", **parents)
    commute.add_argument("--type", required=True, help="root system, e.g. A2")
    commute.add_argument("--k", required=True, help='multiplicities, e.g. "all=1/2"')
    commute.add_argument("--max-degree", type=_NONNEGATIVE, default=5)
    commute.add_argument("--random", type=_NONNEGATIVE, default=0, dest="random_cases",
                         help="extra random polynomials")
    gram = dunkl.add_parser("gram", help="exact Gram matrix of the pairing", **parents)
    gram.add_argument("--type", required=True)
    gram.add_argument("--k", required=True)
    gram.add_argument("--degree", type=_NONNEGATIVE, default=2)
    gram.add_argument("--invariants-only", action="store_true")
    apply_ = dunkl.add_parser("apply", help="apply T_xi to a polynomial", **parents)
    apply_.add_argument("--type", required=True)
    apply_.add_argument("--k", required=True)
    apply_.add_argument("--xi", required=True, help="comma-separated rationals")
    apply_.add_argument("--poly", required=True, help="polynomial in x1..xn")

    chev = top.add_parser("chevalley", help="graded restriction checks").add_subparsers(
        dest="action", required=True)
    check = chev.add_parser("check", help="invariant/restriction/target dimensions", **parents)
    check.add_argument("--algebra", required=True, choices=_ALGEBRAS)
    check.add_argument("--max-degree", type=_NONNEGATIVE, default=6)

    takiff = top.add_parser("takiff", help="Takiff algebra computations").add_subparsers(
        dest="action", required=True)
    inv = takiff.add_parser("invariants", help="graded invariant bases", **parents)
    inv.add_argument("--algebra", required=True, choices=_ALGEBRAS)
    inv.add_argument("--m", type=int, default=1)
    image = takiff.add_parser("image", help="restriction image vs criterion space", **parents)
    image.add_argument("--algebra", required=True, choices=_ALGEBRAS)
    image.add_argument("--m", type=_NONNEGATIVE, default=1, help="truncation order")
    for sub in (inv, image):
        # One degree or a range, not both.  The range has no default in
        # argparse, which would take an explicit "--max-degree 4" for absent.
        degrees = sub.add_mutually_exclusive_group()
        degrees.add_argument("--degree", type=_NONNEGATIVE)
        degrees.add_argument("--max-degree", type=_NONNEGATIVE, help="0..D, default 4")
    crit = takiff.add_parser("criterion", help="run the membership criterion on a polynomial", **parents)
    crit.add_argument("--algebra", required=True, choices=_ALGEBRAS)
    crit.add_argument("--m", type=_NONNEGATIVE, default=1, help="truncation order")
    crit.add_argument("--poly", required=True, help="polynomial in the h_m aliases (u, v, w)")
    crit.add_argument("--max-degree", type=_NONNEGATIVE, default=IMAGE_DEGREE_BOUND,
                      help="membership degree bound")
    return parser


_COMMANDS = {
    "dunkl commute": cmd_dunkl_commute,
    "dunkl gram": cmd_dunkl_gram,
    "dunkl apply": cmd_dunkl_apply,
    "chevalley check": cmd_chevalley_check,
    "takiff invariants": cmd_takiff_invariants,
    "takiff image": cmd_takiff_image,
    "takiff criterion": cmd_takiff_criterion,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    command = f"{args.group} {args.action}"

    def emit(report: dict) -> dict:
        report = _finish({"command": command} | report, int((time.monotonic() - started) * 1000))
        print(json.dumps(report, indent=2) if args.json else _text(report))
        return report

    try:
        report = _COMMANDS[command](args)
    except BoundExceededWithPartial as exc:
        emit(exc.report)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except WorkBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RestrictionError, WeylClosureError) as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if emit(report)["summary"]["failed"] == 0 else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
