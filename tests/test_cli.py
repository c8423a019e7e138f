import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from dunklinv import cli, restriction
from dunklinv.cli import EXIT_BOUND, EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE, main
from dunklinv.restriction import RestrictionError
from dunklinv.exactalg import Polynomial, render
from dunklinv.linalg import GradedSubspace
from dunklinv.rootsys import WeylClosureError, invariant_basis
from oracles import a1_dunkl_monomial, a1_pairing

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# -- exit codes -----------------------------------------------------------------

def test_exit_zero_on_pass(capsys):
    code, out, _ = run(capsys, "dunkl", "gram", "--type", "A1", "--k", "all=1",
                       "--degree", "1")
    assert code == EXIT_PASS
    assert "matrix: ['3']" in out


def test_exit_one_on_property_failure(capsys):
    code, out, _ = run(capsys, "takiff", "criterion", "--algebra", "sl2", "--m", "1",
                       "--poly", "u^2")
    assert code == EXIT_FAIL
    assert "remainder = 4 u" in out


def test_exit_two_on_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dunkl", "commute", "--type", "A2"])      # missing --k
    assert excinfo.value.code == EXIT_USAGE


def test_exit_two_on_parse_error(capsys):
    code, _, err = run(capsys, "takiff", "criterion", "--algebra", "sl2",
                       "--poly", "u +")
    assert code == EXIT_USAGE
    assert "error" in err


def test_exit_two_on_bad_multiplicities(capsys):
    code, _, err = run(capsys, "dunkl", "gram", "--type", "B2", "--k", "long=1")
    assert code == EXIT_USAGE
    assert "short" in err


def test_exit_two_on_repeated_orbit_label(capsys):
    # The second long= would otherwise silently replace the first.
    code, out, err = run(capsys, "dunkl", "gram", "--type", "B2",
                         "--k", "long=1,long=0,short=1", "--degree", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "'long' given twice" in err


@pytest.mark.parametrize("argv", [
    ("dunkl", "gram", "--type", "A2", "--k", "all=1/0"),
    ("dunkl", "apply", "--type", "A2", "--k", "all=1", "--xi", "1/0,1", "--poly", "x1"),
], ids=["k", "xi"])
def test_exit_two_on_zero_denominator(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "zero denominator" in err


# Each argv asks for a run with nothing meaningful to check.
MEANINGLESS = [
    ("takiff", "criterion", "--algebra", "sl2", "--m", "0", "--poly", "u"),
    ("takiff", "image", "--algebra", "sl2", "--m", "0"),
    ("dunkl", "gram", "--type", "A1", "--k", "all=1", "--degree", "-1"),
    ("chevalley", "check", "--algebra", "sl2", "--max-degree", "-1"),
    ("dunkl", "commute", "--type", "A1", "--k", "all=1"),
    # Below degree 2 every T_j p is constant, so every commutator vanishes.
    ("dunkl", "commute", "--type", "A2", "--k", "all=1", "--max-degree", "0"),
    ("dunkl", "commute", "--type", "B2", "--k", "long=1,short=2", "--max-degree", "1",
     "--random", "3"),
    # No computation fits a work bound below 1: degree 0 alone has dimension 1.
    ("--work-bound", "0", "chevalley", "check", "--algebra", "sl2", "--max-degree", "1"),
    ("--work-bound", "-1", "dunkl", "gram", "--type", "A2", "--k", "all=1", "--degree", "0"),
    ("chevalley", "check", "--algebra", "sl2", "--max-degree", "1", "--work-bound", "0"),
    ("dunkl", "gram", "--type", "A2", "--k", "all=1", "--degree", "0", "--work-bound", "-1"),
    # --degree and --max-degree ask for different rows; neither is dropped
    # silently, not even when --max-degree repeats its default.
    ("takiff", "invariants", "--algebra", "sl2", "--m", "1", "--degree", "3", "--max-degree", "2"),
    ("takiff", "invariants", "--algebra", "sl2", "--m", "1", "--max-degree", "4", "--degree", "3"),
    ("takiff", "image", "--algebra", "sl2", "--m", "1", "--degree", "3", "--max-degree", "2"),
    ("takiff", "image", "--algebra", "sl2", "--m", "1", "--degree", "1", "--max-degree", "4"),
]


@pytest.mark.parametrize("argv", MEANINGLESS, ids=" ".join)
def test_exit_two_on_meaningless_parameters(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:                       # rejected by argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "error" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("takiff", "criterion", "--algebra", "sl3", "--m", "0", "--poly", "u1^2 + u1 u2 + u2^2"),
    ("takiff", "image", "--algebra", "sl2", "--m", "0", "--max-degree", "2"),
], ids=["criterion", "image"])
def test_m0_is_refused_by_the_library(capsys, argv):
    # --m is a plain level; the criterion's own module refuses m = 0.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: the criterion is meaningless at m = 0\n"


def test_exit_two_on_empty_invariant_basis(capsys):
    # B2 has no invariant linear forms: there is no Gram matrix to certify.
    code, out, err = run(capsys, "dunkl", "gram", "--type", "B2", "--k", "long=1,short=1/2",
                         "--degree", "1", "--invariants-only")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "B2" in err and "degree 1" in err


@pytest.mark.parametrize("error", [RestrictionError, WeylClosureError])
def test_exit_four_on_internal_invariant_failure(capsys, monkeypatch, error):
    def broken(args):
        raise error("identity failed")

    monkeypatch.setitem(cli._COMMANDS, "dunkl gram", broken)
    code, out, err = run(capsys, "dunkl", "gram", "--type", "A1", "--k", "all=1")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.count("\n") == 1 and "identity failed" in err and "Traceback" not in err


def test_exit_three_on_work_bound_with_partial_table(capsys):
    code, out, err = run(capsys, "--work-bound", "30", "chevalley", "check",
                         "--algebra", "sl3", "--max-degree", "6")
    assert code == EXIT_BOUND
    assert "degree 0" in out and "degree 1" in out   # partial rows emitted
    assert "error" in err


@pytest.mark.parametrize("action,degree_flag", [("gram", "--degree"),
                                                ("commute", "--max-degree")])
def test_exit_three_when_dunkl_space_exceeds_work_bound(capsys, action, degree_flag):
    code, out, err = run(capsys, "--work-bound", "1", "dunkl", action, "--type", "A2",
                         "--k", "all=1", degree_flag, "3")
    assert code == EXIT_BOUND
    assert out == ""
    assert "dimension 4 > 1" in err and "Traceback" not in err


def test_exit_three_when_dunkl_apply_exceeds_work_bound(capsys):
    # The degree of p sets the monomial space, as the degree does for gram.
    code, out, err = run(capsys, "dunkl", "apply", "--type", "B3", "--k", "long=1,short=1/2",
                         "--xi", "1,0,0", "--poly", "x1^300 x2 - 2/3 x3^300")
    assert code == EXIT_BOUND
    assert out == ""
    assert "dimension 45753 > 20000" in err and "Traceback" not in err
    code, _, _ = run(capsys, "--work-bound", "1", "dunkl", "apply", "--type", "A2",
                     "--k", "all=1", "--xi", "1,0", "--poly", "0")
    assert code == EXIT_PASS


def test_exit_three_when_rank_one_degree_exceeds_work_bound(capsys):
    # One variable has one monomial per degree, but the Dunkl recursion and
    # its memo step through all d + 1 degrees: those are what the bound counts.
    for argv in (("dunkl", "gram", "--type", "A1", "--k", "all=1", "--degree", "99999999999"),
                 ("dunkl", "apply", "--type", "A1", "--k", "all=1", "--xi", "1",
                  "--poly", "x1^99999999999")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BOUND and out == ""
        assert err == "error: degree 99999999999 steps through 100000000000 degrees > 20000\n"
    for bound, expected in (("3001", EXIT_PASS), ("3000", EXIT_BOUND)):
        code, _, _ = run(capsys, "--work-bound", bound, "dunkl", "apply", "--type", "A1",
                         "--k", "all=1", "--xi", "1", "--poly", "x1^3000")
        assert code == expected, bound


def test_gram_entry_past_the_int_string_limit_prints_in_full(capsys, int_digit_limit):
    # <x^1600, x^1600>_k has 4437 digits, past CPython's default 4300-digit
    # limit on int -> str conversion.  The report is printed under that
    # limit; the oracle's own str() needs it lifted.
    int_digit_limit(4300)
    code, data, _ = run_json(capsys, "dunkl", "gram", "--type", "A1", "--k", "all=1",
                             "--degree", "1600")
    assert code == EXIT_PASS
    [[entry]] = data["cases"][0]["data"]["matrix"]
    x = Polynomial(1, {(1600,): 1})
    int_digit_limit(0)
    assert len(entry) > 4300 and entry == str(a1_pairing(x, x, 1))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
@pytest.mark.parametrize("limit", [4300, 640, 0])
def test_main_leaves_the_int_digit_limit_as_it_found_it(capsys, int_digit_limit, limit):
    int_digit_limit(limit)
    for argv in (("dunkl", "apply", "--type", "A1", "--k", "all=1", "--xi", "1",
                  "--poly", "x1^3"),
                 ("--json", "dunkl", "gram", "--type", "A1", "--k", "all=1", "--degree", "1600"),
                 ("takiff", "criterion", "--algebra", "sl2", "--poly", "u +")):
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit, argv


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int <-> str conversion")
@pytest.mark.parametrize("flag,value,suffix", [
    ("--poly", "1" * 5000 + " x1", " (at position 0)\n"),
    ("--k", "all=" + "1" * 5000, " (at position 4)\n"),
    ("--xi", "1, " + "1" * 5000, " (at position 3)\n"),
], ids=["poly", "k", "xi"])
def test_exit_two_on_an_input_number_past_the_int_digit_limit(capsys, int_digit_limit,
                                                               flag, value, suffix):
    # As in the library: CPython refuses to read an int of more than 4300
    # digits from text, and the CLI does not lift that limit.  Each option
    # names where in its text the number starts, and none passes on
    # CPython's advice to lift the limit, which a CLI user cannot follow.
    int_digit_limit(4300)
    argv = {"--type": "A1", "--k": "all=1", "--xi": "1", "--poly": "x1"} | {flag: value}
    code, out, err = run(capsys, "dunkl", "apply", *(x for item in argv.items() for x in item))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert err.endswith(suffix) and "Exceeds the limit" in err
    assert err.endswith("value has 5000 digits" + suffix), err


@pytest.mark.parametrize("type_,argv,degree", [
    ("A3", ("gram", "--degree", "1" + "0" * 2499), 10 ** 2499),
    ("A2", ("apply", "--xi", "1,0", "--poly", f"x1^{'9' * 4300} x2^{'9' * 4300}"),
     2 * (10 ** 4300 - 1)),
], ids=["count-past-the-limit", "degree-past-the-limit"])
def test_exit_three_message_prints_numbers_past_the_int_digit_limit(capsys, int_digit_limit,
                                                                     type_, argv, degree):
    # The degree-d monomial space has C(n + d - 1, d) monomials: about 5000
    # digits for the 2500-digit d in A3, and d + 1, of 4301 digits, for the
    # sum of two 4300-digit exponents in A2.  Both print in full.
    int_digit_limit(4300)
    code, out, err = run(capsys, "dunkl", argv[0], "--type", type_, "--k", "all=1", *argv[1:])
    assert code == EXIT_BOUND and out == ""
    int_digit_limit(0)
    n = int(type_[1])
    size = comb(n + degree - 1, degree)
    assert err == f"error: degree-{degree} monomial space has dimension {size} > 20000\n"


@pytest.mark.parametrize("n", [3000, 2999])
def test_dunkl_apply_deep_monomial(capsys, n):
    # Every peel of x1^n enters the quotient memo: the walk must not recurse.
    code, data, _ = run_json(capsys, "dunkl", "apply", "--type", "A1", "--k", "all=1",
                             "--xi", "1", "--poly", f"x1^{n}")
    assert code == EXIT_PASS
    assert data["cases"][0]["data"]["result"] == render(a1_dunkl_monomial(n, 1))


def test_decimal_text_parses_exactly(capsys):
    code, data, _ = run_json(capsys, "dunkl", "apply", "--type", "A1", "--k", "all=0.1",
                             "--xi", "0.5", "--poly", "x1")
    assert code == EXIT_PASS
    assert data["cases"][0]["data"]["result"] == "3/5"   # (1 + 2k) / 2 with k = 1/10


# -- spec examples ---------------------------------------------------------------

def test_commute_a2(capsys):
    code, data, _ = run_json(capsys, "dunkl", "commute", "--type", "A2",
                             "--k", "all=1/2", "--max-degree", "4")
    assert code == EXIT_PASS
    assert data["summary"]["failed"] == 0


def test_commute_k_zero(capsys):
    code, data, _ = run_json(capsys, "dunkl", "commute", "--type", "B2",
                             "--k", "all=0", "--max-degree", "5")
    assert code == EXIT_PASS
    assert data["summary"] == {"total": 1, "passed": 1, "failed": 0, "unknown": 0}


def test_commute_fails_when_k_is_not_w_invariant(capsys, monkeypatch):
    # The three positive roots of A2 form one orbit; giving them k = 1, 2, 3
    # breaks W-invariance, and with it commutativity.  The witness is the
    # first monomial of the sweep whose commutator survives.
    ctx = cli.make_context("A2", "all=1")
    ctx._acting = [(idx, Fraction(n + 1)) for n, (idx, _) in enumerate(ctx._acting)]
    monkeypatch.setattr(cli, "make_context", lambda *args: ctx)
    code, data, _ = run_json(capsys, "dunkl", "commute", "--type", "A2", "--k", "all=1",
                             "--max-degree", "3")
    assert code == EXIT_FAIL
    [case] = data["cases"]
    assert (case["status"], case["witness"], case["data"]) == ("fail", "x1^2", {"cases": 10})
    assert data["summary"] == {"total": 1, "passed": 0, "failed": 1, "unknown": 0}


def test_gram_invariants_positive(capsys):
    code, data, _ = run_json(capsys, "dunkl", "gram", "--type", "A2", "--k", "all=1",
                             "--degree", "4", "--invariants-only")
    assert code == EXIT_PASS
    names = [case["name"] for case in data["cases"]]
    assert any("positive definiteness" in n for n in names)
    minors = data["cases"][-1]["data"]["minors"]
    assert all(RATIONAL.match(m) for m in minors)


def test_dunkl_apply(capsys):
    code, data, _ = run_json(capsys, "dunkl", "apply", "--type", "A1", "--k", "all=1",
                             "--xi", "1", "--poly", "x1^3")
    assert code == EXIT_PASS
    assert data["cases"][0]["data"]["result"] == "5 x1^2"


def test_chevalley_sl2(capsys):
    code, data, _ = run_json(capsys, "chevalley", "check", "--algebra", "sl2",
                             "--max-degree", "4")
    assert code == EXIT_PASS
    dims = [(c["data"]["dim_invariants"], c["data"]["dim_restricted"],
             c["data"]["dim_target"]) for c in data["cases"]]
    assert dims == [(1, 1, 1), (0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 1)]


def test_chevalley_check_builds_one_frame(capsys, monkeypatch):
    # Every degree reads the same Cartan frame of g.
    frames = []
    init = cli.CartanFrame.__init__
    monkeypatch.setattr(cli.CartanFrame, "__init__",
                        lambda self, gm: frames.append(gm) or init(self, gm))
    code, data, _ = run_json(capsys, "chevalley", "check", "--algebra", "sl3",
                             "--max-degree", "6")
    assert code == EXIT_PASS and len(data["cases"]) == 7
    assert len(frames) == 1 and frames[0].m == 0


def test_chevalley_check_computes_the_invariants_once_per_degree(capsys, monkeypatch):
    # The restriction image is built from the invariants, and the invariants
    # have its dimension: one `invariants_graded` call per degree.
    degrees = []
    graded = restriction.invariants_graded
    monkeypatch.setattr(restriction, "invariants_graded",
                        lambda gm, d, *rest: degrees.append(d) or graded(gm, d, *rest))
    code, data, _ = run_json(capsys, "chevalley", "check", "--algebra", "sl3",
                             "--max-degree", "6")
    assert code == EXIT_PASS
    assert degrees == list(range(7))
    assert [case["data"]["dim_invariants"] for case in data["cases"]] == [1, 0, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("command", ["invariants", "image"])
def test_takiff_degree_range_defaults_to_four(capsys, command):
    code, data, _ = run_json(capsys, "takiff", command, "--algebra", "sl2", "--m", "1")
    assert code == EXIT_PASS
    assert [case["name"].split()[1] for case in data["cases"]] == ["0", "1", "2", "3", "4"]


def test_chevalley_check_compares_canonical_bases(capsys, monkeypatch):
    # A target with the image's dimension but another basis fails its degree.
    real = restriction.rootsys.invariant_basis
    x1_squared = GradedSubspace.from_polynomials([Polynomial(2, {(2, 0): 1})], 2, 2)
    monkeypatch.setattr(restriction.rootsys, "invariant_basis",
                        lambda weyl, d: x1_squared if d == 2 else real(weyl, d))
    code, data, _ = run_json(capsys, "chevalley", "check", "--algebra", "sl3",
                             "--max-degree", "2")
    assert code == EXIT_FAIL
    assert [case["status"] for case in data["cases"]] == ["pass", "pass", "fail"]
    assert data["cases"][2]["data"] == {"dim_invariants": 1, "dim_restricted": 1,
                                        "dim_target": 1}


def test_chevalley_degree_zero_row(capsys):
    code, data, _ = run_json(capsys, "chevalley", "check", "--algebra", "sl2",
                             "--max-degree", "0")
    assert code == EXIT_PASS
    assert len(data["cases"]) == 1
    assert data["cases"][0]["data"] == {
        "dim_invariants": 1, "dim_restricted": 1, "dim_target": 1}


def test_takiff_invariants(capsys):
    code, data, _ = run_json(capsys, "takiff", "invariants", "--algebra", "sl2",
                             "--m", "1", "--degree", "2")
    assert code == EXIT_PASS
    assert data["cases"][0]["data"]["dim"] == 2


def test_takiff_image_equality_sl2_m1(capsys):
    code, data, _ = run_json(capsys, "takiff", "image", "--algebra", "sl2",
                             "--m", "1", "--max-degree", "6")
    assert code == EXIT_PASS
    for case in data["cases"]:
        assert case["data"]["verdict"] == "equal"


def test_takiff_image_strict_sl2_m2(capsys):
    code, data, _ = run_json(capsys, "takiff", "image", "--algebra", "sl2",
                             "--m", "2", "--degree", "2")
    assert code == EXIT_PASS
    case = data["cases"][0]
    assert case["data"]["dim_image"] == 3
    assert case["data"]["dim_criterion"] == 4
    assert case["data"]["verdict"] == "strict inclusion"


def test_takiff_image_odd_degree(capsys):
    code, data, _ = run_json(capsys, "takiff", "image", "--algebra", "sl2",
                             "--m", "1", "--degree", "3")
    assert code == EXIT_PASS
    assert data["cases"][0]["data"]["dim_image"] == 0
    assert data["cases"][0]["data"]["dim_criterion"] == 0


def test_takiff_image_sl3_dimension_mode(capsys):
    code, data, _ = run_json(capsys, "takiff", "image", "--algebra", "sl3",
                             "--m", "1", "--degree", "2")
    assert code == EXIT_PASS
    assert data["parameters"]["mode"] == "dims"
    case = data["cases"][0]
    assert case["data"]["dim_image"] == case["data"]["dim_criterion"] == 2
    assert "image_basis" not in case["data"]


def test_takiff_image_work_bound_counts_h_m_monomials(capsys):
    # The image and the criterion space both live on h_2, 3 variables: 28
    # monomials at degree 6, where S^6(g_2), on 9 variables, has 3003.
    code, data, err = run_json(capsys, "--work-bound", "100", "takiff", "image",
                               "--algebra", "sl2", "--m", "2", "--max-degree", "6")
    assert code == EXIT_PASS and err == ""
    assert [case["data"]["dim_image"] for case in data["cases"]] == [1, 0, 3, 0, 6, 0, 10]
    code, out, err = run(capsys, "--work-bound", "20", "takiff", "image",
                         "--algebra", "sl2", "--m", "2", "--max-degree", "6")
    assert code == EXIT_BOUND and out == ""
    assert err == "error: degree-5 monomial space has dimension 21 > 20\n"


@pytest.mark.parametrize("algebra, m, highest", [("sl3", "2", 1), ("sl2", "3", 2)])
def test_takiff_image_refuses_m_past_the_algebra_table(capsys, algebra, m, highest):
    code, out, err = run(capsys, "takiff", "image", "--algebra", algebra, "--m", m)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines() == [f"error: takiff image supports {algebra} with m <= {highest}"]


def test_takiff_criterion_base_case_generator(capsys):
    code, data, _ = run_json(capsys, "takiff", "criterion", "--algebra", "sl2",
                             "--m", "1", "--poly", "u v")
    assert code == EXIT_PASS
    assert all(c["status"] == "pass" for c in data["cases"])


def test_takiff_criterion_v2_m2(capsys):
    code, data, _ = run_json(capsys, "takiff", "criterion", "--algebra", "sl2",
                             "--m", "2", "--poly", "v^2")
    assert code == EXIT_FAIL
    statuses = {c["name"]: c["status"] for c in data["cases"]}
    assert statuses["condition 1: diagonal reflection invariance"] == "pass"
    assert statuses["condition 2: coroot-power divisibility"] == "pass"
    assert statuses["membership in the restriction image"] == "fail"


# -- report shape -----------------------------------------------------------------

SCHEMA_COMMANDS = [
    ("dunkl", "commute", "--type", "A2", "--k", "all=1", "--max-degree", "3"),
    ("dunkl", "gram", "--type", "A1", "--k", "all=1", "--degree", "2"),
    ("dunkl", "apply", "--type", "A1", "--k", "all=0", "--xi", "1", "--poly", "x1"),
    ("chevalley", "check", "--algebra", "sl2", "--max-degree", "2"),
    ("takiff", "invariants", "--algebra", "sl2", "--m", "1", "--degree", "2"),
    ("takiff", "image", "--algebra", "sl2", "--m", "1", "--degree", "2"),
    ("takiff", "criterion", "--algebra", "sl2", "--m", "1", "--poly", "v^2"),
]


@pytest.mark.parametrize("argv", SCHEMA_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_json_schema_stable(capsys, argv):
    _, data, _ = run_json(capsys, *argv)
    assert set(data) == {"command", "parameters", "cases", "summary", "wall_time_ms"}
    assert isinstance(data["parameters"], dict)
    assert isinstance(data["wall_time_ms"], int)
    assert set(data["summary"]) == {"total", "passed", "failed", "unknown"}
    assert data["summary"]["total"] == len(data["cases"])
    for case in data["cases"]:
        assert set(case) == {"name", "status", "witness", "data"}
        assert case["status"] in ("pass", "fail", "unknown")


def test_json_no_floats_anywhere(capsys):
    _, data, _ = run_json(capsys, "dunkl", "gram", "--type", "B2",
                          "--k", "long=1,short=3/2", "--degree", "2")
    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into the report")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
    walk(data)
    matrix = data["cases"][0]["data"]["matrix"]
    assert all(RATIONAL.match(entry) for row in matrix for entry in row)


def test_json_deterministic_modulo_walltime(capsys):
    argv = ("dunkl", "commute", "--type", "A2", "--k", "all=1/2",
            "--max-degree", "3", "--random", "2", "--seed", "7")
    _, first, _ = run_json(capsys, *argv)
    _, second, _ = run_json(capsys, *argv)
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)


def test_gram_invariants_compute_the_basis_once(capsys, monkeypatch):
    from dunklinv import dunkl
    calls = []

    def counted(weyl, degree):
        calls.append(degree)
        return invariant_basis(weyl, degree)

    monkeypatch.setattr(dunkl, "invariant_basis", counted)
    code, report, _ = run_json(capsys, "dunkl", "gram", "--type", "B2", "--k", "all=1",
                               "--degree", "4", "--invariants-only")
    assert code == EXIT_PASS
    assert len(report["cases"][0]["data"]["basis"]) == 2
    assert calls == [4]



# -- fuzz grid: every subcommand at edge values ----------------------------------

_DEGREES = ("0", "1", "-1")
_BAD_K = ("all=", "all=x", "all=1/0", "=1", "long=1", "foo=1", "")
_BAD_POLY = ("", "u +", "x1^", "u^-1", "1/0", "u^2.5", "((u)", "x9", "0.5 u")
_FUZZ = {
    "dunkl commute": [
        *(["dunkl", "commute", "--type", t, "--k", "all=1", "--max-degree", d]
          for t in ("A1", "A2") for d in _DEGREES),
        *(["dunkl", "commute", "--type", "B2", "--k", k, "--max-degree", "1"] for k in _BAD_K)],
    "dunkl gram": [
        *(["dunkl", "gram", "--type", "B2", "--k", "long=1,short=1/2", "--degree", d, *inv]
          for d in _DEGREES for inv in ([], ["--invariants-only"])),
        *(["dunkl", "gram", "--type", "A2", "--k", k, "--degree", "1"] for k in _BAD_K)],
    "dunkl apply": [
        *(["dunkl", "apply", "--type", "A2", "--k", k, "--xi", "1,0", "--poly", "x1"]
          for k in _BAD_K),
        *(["dunkl", "apply", "--type", "A2", "--k", "all=1", "--xi", "1,0", "--poly", p]
          for p in _BAD_POLY),
        *(["dunkl", "apply", "--type", "A2", "--k", "all=1", "--xi", xi, "--poly", "x1"]
          for xi in ("", "1", "1,a", "1/0,1"))],
    "chevalley check": [["chevalley", "check", "--algebra", "sl2", "--max-degree", d]
                        for d in _DEGREES],
    "takiff invariants": [["takiff", "invariants", "--algebra", "sl2", "--m", m, "--degree", d]
                          for m in "0123" for d in _DEGREES],
    "takiff image": [["takiff", "image", "--algebra", "sl2", "--m", m, "--degree", d]
                     for m in "0123" for d in _DEGREES],
    "takiff criterion": [
        *(["takiff", "criterion", "--algebra", "sl2", "--m", m, "--poly", "u^2",
           "--max-degree", d] for m in "0123" for d in _DEGREES),
        *(["takiff", "criterion", "--algebra", "sl2", "--m", "1", "--poly", p]
          for p in _BAD_POLY)],
}


@pytest.mark.parametrize("command", _FUZZ)
def test_cli_edge_values_never_traceback(capsys, command):
    grid = _FUZZ[command]
    for argv in [*grid, [*grid[0], "--work-bound", "1"]]:
        for flags in ([], ["--json"]):
            try:
                code = main([*flags, *argv])
            except SystemExit as exc:       # argparse refusing the command line
                code = exc.code
            err = capsys.readouterr().err
            assert "Traceback" not in err, argv
            assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BOUND, EXIT_INTERNAL), argv


# -- start-up -------------------------------------------------------------------

# Importing `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`: about
# 20 ms of every CLI process, for nothing a computation needs.
_INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _introspection_loaded(code: str) -> set[str]:
    """The `_INTROSPECTION` modules loaded after running `code` in a fresh interpreter."""
    code += ("\nimport json, sys\n"
             f"print(json.dumps(sorted(set({_INTROSPECTION!r}) & set(sys.modules))))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_run_loads_no_introspection_modules():
    # Deterministic, no timing: a CLI run loads none of these beyond what a
    # bare interpreter in the same environment already has.
    run = ("from dunklinv import cli\n"
           "cli.main(['dunkl', 'gram', '--type', 'A2', '--k', 'all=1/2', '--degree', '3'])\n"
           "cli.main(['takiff', 'image', '--algebra', 'sl2', '--m', '1', '--max-degree', '2'])")
    assert _introspection_loaded(run) <= _introspection_loaded("pass")
