"""End-to-end run of the harness on reduced inputs, and its correctness gate.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import run

# Same workloads at low degree; their digests are recorded in digests.json too.
SMOKE = {
    "gram-monomial": replace(run.WORKLOADS["gram-monomial"],
                             argv=("dunkl", "gram", "--type", "A3", "--k", "{k}",
                                   "--degree", "2")),
    "gram-invariant": replace(run.WORKLOADS["gram-invariant"],
                              argv=("dunkl", "gram", "--type", "B3", "--k", "{k}",
                                    "--degree", "2", "--invariants-only")),
    "takiff-image": replace(run.WORKLOADS["takiff-image"], cases=3,
                            argv=("takiff", "image", "--algebra", "sl2", "--m", "2",
                                  "--max-degree", "2")),
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, trace, seed=0):
    code = run.main(["--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                    workloads=SMOKE)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def _check_printout(lines, result, specs):
    assert result["correct"] and result["failed"] == 0
    for name in SMOKE:
        for spec in specs:
            key = f"{name}/{spec['name']}"
            assert result["metrics"][key]["unit"] == spec["unit"]
            assert any(line.startswith(f"{name} {spec['name']} ") and
                       line.endswith(f" {spec['unit']}") for line in lines), key


def test_end_to_end_metrics_printed_with_units(capsys):
    code, lines, result = _run(capsys, trace=0, seed=1)
    assert code == 0
    _check_printout(lines, result, BENCH["end_to_end"])
    assert result["attempted"] == len(SMOKE)
    assert "note: takiff-image has no free input; --seed 1 does not change it" in lines
    assert any(line.startswith("env: ") and '"commit"' in line for line in lines)


def test_per_layer_metrics_printed_with_units(capsys):
    code, lines, result = _run(capsys, trace=1)
    assert code == 0
    _check_printout(lines, result, BENCH["per_layer"])
    assert result["attempted"] == 2 * len(SMOKE)
    metrics = result["metrics"]
    assert 0 < metrics["gram-monomial/trace.coverage_ratio"]["value"] <= 1
    assert metrics["gram-monomial/exactalg.divide_with_remainder.nonzero_remainder_ratio"][
        "value"] == 0
    assert metrics["takiff-image/dunkl.dunkl_apply.calls"]["value"] == 0
    assert metrics["takiff-image/linalg.rref.calls"]["value"] > 0


def _report(argv):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run([sys.executable, "-m", "dunklinv", *argv], capture_output=True,
                          env=env, check=True)
    return proc.stdout


def test_gate_rejects_wrong_digest_and_wrong_answers():
    w = SMOKE["gram-invariant"]
    argv = w.cli_argv(0)
    stdout = _report(argv)
    digests = json.loads(run.DIGESTS.read_text())
    assert run.verify(w, argv, 0, stdout, digests) == []
    assert "differs from the recorded" in run.verify(
        w, argv, 0, stdout, {" ".join(argv): "0" * 64})[0]
    assert "no recorded digest" in run.verify(w, argv, 0, stdout, {})[0]
    assert run.verify(w, argv, 1, stdout, digests) == ["exit code 1"]

    report = json.loads(stdout)
    report["cases"][1]["data"]["minors"] = ["-1"]
    assert run.check_gram_invariant(report)
    matrix = [[1, 2], [3, 4]]
    assert run.check_gram({"cases": [{"data": {"matrix": matrix, "basis": ["a", "b"]}}]})
    assert run.leading_minors([[2, 1], [1, 2]]) == [2, 3]


def test_gate_checks_takiff_dimensions():
    report = json.loads(_report(SMOKE["takiff-image"].cli_argv(0)))
    assert run.check_takiff_image(report) == []
    report["cases"][2]["data"]["dim_criterion"] = report["cases"][2]["data"]["dim_image"]
    assert run.check_takiff_image(report)
    report["cases"][2]["data"]["dim_image"] = 4
    assert "expected 3" in run.check_takiff_image(report)[0]
