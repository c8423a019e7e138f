"""dunklinv benchmark: named CLI workloads, verified end to end, traced per layer.

    python3 perfbench/run.py --workload gram-monomial --seed 0 --seconds 40 --trace 0

`--workload all` (the default) interleaves every workload.  With `--trace 0`
each repetition runs `python -m dunklinv <argv> --json` in a fresh process
and the end-to-end metrics are printed; with `--trace 1` every repetition
runs the same argv once untraced and once under `tracer.py`, and the
per-layer metrics are printed.  Every run passes the correctness gate
(`verify`) or counts as failed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units are
read from BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from tracer import TARGETS, span_name, span_totals  # sys.path[0] is this directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 150     # a child still running after this is killed and counted as failed


# -- correctness checks, computed here without the program's code ---------------


def _gram(report: dict) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in report["cases"][0]["data"]["matrix"]]


def leading_minors(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Leading principal minors as running products of elimination pivots."""
    a = [row[:] for row in matrix]
    minors, product = [], Fraction(1)
    for k in range(len(a)):
        product *= a[k][k]
        minors.append(product)
        if not a[k][k]:
            break
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return minors


def check_gram(report: dict) -> list[str]:
    m = _gram(report)
    if len(m) != len(report["cases"][0]["data"]["basis"]) or any(len(r) != len(m) for r in m):
        return ["gram matrix is not square over its basis"]
    if any(m[i][j] != m[j][i] for i in range(len(m)) for j in range(i)):
        return ["gram matrix is not symmetric"]
    return []


def check_gram_invariant(report: dict) -> list[str]:
    errors = check_gram(report)
    minors = leading_minors(_gram(report))
    if not all(x > 0 for x in minors):
        errors.append("a leading principal minor is not positive")
    if [Fraction(x) for x in report["cases"][1]["data"]["minors"]] != minors:
        errors.append("reported minors differ from the recomputed ones")
    return errors


def check_takiff_image(report: dict) -> list[str]:
    # Rais-Tauvel: S(g_m)^{g_m} for sl2, m = 2 is a polynomial ring on
    # (m + 1) * rank = 3 generators of degree 2, so its degree-2j piece has
    # dimension C(j + 2, 2) and odd degrees are zero.  Restriction is
    # injective on invariants, so this is dim_image.
    errors = []
    for d, case in enumerate(report["cases"]):
        data = case["data"]
        expected = comb(d // 2 + 2, 2) if d % 2 == 0 else 0
        if case["name"] != f"degree {d}":
            errors.append(f"case {d} is {case['name']!r}, expected 'degree {d}'")
        elif data["dim_image"] != expected:
            errors.append(f"degree {d}: dim_image {data['dim_image']}, expected {expected}")
        elif d % 2 == 0 and d >= 2 and not data["dim_criterion"] > data["dim_image"]:
            errors.append(f"degree {d}: criterion space is not strictly larger than the image")
    return errors


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named CLI run; why each was chosen is in BENCHMARK.json and README.md."""

    argv: tuple[str, ...]       # "{k}" marks the multiplicities the seed draws
    pool: tuple[str, ...]       # multiplicities the seed draws from; () = no free input
    cases: int                  # number of cases a correct report has
    setup: tuple[str, ...]      # setup_probe.py arguments, "{k}" as in argv
    check: Callable[[dict], list[str]]

    def _fill(self, template: tuple[str, ...], seed: int) -> list[str]:
        if not self.pool:
            return list(template)
        k = self.pool[seed % len(self.pool)]
        return [a.replace("{k}", k) for a in template]

    def cli_argv(self, seed: int) -> list[str]:
        return self._fill(self.argv, seed) + ["--json"]

    def setup_argv(self, seed: int) -> list[str]:
        return self._fill(self.setup, seed)


WORKLOADS = {
    "gram-monomial": Workload(
        argv=("dunkl", "gram", "--type", "A3", "--k", "{k}", "--degree", "4"),
        pool=("all=1/2", "all=1/3", "all=2/3", "all=3/2", "all=3/4", "all=2/5"),
        cases=1, setup=("gram", "A3", "{k}"), check=check_gram),
    "gram-invariant": Workload(
        argv=("dunkl", "gram", "--type", "B3", "--k", "{k}", "--degree", "8",
              "--invariants-only"),
        pool=("long=1,short=1/2", "long=1/2,short=1", "long=1/3,short=1/2",
              "long=2/3,short=1/2", "long=1/2,short=1/3", "long=1/2,short=2/3"),
        cases=2, setup=("gram", "B3", "{k}"), check=check_gram_invariant),
    "takiff-image": Workload(
        argv=("takiff", "image", "--algebra", "sl2", "--m", "2", "--max-degree", "6"),
        pool=(), cases=7, setup=("takiff", "sl2", "2"), check=check_takiff_image),
}


# -- correctness gate --------------------------------------------------------------


def report_digest(report: dict) -> str:
    """sha256 of the report without its wall-time field, in the CLI's own layout."""
    stripped = {key: value for key, value in report.items() if key != "wall_time_ms"}
    return hashlib.sha256(json.dumps(stripped, indent=2).encode()).hexdigest()


def verify(workload: Workload, argv: list[str], exit_code: int, stdout: bytes,
           digests: dict[str, str]) -> list[str]:
    """Every reason this run's output is wrong; empty when it is right."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
        summary = report["summary"]
        if summary["total"] != workload.cases or len(report["cases"]) != workload.cases:
            return [f"{summary['total']} cases, expected {workload.cases}"]
        errors = [f"{summary['failed']} failed cases"] if summary["failed"] else []
        key = " ".join(argv)
        digest = report_digest(report)
        if key not in digests:
            errors.append(f"no recorded digest for {key!r} (this run's digest: {digest})")
        elif digests[key] != digest:
            errors.append(f"digest {digest} differs from the recorded {digests[key]}")
        return errors + workload.check(report)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


# -- processes ---------------------------------------------------------------------


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float           # spawn to exit
    peak_rss_mb: float
    cpu_s: float            # user + system
    stdout: bytes
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], workdir: Path) -> ChildRun:
    """Run cmd to exit through spawn.py, with src/ on the import path."""
    out_path, err_path, result_path = (workdir / n for n in ("stdout", "stderr", "result"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run([sys.executable, str(HERE / "spawn.py"), str(result_path),
                        str(CHILD_TIMEOUT_S), "--", *cmd],
                       stdout=out, stderr=err, env=child_env(), cwd=ROOT, check=True)
    result = json.loads(result_path.read_text())
    return ChildRun(result["exit_code"], result["wall_s"], result["maxrss_kb"] / 1024,
                    result["cpu_s"], out_path.read_bytes(),
                    err_path.read_text(errors="replace").strip())


def setup_seconds(workload: Workload, seed: int) -> float:
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *workload.setup_argv(seed)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {probe.returncode}: "
                           f"{probe.stderr.strip()}")
    return sum(json.loads(probe.stdout).values())


# -- metrics -------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_values(dumps: list[dict], traced: list[float], untraced: list[float],
                 cpu: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from one workload's traced runs, and any error."""
    totals = [span_totals(d["spans"]) for d in dumps]
    calls, counters = totals[0][0], dumps[0]["counters"]
    errors = []
    if any(t[0] != calls or d["counters"] != counters for t, d in zip(totals, dumps)):
        errors.append("traced runs disagree on calls or counters")
    names = {span_name(m, p) for m, p in TARGETS}

    def self_s(name):
        return statistics.median(t[1].get(name, 0.0) for t in totals)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in names:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s(name)
    c = defaultdict(int, counters)
    values.update({
        "exactalg.substitute.terms_in": c["exactalg.substitute.terms_in"],
        "exactalg.divide_with_remainder.nonzero_remainder_ratio": ratio(
            c["exactalg.divide_with_remainder.nonzero_remainder"],
            calls.get("exactalg.divide_with_remainder", 0)),
        "dunkl.dunkl_apply.zero_ratio": ratio(
            c["dunkl.dunkl_apply.zero"], calls.get("dunkl.dunkl_apply", 0)),
        "dunkl.dunkl_apply.distinct_term_ratio": ratio(
            c["dunkl.dunkl_apply.distinct_terms"], c["dunkl.dunkl_apply.terms_in"]),
        "linalg.rref.entries_in": c["linalg.rref.entries_in"],
        "linalg.rref.rank_ratio": ratio(c["linalg.rref.rank"], c["linalg.rref.rows_in"]),
        "linalg.rref.max_bits": c["linalg.rref.max_bits"],
        "liealg.invariants_graded.repeat_ratio": ratio(
            c["liealg.invariants_graded.repeats"], calls.get("liealg.invariants_graded", 0)),
        "liealg.nullspace.noop_ratio": ratio(
            c["liealg.nullspace.noop"], c["liealg.nullspace.calls"]),
        "cli.untraced_s": self_s("cli.main"),
        "process.cpu_s": statistics.median(cpu),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced) - 1,
        "trace.coverage_ratio": statistics.median(
            sum(end - start for name, start, end, parent in d["spans"] if parent < 0) / wall
            for d, wall in zip(dumps, traced)),
    })
    return values, errors


def breakdown(dump: dict, wall: float) -> list[str]:
    calls, self_s = span_totals(dump["spans"])
    return [f"  {name:<36} {self_s[name]:9.4f} s {100 * self_s[name] / wall:5.1f}%"
            f" {calls[name]:>7} calls"
            for name in sorted(self_s, key=self_s.get, reverse=True)]


# -- command line ------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def interleaved(names: list[str], rep: int) -> list[str]:
    """Round-robin order, reversed on every other repetition."""
    return names if rep % 2 == 0 else names[::-1]


def measure(workloads: dict[str, Workload], names: list[str], seed: int, seconds: float,
            trace: bool, digests: dict[str, str]) -> dict[str, dict]:
    """Run interleaved repetitions for `seconds`; per workload samples, failures, dumps."""
    OUT.mkdir(exist_ok=True)
    runs = {name: {"samples": defaultdict(list), "dumps": [], "attempted": 0,
                   "failed": 0, "errors": []} for name in names}

    def run_cli(name: str, cmd: list[str], argv: list[str], workdir: Path) -> ChildRun:
        child = run_child(cmd, workdir)
        errors = verify(workloads[name], argv, child.exit_code, child.stdout, digests)
        r = runs[name]
        r["attempted"] += 1
        r["failed"] += bool(errors)
        r["errors"] += errors + ([child.stderr] if errors and child.stderr else [])
        return child

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        rep, round_s = 0, 0.0
        # Start another round only if one more, as long as the mean so far, fits.
        while rep == 0 or time.perf_counter() - start + round_s / rep <= seconds:
            round_start = time.perf_counter()
            for name in interleaved(names, rep):
                argv = workloads[name].cli_argv(seed)
                s = runs[name]["samples"]
                if not trace:  # one probe per repetition: set-up sees the same machine as wall_s
                    s["setup_s"].append(setup_seconds(workloads[name], seed))
                child = run_cli(name, [sys.executable, "-m", "dunklinv", *argv],
                                argv, workdir)
                s["wall_s"].append(child.wall_s)
                s["peak_rss_mb"].append(child.peak_rss_mb)
                s["cpu_s"].append(child.cpu_s)
                if trace:
                    dump = workdir / "spans.json"
                    cmd = [sys.executable, str(HERE / "tracer.py"), str(dump),
                           f"{name}-seed{seed}-rep{rep}", "--", *argv]
                    child = run_cli(name, cmd, argv, workdir)
                    s["traced_s"].append(child.wall_s)
                    if child.exit_code == 0:
                        runs[name]["dumps"].append(json.loads(dump.read_text()))
                        dump.replace(OUT / f"spans-{name}.json")
            round_s += time.perf_counter() - round_start
            rep += 1
    return runs


def workload_metrics(run: dict, trace: bool) -> dict[str, float]:
    s = run["samples"]
    if not trace:
        values = {m: statistics.median(s[m]) for m in ("wall_s", "setup_s", "peak_rss_mb")}
        values["pass_ratio"] = 1 - run["failed"] / run["attempted"]
        return values
    if not run["dumps"]:
        return {}
    values, errors = layer_values(run["dumps"], s["traced_s"], s["wall_s"], s["cpu_s"])
    if errors:
        run["failed"] += 1
        run["errors"] += errors
    return values


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (SRC / "dunklinv" / "__init__.py").is_file():
        print(f"error: no dunklinv sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    names = list(workloads) if args.workload == "all" else [args.workload]

    env = environment()
    print("env: " + json.dumps(env))
    for name in names:
        w = workloads[name]
        print(f"{name}: python -m dunklinv {' '.join(w.cli_argv(args.seed))}")
        if not w.pool:
            print(f"note: {name} has no free input; --seed {args.seed} does not change it")
    runs = measure(workloads, names, args.seed, args.seconds, trace, digests)

    metrics = {}
    for name in names:
        run = runs[name]
        values = workload_metrics(run, trace)
        for message in run["errors"]:
            print(f"FAIL {name}: {message}")
        print(f"{name}: {run['attempted']} runs, {run['failed']} failed, "
              f"fail_ratio {run['failed'] / run['attempted']}")
        for metric, unit in units.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": values.get(metric, 0), "unit": unit}
            samples = run["samples"].get(metric)
            if samples:
                q1, q2, q3 = quartiles(samples)
                print(f"{name} {metric} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"n {len(samples)} {unit}")
            else:
                print(f"{name} {metric} {values.get(metric, 0):.6g} {unit}")
        if trace and run["dumps"]:
            print(f"{name} self-time breakdown (last traced run):")
            print("\n".join(breakdown(run["dumps"][-1], run["samples"]["traced_s"][-1])))
        record = {"workload": name, "seed": args.seed, "trace": trace, "env": env,
                  "argv": workloads[name].cli_argv(args.seed), "values": values,
                  "samples": run["samples"], "attempted": run["attempted"],
                  "failed": run["failed"], "errors": run["errors"]}
        (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
