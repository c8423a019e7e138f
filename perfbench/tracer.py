"""Outside-in tracing of dunklinv's layers.

`Tracer.install()` rebinds, in every loaded `dunklinv` module, each attribute
that *is* one of the TARGETS functions (from-import aliases such as
`cli.gram_matrix` or `liealg.nullspace` included), and patches the target
methods on their class.  Each call then records one span
`[name, start, end, parent]` in memory and feeds the counters below.  Nothing
per term is wrapped: the busiest target, `Polynomial.substitute`, is called
at most about 7k times in one workload run.

Run as a script, it traces one CLI run and writes the dump at exit:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json RUN_ID -- dunkl gram ... --json

The CLI's stdout passes through unchanged, so its digest can be checked.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every wrapped function.  The span name is
# "<module>.<function>", or "<module>.<Class>" for a constructor.
TARGETS = (
    ("cli", "main"),
    ("exactalg", "Polynomial.substitute"),
    ("exactalg", "Polynomial.directional_derivative"),
    ("exactalg", "divide_with_remainder"),
    ("rootsys", "generate_weyl"),
    ("rootsys", "reynolds"),
    ("rootsys", "invariant_basis"),
    ("dunkl", "make_context"),
    ("dunkl", "dunkl_apply"),
    ("dunkl", "dunkl_compose"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "GradedSubspace.from_polynomials"),
    ("liealg", "takiff_extend"),
    ("liealg", "invariants_graded"),
    ("liealg", "adjoint_derivation"),
    ("restriction", "CartanFrame.__init__"),
    ("restriction", "image_basis"),
    ("restriction", "criterion_subspace"),
)


def span_name(module: str, path: str) -> str:
    owner, _, attr = path.rpartition(".")
    return f"{module}.{owner if attr == '__init__' else attr}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced process; `restore()` undoes `install()`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._distinct_terms: set = set()
        self._invariant_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}

    # -- counters, computed from each call's arguments and result -----------

    def _observe(self, name, args, kwargs, result):
        c = self.counters
        if name == "exactalg.substitute":
            c["exactalg.substitute.terms_in"] += len(args[0].terms)
        elif name == "exactalg.divide_with_remainder":
            c["exactalg.divide_with_remainder.nonzero_remainder"] += bool(result[1])
        elif name == "dunkl.dunkl_apply":
            xi = tuple(_arg(args, kwargs, 1, "xi"))
            p = _arg(args, kwargs, 2, "p")
            c["dunkl.dunkl_apply.zero"] += not result
            c["dunkl.dunkl_apply.terms_in"] += len(p.terms)
            self._distinct_terms.update((xi, mono) for mono in p.terms)
            c["dunkl.dunkl_apply.distinct_terms"] = len(self._distinct_terms)
        elif name == "linalg.rref":
            rows, ncols = _arg(args, kwargs, 0, "rows"), _arg(args, kwargs, 1, "ncols")
            reduced, pivots = result
            c["linalg.rref.rows_in"] += len(rows)
            c["linalg.rref.entries_in"] += len(rows) * ncols
            c["linalg.rref.rank"] += len(pivots)
            bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                        for row in reduced for x in row), default=0)
            c["linalg.rref.max_bits"] = max(c["linalg.rref.max_bits"], bits)
        elif name == "liealg.invariants_graded":
            key = (id(args[0]), _arg(args, kwargs, 1, "degree"))
            c["liealg.invariants_graded.repeats"] += key in self._invariant_keys
            self._invariant_keys.add(key)

    def _observe_liealg_nullspace(self, args, kwargs, result):
        self.counters["liealg.nullspace.calls"] += 1
        self.counters["liealg.nullspace.noop"] += len(result) == _arg(args, kwargs, 1, "ncols")

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, extra=None):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            observe(name, args, kwargs, result)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {m: importlib.import_module(f"dunklinv.{m}")
                   for m in ("exactalg", "linalg", "rootsys", "dunkl",
                             "liealg", "restriction", "cli")}
        functions = {}
        for module, path in TARGETS:
            name = span_name(module, path)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(modules[module], owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    tracer.originals[name] = raw.__func__
                    wrapper = tracer._wrap(name, raw.__func__)
                    tracer._patch(owner, attr, classmethod(wrapper))
                else:
                    tracer.originals[name] = raw
                    wrapper = tracer._wrap(name, raw)
                    tracer._patch(owner, attr, wrapper)
                tracer.wrappers[name] = wrapper
            else:
                functions[id(getattr(modules[module], attr))] = name
                tracer.originals[name] = getattr(modules[module], attr)
                tracer.wrappers[name] = tracer._wrap(name, tracer.originals[name])
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "dunklinv"
                                      or module_name.startswith("dunklinv.")):
                continue
            for attr, value in list(vars(module).items()):
                name = functions.get(id(value))
                if name is None or value is not tracer.originals[name]:
                    continue
                if (module_name, attr) == ("dunklinv.liealg", "nullspace"):
                    wrapper = tracer._wrap(name, value, tracer._observe_liealg_nullspace)
                else:
                    wrapper = tracer.wrappers[name]
                tracer._patch(module, attr, wrapper)
        return tracer

    def restore(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def dump(self, run_id: str, **extra) -> dict:
        return {"run_id": run_id, "spans": self.spans,
                "counters": dict(sorted(self.counters.items())), **extra}


def span_totals(spans) -> tuple[Counter, dict[str, float]]:
    """Calls and self time per span name; self = duration minus child spans."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
    return calls, self_s


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json RUN_ID -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, run_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer.install()
    cli = sys.modules["dunklinv.cli"]
    code = cli.main(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w") as f:
        json.dump(tracer.dump(run_id, argv=cli_argv, exit_code=code), f,
                  separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
