"""The tracer wraps every target, changes no output and counts deterministically.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import types

from run import HERE, SRC, report_digest
from tracer import TARGETS, Tracer, span_name, span_totals

GRAM = ["dunkl", "gram", "--type", "B2", "--k", "long=1,short=1/2", "--degree", "4",
        "--invariants-only", "--json"]
TAKIFF = ["takiff", "image", "--algebra", "sl2", "--m", "2", "--max-degree", "3", "--json"]


def _loaded_modules():
    import dunklinv.cli  # noqa: F401  (loads every module the tracer patches)
    return [m for name, m in sys.modules.items()
            if isinstance(m, types.ModuleType)
            and (name == "dunklinv" or name.startswith("dunklinv."))]


def test_install_leaves_no_unwrapped_target():
    modules = _loaded_modules()
    before = [dict(vars(module)) for module in modules]
    tracer = Tracer.install()
    try:
        originals = {id(f): name for name, f in tracer.originals.items()}
        assert set(originals.values()) == {span_name(m, p) for m, p in TARGETS}
        for module in modules:
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} is unwrapped"
        for module, path in TARGETS:
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(sys.modules[f"dunklinv.{module}"], owner)
                raw = cls.__dict__[attr]
                assert getattr(raw, "__func__", raw).__wrapped__ is tracer.originals[
                    span_name(module, path)]
    finally:
        tracer.restore()
    for module, saved in zip(modules, before):
        assert all(vars(module)[attr] is value for attr, value in saved.items())
    for module, path in TARGETS:
        owner, _, attr = path.rpartition(".")
        if owner:
            raw = getattr(sys.modules[f"dunklinv.{module}"], owner).__dict__[attr]
            assert getattr(raw, "__func__", raw) is tracer.originals[span_name(module, path)]


def _traced(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    dump_path = HERE / "out" / f"test-spans-{os.getpid()}.json"
    dump_path.parent.mkdir(exist_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(dump_path),
                               "test", "--", *argv], capture_output=True, env=env, check=True)
        return json.loads(proc.stdout), json.loads(dump_path.read_text())
    finally:
        dump_path.unlink(missing_ok=True)


def test_traced_output_equals_untraced():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (GRAM, TAKIFF):
        plain = subprocess.run([sys.executable, "-m", "dunklinv", *argv], capture_output=True,
                               env=env, check=True)
        traced, dump = _traced(argv)
        assert report_digest(traced) == report_digest(json.loads(plain.stdout))
        assert dump["exit_code"] == 0


def test_two_traced_runs_count_the_same():
    for argv in (GRAM, TAKIFF):
        (_, first), (_, second) = _traced(argv), _traced(argv)
        assert first["counters"] == second["counters"]
        assert span_totals(first["spans"])[0] == span_totals(second["spans"])[0]


def test_span_totals_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    calls, self_s = span_totals(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
