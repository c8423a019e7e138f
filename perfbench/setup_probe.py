"""Time `import dunklinv` and one workload's constructors in a fresh process.

    PYTHONPATH=src python3 perfbench/setup_probe.py gram A3 all=1/2
    PYTHONPATH=src python3 perfbench/setup_probe.py takiff sl2 2

Prints one JSON object: seconds per step, each call timed on its own.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    kind, name, param = argv
    times = {}

    def timed(label, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[label] = time.perf_counter() - start
        return result

    start = time.perf_counter()
    import dunklinv
    times["import dunklinv"] = time.perf_counter() - start
    if kind == "gram":
        timed("make_context", dunklinv.make_context, name, param)
    elif kind == "takiff":
        g = timed("make_sl", dunklinv.make_sl, int(name.removeprefix("sl")))
        gm = timed("takiff_extend", dunklinv.takiff_extend, g, int(param))
        timed("CartanFrame", dunklinv.CartanFrame, gm)
    else:
        print(f"unknown setup kind {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
