"""Report digests of CLI runs that the benchmark does not cover.

Each case runs `cli.main` in-process and pins the sha256 of its JSON report
without `wall_time_ms`, in the layout `perfbench/run.py` hashes.  The cases
reach what the benchmark's three argvs do not: unequal and zero orbits, the
types C, D and G and rank 1, degrees away from 4 and 8, and `dunkl apply`.
A faster path must leave every report byte-identical, so any change to a
Gram matrix, a minor or a Dunkl image fails here.
"""

import hashlib
import json

import pytest

from dunklinv.cli import EXIT_PASS, main

GOLDEN = [
    (("dunkl", "gram", "--type", "G2", "--k", "long=1/3,short=2", "--degree", "5"),
     "b7ac506c1bfc18f87a6494709922ccc61e821c5491bc9216e2c5cf8cc0b74cb8"),
    (("dunkl", "gram", "--type", "C3", "--k", "all=1", "--degree", "6", "--invariants-only"),
     "5d8b96eb970411cbd5bbb6a0a8037f7c3bc15ff9a84980c4d4781f0e03e6310e"),
    (("dunkl", "gram", "--type", "D3", "--k", "all=0", "--degree", "4"),
     "396ad62fa96e4cb9a7d9393b40686ab73a622d13e383d4ce93c4718c7ee5c3c0"),
    (("dunkl", "gram", "--type", "B2", "--k", "long=0,short=1", "--degree", "6",
      "--invariants-only"),
     "d06878cadb05257019a1f29b45f28dfb5fbcb03fcc8e162684c420a54d81e794"),
    (("dunkl", "gram", "--type", "A1", "--k", "all=2/3", "--degree", "6"),
     "1bc25bbf572beedd67fbb3856d7e3fb1dfece5599aa65d5d417207fa1cb119f2"),
    (("dunkl", "apply", "--type", "B3", "--k", "long=1/2,short=3", "--xi", "1,-2,1/3",
      "--poly", "x1^3 x2 - 2 x2^2 x3^2 + 3/5 x1 x3^3 + x3"),
     "0713d0119b24267e83229be8ed750c4468f1c63a7b360e493d09c31ca8659642"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a[:4]) for a, _ in GOLDEN])
def test_report_digest(capsys, argv, digest):
    assert main(["--json", *argv]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_ms"]
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest
