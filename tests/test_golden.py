"""Report digests of CLI runs that the benchmark does not cover.

Each case runs `cli.main` in-process and pins its exit code and the sha256
of its JSON report without `wall_time_ms`, in the layout `perfbench/run.py`
hashes.  The cases reach what the benchmark's three argvs do not: unequal
and zero orbits, the types C, D and G and rank 1, degrees away from 4 and 8,
multiplicities whose denominators the integer Gram recursion must clear,
`dunkl apply` (also on the non-orthogonal G2 realization, once at degree
16) and `dunkl commute` (on A3, and with random cases on B3 and G2), Takiff
invariants of sl3 (at m = 2 on 24 variables) and of sl2 at m = 3, the
restriction image at m = 1, of sl2 at m = 2 up to degree 8 and of sl3 at
m = 1 up to degree 5 (two Weyl generators, linear-form divisors), the
classical Chevalley check on sl3, B3 invariants of degree 12 (the pruned
Gram recursion past the benchmark's degree 8), a failing criterion on sl2,
a passing one on sl3, one on sl3 that fails only condition 2 and one on sl3
that fails both at its second positive root.  `TEXT_GOLDEN` pins the text layout of
six reports the same way, with the trailing `(N ms)` of the summary line
removed.  A faster path must leave every report byte-identical, so any
change to a Gram matrix, a minor, a Dunkl image or an invariant basis, or
to the text layout, fails here.
"""

import hashlib
import json
import re

import pytest

from dunklinv.cli import EXIT_FAIL, EXIT_PASS, main

GOLDEN = [
    (("dunkl", "gram", "--type", "G2", "--k", "long=1/3,short=2", "--degree", "5"), EXIT_PASS,
     "b7ac506c1bfc18f87a6494709922ccc61e821c5491bc9216e2c5cf8cc0b74cb8"),
    (("dunkl", "gram", "--type", "C3", "--k", "all=1", "--degree", "6", "--invariants-only"),
     EXIT_PASS, "5d8b96eb970411cbd5bbb6a0a8037f7c3bc15ff9a84980c4d4781f0e03e6310e"),
    (("dunkl", "gram", "--type", "D3", "--k", "all=0", "--degree", "4"), EXIT_PASS,
     "396ad62fa96e4cb9a7d9393b40686ab73a622d13e383d4ce93c4718c7ee5c3c0"),
    (("dunkl", "gram", "--type", "B2", "--k", "long=0,short=1", "--degree", "6",
      "--invariants-only"), EXIT_PASS,
     "d06878cadb05257019a1f29b45f28dfb5fbcb03fcc8e162684c420a54d81e794"),
    (("dunkl", "gram", "--type", "A1", "--k", "all=2/3", "--degree", "6"), EXIT_PASS,
     "1bc25bbf572beedd67fbb3856d7e3fb1dfece5599aa65d5d417207fa1cb119f2"),
    (("dunkl", "apply", "--type", "B3", "--k", "long=1/2,short=3", "--xi", "1,-2,1/3",
      "--poly", "x1^3 x2 - 2 x2^2 x3^2 + 3/5 x1 x3^3 + x3"), EXIT_PASS,
     "0713d0119b24267e83229be8ed750c4468f1c63a7b360e493d09c31ca8659642"),
    # --k comes first here, so that the id (the first four words) tells these
    # cases apart from those above.
    (("dunkl", "gram", "--k", "long=5/7,short=3/11", "--type", "G2", "--degree", "6",
      "--invariants-only"), EXIT_PASS,
     "7a0918a5d6830fc4b95c857c1231e1676eb92712dd229e2a23235c2cfa65a9e6"),
    (("dunkl", "gram", "--k", "all=7/9", "--type", "A3", "--degree", "5"), EXIT_PASS,
     "41fcca493c72b7a7e2f339c7f1e2300e3ad52a7185206b7f39a3d105ca25e4b6"),
    (("dunkl", "gram", "--k", "long=2/3,short=5/2", "--type", "C3", "--degree", "4"), EXIT_PASS,
     "37c411c6c75b99dd998ea68ed68b8c5b3f49a6bfca2ed4385e4633086fb1cb6f"),
    (("dunkl", "commute", "--type", "A3", "--k", "all=1/2", "--max-degree", "4"), EXIT_PASS,
     "c9c0a907b842081c46be0de70fa40cb2c606050490adbf19e4ff5813dc3c1ebe"),
    (("takiff", "invariants", "--algebra", "sl3", "--m", "1", "--degree", "4"), EXIT_PASS,
     "fd03cbf6829ecc5deae662ca4d17af9419274082c9fbfe9d95c260da3cc284e9"),
    (("takiff", "invariants", "--algebra", "sl2", "--m", "3", "--degree", "4"), EXIT_PASS,
     "926bc47dbd1bb2e8c66eb8ce2a9e6a9fe597242c11d605d49530baad4f87c220"),
    (("takiff", "image", "--algebra", "sl3", "--m", "1", "--max-degree", "4"), EXIT_PASS,
     "3d5f5f0375d517ea2cc0bedf4f91586b04a6c664982e9d847416dc7c4c22de58"),
    (("takiff", "image", "--algebra", "sl2", "--m", "1", "--max-degree", "8"), EXIT_PASS,
     "8217963e6c68ec4c5dce2c2e49435e1e9384528ae9164c006324e8dd0919dc42"),
    (("chevalley", "check", "--algebra", "sl3", "--max-degree", "6"), EXIT_PASS,
     "0492e05465346666317a1f92c3476062105f4cb0727a81d2026466bab0766e67"),
    (("takiff", "criterion", "--algebra", "sl2", "--m", "2", "--poly", "u^2"), EXIT_FAIL,
     "4c8feff95a15589fd4f10e8c81894fab40c5834de2d9c0c95887a06097f1332e"),
    # The options are reordered so that the id tells these cases apart from
    # the image and criterion cases above.
    (("takiff", "image", "--m", "2", "--algebra", "sl2", "--max-degree", "8"), EXIT_PASS,
     "ecda67573267ee97c0f5b1b626db888ff2b00d91dd9ae6c078e5e2fdff6c7626"),
    (("takiff", "image", "--max-degree", "5", "--algebra", "sl3", "--m", "1"), EXIT_PASS,
     "45259640bd4856fe22e7ff705d1590ba26f6953d2ba587a5c14c10701fe7d0f3"),
    (("takiff", "criterion", "--algebra", "sl3", "--m", "1",
      "--poly", "u1 v1 + 1/2 u1 v2 + 1/2 u2 v1 + u2 v2"), EXIT_PASS,
     "8c52871d896f8faf9f8f38ae416b045f3bc7596fed3c42af92168cd23fd36404"),
    # The widest exponent vectors (24 variables), a criterion that passes
    # condition 1 and fails condition 2 with witness 3 u1, and a Dunkl image
    # on a non-orthogonal realization.  The options are reordered so that the
    # ids differ from those above.
    (("takiff", "invariants", "--m", "2", "--algebra", "sl3", "--degree", "3"), EXIT_PASS,
     "d96578a94d347502445a17084e27f885dc6e29bb0d07ff9f04f67b72da432c9f"),
    (("takiff", "criterion", "--m", "1", "--algebra", "sl3", "--poly", "u1^2 + u1 u2 + u2^2"),
     EXIT_FAIL, "460c11a77df4466927f8d7aa88993c9bfbb6f381603becd59f381417084c9927"),
    (("dunkl", "apply", "--type", "G2", "--k", "long=1/3,short=2", "--xi", "1/2,-1",
      "--poly", "x1^3 - 2/3 x1 x2^2 + x2"), EXIT_PASS,
     "ad82b312ee4dff66ef3f14ad9b6ea40b1285c62bf92de28ab0821422dbb86ca3"),
    # Witness order on sl3: u1 v1 fails both conditions first at (1, 1), the
    # second positive root, so a change in the order of the frame's roots
    # changes this report.  The failing case above pins (2, -1) for condition 2.
    (("takiff", "criterion", "--poly", "u1 v1", "--algebra", "sl3", "--m", "1"), EXIT_FAIL,
     "83bfaa936bad75f22eea5c63483c7e2802f5bd5f5bc3bf7901d72e6aa9fb2c76"),
    # Taken when T_xi still ran on the Taylor form: the commutators and a
    # degree-16 image on two-orbit systems, now read from the quotient memo.
    (("dunkl", "commute", "--type", "B3", "--k", "long=1,short=1/2", "--max-degree", "5",
      "--random", "3"), EXIT_PASS,
     "9c756b032b05ec6169eb22088fa227f8b3a4209303adc4d423bda39b25ee08d4"),
    (("dunkl", "commute", "--type", "G2", "--k", "long=1,short=1/2", "--max-degree", "5",
      "--random", "3"), EXIT_PASS,
     "06ec0f36866946b8cf1255d88ea297c94adfbab0f194fd7ff0d7ab9ea03e932e"),
    (("dunkl", "apply", "--xi", "1/2,-1", "--type", "G2", "--k", "long=1/3,short=2",
      "--poly", "x1^16 - 3/5 x1^9 x2^7 + 2 x1^4 x2^12 + x2^16"), EXIT_PASS,
     "ef7552c2776f9a05d5a7887d9f9b218688d8bf57435907c563cd2f989b5ece21"),
    # Degree-12 invariants, deeper than the benchmark's degree 8: the Gram
    # recursion builds only the rows their supports read and, at degree 12,
    # only the support's columns.
    (("dunkl", "gram", "--degree", "12", "--type", "B3", "--k", "long=1/3,short=1/2",
      "--invariants-only"), EXIT_PASS,
     "87b6ad71b2218ba4e98e2934bbbb491bea214913deb8d17d592f88c48ee7a005"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(a[:4]) for a, _, _ in GOLDEN])
def test_report_digest(capsys, argv, code, digest):
    assert main(["--json", *argv]) == code
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_ms"]
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest


TEXT_GOLDEN = [
    (("dunkl", "gram", "--type", "A2", "--k", "all=1/2", "--degree", "3"), EXIT_PASS,
     "446baa7f383ac88880c66c9eafddc5bcc0821d5986ee6154a6fe8189cbb30fcb"),
    (("takiff", "criterion", "--algebra", "sl2", "--m", "2", "--poly", "u^2"), EXIT_FAIL,
     "daa9ba55343442cb0cb48ff4087dc5f4067c7b98311aa8d59f1aa0b78c559e19"),
    (("chevalley", "check", "--algebra", "sl2", "--max-degree", "4"), EXIT_PASS,
     "054c7cc749f15f0772458f3323b7ebd6e2c7ba9628ee3a7575375f13c8d969a6"),
    (("takiff", "criterion", "--algebra", "sl3", "--m", "1", "--poly", "u1 v1"), EXIT_FAIL,
     "6f170aa4c077dc1d09e0ab8490c20b9f70678374732af950121f2f44cb237d88"),
    (("takiff", "criterion", "--poly", "u1^2 + u1 u2 + u2^2", "--algebra", "sl3", "--m", "1"),
     EXIT_FAIL, "122fef62daad28043aabccf296fe6ddbef13cbc55f6ed467eff55e4b1526edae"),
    # The Chevalley check runs on sl3 itself, its own g_0.
    (("chevalley", "check", "--algebra", "sl3", "--max-degree", "6"), EXIT_PASS,
     "83afcf78dd570c5aaaa14e2d96335ccead589004c2f5287d5e7c4dc1e6d6f926"),
]


@pytest.mark.parametrize("argv,code,digest", TEXT_GOLDEN,
                         ids=[" ".join(a[:4]) for a, _, _ in TEXT_GOLDEN])
def test_text_report_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    text = re.sub(r" \(\d+ ms\)\n\Z", "", capsys.readouterr().out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
