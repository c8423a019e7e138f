"""Exact Gram matrices of the Dunkl pairing with positivity certificates.

Usage: python scripts/gram_positivity.py [--max-degree 4] [--full]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dunklinv.dunkl import gram_basis, gram_matrix, make_context, positivity_certificate

SYSTEMS = (("A1", "all=1"), ("A2", "all=1/2"),
           ("B2", "long=1,short=3/2"), ("G2", "long=7/3,short=1/2"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--full", action="store_true",
                    help="use the full monomial basis instead of W-invariants")
    args = ap.parse_args()

    all_definite = True
    for system, k in SYSTEMS:
        ctx = make_context(system, k)
        print(f"\n{system}, k = {k}, basis = {'monomials' if args.full else 'W-invariants'}")
        for d in range(args.max_degree + 1):
            matrix = gram_matrix(ctx, gram_basis(ctx, d, invariants_only=not args.full))
            if not matrix:
                print(f"  degree {d}: empty basis")
                continue
            definite, minors = positivity_certificate(matrix)
            all_definite = all_definite and definite
            minor_text = ", ".join(str(m) for m in minors)
            print(f"  degree {d}: {len(matrix)}x{len(matrix)}, "
                  f"minors [{minor_text}] -> {'positive definite' if definite else 'NOT definite'}")
    return 0 if all_definite else 1


if __name__ == "__main__":
    raise SystemExit(main())
