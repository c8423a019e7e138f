"""Compare restriction images with the two-condition criterion spaces.

First sl2 degree by degree: the m=1 equality next to the generalized m=2
case, where the criterion space is strictly larger from degree 2 on, with
the gap elements and the v^2 witness.  Then every supported Weyl type from
its root system alone (`restriction.RootFrame`): at m = 0 the image
dimension per degree, that of S^d(h)^W, and at m = 1 and 2 the image and
criterion dimensions per degree, as image/criterion (the criterion means
nothing at m = 0).  Rank-3 types stop at degree 6 for m >= 1, where A3 at
m = 2 already takes seconds.

Usage: python scripts/takiff_image_report.py [--max-degree 8]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dunklinv.liealg import make_sl, takiff_extend
from dunklinv.restriction import (CartanFrame, RootFrame, criterion_check, criterion_subspace,
                                  image_basis)
from dunklinv.rootsys import SUPPORTED, root_system

RANK_3_TOP_DEGREE = 6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=8)
    args = ap.parse_args()

    sl2 = make_sl(2)
    for m in (1, 2):
        frame = CartanFrame(takiff_extend(sl2, m))
        print(f"\nsl2, m = {m}  (variables {', '.join(frame.names)})")
        print(f"{'deg':>4} {'image':>6} {'criterion':>10}  verdict")
        for d in range(args.max_degree + 1):
            image = image_basis(frame, d)
            criterion = criterion_subspace(frame, d)
            verdict = "equal" if image == criterion else "strict"
            print(f"{d:>4} {image.dim:>6} {criterion.dim:>10}  {verdict}")
            if verdict == "strict":
                from dunklinv.linalg import GradedSubspace
                gap = GradedSubspace.from_polynomials(
                    [image.reduce(b) for b in criterion.basis], frame.dim, d)
                for b in gap.basis:
                    print(f"       gap element: {frame.render(b)}")

    frame2 = CartanFrame(takiff_extend(sl2, 2))
    result = criterion_check(frame2, frame2.parse("v^2"))
    print("\nwitness v^2 at m = 2:")
    print(f"  reflection invariance: {result.condition1_witness is None}")
    print(f"  divisibility:          {result.condition2_witness is None}")
    print(f"  in restriction image:  {result.in_image}")

    top = args.max_degree
    print("\nevery supported type, from its roots: dim image by degree at m = 0, "
          "dim image/dim criterion at m >= 1")
    print(f"{'type':>4} {'m':>2}  " + " ".join(f"{f'd={d}':>7}" for d in range(top + 1)))
    for name in SUPPORTED:
        rs = root_system(name)
        print(f"{name:>4} {0:>2}  " + " ".join(
            f"{image_basis(RootFrame(rs, 0), d).dim:>7}" for d in range(top + 1)))
        for m in (1, 2):
            frame = RootFrame(rs, m)
            last = min(top, RANK_3_TOP_DEGREE) if rs.rank == 3 else top
            row = [f"{image_basis(frame, d).dim}/{criterion_subspace(frame, d).dim}"
                   for d in range(last + 1)]
            print(f"{name:>4} {m:>2}  " + " ".join(f"{x:>7}" for x in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
