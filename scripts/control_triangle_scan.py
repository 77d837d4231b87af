#!/usr/bin/env python3
"""Map the control triangle: boundary curves plus a barycentric grid of
minima counts, written as CSV for external plotting.

Usage:
    python scripts/control_triangle_scan.py --grid 50 --resolution 200 \
        --outdir out/control_triangle
"""

import argparse
from pathlib import Path

from coulomb_eq.bifurcation import count_polygon_minima, polygon_bifurcation_set
from coulomb_eq.cli import curves_csv
from coulomb_eq.spaces import ChargeVector


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--grid", type=int, default=50)
    ap.add_argument("--resolution", type=int, default=200)
    ap.add_argument("--outdir", default="out/control_triangle")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    (outdir / "boundary_curves.csv").write_text(
        curves_csv(polygon_bifurcation_set(args.resolution)))

    rows = ["q1,q2,q3,minima"]
    g = args.grid
    for i in range(1, g):
        for j in range(1, g - i):
            q = [i / g, j / g, (g - i - j) / g]
            count = count_polygon_minima(ChargeVector.of(q))
            rows.append(f"{q[0]!r},{q[1]!r},{q[2]!r},{count}")
    (outdir / "minima_grid.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {outdir}/boundary_curves.csv and {outdir}/minima_grid.csv")


if __name__ == "__main__":
    main()
