#!/usr/bin/env python3
"""Census of equilibria on three concentric circles across random charge
triples: Morse counts, alternating sums, and how often the census is the
minimal one (four points).

Usage:
    python scripts/concentric_census.py --radii 1,2,3 --samples 25 --seed 42
"""

import argparse

import numpy as np

from coulomb_eq.morse import euler_count_check
from coulomb_eq.solver import TorusSpace, find_critical_points
from coulomb_eq.spaces import ChargeVector


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--radii", default="1,2,3")
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    radii = tuple(float(r) for r in args.radii.split(","))
    space = TorusSpace(radii)
    rng = np.random.default_rng(args.seed)
    exact = 0
    print("q1,q2,q3,total,minima,saddles,maxima,euler,exact")
    for _ in range(args.samples):
        q = ChargeVector.of(rng.dirichlet((0.6, 0.6, 0.6)) + 1e-3)
        pts = find_critical_points(space, q)
        summary = euler_count_check(pts, space)
        counts = summary.counts
        exact += summary.exactness
        print(f"{q.q[0]:.6f},{q.q[1]:.6f},{q.q[2]:.6f},{len(pts)},"
              f"{counts.get(0, 0)},{counts.get(1, 0)},{counts.get(2, 0)},"
              f"{summary.euler_check},{summary.exactness}")
    print(f"# minimal censuses: {exact}/{args.samples}")


if __name__ == "__main__":
    main()
