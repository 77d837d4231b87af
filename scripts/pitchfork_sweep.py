#!/usr/bin/env python3
"""Trace the supercritical pitchfork of three equal outer charges as the
intermediate charge sweeps through the threshold, and print the fitted
amplitude exponent.

Usage:
    python scripts/pitchfork_sweep.py --lo 0.05 --hi 0.6 --steps 80 \
        --outdir out/pitchfork
"""

import argparse
from pathlib import Path

from coulomb_eq.bifurcation import (
    charge_sweep_path,
    fit_branch_exponent,
    trace_pitchfork,
)
from coulomb_eq.cli import branch_csv
from coulomb_eq.solver import PolygonSpace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outer", type=float, default=1.0,
                    help="value of both outer charges")
    ap.add_argument("--lo", type=float, default=0.05)
    ap.add_argument("--hi", type=float, default=0.6)
    ap.add_argument("--steps", type=int, default=80)
    ap.add_argument("--outdir", default="out/pitchfork")
    args = ap.parse_args()

    path = charge_sweep_path([args.outer, 1.0, args.outer], 1)
    diagram = trace_pitchfork(PolygonSpace(3), path, (args.lo, args.hi),
                              steps=args.steps)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "branches.csv").write_text(branch_csv(diagram))
    print(f"threshold: {diagram.threshold!r}")
    try:
        print(f"amplitude exponent: {fit_branch_exponent(diagram)!r}")
    except ValueError as exc:
        print(f"amplitude exponent: unavailable ({exc}); use more steps")
    print(f"wrote {outdir}/branches.csv")


if __name__ == "__main__":
    main()
