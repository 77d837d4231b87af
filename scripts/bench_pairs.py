#!/usr/bin/env python3
"""Time two source checkouts against each other in alternated pairs.

Usage:
    python scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --seed N --pairs P

Each pair runs ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, one after the other, with
``S`` the ``run_seconds`` of ``BENCHMARK.json``; odd pairs (1, 3, ...)
run the parent first, even pairs the change.  For every end-to-end
metric of ``BENCHMARK.json`` the script prints each side's median with
its quartiles, the number of pairs the change won (ties count for
neither side) and whether the gain rule holds: the change wins at least
nine tenths of the pairs and its median beats the parent's by more than
the parent's interquartile range.

Exit status: 0 when every run is correct, 1 as soon as a run fails or
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians and quartiles of the paired values of one metric, the pairs
    the change won (``better`` is ``"lower"`` or ``"higher"``) and whether
    the gain rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    (p25, p50, p75), (c25, c50, c75) = (np.percentile(v, [25, 50, 75]) for v in (parent, change))
    return {"parent": (p50, p25, p75), "change": (c50, c25, c75), "wins": wins,
            "pairs": len(parent),
            "gain": wins >= 0.9 * len(parent) and sign * (p50 - c50) > p75 - p25}


def run_once(root: Path, args: argparse.Namespace, seconds: float) -> dict:
    """The end-to-end metric values of one benchmark run in ``root``;
    ``RuntimeError`` when the run fails or is not correct."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise RuntimeError(f"{root}: incorrect run (exit {proc.returncode})\n"
                           f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(roots[side], args, seconds))
            except RuntimeError as exc:
                print(f"pair {pair}, {side}: {exc}", file=sys.stderr)
                return 1
        print(f"pair {pair}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['wall_s']:.4g}" for side in order), flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs; "
          "median [quartiles], parent -> change")
    for metric in metrics:
        name = metric["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      metric["better"])
        (p50, p25, p75), (c50, c25, c75) = s["parent"], s["change"]
        print(f"{name}: {p50:.4g} [{p25:.4g}, {p75:.4g}] -> {c50:.4g} [{c25:.4g}, {c75:.4g}] "
              f"{metric['unit']}, change won {s['wins']}/{s['pairs']}"
              + (", gain holds" if s["gain"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
