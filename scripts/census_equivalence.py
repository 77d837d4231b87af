#!/usr/bin/env python3
"""Compare the ``solve`` artifacts of two source trees on a fixed corpus.

Usage:
    python scripts/census_equivalence.py OLD_SRC NEW_SRC

Each tree runs the whole corpus through ``coulomb_eq.cli.main`` in its
own interpreter.  For every census the script reports whether the two
outputs are byte-identical and, where they differ, the largest absolute
difference of each floating-point field.

The corpus is the torus-census jobs of the benchmark (seeds 1, 2, 3 and
the held-out seed), five torus censuses over other kernels, radii and
charges, and ten polygon censuses (n = 3, 4, 5) under the coulomb and
log kernels.

Exit status: 0 when every difference is a floating-point value, 1 when
some census differs in structure or in any other value, 2 when a tree
cannot run the corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded job lists)

BENCHMARK_SEEDS = (1, 2, 3, workloads.HELD_OUT_SEED)

EXTRA_TORUS = [
    ("torus:1,2,3", "1,2,3", "log", 48),
    ("torus:1,2,3", "0.3,1,2.5", "power:2.5", 48),
    ("torus:1,1,1", "1,2,3", "coulomb", 48),
    ("torus:1,1,2", "1,1,1", "coulomb", 64),
    ("torus:0.5,1.7,1.7", "0.01,0.01,1", "coulomb", 96),
]

POLYGONS = [
    ("polygon:3", "1,1,1", 48),
    ("polygon:3", "0.125,1,1", 48),
    ("polygon:3", "1,2,3", 24),
    ("polygon:3", "0.3,1,2.5", 96),
    ("polygon:4", "1.3,0.6,1.9,1.1", 16),
    ("polygon:4", "1,1,1,1", 16),
    ("polygon:4", "1,1.3,0.7,1.1", 24),
    ("polygon:4", "1,2,3,4", 24),
    ("polygon:5", "1.2,0.7,1.8,0.55,1.5", 8),
    ("polygon:5", "1,1,1,1,1", 8),
]

WORKER = """
import contextlib, io, json, sys
import coulomb_eq
from coulomb_eq.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append({"code": code, "stdout": buf.getvalue()})
json.dump({"package": coulomb_eq.__file__, "runs": out}, sys.stdout)
"""


def _argv(space: str, charges: str, potential: str, grid: int) -> list[str]:
    return ["solve", "--space", space, "--charges", charges,
            "--potential", potential, "--grid-density", str(grid)]


def corpus() -> list[tuple[str, list[str]]]:
    """(group, argv) of every census; charges of benchmark jobs are passed
    as the benchmark passes them."""
    runs = []
    for seed in BENCHMARK_SEEDS:
        for job in workloads.generate("torus-census", seed):
            charges = ",".join(repr(float(v)) for v in job["charges"])
            runs.append(("torus", _argv(job["space"], charges, "coulomb", job["grid"])))
    runs += [("torus", _argv(*census)) for census in EXTRA_TORUS]
    for potential in ("coulomb", "log"):
        runs += [("polygon", _argv(space, charges, potential, grid))
                 for space, charges, grid in POLYGONS]
    return runs


def run_tree(src: Path, argvs: list[list[str]]) -> list[dict]:
    proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(argvs),
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: worker failed\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if not Path(result["package"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"{src}: imported coulomb_eq from {result['package']}")
    return result["runs"]


def compare(a, b, path: str, diffs: dict[str, float], mismatches: list[str]) -> None:
    """Walk two parsed outputs in step: record the largest difference of
    every float field in ``diffs`` and every other mismatch by path."""
    if isinstance(a, float) and isinstance(b, float):
        diffs[path] = max(diffs.get(path, 0.0), abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            compare(a[key], b[key], f"{path}.{key}", diffs, mismatches)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            compare(x, y, f"{path}[]", diffs, mismatches)
    elif type(a) is not type(b) or a != b:
        mismatches.append(path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    args = ap.parse_args()

    runs = corpus()
    argvs = [argv for _, argv in runs]
    try:
        old = run_tree(args.old_src, argvs)
        new = run_tree(args.new_src, argvs)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    identical: dict[str, list[int]] = {}
    overall: dict[str, float] = {}
    structural = 0
    for (group, argv), a, b in zip(runs, old, new):
        label = " ".join(argv[2::2])
        tally = identical.setdefault(group, [0, 0])
        tally[1] += 1
        if a == b:
            tally[0] += 1
            print(f"identical  {label}")
            continue
        diffs: dict[str, float] = {}
        mismatches: list[str] = []
        if a["code"] != b["code"]:
            mismatches.append("exit status")
        if a["stdout"] and b["stdout"]:
            compare(json.loads(a["stdout"]), json.loads(b["stdout"]), "", diffs, mismatches)
        else:
            mismatches.append("output")
        structural += bool(mismatches)
        for field, d in diffs.items():
            overall[field] = max(overall.get(field, 0.0), d)
        fields = ", ".join(f"{f} {d:.2g}" for f, d in sorted(diffs.items()) if d)
        other = f"; other mismatches: {', '.join(sorted(set(mismatches)))}" if mismatches else ""
        print(f"differs    {label}: {fields or 'no float field moved'}{other}")
    print()
    for group, (same, total) in identical.items():
        print(f"{group}: {same}/{total} censuses byte-identical")
    moved = {f: d for f, d in overall.items() if d}
    print("largest float difference per field: "
          + (", ".join(f"{f} {d:.2g}" for f, d in sorted(moved.items())) or "none"))
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
