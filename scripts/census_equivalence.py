#!/usr/bin/env python3
"""Compare the ``solve``, ``bifurcate``, ``verify`` and ``inverse``
outputs and the control-triangle and fixing-effect results of two
source trees on a fixed corpus.

Usage:
    python scripts/census_equivalence.py OLD_SRC NEW_SRC

Each tree runs the whole corpus in its own interpreter and its own
scratch directory: commands through ``coulomb_eq.cli.main``, and the
control-triangle cells and fixing-effect probes through
``bifurcation.three_charge_equilibria`` and
``bifurcation.fixing_effect_probe``, whose results are written out as
JSON (every field of every critical point, the distance key included).
For every run the script reports whether the two outputs (exit status,
stdout and, for ``bifurcate``, the four artifacts) are byte-identical
and, where they differ, the largest absolute difference of each
floating-point field.  JSON outputs are compared field by field, CSV
and plain-text outputs token by token.  For a census (``solve`` or a
control cell) that differs it also reports whether the two point lists
match as sets: the same count, and each point within ``SET_TOL`` of a
point of the other side with equal ``index``, ``aligned`` and
``degenerate``; this tells mirror partners that traded places from a
point that moved.  Last it prints the line count of ``coulomb_eq/*.py``
in each tree and the difference.

The corpus (550 runs) is the torus-census jobs of the benchmark (seeds
1, 2, 3 and the held-out seed, 52 runs), five torus censuses over other
kernels, radii and charges, three torus censuses on odd grids (g 9 and
25), whose column at pi is its own mirror image, a torus census with
the radius 2.759, which squares to different bits through pow and
through ``x * x``, the equal-radii torus under the log kernel, a
power:2.5 torus census on close radii whose exact aligned point (0, 0)
is lost when sin(2 pi) enters its gradient, the benchmark's torus
sweep 1e-4 above and 1e-4, 1e-7 and 1e-9 below its pitchfork, a
power:6 torus census, twelve polygon censuses
(n = 3 to 6) under each of the coulomb, log and power:2.5 kernels (36
runs), the coulomb polygon:3 census at grid density 48 of the
region-boundary charges (1/9, 4/9, 4/9), where the aligned point with
vertex 1 intermediate is degenerate, every job of the benchmark's
polygon census (``p3-triangle``, ``p3-collinear``, ``p4``, ``p5``) for
the same four seeds, thirteen pitchfork sweeps (the benchmark's polygon
reference sweep and torus sweep, and eleven more: other charges, swept
charges, ranges, radii and the power:2 and log kernels on both spaces,
and an outer polygon charge whose mirror pair lives below its threshold),
``verify --suite quick`` and ``verify --suite full`` (the only run that
reads the resolution-256 boundary curves and the four-charge fixing
check), three ``inverse --sides`` cases (a unique ray, a collinear
family and an infeasible triple), seven ``inverse --points`` files that
the worker writes into its scratch directory (a generic torus point, an
aligned torus label, a torus point with one straight central angle, a
triangle, a collinear triple with vertex 3 intermediate, and a polygon
and a torus point on a pole, which exit 2), the 400
control-triangle cells of the benchmark's analysis workload for seed 1
and its fixing-effect probes for seeds 1, 2, 3 and the held-out seed.

Exit status: 0 when every difference is a floating-point value, 1 when
some run differs in structure or in any other value, 2 when a tree
cannot run the corpus.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (the benchmark's seeded job lists)
from coulomb_eq.bifurcation import charge_sweep_path, detect_threshold  # noqa: E402
from coulomb_eq.solver import TorusSpace  # noqa: E402

BENCHMARK_SEEDS = (1, 2, 3, workloads.HELD_OUT_SEED)

#: the coulomb threshold of the benchmark's torus sweep, where the
#: aligned (pi, pi, 0) buckles
PITCHFORK = detect_threshold(TorusSpace((1.0, 2.0, 3.0)),
                             charge_sweep_path([0.01, 0.01, 1.0], 2), (0.2, 2.0))

EXTRA_TORUS = [
    ("torus:1,2,3", "1,2,3", "log", 48),
    ("torus:1,2,3", "0.3,1,2.5", "power:2.5", 48),
    ("torus:1,1,1", "1,2,3", "coulomb", 48),
    ("torus:1,1,2", "1,1,1", "coulomb", 64),
    ("torus:0.5,1.7,1.7", "0.01,0.01,1", "coulomb", 96),
    # odd grids: the column at pi is its own mirror image
    ("torus:1,2,3", "1,2,3", "coulomb", 9),
    ("torus:1,2,3", "1,2,3", "coulomb", 25),
    ("torus:1,1,1", "1,1,1", "coulomb", 9),
    # 2.759 squares to different bits through pow and through x * x
    ("torus:0.31,1.07,2.759", "1,2,3", "coulomb", 48),
    ("torus:1,1,1", "1,2,3", "log", 48),
    # the gradient at (0, 0) is exactly zero only with the third angle reduced
    ("torus:0.83610,0.89041,1.30351", "0.4781,0.0813,0.4436", "power:2.5", 96),
    # the benchmark's torus sweep on either side of its pitchfork: four
    # points above, six below; 1e-7 and 1e-9 below, the mirror pair sits
    # so close to (pi, pi) that its seed hangs on the last bits of the
    # level inversion
    *(("torus:1,2,3", f"0.01,0.01,{PITCHFORK + offset!r}", "coulomb", 96)
      for offset in (1e-4, -1e-4, -1e-7, -1e-9)),
    ("torus:0.5,1.7,2.9", "0.4,1.3,0.8", "power:6", 48),
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
    ("polygon:6", "1,1,1,1,1,1", 8),
    ("polygon:6", "1,2,3,4,5,6", 8),
]

#: charges on the coulomb region boundary: the inverse root charge of
#: vertex 1 (3) is the sum of the other two (1.5 + 1.5)
BOUNDARY_TRIPLE = ",".join(repr(v) for v in (1 / 9, 4 / 9, 4 / 9))


def _sweep(space: str, charges: list[float], sweep: int, lo: float, hi: float,
           steps: int, potential: str = "coulomb") -> dict:
    return {"space": space, "charges": charges, "sweep": sweep, "range": [lo, hi],
            "steps": steps, "potential": potential}


#: the benchmark's two sweeps, then other charges, swept charges, ranges,
#: radii and kernels (the benchmark's torus sweep under the power:2 and
#: log kernels, across their own thresholds), and last an outer charge
#: swept against (0.2, 1), whose mirror pair lives below its threshold
SWEEPS = (
    workloads.REFERENCE_SWEEP,
    workloads.TORUS_SWEEP,
    _sweep("polygon:3", [1.0, 1.0, 1.0], 2, 0.05, 0.6, 96),
    _sweep("polygon:3", [4.0, 1.0, 1.0], 2, 0.05, 0.6, 40),
    _sweep("polygon:3", [1.0, 1.0, 1.0], 1, 0.05, 0.6, 40),
    _sweep("polygon:3", [1.0, 2.0, 3.0], 2, 0.01, 1.5, 40),
    dict(workloads.REFERENCE_SWEEP, potential="power:2"),
    _sweep("polygon:3", [1.0, 1.0, 1.0], 2, 0.3, 0.8, 48, "log"),
    _sweep("torus:0.5,1.7,2.9", [0.01, 0.01, 1.0], 3, 0.05, 5.0, 40),
    _sweep("torus:1,2,3", [1.0, 0.01, 0.01], 1, 0.05, 5.0, 40),
    _sweep("torus:1,2,3", [0.01, 0.01, 1.0], 3, 0.2, 8.0, 40, "power:2"),
    _sweep("torus:1,2,3", [0.01, 0.01, 1.0], 3, 0.05, 2.0, 40, "log"),
    _sweep("polygon:3", [1.0, 0.2, 1.0], 1, 0.2, 2.0, 40),
)

#: unique ray, collinear family, infeasible
INVERSE_SIDES = ("0.4,0.4,0.2", "0.5,0.3,0.2", "0.7,0.2,0.1")
#: ``inverse --points`` files: a generic torus point, an aligned label, a
#: straight central angle, a triangle, a collinear triple with vertex 3
#: intermediate, and two poles that the command refuses with exit 2 (a
#: polygon whose vertices 2 and 3 coincide, torus points on the two unit
#: circles at alpha3 = 0)
INVERSE_POINTS = (
    {"space": "torus", "radii": [1.0, 2.0, 3.0],
     "angles": [2.0405577597527302, 1.9166509607975102]},
    {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [3.141592653589793, 0.0]},
    {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [1.0, 3.141592653589793]},
    {"space": "polygon", "points": [[0.0, 0.0], [0.25, 0.0], [0.0, 0.3333333333333333]]},
    {"space": "polygon", "points": [[0.0, 0.0], [0.5, 0.0], [0.2, 0.0]]},
    {"space": "polygon", "points": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0]]},
    {"space": "torus", "radii": [1.0, 1.0, 2.0], "angles": [3.141592653589793, 3.141592653589793]},
)

ARTIFACTS = ("branches.csv", "curves.csv", "branches.json", "curves.json")

#: seed of the analysis workload whose control-triangle cells are compared
CELL_SEED = 1
#: largest coordinate difference of two points that match as sets
SET_TOL = 1e-9

WORKER = f"""
import contextlib, dataclasses, io, json, sys
from pathlib import Path
import coulomb_eq
from coulomb_eq import bifurcation
from coulomb_eq.cli import main, point_record
from coulomb_eq.spaces import ChargeVector

def call(job):
    if job["kind"] == "cell":
        points = bifurcation.three_charge_equilibria(ChargeVector.of(job["charges"]))
        return [dict(point_record(cp), key=list(cp.key)) for cp in points]
    probe = bifurcation.fixing_effect_probe(job["q1"], job["q3"], job["q2_samples"])
    return dataclasses.asdict(probe)

out = []
for k, argv in enumerate(json.load(sys.stdin)):
    if isinstance(argv, dict) and argv["kind"] == "points":
        Path(f"points-{{k}}.json").write_text(json.dumps(argv["config"]))
        argv = ["inverse", "--points", f"points-{{k}}.json"]
    if isinstance(argv, dict):
        out.append({{"code": 0, "stdout": json.dumps(call(argv))}})
        continue
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    run = {{"code": code, "stdout": buf.getvalue()}}
    if argv[0] == "bifurcate":
        outdir = Path(argv[argv.index("--outdir") + 1])
        run["files"] = {{name: (outdir / name).read_text()
                        if (outdir / name).exists() else None
                        for name in {ARTIFACTS!r}}}
    out.append(run)
json.dump({{"package": coulomb_eq.__file__, "runs": out}}, sys.stdout)
"""


def _argv(space: str, charges: str, potential: str, grid: int) -> list[str]:
    return ["solve", "--space", space, "--charges", charges,
            "--potential", potential, "--grid-density", str(grid)]


def _sweep_argv(sweep: dict, outdir: str) -> list[str]:
    lo, hi = sweep["range"]
    return ["bifurcate", "--space", sweep["space"],
            "--charges", ",".join(repr(float(v)) for v in sweep["charges"]),
            "--potential", sweep.get("potential", "coulomb"),
            "--sweep", str(sweep["sweep"]), "--range", f"{lo!r}:{hi!r}",
            "--steps", str(sweep["steps"]), "--outdir", outdir]


def corpus() -> list[tuple[str, list[str] | dict]]:
    """(group, argv) of every run, or (group, job) for the cells and
    probes; charges of benchmark jobs are passed as the benchmark passes
    them.  Output directories are relative, so stdout names the same
    path in both trees."""
    runs = []
    for seed in BENCHMARK_SEEDS:
        for job in workloads.generate("torus-census", seed):
            charges = ",".join(repr(float(v)) for v in job["charges"])
            runs.append(("torus", _argv(job["space"], charges, "coulomb", job["grid"])))
    runs += [("torus", _argv(*census)) for census in EXTRA_TORUS]
    for potential in ("coulomb", "log", "power:2.5"):
        runs += [("polygon", _argv(space, charges, potential, grid))
                 for space, charges, grid in POLYGONS]
    runs.append(("polygon", _argv("polygon:3", BOUNDARY_TRIPLE, "coulomb", 48)))
    for seed in BENCHMARK_SEEDS:
        for job in workloads.generate("polygon-census", seed):
            charges = ",".join(repr(float(v)) for v in job["charges"])
            runs.append(("polygon", _argv(job["space"], charges, "coulomb", job["grid"])))
    runs += [("bifurcate", _sweep_argv(sweep, f"bifurcate-{k}"))
             for k, sweep in enumerate(SWEEPS)]
    runs += [("verify", ["verify", "--suite", suite]) for suite in ("quick", "full")]
    runs += [("inverse", ["inverse", "--sides", sides]) for sides in INVERSE_SIDES]
    runs += [("inverse", {"kind": "points", "config": config}) for config in INVERSE_POINTS]
    runs += [("cell", job) for job in workloads.generate("analysis-mix", CELL_SEED)
             if job["kind"] == "cell"]
    for seed in BENCHMARK_SEEDS:
        runs += [("probe", job) for job in workloads.generate("analysis-mix", seed)
                 if job["kind"] == "probe"]
    return runs


def label(job: list[str] | dict) -> str:
    if isinstance(job, list):
        return " ".join(job)
    return " ".join(f"{key}={value}" for key, value in job.items() if key != "id")


def run_tree(src: Path, argvs: list[list[str] | dict]) -> list[dict]:
    src = src.resolve()
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(argvs),
                              env=dict(os.environ, PYTHONPATH=str(src)), cwd=workdir,
                              capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: worker failed\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    if not Path(result["package"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{src}: imported coulomb_eq from {result['package']}")
    return result["runs"]


def _token(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str | None):
    """A JSON text parsed, any other text as lines of comma- or
    space-separated tokens with numbers as floats."""
    if text is None:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return [[_token(t) for t in re.split(r"[,\s]+", line.strip())]
                for line in text.splitlines()]


def view(run: dict) -> dict:
    """A run with every output text parsed for ``compare``."""
    return {"code": run["code"], "stdout": parse(run["stdout"]),
            "files": {name: parse(text) for name, text in run.get("files", {}).items()}}


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


def census_points(parsed) -> list[dict] | None:
    """The point records of a parsed census output (a ``solve`` payload
    or a control cell's list), ``None`` for any other output."""
    if isinstance(parsed, dict):
        parsed = parsed.get("points")
    if isinstance(parsed, list) and all(isinstance(p, dict) and "coords" in p for p in parsed):
        return parsed
    return None


def _position(point: dict) -> list[float]:
    """A point's coordinates, torus angles embedded as cos/sin so that
    angles a turn apart compare as equal."""
    coords = point["coords"]
    if "angles" in coords:
        return [f(a) for a in coords["angles"] for f in (math.cos, math.sin)]
    return [x for vertex in coords["points"] for x in vertex]


def match_as_sets(old: list[dict], new: list[dict]) -> bool:
    """Whether two point lists hold the same points in any order: equal
    counts, and each point within ``SET_TOL`` of a point of the other
    list with the same ``index``, ``aligned`` and ``degenerate``."""
    def found(point: dict, others: list[dict]) -> bool:
        here = _position(point)
        return any(all(point[k] == other[k] for k in ("index", "aligned", "degenerate"))
                   and max(abs(x - y) for x, y in zip(here, _position(other))) <= SET_TOL
                   for other in others)

    return (len(old) == len(new) and all(found(p, new) for p in old)
            and all(found(p, old) for p in new))


def source_lines(src: Path) -> int:
    """Lines of the package modules of a source tree, as ``wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "coulomb_eq").glob("*.py"))


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
    as_sets = [0, 0]
    for (group, argv), a, b in zip(runs, old, new):
        name = label(argv)
        tally = identical.setdefault(group, [0, 0])
        tally[1] += 1
        if a == b:
            tally[0] += 1
            print(f"identical  {name}")
            continue
        diffs: dict[str, float] = {}
        mismatches: list[str] = []
        va, vb = view(a), view(b)
        compare(va, vb, "", diffs, mismatches)
        structural += bool(mismatches)
        sets = ""
        old_points, new_points = census_points(va["stdout"]), census_points(vb["stdout"])
        if old_points is not None and new_points is not None:
            matched = match_as_sets(old_points, new_points)
            as_sets[0] += matched
            as_sets[1] += 1
            sets = "; points match as sets" if matched else "; points differ as sets"
        for field, d in diffs.items():
            overall[field] = max(overall.get(field, 0.0), d)
        fields = ", ".join(f"{f} {d:.2g}" for f, d in sorted(diffs.items()) if d)
        other = f"; other mismatches: {', '.join(sorted(set(mismatches)))}" if mismatches else ""
        print(f"differs    {name}: {fields or 'no float field moved'}{other}{sets}")
    print()
    for group, (same, total) in identical.items():
        print(f"{group}: {same}/{total} runs byte-identical")
    print(f"differing censuses whose points match as sets: {as_sets[0]}/{as_sets[1]}")
    moved = {f: d for f, d in overall.items() if d}
    print("largest float difference per field: "
          + (", ".join(f"{f} {d:.2g}" for f, d in sorted(moved.items())) or "none"))
    old_lines, new_lines = source_lines(args.old_src), source_lines(args.new_src)
    print(f"coulomb_eq/*.py lines: {old_lines} -> {new_lines} ({new_lines - old_lines:+d})")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
