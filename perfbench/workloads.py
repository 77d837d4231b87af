"""Seeded job lists for the three benchmark workloads.

A job list depends only on the workload name and the seed; the package
receives nothing but the generated argv or charge vectors.  Jobs are
plain JSON-ready dicts so a run can record its inputs verbatim.

Job kinds:

* ``solve``: ``coulomb-eq solve`` through ``cli.main``; a census job;
* ``cell``: ``bifurcation.three_charge_equilibria`` at one point of the
  control triangle; a census job (the closed-form-seeded census that
  ``count_polygon_minima`` counts minima over);
* ``bifurcate``: ``coulomb-eq bifurcate`` through ``cli.main``;
* ``probe``: ``bifurcation.fixing_effect_probe``;
* ``inverse``: ``coulomb-eq inverse --sides`` through ``cli.main``, on the
  sides of the closed-form equilibrium triangle of seeded charges.
"""

from __future__ import annotations

import math

import numpy as np

#: seed held out while the benchmark was written, for confirming claims
HELD_OUT_SEED = 90210

WHY = {
    "polygon-census":
        "polygon Newton polish dominates (potentials.polygon_stationarity); "
        "large seed batches through the CLI and its default thread pool",
    "torus-census":
        "vectorized polish is cheap, so finalize/dedup (spaces.canonicalize) "
        "dominates; a polygon-Newton change should not move it",
    "analysis-mix":
        "many small polish_candidates batches (2-10 seeds): per-call finalize "
        "and classification cost, pitchfork scans, inverse round-trips",
}

#: reference pitchfork sweep (threshold 1/4, square-root amplitude)
REFERENCE_SWEEP = {"space": "polygon:3", "charges": [1.0, 1.0, 1.0],
                   "sweep": 2, "range": [0.05, 0.6], "steps": 48}
#: torus sweep across the zero line of the (pi, pi, 0) sign form
TORUS_SWEEP = {"space": "torus:1,2,3", "charges": [0.01, 0.01, 1.0],
               "sweep": 3, "range": [0.2, 2.0], "steps": 40}

TORUS_RADII = (1.0, 2.0, 3.0)
TORUS_JOBS = 12
CELL_GRID = 32
CELL_COUNT = 400
INVERSE_JOBS = 20


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One charge per equal-width stratum of [lo, hi], shuffled over the
    vertices, so every job spans the same charge range."""
    q = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
    return [float(v) for v in rng.permutation(q)]


def polygon_census(rng: np.random.Generator) -> list[dict]:
    # the two three-charge regimes at their reference charges: a seeded
    # triple would move the median of this short job list by +-15%
    return [
        {"id": "p3-triangle", "kind": "solve", "space": "polygon:3",
         "charges": [1.0, 1.0, 1.0], "grid": 48},
        {"id": "p3-collinear", "kind": "solve", "space": "polygon:3",
         "charges": [0.125, 1.0, 1.0], "grid": 48},
        {"id": "p4", "kind": "solve", "space": "polygon:4",
         "charges": _stratified(rng, 4, 0.5, 2.0), "grid": 16},
        {"id": "p5", "kind": "solve", "space": "polygon:5",
         "charges": _stratified(rng, 5, 0.5, 2.0), "grid": 8},
    ]


def torus_census(rng: np.random.Generator) -> list[dict]:
    space = "torus:" + ",".join(f"{r:g}" for r in TORUS_RADII)
    jobs = [{"id": f"t{k:02d}", "kind": "solve", "space": space,
             "charges": [float(v) for v in rng.dirichlet((0.6, 0.6, 0.6)) + 1e-3],
             "grid": 96}
            for k in range(TORUS_JOBS)]
    jobs.append({"id": "t-equal", "kind": "solve", "space": "torus:1,1,1",
                 "charges": [1.0, 1.0, 1.0], "grid": 96})
    return jobs


def _boundary_gap(q: np.ndarray) -> float:
    """Relative distance of a charge triple from the region boundary
    (where one inverse root charge equals the sum of the other two)."""
    inv = 1.0 / np.sqrt(q)
    return float(np.abs(2.0 * inv - inv.sum()).min() / inv.sum())


def control_cells(rng: np.random.Generator) -> list[list[float]]:
    """``CELL_COUNT`` jittered cells of a barycentric grid, skipping the
    thin band around the boundary curves where the aligned point is
    (nearly) degenerate and the minima count is not decided."""
    cells = []
    g = CELL_GRID
    for i in range(1, g):
        for j in range(1, g - i):
            q = (np.array([i, j, g - i - j], dtype=float)
                 + rng.uniform(-0.3, 0.3, 3)) / g
            q /= q.sum()
            if _boundary_gap(q) > 0.02:
                cells.append([float(v) for v in q])
    order = rng.permutation(len(cells))[:CELL_COUNT]
    return [cells[k] for k in sorted(order)]


def analysis_mix(rng: np.random.Generator) -> list[dict]:
    jobs: list[dict] = [
        {"id": "bifurcate-reference", "kind": "bifurcate", **REFERENCE_SWEEP},
        {"id": "bifurcate-torus", "kind": "bifurcate", **TORUS_SWEEP},
    ]
    for k, q in enumerate(control_cells(rng)):
        jobs.append({"id": f"cell{k:03d}", "kind": "cell", "charges": q})
    # outer charges close enough that the sweep of q2 up to 1 crosses only
    # the curve of the middle vertex, whose threshold is
    # 1 / (q1**-0.5 + q3**-0.5)**2
    q1, q3 = (float(v) for v in rng.uniform(0.7, 1.5, 2))
    limit = 1.0 / (1.0 / math.sqrt(q1) + 1.0 / math.sqrt(q3)) ** 2
    samples = sorted(float(v) for v in rng.uniform(0.05, 0.9, 5) * limit)
    jobs.append({"id": "fixing-probe", "kind": "probe", "q1": q1, "q3": q3,
                 "q2_samples": samples + [1.2 * limit]})
    done = 0
    while done < INVERSE_JOBS:
        q = rng.dirichlet((1.0, 1.0, 1.0))
        if q.min() < 1e-2 or _boundary_gap(q) < 0.05:
            continue
        inv = 1.0 / np.sqrt(q)
        if 2.0 * inv.max() >= inv.sum():
            continue  # collinear regime: no equilibrium triangle
        jobs.append({"id": f"inverse{done:02d}", "kind": "inverse",
                     "charges": [float(v) for v in q / q.sum()]})
        done += 1
    return jobs


GENERATORS = {
    "polygon-census": polygon_census,
    "torus-census": torus_census,
    "analysis-mix": analysis_mix,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of ``workload`` for ``seed``."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    # the workload name enters the stream so workloads draw independently
    key = sum(ord(c) * 31 ** k for k, c in enumerate(workload)) % (2 ** 32)
    return GENERATORS[workload](np.random.default_rng([seed, key]))
