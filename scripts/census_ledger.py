#!/usr/bin/env python3
"""Verdict ledger: the ``euler_count_check`` verdicts of fixed seeded
torus census draws, and the alternating counts of the benchmark's
polygon censuses.

Usage:
    python scripts/census_ledger.py

Two torus families, each a seeded draw whose kernel cycles coulomb, log,
power:2.5, power:6 from job to job:

- ``equal-radii``: 400 censuses on three equal radii, ``default_rng(3)``;
  per job the radius is ``exp(U(-2, 2))``, then the charges are
  Dirichlet(0.6) + 1e-3.
- ``wide-torus``: 4000 censuses, ``default_rng(0)``; per job three radii
  log-uniform in [0.05, 20], then three charges log-uniform in
  [1e-3, 1e3].

For each family and kernel the script prints the number of censuses
that read "passed", then those that read "failed" and "not-applicable",
each by reason.

One polygon family, ``bench-polygon``: the ``p4`` and ``p5`` jobs of the
benchmark's polygon census (``perfbench/workloads.py``) for seeds 1-8,
12 and 90210, 20 coulomb censuses.  ``euler_count_check`` counts only
three vertices, so for each job size the script prints the censuses
whose alternating count closes and misses (-1)**n (n-2)! (a census with
a degenerate point misses), and the aligned points found out of n!/2 per
census.

It takes no options and its output is deterministic, so a diff of the
outputs of two source trees is the regression report.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import numpy as np

from coulomb_eq.morse import euler_count_check
from coulomb_eq.potentials import PotentialSpec
from coulomb_eq.solver import PolygonSpace, SolveSettings, TorusSpace, find_critical_points
from coulomb_eq.spaces import ChargeVector

# the benchmark's seeded job lists; appended, so that PYTHONPATH picks
# the source tree under test
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

KERNELS = ("coulomb", "log", "power:2.5", "power:6")
VERDICTS = ("passed", "failed", "not-applicable")

Job = tuple[str, tuple[float, float, float], np.ndarray]


def equal_radii_jobs(count: int) -> Iterator[Job]:
    """The first ``count`` jobs of the equal-radii draw."""
    rng = np.random.default_rng(3)
    for i in range(count):
        r = math.exp(rng.uniform(-2.0, 2.0))
        yield KERNELS[i % 4], (r, r, r), rng.dirichlet([0.6] * 3) + 1e-3


def wide_torus_jobs(count: int) -> Iterator[Job]:
    """The first ``count`` jobs of the wide torus draw."""
    rng = np.random.default_rng(0)
    for i in range(count):
        radii = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        yield KERNELS[i % 4], tuple(radii), np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 3))


#: each family's draw and its number of jobs
FAMILIES = {"equal-radii": (equal_radii_jobs, 400), "wide-torus": (wide_torus_jobs, 4000)}

#: the seeds of the benchmark polygon jobs, the held-out seed last
BENCH_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 12, workloads.HELD_OUT_SEED)
#: the benchmark polygon jobs the ledger runs
BENCH_JOBS = ("p4", "p5")


def verdict(kernel: str, radii: tuple[float, float, float], charges: np.ndarray) -> str:
    """The verdict of one census, with its reason when it has one."""
    space = TorusSpace(radii)
    pts = find_critical_points(space, ChargeVector.of(charges), PotentialSpec.parse(kernel))
    summary = euler_count_check(pts, space)
    return f"{summary.euler_check}: {summary.reason}" if summary.reason else summary.euler_check


def bench_polygon_lines(jobs: int | None) -> list[str]:
    """The ledger lines of the first ``jobs`` benchmark polygon jobs (all
    of them for ``None``), seed by seed: per job size, the censuses that
    close and miss the alternating count, and the aligned points found."""
    tally: Counter = Counter()
    for job in itertools.islice((job for seed in BENCH_SEEDS
                                 for job in workloads.generate("polygon-census", seed)
                                 if job["id"] in BENCH_JOBS), jobs):
        space = PolygonSpace(int(job["space"].split(":")[1]))
        pts = find_critical_points(space, ChargeVector.of(job["charges"]),
                                   settings=SolveSettings(grid_density=job["grid"]))
        closes = (not any(cp.degenerate for cp in pts)
                  and sum((-1) ** cp.morse_index for cp in pts)
                  == (-1) ** space.n * math.factorial(space.n - 2))
        tally[job["id"], "closes" if closes else "misses"] += 1
        tally[job["id"], "aligned"] += sum(cp.aligned for cp in pts)
    lines = []
    for size in BENCH_JOBS:
        n = int(size[1:])
        censuses = tally[size, "closes"] + tally[size, "misses"]
        if not censuses:
            continue
        target = (-1) ** n * math.factorial(n - 2)
        for label, value in ((f"closes the count {target}", tally[size, "closes"]),
                             (f"misses the count {target}", tally[size, "misses"]),
                             (f"aligned points found, of {censuses * math.factorial(n) // 2}",
                              tally[size, "aligned"])):
            lines.append(f"{'bench-polygon':<13} {size:<10} {label:<45} {value:>5}")
    return lines


def ledger(jobs: int | None = None) -> list[str]:
    """The ledger lines over the first ``jobs`` jobs of each family (all of
    them by default): one per torus family, kernel and verdict, then the
    benchmark polygon lines."""
    lines = []
    for family, (draw, size) in FAMILIES.items():
        tally = Counter((kernel, verdict(kernel, radii, q))
                        for kernel, radii, q in draw(size if jobs is None else jobs))
        for kernel, label in sorted(tally, key=lambda k: (KERNELS.index(k[0]),
                                                          VERDICTS.index(k[1].split(":")[0]),
                                                          k[1])):
            lines.append(f"{family:<13} {kernel:<10} {label:<45} {tally[kernel, label]:>5}")
    return lines + bench_polygon_lines(jobs)


if __name__ == "__main__":
    print("\n".join(ledger()))
