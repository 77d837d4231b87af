#!/usr/bin/env python3
"""Verdict ledger: the ``euler_count_check`` verdicts of fixed seeded
torus census draws.

Usage:
    python scripts/census_ledger.py

Two families, each a seeded draw whose kernel cycles coulomb, log,
power:2.5, power:6 from job to job:

- ``equal-radii``: 400 censuses on three equal radii, ``default_rng(3)``;
  per job the radius is ``exp(U(-2, 2))``, then the charges are
  Dirichlet(0.6) + 1e-3.
- ``wide-torus``: 4000 censuses, ``default_rng(0)``; per job three radii
  log-uniform in [0.05, 20], then three charges log-uniform in
  [1e-3, 1e3].

For each family and kernel the script prints the number of censuses
that read "passed", then those that read "failed" and "not-applicable",
each by reason.  It takes no options and its output is deterministic, so
a diff of the outputs of two source trees is the regression report.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator

import numpy as np

from coulomb_eq.morse import euler_count_check
from coulomb_eq.potentials import PotentialSpec
from coulomb_eq.solver import TorusSpace, find_critical_points
from coulomb_eq.spaces import ChargeVector

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


def verdict(kernel: str, radii: tuple[float, float, float], charges: np.ndarray) -> str:
    """The verdict of one census, with its reason when it has one."""
    space = TorusSpace(radii)
    pts = find_critical_points(space, ChargeVector.of(charges), PotentialSpec.parse(kernel))
    summary = euler_count_check(pts, space)
    return f"{summary.euler_check}: {summary.reason}" if summary.reason else summary.euler_check


def ledger(jobs: int | None = None) -> list[str]:
    """The ledger lines over the first ``jobs`` jobs of each family (all of
    them by default): one per family, kernel and verdict."""
    lines = []
    for family, (draw, size) in FAMILIES.items():
        tally = Counter((kernel, verdict(kernel, radii, q))
                        for kernel, radii, q in draw(size if jobs is None else jobs))
        for kernel, label in sorted(tally, key=lambda k: (KERNELS.index(k[0]),
                                                          VERDICTS.index(k[1].split(":")[0]),
                                                          k[1])):
            lines.append(f"{family:<12} {kernel:<10} {label:<45} {tally[kernel, label]:>5}")
    return lines


if __name__ == "__main__":
    print("\n".join(ledger()))
