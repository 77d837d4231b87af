"""Reference helpers the tests share.

Closed-form and comparison functions that only the tests use: a
configuration match within the census dedup distance, the energies of
the three collinear equilibria, the aligned-Hessian sign form of a torus
label, and the defect of the polygon aligned-minimum boundary.
"""

from __future__ import annotations

from typing import Sequence

from coulomb_eq import potentials as pot
from coulomb_eq.morse import torus_aligned_hessian_form
from coulomb_eq.potentials import COULOMB, PotentialSpec
from coulomb_eq.solver import _close, solve_line_three
from coulomb_eq.spaces import ChargeVector, Config, config_rows


def configs_match(a: Config, b: Config) -> bool:
    """Whether two configurations coincide within ``DEDUP_TOL`` (wrap-aware)."""
    (rows_a, radii), (rows_b, _) = config_rows(a), config_rows(b)
    return bool(_close(rows_a, rows_b, radii is not None)[0, 0])


def line_three_energies(charges: ChargeVector,
                        spec: PotentialSpec = COULOMB) -> list[float]:
    return [pot.energy(cfg, charges, spec) for cfg in solve_line_three(charges, spec)]


def evaluate_aligned_form(radii: Sequence[float], label: Sequence[float],
                          charges: ChargeVector) -> float:
    """Sign form of the aligned Hessian determinant at given charges."""
    return float(torus_aligned_hessian_form(radii, label) @ charges.array)


def polygon_boundary_equation(q: Sequence[float], vertex: int,
                              spec: PotentialSpec = COULOMB) -> float:
    """Defect of the aligned-minimum boundary for the given intermediate
    vertex: zero when its charge to the power ``-p`` (the kernel's
    ``ratio_exponent``; an inverse root for coulomb) equals the sum of
    the others."""
    inv = [v ** -spec.ratio_exponent for v in q]
    others = sum(inv) - inv[vertex]
    return inv[vertex] - others
