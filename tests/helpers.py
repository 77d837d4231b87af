"""Reference helpers the tests share.

Closed-form and comparison functions that only the tests use: a
configuration match by the census same-point rule, the scalar pair loop
of the collinear gradient and Hessian, the energies of the three
collinear equilibria, the aligned-Hessian sign form of a torus label,
and the defect of the polygon aligned-minimum boundary.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from coulomb_eq import potentials as pot
from coulomb_eq.morse import torus_aligned_hessian_form
from coulomb_eq.potentials import COULOMB, PotentialSpec
from coulomb_eq.solver import _close, _point_rows, solve_line_three
from coulomb_eq.spaces import ChargeVector, Config, config_rows


def configs_match(a: Config, b: Config) -> bool:
    """Whether two configurations are one point by the census rule."""
    (rows_a, radii), (rows_b, _) = config_rows(a), config_rows(b)
    return bool(_close(_point_rows(rows_a, radii), _point_rows(rows_b, radii))[0, 0])


def line_grad_hess(xs: np.ndarray, charges: ChargeVector,
                   spec: PotentialSpec = COULOMB) -> tuple[np.ndarray, np.ndarray]:
    """Reference gradient ``(n,)`` and Hessian ``(n, n)`` of the energy of
    charges at the ordered line positions ``xs``, summed pair by pair."""
    n = len(xs)
    q = charges.array
    g = np.zeros(n)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = xs[j] - xs[i]
            _, dphi, ddphi = pot.kernel_eval(spec, abs(d))
            s = math.copysign(1.0, d)
            g[i] += -q[i] * q[j] * dphi * s
            g[j] += q[i] * q[j] * dphi * s
            blk = q[i] * q[j] * ddphi
            h[i, i] += blk
            h[j, j] += blk
            h[i, j] -= blk
            h[j, i] -= blk
    return g, h


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
