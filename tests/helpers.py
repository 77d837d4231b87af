"""Reference helpers the tests share.

Closed-form and comparison functions that only the tests use: a
configuration match by the census same-point rule, the scalar pair loop
of the collinear gradient and Hessian, the energies of the three
collinear equilibria, the aligned-Hessian sign form of a torus label,
the defect of the polygon aligned-minimum boundary, the triangle
multistart grid with the three-charge census polished from it, the
torus angle grid with the census polished from all of it, and a census
comparison as sets.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from coulomb_eq import potentials as pot
from coulomb_eq.morse import torus_aligned_hessian_form
from coulomb_eq.potentials import COULOMB, PotentialSpec
from coulomb_eq.solver import (
    CriticalPoint,
    PolygonSpace,
    TorusSpace,
    _close,
    _finalize,
    _point_rows,
    _representatives,
    closed_form_seeds,
    polish_candidates,
    solve_line_three,
)
from coulomb_eq.spaces import (
    TORUS_ALIGNED_ROWS,
    ChargeVector,
    Config,
    config_rows,
    triangle_vertices,
)


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


def triangle_grid(grid_density: int) -> np.ndarray:
    """Multistart seeds for three charges: every triangle whose sides are
    positive multiples of ``1 / grid_density`` summing to one, above and
    below its base, as a stack ``(k, 3, 2)``."""
    g = grid_density
    seeds = []
    for i in range(1, g):
        for j in range(1, g - i):
            sides = (i / g, j / g, 1.0 - i / g - j / g)
            for flip in (False, True):
                tri = triangle_vertices(sides, flip)
                if tri is not None:
                    seeds.append(tri)
    return np.array(seeds)


def multistart_census(charges: ChargeVector, spec: PotentialSpec = COULOMB,
                      grid_density: int = 24) -> list[CriticalPoint]:
    """The three-charge census by multistart: the closed forms first, so
    they win the dedup, then ``triangle_grid``, through
    ``polish_candidates``."""
    seeds = np.concatenate([closed_form_seeds(charges, spec), triangle_grid(grid_density)])
    return polish_candidates(PolygonSpace(3), charges, seeds, spec)


def _exact_torus_seeds(space: TorusSpace) -> list[np.ndarray]:
    """``TORUS_ALIGNED_ROWS``, and the +-2pi/3 points on equal radii."""
    head = [TORUS_ALIGNED_ROWS]
    if max(space.radii) - min(space.radii) < 1e-12:
        third = 2.0 * math.pi / 3.0
        head.append(np.array([(third, third), (-third, -third)]))
    return head


def torus_grid_seeds(space: TorusSpace, grid_density: int) -> np.ndarray:
    """Torus seeds from the ``g x g`` angle grid: the grid half with
    ``alpha1`` in ``(0, pi]``, x-major, behind the aligned seeds (and the
    equal-radii +-2pi/3 seeds).  Tick ``i`` negates to tick ``g - 1 - i``,
    so the other half mirrors this one."""
    g = grid_density
    ticks = 2.0 * math.pi * (np.arange(g) + 0.5) / g
    half = ticks[:(g + 1) // 2]
    grid = np.column_stack([np.repeat(half, g), np.tile(ticks, len(half))])
    return np.vstack([*_exact_torus_seeds(space), grid])


def full_grid_torus_census(space: TorusSpace, charges: ChargeVector,
                           spec: PotentialSpec = COULOMB,
                           grid_density: int = 24) -> list[CriticalPoint]:
    """The torus census polished from the whole ``g x g`` angle grid, both
    mirror halves, x-major behind the aligned seeds (and the equal-radii
    +-2pi/3 seeds), through the solver's dedup and finalize."""
    g = grid_density
    ticks = 2.0 * math.pi * (np.arange(g) + 0.5) / g
    grid = np.column_stack([np.repeat(ticks, g), np.tile(ticks, g)])
    seeds = np.vstack([*_exact_torus_seeds(space), grid])
    return _finalize(space, _representatives(space, charges, spec, seeds), charges, spec)


def same_census(a: Sequence[CriticalPoint], b: Sequence[CriticalPoint]) -> bool:
    """Whether two censuses hold the same points in any order: equal
    counts, and each point of ``a`` one point of ``b`` by the census rule
    (``configs_match``) with the same index, degenerate and aligned flags,
    energy within 1e-9 and the matching point as its mirror partner."""
    match = []
    for cp in a:
        found = [i for i, other in enumerate(b) if configs_match(cp.config, other.config)]
        if len(found) != 1:
            return False
        other = b[found[0]]
        if ((cp.morse_index, cp.degenerate, cp.aligned)
                != (other.morse_index, other.degenerate, other.aligned)
                or abs(cp.energy - other.energy) > 1e-9):
            return False
        match.append(found[0])
    return len(a) == len(b) == len(set(match)) and all(
        (cp.symmetry_partner is None and b[i].symmetry_partner is None)
        or (cp.symmetry_partner is not None
            and match[cp.symmetry_partner] == b[i].symmetry_partner)
        for cp, i in zip(a, match))
