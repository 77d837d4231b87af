"""Inverse problem: which charges make a given configuration an equilibrium.

Stationarity is linear in the pair weights ``w_ij = q_i * q_j``, so one
null space answers every three-charge configuration (coulomb kernel).
A triangle or generic circles configuration gives a unique charge ray;
a collinear triple fixes only the outer ratio, every positive
intermediate charge below a limit keeping it a minimum; aligned circles
are stationary for every charge triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials as pot
from .potentials import COULOMB, PotentialSpec
from .spaces import (
    ChargeVector,
    Config,
    PolygonConfig,
    config_rows,
    pair_distances,
    pair_indices,
    pole_radius_of,
    torus_alphas,
    triangle_vertices,
)

#: residual below which a configuration counts as stationary
EQUILIBRIUM_TOL = 1e-9
#: relative defect below which triangle sides count as degenerate
DEGENERATE_SIDE_TOL = 1e-9
#: sine below which a central angle counts as straight
STRAIGHT_SINE_TOL = 1e-12
#: share of the largest singular value below which one counts as null; a
#: triangle ``DEGENERATE_SIDE_TOL`` off the line keeps at least about 2.8e-5
NULL_SPACE_TOL = 1e-5


@dataclass(frozen=True)
class AlignedChargeFamily:
    """Stabilizing charges of a collinear triple.

    ``outer`` is the outer charge pair in vertex order, normalized to
    unit sum (its ratio is the square of the ratio of the adjacent
    segment lengths); the arrangement is stationary for every positive
    intermediate charge and a strict minimum exactly below
    ``intermediate_limit`` (on the same scale as ``outer``), degenerate
    at the limit.
    """

    outer: tuple[float, float]
    intermediate_limit: float


@dataclass(frozen=True)
class InverseResult:
    """Solution set of the inverse problem for one configuration."""

    kind: str  # "unique-ray" | "one-parameter-family" | "two-parameter-family" | "infeasible"
    charges: ChargeVector | None
    family: AlignedChargeFamily | None = None
    residual: float | None = None
    notes: str = ""


@dataclass(frozen=True)
class EquilibriumCheck:
    """Stationarity verdict for a (configuration, charges) pair."""

    grad_norm: float
    relation_residual: float
    passed: bool


def verify_equilibrium(config: Config, charges: ChargeVector,
                       spec: PotentialSpec = COULOMB) -> EquilibriumCheck:
    """Gradient norm plus closed-form relation residual; passes when both
    sit below the equilibrium tolerance."""
    if config.has_pole:
        raise pot.PoleError("cannot verify an equilibrium at a pole")
    grad_norm = float(np.linalg.norm(pot.gradient(config, charges, spec)))
    relation = pot.stationarity_relation_residual(config, charges, spec)
    return EquilibriumCheck(grad_norm, relation,
                            grad_norm < EQUILIBRIUM_TOL and relation < EQUILIBRIUM_TOL)


def intermediate_charge_limit(outer_left: float, outer_right: float) -> float:
    """Largest intermediate charge keeping a collinear triple a minimum."""
    return 1.0 / (1.0 / math.sqrt(outer_left) + 1.0 / math.sqrt(outer_right)) ** 2


def _verified(kind: str, config: Config, charges: ChargeVector,
              family: AlignedChargeFamily | None = None, notes: str = "") -> InverseResult:
    check = verify_equilibrium(config, charges)
    return InverseResult(kind, charges, family,
                         max(check.grad_norm, check.relation_residual), notes)


def _stationarity_matrix(rows: np.ndarray, radii: tuple[float, float, float] | None,
                         d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns: the gradients of the pair distances ``d`` in
    ``pair_indices`` order, then a polygon's perimeter gradient; and the
    unit of each pair column.  A circles column is taken in units of
    ``r_a * r_b / d``, so it reads ``sin(alpha)`` (zeroed below
    ``STRAIGHT_SINE_TOL``) times the chart derivative of the angle."""
    first, second = pair_indices(3)
    if radii is None:
        u = (rows[0, first] - rows[0, second]) / d[:, None]
        grads = np.zeros((3, 3, 2))  # pair, vertex, coordinate
        grads[range(3), first] = u
        grads[range(3), second] = -u
        cols = grads.reshape(3, 6)
        # every pair of a triangle is a side: the perimeter is their sum
        return np.vstack([cols, cols.sum(axis=0)]).T, np.ones(3)
    # pairs (0, 1), (0, 2), (1, 2) face the angles alpha3, alpha2, alpha1
    sines = np.sin(torus_alphas(rows)[0, ::-1])
    sines[np.abs(sines) < STRAIGHT_SINE_TOL] = 0.0
    # chart derivatives of (alpha3, alpha2, alpha1): alpha3 = 2 pi - alpha1 - alpha2
    chart = np.array([[-1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]])
    r = np.asarray(radii)
    return chart * sines, r[first] * r[second] / d


def stabilizing_charges(config: Config) -> InverseResult:
    """Stabilizing charges of three points, read off the dimension of the
    null space of ``_stationarity_matrix``: 1 the unique ray (unit sum),
    infeasible for weights of mixed sign; 2 the collinear family, its
    representative at half the limit; 3 every charge triple, represented
    by equal charges.  A vanishing column (a straight central angle)
    frees its own pair, so the others must be zero: infeasible.
    ``ValueError`` for other than three points, ``PoleError`` at a pole.
    """
    if config.n != 3:
        raise ValueError("inverse problem is solved for three charges only")
    rows, radii = config_rows(config)
    d = pair_distances(rows, radii)[0]
    if d.min() < pole_radius_of(radii):
        raise pot.PoleError("cannot solve the inverse problem at a pole")
    matrix, unit = _stationarity_matrix(rows, radii, d)
    _, sv, vt = np.linalg.svd(matrix)
    null = vt[int((sv > NULL_SPACE_TOL * sv.max()).sum()):]
    if len(null) == 3:
        return _verified("two-parameter-family", config, ChargeVector.of([1 / 3] * 3),
                         notes="aligned configurations are stationary for every "
                               "positive charge triple")
    if not matrix.any(axis=0).all():
        return InverseResult("infeasible", None, notes="a single straight central angle "
                             "admits no stationarity balance with nonzero charges")
    # the null coefficient of pair ij is w_ij * phi'(d_ij) * unit_ij
    _, dphi, _ = pot.kernel_terms(COULOMB, d)
    weights = null[:, :3] / (dphi * unit)
    if len(null) == 2:
        # the vertex opposite the longest pair is intermediate; its two
        # pairs share every null coefficient, and their weights
        # q_left * q_mid and q_mid * q_right fix the outer ratio
        mid = int(np.argmax(d[::-1]))
        left, right = (i for i in range(3) if i != mid)
        at_mid = np.linalg.norm(weights[:, [2 - right, 2 - left]], axis=0)
        q_left, q_right = (at_mid / at_mid.sum()).tolist()
        limit = intermediate_charge_limit(q_left, q_right)
        rep = np.empty(3)
        rep[[left, mid, right]] = q_left, 0.5 * limit, q_right
        return _verified("one-parameter-family", config, ChargeVector.of(rep / rep.sum()),
                         AlignedChargeFamily((q_left, q_right), limit),
                         notes=f"degenerate sides: vertex {mid + 1} is intermediate; "
                               "stationary for every positive intermediate charge; "
                               "a minimum only below the intermediate limit")
    w = weights[0]
    if not ((w > 0.0).all() or (w < 0.0).all()):
        return InverseResult("infeasible", None, notes="stationarity would need charges "
                             "of mixed sign, outside the positive-charge domain")
    # w_ij = q_i * q_j, so q_i = sqrt(w_ij * w_ik / w_jk) is proportional to 1 / w_jk
    q = 1.0 / w[::-1]
    return _verified("unique-ray", config, ChargeVector.of(q / q.sum()))


def stabilizing_charges_triangle(side_a: float, side_b: float,
                                 side_c: float) -> InverseResult:
    """Stabilizing charges of the triangle with these sides, each
    opposite its vertex: infeasible when impossible, else the triangle,
    or the collinear triple for sides within ``DEGENERATE_SIDE_TOL`` of
    the triangle equality, through ``stabilizing_charges``."""
    sides = np.array([side_a, side_b, side_c], dtype=float)
    if not np.isfinite(sides).all() or sides.min() <= 0.0:
        raise ValueError("sides must be positive and finite")
    # rescale first: neither the sum nor the triangle may overflow
    sides /= sides.max()
    perimeter = float(sides.sum())
    # slack of each triangle inequality: (sum of the other two) - side
    slack = perimeter - 2.0 * sides
    if slack.min() < -DEGENERATE_SIDE_TOL * perimeter:
        return InverseResult("infeasible", None, notes="side lengths violate the triangle "
                             "inequality; no planar triple has these distances")
    if slack.min() > DEGENERATE_SIDE_TOL * perimeter:
        return stabilizing_charges(PolygonConfig.from_points(
            triangle_vertices(sides / perimeter)))
    mid = int(np.argmax(sides))
    left, right = (i for i in range(3) if i != mid)
    x = np.zeros((3, 2))
    # the side opposite the right vertex joins the left one to the middle
    x[[mid, right], 0] = sides[right], sides[right] + sides[left]
    return stabilizing_charges(PolygonConfig.from_points(x))
