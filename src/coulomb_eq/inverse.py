"""Inverse problem: which charges make a given configuration an equilibrium.

A non-collinear triangle determines its stabilizing charges uniquely up
to scale (inverse square of the opposite side).  A collinear triple
fixes only the ratio of the outer charges; every positive intermediate
charge keeps the arrangement stationary, with an upper limit past which
it stops being a minimum.  On the torus, generic angles determine a
unique charge ray while aligned angles are stationary for every charge
triple.
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
    TorusConfig,
    triangle_vertices,
)

#: residual below which a configuration counts as stationary
EQUILIBRIUM_TOL = 1e-9
#: relative defect below which triangle sides count as degenerate
DEGENERATE_SIDE_TOL = 1e-9


@dataclass(frozen=True)
class AlignedChargeFamily:
    """Stabilizing charges of a collinear triple.

    ``outer`` is the left/right charge pair normalized to unit sum (its
    ratio is the square of the ratio of the adjacent segment lengths);
    the arrangement is stationary for every positive intermediate
    charge and a strict minimum exactly below ``intermediate_limit``
    (on the same scale as ``outer``), degenerate at the limit.
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


def stabilizing_charges_aligned(d_left: float, d_right: float) -> InverseResult:
    """Stabilizing charges of a collinear triple with segment lengths
    ``d_left`` (left outer to intermediate) and ``d_right``.

    The lengths must sum to one half (a perimeter-one aligned triple).
    The outer ratio is forced; the intermediate charge is free, so the
    result is a one-parameter family up to scale.  The returned
    representative takes half the minimality limit as its intermediate
    charge and is normalized to unit sum.
    """
    if min(d_left, d_right) <= 0.0:
        raise ValueError("segment lengths must be positive")
    if abs(d_left + d_right - 0.5) > 1e-9:
        raise ValueError("aligned segment lengths must sum to one half")
    ratio = (d_left / d_right) ** 2  # q_left / q_right
    q_left = ratio / (1.0 + ratio)
    q_right = 1.0 / (1.0 + ratio)
    limit = intermediate_charge_limit(q_left, q_right)
    rep = np.array([q_left, 0.5 * limit, q_right])
    rep /= rep.sum()
    charges = ChargeVector.of(rep)
    config = PolygonConfig.from_points(
        [[0.0, 0.0], [d_left, 0.0], [0.5, 0.0]])
    check = verify_equilibrium(config, charges)
    return InverseResult(
        kind="one-parameter-family",
        charges=charges,
        family=AlignedChargeFamily((q_left, q_right), limit),
        residual=max(check.grad_norm, check.relation_residual),
        notes="stationary for every positive intermediate charge; "
              "a minimum only below the intermediate limit",
    )


def stabilizing_charges_triangle(side_a: float, side_b: float,
                                 side_c: float) -> InverseResult:
    """Stabilizing charges of a triangle given as side lengths, each side
    opposite its vertex.

    Strict triangle sides give the unique charge ray (inverse squared
    side, normalized to unit sum); degenerate sides route to the
    collinear family; impossible side triples are infeasible.
    """
    sides = np.array([side_a, side_b, side_c], dtype=float)
    if not np.isfinite(sides).all() or sides.min() <= 0.0:
        raise ValueError("sides must be positive and finite")
    perimeter = float(sides.sum())
    # slack of each triangle inequality: (sum of the other two) - side
    slack = np.array([perimeter - 2.0 * sides[i] for i in range(3)])
    if slack.min() < -DEGENERATE_SIDE_TOL * perimeter:
        return InverseResult(
            kind="infeasible", charges=None,
            notes="side lengths violate the triangle inequality; "
                  "no planar triple has these distances")
    if slack.min() <= DEGENERATE_SIDE_TOL * perimeter:
        # degenerate triangle: the vertex opposite the longest side lies
        # between the other two
        mid = int(np.argmax(sides))
        left, right = [i for i in range(3) if i != mid]
        # segments adjacent to the intermediate vertex, rescaled to the
        # perimeter-one convention
        d_left = sides[right] / perimeter  # joins left outer to mid
        d_right = sides[left] / perimeter
        routed = stabilizing_charges_aligned(float(d_left), float(d_right))
        rep = np.empty(3)
        rep[[left, mid, right]] = routed.charges.q
        return InverseResult("one-parameter-family", ChargeVector.of(rep),
                             routed.family, routed.residual,
                             notes=f"degenerate sides: vertex {mid + 1} is intermediate; "
                                   + routed.notes)
    q = sides ** -2
    q /= q.sum()
    charges = ChargeVector.of(q)
    config = PolygonConfig.from_points(triangle_vertices(sides / perimeter))
    check = verify_equilibrium(config, charges)
    return InverseResult("unique-ray", charges,
                         residual=max(check.grad_norm, check.relation_residual))


def stabilizing_charges_torus(config: TorusConfig) -> InverseResult:
    """Stabilizing charges of a concentric-circles configuration.

    Generic angles give a unique ray provided the stationarity
    proportion has a sign-definite solution; aligned configurations are
    stationary for every positive triple (a two-parameter family up to
    scale).
    """
    alphas = np.array(config.alphas)
    sines = np.sin(alphas)
    aligned = bool(np.abs(sines).max() < 1e-12)
    if aligned:
        charges = ChargeVector.of([1.0, 1.0, 1.0]).normalized
        rep = ChargeVector.of(charges)
        check = verify_equilibrium(config, rep)
        return InverseResult(
            kind="two-parameter-family", charges=rep,
            residual=max(check.grad_norm, check.relation_residual),
            notes="aligned configurations are stationary for every positive "
                  "charge triple")
    if np.abs(sines).min() < 1e-12:
        return InverseResult(
            kind="infeasible", charges=None,
            notes="a single straight central angle admits no stationarity "
                  "balance with nonzero charges")
    d = np.array(config.side_distances())
    r = np.array(config.radii)
    ray = sines / (d ** 3 * r)
    if not (ray > 0.0).all() and not (ray < 0.0).all():
        return InverseResult(
            kind="infeasible", charges=None,
            notes="stationarity would need charges of mixed sign, outside "
                  "the positive-charge domain")
    ray = np.abs(ray)
    charges = ChargeVector.of(ray / ray.sum())
    check = verify_equilibrium(config, charges)
    return InverseResult("unique-ray", charges,
                         residual=max(check.grad_norm, check.relation_residual))
