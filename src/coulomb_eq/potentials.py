"""Pair-interaction kernels and energy derivatives in chart coordinates.

The energy of a configuration is ``sum_{i<j} q_i q_j * phi(d_ij)`` for a
pluggable kernel ``phi``: inverse distance ``1/d``, inverse power
``1/d**k`` or the planar Coulomb kernel ``-log d``.  Every kernel is
repulsive.

For the torus space the chart is simply the two free central angles and
derivatives are assembled from the per-pair angle derivatives.  For the
polygon space derivatives are first computed in the full coordinates of
the movable vertices (vertex 0 stays pinned), then projected onto the
tangent space of the perimeter constraint intersected with the
complement of the rotation direction.  That projected chart has
dimension ``2*(n-2)`` and is also what the finite-difference oracles
probe, via the scaling retraction ``y -> y / perimeter(y)``.

Derivatives are array-first: one core per space evaluates stacks of
``(k, n, 2)`` polygons or ``(k, 2)`` angle pairs, row by row with no
mixing between rows, and a single configuration is a stack of one.
The polygon core sums its pair terms by vertex incidence: a plan cached
per ``n`` lists the pairs at each movable vertex in pair order, and each
vertex adds its terms in that order, starting from 0.0.  The torus core
takes the two angle columns and holds its pair terms pair-major, as the
rows of a ``(3, k)`` stack, with the radius and charge products taken
once per census (``TorusConstants``) and its geometry from ``spaces``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spaces import (
    Config,
    ChargeVector,
    PolygonConfig,
    TorusConfig,
    alignment_defects,
    config_rows,
    norms,
    pair_distances,
    pair_indices,
    perimeter_value,
    pole_radius_of,
    side_indices,
    torus_alphas,
    torus_third_angle,
)

EPS = float(np.finfo(float).eps)
#: default relative step of the finite-difference gradient
FD_GRADIENT_STEP = 1e-5
#: default relative step of the finite-difference Hessian; the larger
#: value keeps the double-difference rounding floor well below the
#: advertised tolerances
FD_HESSIAN_STEP = EPS ** 0.25
_EYE2 = np.eye(2)


class PoleError(ValueError):
    """Raised when a configuration with coincident charges is evaluated."""


@dataclass(frozen=True)
class PotentialSpec:
    """Interaction kernel: ``coulomb`` (1/d), ``power`` (1/d**k, k > 1) or
    ``log`` (-log d, the planar Coulomb kernel)."""

    kind: str
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("coulomb", "power", "log"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        # written so that NaN fails too
        if self.kind == "power" and not 1.0 < self.exponent < math.inf:
            raise ValueError("power-law exponent must be finite and exceed 1")

    @classmethod
    def coulomb(cls) -> "PotentialSpec":
        return cls("coulomb")

    @classmethod
    def power(cls, k: float) -> "PotentialSpec":
        return cls("power", float(k))

    @classmethod
    def log(cls) -> "PotentialSpec":
        return cls("log")

    @classmethod
    def parse(cls, text: str) -> "PotentialSpec":
        """Parse a CLI-style selector: ``coulomb``, ``power:K`` or ``log``."""
        t = text.strip().lower()
        if t == "coulomb":
            return cls.coulomb()
        if t == "log":
            return cls.log()
        if t.startswith("power:"):
            return cls.power(float(t.split(":", 1)[1]))
        raise ValueError(f"unknown potential {text!r}")

    @property
    def label(self) -> str:
        return f"power:{self.exponent:g}" if self.kind == "power" else self.kind

    @property
    def ratio_exponent(self) -> float:
        """Exponent p such that collinear balance gives d12/d23 = (q1/q3)**p."""
        if self.kind == "coulomb":
            return 0.5
        if self.kind == "power":
            return 1.0 / (self.exponent + 1.0)
        return 1.0


#: the default kernel of every entry point
COULOMB = PotentialSpec.coulomb()


def kernel_terms(spec: PotentialSpec, d):
    """Kernel value and first two derivatives, elementwise over distances.

    The one kernel implementation: the batched derivative cores call it
    on arrays of pair distances and ``kernel_eval`` on a one-element
    array, so a single distance rounds as it does in a batch.
    """
    if spec.kind == "coulomb":
        inv = 1.0 / d
        return inv, -inv * inv, 2.0 * inv ** 3
    if spec.kind == "power":
        k = spec.exponent
        v = d ** -k
        return v, -k * v / d, k * (k + 1.0) * v / (d * d)
    return -np.log(d), -1.0 / d, 1.0 / (d * d)


def kernel_eval(spec: PotentialSpec, d: float) -> tuple[float, float, float]:
    """Kernel value and first two derivatives at distance ``d > 0``."""
    if not d > 0.0:
        raise ValueError(f"kernel needs a positive distance, got {d!r}")
    return tuple(float(term[0]) for term in kernel_terms(spec, np.array([float(d)])))


@dataclass(frozen=True)
class EnergyReport:
    """Energy with chart-coordinate derivatives at a configuration."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    pole_flag: bool


def energy(config: Config, charges: ChargeVector,
           spec: PotentialSpec = COULOMB) -> float:
    """Total pair energy; ``inf`` at a pole, ``ValueError`` on a non-finite distance."""
    _check_charges(config, charges)
    rows, radii = config_rows(config)
    try:
        pairs = regular_pairs(rows, radii)
    except PoleError:
        return math.inf
    return float(pair_energies(pairs, charges, spec)[0])


def pair_energies(pairs: np.ndarray, charges: ChargeVector,
                  spec: PotentialSpec) -> np.ndarray:
    """Energies ``(k,)`` of a stack of pair distances ``(k, P)`` (pairs
    ``i < j`` in ``spaces.pair_indices`` order), summed pair by pair."""
    phi = kernel_terms(spec, pairs)[0]
    q = charges.array
    first, second = pair_indices(len(q))
    # a running sum adds the pair terms one by one, in pair order
    return np.cumsum(q[first] * q[second] * phi, axis=1)[:, -1]


def _check_charges(holder, charges: ChargeVector) -> None:
    """Refuse a charge vector that does not carry one charge per point of
    ``holder``, a configuration or a space."""
    if len(charges) != holder.n:
        raise ValueError(f"need {holder.n} charges, got {len(charges)}")


def regular_pairs(rows: np.ndarray, radii: tuple[float, float, float] | None,
                  ) -> np.ndarray:
    """``pair_distances`` of a stack of polygon vertices ``(k, n, 2)``
    (``radii`` is ``None``) or torus chart points ``(k, 2)``;
    ``PoleError`` when a row has a pair closer than ``pole_radius_of``,
    ``ValueError`` when a distance is not finite.

    The one pole gate of the entries that evaluate the configurations
    they are given (a single one is ``config_rows`` of it); the solver's
    census gate (``solver._representatives``) drops pole rows instead."""
    pairs = pair_distances(rows, radii)
    if not np.isfinite(pairs).all():
        raise ValueError("pair distances are not finite")
    if (pairs.min(axis=1) < pole_radius_of(radii)).any():
        raise PoleError("configuration is on a pole: two charges coincide")
    return pairs


# ---------------------------------------------------------------------------
# polygon space: batched derivatives and the constrained chart
# ---------------------------------------------------------------------------

class PolygonDerivatives(NamedTuple):
    """Energy and perimeter derivatives of a stack of ``k`` polygons.

    Gradients ``(k, m)`` and Hessians ``(k, m, m)`` are taken w.r.t. the
    movable vertices (vertex 0 stays pinned), flattened as
    ``x1, y1, ..., x_{n-1}, y_{n-1}``, so ``m = 2*(n-1)``.
    """

    energy_grad: np.ndarray
    energy_hess: np.ndarray
    perimeter: np.ndarray
    perimeter_grad: np.ndarray
    perimeter_hess: np.ndarray


def _pair_geometry(points: np.ndarray, first: np.ndarray, second: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Separations, distances (``spaces.norms``, the bits of ``pair_distances``),
    unit vectors and their outer products of the vertex pairs
    ``(first[p], second[p])`` of a stack ``(k, n, 2)``."""
    delta = points[:, first] - points[:, second]
    d = norms(delta)
    u = delta / d[..., None]
    return delta, d, u, u[..., :, None] * u[..., None, :]


#: incidence of the pair terms of an ``n``-gon on its movable vertices
_PairPlan = namedtuple("_PairPlan", "first second touching sign pair off diagonal")


@functools.cache
def _pair_plan(n: int, sides: bool) -> _PairPlan:
    """The plan (read-only) of the sides ``(i, i + 1 mod n)`` or of the
    pairs ``i < j`` in ``pair_indices`` order, ``(first[p], second[p])``.

    ``touching[s]`` is the ``s``-th pair at each movable vertex in pair
    order, ``sign[s]`` +1 where that vertex is the pair's first, else -1;
    ``off`` and ``diagonal`` are the flat ``(m, m)`` Hessian slots of the
    off-diagonal blocks of pairs ``pair`` and of the diagonal blocks."""
    first, second = side_indices(n) if sides else pair_indices(n)
    movable = np.arange(1, n)[:, None]
    touching = np.nonzero((first == movable) | (second == movable))[1].reshape(n - 1, -1).T
    sign = np.where(first[touching] == movable.T, 1.0, -1.0)[..., None]
    inner = np.flatnonzero((first > 0) & (second > 0))
    ends = np.stack([first[inner], second[inner]]) - 1
    # tiles[i, j] holds the flat slots of the 2x2 block (i, j)
    tiles = np.arange(4 * (n - 1) ** 2).reshape(n - 1, 2, n - 1, 2).swapaxes(1, 2)
    plan = _PairPlan(first, second, touching, sign, np.tile(inner, 2),
                     tiles[ends.ravel(), ends[::-1].ravel()], tiles[range(n - 1), range(n - 1)])
    for array in plan:
        array.setflags(write=False)
    return plan


def _pair_sums(plan: _PairPlan, pull: np.ndarray, block: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Movable-vertex gradient ``(k, m)`` and Hessian ``(k, m, m)`` of a
    sum of pair terms, from each term's gradient w.r.t. its first vertex
    ``pull`` ``(k, P, 2)`` and its 2x2 Hessian block ``(k, P, 2, 2)``.

    Incidence assembly: step ``s`` adds the ``s``-th pair at every
    movable vertex at once, so each vertex sums its terms in pair order
    starting from 0.0 and the only loop runs over the vertex degree; the
    off-diagonal blocks are one scatter of ``-block``.  Rows are independent."""
    k, v = pull.shape[0], plan.touching.shape[1]
    grad, diag = np.zeros((k, v, 2)), np.zeros((k, v, 2, 2))
    for at, sign in zip(plan.touching, plan.sign):
        grad += pull[:, at] * sign
        diag += block[:, at]
    hess = np.zeros((k, 4 * v * v))
    hess[:, plan.off] = -block[:, plan.pair]
    hess[:, plan.diagonal] = diag
    return grad.reshape(k, 2 * v), hess.reshape(k, 2 * v, 2 * v)


def _perimeter_terms(points: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    plan = _pair_plan(points.shape[1], True)
    _, d, u, uu = _pair_geometry(points, plan.first, plan.second)
    block = (_EYE2 - uu) / d[..., None, None]
    # the sides add up one by one, as in ``perimeter_value``, whatever the stack height
    return (np.cumsum(d, axis=1)[:, -1],) + _pair_sums(plan, u, block)


def polygon_derivatives(points: np.ndarray, charges: ChargeVector,
                        spec: PotentialSpec) -> PolygonDerivatives:
    """Energy gradient and Hessian plus perimeter value, gradient and
    Hessian of a stack of raw polygons ``(k, n, 2)``.

    Every other polygon derivative is computed from this one core; a
    single configuration is a stack of one.
    """
    pts = np.asarray(points, dtype=float)
    plan = _pair_plan(pts.shape[1], False)
    delta, d, _, uu = _pair_geometry(pts, plan.first, plan.second)
    _, dphi, ddphi = kernel_terms(spec, d)
    q = charges.array
    qq = q[plan.first] * q[plan.second]
    bend = (dphi / d)[..., None, None]
    pull = (qq * dphi / d)[..., None] * delta
    block = qq[:, None, None] * (ddphi[..., None, None] * uu + bend * (_EYE2 - uu))
    g_e, h_e = _pair_sums(plan, pull, block)
    return PolygonDerivatives(g_e, h_e, *_perimeter_terms(pts))


def rotation_direction(points: np.ndarray) -> np.ndarray:
    """Tangent of the rotation orbit, flattened over the movable vertices
    (one ``(n, 2)`` configuration or a stack ``(k, n, 2)``)."""
    rot = np.stack([-points[..., 1:, 1], points[..., 1:, 0]], axis=-1)
    return rot.reshape(*points.shape[:-2], 2 * (points.shape[-2] - 1))


def chart_basis(points: np.ndarray) -> np.ndarray:
    """Orthonormal bases ``(k, m, m - 2)`` of the constrained chart at a
    stack of configurations ``(k, n, 2)``.

    Columns span the null space of the perimeter-constraint normal and
    the rotation direction, i.e. the ``2*(n-2)``-dimensional tangent of
    the quotient space.
    """
    pts = np.asarray(points, dtype=float)
    return _chart_basis(pts, _perimeter_terms(pts)[1])


def _chart_basis(points: np.ndarray, perimeter_grad: np.ndarray) -> np.ndarray:
    rows = np.stack([perimeter_grad, rotation_direction(points)], axis=1)
    _, _, vt = np.linalg.svd(rows)
    return np.swapaxes(vt[:, 2:], 1, 2)


def aligned_chart_basis(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart bases of a stack of aligned (x-axis) configurations
    ``(k, n, 2)``, split into the in-line block and the transverse block.

    Returns ``(Zx, Zy)``, each ``(k, 2*(n-1), n-2)`` over the movable
    coordinates: in-line motions orthogonal to the perimeter normal, and
    transverse motions orthogonal to the rotation direction.
    """
    if (np.abs(points[..., 1]).max(axis=1) > 1e-9 * np.abs(points[..., 0]).max(axis=1)).any():
        raise ValueError("aligned basis requested at a non-aligned configuration")
    k, n = points.shape[:2]
    zx, zy = np.zeros((2, k, 2 * (n - 1), n - 2))
    # in-line block on the x coordinates, transverse block on the y ones
    for z, axis, normal in ((zx, 0, _perimeter_terms(points)[1]),
                            (zy, 1, rotation_direction(points))):
        z[:, axis::2] = np.swapaxes(np.linalg.svd(normal[:, None, axis::2])[2][:, 1:], 1, 2)
    return zx, zy


def retraction_hessian(points: np.ndarray, der: PolygonDerivatives) -> np.ndarray:
    """Hessians ``(k, m, m)`` of the energy under the scaling retraction,
    ``E'' - (x . grad E) P''``, in the movable coordinates of a stack of
    polygons ``(k, n, 2)`` with their ``polygon_derivatives`` ``der``."""
    # multiplier of the scaling retraction; equals the Lagrange
    # multiplier of the perimeter constraint at critical points
    mult = -np.vecdot(points[:, 1:].reshape(der.energy_grad.shape), der.energy_grad)
    return der.energy_hess + mult[:, None, None] * der.perimeter_hess


def polygon_chart_derivatives(points: np.ndarray, charges: ChargeVector,
                              spec: PotentialSpec,
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Chart gradients ``(k, m - 2)`` and Hessians ``(k, m - 2, m - 2)``
    of a stack of gauge-fixed polygons ``(k, n, 2)``."""
    pts = np.asarray(points, dtype=float)
    der = polygon_derivatives(pts, charges, spec)
    z = _chart_basis(pts, der.perimeter_grad)
    zt = np.swapaxes(z, 1, 2)
    h_chart = zt @ retraction_hessian(pts, der) @ z
    grad = (zt @ der.energy_grad[..., None])[..., 0]
    return grad, 0.5 * (h_chart + np.swapaxes(h_chart, 1, 2))


# ---------------------------------------------------------------------------
# torus space: the (alpha1, alpha2) chart is global
# ---------------------------------------------------------------------------

class TorusConstants(NamedTuple):
    """The per-census constants of ``torus_columns``.

    For the pairs 0, 1, 2 (pair ``i`` joins the two points other than
    point ``i``) the radius products ``rr``, the charge products ``qq``
    and the squared-radius sums ``span``, each a ``(3, 1)`` column, then
    the distance ``floor``, half of ``pole_radius_of``; squared as
    ``spaces.chord_distance`` squares.
    """

    rr: np.ndarray
    qq: np.ndarray
    span: np.ndarray
    floor: float

    @classmethod
    def of(cls, radii: tuple[float, float, float],
           charges: ChargeVector) -> "TorusConstants":
        r, q = np.array(radii), charges.array
        ra, rb = r[[1, 2, 0]], r[[2, 0, 1]]
        return cls((ra * rb)[:, None], (q[[1, 2, 0]] * q[[2, 0, 1]])[:, None],
                   (ra * ra + rb * rb)[:, None], 0.5 * pole_radius_of(radii))


def torus_pair_slopes(constants: TorusConstants, spec: PotentialSpec,
                      alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair terms of the torus core at central angles ``alphas``, one
    row per row of ``constants`` (a pair's constants are ``rr[i:i + 1]``
    and so on): the slope ``u1 = q_a q_b phi'(d) r_a r_b sin(alpha) / d``
    of each pair's energy in its own angle, its derivative ``u2`` in that
    angle and the distances ``d``, which the slopes take clamped at the
    floor of ``constants``."""
    rr, qq, span, floor = constants
    cos_a = np.cos(alphas)
    sin_a = np.sin(alphas)
    rr_cos = rr * cos_a
    rr_sin = rr * sin_a
    d = np.sqrt(np.maximum(span - 2.0 * rr_cos, 0.0))
    safe = np.maximum(d, floor)
    _, dphi, ddphi = kernel_terms(spec, safe)
    d1 = rr_sin / safe
    d2 = rr_cos / safe - rr_sin * rr_sin / (safe * safe * safe)
    return qq * dphi * d1, qq * (ddphi * d1 * d1 + dphi * d2), d


def torus_columns(constants: TorusConstants,
                  spec: PotentialSpec, a0: np.ndarray, a1: np.ndarray,
                  ) -> tuple[np.ndarray, ...]:
    """Chart gradient ``g0, g1``, chart Hessian ``h00, h01, h11`` and
    smallest pair distance ``dmin``, each ``(k,)``, at the angle pairs
    ``(a0[r], a1[r])``: the one torus derivative core.

    Pair ``i`` depends only on ``alpha_i`` (cosine rule; the third from
    ``torus_third_angle``), so ``dmin`` is the bits of ``pair_distances``.
    The three pair terms (``torus_pair_slopes``) are the rows of one
    ``(3, k)`` stack (pair-major), evaluated in one pass; columns are
    independent.  Pole-adjacent columns give finite garbage that callers
    reject by ``dmin``; a column off the poles is never clamped.
    """
    u1, u2, d = torus_pair_slopes(constants, spec,
                                  np.array([a0, a1, torus_third_angle(a0, a1)]))
    return (u1[0] - u1[2], u1[1] - u1[2], u2[0] + u2[2], u2[2], u2[1] + u2[2],
            np.minimum(np.minimum(d[0], d[1]), d[2]))


# ---------------------------------------------------------------------------
# public chart-derivative API
# ---------------------------------------------------------------------------

def chart_derivatives(rows: np.ndarray, radii: tuple[float, float, float] | None,
                      charges: ChargeVector, spec: PotentialSpec,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Chart gradients and Hessians of a stack of gauge-fixed polygon
    vertices ``(k, n, 2)`` (``radii`` is ``None``) or torus chart points
    ``(k, 2)`` (``torus_columns`` stacked); one configuration is a stack of one."""
    if radii is None:
        return polygon_chart_derivatives(rows, charges, spec)
    g0, g1, h00, h01, h11, _ = torus_columns(TorusConstants.of(radii, charges), spec,
                                             rows[:, 0], rows[:, 1])
    hess = np.stack([h00, h01, h01, h11], axis=1).reshape(-1, 2, 2)
    return np.stack([g0, g1], axis=1), hess


def _regular_chart_derivatives(config: Config, charges: ChargeVector,
                               spec: PotentialSpec,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Chart gradient and Hessian of one configuration, a stack of one;
    ``PoleError`` at a pole."""
    _check_charges(config, charges)
    rows, radii = config_rows(config)
    regular_pairs(rows, radii)
    grad, hess = chart_derivatives(rows, radii, charges, spec)
    return grad[0], hess[0]


def gradient(config: Config, charges: ChargeVector,
             spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Analytic energy gradient in the chart of the configuration space."""
    return _regular_chart_derivatives(config, charges, spec)[0]


def hessian(config: Config, charges: ChargeVector,
            spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Analytic energy Hessian in the chart of the configuration space."""
    return _regular_chart_derivatives(config, charges, spec)[1]


def energy_report(config: Config, charges: ChargeVector,
                  spec: PotentialSpec = COULOMB) -> EnergyReport:
    """Energy, chart gradient and chart Hessian in one pass; a report
    with ``pole_flag`` at a pole, ``ValueError`` on a non-finite distance."""
    _check_charges(config, charges)
    rows, radii = config_rows(config)
    try:
        pairs = regular_pairs(rows, radii)
    except PoleError:
        dim = 2 * (config.n - 2)
        nan = np.full(dim, math.nan)
        return EnergyReport(math.inf, nan, np.full((dim, dim), math.nan), True)
    g, h = chart_derivatives(rows, radii, charges, spec)
    return EnergyReport(float(pair_energies(pairs, charges, spec)[0]), g[0], h[0], False)


def dilation_derivative(config: PolygonConfig, charges: ChargeVector,
                        spec: PotentialSpec = COULOMB) -> float:
    """Derivative of the energy along uniform scaling of the configuration.

    Strictly negative for every kernel, which is why no equilibrium
    exists at sub-maximal perimeter: inflating the polygon always lowers
    the energy.
    """
    regular_pairs(*config_rows(config))
    pts = config.points
    grad = polygon_derivatives(pts[None], charges, spec).energy_grad[0]
    return float(pts[1:].ravel() @ grad)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def _chart_probe(config: Config, charges: ChargeVector, spec: PotentialSpec,
                 ) -> tuple[Callable[[np.ndarray], float], int, float]:
    """Energy as a function of chart displacements around ``config``.

    For the polygon the displacement is applied through the chart basis
    and the perimeter is restored by uniform rescaling; for the torus
    the displacement perturbs the two free angles directly.
    """
    if isinstance(config, PolygonConfig):
        base = config.points
        z = chart_basis(base[None])[0]
        dim = z.shape[1]

        def probe(u: np.ndarray) -> float:
            pts = base.copy()
            pts[1:] += (z @ u).reshape(-1, 2)
            pts /= perimeter_value(pts)
            return float(pair_energies(pair_distances(pts[None]), charges, spec)[0])

        return probe, dim, config.diameter
    a1, a2 = config.angles
    radii = config.radii

    def probe(u: np.ndarray) -> float:
        return energy(TorusConfig(radii, (a1 + u[0], a2 + u[1])), charges, spec)

    # the torus chart is angular, so the probe step is an O(1) radian scale
    return probe, 2, 1.0


def fd_gradient(config: Config, charges: ChargeVector,
                spec: PotentialSpec = COULOMB,
                step: float | None = None) -> np.ndarray:
    """Central-difference gradient in the same chart as ``gradient``."""
    pairs = regular_pairs(*config_rows(config))
    probe, dim, scale = _chart_probe(config, charges, spec)
    h = FD_GRADIENT_STEP * scale if step is None else float(step)
    _check_step(pairs, h)
    out = np.empty(dim)
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = h
        out[k] = (probe(e) - probe(-e)) / (2.0 * h)
    return out


def fd_hessian(config: Config, charges: ChargeVector,
               spec: PotentialSpec = COULOMB,
               step: float | None = None) -> np.ndarray:
    """Central second differences of the energy in the same chart."""
    pairs = regular_pairs(*config_rows(config))
    probe, dim, scale = _chart_probe(config, charges, spec)
    h = FD_HESSIAN_STEP * scale if step is None else float(step)
    _check_step(pairs, h)
    center = probe(np.zeros(dim))
    out = np.empty((dim, dim))
    for k in range(dim):
        ek = np.zeros(dim)
        ek[k] = h
        out[k, k] = (probe(ek) - 2.0 * center + probe(-ek)) / (h * h)
        for l in range(k + 1, dim):
            el = np.zeros(dim)
            el[l] = h
            val = (probe(ek + el) - probe(ek - el) - probe(-ek + el) + probe(-ek - el)) \
                / (4.0 * h * h)
            out[k, l] = out[l, k] = val
    return out


def _check_step(pairs: np.ndarray, step: float) -> None:
    """Refuse a step that is not positive or that reaches half the
    smallest of the pair distances ``pairs`` of the probed configuration."""
    if not step > 0.0:
        raise ValueError("finite-difference step must be positive")
    if step >= 0.5 * pairs.min():
        raise ValueError("finite-difference step collides with the pole radius")


# ---------------------------------------------------------------------------
# stationarity system consumed by the solver
# ---------------------------------------------------------------------------

@functools.cache
def polygon_free_indices(n: int) -> np.ndarray:
    """Indices (read-only) of the flattened movable coordinates the gauge keeps.

    The y-coordinate of vertex 1 is pinned to zero; rotation invariance
    makes its stationarity equation redundant whenever vertex 1 is off
    the origin.
    """
    keep = np.delete(np.arange(2 * (n - 1)), 1)
    keep.setflags(write=False)
    return keep


def polygon_stationarity(points: np.ndarray, multipliers: np.ndarray,
                         charges: ChargeVector, spec: PotentialSpec,
                         derivatives: PolygonDerivatives | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals ``(k, m)`` and Jacobians ``(k, m, m)`` of the constrained
    stationarity system for a stack of polygons ``(k, n, 2)`` with their
    perimeter multipliers ``(k,)``.

    Unknowns are the gauge-free vertex coordinates plus the perimeter
    multiplier; equations are the corresponding components of
    ``grad E + multiplier * grad perimeter`` plus the perimeter defect.
    ``derivatives``, when given, is ``polygon_derivatives`` of the same
    stack, already evaluated.
    """
    pts = np.asarray(points, dtype=float)
    keep = polygon_free_indices(pts.shape[1])
    der = polygon_derivatives(pts, charges, spec) if derivatives is None else derivatives
    lam = np.asarray(multipliers, dtype=float)[:, None]
    g_l = der.perimeter_grad[:, keep]
    res = np.concatenate([(der.energy_grad + lam * der.perimeter_grad)[:, keep],
                          (der.perimeter - 1.0)[:, None]], axis=1)
    h = der.energy_hess + lam[..., None] * der.perimeter_hess
    k, m = res.shape
    jac = np.zeros((k, m, m))
    jac[:, :-1, :-1] = h[:, keep[:, None], keep]
    jac[:, :-1, -1] = g_l
    jac[:, -1, :-1] = g_l
    return res, jac


def least_squares_multiplier(points: np.ndarray, charges: ChargeVector,
                             spec: PotentialSpec,
                             derivatives: PolygonDerivatives | None = None,
                             ) -> np.ndarray:
    """Perimeter multipliers ``(k,)`` minimizing the stationarity
    residual of each polygon in a stack ``(k, n, 2)``; ``derivatives`` as
    in ``polygon_stationarity``."""
    der = polygon_derivatives(points, charges, spec) if derivatives is None else derivatives
    g_l = der.perimeter_grad
    return -np.vecdot(der.energy_grad, g_l) / np.vecdot(g_l, g_l)


# ---------------------------------------------------------------------------
# closed-form stationarity relations
# ---------------------------------------------------------------------------

def stationarity_relation_residual(config: Config, charges: ChargeVector,
                                   spec: PotentialSpec = COULOMB) -> float:
    """Residual of the closed-form stationarity proportions.

    Zero for polygons beyond three vertices, where no closed-form
    relation applies.
    """
    rows, radii = config_rows(config)
    return float(stationarity_relation_residuals(rows, radii, pair_distances(rows, radii),
                                                 charges, spec)[0])


def stationarity_relation_residuals(rows: np.ndarray,
                                    radii: tuple[float, float, float] | None,
                                    pairs: np.ndarray, charges: ChargeVector,
                                    spec: PotentialSpec,
                                    aligned: np.ndarray | None = None) -> np.ndarray:
    """``stationarity_relation_residual`` of each configuration of a stack
    of polygon vertices ``(k, n, 2)`` (``radii`` is ``None``) or torus
    chart points ``(k, 2)``, with their ``pair_distances`` ``pairs`` and,
    when the caller has it, their ``alignment_defects(...) == 0`` mask.

    With the kernel exponent ``p`` (``spec.ratio_exponent``) the
    relations are: a triangle's side opposite vertex ``i`` to the power
    ``1/p`` times ``q_i`` is the same for every ``i``; the outer segments
    of a collinear triple balance as ``d_l / q_l**p = d_r / q_r**p``; on
    the circles ``-phi'(d_i) * sin(alpha_i) / (d_i * r_i * q_i)`` is the
    same for every ``i``, with ``d_i`` the side opposite point ``i``.
    """
    if radii is None and rows.shape[1] != 3:
        return np.zeros(len(rows))
    q = charges.array
    p = spec.ratio_exponent
    # sides opposite points 0, 1, 2: pairs (1, 2), (0, 2), (0, 1)
    sides = pairs[:, ::-1]
    if radii is not None:
        _, dphi, _ = kernel_terms(spec, sides)
        s = -dphi * np.sin(torus_alphas(rows)) / (sides * np.array(radii) * q)
        mean = s.mean(axis=1)
        return np.abs(s - mean[:, None]).max(axis=1) / np.maximum(1.0, np.abs(mean))
    left, _, right = np.argsort(rows[:, :, 0], axis=1).T
    at = np.arange(len(rows))
    # the left segment is the side opposite the right vertex, and back
    lhs = sides[at, right] / q[left] ** p
    rhs = sides[at, left] / q[right] ** p
    collinear = np.abs(lhs - rhs) / np.maximum(lhs, rhs)
    vals = sides ** (1.0 / p) * q
    mean = vals.mean(axis=1)
    triangle = np.abs(vals - mean[:, None]).max(axis=1) / mean
    aligned = alignment_defects(rows, pairs) == 0.0 if aligned is None else aligned
    return np.where(aligned, collinear, triangle)
