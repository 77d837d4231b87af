"""Critical-point search on both configuration spaces.

Closed forms are the three-charge polygon census: the collinear
equilibria (one per intermediate vertex) and, in the triangle regime,
the triangle with sides proportional to inverse square roots of the
charges and its mirror image; for every kernel here stationarity fixes
each side (phi'' > 0), so there is no other critical point.  The torus
census seeds from a level sweep (``_level_seeds``): each pair's term
of the chart gradient depends on its own central angle only, so a
critical point is a common level of the three terms, found on a
one-dimensional sweep with no grid, whose inverse angles a safeguarded
Newton finishes from one table of brackets.  Larger polygons seed one
collinear row per line ordering modulo reversal, each holding one
aligned point (``grid_density**2`` random orderings where there are
more), then two rings and a random pool.  Every seed runs through
Newton polishing of the stationarity system: a Lagrange system with
explicit perimeter constraint for polygons, the plain two-angle
gradient for the torus.
The search is array-first from seed to report.  Polygon seeds are
gauge-fixed as one stack; all seeds of a search go through one damped
Newton iteration as a single stack, and only live seeds iterate (the
torus polish carries the live angles as two columns with their seed
indices, evaluates them once per round through the pair-major torus
core with the census constants taken once, and shrinks them with one
gather each).  The rows that pass the census gate are deduplicated in
one first-wins pass that compares every candidate row with the
representative in one step, and keep the gate's chart derivatives and
aligned flags.  The finalize evaluates no derivative: it closes that
stack under the reflection involution by row comparisons (reflection is
an isometry, so a mirror takes its source's Morse data), classifies
with one eigenvalue call, sorts, and pairs each point with its mirror
by index.  A configuration object is built only for each reported
point.  The representatives are canonical rows: a seed that took no
Newton step keeps its row, polygon candidates are gauge-fixed as one
stack (a no-op on a canonical row), and mirrors and reported points
are built from the rows as they stand.

One rule makes each census decision.  Same point: rows whose
``_point_rows`` (gauge-fixed vertices, or angles on the circle) differ
by less than ``DEDUP_TOL`` in every coordinate; the dedup, the mirror
closure and the partner scan all compare so.  Pole: a row whose
smallest ``pair_distances`` entry is below ``spaces.pole_radius_of``.
Stationary, judged once per polished row before the dedup: a chart
gradient within ``NEWTON_TOL``, a relation residual within
``RELATION_TOL`` and a finite Hessian.  The polishes only decide when a
seed stops stepping and return a row for every seed they iterate.

The grid density is the one setting of a census (``SolveSettings``):
its square sizes the random pool and caps the line orderings; neither
the three-charge polygon census nor the torus census reads it.  The
Newton tolerance, the iteration cap, the dedup distance and the sample
counts and the round cap of the level sweep are module constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import potentials as pot
from .morse import classify_spectra
from .potentials import COULOMB, PotentialSpec
from .spaces import (
    ChargeVector,
    Config,
    PolygonConfig,
    TORUS_ALIGNED_ROWS,
    TWO_PI,
    alignment_defects,
    canonicalize,
    config_rows,
    gauge_fix,
    mirror_rows,
    norms,
    pair_distances,
    plane_points,
    pole_radius_of,
    reduce_angles,
    row_config,
    triangle_vertices,
)

#: closed-form relation residual accepted for a reported critical point
RELATION_TOL = 1e-9
#: chart gradient norm accepted as stationary
NEWTON_TOL = 1e-11
#: Newton rounds a seed may take
MAX_ITERS = 100
#: coordinate distance below which two converged points are one point
DEDUP_TOL = 1e-7
#: gradient size at which a Newton polish stops stepping
POLISH_TARGET = 1e-13
#: deterministic seed for the low-discrepancy multistart pools
MULTISTART_SEED = 20160
#: midpoint samples of the torus level sweep over (0, pi)
LEVEL_SAMPLES = 128
#: geometric samples of the level sweep toward each end of (0, pi), from
#: 1e-12 of pi up to the first midpoint: a mirror pair born next to an
#: aligned point sits that close to an end
LEVEL_END_SAMPLES = 24
#: rounds of the safeguarded Newton that inverts a pair slope on one branch
LEVEL_ROUNDS = 60


@dataclass(frozen=True)
class PolygonSpace:
    """Fixed-perimeter polygons with ``n`` labeled vertices."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("polygon space needs n >= 3")

    @property
    def name(self) -> str:
        return f"polygon:{self.n}"


@dataclass(frozen=True)
class TorusSpace:
    """Triples of points on concentric circles of the given radii."""

    radii: tuple[float, float, float]
    #: charges a configuration carries
    n: ClassVar[int] = 3

    def __post_init__(self) -> None:
        r = tuple(float(v) for v in self.radii)
        if len(r) != 3 or not all(v > 0.0 and math.isfinite(v) for v in r):
            raise ValueError("torus space needs three positive radii")
        object.__setattr__(self, "radii", r)

    @property
    def name(self) -> str:
        return "torus:" + ",".join(f"{r:g}" for r in self.radii)


Space = PolygonSpace | TorusSpace


@dataclass(frozen=True)
class SolveSettings:
    """The one setting of a census: its square is the random pool and
    the cap on line orderings of a polygon with four or more vertices."""

    grid_density: int = 24

    def __post_init__(self) -> None:
        if self.grid_density < 8:
            raise ValueError("grid density below 8 gives useless coverage")


@dataclass(frozen=True)
class CriticalPoint:
    """A converged, classified stationary configuration."""

    config: Config
    energy: float
    grad_norm: float
    hessian_eigenvalues: tuple[float, ...]
    morse_index: int
    degenerate: bool
    aligned: bool
    key: tuple[int, ...]
    #: index of the reflection partner in the list the search returned;
    #: ``None`` for a configuration that is its own mirror image
    symmetry_partner: int | None = None


# ---------------------------------------------------------------------------
# closed forms for three charges
# ---------------------------------------------------------------------------

def closed_form_seeds(charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Every closed-form equilibrium of three polygon charges as one
    canonical stack ``(3 or 5, 3, 2)``: the three collinear ones (index =
    intermediate vertex), then the triangle and its mirror image when
    the triangle exists.

    Each collinear one is a segment of length one half (so the cyclic
    perimeter is one); the intermediate vertex divides it according to
    ``d_left / d_right = (q_left / q_right) ** p`` with ``p`` fixed by the
    kernel (one half for the inverse-distance kernel).  The split does
    not depend on the intermediate charge, which is the root of the
    fixing effect.  The triangle's side opposite each vertex is
    proportional to ``q_i ** -p``; there is none when that proportion
    fails the strict triangle inequality or rounds to a zero height
    (collinear regime).
    """
    if len(charges) != 3:
        raise ValueError("closed form needs exactly three charges")
    p = spec.ratio_exponent
    q = charges.array
    coords = np.zeros((3, 3, 2))
    for mid in range(3):
        left, right = [i for i in range(3) if i != mid]
        ratio = (q[left] / q[right]) ** p
        d_left = 0.5 * ratio / (1.0 + ratio)  # distance from left outer to mid
        if mid == 0:
            # vertex 0 pinned at the origin sits between vertices 1 and 2
            coords[mid, left] = (-d_left, 0.0)
            coords[mid, right] = (0.5 - d_left, 0.0)
        else:
            coords[mid, mid] = (d_left, 0.0)
            coords[mid, right] = (0.5, 0.0)
    sides = q ** -p
    triangle = triangle_vertices(sides / sides.sum())
    rows = gauge_fix(coords if triangle is None else np.concatenate([coords, triangle[None]]))
    return np.concatenate([rows, mirror_rows(rows[3:])])


def solve_line_three(charges: ChargeVector,
                     spec: PotentialSpec = COULOMB) -> list[PolygonConfig]:
    """The three collinear equilibria of ``closed_form_seeds`` as
    configurations (list index = intermediate vertex)."""
    return [PolygonConfig(row) for row in closed_form_seeds(charges, spec)[:3]]


def critical_triangle(charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> PolygonConfig | None:
    """The non-collinear equilibrium triangle of ``closed_form_seeds``, or
    ``None`` in the collinear regime."""
    rows = closed_form_seeds(charges, spec)
    return PolygonConfig(rows[3]) if len(rows) > 3 else None


def solve_line_interior(charges: ChargeVector,
                        spec: PotentialSpec = COULOMB,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Collinear equilibrium with the vertices in index order.

    Vertices sit at increasing positions on a segment of length one
    half (cyclic perimeter one); the interior positions solve the
    one-dimensional stationarity equations.  Returns ``(positions,
    hessian)`` where the Hessian is taken w.r.t. the interior positions
    and its index is the one-dimensional Morse index.
    """
    n = len(charges)
    x = np.linspace(0.0, 0.5, n)

    def grad_hess(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the x-coordinates of the interior vertices 1..n-2 of the
        # collinear polygon, in the movable coordinates of the core
        der = pot.polygon_derivatives(np.column_stack([xs, np.zeros(n)])[None],
                                      charges, spec)
        return der.energy_grad[0, 0:-2:2], der.energy_hess[0, 0:-2:2, 0:-2:2]

    idx = np.arange(1, n - 1)
    for _ in range(80):
        g, h = grad_hess(x)
        if np.abs(g).max() < POLISH_TARGET:
            break
        step = np.linalg.solve(h, -g)
        # keep the ordering: damp steps that would cross a neighbour
        lo, hi = x[idx - 1], x[idx + 1]
        target = x[idx] + step
        cross = (target <= lo) | (target >= hi)
        room = 0.4 * np.minimum(x[idx] - lo, hi - x[idx]) / (np.abs(step) + 1e-300)
        x[idx] += room[cross].min(initial=1.0) * step
    g, h = grad_hess(x)
    if np.abs(g).max() > 1e-9:
        raise RuntimeError("interior line equilibrium did not converge")
    return x, h


def line_config_from_positions(positions: np.ndarray) -> PolygonConfig:
    """Embed ordered line positions as an aligned polygon configuration."""
    pts = np.column_stack([positions - positions[0], np.zeros_like(positions)])
    return PolygonConfig.from_points(pts)


def enumerate_aligned(space: Space, charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> np.ndarray:
    """All aligned critical configurations of the space as one stack of
    canonical rows: for polygon:3 the three collinear equilibria of
    ``closed_form_seeds`` (index = intermediate vertex), for the torus
    the read-only ``TORUS_ALIGNED_ROWS`` (every central angle zero or pi,
    stationary for every charge vector; index = position in
    ``TORUS_ALIGNED_LABELS``).  The pitchfork trace names the aligned
    configuration it follows by this index.
    """
    if isinstance(space, TorusSpace):
        return TORUS_ALIGNED_ROWS
    if space.n == 3:
        return closed_form_seeds(charges, spec)[:3]
    raise ValueError("aligned enumeration is closed-form only for n=3; "
                     "use find_critical_points for larger polygons")


# ---------------------------------------------------------------------------
# multistart machinery: polygon
# ---------------------------------------------------------------------------

def _unpack(u: np.ndarray, n: int, keep: np.ndarray) -> np.ndarray:
    """Vertex stacks ``(k, n, 2)`` from packed unknowns (the gauge-free
    coordinates of the movable vertices, then the multiplier)."""
    flat = np.zeros((u.shape[0], 2 * n))
    flat[:, 2 + keep] = u[:, :-1]
    return flat.reshape(-1, n, 2)


def _newton_steps(jac: np.ndarray, res: np.ndarray, damping: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps where the damping is zero, Levenberg-Marquardt steps
    elsewhere, from one stacked solve.  Returns the steps and a mask of
    the systems that were not singular."""
    a = jac.copy()
    b = -res
    lm = damping > 0.0
    if lm.any():
        j = jac[lm]
        jt = np.swapaxes(j, 1, 2)
        normal = jt @ j
        diag = np.arange(normal.shape[1])
        normal[:, diag, diag] += damping[lm, None]
        a[lm] = normal
        b[lm] = -(jt @ res[lm][..., None])[..., 0]
    solved = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], solved
    except np.linalg.LinAlgError:
        pass
    # some system of the batch is singular: solve the seeds one by one
    steps = np.zeros_like(b)
    for r in range(len(a)):
        try:
            steps[r] = np.linalg.solve(a[r], b[r][:, None])[:, 0]
        except np.linalg.LinAlgError:
            solved[r] = False
    return steps, solved


def _polish_polygon(seeds: np.ndarray, charges: ChargeVector,
                    spec: PotentialSpec) -> np.ndarray:
    """Levenberg-damped Newton on the Lagrange stationarity system, run on
    a stack of gauge-fixed seeds ``(k, n, 2)`` at once.

    Every seed keeps its own damping, residual norm and iteration count,
    so it takes exactly the steps it would take alone, and stops at a
    residual below ``POLISH_TARGET`` or a damping past 1e14.  Returns the
    last vertices of every seed off a pole in seed order, for the census
    gate to judge.  Only the seeds that stepped are gauge-fixed again: a
    seed that took no step comes back as it went in.
    """
    pts = np.asarray(seeds, dtype=float)
    n = pts.shape[1]
    pole_radius = pole_radius_of(None)
    # every gate is written so that NaN fails it
    pts = pts[pair_distances(pts).min(axis=1) >= pole_radius]
    keep = pot.polygon_free_indices(n)
    der = pot.polygon_derivatives(pts, charges, spec)
    lam = pot.least_squares_multiplier(pts, charges, spec, der)
    u = np.concatenate([pts[:, 1:].reshape(-1, 2 * (n - 1))[:, keep], lam[:, None]],
                       axis=1)
    res, jac = pot.polygon_stationarity(pts, lam, charges, spec, der)
    del der  # two Hessian stacks the Newton rounds no longer need
    rnorm = norms(res)
    damping = np.zeros(len(u))
    running = np.ones(len(u), dtype=bool)
    moved = np.zeros(len(u), dtype=bool)
    for _ in range(MAX_ITERS):
        running &= ~(rnorm < POLISH_TARGET)
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        step, solved = _newton_steps(jac[rows], res[rows], damping[rows])
        trial = u[rows] + step
        trial_pts = _unpack(trial, n, keep)
        blocked = solved & ((pair_distances(trial_pts).min(axis=1) < pole_radius)
                            | ~np.isfinite(trial_pts).all(axis=(1, 2)))
        tried = solved & ~blocked
        res_t, jac_t = pot.polygon_stationarity(trial_pts[tried], trial[tried, -1],
                                                charges, spec)
        rnorm_t = norms(res_t)
        better = np.zeros(rows.size, dtype=bool)
        better[tried] = rnorm_t < rnorm[rows[tried]]
        won = better[tried]
        acc = rows[better]
        u[acc] = trial[better]
        moved[acc] = True
        res[acc] = res_t[won]
        jac[acc] = jac_t[won]
        rnorm[acc] = rnorm_t[won]
        damping[acc] = np.where(rnorm_t[won] < 1e-6, 0.0, damping[acc] / 3.0)
        # a singular system, a trial at a pole and a rejected step all
        # raise the damping; past 1e14 the last two end the seed's run
        failed = solved & ~better
        grow = rows[~better]
        damping[grow] = np.maximum(damping[grow] * 10.0, 1e-8)
        running[rows[failed & (damping[rows] > 1e14)]] = False
    if moved.any():
        pts[moved] = gauge_fix(_unpack(u[moved], n, keep))
    return pts


def _polygon_seeds(space: PolygonSpace, charges: ChargeVector,
                   spec: PotentialSpec, settings: SolveSettings) -> np.ndarray:
    n = space.n
    if n == 3:
        return closed_form_seeds(charges, spec)
    # n >= 4: one collinear seed per line ordering modulo reversal (each
    # holds one aligned point; grid_density**2 random ones when there are
    # more), two rings and a random pool; coverage is heuristic
    base = TWO_PI * np.arange(n) / n
    rings = [np.column_stack([np.cos(base + phase), np.sin(base + phase)])
             for phase in (0.0, math.pi / n)]
    count = settings.grid_density ** 2
    rng = np.random.default_rng(MULTISTART_SEED + n)
    pool = rng.uniform(-1.0, 1.0, size=(count, n, 2))
    if math.factorial(n) // 2 <= count:
        orders = [o for o in itertools.permutations(range(n)) if o[0] < o[-1]]
    else:
        orders = [rng.permutation(n) for _ in range(count)]
    # vertex order[k] at x = k
    x = np.argsort(orders, axis=1).astype(float)
    lines = np.stack([x, np.zeros_like(x)], axis=2)
    # a row that no configuration represents comes back NaN: the polish drops it
    return gauge_fix(np.concatenate([lines, rings,
                                     pool[pair_distances(pool).min(axis=1) > 1e-3]]))


# ---------------------------------------------------------------------------
# torus: level-sweep seeds and the polish (vectorized over seeds)
# ---------------------------------------------------------------------------

def _level_fractions() -> np.ndarray:
    """``LEVEL_SAMPLES`` midpoints of (0, 1) with ``LEVEL_END_SAMPLES``
    geometric samples below the first and above the last."""
    mid = (np.arange(LEVEL_SAMPLES) + 0.5) / LEVEL_SAMPLES
    end = np.geomspace(1e-12, mid[0], LEVEL_END_SAMPLES + 1)[:-1]
    return np.concatenate([end, mid, 1.0 - end[::-1]])


#: the angles of the level sweep, increasing in (0, pi)
_LEVEL_ANGLES = math.pi * _level_fractions()
_LEVEL_ANGLES.setflags(write=False)


def _slope_minima(constants: pot.TorusConstants, spec: PotentialSpec) -> np.ndarray:
    """The angle ``alpha*`` in [0, pi) of each pair's slope minimum, a
    ``(3, 1)`` column.  The slope is ``-sin(alpha) d**(-2m)`` up to a
    positive factor, with ``d**2 = a - b cos(alpha)`` (``a = span``,
    ``b = 2 rr``) and ``m = (1 + 1/p) / 2`` for the kernel's
    ``ratio_exponent`` p, so ``cos(alpha*)`` is the root in (0, 1] of
    ``(m - 1) b x**2 + a x - m b = 0``; a pair on equal radii has its
    minimum at the pole ``alpha* = 0``."""
    rr, _, span, _ = constants
    m = 0.5 + 0.5 / spec.ratio_exponent
    # the root written without cancellation
    x = 4.0 * m * rr / (span + np.sqrt(span * span + 16.0 * m * (m - 1.0) * rr * rr))
    return np.where(span > 2.0 * rr, np.arccos(np.minimum(x, 1.0)), 0.0)


def _level_seeds(space: TorusSpace, charges: ChargeVector,
                 spec: PotentialSpec) -> np.ndarray:
    """``TORUS_ALIGNED_ROWS``, then one seed next to each critical point
    whose central angles all lie in (0, pi), from a sweep of the level.

    The chart gradient is ``(u1_0 - u1_2, u1_1 - u1_2)`` with pair ``i``'s
    slope ``u1_i`` (``potentials.torus_pair_slopes``) a function of its
    own angle alone, so a point is critical exactly when the three slopes
    share one level ``c`` and the angles sum to 0 mod 2 pi.  Each slope is
    odd, negative on (0, pi) and unimodal there (the kernels repel): it
    falls to its minimum at ``_slope_minima`` and rises after it, and a
    pair on equal radii has only the rising branch, from minus infinity
    at the pole.  So ``c = 0`` gives the aligned rows, ``c < 0`` puts
    every angle in (0, pi) with sum 2 pi, and ``c > 0`` is the mirror,
    which the finalize's mirror closure restores.

    One slope table over ``_LEVEL_ANGLES`` sets the level (the pair with
    the shallowest minimum) and brackets each root of the other two pairs
    on each monotone branch; a safeguarded Newton finishes all brackets as
    one stack.  A seed is interpolated at each sign change of ``alpha_lim
    + alpha_j + alpha_k - 2 pi`` over the four branch combinations.
    """
    constants = pot.TorusConstants.of(space.radii, charges)
    rr, qq, span, floor = constants
    star = _slope_minima(constants, spec)
    knots = np.concatenate([[0.0], _LEVEL_ANGLES, [math.pi]])
    u1, _, d = pot.torus_pair_slopes(constants, spec, np.hstack([star, np.tile(knots, (3, 1))]))
    # a slope clamped at the distance floor stands for the pole's -inf
    table = np.where(d < floor, -math.inf, u1)
    lim = int(np.argmax(table[:, 0]))
    j, k = (lim + 1) % 3, (lim + 2) % 3
    level = table[lim, 2:-1]
    # rows: pair j falling then rising, pair k falling then rising, each
    # tabulated from its end at 0 or pi to its minimum and signed to rise
    rows = [j, j, k, k]
    falling = np.array([[True], [False], [True], [False]])
    s, sign = star[rows], np.where(falling, -1.0, 1.0)
    grid = np.where(falling, np.minimum(knots, s), np.maximum(knots, s))
    values = sign * np.where(np.where(falling, knots < s, knots > s),
                             table[rows, 1:], table[rows, :1])
    key = sign * level
    at = np.clip([np.searchsorted(v, c) for v, c in zip(values, key)], 1, knots.size - 1)
    lo, hi, vlo, vhi = (np.take_along_axis(a, at - side, axis=1)
                        for a in (grid, values) for side in (1, 0))
    # start from the chord of the cell, or its midpoint next to the pole
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = lo + (key - vlo) / (vhi - vlo) * (hi - lo)
    alpha = np.where((alpha >= lo) & (alpha <= hi), alpha, 0.5 * (lo + hi))
    # a pair on equal radii has no falling branch, a clamped level no root
    rootless = (level == -math.inf) | (falling & (s == 0.0))
    # the resolution of LEVEL_ROUNDS halvings of the whole branch
    resolution = np.where(falling, s, math.pi - s) * 2.0 ** -LEVEL_ROUNDS
    branch = pot.TorusConstants(rr[rows], qq[rows], span[rows], floor)
    live = ~rootless
    for _ in range(LEVEL_ROUNDS):
        u1, u2, d = pot.torus_pair_slopes(branch, spec, alpha)
        miss = sign * u1 - key
        lo, hi = np.where(miss < 0.0, alpha, lo), np.where(miss < 0.0, hi, alpha)
        # a row stops where it stands once its residual is at the rounding
        # floor of its level (d * d = span - 2 rr cos(alpha) cancels to
        # span / (d * d) ulp) or its step within the halvings' resolution
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -miss / (sign * u2)
            live &= ~((np.abs(miss) * d * d <= 4.0 * pot.EPS * np.abs(level) * branch.span)
                      | (np.abs(step) <= np.maximum(resolution, 4.0 * np.spacing(alpha))))
        # a Newton step onto or past an end of the bracket becomes a halving
        inside = (alpha + step > lo) & (alpha + step < hi)
        alpha = np.where(live, np.where(inside, alpha + step, 0.5 * (lo + hi)), alpha)
        live &= hi - lo > 4.0 * np.spacing(hi)
        if not live.any():
            break
    alpha = np.where(rootless, math.nan, alpha)
    alpha_j, alpha_k = alpha[[0, 0, 1, 1]], alpha[[2, 3, 2, 3]]
    excess = _LEVEL_ANGLES + alpha_j + alpha_k - TWO_PI
    combo, at = np.nonzero(excess[:, :-1] * excess[:, 1:] < 0.0)
    w = excess[combo, at] / (excess[combo, at] - excess[combo, at + 1])
    seeds = np.empty((at.size, 3))
    for pair, col in ((lim, np.broadcast_to(_LEVEL_ANGLES, excess.shape)),
                      (j, alpha_j), (k, alpha_k)):
        seeds[:, pair] = col[combo, at] + w * (col[combo, at + 1] - col[combo, at])
    return np.vstack([TORUS_ALIGNED_ROWS, seeds[:, :2]])


def _polish_torus_seeds(space: TorusSpace, charges: ChargeVector,
                        spec: PotentialSpec, seeds: np.ndarray) -> np.ndarray:
    """Newton on the two-angle gradient, run on a stack of ``(k, 2)`` seeds.

    The iteration carries the angles of the live seeds as two columns
    with their seed indices ``live``.  Each round evaluates them through
    ``potentials.torus_columns`` with the census constants taken once,
    shrinks the columns, in one gather each, to the seeds it steps and
    writes their new angles into the result by seed index.  A seed stops
    stepping once its gradient is within ``POLISH_TARGET``, or it sits
    inside the pole radius or meets a singular Hessian, and is never
    evaluated again, so every seed takes exactly the steps it would take
    alone.  The polish judges no row: it returns every seed's last angle
    pair in seed order, reduced to (-pi, pi], for the census gate.
    """
    angles = np.array(seeds, dtype=float).reshape(-1, 2)
    constants = pot.TorusConstants.of(space.radii, charges)
    pole_radius = pole_radius_of(space.radii)
    live = np.arange(angles.shape[0])
    a0, a1 = angles[:, 0].copy(), angles[:, 1].copy()
    for _ in range(MAX_ITERS):
        g0, g1, h00, h01, h11, dmin = pot.torus_columns(constants, spec, a0, a1)
        gnorm = np.sqrt(g0 * g0 + g1 * g1)
        # every gate is written so that NaN fails it
        todo = (dmin >= pole_radius) & (gnorm > POLISH_TARGET)
        if not todo.any():
            break
        # rows that stop here may divide by zero or overflow; their steps
        # are dropped with them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = h00 * h11 - h01 * h01
            scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.abs(h11))
            # stop seeds with a singular Hessian, clamp wild steps
            keep = todo & (np.abs(det) > 1e-14 * np.maximum(1.0, scale ** 2))
            s0 = (-g0 * h11 + g1 * h01) / det
            s1 = (-g1 * h00 + g0 * h01) / det
            clamp = np.minimum(1.0, 0.5 / np.sqrt(s0 * s0 + s1 * s1))
            a0 += s0 * clamp
            a1 += s1 * clamp
        live, a0, a1 = live[keep], a0[keep], a1[keep]
        angles[live, 0], angles[live, 1] = a0, a1
    return reduce_angles(angles)


# ---------------------------------------------------------------------------
# dedup, reflection pairing, classification
# ---------------------------------------------------------------------------

def _point_rows(rows: np.ndarray, radii: tuple[float, float, float] | None,
                ) -> np.ndarray:
    """The coordinates the same-point rule compares, one flat row per
    canonical row: the gauge-fixed vertices ``(k, n, 2)`` as they stand
    (``radii`` is ``None``), or the angle pairs ``(k, 2)`` embedded on the
    circle, so +pi and -pi compare as equal."""
    if radii is not None:
        rows = np.stack([np.cos(rows), np.sin(rows)], axis=2)
    return rows.reshape(len(rows), math.prod(rows.shape[1:]))


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each point row of ``a`` is the same point as each of ``b``
    (``max|delta| < DEDUP_TOL``), as a ``(len(a), len(b))`` mask, taken
    128 rows of ``a`` at a time so that the temporary holds at most
    ``128 * len(b)`` point rows."""
    out = np.empty((len(a), len(b)), dtype=bool)
    for i in range(0, len(a), 128):
        out[i:i + 128] = np.abs(a[i:i + 128, None] - b[None, :]).max(axis=2) < DEDUP_TOL
    return out


def _first_cover(rows: np.ndarray, tol: float) -> list[int]:
    """Indices of the representatives of a first-wins dedup of ``rows``.

    The first uncovered row becomes a representative and covers every
    row within ``max|delta| < tol`` of it; repeat until no row is left.
    That keeps exactly the rows a sequential scan against the accepted
    representatives would keep.  A row with a NaN or infinite entry
    covers no row, itself included, and still leaves the pool once it
    is a representative.
    """
    block = np.asarray(rows, dtype=float)
    left = np.arange(len(block))
    reps = []
    while left.size:
        rep, left = left[0], left[1:]
        reps.append(int(rep))
        # max propagates NaN, which fails the comparison
        near = np.abs(block[left] - block[rep]).max(axis=1) < tol
        left = left[~near]
    return reps


def _representatives(space: Space, charges: ChargeVector, spec: PotentialSpec,
                     seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Polish the seeds, gate the polished rows and keep one row per point
    that passed: gauge-fixed vertices ``(k, n, 2)`` or reduced angle pairs
    ``(k, 2)``, with their chart gradients, Hessians and aligned flags."""
    radii = space.radii if isinstance(space, TorusSpace) else None
    rows = (_polish_polygon(seeds, charges, spec) if radii is None
            else _polish_torus_seeds(space, charges, spec, seeds))
    pairs = pair_distances(rows, radii)
    # every gate is written so that NaN fails it; first the pole check
    regular = pairs.min(axis=1) >= pole_radius_of(radii)
    rows, pairs = rows[regular], pairs[regular]
    grad, hess = pot.chart_derivatives(rows, radii, charges, spec)
    aligned = alignment_defects(plane_points(rows, radii), pairs) == 0.0
    residual = pot.stationarity_relation_residuals(rows, radii, pairs, charges, spec, aligned)
    ok = np.flatnonzero((norms(grad) <= NEWTON_TOL) & (residual <= RELATION_TOL)
                        & np.isfinite(hess).all(axis=(1, 2)))
    first = ok[_first_cover(_point_rows(rows[ok], radii), DEDUP_TOL)]
    return rows[first], grad[first], hess[first], aligned[first]


def _mirror_close(rows: np.ndarray, radii: tuple[float, float, float] | None) -> np.ndarray:
    """Indices of the rows whose mirror images close a stack of
    representatives under the reflection involution.

    The mirror of a critical point is critical with the same spectrum.
    Each mirror, in row order, is kept unless it matches a row or a
    mirror kept before it: a first-wins dedup of the mirrors that match
    no row.
    """
    points = _point_rows(mirror_rows(rows, radii), radii)
    fresh = np.flatnonzero(~_close(points, _point_rows(rows, radii)).any(axis=1))
    return fresh[_first_cover(points[fresh], DEDUP_TOL)]


def _partners(rows: np.ndarray, radii: tuple[float, float, float] | None,
              ) -> list[int | None]:
    """Index of the first other row each row's mirror matches; ``None``
    for a row that is its own mirror image or has no partner."""
    match = _close(_point_rows(mirror_rows(rows, radii), radii), _point_rows(rows, radii))
    return [None if own[i] or not own.any() else int(own.argmax())
            for i, own in enumerate(match)]


def _finalize(space: Space, reps: tuple[np.ndarray, ...], charges: ChargeVector,
              spec: PotentialSpec) -> list[CriticalPoint]:
    """Mirror-close, classify, sort and pair the representatives ``reps``
    (``_representatives``' four stacks).  A synthesized mirror takes its
    source's gradient norm, spectrum and aligned flag, not its energy."""
    radii = space.radii if isinstance(space, TorusSpace) else None
    rows, grad, hess, aligned = reps
    sources = _mirror_close(rows, radii)
    take = np.concatenate([np.arange(len(rows)), sources])
    rows = np.concatenate([rows, mirror_rows(rows[sources], radii)])
    energy = pot.pair_energies(pair_distances(rows, radii), charges, spec)
    grad_norm, aligned = norms(grad)[take], aligned[take]
    eigs = np.linalg.eigvalsh(hess)[take]
    index, degenerate = classify_spectra(eigs)
    # the rows are canonical already; canonicalize only keys them
    built = [canonicalize(row_config(row, radii)) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (energy[i], built[i][1]))
    partners = _partners(rows[order], radii)
    return [CriticalPoint(config=built[i][0], energy=float(energy[i]),
                          grad_norm=float(grad_norm[i]),
                          hessian_eigenvalues=tuple(eigs[i].tolist()),
                          morse_index=int(index[i]), degenerate=bool(degenerate[i]),
                          aligned=bool(aligned[i]), key=built[i][1],
                          symmetry_partner=partner)
            for i, partner in zip(order, partners)]


def _candidate_rows(space: Space, candidates: Sequence[np.ndarray | Config]) -> np.ndarray:
    """The raw rows of the candidates as one stack, refused unless each has
    the shape of a row of the space: an angle pair ``(2,)`` or the
    vertices ``(n, 2)``."""
    shape = (2,) if isinstance(space, TorusSpace) else (space.n, 2)
    rows = [np.asarray(config_rows(cand)[0][0] if isinstance(cand, Config) else cand,
                       dtype=float) for cand in candidates]
    for row in rows:
        if row.shape != shape:
            raise ValueError(f"{space.name} candidates need shape {shape}, got {row.shape}")
    return np.array(rows)


def polish_candidates(space: Space, charges: ChargeVector,
                      candidates: Sequence[np.ndarray | Config],
                      spec: PotentialSpec = COULOMB) -> list[CriticalPoint]:
    """Polish explicit candidate configurations only (no grid multistart).

    Candidates are vertex arrays / configs (polygon) or angle pairs /
    configs (torus), a configuration taken as the row it holds.  The
    polygon rows are gauge-fixed as one stack, which leaves a canonical
    row as it is, bit for bit.  Candidates that fail the census gate are
    dropped and the survivors go through the same dedup / mirror /
    classify pipeline as the full search.
    """
    pot._check_charges(space, charges)
    if not len(candidates):
        return []
    seeds = _candidate_rows(space, candidates)
    if isinstance(space, PolygonSpace):
        # a row that no configuration represents comes back NaN and
        # fails the polish's first gate
        seeds = gauge_fix(seeds)
    return _finalize(space, _representatives(space, charges, spec, seeds), charges, spec)


def find_critical_points(space: Space, charges: ChargeVector,
                         spec: PotentialSpec = COULOMB,
                         settings: SolveSettings = SolveSettings(),
                         ) -> list[CriticalPoint]:
    """Search for every stationary point of the energy.

    The seeds are the closed forms for three polygon charges, the aligned
    rows and the level-sweep seeds on the torus (``_level_seeds``; their
    mirrors come back by mirror closure), else multistart seeds.  They
    are polished by damped Newton on the stationarity system, all seeds
    of the space as one batch in which only live seeds iterate; the
    census gate drops every row that is not stationary.  The survivors
    are deduplicated modulo the rotation gauge on their raw coordinate
    rows (the first seed of each point wins), closed under the reflection
    involution (both members of a mirror pair are reported and linked),
    classified by their constrained Hessian spectrum and sorted by
    (energy, key).
    """
    pot._check_charges(space, charges)
    seeds = (_level_seeds(space, charges, spec) if isinstance(space, TorusSpace)
             else _polygon_seeds(space, charges, spec, settings))
    return _finalize(space, _representatives(space, charges, spec, seeds), charges, spec)
