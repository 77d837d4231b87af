"""Critical-point search on both configuration spaces.

Closed forms cover the three-charge cases: the collinear equilibria
(one per choice of intermediate vertex) and the triangle equilibrium
whose side lengths are proportional to inverse square roots of the
charges.  Everything else runs through multistart Newton polishing of
the stationarity system: a Lagrange system with explicit perimeter
constraint for polygons, the plain two-angle gradient for the torus.
The search is array-first from seed to report.  Polygon seeds are
gauge-fixed as one stack; all seeds of a search go through one damped
Newton iteration as a single stack, and only live seeds iterate (the
torus polish carries a compact stack of the live angles and their seed
indices, evaluates it once per round and shrinks it with one gather).
Converged points are deduplicated in one first-wins pass that compares
column by column.  The representatives come with their chart
gradients and Hessians: the polygon polish has them from its
convergence gate, the torus takes them in one call on the reduced
representatives.  The finalize works on that stack too: it closes it
under the reflection involution by row comparisons, evaluates chart
derivatives only for the mirrors it synthesizes, gates and classifies
every row with one eigenvalue call, sorts, and pairs each point with
its mirror by index.  A configuration object is built only for each
reported point.  The representatives are canonical rows, and canonical
rows are never re-gauged: a configuration candidate and a seed that
took no Newton step keep their rows, and mirrors and reported points
are built from them as they stand.

One rule makes each census decision.  Same point: rows whose
``_point_rows`` (gauge-fixed vertices, or angles on the circle) differ
by less than ``DEDUP_TOL`` in every coordinate; the dedup, the mirror
closure and the partner scan all compare so.  Pole: a row whose
smallest ``pair_distances`` entry is below ``spaces.pole_radius_of``.

The grid density is the one setting of a census (``SolveSettings``).
The Newton tolerance, the iteration cap and the dedup distance are the
module constants ``NEWTON_TOL``, ``MAX_ITERS`` and ``DEDUP_TOL``.
"""

from __future__ import annotations

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
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    alignment_defects,
    apply_involution,
    canonicalize,
    config_rows,
    gauge_fix,
    mirror_rows,
    pair_distances,
    plane_points,
    pole_radius_of,
    reduce_angles,
    row_config,
    triangle_vertices,
)

TWO_PI = 2.0 * math.pi

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
    """The one setting of a census: multistart seeds per chart dimension."""

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

def solve_line_three(charges: ChargeVector,
                     spec: PotentialSpec = COULOMB) -> list[PolygonConfig]:
    """The three collinear equilibria of three charges, one per choice of
    intermediate vertex (list index = intermediate vertex).

    Each is a segment of length one half (so the cyclic perimeter is
    one); the intermediate vertex divides it according to
    ``d_left / d_right = (q_left / q_right) ** p`` with ``p`` fixed by
    the kernel (one half for the inverse-distance kernel).  The split
    does not depend on the intermediate charge, which is the root of
    the fixing effect.
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
    return [PolygonConfig(row) for row in gauge_fix(coords)]


def critical_triangle(charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> PolygonConfig | None:
    """The non-collinear equilibrium triangle, or ``None`` if the side
    proportion fails the strict triangle inequality or rounds to a zero
    height (collinear regime).

    Sides opposite each vertex are proportional to ``q_i ** -p`` with
    the kernel exponent ``p``; for the inverse-distance kernel that is
    the inverse square root of the charge.
    """
    if len(charges) != 3:
        raise ValueError("closed form needs exactly three charges")
    sides = charges.array ** -spec.ratio_exponent
    vertices = triangle_vertices(sides / sides.sum())
    return None if vertices is None else PolygonConfig.from_points(vertices)


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
        scale = 1.0
        for k, i in enumerate(idx):
            lo, hi = x[i - 1], x[i + 1]
            target = x[i] + step[k]
            if target <= lo or target >= hi:
                scale = min(scale, 0.4 * min(x[i] - lo, hi - x[i]) / (abs(step[k]) + 1e-300))
        x[idx] += scale * step
    g, h = grad_hess(x)
    if np.abs(g).max() > 1e-9:
        raise RuntimeError("interior line equilibrium did not converge")
    return x, h


def line_config_from_positions(positions: np.ndarray) -> PolygonConfig:
    """Embed ordered line positions as an aligned polygon configuration."""
    pts = np.column_stack([positions - positions[0], np.zeros_like(positions)])
    return PolygonConfig.from_points(pts)


def closed_form_seeds(charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> list[PolygonConfig]:
    """Every closed-form equilibrium of three polygon charges: the three
    collinear ones (``solve_line_three`` order), then the triangle and
    its mirror image when the triangle exists."""
    seeds = solve_line_three(charges, spec)
    tri = critical_triangle(charges, spec)
    return seeds if tri is None else seeds + [tri, apply_involution(tri)]


def enumerate_aligned(space: Space, charges: ChargeVector,
                      spec: PotentialSpec = COULOMB) -> list[Config]:
    """All aligned critical configurations of the space.

    Polygon (n=3): the three collinear equilibria, index = intermediate
    vertex.  Torus: the four angle labels with every central angle zero
    or pi, all of which are stationary for every positive charge vector,
    index = position in ``TORUS_ALIGNED_LABELS``.  The pitchfork trace
    names the aligned configuration it follows by this index.
    """
    if isinstance(space, TorusSpace):
        return [TorusConfig(space.radii, (lab[0], lab[1]))
                for lab in TORUS_ALIGNED_LABELS]
    if space.n == 3:
        return list(solve_line_three(charges, spec))
    raise ValueError("aligned enumeration is closed-form only for n=3; "
                     "use find_critical_points for larger polygons")


# ---------------------------------------------------------------------------
# multistart machinery: polygon
# ---------------------------------------------------------------------------

def _row_norms(x: np.ndarray) -> np.ndarray:
    # vecdot rounds each row like np.linalg.norm of that row alone
    return np.sqrt(np.vecdot(x, x))


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


def _gauge_rows(vertices: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Gauge-fixed stack of raw polygon vertex rows, without the rows that
    no configuration represents (all vertices coincident, or not finite)."""
    fixed = gauge_fix(np.asarray(vertices, dtype=float))
    return fixed[np.isfinite(fixed).all(axis=(1, 2))]


def _polish_polygon(seeds: np.ndarray, charges: ChargeVector, spec: PotentialSpec,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-damped Newton on the Lagrange stationarity system, run on
    a stack of gauge-fixed seeds ``(k, n, 2)`` at once.

    Every seed keeps its own damping, residual norm and iteration count,
    so it takes exactly the steps it would take alone.  Returns the
    gauge-fixed vertices of the converged points in seed order with
    their chart gradients and Hessians.  Only the seeds that stepped are
    gauge-fixed again: a seed that took no step comes back as it went in.
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
    rnorm = _row_norms(res)
    damping = np.zeros(len(u))
    running = np.ones(len(u), dtype=bool)
    killed = np.zeros(len(u), dtype=bool)
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
        rnorm_t = _row_norms(res_t)
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
        over = failed & (damping[rows] > 1e14)
        killed[rows[over & blocked]] = True
        running[rows[over]] = False
    ok = ~killed & (rnorm <= math.sqrt(NEWTON_TOL))
    done = pts[ok]
    if (ok & moved).any():
        done[moved[ok]] = gauge_fix(_unpack(u[ok & moved], n, keep))
    done = done[pair_distances(done).min(axis=1) >= pole_radius]
    grad, hess = pot.polygon_chart_derivatives(done, charges, spec)
    ok = _row_norms(grad) <= NEWTON_TOL
    return done[ok], grad[ok], hess[ok]


def _polygon_seeds(space: PolygonSpace, charges: ChargeVector,
                   spec: PotentialSpec, settings: SolveSettings) -> list[np.ndarray]:
    n = space.n
    seeds: list[np.ndarray] = []
    if n == 3:
        seeds.extend(cfg.points for cfg in closed_form_seeds(charges, spec))
        g = settings.grid_density
        for i in range(1, g):
            for j in range(1, g - i):
                sides = (i / g, j / g, 1.0 - i / g - j / g)
                for flip in (False, True):
                    tri_pts = triangle_vertices(sides, flip)
                    if tri_pts is not None:
                        seeds.append(tri_pts)
        return seeds
    # n >= 4: aligned seeds for sweep orderings plus structured and
    # random convex shapes; coverage is heuristic at this size
    try:
        xs, _ = solve_line_interior(charges, spec)
        seeds.append(np.column_stack([xs, np.zeros(n)]))
    except RuntimeError:
        pass
    for positions in _sweep_position_seeds(n):
        seeds.append(np.column_stack([positions - positions.min(), np.zeros(n)]))
    base = TWO_PI * np.arange(n) / n
    for phase in (0.0, math.pi / n):
        ring = np.column_stack([np.cos(base + phase), np.sin(base + phase)])
        seeds.append(ring)
    rng = np.random.default_rng(MULTISTART_SEED + n)
    pool = rng.uniform(-1.0, 1.0, size=(settings.grid_density ** 2, n, 2))
    seeds.extend(pool[pair_distances(pool).min(axis=1) > 1e-3])
    return seeds


def _sweep_position_seeds(n: int) -> list[np.ndarray]:
    """Seed positions for every collinear stratum whose cyclic tour is a
    single sweep (span equal to half the perimeter).

    A stratum is fixed by the choice of leftmost and rightmost vertex:
    the cycle arc from one to the other ascends, the complementary arc
    descends.  Interior vertices start evenly spaced.
    """
    seeds = []
    seen = set()
    for lo in range(n):
        for hi in range(n):
            if lo == hi:
                continue
            rising = [(lo + k) % n for k in range(1, (hi - lo) % n)]
            falling = [(hi + k) % n for k in range(1, (lo - hi) % n)]
            positions = np.empty(n)
            positions[lo] = 0.0
            positions[hi] = 0.5
            for ascending, verts in ((True, rising), (False, falling)):
                ticks = np.linspace(0.0, 0.5, len(verts) + 2)[1:-1]
                if not ascending:
                    # stagger the descending arc so the two arcs never
                    # start on top of each other
                    ticks = ticks[::-1] * 0.85 + 0.04
                for t, v in zip(ticks, verts):
                    positions[v] = t
            key = tuple(np.argsort(positions))
            mirror = tuple(np.argsort(-positions))
            if key in seen or mirror in seen:
                continue
            seen.add(key)
            seeds.append(positions)
    return seeds


# ---------------------------------------------------------------------------
# multistart machinery: torus (vectorized over seeds)
# ---------------------------------------------------------------------------

def _torus_seeds(space: TorusSpace, settings: SolveSettings) -> np.ndarray:
    g = settings.grid_density
    ticks = TWO_PI * (np.arange(g) + 0.5) / g
    # x-major, the order the first-wins dedup sees the grid in
    grid = np.column_stack([np.repeat(ticks, g), np.tile(ticks, g)])
    aligned = np.array([(lab[0], lab[1]) for lab in TORUS_ALIGNED_LABELS])
    extra = [aligned]
    r = space.radii
    if max(r) - min(r) < 1e-12:
        third = TWO_PI / 3.0
        extra.append(np.array([(third, third), (-third, -third)]))
    # injected seeds go first so the exact representatives win the dedup
    return np.vstack([*extra, grid])


def _polish_torus_seeds(space: TorusSpace, charges: ChargeVector,
                        spec: PotentialSpec, seeds: np.ndarray) -> np.ndarray:
    """Newton on the two-angle gradient, run on a stack of ``(k, 2)`` seeds.

    The iteration carries one compact stack, the angles of the live seeds
    and their seed indices.  Each round evaluates that stack, writes the
    seeds that converged into the result by seed index and shrinks the
    stack, in one gather, to the seeds it steps.  A seed that converged,
    hit a pole or met a singular Hessian is never evaluated again, so
    every seed takes exactly the steps it would take alone.  Returns the
    converged angle pairs in seed order, reduced to (-pi, pi].
    """
    angles = np.array(seeds, dtype=float).reshape(-1, 2)
    pole_radius = pole_radius_of(space.radii)
    floor = 0.5 * pole_radius
    converged = np.zeros(angles.shape[0], dtype=bool)
    live = np.arange(angles.shape[0])
    at = angles.copy()
    for rounds in range(MAX_ITERS + 1):
        grad, hess, dmin = pot.torus_derivatives(space.radii, charges, spec, at, floor)
        g0, g1 = grad[:, 0], grad[:, 1]
        gnorm = np.sqrt(g0 * g0 + g1 * g1)
        # every gate is written so that NaN fails it
        regular = dmin >= pole_radius
        last = rounds == MAX_ITERS
        done = regular & (gnorm <= (NEWTON_TOL if last else POLISH_TARGET))
        angles[live[done]] = at[done]
        converged[live[done]] = True
        todo = regular & (gnorm > POLISH_TARGET)
        if last or not todo.any():
            break
        h00, h01, h11 = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
        # rows that stop here may divide by zero or overflow; their steps
        # are dropped with them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = h00 * h11 - h01 * h01
            scale = np.maximum(np.maximum(np.abs(h00), np.abs(h01)), np.abs(h11))
            # drop seeds with a singular Hessian, clamp wild steps
            keep = todo & (np.abs(det) > 1e-14 * np.maximum(1.0, scale ** 2))
            s0 = (-g0 * h11 + g1 * h01) / det
            s1 = (-g1 * h00 + g0 * h01) / det
            clamp = np.minimum(1.0, 0.5 / np.sqrt(s0 * s0 + s1 * s1))
            at[:, 0] += s0 * clamp
            at[:, 1] += s1 * clamp
        live, at = live[keep], at[keep]
    return reduce_angles(angles[converged])


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
    (``max|delta| < DEDUP_TOL``), as a ``(len(a), len(b))`` mask."""
    return np.abs(a[:, None] - b[None, :]).max(axis=2) < DEDUP_TOL


def _first_cover(rows: np.ndarray, tol: float) -> list[int]:
    """Indices of the representatives of a first-wins dedup of ``rows``.

    The first uncovered row becomes a representative and covers every
    row within ``max|delta| < tol`` of it; repeat until no row is left.
    That keeps exactly the rows a sequential scan against the accepted
    representatives would keep.  A row with a NaN or infinite entry
    covers no row, itself included, and still leaves the pool once it
    is a representative.
    """
    columns = np.asarray(rows, dtype=float).T
    left = np.arange(len(rows))
    reps = []
    while left.size:
        rep, left = left[0], left[1:]
        reps.append(int(rep))
        # max|delta| < tol column by column, so NaN fails it
        near = np.ones(left.size, dtype=bool)
        for col in columns:
            near &= np.abs(col[left] - col[rep]) < tol
        left = left[~near]
    return reps


def _representatives(space: Space, charges: ChargeVector, spec: PotentialSpec,
                     seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polish the seeds and keep one row per converged point: gauge-fixed
    vertices ``(k, n, 2)`` or reduced angle pairs ``(k, 2)``, with their
    chart gradients and Hessians."""
    if isinstance(space, TorusSpace):
        angles = _polish_torus_seeds(space, charges, spec, seeds)
        reps = angles[_first_cover(_point_rows(angles, space.radii), DEDUP_TOL)]
        return (reps, *pot.chart_derivatives(reps, space.radii, charges, spec))
    vertices, grad, hess = _polish_polygon(seeds, charges, spec)
    first = _first_cover(_point_rows(vertices, None), DEDUP_TOL)
    return vertices[first], grad[first], hess[first]


def _mirror_close(rows: np.ndarray, radii: tuple[float, float, float] | None,
                  ) -> np.ndarray:
    """The mirror images that close a stack of representatives under the
    reflection involution.

    The mirror of a critical point is critical with the same spectrum.
    Each mirror, in row order, is kept unless it matches a row or a
    mirror kept before it: a first-wins dedup of the mirrors that match
    no row.
    """
    mirrors = mirror_rows(rows, radii)
    points = _point_rows(mirrors, radii)
    fresh = np.flatnonzero(~_close(points, _point_rows(rows, radii)).any(axis=1))
    return mirrors[fresh[_first_cover(points[fresh], DEDUP_TOL)]]


def _partners(rows: np.ndarray, radii: tuple[float, float, float] | None,
              ) -> list[int | None]:
    """Index of the first other row each row's mirror matches; ``None``
    for a row that is its own mirror image or has no partner."""
    match = _close(_point_rows(mirror_rows(rows, radii), radii), _point_rows(rows, radii))
    return [None if own[i] or not own.any() else int(own.argmax())
            for i, own in enumerate(match)]


def _finalize(space: Space, reps: tuple[np.ndarray, np.ndarray, np.ndarray],
              charges: ChargeVector, spec: PotentialSpec) -> list[CriticalPoint]:
    """Mirror-close, gate, classify, sort and pair the deduplicated
    representatives ``reps``: their rows, chart gradients and Hessians."""
    radii = space.radii if isinstance(space, TorusSpace) else None
    rows, grad, hess = reps
    count = len(rows)
    rows = np.concatenate([rows, _mirror_close(rows, radii)])
    pairs = pair_distances(rows, radii)
    # every gate is written so that NaN fails it; first the pole check
    regular = pairs.min(axis=1) >= pole_radius_of(radii)
    if not regular.any():
        return []
    grad, hess = grad[regular[:count]], hess[regular[:count]]
    if regular[count:].any():
        # only the synthesized mirrors still need their derivatives
        extra = pot.chart_derivatives(rows[count:][regular[count:]], radii, charges, spec)
        grad, hess = (np.concatenate(both) for both in zip((grad, hess), extra))
    rows, pairs = rows[regular], pairs[regular]
    grad_norm = _row_norms(grad)
    residual = pot.stationarity_relation_residuals(rows, radii, pairs, charges, spec)
    keep = np.flatnonzero((grad_norm <= NEWTON_TOL) & (residual <= RELATION_TOL))
    if not keep.size:
        return []
    energy = pot.pair_energies(pairs[keep], charges, spec)
    eigs = np.linalg.eigvalsh(hess[keep])
    index, degenerate = classify_spectra(eigs)
    aligned = alignment_defects(plane_points(rows[keep], radii), pairs[keep]) == 0.0
    # the rows are canonical already; canonicalize only keys them
    built = [canonicalize(row_config(row, radii)) for row in rows[keep]]
    order = sorted(range(keep.size), key=lambda i: (energy[i], built[i][1]))
    partners = _partners(rows[keep[order]], radii)
    return [CriticalPoint(config=built[i][0], energy=float(energy[i]),
                          grad_norm=float(grad_norm[keep[i]]),
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
    configs (torus); a raw vertex array is gauge-fixed first, and a
    configuration is taken as the canonical row it holds.
    Non-convergent candidates are dropped and the survivors go through
    the same dedup / mirror / classify pipeline as the full search.
    """
    pot._check_charges(space, charges)
    if not len(candidates):
        return []
    seeds = _candidate_rows(space, candidates)
    if isinstance(space, PolygonSpace):
        # a row that no configuration represents comes back NaN and
        # fails the polish's first gate
        raw = np.array([not isinstance(cand, Config) for cand in candidates])
        if raw.any():
            seeds[raw] = gauge_fix(seeds[raw])
    return _finalize(space, _representatives(space, charges, spec, seeds), charges, spec)


def find_critical_points(space: Space, charges: ChargeVector,
                         spec: PotentialSpec = COULOMB,
                         settings: SolveSettings = SolveSettings(),
                         ) -> list[CriticalPoint]:
    """Multistart search for every stationary point of the energy.

    Grid seeds plus the closed-form and aligned configurations are
    polished by damped Newton on the stationarity system, all seeds of
    the space as one batch in which only live seeds iterate; runs that
    do not converge are dropped.  The survivors are deduplicated modulo
    the rotation gauge on their raw coordinate rows (the first seed of
    each point wins), closed under the reflection involution (both
    members of a mirror pair are reported and linked), classified by
    their constrained Hessian spectrum and sorted by (energy, key).
    """
    pot._check_charges(space, charges)
    if isinstance(space, TorusSpace):
        seeds = _torus_seeds(space, settings)
    else:
        seeds = _gauge_rows(_polygon_seeds(space, charges, spec, settings))
    return _finalize(space, _representatives(space, charges, spec, seeds), charges, spec)
