"""Configuration spaces for constrained point-charge systems.

Two spaces are supported:

* ``PolygonConfig`` -- planar n-gons of perimeter one, with the first
  vertex pinned at the origin and the rotation freedom removed by a
  gauge (second vertex on the non-negative x half-axis);
* ``TorusConfig`` -- triples of points on three concentric circles,
  charted by two of the three central angles between consecutive
  points (the third angle is derived so the three always sum to a
  full turn).

Both spaces carry the reflection involution that mirrors a
configuration across the gauge axis.  Helpers here compute pairwise
distances, measure how far a configuration is from being collinear,
and produce canonical representatives plus distance-multiset keys for
deduplication.

The gauge fix, the mirror images, the pair distances and the
alignment defect are array-first: they work row by row on stacks of
polygon vertices ``(k, n, 2)`` or torus chart points ``(k, 2)``, and
the methods on a single configuration are stacks of one.  A row that
is canonical (gauge-fixed vertices, reduced angles) is never
re-gauged: its mirror image and its configuration object are built
from it as it stands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: perimeter drift allowed in a valid polygon configuration
PERIMETER_TOL = 1e-12
#: fraction of the perimeter / smallest radius below which two points
#: count as coincident (the energy has a pole there)
POLE_RADIUS_FACTOR = 1e-7
#: relative threshold (scaled by diameter) below which a configuration
#: counts as aligned
ALIGNMENT_TOL = 1e-10
#: rounding applied to distance multisets used as symmetry keys
KEY_DECIMALS = 9

#: the four aligned angle labels of the concentric-circle space, as
#: (alpha1, alpha2, alpha3) with the angles summing to 0 or 2*pi
TORUS_ALIGNED_LABELS = (
    (math.pi, math.pi, 0.0),
    (0.0, math.pi, math.pi),
    (math.pi, 0.0, math.pi),
    (0.0, 0.0, 0.0),
)
#: the chart points (alpha1, alpha2) of ``TORUS_ALIGNED_LABELS`` as one
#: read-only ``(4, 2)`` stack of canonical rows, in label order
TORUS_ALIGNED_ROWS = np.array([lab[:2] for lab in TORUS_ALIGNED_LABELS])
TORUS_ALIGNED_ROWS.setflags(write=False)


def reduce_angle(a: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a + 0.0  # normalize -0.0


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(first, second)`` of the pairs ``i < j`` of ``n``
    points, in ``np.triu_indices`` order (read-only)."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def reduce_angles(angles: np.ndarray) -> np.ndarray:
    """``reduce_angle`` applied elementwise."""
    a = np.fmod(angles, TWO_PI)
    a = np.where(a > math.pi, a - TWO_PI, np.where(a <= -math.pi, a + TWO_PI, a))
    return a + 0.0  # normalize -0.0


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ChargeVector:
    """Ordered positive charges; the normalized view lives on the open simplex."""

    q: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.q) < 2:
            raise ValueError("need at least two charges")
        if not all(math.isfinite(v) and v > 0.0 for v in self.q):
            raise ValueError(f"charges must be positive and finite, got {self.q}")

    @classmethod
    def of(cls, values: Sequence[float]) -> "ChargeVector":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.q)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.q)

    @property
    def normalized(self) -> np.ndarray:
        a = self.array
        return a / a.sum()

    def scaled(self, factor: float) -> "ChargeVector":
        return ChargeVector(tuple(factor * v for v in self.q))


class _PairGeometry:
    """Diameter, smallest separation and pole flag of a configuration,
    read off its row of ``pair_distances``."""

    @property
    def _pairs(self) -> np.ndarray:
        return pair_distances(*config_rows(self))[0]

    @property
    def diameter(self) -> float:
        return float(self._pairs.max())

    @property
    def min_separation(self) -> float:
        """Smallest distance between two points."""
        return float(self._pairs.min())

    @property
    def pole_radius(self) -> float:
        return pole_radius_of(config_rows(self)[1])

    @property
    def has_pole(self) -> bool:
        return self.min_separation < self.pole_radius


@dataclass(frozen=True)
class PolygonConfig(_PairGeometry):
    """Gauge-fixed point of the fixed-perimeter polygon space.

    Invariants: the first vertex is the origin, the gauge vertex
    (normally the second) sits on the non-negative x half-axis, and the
    cyclic perimeter equals one up to ``PERIMETER_TOL``.  Coincident
    vertices are representable; they flag a pole of the energy.
    """

    points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        pts = _readonly(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("points must be an (n, 2) array with n >= 3")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if pts[0, 0] != 0.0 or pts[0, 1] != 0.0:
            raise ValueError("first vertex must be pinned at the origin")
        g = self.gauge_index
        if pts[g, 1] != 0.0 or pts[g, 0] < 0.0:
            raise ValueError("gauge vertex must lie on the non-negative x half-axis")
        per = self.perimeter
        if abs(per - 1.0) > PERIMETER_TOL:
            raise ValueError(f"perimeter must be 1, got {per!r}")

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]] | np.ndarray,
                    ) -> "PolygonConfig":
        """Pin, gauge-fix and rescale raw vertices to perimeter one."""
        return cls(gauge_fix(np.asarray(points, dtype=float)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def gauge_index(self) -> int:
        """Index of the vertex the rotation gauge is pinned to.

        Normally vertex 1 (the second point); if that point coincides
        with the origin the first non-origin vertex takes the role.
        """
        pts = self.points
        for i in range(1, pts.shape[0]):
            if pts[i, 0] != 0.0 or pts[i, 1] != 0.0:
                return i
        return 1

    @property
    def perimeter(self) -> float:
        return float(perimeter_value(self.points))

    def pole_pairs(self) -> list[tuple[int, int]]:
        """Vertex pairs closer than the pole radius (energy diverges there)."""
        first, second = pair_indices(self.n)
        close = self._pairs < self.pole_radius
        return list(zip(first[close].tolist(), second[close].tolist()))


@dataclass(frozen=True)
class TorusConfig(_PairGeometry):
    """Central-angle chart point of the concentric-circle space.

    ``angles`` stores (alpha1, alpha2) reduced to (-pi, pi]; the third
    angle is always derived as ``2*pi - alpha1 - alpha2`` so the sum
    constraint holds exactly.
    """

    radii: tuple[float, float, float]
    angles: tuple[float, float]
    #: points of the configuration, one charge each
    n: ClassVar[int] = 3

    def __post_init__(self) -> None:
        r = tuple(float(v) for v in self.radii)
        if len(r) != 3 or not all(math.isfinite(v) and v > 0.0 for v in r):
            raise ValueError(f"radii must be three positive reals, got {self.radii}")
        raw = tuple(float(v) for v in self.angles)
        if len(raw) != 2 or not all(math.isfinite(v) for v in raw):
            raise ValueError(f"angles must be the finite pair (alpha1, alpha2), "
                             f"got {self.angles}")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "angles", tuple(reduce_angle(v) for v in raw))

    @property
    def alpha3(self) -> float:
        return self.alphas[2]

    @property
    def alphas(self) -> tuple[float, float, float]:
        return tuple(torus_alphas(np.array([self.angles]))[0].tolist())

    def side_distances(self) -> tuple[float, float, float]:
        """(d1, d2, d3) where d_i is the distance of the pair opposite point i.

        Each side comes from the cosine rule on its own central angle,
        e.g. ``d3**2 = r1**2 + r2**2 - 2*r1*r2*cos(alpha3)``.
        """
        return tuple(self._pairs[::-1].tolist())

    def embedded_points(self) -> np.ndarray:
        """Plane embedding with the first point on the positive x-axis."""
        return torus_plane_points(self.radii, torus_alphas(np.array([self.angles])))[0]


def chord_distance(ra, rb, angle) -> np.ndarray:
    """Distance of points on circles of radii ``ra`` and ``rb`` at the
    central ``angle``, elementwise over arrays."""
    # cosine rule; the radicand is ((ra-rb)^2 + ...) >= 0, clip float dust
    val = ra * ra + rb * rb - 2.0 * ra * rb * np.cos(angle)
    return np.sqrt(np.maximum(val, 0.0))


def torus_alphas(angles: np.ndarray) -> np.ndarray:
    """Central angles ``(k, 3)`` of a stack of chart points ``(k, 2)``:
    the stored pair and the derived third, reduced to (-pi, pi]."""
    alphas = np.empty((len(angles), 3))
    alphas[:, :2] = angles
    alphas[:, 2] = reduce_angles(TWO_PI - angles[:, 0] - angles[:, 1])
    return alphas


def torus_side_distances(radii: Sequence[float], alphas: np.ndarray) -> np.ndarray:
    """Side distances ``(k, 3)`` of a stack of central-angle triples;
    column ``i`` is the distance of the pair opposite point ``i``."""
    r = np.asarray(radii, dtype=float)
    return chord_distance(r[[1, 2, 0]], r[[2, 0, 1]], alphas)


def torus_plane_points(radii: Sequence[float], alphas: np.ndarray) -> np.ndarray:
    """Plane embeddings ``(k, 3, 2)`` of a stack of central-angle triples,
    the first point on the positive x-axis."""
    # point 2 sits alpha3 past point 1, then alpha1 on to point 3
    theta = np.zeros_like(alphas)
    theta[:, 1] = alphas[:, 2]
    theta[:, 2] = alphas[:, 2] + alphas[:, 0]
    r = np.asarray(radii, dtype=float)
    points = np.empty(alphas.shape + (2,))
    points[..., 0] = r * np.cos(theta)
    points[..., 1] = r * np.sin(theta)
    return points


Config = PolygonConfig | TorusConfig


def config_rows(config: Config) -> tuple[np.ndarray, tuple[float, float, float] | None]:
    """A configuration as a stack of one: vertex rows ``(1, n, 2)`` and
    ``None``, or chart rows ``(1, 2)`` and the radii."""
    if isinstance(config, PolygonConfig):
        return config.points[None], None
    return np.array([config.angles]), config.radii


def row_config(row: np.ndarray, radii: tuple[float, float, float] | None = None) -> Config:
    """The configuration of one canonical row, the inverse of
    ``config_rows``: gauge-fixed vertices ``(n, 2)`` (``radii`` is
    ``None``) or a reduced chart point ``(2,)``.  Nothing is re-gauged."""
    if radii is None:
        return PolygonConfig(row)
    return TorusConfig(radii, (row[0], row[1]))


def pole_radius_of(radii: Sequence[float] | None = None) -> float:
    """Pair distance below which two points coincide (the energy has a
    pole there): ``POLE_RADIUS_FACTOR`` times the perimeter of a polygon
    (``radii`` is ``None``), or times the smallest radius of the circles."""
    return POLE_RADIUS_FACTOR * (1.0 if radii is None else min(radii))


def pair_distances(rows: np.ndarray, radii: Sequence[float] | None = None) -> np.ndarray:
    """Pair distances ``(k, P)`` of a stack of polygon vertices
    ``(k, n, 2)`` or, with ``radii``, torus chart points ``(k, 2)``;
    pairs ``i < j`` run in ``pair_indices`` order."""
    if radii is not None:
        # pairs (0, 1), (0, 2), (1, 2) are the sides opposite points 2, 1, 0
        return torus_side_distances(radii, torus_alphas(rows))[:, ::-1]
    first, second = pair_indices(rows.shape[1])
    diff = rows[:, first] - rows[:, second]
    return np.sqrt((diff ** 2).sum(axis=2))


def plane_points(rows: np.ndarray, radii: Sequence[float] | None = None) -> np.ndarray:
    """Points in the plane ``(k, n, 2)`` of a stack of polygon vertices
    (the rows themselves) or, with ``radii``, torus chart points."""
    return rows if radii is None else torus_plane_points(radii, torus_alphas(rows))


def pairwise_distances(config: Config) -> np.ndarray:
    """Symmetric matrix of pairwise distances, zero diagonal."""
    pairs = pair_distances(*config_rows(config))[0]
    first, second = pair_indices(config.n)
    d = np.zeros((config.n, config.n))
    d[first, second] = d[second, first] = pairs
    return d


@functools.cache
def _cyclic_next(n: int) -> np.ndarray:
    """Index (read-only) of the vertex after each of ``n`` cyclic vertices."""
    nxt = np.roll(np.arange(n), -1)
    nxt.setflags(write=False)
    return nxt


def perimeter_value(points: np.ndarray) -> np.ndarray:
    """Cyclic perimeter of the vertices ``(n, 2)``, or of each polygon of
    a stack ``(k, n, 2)``: edge ``i`` runs from vertex ``i`` to ``i + 1``
    (mod n) and the edge lengths add up in vertex order."""
    edges = points.take(_cyclic_next(points.shape[-2]), axis=-2) - points
    return np.sqrt((edges ** 2).sum(axis=-1)).sum(axis=-1)


def triangle_vertices(sides: Sequence[float], flip: bool = False) -> np.ndarray | None:
    """Vertices of the triangle whose side ``i`` is opposite vertex ``i``.

    Vertex 0 sits at the origin, vertex 1 on the positive x-axis and
    vertex 2 above it (below with ``flip``).  Returns ``None`` unless the
    sides satisfy the strict triangle inequality with a positive height.
    """
    l1, l2, l3 = sides
    if not (l1 < l2 + l3 and l2 < l3 + l1 and l3 < l1 + l2):
        return None
    x = (l3 * l3 + l2 * l2 - l1 * l1) / (2.0 * l3)
    y2 = l2 * l2 - x * x
    if y2 <= 0.0:
        return None
    y = math.sqrt(y2)
    return np.array([[0.0, 0.0], [l3, 0.0], [x, -y if flip else y]])


def gauge_fix(points: np.ndarray) -> np.ndarray:
    """Translate vertex 0 to the origin, rotate the gauge vertex onto the
    non-negative x half-axis and renormalize the perimeter to one.

    Works row by row on a stack ``(k, n, 2)``; one configuration
    ``(n, 2)`` is a stack of one.  The gauge vertex is the first vertex
    off the origin.  A row that is not finite, or whose vertices all
    coincide so that there is no perimeter to rescale by, comes back as
    NaN, which ``PolygonConfig`` rejects.
    """
    pts = np.array(points, dtype=float)
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    # NaN propagates quietly, where inf arithmetic would warn
    pts[~np.isfinite(pts).all(axis=(1, 2))] = np.nan
    pts -= pts[:, :1]
    off = (pts[:, 1:] != 0.0).any(axis=2)
    rows = np.flatnonzero(off.any(axis=1))
    gauge = off[rows].argmax(axis=1) + 1
    x = pts[rows, gauge, 0]
    y = pts[rows, gauge, 1]
    # math.hypot, not np.hypot: the two differ in the last bit
    r = np.array([math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())])
    rot = np.empty((len(rows), 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = x / r
    rot[:, 0, 1] = y / r
    rot[:, 1, 0] = -rot[:, 0, 1]
    # multiply by the transposed view, which rounds like ``pts @ rot.T``
    # on one configuration
    pts[rows] = pts[rows] @ np.swapaxes(rot, 1, 2)
    pts[rows, gauge, 0] = r
    pts[rows, gauge, 1] = 0.0
    per = perimeter_value(pts)
    flat = per <= 0.0
    # skip the division for pure rounding dust so re-gauging an
    # already canonical configuration is a bitwise no-op
    scale = ~flat & (np.abs(per - 1.0) > 4.0 * np.finfo(float).eps)
    np.divide(pts, per[:, None, None], out=pts, where=scale[:, None, None])
    # a subnormal gauge vertex can round to the origin in the division:
    # fix those rows again, from their next vertex off the origin
    again = rows[pts[rows, gauge, 0] == 0.0]
    if again.size:
        pts[again] = gauge_fix(pts[again])
    pts[:, 0] = 0.0
    # kill signed zeros so reflected copies compare bit-for-bit
    pts += 0.0
    pts[flat] = np.nan
    return pts[0] if single else pts


def mirror_rows(rows: np.ndarray, radii: Sequence[float] | None = None) -> np.ndarray:
    """Mirror images across the gauge axis of a stack of canonical rows:
    gauge-fixed polygon vertices ``(k, n, 2)`` (``radii`` is ``None``) or
    reduced torus chart points ``(k, 2)``.

    The reflection of a gauge-fixed polygon is gauge-fixed with the same
    perimeter bits and the negated angles of a reduced chart point are
    reduced again, so the mirrors are canonical as they stand.
    """
    if radii is not None:
        return reduce_angles(-rows)
    mirrored = rows.copy()
    mirrored[..., 1] = -mirrored[..., 1] + 0.0
    return mirrored


def apply_involution(config: Config) -> Config:
    """Reflect across the gauge axis, ``mirror_rows`` on a stack of one.

    Aligned configurations are fixed points; applying the involution
    twice returns the input exactly.
    """
    rows, radii = config_rows(config)
    return row_config(mirror_rows(rows, radii)[0], radii)


def alignment_defect(config: Config) -> float:
    """Max distance of any point to the best-fit line, or 0 if collinear."""
    rows, radii = config_rows(config)
    return float(alignment_defects(plane_points(rows, radii), pair_distances(rows, radii))[0])


def alignment_defects(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Alignment defects ``(k,)`` of a stack of plane points ``(k, n, 2)``
    with their pair distances ``(k, P)``.

    The defect is the max distance of a point to the best-fit line, the
    largest principal axis of the centered second moment; a defect below
    ``ALIGNMENT_TOL`` times the diameter counts as exactly collinear (0).
    """
    centered = points - points.mean(axis=1, keepdims=True)
    moment = np.swapaxes(centered, 1, 2) @ centered
    _, eigvecs = np.linalg.eigh(moment)
    normal = eigvecs[:, :, :1]  # smallest-variance axis is the line normal
    defect = np.abs(centered @ normal)[..., 0].max(axis=1)
    diam = pairs.max(axis=1)
    return np.where((diam == 0.0) | (defect <= ALIGNMENT_TOL * diam), 0.0, defect)


def distance_key(config: Config) -> tuple[int, ...]:
    """Sorted distance multiset rounded to ``10**-KEY_DECIMALS``, as a
    hashable key.

    Reflection partners share a key because reflections preserve all
    pairwise distances.
    """
    scaled = pair_distances(*config_rows(config))[0] * 10 ** KEY_DECIMALS
    return tuple(np.sort(np.rint(scaled)).astype(np.int64).tolist())


def canonicalize(config: Config | np.ndarray) -> tuple[Config, tuple[int, ...]]:
    """Return the canonical representative and its symmetry key.

    A ``PolygonConfig`` or ``TorusConfig`` is canonical by construction
    and comes back as it is: canonical rows are never re-gauged.  A raw
    (n, 2) vertex array is gauge-fixed and rescaled to perimeter one.
    Idempotent: canonicalizing twice gives the same bits.
    """
    if not isinstance(config, (PolygonConfig, TorusConfig)):
        config = PolygonConfig.from_points(np.asarray(config, dtype=float))
    return config, distance_key(config)


def serialize_config(config: Config, charges: ChargeVector | None = None) -> dict:
    """JSON-ready dict; field names are part of the CLI wire format."""
    out: dict = {}
    if isinstance(config, PolygonConfig):
        out["space"] = "polygon"
        out["points"] = [[float(x), float(y)] for x, y in config.points]
    else:
        out["space"] = "torus"
        out["angles"] = [float(a) for a in config.angles]
        out["radii"] = [float(r) for r in config.radii]
    if charges is not None:
        out["charges"] = [float(v) for v in charges.q]
    return out


def deserialize_config(data: dict) -> tuple[Config, ChargeVector | None]:
    """The configuration and the charges (``None`` when absent) of a
    ``serialize_config`` dict; ``ValueError`` when ``data`` is not one."""
    if not isinstance(data, dict):
        raise ValueError(f"a configuration is a JSON object, got {type(data).__name__}")
    space = data.get("space")
    charges = ChargeVector.of(_numbers(data, "charges")) if data.get("charges") else None
    if space == "polygon":
        points = np.asarray(data["points"])
        if points.dtype.kind not in "iuf":
            raise ValueError(f"points must be numbers, got {data['points']!r}")
        return PolygonConfig(points), charges
    if space == "torus":
        return TorusConfig(_numbers(data, "radii"), _numbers(data, "angles")), charges
    raise ValueError(f"unknown space {space!r}")


def _numbers(data: dict, key: str) -> tuple:
    """The numbers listed under ``key``; ``ValueError`` for any other value."""
    values = data[key]
    if not (isinstance(values, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        raise ValueError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(values)
