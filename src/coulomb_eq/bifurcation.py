"""Control-triangle analysis and pitchfork branch tracing.

Normalized charge triples live on the open simplex (the control
triangle).  On the polygon side the two-minima region is bounded by the
three curves where one inverse square-root charge equals the sum of the
other two; on the torus side the boundaries are the zero lines of the
aligned-Hessian sign forms.  Crossing a boundary is a supercritical
pitchfork: the aligned equilibrium sheds a mirror pair of minima whose
transverse amplitude grows like the square root of the distance past
the threshold, while the aligned point itself turns from minimum to
saddle without moving (the fixing effect).  The trace reads the
threshold from these closed forms and the mirror pair at each
branch-side sample from the census (``find_critical_points``), which is
exact on both spaces it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import morse, potentials as pot
from .inverse import intermediate_charge_limit
from .potentials import COULOMB, PotentialSpec
from .solver import (
    CriticalPoint,
    PolygonSpace,
    Space,
    TorusSpace,
    enumerate_aligned,
    find_critical_points,
)
from .spaces import (
    ChargeVector,
    Config,
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    pair_distances,
    reduce_angle,
)

#: distance past the threshold within which the amplitude exponent is fit
FIT_WINDOW = 0.05


@dataclass(frozen=True)
class ControlPoint:
    """Normalized charge triple (barycentric coordinates in the control triangle)."""

    charges: tuple[float, float, float]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.charges)
        if len(c) != 3 or min(c) <= 0.0:
            raise ValueError("control point needs three positive charges")
        total = sum(c)
        object.__setattr__(self, "charges", tuple(v / total for v in c))


@dataclass(frozen=True)
class BifurcationCurve:
    """One boundary component of the control-triangle partition."""

    label: str
    samples: tuple[ControlPoint, ...]


@dataclass(frozen=True)
class BranchPoint:
    """One critical point at one parameter sample of a pitchfork trace."""

    lam: float
    control: tuple[float, float, float]
    branch: str  # "aligned" | "upper" | "lower"
    amplitude: float
    stability: str  # "min" | "saddle" | "degenerate"
    energy: float


@dataclass(frozen=True)
class BranchDiagram:
    """Sampled pitchfork branches along a one-parameter charge path."""

    space: str
    threshold: float
    branch_side: str  # "above" | "below": where the mirror pair lives
    points: tuple[BranchPoint, ...]

    def branch_amplitudes(self, branch: str) -> list[tuple[float, float]]:
        return [(p.lam, p.amplitude) for p in self.points if p.branch == branch]


@dataclass(frozen=True)
class ChargeSweep:
    """Charge path that replaces charge ``index`` of ``base`` by the parameter."""

    base: tuple[float, ...]
    index: int

    def __call__(self, lam: float) -> ChargeVector:
        return ChargeVector.of([lam if i == self.index else q for i, q in enumerate(self.base)])


def charge_sweep_path(base: Sequence[float], sweep_index: int) -> ChargeSweep:
    """Path that replaces one charge of ``base`` by the parameter."""
    if not 0 <= sweep_index < len(base):
        raise ValueError("sweep index out of range")
    return ChargeSweep(tuple(float(v) for v in base), sweep_index)


# ---------------------------------------------------------------------------
# bifurcation sets
# ---------------------------------------------------------------------------

def polygon_bifurcation_set(resolution: int = 200,
                            spec: PotentialSpec = COULOMB) -> list[BifurcationCurve]:
    """The three boundary curves of the two-minima region of the control
    triangle, one per choice of intermediate vertex.

    On the curve of vertex ``v`` the aligned configuration with ``v``
    intermediate is degenerate: ``q_v**-p`` equals the sum of ``q**-p``
    over the other two charges, with the kernel's ``ratio_exponent`` p.
    """
    if resolution < 16:
        raise ValueError("resolution below 16 is too coarse to be useful")
    p = spec.ratio_exponent
    curves = []
    for vertex in range(3):
        samples = []
        for k in range(resolution):
            t = (k + 0.5) / resolution
            # share of the swept charge that zeroes the boundary defect:
            # s**-p = (t**-p + (1-t)**-p) * (1-s)**-p
            s = 1.0 / (1.0 + (t ** -p + (1.0 - t) ** -p) ** (1.0 / p))
            q = [0.0, 0.0, 0.0]
            q[vertex] = s
            j, l = [i for i in range(3) if i != vertex]
            q[j] = (1.0 - s) * t
            q[l] = (1.0 - s) * (1.0 - t)
            samples.append(ControlPoint(tuple(q)))
        curves.append(BifurcationCurve(f"q{vertex + 1}", tuple(samples)))
    return curves


def torus_label_name(label: Sequence[float]) -> str:
    return "-".join("pi" if abs(v) > 1.0 else "0" for v in label)


def torus_bifurcation_set(radii: Sequence[float], resolution: int = 200,
                          spec: PotentialSpec = COULOMB) -> list[BifurcationCurve]:
    """Zero lines of the kernel's sign-changing aligned-Hessian forms
    inside the control triangle (the all-zero label's form never
    vanishes there)."""
    if resolution < 16:
        raise ValueError("resolution below 16 is too coarse to be useful")
    curves = []
    for label in TORUS_ALIGNED_LABELS:
        coeffs = morse.torus_aligned_hessian_form(radii, label, spec)
        positive = [i for i in range(3) if coeffs[i] > 0.0]
        if len(positive) != 1:
            continue  # definite form: no zero line inside the triangle
        p = positive[0]
        m1, m2 = [i for i in range(3) if i != p]
        end_a = np.zeros(3)
        end_a[p] = -coeffs[m2]
        end_a[m2] = coeffs[p]
        end_a /= end_a.sum()
        end_b = np.zeros(3)
        end_b[p] = -coeffs[m1]
        end_b[m1] = coeffs[p]
        end_b /= end_b.sum()
        samples = []
        for k in range(resolution):
            u = (k + 0.5) / resolution
            q = (1.0 - u) * end_a + u * end_b
            samples.append(ControlPoint(tuple(q / q.sum())))
        curves.append(BifurcationCurve(torus_label_name(label), tuple(samples)))
    return curves


# ---------------------------------------------------------------------------
# threshold detection along a charge path
# ---------------------------------------------------------------------------

def _aligned(space: Space, charges: ChargeVector,
             spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray]:
    """The ``enumerate_aligned`` rows of the space with the softest
    eigenvalue of each, from one stacked call: the smallest transverse
    Hessian eigenvalue of an aligned polygon, or the smallest Hessian
    eigenvalue of a torus row (``PoleError`` when a row sits on a pole)."""
    rows = enumerate_aligned(space, charges, spec)
    radii = space.radii if isinstance(space, TorusSpace) else None
    pot.regular_pairs(rows, radii)
    if radii is None:
        return rows, morse.transverse_min_eigenvalues(rows, charges, spec)
    _, hess = pot.chart_derivatives(rows, radii, charges, spec)
    return rows, np.linalg.eigvalsh(hess)[:, 0]


def _row_thresholds(space: Space, path: ChargeSweep,
                    spec: PotentialSpec) -> list[tuple[int, float, str]]:
    """``(tracked, threshold, branch_side)`` of every ``enumerate_aligned``
    row that buckles at a positive swept charge: its index, that charge,
    and the side of it where the row is a saddle and carries the mirror
    pair.  A polygon row buckles where ``q**-p`` of its intermediate
    charge is the sum over the outer two; a torus row whose sign form has
    one positive coefficient (a curve of ``torus_bifurcation_set``) where
    the form, linear in the charges, is zero.
    """
    q, s = path.base, path.index
    found = []
    if isinstance(space, TorusSpace):
        for tracked, label in enumerate(TORUS_ALIGNED_LABELS):
            c = morse.torus_aligned_hessian_form(space.radii, label, spec)
            lam = -sum(c[i] * q[i] for i in range(3) if i != s) / c[s]
            if (c > 0.0).sum() == 1 and lam > 0.0:
                found.append((tracked, float(lam), "below" if c[s] > 0.0 else "above"))
        return found
    p = spec.ratio_exponent
    # raising the intermediate charge or lowering an outer one buckles a row
    for tracked in range(3):
        if tracked == s:
            outer = [q[i] for i in range(3) if i != s]
            found.append((tracked, intermediate_charge_limit(*outer, spec), "above"))
            continue
        base = q[tracked] ** -p - q[3 - tracked - s] ** -p
        if base > 0.0:
            found.append((tracked, base ** (-1.0 / p), "below"))
    return found


def _locate_crossing(space: Space, path: ChargeSweep, lam_range: tuple[float, float],
                     spec: PotentialSpec) -> tuple[int, float, str]:
    """The unique aligned configuration that buckles inside the range,
    ends included: ``(tracked, threshold, branch_side)`` of
    ``_row_thresholds``."""
    lo, hi = lam_range
    if not lo < hi:
        raise ValueError("empty parameter range")
    if not (0.0 < lo and hi < np.inf):
        raise ValueError("parameter range must be positive and finite")
    if space.n != 3:
        raise ValueError("pitchfork tracing covers three charges only")
    hits = [row for row in _row_thresholds(space, path, spec) if lo <= row[1] <= hi]
    if not hits:
        raise ValueError("path does not cross any bifurcation curve in range")
    if len(hits) != 1:
        raise ValueError(f"path must cross exactly one bifurcation curve, found {len(hits)}")
    return hits[0]


def detect_threshold(space: Space, path: ChargeSweep,
                     lam_range: tuple[float, float],
                     spec: PotentialSpec = COULOMB) -> float:
    """Parameter value where the tracked aligned configuration turns
    degenerate, from the closed forms of ``_row_thresholds``."""
    return _locate_crossing(space, path, lam_range, spec)[1]


# ---------------------------------------------------------------------------
# branch tracing
# ---------------------------------------------------------------------------

def _amplitude(tracked: int, config: Config) -> float:
    """Signed transverse coordinate of an off-axis point: for a polygon
    the height of the intermediate vertex ``tracked`` in the frame whose
    x-axis joins the two outer vertices, for the torus the deviation of
    the derived angle from its value in aligned label ``tracked``."""
    if isinstance(config, TorusConfig):
        return reduce_angle(config.alpha3 - TORUS_ALIGNED_LABELS[tracked][2])
    outer = [i for i in range(3) if i != tracked]
    a, b = config.points[outer[0]], config.points[outer[1]]
    axis = b - a
    axis = axis / np.linalg.norm(axis)
    rel = config.points[tracked] - a
    return float(axis[0] * rel[1] - axis[1] * rel[0])


def _stability(degenerate: bool, minimum: bool) -> str:
    """The stability label of a branch point."""
    return "degenerate" if degenerate else ("min" if minimum else "saddle")


def _aligned_branch_point(space: Space, tracked: int, lam: float,
                          charges: ChargeVector, spec: PotentialSpec,
                          ) -> BranchPoint:
    control = tuple(float(v) for v in charges.normalized)
    rows, eigs = _aligned(space, charges, spec)
    eig = float(eigs[tracked])
    radii = space.radii if isinstance(space, TorusSpace) else None
    energy = pot.pair_energies(pair_distances(rows[tracked:tracked + 1], radii),
                               charges, spec)[0]
    stability = _stability(morse.classify_spectrum((eig,))[1], eig > 0.0)
    return BranchPoint(lam, control, "aligned", 0.0, stability, float(energy))


def trace_pitchfork(space: Space, path: ChargeSweep,
                    lam_range: tuple[float, float], steps: int = 40,
                    spec: PotentialSpec = COULOMB) -> BranchDiagram:
    """Sample the aligned branch and the off-axis mirror pair along a
    charge path crossing one bifurcation curve.

    The aligned branch is present at every parameter value (amplitude
    zero; its stability flips at the threshold); the mirror pair exists
    only on the side where the aligned point is a saddle.  There it is
    read from the census of each parameter value (``_mirror_pair``).
    The threshold and that side are the closed forms of
    ``detect_threshold``.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    tracked, threshold, branch_side = _locate_crossing(space, path, lam_range, spec)
    points: list[BranchPoint] = []
    for lam in np.linspace(lam_range[0], lam_range[1], steps):
        lam = float(lam)
        charges = path(lam)
        points.append(_aligned_branch_point(space, tracked, lam, charges, spec))
        if lam != threshold and (lam > threshold) == (branch_side == "above"):
            points.extend(_mirror_pair(space, tracked, lam, charges, spec))
    return BranchDiagram(space.name, threshold, branch_side, tuple(points))


def _mirror_pair(space: Space, tracked: int, lam: float, charges: ChargeVector,
                 spec: PotentialSpec) -> list[BranchPoint]:
    """The off-axis points of the census at one branch-side parameter
    value, upper (amplitude >= 0) first: the mirror pair, or nothing
    when the census has no off-axis point there.  Any other count is
    not a pitchfork's pair and raises ``ValueError``."""
    offs = [cp for cp in find_critical_points(space, charges, spec) if not cp.aligned]
    if len(offs) not in (0, 2):
        raise ValueError(f"census at lambda={lam!r} has {len(offs)} off-axis points, "
                         "not a mirror pair")
    control = tuple(float(v) for v in charges.normalized)
    entries = sorted(((_amplitude(tracked, cp.config), cp) for cp in offs),
                     key=lambda e: -e[0])
    return [BranchPoint(lam, control, "upper" if amp >= 0.0 else "lower", amp,
                        _stability(cp.degenerate, cp.morse_index == 0), cp.energy)
            for amp, cp in entries]


def fit_branch_exponent(diagram: BranchDiagram) -> float:
    """Least-squares slope of log amplitude vs log distance past the
    threshold, over the upper branch within ``FIT_WINDOW`` of the threshold."""
    pts = [(abs(p.lam - diagram.threshold), abs(p.amplitude))
           for p in diagram.points
           if p.branch == "upper" and 0.0 < abs(p.lam - diagram.threshold) <= FIT_WINDOW
           and p.amplitude != 0.0]
    if len(pts) < 3:
        raise ValueError("not enough branch samples inside the fit window")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# region scans and the fixing-effect probe
# ---------------------------------------------------------------------------

def three_charge_equilibria(charges: ChargeVector,
                            spec: PotentialSpec = COULOMB) -> list[CriticalPoint]:
    """All equilibria of three polygon charges: the closed-form census
    (triangle pair plus the three collinear arrangements)."""
    return find_critical_points(PolygonSpace(3), charges, spec)


def count_polygon_minima(charges: ChargeVector,
                         spec: PotentialSpec = COULOMB) -> int:
    """Number of non-degenerate minima of three polygon charges."""
    pts = three_charge_equilibria(charges, spec)
    return sum(1 for cp in pts if not cp.degenerate and cp.morse_index == 0)


@dataclass(frozen=True)
class FixingProbeSample:
    intermediate_charge: float
    d_left: float
    d_right: float

    @property
    def ratio(self) -> float:
        return self.d_left / self.d_right


@dataclass(frozen=True)
class FixingProbeResult:
    threshold: float
    included: tuple[FixingProbeSample, ...]
    excluded: tuple[tuple[float, str], ...]


def fixing_effect_probe(q1: float, q3: float, q2_samples: Sequence[float],
                        spec: PotentialSpec = COULOMB) -> FixingProbeResult:
    """Measure the position of the intermediate vertex of the global
    minimum across intermediate-charge values below the threshold.

    Below the threshold the global minimum is the aligned arrangement
    and the split of the segment is independent of the intermediate
    charge; samples at or above the threshold are excluded with a note
    (there the minimum leaves the line).  The threshold is the closed form.
    """
    threshold = intermediate_charge_limit(q1, q3, spec)
    included = []
    excluded = []
    for q2 in q2_samples:
        if q2 >= threshold:
            excluded.append((float(q2), "at or above the pitchfork threshold"))
            continue
        charges = ChargeVector.of([q1, q2, q3])
        pts = three_charge_equilibria(charges, spec)
        best = min(pts, key=lambda cp: cp.energy)
        d = best.config.points
        d12 = float(np.linalg.norm(d[0] - d[1]))
        d23 = float(np.linalg.norm(d[1] - d[2]))
        included.append(FixingProbeSample(float(q2), d12, d23))
    return FixingProbeResult(threshold, tuple(included), tuple(excluded))
