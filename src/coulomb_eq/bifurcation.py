"""Control-triangle analysis and pitchfork branch tracing.

Normalized charge triples live on the open simplex (the control
triangle).  On the polygon side the two-minima region is bounded by the
three curves where one inverse square-root charge equals the sum of the
other two; on the torus side the boundaries are the zero lines of the
aligned-Hessian sign forms.  Crossing a boundary is a supercritical
pitchfork: the aligned equilibrium sheds a mirror pair of minima whose
transverse amplitude grows like the square root of the distance past
the threshold, while the aligned point itself turns from minimum to
saddle without moving (the fixing effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import morse, potentials as pot
from .potentials import PotentialSpec
from .solver import (
    CriticalPoint,
    PolygonSpace,
    Space,
    critical_triangle,
    polish_candidates,
    solve_line_three,
)
from .spaces import (
    ChargeVector,
    Config,
    PolygonConfig,
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    apply_involution,
    reduce_angle,
)

ChargePath = Callable[[float], ChargeVector]

#: samples of the coarse scan used to bracket threshold crossings
SCAN_SAMPLES = 65
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

    @classmethod
    def of(cls, charges: ChargeVector | Sequence[float]) -> "ControlPoint":
        vals = charges.q if isinstance(charges, ChargeVector) else charges
        return cls(tuple(vals))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.charges)


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


def charge_sweep_path(base: Sequence[float], sweep_index: int) -> ChargePath:
    """Path that replaces one charge of ``base`` by the parameter."""
    fixed = [float(v) for v in base]
    if not 0 <= sweep_index < len(fixed):
        raise ValueError("sweep index out of range")

    def path(lam: float) -> ChargeVector:
        vals = list(fixed)
        vals[sweep_index] = lam
        return ChargeVector.of(vals)

    return path


# ---------------------------------------------------------------------------
# bifurcation sets
# ---------------------------------------------------------------------------

def polygon_boundary_equation(q: Sequence[float], vertex: int) -> float:
    """Defect of the aligned-minimum boundary for the given intermediate
    vertex: zero when its inverse root charge equals the sum of the others."""
    inv = [1.0 / math.sqrt(v) for v in q]
    others = sum(inv) - inv[vertex]
    return inv[vertex] - others


def polygon_bifurcation_set(resolution: int = 200) -> list[BifurcationCurve]:
    """The three boundary curves of the two-minima region of the control
    triangle, one per choice of intermediate vertex."""
    if resolution < 16:
        raise ValueError("resolution below 16 is too coarse to be useful")
    curves = []
    for vertex in range(3):
        samples = []
        for k in range(resolution):
            t = (k + 0.5) / resolution
            # share of the swept charge that zeroes the boundary defect:
            # 1/sqrt(s) = (t**-0.5 + (1-t)**-0.5) / sqrt(1-s)
            s = 1.0 / (1.0 + (t ** -0.5 + (1.0 - t) ** -0.5) ** 2)
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


def torus_bifurcation_set(radii: Sequence[float],
                          resolution: int = 200) -> list[BifurcationCurve]:
    """Zero lines of the sign-changing aligned-Hessian forms inside the
    control triangle (the all-zero label's form never vanishes there)."""
    if resolution < 16:
        raise ValueError("resolution below 16 is too coarse to be useful")
    curves = []
    for label in TORUS_ALIGNED_LABELS:
        coeffs = morse.torus_aligned_hessian_form(radii, label)
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

#: an aligned configuration a trace can follow: the intermediate vertex
#: of a collinear polygon, or a torus angle label
Tracked = int | tuple[float, float, float]


def _aligned_config(space: Space, tracked: Tracked, charges: ChargeVector,
                    spec: PotentialSpec) -> Config:
    if isinstance(space, PolygonSpace):
        return solve_line_three(charges, spec)[tracked]
    return morse.torus_label_config(space.radii, tracked)


def _softest_eig(config: Config, charges: ChargeVector, spec: PotentialSpec) -> float:
    """Smallest transverse Hessian eigenvalue of an aligned polygon, or
    smallest Hessian eigenvalue of a torus configuration."""
    if isinstance(config, PolygonConfig):
        return morse.transverse_min_eigenvalue(config, charges, spec)
    return float(np.linalg.eigvalsh(pot.hessian(config, charges, spec))[0])


def _candidate_eig_functions(space: Space, spec: PotentialSpec,
                             ) -> list[tuple[Tracked, Callable[[ChargeVector], float]]]:
    if isinstance(space, PolygonSpace):
        if space.n != 3:
            raise ValueError("pitchfork tracing covers three charges only")
        candidates: Sequence[Tracked] = range(3)
    else:
        candidates = TORUS_ALIGNED_LABELS
    return [(t, lambda q, t=t: _softest_eig(_aligned_config(space, t, q, spec), q, spec))
            for t in candidates]


def _locate_crossing(space: Space, path: ChargePath, lam_range: tuple[float, float],
                     spec: PotentialSpec) -> tuple[Tracked, Callable[[float], float],
                                                   float, float]:
    """Identify the unique candidate whose tracked eigenvalue changes sign
    along the path and return (tracked, eig(lam), bracket_lo, bracket_hi)."""
    lo, hi = lam_range
    if not lo < hi:
        raise ValueError("empty parameter range")
    lams = np.linspace(lo, hi, SCAN_SAMPLES)
    crossings = []
    for label, eig_of_q in _candidate_eig_functions(space, spec):
        f = lambda lam, e=eig_of_q: e(path(lam))
        vals = [f(lam) for lam in lams]
        brackets = [(lams[i], lams[i + 1]) for i in range(len(lams) - 1)
                    if vals[i] * vals[i + 1] < 0.0]
        if len(brackets) >= 1:
            crossings.append((label, f, brackets))
    if not crossings:
        raise ValueError("path does not cross any bifurcation curve in range")
    total = sum(len(b) for _, _, b in crossings)
    if total != 1:
        raise ValueError(f"path must cross exactly one bifurcation curve, found {total}")
    label, f, brackets = crossings[0]
    return label, f, brackets[0][0], brackets[0][1]


def detect_threshold(space: Space, path: ChargePath,
                     lam_range: tuple[float, float],
                     spec: PotentialSpec | None = None) -> float:
    """Parameter value where the tracked aligned configuration turns
    degenerate, located by bisection on its smallest transverse eigenvalue."""
    spec = spec or PotentialSpec.coulomb()
    _, eig, lo, hi = _locate_crossing(space, path, lam_range, spec)
    return _bisect_crossing(eig, lo, hi)


def _bisect_crossing(eig: Callable[[float], float], lo: float, hi: float) -> float:
    """Zero of ``eig`` inside the bracket ``[lo, hi]`` of a sign change."""
    flo = eig(lo)
    lo, hi = float(lo), float(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = eig(mid)
        if abs(fmid) < 1e-12:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# branch tracing
# ---------------------------------------------------------------------------

def _polygon_amplitude(config: PolygonConfig, vertex: int) -> float:
    """Signed transverse coordinate: the height of the intermediate vertex
    in the frame whose x-axis joins the two outer vertices."""
    outer = [i for i in range(3) if i != vertex]
    a, b = config.points[outer[0]], config.points[outer[1]]
    axis = b - a
    axis = axis / np.linalg.norm(axis)
    rel = config.points[vertex] - a
    return float(axis[0] * rel[1] - axis[1] * rel[0])


def _torus_amplitude(config: TorusConfig, label: Sequence[float]) -> float:
    """Signed deviation of the derived angle from its aligned value."""
    return reduce_angle(config.alpha3 - label[2])


def _kick_seeds(space: Space, tracked: Tracked, charges: ChargeVector,
                spec: PotentialSpec, distance: float = 0.0) -> list:
    """Seed configurations nudged off the tracked aligned configuration
    along its softest transverse direction, one per sign.

    ``distance`` is how far past the threshold the parameter sits; the
    kick sizes grow like its square root, matching the branch amplitude
    of a supercritical pitchfork.
    """
    kicks = {2e-3, 2e-2}
    if distance > 0.0:
        root = math.sqrt(distance)
        kicks.update(min(1.5 * root, 0.5) * f for f in (0.3, 0.7, 1.4))
    seeds = []
    aligned = _aligned_config(space, tracked, charges, spec)
    if isinstance(aligned, PolygonConfig):
        _, zy = pot.aligned_chart_basis(aligned.points)
        direction = zy[:, 0]
        for kick in sorted(kicks):
            for sign in (1.0, -1.0):
                pts = aligned.points.copy()
                pts[1:] += sign * kick * direction.reshape(-1, 2)
                seeds.append(pts)
        return seeds
    _, vecs = np.linalg.eigh(pot.hessian(aligned, charges, spec))
    soft = vecs[:, 0]
    base = np.array(aligned.angles)
    for kick in sorted(kicks):
        for sign in (1.0, -1.0):
            seeds.append(base + sign * kick * soft)
    return seeds


def _aligned_branch_point(space: Space, tracked: Tracked, lam: float,
                          charges: ChargeVector, spec: PotentialSpec,
                          ) -> BranchPoint:
    control = tuple(float(v) for v in charges.normalized)
    aligned = _aligned_config(space, tracked, charges, spec)
    eig = _softest_eig(aligned, charges, spec)
    energy = pot.energy(aligned, charges, spec)
    scale = max(1.0, abs(eig))
    if abs(eig) < 1e-9 * scale:
        stability = "degenerate"
    else:
        stability = "min" if eig > 0.0 else "saddle"
    return BranchPoint(lam, control, "aligned", 0.0, stability, float(energy))


def trace_pitchfork(space: Space, path: ChargePath,
                    lam_range: tuple[float, float], steps: int = 40,
                    spec: PotentialSpec | None = None) -> BranchDiagram:
    """Sample the aligned branch and the off-axis mirror pair along a
    charge path crossing one bifurcation curve.

    The aligned branch is present at every parameter value (amplitude
    zero; its stability flips at the threshold); the mirror pair exists
    only on the side where the aligned point is a saddle and is found by
    polishing nudged seeds, each step reusing the previous solutions.
    """
    spec = spec or PotentialSpec.coulomb()
    tracked, eig, lo, hi = _locate_crossing(space, path, lam_range, spec)
    threshold = _bisect_crossing(eig, lo, hi)
    lams = [float(v) for v in np.linspace(lam_range[0], lam_range[1], steps)]
    branch_side = "above" if eig(lam_range[1]) < 0.0 else "below"
    # walk outward from the threshold on the branch side so each polished
    # pair seeds the next parameter value
    on_side = [lam for lam in lams
               if (lam > threshold) == (branch_side == "above") and lam != threshold]
    on_side.sort(key=lambda lam: abs(lam - threshold))
    branch_points = _walk_branch(space, tracked, path, threshold, on_side, spec)
    points: list[BranchPoint] = []
    for lam in lams:
        charges = path(lam)
        points.append(_aligned_branch_point(space, tracked, lam, charges, spec))
        points.extend(branch_points.get(lam, ()))
    return BranchDiagram(space.name, threshold, branch_side, tuple(points))


def _off_branch_points(space: Space, charges: ChargeVector, seeds: list,
                       spec: PotentialSpec) -> list[CriticalPoint]:
    found = polish_candidates(space, charges, seeds, spec)
    return [cp for cp in found if not cp.aligned]


def _walk_branch(space: Space, tracked: Tracked, path: ChargePath, threshold: float,
                 targets: Sequence[float], spec: PotentialSpec,
                 ) -> dict[float, list[BranchPoint]]:
    """Continuation along the mirror-pair branch.

    Each polished pair seeds the next target; when a step loses the
    branch (Newton slides back to the aligned saddle) the step is
    halved, down to a floor of 1e-6 in the parameter.
    """
    out: dict[float, list[BranchPoint]] = {}
    carried: list = []
    current = threshold
    for target in targets:
        reached = False
        position = current
        while not reached:
            step = target - position
            offs: list[CriticalPoint] = []
            while True:
                trial = position + step
                dist = abs(trial - threshold)
                seeds = carried + _kick_seeds(space, tracked, path(trial),
                                              spec, dist)
                offs = _off_branch_points(space, path(trial), seeds, spec)
                if offs or abs(step) < 1e-6:
                    break
                step *= 0.5
            if not offs:
                break  # branch lost for good; later targets get no points
            position = trial
            carried = [cp.config for cp in offs]
            reached = trial == target
        if not reached:
            continue
        current = target
        charges = path(target)
        control = tuple(float(v) for v in charges.normalized)
        entries = []
        for cp in offs:
            amp = _amplitude(space, tracked, cp)
            stability = "degenerate" if cp.degenerate else \
                ("min" if cp.morse_index == 0 else "saddle")
            entries.append((amp, stability, cp))
        entries.sort(key=lambda e: -e[0])
        pts = []
        for amp, stability, cp in entries[:2]:
            name = "upper" if amp >= 0.0 else "lower"
            pts.append(BranchPoint(target, control, name, amp, stability,
                                   cp.energy))
        out[target] = pts
    return out


def _amplitude(space: Space, tracked: Tracked, cp: CriticalPoint) -> float:
    if isinstance(space, PolygonSpace):
        return _polygon_amplitude(cp.config, tracked)
    return _torus_amplitude(cp.config, tracked)


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
                            spec: PotentialSpec | None = None) -> list[CriticalPoint]:
    """All equilibria of three polygon charges via the closed-form seeds
    (triangle pair plus the three collinear arrangements)."""
    spec = spec or PotentialSpec.coulomb()
    seeds: list = list(solve_line_three(charges, spec))
    tri = critical_triangle(charges, spec)
    if tri is not None:
        seeds.append(tri)
        seeds.append(apply_involution(tri))
    return polish_candidates(PolygonSpace(3), charges, seeds, spec)


def count_polygon_minima(charges: ChargeVector,
                         spec: PotentialSpec | None = None) -> int:
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
                        spec: PotentialSpec | None = None) -> FixingProbeResult:
    """Measure the position of the intermediate vertex of the global
    minimum across intermediate-charge values below the threshold.

    Below the threshold the global minimum is the aligned arrangement
    and the split of the segment is independent of the intermediate
    charge; samples at or above the threshold are excluded with a note
    (there the minimum leaves the line).
    """
    spec = spec or PotentialSpec.coulomb()
    path = charge_sweep_path([q1, 1.0, q3], 1)
    hi = max(max(q2_samples) * 2.0, 1.0)
    threshold = detect_threshold(PolygonSpace(3), path, (1e-4, hi), spec)
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
