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
from .inverse import intermediate_charge_limit
from .potentials import COULOMB, PotentialSpec
from .solver import (
    CriticalPoint,
    PolygonSpace,
    Space,
    TorusSpace,
    closed_form_seeds,
    enumerate_aligned,
    polish_candidates,
)
from .spaces import (
    ChargeVector,
    Config,
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    pair_distances,
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


def _tracked_eig(space: Space, path: ChargePath, tracked: int,
                 spec: PotentialSpec) -> Callable[[float], float]:
    """Softest eigenvalue of aligned configuration ``tracked`` (its index in
    ``enumerate_aligned``) as a function of the path parameter."""
    return lambda lam: float(_aligned(space, path(lam), spec)[1][tracked])


def _locate_crossing(space: Space, path: ChargePath, lam_range: tuple[float, float],
                     spec: PotentialSpec) -> tuple[int, float, float, str]:
    """Find the unique aligned configuration whose softest eigenvalue
    changes sign along the path.

    Every scan sample evaluates the softest eigenvalues of every aligned
    configuration in one ``_aligned`` call.  Returns ``(tracked, lo, hi,
    branch_side)``: the index of the configuration in
    ``enumerate_aligned``, the scan interval that brackets its sign
    change, and ``"above"`` or ``"below"`` for the side of the threshold
    where it is a saddle (the side that carries the mirror pair).
    """
    lo, hi = lam_range
    if not lo < hi:
        raise ValueError("empty parameter range")
    if space.n != 3:
        raise ValueError("pitchfork tracing covers three charges only")
    lams = np.linspace(lo, hi, SCAN_SAMPLES)
    vals = np.array([_aligned(space, path(lam), spec)[1] for lam in lams])
    # a sign change between two samples is one crossing, and so is a
    # sample on the threshold exactly (its products with both neighbours
    # are zero); its bracket is the sample alone
    flips = [(start, tracked, start + 1)
             for start, tracked in np.argwhere(vals[:-1] * vals[1:] < 0.0)]
    flips += [(start, tracked, start) for start, tracked in np.argwhere(vals == 0.0)]
    if not flips:
        raise ValueError("path does not cross any bifurcation curve in range")
    if len(flips) != 1:
        raise ValueError(f"path must cross exactly one bifurcation curve, found {len(flips)}")
    start, tracked, end = flips[0]
    branch_side = "above" if vals[-1, tracked] < 0.0 or vals[0, tracked] > 0.0 else "below"
    return int(tracked), lams[start], lams[end], branch_side


def detect_threshold(space: Space, path: ChargePath,
                     lam_range: tuple[float, float],
                     spec: PotentialSpec = COULOMB) -> float:
    """Parameter value where the tracked aligned configuration turns
    degenerate, located by bisection on its smallest transverse eigenvalue."""
    tracked, lo, hi, _ = _locate_crossing(space, path, lam_range, spec)
    return _bisect_crossing(_tracked_eig(space, path, tracked, spec), lo, hi)


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


def _kick_seeds(space: Space, tracked: int, charges: ChargeVector,
                spec: PotentialSpec, distance: float = 0.0) -> list[np.ndarray]:
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
    row = enumerate_aligned(space, charges, spec)[tracked:tracked + 1]
    if isinstance(space, PolygonSpace):
        direction = morse.transverse_soft_directions(row, charges, spec)[0]
    else:
        _, hess = pot.chart_derivatives(row, space.radii, charges, spec)
        direction = np.linalg.eigh(hess[0])[1][:, 0]
    return [row[0] + sign * kick * direction
            for kick in sorted(kicks) for sign in (1.0, -1.0)]


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


def trace_pitchfork(space: Space, path: ChargePath,
                    lam_range: tuple[float, float], steps: int = 40,
                    spec: PotentialSpec = COULOMB) -> BranchDiagram:
    """Sample the aligned branch and the off-axis mirror pair along a
    charge path crossing one bifurcation curve.

    The aligned branch is present at every parameter value (amplitude
    zero; its stability flips at the threshold); the mirror pair exists
    only on the side where the aligned point is a saddle.  It is acquired
    from seeds nudged off the aligned point and continued by polishing
    each step's pair at the next parameter value (``_walk_branch``).
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    tracked, lo, hi, branch_side = _locate_crossing(space, path, lam_range, spec)
    threshold = _bisect_crossing(_tracked_eig(space, path, tracked, spec), lo, hi)
    lams = [float(v) for v in np.linspace(lam_range[0], lam_range[1], steps)]
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


def _off_axis(space: Space, charges: ChargeVector, seeds: list,
              spec: PotentialSpec) -> list[CriticalPoint]:
    """The critical points off the aligned configurations that the seeds
    polish to."""
    return [cp for cp in polish_candidates(space, charges, seeds, spec) if not cp.aligned]


def _walk_branch(space: Space, tracked: int, path: ChargePath, threshold: float,
                 targets: Sequence[float], spec: PotentialSpec,
                 ) -> dict[float, list[BranchPoint]]:
    """Continuation along the mirror-pair branch.

    A predictor-corrector walk: the pair polished at the last parameter
    (the carried pair) is the predictor, and polishing it alone at the
    trial parameter is the corrector.  When that gives the mirror pair
    (two off-axis points) they are the step's result.  Otherwise, and
    on the first step, where nothing is carried yet, the branch is
    acquired again from the carried configurations followed by seeds
    nudged off the aligned point (``_kick_seeds``); the carried seeds
    come first, so their points win the dedup.  When even that loses
    the branch (Newton slides back to the aligned saddle) the step is
    halved, down to a floor of 1e-6 in the parameter.  A target that
    even the floor step cannot reach gets no points, and the walk goes
    on to the next target from the last target reached, seeded with
    the pair of the last successful polish.
    """
    out: dict[float, list[BranchPoint]] = {}
    carried: list = []
    current = threshold
    for target in targets:
        position = current
        while position != target:
            step = target - position
            trial = target  # position + step may round one ulp off it
            while True:
                charges = path(trial)
                offs = _off_axis(space, charges, carried, spec) if carried else []
                if len(offs) == 2:
                    break
                seeds = carried + _kick_seeds(space, tracked, charges, spec,
                                              abs(trial - threshold))
                offs = _off_axis(space, charges, seeds, spec)
                if offs or abs(step) < 1e-6:
                    break
                step *= 0.5
                trial = position + step
            if not offs:
                break
            position = trial
            carried = [cp.config for cp in offs]
        if position != target:
            continue
        current = target
        # the last trial was the target: ``charges`` and ``offs`` are its own
        control = tuple(float(v) for v in charges.normalized)
        entries = sorted(((_amplitude(tracked, cp.config), cp) for cp in offs),
                         key=lambda e: -e[0])
        out[target] = [BranchPoint(target, control, "upper" if amp >= 0.0 else "lower",
                                   amp, _stability(cp.degenerate, cp.morse_index == 0),
                                   cp.energy)
                       for amp, cp in entries[:2]]
    return out


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
    """All equilibria of three polygon charges via the closed-form seeds
    (triangle pair plus the three collinear arrangements)."""
    return polish_candidates(PolygonSpace(3), charges, closed_form_seeds(charges, spec), spec)


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
