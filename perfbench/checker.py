"""Independent checks of every benchmark job's output.

Closed forms (triangle sides, collinear splits, sign-form zero lines,
inverse charges, the topological count) are computed here from the job
inputs, not taken from the package.  The package is used only for its
finite-difference oracles (``fd_gradient``, ``fd_hessian``), which do not
share code with the analytic derivatives the solver uses.

A census is a list of point records in the ``solve`` JSON format:
``{coords, energy, eigenvalues, index, aligned, degenerate, partner}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: stationarity: finite-difference gradient norm per unit energy scale
FD_GRAD_TOL = 1e-6
#: eigenvalue agreement with the finite-difference Hessian, per unit scale
FD_EIG_TOL = 1e-4
#: coordinate tolerance for mirror partners and distinct points
COORD_TOL = 1e-7
TWO_PI = 2.0 * math.pi
#: the four aligned angle pairs (alpha1, alpha2) of the circles space
TORUS_ALIGNED = ((math.pi, math.pi), (0.0, math.pi), (math.pi, 0.0), (0.0, 0.0))


@dataclass
class CensusVerdict:
    """Checker result for one census job."""

    problems: list[str] = field(default_factory=list)
    certified: bool = False
    alternating: int | None = None
    expected: int | None = None
    verified_points: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_space(text: str) -> tuple[str, int | tuple[float, float, float]]:
    kind, _, rest = text.partition(":")
    if kind == "polygon":
        return kind, int(rest)
    return kind, tuple(float(v) for v in rest.split(","))


def topological_count(space: str) -> int:
    """Alternating Morse count sum_k (-1)^k c_k the census must reach.

    Polygons: (-1)^n (n-2)! (Arnold 1969; Orlik-Solomon).  Circles: 0 for
    pairwise distinct radii, 2 when all three radii are equal.
    """
    kind, arg = parse_space(space)
    if kind == "polygon":
        return (-1) ** arg * math.factorial(arg - 2)
    r = arg
    if max(r) - min(r) < 1e-12:
        return 2
    if len(set(r)) == 3:
        return 0
    raise ValueError("two equal radii are not benchmarked")


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _coords(record: dict) -> np.ndarray:
    c = record["coords"]
    if c["space"] == "polygon":
        return np.asarray(c["points"], dtype=float)
    return np.asarray(c["angles"], dtype=float)


def _mirror_gap(a: np.ndarray, b: np.ndarray, kind: str) -> float:
    """Distance between the reflection of ``a`` and ``b``."""
    if kind == "polygon":
        # vertex 0 at the origin and vertex 1 on the x axis are fixed by
        # the reflection, so the mirror is the y-flip itself
        m = a.copy()
        m[:, 1] = -m[:, 1]
        return float(np.abs(m - b).max())
    return max(_angle_gap(-a[0], b[0]), _angle_gap(-a[1], b[1]))


def _same_point(a: np.ndarray, b: np.ndarray, kind: str) -> bool:
    if kind == "polygon":
        return bool(np.abs(a - b).max() < COORD_TOL)
    return max(_angle_gap(a[0], b[0]), _angle_gap(a[1], b[1])) < COORD_TOL


def _is_aligned(c: np.ndarray, kind: str) -> bool:
    if kind == "polygon":
        return bool(np.abs(c[:, 1]).max() <= 1e-9)
    return all(min(_angle_gap(a, 0.0), _angle_gap(a, math.pi)) < 1e-9 for a in c)


def _config(record: dict, space_kind: str, arg):
    from coulomb_eq.spaces import PolygonConfig, TorusConfig

    c = _coords(record)
    if space_kind == "polygon":
        return PolygonConfig(c)
    return TorusConfig(tuple(arg), (float(c[0]), float(c[1])))


def check_point(record: dict, space: str, charges) -> list[str]:
    """Stationarity and index of one reported point, against the
    finite-difference oracles."""
    from coulomb_eq import potentials
    from coulomb_eq.spaces import ChargeVector

    kind, arg = parse_space(space)
    problems = []
    c = _coords(record)
    if kind == "polygon":
        if c.shape != (arg, 2):
            return [f"coordinates have shape {c.shape}"]
        perimeter = float(np.linalg.norm(c - np.roll(c, -1, axis=0), axis=1).sum())
        if abs(perimeter - 1.0) > 1e-9 or np.abs(c[0]).max() != 0.0:
            problems.append("not a gauge-fixed perimeter-one polygon")
    try:
        cfg = _config(record, kind, arg)
    except ValueError as exc:
        return [f"invalid configuration: {exc}"]
    q = ChargeVector.of(charges)
    scale = max(1.0, abs(float(record["energy"])))
    grad = potentials.fd_gradient(cfg, q)
    if float(np.linalg.norm(grad)) > FD_GRAD_TOL * scale:
        problems.append(f"not stationary: fd gradient {np.linalg.norm(grad):.3g}")
    eigs = np.sort(np.asarray(record["eigenvalues"], dtype=float))
    if int(record["index"]) != int((eigs < 0.0).sum()):
        problems.append("index differs from the count of negative eigenvalues")
    fd_eigs = np.linalg.eigvalsh(potentials.fd_hessian(cfg, q))
    eig_scale = max(1.0, float(np.abs(fd_eigs).max()))
    if eigs.shape != fd_eigs.shape or \
            float(np.abs(eigs - fd_eigs).max()) > FD_EIG_TOL * eig_scale:
        problems.append("eigenvalues differ from the finite-difference Hessian")
    elif not record["degenerate"]:
        decided = np.abs(fd_eigs) > FD_EIG_TOL * eig_scale
        if int((fd_eigs[decided] < 0.0).sum()) != int((eigs[decided] < 0.0).sum()):
            problems.append("index differs from the finite-difference Hessian")
    if bool(record["aligned"]) != _is_aligned(c, kind):
        problems.append("aligned flag does not match the geometry")
    return problems


def _polygon3_rules(points: list[dict], charges) -> list[str]:
    """Closed-form census of three charges: regime counts, triangle
    sides proportional to q**-1/2, collinear splits sqrt(q_l / q_r)."""
    q = np.asarray(charges, dtype=float)
    inv = q ** -0.5
    triangle = bool(2.0 * inv.max() < inv.sum())
    want = (2, 3) if triangle else (1, 2)
    minima = [p for p in points if p["index"] == 0 and not p["degenerate"]]
    saddles = [p for p in points if p["index"] == 1 and not p["degenerate"]]
    problems = []
    if (len(minima), len(saddles), len(points)) != (*want, sum(want)):
        problems.append(f"census {len(minima)} minima + {len(saddles)} saddles "
                        f"of {len(points)}, closed form {want[0]} + {want[1]}")
    want_sides = inv / inv.sum()
    aligned = 0
    for p in points:
        c = _coords(p)
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
        if p["aligned"]:
            aligned += 1
            order = np.argsort(c[:, 0])
            left, mid, right = (int(v) for v in order)
            split = d[left, mid] / d[mid, right]
            if abs(split / math.sqrt(q[left] / q[right]) - 1.0) > 1e-9:
                problems.append(f"collinear split {split!r} off sqrt(q_l/q_r)")
        else:
            sides = np.array([d[1, 2], d[0, 2], d[0, 1]])
            if float(np.abs(sides - want_sides).max()) > 1e-8:
                problems.append("triangle sides not proportional to q**-1/2")
    if aligned != 3:
        problems.append(f"{aligned} collinear points, closed form 3")
    return problems


def _torus_rules(points: list[dict], radii) -> list[str]:
    """Census rules on the circles (as in the package's concentric-census
    check), plus presence of the four aligned configurations."""
    problems = []
    coords = [_coords(p) for p in points]
    minima = [i for i, p in enumerate(points) if p["index"] == 0 and not p["degenerate"]]
    if max(radii) - min(radii) < 1e-12:
        third = TWO_PI / 3.0
        if len(points) != 2 or len(minima) != 2:
            return [f"equal radii: {len(points)} points, {len(minima)} minima; want 2 minima"]
        for i in minima:
            c = coords[i]
            if abs(abs(c[0]) - third) > 1e-8 or abs(abs(c[1]) - third) > 1e-8:
                problems.append("equal-radii minimum is not equilateral")
            det = float(np.prod(points[i]["eigenvalues"]))
            if abs(det - 25.0 / 144.0) > 1e-8:
                problems.append(f"equal-radii Hessian determinant {det!r}, want 25/144")
        if points[minima[0]]["partner"] != minima[1]:
            problems.append("equal-radii minima are not a mirror pair")
        return problems
    for label in TORUS_ALIGNED:
        if not any(_same_point(np.array(label), c, "torus") for c in coords):
            problems.append(f"aligned configuration {label} missing")
    aligned_min = any(points[i]["aligned"] for i in minima)
    if aligned_min:
        if len(points) != 4:
            problems.append(f"aligned minimum with {len(points)} points, want 4")
    elif len(points) < 5 or len(minima) != 2 or points[minima[0]]["partner"] is None:
        problems.append(f"{len(points)} points with {len(minima)} minima: "
                        "want at least 5 and a mirror pair of minima")
    return problems


def check_census(points: list[dict], space: str, charges) -> CensusVerdict:
    """Every point verified, partners involutive, points distinct, the
    space's closed-form rules, and the topological certificate."""
    kind, arg = parse_space(space)
    verdict = CensusVerdict(expected=topological_count(space))
    if not points:
        verdict.problems.append("empty census")
        return verdict
    coords = [_coords(p) for p in points]
    good = 0
    for i, p in enumerate(points):
        bad = [f"point {i}: {msg}" for msg in check_point(p, space, charges)]
        j = p["partner"]
        if p["aligned"]:
            if j is not None:
                bad.append(f"point {i}: aligned point has partner {j}")
        elif not (isinstance(j, int) and 0 <= j < len(points) and j != i):
            bad.append(f"point {i}: partner {j!r} is not another point")
        elif points[j]["partner"] != i:
            bad.append(f"point {i}: partner {j} does not point back")
        elif _mirror_gap(coords[i], coords[j], kind) > COORD_TOL:
            bad.append(f"point {i}: partner {j} is not its mirror image")
        if any(_same_point(coords[i], coords[k], kind) for k in range(i)):
            bad.append(f"point {i}: duplicate of an earlier point")
        verdict.problems.extend(bad)
        good += not bad
    verdict.verified_points = good
    if kind == "polygon" and arg == 3:
        verdict.problems.extend(_polygon3_rules(points, charges))
    elif kind == "torus":
        verdict.problems.extend(_torus_rules(points, arg))
    degenerate = any(p["degenerate"] for p in points)
    verdict.alternating = sum((-1) ** int(p["index"]) for p in points)
    verdict.certified = not degenerate and verdict.alternating == verdict.expected
    if not verdict.certified and (kind == "torus" or arg == 3):
        verdict.problems.append(f"alternating count {verdict.alternating}, "
                                f"topological value {verdict.expected}")
    return verdict


# ---------------------------------------------------------------------------
# analysis jobs
# ---------------------------------------------------------------------------

def sign_form_zero(radii, label, charges, sweep: int) -> float | None:
    """Charge value of the swept entry where the aligned-Hessian sign form
    ``sum_i r_i cos a_j cos a_k / (d_j^3 d_k^3) q_i`` of ``label``
    vanishes, or ``None`` when it has no positive zero."""
    r = [float(v) for v in radii]
    a = (label[0], label[1], (TWO_PI - label[0] - label[1]) % TWO_PI)
    pair = ((1, 2), (2, 0), (0, 1))
    d = [math.sqrt(r[x] ** 2 + r[y] ** 2 - 2.0 * r[x] * r[y] * math.cos(a[i]))
         for i, (x, y) in enumerate(pair)]
    coeff = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        coeff.append(r[i] * math.cos(a[j]) * math.cos(a[k]) / (d[j] ** 3 * d[k] ** 3))
    rest = sum(coeff[i] * charges[i] for i in range(3) if i != sweep)
    if coeff[sweep] == 0.0:
        return None
    zero = -rest / coeff[sweep]
    return zero if zero > 0.0 else None


def check_bifurcate(job: dict, code: int, stdout: str, branches: dict) -> list[str]:
    problems = []
    if code != 0:
        return [f"exit code {code}"]
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        threshold = float(lines["threshold"])
    except (KeyError, ValueError):
        return ["no threshold printed"]
    if branches.get("threshold") != threshold:
        problems.append("branches.json threshold differs from the printed one")
    lo, hi = job["range"]
    sweep = job["sweep"] - 1
    kind, arg = parse_space(job["space"])
    if kind == "polygon":
        # the middle charge turns the line with outer charges q_l, q_r
        # degenerate at 1 / (q_l**-1/2 + q_r**-1/2)**2
        others = [v for i, v in enumerate(job["charges"]) if i != sweep]
        want = [1.0 / sum(v ** -0.5 for v in others) ** 2]
    else:
        want = [z for z in (sign_form_zero(arg, lab, job["charges"], sweep)
                            for lab in TORUS_ALIGNED) if z is not None and lo < z < hi]
    if not any(abs(threshold - w) <= 1e-6 * max(1.0, w) for w in want):
        problems.append(f"threshold {threshold!r}, closed form {want}")
    if job["space"] == "polygon:3" and list(job["charges"]) == [1.0, 1.0, 1.0]:
        if abs(threshold - 0.25) >= 1e-4:
            problems.append(f"reference threshold {threshold!r} not within 1e-4 of 1/4")
        try:
            exponent = float(lines["amplitude exponent fit"])
        except (KeyError, ValueError):
            exponent = math.nan
        if not 0.45 <= exponent <= 0.55:
            problems.append(f"amplitude exponent {exponent!r} outside [0.45, 0.55]")
    side = branches.get("branch_side")
    by_lam: dict[float, dict[str, dict]] = {}
    for p in branches.get("points", ()):
        by_lam.setdefault(p["lambda"], {})[p["branch"]] = p
    off = 0
    for lam, group in by_lam.items():
        if "aligned" not in group:
            problems.append(f"no aligned branch point at {lam!r}")
        if "upper" in group or "lower" in group:
            off += 1
            if (lam > threshold) != (side == "above"):
                problems.append(f"mirror branch on the wrong side at {lam!r}")
            if "upper" in group and "lower" in group:
                up, low = group["upper"], group["lower"]
                if abs(up["amplitude"] + low["amplitude"]) > 1e-8 or \
                        abs(up["energy"] - low["energy"]) > 1e-9 * abs(up["energy"]):
                    problems.append(f"mirror pair not symmetric at {lam!r}")
    if off == 0:
        problems.append("no mirror branch traced")
    return problems


def check_probe(job: dict, result) -> list[str]:
    """Fixing effect: the split of the line does not depend on the middle
    charge below the threshold and follows sqrt(q1 / q3)."""
    q1, q3 = job["q1"], job["q3"]
    limit = 1.0 / (q1 ** -0.5 + q3 ** -0.5) ** 2
    problems = []
    if abs(result.threshold - limit) > 1e-9 * limit:
        problems.append(f"threshold {result.threshold!r}, closed form {limit!r}")
    below = [v for v in job["q2_samples"] if v < limit]
    got = [s.intermediate_charge for s in result.included]
    if got != below or len(result.excluded) != len(job["q2_samples"]) - len(below):
        problems.append("samples not split at the threshold")
    lefts = [s.d_left for s in result.included]
    if lefts and max(lefts) - min(lefts) >= 1e-8:
        problems.append(f"fixing-effect spread {max(lefts) - min(lefts):.3g}")
    for s in result.included:
        if abs(s.ratio / math.sqrt(q1 / q3) - 1.0) > 1e-9:
            problems.append(f"split {s.ratio!r} off sqrt(q1/q3)")
    return problems


def triangle_sides(charges) -> list[float]:
    """Sides of the equilibrium triangle, side i opposite vertex i."""
    inv = np.asarray(charges, dtype=float) ** -0.5
    return [float(v) for v in inv / inv.sum()]


def check_inverse(job: dict, code: int, payload: dict | None) -> list[str]:
    if code != 0 or payload is None:
        return [f"exit code {code}"]
    if payload.get("kind") != "unique-ray":
        return [f"kind {payload.get('kind')!r}, want unique-ray"]
    got = np.asarray(payload["charges"], dtype=float)
    want = np.asarray(job["charges"], dtype=float)
    err = float(np.abs(got / got.sum() - want / want.sum()).max())
    if not err < 1e-8:
        return [f"round-trip error {err:.3g}"]
    return []
