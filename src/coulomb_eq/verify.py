"""Built-in verification suites behind ``coulomb-eq verify``.

Each check recomputes a quantitative claim of the model from scratch
and compares against an independent value: closed forms against the
multistart solver, analytic derivatives against finite differences,
sign forms against direct numerics, recovered charges against the
inputs that generated the geometry.  ``quick`` keeps sample counts
small; ``full`` runs the complete battery including the control
triangle scan and the concentric-circles census.

Reports are deterministic: no timing, fixed sample seeds and orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bifurcation, inverse, morse, potentials as pot
from .potentials import PotentialSpec
from .solver import (
    PolygonSpace,
    SolveSettings,
    TorusSpace,
    critical_triangle,
    find_critical_points,
    line_config_from_positions,
    solve_line_interior,
    solve_line_three,
)
from .spaces import (
    ChargeVector,
    PolygonConfig,
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    alignment_defects,
    pair_distances,
    pairwise_distances,
    triangle_vertices,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


def _clean(value):
    """Coerce numpy scalars so reports serialize as plain JSON."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _result(name: str, passed: bool, **details) -> CheckResult:
    return CheckResult(name, bool(passed), _clean(details))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_line_equilibrium() -> CheckResult:
    """Collinear equilibrium split and its independence of the middle charge."""
    charges = ChargeVector.of([4.0, 1.0, 1.0])
    cfg = solve_line_three(charges)[1]
    d = pairwise_distances(cfg)
    err12 = abs(d[0, 1] - 1.0 / 3.0)
    err23 = abs(d[1, 2] - 1.0 / 6.0)
    positions = []
    for q2 in (0.01, 0.1, 0.2):
        pts = bifurcation.three_charge_equilibria(ChargeVector.of([4.0, q2, 1.0]))
        best = min(pts, key=lambda cp: cp.energy)
        ok_aligned = best.aligned and best.morse_index == 0
        positions.append((float(np.linalg.norm(best.config.points[1]
                                               - best.config.points[0])),
                          ok_aligned))
    spread = max(p for p, _ in positions) - min(p for p, _ in positions)
    passed = err12 < 1e-9 and err23 < 1e-9 and spread < 1e-8 \
        and all(ok for _, ok in positions)
    return _result("line-equilibrium-closed-form", passed,
                   split_error=max(err12, err23),
                   position_spread=spread)


def check_triangle_taxonomy() -> CheckResult:
    """Census of three-charge equilibria in both charge regimes."""
    details = {}
    passed = True
    for label, charges, want_min, want_saddle in (
            ("balanced", (1.0, 1.0, 1.0), 2, 3),
            ("one-small", (0.125, 1.0, 1.0), 1, 2)):
        q = ChargeVector.of(charges)
        pts = find_critical_points(PolygonSpace(3), q)
        minima = [cp for cp in pts if cp.morse_index == 0 and not cp.degenerate]
        saddles = [cp for cp in pts if cp.morse_index == 1 and not cp.degenerate]
        summary = morse.euler_count_check(pts, PolygonSpace(3))
        side_err = 0.0
        for cp in minima:
            if cp.aligned:
                continue
            d = pairwise_distances(cp.config)
            sides = np.array([d[1, 2], d[0, 2], d[0, 1]])
            want = np.array(charges) ** -0.5
            want = want / want.sum()
            side_err = max(side_err, float(np.abs(sides - want).max()))
        ok = (len(minima) == want_min and len(saddles) == want_saddle
              and len(pts) == want_min + want_saddle
              and summary.euler_check == "passed" and side_err < 1e-8)
        details[label] = {"minima": len(minima), "saddles": len(saddles),
                          "euler": summary.euler_check,
                          "side_error": side_err}
        passed &= ok
    return _result("triangle-taxonomy", passed, **details)


def check_degenerate_boundary() -> CheckResult:
    """Exactly on the region boundary the aligned point turns degenerate."""
    flags = []
    for scale in (1.0, 2.7):
        q = ChargeVector.of([scale / 9.0, 4.0 * scale / 9.0, 4.0 * scale / 9.0])
        pts = bifurcation.three_charge_equilibria(q)
        aligned_mid0 = []
        for cp in pts:
            if not cp.aligned:
                continue
            order = np.argsort(cp.config.points[:, 0])
            if int(order[1]) == 0:
                aligned_mid0.append(cp)
        flags.append(len(aligned_mid0) == 1 and aligned_mid0[0].degenerate)
    return _result("degenerate-boundary", all(flags), flagged=flags)


def check_pitchfork() -> CheckResult:
    """Threshold location and square-root growth of the branch amplitude."""
    path = bifurcation.charge_sweep_path([1.0, 1.0, 1.0], 1)
    space = PolygonSpace(3)
    threshold = bifurcation.detect_threshold(space, path, (0.05, 0.6))
    diagram = bifurcation.trace_pitchfork(space, path, (0.05, 0.6), steps=48)
    exponent = bifurcation.fit_branch_exponent(diagram)
    passed = abs(threshold - 0.25) < 1e-4 and 0.45 <= exponent <= 0.55
    return _result("pitchfork-quantitative", passed,
                   threshold=threshold, exponent=exponent)


def check_equal_radii_value() -> CheckResult:
    """Exact Hessian determinant at the equal-radii equilateral minimum."""
    space = TorusSpace((1.0, 1.0, 1.0))
    q = ChargeVector.of([1.0, 1.0, 1.0])
    pts = find_critical_points(space, q)
    third = 2.0 * math.pi / 3.0
    hit = None
    for cp in pts:
        if max(abs(cp.config.angles[0] - third), abs(cp.config.angles[1] - third)) < 1e-8:
            hit = cp
    if hit is None:
        return _result("equal-radii-hessian", False, found=len(pts))
    det = float(np.linalg.det(pot.hessian(hit.config, q)))
    det_err = abs(det - 25.0 / 144.0)
    paired = hit.symmetry_partner is not None
    passed = det_err < 1e-9 and hit.morse_index == 0 and paired and len(pts) == 2
    return _result("equal-radii-hessian", passed,
                   det_error=det_err, minimum=hit.morse_index == 0,
                   mirror_pair=paired)


def check_aligned_sign_forms() -> CheckResult:
    """Sign-form coefficients at the reference radii and the sign flip of
    the true determinant across the zero line."""
    radii = (1.0, 2.0, 3.0)
    label = TORUS_ALIGNED_LABELS[0]  # both outer angles straight
    coeffs = morse.torus_aligned_hessian_form(radii, label)
    want = np.array([-1.0 / 64.0, -2.0 / 125.0, 3.0 / 8000.0])
    ratio = coeffs / want
    ratio_err = float(np.abs(ratio / ratio[0] - 1.0).max())
    cfg = morse.torus_label_config(radii, label)
    rng = np.random.default_rng(11)
    sign_ok = True
    for _ in range(20):
        base = rng.uniform(0.1, 3.0, 2)
        # charges straddling the zero line at fixed (q1, q2)
        q3_zero = -(coeffs[0] * base[0] + coeffs[1] * base[1]) / coeffs[2]
        for factor in (0.9, 1.1):
            q = ChargeVector.of([base[0], base[1], q3_zero * factor])
            det = float(np.linalg.det(pot.hessian(cfg, q)))
            form = float(coeffs @ q.array)
            sign_ok &= (det > 0) == (form > 0)
    passed = ratio_err < 1e-12 and sign_ok
    return _result("aligned-sign-forms", passed,
                   ratio_error=ratio_err, sign_flip_consistent=sign_ok)


def check_torus_census(samples: int = 25) -> CheckResult:
    """Alternating Morse counts on the reference radii across random charges."""
    space = TorusSpace((1.0, 2.0, 3.0))
    rng = np.random.default_rng(42)
    euler_ok = True
    count_ok = True
    exact_cases = 0
    for _ in range(samples):
        q = ChargeVector.of(rng.dirichlet((0.6, 0.6, 0.6)) + 1e-3)
        pts = find_critical_points(space, q)
        summary = morse.euler_count_check(pts, space)
        euler_ok &= summary.euler_check == "passed"
        aligned_min = any(cp.aligned and cp.morse_index == 0 for cp in pts)
        if aligned_min:
            exact_cases += 1
            count_ok &= len(pts) == 4
        else:
            minima = [cp for cp in pts if cp.morse_index == 0]
            count_ok &= len(pts) >= 5 and len(minima) == 2 \
                and minima[0].symmetry_partner is not None
    return _result("concentric-census", euler_ok and count_ok,
                   euler_all_zero=euler_ok, counts_consistent=count_ok,
                   exact_cases=exact_cases, samples=samples)


def check_fixing_effect_n4() -> CheckResult:
    """Transverse rigidity of the four-charge collinear minimum and the
    no-collinear-triple property of convex equilibria."""
    delta = 1e-3
    q = ChargeVector.of([1.0, delta, delta, 1.0])
    xs, h1 = solve_line_interior(q)
    one_d_index = int((np.linalg.eigvalsh(h1) < 0).sum())
    cfg = line_config_from_positions(xs)
    hxx, hyy, hxy = (block[0] for block in morse.aligned_blocks(cfg.points[None], q))
    transverse_definite = bool(np.linalg.eigvalsh(hyy)[0] > 0.0)
    full_eigs = np.linalg.eigvalsh(pot.hessian(cfg, q))
    full_index = int((full_eigs < 0).sum())
    mixed = float(np.abs(hxy).max())

    rng = np.random.default_rng(3)
    settings = SolveSettings(grid_density=8)
    convex_checked = 0
    triple_ok = True
    trials = 0
    while convex_checked < 20 and trials < 30:
        trials += 1
        qv = ChargeVector.of(rng.uniform(0.5, 2.0, 4))
        pts = find_critical_points(PolygonSpace(4), qv, settings=settings)
        for cp in pts:
            if cp.aligned or not _is_convex(cp.config.points):
                continue
            convex_checked += 1
            triple_ok &= _min_triple_defect(cp.config) > 1e-6
    passed = (one_d_index == 0 and transverse_definite
              and full_index == one_d_index and mixed < 1e-8
              and convex_checked >= 20 and triple_ok)
    return _result("aligned-fixing-effect", passed,
                   one_d_index=one_d_index, full_index=full_index,
                   transverse_definite=transverse_definite,
                   mixed_block=mixed, convex_checked=convex_checked,
                   no_collinear_triples=triple_ok)


def _is_convex(points: np.ndarray) -> bool:
    n = points.shape[0]
    signs = []
    for i in range(n):
        a, b, c = points[i], points[(i + 1) % n], points[(i + 2) % n]
        u, v = b - a, c - b
        signs.append(u[0] * v[1] - u[1] * v[0])
    arr = np.array(signs)
    return bool((arr > 0).all() or (arr < 0).all())


def _min_triple_defect(config: PolygonConfig) -> float:
    """Smallest alignment defect of a vertex triple, relative to the
    diameter of the configuration."""
    triples = config.points[list(itertools.combinations(range(config.n), 3))]
    return float(alignment_defects(triples, pair_distances(triples)).min() / config.diameter)


def check_derivative_oracles(per_case: int = 100) -> CheckResult:
    """Analytic gradients and Hessians against central differences."""
    rng = np.random.default_rng(7)
    specs = [PotentialSpec.coulomb(), PotentialSpec.power(2.0), PotentialSpec.log()]
    worst_grad = 0.0
    worst_hess = 0.0
    for spec in specs:
        for _ in range(per_case):
            cfg = _random_triangle(rng)
            q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
            worst_grad = max(worst_grad, _grad_err(cfg, q, spec))
            worst_hess = max(worst_hess, _hess_err(cfg, q, spec))
        for _ in range(per_case):
            cfg = TorusConfig((1.0, 2.0, 3.0),
                              tuple(rng.uniform(-math.pi, math.pi, 2)))
            q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
            worst_grad = max(worst_grad, _grad_err(cfg, q, spec))
            worst_hess = max(worst_hess, _hess_err(cfg, q, spec))
    passed = worst_grad < 1e-6 and worst_hess < 1e-4
    return _result("derivative-oracles", passed,
                   worst_gradient_rel_err=worst_grad,
                   worst_hessian_rel_err=worst_hess)


def _random_triangle(rng: np.random.Generator) -> PolygonConfig:
    while True:
        sides = rng.dirichlet((2.0, 2.0, 2.0))
        if sides.min() > 0.12 and sides.max() < 0.47:
            break
    return PolygonConfig.from_points(triangle_vertices(sides, flip=rng.random() < 0.5))


def _grad_err(cfg, q, spec) -> float:
    g = pot.gradient(cfg, q, spec)
    gf = pot.fd_gradient(cfg, q, spec)
    return float(np.linalg.norm(g - gf) / max(np.linalg.norm(g), 1e-12))


def _hess_err(cfg, q, spec) -> float:
    h = pot.hessian(cfg, q, spec)
    hf = pot.fd_hessian(cfg, q, spec)
    return float(np.linalg.norm(h - hf) / max(np.linalg.norm(h), 1e-12))


def check_inverse_roundtrip(samples: int = 100) -> CheckResult:
    """Charges -> equilibrium triangle -> recovered charges."""
    rng = np.random.default_rng(5)
    worst = 0.0
    done = 0
    while done < samples:
        q = rng.dirichlet((1.0, 1.0, 1.0))
        if q.min() < 1e-3:
            continue
        inv = 1.0 / np.sqrt(q)
        if 2.0 * inv.max() >= inv.sum():
            continue  # outside the two-minima region
        done += 1
        charges = ChargeVector.of(q)
        result = inverse.stabilizing_charges(critical_triangle(charges))
        got = result.charges.normalized
        worst = max(worst, float(np.abs(got - charges.normalized).max()))
    return _result("inverse-roundtrip", worst < 1e-8,
                   worst_recovery_err=worst, samples=samples)


def check_control_triangle_scan(grid: int = 50) -> CheckResult:
    """Minima counts flip exactly across the boundary curves of the
    control triangle (two-cell tolerance band)."""
    curves = bifurcation.polygon_bifurcation_set(resolution=256)
    curve_xy = []
    for curve in curves:
        arr = np.array([s.charges for s in curve.samples])
        curve_xy.append(arr[:, :2])
    cell = 1.0 / grid
    mismatches = 0
    tested = 0
    for i in range(1, grid):
        for j in range(1, grid - i):
            k = grid - i - j
            q = np.array([i, j, k], dtype=float) / grid
            dist = min(float(np.abs(xy - q[:2]).sum(axis=1).min())
                       for xy in curve_xy)
            if dist <= 2.0 * cell:
                continue  # inside the tolerance band
            tested += 1
            inv = 1.0 / np.sqrt(q)
            expect = 2 if 2.0 * inv.max() < inv.sum() else 1
            got = bifurcation.count_polygon_minima(ChargeVector.of(q))
            mismatches += got != expect
    return _result("control-triangle-scan", mismatches == 0,
                   tested=tested, mismatches=mismatches, grid=grid)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_suite(suite: str) -> dict:
    """Run the named suite and return a deterministic JSON-ready report."""
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    full = suite == "full"
    checks = [
        check_line_equilibrium(),
        check_triangle_taxonomy(),
        check_degenerate_boundary(),
        check_pitchfork(),
        check_equal_radii_value(),
        check_aligned_sign_forms(),
        check_derivative_oracles(per_case=100 if full else 10),
        check_inverse_roundtrip(samples=100 if full else 20),
    ]
    if full:
        checks += [
            check_torus_census(samples=25),
            check_fixing_effect_n4(),
            check_control_triangle_scan(grid=50),
        ]
    return {
        "suite": suite,
        "passed": all(c.passed for c in checks),
        "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                   for c in checks],
    }
