"""Acceptance suite: one test per quantitative exit criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Each criterion runs the matching check of
``coulomb_eq.verify`` (the battery behind ``coulomb-eq verify``, whose
tolerances it keeps) plus whatever the criterion asks beyond that
check, with its tolerance stated inline; runtime budgets use the
monotonic clock.
"""

import math
import time

import numpy as np

from coulomb_eq import verify
from coulomb_eq.bifurcation import (
    charge_sweep_path,
    fit_branch_exponent,
    three_charge_equilibria,
    trace_pitchfork,
)
from coulomb_eq.morse import (
    classify_spectrum,
    torus_aligned_hessian_form,
    torus_label_config,
)
from coulomb_eq.potentials import hessian
from coulomb_eq.solver import PolygonSpace, solve_line_three
from coulomb_eq.spaces import ChargeVector, pairwise_distances

PI = math.pi


def _finish(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _describe(details: dict) -> str:
    """A check's details as one line, floats to three digits."""
    parts = []
    for key, value in details.items():
        if isinstance(value, dict):
            value = "{" + _describe(value) + "}"
        elif isinstance(value, float):
            value = f"{value:.3g}"
        parts.append(f"{key} {value}")
    return ", ".join(parts)


def _timed(check, *args) -> tuple[verify.CheckResult, float]:
    start = time.monotonic()
    result = check(*args)
    return result, time.monotonic() - start


def test_criterion_01_collinear_closed_form():
    start = time.monotonic()
    check = verify.check_line_equilibrium()
    # beyond the check: the census reports the closed-form split too,
    # found by the vertex that sits in the middle of the line
    pts = three_charge_equilibria(ChargeVector.of([4.0, 1.0, 1.0]))
    mid1 = [cp for cp in pts if cp.aligned
            and int(np.argsort(cp.config.points[:, 0])[1]) == 1]
    d = pairwise_distances(mid1[0].config)
    err = max(abs(d[0, 1] - 1 / 3), abs(d[1, 2] - 1 / 6))
    elapsed = time.monotonic() - start
    ok = check.passed and err < 1e-9 and elapsed < 1.0
    _finish(1, "collinear closed form", ok,
            f"{_describe(check.details)}, census split err {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_triangle_taxonomy():
    check, elapsed = _timed(verify.check_triangle_taxonomy)
    ok = check.passed and elapsed < 5.0
    _finish(2, "triangle taxonomy", ok, f"{_describe(check.details)}, {elapsed:.2f}s")


def test_criterion_03_degenerate_boundary():
    check = verify.check_degenerate_boundary()
    # beyond the check, which reads the census flag: the Hessian of the
    # closed form, classified directly
    results = []
    for scale in (1.0, 3.0):
        q = ChargeVector.of([scale / 9, 4 * scale / 9, 4 * scale / 9])
        cfg = solve_line_three(q)[0]  # first vertex intermediate
        eigs = np.linalg.eigvalsh(hessian(cfg, q))
        _, degenerate = classify_spectrum(eigs)
        rel = float(np.abs(eigs).min() / max(1.0, np.abs(eigs).max()))
        results.append((degenerate, rel))
    ok = check.passed and all(d for d, _ in results)
    _finish(3, "degenerate boundary", ok,
            f"{_describe(check.details)}, "
            + ", ".join(f"|eig|/rad {r:.1e}" for _, r in results))


def test_criterion_04_pitchfork_quantitative():
    check = verify.check_pitchfork()
    # beyond the check's 48-step trace: the exponent of a 60-step trace
    path = charge_sweep_path([1.0, 1.0, 1.0], 1)
    diagram = trace_pitchfork(PolygonSpace(3), path, (0.05, 0.6), steps=60)
    exponent = fit_branch_exponent(diagram)
    ok = (check.passed and abs(diagram.threshold - 0.25) < 1e-4
          and 0.45 <= exponent <= 0.55)
    _finish(4, "pitchfork threshold and exponent", ok,
            f"{_describe(check.details)}, 60-step exponent {exponent:.3f}")


def test_criterion_05_equal_radii_exact_value():
    check = verify.check_equal_radii_value()
    _finish(5, "equal radii exact determinant", check.passed, _describe(check.details))


def test_criterion_06_aligned_sign_forms():
    check = verify.check_aligned_sign_forms()
    # beyond the check's sign agreement at 0.9 and 1.1 of the zero line:
    # the determinant changes sign across it, at 0.95 and 1.05
    coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), (PI, PI, 0.0))
    cfg = torus_label_config((1.0, 2.0, 3.0), (PI, PI, 0.0))
    rng = np.random.default_rng(11)
    flips = 0
    for _ in range(20):
        base = rng.uniform(0.1, 3.0, 2)
        q3_zero = -(coeffs[0] * base[0] + coeffs[1] * base[1]) / coeffs[2]
        signs = []
        for factor in (0.95, 1.05):
            q = ChargeVector.of([base[0], base[1], q3_zero * factor])
            det = float(np.linalg.det(hessian(cfg, q)))
            form = float(coeffs @ q.array)
            signs.append((det > 0, form > 0))
        flips += (signs[0][0] == signs[0][1] and signs[1][0] == signs[1][1]
                  and signs[0][0] != signs[1][0])
    ok = check.passed and flips == 20
    _finish(6, "aligned sign-form coefficients", ok,
            f"{_describe(check.details)}, sign flips {flips}/20")


def test_criterion_07_torus_morse_counting():
    check, elapsed = _timed(verify.check_torus_census)
    ok = check.passed and elapsed < 60.0
    _finish(7, "concentric-circles Morse counting", ok,
            f"{_describe(check.details)}, {elapsed:.1f}s")


def test_criterion_08_fixing_effect_four_charges():
    check = verify.check_fixing_effect_n4()
    _finish(8, "four-charge fixing effect", check.passed, _describe(check.details))


def test_criterion_09_derivative_oracles():
    check = verify.check_derivative_oracles()
    _finish(9, "derivative oracles", check.passed, _describe(check.details))


def test_criterion_10_inverse_roundtrip():
    check = verify.check_inverse_roundtrip()
    _finish(10, "inverse roundtrip", check.passed, _describe(check.details))
