import math

import numpy as np
import pytest

from coulomb_eq.morse import (
    DegenerateCriticalPointError,
    aligned_blocks,
    classify_spectrum,
    euler_count_check,
    morse_index,
    torus_aligned_hessian_form,
    torus_label_config,
    transverse_min_eigenvalues,
)
from coulomb_eq.potentials import (
    PotentialSpec,
    aligned_chart_basis,
    hessian,
)
from coulomb_eq.solver import (
    PolygonSpace,
    SolveSettings,
    TorusSpace,
    enumerate_aligned,
    find_critical_points,
    line_config_from_positions,
    solve_line_interior,
    solve_line_three,
)
from coulomb_eq.spaces import ChargeVector, TORUS_ALIGNED_LABELS, apply_involution
from helpers import evaluate_aligned_form

Q111 = ChargeVector.of([1.0, 1.0, 1.0])
PI = math.pi


class TestClassification:
    def test_minimum_index_zero(self):
        pts = find_critical_points(PolygonSpace(3), Q111)
        equilateral = [cp for cp in pts if not cp.aligned][0]
        assert morse_index(equilateral) == 0

    def test_aligned_balanced_charges_are_index_one(self):
        pts = find_critical_points(PolygonSpace(3), Q111)
        for cp in pts:
            if cp.aligned:
                assert morse_index(cp) == 1

    @pytest.mark.parametrize("charges", [
        (1.0, 1.0, 1.0), (0.3, 2.0, 5.0), (10.0, 0.2, 0.7)])
    def test_all_rays_aligned_is_global_maximum(self, charges):
        cfg = torus_label_config((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
        eigs = np.linalg.eigvalsh(hessian(cfg, ChargeVector.of(charges)))
        index, degenerate = classify_spectrum(eigs)
        assert not degenerate and index == 2

    def test_degenerate_points_refuse_an_index(self):
        from dataclasses import replace
        pts = find_critical_points(PolygonSpace(3), Q111)
        fake = replace(pts[0], degenerate=True)
        with pytest.raises(DegenerateCriticalPointError):
            morse_index(fake)

    def test_mirror_pairs_share_index(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        from helpers import configs_match
        for cp in pts:
            mirror = apply_involution(cp.config)
            partner = next(o for o in pts if configs_match(mirror, o.config))
            assert partner.morse_index == cp.morse_index


class TestAlignedSignForms:
    def test_reference_coefficients(self):
        coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), (PI, PI, 0.0))
        assert coeffs == pytest.approx([-1 / 64, -2 / 125, 3 / 8000], rel=1e-15)

    def test_reference_value_balanced_charges(self):
        val = evaluate_aligned_form((1.0, 2.0, 3.0), (PI, PI, 0.0), Q111)
        assert val == pytest.approx(-0.03125, abs=1e-12)

    def test_all_rays_form_is_positive_definite(self):
        coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
        assert (coeffs > 0).all()

    def test_sign_patterns_positive_on_the_straight_charge(self):
        # the positive coefficient sits with the charge whose own angle is 0
        for label in TORUS_ALIGNED_LABELS[:3]:
            coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), label)
            positive = {i for i in range(3) if coeffs[i] > 0}
            straight = {i for i in range(3) if label[i] == 0.0}
            assert positive == straight

    def test_coincident_radii_rejected(self):
        with pytest.raises(ValueError):
            torus_aligned_hessian_form((1.0, 1.0, 3.0), (PI, PI, 0.0))

    @pytest.mark.parametrize("label", [(PI, 0.0, 0.0), (0.5, PI, 0.0), (PI, PI)])
    def test_non_aligned_triple_rejected(self, label):
        with pytest.raises(ValueError, match="not an aligned angle triple"):
            torus_label_config((1.0, 2.0, 3.0), label)
        with pytest.raises(ValueError, match="not an aligned angle triple"):
            torus_aligned_hessian_form((1.0, 2.0, 3.0), label)

    def test_sign_matches_true_determinant_on_random_draws(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            radii = np.sort(rng.uniform(0.5, 3.0, 3))
            if radii[1] - radii[0] < 0.2 or radii[2] - radii[1] < 0.2:
                continue
            label = TORUS_ALIGNED_LABELS[rng.integers(0, 4)]
            q = ChargeVector.of(rng.uniform(0.1, 10.0, 3))
            form = evaluate_aligned_form(tuple(radii), label, q)
            cfg = torus_label_config(tuple(radii), label)
            det = float(np.linalg.det(hessian(cfg, q)))
            if abs(form) < 1e-12:
                continue
            assert (det > 0) == (form > 0)
            checked += 1

    @pytest.mark.parametrize("kernel", ["coulomb", "power:2", "power:2.5", "log"])
    def test_form_is_the_determinant_for_every_kernel(self, kernel):
        # det(H) = q1*q2*q3 * r1*r2*r3 * (c1*q1 + c2*q2 + c3*q3) with the
        # kernel's own coefficients
        spec = PotentialSpec.parse(kernel)
        radii = (1.0, 2.0, 3.0)
        rng = np.random.default_rng(13)
        for label in TORUS_ALIGNED_LABELS:
            coeffs = torus_aligned_hessian_form(radii, label, spec)
            cfg = torus_label_config(radii, label)
            for _ in range(5):
                q = ChargeVector.of(rng.uniform(0.1, 10.0, 3))
                det = float(np.linalg.det(hessian(cfg, q, spec)))
                form = float(np.prod(q.array) * np.prod(radii) * (coeffs @ q.array))
                assert det == pytest.approx(form, rel=1e-9)


class TestEulerCounts:
    def test_balanced_polygon_counts(self):
        pts = find_critical_points(PolygonSpace(3), Q111)
        summary = euler_count_check(pts, PolygonSpace(3))
        assert summary.counts == {0: 2, 1: 3}
        assert summary.poles_count == 3
        assert summary.euler_check == "passed"

    def test_tiny_charge_polygon_counts(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1 / 8, 1, 1]))
        summary = euler_count_check(pts, PolygonSpace(3))
        assert summary.counts == {0: 1, 1: 2}
        assert summary.euler_check == "passed"

    def test_torus_exact_count(self):
        pts = find_critical_points(TorusSpace((1.0, 2.0, 3.0)),
                                   ChargeVector.of([1.0, 1.0, 100.0]))
        summary = euler_count_check(pts, TorusSpace((1.0, 2.0, 3.0)))
        assert summary.euler_check == "passed"
        assert summary.exactness

    def test_degenerate_points_skip_the_check(self):
        from dataclasses import replace
        pts = find_critical_points(PolygonSpace(3), Q111)
        pts = [replace(pts[0], degenerate=True), *pts[1:]]
        summary = euler_count_check(pts, PolygonSpace(3))
        assert summary.euler_check == "not-applicable"
        assert "degenerate" in summary.reason

    @pytest.mark.parametrize("charges", [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    def test_equal_radii_torus_counts_to_two(self, charges):
        # the poles are three circles through one point, whose complement
        # has Euler characteristic 2
        space = TorusSpace((1.0, 1.0, 1.0))
        summary = euler_count_check(find_critical_points(space, ChargeVector.of(charges)), space)
        assert (summary.euler_check, summary.reason) == ("passed", "")
        assert sum((-1) ** k * c for k, c in summary.counts.items()) == 2

    @pytest.mark.parametrize("radii,verdict", [
        # the census of distinct radii counts to 0, which coinciding radii fail
        ((1e-13, 1e-13, 1e-13), "failed"),
        ((1.0, 1.0, 1.0 + 1e-13), "failed"),
        ((1e-13, 2e-13, 3e-13), "passed"),
    ])
    def test_radii_coincide_relative_to_their_size(self, radii, verdict):
        pts = find_critical_points(TorusSpace((1.0, 2.0, 3.0)), Q111)
        assert euler_count_check(pts, TorusSpace(radii)).euler_check == verdict

    def test_larger_polygons_not_counted(self):
        space = PolygonSpace(4)
        pts = find_critical_points(space, ChargeVector.of([1.3, 0.6, 1.9, 1.1]),
                                   settings=SolveSettings(grid_density=8))
        summary = euler_count_check(pts, space)
        assert pts and summary.euler_check == "not-applicable"

    @pytest.mark.parametrize("case,verdict,poles,exact,reason", [
        ("empty", "failed", 0, False, "no critical points found"),
        ("torus-missing-point", "failed", 0, False, "alternating count -1, expected 0"),
        ("polygon3-missing-point", "failed", 3, False, "alternating count 0, expected -1"),
        ("polygon4", "not-applicable", 0, False,
         "sphere-level count is defined for three charges only"),
    ])
    def test_branches(self, case, verdict, poles, exact, reason):
        space, pts = EULER_CASES[case]()
        summary = euler_count_check(pts, space)
        assert (summary.euler_check, summary.poles_count, summary.exactness,
                summary.reason) == (verdict, poles, exact, reason)
        assert sum(summary.counts.values()) == len(pts)


def _census_without_last(space, charges):
    return space, find_critical_points(space, ChargeVector.of(charges))[:-1]


EULER_CASES = {
    # every space has aligned critical points: an empty census missed them
    "empty": lambda: (TorusSpace((1.0, 2.0, 3.0)), []),
    # an exact torus census of four points, one of them lost
    "torus-missing-point": lambda: _census_without_last(TorusSpace((1.0, 2.0, 3.0)),
                                                        [1.0, 1.0, 100.0]),
    "polygon3-missing-point": lambda: _census_without_last(PolygonSpace(3), [1.0, 1.0, 1.0]),
    "polygon4": lambda: (PolygonSpace(4), find_critical_points(
        PolygonSpace(4), ChargeVector.of([1.0, 1.0, 1.0, 1.0]),
        settings=SolveSettings(grid_density=8))),
}


class TestDegenerateBoundary:
    def test_boundary_charges_flag_degenerate_minimum(self):
        # on the region boundary the collinear arrangement with the first
        # vertex intermediate has a vanishing transverse eigenvalue
        q = ChargeVector.of([1 / 9, 4 / 9, 4 / 9])
        cfg = solve_line_three(q)[0]
        eig = transverse_min_eigenvalues(cfg.points[None], q)[0]
        full = np.linalg.eigvalsh(hessian(cfg, q))
        _, degenerate = classify_spectrum(full)
        assert abs(eig) < 1e-8 * max(1.0, np.abs(full).max())
        assert degenerate

    def test_off_boundary_is_clean(self):
        q = ChargeVector.of([0.2, 0.4, 0.4])
        cfg = solve_line_three(q)[0]
        full = np.linalg.eigvalsh(hessian(cfg, q))
        _, degenerate = classify_spectrum(full)
        assert not degenerate


class TestFixingEffect:
    def test_small_interior_charges_keep_line_minimum(self):
        q = ChargeVector.of([1.0, 1e-3, 1e-3, 1.0])
        xs, h1 = solve_line_interior(q)
        assert (np.linalg.eigvalsh(h1) > 0).all()
        cfg = line_config_from_positions(xs)
        hxx, hyy, hxy = (block[0] for block in aligned_blocks(cfg.points[None], q))
        # the in-line block is the one-dimensional problem's Hessian, up to
        # the arbitrary orientation of the chart basis
        assert np.allclose(np.linalg.eigvalsh(hxx), np.linalg.eigvalsh(h1),
                           atol=1e-9)
        assert np.linalg.eigvalsh(hyy)[0] > 0.0
        assert np.abs(hxy).max() < 1e-8
        full = np.linalg.eigvalsh(hessian(cfg, q))
        assert int((full < 0).sum()) == 0

    def test_large_interior_charge_breaks_transverse_rigidity(self):
        # a heavy intermediate charge wants off the line: transverse
        # direction turns unstable while the in-line problem stays minimal
        q = ChargeVector.of([1.0, 1.0, 1.0])
        cfg = solve_line_three(q)[1]
        assert transverse_min_eigenvalues(cfg.points[None], q)[0] < 0.0

    def test_five_charge_convex_equilibria_have_no_collinear_triples(self):
        import itertools
        from coulomb_eq.solver import SolveSettings
        from coulomb_eq.spaces import pairwise_distances
        rng = np.random.default_rng(9)
        settings = SolveSettings(grid_density=8)
        checked = 0
        for _ in range(3):
            q = ChargeVector.of(rng.uniform(0.6, 1.6, 5))
            for cp in find_critical_points(PolygonSpace(5), q,
                                           settings=settings):
                if cp.aligned or not _is_convex(cp.config.points):
                    continue
                checked += 1
                pts = cp.config.points
                diam = pairwise_distances(cp.config).max()
                for tri in itertools.combinations(range(5), 3):
                    sub = pts[list(tri)] - pts[list(tri)].mean(axis=0)
                    _, vecs = np.linalg.eigh(sub.T @ sub)
                    defect = float(np.abs(sub @ vecs[:, 0]).max()) / diam
                    assert defect > 1e-6
        assert checked >= 2


class TestAlignedStacks:
    """A stack of aligned rows gives the bits of its rows one by one."""

    @staticmethod
    def stacks():
        q3 = ChargeVector.of([0.7, 1.9, 1.1])
        yield q3, enumerate_aligned(PolygonSpace(3), q3)
        q4 = ChargeVector.of([1.0, 2.0, 3.0, 4.0])
        lines = [line_config_from_positions(solve_line_interior(ChargeVector.of(c))[0]).points
                 for c in ([1.0, 2.0, 3.0, 4.0], [1.0, 1e-3, 1e-3, 1.0], [0.7, 1.9, 1.1, 1.4])]
        yield q4, np.stack(lines)

    @pytest.mark.parametrize("kernel", ["coulomb", "power:2.5", "log"])
    def test_stack_equals_stacks_of_one(self, kernel):
        spec = PotentialSpec.parse(kernel)
        for q, rows in self.stacks():
            assert len(rows) == 3
            stacked = (*aligned_chart_basis(rows), *aligned_blocks(rows, q, spec),
                       transverse_min_eigenvalues(rows, q, spec))
            for i in range(len(rows)):
                one = rows[i:i + 1]
                alone = (*aligned_chart_basis(one), *aligned_blocks(one, q, spec),
                         transverse_min_eigenvalues(one, q, spec))
                for batch, single in zip(stacked, alone, strict=True):
                    assert np.array_equal(batch[i], single[0])

    def test_non_aligned_row_in_a_stack_refused(self):
        rows = enumerate_aligned(PolygonSpace(3), Q111).copy()
        rows[2, 2, 1] = 1e-3
        with pytest.raises(ValueError, match="non-aligned"):
            aligned_chart_basis(rows)


def _is_convex(points: np.ndarray) -> bool:
    n = points.shape[0]
    signs = []
    for i in range(n):
        a, b, c = points[i], points[(i + 1) % n], points[(i + 2) % n]
        u, v = b - a, c - b
        signs.append(u[0] * v[1] - u[1] * v[0])
    arr = np.array(signs)
    return bool((arr > 0).all() or (arr < 0).all())
