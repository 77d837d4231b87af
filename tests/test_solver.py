import math
import re

import numpy as np
import pytest

from coulomb_eq import solver
from coulomb_eq.bifurcation import charge_sweep_path, detect_threshold
from coulomb_eq.cli import solve_payload
from coulomb_eq.morse import classify_spectrum, euler_count_check
from coulomb_eq.potentials import PotentialSpec, fd_gradient
from coulomb_eq.solver import (
    DEDUP_TOL,
    MAX_ITERS,
    MULTISTART_SEED,
    NEWTON_TOL,
    RELATION_TOL,
    PolygonSpace,
    SolveSettings,
    TorusSpace,
    closed_form_seeds as cell_seeds,
    critical_triangle,
    enumerate_aligned,
    find_critical_points,
    line_config_from_positions,
    polish_candidates,
    solve_line_interior,
    solve_line_three,
    _finalize,
    _first_cover,
    _level_seeds,
    _mirror_close,
    _partners,
    _point_rows,
    _polish_polygon,
    _polish_torus_seeds,
    _polygon_seeds,
    _representatives,
    _slope_minima,
)
from coulomb_eq import potentials as pot
from coulomb_eq.spaces import (
    ChargeVector,
    PolygonConfig,
    TORUS_ALIGNED_LABELS,
    TORUS_ALIGNED_ROWS,
    TorusConfig,
    alignment_defect,
    apply_involution,
    canonicalize,
    config_rows,
    distance_key,
    gauge_fix,
    mirror_rows,
    pairwise_distances,
    reduce_angle,
    reduce_angles,
    row_config,
    torus_alphas,
    triangle_vertices,
)
from helpers import (
    bisection_level_seeds,
    configs_match,
    full_grid_torus_census,
    line_grad_hess,
    line_three_energies,
    multistart_census,
    same_census,
    torus_grid_seeds,
    triangle_grid,
)

COULOMB = PotentialSpec.coulomb()
Q111 = ChargeVector.of([1.0, 1.0, 1.0])


class TestLineClosedForm:
    def test_equal_charges_split_in_half(self):
        cfg = solve_line_three(Q111)[1]
        d = pairwise_distances(cfg)
        assert d[0, 1] == pytest.approx(0.25, abs=1e-15)
        assert d[1, 2] == pytest.approx(0.25, abs=1e-15)

    def test_heavy_left_charge_pushes_middle_right(self):
        cfg = solve_line_three(ChargeVector.of([4.0, 1.0, 1.0]))[1]
        d = pairwise_distances(cfg)
        assert d[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert d[1, 2] == pytest.approx(1 / 6, abs=1e-15)

    def test_each_arrangement_is_stationary(self):
        q = ChargeVector.of([2.0, 0.7, 1.3])
        for cfg in solve_line_three(q):
            from coulomb_eq.potentials import gradient
            assert np.linalg.norm(gradient(cfg, q, COULOMB)) < 1e-11

    def test_global_line_minimum_has_smallest_intermediate_charge(self):
        q = ChargeVector.of([3.0, 0.2, 1.0])
        energies = line_three_energies(q)
        assert int(np.argmin(energies)) == 1
        q2 = ChargeVector.of([0.1, 5.0, 2.0])
        assert int(np.argmin(line_three_energies(q2))) == 0

    def test_split_ignores_intermediate_charge(self):
        positions = []
        for mid_charge in (0.01, 0.1, 1.0, 10.0):
            cfg = solve_line_three(ChargeVector.of([4.0, mid_charge, 1.0]))[1]
            positions.append(pairwise_distances(cfg)[0, 1])
        assert max(positions) - min(positions) == 0.0


class TestCriticalTriangle:
    def test_equal_charges_give_equilateral(self):
        cfg = critical_triangle(Q111)
        d = pairwise_distances(cfg)
        assert d[0, 1] == pytest.approx(1 / 3, abs=1e-12)
        assert d[1, 2] == pytest.approx(1 / 3, abs=1e-12)

    def test_side_charge_products_are_balanced(self):
        cfg = critical_triangle(ChargeVector.of([1.0, 1.0, 4.0]))
        d = pairwise_distances(cfg)
        sides = np.array([d[1, 2], d[0, 2], d[0, 1]])
        assert np.allclose(sides, [2 / 5, 2 / 5, 1 / 5], atol=1e-12)
        products = sides ** 2 * np.array([1.0, 1.0, 4.0])
        assert products == pytest.approx([4 / 25] * 3, abs=1e-12)

    def test_no_triangle_when_one_charge_tiny(self):
        assert critical_triangle(ChargeVector.of([1 / 8, 1.0, 1.0])) is None

    def test_boundary_charge_vector_is_just_inside(self):
        # strictly inside the triangle region, arbitrarily close to the edge
        eps = 1e-6
        cfg = critical_triangle(ChargeVector.of([0.25 + eps, 1.0, 1.0]))
        assert cfg is not None


class TestClosedFormStack:
    @pytest.mark.parametrize("kernel", ["coulomb", "power:2.5", "log"])
    @pytest.mark.parametrize("charges", [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0],
                                         [0.3, 1.0, 2.5], [0.125, 1.0, 1.0]])
    def test_equals_an_independent_construction(self, charges, kernel):
        spec = PotentialSpec.parse(kernel)
        q = ChargeVector.of(charges)
        p = spec.ratio_exponent
        expected = []
        for mid in range(3):
            left, right = [i for i in range(3) if i != mid]
            ratio = (q.array[left] / q.array[right]) ** p
            x = np.zeros(3)
            x[mid], x[right] = 0.5 * ratio / (1.0 + ratio), 0.5
            expected.append(PolygonConfig.from_points(np.column_stack([x, np.zeros(3)])))
        sides = q.array ** -p
        vertices = triangle_vertices(sides / sides.sum())
        if vertices is not None:
            tri = PolygonConfig.from_points(vertices)
            expected += [tri, apply_involution(tri)]
        rows = cell_seeds(q, spec)
        assert rows.shape == (len(expected), 3, 2)
        assert np.array_equal(rows, [cfg.points for cfg in expected])
        assert np.array_equal(gauge_fix(rows), rows)

    def test_line_and_triangle_views(self):
        for charges in ([1.0, 2.0, 3.0], [0.125, 1.0, 1.0]):
            q = ChargeVector.of(charges)
            rows = cell_seeds(q)
            assert [cfg.points.tolist() for cfg in solve_line_three(q)] == rows[:3].tolist()
            tri = critical_triangle(q)
            assert (tri is None) == (len(rows) == 3)
            if tri is not None:
                assert np.array_equal(tri.points, rows[3])


class TestEnumerateAligned:
    def test_three_collinear_arrangements(self):
        rows = enumerate_aligned(PolygonSpace(3), Q111)
        assert rows.shape == (3, 3, 2)
        assert all(alignment_defect(PolygonConfig(row)) == 0.0 for row in rows)

    def test_four_torus_labels(self):
        rows = enumerate_aligned(TorusSpace((1.0, 2.0, 3.0)), Q111)
        assert rows is TORUS_ALIGNED_ROWS
        assert rows.tolist() == [list(lab[:2]) for lab in TORUS_ALIGNED_LABELS]
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_polygon_rows_are_the_line_equilibria(self):
        q = ChargeVector.of([0.5, 2.0, 1.0])
        rows = enumerate_aligned(PolygonSpace(3), q)
        assert np.array_equal(rows, [cfg.points for cfg in solve_line_three(q)])

    def test_every_aligned_config_is_stationary(self):
        from coulomb_eq.potentials import gradient
        q = ChargeVector.of([0.5, 2.0, 1.0])
        for space in (PolygonSpace(3), TorusSpace((1.0, 2.0, 3.0))):
            radii = getattr(space, "radii", None)
            for row in enumerate_aligned(space, q):
                cfg = row_config(row, radii)
                assert np.linalg.norm(gradient(cfg, q, COULOMB)) < 1e-11


class TestFindCriticalPointsPolygon:
    def test_balanced_charges_census(self):
        pts = find_critical_points(PolygonSpace(3), Q111)
        assert len(pts) == 5
        minima = [cp for cp in pts if cp.morse_index == 0]
        saddles = [cp for cp in pts if cp.morse_index == 1]
        assert len(minima) == 2 and len(saddles) == 3
        assert all(not cp.aligned for cp in minima)
        assert all(cp.aligned for cp in saddles)
        # the two minima are each other's mirror image
        assert configs_match(apply_involution(minima[0].config), minima[1].config)

    def test_log_kernel_balanced_census(self):
        # the repulsive -log d kernel has the coulomb taxonomy: two minima
        # and three aligned saddles
        space = PolygonSpace(3)
        pts = find_critical_points(space, Q111, PotentialSpec.log())
        summary = euler_count_check(pts, space)
        assert summary.counts == {0: 2, 1: 3} and summary.euler_check == "passed"

    def test_tiny_charge_census(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1 / 8, 1, 1]))
        assert len(pts) == 3
        assert sum(cp.morse_index == 0 for cp in pts) == 1
        assert all(cp.aligned for cp in pts)

    def test_results_sorted_by_energy(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        energies = [cp.energy for cp in pts]
        assert energies == sorted(energies)

    def test_every_point_passes_fd_gradient_check(self):
        # the independent finite-difference probe confirms stationarity;
        # its own truncation noise floors out near 1e-8 at these energies
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        for cp in pts:
            fd = fd_gradient(cp.config, ChargeVector.of([1, 2, 3]), COULOMB)
            assert np.linalg.norm(fd) < 5e-8

    def test_mirror_closure(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        for cp in pts:
            mirror = apply_involution(cp.config)
            assert any(configs_match(mirror, other.config) for other in pts)

    def test_mirror_partners_linked_both_ways(self):
        pts = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        nonaligned = [cp for cp in pts if not cp.aligned]
        assert nonaligned and all(cp.symmetry_partner is not None
                                  for cp in nonaligned)
        aligned = [cp for cp in pts if cp.aligned]
        assert all(cp.symmetry_partner is None for cp in aligned)

    def test_no_extra_points_at_high_density(self):
        base = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]))
        dense = find_critical_points(PolygonSpace(3), ChargeVector.of([1, 2, 3]),
                                     settings=SolveSettings(grid_density=96))
        assert len(base) == len(dense)
        for cp in dense:
            assert any(configs_match(cp.config, other.config) for other in base)


class TestMultistartCrossCheck:
    """The closed forms are the whole three-charge census: a triangle grid
    polished behind them adds no point and moves no bit."""

    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5"])
    @pytest.mark.parametrize("charges", [[1.0, 1.0, 1.0], [0.125, 1.0, 1.0]],
                             ids=["triangle", "collinear"])
    def test_grid_48_adds_nothing(self, charges, kernel):
        spec = PotentialSpec.parse(kernel)
        q = ChargeVector.of(charges)
        assert_same_points(multistart_census(q, spec, grid_density=48),
                           find_critical_points(PolygonSpace(3), q, spec,
                                                SolveSettings(grid_density=48)))

    def test_random_triples(self):
        rng = np.random.default_rng(MULTISTART_SEED)
        sizes = set()
        for k in range(20):
            spec = PotentialSpec.parse(("coulomb", "log", "power:2.5")[k % 3])
            q = ChargeVector.of(rng.uniform(0.1, 3.0, 3))
            pts = find_critical_points(PolygonSpace(3), q, spec)
            assert_same_points(multistart_census(q, spec), pts)
            sizes.add(len(pts))
        # both regimes occur
        assert sizes == {3, 5}


CROSS_CHECK_CHARGES = np.random.default_rng(19).uniform(0.05, 3.0, (12, 3))


class TestLevelSweepCrossCheck:
    """The level sweep seeds every point the whole angle grid finds: the
    census equals the full-grid census as a set."""

    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5"])
    @pytest.mark.parametrize("radii", [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                                       (0.5, 1.7, 1.7)])
    def test_census_equals_the_full_grid(self, radii, kernel):
        space = TorusSpace(radii)
        spec = PotentialSpec.parse(kernel)
        found = 0
        for charges in CROSS_CHECK_CHARGES:
            q = ChargeVector.of(charges)
            pts = find_critical_points(space, q, spec)
            assert same_census(pts, full_grid_torus_census(space, q, spec, 96))
            found += len(pts)
        assert found


class TestLevelSweep:
    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5", "power:6"])
    @pytest.mark.parametrize("radii", [(0.5, 1.7, 2.9), (1.0, 1.0, 2.0)])
    def test_slope_minima_are_the_minima_of_the_core_slopes(self, radii, kernel):
        spec = PotentialSpec.parse(kernel)
        constants = pot.TorusConstants.of(radii, ChargeVector.of([0.4, 1.3, 0.8]))
        star = _slope_minima(constants, spec)[:, 0]
        alpha = np.linspace(0.0, math.pi, 20001)[1:-1]
        slopes = pot.torus_pair_slopes(constants, spec, alpha[None])[0]
        assert (slopes < 0.0).all()
        for i in range(3):
            pair = [r for k, r in enumerate(radii) if k != i]
            if pair[0] == pair[1]:
                # a pole at alpha = 0: the slope only rises
                assert star[i] == 0.0 and (np.diff(slopes[i]) > 0.0).all()
            else:
                assert abs(alpha[slopes[i].argmin()] - star[i]) <= alpha[0]

    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5"])
    @pytest.mark.parametrize("radii", [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                                       (0.5, 1.7, 1.7)])
    def test_seeds_are_the_aligned_rows_then_the_open_half(self, radii, kernel):
        seeds = _level_seeds(TorusSpace(radii), ChargeVector.of([0.4, 1.3, 0.8]),
                             PotentialSpec.parse(kernel))
        assert np.array_equal(seeds[:4], TORUS_ALIGNED_ROWS)
        alphas = torus_alphas(seeds[4:])
        assert len(alphas) and ((alphas > 0.0) & (alphas < math.pi)).all()

    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5", "power:6"])
    @pytest.mark.parametrize("radii", [(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                                       (0.5, 1.7, 1.7)])
    def test_newton_finish_matches_the_bisection_in_few_evaluations(self, radii, kernel,
                                                                     monkeypatch):
        # the 60-halving inversion is the oracle; a finish that falls back
        # to halving takes more than 20 slope evaluations
        space = TorusSpace(radii)
        spec = PotentialSpec.parse(kernel)
        slopes = pot.torus_pair_slopes
        calls = []
        monkeypatch.setattr(pot, "torus_pair_slopes",
                            lambda *args: calls.append(args) or slopes(*args))
        for charges in [*CROSS_CHECK_CHARGES, Q111.array]:
            q = ChargeVector.of(charges)
            oracle = bisection_level_seeds(space, q, spec)
            calls.clear()
            seeds = _level_seeds(space, q, spec)
            assert len(calls) <= 20
            assert seeds.shape == oracle.shape
            assert np.abs(seeds - oracle).max() <= 1e-13

    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5"])
    @pytest.mark.parametrize("radii", [(1.0, 1.0, 1.0), (1.5, 1.5, 1.5)])
    def test_equal_radii_sweep_reaches_the_two_thirds_points(self, radii, kernel):
        # no +-2pi/3 seed is injected on equal radii: an open-half seed
        # polishes onto (2pi/3, 2pi/3) and the mirror closure adds its image
        space = TorusSpace(radii)
        spec = PotentialSpec.parse(kernel)
        third = 2.0 * math.pi / 3.0
        polished = _polish_torus_seeds(space, Q111, spec, _level_seeds(space, Q111, spec)[4:])
        assert np.isclose(polished, third, rtol=0.0, atol=1e-9).all(axis=1).any()
        angles = np.array([cp.config.angles for cp in find_critical_points(space, Q111, spec)])
        for point in (third, -third):
            assert np.isclose(angles, point, rtol=0.0, atol=1e-9).all(axis=1).sum() == 1


class TestPartnerIndex:
    @pytest.mark.parametrize("space,charges,settings", [
        (PolygonSpace(4), [1.0, 1.0, 1.0, 1.0], SolveSettings(grid_density=16)),
        (TorusSpace((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0], SolveSettings()),
    ])
    def test_partner_is_the_index_of_the_mirror_image(self, space, charges, settings):
        q = ChargeVector.of(charges)
        pts = find_critical_points(space, q, settings=settings)
        payload = solve_payload(space, q, COULOMB, pts)
        assert any(cp.aligned for cp in pts) and not all(cp.aligned for cp in pts)
        for i, cp in enumerate(pts):
            assert payload["points"][i]["partner"] == cp.symmetry_partner
            if cp.aligned:
                assert cp.symmetry_partner is None
                continue
            j = cp.symmetry_partner
            assert j is not None and j != i
            assert pts[j].symmetry_partner == i
            assert configs_match(apply_involution(cp.config), pts[j].config)


class TestFindCriticalPointsTorus:
    def test_equal_radii_equilateral_pair(self):
        pts = find_critical_points(TorusSpace((1.0, 1.0, 1.0)), Q111)
        assert len(pts) == 2
        third = 2 * math.pi / 3
        angles = sorted(tuple(round(a, 9) for a in cp.config.angles) for cp in pts)
        assert angles[0] == (round(-third, 9), round(-third, 9))
        assert angles[1] == (round(third, 9), round(third, 9))
        assert all(cp.morse_index == 0 for cp in pts)
        assert all(cp.symmetry_partner is not None for cp in pts)

    def test_distinct_radii_generic_census(self):
        pts = find_critical_points(TorusSpace((1.0, 2.0, 3.0)), Q111)
        assert len(pts) == 6
        by_index = sorted(cp.morse_index for cp in pts)
        assert by_index == [0, 0, 1, 1, 1, 2]
        aligned = [cp for cp in pts if cp.aligned]
        assert len(aligned) == 4

    def test_aligned_minimum_census_is_exact(self):
        pts = find_critical_points(TorusSpace((1.0, 2.0, 3.0)),
                                   ChargeVector.of([1.0, 1.0, 100.0]))
        assert len(pts) == 4
        minimum = [cp for cp in pts if cp.morse_index == 0]
        assert len(minimum) == 1 and minimum[0].aligned

    def test_close_radii_keep_the_exact_aligned_row(self):
        # an unreduced third angle 2 pi - a0 - a1 would lift the gradient at
        # (0, 0) through sin(2 pi) to 1.24e-11, past the Newton tolerance:
        # the census would lose the point and fail its count check
        space = TorusSpace((0.83610, 0.89041, 1.30351))
        q = ChargeVector.of([0.4781, 0.0813, 0.4436])
        pts = find_critical_points(space, q, PotentialSpec.parse("power:2.5"),
                                   SolveSettings(grid_density=96))
        assert sorted(cp.morse_index for cp in pts) == [0, 0, 1, 1, 1, 2]
        [origin] = [cp for cp in pts if cp.config.angles == (0.0, 0.0)]
        assert origin.aligned and origin.morse_index == 2 and origin.grad_norm == 0.0
        assert euler_count_check(pts, space).euler_check == "passed"

    def test_dense_grid_finds_nothing_new(self):
        space = TorusSpace((1.0, 2.0, 3.0))
        q = ChargeVector.of([0.4, 1.3, 0.8])
        base = find_critical_points(space, q)
        dense = find_critical_points(space, q,
                                     settings=SolveSettings(grid_density=96))
        assert len(base) == len(dense)
        for cp in dense:
            assert any(configs_match(cp.config, other.config) for other in base)

    def test_census_reads_no_grid(self, monkeypatch):
        space = TorusSpace((1.0, 2.0, 3.0))
        q = ChargeVector.of([1.0, 2.0, 3.0])
        polished = []
        polish = solver._polish_torus_seeds
        monkeypatch.setattr(solver, "_polish_torus_seeds",
                            lambda *args: polished.append(len(args[3])) or polish(*args))
        coarse = find_critical_points(space, q, settings=SolveSettings(grid_density=8))
        dense = find_critical_points(space, q, settings=SolveSettings(grid_density=96))
        # repr prints every float to the bit
        assert repr(coarse) == repr(dense)
        # the four aligned rows and one seed for the mirror pair
        assert polished == [5, 5]

    @pytest.mark.parametrize("offset, count", [
        (1e-3, 4), (1e-4, 4), (-1e-3, 6), (-1e-4, 6), (-1e-5, 6), (-1e-6, 6), (-1e-7, 6),
    ])
    def test_pitchfork_census_counts(self, offset, count):
        # the benchmark's torus sweep buckles the aligned (pi, pi, 0) at
        # lambda_c and sheds one mirror pair of minima below it, born next
        # to the aligned point
        space = TorusSpace((1.0, 2.0, 3.0))
        path = charge_sweep_path((0.01, 0.01, 1.0), 2)
        lam_c = detect_threshold(space, path, (0.2, 2.0))
        pts = find_critical_points(space, path(lam_c + offset))
        assert len(pts) == count
        assert sum(cp.aligned for cp in pts) == 4
        assert all(cp.symmetry_partner is not None for cp in pts if not cp.aligned)

    def test_relation_residual_of_reported_points(self):
        # proportion residual of reported points stays at solver precision
        from coulomb_eq.potentials import stationarity_relation_residual
        pts = find_critical_points(TorusSpace((1.0, 2.0, 3.0)), Q111)
        for cp in pts:
            assert stationarity_relation_residual(cp.config, Q111, COULOMB) < 1e-9


class TestLineInterior:
    def test_three_charges_reduces_to_closed_form(self):
        q = ChargeVector.of([4.0, 1.0, 1.0])
        xs, h = solve_line_interior(q)
        assert xs[1] == pytest.approx(1 / 3, abs=1e-12)
        assert np.linalg.eigvalsh(h)[0] > 0.0

    def test_four_charges_symmetric_interior(self):
        q = ChargeVector.of([1.0, 0.001, 0.001, 1.0])
        xs, h = solve_line_interior(q)
        assert xs[0] == 0.0 and xs[3] == 0.5
        assert xs[1] + xs[2] == pytest.approx(0.5, abs=1e-9)
        assert (np.linalg.eigvalsh(h) > 0).all()
        cfg = line_config_from_positions(xs)
        from coulomb_eq.potentials import gradient
        assert np.linalg.norm(gradient(cfg, q, COULOMB)) < 1e-9

    @pytest.mark.parametrize("kernel", ["coulomb", "power:2.5", "log"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_array_core_matches_the_scalar_pair_loop(self, n, kernel):
        spec = PotentialSpec.parse(kernel)
        rng = np.random.default_rng(40 + n)
        eps = np.finfo(float).eps
        for _ in range(5):
            q = ChargeVector.of(rng.uniform(0.3, 3.0, n))
            ordered = np.sort(rng.uniform(0.0, 0.5, n))
            ordered[[0, -1]] = 0.0, 0.5
            for xs in (ordered, solve_line_interior(q, spec)[0]):
                der = pot.polygon_derivatives(np.column_stack([xs, np.zeros(n)])[None],
                                              q, spec)
                g_ref, h_ref = line_grad_hess(xs, q, spec)
                # both sum the same pair terms in the same order, with one
                # kernel rounding
                assert np.array_equal(der.energy_hess[0, 0:-2:2, 0:-2:2], h_ref[1:-1, 1:-1])
                diff = np.abs(der.energy_grad[0, 0:-2:2] - g_ref[1:-1])
                assert diff.max() <= 8.0 * eps * np.abs(g_ref).max()


class TestPolishCandidates:
    def test_polishes_near_miss_to_equilibrium(self):
        tri = critical_triangle(Q111)
        noisy = tri.points + 1e-3 * np.array([[0, 0], [0.3, 0], [-0.2, 0.4]])
        pts = polish_candidates(PolygonSpace(3), Q111, [noisy])
        assert pts and any(configs_match(cp.config, tri) for cp in pts)

    def test_pole_locked_seed_dropped_silently(self):
        wild = np.array([[0.0, 0.0], [1e-9, 0.0], [0.5, 0.0]])
        pts = polish_candidates(PolygonSpace(3), Q111, [wild])
        assert pts == []

    @pytest.mark.parametrize("space,candidate,shape", [
        (TorusSpace((1, 2, 3)), [3.1, 3.1, 99.0], (3,)),
        (PolygonSpace(4), critical_triangle(Q111), (3, 2)),
    ], ids=["torus-three-angles", "square-given-a-triangle"])
    def test_candidate_of_the_wrong_shape_rejected(self, space, candidate, shape):
        # neither is truncated or polished into a broadcast error
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            polish_candidates(space, ChargeVector.of([1.0] * space.n), [candidate])

    @pytest.mark.parametrize("space,charges", [
        (PolygonSpace(3), [1.0, 2.0, 3.0]),
        (TorusSpace((1.0, 2.0, 3.0)), [0.3, 1.0, 2.5]),
    ], ids=["polygon", "torus"])
    def test_configs_raw_arrays_and_mixed_lists_agree(self, space, charges):
        # a configuration is taken as the canonical row it holds, a raw
        # array is gauge-fixed first: both give the same census
        q = ChargeVector.of(charges)
        configs = [cp.config for cp in find_critical_points(
            space, q, settings=SolveSettings(grid_density=8))]
        configs += [noisy_copy(cfg, k) for k, cfg in enumerate(configs)]
        arrays = [coords(cfg) for cfg in configs]
        mixed = [cfg if k % 2 else arr for k, (cfg, arr) in enumerate(zip(configs, arrays))]
        reference = polish_candidates(space, q, configs)
        assert reference
        for candidates in (arrays, mixed):
            assert_same_points(polish_candidates(space, q, candidates), reference)


def noisy_copy(cfg, k):
    """A configuration near ``cfg``, a polish away from it."""
    nudge = 1e-4 * (k + 1)
    if isinstance(cfg, TorusConfig):
        return TorusConfig(cfg.radii, (cfg.angles[0] + nudge, cfg.angles[1] - nudge))
    return PolygonConfig.from_points(cfg.points + nudge * np.eye(len(cfg.points), 2))


def assert_same_points(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(coords(a.config), coords(b.config))
        assert (a.energy, a.grad_norm, a.hessian_eigenvalues, a.morse_index, a.degenerate,
                a.aligned, a.key, a.symmetry_partner) == (
            b.energy, b.grad_norm, b.hessian_eigenvalues, b.morse_index, b.degenerate,
            b.aligned, b.key, b.symmetry_partner)


POLE_LOCKED = np.array([[0.0, 0.0], [1e-9, 0.0], [0.5, 0.0]])


def polish(seeds, charges):
    vertices, _, _ = _polish_polygon(np.array(seeds), charges, COULOMB)
    return [PolygonConfig(v) for v in vertices]


def mixed_seed_pool(n, charges):
    """Converged closed forms, a pole-locked seed and random seeds."""
    if n == 3:
        closed = [cfg.points for cfg in solve_line_three(charges)]
        closed.append(critical_triangle(charges).points)
        locked = POLE_LOCKED
    else:
        closed = [line_config_from_positions(solve_line_interior(charges)[0]).points]
        locked = np.vstack([POLE_LOCKED, [[0.3, 0.4]] * (n - 3)])
    rng = np.random.default_rng(MULTISTART_SEED)
    pool = closed[:1] + [locked] + closed[1:]
    pool += [rng.uniform(-1.0, 1.0, size=(n, 2)) for _ in range(12)]
    return list(gauge_fix(pool))


class TestBatchedPolish:
    @pytest.mark.parametrize("charges", [[1.0, 2.0, 3.0], [1.3, 0.6, 1.9, 1.1],
                                         [1.2, 0.7, 1.8, 0.55, 1.5]])
    def test_batch_equals_seeds_polished_alone(self, charges):
        q = ChargeVector.of(charges)
        seeds = mixed_seed_pool(len(charges), q)
        together = polish(seeds, q)
        alone = [cfg for seed in seeds for cfg in polish([seed], q)]
        assert 0 < len(together) < len(seeds)
        assert len(together) == len(alone)
        for a, b in zip(together, alone):
            assert np.array_equal(a.points, b.points)

    def test_closed_forms_survive_unchanged_in_a_batch(self):
        seeds = mixed_seed_pool(3, Q111)
        polished = polish(seeds, Q111)
        for closed in solve_line_three(Q111):
            assert any(np.abs(cfg.points - closed.points).max() < 1e-15
                       for cfg in polished)

    @pytest.mark.parametrize("charges", [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0],
                                         [0.7, 1.3, 1.0], [0.125, 1.0, 1.0]])
    def test_converged_canonical_seeds_come_back_bit_for_bit(self, charges):
        # the closed forms of a control-triangle cell take no Newton step
        # and are not gauge-fixed again; their derivatives come along
        q = ChargeVector.of(charges)
        seeds = cell_seeds(q)
        rows, grad, hess = _polish_polygon(seeds, q, COULOMB)
        assert np.array_equal(rows, seeds)
        fresh = pot.polygon_chart_derivatives(seeds, q, COULOMB)
        assert np.array_equal(grad, fresh[0]) and np.array_equal(hess, fresh[1])

    def test_batch_with_no_seed_past_the_gap_check(self):
        locked = [POLE_LOCKED, POLE_LOCKED[::-1] * 0.5, POLE_LOCKED + 1e-10]
        assert polish(gauge_fix(locked), Q111) == []
        assert polish(np.empty((0, 3, 2)), Q111) == []
        assert polish_candidates(PolygonSpace(3), Q111, locked) == []


def singular_hessian_seed(space, charges):
    """An angle pair on the zero set of the Hessian determinant: the first
    sign change along a grid line, bisected down to neighbouring floats."""
    def det(a1, a2):
        _, hess = pot.chart_derivatives(np.array([[a1, a2]]), space.radii, charges, COULOMB)
        return np.linalg.det(hess[0]), hess[0]

    ticks = np.linspace(-3.0, 3.0, 31)
    lo, hi, a2 = next((lo, hi, a2) for a2 in ticks for lo, hi in zip(ticks, ticks[1:])
                      if det(lo, a2)[0] * det(hi, a2)[0] < 0.0)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if det(mid, a2)[0] * det(lo, a2)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    value, hess = det(lo, a2)
    # the polish treats this Hessian as singular and kills the seed
    assert abs(value) <= 1e-14 * max(1.0, np.abs(hess).max() ** 2)
    return [lo, a2]


class TestCompactedTorusPolish:
    def test_batch_equals_seeds_polished_alone(self):
        space = TorusSpace((0.5, 1.7, 1.7))
        q = ChargeVector.of([0.4, 1.3, 0.8])
        third = 2.0 * math.pi / 3.0
        # aligned labels and grid seeds, the equal-radii +-2pi/3 seeds, a
        # seed inside the pole radius and one with a singular Hessian
        seeds = np.vstack([torus_grid_seeds(space, 8), [[third, third]],
                           [[-third, -third]], [[1e-9, 2.0]],
                           [singular_hessian_seed(space, q)]])

        def polish(batch):
            return _polish_torus_seeds(space, q, COULOMB, batch)

        together = polish(seeds)
        alone = np.vstack([polish(seed[None]) for seed in seeds])
        assert 0 < len(together) < len(seeds)
        assert polish(seeds[-2:]).shape == (0, 2)
        assert np.array_equal(together, alone)

    @pytest.mark.parametrize("radii, charges, extra, evals", [
        # grid points of g = 96 whose iterates cycle up to the round cap
        ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0),
         lambda space, q: 2.0 * math.pi * (np.array([[3, 44], [45, 45], [92, 1]]) + 0.5) / 96,
         [MAX_ITERS + 1] * 3),
        # a seed inside the pole radius and one with a singular Hessian
        ((0.5, 1.7, 1.7), (0.4, 1.3, 0.8),
         lambda space, q: [[1e-9, 2.0], singular_hessian_seed(space, q)], [1, 1]),
    ], ids=["cycling", "pole-and-singular"])
    def test_batch_evaluates_only_the_rows_of_seeds_polished_alone(
            self, monkeypatch, radii, charges, extra, evals):
        space = TorusSpace(radii)
        q = ChargeVector.of(charges)
        seeds = np.vstack([torus_grid_seeds(space, 12), extra(space, q)])
        rows = []
        core = pot.torus_columns

        def counted(constants, spec, a0, a1):
            rows.append(len(a0))
            return core(constants, spec, a0, a1)

        monkeypatch.setattr(pot, "torus_columns", counted)
        _polish_torus_seeds(space, q, COULOMB, seeds)
        together = sum(rows)
        alone = []
        for seed in seeds:
            rows.clear()
            _polish_torus_seeds(space, q, COULOMB, seed[None])
            alone.append(sum(rows))
        # a seed that stopped or died is never evaluated again
        assert together == sum(alone)
        assert alone[-len(evals):] == evals

    def test_reduced_angles_match_the_scalar_reduction(self):
        rng = np.random.default_rng(9)
        special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                   3 * math.pi, math.pi + 1e-15, -math.pi - 1e-15]
        angles = np.concatenate([rng.uniform(-20.0, 20.0, 201), special]).reshape(-1, 2)
        reduced = reduce_angles(angles)

        def scalar_reduction(a):
            a = math.fmod(a, 2.0 * math.pi)
            if a > math.pi:
                a -= 2.0 * math.pi
            elif a <= -math.pi:
                a += 2.0 * math.pi
            return a + 0.0  # normalize -0.0

        expected = np.array([[scalar_reduction(a) for a in row] for row in angles])
        singles = np.array([[reduce_angle(a) for a in row] for row in angles])
        for got in (reduced, singles):
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


def sequential_first_wins(rows, tol):
    """Reference dedup: scan in order against the accepted representatives."""
    kept = []
    for i, row in enumerate(rows):
        if not any(np.abs(row - rows[j]).max() < tol for j in kept):
            kept.append(i)
    return kept


class TestFirstCover:
    def test_matches_sequential_scan_on_torus_rows(self):
        rng = np.random.default_rng(7)
        tol = 1e-7
        angles = rng.uniform(-math.pi, math.pi, (40, 2))
        # planted near-duplicates and pairs on either side of the +-pi wrap
        near = angles[rng.integers(0, 40, 25)] + rng.uniform(-3e-8, 3e-8, (25, 2))
        wrap = np.array([[math.pi - 1e-12, 0.5], [-math.pi + 1e-12, 0.5],
                         [1.0, math.pi], [1.0, -math.pi + 2e-12]])
        pool = np.vstack([angles, near, wrap])[rng.permutation(69)]
        rows = np.stack([np.cos(pool), np.sin(pool)], axis=2).reshape(-1, 4)
        reps = _first_cover(rows, tol)
        assert reps == sequential_first_wins(rows, tol)
        assert len(reps) <= 42  # wrap pairs merge, near-duplicates merge

    def test_matches_sequential_scan_on_raw_rows(self):
        rng = np.random.default_rng(8)
        tol = 2.0 ** -20
        base = rng.uniform(-1.0, 1.0, (30, 6))
        near = base[rng.integers(0, 30, 30)] + rng.uniform(-0.9, 0.9, (30, 6)) * tol
        far = base[rng.integers(0, 30, 10)] + rng.uniform(1.1, 2.0, (10, 6)) * tol
        rows = np.vstack([base, near, far])[rng.permutation(70)]
        assert _first_cover(rows, tol) == sequential_first_wins(rows, tol)

    def test_pair_exactly_tol_apart_stays_distinct(self):
        tol = 2.0 ** -24
        rows = np.array([[0.25, 0.5], [0.25, 0.5 + tol], [0.25, 0.5 + 0.5 * tol]])
        assert rows[1, 1] - rows[0, 1] == tol
        assert _first_cover(rows, tol) == sequential_first_wins(rows, tol) == [0, 1]
        assert _first_cover(np.empty((0, 4)), tol) == []

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_are_their_own_representatives(self, bad):
        tol = 1e-7
        assert _first_cover(np.array([[math.nan, 1.0], [0.0, 1.0]]), tol) == [0, 1]
        rows = np.array([[bad, 1.0], [0.0, 1.0], [bad, 1.0], [0.0, 1.0 + 1e-9],
                         [0.0, bad], [bad, bad], [0.5, 0.5]])
        assert _first_cover(rows, tol) == sequential_first_wins(rows, tol) == [0, 1, 2, 4, 5, 6]


def sequential_mirror_close(rows, radii):
    """Reference mirror closure: scan the mirrors in order, keep one
    unless it is within ``DEDUP_TOL`` of a row or of a kept mirror."""
    mirrors = mirror_rows(rows, radii)
    points, known = _point_rows(mirrors, radii), _point_rows(rows, radii)
    added = []
    for i, point in enumerate(points):
        if not any(np.abs(point - other).max() < DEDUP_TOL
                   for other in [*known, *points[added]]):
            added.append(i)
    return mirrors[added]


def near_mirror_pool(rng, base, radii):
    """``base`` rows, rows a little off the mirrors of some of them, and
    rows a little off others of them (so their mirrors nearly coincide),
    at offsets below and just above ``DEDUP_TOL``, shuffled."""
    k = len(base)
    scale = np.array([0.3, 0.9, 1.5])[rng.integers(0, 3, k)] * DEDUP_TOL
    off = base + (rng.choice([-1.0, 1.0], base.shape).T * scale).T
    pool = np.concatenate([base, mirror_rows(off[: k // 2], radii), off[k // 2:]])
    if radii is not None:
        pool = reduce_angles(pool)
    return pool[rng.permutation(len(pool))]


class TestSamePointRule:
    RADII = (1.0, 2.0, 3.0)

    def test_mirror_pair_across_the_seam(self):
        a = math.pi - 1e-12
        rows = np.array([[a, 0.7], [a, -0.7]])
        # each row's mirror sits on the far side of +-pi from the other row
        assert abs(mirror_rows(rows, self.RADII)[0, 0] - rows[1, 0]) > 6.0
        assert _mirror_close(rows, self.RADII).shape == (0, 2)
        assert _partners(rows, self.RADII) == [1, 0]

    def test_torus_mirror_closure_matches_sequential_scan(self):
        rng = np.random.default_rng(31)
        base = rng.uniform(-math.pi, math.pi, (30, 2))
        base[:4, 0] = [math.pi - 1e-12, -math.pi + 1e-12, math.pi, 0.0]
        rows = near_mirror_pool(rng, base, self.RADII)
        got = _mirror_close(rows, self.RADII)
        assert np.array_equal(got, sequential_mirror_close(rows, self.RADII))
        assert 0 < len(got) < len(rows)

    def test_polygon_mirror_closure_matches_sequential_scan(self):
        rng = np.random.default_rng(32)
        base = gauge_fix(rng.uniform(-1.0, 1.0, (30, 4, 2)))
        rows = near_mirror_pool(rng, base, None)
        got = _mirror_close(rows, None)
        assert np.array_equal(got, sequential_mirror_close(rows, None))
        assert 0 < len(got) < len(rows)


def per_point_finalize(space, rows, charges):
    """Reference finalize, one configuration at a time: mirror closure by
    pairwise matching, classification from ``energy_report``, gates,
    sort, then the partner scan."""
    if isinstance(space, TorusSpace):
        unique = [TorusConfig(space.radii, tuple(row)) for row in rows]
    else:
        unique = [PolygonConfig(row) for row in rows]
    for cfg in list(unique):
        mirror = apply_involution(cfg)
        if isinstance(mirror, PolygonConfig):
            # re-gauged from raw vertices, so the finalize's mirrors, which
            # are never re-gauged, must come out canonical as they stand
            mirror, _ = canonicalize(mirror.points)
        if not any(configs_match(mirror, u) for u in unique):
            unique.append(mirror)
    points = []
    for cfg in unique:
        report = pot.energy_report(cfg, charges, COULOMB)
        grad_norm = float(np.linalg.norm(report.gradient))
        if (grad_norm > NEWTON_TOL or pot.stationarity_relation_residual(
                cfg, charges, COULOMB) > RELATION_TOL):
            continue
        eigs = np.linalg.eigvalsh(report.hessian)
        index, degenerate = classify_spectrum(eigs)
        points.append({"config": cfg, "energy": float(report.value),
                       "grad_norm": grad_norm, "eigs": tuple(float(v) for v in eigs),
                       "index": index, "degenerate": degenerate,
                       "aligned": alignment_defect(cfg) == 0.0, "key": distance_key(cfg)})
    points.sort(key=lambda p: (p["energy"], p["key"]))
    for i, p in enumerate(points):
        mirror = apply_involution(p["config"])
        p["partner"] = None if configs_match(mirror, p["config"]) else next(
            (j for j, o in enumerate(points)
             if j != i and configs_match(mirror, o["config"])), None)
    return points


def coords(cfg):
    return cfg.points if isinstance(cfg, PolygonConfig) else np.array(cfg.angles)


def finalize_rows(space, rows, charges):
    """``_finalize`` of rows that come without their derivatives: those
    are evaluated here, and NaN for a row that is not finite.  A row at a
    pole gets infinite derivatives, which the finalize never reads."""
    radii = space.radii if isinstance(space, TorusSpace) else None
    dim = 2 * (space.n - 2)
    grad, hess = np.full((len(rows), dim), np.nan), np.full((len(rows), dim, dim), np.nan)
    finite = np.isfinite(rows).reshape(len(rows), -1).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad[finite], hess[finite] = pot.chart_derivatives(rows[finite], radii, charges, COULOMB)
    return _finalize(space, (rows, grad, hess), charges, COULOMB)


class TestArrayFinalize:
    @pytest.mark.parametrize("space,charges,grid", [
        (PolygonSpace(3), [1.0, 1.0, 1.0], 24),
        (PolygonSpace(3), [0.125, 1.0, 1.0], 24),
        (PolygonSpace(4), [1.0, 1.0, 1.0, 1.0], 16),
        (TorusSpace((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0], 24),
        (TorusSpace((1.0, 1.0, 1.0)), [1.0, 1.0, 1.0], 24),
    ])
    def test_matches_the_per_point_pipeline(self, space, charges, grid):
        q = ChargeVector.of(charges)
        settings = SolveSettings(grid_density=grid)
        if isinstance(space, TorusSpace):
            seeds = torus_grid_seeds(space, grid)
        elif space.n == 3:
            # the seeds of ``multistart_census``: the dedup sees hundreds
            # of converged rows
            seeds = gauge_fix([*cell_seeds(q), *triangle_grid(grid)])
        else:
            seeds = _polygon_seeds(space, q, COULOMB, settings)
        reps = _representatives(space, q, COULOMB, seeds)
        expected = per_point_finalize(space, reps[0], q)
        got = _finalize(space, reps, q, COULOMB)
        assert len(got) == len(expected) > 0
        for cp, ref in zip(got, expected):
            assert np.array_equal(coords(cp.config), coords(ref["config"]))
            assert (cp.energy, cp.grad_norm, cp.hessian_eigenvalues) == (
                ref["energy"], ref["grad_norm"], ref["eigs"])
            assert (cp.morse_index, cp.degenerate, cp.aligned, cp.key) == (
                ref["index"], ref["degenerate"], ref["aligned"], ref["key"])
            assert cp.symmetry_partner == ref["partner"]

    def test_mirror_is_checked_against_mirrors_added_before_it(self):
        # two rows closer than DEDUP_TOL (the finalize does not dedup) have
        # matching mirrors: only the first mirror is added
        tri = critical_triangle(Q111).points
        near = gauge_fix(tri + np.array([[0.0, 0.0], [0.0, 0.0], [1e-13, 0.0]]))
        rows = np.stack([tri, near])
        got = finalize_rows(PolygonSpace(3), rows, Q111)
        expected = per_point_finalize(PolygonSpace(3), rows, Q111)
        assert len(got) == len(expected) == 3
        for cp, ref in zip(got, expected):
            assert np.array_equal(coords(cp.config), coords(ref["config"]))
            assert cp.symmetry_partner == ref["partner"]

    @pytest.mark.parametrize("scale", [1e77, 1e100, 1e150])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_with_a_nan_hessian_are_dropped(self, scale):
        # the pair terms overflow to NaN Hessians at these radii
        space = TorusSpace((scale, 2.0 * scale, 3.0 * scale))
        pts = find_critical_points(space, ChargeVector.of([1.0, 2.0, 3.0]),
                                   settings=SolveSettings(grid_density=8))
        assert all(np.isfinite(cp.hessian_eigenvalues).all() for cp in pts)

    def test_nan_and_pole_rows_are_dropped(self):
        tri = critical_triangle(Q111).points
        rows = np.stack([np.full((3, 2), np.nan), gauge_fix(POLE_LOCKED), tri])
        pts = finalize_rows(PolygonSpace(3), rows, Q111)
        # the triangle and its synthesized mirror image
        assert len(pts) == 2 and pts[0].symmetry_partner == 1
        assert all(math.isfinite(cp.energy) for cp in pts)
        # torus:1,1,2 has a pole at the (pi, pi, 0) label
        rows = np.array([[math.pi, math.pi], [math.nan, 0.5], [0.0, math.pi]])
        pts = finalize_rows(TorusSpace((1.0, 1.0, 2.0)), rows, Q111)
        assert [cp.config.angles for cp in pts] == [(0.0, math.pi)]


class TestCarriedDerivatives:
    @pytest.mark.parametrize("space,charges,grid", [
        (PolygonSpace(3), [1.0, 2.0, 3.0], 24),
        (PolygonSpace(4), [1.3, 0.6, 1.9, 1.1], 16),
        (TorusSpace((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0], 24),
    ])
    def test_reported_spectra_equal_a_fresh_evaluation(self, space, charges, grid):
        # the derivatives carried from the polish to the finalize are those
        # of the reported row; every census here has mirror pairs
        q = ChargeVector.of(charges)
        if space == PolygonSpace(3):
            pts = multistart_census(q, grid_density=grid)
        else:
            pts = find_critical_points(space, q, settings=SolveSettings(grid_density=grid))
        assert any(cp.symmetry_partner is not None for cp in pts)
        for cp in pts:
            grad, hess = pot.chart_derivatives(*config_rows(cp.config), q, COULOMB)
            assert cp.grad_norm == float(np.linalg.norm(grad[0]))
            assert cp.hessian_eigenvalues == tuple(np.linalg.eigvalsh(hess[0]).tolist())


class TestClosedFourCharge:
    """Censuses of four charges whose alternating count closes at
    (-1)**4 * 2! = 2."""

    @pytest.mark.parametrize("charges,counts", [
        ([1.0, 1.0, 1.0, 1.0], {0: 6, 1: 16, 2: 12}),
        ([1.3, 0.6, 1.9, 1.1], {0: 2, 1: 10, 2: 10}),
    ])
    def test_grid_16_census(self, charges, counts):
        pts = find_critical_points(PolygonSpace(4), ChargeVector.of(charges),
                                   settings=SolveSettings(grid_density=16))
        summary = euler_count_check(pts, PolygonSpace(4))
        assert dict(summary.counts) == counts
        assert sum((-1) ** k * c for k, c in counts.items()) == 2


class TestSettings:
    def test_grid_density_floor(self):
        with pytest.raises(ValueError):
            SolveSettings(grid_density=4)

    @pytest.mark.parametrize("entry", [
        lambda space, charges, candidate: find_critical_points(space, charges),
        lambda space, charges, candidate: polish_candidates(space, charges, []),
        lambda space, charges, candidate: polish_candidates(space, charges, [candidate]),
    ], ids=["search", "polish-nothing", "polish-one"])
    @pytest.mark.parametrize("space,count,candidate", [
        (PolygonSpace(3), 4, [[0.0, 0.0], [0.3, 0.0], [0.1, 0.2]]),
        (PolygonSpace(4), 5, [[0.0, 0.0], [0.25, 0.0], [0.25, 0.25], [0.0, 0.25]]),
        (TorusSpace((1, 2, 3)), 2, [2.0, 2.0])], ids=["polygon:3", "polygon:4", "torus"])
    def test_charge_count_must_match_space(self, entry, space, count, candidate):
        # checked before any seed is built, by one shared message
        with pytest.raises(ValueError, match=f"^need {space.n} charges, got {count}$"):
            entry(space, ChargeVector.of([1.0] * count), np.array(candidate))
