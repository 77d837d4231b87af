import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coulomb_eq.inverse import (
    stabilizing_charges,
    stabilizing_charges_triangle,
    verify_equilibrium,
)
from coulomb_eq.morse import classify_spectrum
from coulomb_eq.potentials import hessian, stationarity_relation_residual
from coulomb_eq.solver import TorusSpace, critical_triangle, find_critical_points, solve_line_three
from coulomb_eq.spaces import (
    TORUS_ALIGNED_LABELS,
    ChargeVector,
    PolygonConfig,
    TorusConfig,
    pairwise_distances,
)

PI = math.pi
EQUILATERAL = PolygonConfig.from_points(
    [[0.0, 0.0], [1 / 3, 0.0], [1 / 6, math.sqrt(3) / 6]])


def collinear(mid: int, d_left: float) -> PolygonConfig:
    """Collinear triple of perimeter one with vertex ``mid`` between the
    other two, ``d_left`` away from the lower-numbered one."""
    _, right = (i for i in range(3) if i != mid)
    x = np.zeros((3, 2))
    x[mid, 0], x[right, 0] = d_left, 0.5
    return PolygonConfig.from_points(x)


def inverse_square_sides(cfg: PolygonConfig) -> np.ndarray:
    """Triangle oracle: charges proportional to the inverse squared side
    opposite each vertex, normalized to unit sum."""
    d = pairwise_distances(cfg)
    q = np.array([d[1, 2], d[0, 2], d[0, 1]]) ** -2
    return q / q.sum()


def sine_ray(cfg: TorusConfig) -> np.ndarray:
    """Circles oracle: charges proportional to sin(alpha_i) / (d_i**3 r_i),
    with d_i the side opposite point i, normalized to unit sum."""
    ray = np.sin(cfg.alphas) / (np.array(cfg.side_distances()) ** 3 * np.array(cfg.radii))
    return ray / ray.sum()


class TestTriangleInverse:
    def test_equilateral_gives_equal_charges(self):
        result = stabilizing_charges_triangle(1 / 3, 1 / 3, 1 / 3)
        assert result.kind == "unique-ray"
        assert result.charges.q == pytest.approx((1 / 3,) * 3)
        assert result.residual < 1e-9

    def test_isoceles_recovers_inverse_square_sides(self):
        result = stabilizing_charges_triangle(2 / 5, 2 / 5, 1 / 5)
        assert result.kind == "unique-ray"
        assert result.charges.normalized == pytest.approx(
            np.array([1, 1, 4]) / 6, abs=1e-12)

    def test_degenerate_sides_route_to_aligned_family(self):
        result = stabilizing_charges_triangle(0.5, 0.3, 0.2)
        assert result.kind == "one-parameter-family"
        assert result.family is not None
        # outer pair (vertices 2 and 3) balances like the squared segments
        assert result.family.outer[0] / result.family.outer[1] == pytest.approx(
            (0.2 / 0.3) ** 2)
        assert result.residual < 1e-9
        assert result.notes.startswith("degenerate sides: vertex 1 is intermediate; ")

    def test_impossible_sides_are_infeasible(self):
        result = stabilizing_charges_triangle(0.6, 0.2, 0.1)
        assert result.kind == "infeasible"
        assert result.charges is None

    def test_scale_of_sides_does_not_matter(self):
        a = stabilizing_charges_triangle(0.3, 0.4, 0.3)
        b = stabilizing_charges_triangle(3.0, 4.0, 3.0)
        assert a.charges.normalized == pytest.approx(b.charges.normalized)

    def test_random_triangles_match_inverse_square_sides(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cfg = PolygonConfig.from_points(rng.normal(size=(3, 2)))
            if cfg.has_pole:
                continue
            result = stabilizing_charges(cfg)
            assert result.kind == "unique-ray"
            assert np.abs(result.charges.normalized
                          - inverse_square_sides(cfg)).max() < 1e-12

    def test_more_than_three_vertices_raise(self):
        square = PolygonConfig.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError, match="three charges only"):
            stabilizing_charges(square)

    def test_pole_raises(self):
        cfg = PolygonConfig.from_points([[0, 0], [1e-9, 0], [0.3, 0.2]])
        with pytest.raises(ValueError, match="pole"):
            stabilizing_charges(cfg)


class TestAlignedInverse:
    def test_symmetric_segments(self):
        result = stabilizing_charges(collinear(1, 0.25))
        q_left, q_right = result.family.outer
        assert q_left == pytest.approx(q_right)
        assert result.family.intermediate_limit == pytest.approx(q_left / 4)

    def test_asymmetric_segments_fix_outer_ratio(self):
        result = stabilizing_charges(collinear(1, 1 / 3))
        assert result.family.outer[0] / result.family.outer[1] == pytest.approx(4.0)

    def test_collinear_triple_must_have_perimeter_one(self):
        # segments that do not sum to one half are not a configuration
        with pytest.raises(ValueError, match="perimeter"):
            PolygonConfig(np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]]))

    @pytest.mark.parametrize("mid", [0, 1, 2])
    @pytest.mark.parametrize("d_left", [0.1, 0.2, 0.25, 0.4])
    def test_each_vertex_intermediate_matches_squared_segment_ratio(self, mid, d_left):
        result = stabilizing_charges(collinear(mid, d_left))
        assert result.kind == "one-parameter-family"
        assert result.notes.startswith(f"degenerate sides: vertex {mid + 1} is intermediate; ")
        q_left, q_right = result.family.outer
        assert q_left + q_right == pytest.approx(1.0, abs=1e-15)
        assert q_left / q_right == pytest.approx((d_left / (0.5 - d_left)) ** 2, rel=1e-12)
        # the representative takes half the limit as its intermediate charge
        q = result.charges.q
        left, right = (i for i in range(3) if i != mid)
        assert q[mid] / q[left] == pytest.approx(
            0.5 * result.family.intermediate_limit / q_left, rel=1e-12)
        assert q[left] / q[right] == pytest.approx(q_left / q_right, rel=1e-12)
        assert result.residual < 1e-9

    def test_criticality_holds_for_any_intermediate_charge(self):
        # stationarity is charge-independent for the middle vertex; only
        # the Morse type changes past the limit
        cfg = collinear(1, 0.25)
        result = stabilizing_charges(cfg)
        limit = result.family.intermediate_limit
        q_left, q_right = result.family.outer
        for mid in (0.01 * limit, limit, 10 * limit):
            charges = ChargeVector.of([q_left, mid, q_right])
            check = verify_equilibrium(cfg, charges)
            assert check.passed

    def test_morse_type_flips_past_the_limit(self):
        cfg = collinear(1, 0.25)
        result = stabilizing_charges(cfg)
        limit = result.family.intermediate_limit
        q_left, q_right = result.family.outer
        below = ChargeVector.of([q_left, 0.5 * limit, q_right])
        above = ChargeVector.of([q_left, 2.0 * limit, q_right])
        idx_b, _ = classify_spectrum(np.linalg.eigvalsh(hessian(cfg, below)))
        idx_a, _ = classify_spectrum(np.linalg.eigvalsh(hessian(cfg, above)))
        assert idx_b == 0 and idx_a == 1

    @given(st.floats(0.05, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_family_matches_collinear_closed_form(self, d_left):
        result = stabilizing_charges(collinear(1, d_left))
        q_left, q_right = result.family.outer
        cfg = solve_line_three(ChargeVector.of([q_left, 1e-3, q_right]))[1]
        d = pairwise_distances(cfg)
        assert d[0, 1] == pytest.approx(d_left, abs=1e-12)


class TestVerifyEquilibrium:
    def test_closed_form_roundtrip_passes(self):
        q = ChargeVector.of([0.25, 0.35, 0.4])
        cfg = critical_triangle(q)
        assert verify_equilibrium(cfg, q).passed

    def test_wrong_charges_fail(self):
        check = verify_equilibrium(EQUILATERAL, ChargeVector.of([1.0, 1.0, 2.0]))
        assert not check.passed
        assert check.relation_residual > 1e-3

    def test_equal_radii_equilateral_passes(self):
        cfg = TorusConfig((1, 1, 1), (2 * PI / 3, 2 * PI / 3))
        assert verify_equilibrium(cfg, ChargeVector.of([1, 1, 1])).passed

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_scale_invariance(self, scale):
        q = ChargeVector.of([0.25, 0.35, 0.4]).scaled(scale)
        cfg = critical_triangle(ChargeVector.of([0.25, 0.35, 0.4]))
        assert verify_equilibrium(cfg, q).passed

    def test_pole_rejected(self):
        from coulomb_eq.potentials import PoleError
        cfg = PolygonConfig.from_points([[0, 0], [1e-9, 0], [0.5, 0]])
        with pytest.raises(PoleError):
            verify_equilibrium(cfg, ChargeVector.of([1, 1, 1]))


class TestTorusInverse:
    def test_recovers_charges_at_solver_equilibria(self):
        space = TorusSpace((1.0, 2.0, 3.0))
        rng = np.random.default_rng(12)
        recovered = 0
        for _ in range(6):
            q = ChargeVector.of(rng.uniform(0.2, 3.0, 3))
            pts = find_critical_points(space, q)
            for cp in pts:
                if cp.aligned:
                    continue
                result = stabilizing_charges(cp.config)
                assert result.kind == "unique-ray"
                assert result.charges.normalized == pytest.approx(
                    q.normalized, abs=1e-8)
                recovered += 1
        assert recovered >= 6

    def test_sign_definite_points_match_sine_ray(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            cfg = TorusConfig(tuple(rng.uniform(0.2, 3.0, 3)),
                              tuple(rng.uniform(-PI, PI, 2)))
            sines = np.sin(cfg.alphas)
            if not ((sines > 0).all() or (sines < 0).all()) or cfg.has_pole:
                continue
            result = stabilizing_charges(cfg)
            assert result.kind == "unique-ray"
            assert np.abs(result.charges.normalized - sine_ray(cfg)).max() < 1e-12
            checked += 1

    @pytest.mark.parametrize("label", TORUS_ALIGNED_LABELS)
    def test_aligned_configuration_admits_every_charge(self, label):
        cfg = TorusConfig((1, 2, 3), label[:2])
        result = stabilizing_charges(cfg)
        assert result.kind == "two-parameter-family"
        assert result.charges.q == (1 / 3,) * 3
        assert result.residual < 1e-12
        assert result.notes == ("aligned configurations are stationary for every "
                                "positive charge triple")

    @pytest.mark.parametrize("angles", [(1.0, PI), (0.0, 1.0), (0.9, -0.9)])
    def test_straight_central_angle_is_infeasible(self, angles):
        # (0.9, -0.9) makes the derived third angle a full turn
        result = stabilizing_charges(TorusConfig((1.0, 2.0, 3.0), angles))
        assert result.kind == "infeasible"
        assert result.charges is None
        assert result.notes.startswith("a single straight central angle")

    def test_mixed_sign_balance_is_infeasible(self):
        # angles whose sines disagree in sign need charges of mixed sign
        cfg = TorusConfig((1.0, 2.0, 3.0), (1.0, -0.5))
        sines = np.sin(cfg.alphas)
        assert (sines > 0.1).any() and (sines < -0.1).any()
        result = stabilizing_charges(cfg)
        assert result.kind == "infeasible"
        assert result.notes.startswith("stationarity would need charges of mixed sign")

    @pytest.mark.parametrize("angles", [(2.0405577597527302, 1.9166509607975102),
                                        (1.0, 2.5), (0.9, -0.9), (PI, 0.0)])
    def test_scale_of_radii_does_not_matter(self, angles):
        results = [stabilizing_charges(TorusConfig(tuple(s * np.array([1.0, 2.0, 3.0])),
                                                   angles))
                   for s in (1e-6, 1.0, 1e6)]
        assert len({r.kind for r in results}) == 1
        if results[0].charges is not None:
            for r in results[1:]:
                assert np.abs(r.charges.normalized
                              - results[0].charges.normalized).max() < 1e-12


class TestRoundtrip:
    def test_hundred_random_charge_vectors(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            q = rng.dirichlet((1.0, 1.0, 1.0))
            if q.min() < 1e-3:
                continue
            inv = 1.0 / np.sqrt(q)
            if 2.0 * inv.max() >= inv.sum():
                continue
            done += 1
            charges = ChargeVector.of(q)
            tri = critical_triangle(charges)
            d = pairwise_distances(tri)
            result = stabilizing_charges_triangle(d[1, 2], d[0, 2], d[0, 1])
            assert result.kind == "unique-ray"
            assert np.abs(result.charges.normalized
                          - charges.normalized).max() < 1e-8

    def test_relation_residual_is_scale_free(self):
        q = ChargeVector.of([0.2, 0.3, 0.5])
        cfg = critical_triangle(q)
        r1 = stationarity_relation_residual(cfg, q)
        r2 = stationarity_relation_residual(cfg, q.scaled(7.0))
        assert r1 == pytest.approx(r2, abs=1e-12)
