import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from coulomb_eq.potentials import PoleError, regular_pairs
from coulomb_eq.solver import TorusSpace
from coulomb_eq.spaces import (
    KEY_DECIMALS,
    ChargeVector,
    PolygonConfig,
    TorusConfig,
    TORUS_ALIGNED_LABELS,
    alignment_defect,
    apply_involution,
    canonicalize,
    config_rows,
    deserialize_config,
    distance_key,
    gauge_fix,
    mirror_rows,
    pair_distances,
    pairwise_distances,
    perimeter_value,
    plane_points,
    pole_radius_of,
    reduce_angle,
    reduce_angles,
    row_config,
    serialize_config,
)

EQUILATERAL = [[0.0, 0.0], [1 / 3, 0.0], [1 / 6, math.sqrt(3) / 6]]


def triangle_from_sides(l1, l2, l3, flip=False):
    x = (l3 * l3 + l2 * l2 - l1 * l1) / (2 * l3)
    y = math.sqrt(max(l2 * l2 - x * x, 0.0))
    return PolygonConfig.from_points([[0, 0], [l3, 0], [x, -y if flip else y]])


# reusable strategies: triangles away from poles, generic torus charts
side_triples = st.tuples(
    st.floats(0.1, 0.45), st.floats(0.1, 0.45), st.floats(0.1, 0.45),
).map(lambda t: tuple(v / sum(t) for v in t)).filter(
    lambda t: min(t) > 0.08 and max(t) < 0.5 * 0.97)

angle_pairs = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))

# stacks of one to four raw n-gons, n = 3..8, with a perimeter well
# clear of zero (below about 1e-154 the squared sides underflow)
raw_polygon_stacks = st.tuples(st.integers(1, 4), st.integers(3, 8)).flatmap(
    lambda shape: arrays(float, (shape[0], shape[1], 2),
                         elements=st.floats(-1.0, 1.0))).filter(
    lambda raw: perimeter_value(raw).min() > 1e-3)


def rotated(points, theta):
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return points @ rot.T


class TestChargeVector:
    def test_normalized_view_sums_to_one(self):
        q = ChargeVector.of([2.0, 3.0, 5.0])
        assert np.allclose(q.normalized.sum(), 1.0)
        assert np.allclose(q.normalized, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -2.0], [math.nan, 1.0]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ChargeVector.of(bad)


class TestPolygonConfig:
    def test_gauge_and_perimeter(self):
        cfg = PolygonConfig.from_points([[1.0, 2.0], [4.0, 2.0], [2.5, 5.0]])
        assert cfg.points[0, 0] == 0.0 and cfg.points[0, 1] == 0.0
        assert cfg.points[1, 1] == 0.0 and cfg.points[1, 0] > 0.0
        assert abs(cfg.perimeter - 1.0) < 1e-12

    def test_rejects_broken_gauge(self):
        with pytest.raises(ValueError):
            PolygonConfig(np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.3]]))

    def test_coincident_vertices_flagged_not_rejected(self):
        eps = 1e-9
        cfg = PolygonConfig.from_points([[0, 0], [eps, 0], [0.5, 0.0]])
        with pytest.raises(PoleError):
            regular_pairs(cfg.points[None], None)
        assert pairwise_distances(cfg)[0, 1] < pole_radius_of(None)

    def test_gauge_falls_back_when_second_vertex_at_origin(self):
        cfg = PolygonConfig.from_points([[0, 0], [0, 0], [0.3, 0.4]])
        assert cfg.gauge_index == 2
        assert cfg.points[2, 1] == 0.0

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0], [math.nan, 0.0], [0.5, 0.3]],
        [[0.0, 0.0], [0.5, 0.0], [0.2, math.inf]],
        [[0.3, 0.1], [0.3, 0.1], [0.3, 0.1]],  # fully coincident: no perimeter
    ])
    def test_rejects_non_finite_points(self, points):
        with pytest.raises(ValueError):
            PolygonConfig.from_points(points)


class TestTorusConfig:
    @pytest.mark.parametrize("angles", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite_angles(self, angles):
        with pytest.raises(ValueError):
            TorusConfig((1.0, 2.0, 3.0), angles)

    def test_space_and_configuration_carry_three_charges(self):
        assert TorusSpace((1.0, 2.0, 3.0)).n == TorusConfig((1.0, 2.0, 3.0), (0.5, 0.5)).n == 3


def scalar_gauge_fix(points):
    """Reference: the gauge fix of one configuration, step by step."""
    pts = np.asarray(points, dtype=float).copy()
    pts -= pts[0]
    gauge = next((i for i in range(1, len(pts)) if pts[i, 0] != 0.0 or pts[i, 1] != 0.0), 0)
    if gauge:
        x, y = pts[gauge]
        r = np.hypot(x, y)
        c, s = x / r, y / r
        pts = pts @ np.array([[c, s], [-s, c]]).T
        pts[gauge] = (r, 0.0)
    per = float(sum(np.linalg.norm(e) for e in np.roll(pts, -1, axis=0) - pts))
    if per <= 0.0:
        raise ValueError("fully coincident")
    if abs(per - 1.0) > 4.0 * np.finfo(float).eps:
        pts /= per
    pts[0] = 0.0
    return pts + 0.0


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestStackedGaugeFix:
    def stack(self):
        rng = np.random.default_rng(11)
        rows = list(rng.uniform(-1.0, 1.0, (40, 4, 2)))
        coincident = rng.uniform(-1.0, 1.0, (4, 2))
        coincident[1] = coincident[0]  # gauge falls back to vertex 2
        canonical = gauge_fix(rng.uniform(-1.0, 1.0, (4, 2)))
        signed = np.array([[-0.0, -0.0], [0.25, -0.0], [0.5, -0.0], [0.25, -0.0]])
        flat = np.full((4, 2), 0.3)
        return np.array(rows + [coincident, canonical, signed, flat])

    def test_rows_match_the_scalar_reference_bitwise(self):
        stack = self.stack()
        fixed = gauge_fix(stack)
        for row, out in zip(stack[:-1], fixed[:-1]):
            assert same_bits(out, scalar_gauge_fix(row))
            assert same_bits(out, gauge_fix(row))
        assert fixed[-4, 1, 0] == 0.0 and fixed[-4, 2, 1] == 0.0
        assert same_bits(fixed[-3], stack[-3])  # already canonical: a no-op
        assert not np.signbit(fixed[-2]).any()
        with pytest.raises(ValueError):
            scalar_gauge_fix(stack[-1])
        assert np.isnan(fixed[-1]).all() and np.isnan(gauge_fix(stack[-1])).all()


class TestDistances:
    def test_same_ray_torus_distances_are_radius_differences(self):
        cfg = TorusConfig((1, 2, 3), (0.0, 0.0))
        d = pairwise_distances(cfg)
        assert d[1, 2] == pytest.approx(1.0, abs=1e-14)  # pair opposite point 1
        assert d[0, 2] == pytest.approx(2.0, abs=1e-14)
        assert d[0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_opposite_ray_distances_are_radius_sums(self):
        cfg = TorusConfig((1, 2, 3), (math.pi, math.pi))
        d3, d2, d1 = pair_distances(*config_rows(cfg))[0]
        assert d1 == pytest.approx(5.0, abs=1e-14)
        assert d2 == pytest.approx(4.0, abs=1e-14)
        assert d3 == pytest.approx(1.0, abs=1e-14)

    def test_equilateral_polygon_distances(self):
        d = pairwise_distances(PolygonConfig.from_points(EQUILATERAL))
        off = d[np.triu_indices(3, 1)]
        assert np.allclose(off, 1 / 3, atol=1e-15)

    @given(angle_pairs)
    @settings(max_examples=60)
    def test_chart_matches_embedding(self, angles):
        cfg = TorusConfig((1.0, 2.0, 3.0), angles)
        emb = plane_points(*config_rows(cfg))[0]
        d = pairwise_distances(cfg)
        for (i, j), side in (((1, 2), 0), ((0, 2), 1), ((0, 1), 2)):
            direct = float(np.linalg.norm(emb[i] - emb[j]))
            assert d[i, j] == pytest.approx(direct, rel=1e-14, abs=1e-14)

    @given(st.tuples(st.integers(1, 5), st.integers(3, 8)).flatmap(
        lambda shape: arrays(float, (shape[0], shape[1], 2),
                             elements=st.floats(-1e3, 1e3))))
    @settings(max_examples=80)
    def test_perimeter_matches_the_diff_reference_bit_for_bit(self, stack):
        edges = np.diff(stack, axis=-2, append=stack[..., :1, :])
        # np.linalg.norm of each edge alone, added one by one in vertex order
        reference = np.array([sum(np.linalg.norm(e) for e in polygon) for polygon in edges])
        assert np.array_equal(perimeter_value(stack), reference)
        assert perimeter_value(stack[0]) == reference[0]

    def test_derived_angle_keeps_constraint_exact(self):
        cfg = TorusConfig((1, 2, 3), (1.234, -2.345))
        a1, a2, a3 = cfg.alphas
        assert reduce_angle(a1 + a2 + a3) == pytest.approx(0.0, abs=1e-15)


class TestInvolution:
    def test_aligned_configuration_is_fixed_point(self):
        cfg = PolygonConfig.from_points([[0, 0], [0.25, 0], [0.5, 0]])
        assert apply_involution(cfg) is not cfg
        assert np.array_equal(apply_involution(cfg).points, cfg.points)

    def test_mirror_triangle_same_distances(self):
        cfg = triangle_from_sides(0.3, 0.3, 0.4)
        mirror = apply_involution(cfg)
        assert mirror.points[2, 1] < 0
        assert np.allclose(pairwise_distances(mirror), pairwise_distances(cfg),
                           atol=1e-14)

    def test_torus_involution_negates_angles(self):
        cfg = TorusConfig((1, 2, 3), (0.7, -1.2))
        assert apply_involution(cfg).angles == (-0.7, 1.2)

    @given(side_triples, st.booleans())
    @settings(max_examples=60)
    def test_polygon_involution_is_exact_involution(self, sides, flip):
        cfg = triangle_from_sides(*sides, flip=flip)
        twice = apply_involution(apply_involution(cfg))
        assert np.array_equal(twice.points, cfg.points)

    @given(angle_pairs)
    @settings(max_examples=60)
    def test_torus_involution_is_exact_involution(self, angles):
        cfg = TorusConfig((1.0, 2.0, 3.0), angles)
        twice = apply_involution(apply_involution(cfg))
        assert twice.angles == cfg.angles


class TestAlignmentDefect:
    def test_segment_is_aligned(self):
        cfg = PolygonConfig.from_points([[0, 0], [0.2, 0], [0.5, 0]])
        assert alignment_defect(cfg) == 0.0

    def test_equilateral_has_large_defect(self):
        cfg = PolygonConfig.from_points(EQUILATERAL)
        # apex height over the base line, split around the centroid
        assert alignment_defect(cfg) > 0.05

    @pytest.mark.parametrize("label", TORUS_ALIGNED_LABELS)
    def test_torus_aligned_labels_are_aligned(self, label):
        cfg = TorusConfig((1, 2, 3), (label[0], label[1]))
        assert alignment_defect(cfg) == 0.0


class TestCanonicalize:
    def test_rotated_copy_maps_to_identical_form(self):
        cfg = triangle_from_sides(0.25, 0.35, 0.4)
        theta = 1.1
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        rotated = cfg.points @ rot.T
        canon, key = canonicalize(rotated)
        assert np.allclose(canon.points, cfg.points, atol=1e-14)
        assert key == distance_key(cfg)

    def test_mirror_shares_key_differs_in_form(self):
        cfg = triangle_from_sides(0.25, 0.35, 0.4)
        mirror = apply_involution(cfg)
        _, key = canonicalize(cfg)
        _, mkey = canonicalize(mirror)
        assert key == mkey
        assert not np.array_equal(mirror.points, cfg.points)

    def test_distinct_collinear_equilibria_have_distinct_keys(self):
        from coulomb_eq.solver import solve_line_three
        # generic charges: no outer-pair ratio repeats or inverts another,
        # so the three splits give three different distance multisets
        segs = solve_line_three(ChargeVector.of([1.0, 2.0, 5.0]))
        keys = {distance_key(s) for s in segs}
        assert len(keys) == 3

    @given(side_triples, st.booleans(), st.floats(-math.pi, math.pi),
           st.floats(0.2, 5.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60)
    def test_gauge_idempotence(self, sides, flip, theta, scale, shift):
        # raw vertex arrays are re-gauged; a configuration comes back as it is
        raw = rotated(triangle_from_sides(*sides, flip=flip).points, theta) * scale + shift
        once, key1 = canonicalize(raw)
        twice, key2 = canonicalize(once.points)
        assert np.array_equal(once.points, twice.points)
        assert key1 == key2

    def test_keys_in_the_int64_range_round_half_to_even(self):
        rng = np.random.default_rng(3)
        for cfg in [PolygonConfig.from_points(rng.normal(size=(5, 2))) for _ in range(20)] + [
                TorusConfig((1.0, 2.0, 3.0), tuple(rng.uniform(-3.0, 3.0, 2))) for _ in range(20)]:
            scaled = pair_distances(*config_rows(cfg))[0] * 10 ** KEY_DECIMALS
            assert distance_key(cfg) == tuple(np.sort(np.rint(scaled)).astype(np.int64).tolist())

    def test_key_of_distances_past_the_int64_range_is_exact(self):
        # at 1e10 the scaled distances pass 2**63, where an int64 cast wraps
        cfg = TorusConfig((1e10, 2e10, 3e10), (0.4, -2.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = distance_key(cfg)
        assert key == tuple(round(d * 10 ** KEY_DECIMALS) for d in sorted(pair_distances(*config_rows(cfg))[0].tolist()))
        assert min(key) > 2 ** 63 and len(set(key)) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_key_refuses_non_finite_distances(self):
        # the cosine-rule distances overflow at these radii
        with pytest.raises(ValueError, match="not finite"):
            distance_key(TorusConfig((1e200, 2e200, 3e200), (2.04, 1.92)))

    def test_configuration_comes_back_as_it_is(self):
        for cfg in (triangle_from_sides(0.25, 0.35, 0.4), TorusConfig((1, 2, 3), (0.4, -2.2))):
            canon, key = canonicalize(cfg)
            assert canon is cfg
            assert key == distance_key(cfg)

    @given(side_triples, st.booleans())
    @settings(max_examples=60)
    def test_operations_preserve_perimeter(self, sides, flip):
        cfg = triangle_from_sides(*sides, flip=flip)
        assert abs(apply_involution(cfg).perimeter - 1.0) < 1e-12
        canon, _ = canonicalize(cfg)
        assert abs(canon.perimeter - 1.0) < 1e-12


class TestCanonicalRows:
    """The invariant that lets canonical rows skip re-gauging: the gauge
    fix is idempotent bit for bit, and the mirror of a canonical stack is
    canonical as it stands."""

    @given(raw_polygon_stacks)
    @settings(max_examples=200, deadline=None)
    def test_gauge_fix_is_idempotent(self, raw):
        fixed = gauge_fix(raw)
        assert np.array_equal(gauge_fix(fixed), fixed)

    def test_subnormal_gauge_vertex_is_fixed_again(self):
        # the rescale rounds the gauge vertex (offset 5e-324) to the
        # origin, so the row is fixed again from vertex 2
        raw = np.array([[5e-324, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        fixed = gauge_fix(raw)
        assert same_bits(fixed, expected)
        assert same_bits(gauge_fix(fixed), fixed)
        other = np.array([[0.1, 0.2], [0.7, -0.3], [0.4, 0.9], [-0.2, 0.5]])
        stacked = gauge_fix(np.stack([other, raw]))
        assert same_bits(stacked[0], gauge_fix(other))
        assert same_bits(stacked[1], expected)
        cfg = PolygonConfig.from_points(raw)
        assert same_bits(cfg.points, expected)
        with pytest.raises(PoleError):
            regular_pairs(cfg.points[None], None)

    @given(raw_polygon_stacks)
    @settings(max_examples=200, deadline=None)
    def test_mirrored_canonical_stack_is_canonical(self, raw):
        mirrors = mirror_rows(gauge_fix(raw))
        assert np.array_equal(gauge_fix(mirrors), mirrors)
        assert not np.signbit(mirrors[..., 1][mirrors[..., 1] == 0.0]).any()

    @given(st.lists(angle_pairs, min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_torus_mirrors_are_reduced(self, angles):
        rows = reduce_angles(np.array(angles))
        mirrors = mirror_rows(rows, (1.0, 2.0, 3.0))
        assert np.array_equal(reduce_angles(mirrors), mirrors)
        assert np.array_equal(mirror_rows(mirrors, (1.0, 2.0, 3.0)), rows)

    def test_row_config_inverts_config_rows(self):
        for cfg in (triangle_from_sides(0.25, 0.35, 0.4), TorusConfig((1, 2, 3), (0.4, -2.2))):
            rows, radii = config_rows(cfg)
            back = row_config(rows[0], radii)
            assert type(back) is type(cfg)
            assert np.array_equal(config_rows(back)[0], rows)
            mirror = row_config(mirror_rows(rows, radii)[0], radii)
            assert np.array_equal(config_rows(mirror)[0],
                                  config_rows(apply_involution(cfg))[0])


class TestSerialization:
    def test_polygon_roundtrip(self):
        cfg = triangle_from_sides(0.25, 0.35, 0.4)
        q = ChargeVector.of([1.0, 2.0, 3.0])
        data = serialize_config(cfg, q)
        assert data["space"] == "polygon"
        back, back_q = deserialize_config(data)
        assert np.array_equal(back.points, cfg.points)
        assert back_q.q == q.q

    def test_torus_roundtrip(self):
        cfg = TorusConfig((1.5, 2.0, 2.5), (0.4, -0.9))
        data = serialize_config(cfg)
        assert data["space"] == "torus"
        assert data["radii"] == [1.5, 2.0, 2.5]
        back, none_q = deserialize_config(data)
        assert back.angles == cfg.angles
        assert none_q is None

    @pytest.mark.parametrize("data", [
        [0.0, 1.0],
        "torus",
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [1.0]},
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [1.0, 2.0, 3.0]},
        {"space": "torus", "radii": 5, "angles": [1.0, 2.0]},
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": 1.0},
    ], ids=["list", "string", "one-angle", "three-angles", "scalar-radii", "scalar-angles"])
    def test_malformed_data_raises_value_error(self, data):
        with pytest.raises(ValueError):
            deserialize_config(data)
