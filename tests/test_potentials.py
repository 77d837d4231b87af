import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coulomb_eq.potentials import (
    PoleError,
    PotentialSpec,
    aligned_chart_basis,
    chart_derivatives,
    dilation_derivative,
    energy,
    energy_of_points,
    energy_report,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    kernel_eval,
    kernel_terms,
    least_squares_multiplier,
    polygon_chart_derivatives,
    polygon_derivatives,
    polygon_free_indices,
    polygon_stationarity,
    stationarity_relation_residual,
    torus_derivatives,
)
from coulomb_eq.morse import euler_count_check
from coulomb_eq.solver import (
    RELATION_TOL,
    PolygonSpace,
    TorusSpace,
    critical_triangle,
    find_critical_points,
    solve_line_three,
)
from coulomb_eq.spaces import (
    ChargeVector,
    PolygonConfig,
    TorusConfig,
    alignment_defect,
    apply_involution,
    gauge_fix,
)

COULOMB = PotentialSpec.coulomb()
ALL_SPECS = [COULOMB, PotentialSpec.power(2.0), PotentialSpec.log()]

EQUILATERAL = PolygonConfig.from_points(
    [[0.0, 0.0], [1 / 3, 0.0], [1 / 6, math.sqrt(3) / 6]])
UNIT_Q3 = ChargeVector.of([1.0, 1.0, 1.0])


def one_polygon(points, charges=UNIT_Q3, spec=COULOMB):
    """Derivatives of a single configuration, as a stack of one."""
    der = polygon_derivatives(np.asarray(points, dtype=float)[None], charges, spec)
    return type(der)(*(field[0] for field in der))


def random_triangle(rng):
    while True:
        sides = rng.dirichlet((2.0, 2.0, 2.0))
        if sides.min() > 0.12 and sides.max() < 0.47:
            break
    l1, l2, l3 = sides
    x = (l3 * l3 + l2 * l2 - l1 * l1) / (2 * l3)
    y = math.sqrt(max(l2 * l2 - x * x, 0.0)) * (1 if rng.random() < 0.5 else -1)
    return PolygonConfig.from_points([[0, 0], [l3, 0], [x, y]])


class TestKernels:
    def test_inverse_distance_kernel(self):
        assert kernel_eval(COULOMB, 1 / 3) == pytest.approx((3.0, -9.0, 54.0))

    def test_inverse_square_kernel(self):
        assert kernel_eval(PotentialSpec.power(2.0), 1.0) == pytest.approx(
            (1.0, -2.0, 6.0))

    def test_log_kernel(self):
        # -log d, the planar Coulomb kernel: repulsive like the others
        assert kernel_eval(PotentialSpec.log(), 1.0) == pytest.approx(
            (0.0, -1.0, 1.0))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_scalar_view_matches_array_kernel(self, spec):
        d = np.array([0.05, 1 / 3, 1.0, 2.7])
        arrays = kernel_terms(spec, d)
        for k, dk in enumerate(d):
            assert kernel_eval(spec, float(dk)) == pytest.approx(
                tuple(a[k] for a in arrays), rel=1e-15)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(ValueError):
            kernel_eval(COULOMB, d)

    def test_power_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            PotentialSpec.power(1.0)

    @pytest.mark.parametrize("text", ["power:inf", "power:-inf", "power:nan"])
    def test_power_exponent_must_be_finite(self, text):
        with pytest.raises(ValueError):
            PotentialSpec.parse(text)
        with pytest.raises(ValueError):
            PotentialSpec.power(float(text.split(":")[1]))

    @pytest.mark.parametrize("spec,p", [
        (COULOMB, 0.5), (PotentialSpec.power(2.0), 1 / 3),
        (PotentialSpec.power(2.5), 1 / 3.5), (PotentialSpec.log(), 1.0)],
        ids=lambda v: getattr(v, "label", str(v)))
    def test_ratio_exponent(self, spec, p):
        assert spec.ratio_exponent == p

    @pytest.mark.parametrize("text,label", [
        ("coulomb", "coulomb"), ("power:2", "power:2"), ("log", "log"),
        ("POWER:2.5", "power:2.5")])
    def test_parse(self, text, label):
        assert PotentialSpec.parse(text).label == label


class TestEnergy:
    def test_equilateral_unit_charges(self):
        assert energy(EQUILATERAL, UNIT_Q3, COULOMB) == pytest.approx(9.0, abs=1e-12)

    def test_same_ray_torus(self):
        cfg = TorusConfig((1, 2, 3), (0.0, 0.0))
        assert energy(cfg, UNIT_Q3, COULOMB) == pytest.approx(2.5, abs=1e-14)

    def test_collinear_equilibrium_energy(self):
        cfg = PolygonConfig.from_points([[0, 0], [1 / 3, 0], [1 / 2, 0]])
        q = ChargeVector.of([4.0, 1.0, 1.0])
        assert energy(cfg, q, COULOMB) == pytest.approx(26.0, abs=1e-12)

    def test_pole_energy_is_infinite_with_flag(self):
        cfg = PolygonConfig.from_points([[0, 0], [1e-9, 0], [0.5, 0]])
        assert energy(cfg, UNIT_Q3, COULOMB) == math.inf
        report = energy_report(cfg, UNIT_Q3, COULOMB)
        assert report.pole_flag and report.value == math.inf

    def test_gradient_raises_at_pole(self):
        cfg = PolygonConfig.from_points([[0, 0], [1e-9, 0], [0.5, 0]])
        with pytest.raises(PoleError):
            gradient(cfg, UNIT_Q3, COULOMB)

    @pytest.mark.parametrize("function", [gradient, hessian])
    def test_torus_pole_verdict_at_the_pole_radius(self, function):
        # points 1 and 2 on the unit circles, 5e-8 and 2e-7 apart against a
        # pole radius of 1e-7
        radii = (1.0, 1.0, 3.0)
        near = TorusConfig(radii, (1.0, -1.0 + 5e-8))
        with pytest.raises(PoleError):
            function(near, UNIT_Q3, COULOMB)
        apart = TorusConfig(radii, (1.0, -1.0 + 2e-7))
        value = function(apart, UNIT_Q3, COULOMB)
        assert np.isfinite(value).all()
        assert near.has_pole and not apart.has_pole

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_reflection_symmetry(self, spec):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = random_triangle(rng)
            q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
            assert energy(apply_involution(cfg), q, spec) == pytest.approx(
                energy(cfg, q, spec), abs=1e-12)

    def test_inverse_distance_scaling_law(self):
        rng = np.random.default_rng(1)
        cfg = random_triangle(rng)
        q = ChargeVector.of([1.0, 2.0, 3.0])
        base = energy(cfg, q, COULOMB)
        for lam in np.linspace(0.5, 2.0, 7):
            scaled = energy_of_points(lam * cfg.points, q, COULOMB)
            assert scaled * lam == pytest.approx(base, abs=1e-10)


class TestChartDerivatives:
    def test_scalar_calls_are_rows_of_the_stacked_dispatch(self):
        rng = np.random.default_rng(4)
        q = ChargeVector.of([0.7, 1.3, 2.1])
        triangles = [random_triangle(rng) for _ in range(4)]
        tori = [TorusConfig((1.0, 2.0, 3.0), tuple(rng.uniform(-math.pi, math.pi, 2)))
                for _ in range(4)]
        for spec in ALL_SPECS:
            for configs, radii in ((triangles, None), (tori, (1.0, 2.0, 3.0))):
                rows = np.array([c.points if radii is None else c.angles for c in configs])
                grads, hessians = chart_derivatives(rows, radii, q, spec)
                for cfg, g, h in zip(configs, grads, hessians):
                    report = energy_report(cfg, q, spec)
                    assert np.array_equal(gradient(cfg, q, spec), g)
                    assert np.array_equal(hessian(cfg, q, spec), h)
                    assert np.array_equal(report.gradient, g)
                    assert np.array_equal(report.hessian, h)

    def test_gradient_vanishes_at_equal_radii_equilateral(self):
        cfg = TorusConfig((1, 1, 1), (2 * math.pi / 3, 2 * math.pi / 3))
        assert np.linalg.norm(gradient(cfg, UNIT_Q3, COULOMB)) < 1e-14

    def test_transverse_gradient_vanishes_on_aligned(self):
        # mirror symmetry kills the odd derivatives at collinear states
        cfg = PolygonConfig.from_points([[0, 0], [0.21, 0], [0.5, 0]])
        q = ChargeVector.of([2.0, 0.7, 1.3])
        _, zy = aligned_chart_basis(cfg.points)
        full = one_polygon(cfg.points, q).energy_grad
        assert np.abs(zy.T @ full).max() < 1e-14

    def test_aligned_hessian_mixed_block_vanishes(self):
        cfg = PolygonConfig.from_points([[0, 0], [0.18, 0], [0.5, 0]])
        q = ChargeVector.of([3.0, 0.4, 1.1])
        zx, zy = aligned_chart_basis(cfg.points)
        der = one_polygon(cfg.points, q)
        mult = -float(cfg.points[1:].ravel() @ der.energy_grad)
        h = der.energy_hess + mult * der.perimeter_hess
        assert np.abs(zx.T @ h @ zy).max() < 1e-8

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_gradient_against_central_differences(self, spec):
        rng = np.random.default_rng(2)
        for make in (lambda: random_triangle(rng),
                     lambda: TorusConfig((1.0, 2.0, 3.0),
                                         tuple(rng.uniform(-math.pi, math.pi, 2)))):
            for _ in range(15):
                cfg = make()
                q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
                g = gradient(cfg, q, spec)
                gf = fd_gradient(cfg, q, spec)
                assert np.linalg.norm(g - gf) < 1e-6 * max(np.linalg.norm(g), 1e-9)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_hessian_against_central_differences(self, spec):
        rng = np.random.default_rng(3)
        for make in (lambda: random_triangle(rng),
                     lambda: TorusConfig((1.0, 2.0, 3.0),
                                         tuple(rng.uniform(-math.pi, math.pi, 2)))):
            for _ in range(10):
                cfg = make()
                q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
                h = hessian(cfg, q, spec)
                hf = fd_hessian(cfg, q, spec)
                assert np.linalg.norm(h - hf) < 1e-4 * np.linalg.norm(h)

    def test_fd_hessian_is_symmetric(self):
        rng = np.random.default_rng(4)
        cfg = random_triangle(rng)
        hf = fd_hessian(cfg, ChargeVector.of([1.0, 2.0, 3.0]), COULOMB)
        assert np.abs(hf - hf.T).max() < 1e-8

    def test_equal_radii_equilateral_fd_determinant(self):
        cfg = TorusConfig((1, 1, 1), (2 * math.pi / 3, 2 * math.pi / 3))
        det = np.linalg.det(fd_hessian(cfg, UNIT_Q3, COULOMB))
        assert det == pytest.approx(25.0 / 144.0, abs=1e-6)

    def test_equal_radii_equilateral_analytic_determinant(self):
        cfg = TorusConfig((1, 1, 1), (2 * math.pi / 3, 2 * math.pi / 3))
        det = np.linalg.det(hessian(cfg, UNIT_Q3, COULOMB))
        assert det == pytest.approx(25.0 / 144.0, abs=1e-12)

    def test_report_dimensions(self):
        rep3 = energy_report(EQUILATERAL, UNIT_Q3, COULOMB)
        assert rep3.gradient.shape == (2,) and rep3.hessian.shape == (2, 2)
        square = PolygonConfig.from_points(
            [[0, 0], [0.25, 0], [0.25, 0.25], [0, 0.25]])
        rep4 = energy_report(square, ChargeVector.of([1, 1, 1, 1]), COULOMB)
        assert rep4.gradient.shape == (4,) and rep4.hessian.shape == (4, 4)

    def test_fd_step_collision_with_pole(self):
        cfg = PolygonConfig.from_points([[0, 0], [0.01, 0], [0.5, 0.2]])
        with pytest.raises(ValueError):
            fd_gradient(cfg, UNIT_Q3, COULOMB, step=0.05)


class TestDilation:
    def test_inverse_distance_dilation_equals_minus_energy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cfg = random_triangle(rng)
            q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
            assert dilation_derivative(cfg, q, COULOMB) == pytest.approx(
                -energy(cfg, q, COULOMB), rel=1e-12)

    def test_inverse_square_dilation_scaling(self):
        rng = np.random.default_rng(6)
        cfg = random_triangle(rng)
        q = ChargeVector.of([1.0, 2.0, 0.5])
        spec = PotentialSpec.power(2.0)
        assert dilation_derivative(cfg, q, spec) == pytest.approx(
            -2.0 * energy(cfg, q, spec), rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dilation_strictly_negative_for_repulsive_kernels(self, seed):
        # no interior equilibrium below full perimeter: scaling up always helps
        rng = np.random.default_rng(seed)
        cfg = random_triangle(rng)
        q = ChargeVector.of(rng.uniform(0.2, 5.0, 3))
        for spec in ALL_SPECS:
            assert dilation_derivative(cfg, q, spec) < 0.0

    def test_perimeter_derivatives_match_fd(self):
        rng = np.random.default_rng(7)
        pts = random_triangle(rng).points
        g = one_polygon(pts).perimeter_grad
        h = one_polygon(pts).perimeter_hess
        eps = 1e-7
        flat = pts[1:].ravel().copy()

        def per(v):
            arr = np.vstack([np.zeros(2), v.reshape(-1, 2)])
            return float(np.linalg.norm(arr - np.roll(arr, -1, axis=0),
                                        axis=1).sum())

        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = eps
            fd = (per(flat + e) - per(flat - e)) / (2 * eps)
            assert g[k] == pytest.approx(fd, abs=1e-7)
            fd_row = (one_polygon(np.vstack([np.zeros(2), (flat + e).reshape(-1, 2)])).perimeter_grad
                      - one_polygon(np.vstack([np.zeros(2), (flat - e).reshape(-1, 2)])).perimeter_grad) \
                / (2 * eps)
            assert np.abs(h[k] - fd_row).max() < 1e-6


STATIONARITY_SPECS = [COULOMB, PotentialSpec.power(2.5), PotentialSpec.log()]


def random_polygons(rng, n, k):
    """``k`` gauge-fixed perimeter-one n-gons with no two vertices close."""
    out = []
    while len(out) < k:
        pts = gauge_fix(rng.uniform(-1.0, 1.0, size=(n, 2)))
        gaps = [np.hypot(*(pts[i] - pts[j]))
                for i in range(n) for j in range(i + 1, n)]
        if min(gaps) > 0.04:
            out.append(pts)
    return np.array(out)


def stationarity_at(u, n, charges, spec):
    """Residual of the stationarity system at packed unknowns (gauge-free
    movable coordinates, then the multiplier)."""
    flat = np.zeros(2 * n)
    flat[2 + polygon_free_indices(n)] = u[:-1]
    res, _ = polygon_stationarity(flat.reshape(1, n, 2), u[-1:], charges, spec)
    return res[0]


def _loop_pair_sums(n, first, second, pull, block):
    """The pair-by-pair assembly the incidence plan replaced: a full
    ``(k, n, n, 2, 2)`` Hessian with the pinned vertex, cut down after."""
    k = pull.shape[0]
    grad = np.zeros((k, n, 2))
    hess = np.zeros((k, n, n, 2, 2))
    hess[:, first, second] = -block
    hess[:, second, first] = -block
    for p, (a, b) in enumerate(zip(first, second)):
        grad[:, a] += pull[:, p]
        grad[:, b] -= pull[:, p]
        hess[:, a, a] += block[:, p]
        hess[:, b, b] += block[:, p]
    m = 2 * n
    hess = hess.transpose(0, 1, 3, 2, 4).reshape(k, m, m)
    return grad.reshape(k, m)[:, 2:], hess[:, 2:, 2:]


def _loop_geometry(points, first, second):
    delta = points[:, first] - points[:, second]
    d = np.sqrt(np.vecdot(delta, delta))
    u = delta / d[..., None]
    return delta, d, u, u[..., :, None] * u[..., None, :]


def loop_polygon_derivatives(points, charges, spec):
    """``polygon_derivatives`` summed pair by pair, as a reference."""
    n = points.shape[1]
    first, second = np.triu_indices(n, 1)
    delta, d, _, uu = _loop_geometry(points, first, second)
    _, dphi, ddphi = kernel_terms(spec, d)
    q = charges.array
    qq = q[first] * q[second]
    bend = (dphi / d)[..., None, None]
    pull = (qq * dphi / d)[..., None] * delta
    block = qq[:, None, None] * (ddphi[..., None, None] * uu + bend * (np.eye(2) - uu))
    g_e, h_e = _loop_pair_sums(n, first, second, pull, block)
    sides = np.arange(n)
    nxt = (sides + 1) % n
    _, d, u, uu = _loop_geometry(points, sides, nxt)
    p_block = (np.eye(2) - uu) / d[..., None, None]
    return (g_e, h_e, d.sum(axis=1)) + _loop_pair_sums(n, sides, nxt, u, p_block)


def awkward_polygons(rng, n, k):
    """Random n-gons with collinear rows and signed zero coordinates."""
    stack = rng.normal(size=(k, n, 2))
    stack[0, :, 1] = 0.0
    stack[1, :, 1] = -0.0
    stack[2, :, 0] = -0.0
    stack[3, :, 1] = 0.5 * stack[3, :, 0]
    stack[4, 0] = (-0.0, 0.0)
    stack[5] = gauge_fix(stack[5])
    return stack


class TestBatchedPolygonCore:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=lambda s: s.label)
    def test_incidence_assembly_matches_the_pair_loop_bit_for_bit(self, n, spec):
        rng = np.random.default_rng(100 + n)
        q = ChargeVector.of(rng.uniform(0.3, 3.0, n))
        stack = awkward_polygons(rng, n, 9)
        der = polygon_derivatives(stack, q, spec)
        for field, ref in zip(der, loop_polygon_derivatives(stack, q, spec)):
            assert field.shape == ref.shape
            assert field.tobytes() == np.ascontiguousarray(ref).tobytes()
        for r in range(len(stack)):
            for field, one in zip(der, polygon_derivatives(stack[r:r + 1], q, spec)):
                assert field[r:r + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=lambda s: s.label)
    def test_jacobian_against_central_differences(self, n, spec):
        rng = np.random.default_rng(10 * n)
        q = ChargeVector.of(rng.uniform(0.3, 3.0, n))
        stack = random_polygons(rng, n, 4)
        lams = rng.uniform(-5.0, 5.0, 4)
        res, jac = polygon_stationarity(stack, lams, q, spec)
        keep = polygon_free_indices(n)
        h = 1e-6
        for r in range(len(stack)):
            u = np.append(stack[r, 1:].ravel()[keep], lams[r])
            assert np.array_equal(stationarity_at(u, n, q, spec), res[r])
            fd = np.empty_like(jac[r])
            for c in range(u.size):
                e = np.zeros_like(u)
                e[c] = h
                fd[:, c] = (stationarity_at(u + e, n, q, spec)
                            - stationarity_at(u - e, n, q, spec)) / (2 * h)
            assert np.abs(jac[r] - fd).max() < 1e-6 * np.abs(jac[r]).max()

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=lambda s: s.label)
    def test_every_row_equals_a_batch_of_one(self, n, spec):
        rng = np.random.default_rng(n)
        q = ChargeVector.of(rng.uniform(0.3, 3.0, n))
        stack = random_polygons(rng, n, 7)
        lams = least_squares_multiplier(stack, q, spec)
        res, jac = polygon_stationarity(stack, lams, q, spec)
        grad, hess = polygon_chart_derivatives(stack, q, spec)
        # derivatives evaluated once up front give the same bits
        der = polygon_derivatives(stack, q, spec)
        assert np.array_equal(least_squares_multiplier(stack, q, spec, der), lams)
        res_d, jac_d = polygon_stationarity(stack, lams, q, spec, der)
        assert np.array_equal(res_d, res) and np.array_equal(jac_d, jac)
        for r in range(len(stack)):
            one = stack[r:r + 1]
            assert np.array_equal(least_squares_multiplier(one, q, spec), lams[r:r + 1])
            res1, jac1 = polygon_stationarity(one, lams[r:r + 1], q, spec)
            assert np.array_equal(res1[0], res[r]) and np.array_equal(jac1[0], jac[r])
            grad1, hess1 = polygon_chart_derivatives(one, q, spec)
            assert np.array_equal(grad1[0], grad[r]) and np.array_equal(hess1[0], hess[r])

    def test_multiplier_zeroes_the_projected_residual(self):
        rng = np.random.default_rng(11)
        q = ChargeVector.of([1.0, 2.0, 0.5, 1.5])
        stack = random_polygons(rng, 4, 3)
        der = polygon_derivatives(stack, q, COULOMB)
        lams = least_squares_multiplier(stack, q, COULOMB)
        full = der.energy_grad + lams[:, None] * der.perimeter_grad
        assert np.abs(np.vecdot(full, der.perimeter_grad)).max() < 1e-9


def torus_rows(rng, radii, k, min_gap=0.1):
    """``k`` random angle pairs whose three pair distances exceed ``min_gap``."""
    out = []
    while len(out) < k:
        a = rng.uniform(-math.pi, math.pi, 2)
        if min(TorusConfig(radii, tuple(a)).side_distances()) > min_gap:
            out.append(a)
    return np.array(out)


class TestTorusCore:
    @pytest.mark.parametrize("radii", [(1.0, 2.0, 3.0), (0.5, 1.7, 1.7)])
    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=lambda s: s.label)
    def test_derivatives_against_central_differences(self, radii, spec):
        rng = np.random.default_rng(5)
        q = ChargeVector.of(rng.uniform(0.3, 3.0, 3))
        angles = torus_rows(rng, radii, 6)
        grad, hess, dmin = torus_derivatives(radii, q, spec, angles)
        h = 1e-5
        for r, a in enumerate(angles):
            assert dmin[r] == pytest.approx(
                min(TorusConfig(radii, tuple(a)).side_distances()), rel=1e-12)
            scale = max(1.0, np.abs(hess[r]).max())
            for c, e in enumerate(h * np.eye(2)):
                fd_g = (energy(TorusConfig(radii, tuple(a + e)), q, spec)
                        - energy(TorusConfig(radii, tuple(a - e)), q, spec)) / (2 * h)
                fd_h = (torus_derivatives(radii, q, spec, (a + e)[None])[0][0]
                        - torus_derivatives(radii, q, spec, (a - e)[None])[0][0]) / (2 * h)
                assert abs(grad[r, c] - fd_g) < 1e-6 * max(1.0, np.abs(grad[r]).max())
                assert np.abs(hess[r, :, c] - fd_h).max() < 1e-6 * scale

    @pytest.mark.parametrize("spec", STATIONARITY_SPECS, ids=lambda s: s.label)
    def test_every_row_equals_a_batch_of_one(self, spec):
        rng = np.random.default_rng(6)
        radii = (1.0, 1.0, 1.0)
        q = ChargeVector.of([0.7, 1.9, 1.2])
        # random rows, the aligned labels, and rows at or next to a pole,
        # where the floor clamps the distance
        angles = np.vstack([torus_rows(rng, radii, 13),
                            [[math.pi, math.pi], [0.0, math.pi], [math.pi, 0.0],
                             [0.0, 0.0], [1e-9, 2.0], [2.0, -1e-12]]])
        grad, hess, dmin = torus_derivatives(radii, q, spec, angles, floor=5e-8)
        assert np.isfinite(grad).all() and np.isfinite(hess).all()
        for r in range(len(angles)):
            g1, h1, d1 = torus_derivatives(radii, q, spec, angles[r:r + 1], floor=5e-8)
            assert np.array_equal(g1[0], grad[r]) and np.array_equal(h1[0], hess[r])
            assert np.array_equal(d1, dmin[r:r + 1])


RELATION_CENSUSES = [
    (PolygonSpace(3), [1.0, 2.0, 3.0]),
    (PolygonSpace(3), [0.125, 1.0, 1.0]),
    (TorusSpace((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0]),
    (TorusSpace((0.5, 1.7, 2.9)), [0.3, 1.0, 2.5]),
]


class TestRelationGate:
    """The closed-form relations hold with the kernel's own exponent, so
    the relation gate runs for every kernel."""

    @pytest.mark.parametrize("kernel", ["coulomb", "power:2", "power:2.5", "log"])
    @pytest.mark.parametrize("space,charges", RELATION_CENSUSES,
                             ids=["p3-123", "p3-collinear", "t123", "t-spread"])
    def test_censuses_pass_under_every_kernel(self, kernel, space, charges):
        spec = PotentialSpec.parse(kernel)
        q = ChargeVector.of(charges)
        pts = find_critical_points(space, q, spec)
        # the power:2 collinear census sits on its threshold, where the
        # triangle is degenerate and the count check does not apply
        degenerate = any(cp.degenerate for cp in pts)
        assert degenerate == (kernel == "power:2" and charges[0] == 0.125)
        if not degenerate:
            assert euler_count_check(pts, space).euler_check == "passed"
        for cp in pts:
            assert stationarity_relation_residual(cp.config, q, spec) < 1e-11

    @pytest.mark.parametrize("spec", [PotentialSpec.power(2.0), PotentialSpec.log()],
                             ids=lambda s: s.label)
    def test_perturbed_equilibria_fail_the_gate(self, spec):
        # charges whose triangle exists under the log kernel too
        q = ChargeVector.of([1.0, 1.5, 2.0])
        kick = np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, 1e-3]])
        tri = critical_triangle(q, spec)
        line = solve_line_three(q, spec)[1]
        for cfg in (tri, line):
            assert stationarity_relation_residual(cfg, q, spec) < 1e-12
            bent = PolygonConfig.from_points(cfg.points + kick)
            assert stationarity_relation_residual(bent, q, spec) > RELATION_TOL
        # along the line the collinear balance is what fails
        slid = PolygonConfig.from_points(line.points + np.array([[0.0, 0.0], [1e-3, 0.0],
                                                                 [0.0, 0.0]]))
        assert alignment_defect(slid) == 0.0
        assert stationarity_relation_residual(slid, q, spec) > RELATION_TOL
        radii = (1.0, 2.0, 3.0)
        for cp in find_critical_points(TorusSpace(radii), q, spec):
            a1, a2 = cp.config.angles
            moved = TorusConfig(radii, (a1 + 1e-3, a2))
            assert stationarity_relation_residual(moved, q, spec) > RELATION_TOL
