import dataclasses
import math

import numpy as np
import pytest

from coulomb_eq import bifurcation, verify
from coulomb_eq.bifurcation import (
    ControlPoint,
    charge_sweep_path,
    count_polygon_minima,
    detect_threshold,
    fit_branch_exponent,
    fixing_effect_probe,
    polygon_bifurcation_set,
    three_charge_equilibria,
    torus_bifurcation_set,
    trace_pitchfork,
)
from coulomb_eq.cli import main
from coulomb_eq.inverse import intermediate_charge_limit
from coulomb_eq.morse import aligned_blocks, torus_aligned_hessian_form
from coulomb_eq.potentials import COULOMB, PoleError, PotentialSpec, hessian
from coulomb_eq.solver import (
    PolygonSpace,
    SolveSettings,
    TorusSpace,
    closed_form_seeds,
    find_critical_points,
    polish_candidates,
    solve_line_three,
    _polygon_seeds,
)
from coulomb_eq.spaces import (
    ChargeVector,
    TORUS_ALIGNED_LABELS,
    TORUS_ALIGNED_ROWS,
    TorusConfig,
    alignment_defect,
)
from helpers import polygon_boundary_equation

PI = math.pi


class TestControlPoint:
    def test_normalizes_to_unit_sum(self):
        cp = ControlPoint((2.0, 3.0, 5.0))
        assert cp.charges == pytest.approx((0.2, 0.3, 0.5))

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            ControlPoint((0.0, 0.5, 0.5))


class TestPolygonBoundary:
    def test_samples_satisfy_defining_equality(self):
        for curve in polygon_bifurcation_set(resolution=100):
            vertex = int(curve.label[1]) - 1
            for s in curve.samples:
                assert abs(polygon_boundary_equation(s.charges, vertex)) < 1e-10

    @pytest.mark.parametrize("resolution", [200, 256])
    def test_closed_form_share_is_exact_to_rounding(self, resolution):
        # the bisection it replaced left defects up to 3.6e-14
        worst = max(abs(polygon_boundary_equation(s.charges, int(c.label[1]) - 1))
                    for c in polygon_bifurcation_set(resolution) for s in c.samples)
        assert worst < 1e-14

    @pytest.mark.parametrize("spec", [
        PotentialSpec.power(2.0), PotentialSpec.power(2.5), PotentialSpec.log()],
        ids=lambda s: s.label)
    def test_kernel_curves_make_the_aligned_point_degenerate(self, spec):
        for curve in polygon_bifurcation_set(resolution=16, spec=spec):
            vertex = int(curve.label[1]) - 1
            for s in curve.samples:
                charges = ChargeVector.of(s.charges)
                aligned = solve_line_three(charges, spec)[vertex]
                hxx, hyy, _ = aligned_blocks(aligned.points[None], charges, spec)
                scale = np.abs(np.linalg.eigvalsh(hxx[0])).max()
                assert abs(np.linalg.eigvalsh(hyy[0])[0]) < 1e-12 * scale
                assert abs(polygon_boundary_equation(s.charges, vertex, spec)) < 1e-12

    def test_known_boundary_point(self):
        assert polygon_boundary_equation((1 / 9, 4 / 9, 4 / 9), 0) == pytest.approx(
            0.0, abs=1e-12)

    def test_barycenter_in_two_minima_region(self):
        q = (1 / 3, 1 / 3, 1 / 3)
        inv = [1 / math.sqrt(v) for v in q]
        assert 2 * max(inv) < sum(inv)
        assert count_polygon_minima(ChargeVector.of(q)) == 2

    def test_vanishing_charge_in_aligned_region(self):
        q = (0.02, 0.49, 0.49)
        assert polygon_boundary_equation(q, 0) > 0  # deep inside
        assert count_polygon_minima(ChargeVector.of(q)) == 1

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            polygon_bifurcation_set(resolution=8)


class TestTorusBoundary:
    def test_three_curves_for_distinct_radii(self):
        curves = torus_bifurcation_set((1.0, 2.0, 3.0), resolution=64)
        assert len(curves) == 3
        assert {c.label for c in curves} == {"pi-pi-0", "0-pi-pi", "pi-0-pi"}

    @pytest.mark.parametrize("kernel", ["coulomb", "power:2", "log"])
    def test_samples_sit_on_the_zero_line(self, kernel):
        spec = PotentialSpec.parse(kernel)
        curves = torus_bifurcation_set((1.0, 2.0, 3.0), resolution=64, spec=spec)
        assert len(curves) == 3
        for curve in curves:
            label = next(lab for lab in TORUS_ALIGNED_LABELS
                         if curve.label == "-".join(
                             "pi" if abs(v) > 1 else "0" for v in lab))
            coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), label, spec)
            for s in curve.samples:
                terms = coeffs * np.array(s.charges)
                assert abs(terms.sum()) < 1e-12 * np.abs(terms).max()

    def test_curves_are_pairwise_disjoint(self):
        curves = torus_bifurcation_set((1.0, 2.0, 3.0), resolution=128)
        arrays = [np.array([s.charges for s in c.samples]) for c in curves]
        for i in range(3):
            for j in range(i + 1, 3):
                gaps = np.abs(arrays[i][:, None, :] - arrays[j][None, :, :]).sum(axis=2)
                assert gaps.min() > 1e-3

    def test_each_region_contains_exactly_one_vertex(self):
        eps = 1e-3
        vertices = [np.array([1 - 2 * eps, eps, eps]),
                    np.array([eps, 1 - 2 * eps, eps]),
                    np.array([eps, eps, 1 - 2 * eps])]
        for label in TORUS_ALIGNED_LABELS[:3]:
            coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), label)
            positives = [i for i, v in enumerate(vertices)
                         if float(coeffs @ v) > 0]
            straight = [i for i in range(3) if label[i] == 0.0]
            assert positives == straight

    def test_vertex_regions_hold_minima_outside_saddles(self):
        # inside its small vertex region the aligned configuration is a
        # genuine local minimum of the energy; outside it is a saddle
        from coulomb_eq.morse import torus_label_config
        from coulomb_eq.potentials import hessian
        radii = (1.0, 2.0, 3.0)
        for label in TORUS_ALIGNED_LABELS[:3]:
            coeffs = torus_aligned_hessian_form(radii, label)
            vertex = int(np.argmax(coeffs))
            inside = np.full(3, 1e-4)
            inside[vertex] = 1.0
            outside = np.ones(3) / 3
            cfg = torus_label_config(radii, label)
            eig_in = np.linalg.eigvalsh(hessian(cfg, ChargeVector.of(inside)))
            eig_out = np.linalg.eigvalsh(hessian(cfg, ChargeVector.of(outside)))
            assert eig_in[0] > 0.0            # minimum inside the region
            assert eig_out[0] < 0.0 < eig_out[1]  # saddle outside


class TestThreshold:
    def test_balanced_outer_charges(self):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        lam = detect_threshold(PolygonSpace(3), path, (0.05, 0.6))
        assert lam == pytest.approx(0.25, abs=1e-4)

    def test_heavy_left_outer_charge(self):
        path = charge_sweep_path([4.0, 1.0, 1.0], 1)
        lam = detect_threshold(PolygonSpace(3), path, (0.05, 0.6))
        assert lam == pytest.approx(4 / 9, abs=1e-4)

    def test_torus_threshold_matches_linear_form_zero(self):
        space = TorusSpace((1.0, 2.0, 3.0))
        path = charge_sweep_path([0.01, 0.01, 1.0], 2)
        lam = detect_threshold(space, path, (0.05, 5.0))
        coeffs = torus_aligned_hessian_form((1.0, 2.0, 3.0), (PI, PI, 0.0))
        zero = -(coeffs[0] * 0.01 + coeffs[1] * 0.01) / coeffs[2]
        assert lam == pytest.approx(zero, abs=1e-4)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("space", [PolygonSpace(3), TorusSpace((1.0, 2.0, 3.0))],
                             ids=["polygon", "torus"])
    def test_threshold_scales_with_the_charges(self, space, scale):
        # the coulomb energy is quadratic in the charges, so scaling every
        # charge scales the threshold and leaves its relative error alone
        if isinstance(space, PolygonSpace):
            charges, sweep, lam_range, expected = [1.0, 1.0, 1.0], 1, (0.05, 0.6), 0.25
        else:
            coeffs = torus_aligned_hessian_form(space.radii, (PI, PI, 0.0))
            charges, sweep, lam_range = [0.01, 0.01, 1.0], 2, (0.2, 2.0)
            expected = -(coeffs[0] * 0.01 + coeffs[1] * 0.01) / coeffs[2]
        path = charge_sweep_path([scale * q for q in charges], sweep)
        lam = detect_threshold(space, path, (scale * lam_range[0], scale * lam_range[1]))
        assert lam == pytest.approx(scale * expected, rel=1e-12)

    @pytest.mark.parametrize("kernel,lam_range,threshold", [
        ("power:2", (0.2, 8.0), 3.79),
        ("log", (0.05, 2.0), 0.19),
        ("coulomb", (0.2, 2.0), 0.8433),
    ])
    def test_torus_threshold_is_the_kernels_form_zero(self, kernel, lam_range, threshold):
        # the benchmark's torus sweep: each kernel buckles the (pi, pi, 0)
        # configuration where its own sign form vanishes
        spec = PotentialSpec.parse(kernel)
        space = TorusSpace((1.0, 2.0, 3.0))
        path = charge_sweep_path([0.01, 0.01, 1.0], 2)
        lam = detect_threshold(space, path, lam_range, spec)
        assert lam == pytest.approx(threshold, abs=1e-4)
        terms = torus_aligned_hessian_form(space.radii, (PI, PI, 0.0), spec) * path(lam).array
        assert abs(terms.sum()) < 1e-8 * np.abs(terms).max()
        if kernel != "coulomb":
            # the coulomb form misplaces this kernel's threshold
            terms = torus_aligned_hessian_form(space.radii, (PI, PI, 0.0)) * path(lam).array
            assert abs(terms.sum()) > 1e-2 * np.abs(terms).max()

    def test_no_crossing_raises(self):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError):
            detect_threshold(PolygonSpace(3), path, (0.3, 0.6))

    def test_polygon_beyond_three_charges_rejected(self):
        path = charge_sweep_path([1.0, 1.0, 1.0, 1.0], 1)
        for trace in (detect_threshold, trace_pitchfork):
            with pytest.raises(ValueError, match="three charges only"):
                trace(PolygonSpace(4), path, (0.05, 0.6))


class TestLocateCrossing:
    """The crossing names the aligned configuration it tracks by its index
    in ``enumerate_aligned``."""

    def test_reference_sweep_tracks_the_middle_vertex(self):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        assert bifurcation._locate_crossing(
            PolygonSpace(3), path, (0.05, 0.6), PotentialSpec.coulomb()) == (1, 0.25, "above")

    def test_torus_sweep_tracks_the_first_label(self):
        path = charge_sweep_path([0.01, 0.01, 1.0], 2)
        tracked, _, side = bifurcation._locate_crossing(
            TorusSpace((1.0, 2.0, 3.0)), path, (0.2, 2.0), PotentialSpec.coulomb())
        assert (tracked, side) == (0, "below")
        assert TORUS_ALIGNED_LABELS[tracked] == (PI, PI, 0.0)

    def test_range_ends_are_included(self):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        for lam_range in ((0.25, 0.6), (0.05, 0.25)):
            assert detect_threshold(PolygonSpace(3), path, lam_range) == 0.25

    @pytest.mark.parametrize("lam_range,message", [
        ((0.0, 0.6), "positive and finite"),
        ((-0.1, 0.6), "positive and finite"),
        ((0.05, math.inf), "positive and finite"),
        ((0.6, 0.05), "empty parameter range"),
        ((0.25, 0.25), "empty parameter range"),
        ((math.nan, 0.6), "empty parameter range"),
    ])
    def test_range_beyond_positive_finite_charges_rejected(self, lam_range, message):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        for trace in (detect_threshold, trace_pitchfork):
            with pytest.raises(ValueError, match=message):
                trace(PolygonSpace(3), path, lam_range)


class TestChargeSweep:
    def test_replaces_one_charge(self):
        path = charge_sweep_path([1.0, 2.0, 3.0], 1)
        assert path == bifurcation.ChargeSweep((1.0, 2.0, 3.0), 1)
        assert path(0.5).q == (1.0, 0.5, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.index = 0

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="sweep index out of range"):
            charge_sweep_path([1.0, 2.0, 3.0], index)


class TestRowThresholds:
    """Each closed-form threshold against the aligned spectra it predicts."""

    # the charges buckle rows on both branch sides of either space (on the
    # torus under coulomb, log and power:2.5)
    @pytest.mark.parametrize("sweep", [0, 1, 2])
    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5", "power:6"])
    @pytest.mark.parametrize("space,charges", [
        (PolygonSpace(3), [0.7, 1.9, 1.1]),
        (TorusSpace((1.0, 2.0, 3.0)), [0.02, 1.0, 0.05]),
    ], ids=["polygon", "torus"])
    def test_threshold_is_the_sign_change_of_its_row(self, space, charges, kernel, sweep):
        spec = PotentialSpec.parse(kernel)
        path = charge_sweep_path(charges, sweep)
        rows = bifurcation._row_thresholds(space, path, spec)
        assert rows
        for tracked, lam, side in rows:
            below = bifurcation._aligned(space, path(lam * (1.0 - 1e-6)), spec)[1][tracked]
            above = bifurcation._aligned(space, path(lam * (1.0 + 1e-6)), spec)[1][tracked]
            assert (below < 0.0 < above) if side == "below" else (above < 0.0 < below)
        # away from its threshold every row keeps the predicted sign, and a
        # row without one never changes sign
        lams = np.geomspace(1e-3, 1e3, 61)
        eigs = np.array([bifurcation._aligned(space, path(lam), spec)[1] for lam in lams])
        predicted = {tracked: (lam, side) for tracked, lam, side in rows}
        for tracked, col in enumerate(eigs.T):
            if tracked not in predicted:
                assert (col < 0.0).all() or (col > 0.0).all()
                continue
            lam, side = predicted[tracked]
            saddle = lams > lam if side == "above" else lams < lam
            assert np.array_equal(col < 0.0, saddle)
            assert (col != 0.0).all()


class TestAlignedSpectra:
    @pytest.mark.parametrize("kernel", ["coulomb", "power:2", "log"])
    def test_stack_equals_the_configurations_one_by_one(self, kernel):
        spec = PotentialSpec.parse(kernel)
        q = ChargeVector.of([0.7, 1.9, 1.1])
        rows, eigs = bifurcation._aligned(PolygonSpace(3), q, spec)
        for row, eig in zip(rows, eigs, strict=True):
            hyy = aligned_blocks(row[None], q, spec)[1][0]
            assert eig == np.linalg.eigvalsh(hyy)[0]
        space = TorusSpace((1.0, 2.0, 3.0))
        rows, eigs = bifurcation._aligned(space, q, spec)
        assert rows is TORUS_ALIGNED_ROWS
        for row, eig in zip(rows, eigs, strict=True):
            cfg = TorusConfig(space.radii, tuple(row))
            assert eig == np.linalg.eigvalsh(hessian(cfg, q, spec))[0]

    def test_torus_pole_raises(self):
        # torus:1,1,2 has a pole at the (pi, pi, 0) label
        with pytest.raises(PoleError, match="pole"):
            bifurcation._aligned(TorusSpace((1.0, 1.0, 2.0)),
                                 ChargeVector.of([1.0, 1.0, 1.0]), PotentialSpec.coulomb())

    def test_polygon_pole_raises(self):
        # an outer charge 1e20 times the other pushes the intermediate
        # vertex within 5e-11 of the lighter outer one
        with pytest.raises(PoleError, match="pole"):
            bifurcation._aligned(PolygonSpace(3), ChargeVector.of([1e20, 1.0, 1.0]),
                                 PotentialSpec.coulomb())


class TestClosedFormSeeds:
    @pytest.mark.parametrize("charges,count", [([1.0, 1.0, 1.0], 5),
                                               ([0.125, 1.0, 1.0], 3)])
    def test_one_list_of_three_charge_seeds(self, charges, count):
        q = ChargeVector.of(charges)
        expected = closed_form_seeds(q)
        assert len(expected) == count
        # the census is the polish of the closed-form rows, bit for bit
        pts = three_charge_equilibria(q)
        assert len(pts) == count
        assert _bits(pts) == _bits(polish_candidates(PolygonSpace(3), q, expected))
        grid = _polygon_seeds(PolygonSpace(3), q, PotentialSpec.coulomb(),
                              SolveSettings(grid_density=8))
        assert np.array_equal(grid[:count], expected)


def _bits(points):
    """Every field of every critical point, the configuration as bytes."""
    return [(cp.config.points.tobytes(), dataclasses.replace(cp, config=None))
            for cp in points]


@pytest.fixture(scope="module")
def polygon_diagram():
    path = charge_sweep_path([1.0, 1.0, 1.0], 1)
    return trace_pitchfork(PolygonSpace(3), path, (0.05, 0.6), steps=40)


def branch(diagram, name):
    """The (parameter, amplitude) pairs of the points of one branch of a
    diagram, one pair per point."""
    return [(p.lam, p.amplitude) for p in diagram.points if p.branch == name]


class TestTrace:
    def test_branches_exist_only_past_threshold(self, polygon_diagram):
        diag = polygon_diagram
        assert diag.branch_side == "above"
        for p in diag.points:
            if p.branch != "aligned":
                assert p.lam > diag.threshold

    def test_mirror_amplitudes_cancel(self, polygon_diagram):
        ups = dict(branch(polygon_diagram, "upper"))
        downs = dict(branch(polygon_diagram, "lower"))
        assert set(ups) == set(downs) and ups
        for lam in ups:
            assert abs(ups[lam] + downs[lam]) < 1e-8

    def test_amplitude_grows_like_square_root(self, polygon_diagram):
        exponent = fit_branch_exponent(polygon_diagram)
        assert 0.45 <= exponent <= 0.55

    def test_aligned_branch_flips_from_minimum_to_saddle(self, polygon_diagram):
        aligned = [p for p in polygon_diagram.points if p.branch == "aligned"]
        below = [p for p in aligned if p.lam < polygon_diagram.threshold]
        above = [p for p in aligned if p.lam > polygon_diagram.threshold]
        assert all(p.stability == "min" for p in below)
        assert all(p.stability == "saddle" for p in above)
        assert all(p.amplitude == 0.0 for p in aligned)

    def test_branch_points_are_minima(self, polygon_diagram):
        offs = [p for p in polygon_diagram.points if p.branch != "aligned"]
        assert offs and all(p.stability == "min" for p in offs)

    def test_log_kernel_pitchfork(self):
        # -log d has p = 1: the balanced threshold is 1 / (1 + 1) = 0.5
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        diag = trace_pitchfork(PolygonSpace(3), path, (0.3, 0.8), steps=48,
                               spec=PotentialSpec.log())
        assert diag.threshold == pytest.approx(0.5, abs=1e-4)
        assert 0.45 <= fit_branch_exponent(diag) <= 0.55

    def test_torus_trace_walks_whole_branch_side(self):
        space = TorusSpace((1.0, 2.0, 3.0))
        path = charge_sweep_path([0.01, 0.01, 1.0], 2)
        diag = trace_pitchfork(space, path, (0.2, 2.0), steps=24)
        assert diag.branch_side == "below"
        ups = branch(diag, "upper")
        expect = sum(1 for p in diag.points
                     if p.branch == "aligned" and p.lam < diag.threshold)
        assert len(ups) == expect
        downs = dict(branch(diag, "lower"))
        for lam, amp in ups:
            assert abs(amp + downs[lam]) < 1e-8

    def test_outer_charge_sweep_branches_below(self):
        # sweeping outer charge 1 against (0.2, 1): the aligned point with the
        # 0.2 between them is a saddle while 1/sqrt(0.2) < 1/sqrt(lam) + 1
        path = charge_sweep_path([1.0, 0.2, 1.0], 0)
        diag = trace_pitchfork(PolygonSpace(3), path, (0.2, 2.0), steps=40)
        assert diag.branch_side == "below"
        assert diag.threshold == pytest.approx((0.2 ** -0.5 - 1.0) ** -2, rel=1e-15)
        assert diag.threshold == pytest.approx(0.6545, abs=1e-4)
        ups = dict(branch(diag, "upper"))
        downs = dict(branch(diag, "lower"))
        assert set(ups) == set(downs)
        assert set(ups) == {p.lam for p in diag.points
                            if p.branch == "aligned" and p.lam < diag.threshold}
        for lam in ups:
            assert abs(ups[lam] + downs[lam]) < 1e-8
        for p in diag.points:
            if p.branch == "aligned":
                assert p.stability == ("saddle" if p.lam < diag.threshold else "min")

    def test_path_crossing_twice_rejected(self):
        # with outer charges 1 and 25 the sweep leaves the middle-vertex
        # aligned region at 0.694 and enters the first-vertex one at 1.5625
        path = charge_sweep_path([1.0, 1.0, 25.0], 1)
        with pytest.raises(ValueError, match="exactly one"):
            trace_pitchfork(PolygonSpace(3), path, (0.1, 3.0), steps=8)

    def test_no_crossing_rejected(self):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError, match="does not cross"):
            trace_pitchfork(PolygonSpace(3), path, (0.3, 0.6), steps=8)

    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_fewer_than_two_steps_rejected(self, steps):
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError, match="at least 2"):
            trace_pitchfork(PolygonSpace(3), path, (0.05, 0.6), steps=steps)


#: the benchmark's reference sweep and torus sweep
SWEEPS = [
    (PolygonSpace(3), [1.0, 1.0, 1.0], 1, (0.05, 0.6), 48),
    (TorusSpace((1.0, 2.0, 3.0)), [0.01, 0.01, 1.0], 2, (0.2, 2.0), 40),
]


class TestCensusBranch:
    @pytest.mark.parametrize("space,charges,sweep,lam_range,steps", SWEEPS)
    def test_branch_is_the_census_mirror_pair(self, space, charges, sweep,
                                              lam_range, steps):
        path = charge_sweep_path(charges, sweep)
        diag = trace_pitchfork(space, path, lam_range, steps)
        tracked = bifurcation._locate_crossing(space, path, lam_range, COULOMB)[0]
        lams = [p.lam for p in diag.points if p.branch == "aligned"]
        assert len(lams) == steps
        paired = 0
        for lam in lams:
            offs = [p for p in diag.points if p.lam == lam and p.branch != "aligned"]
            if (lam > diag.threshold) != (diag.branch_side == "above"):
                assert offs == []
                continue
            census = [cp for cp in find_critical_points(space, path(lam)) if not cp.aligned]
            assert len(census) == 2
            expected = sorted(((bifurcation._amplitude(tracked, cp.config), cp.energy,
                                "min" if cp.morse_index == 0 else "saddle")
                               for cp in census), reverse=True)
            assert [(p.amplitude, p.energy, p.stability) for p in offs] == expected
            assert [p.branch for p in offs] == ["upper", "lower"]
            paired += 1
        assert paired > 1

    @pytest.mark.parametrize("count", [1, 4])
    def test_census_without_one_mirror_pair_refused(self, monkeypatch, capsys,
                                                    tmp_path, count):
        census = bifurcation.find_critical_points

        def reshaped(*args):
            pts = census(*args)
            offs = [cp for cp in pts if not cp.aligned]
            return [cp for cp in pts if cp.aligned] + (offs * 2)[:count]

        monkeypatch.setattr(bifurcation, "find_critical_points", reshaped)
        path = charge_sweep_path([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError, match=f"lambda=.* has {count} off-axis points"):
            trace_pitchfork(PolygonSpace(3), path, (0.05, 0.6), steps=8)
        code = main(["bifurcate", "--space", "polygon:3", "--charges", "1,1,1",
                     "--sweep", "2", "--range", "0.05:0.6", "--steps", "8",
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert f"has {count} off-axis points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestVerifyPitchfork:
    def test_aligned_spectrum_changes_sign_at_the_threshold(self):
        check = verify.check_pitchfork()
        assert check.passed
        assert check.details["aligned_sign_change"] is True

    def test_threshold_off_the_sign_change_fails(self, monkeypatch):
        # 5e-5 off is inside the 1e-4 tolerance on the value, but both
        # probes then sit on the saddle side
        trace = bifurcation.trace_pitchfork
        monkeypatch.setattr(bifurcation, "trace_pitchfork", lambda *args, **kw: (
            dataclasses.replace(trace(*args, **kw), threshold=0.25 + 5e-5)))
        check = verify.check_pitchfork()
        assert check.details["aligned_sign_change"] is False
        assert not check.passed


class TestFixingProbe:
    @pytest.mark.parametrize("kernel", ["coulomb", "log", "power:2.5"])
    @pytest.mark.parametrize("q1, q3", [(1.0, 1.0), (4.0, 1.0), (0.83, 1.37)])
    def test_threshold_is_the_closed_form_limit(self, kernel, q1, q3):
        spec = PotentialSpec.parse(kernel)
        res = fixing_effect_probe(q1, q3, [0.01], spec)
        assert res.threshold == intermediate_charge_limit(q1, q3, spec)
        # the sweep of the intermediate charge crosses at the same value
        path = charge_sweep_path([q1, 1.0, q3], 1)
        found = detect_threshold(PolygonSpace(3), path,
                                 (0.5 * res.threshold, 1.35 * res.threshold), spec)
        assert found == pytest.approx(res.threshold, rel=1e-12)

    def test_balanced_outer_positions_frozen(self):
        res = fixing_effect_probe(1.0, 1.0, [0.01, 0.1, 0.2])
        assert res.threshold == pytest.approx(0.25, abs=1e-6)
        splits = [s.d_left for s in res.included]
        assert max(splits) - min(splits) < 1e-8
        assert splits[0] == pytest.approx(0.25, abs=1e-9)

    def test_heavy_outer_positions_frozen(self):
        res = fixing_effect_probe(4.0, 1.0, [0.05, 0.2, 0.4])
        splits = [s.d_left for s in res.included]
        assert max(splits) - min(splits) < 1e-8
        assert splits[0] == pytest.approx(1 / 3, abs=1e-9)
        for s in res.included:
            assert s.ratio == pytest.approx(2.0, abs=1e-7)

    def test_sample_above_threshold_excluded_and_minimum_leaves_line(self):
        res = fixing_effect_probe(4.0, 1.0, [0.05, 0.5])
        assert [e[0] for e in res.excluded] == [0.5]
        pts = three_charge_equilibria(ChargeVector.of([4.0, 0.5, 1.0]))
        best = min(pts, key=lambda cp: cp.energy)
        assert alignment_defect(best.config) > 0.0


class TestRegionScan:
    def test_full_barycentric_grid_scan(self):
        from coulomb_eq.verify import check_control_triangle_scan
        result = check_control_triangle_scan(grid=50)
        assert result.passed, result.details
        assert result.details["tested"] > 500

    def test_minima_count_flips_across_curves(self):
        # coarse barycentric scan; the acceptance suite runs the full grid
        curves = polygon_bifurcation_set(resolution=128)
        curve_xy = [np.array([s.charges for s in c.samples])[:, :2] for c in curves]
        grid = 25
        cell = 1.0 / grid
        mismatches = []
        for i in range(1, grid):
            for j in range(1, grid - i):
                q = np.array([i, j, grid - i - j], dtype=float) / grid
                dist = min(float(np.abs(xy - q[:2]).sum(axis=1).min())
                           for xy in curve_xy)
                if dist <= 2 * cell:
                    continue
                inv = 1.0 / np.sqrt(q)
                expect = 2 if 2 * inv.max() < inv.sum() else 1
                got = count_polygon_minima(ChargeVector.of(q))
                if got != expect:
                    mismatches.append((tuple(q), expect, got))
        assert mismatches == []
