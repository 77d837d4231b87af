import json
import math
import subprocess
import sys

import pytest

from coulomb_eq.cli import build_parser, main, write_artifact


def run_cli(args, tmp_path=None, env=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestSolveCommand:
    def test_balanced_polygon_census(self):
        code, out = run_cli(["solve", "--space", "polygon:3",
                             "--charges", "1,1,1", "--grid-density", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["space"] == "polygon:3"
        assert payload["potential"] == "coulomb"
        assert len(payload["points"]) == 5
        assert payload["summary"]["counts"] == {"0": 2, "1": 3}
        assert payload["summary"]["poles_count"] == 3
        assert payload["summary"]["euler_check"] == "passed"
        record = payload["points"][0]
        assert set(record) == {"coords", "energy", "grad_norm", "eigenvalues",
                               "index", "aligned", "degenerate", "partner"}

    def test_tiny_charge_polygon(self):
        code, out = run_cli(["solve", "--space", "polygon:3",
                             "--charges", "0.125,1,1", "--grid-density", "8"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 3
        assert all(p["aligned"] for p in payload["points"])

    def test_mirror_partners_cross_reference(self):
        code, out = run_cli(["solve", "--space", "polygon:3",
                             "--charges", "1,2,3", "--grid-density", "8"])
        payload = json.loads(out)
        partners = {i: p["partner"] for i, p in enumerate(payload["points"])}
        for i, j in partners.items():
            if j is not None:
                assert partners[j] == i

    def test_torus_solve_with_heavy_outer_charge(self):
        code, out = run_cli(["solve", "--space", "torus:1,2,3",
                             "--charges", "1,1,100", "--grid-density", "24"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 4
        assert payload["summary"]["exactness"] is True
        assert any(p["aligned"] and p["index"] == 0 for p in payload["points"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_torus_census_whose_hessians_overflow(self):
        # the pair terms overflow to NaN Hessians at these radii, except on
        # the exact aligned row (0, 0), whose sines are zero; no point
        # carries a NaN, so the artifact stays valid JSON.  That row is the
        # one point, and its spectrum, near 1e-149, reads as degenerate to
        # the absolute test; it is the maximum, and a torus census with no
        # minimum fails the count check
        code, out = run_cli(["solve", "--space", "torus:1e150,2e150,3e150",
                             "--charges", "1,2,3", "--grid-density", "8"])
        assert code == 3
        payload = json.loads(out)
        [point] = payload["points"]
        assert point["coords"]["angles"] == [0.0, 0.0]
        assert point["grad_norm"] == 0.0
        assert all(math.isfinite(e) and abs(e) < 1e-148 for e in point["eigenvalues"])
        assert point["aligned"] and point["degenerate"] and point["index"] == 2
        assert payload["summary"]["euler_check"] == "failed"
        assert payload["summary"]["reason"] == "no minimum found"

    def test_tiny_distinct_radii_are_counted(self):
        # the radii differ by 1e-13 but not relative to their size, so the
        # count check applies; the census finds one point and fails it
        code, out = run_cli(["solve", "--space", "torus:1e-13,2e-13,3e-13",
                             "--charges", "1,2,3"])
        assert code == 3
        payload = json.loads(out)
        assert len(payload["points"]) == 1
        assert payload["summary"]["euler_check"] == "failed"

    def test_torus_census_without_a_minimum_exits_three(self):
        # 2.3e-10 below the pitchfork of the benchmark's torus sweep the
        # census misses the mirror pair of minima; the degenerate aligned
        # point must not excuse that
        code, out = run_cli(["solve", "--space", "torus:1,2,3",
                             "--charges", "0.01,0.01,0.8433333331"])
        assert code == 3
        payload = json.loads(out)
        assert sorted(p["index"] for p in payload["points"]) == [1, 1, 1, 2]
        assert any(p["degenerate"] for p in payload["points"])
        assert payload["summary"]["euler_check"] == "failed"
        assert payload["summary"]["reason"] == "no minimum found"

    def test_power_law_potential_flag(self):
        code, out = run_cli(["solve", "--space", "polygon:3",
                             "--charges", "1,1,1", "--potential", "power:2",
                             "--grid-density", "8"])
        assert code == 0
        assert json.loads(out)["potential"] == "power:2"

    @pytest.mark.parametrize("args", [
        ["solve", "--space", "polygon:2", "--charges", "1,1"],
        ["solve", "--space", "polygon:3", "--charges", "1,1"],
        ["solve", "--space", "torus:1,2", "--charges", "1,1,1"],
        ["solve", "--space", "polygon:3", "--charges", "1,-1,1"],
        ["solve", "--space", "polygon:3", "--charges", "1,1,1",
         "--potential", "power:1"],
        ["solve", "--space", "polygon:3", "--charges", "1,1,1",
         "--grid-density", "2"],
        ["solve", "--space", "torus:1,2,3", "--charges", "1,2,nan"],
        ["solve", "--space", "polygon:3", "--charges", "1,1,1",
         "--potential", "power:inf"],
    ])
    def test_invalid_input_exits_two(self, args):
        code, _ = run_cli(args)
        assert code == 2

    def test_failed_topological_count_exits_three(self, monkeypatch):
        # a census that misses an equilibrium breaks the sphere-level
        # count, which the exit code must surface
        import coulomb_eq.cli as cli
        census = cli.find_critical_points
        monkeypatch.setattr(cli, "find_critical_points", lambda *args: census(*args)[1:])
        code, out = run_cli(["solve", "--space", "polygon:3",
                             "--charges", "1,1,1", "--grid-density", "8"])
        assert code == 3
        assert json.loads(out)["summary"]["euler_check"] == "failed"

    def test_larger_polygon_reports_coverage_note(self):
        code, out = run_cli(["solve", "--space", "polygon:4",
                             "--charges", "1,1,1,1", "--grid-density", "8"])
        assert code == 0
        assert "coverage_note" in json.loads(out)

    def test_out_writes_artifact_and_manifest(self, tmp_path):
        target = tmp_path / "census.json"
        code, _ = run_cli(["solve", "--space", "polygon:3", "--charges", "1,1,1",
                           "--grid-density", "8", "--out", str(target)])
        assert code == 0
        assert target.exists()
        manifest = json.loads((tmp_path / "census.json.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["parameters"]["settings"] == {"grid_density": 8}
        assert manifest["tool_version"]
        assert "input_hash" in manifest and "wall_time_s" in manifest

    def test_rewrite_replaces_artifact_and_manifest(self, tmp_path):
        target = tmp_path / "out" / "census.json"
        write_artifact(target, "first, longer text\n" * 50, {"run": 1})
        write_artifact(target, "second\n", {"run": 2})
        assert target.read_text() == "second\n"
        manifest = json.loads((target.parent / "census.json.manifest.json").read_text())
        assert manifest == {"run": 2}

    def test_three_charge_census_ignores_the_grid_density(self, tmp_path):
        # the closed forms are the census; only the manifest records the
        # density
        targets = [tmp_path / f"g{g}.json" for g in (8, 96)]
        for g, target in zip((8, 96), targets):
            code, _ = run_cli(["solve", "--space", "polygon:3", "--charges", "1,2,3",
                               "--grid-density", str(g), "--out", str(target)])
            assert code == 0
            manifest = json.loads(target.with_name(target.name + ".manifest.json").read_text())
            assert manifest["parameters"]["settings"] == {"grid_density": g}
        assert targets[0].read_bytes() == targets[1].read_bytes()
        assert len(json.loads(targets[0].read_text())["points"]) == 5

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli(["solve", "--space", "polygon:3", "--charges", "1,2,3",
                     "--grid-density", "8", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestBifurcateCommand:
    def test_polygon_sweep_artifacts(self, tmp_path):
        code, out = run_cli(["bifurcate", "--space", "polygon:3",
                             "--charges", "1,1,1", "--sweep", "2",
                             "--range", "0.05:0.6", "--steps", "20",
                             "--resolution", "64",
                             "--outdir", str(tmp_path)])
        assert code == 0
        printed = [line for line in out.splitlines() if line.startswith("threshold: ")]
        assert len(printed) == 1
        assert float(printed[0].removeprefix("threshold: ")) == pytest.approx(0.25, abs=1e-12)
        branches = (tmp_path / "branches.csv").read_text().splitlines()
        assert branches[0] == "lambda,q1,q2,q3,branch,amplitude,stability,energy"
        curves = (tmp_path / "curves.csv").read_text().splitlines()
        assert curves[0] == "label,q1,q2,q3"
        # every sampled boundary point satisfies its defining equality
        from helpers import polygon_boundary_equation
        for line in curves[1:]:
            label, q1, q2, q3 = line.split(",")
            vertex = int(label[1]) - 1
            defect = polygon_boundary_equation(
                (float(q1), float(q2), float(q3)), vertex)
            assert abs(defect) < 1e-10
        assert (tmp_path / "branches.csv.manifest.json").exists()
        assert (tmp_path / "curves.csv.manifest.json").exists()
        branches_json = json.loads((tmp_path / "branches.json").read_text())
        assert branches_json["threshold"] == pytest.approx(0.25, abs=1e-4)
        assert {p["branch"] for p in branches_json["points"]} == {
            "aligned", "upper", "lower"}
        curves_json = json.loads((tmp_path / "curves.json").read_text())
        assert len(curves_json["curves"]) == 3

    def test_torus_curves_have_three_labels(self, tmp_path):
        code, _ = run_cli(["bifurcate", "--space", "torus:1,2,3",
                           "--charges", "0.01,0.01,1", "--sweep", "3",
                           "--range", "0.2:2.0", "--steps", "12",
                           "--resolution", "32", "--outdir", str(tmp_path)])
        assert code == 0
        curves = (tmp_path / "curves.csv").read_text().splitlines()[1:]
        labels = {line.split(",")[0] for line in curves}
        assert labels == {"pi-pi-0", "0-pi-pi", "pi-0-pi"}

    def test_range_centred_on_the_threshold_is_one_crossing(self, tmp_path):
        # the midpoint of the range is the threshold 0.25 exactly
        code, out = run_cli(["bifurcate", "--space", "polygon:3",
                             "--charges", "1,1,1", "--sweep", "2",
                             "--range", "0.125:0.375", "--outdir", str(tmp_path)])
        assert code == 0
        threshold = json.loads((tmp_path / "branches.json").read_text())["threshold"]
        assert threshold == pytest.approx(0.25, abs=1e-12)

    def test_path_without_crossing_exits_two(self, tmp_path):
        code, _ = run_cli(["bifurcate", "--space", "polygon:3",
                           "--charges", "1,1,1", "--sweep", "2",
                           "--range", "0.3:0.6", "--outdir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--range", "a:b"],
        ["--range", "0.05:0.6", "--resolution", "4"],
    ])
    def test_malformed_flags_exit_two(self, tmp_path, capsys, flags):
        code, _ = run_cli(["bifurcate", "--space", "polygon:3", "--charges", "1,1,1",
                           "--sweep", "2", "--outdir", str(tmp_path), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("steps", ["0", "1", "-3"])
    def test_fewer_than_two_steps_exit_two(self, tmp_path, capsys, steps):
        code, _ = run_cli(["bifurcate", "--space", "polygon:3", "--charges", "1,1,1",
                           "--sweep", "2", "--range", "0.05:0.6", "--steps", steps,
                           "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --steps must be at least 2")
        assert not (tmp_path / "branches.csv").exists()


class TestInverseCommand:
    def test_sides_unique_ray(self):
        code, out = run_cli(["inverse", "--sides", "0.4,0.4,0.2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "unique-ray"
        assert payload["charges"] == pytest.approx([1 / 6, 1 / 6, 4 / 6])

    def test_sides_degenerate_family(self):
        code, out = run_cli(["inverse", "--sides", "0.5,0.3,0.2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "one-parameter-family"
        assert payload["family"]["intermediate_limit"] > 0

    def test_sides_infeasible_still_exit_zero(self):
        code, out = run_cli(["inverse", "--sides", "0.7,0.2,0.1"])
        assert code == 0
        assert json.loads(out)["kind"] == "infeasible"

    def test_points_file_torus(self, tmp_path):
        cfg = {"space": "torus", "radii": [1.0, 2.0, 3.0],
               "angles": [2.0405577597527302, 1.9166509607975102]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["inverse", "--points", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "unique-ray"
        assert payload["charges"] == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_points_file_polygon(self, tmp_path):
        h = math.sqrt(3) / 6
        cfg = {"space": "polygon",
               "points": [[0.0, 0.0], [1 / 3, 0.0], [1 / 6, h]]}
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["inverse", "--points", str(path)])
        assert code == 0
        assert json.loads(out)["kind"] == "unique-ray"

    @pytest.mark.parametrize("cfg", [
        {"space": "polygon", "points": [[0.0, 0.0], [math.nan, 0.0], [0.5, 0.3]]},
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [math.nan, 1.0]},
        {"space": "polygon", "points": [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]},
    ])
    def test_points_file_without_a_configuration_exits_two(self, tmp_path, cfg):
        # json writes NaN as a bare token, which json.loads accepts
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(["inverse", "--points", str(path)])
        assert code == 2

    @pytest.mark.parametrize("data", [
        [0.0, 1.0],
        "torus",
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": [1.0]},
        {"space": "torus", "radii": 5, "angles": [1.0, 2.0]},
        {"space": "torus", "radii": [1.0, 2.0, 3.0], "angles": 1.0},
        {"space": "polygon", "points": [[0.0, 0.0], [0.5, 0.0], [0.25, 0.1]], "charges": 5},
        {"space": "torus", "radii": [None, 2.0, 3.0], "angles": [1.0, 2.0]},
        {"space": "polygon", "points": [[0.0, 0.0], [0.5, 0.0], [0.25, 0.1]],
         "charges": [1, None, 2]},
        {"space": "polygon", "points": [["0", "0"], ["0.5", "0"], ["0.25", "0"]]},
    ], ids=["list", "string", "one-angle", "scalar-radii", "scalar-angles", "scalar-charges",
            "null-radius", "null-charge", "string-points"])
    def test_malformed_points_file_exits_two(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _ = run_cli(["inverse", "--points", str(path)])
        assert code == 2
        assert "cannot read configuration file" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["1e-200", "1e-160", "1e300", "1e308"])
    def test_sides_are_scale_free(self, side):
        code, out = run_cli(["inverse", "--sides", ",".join([side] * 3)])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "unique-ray"
        assert payload["charges"] == pytest.approx([1 / 3] * 3, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_points_file_with_infinite_distances_exits_two(self, tmp_path, capsys):
        # the cosine-rule distances overflow at these radii; at radii 1,2,3
        # the same angles give the unique ray
        cfg = {"space": "torus", "radii": [1e200, 2e200, 3e200],
               "angles": [2.0405577597527302, 1.9166509607975102]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["inverse", "--points", str(path)])
        assert (code, out) == (2, "")
        assert "not finite" in capsys.readouterr().err

    def test_points_file_with_four_vertices_exits_two(self, tmp_path, capsys):
        cfg = {"space": "polygon",
               "points": [[0.0, 0.0], [0.25, 0.0], [0.25, 0.25], [0.0, 0.25]]}
        path = tmp_path / "square.json"
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(["inverse", "--points", str(path)])
        assert code == 2
        assert "three charges only" in capsys.readouterr().err

    def test_requires_exactly_one_input(self):
        code, _ = run_cli(["inverse"])
        assert code == 2
        code, _ = run_cli(["inverse", "--sides", "1,1,1",
                           "--points", "nope.json"])
        assert code == 2


class TestVerifyCommand:
    def test_quick_suite_passes_within_budget(self):
        import time
        start = time.monotonic()
        code, out = run_cli(["verify", "--suite", "quick"])
        elapsed = time.monotonic() - start
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "triangle-taxonomy" in names and "pitchfork-quantitative" in names
        assert elapsed < 10.0

    def test_report_is_deterministic(self):
        _, first = run_cli(["verify", "--suite", "quick"])
        _, second = run_cli(["verify", "--suite", "quick"])
        assert first == second


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (exit 2),
    not a traceback and not a failed verification suite (exit 1)."""

    def test_solve_out_is_a_directory(self, tmp_path, capsys):
        code, out = run_cli(["solve", "--space", "polygon:3", "--charges", "1,1,1",
                             "--grid-density", "8", "--out", str(tmp_path)])
        assert code == 2 and out == ""
        assert f"error: cannot write {tmp_path}" in capsys.readouterr().err

    def test_verify_out_is_a_directory(self, tmp_path, capsys, monkeypatch):
        from coulomb_eq import verify
        monkeypatch.setattr(verify, "run_suite",
                            lambda suite: {"suite": suite, "passed": True, "checks": []})
        code, _ = run_cli(["verify", "--out", str(tmp_path)])
        assert code == 2
        assert f"error: cannot write {tmp_path}" in capsys.readouterr().err

    def test_bifurcate_outdir_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("a regular file\n")
        code, _ = run_cli(["bifurcate", "--space", "polygon:3", "--charges", "1,1,1",
                           "--sweep", "2", "--range", "0.05:0.6", "--steps", "4",
                           "--resolution", "16", "--outdir", str(blocker)])
        assert code == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert blocker.read_text() == "a regular file\n"


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "coulomb_eq.cli",
                               "solve", "--space", "polygon:3",
                               "--charges", "1,1,1", "--grid-density", "8"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["space"] == "polygon:3"


class TestSharedParser:
    def test_calls_parse_independently(self, tmp_path):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(
            ["solve", "--space", "torus:1,2,3", "--charges", "1,2,3",
             "--potential", "log", "--grid-density", "8", "--out", str(tmp_path / "a.json")])
        code, out = run_cli(["inverse", "--sides", "0.3,0.3,0.4"])
        assert code == 0 and json.loads(out)
        code, out = run_cli(["solve", "--space", "polygon:3", "--charges", "1,1,1"])
        assert code == 0 and json.loads(out)["potential"] == "coulomb"
        second = build_parser().parse_args(["solve", "--space", "polygon:3",
                                            "--charges", "1,1,1"])
        # no flag of one call leaks into the next
        assert (first.potential, first.grid_density, first.out) == (
            "log", 8, str(tmp_path / "a.json"))
        assert (second.potential, second.grid_density, second.out) == ("coulomb", 24, None)
        assert not hasattr(build_parser().parse_args(["verify"]), "space")
        assert not (tmp_path / "a.json").exists()
