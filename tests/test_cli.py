import json
import math
import subprocess
import sys

import pytest

from coulomb_eq.cli import main, write_artifact


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
        assert "threshold: 0.2500" in out
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
