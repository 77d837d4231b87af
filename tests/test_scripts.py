"""The experiment scripts under ``scripts/`` run end to end on small inputs."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, tmp_path, name, *args):
    """Run one script as ``__main__`` in ``tmp_path`` and return its stdout."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return buf.getvalue()


def header(path):
    return path.read_text().splitlines()[0]


def test_control_triangle_scan_writes_curves_and_grid(monkeypatch, tmp_path):
    run_script(monkeypatch, tmp_path, "control_triangle_scan.py",
               "--grid", "8", "--resolution", "16")
    outdir = tmp_path / "out" / "control_triangle"
    curves = outdir / "boundary_curves.csv"
    assert header(curves) == "label,q1,q2,q3"
    assert len(curves.read_text().splitlines()) == 1 + 3 * 16
    grid = outdir / "minima_grid.csv"
    assert header(grid) == "q1,q2,q3,minima"
    assert len(grid.read_text().splitlines()) == 1 + 21


def test_concentric_census_prints_one_row_per_sample(monkeypatch, tmp_path):
    out = run_script(monkeypatch, tmp_path, "concentric_census.py", "--samples", "1")
    lines = out.splitlines()
    assert lines[0] == "q1,q2,q3,total,minima,saddles,maxima,euler,exact"
    assert len(lines) == 3 and lines[2].startswith("# minimal censuses: ")


def test_bench_pairs_summary():
    summarize = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["summarize"]
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    faster = [p - 4.0 for p in parent]
    faster[0] = 1.0  # a tie counts for neither side
    s = summarize(parent, faster, "lower")
    assert s["parent"] == (5.5, 3.25, 7.75) and s["change"] == (1.5, 0.25, 3.75)
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 10, False)
    # the gain needs a median gap beyond the parent's interquartile range
    s = summarize(parent, [p - 5.0 for p in parent], "lower")
    assert (s["wins"], s["gain"]) == (10, True)
    s = summarize(parent, [p + 5.0 for p in parent], "higher")
    assert (s["wins"], s["gain"]) == (10, True)
    assert summarize(parent, [p - 5.0 for p in parent], "higher")["wins"] == 0


def test_census_equivalence_matches_point_lists_as_sets():
    match = runpy.run_path(str(SCRIPTS / "census_equivalence.py"))["match_as_sets"]

    def point(angles, index=0, aligned=False, eigenvalues=(1.0, 2.0), grad_norm=1e-12):
        return {"coords": {"space": "torus", "angles": angles, "radii": [1.0, 2.0, 3.0]},
                "index": index, "aligned": aligned, "degenerate": False,
                "eigenvalues": list(eigenvalues), "grad_norm": grad_norm}

    pair = [point([1.0, 2.0]), point([-1.0, -2.0]), point([0.0, 0.0], 2, True)]
    # mirror partners that traded places, and angles a turn apart
    assert match(pair, [pair[1], pair[0], pair[2]])
    assert match([point([3.141592653589793, 0.0])], [point([-3.141592653589793, 0.0])])
    # a soft minimum (eigenvalue 7e-13, gradient 1e-18) that slid 5.3e-7
    # within its Newton step, as two valid censuses next to a pitchfork put it
    soft = dict(eigenvalues=(7e-13, 3.0), grad_norm=1e-18)
    assert match([point([3.0, 3.0], **soft)], [point([3.0, 3.0 + 5.3e-7], **soft)])
    # a stiff point that moved, a changed index and a lost point
    assert not match(pair, [point([1.0, 2.0 + 1e-6]), pair[1], pair[2]])
    assert not match(pair, [pair[0], pair[1], point([0.0, 0.0], 1, True)])
    assert not match(pair, pair[:2])


def test_census_equivalence_tells_a_reorder_from_a_change():
    judge = runpy.run_path(str(SCRIPTS / "census_equivalence.py"))["judge"]

    def point(angles, partner, index=0, aligned=False):
        return {"coords": {"space": "torus", "angles": angles, "radii": [1.0, 2.0, 3.0]},
                "energy": 1.0, "grad_norm": 1e-12, "eigenvalues": [1.0, 2.0],
                "index": index, "aligned": aligned, "degenerate": False, "partner": partner}

    def run(points):
        return {"code": 0, "stdout": {"points": points, "summary": {}}, "files": {}}

    # a point and an aligned point whose energies tie traded places; the
    # partner of the mirror image follows its point
    old = [point([1.0, 2.0], 2), point([0.0, 0.0], None, 1, True), point([-1.0, -2.0], 0)]
    new = [old[1], dict(old[0]), dict(old[2], partner=1)]
    diffs, mismatches, reordered, sets = judge(run(old), run(new))
    assert (mismatches, reordered, sets) == ([], True, True)
    assert not any(diffs.values())
    # the same swap with a partner index that points at the wrong point
    wrong = [old[1], dict(old[0]), dict(old[2], partner=0)]
    diffs, mismatches, reordered, sets = judge(run(old), run(wrong))
    assert mismatches and not reordered and sets
    # a point list that differs as a set is not reordered either
    lost = [old[1], dict(old[0]), dict(old[2], partner=1, index=1)]
    diffs, mismatches, reordered, sets = judge(run(old), run(lost))
    assert mismatches and not reordered and sets is False


def test_census_ledger_is_deterministic():
    ledger = runpy.run_path(str(SCRIPTS / "census_ledger.py"))["ledger"]
    first = ledger(20)
    assert ledger(20) == first
    # every job of each family's 20-job slice is tallied once
    for family in ("equal-radii", "wide-torus"):
        assert sum(int(line.split()[-1]) for line in first if line.startswith(family)) == 20
    # the benchmark polygon family: 10 censuses of each job size, each
    # closing or missing its count, and at most n!/2 aligned points each
    bench = {" ".join(line.split()[1:-1]): int(line.split()[-1])
             for line in first if line.startswith("bench-polygon")}
    assert bench["p4 closes the count 2"] + bench["p4 misses the count 2"] == 10
    assert bench["p5 closes the count -6"] + bench["p5 misses the count -6"] == 10
    assert bench["p4 aligned points found, of 120"] <= 120
    assert bench["p5 aligned points found, of 600"] <= 600
