"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def solve(space: str, charges: str, grid: int) -> list[dict]:
    from coulomb_eq.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["solve", "--space", space, "--charges", charges,
                     "--grid-density", str(grid)]) == 0
    return json.loads(buf.getvalue())["points"]


@pytest.fixture(scope="module")
def triangle_census() -> list[dict]:
    return solve("polygon:3", "1,1,1", 8)


@pytest.fixture(scope="module")
def torus_census() -> list[dict]:
    return solve("torus:1,2,3", "1,1,100", 24)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_same_inputs(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert json.loads(json.dumps(first)) == first


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    for name in [*end_to_end, *per_layer]:
        assert NAME.match(name), name


def test_checker_accepts_real_census(triangle_census, torus_census):
    verdict = checker.check_census(triangle_census, "polygon:3", [1.0, 1.0, 1.0])
    assert verdict.ok, verdict.problems
    assert verdict.certified and verdict.verified_points == 5
    verdict = checker.check_census(torus_census, "torus:1,2,3", [1.0, 1.0, 100.0])
    assert verdict.ok, verdict.problems
    assert verdict.certified and verdict.verified_points == 4


@pytest.mark.parametrize("space,charges", [("polygon:3", [1.0, 1.0, 1.0]),
                                           ("torus:1,2,3", [1.0, 1.0, 100.0])])
def test_checker_flags_dropped_point(space, charges, triangle_census, torus_census):
    census = triangle_census if space == "polygon:3" else torus_census
    saddle = next(i for i, p in enumerate(census) if p["index"] == 1 and p["aligned"])
    dropped = [copy.deepcopy(p) for i, p in enumerate(census) if i != saddle]
    for p in dropped:  # keep partner indices pointing at the same points
        if p["partner"] is not None and p["partner"] > saddle:
            p["partner"] -= 1
    verdict = checker.check_census(dropped, space, charges)
    assert not verdict.ok
    assert not verdict.certified


def test_checker_flags_perturbed_point(triangle_census):
    census = copy.deepcopy(triangle_census)
    k = next(i for i, p in enumerate(census) if not p["aligned"])
    pts = np.array(census[k]["coords"]["points"])
    pts[2] += (1e-4, 1e-4)
    pts /= np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum()
    census[k]["coords"]["points"] = pts.tolist()
    verdict = checker.check_census(census, "polygon:3", [1.0, 1.0, 1.0])
    assert any("not stationary" in p for p in verdict.problems), verdict.problems


def test_checker_flags_wrong_partner(triangle_census):
    census = copy.deepcopy(triangle_census)
    k = next(i for i, p in enumerate(census) if not p["aligned"])
    census[k]["partner"] = next(i for i, p in enumerate(census) if p["aligned"])
    verdict = checker.check_census(census, "polygon:3", [1.0, 1.0, 1.0])
    assert any("partner" in p for p in verdict.problems), verdict.problems


def test_topological_counts():
    assert [checker.topological_count(f"polygon:{n}") for n in (3, 4, 5)] == [-1, 2, -6]
    assert checker.topological_count("torus:1,2,3") == 0
    assert checker.topological_count("torus:1,1,1") == 2


def test_tracer_counts_calls_and_restores_bindings():
    import coulomb_eq.solver as solver
    import coulomb_eq.spaces as spaces
    from coulomb_eq.spaces import ChargeVector

    original = spaces.canonicalize
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.canonicalize is spaces.canonicalize is not original
        solver.find_critical_points(solver.PolygonSpace(3), ChargeVector.of([1, 1, 1]),
                                    settings=solver.SolveSettings(grid_density=8))
    finally:
        tracer.uninstall()
    assert solver.canonicalize is spaces.canonicalize is original
    totals = tracer.totals()
    assert totals["solver.find_critical_points"]["calls"] == 1
    assert totals["spaces.canonicalize"]["calls"] > 0
    assert totals["potentials.polygon_stationarity"]["calls"] > 0
    for module in ("solver", "potentials", "spaces"):
        agg = totals[module]
        assert 0.0 <= agg["self"] <= agg["busy"] + 1e-9
    assert tracer.span_count() == sum(
        agg["calls"] for name, agg in totals.items() if "." in name)


def test_tail_percentile():
    # 30 jobs: ten beyond p66.7
    assert run.tail([float(v) for v in range(30)]) == (19.0, pytest.approx(100.0 * 20 / 30))
    # under 20 jobs the slowest one
    assert run.tail([float(v) for v in range(19)]) == (18.0, 100.0)


def test_host_speed_kernel_process_stops():
    from hostspeed import REF_SECONDS, HostSpeed

    with HostSpeed() as host:
        host.sample()
        host.catch_up()  # sampled just now: nothing due
        assert len(host.samples) == 1 and host.samples[0] > 0
        assert host.factor() == pytest.approx(REF_SECONDS / host.samples[0])
    assert host.proc.returncode == 0
