#!/usr/bin/env python3
"""Census benchmark for coulomb-eq.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload polygon-census --seed 1 \\
        --seconds 30 --trace 0

The package is imported from the checkout's ``src`` directory and driven
only through its public entry points: ``coulomb_eq.cli.main`` in-process
for ``solve``, ``bifurcate`` and ``inverse``, and the public
``bifurcation`` functions for the control-triangle scan and the
fixing-effect probe.  The job list comes from ``workloads.generate``.

The run repeats passes over the job list while another pass still fits
in ``--seconds``.  The first pass's outputs go through ``checker``, which
runs outside the timed region; every later pass must reproduce them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, whose times are scaled to a reference host speed
measured in a separate process (``hostspeed``; the unscaled seconds are
in ``run.json``); with ``--trace 1`` half of the budget runs untraced
and half traced (``tracer``), and the JSON carries the per-layer metrics
of the traced passes.  Run metadata (environment, generated inputs,
per-job times, artifact SHA-256 sums, checker findings) and the spans
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checker
import workloads
from hostspeed import REF_SECONDS, HostSpeed
from tracer import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: fresh interpreters timed for ``setup_s`` (after one untimed warm-up)
SETUP_RUNS = 5
TINY_CENSUS = ["solve", "--space", "polygon:3", "--charges", "1,1,1",
               "--grid-density", "8"]
#: job samples that must lie beyond the reported tail percentile
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "ok_frac": "frac", "certified_frac": "frac", "critical_points": "count",
    "peak_rss_mb": "MB",
}
#: functions whose calls / busy time the per-layer metrics report
LAYER_FUNCTIONS = {
    "potentials.polygon_stationarity": ("calls", "busy_s"),
    "potentials.least_squares_multiplier": ("calls",),
    "potentials.energy_report": ("calls", "busy_s"),
    "spaces.canonicalize": ("calls", "busy_s"),
    "inverse.stationarity_relation_residual": ("busy_s",),
    "morse.classify_spectrum": ("busy_s",),
    "solver.find_critical_points": ("calls", "busy_s"),
    "solver.polish_candidates": ("calls", "busy_s"),
    "bifurcation.trace_pitchfork": ("busy_s",),
    "cli.solve_payload": ("busy_s",),
    "cli.write_artifact": ("busy_s",),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for module in MODULES:
        units[f"{module}.calls"] = "count"
        units[f"{module}.busy_s"] = "s"
        units[f"{module}.self_s"] = "s"
    for name, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            units[f"{name}.{kind}"] = "count" if kind == "calls" else "s"
    units.update({
        "solver.stationarity_evals_per_point": "calls/point",
        "solver.seeds_per_point": "calls/point",
        "spaces.canonicalize_per_point": "calls/point",
        "trace.overhead_frac": "frac",
        "trace.spans": "count",
    })
    return units


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _charges_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Runner:
    """Executes passes over a job list and keeps what the checks need."""

    def __init__(self, jobs: list[dict], workdir: Path, pkg) -> None:
        self.jobs = jobs
        self.workdir = workdir
        self.pkg = pkg
        self.times: list[list[float]] = [[] for _ in jobs]
        self.first: list[dict | None] = [None] * len(jobs)
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0
        self.tracer: Tracer | None = None
        self.host: HostSpeed | None = None

    # -- execution ---------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[float, int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = self.pkg.cli.main(argv)
            except SystemExit as exc:  # argparse rejects unknown flags this way
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
        return elapsed, code, buf.getvalue()

    def _solve(self, job: dict) -> tuple[float, dict]:
        path = self.workdir / "artifacts" / f"{job['id']}.json"
        path.unlink(missing_ok=True)
        elapsed, code, _ = self._cli([
            "solve", "--space", job["space"], "--charges", _charges_arg(job["charges"]),
            "--grid-density", str(job["grid"]), "--out", str(path)])
        data = path.read_bytes() if path.exists() else b""
        return elapsed, {"code": code, "sha256": _sha256(data), "bytes": data}

    def _bifurcate(self, job: dict) -> tuple[float, dict]:
        outdir = self.workdir / job["id"]
        shutil.rmtree(outdir, ignore_errors=True)
        lo, hi = job["range"]
        elapsed, code, stdout = self._cli([
            "bifurcate", "--space", job["space"],
            "--charges", _charges_arg(job["charges"]), "--sweep", str(job["sweep"]),
            "--range", f"{lo!r}:{hi!r}", "--steps", str(job["steps"]),
            "--outdir", str(outdir)])
        digest = hashlib.sha256(stdout.encode())
        for name in ("branches.csv", "curves.csv", "branches.json", "curves.json"):
            path = outdir / name
            digest.update(path.read_bytes() if path.exists() else b"missing")
        branches = outdir / "branches.json"
        return elapsed, {"code": code, "stdout": stdout, "sha256": digest.hexdigest(),
                         "branches": json.loads(branches.read_text())
                         if branches.exists() else {}}

    def _inverse(self, job: dict) -> tuple[float, dict]:
        sides = checker.triangle_sides(job["charges"])
        elapsed, code, stdout = self._cli(["inverse", "--sides", _charges_arg(sides)])
        return elapsed, {"code": code, "stdout": stdout,
                         "sha256": _sha256(stdout.encode())}

    def _cell(self, job: dict) -> tuple[float, dict]:
        charges = self.pkg.ChargeVector.of(job["charges"])
        start = time.perf_counter()
        points = self.pkg.bifurcation.three_charge_equilibria(charges)
        elapsed = time.perf_counter() - start
        # digest from the fields alone: no package call, so nothing
        # outside the timed job shows in the trace
        text = repr([(cp.config.points.tolist(), cp.energy, cp.hessian_eigenvalues,
                      cp.morse_index, cp.aligned, cp.degenerate, cp.symmetry_partner)
                     for cp in points])
        return elapsed, {"charges": charges, "points": points,
                         "sha256": _sha256(text.encode())}

    def _probe(self, job: dict) -> tuple[float, dict]:
        start = time.perf_counter()
        result = self.pkg.bifurcation.fixing_effect_probe(
            job["q1"], job["q3"], job["q2_samples"])
        elapsed = time.perf_counter() - start
        return elapsed, {"result": result, "sha256": _sha256(repr(result).encode())}

    def run_pass(self) -> float:
        """One pass over the job list; returns the summed job time."""
        pass_no = self.passes
        self.passes += 1
        run = {"solve": self._solve, "bifurcate": self._bifurcate,
               "inverse": self._inverse, "cell": self._cell, "probe": self._probe}
        wall = 0.0
        for k, job in enumerate(self.jobs):
            if self.tracer is not None:
                self.tracer.job = k
            self.attempted += 1
            start = time.perf_counter()
            try:
                elapsed, output = run[job["kind"]](job)
            except Exception:  # a job that raises is counted as failed
                elapsed = time.perf_counter() - start
                self.failures.append({"pass": pass_no, "job": job["id"],
                                      "problems": [traceback.format_exc()]})
                output = None
            self.times[k].append(elapsed)
            wall += elapsed
            if self.host is not None:
                self.host.catch_up()
            if output is None:
                continue
            if self.first[k] is None:
                self.first[k] = output
            elif output["sha256"] != self.first[k]["sha256"]:
                self.failures.append({"pass": pass_no, "job": job["id"],
                                      "problems": ["output differs from pass 0"]})
        return wall

    def run_for(self, budget: float, passes: list[float]) -> None:
        """Run passes while half of another one (at the median pass time)
        still fits in ``budget`` seconds; always at least one.  Waiting
        for a whole pass to fit would leave up to a pass of the budget
        unmeasured (a third of a ``torus-census`` run)."""
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            if time.perf_counter() - start + statistics.median(passes) / 2 > budget:
                return


def check_jobs(runner: Runner) -> tuple[list[dict], dict]:
    """Run the checker on the first pass; returns per-job findings and
    the census tallies.  Runs with the tracer removed."""
    findings = []
    census = {"jobs": 0, "certified": 0, "points": 0}
    for job, out in zip(runner.jobs, runner.first):
        if out is None:
            continue  # raised on every pass; already a failure
        kind = job["kind"]
        entry = {"job": job["id"], "problems": []}
        if kind in ("solve", "cell"):
            if kind == "solve":
                if out["code"] != 0:
                    entry["problems"].append(f"exit code {out['code']}")
                try:
                    points = json.loads(out["bytes"])["points"]
                except (ValueError, KeyError):
                    entry["problems"].append("no census artifact")
                    points = []
                space = job["space"]
            else:
                # the point records ``solve`` writes, built by the same code
                points = runner.pkg.cli.solve_payload(
                    runner.pkg.PolygonSpace(3), out["charges"],
                    runner.pkg.PotentialSpec.coulomb(), out["points"])["points"]
                space = "polygon:3"
            verdict = checker.check_census(points, space, job["charges"])
            entry["problems"].extend(verdict.problems)
            entry.update(alternating=verdict.alternating, expected=verdict.expected,
                         certified=verdict.certified, points=verdict.verified_points)
            census["jobs"] += 1
            census["certified"] += verdict.certified
            census["points"] += verdict.verified_points
        elif kind == "bifurcate":
            entry["problems"] = checker.check_bifurcate(
                job, out["code"], out["stdout"], out["branches"])
        elif kind == "inverse":
            payload = json.loads(out["stdout"]) if out["code"] == 0 else None
            entry["problems"] = checker.check_inverse(job, out["code"], payload)
        elif kind == "probe":
            entry["problems"] = checker.check_probe(job, out["result"])
        findings.append(entry)
    return findings, census


def tail(job_times: list[float]) -> tuple[float, float]:
    """The highest percentile of per-job times that leaves
    ``TAIL_SAMPLES`` jobs beyond it, and that percentile; below twice
    ``TAIL_SAMPLES`` jobs it would fall under the median, so the slowest
    job is reported instead.

    Each job counts with its median over the passes: a single sample of
    a job of a few milliseconds catches whatever pre-emption the host
    makes at that moment, and on a loaded host those moved the
    ``analysis-mix`` tail of single samples by half between two sets of
    runs while per-job medians moved by 3%.
    """
    ordered = sorted(job_times)
    jobs = len(ordered)
    if jobs < 2 * TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[jobs - TAIL_SAMPLES - 1], 100.0 * (jobs - TAIL_SAMPLES) / jobs


def measure_setup(workdir: Path, host: HostSpeed) -> tuple[list[float], list[str]]:
    """Fresh interpreter to the first finished tiny census, timed
    ``SETUP_RUNS`` times after one untimed warm-up, with a host-speed
    sample before each."""
    code = ("import sys\nfrom coulomb_eq.cli import main\n"
            f"sys.exit(main({TINY_CENSUS!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, problems = [], []
    for k in range(SETUP_RUNS + 1):
        host.sample()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        try:
            points = len(json.loads(proc.stdout)["points"])
        except (ValueError, KeyError):
            points = None
        if proc.returncode != 0 or points != 5:
            problems.append(f"setup run {k}: exit {proc.returncode}, {points} points; "
                            + proc.stderr.decode(errors="replace")[-400:])
        if k:
            times.append(elapsed)
    (workdir / "setup-stdout.json").write_bytes(proc.stdout)
    return times, problems


def environment(pkg) -> dict:
    default_threads = getattr(pkg.cli, "default_threads", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "solve_threads_default": default_threads() if default_threads else None,
        "platform": platform.platform(),
    }


def layer_metrics(tracer: Tracer, passes: int, points: int,
                  untraced_wall: float, traced_wall: float) -> dict[str, float]:
    totals = tracer.totals()
    out: dict[str, float] = {}
    for module in MODULES:
        agg = totals[module]
        out[f"{module}.calls"] = agg["calls"] / passes
        out[f"{module}.busy_s"] = agg["busy"] / passes
        out[f"{module}.self_s"] = agg["self"] / passes
    for name, kinds in LAYER_FUNCTIONS.items():
        agg = totals.get(name, {"calls": 0, "busy": 0.0})
        for kind in kinds:
            out[f"{name}.{kind}"] = (agg["calls"] if kind == "calls" else agg["busy"]) / passes
    per_point = max(points, 1)
    out["solver.stationarity_evals_per_point"] = \
        out["potentials.polygon_stationarity.calls"] / per_point
    out["solver.seeds_per_point"] = out["potentials.least_squares_multiplier.calls"] / per_point
    out["spaces.canonicalize_per_point"] = out["spaces.canonicalize.calls"] / per_point
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.spans"] = tracer.span_count() / passes
    return out


def import_package():
    """Import coulomb_eq from this checkout's ``src``, or return None."""
    if not (SRC / "coulomb_eq" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import coulomb_eq
    import coulomb_eq.bifurcation
    import coulomb_eq.cli
    from coulomb_eq.potentials import PotentialSpec
    from coulomb_eq.solver import PolygonSpace
    from coulomb_eq.spaces import ChargeVector

    if Path(coulomb_eq.__file__).resolve().parent != (SRC / "coulomb_eq").resolve():
        return None

    return SimpleNamespace(cli=coulomb_eq.cli, bifurcation=coulomb_eq.bifurcation,
                           ChargeVector=ChargeVector, PolygonSpace=PolygonSpace,
                           PotentialSpec=PotentialSpec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the benchmark never chooses the solver's thread count
    os.environ.pop("COULOMB_EQ_THREADS", None)
    pkg = import_package()
    if pkg is None:
        print(f"perfbench: no coulomb_eq package under {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.generate(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "artifacts").mkdir(parents=True)
    meta: dict = {"workload": args.workload, "why": workloads.WHY[args.workload],
                  "seed": args.seed, "held_out_seed": workloads.HELD_OUT_SEED,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(pkg), "jobs": jobs}

    setup_times: list[float] = []
    setup_problems: list[str] = []
    runner = Runner(jobs, workdir, pkg)
    untraced: list[float] = []
    traced: list[float] = []
    tracer = None
    budget = args.seconds / 2 if args.trace else args.seconds
    with contextlib.ExitStack() as stack:
        if not args.trace:
            runner.host = stack.enter_context(HostSpeed())
            setup_times, setup_problems = measure_setup(workdir, runner.host)
            setup_phase = slice(len(runner.host.samples))
        # warm lazy imports and first-call set-up before timing
        with contextlib.redirect_stdout(io.StringIO()):
            pkg.cli.main(TINY_CENSUS)
        runner.run_for(budget, untraced)
        if runner.host is not None:
            runner.host.sample()  # the job phase has at least one sample
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            runner.run_for(budget, traced)
        finally:
            tracer.uninstall()
            runner.tracer = None

    findings, census = check_jobs(runner)
    bad_jobs = {f["job"] for f in findings if f["problems"]}
    # a job whose first output fails the checker fails on every pass
    failed = len(bad_jobs) * runner.passes
    failed += sum(1 for f in runner.failures if f["job"] not in bad_jobs)
    attempted = runner.attempted + (SETUP_RUNS + 1 if setup_times else 0)
    failed += len(setup_problems)
    # ok_frac counts each job once, however many passes it failed, with
    # the set-up as one more job: a single broken job lowers it by one
    # part in the job count on every workload
    bad_jobs.update(f["job"] for f in runner.failures)
    units_run = len(jobs) + (1 if setup_times else 0)
    ok_frac = 1.0 - (len(bad_jobs) + bool(setup_problems)) / units_run

    if args.trace:
        metrics = layer_metrics(tracer, len(traced), census["points"],
                                statistics.median(untraced), statistics.median(traced))
        units = per_layer_units()
        tracer.write_spans(workdir / "spans.npz")
    else:
        job_times = [t for times in runner.times for t in times]
        tail_value, tail_pct = tail([statistics.median(t) for t in runner.times])
        meta["tail_percentile"] = tail_pct
        raw = {"setup_s": statistics.median(setup_times),
               "wall_s": statistics.median(untraced),
               "job_p50_s": statistics.median(job_times),
               "job_tail_s": tail_value}
        # each phase is scaled by the kernel samples taken during it
        setup_speed = runner.host.factor(setup_phase)
        speed = runner.host.factor(slice(setup_phase.stop, None))
        meta.update(raw_seconds=raw, host_speed={
            "ref_seconds": REF_SECONDS, "setup_factor": setup_speed, "factor": speed,
            "setup_samples": setup_phase.stop, "samples": runner.host.samples})
        metrics = {
            "setup_s": raw["setup_s"] * setup_speed,
            **{name: raw[name] * speed for name in ("wall_s", "job_p50_s", "job_tail_s")},
            "ok_frac": ok_frac,
            "certified_frac": census["certified"] / max(census["jobs"], 1),
            "critical_points": census["points"],
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        meta["samples"] = {"setup_s": len(setup_times), "wall_s": len(untraced),
                           "job_p50_s": len(job_times), "job_tail_s": len(jobs)}

    meta.update(
        passes={"untraced": untraced, "traced": traced},
        job_times={job["id"]: t for job, t in zip(jobs, runner.times)},
        artifact_sha256={job["id"]: out["sha256"] for job, out in zip(jobs, runner.first)
                         if out is not None and job["kind"] == "solve"},
        census=census, findings=findings, failures=runner.failures,
        setup_times=setup_times, setup_problems=setup_problems,
        attempted=attempted, failed=failed, metrics=metrics)
    (workdir / "run.json").write_text(json.dumps(meta, indent=1, default=str) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload} samples: setup_s median of {len(setup_times)} "
              f"interpreters; wall_s median of {len(untraced)} passes; job_p50_s over "
              f"{len(job_times)} job samples; job_tail_s (p{tail_pct:.4g}) over "
              f"{len(jobs)} per-job medians; "
              f"certified {census['certified']}/{census['jobs']} census jobs",
              file=sys.stderr)
    for f in findings:
        for problem in f["problems"]:
            print(f"FAIL {f['job']}: {problem}", file=sys.stderr)
    for f in runner.failures:
        print(f"FAIL {f['job']} (pass {f['pass']}): {f['problems'][0]}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
