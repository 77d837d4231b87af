"""Command-line front end.

Subcommands: ``solve`` (critical-point census as JSON), ``bifurcate``
(branch diagram and boundary curves as CSV), ``inverse`` (stabilizing
charges as JSON) and ``verify`` (built-in verification suites).

Artifacts are byte-deterministic for identical flags: fixed sort
orders, shortest round-trip float formatting, no timestamps.  Every
file written to disk gets a ``<name>.manifest.json`` sibling recording
the command, settings, input hash, tool version and wall time (the
manifest is the only place timing lives, so artifacts stay
reproducible).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, bifurcation, inverse as inverse_mod, verify as verify_mod
from .morse import euler_count_check
from .potentials import PotentialSpec
from .solver import (
    CriticalPoint,
    PolygonSpace,
    SolveSettings,
    Space,
    TorusSpace,
    find_critical_points,
)
from .spaces import (
    ChargeVector,
    deserialize_config,
    serialize_config,
)


class CliError(Exception):
    """Invalid command-line input (exit code 2)."""


def parse_space(text: str) -> Space:
    kind, _, rest = text.partition(":")
    if kind == "polygon":
        try:
            return PolygonSpace(int(rest))
        except ValueError as exc:
            raise CliError(f"bad polygon space {text!r}: {exc}") from exc
    if kind == "torus":
        parts = rest.split(",")
        if len(parts) != 3:
            raise CliError("torus space needs three radii, e.g. torus:1,2,3")
        try:
            return TorusSpace(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise CliError(f"bad torus space {text!r}: {exc}") from exc
    raise CliError(f"unknown space {text!r}; use polygon:N or torus:r1,r2,r3")


def parse_charges(text: str, expected: int) -> ChargeVector:
    try:
        vals = [float(p) for p in text.split(",")]
        charges = ChargeVector.of(vals)
    except ValueError as exc:
        raise CliError(f"bad charges {text!r}: {exc}") from exc
    if len(charges) != expected:
        raise CliError(f"expected {expected} charges, got {len(charges)}")
    return charges


def parse_potential(text: str) -> PotentialSpec:
    try:
        return PotentialSpec.parse(text)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"bad range {text!r}; use LO:HI")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"bad range {text!r}: {exc}") from exc
    if not lo < hi:
        raise CliError("range must satisfy LO < HI")
    return lo, hi


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, sort_keys=False) + "\n"


def write_artifact(path: Path, text: str, manifest: dict) -> None:
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # unlink before writing: on ext4, truncating a file that already
        # holds blocks flushes it at close, tens of milliseconds per rewrite
        for target, content in ((path, text),
                                (path.with_name(path.name + ".manifest.json"), manifest_text)):
            target.unlink(missing_ok=True)
            target.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def emit(out: str | None, text: str, command: str, params: dict, started: float) -> None:
    """Print ``text``, or write it to the file ``out`` with its manifest."""
    if out:
        write_artifact(Path(out), text, build_manifest(command, params, started))
    else:
        sys.stdout.write(text)


def build_manifest(command: str, params: dict, started: float) -> dict:
    canonical = json.dumps(params, sort_keys=True)
    return {
        "command": command,
        "parameters": params,
        "input_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }


def point_record(cp: CriticalPoint) -> dict:
    return {
        "coords": serialize_config(cp.config),
        "energy": cp.energy,
        "grad_norm": cp.grad_norm,
        "eigenvalues": list(cp.hessian_eigenvalues),
        "index": cp.morse_index,
        "aligned": cp.aligned,
        "degenerate": cp.degenerate,
        "partner": cp.symmetry_partner,
    }


def solve_payload(space: Space, charges: ChargeVector, spec: PotentialSpec,
                  points: list[CriticalPoint]) -> dict:
    summary = euler_count_check(points, space)
    payload = {
        "space": space.name,
        "charges": [float(v) for v in charges.q],
        "potential": spec.label,
        "points": [point_record(cp) for cp in points],
        "summary": {
            "counts": {str(k): v for k, v in sorted(summary.counts.items())},
            "poles_count": summary.poles_count,
            "euler_check": summary.euler_check,
            "exactness": summary.exactness,
            "reason": summary.reason,
        },
    }
    if space.n >= 4:
        payload["coverage_note"] = (
            "multistart coverage is heuristic for polygons beyond three "
            "vertices; raise --grid-density to push the search harder")
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    started = time.monotonic()
    space = parse_space(args.space)
    charges = parse_charges(args.charges, space.n)
    spec = parse_potential(args.potential)
    try:
        settings = SolveSettings(grid_density=args.grid_density)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    points = find_critical_points(space, charges, spec, settings)
    payload = solve_payload(space, charges, spec, points)
    emit(args.out, json_text(payload), "solve", {
        "space": args.space, "charges": args.charges, "potential": args.potential,
        "settings": asdict(settings),
    }, started)
    if payload["summary"]["euler_check"] == "failed":
        return 3
    return 0


def branch_csv(diagram: bifurcation.BranchDiagram) -> str:
    lines = ["lambda,q1,q2,q3,branch,amplitude,stability,energy"]
    for p in diagram.points:
        q1, q2, q3 = p.control
        lines.append(f"{p.lam!r},{q1!r},{q2!r},{q3!r},{p.branch},"
                     f"{p.amplitude!r},{p.stability},{p.energy!r}")
    return "\n".join(lines) + "\n"


def curves_csv(curves: list[bifurcation.BifurcationCurve]) -> str:
    lines = ["label,q1,q2,q3"]
    for curve in curves:
        for s in curve.samples:
            q1, q2, q3 = s.charges
            lines.append(f"{curve.label},{q1!r},{q2!r},{q3!r}")
    return "\n".join(lines) + "\n"


def cmd_bifurcate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    space = parse_space(args.space)
    charges = parse_charges(args.charges, space.n)
    spec = parse_potential(args.potential)
    if not 1 <= args.sweep <= space.n:
        raise CliError(f"--sweep must pick one of the {space.n} charges (1-based)")
    if args.steps < 2:
        raise CliError(f"--steps must be at least 2, got {args.steps}")
    lam_range = parse_range(args.range)
    path = bifurcation.charge_sweep_path(list(charges.q), args.sweep - 1)
    try:
        if isinstance(space, PolygonSpace):
            curves = bifurcation.polygon_bifurcation_set(args.resolution, spec)
        else:
            curves = bifurcation.torus_bifurcation_set(space.radii, args.resolution, spec)
        diagram = bifurcation.trace_pitchfork(space, path, lam_range,
                                              steps=args.steps, spec=spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    outdir = Path(args.outdir)
    params = {
        "space": args.space, "charges": args.charges, "potential": args.potential,
        "sweep": args.sweep, "range": args.range, "steps": args.steps,
        "resolution": args.resolution,
    }
    branches_json = {
        "space": diagram.space,
        "threshold": diagram.threshold,
        "branch_side": diagram.branch_side,
        "points": [{
            "lambda": p.lam, "control": list(p.control), "branch": p.branch,
            "amplitude": p.amplitude, "stability": p.stability,
            "energy": p.energy,
        } for p in diagram.points],
    }
    curves_json = {
        "curves": [{"label": c.label,
                    "samples": [list(s.charges) for s in c.samples]}
                   for c in curves],
    }
    manifest = build_manifest("bifurcate", params, started)
    for name, text in (("branches.csv", branch_csv(diagram)),
                       ("curves.csv", curves_csv(curves)),
                       ("branches.json", json_text(branches_json)),
                       ("curves.json", json_text(curves_json))):
        write_artifact(outdir / name, text, manifest)
    print(f"threshold: {diagram.threshold!r}")
    try:
        exponent = bifurcation.fit_branch_exponent(diagram)
        print(f"amplitude exponent fit: {exponent!r}")
    except ValueError as exc:
        print(f"amplitude exponent fit: unavailable ({exc})")
    print(f"wrote branches.csv/json and curves.csv/json under {outdir}")
    return 0


def cmd_inverse(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if bool(args.sides) == bool(args.points):
        raise CliError("provide exactly one of --sides or --points")
    if args.sides:
        try:
            sides = [float(p) for p in args.sides.split(",")]
        except ValueError as exc:
            raise CliError(f"bad sides {args.sides!r}") from exc
        if len(sides) != 3:
            raise CliError("--sides needs three lengths l1,l2,l3")
        params = {"sides": args.sides}
    else:
        try:
            data = json.loads(Path(args.points).read_text(encoding="utf-8"))
            config, _ = deserialize_config(data)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(f"cannot read configuration file: {exc}") from exc
        params = {"points": str(args.points)}
    try:
        result = (inverse_mod.stabilizing_charges_triangle(*sides) if args.sides
                  else inverse_mod.stabilizing_charges(config))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "kind": result.kind,
        "charges": list(result.charges.q) if result.charges else None,
        "family": None if result.family is None else {
            "outer": list(result.family.outer),
            "intermediate_limit": result.family.intermediate_limit,
        },
        "residual": result.residual,
        "notes": result.notes,
    }
    emit(args.out, json_text(payload), "inverse", params, started)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = verify_mod.run_suite(args.suite)
    emit(args.out, json_text(report), "verify", {"suite": args.suite}, started)
    return 0 if report["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="coulomb-eq",
        description="Equilibria of point charges on fixed-perimeter polygons "
                    "and concentric-circle triples.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="find and classify all equilibria")
    solve.add_argument("--space", required=True,
                       help="polygon:N or torus:r1,r2,r3")
    solve.add_argument("--charges", required=True, help="comma-separated charges")
    solve.add_argument("--potential", default="coulomb",
                       help="coulomb | power:K | log")
    solve.add_argument("--grid-density", type=int, default=24,
                       help="multistart seeds per chart dimension, the one census "
                            "setting (default 24; polygon:3 uses its closed forms, "
                            "the torus its level sweep)")
    solve.add_argument("--out", default=None, help="write JSON here instead of stdout")
    solve.set_defaults(func=cmd_solve)

    bif = subs.add_parser("bifurcate",
                          help="trace a pitchfork along a one-charge sweep")
    bif.add_argument("--space", required=True)
    bif.add_argument("--charges", required=True,
                     help="base charges; the swept one is replaced by the parameter")
    bif.add_argument("--potential", default="coulomb")
    bif.add_argument("--sweep", type=int, required=True,
                     help="1-based index of the swept charge")
    bif.add_argument("--range", required=True, help="parameter range LO:HI")
    bif.add_argument("--steps", type=int, default=40)
    bif.add_argument("--resolution", type=int, default=200,
                     help="samples per boundary curve")
    bif.add_argument("--outdir", default="out", help="directory for CSV artifacts")
    bif.set_defaults(func=cmd_bifurcate)

    inv = subs.add_parser("inverse", help="charges stabilizing a configuration")
    inv.add_argument("--sides", default=None,
                     help="triangle side lengths l1,l2,l3 (each opposite its vertex)")
    inv.add_argument("--points", default=None,
                     help="JSON file with a serialized configuration")
    inv.add_argument("--out", default=None)
    inv.set_defaults(func=cmd_inverse)

    ver = subs.add_parser("verify", help="run the built-in verification suite")
    ver.add_argument("--suite", choices=("quick", "full"), default="quick")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
