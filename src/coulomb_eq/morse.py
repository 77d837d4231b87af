"""Morse classification of critical points and topological count checks.

The Morse index is the number of negative eigenvalues of the
constrained Hessian.  On the polygon space with three charges the
sphere-level bookkeeping counts the three coincidence poles as maxima,
so ``#min - #saddle + #max + 3 = 2``; on the torus (distinct radii, so
the energy is smooth everywhere) the alternating count must vanish:
``#min - #saddle + #max = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import potentials as pot
from .potentials import COULOMB, PotentialSpec
from .spaces import (ChargeVector, PolygonConfig, TorusConfig, TORUS_ALIGNED_LABELS,
                     chord_distance)

if TYPE_CHECKING:  # pragma: no cover
    from .solver import CriticalPoint, Space

#: eigenvalues below this fraction of the spectral scale flag degeneracy
DEGENERACY_TOL = 1e-8


class DegenerateCriticalPointError(ValueError):
    """Raised when a Morse index is requested at a degenerate point."""


def classify_spectrum(eigenvalues: Sequence[float]) -> tuple[int, bool]:
    """(index, degenerate) from a constrained-Hessian spectrum."""
    index, degenerate = classify_spectra(np.asarray(eigenvalues, dtype=float)[None])
    return int(index[0]), bool(degenerate[0])


def classify_spectra(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Morse indices ``(k,)`` and degeneracy flags ``(k,)`` of a stack of
    constrained-Hessian spectra ``(k, m)``."""
    size = np.abs(eigenvalues)
    scale = np.maximum(1.0, size.max(axis=1))
    return (eigenvalues < 0.0).sum(axis=1), size.min(axis=1) < DEGENERACY_TOL * scale


def morse_index(cp: "CriticalPoint") -> int:
    """Number of negative constrained-Hessian eigenvalues; refuses
    degenerate points, which carry no Morse index."""
    if cp.degenerate:
        raise DegenerateCriticalPointError(
            "degenerate critical point has no Morse index")
    return cp.morse_index


@dataclass(frozen=True)
class MorseSummary:
    """Counts per Morse index plus the topological consistency verdict."""

    counts: dict[int, int]
    poles_count: int
    euler_check: str  # "passed" | "failed" | "not-applicable"
    exactness: bool
    reason: str = ""


def _aligned_label(label: Sequence[float]) -> tuple[float, ...]:
    """The label as floats, refused unless it is one of ``TORUS_ALIGNED_LABELS``."""
    lab = tuple(float(v) for v in label)
    if lab not in TORUS_ALIGNED_LABELS:
        raise ValueError(f"not an aligned angle triple: {lab}")
    return lab


def torus_label_config(radii: Sequence[float],
                       label: Sequence[float]) -> TorusConfig:
    """The aligned torus configuration carrying the given angle label."""
    lab = _aligned_label(label)
    return TorusConfig(tuple(radii), (lab[0], lab[1]))


def torus_aligned_hessian_form(radii: Sequence[float], label: Sequence[float],
                               spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Coefficients (c1, c2, c3) of the sign form of the aligned Hessian
    determinant: ``det(H) = q1*q2*q3*r1*r2*r3 * (c1*q1 + c2*q2 + c3*q3)``.

    Each coefficient is ``r_i * cos(a_j) * cos(a_k) * w_j * w_k`` with
    ``w = -phi'(d) / d`` of the kernel (``1 / d**3`` for the inverse
    distance) at the cosine-rule distances of the label angles, so its
    sign is positive exactly when the charge's own angle is zero.
    """
    r = tuple(float(v) for v in radii)
    if len(r) != 3 or min(r) <= 0.0:
        raise ValueError("need three positive radii")
    spread = max(r)
    if (abs(r[0] - r[1]) <= 1e-12 * spread or abs(r[1] - r[2]) <= 1e-12 * spread
            or abs(r[0] - r[2]) <= 1e-12 * spread):
        raise ValueError("aligned sign forms need pairwise distinct radii")
    lab = _aligned_label(label)
    pair = ((1, 2), (2, 0), (0, 1))
    d = [float(chord_distance(r[a], r[b], lab[i])) for i, (a, b) in enumerate(pair)]
    cos = [math.cos(a) for a in lab]
    w = [-pot.kernel_eval(spec, v)[1] / v for v in d]
    coeffs = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        coeffs[i] = r[i] * cos[j] * cos[k] * w[j] * w[k]
    return coeffs


def aligned_blocks(config: PolygonConfig, charges: ChargeVector,
                   spec: PotentialSpec = COULOMB,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-line block, transverse block and mixed block of the constrained
    Hessian at an aligned polygon configuration.

    The reflection symmetry of the energy forces the mixed block to
    vanish, so the spectrum is the union of the two diagonal blocks and
    the in-line block is exactly the Hessian of the one-dimensional
    problem.
    """
    pts = config.points[None]
    zx, zy = pot.aligned_chart_basis(config.points)
    h = pot.retraction_hessian(pts, pot.polygon_derivatives(pts, charges, spec))[0]
    return zx.T @ h @ zx, zy.T @ h @ zy, zx.T @ h @ zy


def transverse_min_eigenvalue(config: PolygonConfig, charges: ChargeVector,
                              spec: PotentialSpec = COULOMB) -> float:
    """Smallest eigenvalue of the transverse (off-line) Hessian block."""
    _, hyy, _ = aligned_blocks(config, charges, spec)
    return float(np.linalg.eigvalsh(hyy)[0])


def transverse_soft_direction(config: PolygonConfig, charges: ChargeVector,
                              spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of the transverse
    Hessian block, as a displacement ``(n, 2)`` of the vertices: vertex 0
    stays pinned and every x-component is zero."""
    _, zy = pot.aligned_chart_basis(config.points)
    _, hyy, _ = aligned_blocks(config, charges, spec)
    soft = zy @ np.linalg.eigh(hyy)[1][:, 0]
    return np.vstack([np.zeros((1, 2)), soft.reshape(-1, 2)])


def euler_count_check(points: Iterable["CriticalPoint"],
                      space: "Space") -> MorseSummary:
    """Tally Morse indices and test the space's alternating-count identity."""
    from .solver import TorusSpace  # local import, no cycle at runtime

    pts = list(points)
    counts: dict[int, int] = {}
    degenerate = False
    for cp in pts:
        if cp.degenerate:
            degenerate = True
            continue
        counts[cp.morse_index] = counts.get(cp.morse_index, 0) + 1
    if not pts:
        return MorseSummary(counts, 0, "not-applicable", False,
                            "no critical points found")
    torus = isinstance(space, TorusSpace)
    if not torus and space.n != 3:
        return MorseSummary(counts, 0, "not-applicable", False,
                            "sphere-level count is defined for three charges only")
    # the alternating count must be 0 on the torus; on the sphere the three
    # poles count as maxima, so it must be 2 - 3 = -1
    poles, expected = (0, 0) if torus else (3, -1)
    exactness = torus and len(pts) == 4
    if torus and max(space.radii) - min(space.radii) < 1e-12:
        return MorseSummary(counts, poles, "not-applicable", exactness,
                            "energy has poles when radii coincide")
    if degenerate:
        return MorseSummary(counts, poles, "not-applicable", exactness,
                            "degenerate points present")
    alternating = sum((-1) ** idx * c for idx, c in counts.items())
    verdict = "passed" if alternating == expected else "failed"
    return MorseSummary(counts, poles, verdict, exactness)
