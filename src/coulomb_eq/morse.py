"""Morse classification of critical points and topological count checks.

The Morse index is the number of negative eigenvalues of the
constrained Hessian.  On the polygon space with three charges the
sphere-level bookkeeping counts the three coincidence poles as maxima,
so ``#min - #saddle + #max + 3 = 2``; on the torus (distinct radii, so
the energy is smooth everywhere) the alternating count must vanish:
``#min - #saddle + #max = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import potentials as pot
from .potentials import COULOMB, PotentialSpec
from .spaces import (ChargeVector, TorusConfig, TORUS_ALIGNED_LABELS,
                     torus_side_distances)

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
    lab = np.array([_aligned_label(label)])
    d = torus_side_distances(r, lab)[0]
    cos = np.cos(lab[0])
    w = -pot.kernel_terms(spec, d)[1] / d
    j, k = [1, 2, 0], [2, 0, 1]
    return np.array(r) * cos[j] * cos[k] * w[j] * w[k]


def aligned_blocks(rows: np.ndarray, charges: ChargeVector,
                   spec: PotentialSpec = COULOMB,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-line blocks, transverse blocks and mixed blocks of the
    constrained Hessians of a stack of aligned polygon rows ``(k, n, 2)``.

    The reflection symmetry of the energy forces the mixed block to
    vanish, so the spectrum is the union of the two diagonal blocks and
    the in-line block is exactly the Hessian of the one-dimensional
    problem.
    """
    zx, zy = pot.aligned_chart_basis(rows)
    h = pot.retraction_hessian(rows, pot.polygon_derivatives(rows, charges, spec))
    zxt = np.swapaxes(zx, 1, 2)
    return zxt @ h @ zx, np.swapaxes(zy, 1, 2) @ h @ zy, zxt @ h @ zy


def transverse_min_eigenvalues(rows: np.ndarray, charges: ChargeVector,
                               spec: PotentialSpec = COULOMB) -> np.ndarray:
    """Smallest eigenvalue ``(k,)`` of the transverse (off-line) Hessian
    block of each aligned polygon row of a stack ``(k, n, 2)``."""
    return np.linalg.eigvalsh(aligned_blocks(rows, charges, spec)[1])[:, 0]


def euler_count_check(points: Iterable["CriticalPoint"],
                      space: "Space") -> MorseSummary:
    """Tally Morse indices and test the space's alternating-count identity,
    which an empty census fails (every space has aligned critical points)
    and so does a torus census with no point of index 0 (the energy of
    the compact torus attains its minimum)."""
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
        return MorseSummary(counts, 0, "failed", False, "no critical points found")
    torus = isinstance(space, TorusSpace)
    if not torus and space.n != 3:
        return MorseSummary(counts, 0, "not-applicable", False,
                            "sphere-level count is defined for three charges only")
    # the alternating count must be 0 on the torus; on the sphere the three
    # poles count as maxima, so it must be 2 - 3 = -1
    poles, expected = (0, 0) if torus else (3, -1)
    exactness = torus and len(pts) == 4
    if torus and not any(cp.morse_index == 0 for cp in pts):
        return MorseSummary(counts, poles, "failed", exactness, "no minimum found")
    if torus and max(space.radii) - min(space.radii) < 1e-12 * max(space.radii):
        return MorseSummary(counts, poles, "not-applicable", exactness,
                            "energy has poles when radii coincide")
    if degenerate:
        return MorseSummary(counts, poles, "not-applicable", exactness,
                            "degenerate points present")
    alternating = sum((-1) ** idx * c for idx, c in counts.items())
    verdict = "passed" if alternating == expected else "failed"
    return MorseSummary(counts, poles, verdict, exactness)
