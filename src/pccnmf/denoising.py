"""Dictionary denoising by low-rank reconstruction of a corrupted matrix.

A rank-R factorization of the noisy matrix denoises image i when the clean
image is cosine-closer to the reconstruction than to its noisy version.
Ranks qualifying for all but a few images form a band [r1, r2]; below it no
reliable dictionary forms, above it the factors overfit the noise. The
nearest-neighbor accuracy AC compares the factorization against a truncated
SVD baseline on the same corrupted input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import ParameterError
from .nmf import (Factorization, SolverOptions, _check_grid, _reconstruction, _truncate,
                  factorize_seeds)
from .report import report_fields
from .stability import _paired_cosines, cosine_distance_matrix


def _check_same_shape(clean: DataMatrix, noisy: DataMatrix) -> None:
    if clean.values.shape != noisy.values.shape:
        raise ParameterError(
            f"shape mismatch: clean {clean.values.shape}, noisy {noisy.values.shape}")


def denoise_margins(clean: DataMatrix, noisy: DataMatrix, f_noisy: Factorization) -> np.ndarray:
    """Per-image denoising margin D(P_i, noisy_i) - D(P_i, recon_i).

    Positive margin: the reconstruction of the noisy image is closer to the
    clean image than the noisy image itself.
    """
    _check_same_shape(clean, noisy)
    recon = _reconstruction(clean, f_noisy)
    to_noisy = 1.0 - _paired_cosines(clean.values, noisy.values)
    to_recon = 1.0 - _paired_cosines(clean.values, recon)
    return to_noisy - to_recon


def accuracy(clean: DataMatrix, recon_noisy: np.ndarray) -> float:
    """Fraction of images whose clean original is the unique cosine-nearest clean image
    to their reconstruction; distance ties count as misses."""
    recon_noisy = np.asarray(recon_noisy, dtype=np.float64)
    if recon_noisy.shape != clean.values.shape:
        raise ParameterError(
            f"shape mismatch: clean {clean.values.shape}, reconstruction {recon_noisy.shape}")
    dist = cosine_distance_matrix(clean.values, recon_noisy)
    best = dist.min(axis=0)
    hits = (np.diagonal(dist) == best) & ((dist == best).sum(axis=0) == 1)
    return int(hits.sum()) / clean.n_images


@dataclass(frozen=True)
class DenoiseRankEntry:
    """Per-rank results of a denoising sweep."""

    rank: int
    violations: int            # best-of-seeds count of images with margin <= 0
    min_margin: float          # worst margin of the best seed
    ac_nmf: float | None = None
    ac_svd: float | None = None


# Width of the centered moving average applied to the AC curves.
_AC_WINDOW = 5


@dataclass(frozen=True)
class DenoiseReport:
    """Denoising sweep over ranks: qualification band plus optional AC curves."""

    ranks: tuple
    entries: tuple
    exclusions: int
    r1: int | None
    r2: int | None
    seeds: tuple
    xi: float | None = None

    def qualified_mask(self) -> list[bool]:
        return [e.violations <= self.exclusions for e in self.entries]

    def ac_curves(self) -> dict:
        """AC curves with a centered moving average (window _AC_WINDOW)."""
        def smooth(values):
            values = np.asarray(values, dtype=np.float64)
            half = _AC_WINDOW // 2
            out = []
            for i in range(len(values)):
                lo = max(0, i - half)
                hi = min(len(values), i + half + 1)
                out.append(float(values[lo:hi].mean()))
            return out

        curves = {}
        for name in ("ac_nmf", "ac_svd"):
            values = [getattr(e, name) for e in self.entries]
            if all(v is not None for v in values):
                curves[name] = [float(v) for v in values]
                curves[name + "_smoothed"] = smooth(values)
        return curves

    def to_dict(self) -> dict:
        return {
            **report_fields(self),
            "violations": [e.violations for e in self.entries],
            "min_margins": [e.min_margin for e in self.entries],
            "qualified": self.qualified_mask(),
            **self.ac_curves(),
        }


def find_r_range(clean: DataMatrix, noisy: DataMatrix, ranks, exclusions: int = 2,
                 seeds=(0,), opts: SolverOptions | None = None, xi: float | None = None,
                 svd_baseline: bool = False) -> DenoiseReport:
    """Factorize ``noisy`` (Frobenius loss) once per (rank, seed) over ``ranks``; a rank
    qualifies when at most ``exclusions`` images have non-positive margin (best seed
    counts).

    r1/r2 are the smallest/largest qualifying ranks; the full qualification
    mask is kept so interior gaps stay visible. With ``svd_baseline`` each entry
    also carries the nearest-neighbor accuracy of the best-loss seed's
    reconstruction and of the truncated SVD of ``noisy`` at that rank.
    """
    _check_same_shape(clean, noisy)
    ranks, seeds = _check_grid(noisy, ranks, seeds)
    if exclusions < 0:
        raise ParameterError("exclusions must be >= 0")
    # One SVD of the noisy matrix serves every rank.
    svd = np.linalg.svd(noisy.values, full_matrices=False) if svd_baseline else None

    def one(rank):
        best_violations = None
        best_min_margin = None
        best_fit = None
        for f in factorize_seeds(noisy, rank, seeds, opts=opts):
            margins = denoise_margins(clean, noisy, f)
            violations = int((margins <= 0).sum())
            if best_violations is None or violations < best_violations:
                best_violations = violations
                best_min_margin = float(margins.min())
            if best_fit is None or f.trace[-1] < best_fit.trace[-1]:
                best_fit = f
        ac_nmf = accuracy(clean, best_fit.reconstruct()) if svd_baseline else None
        ac_svd = accuracy(clean, _truncate(svd, rank)) if svd_baseline else None
        return DenoiseRankEntry(rank=rank, violations=best_violations,
                                min_margin=best_min_margin, ac_nmf=ac_nmf, ac_svd=ac_svd)

    entries = tuple(map(one, ranks))
    qualified = [e.rank for e in entries if e.violations <= exclusions]
    return DenoiseReport(ranks=ranks, entries=entries, exclusions=exclusions,
                         r1=qualified[0] if qualified else None,
                         r2=qualified[-1] if qualified else None,
                         seeds=seeds, xi=xi)
