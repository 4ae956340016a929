"""Dictionary denoising by low-rank reconstruction of a corrupted matrix.

A rank-R factorization of the noisy matrix denoises image i when the clean
image is cosine-closer to the reconstruction than to its noisy version.
Ranks qualifying for all but a few images form a band [r1, r2]; below it no
reliable dictionary forms, above it the factors overfit the noise. The
nearest-neighbor accuracy AC compares the factorization against a truncated
SVD baseline on the same corrupted input.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import ParameterError
from .nmf import Factorization, LOSS_FROBENIUS, SolverOptions, factorize, truncated_svd
from .stability import cosine_distance_matrix


def denoise_margins(clean: DataMatrix, noisy: DataMatrix, f_noisy: Factorization) -> np.ndarray:
    """Per-image denoising margin D(P_i, noisy_i) - D(P_i, recon_i).

    Positive margin: the reconstruction of the noisy image is closer to the
    clean image than the noisy image itself.
    """
    if clean.values.shape != noisy.values.shape:
        raise ParameterError(
            f"shape mismatch: clean {clean.values.shape}, noisy {noisy.values.shape}")
    recon = f_noisy.reconstruct()
    if recon.shape != clean.values.shape:
        raise ParameterError(
            f"shape mismatch: data {clean.values.shape}, reconstruction {recon.shape}")

    def paired_distances(a, b):
        na = np.sqrt((a * a).sum(axis=0))
        nb = np.sqrt((b * b).sum(axis=0))
        dot = (a * b).sum(axis=0)
        denom = na * nb
        cos = np.divide(dot, denom, out=np.zeros_like(dot), where=denom > 0)
        return 1.0 - cos

    to_noisy = paired_distances(clean.values, noisy.values)
    to_recon = paired_distances(clean.values, recon)
    return to_noisy - to_recon


def accuracy(clean: DataMatrix, recon_noisy: np.ndarray) -> float:
    """Fraction of images whose clean original is the unique cosine-nearest clean image
    to their reconstruction; distance ties count as misses."""
    recon_noisy = np.asarray(recon_noisy, dtype=np.float64)
    if recon_noisy.shape != clean.values.shape:
        raise ParameterError(
            f"shape mismatch: clean {clean.values.shape}, reconstruction {recon_noisy.shape}")
    dist = cosine_distance_matrix(clean.values, recon_noisy)
    hits = 0
    n_images = clean.n_images
    for i in range(n_images):
        column = dist[:, i]
        best = column.min()
        if column[i] == best and int((column == best).sum()) == 1:
            hits += 1
    return hits / n_images


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
        out = {
            "ranks": list(self.ranks),
            "exclusions": self.exclusions,
            "r1": self.r1,
            "r2": self.r2,
            "seeds": list(self.seeds),
            "xi": self.xi,
            "violations": [e.violations for e in self.entries],
            "min_margins": [e.min_margin for e in self.entries],
            "qualified": self.qualified_mask(),
        }
        out.update(self.ac_curves())
        return out


def _sweep(clean: DataMatrix, noisy: DataMatrix, ranks, seeds, opts, loss, exclusions: int,
           xi, with_ac: bool, threads: int) -> DenoiseReport:
    """Factorize ``noisy`` once per (rank, seed) and build the report from those runs."""
    ranks = tuple(ranks)
    seeds = tuple(seeds)
    if not ranks:
        raise ParameterError("no ranks to scan")
    if min(ranks) < 1:
        raise ParameterError("ranks must be >= 1")
    if exclusions < 0:
        raise ParameterError("exclusions must be >= 0")
    if not seeds:
        raise ParameterError("seeds must be non-empty")

    def one(rank):
        best_violations = None
        best_min_margin = None
        best_loss = np.inf
        best_recon = None
        for seed in seeds:
            f = factorize(noisy, rank, loss, seed, opts)
            margins = denoise_margins(clean, noisy, f)
            violations = int((margins <= 0).sum())
            if best_violations is None or violations < best_violations:
                best_violations = violations
                best_min_margin = float(margins.min())
            final = float(f.trace[-1])
            if final < best_loss:
                best_loss = final
                best_recon = f.reconstruct()
        ac_nmf = accuracy(clean, best_recon) if with_ac else None
        ac_svd = accuracy(clean, truncated_svd(noisy, rank)) if with_ac else None
        return DenoiseRankEntry(rank=rank, violations=best_violations,
                                min_margin=best_min_margin, ac_nmf=ac_nmf, ac_svd=ac_svd)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = tuple(pool.map(one, ranks))
    else:
        entries = tuple(one(rank) for rank in ranks)
    qualified = [e.rank for e in entries if e.violations <= exclusions]
    return DenoiseReport(ranks=ranks, entries=entries, exclusions=exclusions,
                         r1=qualified[0] if qualified else None,
                         r2=qualified[-1] if qualified else None,
                         seeds=seeds, xi=xi)


def find_r_range(clean: DataMatrix, noisy: DataMatrix, r_lo: int, r_hi: int,
                 exclusions: int = 2, seeds=(0,), opts: SolverOptions | None = None,
                 loss: str = LOSS_FROBENIUS, xi: float | None = None,
                 threads: int = 1) -> DenoiseReport:
    """Scan ranks [r_lo, r_hi]; a rank qualifies when at most ``exclusions``
    images have non-positive margin (best seed counts).

    r1/r2 are the smallest/largest qualifying ranks; the full qualification
    mask is kept so interior gaps stay visible.
    """
    if r_lo < 1:
        raise ParameterError("r_lo must be >= 1")
    if r_hi < r_lo:
        raise ParameterError("r_hi must be >= r_lo")
    return _sweep(clean, noisy, range(r_lo, r_hi + 1), seeds, opts, loss, exclusions, xi,
                  with_ac=False, threads=threads)


def compare_with_svd(clean: DataMatrix, distorted: DataMatrix, r_values, seeds=(0,),
                     opts: SolverOptions | None = None, loss: str = LOSS_FROBENIUS,
                     exclusions: int = 2, xi: float | None = None,
                     threads: int = 1) -> DenoiseReport:
    """The :func:`find_r_range` report over ``r_values``, plus nearest-neighbor
    accuracy curves for the factorization (best-of-seeds) and the truncated-SVD
    baseline on the same distorted input."""
    return _sweep(clean, distorted, r_values, seeds, opts, loss, exclusions, xi,
                  with_ac=True, threads=threads)
