"""Effective-rank estimation via predictability bracketing.

For an exact mixture model, every data conditional p(pixel|image) is a convex
combination of the component conditionals p(pixel|component), so it is
bracketed by their minimum and maximum. The smallest factorization rank at
which (almost) all (pixel, image) pairs satisfy this bracketing is a robust
effective-rank estimate. The scan also records the mean internal cosine
distance of the basis, the reconstruction error, the relative residual
(RRSSQ), and three information-criterion scores for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import DegenerateInputError, ParameterError
from .nmf import (Factorization, LOSS_FROBENIUS, SolverOptions, _check_grid, factorize_seeds,
                  frobenius_error)
from .probability import PccModel, derive_pcc
from .report import report_fields
from .stability import cosine_distance_matrix

BIC_VARIANTS = ("bic1", "bic2", "bic3")

# Comparison guard for the bracketing inequalities: multiplicative updates
# floor factors at 1e-12, so "absent" probabilities are tiny positives rather
# than exact zeros; the guard sits far below any data-scale probability.
_REL_GUARD = 1e-9
_ABS_GUARD = 1e-9


def _bracketed(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """lo <= values <= hi, each side relaxed by the comparison guard."""
    return ((values >= lo * (1.0 - _REL_GUARD) - _ABS_GUARD)
            & (values <= hi * (1.0 + _REL_GUARD) + _ABS_GUARD))


def predictability_fraction(pcc: PccModel) -> float:
    """Fraction of (pixel, image) pairs bracketed by the component conditionals.

    A pair is valid when min_b p(pixel|b) <= p(pixel|image) <= max_b
    p(pixel|b), with non-strict comparisons relaxed by the comparison guard.
    Returns exactly 1.0 for a model whose mixture reproduces the joint.
    """
    lo = pcc.cond_pixel_given_basis.min(axis=1)[:, None]
    hi = pcc.cond_pixel_given_basis.max(axis=1)[:, None]
    return float(_bracketed(pcc.cond_pixel_given_image, lo, hi).mean())


def dual_predictability_fraction(m: DataMatrix, pcc: PccModel) -> float:
    """Bracketing fraction with the roles of pixels and images swapped.

    Compares p(image|pixel) against the span of p(image|b). Pixels that never
    light up (all-zero rows) have no conditional and are excluded, as are
    components with zero prior.
    """
    data = m.values
    row_mass = data.sum(axis=1)
    live = row_mass > 0
    if not np.any(live):
        raise DegenerateInputError("no pixel row has positive mass")
    p_image_given_pixel = data[live] / row_mass[live, None]

    components = pcc.cond_image_given_basis[pcc.basis_prior > 0]
    if components.shape[0] == 0:
        raise DegenerateInputError("no component has positive prior")
    lo = components.min(axis=0)[None, :]
    hi = components.max(axis=0)[None, :]
    return float(_bracketed(p_image_given_pixel, lo, hi).mean())


def mean_internal_distance(f: Factorization) -> float:
    """Mean pairwise cosine distance between basis columns (rank >= 2)."""
    rank = f.basis.shape[1]
    if rank < 2:
        raise ParameterError("mean internal distance needs at least 2 basis columns")
    dist = cosine_distance_matrix(f.basis, f.basis)
    upper = dist[np.triu_indices(rank, k=1)]
    return float(upper.mean())


def rrssq(m: DataMatrix, f: Factorization) -> float:
    """Relative residual: ||P - reconstruction||_F / ||P||_F."""
    return _relative_residual(m, frobenius_error(m, f))


def _relative_residual(m: DataMatrix, error: float) -> float:
    """sqrt(error) / ||P||_F for a squared Frobenius error already in hand."""
    norm = float(np.sqrt(np.sum(m.values ** 2)))
    if norm == 0:
        raise DegenerateInputError("all-zero matrix has no relative residual")
    return float(np.sqrt(error)) / norm


def bic_from_error(residual_ss: float, n_pixels: int, n_images: int, rank: int,
                   variant: str) -> float:
    """Information-criterion score from a residual sum of squares.

    All variants share the fit term NM*ln(RSS/NM) and differ in the
    complexity penalty on the rank*(N+M) parameters:
    bic1 penalizes with ln(NM), bic2 with ln(NM)/2, bic3 with ln(min(N, M)).
    """
    if variant not in BIC_VARIANTS:
        raise ParameterError(f"unknown BIC variant {variant!r}")
    nm = n_pixels * n_images
    fit = nm * math.log(max(residual_ss, 1e-300) / nm)
    params = rank * (n_pixels + n_images)
    if variant == "bic1":
        penalty = params * math.log(nm)
    elif variant == "bic2":
        penalty = params * math.log(nm) / 2.0
    else:
        penalty = params * math.log(min(n_pixels, n_images))
    return fit + penalty


@dataclass(frozen=True)
class RankScanEntry:
    """Per-(rank, seed) metrics of one scan point."""

    rank: int
    seed: int
    valid_fraction: float
    mean_internal_distance: float   # NaN at rank 1, null in the JSON report
    frobenius_error: float
    rrssq: float
    bic1: float
    bic2: float
    bic3: float
    iters: int        # sweeps the fit ran
    converged: bool   # False when it stopped at max_iters


@dataclass(frozen=True)
class RankScanReport:
    """Full predictability scan: the per-seed curve is the artifact.

    ``r_c`` is the smallest scanned rank whose median-over-seeds invalid
    fraction is <= tau, or None when no rank qualifies (then ``best_rank``
    and ``best_invalid`` describe the closest miss).
    """

    ranks: tuple
    seeds: tuple
    tau: float
    loss: str
    dual: bool
    entries: tuple
    median_invalid: tuple   # aligned with ranks
    r_c: int | None
    best_rank: int
    best_invalid: float

    def entries_for_rank(self, rank: int):
        return [e for e in self.entries if e.rank == rank]

    def best_error(self, rank: int) -> float:
        return min(e.frobenius_error for e in self.entries_for_rank(rank))

    def curve_rows(self) -> list[tuple]:
        """CSV-ready rows: (R, seed, valid_fraction, dbar, error, rrssq, bic1, bic2, bic3)."""
        return [(e.rank, e.seed, e.valid_fraction, e.mean_internal_distance,
                 e.frobenius_error, e.rrssq, e.bic1, e.bic2, e.bic3)
                for e in self.entries]

    def to_dict(self) -> dict:
        return {
            **report_fields(self),
            "curves": [[None if math.isnan(v) else v for v in row] for row in self.curve_rows()],
            "iters": [e.iters for e in self.entries],
            "converged": [e.converged for e in self.entries],
            "n_unconverged": sum(not e.converged for e in self.entries),
        }


def _scan(m: DataMatrix, tau: float, r_min: int, r_max: int, seeds, loss: str,
          opts: SolverOptions | None, dual: bool) -> RankScanReport:
    ranks, seeds = _check_grid(m, range(r_min, r_max + 1), seeds)
    if not 0.0 <= tau < 1.0:
        raise ParameterError("tau must lie in [0, 1)")

    def entry(f):
        pcc = derive_pcc(m, f)
        if dual:
            fraction = dual_predictability_fraction(m, pcc)
        else:
            fraction = predictability_fraction(pcc)
        # The Frobenius trace ends on the direct squared error.
        error = float(f.trace[-1]) if loss == LOSS_FROBENIUS else frobenius_error(m, f)
        return RankScanEntry(
            rank=f.rank, seed=f.seed, valid_fraction=fraction,
            mean_internal_distance=mean_internal_distance(f) if f.rank >= 2 else float("nan"),
            frobenius_error=error, rrssq=_relative_residual(m, error),
            bic1=bic_from_error(error, m.n_pixels, m.n_images, f.rank, "bic1"),
            bic2=bic_from_error(error, m.n_pixels, m.n_images, f.rank, "bic2"),
            bic3=bic_from_error(error, m.n_pixels, m.n_images, f.rank, "bic3"),
            iters=f.iters, converged=f.converged,
        )

    # The seeds of one rank are solved together; the entries keep rank-major, seed order.
    entries = tuple(entry(f) for rank in ranks
                    for f in factorize_seeds(m, rank, seeds, loss, opts))

    median_invalid = tuple(
        float(np.median([1.0 - e.valid_fraction for e in entries if e.rank == rank]))
        for rank in ranks)
    r_c = None
    for rank, invalid in zip(ranks, median_invalid):
        if invalid <= tau:
            r_c = rank
            break
    best_index = int(np.argmin(median_invalid))
    return RankScanReport(ranks=ranks, seeds=seeds, tau=tau, loss=loss, dual=dual,
                          entries=entries, median_invalid=median_invalid, r_c=r_c,
                          best_rank=ranks[best_index], best_invalid=median_invalid[best_index])


def estimate_rc(m: DataMatrix, tau: float, r_min: int, r_max: int, seeds,
                loss: str = LOSS_FROBENIUS, opts: SolverOptions | None = None) -> RankScanReport:
    """Scan ranks and locate the smallest one passing the bracketing test.

    Linear scan (the invalid fraction need not be monotone in the rank); the
    per-seed curve is kept in full. Common thresholds: tau = 1/(N*M) tolerates
    a single invalid pair in the dataset, tau = 1/M one per image.
    """
    return _scan(m, tau, r_min, r_max, seeds, loss, opts, dual=False)


def estimate_rc_dual(m: DataMatrix, tau: float, r_min: int, r_max: int, seeds,
                     loss: str = LOSS_FROBENIUS,
                     opts: SolverOptions | None = None) -> RankScanReport:
    """Same scan with pixel/image roles swapped (report tagged dual=True)."""
    return _scan(m, tau, r_min, r_max, seeds, loss, opts, dual=True)
