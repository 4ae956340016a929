"""How the approximate mixture distributes its error.

The relative error of the mixture's image conditionals anticorrelates with
the conditional magnitude and with the pixel-image correlation: large and
positively-correlated probabilities are approximated better. Entropy and
sparsity summaries quantify the same effect at the whole-image level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedCorrelationError
from .probability import PccModel, _entropies


@dataclass(frozen=True)
class ErrorSequences:
    """Flattened (pixel-major) error and reference sequences.

    eps: relative error |p(pixel|image) - approx| / p(pixel|image), defined
    as 0 where p(pixel|image) = 0. w: p(pixel|image). v: p(pixel|image) -
    p(pixel), the excess over the pixel marginal.
    """

    eps: np.ndarray
    w: np.ndarray
    v: np.ndarray


def error_sequences(pcc: PccModel) -> ErrorSequences:
    """Compute the eps / w / v sequences in a shared row-major flattening."""
    w = pcc.cond_pixel_given_image
    approx = pcc.approx_cond
    eps = np.zeros_like(w)
    positive = w > 0
    eps[positive] = np.abs(w[positive] - approx[positive]) / w[positive]
    v = w - pcc.marg_pixel[:, None]
    return ErrorSequences(eps=eps.ravel(), w=w.ravel(), v=v.ravel())


def pearson(x, y) -> float:
    """Pearson correlation, computed as the cosine of the mean-centered vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("inputs must be 1-d vectors of equal length")
    if len(x) < 2:
        raise ParameterError("need at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    nx = float(np.sqrt(xc @ xc))
    ny = float(np.sqrt(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise UndefinedCorrelationError("zero-variance input")
    return float(xc @ yc) / (nx * ny)


@dataclass(frozen=True)
class AnticorrelationReport:
    r_w: float    # Pearson(eps, w)
    r_v: float    # centered eps against uncentered v
    length: int   # sequence length, for judging significance


def anticorrelation_report(pcc: PccModel) -> AnticorrelationReport:
    """Correlations of the relative error against magnitude and excess.

    r_w centers both sequences (plain Pearson). r_v centers eps only: the
    excess sequence v has zero mean by construction once weighted by the
    image marginals, and is compared as-is.
    """
    seqs = error_sequences(pcc)
    r_w = pearson(seqs.eps, seqs.w)
    eps_centered = seqs.eps - seqs.eps.mean()
    ne = float(np.sqrt(eps_centered @ eps_centered))
    nv = float(np.sqrt(seqs.v @ seqs.v))
    if ne == 0.0 or nv == 0.0:
        raise UndefinedCorrelationError("zero-variance input")
    r_v = float(eps_centered @ seqs.v) / (ne * nv)
    return AnticorrelationReport(r_w=r_w, r_v=r_v, length=len(seqs.eps))


@dataclass(frozen=True)
class EntropyReport:
    s: np.ndarray        # per-image entropy of p(pixel|image)
    s_hat: np.ndarray    # per-image entropy of the mixture conditional
    violations: int      # images with s > s_hat (beyond 1e-12)


def image_entropies(pcc: PccModel) -> EntropyReport:
    """Per-image entropies of the data and mixture conditionals.

    The mixture tends to increase every image's entropy; violations are
    counted and reported, not asserted.
    """
    s = _entropies(pcc.cond_pixel_given_image)
    s_hat = _entropies(pcc.approx_cond)
    violations = int(np.sum(s > s_hat + 1e-12))
    return EntropyReport(s=s, s_hat=s_hat, violations=violations)


def hoyer_sparsity(vec) -> float:
    """Hoyer measure (sqrt(n) - L1/L2) / (sqrt(n) - 1): 0 for uniform, 1 for one-hot."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or len(vec) < 2:
        raise ParameterError("need a 1-d vector of length >= 2")
    l2 = float(np.sqrt(vec @ vec))
    if l2 == 0.0:
        return 0.0
    l1 = float(np.abs(vec).sum())
    root_n = np.sqrt(len(vec))
    return (root_n - l1 / l2) / (root_n - 1.0)


@dataclass(frozen=True)
class SparsityReport:
    lhs: float            # image-marginal-weighted mean image entropy
    rhs: float            # prior-weighted mean basis entropy
    hoyer_images: float   # mean Hoyer sparsity over image columns
    hoyer_bases: float    # mean Hoyer sparsity over basis columns


def sparsity_comparison(pcc: PccModel) -> SparsityReport:
    """Entropy comparison of images vs basis columns, with a Hoyer cross-check.

    lhs > rhs means basis columns are on average sparser (lower-entropy) than
    the images they explain; the Hoyer means should then order the other way.
    """
    image_entropy = _entropies(pcc.cond_pixel_given_image)
    basis_entropy = _entropies(pcc.cond_pixel_given_basis)
    lhs = float(pcc.marg_image @ image_entropy)
    rhs = float(pcc.basis_prior @ basis_entropy)
    hoyer_images = float(np.mean([hoyer_sparsity(col) for col in pcc.cond_pixel_given_image.T]))
    hoyer_bases = float(np.mean([hoyer_sparsity(col) for col in pcc.cond_pixel_given_basis.T]))
    return SparsityReport(lhs=lhs, rhs=rhs, hoyer_images=hoyer_images, hoyer_bases=hoyer_bases)
