"""Probability-model view of a data matrix and its factorization.

A nonnegative matrix divided by its total mass is a joint distribution
p(pixel, image). A factorization basis @ weights induces a mixture model:
column-normalized basis columns give p(pixel | component), and the weighted
column masses give the joint p(component, image). The derived family
(priors, conditionals, and the mixture's approximate joint) is what every
downstream diagnostic consumes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DataMatrix, write_rows
from .errors import DegenerateInputError, ParameterError
from .nmf import Factorization


@dataclass(frozen=True)
class JointModel:
    """Normalized joint distribution with cached marginals."""

    joint: np.ndarray        # (n_pixels, n_images), sums to 1
    marg_pixel: np.ndarray   # (n_pixels,)
    marg_image: np.ndarray   # (n_images,)
    total: float             # original mass of the data matrix


@dataclass(frozen=True)
class PccModel:
    """Mixture-model probability family derived from a factorization.

    All matrices are dense. ``approx_joint`` is exactly
    cond_pixel_given_basis @ joint_basis_image, i.e. the factorization's
    reconstruction normalized by its own mass, so it sums to 1. The family is
    invariant under rescaling basis columns against weights rows.
    """

    cond_pixel_given_basis: np.ndarray   # (n_pixels, rank), columns sum to 1
    joint_basis_image: np.ndarray        # (rank, n_images), sums to 1
    basis_prior: np.ndarray              # (rank,)
    cond_image_given_basis: np.ndarray   # (rank, n_images), rows sum to 1 where prior > 0
    cond_pixel_given_image: np.ndarray   # (n_pixels, n_images), data columns normalized
    approx_cond: np.ndarray              # (n_pixels, n_images), mixture columns normalized
    approx_joint: np.ndarray             # (n_pixels, n_images)
    marg_pixel: np.ndarray               # (n_pixels,), from the data
    marg_image: np.ndarray               # (n_images,), from the data

    @property
    def rank(self) -> int:
        return self.cond_pixel_given_basis.shape[1]


def to_joint(m: DataMatrix) -> JointModel:
    """Normalize a data matrix into a joint distribution over (pixel, image)."""
    total = float(m.values.sum())
    if total == 0:
        raise DegenerateInputError("all-zero matrix has no joint distribution")
    joint = m.values / total
    return JointModel(joint=joint, marg_pixel=joint.sum(axis=1),
                      marg_image=joint.sum(axis=0), total=total)


def derive_pcc(m: DataMatrix, f: Factorization) -> PccModel:
    """Build the full conditional-probability family for (matrix, factorization).

    Basis columns with zero mass are dropped with a warning (the effective
    rank shrinks accordingly). Image columns of the data with zero mass are
    rejected: their pixel conditional is undefined.
    """
    data = m.values
    basis, weights = f.basis, f.weights
    if basis.shape[0] != data.shape[0] or weights.shape[1] != data.shape[1]:
        raise ParameterError(
            f"factorization shape ({basis.shape[0]}x{weights.shape[1]}) does not match "
            f"data {data.shape}")

    column_mass = basis.sum(axis=0)
    keep = column_mass > 0
    if not np.all(keep):
        dropped = int((~keep).sum())
        warnings.warn(f"dropping {dropped} zero-mass basis column(s); rank reduced "
                      f"to {int(keep.sum())}")
        basis = basis[:, keep]
        weights = weights[keep, :]
        column_mass = column_mass[keep]
    if basis.shape[1] == 0:
        raise DegenerateInputError("no basis column has positive mass")

    image_mass = data.sum(axis=0)
    if np.any(image_mass == 0):
        empty = int(np.argmax(image_mass == 0))
        raise DegenerateInputError(f"image column {empty} is all-zero; p(pixel|image) undefined")
    total = data.sum()
    if total == 0:
        raise DegenerateInputError("all-zero matrix")

    cond_pixel_given_basis = basis / column_mass

    scaled = weights * column_mass[:, None]
    recon_mass = scaled.sum()
    if recon_mass == 0:
        raise DegenerateInputError("reconstruction has zero mass")
    joint_basis_image = scaled / recon_mass

    basis_prior = joint_basis_image.sum(axis=1)
    cond_image_given_basis = np.divide(
        joint_basis_image, basis_prior[:, None],
        out=np.zeros_like(joint_basis_image), where=basis_prior[:, None] > 0)

    cond_pixel_given_image = data / image_mass

    approx_joint = cond_pixel_given_basis @ joint_basis_image
    approx_image_mass = approx_joint.sum(axis=0)
    approx_cond = np.divide(
        approx_joint, approx_image_mass,
        out=np.zeros_like(approx_joint), where=approx_image_mass > 0)

    return PccModel(
        cond_pixel_given_basis=cond_pixel_given_basis,
        joint_basis_image=joint_basis_image,
        basis_prior=basis_prior,
        cond_image_given_basis=cond_image_given_basis,
        cond_pixel_given_image=cond_pixel_given_image,
        approx_cond=approx_cond,
        approx_joint=approx_joint,
        marg_pixel=data.sum(axis=1) / total,
        marg_image=image_mass / total,
    )


def _entropies(columns: np.ndarray) -> np.ndarray:
    terms = np.zeros_like(columns)
    positive = columns > 0
    terms[positive] = columns[positive] * np.log(columns[positive])
    return -terms.sum(axis=0)


def pcc_summary(pcc: PccModel) -> dict:
    """JSON-ready summary of the family: priors and per-column entropies."""
    return {
        "rank": pcc.rank,
        "basis_prior": [float(p) for p in pcc.basis_prior],
        "basis_entropy": [float(s) for s in _entropies(pcc.cond_pixel_given_basis)],
        "image_entropy": [float(s) for s in _entropies(pcc.cond_pixel_given_image)],
        "approx_image_entropy": [float(s) for s in _entropies(pcc.approx_cond)],
    }


def export_pcc(pcc: PccModel, dirpath) -> None:
    """Write summary.json plus every probability matrix of the family as CSV."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "summary.json").write_text(json.dumps(pcc_summary(pcc), indent=2) + "\n")
    matrices = {
        "cond_pixel_given_basis.csv": pcc.cond_pixel_given_basis,
        "joint_basis_image.csv": pcc.joint_basis_image,
        "cond_image_given_basis.csv": pcc.cond_image_given_basis,
        "cond_pixel_given_image.csv": pcc.cond_pixel_given_image,
        "approx_cond.csv": pcc.approx_cond,
        "approx_joint.csv": pcc.approx_joint,
    }
    for name, arr in matrices.items():
        write_rows(dirpath / name, arr)


def marginal_residuals(m: DataMatrix, f: Factorization) -> tuple[float, float]:
    """Worst relative deviation of row sums and column sums between P and its reconstruction.

    Rows/columns whose data sum is zero contribute their absolute deviation
    (the relative one is undefined there).
    """
    recon = f.reconstruct()
    if recon.shape != m.values.shape:
        raise ParameterError(f"shape mismatch: data {m.values.shape}, reconstruction {recon.shape}")

    def worst(data_sums, recon_sums):
        deviation = np.abs(data_sums - recon_sums)
        positive = data_sums > 0
        deviation[positive] = deviation[positive] / data_sums[positive]
        return float(deviation.max())

    row = worst(m.values.sum(axis=1), recon.sum(axis=1))
    col = worst(m.values.sum(axis=0), recon.sum(axis=0))
    return row, col
