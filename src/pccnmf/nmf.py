"""Seeded nonnegative matrix factorization via multiplicative updates.

Factorizes a nonnegative pixels-by-images matrix P as basis @ weights at a
given rank, minimizing either the squared Frobenius distance or the
generalized Kullback-Leibler divergence. Multiplicative updates make the
recorded loss trace non-increasing; a small floor on both factors prevents
entries from locking at exact zero. A truncated-SVD reconstruction is
provided as the unconstrained low-rank baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DataMatrix, write_rows
from .errors import DegenerateInputError, FormatError, ParameterError

LOSS_FROBENIUS = "frobenius"
LOSS_KL = "kl"

_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Stopping controls for :func:`factorize`.

    The solver stops when the relative loss change between sweeps drops
    below ``rel_tol``, or after ``max_iters`` sweeps.
    """

    max_iters: int = 2000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ParameterError("rel_tol must be > 0")


@dataclass(frozen=True)
class Factorization:
    """Result of one factorization run.

    ``trace[k]`` is the loss after k update sweeps (``trace[0]`` is the loss
    of the random initialization), so the trace is non-increasing.
    """

    basis: np.ndarray       # (n_pixels, rank), nonnegative
    weights: np.ndarray     # (rank, n_images), nonnegative
    rank: int
    loss: str
    seed: int
    trace: np.ndarray
    converged: bool

    def __post_init__(self):
        for name in ("basis", "weights", "trace"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.basis.ndim != 2 or self.weights.ndim != 2:
            raise ParameterError("basis and weights must be 2-d")
        if self.basis.shape[1] != self.weights.shape[0]:
            raise ParameterError("basis columns must match weights rows")
        if self.rank != self.basis.shape[1]:
            raise ParameterError(
                f"rank {self.rank} does not match {self.basis.shape[1]} basis columns")
        if np.any(self.basis < 0) or np.any(self.weights < 0):
            raise ParameterError("factors must be nonnegative")

    def reconstruct(self) -> np.ndarray:
        return self.basis @ self.weights


def _squared_error(data: np.ndarray, recon: np.ndarray) -> float:
    return float(np.sum((data - recon) ** 2))


def _generalized_kl(data: np.ndarray, recon: np.ndarray) -> float:
    pos = data > 0
    if np.any(recon[pos] == 0):
        return float("inf")
    fit = float(np.sum(data[pos] * np.log(data[pos] / recon[pos])))
    return fit - float(data.sum()) + float(recon.sum())


def _loss_value(data, recon, loss):
    return _squared_error(data, recon) if loss == LOSS_FROBENIUS else _generalized_kl(data, recon)


def factorize(m: DataMatrix, rank: int, loss: str = LOSS_FROBENIUS, seed: int = 0,
              opts: SolverOptions | None = None) -> Factorization:
    """Run seeded multiplicative updates on ``m`` at the given rank.

    Deterministic for fixed (matrix, rank, loss, seed, opts) in
    single-threaded execution. Both factors are initialized i.i.d. uniform on
    (0, 1] scaled by sqrt(mean(P)/rank), basis drawn before weights.
    """
    if opts is None:
        opts = SolverOptions()
    if loss not in (LOSS_FROBENIUS, LOSS_KL):
        raise ParameterError(f"unknown loss {loss!r}")
    data = m.values
    n_pixels, n_images = data.shape
    if not 1 <= rank <= min(n_pixels, n_images):
        raise ParameterError(f"rank must lie in [1, {min(n_pixels, n_images)}], got {rank}")
    if data.sum() == 0:
        raise DegenerateInputError("cannot factorize an all-zero matrix")

    rng = np.random.default_rng(seed)
    amplitude = np.sqrt(data.mean() / rank)
    basis = (1.0 - rng.random((n_pixels, rank))) * amplitude
    weights = (1.0 - rng.random((rank, n_images))) * amplitude

    trace = [_loss_value(data, basis @ weights, loss)]
    converged = False
    for _ in range(opts.max_iters):
        if loss == LOSS_FROBENIUS:
            numer = data @ weights.T
            denom = basis @ (weights @ weights.T)
            basis = np.maximum(basis * numer / np.maximum(denom, _FLOOR), _FLOOR)
            numer = basis.T @ data
            denom = (basis.T @ basis) @ weights
            weights = np.maximum(weights * numer / np.maximum(denom, _FLOOR), _FLOOR)
        else:
            recon = np.maximum(basis @ weights, _FLOOR)
            basis = basis * ((data / recon) @ weights.T) / np.maximum(
                weights.sum(axis=1), _FLOOR)
            basis = np.maximum(basis, _FLOOR)
            recon = np.maximum(basis @ weights, _FLOOR)
            weights = weights * (basis.T @ (data / recon)) / np.maximum(
                basis.sum(axis=0)[:, None], _FLOOR)
            weights = np.maximum(weights, _FLOOR)
        current = _loss_value(data, basis @ weights, loss)
        previous = trace[-1]
        trace.append(current)
        if abs(current - previous) / max(previous, 1e-30) < opts.rel_tol:
            converged = True
            break

    return Factorization(basis=basis, weights=weights, rank=rank, loss=loss,
                         seed=seed, trace=np.array(trace), converged=converged)


def frobenius_error(m: DataMatrix, f: Factorization) -> float:
    """Squared Frobenius distance sum((P - reconstruction)^2)."""
    recon = f.reconstruct()
    if recon.shape != m.values.shape:
        raise ParameterError(f"shape mismatch: data {m.values.shape}, reconstruction {recon.shape}")
    return _squared_error(m.values, recon)


def kl_divergence(m: DataMatrix, f: Factorization) -> float:
    """Generalized KL divergence sum(P ln(P/R) - P + R), with 0 ln 0 = 0.

    Returns +inf when some positive entry of P meets an exactly-zero
    reconstruction entry.
    """
    recon = f.reconstruct()
    if recon.shape != m.values.shape:
        raise ParameterError(f"shape mismatch: data {m.values.shape}, reconstruction {recon.shape}")
    return _generalized_kl(m.values, recon)


def truncated_svd(m: DataMatrix, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation in Frobenius norm (entries may be negative)."""
    data = m.values
    if not 1 <= rank <= min(data.shape):
        raise ParameterError(f"rank must lie in [1, {min(data.shape)}], got {rank}")
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vt[:rank]


def gauge_transform(f: Factorization, kappa) -> Factorization:
    """Rescale basis columns by kappa and weights rows by 1/kappa.

    The reconstruction is unchanged; kappa must be strictly positive,
    one entry per basis column.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    if kappa.shape != (f.rank,):
        raise ParameterError(f"kappa must have shape ({f.rank},)")
    if np.any(kappa <= 0):
        raise ParameterError("kappa entries must be strictly positive")
    return Factorization(basis=f.basis * kappa, weights=f.weights / kappa[:, None],
                         rank=f.rank, loss=f.loss, seed=f.seed,
                         trace=f.trace, converged=f.converged)


# Keys of meta.json that load_factorization reads, with the JSON types they may have.
_META_TYPES = {"rank": (int,), "loss": (str,), "seed": (int,), "final_loss": (float, int),
               "converged": (bool,)}


def save_factorization(f: Factorization, dirpath) -> None:
    """Write B.csv, W.csv and meta.json into ``dirpath``."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    write_rows(dirpath / "B.csv", f.basis)
    write_rows(dirpath / "W.csv", f.weights)
    meta = {
        "rank": f.rank,
        "loss": f.loss,
        "seed": f.seed,
        "iters": len(f.trace) - 1,
        "final_loss": float(f.trace[-1]),
        "converged": f.converged,
    }
    (dirpath / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_factorization(dirpath) -> Factorization:
    """Load a factorization saved by :func:`save_factorization`.

    The loaded trace holds only the recorded final loss.
    """
    dirpath = Path(dirpath)
    try:
        meta = json.loads((dirpath / "meta.json").read_text())
        basis = np.loadtxt(dirpath / "B.csv", delimiter=",", ndmin=2)
        weights = np.loadtxt(dirpath / "W.csv", delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise FormatError(f"{dirpath}: not a factorization directory: {exc}") from None
    for key, kind in _META_TYPES.items():
        if not isinstance(meta, dict) or type(meta.get(key)) not in kind:
            raise FormatError(f"{dirpath / 'meta.json'}: {key!r} is missing or not "
                              f"of type {kind[0].__name__}")
    return Factorization(basis=basis, weights=weights, rank=meta["rank"],
                         loss=meta["loss"], seed=meta["seed"],
                         trace=np.array([float(meta["final_loss"])]),
                         converged=meta["converged"])
