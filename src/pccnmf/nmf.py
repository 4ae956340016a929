"""Seeded nonnegative matrix factorization via multiplicative updates.

Factorizes a nonnegative pixels-by-images matrix P as basis @ weights at a
given rank, minimizing either the squared Frobenius distance or the
generalized Kullback-Leibler divergence. Multiplicative updates make the
recorded loss trace non-increasing. A truncated-SVD reconstruction is
provided as the unconstrained low-rank baseline.

The solver has one floor, 1e-12 on every factor entry, applied to the initial
draws and after every update so that no entry locks at exact zero. It makes
every denominator of an update (B W W^T, B^T B W, B W, the row sums of W and
the column sums of B) at least 1e-36, a normal double, so the updates divide
by them as they are. Multiplicative updates commute with rescaling P, and so
does the stopping rule, so c P fits as c times the fit of P for c down to
4^-20 (about 1e-12) on a dense random 30 x 40 matrix (a test holds the
reconstruction to 1e-5 relative with the same stopping sweep, both losses).
On sparse data the factor floor binds at far larger entries (ROADMAP item 3).
On a 40 x 50 matrix with 40 % zeros and peak 1, scaled by 2^-20, the rank-6
Frobenius fit ended 5.0e-2 relative away from the scaled fit. On the 48 x 64
graded matrix of tools/golden.py times 2^-40 (peak 2.3e-10), the rank-6 fits
took 766 (Frobenius) and 782 (KL) sweeps against 561 and 477 unscaled, and
ended 3.3 % and 7.7 % away. The trace still never rises.

A run stops when the loss changes by at most ``rel_tol`` relative between
sweeps, after ``max_iters`` sweeps, or, for the Frobenius loss only, once the
squared error is at most 10 * ``rel_tol`` * ||P||^2 (the fit floor). Near an
exact fit the updates shrink the error by a nearly constant factor per sweep,
so the relative test never fires there. The floor is 1e-5 * ||P||^2 at the
default ``rel_tol`` of 1e-6. A tighter ``rel_tol`` asks for a near-exact fit,
and its floor is at most 1e-20 * ||P||^2, a relative residual of 1e-10. Noisy
data stay far above the floor.

The loss is recorded after every sweep without a pass over the N x M
reconstruction where possible. The squared error comes from two Grams,
||P||^2 - 2 <W, B^T P> + <B^T B, W W^T>: B^T P and B^T B are formed by the
weights update, and W W^T, formed once per sweep right after it, also serves
the next sweep's basis update (B W W^T). Near an exact fit that difference
loses digits, so below a guard (``_GRAM_GUARD``) the sweep takes the direct
sum instead. The Gram form and ||P||^2 are summed by numpy, not by a BLAS
dot, whose bits vary with the BLAS thread count. Both updates run in place,
with the same operations in the same order as the out-of-place form.
The sweep works on the distinct lit rows of P, found once per run. A dark
row, a pixel zero in every image, has a zero row of P W^T, so the first sweep
floors its basis row for good; the basis is updated on the lit rows only, and
the dark rows add the constant n_dark * floor^2 to B^T B. Lit rows that repeat
form groups: P W^T is Q W^T gathered back to the lit rows, and B^T P is
(B^T G) Q, where Q holds the distinct rows and G is the 0/1 lit-row-to-group
matrix. With L lit rows, D distinct ones and M images, the groups are used
only when D (L + M) < L M: then the L x D matrix G is smaller than P's lit
rows and the grouped products take fewer flops than the plain ones. The full
basis is assembled only for the direct sum and the result. When every row is
lit and too few repeat, as in noisy data, P is used as it is. Otherwise the
shorter products sum in another order, so factors differ from the dense update
in the last bits (at most 4e-12 relative on the clean Swimmer at ranks 12..17).

Every product of P, or of the KL ratio below, with W^T takes a C-contiguous
copy of W^T, refilled once per sweep into one buffer; only the grouped product
Q W^T takes the view weights.T. With one OpenBLAS thread (0.3.31, AVX-512) the
view ran at about half the speed: 71..81 us against 34..55 us for P W^T at
169 x 256 and ranks 11..17, and 116 against 101 us at rank 30. OpenBLAS may
sum the two layouts in another order, so factors differ from the loop on the
view by up to 1e-10 relative (1.7e-11 for KL at rank 17, 2.6e-12 for the
Frobenius loss at rank 11, on the flip-noised Swimmer), with the same
stopping sweeps.

:func:`factorize_seeds` runs the Frobenius fits of several seeds of one (matrix,
rank) as one stack: an (S, L, R) basis and an (S, R, M) weights array go through
the same operations in the same order, the products through numpy's stacked
matmul, which makes one BLAS call per layer with that layer's own layout. Each
seed keeps its own trace, Gram guard and stopping rule, and leaves the stack when
it stops, so every fit equals the one-seed :func:`factorize` bit for bit. The
one-seed fit is a stack of one on the same path, at parity with the 2-d copy of
the sweep it replaced (median time ratios 0.94..1.08 on the Swimmer at ranks 10..14,
inside the spread of the rounds). The
stack saves numpy calls, not flops: it pays where a sweep is bound by the
per-call cost, as on the 17 distinct rows of the clean Swimmer (ranks 12..17,
3 seeds: 1.28x as fast), and the gain shrinks with rank on flip-noised data,
where the arithmetic dominates: 1.07x at rank 32 and 0.95x at rank 40 with 10
seeds (xi 0.05), 1.00x at rank 45 and 0.99x at rank 60 with 3 (xi 0.25). KL
keeps a one-seed loop: a stacked KL sweep measured 0.94..0.97x.

The KL update needs P / B W, which is 0 wherever P is 0. So the flat indices
of the support of P, P on them and the sum of P are computed once per run.
Each half-update divides on the support only and writes the result into a
ratio buffer whose other entries stay 0. The sweep's loss divides P by B W
there, and that quotient also serves the next sweep's basis update. B W is
written into one buffer made once per run. The four products with the factors
and the sum of B W in the loss stay full-matrix, so factors and traces equal
those of a dense update with the same layout bit for bit. The last trace entry
is always the direct value, equal to :func:`frobenius_error` or
:func:`kl_divergence` of the result.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DataMatrix, read_rows, write_rows
from .errors import DegenerateInputError, FormatError, ParameterError

LOSS_FROBENIUS = "frobenius"
LOSS_KL = "kl"

_FLOOR = 1e-12

# The Gram form of the squared error subtracts terms of size ||P||^2; its
# absolute error measured up to 6.9e-16 * ||P||^2 on the Swimmer (33 fits: clean,
# ranks 12..17 and 60; flip-noised at xi 0.05 and 0.25). The stopping
# rule compares loss changes against rel_tol * loss. While that exceeds
# _GRAM_GUARD * ||P||^2, the Gram error stays under a hundredth of it; below
# (near-exact fits, or a tiny rel_tol) the sweep takes the direct sum, which
# is never negative.
_GRAM_GUARD = 1e-13

# Further sweeps can lower the Frobenius loss by at most the loss itself. Once
# that is at most _FIT_FLOOR * rel_tol * ||P||^2, what is left to gain is ten
# rel_tol on the data's scale, on which the slow tail of the updates spent the
# rest of the 2000-sweep cap (clean Swimmer, ranks 16..60: under the floor
# after 381..617 sweeps).
_FIT_FLOOR = 10.0

# Below the default rel_tol the floor is at most _EXACT_FLOOR * ||P||^2, a
# relative residual of 1e-10: at rel_tol 1e-13, 1e-12 ||P||^2 stopped exact
# rank-2 mixtures too far from the fit for rank_scan's 1e-9 bracketing guard,
# and with no floor a fit on the roundoff plateau of the 1e-12 factor floor
# stops wherever two jittering losses agree to rel_tol.
_EXACT_FLOOR = 1e-20


@dataclass(frozen=True)
class SolverOptions:
    """Stopping controls for :func:`factorize`.

    The solver stops when the relative loss change between sweeps is at
    most ``rel_tol``, or after ``max_iters`` sweeps. A Frobenius fit also
    stops once its squared error is at most 10 * ``rel_tol`` * ||P||^2: at
    the defaults 1e-5 * ||P||^2, a relative residual of at most 3.2e-3, and
    at ``rel_tol`` >= 0.1 at least ||P||^2, so a run may end after one sweep.
    Below the default ``rel_tol`` the floor is at most 1e-20 * ||P||^2.
    Either way the run counts as converged.
    """

    max_iters: int = 2000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0 < self.rel_tol < np.inf:
            raise ParameterError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


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
        if not (np.isfinite(self.basis).all() and np.isfinite(self.weights).all()):
            raise ParameterError("factors must be finite")
        if np.any(self.basis < 0) or np.any(self.weights < 0):
            raise ParameterError("factors must be nonnegative")

    @property
    def iters(self) -> int:
        """Update sweeps the run made."""
        return len(self.trace) - 1

    def reconstruct(self) -> np.ndarray:
        return self.basis @ self.weights


def _squared_error(data: np.ndarray, recon: np.ndarray) -> float:
    return float(np.sum((data - recon) ** 2))


def _kl_data_terms(data: np.ndarray) -> tuple:
    """The data-side parts of the KL divergence: the flat (C-order) indices of the
    support of P, P on them, and the sum of P."""
    support = np.flatnonzero(data > 0)
    return support, data.take(support), float(data.sum())


def _generalized_kl(data_terms: tuple, recon: np.ndarray, quotient: np.ndarray) -> float:
    """KL divergence of ``recon`` from the data; ``quotient`` is P / ``recon`` on the
    support, and ``recon`` is positive there."""
    _, data_pos, data_sum = data_terms
    fit = float(np.sum(data_pos * np.log(quotient)))
    return fit - data_sum + float(recon.sum())


def _distinct_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of ``rows`` in order of first occurrence, and the group of
    each row (its index among them). Grouping L rows of M entries into D takes an
    L x D row-to-group matrix and R*D*(2M + L) flops per sweep against 2*R*L*M,
    so when D*(L + M) >= L*M, as when no row repeats, it returns ``rows`` and
    None."""
    n_rows, n_cols = rows.shape
    first = {}
    owner = np.array([first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)])
    if len(first) * (n_rows + n_cols) >= n_rows * n_cols:
        return rows, None
    distinct = np.flatnonzero(owner == np.arange(n_rows))
    return rows[distinct], np.searchsorted(distinct, owner)


def _with_dark_rows(basis: np.ndarray, lit: np.ndarray, n_pixels: int) -> np.ndarray:
    """The N x R basis from its lit rows; every dark row holds the floor."""
    if len(lit) == n_pixels:
        return basis
    full = np.full((n_pixels, basis.shape[1]), _FLOOR)
    full[lit] = basis
    return full


def _check_grid(m: DataMatrix, ranks, seeds) -> tuple[tuple, tuple]:
    """The (rank, seed) grid of a scan over ``m`` as two tuples, checked."""
    ranks, seeds = tuple(ranks), tuple(seeds)
    if not ranks:
        raise ParameterError("no ranks to scan")
    limit = min(m.n_pixels, m.n_images)
    if min(ranks) < 1 or max(ranks) > limit:
        raise ParameterError(f"ranks must lie in [1, {limit}]")
    if not seeds:
        raise ParameterError("seeds must be non-empty")
    return ranks, seeds


def factorize(m: DataMatrix, rank: int, loss: str = LOSS_FROBENIUS, seed: int = 0,
              opts: SolverOptions | None = None) -> Factorization:
    """Run seeded multiplicative updates on ``m`` at the given rank.

    Deterministic for fixed (matrix, rank, loss, seed, opts), and the result
    does not depend on the BLAS thread count (checked by
    ``tests/test_nmf.py::TestLossTrace::test_frobenius_trace_independent_of_blas_threads``
    and by ``tools/golden.py``). Both factors are initialized i.i.d. uniform on
    (0, 1] scaled by sqrt(mean(P)/rank), basis drawn before weights, and
    clamped at the factor floor. The one-seed case of :func:`factorize_seeds`.
    """
    return factorize_seeds(m, rank, (seed,), loss, opts)[0]


def factorize_seeds(m: DataMatrix, rank: int, seeds, loss: str = LOSS_FROBENIUS,
                    opts: SolverOptions | None = None) -> tuple[Factorization, ...]:
    """:func:`factorize` for each of ``seeds`` (non-empty, repeats allowed), in seed order.

    Each fit equals ``factorize(m, rank, loss, seed, opts)`` bit for bit. The
    Frobenius fits run as one stack through the sweep (module docstring).
    """
    if opts is None:
        opts = SolverOptions()
    if loss not in (LOSS_FROBENIUS, LOSS_KL):
        raise ParameterError(f"unknown loss {loss!r}")
    data = m.values
    n_pixels, n_images = data.shape
    if not 1 <= rank <= min(n_pixels, n_images):
        raise ParameterError(f"rank must lie in [1, {min(n_pixels, n_images)}], got {rank}")
    seeds = tuple(seeds)
    if not seeds:
        raise ParameterError("seeds must be non-empty")
    if data.sum() == 0:
        raise DegenerateInputError("cannot factorize an all-zero matrix")

    amplitude = np.sqrt(data.mean() / rank)

    def start(seed):
        rng = np.random.default_rng(seed)
        basis = np.maximum((1.0 - rng.random((n_pixels, rank))) * amplitude, _FLOOR)
        weights = np.maximum((1.0 - rng.random((rank, n_images))) * amplitude, _FLOOR)
        return basis, weights

    if loss == LOSS_FROBENIUS:
        fits = _frobenius_fits(data, [start(seed) for seed in seeds], opts)
    else:
        fits = [_kl_fit(data, *start(seed), opts) for seed in seeds]
    return tuple(Factorization(basis=basis, weights=weights, rank=rank, loss=loss, seed=seed,
                               trace=np.array(trace), converged=converged)
                 for seed, (basis, weights, trace, converged) in zip(seeds, fits))


def _frobenius_fits(data: np.ndarray, starts: list, opts: SolverOptions) -> list:
    """Frobenius multiplicative updates from each (basis, weights) of ``starts``, run as
    one stack: layer k of the (S, L, R) basis and the (S, R, M) weights is start k.
    Returns (basis, weights, trace, converged) for each start, in order."""
    n_pixels = data.shape[0]
    norm_sq = float(np.sum(data * data))
    traces = [[_squared_error(data, basis @ weights)] for basis, weights in starts]
    # A dark row's basis row is floored by the first sweep and stays there,
    # so the basis lives on the lit rows; each dark row adds _FLOOR^2 to
    # every entry of B^T B.
    lit = np.flatnonzero(data.any(axis=1))
    n_dark = n_pixels - len(lit)
    basis, weights = (np.stack(factors) for factors in zip(*starts))
    if n_dark:
        # take() keeps the stack C-contiguous; basis[:, lit] would lay it out lit
        # row first, which changes the BLAS path of the products and so their bits.
        basis = basis.take(lit, axis=-2)
    layers = list(range(len(starts)))   # the start each layer of the stack holds
    fits = [None] * len(starts)
    del starts   # the stack holds the factors; each initial one is freed once replaced
    rows, group = _distinct_rows(data[lit] if n_dark else data)
    if group is not None:
        # Lit row i of P is rows[group[i]]: P W^T = (rows W^T)[group] and
        # B^T P = (B^T members) rows, members the 0/1 row-to-group matrix.
        members = np.zeros((len(group), len(rows)))
        members[np.arange(len(group)), group] = 1.0
    rel_tol = opts.rel_tol
    cap = np.inf if rel_tol >= SolverOptions.rel_tol else _EXACT_FLOOR
    fit_floor = min(_FIT_FLOOR * rel_tol, cap) * norm_sq
    gram_guard = _GRAM_GUARD * norm_sq
    # swapaxes(-1, -2) transposes each layer of the stack.
    weights_gram = weights @ weights.swapaxes(-1, -2)
    # Products of P with W^T take this copy: OpenBLAS ran them up to twice as
    # slow on the view weights.T (module docstring).
    weights_t = np.empty(weights.swapaxes(-1, -2).shape)

    for sweep in range(1, opts.max_iters + 1):
        if group is None:
            np.copyto(weights_t, weights.swapaxes(-1, -2))
            data_weights = rows @ weights_t
        else:
            # The 17 distinct rows of the clean Swimmer gain nothing from the copy.
            data_weights = (rows @ weights.swapaxes(-1, -2)).take(group, axis=-2)
        denom = basis @ weights_gram
        data_weights *= basis
        data_weights /= denom
        basis = np.maximum(data_weights, _FLOOR, out=data_weights)
        basis_t = basis.swapaxes(-1, -2)
        numer = (basis_t if group is None else basis_t @ members) @ rows
        basis_gram = basis_t @ basis
        if n_dark:
            basis_gram += n_dark * _FLOOR ** 2
        denom = basis_gram @ weights
        weights *= numer
        weights /= denom
        np.maximum(weights, _FLOOR, out=weights)
        # W W^T serves this loss and the next sweep's basis update:
        # ||P - BW||^2 = ||P||^2 - 2 <W, B^T P> + <B^T B, W W^T>, summed by
        # numpy, not by a BLAS dot, whose bits vary with the BLAS thread count.
        weights_gram = weights @ weights.swapaxes(-1, -2)
        numer *= weights
        basis_gram *= weights_gram
        finished = []
        # Per-layer sums; np.add.reduce is what .sum() calls, without its Python wrapper.
        crosses = np.add.reduce(numer, (1, 2)).tolist()
        grams = np.add.reduce(basis_gram, (1, 2)).tolist()
        for layer, start in enumerate(layers):
            current = norm_sq - 2.0 * crosses[layer] + grams[layer]
            if current * rel_tol <= gram_guard:
                full = _with_dark_rows(basis[layer], lit, n_pixels)
                current = _squared_error(data, full @ weights[layer])
            trace = traces[start]
            previous = trace[-1]
            trace.append(current)
            converged = current <= fit_floor or abs(current - previous) <= rel_tol * previous
            if converged or sweep == opts.max_iters:
                # The last trace entry is the direct squared error of the full basis.
                full = _with_dark_rows(basis[layer], lit, n_pixels)
                trace[-1] = _squared_error(data, full @ weights[layer])
                fits[start] = full, weights[layer], trace, converged
                finished.append(layer)
        if finished:
            keep = [layer for layer in range(len(layers)) if layer not in finished]
            if not keep:
                break
            # A finished start leaves the stack; the others go on as they were. The
            # copies that take() makes keep the next sweep's in-place updates off the
            # finished factors, which are views of this stack.
            layers = [layers[layer] for layer in keep]
            basis, weights, weights_gram = (array.take(keep, axis=0)
                                            for array in (basis, weights, weights_gram))
            weights_t = weights_t[:len(keep)]
    return fits


def _kl_fit(data: np.ndarray, basis: np.ndarray, weights: np.ndarray,
            opts: SolverOptions) -> tuple:
    """KL multiplicative updates from (basis, weights); returns (basis, weights,
    trace, converged)."""
    data_terms = _kl_data_terms(data)
    support, data_pos, _ = data_terms
    # P / BW is 0 off the support, so only the support is ever written.
    # zeros(shape) is C-ordered whatever the order of P, so ravel() is a
    # view and take() indexes it in the same order.
    ratio = np.zeros(data.shape)
    flat_ratio = ratio.ravel()
    product = basis @ weights
    quotient = data_pos / product.take(support)
    trace = [_generalized_kl(data_terms, product, quotient)]
    # Products of the KL ratio with W^T take this copy (module docstring).
    weights_t = np.empty(weights.shape[::-1])
    for _ in range(opts.max_iters):
        # The last loss's quotient P / BW serves this basis update.
        flat_ratio[support] = quotient
        np.copyto(weights_t, weights.T)
        numer = ratio @ weights_t
        numer *= basis
        numer /= weights.sum(axis=1)
        basis = np.maximum(numer, _FLOOR, out=numer)
        # BW goes into one N x M buffer: a fresh array twice per sweep made the
        # sweep's time depend on where the allocator put it (up to 1.3x).
        np.matmul(basis, weights, out=product)
        flat_ratio[support] = data_pos / product.take(support)
        numer = basis.T @ ratio
        numer *= weights
        numer /= basis.sum(axis=0)[:, None]
        weights = np.maximum(numer, _FLOOR, out=numer)
        np.matmul(basis, weights, out=product)
        quotient = data_pos / product.take(support)
        current = _generalized_kl(data_terms, product, quotient)
        previous = trace[-1]
        trace.append(current)
        if abs(current - previous) <= opts.rel_tol * previous:
            return basis, weights, trace, True
    return basis, weights, trace, False


def _reconstruction(m: DataMatrix, f: Factorization) -> np.ndarray:
    """``f.reconstruct()``, checked against the shape of ``m``."""
    recon = f.reconstruct()
    if recon.shape != m.values.shape:
        raise ParameterError(f"shape mismatch: data {m.values.shape}, reconstruction {recon.shape}")
    return recon


def frobenius_error(m: DataMatrix, f: Factorization) -> float:
    """Squared Frobenius distance sum((P - reconstruction)^2)."""
    return _squared_error(m.values, _reconstruction(m, f))


def kl_divergence(m: DataMatrix, f: Factorization) -> float:
    """Generalized KL divergence sum(P ln(P/R) - P + R), with 0 ln 0 = 0.

    Returns +inf when some positive entry of P meets an exactly-zero
    reconstruction entry.
    """
    recon = _reconstruction(m, f)
    data_terms = _kl_data_terms(m.values)
    recon_pos = recon.take(data_terms[0])
    if np.any(recon_pos == 0):
        return float("inf")
    return _generalized_kl(data_terms, recon, data_terms[1] / recon_pos)


def truncated_svd(m: DataMatrix, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation in Frobenius norm (entries may be negative)."""
    data = m.values
    if not 1 <= rank <= min(data.shape):
        raise ParameterError(f"rank must lie in [1, {min(data.shape)}], got {rank}")
    return _truncate(np.linalg.svd(data, full_matrices=False), rank)


def _truncate(svd, rank: int) -> np.ndarray:
    """Rank-``rank`` product of a thin SVD ``(u, s, vt)``."""
    u, s, vt = svd
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


# The files of a saved factorization: the basis, the weights and the metadata.
FACTORIZATION_FILES = ("B.csv", "W.csv", "meta.json")

# Keys of meta.json that load_factorization reads, with the JSON types they may have.
_META_TYPES = {"rank": (int,), "loss": (str,), "seed": (int,), "final_loss": (float, int),
               "converged": (bool,)}


def save_factorization(f: Factorization, dirpath) -> None:
    """Write B.csv, W.csv and meta.json into ``dirpath``."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    basis_path, weights_path, meta_path = (dirpath / name for name in FACTORIZATION_FILES)
    write_rows(basis_path, f.basis)
    write_rows(weights_path, f.weights)
    meta = {
        "rank": f.rank,
        "loss": f.loss,
        "seed": f.seed,
        "iters": f.iters,
        "final_loss": float(f.trace[-1]),
        "converged": f.converged,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")


def load_factorization(dirpath) -> Factorization:
    """Load a factorization saved by :func:`save_factorization`.

    The loaded trace holds only the recorded final loss. A ``loss`` other than
    ``frobenius`` or ``kl``, or a ``final_loss`` that is negative or not finite,
    is a FormatError.
    """
    dirpath = Path(dirpath)
    basis_path, weights_path, meta_path = (dirpath / name for name in FACTORIZATION_FILES)
    try:
        meta = json.loads(meta_path.read_text())
        basis = read_rows(basis_path)
        weights = read_rows(weights_path)
    except (OSError, ValueError) as exc:
        raise FormatError(f"{dirpath}: not a factorization directory: {exc}") from None
    for key, kind in _META_TYPES.items():
        if not isinstance(meta, dict) or type(meta.get(key)) not in kind:
            raise FormatError(f"{meta_path}: {key!r} is missing or not "
                              f"of type {kind[0].__name__}")
    if meta["loss"] not in (LOSS_FROBENIUS, LOSS_KL):
        raise FormatError(f"{meta_path}: 'loss' is {meta['loss']!r}, "
                          f"not {LOSS_FROBENIUS!r} or {LOSS_KL!r}")
    if not 0 <= meta["final_loss"] <= sys.float_info.max:
        raise FormatError(f"{meta_path}: 'final_loss' is {meta['final_loss']}, "
                          "not a finite number >= 0")
    return Factorization(basis=basis, weights=weights, rank=meta["rank"],
                         loss=meta["loss"], seed=meta["seed"],
                         trace=np.array([float(meta["final_loss"])]),
                         converged=meta["converged"])
