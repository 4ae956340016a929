"""Basis stability: optimal matching of two basis sets under cosine distance.

Two factorizations of related data (two noise halves, or two seeds on the
same data) yield two sets of basis columns. They are paired by solving the
linear assignment problem on the pairwise cosine-distance matrix with an
exact Hungarian solver; the matched-distance distribution summarizes how
stable the learned features are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, apply_flip_noise, check_xi
from .errors import ParameterError
from .nmf import Factorization, SolverOptions, factorize, factorize_seeds
from .report import report_fields


def _peak_scaled(a: np.ndarray) -> np.ndarray:
    """Each column of ``a`` (``a`` itself when 1-d) times the power of two that puts its
    peak magnitude in [0.5, 1). Exact, so no cosine changes, but tiny squares and
    products no longer underflow to 0."""
    return np.ldexp(a, -np.frexp(np.abs(a).max(axis=0, initial=0.0))[1])


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of ``a`` (of ``a`` itself when 1-d)."""
    return np.sqrt((a * a).sum(axis=0))


def _cosines(dot: np.ndarray, norm_a: np.ndarray, norm_b: np.ndarray) -> np.ndarray:
    """dot / (norm_a * norm_b), 0 where that product is 0 (an all-zero column).
    The quotient overwrites the product, so no third full-size array is held."""
    denom = np.asarray(norm_a * norm_b)
    return np.divide(dot, denom, out=denom, where=denom > 0)


def _paired_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each column pair (a[:, j], b[:, j]), or of two 1-d vectors; 0 where
    either is all-zero. Numpy sums, never BLAS dots, whose bits vary with the BLAS
    thread count."""
    a, b = _peak_scaled(a), _peak_scaled(b)
    return _cosines((a * b).sum(axis=0), _column_norms(a), _column_norms(b))


def cosine_distance(v1, v2) -> float:
    """1 - cos(v1, v2), with distance 1 when either vector is all-zero."""
    v1 = np.asarray(v1, dtype=np.float64)
    v2 = np.asarray(v2, dtype=np.float64)
    if v1.ndim != 1 or v2.ndim != 1:
        raise ParameterError(f"inputs must be 1-d vectors, got shapes {v1.shape} and {v2.shape}")
    if v1.shape != v2.shape:
        raise ParameterError(f"length mismatch: {v1.shape} vs {v2.shape}")
    return 1.0 - float(_paired_cosines(v1, v2))


def cosine_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances between columns of a and columns of b.

    Entry (i, j) is the distance between a[:, i] and b[:, j]; all-zero
    columns are at distance 1 from everything.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ParameterError(f"column length mismatch: {a.shape[0]} vs {b.shape[0]}")
    # When b is a, one shared copy keeps a.T @ a numpy's symmetric product.
    a, b = (_peak_scaled(a),) * 2 if b is a else (_peak_scaled(a), _peak_scaled(b))
    return 1.0 - _cosines(a.T @ b, _column_norms(a)[:, None], _column_norms(b)[None, :])


def _hungarian(cost) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Shortest-augmenting-path Hungarian method, O(n^3), with its duals.

    Returns (columns, total, u, v): columns[row] is the assigned column, and
    the row and column potentials satisfy u[i] + v[j] <= cost[i, j] up to
    float roundoff, with equality on the assigned edges.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ParameterError("cost matrix must be square")
    if not np.isfinite(cost).all():
        raise ParameterError("cost matrix must be finite")
    n = cost.shape[0]
    # Potentials and matching use 1-based columns; column 0 is the virtual root.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)     # match[col] = row (1-based, 0 = free)
    way = np.zeros(n + 1, dtype=np.int64)
    for row in range(1, n + 1):
        match[0] = row
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            reduced = cost[i0 - 1, :] - u[i0] - v[1:]
            better = (reduced < minv[1:]) & ~used[1:]
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            candidates = np.where(used[1:], np.inf, minv[1:])
            j0 = int(np.argmin(candidates)) + 1
            delta = candidates[j0 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[1:][~used[1:]] -= delta
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    columns = np.zeros(n, dtype=np.int64)
    for col in range(1, n + 1):
        columns[match[col] - 1] = col - 1
    total = float(cost[np.arange(n), columns].sum())
    return columns, total, u[1:], v[1:]


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching on a square, finite cost matrix.

    One Hungarian solve (shortest augmenting paths, O(n^3)). Returns
    (columns, total) where columns[row] is the assigned column. Deterministic;
    among equal-cost optima it returns one fixed solution, not necessarily
    the lexicographically smallest (see :func:`lexicographic_assignment`).
    Raises ParameterError for a non-square cost or a NaN or infinite entry.
    """
    columns, total, _, _ = _hungarian(cost)
    return columns, total


def _can_complete(near_tight: np.ndarray, witness: np.ndarray, row: int, col: int) -> bool:
    """Whether the rows after ``row`` can take the free columns other than
    ``col`` along near-tight edges only.

    The witness matches those rows to the free columns other than
    witness[row]. Giving ``col`` to ``row`` unmatches the row that holds it,
    so a perfect matching exists exactly when an alternating path leads from
    that row to the column witness[row] (Berge's theorem).
    """
    n = witness.size
    owner = np.empty(n, dtype=np.int64)
    owner[witness] = np.arange(n)
    unvisited = np.zeros(n, dtype=bool)
    unvisited[witness[row:]] = True
    unvisited[col] = False
    target = witness[row]
    stack = [owner[col]]
    while stack:
        r = stack.pop()
        if near_tight[r, target]:
            return True
        reached = np.flatnonzero(near_tight[r] & unvisited)
        unvisited[reached] = False
        stack.extend(owner[reached])
    return False


def lexicographic_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Lexicographically-smallest assignment among the minimum-cost optima.

    The rule is greedy: for each row in order, take the smallest free column
    that some completion of the later rows keeps within the optimal total,
    where "within" allows 1e-10 * (1 + |total|), so that numerically tied
    optima count as ties. Raises ParameterError as :func:`solve_assignment`.

    One Hungarian solve gives the total, an optimal assignment (the witness)
    and dual potentials u, v with u[i] + v[j] <= cost[i, j]. An assignment
    costs sum(u) + sum(v) plus the sum of its reduced costs
    cost[i, j] - u[i] - v[j], all of them nonnegative, so one within the
    tolerance uses only near-tight edges: reduced cost at most the tolerance
    plus a slack of 1e-8 relative to the magnitudes of the total and the
    duals, far above their float roundoff. The witness agrees with the
    columns chosen so far, so its column in the current row passes the rule
    and is taken without a solve. A smaller free column is skipped without a
    solve when its edge is not near-tight (the dual bound), or when the later
    rows cannot be re-matched along near-tight edges without it. Only the
    near-ties left are decided as by the plain greedy, by solving the
    leftover sub-problem; an accepted column's sub-solution becomes the new
    witness. A matrix without near-tied optima therefore costs one solve.
    """
    witness, total, u, v = _hungarian(cost)
    cost = np.asarray(cost, dtype=np.float64)
    tol = 1e-10 * (1.0 + abs(total))
    slack = 1e-8 * (1.0 + abs(total) + np.abs(u).sum() + np.abs(v).sum())
    near_tight = cost - u[:, None] - v[None, :] <= tol + slack
    prefix = 0.0
    for row in range(cost.shape[0]):
        free = np.sort(witness[row:])
        for col in free[(free < witness[row]) & near_tight[row, free]]:
            if not _can_complete(near_tight, witness, row, col):
                continue
            rest_cols = free[free != col]
            sub, rest = solve_assignment(cost[row + 1:, rest_cols])
            if prefix + cost[row, col] + rest <= total + tol:
                witness[row] = col
                witness[row + 1:] = rest_cols[sub]
                break
        prefix += cost[row, witness[row]]
    return witness, float(cost[np.arange(cost.shape[0]), witness].sum())


@dataclass(frozen=True)
class Matching:
    """Optimal pairing of two equal-size basis sets."""

    assignment: np.ndarray   # assignment[a] = matched column of the second set
    distances: np.ndarray    # cosine distance of each matched pair
    total: float
    stats: dict              # mean / median / max / min of the distances

    def to_dict(self) -> dict:
        return {**report_fields(self), "assignment": self.assignment.tolist(),
                "distances": self.distances.tolist()}


def _distance_stats(distances: np.ndarray) -> dict:
    return {
        "mean": float(distances.mean()),
        "median": float(np.median(distances)),
        "max": float(distances.max()),
        "min": float(distances.min()),
    }


def match_bases(b1: np.ndarray, b2: np.ndarray) -> Matching:
    """Match columns of b1 to columns of b2 minimizing total cosine distance.

    Exact minimum (Hungarian); among equal-cost optima the lexicographically
    smallest assignment vector is returned.
    """
    b1 = np.asarray(b1, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    if b1.shape != b2.shape:
        raise ParameterError(f"basis shape mismatch: {b1.shape} vs {b2.shape}")
    cost = cosine_distance_matrix(b1, b2)
    assignment, total = lexicographic_assignment(cost)
    distances = cost[np.arange(cost.shape[0]), assignment]
    return Matching(assignment=assignment, distances=distances, total=total,
                    stats=_distance_stats(distances))


def distance_histogram(distances: np.ndarray) -> list[tuple[float, float, int, float]]:
    """Histogram rows (bin_lo, bin_hi, count, pct): 20 uniform bins on [0, 1] plus an overflow bin (1, 2]."""
    distances = np.asarray(distances, dtype=np.float64)
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(np.clip(distances, None, 1.0), bins=edges)
    overflow = int((distances > 1.0).sum())
    # np.histogram put clipped overflow values in the last bin; move them out.
    counts[-1] -= overflow
    n = max(len(distances), 1)
    rows = [(float(edges[i]), float(edges[i + 1]), int(counts[i]), 100.0 * counts[i] / n)
            for i in range(20)]
    rows.append((1.0, 2.0, overflow, 100.0 * overflow / n))
    return rows


def stability_experiment(m: DataMatrix, rank: int, mode: str, xi: float = 0.0,
                         seed_a: int = 0, seed_b: int = 1,
                         opts: SolverOptions | None = None
                         ) -> tuple[Matching, tuple[Factorization, Factorization]]:
    """Factorize two related views of ``m`` (Frobenius loss) and match their bases.

    Returns the matching and the two factorizations, first view first.

    mode="noise_split": split columns in half, flip-noise the second half
    with intensity xi (noise stream seeded by seed_b), factorize both halves
    with the same solver seed seed_a.
    mode="seed_pair": factorize the full matrix twice, with seeds seed_a and
    seed_b. Either mode rejects an ``xi`` outside [0, 1] before any fit.
    """
    check_xi(xi)
    if mode == "noise_split":
        if m.n_images % 2 != 0:
            raise ParameterError(f"noise_split needs an even number of images, got {m.n_images}")
        half = m.n_images // 2
        first = m.replace_values(m.values[:, :half])
        second = apply_flip_noise(m.replace_values(m.values[:, half:]), xi, seed=seed_b)
        f1 = factorize(first, rank, seed=seed_a, opts=opts)
        f2 = factorize(second, rank, seed=seed_a, opts=opts)
    elif mode == "seed_pair":
        f1, f2 = factorize_seeds(m, rank, (seed_a, seed_b), opts=opts)
    else:
        raise ParameterError(f"unknown mode {mode!r} (want 'noise_split' or 'seed_pair')")

    return match_bases(f1.basis, f2.basis), (f1, f2)
