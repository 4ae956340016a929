"""Correctness checks for the benchmark's outputs.

Each check compares an output of pccnmf with a value computed here, apart
from the program (own normalizations, own SVD, own cosine distances, an
independent assignment solver), or with a property the method must have.
None compares against stored output. Every function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Guards of the bracketing test, as documented for the method: factors are
# floored at 1e-12, so comparisons carry a 1e-9 relative and absolute slack.
GUARD = 1e-9


def _close(a, b, rel=1e-12, abs_=0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def cosine_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - cos between columns of a and columns of b; zero columns sit at distance 1."""
    na = np.sqrt((a * a).sum(axis=0))
    nb = np.sqrt((b * b).sum(axis=0))
    cos = (a.T @ b) / np.outer(np.where(na == 0, 1.0, na), np.where(nb == 0, 1.0, nb))
    cos[na == 0, :] = 0.0
    cos[:, nb == 0] = 0.0
    return 1.0 - cos


def flip(clean: np.ndarray, xi: float, seed: int) -> np.ndarray:
    """The flip-noise draw: one uniform per entry from default_rng(seed), row-major."""
    mask = np.random.default_rng(seed).random(clean.shape) < xi
    return np.where(mask, 1.0 - clean, clean)


def bic(residual_ss: float, n: int, m: int, rank: int, variant: str) -> float:
    nm = n * m
    fit = nm * math.log(max(residual_ss, 1e-300) / nm)
    params = rank * (n + m)
    penalty = {"bic1": math.log(nm), "bic2": math.log(nm) / 2.0,
               "bic3": math.log(min(n, m))}[variant]
    return fit + params * penalty


def bracketing_fraction(data: np.ndarray, basis: np.ndarray, weights: np.ndarray,
                        dual: bool) -> float:
    """Brute-force bracketing fraction from the benchmark's own normalization of B and W."""
    valid = 0
    if not dual:
        cond_basis = basis / basis.sum(axis=0)          # p(pixel | b)
        cond_image = data / data.sum(axis=0)            # p(pixel | image)
        for pixel in range(data.shape[0]):
            lo, hi = min(cond_basis[pixel]), max(cond_basis[pixel])
            row = cond_image[pixel]
            valid += int(np.count_nonzero((row >= lo * (1 - GUARD) - GUARD)
                                          & (row <= hi * (1 + GUARD) + GUARD)))
        return valid / data.size
    joint = weights * basis.sum(axis=0)[:, None]
    joint = joint / joint.sum()                         # p(b, image)
    prior = joint.sum(axis=1)
    components = joint[prior > 0] / prior[prior > 0][:, None]   # p(image | b)
    row_mass = data.sum(axis=1)
    live = np.flatnonzero(row_mass > 0)
    for image in range(data.shape[1]):
        lo, hi = min(components[:, image]), max(components[:, image])
        column = data[live, image] / row_mass[live]     # p(image | pixel)
        valid += int(np.count_nonzero((column >= lo * (1 - GUARD) - GUARD)
                                      & (column <= hi * (1 + GUARD) + GUARD)))
    return valid / (live.size * data.shape[1])


def scan_problems(report, data: np.ndarray, tau: float, band=None) -> list[str]:
    """Recompute the scan's aggregates and per-entry scores from its entries."""
    problems = []
    n, m = data.shape
    norm = math.sqrt(float(np.sum(data ** 2)))
    for e in report.entries:
        if not _close(e.rrssq, math.sqrt(e.frobenius_error) / norm):
            problems.append(f"R={e.rank} seed={e.seed}: rrssq {e.rrssq} disagrees with its error")
        for variant in ("bic1", "bic2", "bic3"):
            want = bic(e.frobenius_error, n, m, e.rank, variant)
            if not _close(getattr(e, variant), want):
                problems.append(f"R={e.rank} seed={e.seed}: {variant} {getattr(e, variant)} "
                                f"!= recomputed {want}")
    medians = [statistics.median(1.0 - e.valid_fraction for e in report.entries
                                 if e.rank == rank) for rank in report.ranks]
    if any(not _close(a, b, abs_=1e-15) for a, b in zip(medians, report.median_invalid)):
        problems.append(f"median_invalid {list(report.median_invalid)} != recomputed {medians}")
    r_c = next((rank for rank, inv in zip(report.ranks, medians) if inv <= tau), None)
    if r_c != report.r_c:
        problems.append(f"r_c {report.r_c} != recomputed {r_c}")
    if band is not None and (report.r_c is None or not band[0] <= report.r_c <= band[1]):
        problems.append(f"r_c {report.r_c} outside the band {list(band)}")
    return problems


def refit_problems(entry, data: np.ndarray, f, dual: bool) -> list[str]:
    """Check a refactorization of one scan point, made outside the timed part."""
    problems = []
    where = f"R={entry.rank} seed={entry.seed}"
    trace = np.asarray(f.trace)
    rises = np.flatnonzero(np.diff(trace) > 1e-12 * np.abs(trace[:-1]))
    if rises.size:
        problems.append(f"{where}: {f.loss} loss rises at sweep {int(rises[0]) + 1}")
    recon = f.basis @ f.weights
    error = float(np.sum((data - recon) ** 2))
    if not _close(error, entry.frobenius_error, rel=1e-9):
        problems.append(f"{where}: refit error {error} != scan error {entry.frobenius_error}")
    fraction = bracketing_fraction(data, f.basis, f.weights, dual)
    if not _close(fraction, entry.valid_fraction, abs_=0.5 / data.size):
        problems.append(f"{where}: brute-force fraction {fraction} != {entry.valid_fraction}")
    if f.loss == "kl":
        sums = data.sum(axis=0)
        worst = float(np.max(np.abs(recon.sum(axis=0) - sums) / sums))
        if worst > 1e-9:
            problems.append(f"{where}: KL column sums off by {worst:.2e} relative")
    return problems


def exact_parts_problems(data: np.ndarray, basis: np.ndarray, weights: np.ndarray,
                         library_fraction: float) -> list[str]:
    problems = []
    if not np.array_equal(basis @ weights, data):
        problems.append("the exact parts do not reproduce the Swimmer matrix")
    own = bracketing_fraction(data, basis, weights, dual=False)
    if library_fraction != 1.0 or own != 1.0:
        problems.append(f"exact parts score {library_fraction} (own {own}), want exactly 1.0")
    return problems


def noise_problems(clean: np.ndarray, noisy: np.ndarray, xi: float, seed: int) -> list[str]:
    if np.array_equal(noisy, flip(clean, xi, seed)):
        return []
    return [f"noisy matrix differs from the own flip draw (xi={xi}, seed={seed})"]


def swimmer_problems(data: np.ndarray) -> list[str]:
    problems = []
    if data.shape != (169, 256) or not np.isin(data, (0.0, 1.0)).all():
        problems.append(f"Swimmer is not a binary 169x256 matrix: {data.shape}")
    elif int((data.sum(axis=1) == 256).sum()) != 16 or not np.all(data.sum(axis=0) == 28):
        problems.append("Swimmer images are not a 16-pixel backbone plus four 3-pixel limbs")
    return problems


def denoise_problems(out: dict, clean: np.ndarray, noisy: np.ndarray,
                     min_ac: float) -> list[str]:
    """Check the denoise report: qualification, r1/r2, AC against an own SVD, smoothing."""
    problems = []
    qualified = [v <= out["exclusions"] for v in out["violations"]]
    if qualified != out["qualified"]:
        problems.append(f"qualified {out['qualified']} does not follow from violations")
    ranks = [r for r, q in zip(out["ranks"], qualified) if q]
    r1, r2 = (ranks[0], ranks[-1]) if ranks else (None, None)
    if (out["r1"], out["r2"]) != (r1, r2):
        problems.append(f"r1/r2 {out['r1']}/{out['r2']} != recomputed {r1}/{r2}")
    u, s, vt = np.linalg.svd(noisy, full_matrices=False)
    for i, rank in enumerate(out["ranks"]):
        dist = cosine_distances(clean, (u[:, :rank] * s[:rank]) @ vt[:rank])
        best = dist.min(axis=0)
        unique = (dist == best).sum(axis=0) == 1
        hits = int(np.sum(unique & (np.diag(dist) == best)))
        if out["ac_svd"][i] != hits / clean.shape[1]:
            problems.append(f"R={rank}: ac_svd {out['ac_svd'][i]} != own {hits}/{clean.shape[1]}")
    for name in ("ac_nmf", "ac_svd"):
        values = out[name]
        smoothed = [statistics.fmean(values[max(0, i - 2):i + 3]) for i in range(len(values))]
        if any(not _close(a, b) for a, b in zip(smoothed, out[name + "_smoothed"])):
            problems.append(f"{name}_smoothed is not the centred moving average of {name}")
        if min(values) <= min_ac:
            problems.append(f"{name} {values} not above {min_ac:.4f}")
    return problems


def residual(data: np.ndarray, basis: np.ndarray, weights: np.ndarray) -> float:
    return float(np.linalg.norm(data - basis @ weights) / np.linalg.norm(data))


def pcc_problems(family: dict) -> list[str]:
    """Sum rules of an exported probability family (name -> matrix)."""
    problems = []
    cpb, jbi = family["cond_pixel_given_basis"], family["joint_basis_image"]
    sums = {
        "cond_pixel_given_basis columns": cpb.sum(axis=0),
        "cond_pixel_given_image columns": family["cond_pixel_given_image"].sum(axis=0),
        "joint_basis_image": np.array([jbi.sum()]),
        "approx_joint": np.array([family["approx_joint"].sum()]),
    }
    for name, values in sums.items():
        if np.max(np.abs(values - 1.0)) > 1e-12:
            problems.append(f"{name} do not sum to 1")
    if not np.allclose(family["approx_joint"], cpb @ jbi, rtol=1e-12, atol=1e-15):
        problems.append("approx_joint != cond_pixel_given_basis @ joint_basis_image")
    return problems


def cluster_problems(clusters: dict, cond_image_given_basis: np.ndarray,
                     data: np.ndarray) -> list[str]:
    problems = []
    p_image = data.sum(axis=0) / data.sum()
    for c in clusters["clusters"]:
        for mem in c["members"]:
            b, i = c["basis"], mem["image"]
            if not mem["p_image_given_basis"] > mem["p_image"]:
                problems.append(f"basis {b}, image {i}: p(i|b) <= p(i)")
            if not (_close(mem["p_image_given_basis"], cond_image_given_basis[b, i], 1e-9)
                    and _close(mem["p_image"], p_image[i], 1e-9)):
                problems.append(f"basis {b}, image {i}: probabilities disagree with the family")
    return problems


def matching_problems(matching: dict, cost: np.ndarray) -> list[str]:
    """The assignment is a permutation at the own cost matrix, with an optimal total."""
    from scipy.optimize import linear_sum_assignment

    problems = []
    assignment = np.asarray(matching["assignment"])
    n = cost.shape[0]
    if sorted(assignment.tolist()) != list(range(n)):
        return [f"assignment is not a permutation of 0..{n - 1}"]
    want = cost[np.arange(n), assignment]
    if not np.allclose(matching["distances"], want, rtol=1e-9, atol=1e-12):
        problems.append("matched distances differ from own cosine distances")
    rows, cols = linear_sum_assignment(cost)
    optimum = float(cost[rows, cols].sum())
    if abs(matching["total"] - optimum) > 1e-10 * (1.0 + abs(optimum)):
        problems.append(f"total {matching['total']} != optimum {optimum}")
    return problems
