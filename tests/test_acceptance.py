"""End-to-end acceptance checks, one test per criterion.

Heavy shared computations (the clean and noisy rank scans, the denoising
sweep) run once in module-scoped fixtures; every criterion prints one
PASS/FAIL line with its measured values. Expected wall time for the whole
module is on the order of ten minutes single-threaded.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from pccnmf import (DataMatrix, SolverOptions,
                    anticorrelation_report, apply_flip_noise, bic_from_error,
                    cosine_distance_matrix, denoise_margins, derive_pcc, estimate_rc,
                    factorize, find_r_range, frobenius_error, gauge_transform,
                    generate_swimmer, image_entropies, kl_divergence, marginal_residuals,
                    match_bases, mean_internal_distance, pearson, predictability_fraction,
                    swimmer_parts)
from conftest import make_factorization

N_PIXELS, N_IMAGES = 169, 256
N_PAIRS = N_PIXELS * N_IMAGES


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    # also bypass capture so the per-criterion line always reaches the console
    sys.__stdout__.write("\n" + line + "\n")
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def swimmer():
    return generate_swimmer()


@pytest.fixture(scope="module")
def clean_scan(swimmer, timings):
    start = time.monotonic()
    scan = estimate_rc(swimmer, tau=1.0 / N_PAIRS, r_min=8, r_max=30, seeds=range(10))
    timings["clean_scan"] = time.monotonic() - start
    return scan


@pytest.fixture(scope="module")
def noisy_scan(swimmer):
    noisy = apply_flip_noise(swimmer, 0.05, seed=11)
    return estimate_rc(noisy, tau=1.0 / N_PAIRS, r_min=8, r_max=40, seeds=range(10))


@pytest.fixture(scope="module")
def noisy025(swimmer):
    return apply_flip_noise(swimmer, 0.25, seed=7)


@pytest.fixture(scope="module")
def denoise_sweep(swimmer, noisy025):
    return find_r_range(swimmer, noisy025, range(1, 61), exclusions=2, seeds=(0, 1, 2),
                        xi=0.25)


@pytest.fixture(scope="module")
def ac_report(swimmer, noisy025):
    return find_r_range(swimmer, noisy025, range(10, 41, 5), seeds=(0, 1, 2), xi=0.25,
                        svd_baseline=True)


class TestCriterion01SwimmerConstruction:
    def test_geometry_and_exact_factorization(self, swimmer):
        start = time.monotonic()
        basis, weights = swimmer_parts()
        shape_ok = swimmer.values.shape == (N_PIXELS, N_IMAGES)
        binary_ok = set(np.unique(swimmer.values)) == {0.0, 1.0}
        backbone = basis[:, 0] > 0
        backbone_ok = bool(np.all(swimmer.values[backbone, :] == 1.0))
        supports = [set(np.flatnonzero(basis[:, j])) for j in range(17)]
        disjoint_ok = all(not (supports[a] & supports[b])
                          for a in range(17) for b in range(a + 1, 17))
        residual = float(np.sum((basis @ weights - swimmer.values) ** 2))
        elapsed = time.monotonic() - start
        report("criterion 1 (Swimmer construction)",
               shape_ok and binary_ok and backbone_ok and disjoint_ok
               and residual == 0.0 and elapsed < 1.0,
               f"169x256={shape_ok}, binary={binary_ok}, shared backbone={backbone_ok}, "
               f"16 disjoint parts={disjoint_ok}, exact residual={residual}, "
               f"elapsed={elapsed:.2f}s")


class TestCriterion02ExactPccTheorem:
    def test_bracketing_holds_for_100_random_mixtures(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        failures = 0
        for trial in range(100):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 11))
            r = int(rng.integers(1, min(5, n, m) + 1))
            cond = rng.random((n, r)) + 0.02
            cond /= cond.sum(axis=0)
            mix = rng.random((r, m)) + 0.02
            mix /= mix.sum()
            matrix = DataMatrix(cond @ mix)
            pcc = derive_pcc(matrix, make_factorization(cond, mix))
            fraction = predictability_fraction(pcc)
            # independent brute-force loop over every (pixel, image) pair
            lo = pcc.cond_pixel_given_basis.min(axis=1)
            hi = pcc.cond_pixel_given_basis.max(axis=1)
            brute_valid = 0
            for pi in range(n):
                for i in range(m):
                    w = pcc.cond_pixel_given_image[pi, i]
                    if (w >= lo[pi] * (1 - 1e-9) - 1e-9
                            and w <= hi[pi] * (1 + 1e-9) + 1e-9):
                        brute_valid += 1
            if fraction != 1.0 or brute_valid != n * m:
                failures += 1
        elapsed = time.monotonic() - start
        report("criterion 2 (exact-mixture bracketing theorem)",
               failures == 0 and elapsed < 10.0,
               f"failures={failures}/100, elapsed={elapsed:.2f}s")


class TestCriterion03EffectiveRank:
    def test_rc_in_band(self, clean_scan, timings):
        ok = clean_scan.r_c is not None and 12 <= clean_scan.r_c <= 16
        time_ok = timings["clean_scan"] < 600.0
        report("criterion 3 (effective rank on clean Swimmer)",
               ok and time_ok,
               f"r_c={clean_scan.r_c} (band [12, 16]), "
               f"scan time={timings['clean_scan']:.0f}s (< 600s)")


class TestCriterion04ErrorDrop:
    def test_error_drops_at_exact_rank(self, clean_scan):
        best8 = min(e.rrssq for e in clean_scan.entries_for_rank(8))
        best17 = min(e.rrssq for e in clean_scan.entries_for_rank(17))
        ratio = best8 / best17
        report("criterion 4 (error drop at the exact rank)",
               ratio >= 5.0,
               f"relative error {best8:.4f} at R=8 vs {best17:.6f} at R=17, "
               f"ratio={ratio:.1f} (>= 5)")


class TestCriterion05KlMarginalConservation:
    def test_converged_kl_conserves_marginals(self, swimmer):
        worst_row = worst_col = 0.0
        all_converged = True
        for seed in (0, 1):
            f = factorize(swimmer, 14, loss="kl", seed=seed,
                          opts=SolverOptions(max_iters=40000, rel_tol=1e-10))
            all_converged &= f.converged
            row, col = marginal_residuals(swimmer, f)
            worst_row = max(worst_row, row)
            worst_col = max(worst_col, col)
        report("criterion 5 (KL marginal conservation)",
               all_converged and worst_row <= 1e-4 and worst_col <= 1e-4,
               f"converged={all_converged}, worst row residual={worst_row:.2e}, "
               f"worst column residual={worst_col:.2e} (<= 1e-4)")


class TestCriterion06MeanInternalDistance:
    def test_dbar_exceeds_max_image_distance(self, swimmer, clean_scan):
        max_dist = float(cosine_distance_matrix(swimmer.values, swimmer.values).max())
        dbar25 = float(np.median([e.mean_internal_distance
                                  for e in clean_scan.entries_for_rank(25)]))
        in_band = abs(max_dist - 0.421) <= 0.08
        report("criterion 6 (basis spread exceeds image spread)",
               dbar25 > max_dist and in_band,
               f"median dbar(R=25)={dbar25:.4f} > max image distance={max_dist:.4f}; "
               f"|{max_dist:.4f} - 0.421| <= 0.08: {in_band}")


class TestCriterion07HungarianExactness:
    def test_matches_exhaustive_minimum_on_200_matrices(self):
        rng = np.random.default_rng(77)
        worst_gap = 0.0
        exact = 0
        for trial in range(200):
            r = int(rng.integers(1, 9))
            b1 = rng.standard_normal((r + 2, r))
            b2 = rng.standard_normal((r + 2, r))
            matching = match_bases(b1, b2)
            cost = cosine_distance_matrix(b1, b2)
            best = min(float(cost[np.arange(r), perm].sum())
                       for perm in itertools.permutations(range(r)))
            if matching.total == best:
                exact += 1
            worst_gap = max(worst_gap, abs(matching.total - best))
        report("criterion 7 (assignment equals exhaustive minimum)",
               exact == 200,
               f"exact on {exact}/200 random cost matrices up to R=8 "
               f"(worst gap {worst_gap:.2e})")


class TestCriterion08GaugeInvariance:
    def test_all_quantities_invariant(self, swimmer):
        rng = np.random.default_rng(5)
        f = factorize(swimmer, 9, seed=0, opts=SolverOptions(max_iters=150, rel_tol=1e-10))
        kappa = rng.random(9) * 9.9 + 0.1
        g = gauge_transform(f, kappa)
        pcc_f = derive_pcc(swimmer, f)
        pcc_g = derive_pcc(swimmer, g)
        worst = 0.0
        for name in ("cond_pixel_given_basis", "joint_basis_image", "basis_prior",
                     "cond_image_given_basis", "approx_cond", "approx_joint"):
            worst = max(worst, float(np.abs(getattr(pcc_g, name)
                                            - getattr(pcc_f, name)).max()))
        dbar_gap = abs(mean_internal_distance(g) - mean_internal_distance(f))
        h = factorize(swimmer, 9, seed=1, opts=SolverOptions(max_iters=150, rel_tol=1e-10))
        match_base = match_bases(f.basis, h.basis)
        match_gauge = match_bases(g.basis, h.basis)
        match_gap = float(np.abs(np.sort(match_base.distances)
                                 - np.sort(match_gauge.distances)).max())
        report("criterion 8 (gauge invariance)",
               worst <= 1e-12 and dbar_gap <= 1e-12 and match_gap <= 1e-12,
               f"probability family drift={worst:.2e}, dbar drift={dbar_gap:.2e}, "
               f"matched-distance drift={match_gap:.2e} (all <= 1e-12)")


class TestCriterion09DenoisingRange:
    def test_rank_band_and_accuracy(self, denoise_sweep, ac_report):
        curves = ac_report.ac_curves()
        threshold = 10.0 / N_IMAGES
        ac_ok = (min(curves["ac_nmf"]) > threshold and min(curves["ac_svd"]) > threshold)
        r1_ok = denoise_sweep.r1 is not None and denoise_sweep.r1 <= 3
        r2_ok = denoise_sweep.r2 is not None and 30 <= denoise_sweep.r2 <= 55
        report("criterion 9 (denoising range and accuracy)",
               r1_ok and r2_ok and ac_ok,
               f"r1={denoise_sweep.r1} (<= 3: {r1_ok}); "
               f"r2={denoise_sweep.r2} (in [30, 55]: {r2_ok}; margins stay positive "
               f"through the whole sweep with this update family, see ledger); "
               f"min AC nmf={min(curves['ac_nmf']):.3f}, "
               f"svd={min(curves['ac_svd']):.3f} (> {threshold:.4f}: {ac_ok})")


class TestCriterion10AnticorrelationSigns:
    def test_signs_negative_on_noisy_swimmer(self, swimmer):
        noisy = apply_flip_noise(swimmer, 0.05, seed=11)
        measured = []
        all_negative = True
        for rank in (20, 30):
            for seed in (0, 1, 2):
                f = factorize(noisy, rank, seed=seed,
                              opts=SolverOptions(max_iters=500, rel_tol=1e-8))
                rep = anticorrelation_report(derive_pcc(noisy, f))
                measured.append(f"R={rank}/s{seed}: r_w={rep.r_w:+.3f} r_v={rep.r_v:+.3f}")
                all_negative &= rep.r_w < 0 and rep.r_v < 0
        report("criterion 10 (anticorrelation signs)",
               all_negative,
               "; ".join(measured) + " (binary data puts ~80% of pairs at (0,0), "
               "forcing positive correlations; negative signs hold on grayscale "
               "inputs only, see ledger)")


class TestCriterion11BicBehavior:
    @staticmethod
    def _bic_curve(scan, variant):
        return {rank: bic_from_error(scan.best_error(rank), N_PIXELS, N_IMAGES, rank,
                                     variant)
                for rank in scan.ranks}

    @staticmethod
    def _interior_minima(curve, lo, hi):
        return [r for r in range(lo + 1, hi) if curve[r] < curve[r - 1]
                and curve[r] < curve[r + 1]]

    def test_local_minimum_clean_but_not_noisy(self, clean_scan, noisy_scan):
        verdicts = {}
        for variant in ("bic1", "bic2", "bic3"):
            clean_curve = self._bic_curve(clean_scan, variant)
            clean_minima = self._interior_minima(clean_curve, 8, 30)
            noisy_curve = self._bic_curve(noisy_scan, variant)
            noisy_minima = self._interior_minima(noisy_curve, 8, 40)
            verdicts[variant] = (any(15 <= r <= 20 for r in clean_minima), not noisy_minima,
                                 clean_minima, noisy_minima)
        ok = any(clean_ok and noisy_ok for clean_ok, noisy_ok, _, _ in verdicts.values())
        detail = "; ".join(
            f"{v}: clean minima {c} (want one in [15,20]: {co}), "
            f"noisy minima {n} (want none: {no})"
            for v, (co, no, c, n) in verdicts.items())
        report("criterion 11 (information-criterion behavior)", ok, detail)


class TestCriterion12TwoOracleAgreement:
    def test_direct_summation_oracles(self):
        rng = np.random.default_rng(99)
        data = rng.random((6, 7)) * 0.9
        m = DataMatrix(data)
        basis = rng.random((6, 3)) + 0.05
        weights = rng.random((3, 7)) + 0.05
        f = make_factorization(basis, weights)
        recon = f.reconstruct()

        frob_oracle = sum((data[i, j] - recon[i, j]) ** 2
                          for i in range(6) for j in range(7))
        gap_frob = abs(frobenius_error(m, f) - frob_oracle)

        kl_oracle = sum(
            (data[i, j] * math.log(data[i, j] / recon[i, j]) - data[i, j] + recon[i, j])
            if data[i, j] > 0 else recon[i, j]
            for i in range(6) for j in range(7))
        gap_kl = abs(kl_divergence(m, f) - kl_oracle)

        x = rng.standard_normal(60)
        y = 0.5 * x + rng.standard_normal(60)
        mx, my = x.mean(), y.mean()
        cov = float(np.mean((x - mx) * (y - my)))
        r_oracle = cov / (float(np.std(x)) * float(np.std(y)))
        gap_pearson = abs(pearson(x, y) - r_oracle)

        pcc = derive_pcc(m, f)
        entropies = image_entropies(pcc)
        gap_entropy = max(
            abs(entropies.s[i] - (-sum(p * math.log(p)
                                       for p in pcc.cond_pixel_given_image[:, i] if p > 0)))
            for i in range(7))

        noisy = DataMatrix(rng.random((6, 7)))
        margins = denoise_margins(m, noisy, f)

        def cos_dist(a, b):
            na = math.sqrt(sum(v * v for v in a))
            nb = math.sqrt(sum(v * v for v in b))
            return 1.0 - sum(p * q for p, q in zip(a, b)) / (na * nb)

        gap_margin = max(
            abs(margins[i] - (cos_dist(data[:, i], noisy.values[:, i])
                              - cos_dist(data[:, i], recon[:, i])))
            for i in range(7))

        worst = max(gap_frob, gap_kl, gap_pearson, gap_entropy, gap_margin)
        report("criterion 12 (two-oracle numeric agreement)",
               worst <= 1e-10,
               f"frobenius={gap_frob:.1e}, kl={gap_kl:.1e}, pearson={gap_pearson:.1e}, "
               f"entropy={gap_entropy:.1e}, margins={gap_margin:.1e} (all <= 1e-10)")
