import math

import numpy as np
import pytest

from pccnmf import (DataMatrix, Factorization, ParameterError, SolverOptions, accuracy,
                    apply_flip_noise, cosine_distance_matrix, denoising, denoise_margins,
                    find_r_range, truncated_svd)
from conftest import make_factorization


def cosine_oracle(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 or nb == 0:
        return 1.0
    return 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)


class TestDenoiseMargins:
    def test_noisy_equals_clean_perfect_reconstruction(self, rng):
        basis = rng.random((4, 2)) * 0.5
        weights = rng.random((2, 5))
        m = DataMatrix(basis @ weights)
        margins = denoise_margins(m, m, make_factorization(basis, weights))
        np.testing.assert_allclose(margins, 0.0, atol=1e-12)

    def test_reconstruction_equal_to_clean(self, rng):
        basis = rng.random((4, 2)) * 0.5
        weights = rng.random((2, 5))
        clean = DataMatrix(basis @ weights)
        noisy = DataMatrix(np.clip(clean.values + 0.2 * rng.random((4, 5)), 0, 1))
        margins = denoise_margins(clean, noisy, make_factorization(basis, weights))
        # second distance vanishes, so the margin is the clean-to-noisy distance
        assert np.all(margins >= -1e-15)

    def test_matches_two_distance_oracle(self, rng):
        clean = DataMatrix(rng.random((6, 5)))
        noisy = DataMatrix(rng.random((6, 5)))
        f = make_factorization(rng.random((6, 2)), rng.random((2, 5)))
        recon = f.reconstruct()
        margins = denoise_margins(clean, noisy, f)
        for i in range(5):
            expected = (cosine_oracle(clean.values[:, i], noisy.values[:, i])
                        - cosine_oracle(clean.values[:, i], recon[:, i]))
            assert margins[i] == pytest.approx(expected, abs=1e-12)

    def test_noisy_equals_clean_imperfect_reconstruction_nonpositive(self, rng):
        m = DataMatrix(rng.random((5, 4)))
        f = make_factorization(rng.random((5, 2)), rng.random((2, 4)))
        margins = denoise_margins(m, m, f)
        assert np.all(margins <= 1e-15)

    def test_shape_mismatch(self, rng):
        clean = DataMatrix(rng.random((4, 4)))
        noisy = DataMatrix(rng.random((4, 5)))
        f = make_factorization(rng.random((4, 2)), rng.random((2, 5)))
        with pytest.raises(ParameterError):
            denoise_margins(clean, noisy, f)


class TestAccuracy:
    def test_perfect_reconstruction_of_distinct_images(self, swimmer):
        assert accuracy(swimmer, swimmer.values.copy()) == 1.0

    def test_matches_hand_computed_nearest_neighbors(self):
        clean = DataMatrix(np.array([
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 1.0, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.0],
        ]))
        recon = np.array([
            [0.9, 0.1, 0.0, 0.4],
            [0.1, 0.2, 0.0, 0.6],
            [0.0, 0.0, 1.0, 0.1],
        ])
        # brute-force nearest-clean-image table
        expected = 0.0
        for i in range(4):
            dists = [cosine_oracle(clean.values[:, j], recon[:, i]) for j in range(4)]
            best = min(dists)
            if dists[i] == best and dists.count(best) == 1:
                expected += 1
        expected /= 4
        assert accuracy(clean, recon) == pytest.approx(expected)

    def test_duplicate_clean_images_tie_counts_as_miss(self):
        clean = DataMatrix(np.array([[1.0, 1.0], [0.5, 0.5]]))
        assert accuracy(clean, clean.values.copy()) == 0.0

    def test_equals_per_image_loop(self):
        # Duplicated clean images, a zero image and copied reconstructions make
        # ties in many columns; each must count as a miss, as in the loop.
        rng = np.random.default_rng(12)
        for trial in range(20):
            values = rng.random((6, 10)) * (rng.random((6, 10)) < 0.7)
            values[:, rng.integers(10, size=3)] = values[:, rng.integers(10, size=3)]
            values[:, trial % 10] = 0.0
            clean = DataMatrix(values)
            recon = rng.random((6, 10))
            recon[:, :4] = values[:, rng.integers(10, size=4)]
            dist = cosine_distance_matrix(clean.values, recon)
            hits = 0
            for i in range(10):
                column = dist[:, i]
                if column[i] == column.min() and int((column == column.min()).sum()) == 1:
                    hits += 1
            assert accuracy(clean, recon) == hits / 10

    def test_random_permutation_baseline_one_over_m(self, rng, swimmer):
        # Fixed-point fraction of a random permutation averages to 1/M.
        trials = 200
        total = 0.0
        for _ in range(trials):
            perm = rng.permutation(swimmer.n_images)
            total += accuracy(swimmer, swimmer.values[:, perm])
        mean_ac = total / trials
        m = swimmer.n_images
        # mean of AC is 1/M with std 1/(M*sqrt(trials)); allow 4 sigma
        assert abs(mean_ac - 1.0 / m) <= 4.0 / (m * math.sqrt(trials))

    def test_relabeling_invariance(self, rng):
        clean = DataMatrix(rng.random((5, 6)))
        recon = rng.random((5, 6))
        base = accuracy(clean, recon)
        perm = rng.permutation(6)
        relabeled = accuracy(DataMatrix(clean.values[:, perm]), recon[:, perm])
        assert relabeled == pytest.approx(base)


class TestFindRRange:
    def test_exact_mixture_toy_with_one_flipped_pixel(self, rng):
        # Hand-enumerated margins: the qualification mask must match.
        cond = np.array([[0.6, 0.05], [0.3, 0.15], [0.1, 0.8]])
        mix = np.array([[0.3, 0.05, 0.2], [0.1, 0.25, 0.1]])
        clean = DataMatrix(cond @ mix)
        noisy_values = clean.values.copy()
        noisy_values[0, 1] = 1.0 - noisy_values[0, 1]
        noisy = DataMatrix(noisy_values)
        report = find_r_range(clean, noisy, range(1, 4), exclusions=0, seeds=(0, 1, 2),
                              opts=SolverOptions(max_iters=4000, rel_tol=1e-13))
        assert report.ranks == (1, 2, 3)
        for entry in report.entries:
            assert entry.violations >= 0
        if report.r1 is not None:
            assert report.r1 <= report.r2

    def test_zero_noise_degenerate_regime(self, rng):
        m, = (DataMatrix(rng.random((6, 8)) * 0.9),)
        report = find_r_range(m, m, (1, 2), exclusions=0, seeds=(0,),
                              opts=SolverOptions(max_iters=300, rel_tol=1e-10))
        # noisy == clean: margins are -D(P, recon) <= 0, so nothing qualifies
        assert report.r1 is None and report.r2 is None
        assert all(e.violations >= 1 for e in report.entries)

    def test_parameter_validation(self, rng):
        m = DataMatrix(rng.random((4, 4)))
        with pytest.raises(ParameterError):
            find_r_range(m, m, range(0, 3))
        with pytest.raises(ParameterError):
            find_r_range(m, m, range(3, 3))
        with pytest.raises(ParameterError):
            find_r_range(m, m, (1, 2), exclusions=-1)
        with pytest.raises(ParameterError):
            find_r_range(m, m, (1, 2), exclusions=-1, svd_baseline=True)

    def test_rank_above_min_dimension_rejected_before_any_work(self, monkeypatch):
        # Own data: drawing from the session rng would shift every later test's inputs.
        m = DataMatrix(np.random.default_rng(3).random((4, 5)))
        calls = []
        monkeypatch.setattr(denoising, "factorize_seeds", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        with pytest.raises(ParameterError, match=r"\[1, 4\]"):
            find_r_range(m, m, range(1, 7), seeds=(0, 1))
        with pytest.raises(ParameterError, match=r"\[1, 4\]"):
            find_r_range(m, m, (1, 2, 3, 9), svd_baseline=True)
        assert calls == []

    def test_shape_mismatch_rejected_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(4)
        clean = DataMatrix(rng.random((4, 5)))
        noisy = DataMatrix(rng.random((4, 6)))
        calls = []
        monkeypatch.setattr(denoising, "factorize_seeds", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        with pytest.raises(ParameterError, match=r"clean \(4, 5\), noisy \(4, 6\)"):
            find_r_range(clean, noisy, range(1, 4), seeds=(0, 1))
        with pytest.raises(ParameterError, match="shape mismatch"):
            find_r_range(clean, noisy, (1, 2), svd_baseline=True)
        assert calls == []

    @pytest.mark.parametrize("svd_baseline, per_rank", [(False, 3), (True, 4)])
    def test_reconstructs_each_fit_once(self, monkeypatch, svd_baseline, per_rank):
        # Each fit is reconstructed for its margins; the baseline adds the best-loss seed's.
        rng = np.random.default_rng(5)
        clean = DataMatrix(rng.random((7, 9)))
        noisy = apply_flip_noise(clean, 0.3, seed=1)
        calls = []
        reconstruct = Factorization.reconstruct

        def counting(self):
            calls.append(self.rank)
            return reconstruct(self)

        monkeypatch.setattr(Factorization, "reconstruct", counting)
        find_r_range(clean, noisy, (1, 2, 3), seeds=(0, 1, 2),
                     opts=SolverOptions(max_iters=50, rel_tol=1e-10), svd_baseline=svd_baseline)
        assert sorted(calls) == [1] * per_rank + [2] * per_rank + [3] * per_rank


class TestCompareWithSvd:
    def test_clean_input_reaches_full_accuracy(self, rng):
        u = rng.random((8, 3)) + 0.1
        v = rng.random((3, 10)) + 0.1
        values = u @ v
        clean = DataMatrix(values / values.max())
        report = find_r_range(clean, clean, (3, 4), seeds=(0, 1),
                              opts=SolverOptions(max_iters=8000, rel_tol=1e-14),
                              svd_baseline=True)
        curves = report.ac_curves()
        assert curves["ac_svd"][0] == 1.0
        assert curves["ac_nmf"][-1] == 1.0

    def test_svd_full_rank_accuracy_one(self, rng):
        m = DataMatrix(rng.random((6, 6)))
        assert accuracy(m, truncated_svd(m, 6)) == 1.0

    def test_toy_curves_match_direct_accuracy(self, rng):
        clean = DataMatrix(rng.random((6, 7)))
        noisy = apply_flip_noise(clean, 0.3, seed=5)
        report = find_r_range(clean, noisy, (2, 3), seeds=(0,),
                              opts=SolverOptions(max_iters=500, rel_tol=1e-10),
                              svd_baseline=True)
        for entry in report.entries:
            assert entry.ac_svd == pytest.approx(
                accuracy(clean, truncated_svd(noisy, entry.rank)))
        assert len(report.ac_curves()["ac_nmf_smoothed"]) == 2

    @pytest.mark.parametrize("n_seeds", [1, 2])
    def test_one_svd_per_sweep(self, monkeypatch, n_seeds):
        rng = np.random.default_rng(41)
        clean = DataMatrix(rng.random((9, 8)))
        noisy = apply_flip_noise(clean, 0.3, seed=2)
        expected = [accuracy(clean, truncated_svd(noisy, r)) for r in (2, 3, 4)]
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = find_r_range(clean, noisy, (2, 3, 4), seeds=tuple(range(n_seeds)),
                              opts=SolverOptions(max_iters=50, rel_tol=1e-10),
                              svd_baseline=True)
        assert len(calls) == 1
        assert [e.ac_svd for e in report.entries] == expected

    def test_smoothing_window(self):
        from pccnmf import DenoiseRankEntry, DenoiseReport
        entries = tuple(DenoiseRankEntry(rank=r, violations=0, min_margin=0.0,
                                         ac_nmf=float(r), ac_svd=1.0)
                        for r in range(1, 8))
        report = DenoiseReport(ranks=tuple(range(1, 8)), entries=entries, exclusions=2,
                               r1=1, r2=7, seeds=(0,))
        smoothed = report.ac_curves()["ac_nmf_smoothed"]
        assert smoothed[3] == pytest.approx(np.mean([2, 3, 4, 5, 6]))  # centered window of 5
        assert smoothed[0] == pytest.approx(np.mean([1, 2, 3]))        # shrunk at the edge
