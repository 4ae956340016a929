import math

import numpy as np
import pytest

from pccnmf import (DataMatrix, DegenerateInputError, Factorization, ParameterError,
                    SolverOptions, bic_from_error, derive_pcc, dual_predictability_fraction,
                    estimate_rc, estimate_rc_dual, factorize, gauge_transform,
                    mean_internal_distance, predictability_fraction, rrssq)
from conftest import random_mixture


def make_factorization(basis, weights):
    return Factorization(basis=basis, weights=weights, rank=basis.shape[1], loss="frobenius",
                         seed=0, trace=np.array([0.0]), converged=True)


def bracket_fraction_oracle(cond_pixel_given_image, cond_pixel_given_basis,
                            rtol=1e-9, atol=1e-9):
    """Loop-based re-check of the bracketing fraction (same comparison guard)."""
    n, m = cond_pixel_given_image.shape
    valid = 0
    for pi in range(n):
        comps = [cond_pixel_given_basis[pi, b] for b in range(cond_pixel_given_basis.shape[1])]
        lo, hi = min(comps), max(comps)
        for i in range(m):
            w = cond_pixel_given_image[pi, i]
            if w >= lo * (1 - rtol) - atol and w <= hi * (1 + rtol) + atol:
                valid += 1
    return valid / (n * m)


class TestPredictabilityFraction:
    def test_exact_mixture_is_one(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        assert predictability_fraction(pcc) == 1.0
        assert bracket_fraction_oracle(pcc.cond_pixel_given_image,
                                       pcc.cond_pixel_given_basis) == 1.0

    def test_identity_basis_is_one(self, rng):
        values = (rng.random((4, 5)) + 0.05) / 1.05
        m = DataMatrix(values)
        f = make_factorization(np.eye(4), values.copy())
        pcc = derive_pcc(m, f)
        assert predictability_fraction(pcc) == 1.0

    def test_perturbation_detected(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        bad = basis.copy()
        bad[0, 0] += 0.5
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        fraction = predictability_fraction(pcc)
        assert fraction < 1.0
        oracle = bracket_fraction_oracle(pcc.cond_pixel_given_image,
                                         pcc.cond_pixel_given_basis)
        assert fraction == pytest.approx(oracle, abs=1e-12)

    def test_matches_oracle_on_solver_output(self, swimmer):
        f = factorize(swimmer, 9, seed=0, opts=SolverOptions(max_iters=120, rel_tol=1e-12))
        pcc = derive_pcc(swimmer, f)
        assert predictability_fraction(pcc) == pytest.approx(
            bracket_fraction_oracle(pcc.cond_pixel_given_image, pcc.cond_pixel_given_basis),
            abs=1e-12)


class TestDualPredictability:
    def test_exact_mixture_is_one(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        assert dual_predictability_fraction(m, pcc) == 1.0

    def test_matches_brute_force(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        bad = basis.copy()
        bad[1, 1] += 0.4
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        # Oracle with roles swapped: p(i|pi) vs the span of p(i|b).
        data = m.values
        p_i_given_pi = data / data.sum(axis=1)[:, None]
        oracle = bracket_fraction_oracle(p_i_given_pi.T, pcc.cond_image_given_basis.T)
        assert dual_predictability_fraction(m, pcc) == pytest.approx(oracle, abs=1e-12)

    def test_zero_rows_excluded(self, rng):
        values = (rng.random((4, 5)) + 0.05) / 1.05
        values[2, :] = 0.0
        m = DataMatrix(values)
        basis = rng.random((4, 2)) + 0.05
        basis[2, :] = 0.0
        weights = rng.random((2, 5)) + 0.05
        pcc = derive_pcc(m, make_factorization(basis, weights))
        fraction = dual_predictability_fraction(m, pcc)
        assert 0.0 <= fraction <= 1.0


class TestMeanInternalDistance:
    def test_orthogonal_columns(self):
        f = make_factorization(np.eye(4)[:, :2], np.ones((2, 3)))
        assert mean_internal_distance(f) == pytest.approx(1.0)

    def test_identical_columns(self):
        basis = np.ones((4, 3))
        f = make_factorization(basis, np.ones((3, 2)))
        assert mean_internal_distance(f) == pytest.approx(0.0, abs=1e-12)

    def test_matches_pair_loop(self, rng):
        basis = rng.random((6, 4))
        f = make_factorization(basis, np.ones((4, 2)))
        total = 0.0
        for a in range(4):
            for b in range(a + 1, 4):
                va, vb = basis[:, a], basis[:, b]
                total += 1.0 - va @ vb / np.sqrt((va @ va) * (vb @ vb))
        assert mean_internal_distance(f) == pytest.approx(total / 6.0, abs=1e-12)

    def test_gauge_invariant(self, rng):
        basis = rng.random((6, 4))
        f = make_factorization(basis, np.ones((4, 2)))
        g = gauge_transform(f, rng.random(4) + 0.1)
        assert mean_internal_distance(g) == pytest.approx(mean_internal_distance(f), abs=1e-12)

    def test_rank_one_rejected(self):
        f = make_factorization(np.ones((3, 1)), np.ones((1, 2)))
        with pytest.raises(ParameterError):
            mean_internal_distance(f)


class TestRrssq:
    def test_exact_zero(self, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        assert rrssq(m, make_factorization(basis, weights)) == 0.0

    def test_zero_reconstruction_gives_one(self, rng):
        m = DataMatrix(rng.random((3, 3)))
        f = make_factorization(np.zeros((3, 1)), np.zeros((1, 3)))
        assert rrssq(m, f) == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self, rng):
        m = DataMatrix(rng.random((5, 4)))
        f = make_factorization(rng.random((5, 2)), rng.random((2, 4)))
        recon = f.reconstruct()
        num = np.sqrt(sum((m.values[i, j] - recon[i, j]) ** 2
                          for i in range(5) for j in range(4)))
        den = np.sqrt(sum(m.values[i, j] ** 2 for i in range(5) for j in range(4)))
        assert rrssq(m, f) == pytest.approx(num / den, abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            rrssq(DataMatrix(np.zeros((2, 2)), scale="unit"),
                  make_factorization(np.ones((2, 1)), np.ones((1, 2))))


class TestBic:
    def test_penalty_strictly_increases_with_rank(self):
        for variant in ("bic1", "bic2", "bic3"):
            scores = [bic_from_error(1.0, 20, 30, r, variant) for r in range(1, 8)]
            assert all(b > a for a, b in zip(scores, scores[1:])), variant

    def test_fit_term_decreases_with_error(self):
        for variant in ("bic1", "bic2", "bic3"):
            assert (bic_from_error(0.5, 20, 30, 3, variant)
                    < bic_from_error(1.0, 20, 30, 3, variant)), variant

    def test_wrapper_consistent(self, rng):
        m = DataMatrix(rng.random((5, 6)))
        f = make_factorization(rng.random((5, 2)), rng.random((2, 6)))
        from pccnmf import frobenius_error
        residual_ss = frobenius_error(m, f)
        expected = 30 * math.log(residual_ss / 30) + 2 * (5 + 6) * math.log(30) / 2
        assert bic_from_error(residual_ss, 5, 6, 2, "bic2") == pytest.approx(expected)

    def test_unknown_variant(self, rng):
        with pytest.raises(ParameterError):
            bic_from_error(1.0, 5, 5, 2, "bic4")


class TestEstimateRc:
    def test_exact_two_mixture_rc_is_two(self, rng):
        # The exact model exists at rank 2; the scan must find it there and
        # report an imperfect fraction at rank 1.
        m, basis, weights = random_mixture(rng, 6, 8, 2)
        report = estimate_rc(m, tau=0.0, r_min=1, r_max=4, seeds=range(4),
                             opts=SolverOptions(max_iters=6000, rel_tol=1e-13))
        assert report.r_c == 2
        rank1 = [e.valid_fraction for e in report.entries_for_rank(1)]
        assert all(v < 1.0 for v in rank1)

    def test_report_keeps_per_seed_curve(self, rng):
        m, _, _ = random_mixture(rng, 5, 6, 2)
        report = estimate_rc(m, tau=0.0, r_min=1, r_max=3, seeds=[0, 1, 2],
                             opts=SolverOptions(max_iters=400, rel_tol=1e-10))
        assert len(report.entries) == 9
        assert {(e.rank, e.seed) for e in report.entries} == {(r, s) for r in (1, 2, 3)
                                                              for s in (0, 1, 2)}
        rows = report.curve_rows()
        assert len(rows) == 9 and len(rows[0]) == 9

    def test_not_found_reports_best(self, rng):
        values = rng.random((6, 6)) + 0.5
        m = DataMatrix(values / values.max())
        report = estimate_rc(m, tau=0.0, r_min=1, r_max=2, seeds=[0],
                             opts=SolverOptions(max_iters=200, rel_tol=1e-10))
        assert report.r_c is None
        assert report.best_rank in (1, 2)
        assert report.best_invalid > 0.0

    def test_threads_match_sequential(self, rng):
        m, _, _ = random_mixture(rng, 6, 7, 2)
        opts = SolverOptions(max_iters=150, rel_tol=1e-10)
        seq = estimate_rc(m, tau=0.0, r_min=1, r_max=3, seeds=[0, 1], opts=opts, threads=1)
        par = estimate_rc(m, tau=0.0, r_min=1, r_max=3, seeds=[0, 1], opts=opts, threads=4)
        for a, b in zip(seq.entries, par.entries):
            assert (a.rank, a.seed) == (b.rank, b.seed)
            assert a.valid_fraction == pytest.approx(b.valid_fraction, rel=1e-8)
            assert a.frobenius_error == pytest.approx(b.frobenius_error, rel=1e-8)

    def test_parameter_validation(self, rng):
        m, _, _ = random_mixture(rng, 4, 5, 2)
        with pytest.raises(ParameterError):
            estimate_rc(m, tau=1.0, r_min=1, r_max=2, seeds=[0])
        with pytest.raises(ParameterError):
            estimate_rc(m, tau=0.1, r_min=0, r_max=2, seeds=[0])
        with pytest.raises(ParameterError):
            estimate_rc(m, tau=0.1, r_min=1, r_max=2, seeds=[])


class TestEstimateRcDual:
    def test_exact_mixture_dual_fraction_one(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        assert dual_predictability_fraction(m, pcc) == 1.0

    def test_dual_scan_tagged_and_finds_mixture_rank(self, rng):
        m, _, _ = random_mixture(rng, 6, 8, 2)
        report = estimate_rc_dual(m, tau=0.0, r_min=1, r_max=3, seeds=range(4),
                                  opts=SolverOptions(max_iters=6000, rel_tol=1e-13))
        assert report.dual is True
        assert report.r_c == 2
