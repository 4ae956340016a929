import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccnmf import (DataMatrix, ParameterError, SolverOptions,
                    UndefinedCorrelationError, anticorrelation_report, derive_pcc,
                    error_sequences, factorize, hoyer_sparsity, image_entropies, pearson,
                    sparsity_comparison)
from conftest import make_factorization, random_mixture


def pearson_oracle(x, y):
    """Covariance / standard-deviation formula, plain loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return cov / (sx * sy)


def entropy_oracle(column):
    return -sum(p * math.log(p) for p in column if p > 0)


class TestErrorSequences:
    def test_exact_factorization_eps_zero(self, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        seqs = error_sequences(derive_pcc(m, make_factorization(basis, weights)))
        np.testing.assert_allclose(seqs.eps, 0.0, atol=1e-11)

    def test_zero_conditional_gives_zero_eps(self):
        values = np.array([[0.5, 0.0], [0.5, 1.0]])
        m = DataMatrix(values)
        f = make_factorization(np.array([[0.3], [0.7]]), np.array([[1.0, 1.0]]))
        seqs = error_sequences(derive_pcc(m, f))
        # pixel 0 of image 1 has p(pixel|image) = 0: eps forced to 0 there.
        assert seqs.eps.reshape(2, 2)[0, 1] == 0.0

    def test_matches_elementwise_oracle(self, rng):
        m, basis, weights = random_mixture(rng, 3, 3, 2)
        bad = basis.copy()
        bad[0, 0] *= 2.0
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        seqs = error_sequences(pcc)
        w = pcc.cond_pixel_given_image
        approx = pcc.approx_cond
        for pi in range(3):
            for i in range(3):
                flat = pi * 3 + i
                assert seqs.w[flat] == w[pi, i]
                expected = abs(w[pi, i] - approx[pi, i]) / w[pi, i] if w[pi, i] > 0 else 0.0
                assert seqs.eps[flat] == pytest.approx(expected, abs=1e-12)
                assert seqs.v[flat] == pytest.approx(w[pi, i] - pcc.marg_pixel[pi], abs=1e-12)

    def test_weighted_mean_of_v_vanishes(self, swimmer):
        f = factorize(swimmer, 8, seed=0, opts=SolverOptions(max_iters=100, rel_tol=1e-10))
        pcc = derive_pcc(swimmer, f)
        seqs = error_sequences(pcc)
        weights = np.repeat(pcc.marg_image[None, :], swimmer.n_pixels, axis=0).ravel()
        assert abs(float(weights @ seqs.v)) <= 1e-10


class TestPearson:
    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(x, x) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0, 7.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_matches_covariance_oracle(self, rng):
        x = rng.standard_normal(100)
        y = 0.3 * x + rng.standard_normal(100)
        assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-10)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_matches_oracle(self, xs, seed):
        x = np.array(xs)
        y = np.random.default_rng(seed).random(len(x))
        xc = x - x.mean()
        # zero-variance inputs (including squared-norm underflow) are the
        # documented error path, exercised in test_zero_variance_rejected
        if float(xc @ xc) < 1e-100 or np.ptp(y) == 0:
            return
        r = pearson(x, y)
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
        assert r == pytest.approx(pearson_oracle(x, y), abs=1e-8)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(np.ones(5), np.arange(5.0))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([-600, -560, 0, 560]))
    @settings(max_examples=40, deadline=None)
    def test_tiny_and_huge_inputs_keep_their_correlation(self, seed, exponent):
        # At 2**-560 (about 1e-169) the squared norms used to underflow to 0 and
        # pearson raised; scaling by a power of two changes no bit.
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 2.0, 8)
        y = x + rng.standard_normal(8)
        assert pearson(np.ldexp(x, exponent), y) == pearson(x, y)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            pearson(np.ones(3), np.ones(4))


class TestAnticorrelationReport:
    def test_r_v_uses_uncentered_second_argument(self, rng):
        m, basis, weights = random_mixture(rng, 4, 6, 2)
        bad = basis.copy()
        bad[0, 0] *= 3.0
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        seqs = error_sequences(pcc)
        rep = anticorrelation_report(pcc)
        eps_c = seqs.eps - seqs.eps.mean()
        expected_rv = float(eps_c @ seqs.v / (np.linalg.norm(eps_c) * np.linalg.norm(seqs.v)))
        assert rep.r_v == pytest.approx(expected_rv, abs=1e-12)
        assert rep.r_w == pytest.approx(pearson_oracle(seqs.eps, seqs.w), abs=1e-10)
        assert rep.length == 24

    def test_exact_factorization_error_path(self, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        with pytest.raises(UndefinedCorrelationError):
            anticorrelation_report(pcc)

    @pytest.mark.parametrize("shape", [(4, 5, 2), (30, 40, 4)])
    def test_exact_mixtures_raise_whatever_the_roundoff(self, shape):
        # derive_pcc leaves relative errors of 1e-16 scale on most exact
        # mixtures; their correlation is one of roundoff, not of the fit.
        for k in range(20):
            m, basis, weights = random_mixture(np.random.default_rng(k), *shape)
            pcc = derive_pcc(m, make_factorization(basis, weights))
            assert error_sequences(pcc).eps.max() < 1e-14
            with pytest.raises(UndefinedCorrelationError):
                anticorrelation_report(pcc)

    def test_relative_errors_above_roundoff_correlate(self):
        m, basis, weights = random_mixture(np.random.default_rng(3), 4, 5, 2)
        bad = basis.copy()
        bad[0, 0] *= 1.0 + 1e-9
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        assert 1e-12 < error_sequences(pcc).eps.max() < 1e-8
        rep = anticorrelation_report(pcc)
        assert -1.0 <= rep.r_w <= 1.0 and -1.0 <= rep.r_v <= 1.0

    @pytest.mark.xfail(strict=True, reason=(
        "holds for grayscale data only: on binary inputs ~80% of pairs sit at "
        "(w=0, eps=0) by the zero convention and w is near-constant on lit "
        "pixels, which forces a positive correlation (~+0.6 on noisy Swimmer)"))
    def test_noisy_swimmer_signs_negative(self, swimmer):
        from pccnmf import apply_flip_noise
        noisy = apply_flip_noise(swimmer, 0.05, seed=42)
        f = factorize(noisy, 20, seed=0, opts=SolverOptions(max_iters=300, rel_tol=1e-9))
        rep = anticorrelation_report(derive_pcc(noisy, f))
        assert rep.r_w < 0
        assert rep.r_v < 0

    def test_smooth_grayscale_signs_negative(self, rng):
        # Where intensities vary continuously, larger conditionals are
        # approximated relatively better: both correlations come out negative.
        u = rng.random((60, 10))
        v = rng.random((10, 90))
        values = u @ v + 0.05 * rng.random((60, 90))
        m = DataMatrix(values / values.max())
        for loss in ("frobenius", "kl"):
            f = factorize(m, 6, loss=loss, seed=0,
                          opts=SolverOptions(max_iters=600, rel_tol=1e-10))
            rep = anticorrelation_report(derive_pcc(m, f))
            assert rep.r_w < 0, loss
            assert rep.r_v < 0, loss


class TestImageEntropies:
    def test_uniform_column(self):
        n = 7
        values = np.full((n, 2), 1.0 / n)
        m = DataMatrix(values)
        f = make_factorization(np.full((n, 1), 1.0 / n), np.ones((1, 2)))
        rep = image_entropies(derive_pcc(m, f))
        np.testing.assert_allclose(rep.s, np.log(n), atol=1e-12)

    def test_rank_one_mixture_conditional_identical_across_images(self, rng):
        m, _, _ = random_mixture(rng, 5, 6, 3)
        f = factorize(m, 1, seed=0, opts=SolverOptions(max_iters=500, rel_tol=1e-12))
        rep = image_entropies(derive_pcc(m, f))
        np.testing.assert_allclose(rep.s_hat, rep.s_hat[0], atol=1e-10)

    def test_matches_direct_summation(self, rng):
        m, basis, weights = random_mixture(rng, 4, 4, 2)
        bad = basis.copy()
        bad[1, 0] *= 2.5
        bad /= bad.sum(axis=0)
        pcc = derive_pcc(m, make_factorization(bad, weights))
        rep = image_entropies(pcc)
        for i in range(4):
            assert rep.s[i] == pytest.approx(
                entropy_oracle(pcc.cond_pixel_given_image[:, i]), abs=1e-12)
            assert rep.s_hat[i] == pytest.approx(
                entropy_oracle(pcc.approx_cond[:, i]), abs=1e-12)

    def test_violation_counter(self, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        rep = image_entropies(pcc)
        assert rep.violations == 0  # exact model: entropies equal


class TestHoyer:
    def test_one_hot(self):
        assert hoyer_sparsity(np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_uniform(self):
        assert hoyer_sparsity(np.full(9, 0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_tiny_entries(self):
        # Squares of entries near 1e-162 underflow; the measure is scale-free.
        assert hoyer_sparsity(np.array([0.0, 3.6069557094786754e-162])) == 1.0
        assert hoyer_sparsity(np.full(9, 1e-170)) == pytest.approx(0.0, abs=1e-12)
        assert hoyer_sparsity(np.array([0.0, 2.0, 1.0]) * 1e-200) == pytest.approx(
            hoyer_sparsity(np.array([0.0, 2.0, 1.0])), rel=1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, xs):
        value = hoyer_sparsity(np.array(xs))
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestSparsityComparison:
    def test_degenerate_equality(self):
        # One basis replicating the single image: both sides identical.
        column = np.array([0.2, 0.5, 0.3])
        m = DataMatrix(column[:, None])
        f = make_factorization(column[:, None].copy(), np.array([[1.0]]))
        rep = sparsity_comparison(derive_pcc(m, f))
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)

    def test_swimmer_bases_sparser_at_mid_rank(self, swimmer):
        f = factorize(swimmer, 14, seed=0, opts=SolverOptions(max_iters=400, rel_tol=1e-9))
        rep = sparsity_comparison(derive_pcc(swimmer, f))
        assert rep.lhs > rep.rhs
        # Hoyer cross-check orders the other way: sparser basis, higher Hoyer.
        assert rep.hoyer_bases > rep.hoyer_images


class TestBlasThreadInvariance:
    def test_reports_equal_at_one_and_two_blas_threads(self):
        # Every vector reduction must be a numpy sum: a BLAS dot's bits
        # depend on the thread count, and so would r_w, r_v and the cosines.
        script = (
            "import numpy as np; from pccnmf import *;"
            "m = apply_flip_noise(generate_swimmer(), 0.05, seed=3);"
            "pcc = derive_pcc(m, factorize(m, 17, seed=0, opts=SolverOptions(max_iters=60)));"
            "x, y = np.random.default_rng(0).random((2, 20000));"
            "print(repr(anticorrelation_report(pcc)), repr(sparsity_comparison(pcc)),"
            " repr(pearson(x, y)), repr(cosine_distance(x, y)), repr(hoyer_sparsity(x)))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            outputs.append(done.stdout)
        assert "length=43264" in outputs[0]
        assert outputs[0] == outputs[1]
