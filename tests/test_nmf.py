import numpy as np
import pytest

from pccnmf import (DataMatrix, DegenerateInputError, Factorization, ParameterError,
                    SolverOptions, factorize, frobenius_error, gauge_transform,
                    kl_divergence, load_factorization, rrssq, save_factorization,
                    truncated_svd)


def frobenius_oracle(data, recon):
    """Independent elementwise double-loop sum."""
    total = 0.0
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            total += (data[i, j] - recon[i, j]) ** 2
    return total


def kl_oracle(data, recon):
    """Independent elementwise sum with the 0 ln 0 = 0 convention."""
    total = 0.0
    for i in range(data.shape[0]):
        for j in range(data.shape[1]):
            p, q = data[i, j], recon[i, j]
            if p > 0:
                total += p * np.log(p / q) - p + q
            else:
                total += q
    return total


def make_factorization(basis, weights, loss="frobenius"):
    return Factorization(basis=basis, weights=weights, rank=basis.shape[1], loss=loss,
                         seed=0, trace=np.array([0.0]), converged=True)


class TestLossFunctions:
    def test_frobenius_zero_on_exact(self, rng):
        basis = rng.random((4, 2)) * 0.5
        weights = rng.random((2, 5))
        m = DataMatrix(basis @ weights)
        assert frobenius_error(m, make_factorization(basis, weights)) == 0.0

    def test_frobenius_single_entry(self):
        m = DataMatrix([[1.0]])
        f = make_factorization(np.zeros((1, 1)), np.zeros((1, 1)))
        assert frobenius_error(m, f) == 1.0

    def test_frobenius_matches_oracle(self, rng):
        m = DataMatrix(rng.random((5, 5)))
        f = make_factorization(rng.random((5, 3)), rng.random((3, 5)))
        expected = frobenius_oracle(m.values, f.reconstruct())
        assert abs(frobenius_error(m, f) - expected) <= 1e-12

    def test_kl_zero_on_exact(self, rng):
        basis = (rng.random((3, 2)) + 0.1) * 0.5
        weights = (rng.random((2, 4)) + 0.1) * 0.5
        m = DataMatrix(basis @ weights)
        f = make_factorization(basis, weights)
        assert kl_divergence(m, f) <= 1e-12

    def test_kl_closed_form_single_entry(self):
        m = DataMatrix([[1.0]])
        f = make_factorization(np.array([[np.e]]), np.array([[1.0]]))
        assert abs(kl_divergence(m, f) - (np.e - 2.0)) <= 1e-12

    def test_kl_matches_oracle(self, rng):
        m = DataMatrix(rng.random((4, 4)))
        f = make_factorization(rng.random((4, 2)) + 0.01, rng.random((2, 4)) + 0.01)
        expected = kl_oracle(m.values, f.reconstruct())
        assert abs(kl_divergence(m, f) - expected) <= 1e-12

    def test_kl_infinite_when_support_not_covered(self):
        m = DataMatrix([[1.0, 0.0]])
        f = make_factorization(np.array([[1.0]]), np.array([[0.0, 0.0]]))
        assert kl_divergence(m, f) == np.inf

    def test_shape_mismatch(self, rng):
        m = DataMatrix(rng.random((4, 4)))
        f = make_factorization(rng.random((3, 2)), rng.random((2, 4)))
        with pytest.raises(ParameterError):
            frobenius_error(m, f)


class TestFactorize:
    def test_rank_one_exact(self, rng):
        u = rng.random(6) + 0.1
        v = rng.random(8) + 0.1
        m = DataMatrix(np.outer(u, v) / np.outer(u, v).max())
        f = factorize(m, 1, seed=0, opts=SolverOptions(max_iters=200, rel_tol=1e-14))
        assert rrssq(m, f) <= 1e-8

    def test_exact_two_component_mixture(self, rng):
        # Oracle first: the constructed mixture reproduces the input exactly.
        cond = rng.random((4, 2)) + 0.1
        cond /= cond.sum(axis=0)
        mix = rng.random((2, 4)) + 0.1
        mix /= mix.sum()
        values = cond @ mix
        assert frobenius_oracle(values, cond @ mix) == 0.0
        m = DataMatrix(values)
        best = min(
            rrssq(m, factorize(m, 2, seed=s, opts=SolverOptions(max_iters=20000, rel_tol=1e-15)))
            for s in range(10))
        assert best <= 1e-6

    def test_trace_monotone_non_increasing(self, swimmer):
        for loss in ("frobenius", "kl"):
            f = factorize(swimmer, 9, loss=loss, seed=1,
                          opts=SolverOptions(max_iters=300, rel_tol=1e-12))
            diffs = np.diff(f.trace)
            assert np.all(diffs <= 1e-9 * max(1.0, f.trace[0])), loss

    def test_deterministic(self, swimmer):
        a = factorize(swimmer, 6, seed=7, opts=SolverOptions(max_iters=50, rel_tol=1e-12))
        b = factorize(swimmer, 6, seed=7, opts=SolverOptions(max_iters=50, rel_tol=1e-12))
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.trace, b.trace)

    def test_factors_nonnegative(self, swimmer):
        f = factorize(swimmer, 5, seed=2, opts=SolverOptions(max_iters=30, rel_tol=1e-12))
        assert np.all(f.basis >= 0)
        assert np.all(f.weights >= 0)

    def test_rank_out_of_range(self, swimmer):
        with pytest.raises(ParameterError):
            factorize(swimmer, 0)
        with pytest.raises(ParameterError):
            factorize(swimmer, 170)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            factorize(DataMatrix(np.zeros((3, 3))), 1)

    def test_solver_options_validated(self):
        with pytest.raises(ParameterError):
            SolverOptions(max_iters=0)
        with pytest.raises(ParameterError):
            SolverOptions(rel_tol=0.0)


class TestGauge:
    def test_reconstruction_unchanged(self, swimmer, rng):
        f = factorize(swimmer, 5, seed=0, opts=SolverOptions(max_iters=40, rel_tol=1e-12))
        kappa = rng.random(5) * 5 + 0.1
        g = gauge_transform(f, kappa)
        np.testing.assert_allclose(g.reconstruct(), f.reconstruct(), rtol=0, atol=1e-12)

    def test_rejects_nonpositive_kappa(self, swimmer):
        f = factorize(swimmer, 3, seed=0, opts=SolverOptions(max_iters=5, rel_tol=1e-12))
        with pytest.raises(ParameterError):
            gauge_transform(f, np.array([1.0, 0.0, 2.0]))


class TestTruncatedSvd:
    def test_full_rank_reproduces(self, rng):
        m = DataMatrix(rng.random((5, 5)))
        recon = truncated_svd(m, 5)
        assert np.sqrt(np.sum((recon - m.values) ** 2)) <= 1e-8

    def test_rank_one_matrix(self, rng):
        u = rng.random(5)
        v = rng.random(6)
        m = DataMatrix(np.outer(u, v))
        recon = truncated_svd(m, 1)
        assert np.sqrt(np.sum((recon - m.values) ** 2)) <= 1e-8

    def test_beats_random_rank3_pairs(self, rng):
        # Oracle: no random rank-3 factor pair does better in Frobenius error.
        m = DataMatrix(rng.random((6, 6)))
        svd_err = np.sum((truncated_svd(m, 3) - m.values) ** 2)
        for _ in range(1000):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((3, 6))
            assert svd_err <= np.sum((a @ b - m.values) ** 2) + 1e-12

    def test_rank_out_of_range(self, rng):
        m = DataMatrix(rng.random((3, 3)))
        with pytest.raises(ParameterError):
            truncated_svd(m, 4)


class TestSerialization:
    def test_round_trip(self, tmp_path, swimmer):
        f = factorize(swimmer, 4, loss="kl", seed=3,
                      opts=SolverOptions(max_iters=20, rel_tol=1e-12))
        save_factorization(f, tmp_path / "fac")
        g = load_factorization(tmp_path / "fac")
        np.testing.assert_allclose(g.basis, f.basis, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g.weights, f.weights, rtol=0, atol=1e-15)
        assert (g.rank, g.loss, g.seed, g.converged) == (4, "kl", 3, f.converged)
        assert g.trace[-1] == pytest.approx(f.trace[-1])
