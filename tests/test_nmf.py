import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pccnmf import (LOSS_FROBENIUS, LOSS_KL, DataMatrix, DegenerateInputError, Factorization,
                    FormatError, ParameterError, SolverOptions, apply_flip_noise, factorize,
                    factorize_seeds, frobenius_error, gauge_transform, kl_divergence,
                    load_factorization, rrssq, save_factorization, truncated_svd)
from pccnmf.nmf import _FLOOR, _GRAM_GUARD, _distinct_rows
from conftest import make_factorization, random_mixture


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_python(script, env):
    """Stdout of ``python -c script`` under ``env``, with this checkout's src/ first
    on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=dict(env, PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("given, expected", [
    ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, None),
], ids=["unset", "openblas-2", "omp-2"])
def test_import_runs_blas_on_one_thread_unless_caller_sets_threads(given, expected):
    # pccnmf sets OPENBLAS_NUM_THREADS only when no BLAS thread variable is
    # set; a caller's own value, for OpenBLAS or for any other, wins.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    script = "import json, os, pccnmf; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert json.loads(run_python(script, dict(env, **given))) == expected


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


def reference_factorize(m, rank, loss="frobenius", seed=0, opts=None, lit_rows=True,
                        fit_floor=True, transposed_view=False):
    """Reference for factorize: the same multiplicative updates, with the loss
    recomputed from a full reconstruction after every sweep. Returns
    (basis, weights, trace, converged).

    P W^T and the KL ratio times W^T take a C-contiguous copy of W^T, as in
    factorize, except the grouped product Q W^T, which takes the view
    weights.T. With ``transposed_view`` every product takes the view, which
    BLAS may sum in another order.

    With ``fit_floor`` a Frobenius run also stops, converged, once its loss is
    at most 10 * rel_tol * ||P||^2, and below rel_tol 1e-6 at most
    1e-20 * ||P||^2.

    With ``lit_rows`` the Frobenius sweep mirrors factorize's grouped
    products: the basis lives on the rows of P that are nonzero somewhere,
    dark rows add floor^2 each to B^T B, and when L lit rows of M entries
    hold D distinct ones with D (L + M) < L M, P W^T and B^T P run once per
    distinct row. Without it, both products run on the whole of P, as the
    dense loop did."""
    opts = opts or SolverOptions()
    data = m.values
    floor = 1e-12
    rng = np.random.default_rng(seed)
    amplitude = np.sqrt(data.mean() / rank)
    basis = np.maximum((1.0 - rng.random((data.shape[0], rank))) * amplitude, floor)
    weights = np.maximum((1.0 - rng.random((rank, data.shape[1]))) * amplitude, floor)

    lit = np.flatnonzero(data.any(axis=1))
    n_dark = data.shape[0] - len(lit)
    distinct, group = [], []
    for i in lit:
        matches = [g for g, j in enumerate(distinct) if np.array_equal(data[i], data[j])]
        if not matches:
            distinct.append(i)
        group.append(matches[0] if matches else len(distinct) - 1)
    repeats = len(distinct) * (len(lit) + data.shape[1]) < len(lit) * data.shape[1]
    if repeats:
        members = np.zeros((len(lit), len(distinct)))
        members[np.arange(len(lit)), group] = 1.0
        distinct_rows = data[distinct]
    else:
        distinct_rows = data[lit] if n_dark else data
    grouped = loss == "frobenius" and lit_rows

    def full_basis():
        if not (grouped and n_dark):
            return basis
        full = np.full((data.shape[0], rank), floor)
        full[lit] = basis
        return full

    def loss_value(recon):
        if loss == "frobenius":
            return float(np.sum((data - recon) ** 2))
        pos = data > 0
        if np.any(recon[pos] == 0):
            return float("inf")
        fit = float(np.sum(data[pos] * np.log(data[pos] / recon[pos])))
        return fit - float(data.sum()) + float(recon.sum())

    def transposed(weights):
        return weights.T if transposed_view else np.ascontiguousarray(weights.T)

    trace = [loss_value(basis @ weights)]
    cap = np.inf if opts.rel_tol >= 1e-6 else 1e-20
    floor_loss = (min(10.0 * opts.rel_tol, cap) * float(np.sum(data ** 2))
                  if loss == "frobenius" and fit_floor else -np.inf)
    if grouped and n_dark:
        basis = basis[lit]
    converged = False
    for _ in range(opts.max_iters):
        if grouped:
            if repeats:
                numer = (distinct_rows @ weights.T)[group]
            else:
                numer = distinct_rows @ transposed(weights)
            denom = basis @ (weights @ weights.T)
            basis = np.maximum(basis * numer / denom, floor)
            numer = (basis.T @ members if repeats else basis.T) @ distinct_rows
            denom = (basis.T @ basis + n_dark * floor ** 2) @ weights
            weights = np.maximum(weights * numer / denom, floor)
        elif loss == "frobenius":
            numer = data @ transposed(weights)
            denom = basis @ (weights @ weights.T)
            basis = np.maximum(basis * numer / denom, floor)
            numer = basis.T @ data
            denom = (basis.T @ basis) @ weights
            weights = np.maximum(weights * numer / denom, floor)
        else:
            ratio = data / (basis @ weights)
            basis = np.maximum(basis * (ratio @ transposed(weights)) / weights.sum(axis=1), floor)
            ratio = data / (basis @ weights)
            weights = np.maximum(weights * (basis.T @ ratio) / basis.sum(axis=0)[:, None], floor)
        current = loss_value(full_basis() @ weights)
        previous = trace[-1]
        trace.append(current)
        if current <= floor_loss or abs(current - previous) <= opts.rel_tol * previous:
            converged = True
            break
    return full_basis(), weights, np.array(trace), converged


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("factor", ["basis", "weights"])
    def test_non_finite_factors_rejected(self, factor, value):
        parts = {"basis": np.full((3, 2), 0.5), "weights": np.full((2, 4), 0.5)}
        parts[factor][1, 1] = value
        with pytest.raises(ParameterError, match="factors must be finite"):
            Factorization(rank=2, loss="frobenius", seed=0, trace=[0.0], converged=True,
                          **parts)

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
        for rel_tol in (np.inf, np.nan, -np.inf):
            with pytest.raises(ParameterError):
                SolverOptions(rel_tol=rel_tol)

    @pytest.mark.parametrize("max_iters", [2.5, float("inf"), 3.0, True, "5", None])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # A float cap used to pass and then fail inside factorize with a TypeError.
        with pytest.raises(ParameterError, match="max_iters must be an integer"):
            SolverOptions(max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        m = DataMatrix([[1.0, 0.0], [0.0, 1.0]])
        f = factorize(m, 1, opts=SolverOptions(max_iters=np.int64(3), rel_tol=1e-15))
        assert len(f.trace) - 1 <= 3


class TestLossTrace:
    """The per-sweep loss comes from the update's own products; the factors,
    the stopping sweep and the final loss must equal the reference loop's."""

    @staticmethod
    def assert_matches_reference(m, rank, loss, seed, opts=None):
        f = factorize(m, rank, loss=loss, seed=seed, opts=opts)
        basis, weights, trace, converged = reference_factorize(m, rank, loss, seed, opts)
        assert np.array_equal(f.basis, basis)
        assert np.array_equal(f.weights, weights)
        assert (len(f.trace), f.converged) == (len(trace), converged)
        if loss == "kl":
            assert np.array_equal(f.trace, trace)
        else:
            np.testing.assert_allclose(f.trace, trace, rtol=1e-9, atol=0)
            assert f.trace[-1] == trace[-1]
        return f

    @pytest.mark.parametrize("loss", ["frobenius", "kl"])
    @pytest.mark.parametrize("rank", [9, 17])
    def test_swimmer_matches_reference(self, swimmer, loss, rank):
        # At the default rel_tol the clean rank-17 Frobenius fit reaches the fit
        # floor; at 1e-9 the floor is 1e-20 ||P||^2, far below the fit.
        opts = SolverOptions(rel_tol=1e-9) if (rank, loss) == (17, "frobenius") else None
        f = self.assert_matches_reference(swimmer, rank, loss, seed=0, opts=opts)
        if rank == 17:
            assert len(f.trace) - 1 == SolverOptions().max_iters   # capped run
            assert not f.converged
        if opts is not None:
            assert f.trace.min() > 1e-7 * np.sum(swimmer.values ** 2)

    def test_near_exact_fit_stops_at_fit_floor(self, swimmer):
        # Clean Swimmer at rank 17: the error falls below 1e-5 ||P||^2 after
        # about 400 sweeps and then shrinks too slowly for the relative test.
        f = self.assert_matches_reference(swimmer, 17, "frobenius", seed=0)
        assert len(f.trace) - 1 < SolverOptions().max_iters
        assert f.converged
        assert f.trace[-1] <= 1e-5 * np.sum(swimmer.values ** 2)
        assert f.trace[-1] == frobenius_error(swimmer, f)

    def test_fit_floor_never_reached_on_noisy_swimmer(self, swimmer):
        # Every row of the noisy Swimmer is lit, so the sweep runs the dense
        # products, and the oracle without the floor stops at the same sweep.
        noisy = apply_flip_noise(swimmer, 0.05, seed=11)
        f = factorize(noisy, 16, seed=0)
        basis, weights, trace, converged = reference_factorize(noisy, 16, seed=0,
                                                               fit_floor=False)
        assert np.array_equal(f.basis, basis)
        assert np.array_equal(f.weights, weights)
        assert (len(f.trace), f.converged) == (len(trace), converged)
        assert f.trace.min() > 1e3 * 1e-5 * np.sum(noisy.values ** 2)

    def test_loose_tolerance_floor_ends_frobenius_after_one_sweep(self):
        # At rel_tol 0.1 the fit floor is ||P||^2, which one sweep gets under
        # although the loss still falls by more than 90 % in that sweep. The
        # KL loss has no floor and keeps going.
        m = random_mixture(np.random.default_rng(40), 30, 40, 4)[0]
        opts = SolverOptions(rel_tol=0.1)
        frob = self.assert_matches_reference(m, 4, "frobenius", seed=0, opts=opts)
        assert (frob.iters, frob.converged) == (1, True)
        assert frob.trace[1] < 0.1 * frob.trace[0]
        kl = self.assert_matches_reference(m, 4, "kl", seed=0, opts=opts)
        assert kl.iters > 1 and kl.converged

    def test_tight_tolerance_floor_is_capped(self):
        # Below the default rel_tol the floor is at most 1e-20 ||P||^2: at 1e-13
        # this exact rank-2 mixture goes on from 1e-12 ||P||^2, where a floor of
        # 10 rel_tol ||P||^2 would end it, to a near-exact fit.
        m = random_mixture(np.random.default_rng(3), 6, 8, 2)[0]
        opts = SolverOptions(max_iters=6000, rel_tol=1e-13)
        f = self.assert_matches_reference(m, 2, "frobenius", seed=2, opts=opts)
        assert f.converged
        assert f.trace[-1] <= 1e-20 * np.sum(m.values ** 2)

    @pytest.mark.parametrize("loss", ["frobenius", "kl"])
    def test_random_mixture_matches_reference(self, loss):
        m = random_mixture(np.random.default_rng(5), 30, 40, 4)[0]
        self.assert_matches_reference(m, 4, loss, seed=2)

    def test_final_entry_is_public_loss(self, swimmer):
        rng = np.random.default_rng(6)
        noisy = DataMatrix(swimmer.values * (rng.random(swimmer.values.shape) < 0.9))
        for m in (swimmer, noisy):
            for opts in (SolverOptions(max_iters=40), SolverOptions()):
                f = factorize(m, 7, loss="frobenius", seed=1, opts=opts)
                assert f.trace[-1] == frobenius_error(m, f)
                g = factorize(m, 7, loss="kl", seed=1, opts=opts)
                assert g.trace[-1] == kl_divergence(m, g)

    @staticmethod
    def graded_matrix():
        rng = np.random.default_rng(10)
        values = np.floor(255 * rng.random((60, 80)) ** 2) * (rng.random((60, 80)) < 0.6)
        return DataMatrix(values)

    @pytest.mark.parametrize("rank", [5, 12])
    def test_kl_graded_matches_reference(self, rank):
        # The KL sweep divides only on the support of P; off it the ratio
        # buffer stays 0, which is what P / max(BW, floor) gives there.
        self.assert_matches_reference(self.graded_matrix(), rank, "kl", seed=rank)

    def test_kl_fortran_ordered_matches_reference(self):
        m = DataMatrix(np.asfortranarray(self.graded_matrix().values))
        assert not m.values.flags.c_contiguous
        self.assert_matches_reference(m, 5, "kl", seed=0)

    def test_kl_zero_rows_columns_and_tiny_entries_match_reference(self):
        # All-zero rows and columns leave parts of the ratio buffer never
        # written; entries near 1e-14 push BW on the support below 1e-12, where
        # the quotient P / BW is taken as it is, with no floor on BW.
        rng = np.random.default_rng(11)
        values = rng.random((40, 50)) * (rng.random((40, 50)) < 0.5)
        values[[3, 17], :] = 0.0
        values[:, [0, 9, 33]] = 0.0
        values[25] *= 1e-14
        self.assert_matches_reference(DataMatrix(values), 6, "kl", seed=0)

    @pytest.mark.parametrize("matrix, rank, loss", [
        ("generate_swimmer()", 60, "frobenius"),
        ("apply_flip_noise(generate_swimmer(), 0.05, seed=11)", 16, "kl"),
        ("apply_flip_noise(generate_swimmer(), 0.05, seed=11)", 16, "frobenius"),
    ], ids=["clean-frobenius-60", "noisy-kl-16", "noisy-frobenius-16"])
    def test_frobenius_trace_independent_of_blas_threads(self, matrix, rank, loss):
        # The Gram-form loss is summed by numpy, not by a BLAS dot, whose
        # bits depend on the thread count; at rank 60 they did. On the noisy
        # Swimmer every row is lit, so the full products run on two threads.
        script = ("import hashlib; from pccnmf import *;"
                  f"f = factorize({matrix}, {rank}, {loss!r}, seed=0,"
                  " opts=SolverOptions(max_iters=300, rel_tol=1e-12));"
                  "print(len(f.trace), hashlib.sha256(f.trace.tobytes()).hexdigest(),"
                  " hashlib.sha256(f.basis.tobytes() + f.weights.tobytes()).hexdigest())")
        outputs = [run_python(script, dict(os.environ, OPENBLAS_NUM_THREADS=threads))
                   for threads in ("1", "2")]
        assert outputs[0].startswith("301 ")
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("loss, rank", [("kl", 17), ("frobenius", 11)])
    def test_contiguous_transpose_agrees_with_transposed_view(self, swimmer, loss, rank):
        # Every row of the noisy Swimmer is lit, so P W^T (or the KL ratio times
        # W^T) takes the contiguous copy of W^T. OpenBLAS may sum it in another
        # order than with the view weights.T, which moves only the last bits.
        noisy = apply_flip_noise(swimmer, 0.05, seed=11)
        f = factorize(noisy, rank, loss, seed=1)
        basis, weights, trace, converged = reference_factorize(noisy, rank, loss, seed=1,
                                                               transposed_view=True)
        assert (len(f.trace), f.converged) == (len(trace), converged)
        np.testing.assert_allclose(f.basis, basis, rtol=1e-10, atol=0)
        np.testing.assert_allclose(f.weights, weights, rtol=1e-10, atol=0)
        np.testing.assert_allclose(f.trace, trace, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("rank", [9, 17])
    def test_lit_rows_agree_with_dense_loop(self, swimmer, rank):
        # 105 of the Swimmer's 169 pixel rows are dark and the 64 lit ones hold
        # 17 distinct rows. The grouped, shorter products sum in another order,
        # which changes the last bits but not the stopping sweep. At rel_tol
        # 1e-9 the rank-17 fit stays above the fit floor and runs to the cap.
        assert np.count_nonzero(swimmer.values.any(axis=1)) == 64
        opts = SolverOptions(rel_tol=1e-9) if rank == 17 else None
        f = factorize(swimmer, rank, seed=0, opts=opts)
        basis, weights, trace, converged = reference_factorize(swimmer, rank, seed=0, opts=opts,
                                                               lit_rows=False)
        assert (len(f.trace), f.converged) == (len(trace), converged)
        if rank == 17:
            assert (f.iters, f.converged) == (SolverOptions().max_iters, False)
        np.testing.assert_allclose(f.basis, basis, rtol=1e-10, atol=0)
        np.testing.assert_allclose(f.weights, weights, rtol=1e-10, atol=0)

    def test_without_dark_rows_equals_dense_loop(self, swimmer):
        # With every pixel row lit, factorize uses P as it is.
        noisy = apply_flip_noise(swimmer, 0.05, seed=12)
        mixture = random_mixture(np.random.default_rng(5), 30, 40, 4)[0]
        for m, rank in ((mixture, 4), (noisy, 9)):
            assert m.values.any(axis=1).all()
            f = factorize(m, rank, seed=2)
            basis, weights, trace, converged = reference_factorize(m, rank, seed=2,
                                                                   lit_rows=False)
            assert np.array_equal(f.basis, basis)
            assert np.array_equal(f.weights, weights)
            assert (len(f.trace), f.converged) == (len(trace), converged)
            assert f.trace[-1] == trace[-1]

    @pytest.mark.parametrize("max_iters", [1, 2, 50])
    def test_dark_basis_rows_equal_floor(self, max_iters):
        # P W^T is 0 on a dark row, so the basis update floors the row.
        rng = np.random.default_rng(13)
        values = rng.random((30, 40))
        dark = [0, 4, 5, 29]
        values[dark] = 0.0
        f = factorize(DataMatrix(values), 5, seed=1,
                      opts=SolverOptions(max_iters=max_iters, rel_tol=1e-12))
        assert np.all(f.basis[dark] == _FLOOR)

    @pytest.mark.parametrize("noise_seed, rank", [(None, 17), (None, 60), (11, 16)],
                             ids=["clean-17", "clean-60", "noisy-16"])
    def test_gram_loss_error_far_below_guard(self, swimmer, noise_seed, rank):
        # The Gram form subtracts terms of size ||P||^2. _GRAM_GUARD (1e-13
        # ||P||^2) assumes its error stays under a hundredth of that; the last
        # entry is the direct sum.
        m = swimmer if noise_seed is None else apply_flip_noise(swimmer, 0.05, seed=noise_seed)
        f = factorize(m, rank, seed=0)
        basis, weights, trace, _ = reference_factorize(m, rank, seed=0)
        assert np.array_equal(f.basis, basis) and np.array_equal(f.weights, weights)
        assert len(f.trace) == len(trace)
        error = np.abs(f.trace[:-1] - trace[:-1]).max()
        assert error <= 1e-15 * np.sum(m.values ** 2)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-14])
    def test_exact_rank_one_trace_stays_nonnegative(self, rel_tol):
        # Near an exact fit the Gram form of the squared error cancels to
        # roundoff and can go negative; the sweep must fall back to the
        # direct sum there and stop where the reference loop stops.
        rng = np.random.default_rng(0)
        outer = np.outer(rng.random(6) + 0.1, rng.random(8) + 0.1)
        m = DataMatrix(outer / outer.max())
        opts = SolverOptions(rel_tol=rel_tol)
        f = self.assert_matches_reference(m, 1, "frobenius", seed=0, opts=opts)
        assert np.all(f.trace >= 0)


class TestRowGroups:
    """Lit rows that repeat are multiplied once per distinct row, and the basis
    lives on the lit rows. Each input draws from its own generator."""

    @staticmethod
    def assert_matches_dense_loop(values, rank, seed=0, opts=None):
        m = DataMatrix(values)
        f = factorize(m, rank, seed=seed, opts=opts)
        basis, weights, trace, converged = reference_factorize(m, rank, seed=seed, opts=opts,
                                                               lit_rows=False)
        assert (len(f.trace), f.converged) == (len(trace), converged)
        np.testing.assert_allclose(f.basis, basis, rtol=1e-10, atol=0)
        np.testing.assert_allclose(f.weights, weights, rtol=1e-10, atol=0)
        assert np.all(f.basis[~values.any(axis=1)] == _FLOOR)
        assert f.trace[-1] == frobenius_error(m, f)
        basis, weights, _, _ = reference_factorize(m, rank, seed=seed, opts=opts)
        assert np.array_equal(f.basis, basis)
        assert np.array_equal(f.weights, weights)
        return f

    @staticmethod
    def tiled(rng, n_distinct, n_rows, n_images, n_dark=0):
        """n_rows rows drawn from n_distinct random rows, each used at least once,
        in random order, with n_dark all-zero rows spread among them."""
        distinct = rng.random((n_distinct, n_images)) * (rng.random((n_distinct, n_images)) < 0.7)
        distinct[:, 0] = 1.0
        pick = rng.permutation(np.arange(n_rows) % n_distinct)
        values = np.vstack([distinct[pick], np.zeros((n_dark, n_images))])
        return values[rng.permutation(n_rows + n_dark)]

    def test_repeated_rows_without_dark_rows(self):
        values = self.tiled(np.random.default_rng(21), 8, 40, 30)
        assert values.any(axis=1).all()
        assert len({row.tobytes() for row in values}) == 8
        self.assert_matches_dense_loop(values, 5, seed=1)

    def test_repeated_and_dark_rows(self):
        values = self.tiled(np.random.default_rng(22), 9, 36, 30, n_dark=12)
        assert np.count_nonzero(values.any(axis=1)) == 36
        for max_iters in (1, 2000):
            self.assert_matches_dense_loop(values, 6, seed=2,
                                           opts=SolverOptions(max_iters=max_iters))

    @pytest.mark.parametrize("n_images, rank", [(1, 1), (20, 1), (20, 3)])
    def test_every_lit_row_identical(self, n_images, rank):
        rng = np.random.default_rng(23)
        row = 1.0 - 0.9 * rng.random(n_images)
        lit = rng.random(15) < 0.6
        values = np.outer(lit, row)
        # One sweep fits rank 1 exactly. Rank 3 approaches the exact fit slowly;
        # at rel_tol 1e-21 the fit floor is 1e-20 ||P||^2.
        opts = SolverOptions(rel_tol=1e-21) if rank == 3 else None
        f = self.assert_matches_dense_loop(values, rank, seed=3, opts=opts)
        assert f.trace[-1] <= 1e-20 * np.sum(values ** 2)

    def test_rank_above_number_of_distinct_rows(self):
        values = self.tiled(np.random.default_rng(24), 4, 30, 25, n_dark=5)
        self.assert_matches_dense_loop(values, 7, seed=4)

    def test_fortran_ordered_input(self):
        values = np.asfortranarray(self.tiled(np.random.default_rng(25), 7, 32, 28, n_dark=8))
        assert not values.flags.c_contiguous
        self.assert_matches_dense_loop(values, 5, seed=5)

    @pytest.mark.parametrize("n_dark", [0, 40])
    def test_one_repeated_pair_keeps_plain_products(self, n_dark):
        # 299 distinct rows of 300: groups would cost more than they save.
        rng = np.random.default_rng(26)
        values = np.vstack([rng.random((300, 8)), np.zeros((n_dark, 8))])
        values[217] = values[41]
        values = values[rng.permutation(len(values))]
        f = self.assert_matches_dense_loop(values, 4, seed=6)
        if not n_dark:
            basis, weights, _, _ = reference_factorize(DataMatrix(values), 4, seed=6,
                                                       lit_rows=False)
            assert np.array_equal(f.basis, basis)
            assert np.array_equal(f.weights, weights)

    def test_one_repeated_pair_allocates_no_row_to_group_matrix(self):
        # A 1500 x 1499 row-to-group matrix would take 18 MB.
        import tracemalloc
        rng = np.random.default_rng(27)
        values = rng.random((1500, 6))
        values[900] = values[200]
        m = DataMatrix(values)
        tracemalloc.start()
        try:
            factorize(m, 3, seed=7, opts=SolverOptions(max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * values.nbytes


class TestFactorizeSeeds:
    """factorize_seeds solves the seeds of one (matrix, rank) as one stack, and each
    fit equals factorize's for its seed bit for bit. Each input draws from its own
    generator."""

    @staticmethod
    def assert_fits_equal_factorize(m, rank, seeds, loss=LOSS_FROBENIUS, opts=None):
        fits = factorize_seeds(m, rank, seeds, loss, opts)
        assert [f.seed for f in fits] == list(seeds)
        for seed, f in zip(seeds, fits):
            single = factorize(m, rank, loss, seed, opts)
            for name in ("basis", "weights", "trace"):
                got, want = getattr(f, name), getattr(single, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert f.converged == single.converged
        return fits

    @staticmethod
    def exact_mixture(tiles=1, n_dark=0):
        """A 12 x 15 exact rank-2 mixture, its rows repeated ``tiles`` times, plus
        ``n_dark`` zero rows, shuffled."""
        values = random_mixture(np.random.default_rng(6), 12, 15, 2)[0].values
        rows = np.vstack([values] * tiles + [np.zeros((n_dark, 15))])
        return DataMatrix(rows[np.random.default_rng(7).permutation(len(rows))])

    def test_stops_at_max_iters_fit_floor_and_through_gram_guard(self):
        # Below the default rel_tol the fit floor is 1e-20 ||P||^2, far under the
        # guard at 1e-4 ||P||^2: every seed takes the direct sum from some sweep
        # on, seeds 3 and 1 reach the floor at different sweeps, and seeds 0
        # and 4 run to the cap. Each stopped seed leaves the stack.
        m = self.exact_mixture()
        norm_sq = float(np.sum(m.values ** 2))
        opts = SolverOptions(max_iters=1000, rel_tol=1e-9)
        fits = self.assert_fits_equal_factorize(m, 2, (3, 0, 1, 4), opts=opts)
        assert [(f.iters, f.converged) for f in fits] == [
            (646, True), (1000, False), (756, True), (1000, False)]
        for f in fits:
            assert np.any(f.trace[1:] * opts.rel_tol <= _GRAM_GUARD * norm_sq)
            assert (f.trace[-1] <= 1e-20 * norm_sq) == f.converged

    def test_fit_floor_and_cap_at_default_tolerance(self):
        # At the default rel_tol the floor is 1e-5 ||P||^2: seeds 3 and 6 reach it
        # after 169 and 198 sweeps, seed 0 stops at the cap of 200. Seed 3 twice.
        # With a cap of 169, seed 3 reaches the floor on the last sweep and counts
        # as converged, while the seeds stopped by the cap do not.
        m = random_mixture(np.random.default_rng(5), 20, 25, 3)[0]
        for max_iters, want in ((200, [(169, True), (200, False), (198, True), (169, True)]),
                                (169, [(169, True), (169, False), (169, False), (169, True)])):
            fits = self.assert_fits_equal_factorize(m, 3, (3, 0, 6, 3),
                                                    opts=SolverOptions(max_iters=max_iters))
            assert [(f.iters, f.converged) for f in fits] == want

    @pytest.mark.parametrize("seeds", [(5, 1, 0), (0, 5, 1), (1, 1, 5)])
    def test_dark_rows_with_row_groups(self, seeds):
        # 72 lit rows hold 12 distinct ones, so the grouped products run, and the
        # basis lives on the lit rows. Seeds 5 and 0 reach the fit floor after 591
        # and 930 sweeps, seed 1 runs to the cap.
        m = self.exact_mixture(tiles=6, n_dark=5)
        lit = m.values[m.values.any(axis=1)]
        assert len(lit) == 72 and _distinct_rows(lit)[1] is not None
        fits = self.assert_fits_equal_factorize(
            m, 2, seeds, opts=SolverOptions(max_iters=1000, rel_tol=1e-9))
        assert [f.iters for f in fits] == [{5: 591, 0: 930, 1: 1000}[seed] for seed in seeds]
        for f in fits:
            assert np.all(f.basis[~m.values.any(axis=1)] == _FLOOR)

    @pytest.mark.parametrize("seeds", [(0, 1, 2), (2, 0, 1), (1, 1, 0)])
    def test_swimmer_seed_orders(self, swimmer, seeds):
        self.assert_fits_equal_factorize(swimmer, 6, seeds, opts=SolverOptions(max_iters=150))

    @pytest.mark.parametrize("loss", [LOSS_FROBENIUS, LOSS_KL])
    def test_all_lit_matrix(self, loss):
        m = DataMatrix(np.random.default_rng(8).random((9, 11)))
        assert m.values.all()
        self.assert_fits_equal_factorize(m, 3, (4, 1, 4), loss,
                                         SolverOptions(max_iters=300, rel_tol=1e-9))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_one_and_two(self, swimmer, rank):
        self.assert_fits_equal_factorize(swimmer, rank, (0, 1, 2))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_fit_equals_factorize_over_drawn_matrices(self, data):
        # Drawn matrices have dark rows or none, lit rows that repeat (the grouped
        # products) or not, and may be positive everywhere; seeds may repeat, and
        # at a loose rel_tol they stop at different sweeps, so a stack shrinks,
        # down to one layer.
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="generator"))
        n_distinct = data.draw(st.integers(1, 6), label="distinct lit rows")
        n_lit = data.draw(st.integers(n_distinct, 24), label="lit rows")
        n_dark = data.draw(st.integers(0, 5), label="dark rows")
        n_images = data.draw(st.integers(1, 12), label="images")
        density = data.draw(st.sampled_from([0.5, 1.0]), label="density")
        distinct = 0.05 + gen.random((n_distinct, n_images))
        distinct *= gen.random((n_distinct, n_images)) < density
        distinct[np.arange(n_distinct), gen.integers(0, n_images, n_distinct)] = 1.0
        rows = distinct[gen.permutation(np.arange(n_lit) % n_distinct)]
        values = np.vstack([rows, np.zeros((n_dark, n_images))])
        m = DataMatrix(values[gen.permutation(n_lit + n_dark)])
        rank = data.draw(st.integers(1, min(m.values.shape)), label="rank")
        seeds = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4), label="seeds")
        loss = data.draw(st.sampled_from([LOSS_FROBENIUS, LOSS_KL]), label="loss")
        opts = SolverOptions(max_iters=data.draw(st.integers(1, 300), label="max_iters"),
                             rel_tol=data.draw(st.sampled_from([1e-3, 1e-6, 1e-9]),
                                               label="rel_tol"))
        self.assert_fits_equal_factorize(m, rank, seeds, loss, opts)

    def test_empty_seeds_rejected(self):
        m = DataMatrix(np.random.default_rng(9).random((3, 4)))
        with pytest.raises(ParameterError, match="seeds"):
            factorize_seeds(m, 2, ())


def _degenerate(name):
    """Degenerate input ``name`` as (values, rank), drawn from its own generator."""
    k = DEGENERATE.index(name)
    rng = np.random.default_rng(70 + k)
    shapes = {"1x1": (1, 1), "one-image": (12, 1), "one-pixel": (1, 9),
              "full-rank-tall": (9, 5), "full-rank-wide": (4, 10)}
    if name in shapes:
        values = 0.01 + 0.99 * rng.random(shapes[name])
        return values, min(values.shape)
    if name == "zero-rows-columns":
        values = rng.random((10, 12)) * (rng.random((10, 12)) < 0.7)
        values[[0, 5, 9]] = 0.0
        values[:, [3, 11]] = 0.0
        return values, 4
    return rng.random((8, 10)) * float(name.removeprefix("tiny-")), 3


DEGENERATE = ("1x1", "one-image", "one-pixel", "full-rank-tall", "full-rank-wide",
              "zero-rows-columns", "tiny-1e-6", "tiny-1e-12", "tiny-1e-20", "tiny-1e-300")


class TestDegenerateShapes:
    """Degenerate inputs give finite nonnegative factors, a trace that rises by
    at most 1e-12 of its first entry between sweeps, and a last trace entry
    equal to the public loss. At rank min(N, M) an exact fit leaves a loss of
    roundoff, which may jitter."""

    @pytest.mark.parametrize("loss", ["frobenius", "kl"])
    @pytest.mark.parametrize("name", DEGENERATE)
    def test_factors_trace_and_final_loss(self, name, loss):
        values, rank = _degenerate(name)
        m = DataMatrix(values)
        f = factorize(m, rank, loss, seed=1, opts=SolverOptions(max_iters=500))
        for factor in (f.basis, f.weights):
            assert np.all(np.isfinite(factor)) and np.all(factor >= 0)
        assert np.all(np.diff(f.trace) <= 1e-12 * f.trace[0])
        public = frobenius_error(m, f) if loss == "frobenius" else kl_divergence(m, f)
        assert f.trace[-1] == public

    @pytest.mark.parametrize("name", ["1x1", "one-image", "one-pixel"])
    def test_kl_exact_fit_stops_converged(self, name):
        # At rank 1 these fit exactly and the KL loss reaches 0.0: a change of 0
        # against rel_tol * 0 still ends the run, converged.
        values, rank = _degenerate(name)
        f = factorize(DataMatrix(values), rank, "kl", seed=1, opts=SolverOptions(max_iters=500))
        assert f.trace[-1] == 0.0
        assert f.converged and f.iters < 500


class TestScaleEquivariance:
    """Multiplicative updates commute with rescaling P, so c P fits as c times the
    fit of P, sweep for sweep, until the 1e-12 factor floor binds."""

    @pytest.mark.parametrize("loss", ["frobenius", "kl"])
    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_scaled_input_scales_the_fit(self, loss, k):
        values = np.random.default_rng(2).random((30, 40))
        c = 4.0 ** -k   # a power of 4: sqrt(mean(c P) / rank) scales exactly by 2^-k
        opts = SolverOptions(max_iters=300)
        base = factorize(DataMatrix(values), 4, loss, seed=2, opts=opts)
        scaled = factorize(DataMatrix(c * values), 4, loss, seed=2, opts=opts)
        assert (scaled.iters, scaled.converged) == (base.iters, base.converged)
        expected = c * base.reconstruct()
        gap = np.linalg.norm(scaled.reconstruct() - expected) / np.linalg.norm(expected)
        assert gap <= 1e-5


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


# Finite nonnegative doubles, with subnormals drawn often.
FINITE_NONNEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                               st.floats(min_value=0.0, max_value=2.0 ** -1022))


@st.composite
def factorizations(draw):
    """Any finite nonnegative factors of any shape up to 4 x 3 x 4, with any
    loss, seed, converged flag and finite final loss."""
    n_pixels, rank, n_images = draw(st.tuples(st.integers(1, 4), st.integers(1, 3),
                                              st.integers(1, 4)))
    return Factorization(
        basis=draw(hnp.arrays(np.float64, (n_pixels, rank), elements=FINITE_NONNEGATIVE)),
        weights=draw(hnp.arrays(np.float64, (rank, n_images), elements=FINITE_NONNEGATIVE)),
        rank=rank, loss=draw(st.sampled_from([LOSS_FROBENIUS, LOSS_KL])),
        seed=draw(st.integers(0, 2 ** 64)), trace=[draw(FINITE_NONNEGATIVE)],
        converged=draw(st.booleans()))


class TestSerialization:
    @given(factorizations())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_exact(self, tmp_path_factory, f):
        path = tmp_path_factory.mktemp("fac")
        save_factorization(f, path)
        g = load_factorization(path)
        assert g.basis.tobytes() == f.basis.tobytes() and g.basis.shape == f.basis.shape
        assert g.weights.tobytes() == f.weights.tobytes() and g.weights.shape == f.weights.shape
        assert (g.rank, g.loss, g.seed, g.converged) == (f.rank, f.loss, f.seed, f.converged)
        assert g.trace.tobytes() == f.trace.tobytes()

    def test_round_trip(self, tmp_path, swimmer):
        f = factorize(swimmer, 4, loss="kl", seed=3,
                      opts=SolverOptions(max_iters=20, rel_tol=1e-12))
        save_factorization(f, tmp_path / "fac")
        g = load_factorization(tmp_path / "fac")
        np.testing.assert_allclose(g.basis, f.basis, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g.weights, f.weights, rtol=0, atol=1e-15)
        assert (g.rank, g.loss, g.seed, g.converged) == (4, "kl", 3, f.converged)
        assert g.trace[-1] == pytest.approx(f.trace[-1])

    def test_rank_one_round_trip_bit_for_bit(self, tmp_path):
        values = np.random.default_rng(5).random((4, 3))
        f = factorize(DataMatrix(values), 1, seed=2, opts=SolverOptions(max_iters=10))
        save_factorization(f, tmp_path / "fac")
        g = load_factorization(tmp_path / "fac")
        assert g.basis.shape == (4, 1) and g.weights.shape == (1, 3)
        assert g.basis.tobytes() == f.basis.tobytes()
        assert g.weights.tobytes() == f.weights.tobytes()

    @pytest.mark.parametrize("name, data", [("B.csv", None), ("W.csv", None),
                                            ("W.csv", b"0.5,oops\n"), ("B.csv", b"\xff\n")],
                             ids=["missing-B", "missing-W", "W-not-a-number", "B-not-utf8"])
    def test_bad_factor_file_is_format_error(self, tmp_path, name, data):
        values = np.random.default_rng(6).random((3, 2))
        save_factorization(factorize(DataMatrix(values), 1, opts=SolverOptions(max_iters=5)),
                           tmp_path)
        if data is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_bytes(data)
        with pytest.raises(FormatError, match=name):
            load_factorization(tmp_path)

    @pytest.mark.parametrize("key, value", [("loss", "other"), ("final_loss", -1.0),
                                            ("final_loss", float("nan")),
                                            ("final_loss", float("inf")),
                                            ("final_loss", 10 ** 400)],
                             ids=["loss-other", "final-loss-negative", "final-loss-nan",
                                  "final-loss-inf", "final-loss-overflows"])
    def test_bad_meta_value_is_format_error(self, tmp_path, key, value):
        values = np.random.default_rng(7).random((3, 2))
        save_factorization(factorize(DataMatrix(values), 1, opts=SolverOptions(max_iters=5)),
                           tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta[key] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"'{key}'"):
            load_factorization(tmp_path)
