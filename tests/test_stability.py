import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccnmf import (ParameterError, SolverOptions, apply_flip_noise, cosine_distance,
                    cosine_distance_matrix, distance_histogram, factorize,
                    lexicographic_assignment, match_bases, solve_assignment,
                    stability_experiment)
from pccnmf import stability


def brute_force_assignment(cost):
    """Exhaustive minimum over all permutations."""
    n = cost.shape[0]
    best_total = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = float(cost[np.arange(n), perm].sum())
        if total < best_total:
            best_total = total
            best_perm = perm
    return np.array(best_perm), best_total


def brute_force_lexicographic(cost):
    """First permutation, in lexicographic order, within the tie tolerance of the minimum."""
    n = cost.shape[0]
    perms = list(itertools.permutations(range(n)))
    totals = [float(cost[np.arange(n), perm].sum()) for perm in perms]
    best = min(totals)
    tol = 1e-10 * (1.0 + abs(best))
    first = next(i for i, t in enumerate(totals) if t <= best + tol)
    return np.array(perms[first]), totals[first]


def greedy_oracle(cost):
    """The plain greedy rule: one full solve per (row, candidate column) prefix."""
    cost = np.asarray(cost, dtype=np.float64)
    _, total = solve_assignment(cost)
    n = cost.shape[0]
    tol = 1e-10 * (1.0 + abs(total))
    free = list(range(n))
    chosen = np.zeros(n, dtype=np.int64)
    prefix = 0.0
    for row in range(n):
        for pos, col in enumerate(free):
            rest_rows = np.arange(row + 1, n)
            rest_cols = [c for c in free if c != col]
            if rest_rows.size:
                _, rest = solve_assignment(cost[np.ix_(rest_rows, rest_cols)])
            else:
                rest = 0.0
            if prefix + cost[row, col] + rest <= total + tol:
                chosen[row] = col
                prefix += cost[row, col]
                free.pop(pos)
                break
    return chosen, float(cost[np.arange(n), chosen].sum())


def tie_heavy_costs(rng, n):
    """One cost matrix of each kind: constant, duplicated columns, cosine cost of a
    basis against a column-permuted copy of itself, small integers, uniform random."""
    yield "constant", np.full((n, n), rng.random())
    base = rng.random((n, max(1, n // 2)))
    yield "duplicated", base[:, rng.integers(0, base.shape[1], n)]
    basis = rng.random((6, n))
    basis[:, rng.integers(0, n, n // 2)] = basis[:, rng.integers(0, n, n // 2)]
    yield "permuted", cosine_distance_matrix(basis, basis[:, rng.permutation(n)])
    yield "integer", rng.integers(0, 3, (n, n)).astype(np.float64)
    yield "random", rng.random((n, n))


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert cosine_distance([1.0, 0.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_zero_vector_convention(self):
        assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert cosine_distance([1.0, 2.0], [0.0, 0.0]) == 1.0
        assert cosine_distance([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_opposite_vectors_distance_two(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            cosine_distance([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (1, 1), ()])
    def test_not_one_dimensional(self, shape):
        with pytest.raises(ParameterError):
            cosine_distance(np.ones(shape), np.ones(shape))

    def test_tiny_vectors_keep_their_cosine(self):
        # Squares and products of entries below about 1e-154 underflow to 0.
        assert cosine_distance([0.0, 3e-170], [0.0, 3e-170]) == 0.0
        assert cosine_distance([3e-170, 0.0], [0.0, 3e-170]) == 1.0
        d = cosine_distance_matrix(np.array([[3e-170, 0.0], [0.0, 0.0]]),
                                   np.array([[1e-200], [0.0]]))
        np.testing.assert_array_equal(d, [[0.0], [1.0]])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(-900, 900))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_changes_no_bit(self, seed, exponent):
        # Entries stay normal at every scale drawn, so the scaling is exact.
        rng = np.random.default_rng(seed)
        a = rng.uniform(1e-3, 1e3, (6, 3)) * rng.choice([-1.0, 1.0], (6, 3))
        b = rng.uniform(1e-3, 1e3, (6, 4))
        scaled = np.ldexp(a, exponent)
        assert cosine_distance(scaled[:, 0], b[:, 0]) == cosine_distance(a[:, 0], b[:, 0])
        np.testing.assert_array_equal(cosine_distance_matrix(scaled, b),
                                      cosine_distance_matrix(a, b))

    def test_matrix_agrees_with_scalar(self, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 4))
        d = cosine_distance_matrix(a, b)
        for i in range(3):
            for j in range(4):
                assert d[i, j] == pytest.approx(cosine_distance(a[:, i], b[:, j]), abs=1e-12)


class TestAssignmentSolver:
    def test_three_by_three_case(self, rng):
        cost = rng.random((3, 3))
        cols, total = solve_assignment(cost)
        _, expected = brute_force_assignment(cost)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_random_sizes_against_brute_force(self, rng):
        for n in (1, 2, 3, 4, 5, 6, 7, 8):
            for _ in range(8):
                cost = rng.random((n, n))
                cols, total = solve_assignment(cost)
                assert sorted(cols) == list(range(n))
                _, expected = brute_force_assignment(cost)
                assert total == expected

    def test_eight_by_eight(self, rng):
        cost = rng.random((8, 8))
        _, total = solve_assignment(cost)
        _, expected = brute_force_assignment(cost)
        assert total == expected

    def test_negative_costs_allowed(self, rng):
        cost = rng.standard_normal((5, 5))
        _, total = solve_assignment(cost)
        _, expected = brute_force_assignment(cost)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_lexicographic_tie_break(self):
        # Every assignment costs 2: the lexicographically smallest must win.
        cost = np.ones((3, 3)) * 2 / 3
        cols, _ = lexicographic_assignment(cost)
        np.testing.assert_array_equal(cols, [0, 1, 2])

    def test_lexicographic_among_partial_ties(self):
        cost = np.array([
            [1.0, 1.0, 5.0],
            [1.0, 1.0, 5.0],
            [5.0, 5.0, 1.0],
        ])
        cols, total = lexicographic_assignment(cost)
        np.testing.assert_array_equal(cols, [0, 1, 2])
        assert total == pytest.approx(3.0)

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            solve_assignment(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        cost = np.ones((2, 2))
        cost[0, 1] = bad
        with pytest.raises(ParameterError):
            solve_assignment(cost)
        with pytest.raises(ParameterError):
            lexicographic_assignment(cost)

    def test_lexicographic_matches_brute_force_on_tie_heavy_costs(self):
        rng = np.random.default_rng(1)
        kinds = set()
        for n in range(1, 7):
            for _ in range(4):
                for kind, cost in tie_heavy_costs(rng, n):
                    kinds.add(kind)
                    cols, total = lexicographic_assignment(cost)
                    expected_cols, expected_total = brute_force_lexicographic(cost)
                    np.testing.assert_array_equal(cols, expected_cols, err_msg=kind)
                    assert total == pytest.approx(expected_total, rel=1e-12, abs=1e-12)
        assert len(kinds) == 5

    def test_lexicographic_agrees_with_greedy_oracle(self):
        rng = np.random.default_rng(2)
        checked = 0
        for n in range(1, 11):
            for _ in range(5):
                for kind, cost in tie_heavy_costs(rng, n):
                    cols, total = lexicographic_assignment(cost)
                    expected_cols, expected_total = greedy_oracle(cost)
                    np.testing.assert_array_equal(cols, expected_cols, err_msg=kind)
                    assert total == expected_total
                    checked += 1
        assert checked >= 200

    def test_tie_free_match_solves_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        b1 = rng.random((50, 40))
        b2 = rng.random((50, 40))
        expected_cols, expected_total = greedy_oracle(cosine_distance_matrix(b1, b2))
        solves = []
        hungarian = stability._hungarian
        solve = stability.solve_assignment

        def counting_hungarian(cost):
            solves.append("_hungarian")
            return hungarian(cost)

        def counting_solve(cost):
            solves.append("solve_assignment")
            return solve(cost)

        monkeypatch.setattr(stability, "_hungarian", counting_hungarian)
        monkeypatch.setattr(stability, "solve_assignment", counting_solve)
        matching = match_bases(b1, b2)
        assert solves == ["_hungarian"]
        np.testing.assert_array_equal(matching.assignment, expected_cols)
        assert matching.total == expected_total


class TestMatchBases:
    def test_recovers_permutation(self, rng):
        b1 = rng.random((10, 5)) + 0.1
        perm = np.array([3, 0, 4, 1, 2])
        b2 = b1[:, perm]
        matching = match_bases(b1, b2)
        assert matching.total <= 1e-10
        # b2[:, j] = b1[:, perm[j]], so column a of b1 matches column inverse(perm)[a]
        np.testing.assert_array_equal(matching.assignment, np.argsort(perm))

    def test_matches_brute_force_on_bases(self, rng):
        b1 = rng.standard_normal((6, 4))
        b2 = rng.standard_normal((6, 4))
        matching = match_bases(b1, b2)
        cost = cosine_distance_matrix(b1, b2)
        _, expected = brute_force_assignment(cost)
        assert matching.total == expected

    def test_symmetry(self, rng):
        b1 = rng.random((7, 4))
        b2 = rng.random((7, 4))
        forward = match_bases(b1, b2)
        backward = match_bases(b2, b1)
        assert forward.total == pytest.approx(backward.total, abs=1e-12)

    def test_total_beats_random_permutations(self, rng):
        b1 = rng.random((6, 5))
        b2 = rng.random((6, 5))
        matching = match_bases(b1, b2)
        cost = cosine_distance_matrix(b1, b2)
        for _ in range(1000):
            perm = rng.permutation(5)
            assert matching.total <= cost[np.arange(5), perm].sum() + 1e-12

    def test_distances_in_range_and_stats(self, rng):
        b1 = rng.standard_normal((8, 4))
        b2 = rng.standard_normal((8, 4))
        matching = match_bases(b1, b2)
        assert np.all(matching.distances >= 0)
        assert np.all(matching.distances <= 2)
        assert matching.stats["min"] <= matching.stats["median"] <= matching.stats["max"]
        assert matching.stats["mean"] == pytest.approx(matching.distances.mean())

    def test_gauge_invariance_of_matched_distances(self, rng):
        b1 = rng.random((9, 4)) + 0.05
        b2 = rng.random((9, 4)) + 0.05
        base = match_bases(b1, b2)
        scaled = match_bases(b1 * (rng.random(4) * 5 + 0.2), b2 * (rng.random(4) * 5 + 0.2))
        np.testing.assert_allclose(np.sort(scaled.distances), np.sort(base.distances),
                                   atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ParameterError):
            match_bases(rng.random((5, 3)), rng.random((5, 4)))


class TestDistanceHistogram:
    def test_bins_and_overflow(self):
        rows = distance_histogram(np.array([0.0, 0.04, 0.5, 1.0, 1.5]))
        assert len(rows) == 21
        assert rows[0][2] == 2            # 0.0 and 0.04 in [0, 0.05)
        assert rows[10][2] == 1           # 0.5
        assert rows[19][2] == 1           # 1.0 lands in the last regular bin
        assert rows[20] == (1.0, 2.0, 1, 20.0)
        assert sum(r[2] for r in rows) == 5

    def test_percentages_sum_to_100(self, rng):
        rows = distance_histogram(rng.random(40) * 2)
        assert sum(r[3] for r in rows) == pytest.approx(100.0)


class TestStabilityExperiment:
    def test_seed_pair_identical_seeds(self, swimmer):
        matching, (f1, f2) = stability_experiment(
            swimmer, rank=5, mode="seed_pair", seed_a=3, seed_b=3,
            opts=SolverOptions(max_iters=60, rel_tol=1e-12))
        assert matching.total <= 1e-10
        assert matching.to_dict()["total"] <= 1e-10
        assert np.array_equal(f1.basis, f2.basis)

    def test_seed_pair_stats_schema(self, swimmer):
        matching, (f1, f2) = stability_experiment(
            swimmer, rank=6, mode="seed_pair", seed_a=0, seed_b=1,
            opts=SolverOptions(max_iters=120, rel_tol=1e-10))
        assert set(matching.stats) == {"mean", "median", "max", "min"}
        assert len(distance_histogram(matching.distances)) == 21
        # Both fits are of the full matrix, one per seed.
        assert (f1.seed, f2.seed) == (0, 1)
        assert f1.weights.shape == f2.weights.shape == (6, swimmer.n_images)

    def test_seed_pair_solves_both_seeds_as_one_stack(self, swimmer, monkeypatch):
        calls = []
        original = stability.factorize_seeds

        def counting(m, rank, seeds, *args, **kwargs):
            calls.append((rank, tuple(seeds)))
            return original(m, rank, seeds, *args, **kwargs)

        monkeypatch.setattr(stability, "factorize_seeds", counting)
        monkeypatch.setattr(stability, "factorize", lambda *a, **k: pytest.fail("one-seed fit"))
        opts = SolverOptions(max_iters=40)
        _, fits = stability_experiment(swimmer, rank=5, mode="seed_pair", seed_a=4, seed_b=2,
                                       opts=opts)
        assert calls == [(5, (4, 2))]
        for f, seed in zip(fits, (4, 2)):
            assert np.array_equal(f.basis, factorize(swimmer, 5, seed=seed, opts=opts).basis)

    def test_noise_split_protocol(self, swimmer):
        opts = SolverOptions(max_iters=150, rel_tol=1e-10)
        matching, (f1, f2) = stability_experiment(
            swimmer, rank=8, mode="noise_split", xi=0.25, seed_a=0, seed_b=7, opts=opts)
        assert len(matching.distances) == 8
        assert np.all(matching.distances >= -1e-12)
        assert np.all(matching.distances <= 2.0)
        # The second half carries flip noise at xi=0.25 from the seed_b stream.
        half = swimmer.n_images // 2
        noisy = apply_flip_noise(swimmer.replace_values(swimmer.values[:, half:]), 0.25, seed=7)
        expected = factorize(noisy, 8, seed=0, opts=opts)
        assert np.array_equal(f2.basis, expected.basis)
        assert f1.weights.shape == (8, half)

    def test_seed_pair_median_below_max_image_distance(self, swimmer):
        # Two seeds at the mid-range rank give bases whose matched distances
        # stay well inside the dataset's own spread.
        matching, _ = stability_experiment(
            swimmer, rank=14, mode="seed_pair", seed_a=0, seed_b=1,
            opts=SolverOptions(max_iters=400, rel_tol=1e-9))
        max_image_distance = cosine_distance_matrix(swimmer.values, swimmer.values).max()
        assert matching.stats["median"] < max_image_distance

    def test_noise_split_requires_even_images(self, swimmer):
        odd = swimmer.replace_values(swimmer.values[:, :255])
        with pytest.raises(ParameterError):
            stability_experiment(odd, rank=4, mode="noise_split", xi=0.1)

    def test_unknown_mode(self, swimmer):
        with pytest.raises(ParameterError):
            stability_experiment(swimmer, rank=4, mode="bogus")

    @pytest.mark.parametrize("xi", [float("nan"), float("inf"), -0.5, 7.0])
    @pytest.mark.parametrize("mode", ["seed_pair", "noise_split"])
    def test_xi_outside_unit_interval_rejected_before_any_fit(self, swimmer, monkeypatch,
                                                              mode, xi):
        # seed_pair adds no noise, and used to accept any xi, NaN included.
        monkeypatch.setattr(stability, "factorize", lambda *a, **k: pytest.fail("fit ran"))
        monkeypatch.setattr(stability, "factorize_seeds",
                            lambda *a, **k: pytest.fail("fit ran"))
        with pytest.raises(ParameterError, match=r"xi must lie in \[0, 1\]"):
            stability_experiment(swimmer, rank=4, mode=mode, xi=xi)
