"""How stable are the learned basis images?

Factorize two related views of the data (two noise halves, or two seeds on
the same data), optimally pair the two basis sets by cosine distance, and
look at the matched-distance distribution. Stability is best around the
effective rank and degrades for much larger ranks.

    python3 demos/05_basis_stability.py
"""

from pccnmf import SolverOptions, distance_histogram, generate_swimmer, stability_experiment


def print_histogram(rows):
    for lo, hi, count, pct in rows:
        if count:
            print(f"  [{lo:4.2f}, {hi:4.2f}]  {'*' * count}  ({pct:.0f}%)")


def main():
    swimmer = generate_swimmer()
    opts = SolverOptions(max_iters=600, rel_tol=1e-8)

    print("seed-pair stability on the full matrix:")
    for rank in (14, 30):
        matching, _ = stability_experiment(swimmer, rank=rank, mode="seed_pair",
                                           seed_a=0, seed_b=1, opts=opts)
        s = matching.stats
        print(f"  R={rank:2d}  mean={s['mean']:.4f} median={s['median']:.4f} "
              f"max={s['max']:.4f} min={s['min']:.4f}")

    print("\nnoise-split stability (xi=0.25 on the second half), R=14:")
    matching, _ = stability_experiment(swimmer, rank=14, mode="noise_split",
                                       xi=0.25, seed_a=0, seed_b=7, opts=opts)
    print_histogram(distance_histogram(matching.distances))
    print(f"  stats: {matching.stats}")


if __name__ == "__main__":
    main()
