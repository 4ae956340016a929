"""Denoise by factorizing the corrupted matrix and keeping the reconstruction.

A rank qualifies when (almost) every clean image is cosine-closer to the
reconstruction of its noisy version than to the noisy version itself. On
Swimmer with strong flip noise the condition holds from rank 1 across the
whole desk-scale sweep; the nearest-neighbor accuracy shows how much of the
identity survives, for the factorization and for a truncated-SVD baseline.

    python3 demos/07_denoising.py        (a few minutes)
"""

from pccnmf import SolverOptions, apply_flip_noise, find_r_range, generate_swimmer


def main():
    swimmer = generate_swimmer()
    noisy = apply_flip_noise(swimmer, xi=0.25, seed=0)
    opts = SolverOptions(max_iters=800, rel_tol=1e-7)

    report = find_r_range(swimmer, noisy, range(1, 41), exclusions=2,
                          seeds=(0, 1), opts=opts, xi=0.25)
    print(f"qualifying rank band: r1={report.r1}, r2={report.r2} "
          f"(exclusions={report.exclusions})")
    print("violations by rank:",
          {e.rank: e.violations for e in report.entries if e.violations})

    ac = find_r_range(swimmer, noisy, range(5, 41, 5), seeds=(0, 1), opts=opts, xi=0.25,
                      svd_baseline=True)
    curves = ac.ac_curves()
    baseline = 1.0 / swimmer.n_images
    print(f"\nnearest-neighbor accuracy (random baseline {baseline:.4f}):")
    print("   R   factorization   truncated SVD")
    for i, rank in enumerate(ac.ranks):
        print(f"  {rank:2d}   {curves['ac_nmf'][i]:.3f}          {curves['ac_svd'][i]:.3f}")


if __name__ == "__main__":
    main()
