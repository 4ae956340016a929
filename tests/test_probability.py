import json

import numpy as np
import pytest

from pccnmf import (DataMatrix, DegenerateInputError, SolverOptions,
                    derive_pcc, export_pcc, factorize, gauge_transform, marginal_residuals,
                    pcc_summary, to_joint)
from conftest import make_factorization, random_mixture


class TestToJoint:
    def test_uniform(self):
        jm = to_joint(DataMatrix([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(jm.joint, 0.25)
        np.testing.assert_allclose(jm.marg_pixel, 0.5)
        np.testing.assert_allclose(jm.marg_image, 0.5)
        assert jm.total == 4.0

    def test_diagonal(self):
        jm = to_joint(DataMatrix([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(jm.joint, [[0.5, 0.0], [0.0, 0.5]])

    def test_scale_invariant(self, rng):
        values = rng.random((4, 3))
        a = to_joint(DataMatrix(values))
        b = to_joint(DataMatrix(values * 17.0))
        np.testing.assert_allclose(a.joint, b.joint, atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            to_joint(DataMatrix(np.zeros((2, 2))))

    def test_swimmer_backbone_marginal_is_strict_max(self, swimmer):
        # Direct count: backbone pixels appear in all 256 images, any limb
        # pixel in exactly 64, so the marginal peaks strictly on the backbone.
        jm = to_joint(swimmer)
        counts = swimmer.values.sum(axis=1)
        backbone = counts == 256
        assert backbone.any()
        assert jm.marg_pixel[backbone].min() > jm.marg_pixel[~backbone].max()


class TestDerivePcc:
    def test_invariant_block(self, swimmer):
        f = factorize(swimmer, 7, seed=0, opts=SolverOptions(max_iters=80, rel_tol=1e-12))
        pcc = derive_pcc(swimmer, f)
        np.testing.assert_allclose(pcc.cond_pixel_given_basis.sum(axis=0), 1.0, atol=1e-10)
        assert abs(pcc.joint_basis_image.sum() - 1.0) <= 1e-10
        np.testing.assert_allclose(
            pcc.approx_joint, pcc.cond_pixel_given_basis @ pcc.joint_basis_image, atol=1e-10)
        np.testing.assert_allclose(pcc.basis_prior, pcc.joint_basis_image.sum(axis=1),
                                   atol=1e-12)
        live = pcc.basis_prior > 0
        np.testing.assert_allclose(
            pcc.cond_image_given_basis[live],
            pcc.joint_basis_image[live] / pcc.basis_prior[live, None], atol=1e-12)

    def test_per_image_mass_identity(self, swimmer):
        # Column sums of the mixture joint equal the component-joint column sums.
        f = factorize(swimmer, 5, seed=1, opts=SolverOptions(max_iters=60, rel_tol=1e-12))
        pcc = derive_pcc(swimmer, f)
        np.testing.assert_allclose(pcc.approx_joint.sum(axis=0),
                                   pcc.joint_basis_image.sum(axis=0), atol=1e-10)

    def test_gauge_invariance(self, swimmer, rng):
        f = factorize(swimmer, 6, seed=2, opts=SolverOptions(max_iters=60, rel_tol=1e-12))
        pcc = derive_pcc(swimmer, f)
        kappa = rng.random(6) * 9 + 0.1
        pcc_g = derive_pcc(swimmer, gauge_transform(f, kappa))
        for name in ("cond_pixel_given_basis", "joint_basis_image", "basis_prior",
                     "cond_image_given_basis", "approx_cond", "approx_joint"):
            np.testing.assert_allclose(getattr(pcc_g, name), getattr(pcc, name),
                                       atol=1e-12, err_msg=name)

    def test_single_column_scaled_by_seven(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 3)
        f = make_factorization(basis, weights)
        kappa = np.ones(3)
        kappa[1] = 7.0
        g = make_factorization(basis * kappa, weights / kappa[:, None])
        a, b = derive_pcc(m, f), derive_pcc(m, g)
        np.testing.assert_allclose(b.approx_cond, a.approx_cond, atol=1e-12)
        np.testing.assert_allclose(b.joint_basis_image, a.joint_basis_image, atol=1e-12)

    def test_rank_one_mixture_is_product_of_marginals(self, rng):
        # A converged rank-1 model factors the joint into its marginals.
        m, _, _ = random_mixture(rng, 6, 5, 3)
        f = factorize(m, 1, loss="kl", seed=0, opts=SolverOptions(max_iters=4000, rel_tol=1e-13))
        pcc = derive_pcc(m, f)
        jm = to_joint(m)
        product = np.outer(jm.marg_pixel, jm.marg_image)
        np.testing.assert_allclose(pcc.approx_joint, product, atol=1e-6)

    def test_exact_mixture_recovered_up_to_permutation(self, rng):
        # Build a 3x3 mixture with an anchor pixel and an anchor image per
        # component (which makes the exact factorization unique up to
        # permutation), factorize to near-zero loss, and compare the derived
        # conditionals after the best permutation alignment.
        cond = np.array([[0.7, 0.0], [0.3, 0.4], [0.0, 0.6]])
        mix = np.array([[0.35, 0.1, 0.0], [0.0, 0.25, 0.3]])
        m = DataMatrix(cond @ mix)
        best = None
        for seed in range(10):
            f = factorize(m, 2, seed=seed, opts=SolverOptions(max_iters=20000, rel_tol=1e-15))
            err = np.sum((f.reconstruct() - m.values) ** 2)
            if best is None or err < best[0]:
                best = (err, f)
        err, f = best
        assert err <= 1e-10
        pcc = derive_pcc(m, f)
        per_perm = []
        for perm in ((0, 1), (1, 0)):
            d_cond = np.abs(pcc.cond_pixel_given_basis[:, perm] - cond).max()
            d_mix = np.abs(pcc.joint_basis_image[perm, :] - mix).max()
            per_perm.append(max(d_cond, d_mix))
        assert min(per_perm) <= 1e-4

    def test_zero_mass_basis_column_dropped(self, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        padded_basis = np.column_stack([basis, np.zeros(4)])
        padded_weights = np.vstack([weights, np.ones(5)])
        f = make_factorization(padded_basis, padded_weights)
        with pytest.warns(UserWarning, match="zero-mass"):
            pcc = derive_pcc(m, f)
        assert pcc.rank == 2

    def test_empty_image_column_rejected(self):
        m = DataMatrix([[1.0, 0.0], [1.0, 0.0]])
        f = make_factorization(np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(DegenerateInputError, match="column 1"):
            derive_pcc(m, f)


class TestPccExport:
    def test_summary_fields_and_values(self, rng):
        m, basis, weights = random_mixture(rng, 5, 6, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        summary = pcc_summary(pcc)
        assert summary["rank"] == 2
        assert len(summary["basis_prior"]) == 2
        assert len(summary["image_entropy"]) == 6
        # uniform-free sanity: entropies bounded by log of the support size
        assert all(0 <= s <= np.log(5) + 1e-12 for s in summary["basis_entropy"])
        assert sum(summary["basis_prior"]) == pytest.approx(1.0)

    def test_export_round_trip(self, tmp_path, rng):
        m, basis, weights = random_mixture(rng, 4, 5, 2)
        pcc = derive_pcc(m, make_factorization(basis, weights))
        export_pcc(pcc, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rank"] == 2
        loaded = np.loadtxt(tmp_path / "approx_joint.csv", delimiter=",", ndmin=2)
        np.testing.assert_array_equal(loaded, pcc.approx_joint)


class TestMarginalResiduals:
    def test_exact_factorization_zero(self, rng):
        m, basis, weights = random_mixture(rng, 4, 6, 2)
        assert marginal_residuals(m, make_factorization(basis, weights)) == (0.0, 0.0)

    def test_kl_converged_conserves_marginals(self, swimmer):
        f = factorize(swimmer, 10, loss="kl", seed=0,
                      opts=SolverOptions(max_iters=6000, rel_tol=1e-10))
        assert f.converged
        row, col = marginal_residuals(swimmer, f)
        assert row <= 1e-4
        assert col <= 1e-4

    def test_frobenius_residuals_reported(self, swimmer):
        f = factorize(swimmer, 10, seed=0, opts=SolverOptions(max_iters=400, rel_tol=1e-9))
        row, col = marginal_residuals(swimmer, f)
        # Frobenius runs respect the marginals only approximately: finite, small-ish.
        assert 0 < row < 0.5
        assert 0 < col < 0.5
