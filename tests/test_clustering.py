import json

import numpy as np
import pytest

from pccnmf import (DataMatrix, ParameterError, SolverOptions, derive_pcc,
                    export_cluster_montage, factorize, load_matrix, natural_clusters)
from conftest import make_factorization


def block_mixture():
    """Two components with disjoint image supports: membership is unambiguous."""
    cond = np.array([[0.6, 0.0], [0.4, 0.1], [0.0, 0.9]])
    mix = np.array([[0.25, 0.35, 0.0, 0.0], [0.0, 0.0, 0.15, 0.25]])
    m = DataMatrix(cond @ mix)
    return m, make_factorization(cond, mix)


class TestNaturalClusters:
    def test_block_mixture_membership(self):
        m, f = block_mixture()
        report = natural_clusters(derive_pcc(m, f), k=2)
        by_basis = {c.basis: {mem.image for mem in c.members} for c in report.clusters}
        assert by_basis[0] == {0, 1}
        assert by_basis[1] == {2, 3}

    def test_members_satisfy_strict_positivity(self):
        m, f = block_mixture()
        pcc = derive_pcc(m, f)
        report = natural_clusters(pcc, k=3, require_positive=True)
        for cluster in report.clusters:
            for member in cluster.members:
                assert member.p_image_given_basis - member.p_image > 0

    def test_rank_one_positivity_empties_clusters(self):
        # Exact rank-1 model (power-of-two entries keep the arithmetic exact):
        # p(i|b) equals p(i) for every image, so the strict filter drops all.
        u = np.array([0.5, 0.25, 0.125, 0.125])
        w = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.03125])
        m = DataMatrix(np.outer(u, w))
        pcc = derive_pcc(m, make_factorization(u[:, None], w[None, :]))
        np.testing.assert_array_equal(pcc.cond_image_given_basis[0], pcc.marg_image)
        with pytest.warns(UserWarning, match="qualify"):
            report = natural_clusters(pcc, k=2, require_positive=True)
        assert all(len(c.members) == 0 for c in report.clusters)

    def test_bases_ordered_by_descending_prior(self, swimmer):
        f = factorize(swimmer, 6, seed=0, opts=SolverOptions(max_iters=150, rel_tol=1e-10))
        report = natural_clusters(derive_pcc(swimmer, f), k=3)
        priors = [c.prior for c in report.clusters]
        assert priors == sorted(priors, reverse=True)

    def test_members_sorted_and_deterministic(self, swimmer):
        f = factorize(swimmer, 6, seed=1, opts=SolverOptions(max_iters=150, rel_tol=1e-10))
        pcc = derive_pcc(swimmer, f)
        a = natural_clusters(pcc, k=4)
        b = natural_clusters(pcc, k=4)
        assert a == b
        for cluster in a.clusters:
            scores = [m.p_image_given_basis for m in cluster.members]
            assert scores == sorted(scores, reverse=True)

    def test_overlap_allowed_without_positivity(self):
        m, f = block_mixture()
        report = natural_clusters(derive_pcc(m, f), k=4, require_positive=False)
        assert all(len(c.members) == 4 for c in report.clusters)

    def test_k_validation(self):
        m, f = block_mixture()
        with pytest.raises(ParameterError):
            natural_clusters(derive_pcc(m, f), k=0)

    def test_swimmer_members_share_basis_support(self, swimmer):
        # Each cluster member must light up the pixels its basis weights most.
        f = factorize(swimmer, 14, seed=0, opts=SolverOptions(max_iters=400, rel_tol=1e-9))
        pcc = derive_pcc(swimmer, f)
        report = natural_clusters(pcc, k=5)
        for cluster in report.clusters:
            top_pixels = np.argsort(-f.basis[:, cluster.basis])[:3]
            for member in cluster.members:
                assert swimmer.values[top_pixels, member.image].max() == 1.0


class TestMontage:
    def test_one_strip_per_basis(self, tmp_path, swimmer):
        f = factorize(swimmer, 14, seed=0, opts=SolverOptions(max_iters=100, rel_tol=1e-10))
        report = natural_clusters(derive_pcc(swimmer, f), k=2)
        written = export_cluster_montage(report, swimmer, f, tmp_path)
        assert len(written) == 14
        index = json.loads((tmp_path / "index.json").read_text())
        assert len(index) == 14
        assert all("p_image_given_basis" in m for entry in index for m in entry["members"])

    def test_round_trip_quantization(self, tmp_path):
        m, f = block_mixture()
        m = DataMatrix(m.values, pixel_shape=(3, 1))
        report = natural_clusters(derive_pcc(m, f), k=2)
        export_cluster_montage(report, m, f, tmp_path)
        strips = sorted(tmp_path.glob("*.pgm"))
        assert strips
        loaded = load_matrix(tmp_path)
        # 8-bit round trip: reingested columns match the rendered panels to 1/255
        first = report.clusters[0]
        rendered = m.values[:, first.members[0].image]
        strip_pixels = loaded.values[:, 0].reshape(3, -1)
        member_panel = strip_pixels[:, 1] / 255.0
        np.testing.assert_allclose(member_panel, rendered, atol=1.0 / 255.0 + 1e-9)

    def test_missing_pixel_shape_rejected(self, tmp_path):
        m, f = block_mixture()
        report = natural_clusters(derive_pcc(m, f), k=1)
        with pytest.raises(ParameterError):
            export_cluster_montage(report, m, f, tmp_path)
