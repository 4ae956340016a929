import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccnmf import (DataMatrix, FormatError, ParameterError, apply_flip_noise, binarize,
                    generate_swimmer, load_matrix, rescale, save_matrix, swimmer_parts)


class TestDataMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ParameterError, match="negative"):
            DataMatrix([[1.0, -1.0]])

    def test_rejects_unit_scale_overflow(self):
        with pytest.raises(ParameterError, match="exceed"):
            DataMatrix([[1.5]], scale="unit")
        DataMatrix([[1.5]], scale="raw255")  # fine on the 8-bit scale

    def test_rejects_bad_pixel_shape(self):
        with pytest.raises(ParameterError, match="pixel_shape"):
            DataMatrix(np.ones((4, 2)), pixel_shape=(3, 3))

    def test_values_are_frozen(self):
        m = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


class TestSwimmer:
    def test_shape_and_binary(self, swimmer):
        assert swimmer.values.shape == (169, 256)
        assert swimmer.pixel_shape == (13, 13)
        assert set(np.unique(swimmer.values)) == {0.0, 1.0}

    def test_backbone_shared_by_all_images(self, swimmer):
        basis, _ = swimmer_parts()
        backbone = basis[:, 0] > 0
        assert np.all(swimmer.values[backbone, :] == 1.0)

    def test_parts_pairwise_disjoint(self):
        basis, _ = swimmer_parts()
        supports = [set(np.flatnonzero(basis[:, j])) for j in range(17)]
        for a in range(17):
            for b in range(a + 1, 17):
                assert not supports[a] & supports[b]

    def test_exact_17_part_factorization(self, swimmer):
        # Explicit multiplication of the constructed parts reproduces the data.
        basis, weights = swimmer_parts()
        recon = basis @ weights
        assert np.array_equal(recon, swimmer.values)
        assert float(np.sum((recon - swimmer.values) ** 2)) == 0.0

    def test_deterministic(self, swimmer):
        again = generate_swimmer()
        assert np.array_equal(again.values, swimmer.values)

    def test_images_distinct(self, swimmer):
        assert len({tuple(col) for col in swimmer.values.T}) == 256


class TestCsvIO:
    def test_parse_small(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0,1\n2,3\n4,5\n")
        m = load_matrix(p)
        assert m.values.shape == (3, 2)
        assert m.scale == "raw255"
        np.testing.assert_array_equal(m.values, [[0, 1], [2, 3], [4, 5]])

    def test_negative_entry_located(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0,1\n2,-1\n")
        with pytest.raises(FormatError, match="row 1, column 1"):
            load_matrix(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0,1\n2\n")
        with pytest.raises(FormatError, match="row 1"):
            load_matrix(p)

    def test_round_trip_exact(self, tmp_path, rng):
        m = DataMatrix(rng.random((7, 5)))
        save_matrix(m, tmp_path / "m.csv", source="test")
        back = load_matrix(tmp_path / "m.csv")
        assert np.array_equal(back.values, m.values)

    def test_swimmer_round_trip_with_sidecar(self, tmp_path, swimmer):
        import json
        save_matrix(swimmer, tmp_path / "sw.csv", source="swimmer", seed=None, xi=None)
        back = load_matrix(tmp_path / "sw.csv")
        assert np.array_equal(back.values, swimmer.values)
        sidecar = json.loads((tmp_path / "sw.csv.json").read_text())
        assert sidecar["rows"] == 169 and sidecar["cols"] == 256
        assert sidecar["scale"] == "unit"


class TestPgmDir:
    def test_two_p2_images(self, tmp_path):
        (tmp_path / "a.pgm").write_text("P2\n2 2\n255\n0 64\n128 255\n")
        (tmp_path / "b.pgm").write_text("P2\n2 2\n255\n1 2\n3 4\n")
        m = load_matrix(tmp_path, format="pgm_dir")
        assert m.values.shape == (4, 2)
        assert m.pixel_shape == (2, 2)
        np.testing.assert_array_equal(m.values[:, 0], [0, 64, 128, 255])
        np.testing.assert_array_equal(m.values[:, 1], [1, 2, 3, 4])

    def test_p5_binary(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 10, 20, 30]))
        m = load_matrix(tmp_path, format="pgm_dir")
        np.testing.assert_array_equal(m.values[:, 0], [0, 10, 20, 30])

    def test_inconsistent_sizes_rejected(self, tmp_path):
        (tmp_path / "a.pgm").write_text("P2\n2 2\n255\n0 0\n0 0\n")
        (tmp_path / "b.pgm").write_text("P2\n3 1\n255\n0 0 0\n")
        with pytest.raises(FormatError, match="differs"):
            load_matrix(tmp_path, format="pgm_dir")


class TestRescale:
    def test_endpoints(self):
        m = DataMatrix([[255.0, 0.0, 51.0]], scale="raw255")
        out = rescale(m)
        np.testing.assert_allclose(out.values, [[1.0, 0.0, 0.2]])
        assert out.scale == "unit"

    def test_noop_with_warning(self):
        m = DataMatrix([[0.5]])
        with pytest.warns(UserWarning, match="no-op"):
            out = rescale(m)
        assert out is m


class TestFlipNoise:
    def test_xi_zero_identity(self, swimmer):
        out = apply_flip_noise(swimmer, 0.0, seed=3)
        assert np.array_equal(out.values, swimmer.values)

    def test_xi_one_flips_everything(self, swimmer):
        out = apply_flip_noise(swimmer, 1.0, seed=3)
        assert np.array_equal(out.values, 1.0 - swimmer.values)

    def test_flip_fraction_binomial(self, swimmer):
        # Oracle: flipped-entry count within 3 binomial standard deviations.
        out = apply_flip_noise(swimmer, 0.25, seed=11)
        flips = int((out.values != swimmer.values).sum())
        n = 169 * 256
        assert abs(flips - 0.25 * n) <= 3 * np.sqrt(n * 0.25 * 0.75)

    def test_deterministic_for_seed(self, swimmer):
        a = apply_flip_noise(swimmer, 0.3, seed=5)
        b = apply_flip_noise(swimmer, 0.3, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_same_seed_twice_is_involution_on_binary(self, swimmer):
        # The same seed flips the same entries, undoing itself on binary data.
        once = apply_flip_noise(swimmer, 0.4, seed=9)
        twice = apply_flip_noise(once, 0.4, seed=9)
        assert np.array_equal(twice.values, swimmer.values)

    def test_xi_out_of_range(self, swimmer):
        with pytest.raises(ParameterError):
            apply_flip_noise(swimmer, 1.5, seed=0)

    def test_requires_unit_scale(self):
        m = DataMatrix([[2.0]], scale="raw255")
        with pytest.raises(ParameterError):
            apply_flip_noise(m, 0.1, seed=0)


class TestBinarize:
    def test_threshold(self):
        m = DataMatrix([[0.5, 0.49, 1.0, 0.0]])
        np.testing.assert_array_equal(binarize(m).values, [[1, 0, 1, 0]])

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, entries):
        m = DataMatrix(np.array(entries)[None, :])
        once = binarize(m)
        assert np.array_equal(binarize(once).values, once.values)
        assert set(np.unique(once.values)) <= {0.0, 1.0}
