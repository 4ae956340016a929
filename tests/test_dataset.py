import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pccnmf import (DataMatrix, FormatError, ParameterError, apply_flip_noise, binarize,
                    generate_swimmer, load_matrix, rescale, save_matrix, swimmer_parts)
from pccnmf.dataset import write_rows
from pccnmf.pgm import read_pgm, write_pgm


class TestDataMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ParameterError, match="negative"):
            DataMatrix([[1.0, -1.0]])

    def test_rejects_entries_above_255(self):
        with pytest.raises(ParameterError, match="entries exceed 255 for scale=raw255"):
            DataMatrix([[0.5, 255.5]])
        assert DataMatrix([[1.5]]).scale == "raw255"  # fine on the 8-bit scale

    def test_rejects_bad_pixel_shape(self):
        with pytest.raises(ParameterError, match="pixel_shape"):
            DataMatrix(np.ones((4, 2)), pixel_shape=(3, 3))

    @pytest.mark.parametrize("shape", [(-13, -13), (-1, -169), (0, 5)])
    def test_rejects_pixel_shape_entry_below_1(self, shape):
        # (-13, -13) multiplies out to the 169 pixels and used to pass.
        with pytest.raises(ParameterError, match="below 1"):
            DataMatrix(np.ones((169, 2)), pixel_shape=shape)

    @pytest.mark.parametrize("shape", [(2.5, 2.4), (2.0, 3), (True, 6), (2, "3")])
    def test_rejects_non_integer_pixel_shape(self, shape):
        # (2.5, 2.4) multiplies out to the 6 pixels and used to reach the montage reshape.
        with pytest.raises(ParameterError, match="non-integer"):
            DataMatrix(np.ones((6, 2)), pixel_shape=shape)

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 3), 6])
    def test_rejects_pixel_shape_without_two_entries(self, shape):
        with pytest.raises(ParameterError, match="two entries"):
            DataMatrix(np.ones((6, 2)), pixel_shape=shape)

    def test_pixel_shape_is_stored_as_a_tuple(self):
        assert DataMatrix(np.ones((6, 2)), pixel_shape=[2, 3]).pixel_shape == (2, 3)

    def test_accepts_numpy_integer_pixel_shape(self):
        m = DataMatrix(np.ones((6, 2)), pixel_shape=(np.int64(2), np.int32(3)))
        assert m.pixel_shape == (2, 3)

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

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([1.0, 255.0, 5e-324, 1e-300]))
    @settings(max_examples=40, deadline=None)
    def test_save_load_round_trip_bit_for_bit(self, tmp_path_factory, seed, rows, cols, scale):
        values = np.random.default_rng(seed).random((rows, cols)) * scale
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        m = DataMatrix(values)
        save_matrix(m, path)
        assert load_matrix(path).values.tobytes() == m.values.tobytes()

    def test_parses_as_python_float(self, tmp_path):
        # Underscores, surrounding whitespace, CRLF line ends and trailing blank
        # lines are accepted, as float() and str.splitlines() accept them.
        p = tmp_path / "m.csv"
        p.write_bytes(b"1_0, 0.5 ,\t2e-1\r\n.25,3.,1e+2\n\n  \n")
        np.testing.assert_array_equal(load_matrix(p).values,
                                      [[10.0, 0.5, 0.2], [0.25, 3.0, 100.0]])

    @pytest.mark.parametrize("text, match", [
        ("", "empty file"),
        ("\n  \n", "empty file"),
        ("0,1\n\n2,3\n", "row 1 has 1 columns, expected 2"),
        ("0,1\n2,x\n", "row 1, column 1: not a number: 'x'"),
        ("0,1\n2,\n", "row 1, column 1: not a number: ''"),
        ("0,1,2\n3,-4,5\n", "row 1, column 1: negative entry -4"),
        ("0,1,2\n3,4,nan\n", r"row 1, column 2: entry nan is not in \[0, 255\]"),
        ("0,inf,2\n3,4,-inf\n", r"row 0, column 1: entry inf is not in \[0, 255\]"),
        ("0,1,255\n256,4,5\n", r"row 1, column 0: entry 256 is not in \[0, 255\]"),
    ], ids=["empty", "blank-only", "interior-blank-line", "non-number", "empty-cell",
            "negative", "nan", "inf", "above-255"])
    def test_malformed_csv_rejected(self, tmp_path, text, match):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=match) as exc:
            load_matrix(p)
        assert str(p) in str(exc.value)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"0,1\n\xff\xfe,2\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_matrix(p)

    @pytest.mark.parametrize("rows", [
        np.array([[0.1, 5e-324, -0.0], [np.nan, np.inf, 1e300]]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([[True, False]]),
        np.asfortranarray(np.random.default_rng(12).random((3, 4))),
        [(3, 0.25, np.float64(1 / 3), True, float("nan")), (np.int64(7), 2.0, 1e-17, False, 0)],
    ], ids=["special-floats", "int64", "bool", "fortran-order", "mixed-row-tuples"])
    def test_write_rows_bytes(self, tmp_path, rows):
        # Python ints take %r and everything else %.17g, value by value; an
        # ndarray's entries are numpy scalars, never Python ints.
        want = "h,x\n" + "".join(
            ",".join("%r" % v if isinstance(v, int) else "%.17g" % v for v in row) + "\n"
            for row in rows)
        write_rows(tmp_path / "t.csv", rows, ["h", "x"])
        assert (tmp_path / "t.csv").read_text() == want

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
        m = load_matrix(tmp_path)
        assert m.values.shape == (4, 2)
        assert m.pixel_shape == (2, 2)
        np.testing.assert_array_equal(m.values[:, 0], [0, 64, 128, 255])
        np.testing.assert_array_equal(m.values[:, 1], [1, 2, 3, 4])

    def test_p5_binary(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 10, 20, 30]))
        m = load_matrix(tmp_path)
        np.testing.assert_array_equal(m.values[:, 0], [0, 10, 20, 30])

    def test_write_read_round_trip_with_comments(self, tmp_path):
        image = np.random.default_rng(3).integers(0, 256, size=(4, 7)).astype(np.float64)
        plain = tmp_path / "plain.pgm"
        write_pgm(plain, image)
        np.testing.assert_array_equal(read_pgm(plain), image)
        # The same header with a comment between every two tokens.
        magic, size, maxval, *raster = plain.read_text().split("\n")
        width, height = size.split()
        commented = tmp_path / "commented.pgm"
        commented.write_text(f"{magic}# plain\n{width}#w\n# two\n{height} #h\n"
                             f"#max\n{maxval}\n" + "\n".join(raster))
        np.testing.assert_array_equal(read_pgm(commented), image)

    def test_p5_with_header_comments(self, tmp_path):
        image = np.random.default_rng(4).integers(0, 256, size=(3, 5))
        p = tmp_path / "a.pgm"
        header = b"P5 # binary\n5 3\n# samples below\n255\n"
        p.write_bytes(header + image.astype(np.uint8).tobytes())
        np.testing.assert_array_equal(read_pgm(p), image)
        m = load_matrix(tmp_path)
        assert m.pixel_shape == (3, 5)
        np.testing.assert_array_equal(m.values[:, 0], image.reshape(-1))

    def test_inconsistent_sizes_rejected(self, tmp_path):
        (tmp_path / "a.pgm").write_text("P2\n2 2\n255\n0 0\n0 0\n")
        (tmp_path / "b.pgm").write_text("P2\n3 1\n255\n0 0 0\n")
        with pytest.raises(FormatError, match="differs"):
            load_matrix(tmp_path)

    @pytest.mark.parametrize("data, message", [
        (b"", "empty file"),
        (b"# only a comment\n", "empty file"),
        (b"P3\n1 1\n255\n0\n", "unsupported magic"),
        (b"P2\n2\n", "malformed header"),
        (b"P2\nx 1\n255\n0\n", "malformed header"),
        (b"P2\n0 1\n255\n", "bad dimensions or maxval"),
        (b"P2\n1 1\n0\n0\n", "bad dimensions or maxval"),
        (b"P2\n1 1\n65536\n0\n", "bad dimensions or maxval"),
        (b"P2\n2 1\n255\n1 x\n", "non-integer sample b'x' at byte 13"),
        (b"P2\n2 1\n255\n1\n", "expected 2 samples, found 1"),
        (b"P2\n2 1\n255\n1 2 3\n", "expected 2 samples, found 3"),
        (b"P5\n2 2\n255\n\x01\x02", r"raster truncated \(2 of 4 bytes\)"),
        (b"P5\n2 1\n65535\n\x00\x01\x00", "maxval 65535 is above 255"),
        (b"P2\n2 1\n10\n5 11\n", "sample exceeds maxval 10"),
        (b"P5\n1 1\n10\n\x0b", "sample exceeds maxval 10"),
    ], ids=["empty", "comment-only", "bad-magic", "short-header", "non-integer-width",
            "zero-width", "zero-maxval", "maxval-too-large", "non-integer-sample",
            "too-few-samples", "too-many-samples", "truncated-8-bit", "16-bit-maxval",
            "p2-above-maxval", "p5-above-maxval"])
    def test_malformed_file_rejected(self, tmp_path, data, message):
        (tmp_path / "a.pgm").write_bytes(data)
        with pytest.raises(FormatError, match=message) as exc:
            load_matrix(tmp_path)
        assert "a.pgm" in str(exc.value)

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_16_bit_twins_rejected(self, tmp_path, magic):
        # Every sample is at most 255, so a reader that ignored the maxval would
        # take these 16-bit images for 8-bit ones.
        samples = [0, 7, 200, 255, 128, 1]
        raster = (" ".join(map(str, samples)).encode() + b"\n" if magic == "P2"
                  else np.array(samples, dtype=">u2").tobytes())
        (tmp_path / "a.pgm").write_bytes(f"{magic}\n3 2\n65535\n".encode() + raster)
        with pytest.raises(FormatError, match="maxval 65535 is above 255") as exc:
            load_matrix(tmp_path)
        assert "a.pgm" in str(exc.value)

    def test_write_rejects_non_2d_image(self, tmp_path):
        with pytest.raises(FormatError, match="2-d"):
            write_pgm(tmp_path / "a.pgm", np.zeros(4))
        assert not (tmp_path / "a.pgm").exists()


# Entries on either scale, with the boundary at 1 and its neighbours drawn often.
ENTRIES = st.one_of(st.floats(0.0, 255.0),
                    st.sampled_from([0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0,
                                     np.nextafter(1.0, 2.0), 255.0]))
MATRICES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                      elements=ENTRIES)


class TestScaleRule:
    """The scale follows from the values: raw255 exactly when an entry exceeds 1."""

    @given(MATRICES)
    @settings(max_examples=100, deadline=None)
    def test_scale_follows_the_peak(self, values):
        assert DataMatrix(values).scale == ("raw255" if values.max() > 1 else "unit")

    @given(MATRICES)
    @settings(max_examples=100, deadline=None)
    def test_rescale_is_idempotent(self, values):
        m = DataMatrix(values)
        once = rescale(m)
        assert once.scale == "unit"
        assert rescale(once) is once
        if m.scale == "unit":
            assert once is m
        else:
            assert once.values.tobytes() == (values / 255.0).tobytes()

    @given(MATRICES)
    @settings(max_examples=50, deadline=None)
    def test_csv_round_trip_keeps_values_and_scale(self, tmp_path_factory, values):
        m = DataMatrix(values)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        save_matrix(m, path)
        back = load_matrix(path)
        assert back.values.tobytes() == m.values.tobytes()
        assert back.scale == m.scale

    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4),
                      elements=st.integers(0, 255)))
    @settings(max_examples=50, deadline=None)
    def test_pgm_directory_round_trip(self, tmp_path_factory, images):
        # images[k] is the k-th (height, width) image; file names sort in that order.
        path = tmp_path_factory.mktemp("pgm")
        for k, image in enumerate(images):
            write_pgm(path / f"img_{k:02d}.pgm", image)
        m = load_matrix(path)
        assert m.pixel_shape == images.shape[1:]
        assert np.array_equal(m.values, images.reshape(len(images), -1).T)
        assert m.scale == ("raw255" if images.max() > 1 else "unit")


class TestRescale:
    def test_endpoints(self):
        m = DataMatrix([[255.0, 0.0, 51.0]])
        out = rescale(m)
        np.testing.assert_allclose(out.values, [[1.0, 0.0, 0.2]])
        assert out.scale == "unit"

    def test_unit_matrix_returned_unchanged(self):
        m = DataMatrix([[0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rescale(m) is m


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
        m = DataMatrix([[2.0]])
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
