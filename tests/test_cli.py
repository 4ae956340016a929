import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccnmf import (DataMatrix, SolverOptions, apply_flip_noise, denoising, estimate_rc,
                    find_r_range, generate_swimmer, load_matrix, matrix_digest, rescale,
                    save_matrix, stability_experiment)
from pccnmf import cli
from pccnmf.cli import main
from pccnmf.pgm import write_pgm


def run(argv):
    return main(argv)


def write_csv(path, values):
    path.write_text("".join(",".join("%.17g" % v for v in row) + "\n" for row in values))
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads_strict(text):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rank-scan", "--bogus-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_computational_error_is_1_with_json_stderr(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("1,0\n0,1\n")
        code = run(["factorize", "-i", str(matrix), "-o", str(tmp_path / "f"),
                    "--rank", "7"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_1(self, tmp_path, capsys, tol):
        # With --tol inf the first sweep used to count as converged.
        matrix = tmp_path / "m.csv"
        matrix.write_text("1,0\n0,1\n")
        out = tmp_path / "f"
        code = run(["factorize", "-i", str(matrix), "-o", str(out), "--rank", "1",
                    "--tol", tol])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (out / "meta.json").exists()

    def test_unparsable_env_seed_is_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PCCNMF_SEED", "abc")
        src = tmp_path / "m.csv"
        src.write_text("1,0\n0,1\n")
        out = tmp_path / "p.csv"
        assert run(["perturb", "-i", str(src), "-o", str(out), "--xi", "0.5"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "p.csv.json").exists()

    def test_csv_not_utf8_is_1(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_bytes(b"1,0\n0,\xe9\n")
        code = run(["factorize", "-i", str(matrix), "-o", str(tmp_path / "f"), "--rank", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "m.csv" in err["message"]

    @pytest.mark.parametrize("command", [["rank-scan", "--r-min", "1", "--r-max", "2"],
                                         ["stability", "--mode", "seed-pair", "--rank", "2"],
                                         ["denoise", "--xi", "0.1", "--r-lo", "1", "--r-hi", "2"]])
    def test_csv_output_is_1_before_loading(self, tmp_path, capsys, command):
        # The CSV table goes to --output with its suffix replaced by .csv, so it
        # would overwrite an --output ending in .csv. The check comes before the
        # input is read: a missing input gives the same error.
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(42).random((4, 5)))
        for source in (matrix, tmp_path / "missing.csv"):
            assert run([command[0], "-i", str(source), "-o", str(tmp_path / "out.csv"),
                        *command[1:], "--max-iters", "5"]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_missing_input_is_1(self, tmp_path, capsys):
        code = run(["factorize", "-i", str(tmp_path / "nope.csv"),
                    "-o", str(tmp_path / "f"), "--rank", "2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("OSError", "FormatError")


class TestSwimmerGen:
    def test_writes_matrix_and_sidecar(self, tmp_path):
        out = tmp_path / "swim.csv"
        assert run(["swimmer-gen", "-o", str(out)]) == 0
        m = load_matrix(out)
        assert m.values.shape == (169, 256)
        sidecar = json.loads((tmp_path / "swim.csv.json").read_text())
        assert sidecar == {"rows": 169, "cols": 256, "scale": "unit",
                           "source": "swimmer", "seed": None, "xi": None}


class TestPerturb:
    def test_flip_noise_and_binarize(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("255,0\n0,255\n")
        out = tmp_path / "p.csv"
        assert run(["perturb", "-i", str(src), "-o", str(out), "--xi", "1.0",
                    "--seed", "4"]) == 0
        m = load_matrix(out)
        np.testing.assert_array_equal(m.values, [[0, 1], [1, 0]])
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert sidecar["xi"] == 1.0 and sidecar["seed"] == 4

    def test_binarize_only(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("0.6,0.4\n")
        out = tmp_path / "b.csv"
        assert run(["perturb", "-i", str(src), "-o", str(out), "--binarize"]) == 0
        np.testing.assert_array_equal(load_matrix(out).values, [[1, 0]])


class TestFactorizeAnalyzeCluster:
    @pytest.fixture()
    def small_csv(self, tmp_path, rng):
        values = (rng.random((6, 8)) * 0.8).round(3)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n")
        return path

    def test_factorize_writes_directory(self, tmp_path, small_csv):
        out = tmp_path / "fac"
        assert run(["factorize", "-i", str(small_csv), "-o", str(out), "--rank", "2",
                    "--seed", "1", "--max-iters", "200"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["rank"] == 2 and meta["seed"] == 1
        assert (out / "B.csv").exists() and (out / "W.csv").exists()

    def test_analyze_report_schema(self, tmp_path, small_csv):
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(small_csv), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        out = tmp_path / "analysis.json"
        assert run(["analyze", "-i", str(small_csv), "-f", str(fac), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        for key in ("r_w", "r_v", "length", "entropy_violations", "lhs", "rhs",
                    "hoyer_images", "hoyer_bases"):
            assert key in doc["outputs"]

    def test_analyze_can_export_probability_family(self, tmp_path, small_csv):
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(small_csv), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        out = tmp_path / "analysis.json"
        pcc_dir = tmp_path / "pcc"
        assert run(["analyze", "-i", str(small_csv), "-f", str(fac), "-o", str(out),
                    "--export-pcc", str(pcc_dir)]) == 0
        assert (pcc_dir / "summary.json").exists()
        assert (pcc_dir / "cond_pixel_given_basis.csv").exists()

    @pytest.mark.parametrize("edit", [lambda meta: meta.update(rank=5),
                                      lambda meta: meta.pop("seed")],
                             ids=["rank-disagrees-with-basis", "seed-missing"])
    def test_analyze_rejects_bad_meta(self, tmp_path, capsys, edit):
        # Fixed data: drawing from the session rng would shift every later test's inputs.
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.1,0.5,0.9\n0.3,0.2,0.8\n0.7,0.6,0.1\n")
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        meta = json.loads((fac / "meta.json").read_text())
        edit(meta)
        (fac / "meta.json").write_text(json.dumps(meta))
        code = run(["analyze", "-i", str(matrix), "-f", str(fac),
                    "-o", str(tmp_path / "analysis.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("ParameterError", "FormatError")

    @pytest.mark.parametrize("key, value", [("loss", "other"), ("final_loss", -1.0),
                                            ("final_loss", float("nan")),
                                            ("final_loss", float("inf"))],
                             ids=["loss-other", "final-loss-negative", "final-loss-nan",
                                  "final-loss-inf"])
    def test_analyze_rejects_bad_meta_value(self, tmp_path, capsys, key, value):
        # Each of these used to exit 0, and "loss": "other" reached the report.
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.1,0.5,0.9\n0.3,0.2,0.8\n0.7,0.6,0.1\n")
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        meta = json.loads((fac / "meta.json").read_text())
        meta[key] = value
        (fac / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "analysis.json"
        assert run(["analyze", "-i", str(matrix), "-f", str(fac), "-o", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "FormatError" and f"'{key}'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_analyze_rejects_non_finite_factor(self, tmp_path, capsys, cell):
        # A NaN basis cell used to drop its column as zero-mass; an inf one wrote
        # "hoyer_bases": NaN, which is not JSON.
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.1,0.5,0.9\n0.3,0.2,0.8\n0.7,0.6,0.1\n")
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        lines = (fac / "B.csv").read_text().splitlines()
        lines[0] = ",".join([cell] + lines[0].split(",")[1:])
        (fac / "B.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "analysis.json"
        assert run(["analyze", "-i", str(matrix), "-f", str(fac), "-o", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ParameterError", "message": "factors must be finite"}
        assert not out.exists()

    @pytest.mark.parametrize("export", ["a.json", "./a.json", "{tmp}/a.json"],
                             ids=["same", "dot-relative", "absolute"])
    def test_analyze_rejects_export_pcc_at_output(self, tmp_path, capsys, monkeypatch, export):
        # The family used to go into a directory a.json/, and the record then
        # failed with an OSError, leaving that directory behind.
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.1,0.5,0.9\n0.3,0.2,0.8\n0.7,0.6,0.1\n")
        run(["factorize", "-i", str(matrix), "-o", str(tmp_path / "fac"), "--rank", "2",
             "--max-iters", "20"])
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert run(["analyze", "-i", "m.csv", "-f", "fac", "-o", "a.json",
                    "--export-pcc", export.format(tmp=tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ParameterError",
            "message": "--output a.json would write over the directory "
                       f"--export-pcc {export.format(tmp=tmp_path)}"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fac", "m.csv"]

    def test_analyze_takes_its_start_time_before_loading(self, tmp_path, monkeypatch):
        # Its own matrix: a draw from the session rng would shift every later test's input.
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(40).random((6, 8)))
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        events = []

        def counting_timestamp():
            events.append("timestamp")
            return f"t{events.count('timestamp')}"

        load_matrix = cli.dataset.load_matrix
        monkeypatch.setattr(cli, "timestamp", counting_timestamp)
        monkeypatch.setattr(cli.dataset, "load_matrix",
                            lambda path: events.append("load") or load_matrix(path))
        out = tmp_path / "analysis.json"
        assert run(["analyze", "-i", str(matrix), "-f", str(fac), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["timestamps"] == {"started": "t1", "finished": "t2"}
        assert events == ["timestamp", "load", "timestamp"]

    def test_warnings_are_json_lines_on_stderr(self, tmp_path, capsys):
        # Each of the 2 bases has at most 8 images to offer a cluster of 20.
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(41).random((6, 8)))
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        capsys.readouterr()
        assert run(["cluster", "-i", str(matrix), "-f", str(fac), "-o",
                    str(tmp_path / "clusters"), "--k", "20"]) == 0
        lines = [loads_strict(line) for line in capsys.readouterr().err.splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert line["warning"] == "UserWarning"
            assert re.fullmatch(r"basis [01]: only \d of 20 images qualify", line["message"])

    def test_cluster_outputs(self, tmp_path, small_csv):
        fac = tmp_path / "fac"
        run(["factorize", "-i", str(small_csv), "-o", str(fac), "--rank", "2",
             "--max-iters", "200"])
        out = tmp_path / "clusters"
        assert run(["cluster", "-i", str(small_csv), "-f", str(fac), "-o", str(out),
                    "--k", "2", "--pixel-shape", "2x3"]) == 0
        doc = json.loads((out / "clusters.json").read_text())
        assert len(doc["clusters"]) == 2
        assert list(out.glob("*.pgm"))

    @pytest.mark.parametrize("shape, message", [
        ("13x13x1", "--pixel-shape must look like 13x13, got '13x13x1'"),
        ("-13x-13", "pixel_shape (-13, -13) has an entry below 1"),
    ], ids=["three-parts", "negative"])
    def test_cluster_rejects_bad_pixel_shape(self, tmp_path, capsys, shape, message):
        # 169 pixels, so -13x-13 multiplies out and used to reach the montage reshape.
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(31).random((169, 4)))
        fac = tmp_path / "fac"
        assert run(["factorize", "-i", str(matrix), "-o", str(fac), "--rank", "2",
                    "--max-iters", "20"]) == 0
        out = tmp_path / "clusters"
        assert run(["cluster", "-i", str(matrix), "-f", str(fac), "-o", str(out),
                    "--k", "2", f"--pixel-shape={shape}"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ParameterError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("shape, message", [
        ("abc", "--pixel-shape must look like 13x13, got 'abc'"),
        ("2x6", "--pixel-shape 2x6 differs from the images' shape (3, 4)"),
    ], ids=["unparsable", "mismatched"])
    def test_cluster_checks_pixel_shape_on_pgm_input(self, tmp_path, capsys, shape, message):
        images = tmp_path / "pgm"
        images.mkdir()
        for k, image in enumerate(np.random.default_rng(36).integers(1, 256, size=(4, 3, 4))):
            write_pgm(images / f"img_{k}.pgm", image)
        fac = tmp_path / "fac"
        assert run(["factorize", "-i", str(images), "-o", str(fac), "--rank", "2",
                    "--max-iters", "20"]) == 0
        out = tmp_path / "clusters"
        assert run(["cluster", "-i", str(images), "-f", str(fac), "-o", str(out),
                    "--k", "1", "--pixel-shape", "3x4"]) == 0
        assert list(out.glob("*.pgm"))
        out = tmp_path / "clusters_bad"
        assert run(["cluster", "-i", str(images), "-f", str(fac), "-o", str(out),
                    "--k", "1", "--pixel-shape", shape]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ParameterError", "message": message}
        assert not out.exists()


class TestRankScan:
    def test_end_to_end_json_and_csv(self, tmp_path, rng):
        cond = rng.random((6, 2)) + 0.1
        cond /= cond.sum(axis=0)
        mix = rng.random((2, 8)) + 0.1
        mix /= mix.sum()
        matrix = tmp_path / "m.csv"
        values = cond @ mix
        matrix.write_text("\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n")
        out = tmp_path / "scan.json"
        assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                    "--r-max", "3", "--tau", "0", "--seeds", "3",
                    "--max-iters", "4000", "--tol", "1e-13"]) == 0
        doc = json.loads(out.read_text())
        assert doc["outputs"]["r_c"] == 2
        csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert csv_lines[0] == "R,seed,valid_fraction,dbar,error,rrssq,bic1,bic2,bic3"
        assert len(csv_lines) == 1 + 9

    def test_default_tau_is_one_over_n_m(self, tmp_path):
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(32).random((5, 7)))
        out = tmp_path / "scan.json"
        assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                    "--r-max", "2", "--seeds", "1", "--max-iters", "20"]) == 0
        assert json.loads(out.read_text())["parameters"]["tau"] == 1.0 / (5 * 7)

    def test_outputs_name_sweeps_and_capped_points(self, tmp_path):
        m = DataMatrix(np.random.default_rng(38).random((6, 9)))
        matrix = write_csv(tmp_path / "m.csv", m.values)
        out = tmp_path / "scan.json"
        assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                    "--r-max", "3", "--seeds", "2", "--max-iters", "30", "--tol", "1e-9"]) == 0
        doc = json.loads(out.read_text())["outputs"]
        report = estimate_rc(m, 1.0 / m.values.size, 1, 3, [0, 1],
                             opts=SolverOptions(max_iters=30, rel_tol=1e-9))
        assert doc["iters"] == [e.iters for e in report.entries]
        assert doc["converged"] == [e.converged for e in report.entries]
        assert doc["n_unconverged"] == doc["converged"].count(False) > 0
        # The undefined dbar of a rank-1 point, NaN, is written as null.
        assert doc["curves"] == [[None if np.isnan(v) else v for v in row]
                                 for row in report.curve_rows()]

    def test_rank_one_dbar_is_null_in_json_and_nan_in_csv(self, tmp_path):
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(39).random((5, 6)))
        out = tmp_path / "scan.json"
        assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                    "--r-max", "2", "--seeds", "2", "--max-iters", "20"]) == 0
        curves = loads_strict(out.read_text())["outputs"]["curves"]
        assert [row[3] for row in curves[:2]] == [None, None]
        assert all(isinstance(row[3], float) for row in curves[2:])
        rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows[:2]] == ["nan", "nan"]


class TestStabilityCommand:
    def test_seed_pair_outputs(self, tmp_path, rng):
        values = (rng.random((8, 10)) * 0.9)
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n")
        out = tmp_path / "stab.json"
        assert run(["stability", "-i", str(matrix), "-o", str(out), "--mode", "seed-pair",
                    "--rank", "3", "--seed-a", "0", "--seed-b", "0",
                    "--max-iters", "100"]) == 0
        doc = json.loads(out.read_text())
        assert doc["outputs"]["matching"]["total"] <= 1e-10
        hist = (tmp_path / "stab.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count,pct"
        assert len(hist) == 1 + 21

    @pytest.mark.parametrize("xi", ["nan", "inf", "-0.5", "7"])
    @pytest.mark.parametrize("mode", ["seed-pair", "noise-split"])
    def test_xi_outside_unit_interval_is_1(self, tmp_path, capsys, mode, xi):
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(39).random((8, 10)))
        out = tmp_path / "stab.json"
        assert run(["stability", "-i", str(matrix), "-o", str(out), "--mode", mode,
                    "--rank", "3", "--xi", xi]) == 1
        assert loads_strict(capsys.readouterr().err) == {
            "error": "ParameterError", "message": f"xi must lie in [0, 1], got {float(xi)}"}
        assert list(tmp_path.iterdir()) == [matrix]

    @pytest.mark.parametrize("mode, xi", [("seed-pair", 0.0), ("noise-split", 0.25)])
    def test_record_names_solver_options(self, tmp_path, mode, xi):
        matrix = write_csv(tmp_path / "m.csv", np.random.default_rng(37).random((8, 10)))
        out = tmp_path / "stab.json"
        assert run(["stability", "-i", str(matrix), "-o", str(out), "--mode", mode,
                    "--rank", "3", "--xi", str(xi), "--max-iters", "50", "--tol", "1e-9"]) == 0
        doc = json.loads(out.read_text())
        mode = mode.replace("-", "_")
        assert doc["command"] == "stability_experiment"
        assert doc["parameters"] == {"rank": 3, "mode": mode, "xi": xi, "seed_a": 0,
                                     "seed_b": 1, "loss": "frobenius", "max_iters": 50,
                                     "tol": 1e-9}
        assert doc["seeds"] == [0, 1]
        matching, fits = stability_experiment(load_matrix(matrix), rank=3, mode=mode, xi=xi,
                                              opts=SolverOptions(max_iters=50, rel_tol=1e-9))
        assert doc["outputs"]["matching"] == json.loads(json.dumps(matching.to_dict()))
        assert doc["outputs"]["final_losses"] == [float(f.trace[-1]) for f in fits]
        assert doc["outputs"]["iters"] == [len(f.trace) - 1 for f in fits]
        assert doc["outputs"]["converged"] == [f.converged for f in fits]
        assert len(doc["outputs"]["histogram"]) == 21


class TestDenoiseCommand:
    def test_json_has_r1_r2_and_csv_curves(self, tmp_path, rng):
        u = rng.random((8, 2)) + 0.2
        v = rng.random((2, 12)) + 0.2
        values = u @ v
        values /= values.max()
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(",".join("%.17g" % x for x in row) for row in values) + "\n")
        out = tmp_path / "den.json"
        assert run(["denoise", "-i", str(matrix), "-o", str(out), "--xi", "0.2",
                    "--seed", "3", "--r-lo", "1", "--r-hi", "4", "--seeds", "2",
                    "--baseline", "svd", "--max-iters", "400"]) == 0
        doc = json.loads(out.read_text())
        assert "r1" in doc["outputs"] and "r2" in doc["outputs"]
        assert len(doc["outputs"]["ac_nmf"]) == 4
        lines = (tmp_path / "den.csv").read_text().splitlines()
        assert lines[0] == "R,ac_nmf,ac_svd,ac_nmf_smoothed,ac_svd_smoothed,violations"

    def test_svd_baseline_factorizes_each_point_once(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PCCNMF_SEED", raising=False)
        values = np.random.default_rng(7).random((6, 8)) * 0.9
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(",".join("%.17g" % x for x in row) for row in values) + "\n")
        calls = []
        original = denoising.factorize_seeds

        def counting(m, rank, seeds, *args, **kwargs):
            calls.append((rank, tuple(seeds)))
            return original(m, rank, seeds, *args, **kwargs)

        monkeypatch.setattr(denoising, "factorize_seeds", counting)
        out = tmp_path / "den.json"
        assert run(["denoise", "-i", str(matrix), "-o", str(out), "--xi", "0.2",
                    "--seed", "3", "--r-lo", "1", "--r-hi", "3", "--seeds", "2",
                    "--baseline", "svd", "--max-iters", "100"]) == 0
        # Each rank solves its two seeds as one stack, once.
        assert calls == [(1, (0, 1)), (2, (0, 1)), (3, (0, 1))]

        doc = json.loads(out.read_text())["outputs"]
        clean = DataMatrix(values)
        noisy = apply_flip_noise(clean, 0.2, 3)
        opts = SolverOptions(max_iters=100)
        plain = find_r_range(clean, noisy, range(1, 4), seeds=[0, 1], opts=opts)
        svd = find_r_range(clean, noisy, range(1, 4), seeds=[0, 1], opts=opts,
                           svd_baseline=True)
        assert doc["violations"] == [e.violations for e in plain.entries]
        assert doc["min_margins"] == [e.min_margin for e in plain.entries]
        for name, curve in svd.ac_curves().items():
            assert doc[name] == curve

    def test_baseline_none_matches_find_r_range(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PCCNMF_SEED", raising=False)
        values = np.random.default_rng(33).random((6, 8)) * 0.9
        matrix = write_csv(tmp_path / "m.csv", values)
        out = tmp_path / "den.json"
        assert run(["denoise", "-i", str(matrix), "-o", str(out), "--xi", "0.2",
                    "--seed", "3", "--r-lo", "1", "--r-hi", "3", "--seeds", "2",
                    "--max-iters", "100"]) == 0
        clean = DataMatrix(values)
        expected = find_r_range(clean, apply_flip_noise(clean, 0.2, 3), range(1, 4),
                                seeds=[0, 1], opts=SolverOptions(max_iters=100), xi=0.2)
        assert json.loads(out.read_text())["outputs"] == json.loads(
            json.dumps(expected.to_dict()))
        lines = (tmp_path / "den.csv").read_text().splitlines()
        assert lines[0] == "R,violations,min_margin"
        assert len(lines) == 1 + 3


class TestNoWriteOverInput:
    """No command writes over a file it reads, writes one file twice, or writes a
    file where it writes a directory; the check runs before any work."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        # Its own matrix: a draw from the session rng would shift every later test's input.
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "m.csv", np.random.default_rng(43).random((4, 5)))
        assert run(["factorize", "-i", "m.csv", "-o", "fac", "--rank", "2",
                    "--max-iters", "5"]) == 0
        return tmp_path

    @staticmethod
    def snapshot(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "-i", "m.csv", "-f", "fac", "-o", "fac/meta.json"],
         "--output fac/meta.json would write over the meta.json that --factorization fac reads"),
        (["analyze", "-i", "m.csv", "-f", "fac", "-o", "pcc/summary.json", "--export-pcc", "pcc"],
         "the summary.json that --export-pcc pcc writes would write over "
         "--output pcc/summary.json"),
        (["analyze", "-i", "m.csv", "-f", "fac", "-o", "m.csv"],
         "--output m.csv would write over --input m.csv"),
        (["analyze", "-i", "m.csv", "-f", "fac", "-o", "fac/B.csv", "--export-pcc", "p"],
         "--output fac/B.csv would write over the B.csv that --factorization fac reads"),
        (["analyze", "-i", "pcc/approx_cond.csv", "-f", "fac", "-o", "a.json",
          "--export-pcc", "pcc"],
         "the approx_cond.csv that --export-pcc pcc writes would write over "
         "--input pcc/approx_cond.csv"),
        (["rank-scan", "-i", "m.csv", "-o", "m.json", "--r-min", "1", "--r-max", "2"],
         "the CSV table of --output m.json would write over --input m.csv"),
        (["stability", "-i", "m.csv", "-o", "./m", "--mode", "seed-pair", "--rank", "2"],
         "the CSV table of --output ./m would write over --input m.csv"),
        (["denoise", "-i", "m.csv", "-o", "m.json", "--xi", "0.1", "--r-lo", "1", "--r-hi", "2"],
         "the CSV table of --output m.json would write over --input m.csv"),
        (["perturb", "-i", "m.csv", "-o", "m.csv", "--xi", "0.1"],
         "--output m.csv would write over --input m.csv"),
        (["perturb", "-i", "m.csv.json", "-o", "m.csv", "--xi", "0.1"],
         "the sidecar of --output m.csv would write over --input m.csv.json"),
        (["factorize", "-i", "fac/W.csv", "-o", "fac", "--rank", "1"],
         "the W.csv that --output fac writes would write over --input fac/W.csv"),
        (["cluster", "-i", "m.csv", "-f", "fac", "-o", "."],
         None),
        (["report", "-o", "fac/meta.json", "m.csv", "fac/meta.json"],
         "--output fac/meta.json would write over the input fac/meta.json"),
    ], ids=["analyze-meta", "analyze-export-summary", "analyze-input", "analyze-basis",
            "analyze-export-input", "rank-scan-table", "stability-table", "denoise-table",
            "perturb-input", "perturb-sidecar", "factorize-input", "cluster-allowed",
            "report-input"])
    def test_clash_is_1_and_writes_nothing(self, workdir, capsys, argv, message):
        (workdir / "m.csv.json").write_text("{}\n")
        if argv[2].startswith("pcc/"):
            (workdir / "pcc").mkdir()
            write_csv(workdir / argv[2], np.random.default_rng(44).random((4, 5)))
        before = self.snapshot(workdir)
        code = run(argv + ["--max-iters", "5"] if argv[0] in ("rank-scan", "stability",
                                                                "denoise") else argv)
        err = capsys.readouterr().err
        if message is None:
            # Writing into a directory that holds what the command reads is no clash.
            assert code == 0
            return
        assert code == 1
        assert json.loads(err) == {"error": "ParameterError", "message": message}
        assert self.snapshot(workdir) == before

    def test_cluster_into_its_pgm_input_directory(self, tmp_path, capsys):
        # The montage strips used to land among the input images, and the next
        # read of the directory took them as images of another shape.
        images = tmp_path / "pgm"
        images.mkdir()
        for k, image in enumerate(np.random.default_rng(45).integers(1, 256, size=(4, 3, 4))):
            write_pgm(images / f"img_{k}.pgm", image)
        assert run(["factorize", "-i", str(images), "-o", str(tmp_path / "fac"), "--rank", "2",
                    "--max-iters", "5"]) == 0
        before = self.snapshot(tmp_path)
        assert run(["cluster", "-i", str(images), "-f", str(tmp_path / "fac"), "-o", str(images),
                    "--k", "1"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError",
            "message": f"the PGM strips that --output {images} writes would write over "
                       f"--input {images}"}
        assert self.snapshot(tmp_path) == before

    def test_clash_found_through_a_symlink(self, workdir, capsys):
        (workdir / "link").symlink_to(workdir / "fac")
        assert run(["analyze", "-i", "m.csv", "-f", "fac", "-o", "link/meta.json"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    def test_outputs_beside_the_inputs_are_allowed(self, workdir):
        assert run(["analyze", "-i", "m.csv", "-f", "fac", "-o", "fac/analysis.json",
                    "--export-pcc", "fac"]) == 0
        assert (workdir / "fac" / "summary.json").is_file()
        assert run(["analyze", "-i", "m.csv", "-f", "fac", "-o", "a.json"]) == 0


class TestBlasThreads:
    def test_stacked_scan_and_denoise_equal_at_one_and_two_threads(self, tmp_path):
        # The seeds of one rank run as one stack through numpy's stacked matmul;
        # every row of the noisy Swimmer is lit, so the full products run.
        noisy = apply_flip_noise(rescale(generate_swimmer()), 0.05, seed=3)
        save_matrix(noisy, tmp_path / "noisy.csv")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PCCNMF_TIMESTAMP="2000-01-01",
                       PYTHONPATH=path)
            env.pop("PCCNMF_SEED", None)
            for argv in (["rank-scan", "-i", "noisy.csv", "-o", f"scan{threads}.json",
                          "--r-min", "14", "--r-max", "15", "--seeds", "3", "--max-iters", "300"],
                         ["denoise", "-i", "noisy.csv", "-o", f"den{threads}.json", "--xi", "0.25",
                          "--seed", "7", "--r-lo", "10", "--r-hi", "11", "--seeds", "2",
                          "--max-iters", "300"]):
                subprocess.run([sys.executable, "-m", "pccnmf.cli", *argv], cwd=tmp_path, env=env,
                               check=True)
            outputs.append([(tmp_path / f"{name}{threads}.{ext}").read_bytes()
                            for name in ("scan", "den") for ext in ("json", "csv")])
        assert outputs[0] == outputs[1]


class TestGrayScaleInput:
    """8-bit input: perturb, denoise and stability --mode noise-split divide it by 255."""

    @pytest.fixture(params=["csv", "pgm"])
    def gray(self, request, tmp_path):
        values = np.random.default_rng(34).integers(0, 256, size=(20, 6))
        values[0, 0] = 255
        if request.param == "csv":
            return write_csv(tmp_path / "gray.csv", values)
        path = tmp_path / "pgm"
        path.mkdir()
        for k, column in enumerate(values.T):
            image = column.reshape(5, 4)
            if k % 2:
                (path / f"img_{k}.pgm").write_bytes(
                    b"P5\n4 5\n255\n" + image.astype(np.uint8).tobytes())
            else:
                write_pgm(path / f"img_{k}.pgm", image)
        return path

    @pytest.mark.parametrize("xi", [[], ["--xi", "0.1"]], ids=["default-xi", "xi-0.1"])
    def test_stability_noise_split(self, tmp_path, gray, xi):
        out = tmp_path / "stab.json"
        assert run(["stability", "-i", str(gray), "-o", str(out), "--mode", "noise-split",
                    "--rank", "2", "--max-iters", "50", *xi]) == 0
        doc = json.loads(out.read_text())
        assert doc["input_digests"]["matrix"] == matrix_digest(rescale(load_matrix(gray)))
        assert (tmp_path / "stab.csv").read_text().startswith("bin_lo,bin_hi,count,pct\n")

    def test_denoise_records_the_same_digest(self, tmp_path, gray):
        out = tmp_path / "den.json"
        assert run(["denoise", "-i", str(gray), "-o", str(out), "--xi", "0.1", "--seed", "1",
                    "--r-lo", "1", "--r-hi", "2", "--seeds", "1", "--max-iters", "50"]) == 0
        doc = json.loads(out.read_text())
        assert doc["input_digests"]["matrix"] == matrix_digest(rescale(load_matrix(gray)))

    def test_seed_pair_factorizes_the_input_as_loaded(self, tmp_path, gray):
        out = tmp_path / "stab.json"
        assert run(["stability", "-i", str(gray), "-o", str(out), "--mode", "seed-pair",
                    "--rank", "2", "--max-iters", "50"]) == 0
        doc = json.loads(out.read_text())
        assert doc["input_digests"]["matrix"] == matrix_digest(load_matrix(gray))


class TestReportBundle:
    def test_bundles_json_and_csv(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"x": 1}\n')
        b = tmp_path / "b.csv"
        b.write_text("R,seed\n1,0\n")
        out = tmp_path / "bundle.json"
        assert run(["report", "-o", str(out), str(a), str(b)]) == 0
        doc = json.loads(out.read_text())
        assert doc["inputs"]["a.json"] == {"x": 1}
        assert doc["inputs"]["b.csv"] == ["R,seed", "1,0"]

    @pytest.mark.parametrize("name, data", [("a.json", b"{not json\n"),
                                            ("a.json", b'{"x": "\xff"}\n'),
                                            ("b.csv", b"R,seed\n\xff,0\n"),
                                            ("a.json", b'{"x": NaN}\n'),
                                            ("a.json", b'{"x": Infinity}\n'),
                                            ("a.json", b'{"x": [1, -1e999]}\n')],
                             ids=["not-json", "json-not-utf8", "csv-not-utf8", "json-nan",
                                  "json-infinity", "json-overflow"])
    def test_unreadable_input_is_1(self, tmp_path, capsys, name, data):
        bad = tmp_path / name
        bad.write_bytes(data)
        out = tmp_path / "bundle.json"
        assert run(["report", "-o", str(out), str(bad)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and name in err["message"]
        assert not out.exists()

    def test_repeated_file_name_is_1(self, tmp_path, capsys):
        # Inputs are keyed by file name; the second used to replace the first.
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "s.json").write_text(f'{{"side": "{side}"}}\n')
        out = tmp_path / "bundle.json"
        assert run(["report", "-o", str(out), str(tmp_path / "a" / "s.json"),
                    str(tmp_path / "b" / "s.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and "'s.json'" in err["message"]
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_outputs_single_threaded(self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("PCCNMF_TIMESTAMP", "2000-01-01T00:00:00+00:00")
        values = rng.random((6, 8)) * 0.9
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n")
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.json"
            assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                        "--r-max", "2", "--tau", "0.5", "--seeds", "2",
                        "--max-iters", "60"]) == 0
            outputs.append(out.read_bytes() + (tmp_path / f"{tag}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_env_seed_recorded(self, tmp_path, monkeypatch, rng):
        monkeypatch.setenv("PCCNMF_SEED", "42")
        values = rng.random((5, 6)) * 0.9
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(",".join("%.17g" % v for v in row) for row in values) + "\n")
        out = tmp_path / "scan.json"
        assert run(["rank-scan", "-i", str(matrix), "-o", str(out), "--r-min", "1",
                    "--r-max", "1", "--tau", "0.5", "--seeds", "2",
                    "--max-iters", "40"]) == 0
        doc = json.loads(out.read_text())
        assert doc["seeds"] == [42, 43]


@st.composite
def _matrices(draw, max_side=5):
    """A CSV text of at most max_side x max_side cells, and its shape. The cells
    are 8-bit integers or unit floats; one in four matrices has a cell that a
    loader rejects."""
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    cells = draw(st.sampled_from([st.integers(0, 255).map(str),
                                  st.floats(0, 1, allow_subnormal=False).map(repr)]))
    rows = draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.sampled_from([False, False, False, True])):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(
            st.sampled_from(["-1", "nan", "inf", "", "x", "1e400"]))
    return "".join(",".join(row) + "\n" for row in rows), (n, m)


@st.composite
def _pgm_dirs(draw):
    """The files of a PGM directory, {name: bytes}, and the shape of the matrix they
    make. At most three images of at most 3 x 3 pixels, plain P2 or binary P5;
    one directory in two has a fault: a bad magic, short data, a maxval of 0 or
    above 255, or images of two sizes."""
    fault = draw(st.sampled_from([None, None, None, None, "magic", "short", "maxval", "sizes"]))
    n_files = draw(st.integers(2 if fault == "sizes" else 1, 3))
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    files = {}
    for k in range(n_files):
        magic = draw(st.sampled_from(["P2", "P5"]))
        maxval = draw(st.sampled_from([0, 256, 1000, 65535, 65536])) if fault == "maxval" else 255
        w = width + 1 if fault == "sizes" and k == n_files - 1 else width
        samples = draw(st.lists(st.integers(0, min(maxval, 65535)), min_size=height * w,
                                max_size=height * w))
        if magic == "P2":
            raster = " ".join(map(str, samples)).encode() + b"\n"
        else:
            raster = b"".join(v.to_bytes(1 if maxval < 256 else 2, "big") for v in samples)
        if fault == "short":
            raster = raster.rstrip()[:-1]
        if fault == "magic":
            magic = draw(st.sampled_from(["P1", "P3", "P6", "XX", ""]))
        files[f"img_{k}.pgm"] = f"{magic}\n{w} {height}\n{maxval}\n".encode() + raster
    return files, (height * width, n_files)


@st.composite
def _factorizations(draw, shape):
    """B.csv, W.csv and meta.json of a factorization directory, mostly shaped to
    fit a matrix of ``shape``."""
    rank = draw(st.integers(1, 3))
    n = draw(st.sampled_from([shape[0], shape[0], 2]))
    m = draw(st.sampled_from([shape[1], shape[1], 3]))
    entries = st.floats(0, 2, allow_subnormal=False)
    basis = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), min_size=n,
                          max_size=n))
    weights = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=rank,
                            max_size=rank))
    meta = {"rank": draw(st.sampled_from([rank, rank, rank + 1])),
            "loss": draw(st.sampled_from(["frobenius", "kl", "other"])),
            "seed": draw(st.integers(0, 3)), "iters": 1,
            "final_loss": draw(st.floats(0, 10)), "converged": draw(st.booleans())}
    if draw(st.booleans()) and draw(st.booleans()):
        del meta[draw(st.sampled_from(sorted(meta)))]
    return basis, weights, meta


SUBCOMMANDS = ("perturb", "factorize", "rank-scan", "stability", "analyze", "cluster",
               "denoise")


def _command(draw, matrix, fac, shape, names=SUBCOMMANDS, modes=("seed-pair", "noise-split")):
    """Arguments of one of ``names`` on ``matrix`` and ``fac``, ``stability`` in
    one of ``modes``; ranks are mostly at most the largest that a matrix of
    ``shape`` allows."""
    limit = min(shape)
    rank = str(draw(st.integers(1, limit + 1)))
    r_min = draw(st.integers(1, limit))
    r_max = str(r_min + draw(st.integers(0, limit - r_min + 1)))
    name = draw(st.sampled_from(names))
    solver = ["--max-iters", str(draw(st.integers(1, 5))),
              "--tol", draw(st.sampled_from(["1e-6", "1e-13", "0.5"]))]
    xi = draw(st.sampled_from(["0", "0.1", "0.5", "1", "nan", "inf", "-0.5", "7"]))
    record = draw(st.sampled_from(["out.json", "out.json", "out.csv"]))
    if name == "perturb":
        return ["perturb", "-i", matrix, "-o", "p.csv", "--xi", xi, "--seed", "1",
                *(["--binarize"] if draw(st.booleans()) else [])]
    if name == "factorize":
        return ["factorize", "-i", matrix, "-o", "fac_out", "--rank", rank,
                "--loss", draw(st.sampled_from(["frobenius", "kl"])), *solver]
    if name == "rank-scan":
        return ["rank-scan", "-i", matrix, "-o", record, "--r-min", str(r_min), "--r-max", r_max,
                "--seeds", str(draw(st.integers(1, 2))),
                "--loss", draw(st.sampled_from(["frobenius", "kl"])),
                *(["--dual"] if draw(st.booleans()) else []), *solver]
    if name == "stability":
        return ["stability", "-i", matrix, "-o", record, "--rank", rank, "--xi", xi,
                "--mode", draw(st.sampled_from(modes)), *solver]
    if name == "analyze":
        return ["analyze", "-i", matrix, "-f", fac, "-o", "out.json",
                *(["--export-pcc", "pcc"] if draw(st.booleans()) else [])]
    if name == "cluster":
        pixels = draw(st.sampled_from([None, None, f"{shape[0]}x1", f"1x{shape[0]}", "2x2",
                                       "bad"]))
        return ["cluster", "-i", matrix, "-f", fac, "-o", "clusters",
                "--k", str(draw(st.integers(1, 3))),
                *(["--pixel-shape", pixels] if pixels else []),
                *(["--no-require-positive"] if draw(st.booleans()) else [])]
    return ["denoise", "-i", matrix, "-o", record, "--xi", xi, "--seed", "2",
            "--r-lo", str(r_min), "--r-hi", r_max,
            "--seeds", str(draw(st.integers(1, 2))),
            "--baseline", draw(st.sampled_from(["none", "svd"])), *solver]


class TestFuzzedInput:
    """Every subcommand on small fuzzed input exits 0, 1 or 2 and never raises; every
    stderr line is a strict-JSON warning, an exit 1 ends it with a JSON error line,
    and every JSON file written is strict JSON."""

    @staticmethod
    def check_run(files, factorization, argv):
        """Write ``files`` ({path: bytes}) and the factorization directory ``fac``
        into a new working directory, run ``argv`` there, and check the exit code,
        the stderr lines and every JSON file written."""
        basis, weights, meta = factorization
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.chdir(tmp)
            patch.delenv("PCCNMF_SEED", raising=False)
            for name, raw in files.items():
                Path(name).parent.mkdir(exist_ok=True)
                Path(name).write_bytes(raw)
            Path("fac").mkdir()
            write_csv(Path("fac/B.csv"), basis)
            write_csv(Path("fac/W.csv"), weights)
            Path("fac/meta.json").write_text(json.dumps(meta))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
                    assert code == 2
            assert code in (0, 1, 2)
            if code != 2:   # exit 2 is argparse's usage text
                lines = [loads_strict(line) for line in stderr.getvalue().splitlines()]
                keys = [set(line) for line in lines]
                if code == 1:
                    assert keys.pop() == {"error", "message"}
                assert all(k == {"warning", "message"} for k in keys)
            for path in Path().rglob("*.json"):
                loads_strict(path.read_text())
        return code, stderr.getvalue().splitlines()

    @pytest.mark.parametrize("xi", ["nan", "inf", "-0.5", "7"])
    @pytest.mark.parametrize("mode", ["seed-pair", "noise-split"])
    def test_stability_xi_outside_unit_interval(self, mode, xi):
        # Fixed cases of the fuzz above, which reaches them only by chance.
        factorization = ([[0.5], [0.5], [0.5]], [[0.5, 0.5, 0.5, 0.5]],
                         {"rank": 1, "loss": "frobenius", "seed": 0, "iters": 1,
                          "final_loss": 0.0, "converged": True})
        code, lines = self.check_run(
            {"m.csv": b"0.1,0.5,0.9,0.2\n0.3,0.2,0.8,0.4\n0.7,0.6,0.1,0.9\n"}, factorization,
            ["stability", "-i", "m.csv", "-o", "out.json", "--rank", "2", "--xi", xi,
             "--mode", mode, "--max-iters", "5"])
        assert (code, len(lines)) == (1, 1)
        assert loads_strict(lines[0])["error"] == "ParameterError"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_code_error_line_and_strict_json(self, data):
        text, shape = data.draw(_matrices())
        factorization = data.draw(_factorizations(shape))
        self.check_run({"m.csv": text.encode()}, factorization,
                       _command(data.draw, "m.csv", "fac", shape))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pgm_directories(self, data):
        files, shape = data.draw(_pgm_dirs())
        factorization = data.draw(_factorizations(shape))
        argv = _command(data.draw, "pgm", "fac", shape, names=("factorize", "cluster", "stability"),
                        modes=("noise-split",))
        self.check_run({f"pgm/{name}": raw for name, raw in files.items()}, factorization, argv)
