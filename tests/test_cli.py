import json

import numpy as np
import pytest

from pccnmf import (DataMatrix, SolverOptions, apply_flip_noise, compare_with_svd, denoising,
                    find_r_range, load_matrix)
from pccnmf.cli import main


def run(argv):
    return main(argv)


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

    def test_threads_below_one_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["--threads", "0", "swimmer-gen", "-o", "unused.csv"])
        assert exc.value.code == 2

    def test_unparsable_env_seed_is_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PCCNMF_SEED", "abc")
        src = tmp_path / "m.csv"
        src.write_text("1,0\n0,1\n")
        out = tmp_path / "p.csv"
        assert run(["perturb", "-i", str(src), "-o", str(out), "--xi", "0.5"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "p.csv.json").exists()

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
        original = denoising.factorize

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(denoising, "factorize", counting)
        out = tmp_path / "den.json"
        assert run(["denoise", "-i", str(matrix), "-o", str(out), "--xi", "0.2",
                    "--seed", "3", "--r-lo", "1", "--r-hi", "3", "--seeds", "2",
                    "--baseline", "svd", "--max-iters", "100"]) == 0
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]

        doc = json.loads(out.read_text())["outputs"]
        clean = DataMatrix(values)
        noisy = apply_flip_noise(clean, 0.2, 3)
        opts = SolverOptions(max_iters=100)
        plain = find_r_range(clean, noisy, 1, 3, seeds=[0, 1], opts=opts)
        svd = compare_with_svd(clean, noisy, range(1, 4), seeds=[0, 1], opts=opts)
        assert doc["violations"] == [e.violations for e in plain.entries]
        assert doc["min_margins"] == [e.min_margin for e in plain.entries]
        for name, curve in svd.ac_curves().items():
            assert doc[name] == curve


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
