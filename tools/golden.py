"""Golden outputs of every pccnmf CLI subcommand, for byte-for-byte comparison.

    python3 tools/golden.py OUTDIR

Runs each subcommand of the pccnmf package in the ``src/`` directory next to
this script, with ``PCCNMF_TIMESTAMP`` and ``PCCNMF_SEED`` pinned, inside
OUTDIR (which must not exist yet). The script first writes ``graded.csv``
there, a graded 0-255 matrix drawn from a fixed seed, so the KL commands also
run on non-binary data; ``tiny.csv``, the integers of ``graded.csv`` times
2^-40 (entries up to about 2.3e-10) written with ``repr``, on which the
Frobenius and KL ``factorize`` run at rank 6 (``fac_frob_tiny/`` and
``fac_kl_tiny/``), which pins the solver on tiny entries: the two fits end
within 0.1 % of the end-to-start loss ratio of the same fits on the 8-bit
``graded.csv``; ``tiled.csv``, whose rows repeat and none is all zero, so
the Frobenius ``factorize`` also runs with row groups but no dark row; and
``pgm/``, small P2 and P5 images with comments in their headers, which
``factorize`` and ``cluster`` read as a PGM directory. ``stability --mode
noise-split`` runs on ``graded.csv`` and on ``pgm/``, which pins how 8-bit
input is divided by 255 before noise is added, and one ``stability`` command
runs at a non-default ``--max-iters`` and ``--tol``, which pins how the run
record names its solver options. The clean rank-17 ``factorize`` runs twice:
at the default ``--tol`` it stops at the Frobenius fit floor, and at ``--tol
1e-9`` (``fac_frob_capped/``) it runs to the sweep cap. The rank-11 Frobenius
``factorize`` on ``noisy.csv`` (``fac_frob_noisy/``), where every row is lit,
pins the sweep that multiplies all of P by W^T. The ``rank-scan``
from rank 1 (``scan_r1.json``) pins how the report writes the mean internal
distance, which is undefined at rank 1: null in the JSON, ``nan`` in the CSV.
Every file the commands write, and the stdout and stderr of each command,
stay in OUTDIR; ``OUTDIR/SHA256SUMS`` lists their SHA-256 digests in the
format of ``sha256sum``. Commands run with relative paths, so the outputs do
not depend on where OUTDIR is. The
``analyze --export-pcc`` command runs twice more with ``OPENBLAS_NUM_THREADS``
pinned at 1 and at 2; equal digests for ``analysis_blas1.json`` and
``analysis_blas2.json`` (and for ``pcc_blas1/`` and ``pcc_blas2/``) show that
the analysis does not depend on the BLAS thread count. The KL ``rank-scan
--dual`` on ``noisy.csv`` runs twice more in the same way, and equal digests
for ``scan_dual_kl_blas1.json`` and ``scan_dual_kl_blas2.json`` (and their
``.csv`` tables) show the same for the KL sweep's full-matrix products. A
Frobenius ``rank-scan --seeds 3`` on ``noisy.csv`` runs in the same way, into
``scan_frob_noisy_blas1.json`` and ``scan_frob_noisy_blas2.json`` (and their
``.csv`` tables), which shows the same for the sweep that solves the seeds of
one rank as one stack. The
Frobenius ``factorize`` on ``noisy.csv`` runs twice more in the same way, into
``fac_frob_noisy_blas1/`` and ``fac_frob_noisy_blas2/``, which shows the same
for the Frobenius sweep on the whole of P. The ``denoise --baseline svd``
runs twice more in the same way with ``--exclusions 0``, into
``denoise_svd_blas1.json`` and ``denoise_svd_blas2.json`` (and their ``.csv``
tables), which shows the same for the denoise sweep and its SVD baseline and
pins that the sweep honours a non-default ``--exclusions``. The script
compares every such ``_blas1`` file with its ``_blas2`` twin, and exits 1
naming each pair whose bytes differ.

Two checkouts give equal outputs when their SHA256SUMS files are equal. The
script uses only the standard library and takes a few minutes on two cores.

    python3 tools/golden.py --compare DIR_A DIR_B

compares two such output directories file by file, for changes that move
float bits on purpose. A file passes when its bytes are equal, or when it is
JSON or CSV whose values are equal except for floats that agree within
``FLOAT_REL_TOL`` relative. ``SHA256SUMS`` is skipped. Each file that is not
byte-identical is printed with its largest relative float change; the exit
status is 1 when a file is missing on one side or differs in any other way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENV = {"PCCNMF_TIMESTAMP": "2000-01-01T00:00:00Z", "PCCNMF_SEED": "5"}

# (name, arguments) or (name, arguments, extra environment). Later commands
# read what earlier ones wrote.
COMMANDS = (
    ("swimmer-gen", ["swimmer-gen", "-o", "swim.csv"]),
    ("perturb-seed", ["perturb", "-i", "swim.csv", "-o", "noisy.csv", "--xi", "0.05",
                      "--seed", "3"]),
    ("perturb-env-seed", ["perturb", "-i", "swim.csv", "-o", "noisy_env.csv", "--xi", "0.1"]),
    ("perturb-binarize", ["perturb", "-i", "noisy.csv", "-o", "binary.csv", "--binarize"]),
    ("factorize-frobenius", ["factorize", "-i", "swim.csv", "-o", "fac_frob", "--rank", "17",
                             "--seed", "0"]),
    ("factorize-frobenius-capped", ["factorize", "-i", "swim.csv", "-o", "fac_frob_capped",
                                    "--rank", "17", "--seed", "0", "--tol", "1e-9"]),
    ("factorize-kl", ["factorize", "-i", "noisy.csv", "-o", "fac_kl", "--rank", "14",
                      "--loss", "kl", "--seed", "1"]),
    ("factorize-frobenius-noisy", ["factorize", "-i", "noisy.csv", "-o", "fac_frob_noisy",
                                   "--rank", "11", "--seed", "0"]),
    ("rank-scan", ["rank-scan", "-i", "swim.csv", "-o", "scan.json", "--r-min", "12",
                   "--r-max", "17", "--seeds", "3"]),
    ("rank-scan-rank1", ["rank-scan", "-i", "swim.csv", "-o", "scan_r1.json", "--r-min", "1",
                         "--r-max", "2", "--seeds", "2"]),
    ("rank-scan-dual-kl", ["rank-scan", "-i", "noisy.csv", "-o", "scan_dual_kl.json",
                           "--r-min", "14", "--r-max", "16", "--seeds", "2", "--dual",
                           "--loss", "kl"]),
    ("denoise-none", ["denoise", "-i", "swim.csv", "-o", "denoise_none.json", "--xi", "0.25",
                      "--seed", "7", "--r-lo", "10", "--r-hi", "12", "--seeds", "2"]),
    ("denoise-svd", ["denoise", "-i", "swim.csv", "-o", "denoise_svd.json", "--xi", "0.25",
                     "--seed", "7", "--r-lo", "10", "--r-hi", "12", "--seeds", "2",
                     "--baseline", "svd"]),
    ("denoise-svd-blas1", ["denoise", "-i", "swim.csv", "-o", "denoise_svd_blas1.json", "--xi",
                           "0.25", "--seed", "7", "--r-lo", "10", "--r-hi", "12", "--seeds", "2",
                           "--baseline", "svd", "--exclusions", "0"],
     {"OPENBLAS_NUM_THREADS": "1"}),
    ("denoise-svd-blas2", ["denoise", "-i", "swim.csv", "-o", "denoise_svd_blas2.json", "--xi",
                           "0.25", "--seed", "7", "--r-lo", "10", "--r-hi", "12", "--seeds", "2",
                           "--baseline", "svd", "--exclusions", "0"],
     {"OPENBLAS_NUM_THREADS": "2"}),
    ("stability-seed-pair-14", ["stability", "-i", "swim.csv", "-o", "stab_seed_14.json",
                                "--mode", "seed-pair", "--rank", "14"]),
    ("stability-seed-pair-60", ["stability", "-i", "swim.csv", "-o", "stab_seed_60.json",
                                "--mode", "seed-pair", "--rank", "60"]),
    ("stability-noise-split-14", ["stability", "-i", "swim.csv", "-o", "stab_noise_14.json",
                                  "--mode", "noise-split", "--rank", "14", "--xi", "0.05"]),
    ("stability-noise-split-60", ["stability", "-i", "swim.csv", "-o", "stab_noise_60.json",
                                  "--mode", "noise-split", "--rank", "60", "--xi", "0.05"]),
    ("analyze-export-pcc", ["analyze", "-i", "noisy.csv", "-f", "fac_frob", "-o",
                            "analysis.json", "--export-pcc", "pcc"]),
    ("analyze-kl", ["analyze", "-i", "noisy.csv", "-f", "fac_kl", "-o", "analysis_kl.json"]),
    ("analyze-export-pcc-blas1", ["analyze", "-i", "noisy.csv", "-f", "fac_frob", "-o",
                                  "analysis_blas1.json", "--export-pcc", "pcc_blas1"],
     {"OPENBLAS_NUM_THREADS": "1"}),
    ("analyze-export-pcc-blas2", ["analyze", "-i", "noisy.csv", "-f", "fac_frob", "-o",
                                  "analysis_blas2.json", "--export-pcc", "pcc_blas2"],
     {"OPENBLAS_NUM_THREADS": "2"}),
    ("rank-scan-dual-kl-blas1", ["rank-scan", "-i", "noisy.csv", "-o", "scan_dual_kl_blas1.json",
                                 "--r-min", "14", "--r-max", "16", "--seeds", "2", "--dual",
                                 "--loss", "kl"],
     {"OPENBLAS_NUM_THREADS": "1"}),
    ("rank-scan-dual-kl-blas2", ["rank-scan", "-i", "noisy.csv", "-o", "scan_dual_kl_blas2.json",
                                 "--r-min", "14", "--r-max", "16", "--seeds", "2", "--dual",
                                 "--loss", "kl"],
     {"OPENBLAS_NUM_THREADS": "2"}),
    ("rank-scan-frobenius-noisy-blas1", ["rank-scan", "-i", "noisy.csv", "-o",
                                         "scan_frob_noisy_blas1.json", "--r-min", "14",
                                         "--r-max", "16", "--seeds", "3"],
     {"OPENBLAS_NUM_THREADS": "1"}),
    ("rank-scan-frobenius-noisy-blas2", ["rank-scan", "-i", "noisy.csv", "-o",
                                         "scan_frob_noisy_blas2.json", "--r-min", "14",
                                         "--r-max", "16", "--seeds", "3"],
     {"OPENBLAS_NUM_THREADS": "2"}),
    ("factorize-frobenius-noisy-blas1", ["factorize", "-i", "noisy.csv", "-o",
                                         "fac_frob_noisy_blas1", "--rank", "11", "--seed", "0"],
     {"OPENBLAS_NUM_THREADS": "1"}),
    ("factorize-frobenius-noisy-blas2", ["factorize", "-i", "noisy.csv", "-o",
                                         "fac_frob_noisy_blas2", "--rank", "11", "--seed", "0"],
     {"OPENBLAS_NUM_THREADS": "2"}),
    ("cluster", ["cluster", "-i", "swim.csv", "-f", "fac_frob", "-o", "clusters",
                 "--pixel-shape", "13x13"]),
    ("cluster-k3-any", ["cluster", "-i", "swim.csv", "-f", "fac_kl", "-o", "clusters_k3",
                        "--k", "3", "--no-require-positive"]),
    ("factorize-kl-graded", ["factorize", "-i", "graded.csv", "-o", "fac_kl_graded", "--rank",
                             "6", "--loss", "kl", "--seed", "2"]),
    ("rank-scan-dual-kl-graded", ["rank-scan", "-i", "graded.csv", "-o",
                                  "scan_dual_kl_graded.json", "--r-min", "3", "--r-max", "6",
                                  "--seeds", "2", "--dual", "--loss", "kl"]),
    ("factorize-frobenius-tiny", ["factorize", "-i", "tiny.csv", "-o", "fac_frob_tiny",
                                  "--rank", "6", "--seed", "2"]),
    ("factorize-kl-tiny", ["factorize", "-i", "tiny.csv", "-o", "fac_kl_tiny", "--rank", "6",
                           "--loss", "kl", "--seed", "2"]),
    ("factorize-tiled", ["factorize", "-i", "tiled.csv", "-o", "fac_tiled", "--rank", "5",
                         "--seed", "1"]),
    ("factorize-pgm", ["factorize", "-i", "pgm", "-o", "fac_pgm", "--rank", "3",
                       "--seed", "4"]),
    ("stability-noise-split-graded", ["stability", "-i", "graded.csv", "-o",
                                      "stab_noise_graded.json", "--mode", "noise-split",
                                      "--rank", "4", "--xi", "0.1"]),
    ("stability-noise-split-pgm", ["stability", "-i", "pgm", "-o", "stab_noise_pgm.json",
                                   "--mode", "noise-split", "--rank", "2"]),
    ("cluster-pgm", ["cluster", "-i", "pgm", "-f", "fac_pgm", "-o", "clusters_pgm", "--k", "2"]),
    ("stability-seed-pair-options", ["stability", "-i", "swim.csv", "-o", "stab_seed_opts.json",
                                     "--mode", "seed-pair", "--rank", "14", "--max-iters", "300",
                                     "--tol", "1e-8"]),
    ("report", ["report", "-o", "bundle.json", "scan.json", "denoise_svd.json",
                "stab_seed_60.json"]),
)


def graded_rows() -> list[list[int]]:
    """A 48 x 64 matrix of integers in 0..255, about 40 % zeros, from a fixed seed."""
    rand = random.Random(2024)
    return [[rand.randint(1, 255) if rand.random() < 0.6 else 0 for _ in range(64)]
            for _ in range(48)]


def write_csv(path: Path, rows, cell=str) -> None:
    """Write ``rows`` as headerless CSV, each entry written by ``cell``."""
    path.write_text("\n".join(",".join(map(cell, row)) for row in rows) + "\n")


def write_tiled_csv(path: Path) -> None:
    """A 36 x 40 matrix of integers in 0..255 from a fixed seed whose rows are
    9 distinct rows, each used 4 times, in shuffled order; no row is all zero."""
    rand = random.Random(2026)
    distinct = [[255] + [rand.randint(1, 255) if rand.random() < 0.6 else 0 for _ in range(39)]
                for _ in range(9)]
    rows = distinct * 4
    rand.shuffle(rows)
    write_csv(path, rows)


def write_pgm_dir(path: Path) -> None:
    """Six 5 x 4 images of integers in 0..255, each with a 255, from a fixed seed:
    even-numbered files plain P2, odd-numbered ones binary P5, each header with
    comments between its tokens."""
    rand = random.Random(2025)
    path.mkdir()
    for k in range(6):
        samples = [rand.randint(1, 255) if rand.random() < 0.7 else 0 for _ in range(20)]
        samples[k] = 255
        header = f"P{5 if k % 2 else 2}\n# image {k}\n4 # width\n5\n# maxval\n255\n"
        if k % 2:
            raster = bytes(samples)
        else:
            raster = "\n".join(" ".join(map(str, samples[r:r + 4]))
                               for r in range(0, 20, 4)).encode() + b"\n"
        (path / f"img_{k}.pgm").write_bytes(header.encode() + raster)


# Largest relative change a float may show under --compare.
FLOAT_REL_TOL = 1e-11


def _float_change(a: float, b: float) -> float:
    """Relative change from a to b; 0 when equal (NaN equals NaN), inf for a sign
    or infinity mismatch."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_change(a, b) -> float:
    """Largest relative float change between two parsed JSON values; inf when
    any other value, type or structure differs."""
    if type(a) is not type(b):
        return math.inf
    if isinstance(a, float):
        return _float_change(a, b)
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_json_change(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            return math.inf
        return max((_json_change(x, y) for x, y in zip(a, b)), default=0.0)
    return 0.0 if a == b else math.inf


def _csv_cell(text: str):
    """An int, a float or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_change(text_a: str, text_b: str) -> float:
    """Largest relative float change between two CSV texts; inf when the shape or
    a non-float cell differs. A cell that reads as an int on both sides must
    be equal; ``%.17g`` writes an integral float without a point."""
    rows_a = list(csv.reader(text_a.splitlines()))
    rows_b = list(csv.reader(text_b.splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for a, b in zip(map(_csv_cell, row_a), map(_csv_cell, row_b)):
            if isinstance(a, str) or isinstance(b, str) or type(a) is type(b) is int:
                change = 0.0 if a == b else math.inf
            else:
                change = _float_change(float(a), float(b))
            worst = max(worst, change)
    return worst


def _file_change(path_a: Path, path_b: Path) -> float | None:
    """None when the bytes are equal, else the largest relative float change
    (inf when the difference is not a float within a JSON or CSV file)."""
    data_a, data_b = path_a.read_bytes(), path_b.read_bytes()
    if data_a == data_b:
        return None
    try:
        text_a, text_b = data_a.decode(), data_b.decode()
        if path_a.suffix == ".json":
            return _json_change(json.loads(text_a), json.loads(text_b))
        if path_a.suffix == ".csv":
            return _csv_change(text_a, text_b)
    except (UnicodeDecodeError, ValueError):
        pass
    return math.inf


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print how the files of two output directories differ; 0 when all pass."""
    files = [{p.relative_to(d).as_posix() for p in d.rglob("*")
              if p.is_file() and p.name != "SHA256SUMS"} for d in (dir_a, dir_b)]
    failed = 0
    for name in sorted(files[0] ^ files[1]):
        print(f"missing in {dir_b if name in files[0] else dir_a}: {name}")
        failed += 1
    moved = 0
    for name in sorted(files[0] & files[1]):
        change = _file_change(dir_a / name, dir_b / name)
        if change is None:
            continue
        moved += 1
        passed = change <= FLOAT_REL_TOL
        failed += not passed
        shown = "not a float change" if change == math.inf else f"max relative change {change:.3g}"
        print(f"{'moved' if passed else 'DIFFERS'}: {name}: {shown}")
    common = len(files[0] & files[1])
    print(f"golden: {common} common files, {common - moved} byte-identical, {moved} differing, "
          f"{failed} failing (float tolerance {FLOAT_REL_TOL:g} relative)", file=sys.stderr)
    return 1 if failed else 0


def blas_pairs_differing(out: Path) -> list[tuple[str, str]]:
    """The ``_blas1`` files under ``out`` whose ``_blas2`` twin differs or is
    missing, each with its twin, as paths relative to ``out``."""
    pairs = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        twin = name.replace("_blas1", "_blas2")
        if twin != name and (not (out / twin).is_file()
                             or (out / twin).read_bytes() != path.read_bytes()):
            pairs.append((name, twin))
    return pairs


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        dirs = [Path(arg) for arg in argv[1:]]
        for d in dirs:
            if not d.is_dir():
                print(f"golden: {d} is not a directory", file=sys.stderr)
                return 2
        return compare(*dirs)
    if len(argv) != 1:
        print("usage: python3 tools/golden.py OUTDIR\n"
              "       python3 tools/golden.py --compare DIR_A DIR_B", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    graded = graded_rows()
    write_csv(out / "graded.csv", graded)
    write_csv(out / "tiny.csv", ([v * 2.0 ** -40 for v in row] for row in graded), repr)
    write_tiled_csv(out / "tiled.csv")
    write_pgm_dir(out / "pgm")
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    logs = out / "logs"
    logs.mkdir()
    for name, args, *extra in COMMANDS:
        print(f"golden: {name}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, "-m", "pccnmf.cli", *args], cwd=out,
                              env=dict(env, **extra[0]) if extra else env,
                              capture_output=True, text=True)
        (logs / f"{name}.stdout").write_text(done.stdout)
        (logs / f"{name}.stderr").write_text(done.stderr)
        if done.returncode != 0:
            print(f"golden: {name} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
            return 1
    sums = sorted(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
        for path in out.rglob("*") if path.is_file())
    (out / "SHA256SUMS").write_text("\n".join(sums) + "\n")
    print(f"golden: {len(sums)} files in {out}", file=sys.stderr)
    differing = blas_pairs_differing(out)
    for name, twin in differing:
        print(f"golden: {name} and {twin} differ between 1 and 2 BLAS threads", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
