"""Command-line interface: every pipeline as a subcommand with reproducible outputs.

Exit codes: 0 success, 1 computational failure (JSON error object on stderr),
2 usage error. All numeric payloads are deterministic for fixed flags in
single-threaded mode; the PCCNMF_SEED env var supplies the default base seed
and PCCNMF_TIMESTAMP pins report timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis, clustering, dataset, denoising, nmf, probability, rank_scan, stability
from .errors import Error, ParameterError
from .report import RunReport, matrix_digest, timestamp


def _default_seed() -> int:
    value = os.environ.get("PCCNMF_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"PCCNMF_SEED must be an integer, got {value!r}") from None


def _seed_list(count: int, base: int) -> list[int]:
    return [base + k for k in range(count)]


def _load(path) -> dataset.DataMatrix:
    path = Path(path)
    if path.is_dir():
        return dataset.load_matrix(path, format="pgm_dir")
    return dataset.load_matrix(path, format="csv")


def _solver_options(args) -> nmf.SolverOptions:
    return nmf.SolverOptions(max_iters=args.max_iters, rel_tol=args.tol)


def _add_solver_flags(parser, max_iters=2000, tol=1e-6):
    parser.add_argument("--max-iters", type=int, default=max_iters)
    parser.add_argument("--tol", type=float, default=tol)


def _positive_int(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _pixel_shape(arg: str | None):
    if arg is None:
        return None
    try:
        height, width = arg.lower().split("x")
        return int(height), int(width)
    except ValueError:
        raise ParameterError(f"--pixel-shape must look like 13x13, got {arg!r}") from None


def cmd_swimmer_gen(args) -> int:
    m = dataset.generate_swimmer()
    dataset.save_matrix(m, args.output, source="swimmer")
    return 0


def cmd_perturb(args) -> int:
    m = _load(args.input)
    if m.scale == dataset.SCALE_RAW255:
        m = dataset.rescale(m)
    xi = None
    seed = None
    if args.xi is not None:
        seed = args.seed if args.seed is not None else _default_seed()
        xi = args.xi
        m = dataset.apply_flip_noise(m, xi, seed)
    if args.binarize:
        m = dataset.binarize(m)
    dataset.save_matrix(m, args.output, source=str(args.input), seed=seed, xi=xi)
    return 0


def cmd_factorize(args) -> int:
    m = _load(args.input)
    seed = args.seed if args.seed is not None else _default_seed()
    f = nmf.factorize(m, args.rank, args.loss, seed, _solver_options(args))
    nmf.save_factorization(f, args.output)
    return 0


def cmd_rank_scan(args) -> int:
    m = _load(args.input)
    tau = args.tau
    if tau is None:
        tau = 1.0 / (m.n_pixels * m.n_images)
    seeds = _seed_list(args.seeds, _default_seed())
    scan = rank_scan.estimate_rc_dual if args.dual else rank_scan.estimate_rc
    started = timestamp()
    report = scan(m, tau, args.r_min, args.r_max, seeds, args.loss,
                  _solver_options(args), threads=args.threads)
    run = RunReport(command="rank-scan",
                    parameters={"r_min": args.r_min, "r_max": args.r_max, "tau": tau,
                                "loss": args.loss, "dual": args.dual,
                                "max_iters": args.max_iters, "tol": args.tol},
                    seeds=seeds,
                    input_digests={"matrix": matrix_digest(m)},
                    outputs=report.to_dict(), started=started, finished=timestamp())
    run.write_json(args.output)
    dataset.write_rows(Path(args.output).with_suffix(".csv"), report.curve_rows(),
                       ["R", "seed", "valid_fraction", "dbar", "error", "rrssq",
                        "bic1", "bic2", "bic3"])
    return 0


def cmd_stability(args) -> int:
    m = _load(args.input)
    mode = args.mode.replace("-", "_")
    matching, run = stability.stability_experiment(
        m, rank=args.rank, mode=mode, xi=args.xi, seed_a=args.seed_a, seed_b=args.seed_b,
        opts=_solver_options(args))
    run.write_json(args.output)
    dataset.write_rows(Path(args.output).with_suffix(".csv"),
                       stability.distance_histogram(matching.distances),
                       ["bin_lo", "bin_hi", "count", "pct"])
    return 0


def cmd_analyze(args) -> int:
    m = _load(args.input)
    f = nmf.load_factorization(args.factorization)
    pcc = probability.derive_pcc(m, f)
    if args.export_pcc:
        probability.export_pcc(pcc, args.export_pcc)
    anti = analysis.anticorrelation_report(pcc)
    entropies = analysis.image_entropies(pcc)
    sparsity = analysis.sparsity_comparison(pcc)
    payload = {
        "rank": f.rank,
        "seed": f.seed,
        "loss": f.loss,
        "r_w": anti.r_w,
        "r_v": anti.r_v,
        "length": anti.length,
        "entropy_violations": entropies.violations,
        "lhs": sparsity.lhs,
        "rhs": sparsity.rhs,
        "hoyer_images": sparsity.hoyer_images,
        "hoyer_bases": sparsity.hoyer_bases,
    }
    run = RunReport(command="analyze",
                    parameters={"factorization": str(args.factorization)},
                    seeds=[f.seed],
                    input_digests={"matrix": matrix_digest(m)},
                    outputs=payload)
    run.write_json(args.output)
    return 0


def cmd_cluster(args) -> int:
    m = _load(args.input)
    if m.pixel_shape is None and args.pixel_shape:
        m = dataset.DataMatrix(m.values, _pixel_shape(args.pixel_shape), m.scale)
    f = nmf.load_factorization(args.factorization)
    pcc = probability.derive_pcc(m, f)
    report = clustering.natural_clusters(pcc, k=args.k, require_positive=args.require_positive)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "clusters.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if m.pixel_shape is not None:
        clustering.export_cluster_montage(report, m, f, out)
    return 0


def cmd_denoise(args) -> int:
    clean = _load(args.input)
    if clean.scale == dataset.SCALE_RAW255:
        clean = dataset.rescale(clean)
    seed = args.seed if args.seed is not None else _default_seed()
    noisy = dataset.apply_flip_noise(clean, args.xi, seed)
    seeds = _seed_list(args.seeds, _default_seed())
    opts = _solver_options(args)
    started = timestamp()
    if args.baseline == "svd":
        report = denoising.compare_with_svd(clean, noisy, range(args.r_lo, args.r_hi + 1),
                                            seeds=seeds, opts=opts, exclusions=args.exclusions,
                                            xi=args.xi, threads=args.threads)
        curves = report.ac_curves()
        header = ["R", "ac_nmf", "ac_svd", "ac_nmf_smoothed", "ac_svd_smoothed", "violations"]
        rows = [(e.rank, curves["ac_nmf"][i], curves["ac_svd"][i],
                 curves["ac_nmf_smoothed"][i], curves["ac_svd_smoothed"][i], e.violations)
                for i, e in enumerate(report.entries)]
    else:
        report = denoising.find_r_range(clean, noisy, args.r_lo, args.r_hi,
                                        exclusions=args.exclusions, seeds=seeds, opts=opts,
                                        xi=args.xi, threads=args.threads)
        header = ["R", "violations", "min_margin"]
        rows = [(e.rank, e.violations, e.min_margin) for e in report.entries]
    run = RunReport(command="denoise",
                    parameters={"xi": args.xi, "r_lo": args.r_lo, "r_hi": args.r_hi,
                                "exclusions": args.exclusions, "baseline": args.baseline,
                                "noise_seed": seed, "max_iters": args.max_iters,
                                "tol": args.tol},
                    seeds=seeds,
                    input_digests={"matrix": matrix_digest(clean)},
                    outputs=report.to_dict(), started=started, finished=timestamp())
    run.write_json(args.output)
    dataset.write_rows(Path(args.output).with_suffix(".csv"), rows, header)
    return 0


def cmd_report(args) -> int:
    bundle = {"schema": 1, "command": "report", "inputs": {}}
    for name in args.files:
        path = Path(name)
        if path.suffix == ".json":
            bundle["inputs"][path.name] = json.loads(path.read_text())
        else:
            bundle["inputs"][path.name] = path.read_text().splitlines()
    Path(args.output).write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccnmf",
        description="Nonnegative matrix factorization with common-cause diagnostics.")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="parallel scan workers (default 1, fully reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("swimmer-gen", help="generate the 169x256 Swimmer matrix")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_swimmer_gen)

    p = sub.add_parser("perturb", help="rescale, flip-noise, and/or binarize a matrix")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--binarize", action="store_true")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("factorize", help="factorize a matrix at a given rank")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--loss", choices=[nmf.LOSS_FROBENIUS, nmf.LOSS_KL],
                   default=nmf.LOSS_FROBENIUS)
    p.add_argument("--seed", type=int, default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("rank-scan", help="predictability scan for the effective rank")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True, help="JSON report (CSV written alongside)")
    p.add_argument("--r-min", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--tau", type=float, default=None,
                   help="invalid-pair tolerance (default 1/(N*M))")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (base from PCCNMF_SEED)")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--loss", choices=[nmf.LOSS_FROBENIUS, nmf.LOSS_KL],
                   default=nmf.LOSS_FROBENIUS)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_rank_scan)

    p = sub.add_parser("stability", help="match bases across noise halves or seeds")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mode", choices=["noise-split", "seed-pair"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--seed-a", type=int, default=0)
    p.add_argument("--seed-b", type=int, default=1)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("analyze", help="anticorrelation, entropy, sparsity diagnostics")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-f", "--factorization", required=True, help="factorization directory")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--export-pcc", default=None,
                   help="also dump the probability family (summary.json + CSV matrices) here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cluster", help="group images under their driving basis")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-f", "--factorization", required=True)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--require-positive", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--pixel-shape", default=None, help="HxW for montage rendering, e.g. 13x13")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("denoise", help="rank sweep of the denoising condition")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help="noise seed (default PCCNMF_SEED)")
    p.add_argument("--r-lo", type=int, required=True)
    p.add_argument("--r-hi", type=int, required=True)
    p.add_argument("--exclusions", type=int, default=2)
    p.add_argument("--seeds", type=int, default=3, help="solver seeds per rank")
    p.add_argument("--baseline", choices=["none", "svd"], default="none")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("report", help="bundle JSON/CSV outputs into one document")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Error as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
