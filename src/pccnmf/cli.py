"""Command-line interface: every pipeline as a subcommand with reproducible outputs.

Exit codes: 0 success, 1 computational failure (JSON error object on stderr),
2 usage error. A warning is a JSON object on stderr too. All numeric payloads
are deterministic for fixed flags; the PCCNMF_SEED env var supplies the
default base seed and PCCNMF_TIMESTAMP pins report timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

from . import analysis, clustering, dataset, denoising, nmf, probability, rank_scan, stability
from .errors import Error, FormatError, ParameterError
from .report import SCHEMA_VERSION, RunReport, matrix_digest, timestamp


def _default_seed() -> int:
    value = os.environ.get("PCCNMF_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"PCCNMF_SEED must be an integer, got {value!r}") from None


def _seed(args) -> int:
    """``--seed``, else the ``PCCNMF_SEED`` base."""
    return args.seed if args.seed is not None else _default_seed()


def _seed_list(count: int, base: int) -> list[int]:
    return [base + k for k in range(count)]


def _solver_options(args) -> nmf.SolverOptions:
    return nmf.SolverOptions(max_iters=args.max_iters, rel_tol=args.tol)


def _add_solver_flags(parser):
    parser.add_argument("--max-iters", type=int, default=nmf.SolverOptions.max_iters)
    parser.add_argument("--tol", type=float, default=nmf.SolverOptions.rel_tol,
                        help="stop when the loss changes by at most TOL relative between "
                             "sweeps; a Frobenius fit also stops once its squared error is at "
                             "most 10*TOL*||P||^2, and below the default at most "
                             "1e-20*||P||^2 (default %(default)s)")


def _pixel_shape(arg: str | None):
    if arg is None:
        return None
    try:
        height, width = arg.lower().split("x")
        return int(height), int(width)
    except ValueError:
        raise ParameterError(f"--pixel-shape must look like 13x13, got {arg!r}") from None


def _table_path(args) -> Path:
    """Where the CSV table of a run record goes: ``--output`` with its suffix
    replaced by ``.csv``. An ``--output`` ending in ``.csv`` is rejected, as the
    table would overwrite the record."""
    if Path(args.output).suffix == ".csv":
        raise ParameterError(f"--output {args.output} ends in .csv, the name of its CSV table")
    return Path(args.output).with_suffix(".csv")


def _write_run(args, command: str, parameters: dict, seeds, m, started: str, outputs: dict,
               rows, header) -> None:
    """Write the run record at ``--output`` and its CSV table next to it. The record
    adds the solver options to ``parameters`` and names the digest of ``m``."""
    RunReport(command=command,
              parameters={**parameters, "max_iters": args.max_iters, "tol": args.tol},
              seeds=seeds, input_digests={"matrix": matrix_digest(m)}, outputs=outputs,
              timestamps={"started": started, "finished": timestamp()}).write_json(args.output)
    dataset.write_rows(_table_path(args), rows, header)


# The files that factorize and cluster write into their --output directory.
_DIRECTORY_OUTPUTS = {"factorize": nmf.FACTORIZATION_FILES,
                      "cluster": (clustering.REPORT_FILE, clustering.MONTAGE_INDEX_FILE)}


def _check_paths(args) -> None:
    """Reject a command that would write over a file it reads, write one file twice, or
    write a file where it writes a directory. Paths compare resolved, before any work."""
    held = []   # what the command reads, and the directory --export-pcc writes into
    if getattr(args, "input", None) is not None:
        source = Path(args.input)
        held.append((f"--input {args.input}", source))
        if source.is_dir():
            held += [(f"the {p.name} that --input {args.input} reads", p)
                      for p in source.iterdir() if p.suffix.lower() == ".pgm"]
    if getattr(args, "factorization", None) is not None:
        held += [(f"the {name} that --factorization {args.factorization} reads",
                   Path(args.factorization) / name) for name in nmf.FACTORIZATION_FILES]
    held += [(f"the input {name}", Path(name)) for name in getattr(args, "files", ())]
    if args.command in _DIRECTORY_OUTPUTS:
        writes = [(f"the {name} that --output {args.output} writes", Path(args.output) / name)
                  for name in _DIRECTORY_OUTPUTS[args.command]]
    else:
        writes = [(f"--output {args.output}", Path(args.output))]
    if args.command == "cluster":
        # Its montage strips are PGM files, which the next read of a PGM
        # directory would take as images.
        writes.append((f"the PGM strips that --output {args.output} writes", Path(args.output)))
    if args.command in ("swimmer-gen", "perturb"):
        writes.append((f"the sidecar of --output {args.output}", Path(args.output + ".json")))
    if args.command in ("rank-scan", "stability", "denoise"):
        writes.append((f"the CSV table of --output {args.output}", _table_path(args)))
    if getattr(args, "export_pcc", None):
        held.append((f"the directory --export-pcc {args.export_pcc}", Path(args.export_pcc)))
        writes += [(f"the {name} that --export-pcc {args.export_pcc} writes",
                    Path(args.export_pcc) / name)
                   for name in (probability.PCC_SUMMARY_FILE, *probability.PCC_MATRIX_FILES)]
    taken = {path.resolve(): name for name, path in held}
    for name, path in writes:
        other = taken.setdefault(path.resolve(), name)
        if other != name:
            raise ParameterError(f"{name} would write over {other}")


def cmd_swimmer_gen(args) -> int:
    m = dataset.generate_swimmer()
    dataset.save_matrix(m, args.output, source="swimmer")
    return 0


def cmd_perturb(args) -> int:
    m = dataset.rescale(dataset.load_matrix(args.input))
    seed = None
    if args.xi is not None:
        seed = _seed(args)
        m = dataset.apply_flip_noise(m, args.xi, seed)
    if args.binarize:
        m = dataset.binarize(m)
    dataset.save_matrix(m, args.output, source=str(args.input), seed=seed, xi=args.xi)
    return 0


def cmd_factorize(args) -> int:
    m = dataset.load_matrix(args.input)
    f = nmf.factorize(m, args.rank, args.loss, _seed(args), _solver_options(args))
    nmf.save_factorization(f, args.output)
    return 0


def cmd_rank_scan(args) -> int:
    m = dataset.load_matrix(args.input)
    tau = args.tau
    if tau is None:
        tau = 1.0 / (m.n_pixels * m.n_images)
    seeds = _seed_list(args.seeds, _default_seed())
    scan = rank_scan.estimate_rc_dual if args.dual else rank_scan.estimate_rc
    started = timestamp()
    report = scan(m, tau, args.r_min, args.r_max, seeds, args.loss, _solver_options(args))
    _write_run(args, "rank-scan",
               {"r_min": args.r_min, "r_max": args.r_max, "tau": tau, "loss": args.loss,
                "dual": args.dual},
               seeds, m, started, report.to_dict(), report.curve_rows(),
               ["R", "seed", "valid_fraction", "dbar", "error", "rrssq", "bic1", "bic2", "bic3"])
    return 0


def cmd_stability(args) -> int:
    mode = args.mode.replace("-", "_")
    m = dataset.load_matrix(args.input)
    m = dataset.rescale(m) if mode == "noise_split" else m
    started = timestamp()
    matching, fits = stability.stability_experiment(
        m, rank=args.rank, mode=mode, xi=args.xi, seed_a=args.seed_a, seed_b=args.seed_b,
        opts=_solver_options(args))
    histogram = stability.distance_histogram(matching.distances)
    _write_run(args, "stability_experiment",
               {"rank": args.rank, "mode": mode, "xi": args.xi, "seed_a": args.seed_a,
                "seed_b": args.seed_b, "loss": nmf.LOSS_FROBENIUS},
               [args.seed_a, args.seed_b], m, started,
               {"matching": matching.to_dict(), "histogram": histogram,
                "final_losses": [float(f.trace[-1]) for f in fits],
                "iters": [f.iters for f in fits],
                "converged": [f.converged for f in fits]},
               histogram, ["bin_lo", "bin_hi", "count", "pct"])
    return 0


def cmd_analyze(args) -> int:
    started = timestamp()
    m = dataset.load_matrix(args.input)
    f = nmf.load_factorization(args.factorization)
    pcc = probability.derive_pcc(m, f)
    if args.export_pcc:
        probability.export_pcc(pcc, args.export_pcc)
    payload = {"rank": f.rank, "seed": f.seed, "loss": f.loss,
               **dataclasses.asdict(analysis.anticorrelation_report(pcc)),
               "entropy_violations": analysis.image_entropies(pcc).violations,
               **dataclasses.asdict(analysis.sparsity_comparison(pcc))}
    RunReport(command="analyze", parameters={"factorization": str(args.factorization)},
              seeds=[f.seed], input_digests={"matrix": matrix_digest(m)}, outputs=payload,
              timestamps={"started": started, "finished": timestamp()}).write_json(args.output)
    return 0


def cmd_cluster(args) -> int:
    m = dataset.load_matrix(args.input)
    shape = _pixel_shape(args.pixel_shape)
    if shape is not None:
        if m.pixel_shape not in (None, shape):
            raise ParameterError(f"--pixel-shape {args.pixel_shape} differs from the images' "
                                 f"shape {m.pixel_shape}")
        m = dataset.DataMatrix(m.values, shape)
    f = nmf.load_factorization(args.factorization)
    pcc = probability.derive_pcc(m, f)
    report = clustering.natural_clusters(pcc, k=args.k, require_positive=args.require_positive)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    report_json = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    (out / clustering.REPORT_FILE).write_text(report_json)
    if m.pixel_shape is not None:
        clustering.export_cluster_montage(report, m, f, out)
    return 0


def cmd_denoise(args) -> int:
    clean = dataset.rescale(dataset.load_matrix(args.input))
    seed = _seed(args)
    noisy = dataset.apply_flip_noise(clean, args.xi, seed)
    seeds = _seed_list(args.seeds, _default_seed())
    opts = _solver_options(args)
    started = timestamp()
    report = denoising.find_r_range(clean, noisy, range(args.r_lo, args.r_hi + 1),
                                    exclusions=args.exclusions, seeds=seeds, opts=opts,
                                    xi=args.xi, svd_baseline=args.baseline == "svd")
    if args.baseline == "svd":
        curves = report.ac_curves()
        header = ["R", "ac_nmf", "ac_svd", "ac_nmf_smoothed", "ac_svd_smoothed", "violations"]
        rows = [(e.rank, curves["ac_nmf"][i], curves["ac_svd"][i],
                 curves["ac_nmf_smoothed"][i], curves["ac_svd_smoothed"][i], e.violations)
                for i, e in enumerate(report.entries)]
    else:
        header = ["R", "violations", "min_margin"]
        rows = [(e.rank, e.violations, e.min_margin) for e in report.entries]
    _write_run(args, "denoise",
               {"xi": args.xi, "r_lo": args.r_lo, "r_hi": args.r_hi,
                "exclusions": args.exclusions, "baseline": args.baseline, "noise_seed": seed},
               seeds, clean, started, report.to_dict(), rows, header)
    return 0


def _finite_float(text: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and numbers that
    overflow to infinity are not strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def cmd_report(args) -> int:
    bundle = {"schema": SCHEMA_VERSION, "command": "report", "inputs": {}}
    for name in args.files:
        path = Path(name)
        if path.name in bundle["inputs"]:
            raise ParameterError(f"two inputs are named {path.name!r}; "
                                 "the bundle keys its inputs by file name")
        try:
            text = path.read_text(encoding="utf-8")
            bundle["inputs"][path.name] = (
                json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
                if path.suffix == ".json" else text.splitlines())
        except ValueError as exc:   # not UTF-8, or not strict JSON
            raise FormatError(f"{path}: unreadable: {exc}") from None
    Path(args.output).write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccnmf",
        description="Nonnegative matrix factorization with common-cause diagnostics.")
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
    with warnings.catch_warnings():
        # A warning is one JSON line on stderr too, not a file name and a source line.
        warnings.showwarning = lambda message, category, *_: print(
            json.dumps({"warning": category.__name__, "message": str(message)}), file=sys.stderr)
        try:
            _check_paths(args)
            return args.func(args)
        except (Error, OSError) as exc:
            name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
            print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
