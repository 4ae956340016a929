"""Benchmark of pccnmf: two rank scans and one CLI pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload scan-frob-clean --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout. ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. Progress, host facts and any failed check go to stderr; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

N_PIXELS, N_IMAGES = 169, 256
TAU = 1.0 / (N_PIXELS * N_IMAGES)     # one invalid pair in the dataset, the CLI default
PINNED_TIMESTAMP = "2000-01-01T00:00:00+00:00"
SETUP_PROBES = 5
WARM_UP_SWEEPS = 50
COMMAND_TIMEOUT_S = 150

# The scans use fixed solver seeds (the CLI's defaults with PCCNMF_SEED unset)
# and a fixed noise draw: sweep counts, and with them the work of a scan, vary
# several-fold between seeds (README, "Why the scan seeds are fixed").
SCANS = {
    "scan-frob-clean": {"loss": "frobenius", "dual": False, "xi": None, "noise_seed": None,
                        "r_min": 12, "r_max": 17, "seeds": [0, 1, 2], "band": [12, 16]},
    "scan-kl-noisy": {"loss": "kl", "dual": True, "xi": 0.05, "noise_seed": 11,
                      "r_min": 14, "r_max": 17, "seeds": [0, 1], "band": None},
}
CLI = {
    "perturb_xi": 0.05, "denoise_xi": 0.25, "denoise_noise_seed": 7,
    "denoise_ranks": [10, 12], "factorize_rank": 14, "seed_pair_rank": 60,
    "noise_split_rank": 14, "noise_split_xi": 0.05, "exclusions": 2,
}
WORKLOADS = (*SCANS, "cli-pipeline")
SUBCOMMANDS = ("perturb", "denoise", "factorize", "analyze", "cluster", "stability", "report")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def import_program():
    """Import pccnmf from this checkout's src/, and nothing else."""
    if not (SRC / "pccnmf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'pccnmf'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import pccnmf
    if Path(pccnmf.__file__).resolve().parent != (SRC / "pccnmf").resolve():
        raise SystemExit(f"perfbench: imported pccnmf from {pccnmf.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PCCNMF_SEED", None)
    env["PCCNMF_TIMESTAMP"] = PINNED_TIMESTAMP
    return env


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def digest(*blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob if isinstance(blob, bytes) else json.dumps(blob, sort_keys=True).encode())
    return h.hexdigest()[:16]


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be read."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    }


# --------------------------------------------------------------------------- scans

class ScanWorkload:
    """estimate_rc / estimate_rc_dual on the Swimmer matrix, in this process."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.spec = SCANS[name]

    def parameters(self) -> dict:
        return {"workload": self.name, "tau": TAU, **self.spec}

    def make_inputs(self):
        from pccnmf import dataset
        spec = self.spec
        m = dataset.generate_swimmer()
        if spec["xi"] is not None:
            m = dataset.apply_flip_noise(m, spec["xi"], spec["noise_seed"])
        self.m = m

    def warm_up(self):
        # A short scan over the whole rank window runs every code path and
        # array shape of a round once.
        from pccnmf import nmf, rank_scan
        spec = self.spec
        scan = rank_scan.estimate_rc_dual if spec["dual"] else rank_scan.estimate_rc
        scan(self.m, TAU, spec["r_min"], spec["r_max"], [0], spec["loss"],
             nmf.SolverOptions(max_iters=WARM_UP_SWEEPS))

    def input_digest(self) -> str:
        return digest(repr(self.m.values.shape).encode(), self.m.values.tobytes())

    def operations(self) -> int:
        spec = self.spec
        return (spec["r_max"] - spec["r_min"] + 1) * len(spec["seeds"])

    def run_round(self, traced: bool):
        from pccnmf import rank_scan
        spec = self.spec
        scan = rank_scan.estimate_rc_dual if spec["dual"] else rank_scan.estimate_rc
        c0, t0 = cpu_seconds(resource.RUSAGE_SELF), time.perf_counter()
        try:
            report = scan(self.m, TAU, spec["r_min"], spec["r_max"], spec["seeds"], spec["loss"])
            failed = 0
        except Exception as exc:        # a failed scan fails all of its points
            log(f"scan failed: {type(exc).__name__}: {exc}")
            report, failed = None, self.operations()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(resource.RUSAGE_SELF) - c0
        output = json.dumps(report.to_dict()) if report is not None else ""
        return {"wall": wall, "cpu": cpu, "failed": failed, "report": report, "output": output}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, last: dict) -> tuple[list[str], float]:
        import numpy as np
        import checks
        from pccnmf import dataset, nmf, probability, rank_scan
        report, spec = last["report"], self.spec
        data = self.m.values
        problems = checks.scan_problems(report, data, TAU, band=spec["band"])
        rng = np.random.default_rng(self.seed)
        for index in sorted(rng.choice(len(report.entries), size=2, replace=False)):
            entry = report.entries[int(index)]
            f = nmf.factorize(self.m, entry.rank, spec["loss"], entry.seed)
            problems += checks.refit_problems(entry, data, f, spec["dual"])
        if spec["xi"] is not None:
            clean = dataset.generate_swimmer().values
            problems += checks.noise_problems(clean, data, spec["xi"], spec["noise_seed"])
        else:
            basis, weights = dataset.swimmer_parts()
            exact = nmf.Factorization(basis=basis, weights=weights, rank=basis.shape[1],
                                      loss=nmf.LOSS_FROBENIUS, seed=0, trace=np.array([0.0]),
                                      converged=True)
            fraction = rank_scan.predictability_fraction(probability.derive_pcc(self.m, exact))
            problems += checks.exact_parts_problems(data, basis, weights, fraction)
        fit = statistics.median(e.rrssq for e in report.entries)
        return problems, fit

    def traced_groups(self, round_: dict, tracer) -> tuple[list, list]:
        return [tracer.take()], tracer.loss_eval_ms()

    def command_walls(self, round_: dict) -> dict:
        return {}


# --------------------------------------------------------------------------- CLI

class CliWorkload:
    """One chain of pccnmf subprocesses, each the program's default --threads 1."""

    def __init__(self, seed: int):
        import numpy as np
        self.name, self.seed = "cli-pipeline", seed
        self.perturb_seed = int(np.random.default_rng(seed).integers(2 ** 31))
        self.dir = WORK / self.name
        self.env = child_env()

    def parameters(self) -> dict:
        return {"workload": self.name, "perturb_seed": self.perturb_seed, **CLI}

    def commands(self) -> list[list[str]]:
        c = CLI
        lo, hi = c["denoise_ranks"]
        return [
            ["swimmer-gen", "-o", "swim.csv"],
            ["perturb", "-i", "swim.csv", "-o", "noisy.csv", "--xi", str(c["perturb_xi"]),
             "--seed", str(self.perturb_seed)],
            ["denoise", "-i", "swim.csv", "-o", "denoise.json", "--xi", str(c["denoise_xi"]),
             "--seed", str(c["denoise_noise_seed"]), "--r-lo", str(lo), "--r-hi", str(hi),
             "--seeds", "1", "--exclusions", str(c["exclusions"]), "--baseline", "svd"],
            ["factorize", "-i", "noisy.csv", "-o", "fac", "--rank", str(c["factorize_rank"]),
             "--seed", "0"],
            ["analyze", "-i", "noisy.csv", "-f", "fac", "-o", "analyze.json",
             "--export-pcc", "pcc"],
            ["cluster", "-i", "noisy.csv", "-f", "fac", "-o", "clusters",
             "--pixel-shape", "13x13"],
            ["stability", "-i", "swim.csv", "-o", "seed_pair.json", "--mode", "seed-pair",
             "--rank", str(c["seed_pair_rank"]), "--seed-a", "0", "--seed-b", "1"],
            ["stability", "-i", "swim.csv", "-o", "noise_split.json", "--mode", "noise-split",
             "--rank", str(c["noise_split_rank"]), "--xi", str(c["noise_split_xi"]),
             "--seed-a", "0", "--seed-b", "1"],
            ["report", "-o", "bundle.json", "denoise.json", "analyze.json", "seed_pair.json",
             "noise_split.json"],
        ]

    def make_inputs(self):
        # The chain generates its own inputs (swimmer-gen, perturb) in the timed part.
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def warm_up(self):
        # One CLI process loads the interpreter and the package once.
        warm = self.dir / "warmup"
        warm.mkdir()
        subprocess.run([sys.executable, "-m", "pccnmf.cli", "swimmer-gen", "-o", "swim.csv"],
                       cwd=warm, env=self.env, check=True, timeout=COMMAND_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)

    def input_digest(self) -> str:
        import checks
        from pccnmf import dataset
        clean = dataset.generate_swimmer().values
        noisy = checks.flip(clean, CLI["perturb_xi"], self.perturb_seed)
        return digest(clean.tobytes(), noisy.tobytes())

    def operations(self) -> int:
        return len(self.commands())

    def run_round(self, traced: bool):
        round_dir = self.dir / "round"
        spans_dir = self.dir / "spans"
        for d in (round_dir, spans_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        return run_commands(self.commands(), round_dir, self.env,
                            spans_dir if traced else None)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, last: dict) -> tuple[list[str], float]:
        """Check the files the last round wrote; returns (problems, fit_rrssq)."""
        import numpy as np
        import checks
        from pccnmf import nmf
        from pccnmf.dataset import DataMatrix

        d, c = self.dir / "round", CLI

        def load(name):
            return np.loadtxt(d / name, delimiter=",", ndmin=2)

        def report(name):
            doc = json.loads((d / name).read_text())
            if doc.get("schema") != 1:
                problems.append(f"{name}: schema {doc.get('schema')!r}, want 1")
            return doc

        problems = []
        clean, noisy = load("swim.csv"), load("noisy.csv")
        problems += checks.swimmer_problems(clean)
        problems += checks.noise_problems(clean, noisy, c["perturb_xi"], self.perturb_seed)

        den = report("denoise.json")["outputs"]
        den_noisy = checks.flip(clean, c["denoise_xi"], c["denoise_noise_seed"])
        problems += checks.denoise_problems(den, clean, den_noisy, min_ac=10.0 / N_IMAGES)

        basis, weights = load("fac/B.csv"), load("fac/W.csv")
        fit = checks.residual(noisy, basis, weights)
        meta = json.loads((d / "fac" / "meta.json").read_text())
        from_loss = (meta["final_loss"] ** 0.5) / float(np.linalg.norm(noisy))
        if abs(from_loss - fit) > 1e-9 * fit:
            problems.append(f"factorize residual {fit} disagrees with meta final_loss")

        analyze = report("analyze.json")["outputs"]
        if analyze["rank"] != c["factorize_rank"]:
            problems.append(f"analyze reports rank {analyze['rank']}")
        family = {p.stem: np.loadtxt(p, delimiter=",", ndmin=2)
                  for p in (d / "pcc").glob("*.csv")}
        problems += checks.pcc_problems(family)
        clusters = json.loads((d / "clusters" / "clusters.json").read_text())
        problems += checks.cluster_problems(clusters, family["cond_image_given_basis"], noisy)

        swim = DataMatrix(clean)
        seed_pair = report("seed_pair.json")["outputs"]["matching"]
        f1 = nmf.factorize(swim, c["seed_pair_rank"], seed=0)
        f2 = nmf.factorize(swim, c["seed_pair_rank"], seed=1)
        problems += checks.matching_problems(
            seed_pair, checks.cosine_distances(f1.basis, f2.basis))
        half = N_IMAGES // 2
        second = checks.flip(clean[:, half:], c["noise_split_xi"], 1)
        g1 = nmf.factorize(DataMatrix(clean[:, :half]), c["noise_split_rank"], seed=0)
        g2 = nmf.factorize(DataMatrix(second), c["noise_split_rank"], seed=0)
        noise_split = report("noise_split.json")["outputs"]["matching"]
        problems += checks.matching_problems(
            noise_split, checks.cosine_distances(g1.basis, g2.basis))

        bundle = report("bundle.json")
        if sorted(bundle["inputs"]) != ["analyze.json", "denoise.json", "noise_split.json",
                                        "seed_pair.json"]:
            problems.append(f"bundle inputs {sorted(bundle['inputs'])}")
        return problems, fit

    def traced_groups(self, round_: dict, tracer) -> tuple[list, list]:
        groups, losses = [], []
        for path in sorted(round_["spans"]):
            doc = json.loads(Path(path).read_text())
            groups.append(doc["spans"])
            losses += doc["loss_eval_ms"]
            if doc["missing"]:
                log(f"not traced in {Path(path).stem} (attribute missing): "
                    f"{', '.join(doc['missing'])}")
        return groups, losses

    def command_walls(self, round_: dict) -> dict:
        walls = dict.fromkeys(SUBCOMMANDS, 0.0)
        for cmd, wall in zip(self.commands(), round_["walls"]):
            if cmd[0] in walls:
                walls[cmd[0]] += wall
        return walls


def run_commands(commands, cwd: Path, env: dict, spans_dir: Path | None) -> dict:
    """Run CLI commands in order; a command that exits non-zero is a failed operation."""
    walls, codes, spans = [], [], []
    c0, t0 = cpu_seconds(resource.RUSAGE_CHILDREN), time.perf_counter()
    for k, cmd in enumerate(commands):
        if spans_dir is None:
            argv = [sys.executable, "-m", "pccnmf.cli", *cmd]
        else:
            spans.append(str(spans_dir / f"{k:02d}_{cmd[0]}.json"))
            argv = [sys.executable, str(BENCH / "traced_cli.py"), spans[-1], *cmd]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S)
            code = proc.returncode
            if code != 0:
                log(f"command {cmd[0]} exited {code}: {proc.stderr.strip()[-500:]}")
        except subprocess.TimeoutExpired:
            code = -1
            log(f"command {cmd[0]} timed out after {COMMAND_TIMEOUT_S} s")
        walls.append(time.perf_counter() - start)
        codes.append(code)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - c0
    outputs = {str(p.relative_to(cwd)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"wall": wall, "cpu": cpu, "failed": sum(code != 0 for code in codes),
            "codes": codes, "walls": walls, "spans": spans,
            "output": json.dumps(outputs, sort_keys=True)}


# --------------------------------------------------------------------------- entry point

def make_workload(name: str, seed: int):
    return CliWorkload(seed) if name == "cli-pipeline" else ScanWorkload(name, seed)


def timed_rounds(workload, seconds: float, trace: bool, tracer) -> list[dict]:
    """Repeat whole rounds for about ``seconds``; with tracing, alternate plain and traced.

    A further round (or plain/traced pair) starts only when its expected
    duration still fits; the first one always runs.
    """
    rounds = []
    start = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    while True:
        for traced in kinds:
            if traced:
                tracer.install()
            try:
                result = workload.run_round(traced)
            finally:
                if traced:
                    tracer.uninstall()
            result["traced"] = traced
            if traced:
                result["groups"], result["loss_ms"] = workload.traced_groups(result, tracer)
            rounds.append(result)
            log(f"{workload.name}: round {len(rounds)} traced={traced} "
                f"wall={result['wall']:.3f}s failed={result['failed']}")
        per_cycle = sum(statistics.median(r["wall"] for r in rounds if r["traced"] == k)
                        for k in kinds)
        if time.perf_counter() - start + per_cycle > seconds:
            return rounds


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter doing this workload's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       check=True, timeout=COMMAND_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def startup_seconds() -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pccnmf"], env=child_env(), check=True,
                       timeout=COMMAND_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def per_layer_metrics(workload, rounds: list[dict], setup_groups: list) -> dict:
    import tracing
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = [tracing.layer_metrics(r["groups"]) for r in traced]
    metrics = tracing.median_metrics(per_round)
    setup = tracing.layer_metrics(setup_groups)
    for name in ("dataset.generate_swimmer.self_s", "dataset.apply_flip_noise.self_s"):
        metrics[name] += setup[name]
    losses = [ms for r in traced for ms in r["loss_ms"]]
    metrics["nmf.loss_eval_ms"] = statistics.median(losses) if losses else 0.0
    factorize_ms = 1e3 * metrics["nmf.factorize.self_s"]
    metrics["nmf.loss_share_est"] = (metrics["nmf.loss_eval_ms"] * metrics["nmf.sweeps"]
                                     / factorize_ms if factorize_ms else 0.0)
    metrics["cli.startup_s"] = startup_seconds()
    walls = [workload.command_walls(r) for r in plain]
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = statistics.median(w.get(sub, 0.0) for w in walls)
    plain_wall = statistics.median(r["wall"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - plain_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain_wall
    return metrics


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up and exit (used to time set-up)")
    args = parser.parse_args(argv)

    import_program()
    units = load_spec()
    workload = make_workload(args.workload, args.seed)
    tracer = None
    if args.trace and not args.setup_only:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload.make_inputs()
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.warm_up()
    if args.setup_only:
        return 0
    setup_groups = [tracer.take()] if tracer is not None else []

    facts = {"host": host_facts(), "parameters": workload.parameters(),
             "parameters_digest": digest(workload.parameters()),
             "input_digest": workload.input_digest(), "seed": args.seed}
    log(json.dumps(facts, sort_keys=True))

    rounds = timed_rounds(workload, args.seconds, bool(args.trace), tracer)
    peak_rss = workload.peak_rss_mb()
    attempted = workload.operations() * len(rounds)
    failed = sum(r["failed"] for r in rounds)

    problems = []
    if len({r["output"] for r in rounds if r["failed"] == 0}) > 1:
        problems.append("rounds of the same operations gave different outputs")
    fit = float("nan")
    if rounds[-1]["failed"] == 0:
        found, fit = workload.check(rounds[-1])
        problems += found
    else:
        problems.append("the last round, whose outputs are checked, had failed operations")
    if tracer is not None and tracer.missing:
        log(f"not traced (attribute missing): {', '.join(tracer.missing)}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        values = per_layer_metrics(workload, rounds, setup_groups)
    else:
        values = {
            "setup_s": setup_seconds(args.workload, args.seed),
            "wall_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            "peak_rss_mb": peak_rss,
            "fit_rrssq": fit,
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
