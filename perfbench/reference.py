"""Reference figures quoted in README.md.

Run from the repository root: python3 perfbench/reference.py (about 4 minutes).

1. scan-frob-clean at the host's default BLAS threading and with
   OPENBLAS_NUM_THREADS=1, alternating, two runs each with the same seed.
2. ``match_bases`` against one ``solve_assignment`` on the same cosine cost
   matrix, for Swimmer bases factorized with seeds 0 and 1 at R=17/30/60.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def blas_threads_runs(seed: int = 1, pairs: int = 2) -> dict:
    results = {"default": [], "OPENBLAS_NUM_THREADS=1": []}
    for _ in range(pairs):
        for label in results:
            env = dict(os.environ)
            if label != "default":
                env["OPENBLAS_NUM_THREADS"] = "1"
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", "scan-frob-clean",
                 "--seed", str(seed), "--seconds", "25", "--trace", "0"],
                env=env, capture_output=True, text=True, check=True, cwd=run.ROOT)
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            results[label].append({k: metrics[k]["value"] for k in ("wall_s", "cpu_s")})
    return {label: {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s")}
            for label, runs in results.items()}


def matching_costs(ranks=(17, 30, 60)) -> list[dict]:
    from pccnmf import dataset, nmf, stability
    m = dataset.generate_swimmer()
    rows = []
    for rank in ranks:
        b1 = nmf.factorize(m, rank, seed=0).basis
        b2 = nmf.factorize(m, rank, seed=1).basis
        t0 = time.perf_counter()
        stability.match_bases(b1, b2)
        match_s = time.perf_counter() - t0
        cost = stability.cosine_distance_matrix(b1, b2)
        solves = []
        for _ in range(5):
            t0 = time.perf_counter()
            stability.solve_assignment(cost)
            solves.append(time.perf_counter() - t0)
        rows.append({"rank": rank, "match_bases_ms": 1e3 * match_s,
                     "solve_assignment_ms": 1e3 * statistics.median(solves)})
    return rows


def main() -> int:
    run.import_program()
    print(json.dumps({"host": run.host_facts()}))
    print(json.dumps({"scan-frob-clean": blas_threads_runs()}))
    for row in matching_costs():
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
