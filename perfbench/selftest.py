"""Self-test of the benchmark at a tiny input size.

Shows that each checker accepts the program's real output and rejects a
corrupted copy (a wrong r_c, a perturbed AC value, a swapped assignment
pair), and that a CLI command that fails counts as one failed operation.

Run from the repository root: python3 perfbench/selftest.py (a few seconds).
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_ITERS = "200"


def expect(label: str, problems: list, want_rejected: bool) -> bool:
    ok = bool(problems) == want_rejected
    verdict = "rejected" if problems else "accepted"
    print(f"[{'ok' if ok else 'FAIL'}] {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    return ok


def tiny_matrix() -> np.ndarray:
    rng = np.random.default_rng(5)
    values = rng.random((12, 3)) @ rng.random((3, 16))
    return values / values.max()


def main() -> int:
    run.import_program()
    import checks
    from pccnmf import nmf, rank_scan
    from pccnmf.dataset import DataMatrix

    results = []
    data = tiny_matrix()
    m = DataMatrix(data)
    opts = nmf.SolverOptions(max_iters=int(TINY_ITERS))

    # Rank scan: the real report passes, a wrong r_c does not.
    report = rank_scan.estimate_rc(m, 0.05, 1, 4, [0, 1], opts=opts)
    results.append(expect("scan report", checks.scan_problems(report, data, 0.05), False))
    entry = report.entries[-1]
    refit = nmf.factorize(m, entry.rank, "frobenius", entry.seed, opts)
    results.append(expect("scan refit", checks.refit_problems(entry, data, refit, False), False))
    wrong = report.ranks[-1] if report.r_c != report.ranks[-1] else report.ranks[0]
    results.append(expect(f"scan report with r_c={wrong} instead of {report.r_c}",
                          checks.scan_problems(dataclasses.replace(report, r_c=wrong),
                                               data, 0.05), True))

    # CLI: denoise and stability at tiny size, plus one command that must fail.
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    np.savetxt(work / "tiny.csv", data, delimiter=",", fmt="%.17g")
    commands = [
        ["denoise", "-i", "tiny.csv", "-o", "denoise.json", "--xi", "0.1", "--seed", "3",
         "--r-lo", "2", "--r-hi", "4", "--seeds", "1", "--baseline", "svd",
         "--max-iters", TINY_ITERS],
        ["stability", "-i", "tiny.csv", "-o", "pair.json", "--mode", "seed-pair",
         "--rank", "4", "--seed-a", "0", "--seed-b", "1", "--max-iters", TINY_ITERS],
        ["factorize", "-i", "tiny.csv", "-o", "fac", "--rank", "99"],
    ]
    outcome = run.run_commands(commands, work, run.child_env(), spans_dir=None)
    counted = outcome["failed"] == 1 and outcome["codes"][:2] == [0, 0]
    print(f"[{'ok' if counted else 'FAIL'}] failing command counted: "
          f"attempted={len(commands)} failed={outcome['failed']} codes={outcome['codes']}")
    results.append(counted)

    den = json.loads((work / "denoise.json").read_text())["outputs"]
    noisy = checks.flip(data, 0.1, 3)
    results.append(expect("denoise report", checks.denoise_problems(den, data, noisy, -1.0),
                          False))
    den["ac_svd"][0] += 1.0 / data.shape[1]
    results.append(expect("denoise report with a perturbed AC value",
                          checks.denoise_problems(den, data, noisy, -1.0), True))

    matching = json.loads((work / "pair.json").read_text())["outputs"]["matching"]
    f1 = nmf.factorize(m, 4, seed=0, opts=opts)
    f2 = nmf.factorize(m, 4, seed=1, opts=opts)
    cost = checks.cosine_distances(f1.basis, f2.basis)
    results.append(expect("seed-pair matching", checks.matching_problems(matching, cost), False))
    a = matching["assignment"]
    a[0], a[1] = a[1], a[0]
    results.append(expect("seed-pair matching with a swapped pair",
                          checks.matching_problems(matching, cost), True))

    shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "all passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
