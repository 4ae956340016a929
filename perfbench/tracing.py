"""Span tracing for the benchmark's traced runs.

The program is not changed. Wrappers are installed on the module attributes
through which each layer is called (``pccnmf.rank_scan.factorize``,
``pccnmf.stability.solve_assignment``, ...), so a call made through that
attribute records a span: name, start, end and the span that caused it.
The same function reached through two modules can carry two layer names:
``frobenius_error`` is ``nmf.loss`` when called as ``pccnmf.nmf.frobenius_error``
and ``rank_scan.diagnostics`` when the scan calls it.

Spans stay in memory; ``layer_metrics`` turns groups of spans (one group per
process) into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

# Layers reported by self time, by call count and by bytes written.
SELF_TIME_LAYERS = (
    "nmf.factorize", "nmf.truncated_svd", "probability.derive_pcc",
    "probability.export_pcc", "rank_scan.scan", "rank_scan.bracketing",
    "rank_scan.diagnostics", "stability.match_bases", "stability.solve_assignment",
    "stability.cosine_distance_matrix", "denoising.sweep", "denoising.denoise_margins",
    "denoising.accuracy", "dataset.load_matrix", "dataset.save_matrix",
    "report.write_json", "clustering.natural_clusters",
    "clustering.export_cluster_montage", "dataset.generate_swimmer",
    "dataset.apply_flip_noise",
)
CALL_LAYERS = (
    "nmf.factorize", "nmf.reconstruct", "nmf.truncated_svd", "probability.derive_pcc",
    "stability.match_bases", "stability.solve_assignment", "pgm.write_pgm",
)
BYTE_LAYERS = ("probability.export_pcc", "dataset.load_matrix", "dataset.save_matrix",
               "report.write_json")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size if path.exists() else 0


def _hook_factorize(span, fn, args, kwargs, result, tracer):
    arguments = _bound(fn, args, kwargs)
    n_pixels, n_images = arguments["m"].values.shape
    span["sweeps"] = len(result.trace) - 1
    span["capped"] = 0 if result.converged else 1
    span["flop"] = update_flop_per_sweep(n_pixels, n_images, result.rank,
                                         result.loss) * span["sweeps"]
    if len(tracer.kept) < 3:
        tracer.kept.append((arguments["m"], result))


def _hook_scan_points(span, fn, args, kwargs, result, tracer):
    span["points"] = len(result.entries)


def _hook_sweep_points(span, fn, args, kwargs, result, tracer):
    span["points"] = [[r, s] for r in result.ranks for s in result.seeds]


def _hook_dir_bytes(span, fn, args, kwargs, result, tracer):
    span["bytes"] = _size(_bound(fn, args, kwargs)["dirpath"])


def _hook_path_bytes(span, fn, args, kwargs, result, tracer):
    span["bytes"] = _size(_bound(fn, args, kwargs)["path"])


def _hook_matrix_bytes(span, fn, args, kwargs, result, tracer):
    path = _bound(fn, args, kwargs)["path"]
    span["bytes"] = _size(path) + _size(str(path) + ".json")


# (module, attribute, layer, hook). The attribute may name a method as
# "Class.method". Every module through which the layer is reached gets a wrapper.
LAYERS = (
    ("nmf", "factorize", "nmf.factorize", _hook_factorize),
    ("rank_scan", "factorize", "nmf.factorize", _hook_factorize),
    ("stability", "factorize", "nmf.factorize", _hook_factorize),
    ("denoising", "factorize", "nmf.factorize", _hook_factorize),
    ("nmf", "frobenius_error", "nmf.loss", None),
    ("nmf", "kl_divergence", "nmf.loss", None),
    ("nmf", "truncated_svd", "nmf.truncated_svd", None),
    ("denoising", "truncated_svd", "nmf.truncated_svd", None),
    ("nmf", "save_factorization", "nmf.io", None),
    ("nmf", "load_factorization", "nmf.io", None),
    ("nmf", "Factorization.reconstruct", "nmf.reconstruct", None),
    ("probability", "derive_pcc", "probability.derive_pcc", None),
    ("rank_scan", "derive_pcc", "probability.derive_pcc", None),
    ("probability", "export_pcc", "probability.export_pcc", _hook_dir_bytes),
    ("rank_scan", "estimate_rc", "rank_scan.scan", _hook_scan_points),
    ("rank_scan", "estimate_rc_dual", "rank_scan.scan", _hook_scan_points),
    ("rank_scan", "predictability_fraction", "rank_scan.bracketing", None),
    ("rank_scan", "dual_predictability_fraction", "rank_scan.bracketing", None),
    ("rank_scan", "mean_internal_distance", "rank_scan.diagnostics", None),
    ("rank_scan", "rrssq", "rank_scan.diagnostics", None),
    ("rank_scan", "frobenius_error", "rank_scan.diagnostics", None),
    ("rank_scan", "bic_from_error", "rank_scan.diagnostics", None),
    ("rank_scan", "cosine_distance_matrix", "stability.cosine_distance_matrix", None),
    ("stability", "cosine_distance_matrix", "stability.cosine_distance_matrix", None),
    ("denoising", "cosine_distance_matrix", "stability.cosine_distance_matrix", None),
    ("stability", "match_bases", "stability.match_bases", None),
    ("stability", "lexicographic_assignment", "stability.lexicographic_assignment", None),
    ("stability", "solve_assignment", "stability.solve_assignment", None),
    ("stability", "apply_flip_noise", "dataset.apply_flip_noise", None),
    ("denoising", "find_r_range", "denoising.sweep", _hook_sweep_points),
    ("denoising", "compare_with_svd", "denoising.sweep", _hook_sweep_points),
    ("denoising", "denoise_margins", "denoising.denoise_margins", None),
    ("denoising", "accuracy", "denoising.accuracy", None),
    ("dataset", "generate_swimmer", "dataset.generate_swimmer", None),
    ("dataset", "apply_flip_noise", "dataset.apply_flip_noise", None),
    ("dataset", "load_matrix", "dataset.load_matrix", _hook_path_bytes),
    ("dataset", "save_matrix", "dataset.save_matrix", _hook_matrix_bytes),
    ("pgm", "write_pgm", "pgm.write_pgm", None),
    ("clustering", "write_pgm", "pgm.write_pgm", None),
    ("clustering", "natural_clusters", "clustering.natural_clusters", None),
    ("clustering", "export_cluster_montage", "clustering.export_cluster_montage", None),
    ("analysis", "anticorrelation_report", "analysis", None),
    ("analysis", "image_entropies", "analysis", None),
    ("analysis", "sparsity_comparison", "analysis", None),
    ("report", "RunReport.write_json", "report.write_json", _hook_path_bytes),
)

def update_flop_per_sweep(n_pixels: int, n_images: int, rank: int, loss: str) -> int:
    """Floating-point operations of the matrix products in one MU sweep (computed).

    Frobenius: P W^T, W W^T, B (W W^T), B^T P, B^T B, (B^T B) W.
    KL: two reconstructions B W, (P / R) W^T and B^T (P / R).
    Element-wise work and the loss evaluation are not counted.
    """
    n, m, r = n_pixels, n_images, rank
    if loss == "kl":
        return 8 * n * m * r
    return 4 * n * m * r + 4 * r * r * (n + m)


class Tracer:
    """Records spans for calls made through the wrapped module attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.kept: list = []          # (matrix, factorization) samples for loss timing
        self.missing: list[str] = []  # attributes the program no longer has
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": layer,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, fn, args, kwargs, result, tracer)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, layer, hook in LAYERS:
            owner = importlib.import_module("pccnmf." + module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def take(self) -> list[dict]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def loss_eval_ms(self, repeats: int = 5) -> list[float]:
        """Time the public loss function on the kept factorizations (wrappers removed)."""
        from pccnmf import nmf
        samples = []
        for m, f in self.kept:
            loss_fn = nmf.kl_divergence if f.loss == "kl" else nmf.frobenius_error
            for _ in range(repeats):
                t0 = time.perf_counter()
                loss_fn(m, f)
                samples.append((time.perf_counter() - t0) * 1e3)
        self.kept.clear()
        return samples

    def dump(self, path, loss_samples) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "loss_eval_ms": loss_samples,
                                          "missing": self.missing}))


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def _has_ancestor(spans, index, layer) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == layer:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(groups: list[list[dict]]) -> dict:
    """Per-layer metrics of one round from span groups (one group per process).

    A group holding a ``denoising.sweep`` span counts as one denoise command.
    """
    self_s = {}
    calls = {}
    bytes_ = {}
    sweeps = capped = flop = 0
    scan_points = scan_products = 0
    sweep_points = sweep_factorizations = denoise_commands = 0
    for spans in groups:
        own = _self_times(spans)
        points = set()
        for i, s in enumerate(spans):
            name = s["name"]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            bytes_[name] = bytes_.get(name, 0) + s.get("bytes", 0)
            if name == "nmf.factorize":
                sweeps += s["sweeps"]
                capped += s["capped"]
                flop += s["flop"]
                if _has_ancestor(spans, i, "denoising.sweep"):
                    sweep_factorizations += 1
            elif name == "rank_scan.scan":
                scan_points += s["points"]
            elif name == "denoising.sweep":
                points.update(map(tuple, s["points"]))
            if (name in ("nmf.reconstruct", "probability.derive_pcc")
                    and _has_ancestor(spans, i, "rank_scan.scan")):
                scan_products += 1
        sweep_points += len(points)
        denoise_commands += bool(points)

    out = {}
    factorize_s = self_s.get("nmf.factorize", 0.0)
    out["nmf.factorize.calls"] = calls.get("nmf.factorize", 0)
    out["nmf.factorize.self_s"] = factorize_s
    out["nmf.sweeps"] = sweeps
    out["nmf.capped"] = capped
    out["nmf.sweep_ms"] = 1e3 * factorize_s / sweeps if sweeps else 0.0
    out["nmf.update_gflop"] = flop / 1e9
    out["nmf.update_gflops"] = flop / 1e9 / factorize_s if factorize_s else 0.0
    for name in CALL_LAYERS:
        out[name + ".calls"] = calls.get(name, 0)
    for name in SELF_TIME_LAYERS:
        out[name + ".self_s"] = self_s.get(name, 0.0)
    for name in BYTE_LAYERS:
        out[name + ".bytes"] = bytes_.get(name, 0)
    out["nmf.io.self_s"] = self_s.get("nmf.io", 0.0)
    out["analysis.self_s"] = self_s.get("analysis", 0.0)
    out["rank_scan.reconstructs_per_point"] = scan_products / scan_points if scan_points else 0.0
    # The prefix loop of the lexicographic tie-break is part of matching.
    out["stability.match_bases.self_s"] += self_s.get("stability.lexicographic_assignment", 0.0)
    matches = calls.get("stability.match_bases", 0)
    out["stability.solves_per_match"] = (calls.get("stability.solve_assignment", 0) / matches
                                         if matches else 0.0)
    out["denoising.factorizations_per_point"] = (sweep_factorizations / sweep_points
                                                 if sweep_points else 0.0)
    out["denoising.svd_per_command"] = (calls.get("nmf.truncated_svd", 0) / denoise_commands
                                        if denoise_commands else 0.0)
    return out


def median_metrics(rounds: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
