"""In-process traced run: spans around calls into each semdedup module.

Spans (name, start, end, parent) are recorded from this file only, around
the public functions of each module; nothing in ``semdedup`` is changed. They
are kept in memory, written out as JSON lines at the end, and reduced to the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

import semdedup.dedup_core as dedup_core
from semdedup import (
    DedupConfig,
    KeepStrategy,
    assign,
    dedup_dataset,
    dedup_efficiency,
    duplicate_incidence,
    fit,
    load_embeddings,
    load_model,
    nearest_clusters,
    normalize_rows,
    sample_clusters,
    save_model,
    similarity_histogram,
    size_curve,
    tune_epsilon,
)
from semdedup._parallel import resolve_threads
from semdedup.cli import PipelineConfig
from semdedup.dedup_core import kept_ids, summary_dict, write_keep_list

from .workloads import EPSILON, ITERATIONS, SWEEP_EPSILONS, TARGET_FRACTION, Workload

# The CLI's defaults, so the traced calls match what the commands do.
CLI = PipelineConfig()
TILE = CLI.tile
UNIT_ROUNDOFF_F32 = 2.0 ** -24
# Copy-bandwidth arrays are at least four times the 105 MiB last-level cache.
COPY_BYTES = 512 * 2 ** 20
GEMM_SHAPE = (16384, 128, 1024)


class Tracer:
    """Nested spans for one traced run; not thread-safe (wrap serial code only)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"trace": self.trace_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str, parent: str | None = None) -> list:
        names = {s["id"]: s["name"] for s in self.spans}
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (parent is None or names.get(s["parent"]) == parent)]

    def total(self, name: str, parent: str | None = None) -> float:
        return float(sum(self.durations(name, parent)))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def machine_roofline(repeats: int = 5) -> dict:
    """GEMM rates and copy bandwidth of the host, measured in the traced run."""
    m, d, k = GEMM_SHAPE
    rng = np.random.default_rng(0)
    out = {}
    for dtype, key in ((np.float64, "machine.gemm_f64_gflops"), (np.float32, "machine.gemm_f32_gflops")):
        a = rng.standard_normal((m, d)).astype(dtype)
        b = rng.standard_normal((d, k)).astype(dtype)
        out[key] = 2.0 * m * d * k / _best_time(lambda: a @ b, repeats) / 1e9
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    out["machine.copy_gbps"] = 2.0 * COPY_BYTES / _best_time(lambda: np.copyto(dst, src), 3) / 1e9
    return out


def tile_gflop(sizes, d: int, tile: int = TILE) -> float:
    """GFLOP the tiled prefix-max computes: every block on or above the diagonal."""
    total = 0
    for m in sizes:
        m = int(m)
        if m < 2:
            continue
        edges = list(range(0, m, tile)) + [m]
        widths = [b - a for a, b in zip(edges, edges[1:])]
        for j, wj in enumerate(widths):
            total += 2 * d * wj * sum(widths[: j + 1])
    return total / 1e9


def _across_pairs(model, m: int) -> int:
    pairs = set()
    if m >= 1:
        for c in range(model.k):
            for b in nearest_clusters(model, c, m):
                pairs.add((min(c, int(b)), max(c, int(b))))
    sizes = model.cluster_sizes()
    return int(sum(int(sizes[a]) * int(sizes[b]) for a, b in pairs))


def traced_run(w: Workload, corpus: Path, truth: Path, out: Path, cli: dict,
               src_lines: int, trace_path: Path, trace_id: str) -> tuple:
    """Run every layer once under spans; return per-layer metrics and checks."""
    threads = resolve_threads(0)
    tr = Tracer(trace_id)
    cfg = DedupConfig(epsilon=EPSILON, strategy=KeepStrategy.parse(CLI.strategy), seed=CLI.seed, tile=TILE)
    t_start = time.perf_counter()

    with tr.span("machine.roofline"):
        metrics = machine_roofline()

    # The same library calls as `semdedup cluster` and `semdedup dedup`.
    with tr.span("cmd.cluster"):
        with tr.span("embedding_store.load_embeddings"):
            raw = load_embeddings(corpus)
        with tr.span("embedding_store.normalize_rows"):
            e = normalize_rows(raw)
        del raw
        with tr.span("spherical_kmeans.fit"):
            fitted = fit(e, w.k, ITERATIONS, CLI.seed, threads=threads)
        with tr.span("spherical_kmeans.save_model"):
            out.mkdir(parents=True, exist_ok=True)
            save_model(fitted, out / "model.semk")
    with tr.span("cmd.dedup"):
        with tr.span("embedding_store.load_embeddings"):
            raw = load_embeddings(corpus)
        with tr.span("embedding_store.normalize_rows"):
            e = normalize_rows(raw)
        del raw
        with tr.span("spherical_kmeans.load_model"):
            model = load_model(out / "model.semk")
        with tr.span("dedup_core.dedup_dataset"):
            result = dedup_dataset(e, model, cfg, threads=threads)
        with tr.span("dedup_core.write_keep_list"):
            (out / "dedup").mkdir(exist_ok=True)
            write_keep_list(out / "dedup" / "keep.txt", kept_ids(e, result))
            summary = summary_dict(result, cfg, e.n, model.k)
            (out / "dedup" / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    with tr.span("spherical_kmeans.assign"):
        reassigned = assign(e, model.centroids, threads=threads)

    # Serial pass with a span per cluster call; the patch is undone at once.
    originals = (dedup_core.order_cluster, dedup_core.dedup_cluster)
    dedup_core.order_cluster = tr.wrap("dedup_core.order_cluster", originals[0])
    dedup_core.dedup_cluster = tr.wrap("dedup_core.dedup_cluster", originals[1])
    try:
        with tr.span("dedup_core.dedup_dataset.serial"):
            serial = dedup_dataset(e, model, cfg, threads=1)
    finally:
        dedup_core.order_cluster, dedup_core.dedup_cluster = originals

    sample = sample_clusters(model, CLI.sample_fraction, CLI.seed)
    with tr.span("threshold_tuner.tune_epsilon"):
        tuned = tune_epsilon(e, model, sample, cfg.strategy, TARGET_FRACTION, CLI.eps_lo, CLI.eps_hi,
                             tol_fraction=CLI.tol_fraction, max_probes=CLI.max_probes, seed=CLI.seed,
                             tile=TILE, threads=threads)
    gamma = w.d * UNIT_ROUNDOFF_F32 / (1.0 - w.d * UNIT_ROUNDOFF_F32)
    probe_eps = sorted(set(SWEEP_EPSILONS) | {EPSILON - gamma, EPSILON + gamma, tuned.epsilon})
    with tr.span("threshold_tuner.size_curve"):
        curve = dict(size_curve(e, model, np.arange(model.k), cfg.strategy, probe_eps, seed=CLI.seed,
                                tile=TILE, threads=threads).points)

    m_eff = min(w.neighbors, model.k - 1)
    with tr.span("analysis_metrics.similarity_histogram"):
        similarity_histogram(e, model, CLI.histogram_bins, tile=TILE, threads=threads)
    with tr.span("analysis_metrics.duplicate_incidence"):
        duplicate_incidence(e, model, EPSILON, tile=TILE, threads=threads)
    with tr.span("analysis_metrics.dedup_efficiency"):
        eta = dedup_efficiency(e, model, EPSILON, m_eff, tile=TILE, threads=threads)
    t_end = time.perf_counter()
    tr.write(trace_path)

    # ---- reduce spans and results to metrics ----
    sizes = model.cluster_sizes()
    file_bytes = corpus.stat().st_size
    array_bytes = e.data.nbytes
    load_s = statistics.median(tr.durations("embedding_store.load_embeddings"))
    normalize_s = statistics.median(tr.durations("embedding_store.normalize_rows"))
    fit_s = tr.total("spherical_kmeans.fit")
    iterations = len(fitted.objective_trace)
    assign_s = tr.total("spherical_kmeans.assign")
    assign_gflops = 2.0 * e.n * model.k * e.d / assign_s / 1e9
    dedup_s = tr.total("dedup_core.dedup_dataset")
    serial_s = tr.total("dedup_core.dedup_dataset.serial")
    computed = tile_gflop(sizes, e.d)
    per_cluster = [a + b for a, b in zip(tr.durations("dedup_core.order_cluster"),
                                         tr.durations("dedup_core.dedup_cluster"))]
    flat, offsets = np.load(truth)["group_flat"], np.load(truth)["group_offsets"]
    starts = offsets[:-1]
    split = (np.minimum.reduceat(model.assignment[flat], starts)
             != np.maximum.reduceat(model.assignment[flat], starts))
    sampled_points = int(sum(int(sizes[c]) for c in sample))

    metrics.update({
        "embedding_store.load_s": load_s,
        "embedding_store.load_gbps": file_bytes / load_s / 1e9,
        "embedding_store.normalize_s": normalize_s,
        "embedding_store.normalize_gbps": 2.0 * array_bytes / normalize_s / 1e9,
        "spherical_kmeans.fit_s": fit_s,
        "spherical_kmeans.iterations": iterations,
        "spherical_kmeans.assign_s": assign_s,
        "spherical_kmeans.assign_gflops": assign_gflops,
        "spherical_kmeans.assign_roofline": assign_gflops / metrics["machine.gemm_f64_gflops"],
        "spherical_kmeans.update_s": fit_s - iterations * assign_s,
        "spherical_kmeans.stale_points": int(np.count_nonzero(reassigned != model.assignment)),
        "spherical_kmeans.max_cluster_share": float(sizes.max()) / e.n,
        "spherical_kmeans.empty_clusters": int(np.count_nonzero(sizes == 0)),
        "dedup_core.dedup_s": dedup_s,
        "dedup_core.serial_s": serial_s,
        "dedup_core.parallel_eff": serial_s / (threads * dedup_s),
        "dedup_core.comparisons": result.comparisons,
        "dedup_core.computed_gflop": computed,
        "dedup_core.gflops": computed / dedup_s,
        "dedup_core.roofline": computed / dedup_s / metrics["machine.gemm_f64_gflops"],
        "dedup_core.order_s": tr.total("dedup_core.order_cluster"),
        "dedup_core.cluster_p50_ms": 1e3 * statistics.median(per_cluster),
        "dedup_core.cluster_max_s": max(per_cluster),
        "dedup_core.kept_fraction": result.kept_fraction,
        "dedup_core.near_threshold_frac": curve[EPSILON - gamma] - curve[EPSILON + gamma],
        "dedup_core.split_copy_groups": float(np.count_nonzero(split)) / split.size,
        "threshold_tuner.tune_s": tr.total("threshold_tuner.tune_epsilon"),
        "threshold_tuner.probes": tuned.probes,
        "threshold_tuner.sample_points": sampled_points,
        "threshold_tuner.sample_gap": abs(tuned.achieved_fraction - curve[tuned.epsilon]),
        "threshold_tuner.size_curve_s": tr.total("threshold_tuner.size_curve"),
        "analysis_metrics.histogram_s": tr.total("analysis_metrics.similarity_histogram"),
        "analysis_metrics.incidence_s": tr.total("analysis_metrics.duplicate_incidence"),
        "analysis_metrics.efficiency_s": tr.total("analysis_metrics.dedup_efficiency"),
        "analysis_metrics.across_pairs": _across_pairs(model, m_eff),
        "analysis_metrics.eta": eta,
    })
    for name in ("cluster", "dedup"):
        c = cli[name]
        metrics[f"cli.{name}.cpu_util"] = c["cpu_s"] / (c["wall_s"] * threads)
        metrics[f"cli.{name}.rss_mb"] = c["maxrss_kb"] / 1024.0

    # Traced work after set-up against the same work timed from outside.
    traced_work = sum(tr.total(f"cmd.{name}") - tr.total("embedding_store.load_embeddings", f"cmd.{name}")
                      - tr.total("embedding_store.normalize_rows", f"cmd.{name}")
                      for name in ("cluster", "dedup"))
    cli_work = sum(cli[name]["wall_s"] - cli["setup_s"] for name in ("cluster", "dedup"))
    top = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None)
    metrics.update({
        "repo.src_lines": src_lines,
        "trace.coverage": top / (t_end - t_start),
        "trace.overhead_frac": traced_work / cli_work - 1.0,
    })
    agree = np.array_equal(serial.keep, result.keep)
    check = {"name": f"dedup: keep flags equal with 1 and {threads} threads", "ok": agree,
             "detail": None if agree else "keep flags differ"}
    return metrics, [check]
