"""Names and units of every metric the benchmark reports.

``END_TO_END`` is printed with ``--trace 0`` and ``PER_LAYER`` with
``--trace 1``; BENCHMARK.json lists the same names and units.
"""

END_TO_END = {
    "setup_s": "s",
    "cluster_s": "s",
    "dedup_s": "s",
    "pipeline_s": "s",
    "peak_rss_ratio": "x",
}

# Printed with the end-to-end metrics on workloads that run the command, but
# not bounded: they exist on one workload only, or can be exactly 0.
INFORMATIONAL = {
    "tune_dedup_s": "s",
    "sweep_s": "s",
    "stats_s": "s",
    "target_miss": "fraction",
    "failed_frac": "fraction",
}

PER_LAYER = {
    "machine.gemm_f64_gflops": "GFLOP/s",
    "machine.gemm_f32_gflops": "GFLOP/s",
    "machine.copy_gbps": "GB/s",
    "embedding_store.load_s": "s",
    "embedding_store.load_gbps": "GB/s",
    "embedding_store.normalize_s": "s",
    "embedding_store.normalize_gbps": "GB/s",
    "spherical_kmeans.fit_s": "s",
    "spherical_kmeans.iterations": "count",
    "spherical_kmeans.assign_s": "s",
    "spherical_kmeans.assign_gflops": "GFLOP/s",
    "spherical_kmeans.assign_roofline": "fraction",
    "spherical_kmeans.update_s": "s",
    "spherical_kmeans.stale_points": "count",
    "spherical_kmeans.max_cluster_share": "fraction",
    "spherical_kmeans.empty_clusters": "count",
    "dedup_core.dedup_s": "s",
    "dedup_core.serial_s": "s",
    "dedup_core.parallel_eff": "fraction",
    "dedup_core.comparisons": "count",
    "dedup_core.computed_gflop": "GFLOP",
    "dedup_core.gflops": "GFLOP/s",
    "dedup_core.roofline": "fraction",
    "dedup_core.order_s": "s",
    "dedup_core.cluster_p50_ms": "ms",
    "dedup_core.cluster_max_s": "s",
    "dedup_core.kept_fraction": "fraction",
    "dedup_core.near_threshold_frac": "fraction",
    "dedup_core.split_copy_groups": "fraction",
    "threshold_tuner.tune_s": "s",
    "threshold_tuner.probes": "count",
    "threshold_tuner.sample_points": "count",
    "threshold_tuner.sample_gap": "fraction",
    "threshold_tuner.size_curve_s": "s",
    "analysis_metrics.histogram_s": "s",
    "analysis_metrics.incidence_s": "s",
    "analysis_metrics.efficiency_s": "s",
    "analysis_metrics.across_pairs": "count",
    "analysis_metrics.eta": "%",
    "cli.cluster.cpu_util": "fraction",
    "cli.cluster.rss_mb": "MiB",
    "cli.dedup.cpu_util": "fraction",
    "cli.dedup.rss_mb": "MiB",
    "repo.src_lines": "count",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}
