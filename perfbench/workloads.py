"""Benchmark workloads: corpus shape and the ``semdedup`` commands a user runs.

Sizes are scaled so that one run (a corpus plus four or more passes of the
command sequence) finishes in about half a minute on a 2-core machine; see
README.md for the reason behind each shape.
"""

from __future__ import annotations

from dataclasses import dataclass

EPSILON = 0.05
TARGET_FRACTION = 0.75
SWEEP_EPSILONS = (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2)
ITERATIONS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    topics: int
    topic_skew: float
    commands: tuple  # names from COMMANDS, run in this order
    neighbors: int  # m for the efficiency metric (``stats --neighbors``)
    oracle_clusters: int  # clusters sampled for the brute-force prefix check


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-10 shape scaled down with n and k together (~1k points
        # per cluster): the k-means assign GEMM and per-cluster overhead.
        Workload("many_small_clusters", n=112_000, d=128, k=112, topics=112,
                 topic_skew=0.0, commands=("cluster", "dedup"), neighbors=1,
                 oracle_clusters=8),
        # Paper regime: a handful of clusters of 3k-7k points at d = 512, so
        # prefix-max work dominates and the largest cluster straggles. Many
        # skewed topics (not one per cluster) keep cluster sizes, and so the
        # work, nearly the same for every seed.
        Workload("few_large_clusters", n=28_000, d=512, k=6, topics=256,
                 topic_skew=1.0, commands=("cluster", "dedup"), neighbors=1,
                 oracle_clusters=3),
        # Read-many side: every command after `cluster` recomputes the
        # similarities at a new epsilon or for a new statistic.
        Workload("retune", n=32_000, d=128, k=32, topics=32, topic_skew=0.0,
                 commands=("cluster", "dedup", "tune_dedup", "sweep", "stats"),
                 neighbors=3, oracle_clusters=8),
    )
}


def command_argv(name: str, w: Workload, corpus: str, out: str) -> list:
    """CLI arguments (after ``semdedup``) for one command of a pass in ``out``."""
    model = f"{out}/cluster/model.semk"
    common = ["--input", corpus, "--threads", "0"]
    if name == "cluster":
        return ["cluster", *common, "--k", str(w.k), "--iterations", str(ITERATIONS),
                "--epsilon", str(EPSILON), "--output-dir", f"{out}/cluster"]
    if name == "dedup":
        return ["dedup", *common, "--model", model, "--epsilon", str(EPSILON),
                "--output-dir", f"{out}/dedup"]
    if name == "tune_dedup":
        return ["dedup", *common, "--model", model, "--target-fraction",
                str(TARGET_FRACTION), "--output-dir", f"{out}/tune_dedup"]
    if name == "sweep":
        return ["sweep", *common, "--model", model, "--epsilon", str(EPSILON),
                "--epsilons", ",".join(str(x) for x in SWEEP_EPSILONS),
                "--output-dir", f"{out}/sweep"]
    if name == "stats":
        return ["stats", *common, "--model", model, "--epsilon", str(EPSILON),
                "--neighbors", str(w.neighbors), "--summary", f"{out}/dedup/summary.json",
                "--output-dir", f"{out}/stats"]
    raise ValueError(f"unknown command {name!r}")
