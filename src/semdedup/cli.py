"""Command-line pipeline: embeddings in, clustered/deduplicated artifacts out.

Subcommands: cluster, dedup, tune, sweep, stats, intersect, efficiency,
synth. Options come from a JSON config file plus flag overrides; the
effective config is copied next to the results so every run is
reproducible. Inputs are fully validated before any output file is
created.

Exit codes: 0 success, 2 validation error, 3 format error, 4 data error,
5 tuner did not converge.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ._parallel import resolve_threads
from .analysis_metrics import (
    MetricsReport,
    dedup_efficiency,
    duplicate_incidence,
    histogram_bin_edges,
    intersection_pct,
    per_cluster_stats,
    similarity_histogram,
)
from .dedup_core import (
    DedupConfig,
    DedupResult,
    KeepStrategy,
    dedup_dataset,
    kept_ids,
    read_keep_list,
    summary_dict,
    write_keep_list,
)
from .embedding_store import load_embeddings, normalize_rows, write_embeddings
from .errors import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    InvalidArgumentError,
    SemDedupError,
    exit_code_for,
)
from .oracle import generate_planted
from .spherical_kmeans import fit, load_model, save_model
from .threshold_tuner import sample_clusters, size_curve, tune_epsilon

logger = logging.getLogger("semdedup")


@dataclass
class PipelineConfig:
    """Run parameters; exactly one of epsilon / target_fraction must be set."""

    input: str = ""
    input_format: str = "binary"
    k: int = 1024
    kmeans_iterations: int = 100
    seed: int = 0
    epsilon: float | None = None
    target_fraction: float | None = None
    strategy: str = "low"
    sample_fraction: float = 0.1
    neighbors: int = 20
    output_dir: str = "semdedup_out"
    threads: int = 0
    tile: int = 1024
    eps_lo: float = 1e-4
    eps_hi: float = 0.5
    tol_fraction: float = 0.02
    max_probes: int = 8
    histogram_bins: int = 200

    def validate(self) -> None:
        if (self.epsilon is None) == (self.target_fraction is None):
            raise InvalidArgumentError("set exactly one of epsilon / target_fraction")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise InvalidArgumentError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.target_fraction is not None and not 0.0 < self.target_fraction < 1.0:
            raise InvalidArgumentError(
                f"target_fraction must be in (0, 1), got {self.target_fraction}"
            )
        if not 0.0 < self.sample_fraction <= 1.0:
            raise InvalidArgumentError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        if self.kmeans_iterations < 1:
            raise InvalidArgumentError("kmeans_iterations must be >= 1")
        if self.neighbors < 0:
            raise InvalidArgumentError("neighbors must be >= 0")
        if self.threads < 0:
            raise InvalidArgumentError("threads must be >= 0 (0 = auto)")
        KeepStrategy.parse(self.strategy)

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "PipelineConfig":
        values: dict = {}
        if config_path:
            path = Path(config_path)
            if not path.is_file():
                raise InvalidArgumentError(f"no such config file: {path}")
            loaded = json.loads(path.read_text(encoding="utf-8"))
            known = {f.name for f in fields(cls)}
            unknown = set(loaded) - known
            if unknown:
                raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)


def _strategy(cfg: PipelineConfig) -> KeepStrategy:
    return KeepStrategy.parse(cfg.strategy)


def _load_corpus(cfg: PipelineConfig):
    if not cfg.input:
        raise InvalidArgumentError("input path is required")
    matrix = load_embeddings(cfg.input, format=cfg.input_format)
    return normalize_rows(matrix)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _emit(outdir: Path, cfg: PipelineConfig, files: dict) -> None:
    """Write every artifact plus the effective config, creating the dir late."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, writer in files.items():
        writer(outdir / name)
    _write_json(outdir / "config.json", asdict(cfg))


def cmd_cluster(cfg: PipelineConfig) -> int:
    corpus = _load_corpus(cfg)
    threads = resolve_threads(cfg.threads)
    model = fit(corpus, cfg.k, cfg.kmeans_iterations, cfg.seed, threads=threads)
    trace = model.objective_trace
    logger.info(
        "clustered %d points into k=%d: objective %.6f -> %.6f over %d iterations",
        corpus.n, cfg.k, trace[0], trace[-1], len(trace),
    )
    _emit(Path(cfg.output_dir), cfg, {"model.semk": lambda p: save_model(model, p)})
    return EXIT_OK


def _tune(cfg: PipelineConfig, corpus, model, threads: int):
    sample = sample_clusters(model, cfg.sample_fraction, cfg.seed)
    return tune_epsilon(
        corpus,
        model,
        sample,
        _strategy(cfg),
        cfg.target_fraction,
        cfg.eps_lo,
        cfg.eps_hi,
        tol_fraction=cfg.tol_fraction,
        max_probes=cfg.max_probes,
        seed=cfg.seed,
        tile=cfg.tile,
        threads=threads,
    )


def _load_model_for(corpus, model_path: str):
    model = load_model(model_path)
    if model.n != corpus.n or model.d != corpus.d:
        raise InvalidArgumentError(
            f"model (n={model.n}, d={model.d}) does not match corpus (n={corpus.n}, d={corpus.d})"
        )
    return model


def cmd_dedup(cfg: PipelineConfig, model_path: str) -> int:
    corpus = _load_corpus(cfg)
    model = _load_model_for(corpus, model_path)
    threads = resolve_threads(cfg.threads)

    tune_info = None
    epsilon = cfg.epsilon
    if epsilon is None:
        tuned = _tune(cfg, corpus, model, threads)
        epsilon = tuned.epsilon
        tune_info = tuned
        logger.info(
            "tuned epsilon=%.6g (sampled kept fraction %.4f, %d probes, converged=%s)",
            tuned.epsilon, tuned.achieved_fraction, tuned.probes, tuned.converged,
        )

    dedup_cfg = DedupConfig(
        epsilon=epsilon, strategy=_strategy(cfg), seed=cfg.seed, tile=cfg.tile
    )
    result = dedup_dataset(corpus, model, dedup_cfg, threads=threads)
    logger.info(
        "kept %d / %d points (%.4f) using %d comparisons",
        result.kept_count, corpus.n, result.kept_fraction, result.comparisons,
    )

    summary = summary_dict(result, dedup_cfg, corpus.n, model.k)
    if tune_info is not None:
        summary["tuning"] = {
            "target_fraction": cfg.target_fraction,
            "achieved_fraction_sampled": tune_info.achieved_fraction,
            "probes": tune_info.probes,
            "converged": tune_info.converged,
        }
    ids = kept_ids(corpus, result)
    _emit(
        Path(cfg.output_dir),
        cfg,
        {
            "keep.txt": lambda p: write_keep_list(p, ids),
            "summary.json": lambda p: _write_json(p, summary),
        },
    )
    if tune_info is not None and not tune_info.converged:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_tune(cfg: PipelineConfig, model_path: str, curve_csv: bool) -> int:
    if cfg.target_fraction is None:
        raise InvalidArgumentError("tune requires target_fraction")
    corpus = _load_corpus(cfg)
    model = _load_model_for(corpus, model_path)
    threads = resolve_threads(cfg.threads)
    tuned = _tune(cfg, corpus, model, threads)
    payload = {
        "epsilon": tuned.epsilon,
        "achieved_fraction": tuned.achieved_fraction,
        "probes": tuned.probes,
        "converged": tuned.converged,
        "curve": [[x, f] for x, f in tuned.curve],
    }
    files = {"tune.json": lambda p: _write_json(p, payload)}
    if curve_csv:
        files["curve.csv"] = lambda p: _write_curve_csv(p, tuned.curve)
    _emit(Path(cfg.output_dir), cfg, files)
    return EXIT_OK if tuned.converged else EXIT_NOT_CONVERGED


def _write_curve_csv(path: Path, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epsilon,kept_fraction\n")
        for eps, frac in points:
            fh.write(f"{eps},{frac}\n")


def cmd_sweep(cfg: PipelineConfig, model_path: str, epsilons: list) -> int:
    if not epsilons:
        raise InvalidArgumentError("sweep requires a non-empty epsilon list")
    if any(b <= a for a, b in zip(epsilons, epsilons[1:])):
        raise InvalidArgumentError("sweep epsilons must be strictly increasing")
    corpus = _load_corpus(cfg)
    model = _load_model_for(corpus, model_path)
    threads = resolve_threads(cfg.threads)
    curve = size_curve(
        corpus,
        model,
        np.arange(model.k),
        _strategy(cfg),
        epsilons,
        seed=cfg.seed,
        tile=cfg.tile,
        threads=threads,
    )
    _emit(Path(cfg.output_dir), cfg, {"curve.csv": lambda p: _write_curve_csv(p, curve.points)})
    return EXIT_OK


def cmd_stats(cfg: PipelineConfig, model_path: str, summary_path: str) -> int:
    corpus = _load_corpus(cfg)
    model = _load_model_for(corpus, model_path)
    threads = resolve_threads(cfg.threads)
    spath = Path(summary_path)
    if not spath.is_file():
        raise InvalidArgumentError(f"no such summary file: {spath}")
    summary = json.loads(spath.read_text(encoding="utf-8"))
    epsilon = float(summary["epsilon"])
    removed = np.asarray(summary["per_cluster_removed"], dtype=np.int64)
    result = DedupResult(
        keep=np.zeros(0, dtype=bool),
        kept_fraction=float(summary["kept_fraction"]),
        per_cluster_removed=removed,
        comparisons=int(summary["comparisons"]),
    )

    counts = similarity_histogram(corpus, model, cfg.histogram_bins, tile=cfg.tile, threads=threads)
    incidence = duplicate_incidence(corpus, model, epsilon, tile=cfg.tile, threads=threads)
    m_eff = min(cfg.neighbors, model.k - 1)
    eta = dedup_efficiency(corpus, model, epsilon, m_eff, tile=cfg.tile, threads=threads)
    stats = per_cluster_stats(result, model)
    report = MetricsReport(
        bins=cfg.histogram_bins,
        histogram_counts=counts,
        duplicate_incidence=incidence,
        per_cluster=stats,
        eta=eta,
    )
    logger.info("duplicate incidence %.4f, eta %.2f%%", incidence, eta)

    edges = histogram_bin_edges(cfg.histogram_bins)

    def write_histogram(path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_lo,bin_hi,count\n")
            for b in range(cfg.histogram_bins):
                fh.write(f"{edges[b]},{edges[b + 1]},{int(counts[b])}\n")

    def write_clusters(path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cluster,size,removed,fraction\n")
            for s in stats:
                fh.write(f"{s.cluster_id},{s.size},{s.removed},{s.removed_fraction}\n")

    _emit(
        Path(cfg.output_dir),
        cfg,
        {
            "stats.json": lambda p: _write_json(p, report.to_dict()),
            "histogram.csv": write_histogram,
            "per_cluster.csv": write_clusters,
        },
    )
    return EXIT_OK


def cmd_intersect(path_a: str, path_b: str) -> int:
    ids_a = read_keep_list(path_a)
    ids_b = read_keep_list(path_b)
    if ids_a.size != ids_b.size:
        raise InvalidArgumentError(
            f"keep-lists differ in size: {ids_a.size} vs {ids_b.size}"
        )
    value = intersection_pct(ids_a, ids_b, int(ids_a.size))
    print(json.dumps({"n": int(ids_a.size), "intersection_pct": value}))
    return EXIT_OK


def cmd_efficiency(cfg: PipelineConfig, model_path: str) -> int:
    if cfg.epsilon is None:
        raise InvalidArgumentError("efficiency requires epsilon")
    corpus = _load_corpus(cfg)
    model = _load_model_for(corpus, model_path)
    threads = resolve_threads(cfg.threads)
    m_eff = min(cfg.neighbors, model.k - 1)
    eta = dedup_efficiency(corpus, model, cfg.epsilon, m_eff, tile=cfg.tile, threads=threads)
    print(json.dumps({"epsilon": cfg.epsilon, "m_neighbors": m_eff, "eta": eta}))
    return EXIT_OK


def cmd_synth(args) -> int:
    corpus = generate_planted(
        args.groups, args.group_size, args.dim, args.within_sim, args.seed
    )
    out = Path(args.out_prefix)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_embeddings(corpus.embeddings, Path(str(out) + ".semd"))
    _write_json(
        Path(str(out) + ".groups.json"),
        {
            "groups": corpus.groups,
            "within_sim": corpus.within_sim,
            "across_sim": corpus.across_sim,
        },
    )
    logger.info(
        "wrote %d points in %d groups (within >= %.6f, across <= %.6f)",
        corpus.embeddings.n, len(corpus.groups), corpus.within_sim, corpus.across_sim,
    )
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--input", help="embedding file path")
    parser.add_argument("--format", dest="input_format", choices=["binary", "text"])
    parser.add_argument("--k", type=int)
    parser.add_argument("--iterations", dest="kmeans_iterations", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--target-fraction", dest="target_fraction", type=float)
    parser.add_argument("--strategy", choices=[s.value for s in KeepStrategy])
    parser.add_argument("--sample-fraction", dest="sample_fraction", type=float)
    parser.add_argument("--neighbors", type=int)
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--threads", type=int)
    parser.add_argument("--tile", type=int)
    parser.add_argument("--eps-lo", dest="eps_lo", type=float)
    parser.add_argument("--eps-hi", dest="eps_hi", type=float)
    parser.add_argument("--tol-fraction", dest="tol_fraction", type=float)
    parser.add_argument("--max-probes", dest="max_probes", type=int)
    parser.add_argument("--bins", dest="histogram_bins", type=int)


def _config_from(args) -> PipelineConfig:
    override_names = [f.name for f in fields(PipelineConfig)]
    overrides = {name: getattr(args, name, None) for name in override_names}
    cfg = PipelineConfig.from_sources(args.config, overrides)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdedup",
        description="Semantic deduplication of embedding datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="fit a spherical k-means model")
    _add_config_flags(p)

    p = sub.add_parser("dedup", help="deduplicate using a fitted model")
    _add_config_flags(p)
    p.add_argument("--model", required=True, help="path to a model file")

    p = sub.add_parser("tune", help="estimate epsilon for a target kept fraction")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--csv", action="store_true", help="also write the probe curve as CSV")

    p = sub.add_parser("sweep", help="kept fraction across an epsilon grid")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--epsilons", required=True, help="comma-separated increasing thresholds")

    p = sub.add_parser("stats", help="redundancy metrics for a finished run")
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--summary", required=True, help="summary.json from the dedup run")

    p = sub.add_parser("intersect", help="intersection %% of two keep-lists")
    p.add_argument("keep_a")
    p.add_argument("keep_b")

    p = sub.add_parser("efficiency", help="duplicate-detection efficiency eta")
    _add_config_flags(p)
    p.add_argument("--model", required=True)

    p = sub.add_parser("synth", help="generate a planted-duplicate corpus")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--group-size", dest="group_size", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--within-sim", dest="within_sim", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    # Worker pools live for one call, and glibc lets each new thread take one of
    # several malloc arenas, each keeping what was freed in it, so peak RSS varied
    # between runs on one input (10.2x to 11.0x the corpus for `stats`). Use one.
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX; glibc only
    except (AttributeError, OSError, TypeError):
        pass
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cluster":
            return cmd_cluster(_config_from(args))
        if args.command == "dedup":
            return cmd_dedup(_config_from(args), args.model)
        if args.command == "tune":
            return cmd_tune(_config_from(args), args.model, args.csv)
        if args.command == "sweep":
            try:
                epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
            except ValueError as exc:
                raise InvalidArgumentError(f"bad --epsilons list: {exc}") from None
            return cmd_sweep(_config_from(args), args.model, epsilons)
        if args.command == "stats":
            return cmd_stats(_config_from(args), args.model, args.summary)
        if args.command == "intersect":
            return cmd_intersect(args.keep_a, args.keep_b)
        if args.command == "efficiency":
            return cmd_efficiency(_config_from(args), args.model)
        if args.command == "synth":
            return cmd_synth(args)
        raise InvalidArgumentError(f"unknown command {args.command!r}")
    except SemDedupError as exc:
        logger.error("%s", exc)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
