"""Command-line pipeline: embeddings in, clustered/deduplicated artifacts out.

Subcommands: cluster, dedup, tune, sweep, stats, intersect, efficiency,
synth. Options come from a JSON config file plus flag overrides; the
effective config is copied next to the results so every run is
reproducible. Inputs are fully validated before any output file is
created.

Exit codes: 0 success, 2 validation error, 3 format error, 4 data error,
5 tuner did not converge: the sampled clusters attain no kept fraction within
tol_fraction of the target. A target outside [kept(eps_hi) - tol_fraction,
kept(eps_lo) + tol_fraction] exits 2 instead.
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
    dedup_efficiency,
    histogram_bin_edges,
    incidence_at,
    intersection_pct,
    per_cluster_stats,
    within_cluster_pass,
)
from .dedup_core import (
    DedupConfig,
    KeepStrategy,
    kept_ids,
    prefix_maxima,
    read_keep_list,
    summary_dict,
    threshold,
    write_keep_list,
)
from .embedding_store import load_embeddings, normalize_rows, write_embeddings
from .errors import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    FormatError,
    InvalidArgumentError,
    SemDedupError,
    exit_code_for,
)
from .oracle import generate_planted
from .spherical_kmeans import fit, load_model, save_model
from .threshold_tuner import (
    check_search, sample_clusters, select_epsilon, size_curve, sorted_maxima, tune_epsilon,
)

logger = logging.getLogger("semdedup")


# JSON value types accepted for each annotation used by PipelineConfig.
_CONFIG_KINDS = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "float | None": (int, float, type(None)),
}


@dataclass
class PipelineConfig:
    """Run parameters; at most one of epsilon / target_fraction may be set.

    Commands that read a threshold check for theirs: dedup needs one of the
    two, tune a target fraction, efficiency an epsilon. ``max_probes`` bounds
    nothing since the tuner became exact; it is still accepted and validated.
    """

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
        if self.epsilon is not None and self.target_fraction is not None:
            raise InvalidArgumentError("set at most one of epsilon / target_fraction")
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
        if self.tile < 1:
            raise InvalidArgumentError("tile must be >= 1")
        check_search(self.eps_lo, self.eps_hi, self.tol_fraction, self.max_probes)
        if self.histogram_bins < 2:
            raise InvalidArgumentError("histogram_bins must be >= 2")
        KeepStrategy.parse(self.strategy)

    @classmethod
    def from_sources(cls, config_path: str | None, overrides: dict) -> "PipelineConfig":
        values: dict = {}
        if config_path:
            path = Path(config_path)
            if not path.is_file():
                raise InvalidArgumentError(f"no such config file: {path}")
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise InvalidArgumentError(f"config file {path} is not JSON: {exc}") from None
            if not isinstance(loaded, dict):
                raise InvalidArgumentError(f"config file {path} must hold a JSON object")
            kinds = {f.name: _CONFIG_KINDS[f.type] for f in fields(cls)}
            unknown = set(loaded) - set(kinds)
            if unknown:
                raise InvalidArgumentError(f"unknown config keys: {sorted(unknown)}")
            for name, value in loaded.items():
                # bool is an int subclass, but true/false is never a count or a threshold.
                if isinstance(value, bool) or not isinstance(value, kinds[name]):
                    raise InvalidArgumentError(f"config key {name!r} has the wrong type: {value!r}")
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


def _tuning_dict(cfg: PipelineConfig, tuned) -> dict:
    return {"target_fraction": cfg.target_fraction, **asdict(tuned)}


def _inputs(cfg: PipelineConfig, model_path: str):
    """The normalized corpus, its checked model and the resolved thread count."""
    corpus = _load_corpus(cfg)
    model = load_model(model_path)
    model.check_matches(corpus)
    return corpus, model, resolve_threads(cfg.threads)


def cmd_dedup(cfg: PipelineConfig, model_path: str) -> int:
    if cfg.epsilon is None and cfg.target_fraction is None:
        raise InvalidArgumentError("dedup requires epsilon or target_fraction")
    corpus, model, threads = _inputs(cfg, model_path)

    pmax = prefix_maxima(corpus, model, _strategy(cfg), cfg.seed, cfg.tile, threads)

    tuned = None
    epsilon = cfg.epsilon
    if epsilon is None:
        # Picked on the sampled rows of the full pass, so no cluster is swept twice.
        maxima = sorted_maxima(pmax, model, sample_clusters(model, cfg.sample_fraction, cfg.seed))
        tuned = select_epsilon(maxima, cfg.target_fraction, cfg.eps_lo, cfg.eps_hi, cfg.tol_fraction)
        epsilon = tuned.epsilon
        logger.info(
            "tuned epsilon=%.6g (sampled kept fraction %.4f, %d probes, converged=%s)",
            tuned.epsilon, tuned.achieved_fraction, tuned.probes, tuned.converged,
        )

    dedup_cfg = DedupConfig(epsilon=epsilon, strategy=_strategy(cfg), seed=cfg.seed, tile=cfg.tile)
    result = threshold(pmax, epsilon, model)
    logger.info(
        "kept %d / %d points (%.4f) using %d comparisons",
        result.kept_count, corpus.n, result.kept_fraction, result.comparisons,
    )

    summary = summary_dict(result, dedup_cfg, corpus.n, model.k)
    if tuned is not None:
        summary["tuning"] = _tuning_dict(cfg, tuned)
    ids = kept_ids(corpus, result)
    _emit(
        Path(cfg.output_dir),
        cfg,
        {
            "keep.txt": lambda p: write_keep_list(p, ids),
            "summary.json": lambda p: _write_json(p, summary),
        },
    )
    return EXIT_NOT_CONVERGED if tuned is not None and not tuned.converged else EXIT_OK


def cmd_tune(cfg: PipelineConfig, model_path: str, curve_csv: bool) -> int:
    if cfg.target_fraction is None:
        raise InvalidArgumentError("tune requires target_fraction")
    corpus, model, threads = _inputs(cfg, model_path)
    sample = sample_clusters(model, cfg.sample_fraction, cfg.seed)
    tuned = tune_epsilon(corpus, model, sample, _strategy(cfg), cfg.target_fraction, cfg.eps_lo,
                         cfg.eps_hi, cfg.tol_fraction, cfg.max_probes, cfg.seed, cfg.tile, threads)
    files = {"tune.json": lambda p: _write_json(p, _tuning_dict(cfg, tuned))}
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
    corpus, model, threads = _inputs(cfg, model_path)
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


def _read_summary(summary_path: str, model) -> tuple[float, np.ndarray]:
    """Epsilon and per-cluster removed counts from a dedup run's summary.json.

    Epsilon must be a JSON number in (0, 1), and each count must lie in
    [0, its cluster's size] under ``model``.
    """
    spath = Path(summary_path)
    if not spath.is_file():
        raise InvalidArgumentError(f"no such summary file: {spath}")
    try:
        summary = json.loads(spath.read_text(encoding="utf-8"))
        epsilon = summary["epsilon"]
        removed = np.asarray(summary["per_cluster_removed"])
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"{spath}: not a dedup summary ({exc!r})") from None
    # bool is an int subclass, and NaN fails the range test.
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) or not 0 < epsilon < 1:
        raise FormatError(f"{spath}: epsilon must be a number in (0, 1), got {epsilon!r}")
    if removed.ndim != 1 or removed.dtype.kind not in "iu":
        raise FormatError(f"{spath}: per_cluster_removed must be a list of integer counts")
    sizes = model.cluster_sizes()
    if removed.shape == sizes.shape:
        bad = np.flatnonzero((removed < 0) | (removed > sizes))
        if bad.size:
            c = int(bad[0])
            raise FormatError(f"{spath}: cluster {c} removed {removed[c]} of its {sizes[c]} points")
    return float(epsilon), removed


def cmd_stats(cfg: PipelineConfig, model_path: str, summary_path: str) -> int:
    corpus, model, threads = _inputs(cfg, model_path)
    epsilon, removed = _read_summary(summary_path, model)
    if cfg.epsilon is not None and cfg.epsilon != epsilon:
        raise InvalidArgumentError(f"epsilon {cfg.epsilon} differs from the summary's {epsilon}")
    counts, nmax = within_cluster_pass(corpus, model, cfg.histogram_bins, cfg.tile, threads)
    incidence = incidence_at(nmax, epsilon)
    m_eff = min(cfg.neighbors, model.k - 1)
    eta = dedup_efficiency(corpus, model, epsilon, m_eff, tile=cfg.tile, threads=threads)
    stats = per_cluster_stats(removed, model)
    report = {
        "similarity_histogram": {"bins": cfg.histogram_bins, "counts": counts.tolist()},
        "duplicate_incidence": incidence,
        "per_cluster": [asdict(s) for s in stats],
        "eta": eta,
        "intersection": None,  # kept so stats.json keeps its keys; `intersect` computes it
    }
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
                fh.write(f"{s.cluster},{s.size},{s.removed},{s.removed_fraction}\n")

    _emit(
        Path(cfg.output_dir),
        cfg,
        {
            "stats.json": lambda p: _write_json(p, report),
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
    corpus, model, threads = _inputs(cfg, model_path)
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
    parser.add_argument(
        "--threads", type=int,
        help="the whole CPU budget, OpenBLAS included (0 = $SEMDEDUP_THREADS or the CPU count)",
    )
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
