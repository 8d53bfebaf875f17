"""Command-line pipeline: embeddings in, clustered/deduplicated artifacts out.

Subcommands: cluster, dedup, tune, sweep, stats, intersect and efficiency;
each binds its handler, which takes the parsed arguments. The run options,
the fields of ``PipelineConfig``, are the files, the CPU budget and settings
that can change a result; each is one flag and one config-file key (flags
override the file). The input is a SEMD1 file, the one format of
``embedding_store``. The effective config is copied next to the results, so
every run is reproducible. Inputs are validated before any output.

Exit codes: 0 success, 2 validation error, 3 format error, 4 data error,
5 tuner did not converge: the rows the command tunes on (every point for
dedup, the sampled clusters for tune) attain no kept fraction within
tol_fraction of the target. A target outside [kept(eps_hi) - tol_fraction,
kept(eps_lo) + tol_fraction] exits 2 instead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from ._parallel import resolve_threads
from .analysis_metrics import (
    DEFAULT_BINS,
    DEFAULT_NEIGHBORS,
    dedup_efficiency,
    histogram_bin_edges,
    intersection_pct,
    per_cluster_stats,
    similarity_histogram,
    threshold_pass,
)
from .dedup_core import (
    DEFAULT_TILE,
    DedupConfig,
    KeepStrategy,
    _check_epsilon,
    kept_ids,
    prefix_maxima,
    read_keep_list,
    summary_dict,
    threshold,
    write_keep_list,
)
from .embedding_store import load_embeddings, normalize_rows_in_place
from .errors import (
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    FormatError,
    InvalidArgumentError,
    SemDedupError,
    exit_code_for,
)
from .spherical_kmeans import fit, load_model, save_model
from .threshold_tuner import (
    DEFAULT_MAX_PROBES, DEFAULT_TOL_FRACTION, check_search, sample_clusters, select_epsilon,
    size_curve, tune_epsilon,
)

logger = logging.getLogger("semdedup")


# JSON value types accepted for each annotation used by PipelineConfig; the
# first is also the type its flag parses.
_CONFIG_KINDS = {
    "str": (str,),
    "int": (int,),
    "float": (float, int),
    "float | None": (float, int, type(None)),
}
# Fields whose flag is not "--" plus the field name with dashes.
_FLAG_NAMES = {"kmeans_iterations": "--iterations", "histogram_bins": "--bins"}
# Further add_argument options of a field's flag.
_FLAG_OPTIONS = {
    "input": {"help": "embedding file path"},
    "strategy": {"choices": [s.value for s in KeepStrategy]},
    "threads": {"help": "CPU budget of each pass, OpenBLAS included, but k-means seeding "
                        "uses OpenBLAS's own threads (0 = the CPUs this process may run on)"},
}


@dataclass
class PipelineConfig:
    """Run parameters; at most one of epsilon / target_fraction may be set.

    Besides the files (input, output_dir) and the CPU budget (threads), each
    field can change a result, except ``max_probes``: it bounds nothing since
    the tuner became exact, but is still accepted and validated.
    Commands that read a threshold check for theirs: dedup needs one of the
    two, tune a target fraction (and alone reads ``sample_fraction``),
    efficiency an epsilon. The tile of the similarity sweeps, which changes no
    keep set, is not an option.
    """

    input: str = ""
    k: int = 1024
    kmeans_iterations: int = 100
    seed: int = 0
    epsilon: float | None = None
    target_fraction: float | None = None
    strategy: str = "low"
    sample_fraction: float = 0.1
    neighbors: int = DEFAULT_NEIGHBORS
    output_dir: str = "semdedup_out"
    threads: int = 0
    # Not an option (see above), but perfbench/tracing.py reads it.
    tile: ClassVar[int] = DEFAULT_TILE
    eps_lo: float = 1e-4
    eps_hi: float = 0.5
    tol_fraction: float = DEFAULT_TOL_FRACTION
    max_probes: int = DEFAULT_MAX_PROBES
    histogram_bins: int = DEFAULT_BINS

    def validate(self) -> None:
        if self.epsilon is not None and self.target_fraction is not None:
            raise InvalidArgumentError("set at most one of epsilon / target_fraction")
        if self.epsilon is not None:
            _check_epsilon(self.epsilon)
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
        resolve_threads(self.threads)  # rejects a negative count
        check_search(self.eps_lo, self.eps_hi, self.tol_fraction, self.max_probes)
        if self.histogram_bins < 2:
            raise InvalidArgumentError("histogram_bins must be >= 2")
        KeepStrategy.parse(self.strategy)
        out = Path(self.output_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise InvalidArgumentError(f"output dir {out} cannot be made: {existing} is not a directory")

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


def _load_corpus(cfg: PipelineConfig):
    if not cfg.input:
        raise InvalidArgumentError("input path is required")
    return normalize_rows_in_place(load_embeddings(cfg.input))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _emit(cfg: PipelineConfig, files: dict) -> None:
    """Write every artifact plus the effective config, creating the dir late."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, writer in files.items():
        writer(outdir / name)
    _write_json(outdir / "config.json", asdict(cfg))


def cmd_cluster(args) -> int:
    cfg = _config_from(args)
    corpus = _load_corpus(cfg)
    model = fit(corpus, cfg.k, cfg.kmeans_iterations, cfg.seed, threads=cfg.threads)
    trace = model.objective_trace
    logger.info(
        "clustered %d points into k=%d: training-sample objective %.6f -> %.6f over %d iterations",
        corpus.n, cfg.k, trace[0], trace[-1], len(trace),
    )
    _emit(cfg, {"model.semk": lambda p: save_model(model, p)})
    return EXIT_OK


def _tuning_dict(cfg: PipelineConfig, tuned) -> dict:
    return {"target_fraction": cfg.target_fraction, **asdict(tuned)}


def _inputs(cfg: PipelineConfig, model_path: str):
    """The normalized corpus and its checked model."""
    corpus = _load_corpus(cfg)
    model = load_model(model_path)
    model.check_matches(corpus)
    return corpus, model


def cmd_dedup(args) -> int:
    cfg = _config_from(args)
    if cfg.epsilon is None and cfg.target_fraction is None:
        raise InvalidArgumentError("dedup requires epsilon or target_fraction")
    corpus, model = _inputs(cfg, args.model)

    pmax = prefix_maxima(corpus, model, cfg.strategy, cfg.seed, threads=cfg.threads)

    tuned = None
    epsilon = cfg.epsilon
    if epsilon is None:
        tuned = select_epsilon(np.sort(pmax), cfg.target_fraction, cfg.eps_lo, cfg.eps_hi, cfg.tol_fraction)
        epsilon = tuned.epsilon
        logger.info("tuned epsilon=%.6g (kept fraction %.4f, %d probes, converged=%s)",
                    tuned.epsilon, tuned.achieved_fraction, tuned.probes, tuned.converged)

    dedup_cfg = DedupConfig(epsilon=epsilon, strategy=cfg.strategy, seed=cfg.seed)
    result = threshold(pmax, epsilon, model)
    logger.info(
        "kept %d / %d points (%.4f) using %d comparisons",
        result.kept_count, corpus.n, result.kept_fraction, result.comparisons,
    )

    summary = summary_dict(result, dedup_cfg, corpus.n, model.k)
    if tuned is not None:
        summary["tuning"] = _tuning_dict(cfg, tuned)
    ids = kept_ids(corpus, result)
    _emit(cfg, {"keep.txt": lambda p: write_keep_list(p, ids),
                "summary.json": lambda p: _write_json(p, summary)})
    return EXIT_NOT_CONVERGED if tuned is not None and not tuned.converged else EXIT_OK


def cmd_tune(args) -> int:
    cfg = _config_from(args)
    if cfg.target_fraction is None:
        raise InvalidArgumentError("tune requires target_fraction")
    corpus, model = _inputs(cfg, args.model)
    sample = sample_clusters(model, cfg.sample_fraction, cfg.seed)
    tuned = tune_epsilon(corpus, model, sample, cfg.strategy, cfg.target_fraction, cfg.eps_lo,
                         cfg.eps_hi, cfg.tol_fraction, cfg.max_probes, cfg.seed, threads=cfg.threads)
    _emit(cfg, {"tune.json": lambda p: _write_json(p, _tuning_dict(cfg, tuned))})
    return EXIT_OK if tuned.converged else EXIT_NOT_CONVERGED


def cmd_sweep(args) -> int:
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad --epsilons list: {exc}") from None
    if not epsilons:
        raise InvalidArgumentError("sweep requires a non-empty epsilon list")
    if any(b <= a for a, b in zip(epsilons, epsilons[1:])):
        raise InvalidArgumentError("sweep epsilons must be strictly increasing")
    if not all(0.0 < eps < 1.0 for eps in epsilons):
        raise InvalidArgumentError(f"sweep epsilons must lie in (0, 1), got {args.epsilons}")
    cfg = _config_from(args)
    corpus, model = _inputs(cfg, args.model)
    curve = size_curve(corpus, model, np.arange(model.k), cfg.strategy, epsilons,
                       seed=cfg.seed, threads=cfg.threads)
    _emit(cfg, {"curve.csv": lambda p: _write_csv(p, "epsilon,kept_fraction", curve.points)})
    return EXIT_OK


def _read_summary(summary_path: str) -> tuple[float, np.ndarray]:
    """Epsilon and per-cluster removed counts from a dedup run's summary.json.

    Epsilon must be a JSON number in (0, 1), and the counts a list of
    integers; ``cmd_stats`` checks them against the model.
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
    return float(epsilon), removed


def cmd_stats(args) -> int:
    cfg = _config_from(args)
    epsilon, removed = _read_summary(args.summary)
    if cfg.epsilon is not None and cfg.epsilon != epsilon:
        raise InvalidArgumentError(f"epsilon {cfg.epsilon} differs from the summary's {epsilon}")
    corpus, model = _inputs(cfg, args.model)
    stats = per_cluster_stats(removed, model)  # one count per cluster, or exit 2
    for s in stats:
        if not 0 <= s.removed <= s.size:
            raise FormatError(f"{Path(args.summary)}: cluster {s.cluster} removed {s.removed} "
                              f"of its {s.size} points")
    counts = similarity_histogram(corpus, model, cfg.histogram_bins, threads=cfg.threads)
    m_eff = min(cfg.neighbors, model.k - 1)
    eta, incidence = threshold_pass(corpus, model, epsilon, m_eff, threads=cfg.threads)
    report = {
        "similarity_histogram": {"bins": cfg.histogram_bins, "counts": counts.tolist()},
        "duplicate_incidence": incidence,
        "per_cluster": [asdict(s) for s in stats],
        "eta": eta,
    }
    logger.info("duplicate incidence %.4f, eta %.2f%%", incidence, eta)
    edges = histogram_bin_edges(cfg.histogram_bins)
    _emit(
        cfg,
        {
            "stats.json": lambda p: _write_json(p, report),
            "histogram.csv": lambda p: _write_csv(p, "bin_lo,bin_hi,count",
                                                  zip(edges[:-1], edges[1:], counts.tolist())),
            "per_cluster.csv": lambda p: _write_csv(p, "cluster,size,removed,fraction",
                                                    (astuple(s) for s in stats)),
        },
    )
    return EXIT_OK


def cmd_intersect(args) -> int:
    ids_a = read_keep_list(args.keep_a)  # distinct ids, so sizes are set sizes
    value = intersection_pct(ids_a, read_keep_list(args.keep_b), int(ids_a.size))
    print(json.dumps({"n": int(ids_a.size), "intersection_pct": value}))
    return EXIT_OK


def cmd_efficiency(args) -> int:
    cfg = _config_from(args)
    if cfg.epsilon is None:
        raise InvalidArgumentError("efficiency requires epsilon")
    corpus, model = _inputs(cfg, args.model)
    m_eff = min(cfg.neighbors, model.k - 1)
    eta = dedup_efficiency(corpus, model, cfg.epsilon, m_eff, threads=cfg.threads)
    print(json.dumps({"epsilon": cfg.epsilon, "m_neighbors": m_eff, "eta": eta}))
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(PipelineConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, type=_CONFIG_KINDS[f.type][0],
                            **_FLAG_OPTIONS.get(f.name, {}))


def _config_from(args) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    cfg = PipelineConfig.from_sources(args.config, overrides)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdedup",
        description="Semantic deduplication of embedding datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, config: bool = True,
                model: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if config:
            _add_config_flags(p)
        if model:
            p.add_argument("--model", required=True, help="path to a model file")
        return p

    command("cluster", cmd_cluster, "fit a spherical k-means model")
    command("dedup", cmd_dedup, "deduplicate using a fitted model", model=True)
    command("tune", cmd_tune, "estimate epsilon for a target kept fraction", model=True)

    p = command("sweep", cmd_sweep, "kept fraction across an epsilon grid", model=True)
    p.add_argument("--epsilons", required=True, help="comma-separated increasing thresholds")

    p = command("stats", cmd_stats, "redundancy metrics for a finished run", model=True)
    p.add_argument("--summary", required=True, help="summary.json from the dedup run")

    p = command("intersect", cmd_intersect, "intersection %% of two keep-lists", config=False)
    p.add_argument("keep_a")
    p.add_argument("keep_b")

    command("efficiency", cmd_efficiency, "duplicate-detection efficiency eta", model=True)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    # Worker pools live for one call, and glibc lets each new thread take one of
    # several malloc arenas, each keeping what was freed in it. One arena lowers
    # peak RSS (medians of 6 runs at --threads 0 on the benchmark's seed-7 corpora,
    # 2-vCPU Xeon, glibc 2.36, several arenas -> one): few_large_clusters `dedup`
    # 103.3 -> 98.9 MiB and `cluster` 96.5 -> 94.3; retune `dedup` 57.2 -> 53.6 and
    # `stats` 57.2 -> 55.4, `cluster` level. `dedup` sets few_large_clusters' peak,
    # which would rise about 4% without this call.
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX; glibc only
    except (AttributeError, OSError, TypeError):
        pass
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SemDedupError as exc:
        logger.error("%s", exc)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
