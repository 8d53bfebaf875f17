"""Semantic deduplication of embedding datasets.

Pipeline: partition unit-norm embeddings with spherical k-means, then within
each cluster greedily drop every point whose cosine similarity to an earlier
point in the keep-strategy ordering exceeds 1 - epsilon. Includes threshold
tuning against a target dataset size, redundancy metrics, brute-force
oracles, and a CLI.
"""

from .analysis_metrics import (
    dedup_efficiency,
    duplicate_incidence,
    intersection_pct,
    per_cluster_stats,
    similarity_histogram,
)
from .dedup_core import (
    DedupConfig,
    DedupResult,
    KeepStrategy,
    dedup_cluster,
    dedup_dataset,
    order_cluster,
    prefix_maxima,
    threshold,
)
from .embedding_store import (
    EmbeddingMatrix,
    UnitEmbeddingMatrix,
    load_embeddings,
    normalize_rows,
    write_embeddings,
    write_subset,
)
from .errors import (
    BracketError,
    ConstructionError,
    DataError,
    DegenerateRowError,
    FormatError,
    InvalidArgumentError,
    SemDedupError,
)
from .oracle import (
    PlantedCorpus,
    brute_force_duplicate_pairs,
    brute_force_greedy_dedup,
    generate_planted,
)
from .spherical_kmeans import KMeansModel, assign, fit, load_model, nearest_clusters, save_model
from .threshold_tuner import SizeCurve, TuneResult, sample_clusters, size_curve, tune_epsilon

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConstructionError",
    "DataError",
    "DedupConfig",
    "DedupResult",
    "DegenerateRowError",
    "EmbeddingMatrix",
    "FormatError",
    "InvalidArgumentError",
    "KMeansModel",
    "KeepStrategy",
    "PlantedCorpus",
    "SemDedupError",
    "SizeCurve",
    "TuneResult",
    "UnitEmbeddingMatrix",
    "assign",
    "brute_force_duplicate_pairs",
    "brute_force_greedy_dedup",
    "dedup_cluster",
    "dedup_dataset",
    "dedup_efficiency",
    "duplicate_incidence",
    "fit",
    "generate_planted",
    "intersection_pct",
    "load_embeddings",
    "load_model",
    "nearest_clusters",
    "normalize_rows",
    "order_cluster",
    "per_cluster_stats",
    "prefix_maxima",
    "sample_clusters",
    "save_model",
    "similarity_histogram",
    "size_curve",
    "threshold",
    "tune_epsilon",
    "write_embeddings",
    "write_subset",
]
