"""Checks on the files a pass of ``semdedup`` commands wrote.

Each check is one operation of the run: it passes or it fails with a reason.
Reference results come from the generator's ground truth and from
``semdedup.oracle``, never from the tiled kernels under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from semdedup import (
    KeepStrategy,
    UnitEmbeddingMatrix,
    brute_force_greedy_dedup,
    load_embeddings,
    load_model,
    normalize_rows,
    order_cluster,
)
from semdedup.dedup_core import cluster_seed

from .workloads import EPSILON, SWEEP_EPSILONS, TARGET_FRACTION, Workload

ORACLE_PREFIX = 2048


def keep_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Collects (name, ok, detail) results; a check that raises fails."""

    def __init__(self):
        self.results: list = []

    def check(self, name: str, fn) -> None:
        try:
            detail = fn()
            ok = detail is None
        except Exception as exc:  # a crashing check is a failed operation, not a crashed run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append({"name": name, "ok": ok, "detail": detail})


def _read_keep(path: Path) -> np.ndarray:
    return np.fromiter((int(t) for t in path.read_text(encoding="ascii").split()), dtype=np.uint64)


def _check_keep_list(out: Path, ids: np.ndarray):
    keep = _read_keep(out / "keep.txt")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if keep.size and not np.all(keep[1:] > keep[:-1]):
        return "keep.txt is not strictly ascending"
    if not np.isin(keep, ids).all():
        return "keep.txt holds ids that are not in the input"
    if keep.size != summary["kept"] or summary["n"] != ids.size:
        return f"keep.txt has {keep.size} ids, summary says kept={summary['kept']} n={summary['n']}"
    return None


def _kept_mask(out: Path, ids: np.ndarray) -> np.ndarray:
    return np.isin(ids, _read_keep(out / "keep.txt"))


def _check_copy_groups(kept: np.ndarray, assignment: np.ndarray, flat: np.ndarray, offsets: np.ndarray):
    starts = offsets[:-1]
    lo = np.minimum.reduceat(assignment[flat], starts)
    hi = np.maximum.reduceat(assignment[flat], starts)
    kept_per_group = np.add.reduceat(kept[flat].astype(np.int64), starts)
    whole = lo == hi
    bad = np.flatnonzero(whole & (kept_per_group != 1))
    if bad.size:
        return f"{bad.size} of {int(whole.sum())} same-cluster copy groups keep != 1 member"
    return None


def _check_oracle(e, model, kept: np.ndarray, clusters: np.ndarray):
    strategy = KeepStrategy.LOW_CENTROID_SIM
    for c in clusters:
        ordered = order_cluster(e, model.members[c], model.centroids[c], strategy, cluster_seed(0, int(c)))
        prefix = ordered[:ORACLE_PREFIX]
        sub = UnitEmbeddingMatrix(e.data[prefix], e.ids[prefix])
        expected = brute_force_greedy_dedup(sub, np.arange(prefix.size), EPSILON)
        if not np.array_equal(expected, kept[prefix]):
            diff = int(np.count_nonzero(expected != kept[prefix]))
            return f"cluster {int(c)}: {diff} of {prefix.size} verdicts differ from the oracle"
    return None


def _check_sweep(out: Path):
    with open(out / "curve.csv", encoding="utf-8") as fh:
        rows = [(float(r["epsilon"]), float(r["kept_fraction"])) for r in csv.DictReader(fh)]
    if [eps for eps, _ in rows] != list(SWEEP_EPSILONS):
        return f"curve epsilons {[eps for eps, _ in rows]} differ from the requested list"
    fracs = [f for _, f in rows]
    if any(b > a for a, b in zip(fracs, fracs[1:])):
        return f"kept fraction rises along the curve: {fracs}"
    return None


def _check_stats(out: Path, sizes: np.ndarray):
    with open(out / "histogram.csv", encoding="utf-8") as fh:
        total = sum(int(r["count"]) for r in csv.DictReader(fh))
    pairs = int((sizes * (sizes - 1) // 2).sum())
    if total != pairs:
        return f"histogram holds {total} pairs, clusters hold {pairs}"
    eta = json.loads((out / "stats.json").read_text(encoding="utf-8"))["eta"]
    if not 0.0 <= eta <= 100.0:
        return f"eta {eta} outside [0, 100]"
    return None


def check_run(w: Workload, corpus_path: Path, truth_path: Path, passes: list, seed: int) -> dict:
    """Check the first pass in full and every pass's keep-list digests."""
    checker = Checker()
    e = normalize_rows(load_embeddings(corpus_path))
    truth = np.load(truth_path)
    first = passes[0]
    model = load_model(first / "cluster" / "model.semk")
    checker.check("model matches corpus",
                  lambda: None if model.n == e.n and model.d == e.d else "model shape differs")

    keep_dirs = [name for name in ("dedup", "tune_dedup") if name in w.commands]
    for name in keep_dirs:
        checker.check(f"{name}: keep.txt well formed", lambda name=name: _check_keep_list(first / name, e.ids))
    kept = _kept_mask(first / "dedup", e.ids)
    checker.check("dedup: one survivor per same-cluster exact-copy group",
                  lambda: _check_copy_groups(kept, model.assignment, truth["group_flat"], truth["group_offsets"]))
    sizes = model.cluster_sizes()
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(sizes >= 2)
    sample = np.sort(rng.choice(candidates, size=min(w.oracle_clusters, candidates.size), replace=False))
    checker.check(f"dedup: first {ORACLE_PREFIX} verdicts of {sample.size} clusters match the oracle",
                  lambda: _check_oracle(e, model, kept, sample))
    if "sweep" in w.commands:
        checker.check("sweep: curve never rises", lambda: _check_sweep(first / "sweep"))
    if "stats" in w.commands:
        checker.check("stats: histogram total and eta", lambda: _check_stats(first / "stats", sizes))

    digests = {}
    for name in keep_dirs:
        digests[name] = [keep_digest(p / name / "keep.txt") for p in passes]
        checker.check(f"{name}: keep.txt digest equal across {len(passes)} passes",
                      lambda d=digests[name]: None if len(set(d)) == 1 else f"digests differ: {d}")

    report = {"checks": checker.results, "keep_sha256": {k: v[0] for k, v in digests.items()}}
    if "tune_dedup" in w.commands:
        summary = json.loads((first / "tune_dedup" / "summary.json").read_text(encoding="utf-8"))
        report["target_miss"] = abs(summary["kept_fraction"] - TARGET_FRACTION)
    return report
