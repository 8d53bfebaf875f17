"""Estimate the threshold that hits a target kept-fraction.

Kept fraction is evaluated on a sampled subset of clusters (sampling 10% is
usually enough to approximate the full-corpus size) and the threshold is
located by bounded secant iteration with re-bracketing. Kept fraction is a
step function of the threshold on finite data, so convergence is declared on
fraction tolerance, never on threshold tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .dedup_core import KeepStrategy, _prefix_max, cluster_seed, order_cluster
from .embedding_store import UnitEmbeddingMatrix
from .errors import BracketError, InvalidArgumentError
from .rng import hashed_uniform
from .spherical_kmeans import KMeansModel

DEFAULT_TOL_FRACTION = 0.02
DEFAULT_MAX_PROBES = 8

# Tag separating cluster sampling from other seeded streams.
_TAG_SAMPLE = 23


@dataclass
class SizeCurve:
    """(epsilon, kept_fraction) pairs with epsilon increasing."""

    points: list

    def __post_init__(self):
        eps = [p[0] for p in self.points]
        fracs = [p[1] for p in self.points]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise InvalidArgumentError("curve epsilons must be strictly increasing")
        if any(b > a + 1e-12 for a, b in zip(fracs, fracs[1:])):
            raise InvalidArgumentError("kept fraction must be non-increasing in epsilon")
        if any(not 0.0 < f <= 1.0 for f in fracs):
            raise InvalidArgumentError("kept fractions must lie in (0, 1]")


@dataclass
class TuneResult:
    epsilon: float
    achieved_fraction: float
    probes: int
    converged: bool
    curve: list


def sample_clusters(model: KMeansModel, fraction: float, seed: int) -> np.ndarray:
    """ceil(fraction * k) distinct cluster ids, uniform without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError(f"fraction must be in (0, 1], got {fraction}")
    k = model.k
    count = int(np.ceil(fraction * k))
    # The clusters with the smallest id-keyed uniforms: a uniform sample.
    keys = hashed_uniform(seed, _TAG_SAMPLE, np.arange(k))
    return np.sort(np.argsort(keys, kind="stable")[:count])


class _SampledEvaluator:
    """Kept-fraction evaluation over fixed clusters, reusing prefix maxima.

    The greedy ordering does not depend on epsilon, so each sampled
    cluster's prefix-max vector is computed once (by the same tiled kernel
    the dedup pass uses) and every threshold probe is a pure counting step
    against it.
    """

    def __init__(self, e, model, sample, strategy, seed, tile, threads):
        model.check_matches(e)
        sample = np.asarray(sample, dtype=np.int64)
        if sample.size == 0:
            raise InvalidArgumentError("cluster sample is empty")
        if np.unique(sample).size != sample.size:
            raise InvalidArgumentError("cluster sample contains repeats")
        if sample.min() < 0 or sample.max() >= model.k:
            raise InvalidArgumentError("cluster sample index out of range")

        def one(c: int) -> np.ndarray:
            members = model.members[int(c)]
            if members.size <= 1:
                return np.zeros(members.size, dtype=np.float64)
            ordered = order_cluster(
                e, members, model.centroids[int(c)], strategy, cluster_seed(seed, int(c))
            )
            return _prefix_max(e, ordered, tile)

        maxima = map_ordered(one, list(sample), threads)
        self._maxima = np.concatenate([m for m in maxima if m.size]) if maxima else np.zeros(0)
        self.total = int(self._maxima.size)
        if self.total == 0:
            raise InvalidArgumentError("sampled clusters contain no points")

    def kept_fraction(self, epsilon: float) -> float:
        if not 0.0 < epsilon < 1.0:
            raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
        kept = int(np.count_nonzero(self._maxima <= 1.0 - epsilon))
        return kept / self.total


def size_curve(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    sample: np.ndarray,
    strategy: KeepStrategy,
    epsilons,
    seed: int = 0,
    tile: int = 1024,
    threads: int = 1,
) -> SizeCurve:
    """Sampled kept-fraction at each threshold; duplicates collapse to one point."""
    eps = [float(x) for x in epsilons]
    if not eps:
        raise InvalidArgumentError("epsilon list is empty")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise InvalidArgumentError("epsilon list must be non-decreasing")
    if any(not 0.0 < x < 1.0 for x in eps):
        raise InvalidArgumentError("epsilons must lie in (0, 1)")
    evaluator = _SampledEvaluator(e, model, sample, strategy, seed, tile, threads)
    points = []
    for x in sorted(set(eps)):
        points.append((x, evaluator.kept_fraction(x)))
    return SizeCurve(points)


def tune_epsilon(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    sample: np.ndarray,
    strategy: KeepStrategy,
    target_fraction: float,
    eps_lo: float,
    eps_hi: float,
    tol_fraction: float = DEFAULT_TOL_FRACTION,
    max_probes: int = DEFAULT_MAX_PROBES,
    seed: int = 0,
    tile: int = 1024,
    threads: int = 1,
) -> TuneResult:
    """Find a threshold whose sampled kept-fraction is near the target.

    Requires kept_fraction(eps_lo) >= target >= kept_fraction(eps_hi); the
    bracket is maintained across probes and each new probe interpolates
    linearly between the bracketing pair (falling back to bisection when
    interpolation stalls at an endpoint). Returns the first probe within
    ``tol_fraction`` of the target, or the best probe seen with
    ``converged=False`` once ``max_probes`` evaluations are spent.
    """
    if not 0.0 < target_fraction < 1.0:
        raise InvalidArgumentError(f"target_fraction must be in (0, 1), got {target_fraction}")
    if not (0.0 < eps_lo < eps_hi < 1.0):
        raise InvalidArgumentError(f"need 0 < eps_lo < eps_hi < 1, got ({eps_lo}, {eps_hi})")
    if tol_fraction <= 0.0:
        raise InvalidArgumentError("tol_fraction must be positive")
    if max_probes < 1:
        raise InvalidArgumentError("max_probes must be >= 1")

    evaluator = _SampledEvaluator(e, model, sample, strategy, seed, tile, threads)
    history: list[tuple[float, float]] = []

    def probe(x: float) -> float:
        value = evaluator.kept_fraction(x)
        history.append((x, value))
        return value

    def result(x: float, value: float, converged: bool) -> TuneResult:
        return TuneResult(
            epsilon=x,
            achieved_fraction=value,
            probes=len(history),
            converged=converged,
            curve=sorted(history),
        )

    def best_so_far() -> TuneResult:
        x, value = min(history, key=lambda p: abs(p[1] - target_fraction))
        return result(x, value, False)

    f_lo = probe(eps_lo)
    if abs(f_lo - target_fraction) <= tol_fraction:
        return result(eps_lo, f_lo, True)
    if len(history) >= max_probes:
        return best_so_far()

    f_hi = probe(eps_hi)
    if abs(f_hi - target_fraction) <= tol_fraction:
        return result(eps_hi, f_hi, True)
    if not f_lo >= target_fraction >= f_hi:
        raise BracketError(
            f"target {target_fraction} not bracketed: kept({eps_lo})={f_lo:.6f}, "
            f"kept({eps_hi})={f_hi:.6f}"
        )

    lo, hi = eps_lo, eps_hi
    while len(history) < max_probes:
        span = hi - lo
        if f_lo > f_hi:
            x = lo + (f_lo - target_fraction) * span / (f_lo - f_hi)
        else:
            x = lo + 0.5 * span
        # Interpolation can stall on a step function; bisect instead.
        if not lo + 1e-15 < x < hi - 1e-15:
            x = lo + 0.5 * span
        value = probe(x)
        if abs(value - target_fraction) <= tol_fraction:
            return result(x, value, True)
        if value >= target_fraction:
            lo, f_lo = x, value
        else:
            hi, f_hi = x, value
    return best_so_far()
