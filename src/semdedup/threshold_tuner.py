"""Estimate the threshold that hits a target kept-fraction.

The keep order does not depend on epsilon, so a point's prefix maximum p
(``dedup_core.prefix_maxima``) decides it at every threshold: it is kept iff
p <= 1 - epsilon. The kept fraction of sorted maxima is thus an order
statistic, a step function of epsilon that changes only at epsilon = 1 - p.
``select_epsilon`` evaluates every such step inside the search range at once
and returns the one nearest the target, so it never misses an attainable
fraction. ``dedup`` runs it on every point's maximum, and ``tune_epsilon`` on
sampled clusters (10% is usually enough to approximate the full-corpus size).
``size_curve`` runs on the clusters it is given, and ``sweep`` gives it every
cluster. ``prefix_maxima`` rejects ids out of range or repeated, and
``sorted_maxima`` a sample without points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dedup_core import DEFAULT_TILE, KeepStrategy, _check_epsilon, _check_row_aligned, prefix_maxima
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
    """Outcome of ``tune_epsilon``.

    ``epsilon`` is the chosen threshold and ``achieved_fraction`` its sampled
    kept fraction, equal to ``size_curve`` at that epsilon. ``converged`` is
    true when it lies within ``tol_fraction`` of the target. ``curve`` holds
    the sorted (epsilon, fraction) pairs of both range ends and the answer,
    and ``probes`` is their count.
    """

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


def sorted_maxima(pmax: np.ndarray, model: KMeansModel, sample: np.ndarray) -> np.ndarray:
    """Sorted entries of row-aligned ``pmax`` for the points of the sampled clusters."""
    _check_row_aligned(pmax, model)
    maxima = np.sort(pmax[np.isin(model.assignment, sample)])
    if maxima.size == 0:
        raise InvalidArgumentError("sampled clusters contain no points")
    return maxima


def _kept_fractions(maxima: np.ndarray, epsilons) -> np.ndarray:
    """Sampled kept fraction at each epsilon: the share of maxima <= 1 - epsilon."""
    return np.searchsorted(maxima, 1.0 - np.asarray(epsilons), side="right") / maxima.size


def size_curve(
    e: UnitEmbeddingMatrix,
    model: KMeansModel,
    sample: np.ndarray,
    strategy: KeepStrategy,
    epsilons,
    seed: int = 0,
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> SizeCurve:
    """Kept fraction of ``sample``'s clusters at each threshold; duplicates collapse to one point."""
    eps = [float(x) for x in epsilons]
    if not eps:
        raise InvalidArgumentError("epsilon list is empty")
    if any(b < a for a, b in zip(eps, eps[1:])):
        raise InvalidArgumentError("epsilon list must be non-decreasing")
    for x in eps:
        _check_epsilon(x)
    eps = sorted(set(eps))
    pmax = prefix_maxima(e, model, strategy, seed, tile, threads, clusters=sample)
    maxima = sorted_maxima(pmax, model, sample)
    return SizeCurve([(x, float(f)) for x, f in zip(eps, _kept_fractions(maxima, eps))])


def check_search(eps_lo: float, eps_hi: float, tol_fraction: float, max_probes: int) -> None:
    """Validate the tuner's search range and tolerances."""
    if not (0.0 < eps_lo < eps_hi < 1.0):
        raise InvalidArgumentError(f"need 0 < eps_lo < eps_hi < 1, got ({eps_lo}, {eps_hi})")
    if not tol_fraction > 0.0:  # NaN included
        raise InvalidArgumentError("tol_fraction must be positive")
    if max_probes < 1:
        raise InvalidArgumentError("max_probes must be >= 1")


def select_epsilon(
    maxima: np.ndarray, target_fraction: float, eps_lo: float, eps_hi: float, tol_fraction: float
) -> TuneResult:
    """The threshold in [eps_lo, eps_hi] whose kept fraction of ``maxima`` is nearest the target.

    ``maxima`` are sorted, the other arguments as ``tune_epsilon`` checks them.
    Every attainable fraction is evaluated: the range ends and the step 1 - p
    of each maximum p strictly inside the range; ties go to the smaller
    epsilon. Raises ``BracketError`` when the target lies outside
    [kept(eps_hi) - tol_fraction, kept(eps_lo) + tol_fraction].
    """
    inside = maxima[(eps_lo < 1.0 - maxima) & (1.0 - maxima < eps_hi)]
    steps = 1.0 - inside
    # Below p = 0.5, 1 - (1 - p) can round under p; one ulp less epsilon keeps p.
    steps = np.where(1.0 - steps < inside, np.nextafter(steps, 0.0), steps)
    eps = np.unique(np.concatenate(([eps_lo, eps_hi], steps)))
    fractions = _kept_fractions(maxima, eps)
    f_lo, f_hi = float(fractions[0]), float(fractions[-1])
    if not f_hi - tol_fraction <= target_fraction <= f_lo + tol_fraction:
        raise BracketError(
            f"target {target_fraction} not bracketed: kept({eps_lo})={f_lo:.6f}, "
            f"kept({eps_hi})={f_hi:.6f}"
        )
    best = int(np.argmin(np.abs(fractions - target_fraction)))
    epsilon, achieved = float(eps[best]), float(fractions[best])
    curve = sorted({(eps_lo, f_lo), (eps_hi, f_hi), (epsilon, achieved)})
    return TuneResult(
        epsilon=epsilon,
        achieved_fraction=achieved,
        probes=len(curve),
        converged=abs(achieved - target_fraction) <= tol_fraction,
        curve=curve,
    )


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
    tile: int = DEFAULT_TILE,
    threads: int = 1,
) -> TuneResult:
    """``select_epsilon`` on the sampled clusters' prefix maxima; ``max_probes`` bounds nothing."""
    if not 0.0 < target_fraction < 1.0:
        raise InvalidArgumentError(f"target_fraction must be in (0, 1), got {target_fraction}")
    check_search(eps_lo, eps_hi, tol_fraction, max_probes)
    pmax = prefix_maxima(e, model, strategy, seed, tile, threads, clusters=sample)
    maxima = sorted_maxima(pmax, model, sample)
    return select_epsilon(maxima, target_fraction, eps_lo, eps_hi, tol_fraction)
