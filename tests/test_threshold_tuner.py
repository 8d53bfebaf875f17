import numpy as np
import pytest

from semdedup.dedup_core import DedupConfig, KeepStrategy, dedup_dataset
from semdedup.errors import BracketError, InvalidArgumentError
from semdedup.spherical_kmeans import KMeansModel, fit
from semdedup.threshold_tuner import (
    SizeCurve,
    sample_clusters,
    select_epsilon,
    size_curve,
    tune_epsilon,
)

from conftest import exact_step_pairs, fixed_band_groups, random_unit, single_cluster_model


def step_corpus():
    """All within-group similarities in one sharp band: cos(theta)^2 ~ 0.98.

    140 pairs + 720 singletons under a single cluster (so no pair can be
    split by a cluster boundary): kept fraction is exactly 1.0 below the
    step and (140 + 720) / 1000 = 0.86 above it.
    """
    theta = np.arccos(np.sqrt(0.98))
    e, groups = fixed_band_groups(140, 2, d=24, theta=theta, seed=4, singletons=720)
    model = fit(e, 1, 2, seed=1)
    return e, model


def test_sample_clusters_full_fraction(rng):
    e = random_unit(rng, 40, 6)
    model = fit(e, 8, 5, seed=0)
    assert sample_clusters(model, 1.0, seed=1).tolist() == list(range(8))


def test_sample_clusters_ceiling(rng):
    e = random_unit(rng, 50, 6)
    model = fit(e, 10, 5, seed=0)
    assert sample_clusters(model, 0.1, seed=3).size == 1
    assert sample_clusters(model, 0.11, seed=3).size == 2


def test_sample_clusters_deterministic_and_distinct(rng):
    e = random_unit(rng, 60, 6)
    model = fit(e, 12, 5, seed=0)
    a = sample_clusters(model, 0.5, seed=9)
    b = sample_clusters(model, 0.5, seed=9)
    assert np.array_equal(a, b)
    assert np.unique(a).size == a.size


def test_sample_clusters_uniform_without_replacement():
    model = KMeansModel(np.eye(10), np.arange(10))
    counts = np.zeros(10, dtype=np.int64)
    for seed in range(2000):
        picked = sample_clusters(model, 0.3, seed=seed)
        assert picked.size == 3 and np.unique(picked).size == 3
        counts[picked] += 1
    # Each cluster is expected in 600 of 2000 samples (sd ~20).
    assert counts.min() > 520 and counts.max() < 680


def test_sample_clusters_invalid_fraction(rng):
    e = random_unit(rng, 20, 6)
    model = fit(e, 4, 5, seed=0)
    for fraction in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            sample_clusters(model, fraction, seed=0)


def test_size_curve_distinct_corpus_is_flat(rng):
    e = random_unit(rng, 80, 32)
    model = fit(e, 4, 10, seed=0)
    sample = np.arange(4)
    curve = size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [1e-6, 1e-5, 1e-4])
    assert [f for _, f in curve.points] == [1.0, 1.0, 1.0]


def test_size_curve_planted_step():
    e, model = step_corpus()
    sample = np.arange(1)
    curve = size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [0.001, 0.1])
    assert curve.points[0][1] == pytest.approx(1.0)
    assert curve.points[1][1] == pytest.approx(0.86)


def test_size_curve_duplicate_epsilons_collapse(rng):
    e = random_unit(rng, 50, 8)
    model = fit(e, 5, 10, seed=0)
    sample = np.arange(5)
    doubled = size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [0.2, 0.2])
    single = size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [0.2])
    assert doubled.points == single.points


def test_size_curve_rejects_decreasing_and_empty(rng):
    e = random_unit(rng, 30, 6)
    model = fit(e, 3, 5, seed=0)
    with pytest.raises(InvalidArgumentError):
        size_curve(e, model, np.arange(3), KeepStrategy.LOW_CENTROID_SIM, [0.3, 0.2])
    with pytest.raises(InvalidArgumentError):
        size_curve(e, model, np.arange(3), KeepStrategy.LOW_CENTROID_SIM, [])
    with pytest.raises(InvalidArgumentError):
        size_curve(e, model, np.array([], dtype=np.int64), KeepStrategy.LOW_CENTROID_SIM, [0.1])


def test_size_curve_monotone_non_increasing(rng):
    e = random_unit(rng, 150, 8)
    model = fit(e, 6, 10, seed=2)
    grid = np.linspace(0.01, 0.9, 12).tolist()
    curve = size_curve(e, model, np.arange(6), KeepStrategy.LOW_CENTROID_SIM, grid)
    fracs = [f for _, f in curve.points]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_size_curve_invariant_validation():
    with pytest.raises(InvalidArgumentError):
        SizeCurve([(0.1, 0.5), (0.1, 0.5)])
    with pytest.raises(InvalidArgumentError):
        SizeCurve([(0.1, 0.5), (0.2, 0.9)])
    with pytest.raises(InvalidArgumentError):
        SizeCurve([(0.1, 0.0)])


def _sampled(e, model, sample, eps):
    """size_curve's kept fraction at one epsilon."""
    return size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [eps]).points[0][1]


def test_tune_endpoint_hit_returns_endpoint(rng):
    e = random_unit(rng, 60, 16)
    model = fit(e, 3, 10, seed=0)
    sample = np.arange(3)
    # Distinct corpus: kept fraction at tiny epsilon is exactly 1.0.
    result = tune_epsilon(
        e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=0.999, eps_lo=1e-6, eps_hi=0.5, tol_fraction=0.002,
    )
    assert result.converged
    assert result.epsilon == 1e-6
    assert result.achieved_fraction == 1.0
    # The curve holds both range ends, here one of them the answer.
    assert result.curve == [(1e-6, 1.0), (0.5, _sampled(e, model, sample, 0.5))]
    assert result.probes == len(result.curve) == 2


def test_tune_single_step_corpus_converges():
    e, model = step_corpus()
    sample = np.arange(1)
    result = tune_epsilon(
        e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=0.87, eps_lo=0.001, eps_hi=0.2,
        tol_fraction=0.02, max_probes=8,
    )
    assert result.converged
    assert result.probes <= 8
    assert abs(result.achieved_fraction - 0.87) <= 0.02

    # Every curve point is size_curve's fraction at its epsilon, and the
    # range ends bracket the target.
    history = dict(result.curve)
    assert {0.001, 0.2, result.epsilon} == set(history)
    for eps, frac in history.items():
        assert frac == _sampled(e, model, sample, eps)
    assert history[0.001] >= 0.87 >= history[0.2]


def test_tune_mid_step_target_converges_exactly():
    e, model = step_corpus()
    sample = np.arange(1)
    # The within-pair cosines differ by float32 rounding, so each of the 140
    # pairs is its own step and every fraction 0.860, 0.861, ... 1.0 is attained.
    result = tune_epsilon(
        e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=0.93, eps_lo=0.001, eps_hi=0.2,
        tol_fraction=0.001, max_probes=1,
    )
    assert result.converged
    assert abs(result.achieved_fraction - 0.93) <= 0.001
    assert result.achieved_fraction == _sampled(e, model, sample, result.epsilon)


def test_tune_attains_steps_below_half():
    # 1 - (1 - 0.2) rounds to 0.19999999999999996, so epsilon = 1 - 0.2
    # alone would drop the point whose maximum is 0.2.
    result = select_epsilon(np.array([0.0, 0.2, 0.95]), target_fraction=0.66,
                            eps_lo=0.01, eps_hi=0.99, tol_fraction=0.01)
    assert result.converged
    assert result.achieved_fraction == 2 / 3
    assert 1.0 - result.epsilon >= 0.2


def test_tune_genuine_step_not_converged():
    e = exact_step_pairs()
    model = single_cluster_model(e)
    sample = np.arange(1)
    assert _sampled(e, model, sample, 0.125) == 1.0
    assert _sampled(e, model, sample, 0.126) == 0.5
    result = tune_epsilon(
        e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=0.7, eps_lo=0.01, eps_hi=0.5, tol_fraction=0.02,
    )
    # Nothing between the plateaus: the nearest attainable fraction is 0.5.
    assert not result.converged
    assert (result.epsilon, result.achieved_fraction) == (0.5, 0.5)
    assert result.curve == [(0.01, 1.0), (0.5, 0.5)]


def test_tune_unbracketed_raises(rng):
    e = random_unit(rng, 60, 16)
    model = fit(e, 3, 10, seed=0)
    sample = np.arange(3)
    # Distinct corpus keeps everything at both endpoints: both above target.
    with pytest.raises(BracketError):
        tune_epsilon(
            e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
            target_fraction=0.5, eps_lo=1e-6, eps_hi=1e-5, tol_fraction=0.01,
        )


def test_tune_full_sample_matches_dedup_exactly():
    e, model = step_corpus()
    sample = np.arange(1)
    result = tune_epsilon(
        e, model, sample, KeepStrategy.LOW_CENTROID_SIM,
        target_fraction=0.87, eps_lo=0.001, eps_hi=0.2,
    )
    check = dedup_dataset(e, model, DedupConfig(epsilon=result.epsilon))
    assert check.kept_fraction == result.achieved_fraction


def test_tune_argument_validation(rng):
    e = random_unit(rng, 30, 8)
    model = fit(e, 3, 5, seed=0)
    sample = np.arange(3)
    strategy = KeepStrategy.LOW_CENTROID_SIM
    with pytest.raises(InvalidArgumentError):
        tune_epsilon(e, model, sample, strategy, 0.5, 0.2, 0.1)  # lo >= hi
    with pytest.raises(InvalidArgumentError):
        tune_epsilon(e, model, sample, strategy, 1.5, 0.1, 0.2)
    with pytest.raises(InvalidArgumentError):
        tune_epsilon(e, model, sample, strategy, 0.5, 0.1, 0.2, tol_fraction=0.0)
    with pytest.raises(InvalidArgumentError):
        tune_epsilon(e, model, sample, strategy, 0.5, 0.1, 0.2, max_probes=0)


def test_tuner_rejects_empty_repeated_and_out_of_range_samples(rng):
    e = random_unit(rng, 30, 8)
    model = fit(e, 3, 5, seed=0)
    strategy = KeepStrategy.LOW_CENTROID_SIM
    for sample in ([], [0, 0], [-1], [model.k]):
        with pytest.raises(InvalidArgumentError):
            size_curve(e, model, sample, strategy, [0.1])
        with pytest.raises(InvalidArgumentError):
            tune_epsilon(e, model, sample, strategy, 0.5, 0.01, 0.5)


def test_tuner_rejects_model_of_another_corpus(rng):
    e = random_unit(rng, 100, 6)
    for other in (random_unit(rng, 200, 6), random_unit(rng, 100, 5)):
        model = fit(other, 4, 5, seed=0)
        sample = np.arange(model.k)
        with pytest.raises(InvalidArgumentError, match="does not match"):
            size_curve(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, [0.1, 0.2])
        with pytest.raises(InvalidArgumentError, match="does not match"):
            tune_epsilon(e, model, sample, KeepStrategy.LOW_CENTROID_SIM, 0.5, 0.01, 0.5)
