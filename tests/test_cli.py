import json
import shutil
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

from semdedup import analysis_metrics, cli, dedup_core
from semdedup.cli import _FLAG_NAMES, PipelineConfig, main
from semdedup.embedding_store import (
    EmbeddingMatrix,
    load_embeddings,
    normalize_rows_in_place,
    write_embeddings,
)
from semdedup.errors import EXIT_DATA, EXIT_FORMAT, EXIT_NOT_CONVERGED, EXIT_VALIDATION
from semdedup.spherical_kmeans import load_model, nearest_clusters
from semdedup.threshold_tuner import sample_clusters, select_epsilon, sorted_maxima

from conftest import exact_step_pairs, fixed_band_groups


@pytest.fixture
def corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((120, 16)).astype(np.float32)
    path = tmp_path / "corpus.semd"
    write_embeddings(EmbeddingMatrix(data), path)
    return path


@pytest.fixture
def step_corpus_file(tmp_path):
    theta = np.arccos(np.sqrt(0.98))
    e, _ = fixed_band_groups(30, 2, d=24, theta=theta, seed=3, singletons=140)
    path = tmp_path / "step.semd"
    write_embeddings(e, path)
    return path  # 200 points; kept fraction 0.85 past the step with k=1


def run_cluster(corpus, outdir, k=4, extra=()):
    return main([
        "cluster", "--input", str(corpus), "--k", str(k), "--iterations", "20",
        "--seed", "7", "--epsilon", "0.05", "--output-dir", str(outdir), *extra,
    ])


def test_cluster_dedup_stats_flow(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    model_path = outdir / "model.semk"
    assert model_path.is_file()
    assert (outdir / "config.json").is_file()

    assert main([
        "dedup", "--input", str(corpus_file), "--model", str(model_path),
        "--epsilon", "0.3", "--seed", "7", "--output-dir", str(outdir),
    ]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n"] == 120
    assert summary["epsilon"] == 0.3
    assert summary["kept"] == len((outdir / "keep.txt").read_text().split())
    kept_ids = [int(x) for x in (outdir / "keep.txt").read_text().split()]
    assert kept_ids == sorted(kept_ids)

    assert main([
        "stats", "--input", str(corpus_file), "--model", str(model_path),
        "--summary", str(outdir / "summary.json"), "--epsilon", "0.3",
        "--bins", "16", "--output-dir", str(outdir),
    ]) == 0
    stats = json.loads((outdir / "stats.json").read_text())
    total_pairs = sum(stats["similarity_histogram"]["counts"])
    sizes = [row["size"] for row in stats["per_cluster"]]
    assert total_pairs == sum(s * (s - 1) // 2 for s in sizes)
    assert sum(sizes) == 120
    hist_lines = (outdir / "histogram.csv").read_text().strip().splitlines()
    assert len(hist_lines) == 17  # header + 16 bins
    assert (outdir / "per_cluster.csv").is_file()


def test_eta_is_100_on_single_cluster_run(tmp_path, corpus_file, capsys):
    outdir = tmp_path / "k1"
    assert run_cluster(corpus_file, outdir, k=1) == 0
    assert main([
        "efficiency", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
        "--epsilon", "0.4", "--output-dir", str(outdir),
    ]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["eta"] == 100.0
    assert payload["m_neighbors"] == 0


def test_intersect_self_is_100(tmp_path, corpus_file, capsys):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    assert main([
        "dedup", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
        "--epsilon", "0.25", "--output-dir", str(outdir),
    ]) == 0
    keep = outdir / "keep.txt"
    assert main(["intersect", str(keep), str(keep)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["intersection_pct"] == 100.0


def test_cluster_k_exceeds_n_exit_code(tmp_path, corpus_file, caplog):
    outdir = tmp_path / "bad"
    code = run_cluster(corpus_file, outdir, k=500)
    assert code == EXIT_VALIDATION
    assert not outdir.exists()  # validation failed before any artifact
    assert any("500" in r.message and "120" in r.message for r in caplog.records)


def test_cluster_rerun_same_seed_identical_model(tmp_path, corpus_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cluster(corpus_file, out1) == 0
    assert run_cluster(corpus_file, out2) == 0
    assert (out1 / "model.semk").read_bytes() == (out2 / "model.semk").read_bytes()


def test_corrupt_input_exit_format(tmp_path, corpus_file):
    bad = tmp_path / "bad.semd"
    raw = bytearray(corpus_file.read_bytes())
    raw[0] ^= 0xFF
    bad.write_bytes(bytes(raw))
    assert run_cluster(bad, tmp_path / "out") == EXIT_FORMAT


def test_oversized_headers_exit_format(tmp_path, corpus_file):
    raw = bytearray(corpus_file.read_bytes())
    raw[8:20] = struct.pack("<QI", 2**62, 2**20)
    huge = tmp_path / "huge.semd"
    huge.write_bytes(bytes(raw))
    assert run_cluster(huge, tmp_path / "out") == EXIT_FORMAT

    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    raw = bytearray((outdir / "model.semk").read_bytes())
    raw[8:16] = struct.pack("<II", 2**31, 2**31)
    model = tmp_path / "huge.semk"
    model.write_bytes(bytes(raw))
    assert main([
        "dedup", "--input", str(corpus_file), "--model", str(model),
        "--epsilon", "0.1", "--output-dir", str(tmp_path / "out"),
    ]) == EXIT_FORMAT
    assert not (tmp_path / "out").exists()


def test_threads_come_from_no_environment_variable(tmp_path, corpus_file, monkeypatch):
    # Older releases read this variable; a stray value left in a shell must not stop a run.
    monkeypatch.setenv("SEMDEDUP_THREADS", "abc")
    assert run_cluster(corpus_file, tmp_path / "out") == 0


def test_intersect_malformed_keep_list_exit_format(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("1\n2\n")
    for line in ("abc", "-1", "1.5", "+5", "1_0"):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1\n{line}\n")
        assert main(["intersect", str(good), str(bad)]) == EXIT_FORMAT


def test_intersect_empty_or_unequal_keep_lists_exit_validation(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    good = tmp_path / "good.txt"
    good.write_text("1\n2\n")
    for pair in ((empty, empty), (empty, good), (good, empty)):
        assert main(["intersect", *map(str, pair)]) == EXIT_VALIDATION


def test_intersect_repeated_id_exit_format(tmp_path, caplog):
    good = tmp_path / "good.txt"
    good.write_text("1\n2\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("123456789\n123456789\n")
    assert main(["intersect", str(good), str(bad)]) == EXIT_FORMAT
    assert any("repeats id 123456789" in r.message for r in caplog.records)


def counting(monkeypatch, module, name="_panels"):
    """Count calls through ``module.name``; the returned list holds the count."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_stats_malformed_summary_exit_format(tmp_path, corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    good = {"epsilon": 0.3, "per_cluster_removed": [0, 0, 0, 0]}
    summary = tmp_path / "summary.json"
    calls = counting(monkeypatch, analysis_metrics)
    loads = counting(monkeypatch, cli, "load_embeddings")
    bad_epsilons = ("abc", 5, 0, True, float("nan"), "0.05")
    for bad in ("{not json", json.dumps({"epsilon": 0.3}),
                json.dumps({**good, "per_cluster_removed": [0, 1.5, 0, 0]}),
                *(json.dumps({**good, "epsilon": eps}) for eps in bad_epsilons)):
        summary.write_text(bad)
        assert main([
            "stats", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
            "--summary", str(summary), "--epsilon", "0.3", "--output-dir", str(tmp_path / "out"),
        ]) == EXIT_FORMAT, bad
    assert not (tmp_path / "out").exists()
    assert calls == [0]
    assert loads == [0]  # the summary is checked before the corpus is read


def test_stats_wrong_count_list_length_exits_before_any_sweep(tmp_path, corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"epsilon": 0.3, "per_cluster_removed": [0, 0, 0]}))  # k - 1
    calls = counting(monkeypatch, analysis_metrics)
    assert main([
        "stats", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
        "--summary", str(summary), "--output-dir", str(tmp_path / "out"),
    ]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert calls == [0]


def test_stats_sweeps_each_cluster_twice(tmp_path, monkeypatch):
    # Once for the histogram, once for eta's within count and the incidence.
    assert main(["synth", "--groups", "40", "--group-size", "3", "--dim", "64",
                 "--within-sim", "0.97", "--seed", "7", "--out-prefix", str(tmp_path / "p")]) == 0
    corpus = tmp_path / "p.semd"
    outdir = tmp_path / "run"
    assert run_cluster(corpus, outdir, k=5) == 0
    model = load_model(outdir / "model.semk")
    assert main([
        "dedup", "--input", str(corpus), "--model", str(outdir / "model.semk"),
        "--epsilon", "0.05", "--output-dir", str(outdir),
    ]) == 0
    across = {tuple(sorted((c, int(b)))) for c in range(model.k) for b in nearest_clusters(model, c, 2)}
    calls = counting(monkeypatch, analysis_metrics)
    assert main([
        "stats", "--input", str(corpus), "--model", str(outdir / "model.semk"),
        "--summary", str(outdir / "summary.json"), "--neighbors", "2", "--threads", "1",
        "--output-dir", str(tmp_path / "stats"),
    ]) == 0
    assert calls == [2 * model.k + len(across)]


def test_stats_runs_two_pools_and_efficiency_one(tmp_path, corpus_file, monkeypatch):
    # One pool for the histogram, one for the threshold pass: eta's within and
    # across tasks, whose within hits also give the incidence.
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    model = str(outdir / "model.semk")
    assert main(["dedup", "--input", str(corpus_file), "--model", model,
                 "--epsilon", "0.3", "--output-dir", str(outdir)]) == 0
    pools = counting(monkeypatch, analysis_metrics, "map_ordered")
    assert main(["stats", "--input", str(corpus_file), "--model", model, "--neighbors", "2",
                 "--summary", str(outdir / "summary.json"), "--output-dir", str(tmp_path / "s")]) == 0
    assert pools == [2]
    assert main(["efficiency", "--input", str(corpus_file), "--model", model, "--neighbors", "2",
                 "--epsilon", "0.3", "--output-dir", str(tmp_path / "e")]) == 0
    assert pools == [3]


def test_stats_incidence_and_eta_match_the_standalone_metrics(tmp_path, corpus_file):
    # At epsilon 0.5 some of the random corpus's threshold pairs cross clusters.
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    model_path = outdir / "model.semk"
    assert main(["dedup", "--input", str(corpus_file), "--model", str(model_path),
                 "--epsilon", "0.5", "--output-dir", str(outdir)]) == 0
    assert main(["stats", "--input", str(corpus_file), "--model", str(model_path),
                 "--neighbors", "2", "--summary", str(outdir / "summary.json"),
                 "--output-dir", str(tmp_path / "s")]) == 0
    stats = json.loads((tmp_path / "s" / "stats.json").read_text())
    e = normalize_rows_in_place(load_embeddings(str(corpus_file)))
    model = load_model(model_path)
    assert 0.0 < stats["duplicate_incidence"] < 1.0 and stats["eta"] < 100.0
    assert stats["duplicate_incidence"] == analysis_metrics.duplicate_incidence(e, model, 0.5)
    assert stats["eta"] == analysis_metrics.dedup_efficiency(e, model, 0.5, m_neighbors=2)
    assert "intersection" not in stats


def test_stats_impossible_removed_counts_exit_format(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    sizes = load_model(outdir / "model.semk").cluster_sizes().tolist()
    summary = tmp_path / "summary.json"

    def stats(removed):
        summary.write_text(json.dumps({"epsilon": 0.3, "per_cluster_removed": removed}))
        return main([
            "stats", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
            "--summary", str(summary), "--output-dir", str(tmp_path / "out"),
        ])

    for c, bad in ((0, -5), (1, sizes[1] + 1), (2, 1000000)):
        assert stats([bad if i == c else 0 for i in range(4)]) == EXIT_FORMAT
    assert not (tmp_path / "out").exists()
    assert stats(sizes) == 0


def test_stats_epsilon_must_match_summary(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"epsilon": 0.3, "per_cluster_removed": [0, 0, 0, 0]}))

    def stats(*flags):
        return main([
            "stats", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
            "--summary", str(summary), *flags, "--output-dir", str(tmp_path / "out"),
        ])

    assert stats("--epsilon", "0.05") == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert stats("--epsilon", "0.3") == 0
    assert stats("--target-fraction", "0.5") == 0


def test_config_malformed_exit_validation(tmp_path, corpus_file, caplog):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    base = {"input": str(corpus_file), "epsilon": 0.1, "k": 4, "output_dir": str(out)}
    config.write_text(json.dumps(base))
    assert main(["cluster", "--config", str(config)]) == 0
    shutil.rmtree(out)
    bad = ({"k": "four"}, {"tile": 0}, {"threads": -1}, {"eps_lo": 0.6, "eps_hi": 0.5},
           {"tol_fraction": 0.0}, {"tol_fraction": float("nan")}, {"max_probes": 0},
           {"histogram_bins": 1})
    for text in ("{not json", *(json.dumps({**base, **values}) for values in bad)):
        config.write_text(text)
        caplog.clear()
        assert main(["cluster", "--config", str(config)]) == EXIT_VALIDATION
        if "NaN" in text:  # NaN fails every comparison, `tol_fraction > 0` included
            assert "tol_fraction" in caplog.records[-1].message
    assert not out.exists()


def test_nan_input_exit_data(tmp_path):
    import struct

    header = struct.pack("<4sIQII", b"SEMD", 1, 1, 2, 1)
    payload = np.array([[np.nan, 1.0]], dtype="<f4").tobytes()
    ids = np.array([0], dtype="<u8").tobytes()
    bad = tmp_path / "nan.semd"
    bad.write_bytes(header + payload + ids)
    assert run_cluster(bad, tmp_path / "out") == EXIT_DATA


def test_commands_require_only_the_thresholds_they_read(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    model = str(outdir / "model.semk")
    common = ["--input", str(corpus_file), "--output-dir", str(outdir)]
    assert main(["cluster", *common, "--k", "4"]) == 0
    assert main(["dedup", *common, "--model", model, "--epsilon", "0.3"]) == 0
    # No threshold flag: sweep and stats read none, stats takes the summary's.
    assert main(["sweep", *common, "--model", model, "--epsilons", "0.1,0.3"]) == 0
    stats = ["stats", *common, "--model", model, "--summary", str(outdir / "summary.json")]
    assert main(stats) == 0
    unflagged = (outdir / "stats.json").read_bytes()
    assert main([*stats, "--epsilon", "0.3"]) == 0
    assert (outdir / "stats.json").read_bytes() == unflagged

    other = tmp_path / "other"
    for command in ("dedup", "tune", "efficiency"):
        assert main([command, "--input", str(corpus_file), "--model", model,
                     "--output-dir", str(other)]) == EXIT_VALIDATION
    assert main(["tune", "--input", str(corpus_file), "--model", model, "--epsilon", "0.3",
                 "--output-dir", str(other)]) == EXIT_VALIDATION
    assert main(["efficiency", "--input", str(corpus_file), "--model", model,
                 "--target-fraction", "0.5", "--output-dir", str(other)]) == EXIT_VALIDATION
    assert not other.exists()


def test_both_epsilon_and_target_rejected(tmp_path, corpus_file):
    code = main([
        "cluster", "--input", str(corpus_file), "--k", "2",
        "--epsilon", "0.1", "--target-fraction", "0.5",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION


def test_config_file_with_flag_override(tmp_path, corpus_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "input": str(corpus_file),
        "k": 3,
        "kmeans_iterations": 10,
        "epsilon": 0.2,
        "output_dir": str(tmp_path / "from_config"),
    }))
    assert main(["cluster", "--config", str(config)]) == 0
    assert (tmp_path / "from_config" / "model.semk").is_file()

    # Flag overrides config value.
    assert main([
        "cluster", "--config", str(config), "--output-dir", str(tmp_path / "flagged"),
    ]) == 0
    assert (tmp_path / "flagged" / "model.semk").is_file()
    effective = json.loads((tmp_path / "flagged" / "config.json").read_text())
    assert effective["k"] == 3
    assert effective["output_dir"] == str(tmp_path / "flagged")


# (flag, PipelineConfig field, a value other than its default) for every field
# but output_dir, which each run below sets.
EVERY_OPTION = (
    ("--input", "input", "copy.semd"),
    ("--format", "input_format", "text"),
    ("--k", "k", 3),
    ("--iterations", "kmeans_iterations", 4),
    ("--seed", "seed", 5),
    ("--epsilon", "epsilon", 0.2),
    ("--target-fraction", "target_fraction", 0.6),
    ("--strategy", "strategy", "random"),
    ("--sample-fraction", "sample_fraction", 0.5),
    ("--neighbors", "neighbors", 2),
    ("--threads", "threads", 2),
    ("--eps-lo", "eps_lo", 0.01),
    ("--eps-hi", "eps_hi", 0.4),
    ("--tol-fraction", "tol_fraction", 0.05),
    ("--max-probes", "max_probes", 3),
    ("--bins", "histogram_bins", 50),
)


def test_every_config_field_is_one_flag_and_one_config_key(tmp_path, corpus_file):
    assert _FLAG_NAMES == {"input_format": "--format", "kmeans_iterations": "--iterations",
                           "histogram_bins": "--bins"}
    names = [name for _, name, _ in EVERY_OPTION]
    assert sorted([*names, "output_dir"]) == sorted(f.name for f in fields(PipelineConfig))
    shutil.copy(corpus_file, tmp_path / "copy.semd")
    text_corpus = tmp_path / "corpus.txt"
    write_embeddings(load_embeddings(corpus_file), text_corpus, format="text")
    defaults = asdict(PipelineConfig())
    for flag, name, value in EVERY_OPTION:
        if name == "input":
            value = str(tmp_path / value)
        assert value != defaults[name]
        values = {"input": str(corpus_file), "k": 2, name: value}
        if name == "input_format":
            values["input"] = str(text_corpus)
        for source in ("flag", "config"):
            out = tmp_path / f"{name}-{source}"
            if source == "flag":
                argv = ["--input", values["input"], "--k", str(values["k"]), flag, str(value)]
            else:
                config = tmp_path / f"{name}.json"
                config.write_text(json.dumps(values))
                argv = ["--config", str(config)]
            assert main(["cluster", *argv, "--output-dir", str(out)]) == 0, (name, source)
            effective = json.loads((out / "config.json").read_text())
            assert effective == {**defaults, **values, "output_dir": str(out)}, (name, source)


def test_unknown_config_key_rejected(tmp_path, corpus_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(corpus_file), "epsilon": 0.1, "bogus": 1}))
    assert main(["cluster", "--config", str(config)]) == EXIT_VALIDATION


def test_tile_is_neither_a_flag_nor_a_config_key(tmp_path, corpus_file, caplog):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cluster(corpus_file, out, extra=("--tile", "64"))
    assert exc.value.code == EXIT_VALIDATION
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(corpus_file), "k": 2, "tile": 64,
                                  "output_dir": str(out)}))
    assert main(["cluster", "--config", str(config)]) == EXIT_VALIDATION
    assert "tile" in caplog.records[-1].message
    assert not out.exists()
    assert run_cluster(corpus_file, out) == 0
    assert "tile" not in json.loads((out / "config.json").read_text())
    assert PipelineConfig().tile == dedup_core.DEFAULT_TILE


def test_dedup_with_target_fraction_tunes(tmp_path, step_corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir, k=1) == 0
    assert main([
        "dedup", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--target-fraction", "0.86", "--sample-fraction", "1.0",
        "--eps-lo", "0.001", "--eps-hi", "0.2", "--output-dir", str(outdir),
    ]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["tuning"]["converged"]
    assert abs(summary["kept_fraction"] - 0.86) <= 0.02 + 1e-9


def test_dedup_target_fraction_tunes_on_every_point(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir, k=10) == 0
    model_path = outdir / "model.semk"
    model = load_model(model_path)
    pmax = dedup_core.prefix_maxima(normalize_rows_in_place(load_embeddings(corpus_file)),
                                    model, "low", 0)
    tol = 1e-4
    # Premise: the one cluster a 10% sample draws tunes to another epsilon than every point.
    sampled = sorted_maxima(pmax, model, sample_clusters(model, 0.1, 0))
    assert (select_epsilon(sampled, 0.75, 1e-4, 0.5, tol).epsilon
            != select_epsilon(np.sort(pmax), 0.75, 1e-4, 0.5, tol).epsilon)
    misses = []
    for target in (0.75, 0.754):  # 90 of 120 points is attainable, 0.754 is not
        runs = []
        for fraction in ("0.1", "1.0"):
            out = tmp_path / f"{target}-{fraction}"
            code = main([
                "dedup", "--input", str(corpus_file), "--model", str(model_path),
                "--target-fraction", str(target), "--sample-fraction", fraction,
                "--tol-fraction", str(tol), "--output-dir", str(out),
            ])
            runs.append((code, (out / "keep.txt").read_bytes(), (out / "summary.json").read_bytes()))
        assert runs[0] == runs[1]
        code, _, summary = runs[0]
        summary = json.loads(summary)
        assert summary["kept_fraction"] == summary["tuning"]["achieved_fraction"]
        misses.append(abs(summary["kept_fraction"] - target) > tol)
        assert code == (EXIT_NOT_CONVERGED if misses[-1] else 0)
    assert misses == [False, True]


def test_dedup_target_fraction_sweeps_each_cluster_once(tmp_path, step_corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir) == 0
    sweeps = counting(monkeypatch, dedup_core, "dedup_cluster")
    dtypes = []
    panels = dedup_core._panels

    def recorded(*args, **kwargs):
        dtypes.append(kwargs["dtype"])
        return panels(*args, **kwargs)

    monkeypatch.setattr(dedup_core, "_panels", recorded)
    # Every cluster is sampled, so a separate tuning pass would sweep each one twice.
    assert main([
        "dedup", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--target-fraction", "0.9", "--sample-fraction", "1.0", "--eps-lo", "0.001",
        "--eps-hi", "0.2", "--threads", "1", "--output-dir", str(outdir),
    ]) == 0
    multi = int(np.count_nonzero(load_model(outdir / "model.semk").cluster_sizes() >= 2))
    assert multi >= 2
    assert sweeps == [multi]
    # One float32 screen per sweep: pmax needs no float64 panel.
    assert dtypes == [np.float32] * multi


def test_tune_subcommand_writes_curve(tmp_path, step_corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir, k=1) == 0
    assert main([
        "tune", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--target-fraction", "0.86", "--sample-fraction", "1.0",
        "--eps-lo", "0.001", "--eps-hi", "0.2",
        "--output-dir", str(outdir),
    ]) == 0
    tune = json.loads((outdir / "tune.json").read_text())
    assert tune["converged"]
    assert tune["probes"] <= 8
    epsilons = [eps for eps, _ in tune["curve"]]
    assert len(epsilons) == tune["probes"]
    assert all(a < b for a, b in zip(epsilons, epsilons[1:]))
    assert not (outdir / "curve.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
              "--target-fraction", "0.86", "--output-dir", str(outdir), "--csv"])
    assert exc.value.code == EXIT_VALIDATION


def test_tune_not_converged_exit_code(tmp_path):
    # One genuine step: kept fraction 1.0 up to epsilon 0.125, then 0.5.
    corpus = tmp_path / "pairs.semd"
    write_embeddings(exact_step_pairs(), corpus)
    outdir = tmp_path / "run"
    assert run_cluster(corpus, outdir, k=1) == 0
    args = ["--input", str(corpus), "--model", str(outdir / "model.semk"),
            "--target-fraction", "0.7", "--sample-fraction", "1.0",
            "--eps-lo", "0.01", "--eps-hi", "0.5", "--output-dir", str(outdir)]
    assert main(["tune", *args]) == EXIT_NOT_CONVERGED
    tune = json.loads((outdir / "tune.json").read_text())
    assert tune["converged"] is False
    assert (tune["epsilon"], tune["achieved_fraction"]) == (0.5, 0.5)
    # dedup writes its outputs, then exits 5 as well.
    assert main(["dedup", *args]) == EXIT_NOT_CONVERGED
    assert json.loads((outdir / "summary.json").read_text())["tuning"] == tune


def test_dedup_tuning_summary_matches_tune_output(tmp_path, step_corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir, k=1) == 0
    args = ["--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
            "--target-fraction", "0.9", "--sample-fraction", "1.0",
            "--eps-lo", "0.001", "--eps-hi", "0.2", "--output-dir", str(outdir)]
    assert main(["tune", *args]) == 0
    assert main(["dedup", *args]) == 0
    tune = json.loads((outdir / "tune.json").read_text())
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["tuning"] == tune
    assert tune["target_fraction"] == 0.9
    assert summary["epsilon"] == tune["epsilon"]
    assert [tune["epsilon"], tune["achieved_fraction"]] in tune["curve"]


def test_sweep_single_epsilon_matches_dedup(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    assert main([
        "dedup", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
        "--epsilon", "0.35", "--output-dir", str(outdir),
    ]) == 0
    summary = json.loads((outdir / "summary.json").read_text())

    assert main([
        "sweep", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
        "--epsilons", "0.35", "--epsilon", "0.35", "--output-dir", str(outdir),
    ]) == 0
    lines = (outdir / "curve.csv").read_text().strip().splitlines()
    eps, frac = lines[1].split(",")
    assert float(eps) == 0.35
    assert float(frac) == summary["kept_fraction"]


def test_sweep_curve_non_increasing(tmp_path, step_corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir, k=2) == 0
    assert main([
        "sweep", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--epsilons", "0.001,0.01,0.05,0.1,0.3", "--epsilon", "0.05",
        "--output-dir", str(outdir),
    ]) == 0
    rows = [line.split(",") for line in (outdir / "curve.csv").read_text().strip().splitlines()[1:]]
    fracs = [float(f) for _, f in rows]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_sweep_rejects_bad_epsilon_lists(tmp_path, corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    model = str(outdir / "model.semk")
    base = ["sweep", "--input", str(corpus_file), "--model", model,
            "--epsilon", "0.1", "--output-dir", str(tmp_path / "out")]
    loads = counting(monkeypatch, cli, "load_embeddings")
    for bad in ("0.2,0.1", "0.2,0.2", "", "0.1,x", "0.5,1.5", "0,0.5"):
        assert main(base + ["--epsilons", bad]) == EXIT_VALIDATION, bad
    assert loads == [0]  # every list is checked before the corpus is read
    assert not (tmp_path / "out").exists()


def test_synth_round_trip(tmp_path):
    prefix = tmp_path / "planted"
    assert main([
        "synth", "--groups", "10", "--group-size", "3", "--dim", "16",
        "--within-sim", "0.999", "--seed", "3", "--out-prefix", str(prefix),
    ]) == 0
    from semdedup.embedding_store import load_embeddings

    corpus = load_embeddings(tmp_path / "planted.semd")
    assert corpus.n == 30
    meta = json.loads((tmp_path / "planted.groups.json").read_text())
    assert len(meta["groups"]) == 10
    assert meta["within_sim"] > meta["across_sim"]


def test_pipeline_deterministic_across_threads(tmp_path, corpus_file):
    outputs = []
    for threads in (1, 8):
        outdir = tmp_path / f"t{threads}"
        assert run_cluster(corpus_file, outdir, extra=("--threads", str(threads))) == 0
        assert main([
            "dedup", "--input", str(corpus_file), "--model", str(outdir / "model.semk"),
            "--epsilon", "0.3", "--threads", str(threads),
            "--strategy", "random", "--seed", "5", "--output-dir", str(outdir),
        ]) == 0
        outputs.append((
            (outdir / "model.semk").read_bytes(),
            (outdir / "keep.txt").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_missing_model_no_partial_artifacts(tmp_path, corpus_file):
    outdir = tmp_path / "never"
    code = main([
        "dedup", "--input", str(corpus_file), "--model", str(tmp_path / "missing.semk"),
        "--epsilon", "0.2", "--output-dir", str(outdir),
    ])
    assert code == EXIT_VALIDATION
    assert not outdir.exists()
