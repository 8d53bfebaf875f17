import json
import shutil
import struct

import numpy as np
import pytest

from semdedup import analysis_metrics, dedup_core
from semdedup.cli import main
from semdedup.embedding_store import EmbeddingMatrix, write_embeddings
from semdedup.errors import EXIT_DATA, EXIT_FORMAT, EXIT_NOT_CONVERGED, EXIT_VALIDATION
from semdedup.spherical_kmeans import load_model, nearest_clusters

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


def test_malformed_threads_env_exit_validation(tmp_path, corpus_file, monkeypatch):
    for value in ("abc", "-3"):
        monkeypatch.setenv("SEMDEDUP_THREADS", value)
        assert run_cluster(corpus_file, tmp_path / "out") == EXIT_VALIDATION


def test_intersect_malformed_keep_list_exit_format(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("1\n2\n")
    for line in ("abc", "-1", "1.5", "+5", "1_0"):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1\n{line}\n")
        assert main(["intersect", str(good), str(bad)]) == EXIT_FORMAT


def counting_pair_tiles(monkeypatch, module):
    """Count calls through ``module.pair_tiles``; the returned list holds the count."""
    calls = [0]
    original = module.pair_tiles

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "pair_tiles", wrapper)
    return calls


def test_stats_malformed_summary_exit_format(tmp_path, corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    good = {"epsilon": 0.3, "per_cluster_removed": [0, 0, 0, 0]}
    summary = tmp_path / "summary.json"
    calls = counting_pair_tiles(monkeypatch, analysis_metrics)
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


def test_stats_sweeps_each_cluster_twice(tmp_path, monkeypatch):
    # Once for the histogram and the incidence, once for eta's within count.
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
    calls = counting_pair_tiles(monkeypatch, analysis_metrics)
    assert main([
        "stats", "--input", str(corpus), "--model", str(outdir / "model.semk"),
        "--summary", str(outdir / "summary.json"), "--neighbors", "2", "--threads", "1",
        "--output-dir", str(tmp_path / "stats"),
    ]) == 0
    assert calls == [2 * model.k + len(across)]


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


def test_config_malformed_exit_validation(tmp_path, corpus_file):
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    base = {"input": str(corpus_file), "epsilon": 0.1, "k": 4, "output_dir": str(out)}
    config.write_text(json.dumps(base))
    assert main(["cluster", "--config", str(config)]) == 0
    shutil.rmtree(out)
    bad = ({"k": "four"}, {"tile": 0}, {"eps_lo": 0.6, "eps_hi": 0.5}, {"tol_fraction": 0.0},
           {"max_probes": 0}, {"histogram_bins": 1})
    for text in ("{not json", *(json.dumps({**base, **values}) for values in bad)):
        config.write_text(text)
        assert main(["cluster", "--config", str(config)]) == EXIT_VALIDATION
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


def test_unknown_config_key_rejected(tmp_path, corpus_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(corpus_file), "epsilon": 0.1, "bogus": 1}))
    assert main(["cluster", "--config", str(config)]) == EXIT_VALIDATION


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


def test_dedup_target_fraction_sweeps_each_cluster_once(tmp_path, step_corpus_file, monkeypatch):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir) == 0
    calls = {"dedup_cluster": 0, "pair_tiles": 0}

    def counted(name):
        original = getattr(dedup_core, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dedup_core, name, counted(name))
    # Every cluster is sampled, so a separate tuning pass would sweep each one twice.
    assert main([
        "dedup", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--target-fraction", "0.9", "--sample-fraction", "1.0", "--eps-lo", "0.001",
        "--eps-hi", "0.2", "--threads", "1", "--output-dir", str(outdir),
    ]) == 0
    multi = int(np.count_nonzero(load_model(outdir / "model.semk").cluster_sizes() >= 2))
    assert multi >= 2
    assert calls == {"dedup_cluster": multi, "pair_tiles": multi}


def test_tune_subcommand_writes_curve(tmp_path, step_corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(step_corpus_file, outdir, k=1) == 0
    assert main([
        "tune", "--input", str(step_corpus_file), "--model", str(outdir / "model.semk"),
        "--target-fraction", "0.86", "--sample-fraction", "1.0",
        "--eps-lo", "0.001", "--eps-hi", "0.2",
        "--output-dir", str(outdir), "--csv",
    ]) == 0
    tune = json.loads((outdir / "tune.json").read_text())
    assert tune["converged"]
    assert tune["probes"] <= 8
    lines = (outdir / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,kept_fraction"
    assert len(lines) == tune["probes"] + 1


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


def test_sweep_rejects_bad_epsilon_lists(tmp_path, corpus_file):
    outdir = tmp_path / "run"
    assert run_cluster(corpus_file, outdir) == 0
    model = str(outdir / "model.semk")
    base = ["sweep", "--input", str(corpus_file), "--model", model,
            "--epsilon", "0.1", "--output-dir", str(outdir)]
    assert main(base + ["--epsilons", "0.2,0.1"]) == EXIT_VALIDATION
    assert main(base + ["--epsilons", "0.2,0.2"]) == EXIT_VALIDATION
    assert main(base + ["--epsilons", ""]) == EXIT_VALIDATION
    assert main(base + ["--epsilons", "0.1,x"]) == EXIT_VALIDATION


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
