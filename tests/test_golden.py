"""Every command's output, byte for byte, on one seeded corpus.

The corpus is ``perfbench.corpus.generate(6000, 64, 8, 0.05, 7)``: 8 topics
with planted exact and near copies. Each command runs through ``cli.main`` in
process at ``--threads 1`` and ``--threads 2``, and the SHA-256 of each
output file (and of ``efficiency``'s stdout) must equal its row of
``GOLDEN``. ``config.json`` is hashed without its paths and its thread count,
the two settings that may differ between runs of one result.

An intended change of output edits the table in the same change and says
why, and how many rows or pairs moved. A row marked ``"any machine"`` makes
its decisions in arithmetic that no BLAS kernel, tile or thread count rounds
(float32 screens with a certified margin, float64 row-wise dots); a row
marked ``"this machine"`` also reads a float64 GEMM or GEMV entry (the k-means
assign and seeding race, the histogram, eta's neighbor lists), whose last bits
may differ on another CPU. Every command reads the model that ``cluster``
writes, so a row can move on another machine also because the model did.
"""

import hashlib
import json

import pytest

from perfbench.corpus import generate
from semdedup.cli import main
from semdedup.embedding_store import EmbeddingMatrix, write_embeddings

EPSILON = "0.05"
TARGET = "0.75"

ANY, HERE = "any machine", "this machine"
# (step, output) -> (SHA-256, where it holds). Step names are the output dirs below.
GOLDEN = {
    ("cluster", "config.json"): ("9fb16c5041dd435499284eaf0eaf9816d0df12283b4caae1236d77f0ab6f2160", ANY),
    ("cluster", "model.semk"): ("1f14874e0abc80c617b59b50f97016b6fedf6e5d76d61f4ed4c320b39777b1b8", HERE),
    ("dedup", "config.json"): ("b631afdd65f76ac3e3d76713df0c32ec96e186cfb09f6f116beb4a3b41accc09", ANY),
    ("dedup", "keep.txt"): ("ae6d6c939d2e21561df62e08f4169db3180789e1263d4225b027532f545d3a47", ANY),
    ("dedup", "summary.json"): ("abbb3fa77c131fb700333d6a6896741f3df33b9b550c96cef435e2a747596be4", ANY),
    ("target", "config.json"): ("a6fc7a5adaac25db4389839cb07451e941cebf4028a45b5726e4859e0dd322dc", ANY),
    ("target", "keep.txt"): ("f5b27b93dd3221260804c8e080dcfe39364a7925586fb759f1e85ec599d799c5", ANY),
    ("target", "summary.json"): ("1f6bec787fe852cd244b5d40a42c357db823d57d72141daa1f7f9bc945daab75", ANY),
    ("sweep", "config.json"): ("b46523bc5cddec9bd5bf4a2bf9f65abe93977996f92bc1abedc479ac34bf9f26", ANY),
    ("sweep", "curve.csv"): ("d8f55afc57b7d7d29fe55994f012735b8edd8ba67e4a51fec57b6e0de8a643b9", ANY),
    ("stats", "config.json"): ("746a018a1b66c2aa6dd52041ac9c610fd7d679508d98abfa3684b2a6c32afbde", ANY),
    ("stats", "histogram.csv"): ("09dce0d001b05f44ff96a42656ae927e44d5be0d40a597d67eb88804250e77d3", HERE),
    ("stats", "per_cluster.csv"): ("1569d0487848c1052f0ebf5b2b175567fa5cce0ed32af885b244f2c6ba97e192", ANY),
    ("stats", "stats.json"): ("a67c8aefdcaf4abce1d3381cfdf9d7a8449f1a468f24888fc24d74bca6cf20f5", HERE),
    ("tune", "config.json"): ("db0d04c7e22f9d01fc2d9601773353a767b00da891136574795c675e04f27bfe", ANY),
    ("tune", "tune.json"): ("7b573400fd226a6349300005daac96b197efc960dc0862404b184e9dff45534e", ANY),
    ("efficiency", "stdout"): ("f3dca481f2c674436e4b2e53bf3c8568aa9db0c6ae9e5d720f6f16d17bbda180", HERE),
}

# Output dir, then the command's arguments; each run adds --input, --threads and --output-dir.
STEPS = [
    ("cluster", ["cluster", "--k", "8", "--iterations", "10", "--seed", "7"]),
    ("dedup", ["dedup", "--model", "{cluster}/model.semk", "--epsilon", EPSILON, "--seed", "7"]),
    ("target", ["dedup", "--model", "{cluster}/model.semk", "--target-fraction", TARGET,
                "--seed", "7"]),
    ("sweep", ["sweep", "--model", "{cluster}/model.semk", "--epsilons", "0.01,0.03,0.05,0.1,0.2",
               "--seed", "7"]),
    ("stats", ["stats", "--model", "{cluster}/model.semk", "--summary", "{dedup}/summary.json",
               "--epsilon", EPSILON, "--neighbors", "3"]),
    ("tune", ["tune", "--model", "{cluster}/model.semk", "--target-fraction", TARGET,
              "--sample-fraction", "0.5", "--seed", "7"]),
    ("efficiency", ["efficiency", "--model", "{cluster}/model.semk", "--epsilon", EPSILON,
                    "--neighbors", "3"]),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    c = generate(6000, 64, 8, float(EPSILON), 7)
    path = tmp_path_factory.mktemp("golden") / "corpus.semd"
    write_embeddings(EmbeddingMatrix(c.data, c.ids), path)
    return path


def _digest(path):
    if path.name != "config.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    config = json.loads(path.read_text(encoding="utf-8"))
    for key in ("input", "output_dir", "threads"):
        del config[key]
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_the_golden_table(tmp_path, corpus, capsys, threads):
    dirs = {step: str(tmp_path / step) for step, _ in STEPS}
    got = {}
    for step, args in STEPS:
        argv = [a.format(**dirs) for a in args]
        capsys.readouterr()
        assert main([*argv, "--input", str(corpus), "--threads", str(threads),
                     "--output-dir", dirs[step]]) == 0, step
        stdout = capsys.readouterr().out
        if stdout:
            got[(step, "stdout")] = hashlib.sha256(stdout.encode()).hexdigest()
        for path in sorted((tmp_path / step).glob("*")):
            got[(step, path.name)] = _digest(path)
    assert got == {key: digest for key, (digest, _) in GOLDEN.items()}
