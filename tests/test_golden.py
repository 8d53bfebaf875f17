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
(float32 screens with a certified margin, float64 row-wise dots such as the
``high`` keep order's keys, the ``random`` order's hashed keys); a row
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
    ("cluster", "config.json"): ("fa67051f4c083d509f2d2f3bb237520f478504f29e34d229b7a59725b48aa7cf", ANY),
    ("cluster", "model.semk"): ("1f14874e0abc80c617b59b50f97016b6fedf6e5d76d61f4ed4c320b39777b1b8", HERE),
    ("dedup", "config.json"): ("959ebbc2c4485a577baf6eaec2e516e6809129dd71d1f124240e7147afd2c666", ANY),
    ("dedup", "keep.txt"): ("ae6d6c939d2e21561df62e08f4169db3180789e1263d4225b027532f545d3a47", ANY),
    ("dedup", "summary.json"): ("abbb3fa77c131fb700333d6a6896741f3df33b9b550c96cef435e2a747596be4", ANY),
    ("high", "config.json"): ("5f1bb902375da10ae6b8329aa17d854d0c37b3c4e3083dce73f61ade8f802d60", ANY),
    ("high", "keep.txt"): ("674f1ffd4cb941110c6605ec6929f72fb52d1f9b4340a3277a54c3b66538462a", ANY),
    ("high", "summary.json"): ("1abe16f28e25911dbb62a98dfa0566ac8edfcd6ae1e9479a7818ac51596e128b", ANY),
    ("random", "config.json"): ("5f92aac0377d5cdebce353ca66453e6199ff29db228cac41302df65893a77571", ANY),
    ("random", "keep.txt"): ("be124e720f475cf7d20189fc8b999bc77ea510d76a153b99d6804f34ce881cc3", ANY),
    ("random", "summary.json"): ("399aedb17c6b44f562a530fdd26565265c1c7046ddef815972e54f906072c3f2", ANY),
    ("target", "config.json"): ("b752abc41b33bbc38321b82271e87df93e91705414372a5b64987501c5115d9a", ANY),
    ("target", "keep.txt"): ("f5b27b93dd3221260804c8e080dcfe39364a7925586fb759f1e85ec599d799c5", ANY),
    ("target", "summary.json"): ("1f6bec787fe852cd244b5d40a42c357db823d57d72141daa1f7f9bc945daab75", ANY),
    ("sweep", "config.json"): ("f2137f64641e776d4e72f67b7e26d90b03c72b30c379f85c029b4d8deae6acd6", ANY),
    ("sweep", "curve.csv"): ("d8f55afc57b7d7d29fe55994f012735b8edd8ba67e4a51fec57b6e0de8a643b9", ANY),
    ("stats", "config.json"): ("6a2dd04a1c89749daaaa465797f52b5f8b626f97dd1793cd0b048c28bcbaa02e", ANY),
    ("stats", "histogram.csv"): ("09dce0d001b05f44ff96a42656ae927e44d5be0d40a597d67eb88804250e77d3", HERE),
    ("stats", "per_cluster.csv"): ("1569d0487848c1052f0ebf5b2b175567fa5cce0ed32af885b244f2c6ba97e192", ANY),
    ("stats", "stats.json"): ("a67c8aefdcaf4abce1d3381cfdf9d7a8449f1a468f24888fc24d74bca6cf20f5", HERE),
    ("tune", "config.json"): ("927dc47b96a56ec7c3774b54ad15ac77d262444db167815b69e8b8cf7976ce49", ANY),
    ("tune", "tune.json"): ("7b573400fd226a6349300005daac96b197efc960dc0862404b184e9dff45534e", ANY),
    ("efficiency", "stdout"): ("f3dca481f2c674436e4b2e53bf3c8568aa9db0c6ae9e5d720f6f16d17bbda180", HERE),
}

# Output dir, then the command's arguments; each run adds --input, --threads and --output-dir.
STEPS = [
    ("cluster", ["cluster", "--k", "8", "--iterations", "10", "--seed", "7"]),
    ("dedup", ["dedup", "--model", "{cluster}/model.semk", "--epsilon", EPSILON, "--seed", "7"]),
    ("high", ["dedup", "--model", "{cluster}/model.semk", "--epsilon", EPSILON, "--strategy", "high",
              "--seed", "7"]),
    ("random", ["dedup", "--model", "{cluster}/model.semk", "--epsilon", EPSILON,
                "--strategy", "random", "--seed", "7"]),
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
