"""Child-process steps of a benchmark run: generate, check, trace.

``run.py`` keeps its own process small and starts each step here in a fresh
interpreter, because a child's peak RSS as reported by ``wait4`` includes
the high-water RSS of the process that started it.

    python3 -m perfbench.worker generate --workload W --seed N --dir D
    python3 -m perfbench.worker check    --workload W --seed N --dir D --passes P
    python3 -m perfbench.worker trace    --workload W --seed N --dir D --cli F --trace-out T

Each step prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from semdedup import EmbeddingMatrix, write_embeddings
from semdedup._parallel import resolve_threads

from .checks import check_run
from .corpus import generate
from .tracing import traced_run
from .workloads import EPSILON, WORKLOADS

CORPUS = "corpus.semd"
TRUTH = "truth.npz"


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "semdedup_threads": resolve_threads(0),
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


def cmd_generate(args) -> dict:
    w = WORKLOADS[args.workload]
    c = generate(w.n, w.d, w.topics, EPSILON, args.seed, topic_skew=w.topic_skew)
    out = Path(args.dir)
    write_embeddings(EmbeddingMatrix(c.data, c.ids), out / CORPUS)
    sizes = np.array([g.size for g in c.exact_groups], dtype=np.int64)
    np.savez(out / TRUTH, group_flat=np.concatenate(c.exact_groups),
             group_offsets=np.r_[0, np.cumsum(sizes)])
    return {"env": environment(args.seed), "input_bytes": (out / CORPUS).stat().st_size}


def cmd_check(args) -> dict:
    w = WORKLOADS[args.workload]
    d = Path(args.dir)
    passes = [d / f"pass{i}" for i in range(args.passes)]
    return check_run(w, d / CORPUS, d / TRUTH, passes, args.seed)


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def cmd_trace(args) -> dict:
    w = WORKLOADS[args.workload]
    d = Path(args.dir)
    cli = json.loads(Path(args.cli).read_text(encoding="utf-8"))
    root = Path(__file__).resolve().parent.parent
    metrics, checks = traced_run(w, d / CORPUS, d / TRUTH, d / "traced", cli, _src_lines(root),
                                 Path(args.trace_out), f"{w.name}-seed{args.seed}")
    return {"metrics": metrics, "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("step", choices=["generate", "check", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--cli")
    parser.add_argument("--trace-out", dest="trace_out")
    args = parser.parse_args(argv)
    step = {"generate": cmd_generate, "check": cmd_check, "trace": cmd_trace}[args.step]
    print(json.dumps(step(args), default=lambda v: v.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
