"""The benchmark's traced run and checks call ``semdedup`` by name and keyword.

``perfbench`` imports the library from ``src/`` and does not change with it,
so a renamed function, keyword or module attribute would otherwise show only
in a benchmark run. Every call those files make to a ``semdedup`` function is
bound here against the function's signature, and every attribute they read
from a ``semdedup`` module is looked up.
"""

import ast
import inspect
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import perfbench.checks  # noqa: E402
import perfbench.tracing  # noqa: E402
import perfbench.worker  # noqa: E402

BENCH_MODULES = (perfbench.checks, perfbench.tracing, perfbench.worker)
MISSING = object()


def _in_library(obj) -> bool:
    name = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", None)
    return (name or "").split(".")[0] == "semdedup"


def _library_uses(module):
    """(where, callee or MISSING, node) for each call to or attribute of ``semdedup``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        ref = node.func if isinstance(node, ast.Call) else node
        if isinstance(ref, ast.Name) and isinstance(node, ast.Call):
            target = getattr(module, ref.id, None)
        elif isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
            owner = getattr(module, ref.value.id, None)
            if not _in_library(owner):
                continue
            target = getattr(owner, ref.attr, MISSING)
        else:
            continue
        if target is MISSING or _in_library(target):
            yield f"{Path(module.__file__).name}:{node.lineno} {ast.unparse(ref)}", target, node


def test_benchmark_names_exist_in_library():
    for module in BENCH_MODULES:
        for where, target, _ in _library_uses(module):
            assert target is not MISSING, f"{where}: not in semdedup"


def test_benchmark_calls_bind_to_library_signatures():
    bound = set()
    for module in BENCH_MODULES:
        for where, target, node in _library_uses(module):
            if not isinstance(node, ast.Call) or target is MISSING:
                continue
            unpacked = any(isinstance(a, ast.Starred) for a in node.args)
            if unpacked or any(k.arg is None for k in node.keywords):
                continue
            try:
                inspect.signature(target).bind(*[None] * len(node.args),
                                               **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            bound.add(ast.unparse(node.func))
    # The traced run's whole pipeline is among the calls bound.
    assert {"fit", "dedup_dataset", "tune_epsilon", "size_curve", "similarity_histogram",
            "duplicate_incidence", "dedup_efficiency", "order_cluster", "DedupConfig"} <= bound
