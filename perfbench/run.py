#!/usr/bin/env python3
"""Benchmark of the semdedup CLI on generated corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The corpus for NAME is generated from the
seed, then the workload's ``semdedup`` commands run one at a time, each in a
fresh child process with ``--threads 0``, timed from outside: wall clock,
plus CPU time and peak RSS from ``os.wait4``. With ``--trace 0`` passes of
the command sequence repeat until S seconds are used (at least two) and the
end-to-end metrics are medians over them. With ``--trace 1`` one pass runs
untraced, then an in-process traced run yields the per-layer metrics.
Outputs are checked every time. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; full records go to
``.bench_out/``.

This process imports only the standard library and stays small on purpose:
``wait4`` reports a child's peak RSS as at least the high-water RSS of the
process that started it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, INFORMATIONAL, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, command_argv  # noqa: E402

MIN_PASSES = 3
# Medians are taken over this many samples, those with the least CPU steal.
QUIET_SAMPLES = 3
NCPU = os.cpu_count() or 1
# Every child is killed at this point, so the run ends inside 180 s.
RUN_DEADLINE_S = 170.0
SETUP_CODE = "import sys, semdedup; semdedup.normalize_rows(semdedup.load_embeddings(sys.argv[1]))"


class Runner:
    """Starts children one at a time and measures each with wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        path = [str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(self, argv: list) -> dict:
        self.count += 1
        out_path = self.work / f"child{self.count}.out"
        err_path = self.work / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (for example by SIGTERM): end the child before leaving.
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out_path,
            "stderr_tail": err_path.read_text(errors="replace")[-2000:],
        }

    def worker(self, step: str, *args: str) -> dict:
        rec = self.run([sys.executable, "-m", "perfbench.worker", step, *args])
        if rec["rc"] != 0:
            raise RuntimeError(f"worker {step} failed (rc={rec['rc']}):\n{rec['stderr_tail']}")
        return json.loads(rec["stdout"].read_text().splitlines()[-1])


class Ledger:
    """Operations attempted and failed: commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def command(self, name: str, rec: dict) -> None:
        self.attempted += 1
        if rec["rc"] != 0:
            self.failures.append(f"command {name} exited {rec['rc']}: {rec['stderr_tail'][-300:]}")

    def checks(self, results: list) -> None:
        for r in results:
            self.attempted += 1
            if not r["ok"]:
                self.failures.append(f"check {r['name']}: {r['detail']}")


def steal_seconds():
    """CPU time the hypervisor gave to other guests so far (Linux), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def with_steal(fn):
    """Run fn(); return its result and the share of CPU time stolen meanwhile."""
    before = steal_seconds()
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    share = 0.0 if before is None else (steal_seconds() - before) / (wall * NCPU)
    return out, share


def quietest(samples: list) -> list:
    return sorted(samples, key=lambda s: s["steal_share"])[:QUIET_SAMPLES]


def run_pass(runner: Runner, ledger: Ledger, w, corpus: Path, out: Path) -> dict:
    records = {}
    for name in w.commands:
        argv = [sys.executable, "-m", "semdedup.cli", *command_argv(name, w, str(corpus), str(out))]
        records[name] = runner.run(argv)
        ledger.command(name, records[name])
    return records


def setup_probe(runner: Runner, corpus: Path) -> float:
    rec = runner.run([sys.executable, "-c", SETUP_CODE, str(corpus)])
    if rec["rc"] != 0:
        raise RuntimeError(f"set-up probe failed:\n{rec['stderr_tail']}")
    return rec["wall_s"]


def run_checks(runner: Runner, ledger: Ledger, w, seed: int, passes: int) -> dict:
    """Check the outputs in a child; a crashed checker is one failed operation."""
    try:
        report = runner.worker("check", "--workload", w.name, "--seed", str(seed),
                               "--dir", str(runner.work), "--passes", str(passes))
    except RuntimeError as exc:
        report = {"checks": [{"name": "output checks ran", "ok": False, "detail": str(exc)[-500:]}],
                  "keep_sha256": {}}
    ledger.checks(report["checks"])
    return report


def measure(args, w, runner: Runner, ledger: Ledger, record: dict) -> dict:
    """Alternate set-up probes and command passes for ``args.seconds``.

    At least MIN_PASSES passes run, unless they would take more than 1.5 x
    ``args.seconds``; then at least two. Times are medians over the
    QUIET_SAMPLES probes and passes during which other guests of the host
    stole the least CPU time; every sample is kept in the record.
    """
    corpus = runner.work / "corpus.semd"

    def probe() -> dict:
        wall, share = with_steal(lambda: setup_probe(runner, corpus))
        return {"wall_s": wall, "steal_share": share}

    setups = [probe()]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        setups.append(probe())
        out = runner.work / f"pass{len(passes)}"
        records, share = with_steal(lambda: run_pass(runner, ledger, w, corpus, out))
        passes.append({"walls": {n: records[n]["wall_s"] for n in w.commands},
                       "maxrss_kb": max(r["maxrss_kb"] for r in records.values()),
                       "steal_share": share})
        took = time.monotonic() - t
        spent = time.monotonic() - start
        if time.monotonic() + 2 * took > runner.deadline - 20:
            break
        if spent + took <= args.seconds:
            continue
        if len(passes) >= MIN_PASSES or (len(passes) >= 2 and spent + took > 1.5 * args.seconds):
            break

    report = run_checks(runner, ledger, w, args.seed, len(passes))
    quiet = quietest(passes)

    def median_wall(name: str) -> float:
        return statistics.median(p["walls"][name] for p in quiet)

    metrics = {
        "setup_s": statistics.median(s["wall_s"] for s in quietest(setups)),
        "cluster_s": median_wall("cluster"),
        "dedup_s": median_wall("dedup"),
        "pipeline_s": statistics.median(sum(p["walls"].values()) for p in quiet),
        "peak_rss_ratio": max(p["maxrss_kb"] for p in passes) * 1024 / record["input_bytes"],
    }
    record.update({
        "setup_samples": setups,
        "pass_samples": passes,
        "keep_sha256": report["keep_sha256"],
        "checks": report["checks"],
    })
    # Informational figures that are not bounded metrics (see README.md).
    extra = {f"{name}_s": median_wall(name)
             for name in ("tune_dedup", "sweep", "stats") if name in w.commands}
    if "target_miss" in report:
        extra["target_miss"] = report["target_miss"]
    record["extra"] = extra
    return metrics


def measure_traced(args, w, runner: Runner, ledger: Ledger, record: dict) -> dict:
    """One untraced pass for the cli.* figures, then the in-process traced run."""
    corpus = runner.work / "corpus.semd"
    setup_s = setup_probe(runner, corpus)
    records = run_pass(runner, ledger, w, corpus, runner.work / "pass0")
    report = run_checks(runner, ledger, w, args.seed, 1)
    cli = {name: {k: records[name][k] for k in ("wall_s", "cpu_s", "maxrss_kb")}
           for name in ("cluster", "dedup")}
    cli["setup_s"] = setup_s
    cli_path = runner.work / "cli.json"
    cli_path.write_text(json.dumps(cli))
    out = ROOT / ".bench_out"
    trace_out = out / f"{w.name}-seed{args.seed}-spans.jsonl"
    traced = runner.worker("trace", "--workload", w.name, "--seed", str(args.seed),
                           "--dir", str(runner.work), "--cli", str(cli_path),
                           "--trace-out", str(trace_out))
    ledger.checks(traced["checks"])
    record.update({"keep_sha256": report["keep_sha256"], "checks": report["checks"] + traced["checks"],
                   "spans": str(trace_out.relative_to(ROOT))})
    return traced["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semdedup" / "__init__.py").is_file():
        print(f"error: no semdedup sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_run" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    runner = Runner(work, deadline)
    ledger = Ledger()
    try:
        gen = runner.worker("generate", "--workload", w.name, "--seed", str(args.seed),
                            "--dir", str(work))
        record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": gen["env"], "input_bytes": gen["input_bytes"]}
        steal_before = steal_seconds()
        if args.trace:
            metrics = measure_traced(args, w, runner, ledger, record)
        else:
            metrics = measure(args, w, runner, ledger, record)
        if steal_before is not None:
            record["steal_s"] = steal_seconds() - steal_before
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ledger.failures)
    record.update({"attempted": ledger.attempted, "failed": failed, "failures": ledger.failures,
                   "metrics": metrics})
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=2, default=str) + "\n")

    units = {**END_TO_END, **INFORMATIONAL, **PER_LAYER}
    missing = set(PER_LAYER if args.trace else END_TO_END) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"workload {w.name}  seed {args.seed}  env {json.dumps(record['env'])}"
          f"  steal_s {record.get('steal_s')}")
    for key, value in {**metrics, **record.get("extra", {})}.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    print(f"  {'failed_frac':40s} {failed / ledger.attempted:14.6g} {units['failed_frac']}"
          f"  ({failed} of {ledger.attempted} operations)")
    for line in ledger.failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
