"""Benchmark of the egorank CLI on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 30 --trace 0

The benchmark generates its inputs from the seed (perfbench/gen.py),
times untraced ``egorank`` CLI subprocesses for ``--seconds`` seconds and
checks every pass's outputs outside the timed region. With ``--trace 1``
it also runs one traced pass (perfbench/tracer.py) and reports per-layer
metrics instead of the end-to-end ones. The last line of standard output
is the result object; the line before it records the machine and the
workload shape. It exits non-zero without a result when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/egorank/cli.py", "tests/oracle.py")
DEADLINE_S = 170.0  # every run must exit within 180 s
CHECK_RESERVE_S = 25.0  # kept free after the timed loop for checks and the extra passes
SETUP_PROBES = 7  # at least this many set-up and reference probes per run
# The host's speed drifts by up to 2x over minutes, and process start and
# compute drift by different amounts. A reference probe (perfbench/
# reference.py, which no change to egorank can alter) runs after every pass
# and gives both: its start-up (interpreter and numpy import) and its
# compute. Times are rescaled by them to a machine on which they take
# START_S and COMPUTE_S.
START_S = 0.25
COMPUTE_S = 0.4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LIMITS = ("no system-wide tracing and no page-cache dropping are available: the embedding "
          "file is read warm from the page cache right after it is written, and per-layer "
          "times come from in-process wrappers around layer calls, not from kernel tracing")


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    steps: tuple[tuple[str, ...], ...]  # one CLI invocation per step, all in one output dir
    alternate: tuple[tuple[str, ...], ...] = ()  # another schedule that must give the same bytes


WORKLOADS = {
    # Criterion 7's shape: ~2000 docs, ~80 content words, 5000 x 50 embeddings.
    "envelope": Workload(
        gen.Shape(members=50, docs_per_member=40, ego_keys=(15,) + (1,) * 9,
                  content_vocab=80, content_tokens=(3, 7), zipf=False,
                  embed_words=5000, dim=50, flagged_docs=20, n_it=10),
        steps=(("run", "--workers", "1"),),
    ),
    # Realistic vocabulary: scoring dominates and buckets can run in parallel.
    "zipf": Workload(
        gen.Shape(members=20, docs_per_member=30, ego_keys=(1, 0) * 4 + (0, 0),
                  content_vocab=5000, content_tokens=(24, 24), zipf=True,
                  embed_words=5100, dim=50, flagged_docs=10, n_it=5),
        steps=(("run", "--workers", "2"),),
        alternate=(("run", "--workers", "1"),),
    ),
    # A pretrained-size vocabulary (50k words, ~75 MB) against a small corpus.
    "wide_embeddings": Workload(
        gen.Shape(members=20, docs_per_member=10, ego_keys=(3, 0) * 4 + (0, 0),
                  content_vocab=1000, content_tokens=(6, 10), zipf=False,
                  embed_words=50_000, dim=150, flagged_docs=4, n_it=3),
        steps=(("run",),),
    ),
    # The README's staged flow over many documents and few ego key docs.
    "staged": Workload(
        gen.Shape(members=30, docs_per_member=40, ego_keys=(1, 0) * 4 + (0, 0),
                  content_vocab=300, content_tokens=(6, 10), zipf=False,
                  embed_words=1000, dim=50, flagged_docs=20, n_it=5),
        steps=(("ingest",),)
        + tuple(("rank", "--bucket", "%s/%s" % b) for b in gen.BUCKETS)
        + (("targets", "--bucket", "all"),),
    ),
}

@dataclass
class Pass:
    label: str
    out: Path
    wall: float = 0.0
    peak_rss_mib: float = 0.0
    errors: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Launches CLI invocations in isolation and keeps the failure count."""

    def __init__(self, work: Path, truth: gen.Truth, deadline: float):
        self.work, self.truth, self.deadline = work, truth, deadline
        self.iso = work / "iso"
        for sub in ("cwd", "home", "tmp", "cache"):
            (self.iso / sub).mkdir(parents=True)
        for sub in ("runs", "logs", "spans"):
            (work / sub).mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), HOME=str(self.iso / "home"),
                        TMPDIR=str(self.iso / "tmp"), XDG_CACHE_HOME=str(self.iso / "cache"))
        # Like an installed package, the program imports from cached bytecode
        # (written under src/ by the first probe) instead of compiling each run.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0

    def snapshot(self, out: Path | None = None) -> tuple[dict, dict]:
        """Files a run must leave alone.

        That is the checkout (the program's sources, the tests, the
        benchmark) minus .git, bytecode caches and the benchmark's work
        dirs; and this run's work dir (the inputs, the program's cwd, HOME,
        TMPDIR and cache dirs, the other passes' outputs) minus the output
        dir ``out`` and the benchmark's own logs and spans.
        """
        own = (self.work / "logs", self.work / "spans") + ((out,) if out else ())
        return (checks.stat_tree(ROOT, skip=(".git", "__pycache__"), skip_paths=(HERE / ".work",)),
                checks.stat_tree(self.work, skip_paths=own))

    def launch(self, cmd: list[str]) -> tuple[int, float]:
        """Run one process to its end; returns (exit code, max RSS in MiB)."""
        logs = self.work / "logs"
        with (logs / "stdout.log").open("wb") as out, (logs / "stderr.log").open("wb") as log:
            proc = subprocess.Popen(cmd, cwd=self.iso / "cwd", env=self.env, stdout=out, stderr=log)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def probe(self, *args: str) -> float:
        """Wall seconds of one short invocation of the interpreter; its output is in stdout.log."""
        before = self.snapshot()
        started = time.perf_counter()
        code, _ = self.launch([sys.executable, *args])
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if code != 0 or self.snapshot() != before:
            self.failed += 1
            print(f"probe {args} exited with {code} or changed files it must leave alone",
                  file=sys.stderr)
        return elapsed

    def run_pass(self, steps, label: str, traced: bool = False) -> Pass:
        result = Pass(label, self.work / "runs" / label)
        before = self.snapshot(result.out)
        span_files = []
        started = time.perf_counter()
        for i, step in enumerate(steps):
            argv = [*step, "--config", str(self.truth.config), "--out-dir", str(result.out)]
            if traced:
                span_files.append(self.work / "spans" / f"{label}-{i}.json")
                cmd = [sys.executable, str(HERE / "tracer.py"), str(span_files[-1]), *argv]
            else:
                cmd = [sys.executable, "-m", "egorank.cli", *argv]
            code, rss = self.launch(cmd)
            result.peak_rss_mib = max(result.peak_rss_mib, rss)
            if code != 0:
                tail = (self.work / "logs" / "stderr.log").read_text(errors="replace")[-600:]
                result.errors.append(f"{label}: '{' '.join(step)}' exited with {code}: {tail}")
                break
        result.wall = time.perf_counter() - started
        after = self.snapshot(result.out)
        if after != before:
            changed = sorted(set(after[0].items()) ^ set(before[0].items())
                             | set(after[1].items()) ^ set(before[1].items()))
            result.errors.append(f"{label}: files outside the output dir changed: {changed[:5]}")
        result.spans = [json.loads(p.read_text(encoding="utf-8")) for p in span_files if p.is_file()]
        self.attempted += 1
        return result

    def settle(self, result: Pass) -> None:
        if result.errors:
            self.failed += 1
            print("\n".join(result.errors[:10]), file=sys.stderr)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def workload_shape(truth: gen.Truth) -> dict:
    work = truth.work(range(len(gen.BUCKETS)))
    return {
        "docs": len(truth.docs),
        "flagged_docs": sum(1 for d in truth.docs if d.bucket is None),
        "distinct_tokens": len({t for d in truth.docs for t in d.tokens}),
        "embedding": f"{truth.shape.embed_words} x {truth.shape.dim}",
        "members": len(truth.members),
        **work,
    }


def self_times(invocation: dict) -> list[tuple[dict, float]]:
    """Each span with its duration minus its children's, which ran on its thread."""
    child = [0.0] * len(invocation["spans"])
    for span in invocation["spans"]:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [(s, s["end"] - s["start"] - child[s["id"]]) for s in invocation["spans"]]


def per_layer(traced: Pass, truth: gen.Truth, run_s: float, runner: Runner) -> dict:
    missing = {t for inv in traced.spans for t in inv["missing"]}
    spans = [st for inv in traced.spans for st in self_times(inv)]

    def total(targets, key=None):
        if all(t in missing for t in targets):
            return None
        picked = [(s, t) for s, t in spans if s["name"] in targets]
        if key is None:
            return sum(t for _, t in picked)
        return sum(s.get("counts", {}).get(key, 0) for s, _ in picked)

    metrics = {name: (total(targets), "s") for name, targets in tracer.LAYER_TIMES.items()}
    metrics |= {name: (total(targets, key), "count")
                for name, (targets, key) in tracer.LAYER_COUNTS.items()}

    loads = [s for s, _ in spans if s["name"] == tracer.WORD_VECTORS]
    rows_parsed = [inv["rows_parsed"] for inv in traced.spans]
    rows_used = [inv["rows_used"] for inv in traced.spans]
    known = tracer.WORD_VECTORS not in missing and None not in rows_parsed
    parsed = sum(rows_parsed) if known else None
    used = sum(rows_used) if known else None
    metrics["simdex.load_rss_mib"] = (
        max((s.get("counts", {}).get("rss_growth_mib", 0.0) for s in loads), default=0.0)
        if tracer.WORD_VECTORS not in missing else None, "MiB")
    metrics["simdex.rows_parsed"] = (parsed, "count")
    metrics["simdex.rows_used"] = (used, "count")
    metrics["simdex.row_use_ratio"] = (used / parsed if parsed else None, "ratio")

    score_s = metrics["recommend.score_s"][0]
    scores = [[s for s in inv["spans"] if s["name"] == tracer.SCORE] for inv in traced.spans]
    wall = sum(max(s["end"] for s in inv) - min(s["start"] for s in inv) for inv in scores if inv)
    longest = max((s["end"] - s["start"] for inv in scores for s in inv), default=0.0)
    work = truth.work(range(len(gen.BUCKETS)))
    metrics["recommend.score_wall_s"] = (wall if score_s is not None else None, "s")
    metrics["recommend.concurrency"] = (score_s / wall if score_s and wall else None, "ratio")
    metrics["recommend.score_max_bucket_s"] = (longest if score_s is not None else None, "s")
    metrics["recommend.doc_pairs"] = (work["doc_pairs"], "count")
    metrics["recommend.word_pairs"] = (work["word_pairs"], "count")
    metrics["recommend.distinct_word_pairs"] = (work["distinct_word_pairs"], "count")
    metrics["recommend.word_pairs_per_s"] = (
        work["word_pairs"] / score_s if score_s else None, "1/s")
    metrics["trace.overhead_s"] = (traced.wall - run_s, "s")
    metrics["fail_rate"] = (runner.failed / runner.attempted, "ratio")
    return metrics


def run(args, work: Path, deadline: float) -> dict:
    workload = WORKLOADS[args.workload]
    truth = gen.generate(workload.shape, args.seed, work / "inputs")
    digest = checks.digest_tree(work / "inputs")
    runner = Runner(work, truth, deadline)
    # Probes alternate with the passes so all of them sample the same spells
    # of machine load. The first set-up probe also caches the bytecode.
    setup, start, compute = [], [], []

    def probes() -> None:
        setup.append(runner.probe("-m", "egorank.cli", "--version"))
        wall = runner.probe(str(HERE / "reference.py"))
        compute.append(float((work / "logs" / "stdout.log").read_text()))
        start.append(wall - compute[-1])

    probes()
    passes: list[Pass] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        if passes and time.monotonic() + passes[-1].wall + CHECK_RESERVE_S > deadline:
            break
        passes.append(runner.run_pass(workload.steps, f"pass-{len(passes)}"))
        probes()
    while len(setup) < SETUP_PROBES:
        probes()

    # The first clean pass is checked in full; every other pass must match
    # its bytes, and a pass that matches a wrong output is wrong too.
    extra = [runner.run_pass(workload.alternate, "alternate")] if workload.alternate else []
    traced = runner.run_pass(workload.steps, "traced", traced=True) if args.trace else None
    everything = passes + extra + ([traced] if traced else [])
    checked = [p for p in everything if not p.errors]
    expected, wrong = {}, []
    if checked:
        expected = checks.read_tree(checked[0].out)
        wrong = checks.check_reports(truth, checked[0].out, checks.load_oracle(ROOT),
                                     random.Random(args.seed))
    for p in everything:
        if not p.errors:
            p.errors = checks.compare_trees(expected, checks.read_tree(p.out), p.label) or wrong
        runner.settle(p)
        shutil.rmtree(p.out, ignore_errors=True)
    if checks.digest_tree(work / "inputs") != digest:
        runner.attempted += 1
        runner.failed += 1
        print("input files changed during the run", file=sys.stderr)

    run_s = statistics.median(p.wall for p in passes)
    if args.trace:
        metrics = per_layer(traced, truth, run_s, runner)
    else:
        # Pass i ran between probe rounds i and i + 1. Each of its invocations
        # paid about one set-up probe of start-up; the rest of it is compute.
        # Each share is rescaled by the matching half of the reference probe.
        def around(values: list[float], i: int) -> float:
            return (values[i] + values[i + 1]) / 2

        passes_rel = []
        for i, p in enumerate(passes):
            startup = len(workload.steps) * around(setup, i)
            passes_rel.append(startup * START_S / around(start, i)
                              + (p.wall - startup) * COMPUTE_S / around(compute, i))
        metrics = {
            "run_s": (statistics.median(passes_rel), "s"),
            "setup_s": (statistics.median(u * START_S / s for u, s in zip(setup, start)), "s"),
            "peak_rss_mib": (max(p.peak_rss_mib for p in passes), "MiB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "shape": workload_shape(truth),
        "samples": {"run_s": [round(p.wall, 4) for p in passes],
                    "setup_s": [round(s, 4) for s in setup],
                    "reference_start_s": [round(s, 4) for s in start],
                    "reference_compute_s": [round(s, 4) for s in compute]},
        "cannot_measure": LIMITS,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
