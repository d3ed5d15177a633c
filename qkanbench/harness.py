"""Measurement loop, set-up timing, environment record and result line.

One process, one BLAS thread, closed loop: each operation starts when the
previous one ends. With ``--trace 0`` no wrapper is installed and the result
carries the end-to-end metrics; with ``--trace 1`` operations alternate between
untraced and traced, so both halves see the same machine load, and the
result carries the per-layer metrics plus the tracing overhead (traced over
untraced ``op_s.p50``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .tracing import PER_LAYER, SpanRecorder, installed, layer_metrics, write_spans
from .workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "qkanbench" / "out"

# (metric name, unit) of the untraced run, reported on every workload. The
# gated timing is the fastest passing operation of a run: on a shared host the
# machine's speed drifts by tens of percent over minutes, which moves op_s.p50
# between runs several times more than it moves the minimum. op_s.p50 and
# op_s.p90 are still measured and written to the report.
END_TO_END = (("op_s.min", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


@dataclass
class OpRecord:
    seconds: float
    problems: list[str] = field(default_factory=list)
    iterations: int | None = None
    traced: bool = False


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="qkanbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _purge_qkan() -> None:
    for name in [n for n in sys.modules if n == "qkan" or n.startswith("qkan.")]:
        del sys.modules[name]


def timed_setup(workload: Workload, seed: int, workdir: Path):
    """Import qkan (and its CLI) afresh and generate the inputs, SETUP_REPEATS
    times; returns the last import, its cases and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_qkan()
        start = time.perf_counter()
        qkan = importlib.import_module("qkan")
        importlib.import_module("qkan.cli")
        cases = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return qkan, cases, statistics.median(times), times


def measure(workload: Workload, qkan, cases: list, seconds: float,
            recorder: SpanRecorder | None = None) -> list[OpRecord]:
    """Closed loop for `seconds` (at least one operation, two when traced); each operation is
    timed alone and then gated outside the timed interval. With a `recorder`,
    every second operation runs with the wrappers installed."""
    records: list[OpRecord] = []
    least = 1 if recorder is None else 2
    start = time.perf_counter()
    while len(records) < least or time.perf_counter() - start < seconds:
        case = cases[len(records) % len(cases)]
        traced = recorder is not None and len(records) % 2 == 1
        if traced:
            recorder.op = len(records)
        with installed(recorder) if traced else contextlib.nullcontext():
            began = time.perf_counter()
            try:
                out = workload.run(qkan, case)
            except Exception:  # a failing operation is counted, not fatal
                out = None
                problems = [traceback.format_exc(limit=4)]
            elapsed = time.perf_counter() - began
        if out is not None:
            try:
                problems = workload.check(qkan, case, out)
            except Exception:  # malformed output fails its operation
                problems = [traceback.format_exc(limit=4)]
        records.append(OpRecord(elapsed, problems, out.get("iterations") if out else None, traced))
    return records


def summarize(records: list[OpRecord]) -> dict:
    """End-to-end figures of a set of operations. Failed operations are left
    out of op_s.*, unless every operation failed."""
    ok = [r for r in records if not r.problems]
    times = [r.seconds for r in ok] or [r.seconds for r in records]
    summary = {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "fail_ratio": (len(records) - len(ok)) / len(records),
        "op_s.samples": len(ok),
        "op_s.min": min(times),
        "op_s.p50": statistics.median(times),
    }
    if len(ok) >= P90_MIN_SAMPLES:
        summary["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    trained = [r for r in ok if r.iterations]
    if trained:
        summary["train.iter_s.p50"] = statistics.median(r.seconds / r.iterations for r in trained)
        summary["train.iters_to_goal"] = statistics.median(r.iterations for r in trained)
    return summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qkan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "load": "one process, one BLAS thread, closed loop",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qkan" / "__init__.py").is_file():
        print(f"qkanbench: no qkan sources under {src}; run from a qkan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    qkan, cases, setup_s, setup_runs = timed_setup(workload, args.seed, OUT)
    if Path(qkan.__file__).resolve().parent != (src / "qkan").resolve():
        print(f"qkanbench: qkan was imported from {qkan.__file__}, not {src}", file=sys.stderr)
        return 2

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(ROOT),
        "setup_runs_s": setup_runs,
    }
    if args.trace:
        recorder = SpanRecorder()
        records = measure(workload, qkan, cases, args.seconds, recorder)
        plain = summarize([r for r in records if not r.traced])
        traced = summarize([r for r in records if r.traced])
        values = layer_metrics(recorder, sum(r.traced for r in records))
        values["trace.overhead_ratio"] = traced["op_s.p50"] / plain["op_s.p50"]
        metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}
        report["untraced"], report["traced"] = plain, traced
        write_spans(recorder, OUT / f"{stem}-spans.json.gz")
    else:
        records = measure(workload, qkan, cases, args.seconds)
        summary = summarize(records)
        values = {"op_s.min": summary["op_s.min"], "peak_rss_mb": peak_rss_mb(), "setup_s": setup_s}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        report["end_to_end"] = {**summary, "peak_rss_mb": values["peak_rss_mb"], "setup_s": setup_s}

    report["op_s.all"] = [[r.seconds, not r.problems, r.traced] for r in records]
    failed = sum(1 for r in records if r.problems)
    report["problems"] = [p for r in records for p in r.problems][:20]
    report["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for key in ("end_to_end", "untraced", "traced"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(f"report: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
