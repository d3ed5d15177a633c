"""Alternating parent/change pairs of the qkan benchmark, summarised as JSON.

    python scripts/bench_pairs.py --parent HEAD --seeds 4001 4002 4003 --out BENCH.json

Run from the root of a qkan checkout: that checkout, as it is on disk, is the
change. The parent revision (``git archive``) and the change (the checkout's
tracked files and the untracked ones git does not ignore, as they are on
disk) are copied side by side under one temporary directory, so both sides
run from the same filesystem and an interrupted run leaves nothing behind in
the repository. For every seed, each workload (all of them, or those given with
``--workloads``) runs ``qkanbench/run.py --trace 0`` once per side for the
benchmark's ``run_seconds``, parent first on even seed positions and change
first on odd ones, one process at a time. The report holds the commits and seeds and, for each
workload and each end-to-end metric of ``BENCHMARK.json``, every run and the
median and quartiles of each side, plus the pairs the change won (lower is
better for every metric; ties count for neither side). Each run also records
the minor page faults of its process (``getrusage`` of the child), in total
and per attempted operation, with their spread per side: a workload whose
time follows the heap layout shows it there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from qkanbench import BLAS_THREAD_VARS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def commit_header(parent: str) -> dict:
    """The `parent` and `change` entries of a report: the commit of the
    revision `parent`, and HEAD's with whether `src` has uncommitted changes."""
    return {
        "parent": {"commit": git("rev-parse", parent)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain", "--", "src"))},
    }


def export(rev: str, dest: Path, repo: Path = ROOT) -> None:
    """The tree of `rev` in the repository `repo`, under `dest`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=repo, check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path, repo: Path = ROOT) -> None:
    """The files of the checkout `repo` as they are on disk, under `dest`:
    the tracked ones, modified or not, and the untracked ones that git does
    not ignore. A tracked file deleted from the disk is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=repo, check=True, capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = repo / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


@contextmanager
def sides(parent: str, repo: Path = ROOT) -> Iterator[dict[str, Path]]:
    """The revision `parent` and the checkout `repo` as it is on disk,
    exported as ``parent/`` and ``change/`` under one temporary directory,
    which is removed on exit."""
    with tempfile.TemporaryDirectory(prefix="qkan-pairs-") as tmp:
        paths = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, paths["parent"], repo)
        export_worktree(paths["change"], repo)
        yield paths


def run_worker(checkout: Path, script: Path, args: list[str],
               env: dict[str, str] | None = None) -> dict:
    """Run `script` with `args` from the checkout `checkout`, with that
    checkout's ``src`` as PYTHONPATH, BLAS on one thread and `env` on top,
    and parse the last line it prints as JSON. That line names the ``qkan``
    directory the worker imported as ``qkan_dir``; it is removed from the
    result, and a worker that imported another qkan, or exits non-zero,
    raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **(env or {}))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=checkout, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result.pop("qkan_dir")) != (checkout / "src" / "qkan").resolve():
        raise RuntimeError(f"worker in {checkout} imported another qkan")
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark process; its result line, report environment and
    minor page faults, in total and per attempted operation (set-up included)."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "qkanbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report_line = next(line for line in lines if line.startswith("report: "))
    report = json.loads(Path(report_line[len("report: "):]).read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "source_sha256": report["environment"]["source_sha256"],
        "minor_faults": faults,
        "faults_per_op": faults / max(result["attempted"], 1),
    }


def spread(values: list[float]) -> dict:
    padded = values * 2 if len(values) < 2 else values  # one pair: quartiles equal the median
    q1, median, q3 = statistics.quantiles(padded, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarize(pairs: list[dict[str, dict]], metrics: list[str]) -> dict:
    out: dict = {"pairs": len(pairs)}
    for side in ("parent", "change"):
        out[side] = {name: spread([p[side]["metrics"][name] for p in pairs]) for name in metrics}
        out[side]["attempted"] = sum(p[side]["attempted"] for p in pairs)
        out[side]["failed"] = sum(p[side]["failed"] for p in pairs)
        for name in ("minor_faults", "faults_per_op"):
            out[side][name] = spread([p[side][name] for p in pairs])
    out["change_wins"] = {
        name: sum(p["change"]["metrics"][name] < p["parent"]["metrics"][name] for p in pairs)
        for name in metrics
    }
    out["first"] = [p["first"] for p in pairs]
    return out


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, required=True, help="JSON report path")
    args = parser.parse_args(argv)
    metrics = [m["name"] for m in bench["end_to_end"]]

    report = {
        **commit_header(args.parent),
        "seeds": args.seeds,
        "seconds": bench["run_seconds"],
        "command": bench["command"],
        "workloads": {},
    }
    pairs: dict[str, list] = {name: [] for name in args.workloads}
    with sides(report["parent"]["commit"]) as checkouts:
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, bench["run_seconds"])
                pairs[workload].append(pair)
                print(workload, seed, " ".join(
                    f"{side}:{pair[side]['metrics']['op_s.min']:.4f}" for side in order
                ), flush=True)
    for side in ("parent", "change"):
        report[side]["source_sha256"] = pairs[args.workloads[0]][0][side]["source_sha256"]
    report["workloads"] = {name: summarize(runs, metrics) for name, runs in pairs.items()}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
