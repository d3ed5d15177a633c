"""Build plus exact diagonal time of the compile-rule shape table, parent against change.

    python scripts/compile_shapes.py --parent HEAD --rounds 5 --out shapes.json

Run from the root of a qkan checkout: that checkout, as it is on disk, is the
change. Both sides are exported under one temporary directory, as
``bench_pairs.py`` does. Each round starts one worker process
per side, parent first on even rounds and change first on odd ones, with
BLAS pinned to one thread. A worker times ``build_network`` plus
``extract_diagonal`` on every shape of ``SHAPES`` and
``SimulatedModel.outputs`` (one training loss, the model built before the
clock starts, the first layer's weights moved by a rounding-sized step per
repetition) on every row of ``TRAINING`` (seeded weights and inputs), the
same on every candidate network of one ``finite_diff_grad`` of the moved
weights on every row of ``GRADIENT``, and keeps the minimum of ``--reps``
repetitions. The JSON report gives, per row and side, the runs with their
median and quartiles, the leaf count of the output tree (of the first
chunk's at the widest register the model built, for a model row), the
rounds the change won, the largest entry difference between the two
sides' diagonals (model outputs, for a model row), and a verdict that the
spread of both sides decides: ``slower`` when the change's first quartile
lies above the parent's third, ``faster`` when the change's third quartile
lies below the parent's first, and ``within spread`` otherwise. The report
lists the slower rows under ``slower``.

Round r runs both sides with ``PYTHONHASHSEED=r`` and the rows in the
order of a shuffle seeded with r. Heap layout alone moves the time of a
sub-millisecond shape by up to about 15% between processes that run the
same code, so each round gets another layout, the same on both sides, and
the medians over rounds average that out.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import commit_header, run_worker, sides, spread  # noqa: E402

# (dims, degree): the shapes the compile rule is calibrated on
SHAPES = [
    ((2, 2, 2, 1), 3),
    ((2, 2, 2, 1), 2),
    ((4, 2, 2, 1), 3),
    ((1, 1, 1, 1), 4),
    ((2, 2, 1), 3),
    ((2, 2, 2, 1), 1),
    ((8, 4, 1), 2),
    ((4, 4, 1), 3),
    ((2, 2, 1), 1),
    ((2, 2, 1), 0),
]


# (dims, degree, samples): SimulatedModel.outputs, the training rows of the rule
TRAINING = [
    ((2, 2, 2, 1), 3, 4),
    ((2, 2, 2, 1), 3, 64),
    ((2, 2, 2, 1), 2, 4),
    ((2, 2, 2, 1), 2, 64),
    ((1, 1, 1, 1), 4, 4),
    ((1, 1, 1, 1), 4, 64),
    ((2, 2, 1), 3, 64),
    ((2, 2, 2), 3, 64),
    ((2, 2, 2), 3, 16),
    ((4, 2, 1), 3, 4),
    ((2, 2, 1), 3, 4),
]


# (dims, degree, samples): SimulatedModel.outputs on every candidate network
# of one finite_diff_grad (h = 1e-4): the train-fd shape and a two-layer one
GRADIENT = [
    ((2, 1), 3, 64),
    ((2, 2, 1), 3, 64),
]


def shape_name(
    dims: tuple[int, ...], degree: int, samples: int | None = None, read: str = "train"
) -> str:
    name = f"{'-'.join(map(str, dims))} d={degree}"
    return name if samples is None else f"{name} {read} {samples}"


ROWS = (
    [shape_name(dims, degree) for dims, degree in SHAPES]
    + [shape_name(*row) for row in TRAINING]
    + [shape_name(*row, "gradient") for row in GRADIENT]
)


def gradient_candidates(qkan, spec, xs) -> list:
    """The candidate networks that one ``finite_diff_grad`` of `spec` on the
    inputs `xs` reads, recorded by a stand-in model that returns zeros."""
    import numpy as np

    seen: list = []

    class Recorder:
        def outputs(self, specs):
            seen.extend(specs)
            return np.zeros((len(specs), xs.shape[0], spec.dims[-1]))

    data = qkan.Dataset(xs, np.zeros((xs.shape[0], spec.dims[-1])))
    qkan.finite_diff_grad(spec, data, 1e-4, model=Recorder())
    return seen


def worker(reps: int, order: int) -> dict:
    """Time every row with the qkan found on the path, in the order of a
    shuffle seeded with `order`; one JSON-able dict."""
    import numpy as np
    import qkan

    out: dict = {"qkan_dir": str(Path(qkan.__file__).resolve().parent)}
    rows = (
        [(dims, degree, None, None) for dims, degree in SHAPES]
        + [(*row, "train") for row in TRAINING]
        + [(*row, "gradient") for row in GRADIENT]
    )
    indices = list(range(len(rows)))
    random.Random(order).shuffle(indices)
    for index in indices:
        dims, degree, samples, read = rows[index]
        rng = np.random.default_rng([index, 11])
        spec = qkan.QkanSpec(tuple(
            qkan.LayerSpec(rng.uniform(-1.0, 1.0, (degree + 1, n_in, n_out)))
            for n_in, n_out in zip(dims, dims[1:])
        ))
        if samples is None:
            x = rng.uniform(-1.0, 1.0, dims[0])

            def output():
                return qkan.build_network(qkan.encode_diagonal_exact(x), spec).output

            def run():
                return qkan.extract_diagonal(output())
        else:
            model = qkan.SimulatedModel(spec, rng.uniform(-1.0, 1.0, (samples, dims[0])))
            # each repetition scales the first layer's weights by another
            # rounding-sized step, so a model that keeps the first layer's
            # output still rebuilds it, as for a step of a first-layer weight
            first = spec.layers[0].weights
            moved = [spec.with_layer_weights(0, first * (1.0 - rep * 2.0**-40)) for rep in range(reps)]
            # a gradient row reads every candidate of one gradient of the moved weights
            reads = itertools.cycle(
                [[s] for s in moved] if read == "train"
                else [gradient_candidates(qkan, s, model.xs) for s in moved]
            )

            def output():  # the widest register built, a gradient row's
                return model.assemblers[max(model.assemblers)][0].build([spec]).output

            def run():
                return model.outputs(next(reads)).reshape(-1)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            values = run()
            times.append(time.perf_counter() - start)
        built = output()
        out[shape_name(dims, degree, samples, read)] = {
            "min_s": min(times),
            "leaves": qkan.describe(built.op)["leaves"],
            "diagonal": [[v.real, v.imag] for v in values.astype(complex).tolist()],
        }
    return out


def summarize(rounds: list[dict]) -> dict:
    report = {}
    for name in ROWS:
        entry: dict = {}
        for side in ("parent", "change"):
            entry[side] = spread([r[side][name]["min_s"] for r in rounds])
            entry[side]["leaves"] = rounds[0][side][name]["leaves"]
        entry["change_wins"] = sum(
            r["change"][name]["min_s"] < r["parent"][name]["min_s"] for r in rounds
        )
        entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["max_deviation"] = max(
            abs(complex(*c) - complex(*p))
            for r in rounds
            for c, p in zip(r["change"][name]["diagonal"], r["parent"][name]["diagonal"])
        )
        entry["verdict"] = verdict(entry["parent"], entry["change"])
        report[name] = entry
    return report


def verdict(parent: dict, change: dict) -> str:
    """How the change's times compare with the parent's, from the quartiles
    of each side's rounds: only quartile ranges that do not overlap decide."""
    if change["q1"] > parent["q3"]:
        return "slower"
    if change["q3"] < parent["q1"]:
        return "faster"
    return "within spread"


def slower_rows(shapes: dict) -> list[str]:
    """The rows of a :func:`summarize` report whose verdict is ``slower``."""
    return [name for name, entry in shapes.items() if entry["verdict"] == "slower"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--reps", type=int, default=7, help="repetitions per shape and process")
    parser.add_argument("--out", type=Path, default=None, help="also write the JSON report here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--order", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.reps, args.order)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    report = {
        **commit_header(args.parent),
        "rounds": args.rounds,
        "reps": args.reps,
    }
    rounds = []
    with sides(report["parent"]["commit"]) as checkouts:
        for index in range(args.rounds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            flags = ["--worker", "--reps", str(args.reps), "--order", str(index)]
            rounds.append({
                side: run_worker(checkouts[side], Path(__file__).resolve(), flags,
                                 env={"PYTHONHASHSEED": str(index)})
                for side in order
            })
    report["shapes"] = summarize(rounds)
    report["slower"] = slower_rows(report["shapes"])
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
