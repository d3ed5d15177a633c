"""Spans around qkan's public functions, for the traced benchmark run.

A wrapper is installed at every name under which a qkan module holds the
function (``from .x import f`` copies the binding into the importer), and on
the class for methods, so the package source is untouched. The untraced run
installs no wrapper. Spans stay in memory as ``[name, parent, start, end, op]``
and are written out when the run ends.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

from .optree import tree_stats

# (metric name, unit) of the traced run; "/op" values are per operation.
PER_LAYER = (
    ("trainer.loss.calls", "1/op"),
    ("trainer.loss.self_s", "s/op"),
    ("trainer.finite_diff_grad.s", "s/op"),
    ("trainer.model_setup.s", "s/op"),
    ("trainer.errors", "count"),
    ("network.assemble.calls", "1/op"),
    ("network.assemble.self_s", "s/op"),
    ("network.build_layer.s", "s/op"),
    ("network.build_network.s", "s/op"),
    ("network.errors", "count"),
    ("encoders.encode.calls", "1/op"),
    ("encoders.encode.s", "s/op"),
    ("encoders.encode.unique_ratio", "ratio"),
    ("encoders.errors", "count"),
    ("chebyshev.chebyshev_be.calls", "1/op"),
    ("chebyshev.chebyshev_be.s", "s/op"),
    ("chebyshev.errors", "count"),
    ("block_encoding.combinators.calls", "1/op"),
    ("block_encoding.combinators.s", "s/op"),
    ("block_encoding.extract_diagonal.s", "s/op"),
    ("block_encoding.extract_diagonal.columns", "1/op"),
    ("block_encoding.extract_diagonal.useful_ratio", "ratio"),
    ("block_encoding.errors", "count"),
    ("operators.apply.calls", "1/op"),
    ("operators.apply.s", "s/op"),
    ("operators.apply.columns", "1/op"),
    ("operators.tree.leaves", "count"),
    ("operators.tree.nodes", "count"),
    ("operators.tree.depth", "count"),
    ("operators.bytes_per_apply.computed", "B"),
    ("operators.errors", "count"),
    ("readout.estimate_all_outputs.s", "s/op"),
    ("readout.hadamard_test.calls", "1/op"),
    ("readout.prepare_state_postselect.s", "s/op"),
    ("readout.errors", "count"),
    ("resources.analytic_cost.s", "s/op"),
    ("resources.reconcile.s", "s/op"),
    ("resources.errors", "count"),
    ("cli.main.self_s", "s/op"),
    ("cli.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class SpanRecorder:
    """In-memory spans and counters of one traced run.

    Observers run after their span closes, so their cost lands in the parent
    span's self time; the overhead ratio of the run shows how much that is.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.counts: collections.Counter = collections.Counter()
        self.encoded: set[int] = set()
        self.errors: dict[str, list[Exception]] = collections.defaultdict(list)
        self.final = None  # last encoding returned by a network-layer call
        self._stack: list[int] = []
        self._trees: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not any(seen is exc for seen in self.errors[module]):
                    self.errors[module].append(exc)
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _observe_apply(rec: SpanRecorder, args, kwargs, result) -> None:
    op = args[0]
    columns = result.shape[1] if result.ndim == 2 else 1
    rec.counts["apply.columns"] += columns
    rec.counts["apply.bytes"] += tree_stats(op, rec._trees).leaves * op.dim * columns * 16


def _observe_encode(rec: SpanRecorder, args, kwargs, result) -> None:
    source = args[0] if args else next(iter(kwargs.values()))
    rec.encoded.add(hash(source.tobytes()) if hasattr(source, "tobytes") else id(source))


def _observe_extract(rec: SpanRecorder, args, kwargs, result) -> None:
    be = args[0] if args else kwargs["be"]
    rec.counts["extract.columns"] += be.system_dim
    rec.counts["extract.computed"] += be.system_dim * be.op.dim


def _observe_build(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.final = getattr(result, "output", result)  # NetworkBuild -> its output encoding


# (qkan module, attribute, span name, observer)
TARGETS = (
    ("trainer", "train", "trainer.train", None),
    ("trainer", "loss", "trainer.loss", None),
    ("trainer", "finite_diff_grad", "trainer.finite_diff_grad", None),
    ("trainer", "SimulatedModel.__init__", "trainer.model_setup", None),
    ("network", "LayerAssembler.assemble", "network.assemble", _observe_build),
    ("network", "build_layer", "network.build_layer", _observe_build),
    ("network", "build_network", "network.build_network", _observe_build),
    ("encoders", "encode_diagonal_exact", "encoders.encode", _observe_encode),
    ("encoders", "encode_from_stateprep", "encoders.encode", _observe_encode),
    ("encoders", "encode_real_weights", "encoders.encode", _observe_encode),
    ("chebyshev", "chebyshev_be", "chebyshev.chebyshev_be", None),
    ("block_encoding", "product", "block_encoding.combinators", None),
    ("block_encoding", "lcu", "block_encoding.combinators", None),
    ("block_encoding", "dilate", "block_encoding.combinators", None),
    ("block_encoding", "extract_diagonal", "block_encoding.extract_diagonal", _observe_extract),
    ("operators", "LinearOperator.apply", "operators.apply", _observe_apply),
    ("readout", "estimate_all_outputs", "readout.estimate_all_outputs", None),
    ("readout", "hadamard_test", "readout.hadamard_test", None),
    ("readout", "prepare_state_postselect", "readout.prepare_state_postselect", None),
    ("resources", "analytic_cost", "resources.analytic_cost", None),
    ("resources", "reconcile", "resources.reconcile", None),
    ("cli", "main", "cli.main", None),
)


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target at each name a loaded qkan module binds it to; restore on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n == "qkan" or n.startswith("qkan.")]
    patches = []  # (owner, attribute, original, wrapper)
    for module_name, attr, span, observe in TARGETS:
        home = sys.modules[f"qkan.{module_name}"]
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(home, class_name)
            original = owner.__dict__[method]
            patches.append((owner, method, original, recorder.wrap(span, original, observe)))
            continue
        original = getattr(home, attr)
        wrapper = recorder.wrap(span, original, observe)
        for module in modules:
            patches += [(module, n, v, wrapper) for n, v in vars(module).items() if v is original]
    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield recorder
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[1] >= 0:
            kids[span[1]].append(index)
    out = []
    for span, children in zip(spans, kids):
        start, end = span[2], span[3]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[k][2], spans[k][3]) for k in children):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(rec: SpanRecorder, n_ops: int) -> dict[str, float]:
    """Per-layer metrics of PER_LAYER (all but the overhead ratio) from a traced run."""
    selfs = self_times(rec.spans)
    calls: collections.Counter = collections.Counter()
    total: collections.Counter = collections.Counter()
    own: collections.Counter = collections.Counter()
    for span, self_s in zip(rec.spans, selfs):
        name, parent = span[0], span[1]
        own[name] += self_s
        if parent < 0 or rec.spans[parent][0] != name:  # outermost of its name
            calls[name] += 1
            total[name] += span[3] - span[2]
    ops = max(n_ops, 1)
    m = {
        "trainer.loss.calls": calls["trainer.loss"] / ops,
        "trainer.loss.self_s": own["trainer.loss"] / ops,
        "trainer.finite_diff_grad.s": total["trainer.finite_diff_grad"] / ops,
        "trainer.model_setup.s": total["trainer.model_setup"] / ops,
        "network.assemble.calls": calls["network.assemble"] / ops,
        "network.assemble.self_s": own["network.assemble"] / ops,
        "network.build_layer.s": total["network.build_layer"] / ops,
        "network.build_network.s": total["network.build_network"] / ops,
        "encoders.encode.calls": calls["encoders.encode"] / ops,
        "encoders.encode.s": total["encoders.encode"] / ops,
        "encoders.encode.unique_ratio": _ratio(len(rec.encoded), calls["encoders.encode"]),
        "chebyshev.chebyshev_be.calls": calls["chebyshev.chebyshev_be"] / ops,
        "chebyshev.chebyshev_be.s": total["chebyshev.chebyshev_be"] / ops,
        "block_encoding.combinators.calls": calls["block_encoding.combinators"] / ops,
        "block_encoding.combinators.s": total["block_encoding.combinators"] / ops,
        "block_encoding.extract_diagonal.s": total["block_encoding.extract_diagonal"] / ops,
        "block_encoding.extract_diagonal.columns": rec.counts["extract.columns"] / ops,
        "block_encoding.extract_diagonal.useful_ratio": _ratio(
            rec.counts["extract.columns"], rec.counts["extract.computed"]
        ),
        "operators.apply.calls": calls["operators.apply"] / ops,
        "operators.apply.s": total["operators.apply"] / ops,
        "operators.apply.columns": rec.counts["apply.columns"] / ops,
        "operators.bytes_per_apply.computed": _ratio(rec.counts["apply.bytes"], calls["operators.apply"]),
        "readout.estimate_all_outputs.s": total["readout.estimate_all_outputs"] / ops,
        "readout.hadamard_test.calls": calls["readout.hadamard_test"] / ops,
        "readout.prepare_state_postselect.s": total["readout.prepare_state_postselect"] / ops,
        "resources.analytic_cost.s": total["resources.analytic_cost"] / ops,
        "resources.reconcile.s": total["resources.reconcile"] / ops,
        "cli.main.self_s": own["cli.main"] / ops,
    }
    tree = tree_stats(rec.final.op) if rec.final is not None else None
    m["operators.tree.leaves"] = tree.leaves if tree else 0
    m["operators.tree.nodes"] = tree.nodes if tree else 0
    m["operators.tree.depth"] = tree.depth if tree else 0
    for module in ("trainer", "network", "encoders", "chebyshev", "block_encoding",
                   "operators", "readout", "resources", "cli"):
        m[f"{module}.errors"] = len(rec.errors.get(module, ()))
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(rec: SpanRecorder, path: Path) -> None:
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "op"], "spans": rec.spans}, fh)
