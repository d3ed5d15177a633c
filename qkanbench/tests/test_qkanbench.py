"""Tests of the benchmark's own code: names, span arithmetic, gates, tree walker.

Run with ``python -m pytest qkanbench/tests -q`` from the checkout root.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qkan
import qkan.cli  # noqa: F401  (the tracer wraps cli.main)
from qkanbench import oracle
from qkanbench.harness import END_TO_END
from qkanbench.optree import TreeStats, tree_stats
from qkanbench.tracing import PER_LAYER, SpanRecorder, installed, layer_metrics, self_times
from qkanbench.workloads import (
    WORKLOADS,
    WideCase,
    check_eval_report,
    deep_check,
    deep_run,
    deep_setup,
    train_check,
    train_model,
    train_setup,
    wide_check,
    wide_run,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_are_well_formed_and_unique():
    names = list(WORKLOADS) + [n for n, _ in END_TO_END] + [n for n, _ in PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(u) for _, u in END_TO_END + PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        ["root", -1, 0.0, 10.0, 0],
        ["a", 0, 1.0, 4.0, 0],
        ["c", 1, 2.0, 3.0, 0],
        ["b", 0, 5.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        ["root", -1, 0.0, 10.0, 0],
        ["a", 0, 2.0, 6.0, 0],
        ["b", 0, 4.0, 8.0, 0],  # overlaps a on [4, 6]
        ["c", 0, 9.0, 12.0, 0],  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_on_a_synthetic_trace():
    rec = SpanRecorder()
    rec.spans = [
        ["trainer.loss", -1, 0.0, 4.0, 0],
        ["network.assemble", 0, 1.0, 2.0, 0],
        ["trainer.loss", -1, 5.0, 6.0, 1],
    ]
    m = layer_metrics(rec, n_ops=2)
    assert m["trainer.loss.calls"] == 1.0
    assert m["trainer.loss.self_s"] == pytest.approx((3.0 + 1.0) / 2)
    assert m["network.assemble.calls"] == 0.5
    assert m["operators.tree.leaves"] == 0
    assert set(m) == {n for n, _ in PER_LAYER} - {"trace.overhead_ratio"}


def _tiny_wide_case(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=4)
    weights = rng.uniform(-1, 1, size=(3, 4, 2))
    return WideCase(x, weights, oracle.layer(x, weights))


def test_wide_gate_passes_the_program_and_rejects_a_corrupted_array():
    case = _tiny_wide_case()
    out = wide_run(qkan, case)
    assert wide_check(qkan, case, out) == []
    for key in ("diagonal", "amplitudes"):
        bad = dict(out)
        bad[key] = out[key].copy()
        bad[key][1] += 1e-6
        assert wide_check(qkan, case, bad), key
    assert wide_check(qkan, case, {**out, "built_ancillas": out["built_ancillas"] + 1})


def test_train_gate_rejects_a_corrupted_loss_trajectory():
    case = train_setup(seed=7, workdir=Path("."))[0]
    reference = train_model(qkan, case, "classical")
    out = {"losses": np.array(reference.losses), "weights": reference.spec.layers[0].weights}
    assert train_check(qkan, case, out) == []
    corrupted = out["losses"].copy()
    corrupted[1] += 1e-6
    assert train_check(qkan, case, {**out, "losses": corrupted})


def test_deep_cli_gate_passes_the_program_and_rejects_a_corrupted_output(tmp_path):
    case = deep_setup(seed=5, workdir=tmp_path)[0]
    out = deep_run(qkan, case)
    assert deep_check(qkan, case, out) == []
    results = json.loads(out["eval"][1])["results"]
    results["output"] = (np.asarray(results["output"]) + 1e-6).tolist()
    assert check_eval_report(case, results)
    assert deep_check(qkan, case, {**out, "resources": (1, "")})


def test_tree_walker_counts_repeated_subtrees_per_occurrence():
    leaf = qkan.Diagonal(np.ones(2))
    inner = qkan.operators.Composed((leaf, leaf))
    root = qkan.Embedded(inner, (1,), 2)
    top = qkan.operators.Composed((root, root))
    assert tree_stats(leaf) == TreeStats(1, 1, 0)
    assert tree_stats(top) == TreeStats(leaves=4, nodes=9, depth=3)


def test_tree_walker_pins_the_seed_baselines():
    """23 leaves for the N=2, K=1, d=3 layer (the ROADMAP baseline), and the
    deep-cli network tree at the seed commit; operator-tree fusion is
    expected to lower these."""
    layer = qkan.build_layer(
        qkan.encode_diagonal_exact(np.array([0.3, -0.2]), name="x"),
        qkan.LayerSpec.random(2, 1, 3, seed=1),
    )
    assert tree_stats(layer.op).leaves == 23
    spec = qkan.QkanSpec(tuple(qkan.LayerSpec.random(a, b, 3, seed=a + b) for a, b in ((2, 2), (2, 2), (2, 1))))
    net = qkan.build_network(qkan.encode_diagonal_exact(np.array([0.5, -0.7]), name="x"), spec)
    assert tree_stats(net.output.op) == TreeStats(leaves=947, nodes=3220, depth=20)


def test_tracing_wraps_every_binding_and_restores_it():
    original = qkan.chebyshev_be
    rec = SpanRecorder()
    with installed(rec):
        assert qkan.network.chebyshev_be is not original
        assert qkan.chebyshev_be is qkan.network.chebyshev_be
        wide_run(qkan, _tiny_wide_case())
    assert qkan.network.chebyshev_be is original and qkan.chebyshev.chebyshev_be is original
    names = {span[0] for span in rec.spans}
    assert {"chebyshev.chebyshev_be", "network.build_layer", "operators.apply", "encoders.encode"} <= names
    assert rec.final is not None and tree_stats(rec.final.op).leaves > 0


def test_run_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "qkanbench", tmp_path / "qkanbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "qkanbench/run.py", "--workload", "deep-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
