"""Smoke runs of the scripts under scripts/, in process and on small inputs,
so that a change of the API they call fails here rather than when they are
next run by hand."""

import importlib.util
import math
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(monkeypatch, capsys, name, *args):
    """The script's main() under `args`, as (return value, printed lines)."""
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    result = load(name).main()
    return result, capsys.readouterr().out.splitlines()


def test_resource_scaling_reconciles_every_small_row(monkeypatch, capsys):
    result, lines = run_main(monkeypatch, capsys, "resource_scaling",
                             "--degrees", "1", "2", "--layers", "1", "2")
    assert result is None
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("1", "1", "ok"), ("1", "2", "ok"), ("2", "1", "ok"), ("2", "2", "ok"),
    ]


def test_stateprep_sweep_keeps_admissible_rows_below_the_target(monkeypatch, capsys):
    result, lines = run_main(monkeypatch, capsys, "stateprep_sweep")
    assert result is None
    rows = [line.split() for line in lines[2:-1]]
    assert len(rows) == 4
    for eps_x, admissible, p, l2 in rows:
        assert 0.0 < float(p) <= 1.0 + 1e-12 and math.isfinite(float(l2))
        if admissible == "True":
            assert float(l2) < 0.1


def test_train_chebyshev_target_runs_two_iterations(monkeypatch, capsys):
    result, lines = run_main(monkeypatch, capsys, "train_chebyshev_target", "--iterations", "2")
    assert result is None
    assert lines[1].startswith("stopped after ")
    initial, final = (float(word) for word in lines[2].split() if word[0].isdigit())
    assert final <= initial


def test_compile_shapes_worker_times_one_row_of_each_table(monkeypatch):
    compile_shapes = load("compile_shapes")
    monkeypatch.setattr(compile_shapes, "SHAPES", [((2, 2, 1), 1)])
    monkeypatch.setattr(compile_shapes, "TRAINING", [((2, 2, 1), 1, 4)])
    monkeypatch.setattr(compile_shapes, "GRADIENT", [((2, 1), 1, 4)])
    out = compile_shapes.worker(reps=1, order=0)
    names = ["2-2-1 d=1", "2-2-1 d=1 train 4", "2-1 d=1 gradient 4"]
    assert sorted(out) == sorted(["qkan_dir", *names])
    for name in names:
        row = out[name]
        assert math.isfinite(row["min_s"]) and row["min_s"] > 0, name
        assert isinstance(row["leaves"], int) and row["leaves"] > 0, name
        assert row["diagonal"] and all(map(math.isfinite, sum(row["diagonal"], []))), name

