"""Summary statistics of scripts/bench_pairs.py on synthetic pairs, and its
export of both sides; no benchmark run is started."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(op_s, rss, attempted=10, failed=0, faults=0):
    return {"metrics": {"op_s.min": op_s, "peak_rss_mb": rss},
            "attempted": attempted, "failed": failed,
            "minor_faults": faults, "faults_per_op": faults / attempted}


def test_spread_of_one_pair_is_its_value(bench_pairs):
    assert bench_pairs.spread([0.5]) == {
        "median": 0.5, "q1": 0.5, "q3": 0.5, "iqr": 0.0, "runs": [0.5],
    }


def test_spread_quartiles_are_inclusive(bench_pairs):
    out = bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (out["q1"], out["median"], out["q3"], out["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert out["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]  # in run order


def test_summarize_counts_strict_wins_only(bench_pairs):
    pairs = [
        {"first": "parent", "parent": side(0.30, 50.0), "change": side(0.20, 50.0)},  # win, tie
        {"first": "change", "parent": side(0.30, 49.0), "change": side(0.40, 48.0, failed=1)},
        {"first": "parent", "parent": side(0.25, 51.0, attempted=12), "change": side(0.25, 52.0)},
    ]
    out = bench_pairs.summarize(pairs, ["op_s.min", "peak_rss_mb"])
    assert out["pairs"] == 3
    assert out["change_wins"] == {"op_s.min": 1, "peak_rss_mb": 1}  # ties count for neither
    assert out["parent"]["op_s.min"]["median"] == 0.30
    assert out["change"]["op_s.min"]["median"] == 0.25
    assert out["change"]["peak_rss_mb"]["runs"] == [50.0, 48.0, 52.0]
    assert (out["parent"]["attempted"], out["parent"]["failed"]) == (32, 0)
    assert (out["change"]["attempted"], out["change"]["failed"]) == (30, 1)
    assert out["first"] == ["parent", "change", "parent"]


def test_summarize_gives_the_spread_of_page_faults_per_side(bench_pairs):
    pairs = [
        {"first": "parent", "parent": side(0.3, 50.0, faults=1640), "change": side(0.3, 50.0, faults=30)},
        {"first": "change", "parent": side(0.3, 50.0, faults=40), "change": side(0.3, 50.0, faults=50)},
    ]
    out = bench_pairs.summarize(pairs, ["op_s.min"])
    assert out["parent"]["minor_faults"]["runs"] == [1640, 40]
    assert out["parent"]["faults_per_op"]["runs"] == [164.0, 4.0]
    assert out["change"]["faults_per_op"]["median"] == 4.0
    assert "minor_faults" not in out["change_wins"]  # recorded, not a metric


def test_run_once_records_the_child_page_faults(bench_pairs, tmp_path):
    """The minor faults of a stand-in benchmark process (its interpreter's
    start-up alone makes some) are recorded, in total and per attempted
    operation."""
    (tmp_path / "qkanbench").mkdir()
    (tmp_path / "qkanbench" / "run.py").write_text(
        "import json, pathlib\n"
        "report = pathlib.Path('report.json')\n"
        "report.write_text(json.dumps({'environment': {'source_sha256': 'abc'}}))\n"
        "print('report: ' + str(report.resolve()))\n"
        "print(json.dumps({'metrics': {'op_s.min': {'value': 0.5}}, "
        "'attempted': 4, 'failed': 0}))\n"
    )
    out = bench_pairs.run_once(tmp_path, "any", 1, 0.1)
    assert out["metrics"] == {"op_s.min": 0.5} and out["attempted"] == 4
    assert out["minor_faults"] > 0
    assert out["faults_per_op"] == out["minor_faults"] / 4


def test_compile_shapes_summary_counts_wins_and_the_largest_deviation():
    script = SCRIPT.with_name("compile_shapes.py")
    spec = importlib.util.spec_from_file_location("compile_shapes", script)
    compile_shapes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compile_shapes)

    def worker_result(scale, diagonal):
        return {
            name: {"min_s": scale * (index + 1), "leaves": 3, "diagonal": diagonal}
            for index, name in enumerate(compile_shapes.ROWS)
        }

    rounds = [
        {"parent": worker_result(1.0, [[0.5, 0.0]]), "change": worker_result(0.5, [[0.5, 1e-16]])},
        {"parent": worker_result(1.0, [[0.5, 0.0]]), "change": worker_result(2.0, [[0.5 + 3e-16, 0.0]])},
        {"parent": worker_result(1.0, [[0.5, 0.0]]), "change": worker_result(1.0, [[0.5, 0.0]])},
    ]
    report = compile_shapes.summarize(rounds)
    assert list(report) == compile_shapes.ROWS
    assert len(report) == (len(compile_shapes.SHAPES) + len(compile_shapes.TRAINING)
                           + len(compile_shapes.GRADIENT))
    first = report[compile_shapes.shape_name(*compile_shapes.SHAPES[0])]
    assert first["change_wins"] == 1  # ties count for neither side
    assert first["parent"]["runs"] == [1.0, 1.0, 1.0] and first["change"]["median"] == 1.0
    assert first["median_ratio"] == 1.0 and first["change"]["leaves"] == 3
    assert first["max_deviation"] == pytest.approx(3e-16)


def test_both_sides_are_exported_under_one_root(bench_pairs, tmp_path):
    """The parent revision and the checkout as it is on disk land side by
    side under one temporary root, which is removed afterwards."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=q", "-c", "user.email=q@example.com", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src").mkdir()
    (repo / "src" / "kept.py").write_text("parent\n")
    (repo / "gone.py").write_text("parent\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src" / "kept.py").write_text("change\n")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("change\n")
    (repo / "run.log").write_text("ignored\n")

    with bench_pairs.sides("HEAD", repo) as paths:
        parent, change = paths["parent"].resolve(), paths["change"].resolve()
        root = parent.parent
        assert change.parent == root and not root.is_relative_to(repo)
        assert (parent / "src" / "kept.py").read_text() == "parent\n"
        assert (parent / "gone.py").is_file() and not (parent / "new.py").exists()
        assert (change / "src" / "kept.py").read_text() == "change\n"
        assert (change / "new.py").is_file() and not (change / "gone.py").exists()
        assert not (change / "run.log").exists() and not (change / ".git").exists()
    assert not root.exists()
