"""The worker launcher that scripts/compare_reports.py and
scripts/compile_shapes.py share, run on a stand-in checkout."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# a worker that reports the qkan directory it was told to, and its environment
WORKER = """
import json, os, sys
print("some progress output")
print(json.dumps({"qkan_dir": sys.argv[1], "argv": sys.argv[2:],
                  "pythonpath": os.environ["PYTHONPATH"],
                  "blas": os.environ["OPENBLAS_NUM_THREADS"],
                  "hashseed": os.environ.get("PYTHONHASHSEED")}))
sys.exit(int(os.environ.get("WORKER_EXIT", "0")))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "src" / "qkan").mkdir(parents=True)
    (tmp_path / "worker.py").write_text(WORKER)
    return tmp_path


def test_worker_runs_against_its_checkout(bench_pairs, checkout):
    own = str(checkout / "src" / "qkan")
    result = bench_pairs.run_worker(checkout, checkout / "worker.py", [own, "--flag"],
                                    env={"PYTHONHASHSEED": "3"})
    assert result == {"argv": ["--flag"], "pythonpath": str(checkout / "src"),
                      "blas": "1", "hashseed": "3"}


def test_worker_that_imported_another_qkan_raises(bench_pairs, checkout, tmp_path_factory):
    other = tmp_path_factory.mktemp("other") / "src" / "qkan"
    with pytest.raises(RuntimeError, match="imported another qkan"):
        bench_pairs.run_worker(checkout, checkout / "worker.py", [str(other)])


def test_failed_worker_raises_with_its_exit_code(bench_pairs, checkout):
    own = str(checkout / "src" / "qkan")
    with pytest.raises(RuntimeError, match="exited 2"):
        bench_pairs.run_worker(checkout, checkout / "worker.py", [own], env={"WORKER_EXIT": "2"})
