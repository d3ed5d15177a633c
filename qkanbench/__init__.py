"""Benchmark for qkan: three workloads, correctness gates and opt-in tracing.

Run from the root of a checkout::

    python3 qkanbench/run.py --workload train-fd --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` at the checkout root lists the workloads and metrics.
"""

# Thread-count variables of the BLAS builds numpy may load; the launcher pins
# each to 1 before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
