"""Launcher: ``python3 qkanbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a qkan checkout. Pins BLAS to one thread before numpy
loads, then hands over to :mod:`qkanbench.harness`. The last line of standard
output is the JSON result.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from qkanbench import BLAS_THREAD_VARS  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from qkanbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
