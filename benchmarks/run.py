"""Run one chunkrec benchmark workload.

    python3 benchmarks/run.py --workload {train,decode,stream} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. This launcher pins BLAS to one thread in
the environment of the worker process it starts (``bench.py``), points
``PYTHONPATH`` at the checkout's ``src/`` and relays the worker's output;
the last line printed is the JSON result. Without chunkrec sources next to
the benchmark it exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 170


def main(argv):
    if not (ROOT / "src" / "chunkrec" / "__init__.py").is_file():
        print(f"benchmark: no chunkrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "bench.py"), *argv],
                              env=env, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark: worker exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
