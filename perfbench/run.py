"""Benchmark entry point for aspectsent.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. Each run starts a fresh child process
(worker.py) with the BLAS thread count pinned, so its peak memory and its
threads belong to that run alone. The child's result, one JSON object, is
the last line printed. Without the program's sources next to this
directory, or when the run fails, nothing is printed on standard output
and the exit status is not 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # at or below nproc; one thread keeps timings steady on a shared host
CHILD_TIMEOUT_S = 170


def main(argv) -> int:
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "aspectsent" / "__init__.py").is_file():
        print(f"error: no aspectsent sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({name: THREADS for name in THREAD_VARS})
    command = [sys.executable, str(root / "perfbench" / "worker.py"), *argv]
    try:
        child = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: run took longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: run failed with status {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
