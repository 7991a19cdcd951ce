"""Settings shared by the benchmark's orchestrator, input generator and measuring process.

Nothing here imports numpy: the orchestrator and the thread pinning below must
run before numpy is first imported.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Generated inputs and span files; listed in the repository's .gitignore.
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

WORKLOADS = ("train-desk", "eval-short", "track-long", "gradcheck")

# One BLAS thread: on the 2-core reference machine the median train step is
# the same with 1 or 2 threads, but the 2-thread p90 is about 20% higher.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Input sizes per mode. The full sizes are the README defaults (32 train and
# 8 eval sequences of 40 frames on a 128 px canvas) plus one long sequence of
# 400 frames on a 512 px canvas standing in for a LaSOT-style video. Smoke
# mode shrinks every input so the benchmark's own tests run in seconds.
SIZES = {
    False: {"train_count": 32, "eval_count": 8, "frames": 40, "canvas": 128, "long_frames": 400, "long_canvas": 512},
    True: {"train_count": 4, "eval_count": 2, "frames": 8, "canvas": 128, "long_frames": 24, "long_canvas": 128},
}


def pin_threads():
    """Pin the BLAS thread count; call before numpy is imported."""
    os.environ.update(THREAD_ENV)


def import_vltrack():
    """Import vltrack from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "vltrack", "__init__.py")):
        raise SystemExit(f"perfbench: no vltrack sources under {SRC}")
    sys.path.insert(0, SRC)
    import vltrack

    if os.path.dirname(os.path.dirname(os.path.abspath(vltrack.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported vltrack from {vltrack.__file__}, not from {SRC}")
    return vltrack
