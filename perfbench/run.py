"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see BENCHMARK.json for why each one is there):
  train-desk  sample_training_batch + train_step at the README defaults
  eval-short  pipeline.evaluate passes over the 8-sequence eval split
  track-long  track_sequence over one 400-frame sequence on a 512 px canvas
  gradcheck   docsbench.gradient_fidelity, what `vltrack grad-check` runs

The run generates the workload's inputs from the seed with vltrack.synthdata
in a child process (gen.py), then measures in a second, fresh process
(measure.py), so generator memory and time stay out of the figures. The
measuring process prints a report and, as its last line, one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. --smoke shrinks the
inputs and the model for the benchmark's own tests. Generated inputs are
deleted at exit; span files of traced runs stay in .perfbench-runs/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
import uuid

from common import BENCH_DIR, RUNS_DIR, SRC, THREAD_ENV, WORKLOADS

# Every run must end within 180 s; leave room to clean up.
DEADLINE_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and model, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "vltrack", "__init__.py")):
        print(f"perfbench: no vltrack sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_id = uuid.uuid4().hex[:12]
    work = os.path.join(RUNS_DIR, f"work-{args.workload}-seed{args.seed}-{run_id}")
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    smoke = ["--smoke"] if args.smoke else []
    common = ["--workload", args.workload, "--seed", str(args.seed), *smoke]
    try:
        os.makedirs(work)
        started = time.perf_counter()
        gen = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "gen.py"), *common, "--out", work],
            env=env, timeout=deadline - time.monotonic(),
        )
        if gen.returncode != 0:
            print(f"perfbench: input generation failed with exit code {gen.returncode}", file=sys.stderr)
            return 1
        generate_s = time.perf_counter() - started
        print(f"perfbench: generated {args.workload} inputs for seed {args.seed} in {generate_s:.3f} s", flush=True)
        measure = subprocess.run(
            [
                sys.executable, os.path.join(BENCH_DIR, "measure.py"), *common,
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", work,
                "--runs-dir", RUNS_DIR, "--run-id", run_id, "--generate-s", repr(generate_s),
            ],
            env=env, timeout=deadline - time.monotonic(),
        )
        return measure.returncode
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {os.path.basename(exc.cmd[1])} did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
