"""Measuring process of the benchmark: set up one workload, time it, check its outputs, report.

run.py starts this process once the workload's inputs exist under ``--data``.
Every workload is a closed loop with one client on one thread: the next call
starts when the previous one has returned. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` the workload
runs for half the time untraced, then for half the time with spans around
the calls into every vltrack layer, and the last line carries the per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from common import ROOT, SRC, THREAD_ENV, WORKLOADS, import_vltrack, pin_threads

pin_threads()
import_vltrack()

import numpy as np  # noqa: E402  (imported after the BLAS threads are pinned)

import checks  # noqa: E402
from tracer import ROOT_SPAN, Tracer, layer_metrics, per_layer_metrics  # noqa: E402
from vltrack import checkpoint, docsbench, pipeline, synthdata  # noqa: E402
from vltrack.config import Config  # noqa: E402
from vltrack.errors import TrainingDiverged  # noqa: E402
from vltrack.model import TrackerModel  # noqa: E402
from vltrack.numcore import named_stream  # noqa: E402

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_per_s", "1/s"))
SETUP_REPEATS = 9
# train.step_ms_p90 needs at least 10 timed steps beyond the 90th percentile.
TRAIN_MIN_STEPS = 100
TRACK_WARMUP_FRAMES = 16
# Smoke mode: a model small enough that every workload runs in seconds.
SMOKE_CONFIG = {"dim": 16, "layers": 1, "heads": 2, "align_dim": 16, "head_channels": "8,8,8", "batch_size": 4}


class Clock:
    """Times the workload's measured call and, when tracing, opens its root span."""

    def __init__(self):
        self.tracer = None
        self.last = 0.0

    def __enter__(self):
        self._span = self.tracer.open(ROOT_SPAN) if self.tracer else None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.last = time.perf_counter() - self._start
        if self._span is not None:
            self.tracer.close(self._span)
        return False


class Workload:
    """One workload: inputs under ``data_dir``, a setup, and a timed call.

    ``op`` makes one timed call and returns (ops attempted, ops failed); one
    call is a train step, an evaluate pass, a tracking pass or a gradient
    check of every loss, and ``op_unit`` names what an op is.
    """

    op_unit = "ops"
    min_calls = 1

    def __init__(self, data_dir, seed, smoke):
        self.data_dir = data_dir
        self.seed = seed
        self.smoke = smoke
        self.cfg = Config(seed=seed, **(SMOKE_CONFIG if smoke else {}))
        self.vocab = pipeline.resolve_vocab(self.cfg)
        self.clock = Clock()
        self.ckpt_bytes = 0

    held = ()  # attributes setup builds

    def prepare(self):
        """Input preparation that belongs in the measuring process, outside setup_s."""

    def setup(self):
        raise NotImplementedError

    def release(self):
        """Drop what setup built, so repeated setups do not stack up memory."""
        self.__dict__.update({k: None for k in self.held})

    def warmup(self):
        """Untimed work after setup: fills caches, and may run reference checks."""

    def op(self):
        raise NotImplementedError

    def final_checks(self):
        """[(name, passed, detail)] over the calls made since the last setup."""
        return []

    def throughput(self, call_s):
        raise NotImplementedError

    def describe(self, call_s):
        """Report lines naming this workload's own end-to-end figures."""
        raise NotImplementedError


class TrainDesk(Workload):
    op_unit = "train steps"
    held = ("records", "model", "opt", "sampler")

    def __init__(self, data_dir, seed, smoke):
        super().__init__(data_dir, seed, smoke)
        self.min_calls = 20 if smoke else TRAIN_MIN_STEPS

    def setup(self):
        records = pipeline.load_dataset(os.path.join(self.data_dir, "train"))
        for record in records:  # warm the frame cache, as training does after its first pass
            for i in range(len(record)):
                record.frame(i)
        self.records = records
        self.model = TrackerModel(self.cfg, self.vocab)
        self.opt = pipeline.AdamW(self.model.named_parameters(), lr=self.cfg.lr, weight_decay=self.cfg.weight_decay)
        self.sampler = named_stream(self.seed, "train.sampler")
        self.step = 0
        self.losses = []

    def op(self):
        cfg = self.cfg
        lr = pipeline.cosine_lr(cfg.lr, self.step, cfg.iters)
        with self.clock:
            batch = pipeline.sample_training_batch(self.records, self.sampler, cfg, self.vocab)
            try:
                breakdown = pipeline.train_step(self.model, batch, self.opt, cfg, lr)
            except TrainingDiverged:
                breakdown = None
        self.step += 1
        ok = checks.step_ok(breakdown)
        self.losses.append(breakdown["total"] if ok else math.nan)
        return 1, 0 if ok else 1

    def final_checks(self):
        return [("loss-trend", *checks.loss_trend(self.losses))]

    def throughput(self, call_s):
        return self.cfg.batch_size / statistics.median(call_s)

    def describe(self, call_s):
        n = len(call_s)
        lines = [
            f"train.samples_per_s = {self.throughput(call_s):.3f} samples/s "
            f"(batch {self.cfg.batch_size} / median step {statistics.median(call_s) * 1e3:.2f} ms, {n} steps)"
        ]
        if n >= 100:
            p90 = statistics.quantiles(call_s, n=10)[-1]
            lines.append(f"train.step_ms_p90 = {p90 * 1e3:.2f} ms ({n} steps, {n - math.ceil(0.9 * n)} beyond it)")
        else:
            lines.append(f"train.step_ms_p90 = n/a ({n} steps; needs 100)")
        return lines


class _FromCheckpoint(Workload):
    """Tracking workloads: the seeded initial model, saved and reloaded.

    Forward cost does not depend on weight values, so untrained weights time
    the tracker faithfully; the tracking-quality numbers they give mean nothing.
    """

    def prepare(self):
        model = TrackerModel(self.cfg, self.vocab)
        opt = pipeline.AdamW(model.named_parameters(), lr=self.cfg.lr, weight_decay=self.cfg.weight_decay)
        self.ckpt = os.path.join(self.data_dir, "init.aio")
        rng_state = named_stream(self.seed, "perfbench.checkpoint").bit_generator.state
        checkpoint.save_checkpoint(self.ckpt, self.cfg, model, opt, 0, rng_state)
        self.ckpt_bytes = os.path.getsize(self.ckpt)

    def load_model(self):
        state = checkpoint.load_checkpoint(self.ckpt, expect=self.cfg)
        model = TrackerModel(state.config, self.vocab)
        model.load_state(state.params)
        return model

    def throughput(self, call_s):
        return self.frames_per_call / statistics.median(call_s)


class EvalShort(_FromCheckpoint):
    op_unit = "tracked frames"
    held = ("model",)

    def setup(self):
        self.model = self.load_model()

    def warmup(self):
        """Reference pass: every box checked, per-sequence metrics kept for the timed passes."""
        eval_dir = os.path.join(self.data_dir, "eval")
        self.reference = {}
        self.reference_failed = 0
        for record in pipeline.load_dataset(eval_dir):
            preds = pipeline.track_sequence(self.model, record, self.cfg)
            self.reference_failed += checks.failed_frames(preds, record)
            metrics = pipeline.compute_metrics(preds, record.boxes).as_dict()
            self.reference[record.seq_id] = (metrics, len(record) - 1)
        self.frames_per_call = sum(n for _, n in self.reference.values())
        summary, _ = pipeline.evaluate(self.model, eval_dir, self.cfg, oracle_gt=True)
        self.oracle = checks.oracle_ok(summary)

    def op(self):
        with self.clock:
            _, reports = pipeline.evaluate(self.model, os.path.join(self.data_dir, "eval"), self.cfg)
        # evaluate returns metrics, not boxes: a pass repeats the checked
        # reference boxes exactly when it reproduces their metrics
        failed = self.reference_failed + sum(
            n for seq_id, (metrics, n) in self.reference.items()
            if seq_id not in reports or reports[seq_id].as_dict() != metrics
        )
        return self.frames_per_call, min(failed, self.frames_per_call)

    def final_checks(self):
        return [("oracle-gt", *self.oracle)]

    def describe(self, call_s):
        return [
            f"eval.frames_per_s = {self.throughput(call_s):.3f} frames/s "
            f"({self.frames_per_call} tracked frames per pass, median of {len(call_s)} passes)"
        ]


class TrackLong(_FromCheckpoint):
    op_unit = "tracked frames"
    held = ("model", "record")

    def setup(self):
        self.seq_dir = os.path.join(self.data_dir, "long", "seq_000")
        self.record = synthdata.read_lasot_format(self.seq_dir)
        self.frames_per_call = len(self.record) - 1
        self.model = self.load_model()

    def warmup(self):
        n = TRACK_WARMUP_FRAMES
        record = self.record
        head = dataclasses.replace(record, frame_paths=record.frame_paths[:n], boxes=record.boxes[:n], _frames={})
        pipeline.track_sequence(self.model, head, self.cfg)

    def op(self):
        record = synthdata.read_lasot_format(self.seq_dir)  # a fresh record decodes every frame again
        with self.clock:
            preds = pipeline.track_sequence(self.model, record, self.cfg)
        return len(record) - 1, checks.failed_frames(preds, record)

    def describe(self, call_s):
        return [
            f"track.frames_per_s = {self.throughput(call_s):.3f} frames/s "
            f"({self.frames_per_call} tracked frames per pass, median of {len(call_s)} passes)"
        ]


class GradCheck(Workload):
    op_unit = "loss-gradient checks"
    held = ("model", "batch")

    def setup(self):
        # what gradient_fidelity builds before its first check
        cfg = self.cfg.replace(batch_size=2)
        self.model = TrackerModel(cfg, self.vocab).astype(np.float64)
        self.batch = docsbench.micro_batch(cfg, self.vocab, n=2)
        self.passed = []

    def op(self):
        with self.clock:
            report = docsbench.gradient_fidelity(self.cfg, coords_per_param=1 if self.smoke else 3)
        self.passed.append(report["passed"])
        self.checks_per_call = len(report["losses"])
        return self.checks_per_call, checks.gradcheck_failures(report)

    def final_checks(self):
        return [("gradcheck-passed", all(self.passed), f"passed={self.passed}")]

    def throughput(self, call_s):
        return self.checks_per_call / statistics.median(call_s)

    def describe(self, call_s):
        return [
            f"gradcheck.wall_s = {statistics.median(call_s):.3f} s "
            f"(median of {len(call_s)} passes of {self.checks_per_call} loss checks)"
        ]


WORKLOAD_CLASSES = dict(zip(WORKLOADS, (TrainDesk, EvalShort, TrackLong, GradCheck)))


def timed_setups(wl, repeats):
    times = []
    for _ in range(repeats):
        wl.release()
        gc.collect()
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def timed_calls(wl, seconds, min_calls):
    """Timed calls until one more would overrun ``seconds``; at least ``min_calls``."""
    call_s, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        a, f = wl.op()
        call_s.append(wl.clock.last)
        attempted += a
        failed += f
        elapsed = time.perf_counter() - start
        if len(call_s) >= min_calls and elapsed * (len(call_s) + 1) / len(call_s) > seconds:
            return call_s, attempted, failed


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "vltrack", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "run_id": args.run_id,
    }


def report_checks(found):
    for name, ok, detail in found:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return all(ok for _, ok, _ in found)


def run_untraced(wl, args):
    wl.prepare()
    setup_s = timed_setups(wl, SETUP_REPEATS)
    wl.warmup()
    call_s, attempted, failed = timed_calls(wl, args.seconds, wl.min_calls)
    checked = report_checks(wl.final_checks())
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": wl.throughput(call_s),
    }
    for line in wl.describe(call_s):
        print(line)
    quartiles = statistics.quantiles(call_s, n=4) if len(call_s) > 1 else call_s * 3
    print(
        f"timed calls: {len(call_s)}, seconds min {min(call_s):.4f} q1 {quartiles[0]:.4f} "
        f"median {quartiles[1]:.4f} q3 {quartiles[2]:.4f} max {max(call_s):.4f}"
    )
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup_s)} setups)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (measuring process)")
    print(f"throughput_per_s = {metrics['throughput_per_s']:.4f} {wl.op_unit}/s")
    print(f"ops_attempted = {attempted} {wl.op_unit}; ops_failed = {failed}")
    units = dict(END_TO_END)
    return checked, attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(wl, args):
    half = args.seconds / 2
    wl.prepare()
    timed_setups(wl, 1)
    wl.warmup()
    base_s, attempted, failed = timed_calls(wl, half, wl.min_calls)
    checked = report_checks(wl.final_checks())

    tracer = Tracer(args.run_id)
    tracer.install()
    wl.clock.tracer = tracer
    try:
        tracer.phase("prepare")
        wl.prepare()
        tracer.phase("setup")
        timed_setups(wl, 1)
        tracer.phase("warmup")
        wl.warmup()
        tracer.phase("ops")
        traced_s, traced_ops, traced_failed = timed_calls(wl, half, wl.min_calls)
        tracer.phase(None)
    finally:
        wl.clock.tracer = None
        tracer.uninstall()
    checked = report_checks(wl.final_checks()) and checked

    values = layer_metrics(tracer, traced_ops)
    values["synthdata.generate_s"] = args.generate_s
    values["checkpoint.bytes"] = wl.ckpt_bytes
    values["trace.overhead_pct"] = (statistics.median(traced_s) / statistics.median(base_s) - 1) * 100
    os.makedirs(args.runs_dir, exist_ok=True)
    spans_path = os.path.join(args.runs_dir, f"spans-{args.workload}-seed{args.seed}-{args.run_id}.jsonl")
    tracer.dump(spans_path, environment(args))

    print(f"traced {traced_ops} {wl.op_unit} in {len(traced_s)} calls; spans written to {spans_path}")
    print(
        f"trace.overhead_pct = {values['trace.overhead_pct']:.2f} % "
        f"(median call {statistics.median(traced_s):.4f} s traced vs {statistics.median(base_s):.4f} s untraced)"
    )
    print("no waiting metric: one process, one thread, one closed-loop client; no layer ever waits on another")
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values[name], "unit": unit}
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}} {entry['value']:>14.4f} {entry['unit']}")
    return checked, attempted + traced_ops, failed + traced_failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/measure.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--data", required=True)
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--generate-s", required=True, type=float)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    wl = WORKLOAD_CLASSES[args.workload](args.data, args.seed, args.smoke)
    checked, attempted, failed, metrics = (run_traced if args.trace else run_untraced)(wl, args)
    result = {"correct": bool(checked and failed == 0), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
