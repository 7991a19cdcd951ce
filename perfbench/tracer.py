"""Spans around the calls into each vltrack module, for the traced run only.

The tracer wraps module and class attributes in place while installed and
restores every one of them on ``uninstall``; the untraced run never installs
it. Each span records its name, start and end (perf_counter ns), the index of
the enclosing span, and the phase it started in; all spans of a run share the
tracer's run id. Spans stay in memory until ``dump``. Everything runs on one
thread, so spans nest strictly and no span ever waits on another.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref

import numpy as np

# span name -> attribute paths ("module:attr" or "module:Class.attr") that
# reach the same function. A function is wrapped under every name its callers
# look it up by: nc.softmax reads the package namespace, Tensor.__matmul__ the
# tensor module's, pipeline.py its own imported copies.
LAYERS = (
    ("numcore.backward", ("vltrack.numcore.tensor:Tape.backward",)),
    ("numcore.matmul", ("vltrack.numcore.tensor:matmul", "vltrack.numcore:matmul")),
    ("numcore.conv2d", ("vltrack.numcore.tensor:conv2d", "vltrack.numcore:conv2d")),
    ("numcore.softmax", ("vltrack.numcore.tensor:softmax", "vltrack.numcore:softmax")),
    ("numcore.layernorm", ("vltrack.numcore.tensor:layernorm", "vltrack.numcore:layernorm")),
    ("numcore.gelu", ("vltrack.numcore.tensor:gelu", "vltrack.numcore:gelu")),
    ("numcore.grad_check", ("vltrack.docsbench:grad_check",)),
    ("embedders.patch_embed", ("vltrack.model:patch_embed",)),
    ("embedders.reduce_language", ("vltrack.model:reduce_language",)),
    ("embedders.take_rows", ("vltrack.numcore.tensor:take_rows", "vltrack.numcore:take_rows")),
    ("backbone.modal_mixup", ("vltrack.backbone:modal_mixup",)),
    ("backbone.encoder_layer", ("vltrack.backbone:encoder_layer",)),
    ("backbone.attention", ("vltrack.backbone:_mhsa",)),
    ("backbone.ffn", ("vltrack.backbone:_ffn",)),
    ("align.project_pool", ("vltrack.model:project_pool",)),
    ("align.cma", ("vltrack.pipeline:cma_loss",)),
    ("align.ima", ("vltrack.pipeline:ima_loss",)),
    ("head.forward", ("vltrack.model:head_forward",)),
    ("head.branch", ("vltrack.head:_run_branch",)),
    ("head.focal", ("vltrack.pipeline:focal_loss",)),
    ("head.giou", ("vltrack.pipeline:giou_loss_tensor",)),
    ("head.l1", ("vltrack.pipeline:l1_loss_tensor",)),
    ("head.decode", ("vltrack.pipeline:decode",)),
    ("model.forward", ("vltrack.model:TrackerModel.forward",)),
    ("pipeline.sample_batch", ("vltrack.pipeline:sample_training_batch",)),
    ("pipeline.compute_losses", ("vltrack.pipeline:compute_losses",)),
    ("pipeline.adamw", ("vltrack.pipeline:AdamW.step",)),
    ("pipeline.clip", ("vltrack.pipeline:clip_gradients",)),
    ("pipeline.compute_metrics", ("vltrack.pipeline:compute_metrics",)),
    ("synthdata.load_frame", ("vltrack.synthdata:load_frame",)),
    ("synthdata.crop", ("vltrack.synthdata:crop_and_resize", "vltrack.pipeline:crop_and_resize")),
    ("checkpoint.save", ("vltrack.checkpoint:save_checkpoint",)),
    ("checkpoint.load", ("vltrack.checkpoint:load_checkpoint",)),
)
ROOT_SPAN = "bench.op"
# Layers that run while inputs and the model are prepared, not inside an op:
# reported per call over the prepare and setup phases.
SETUP_LAYERS = ("checkpoint.save", "checkpoint.load")
# Call counts that are cited as exact counts get names of their own.
CALL_METRIC_NAMES = {"synthdata.load_frame": "synthdata.frames_decoded", "model.forward": "model.forward_calls"}


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run reports, in order."""
    out = []
    for layer, _ in LAYERS:
        per = "call" if layer in SETUP_LAYERS else "op"
        out.append((f"{layer}_ms", f"ms/{per}", "lower"))
        out.append((CALL_METRIC_NAMES.get(layer, f"{layer}.calls"), "count" if per == "call" else "calls/op", "lower"))
    out += [
        ("bench.unattributed_ms", "ms/op", "lower"),
        ("model.forward_ms_p50", "ms", "lower"),
        ("model.forward_ms_p90", "ms", "lower"),
        ("numcore.tape_nodes", "count", "lower"),
        ("synthdata.frame_cache_mb", "MB", "lower"),
        ("synthdata.generate_s", "s", "lower"),
        ("checkpoint.bytes", "count", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


def _resolve(path):
    module_name, attr_path = path.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent index, phase]
        self.tape_nodes = []  # (phase, node count) of each Tape.backward call
        self._phase = None
        self._stack = []
        self._patched = []  # (owner, attr, original)
        self._held = {}  # id(record) -> frame-cache bytes
        self.cache_bytes = 0
        self.cache_peak = 0

    # -- spans ----------------------------------------------------------------

    def phase(self, name):
        """Tag the spans opened from now on with ``name``."""
        self._phase = name

    def open(self, name) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._phase])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _timed(self, name, fn):
        open_span, close_span = self.open, self.close

        def wrapper(*args, **kwargs):
            sid = open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(sid)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for layer, paths in LAYERS:
            for path in paths:
                owner, attr = _resolve(path)
                self._patch(owner, attr, self._timed(layer, vars(owner)[attr]))
        tape_cls, _ = _resolve("vltrack.numcore.tensor:Tape.backward")
        timed_backward = vars(tape_cls)["backward"]

        def counted_backward(tape, loss):
            self.tape_nodes.append((self._phase, len(tape)))
            return timed_backward(tape, loss)

        self._patch(tape_cls, "backward", counted_backward)
        record_cls, _ = _resolve("vltrack.synthdata:SequenceRecord.frame")
        original_frame = vars(record_cls)["frame"]

        def frame(record, i):
            fresh = i not in record._frames
            out = original_frame(record, i)
            if fresh:
                self._hold(record, out.nbytes)
            return out

        self._patch(record_cls, "frame", frame)

    def uninstall(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- frame-cache accounting -------------------------------------------------

    def _hold(self, record, nbytes):
        key = id(record)
        if key not in self._held:
            self._held[key] = 0
            weakref.finalize(record, self._release, key)
        self._held[key] += nbytes
        self.cache_bytes += nbytes
        self.cache_peak = max(self.cache_peak, self.cache_bytes)

    def _release(self, key):
        self.cache_bytes -= self._held.pop(key)

    # -- aggregation ------------------------------------------------------------

    def layer_totals(self, phases):
        """{span name: (calls, self ns)} over spans that started in ``phases``.

        Self time is the span's duration minus the durations of its direct
        children, which on one thread never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            if phase in phases:
                calls, self_ns = totals.get(name, (0, 0))
                totals[name] = (calls + 1, self_ns + (end - start) - child_ns[i])
        return totals

    def durations_ms(self, name, phase):
        return [(end - start) / 1e6 for n, start, end, _, p in self.spans if n == name and p == phase]

    def dump(self, path, header: dict):
        """Write the header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}, sort_keys=True) + "\n")
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                span = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "phase": phase}
                fh.write(json.dumps({**span, "run_id": self.run_id}) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer values from the traced run: {name: value}, every name of per_layer_metrics()."""
    op_totals = tracer.layer_totals({"ops"})
    setup_totals = tracer.layer_totals({"prepare", "setup"})
    values = {}
    for layer, _ in LAYERS:
        if layer in SETUP_LAYERS:
            calls, self_ns = setup_totals.get(layer, (0, 0))
            values[f"{layer}_ms"] = self_ns / 1e6 / calls if calls else 0.0
            values[f"{layer}.calls"] = calls
        else:
            calls, self_ns = op_totals.get(layer, (0, 0))
            values[f"{layer}_ms"] = self_ns / 1e6 / ops
            values[CALL_METRIC_NAMES.get(layer, f"{layer}.calls")] = calls / ops
    values["bench.unattributed_ms"] = op_totals.get(ROOT_SPAN, (0, 0))[1] / 1e6 / ops
    forward_ms = tracer.durations_ms("model.forward", "ops")
    values["model.forward_ms_p50"] = float(np.percentile(forward_ms, 50)) if forward_ms else 0.0
    values["model.forward_ms_p90"] = float(np.percentile(forward_ms, 90)) if forward_ms else 0.0
    nodes = [n for phase, n in tracer.tape_nodes if phase == "ops"]
    values["numcore.tape_nodes"] = float(np.mean(nodes)) if nodes else 0.0
    values["synthdata.frame_cache_mb"] = tracer.cache_peak / 2**20
    values["trace.ops"] = ops
    return values
