"""Training and one-pass evaluation.

Loss assembly follows the multi-task recipe: classification (focal) plus the
weighted regression pair (GIoU + L1) plus the two contrastive alignment
terms. Training is a single-writer loop with decoupled weight decay, cosine
learning-rate decay, and global-norm gradient clipping; each step's forward
and backward run as two row shards, the second in a forked peer wherever one
can be forked, to the same bytes on every host. Evaluation runs each
sequence once from the first-frame box and scores five metrics; sequences
are tracked in parallel worker processes where the host allows it.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import time
import weakref
from dataclasses import dataclass, field, fields

import numpy as np

from . import numcore as nc
from .align import cma_loss, ima_loss
from .config import Config
from .embedders import Vocab, tokenize
from .errors import ContractError, PeerDied, TrainingDiverged
from .head import BBox, decode, focal_loss, gaussian_target, giou_loss_tensor, l1_loss_tensor
from .model import TrackerModel
from .numcore import Tape, Tensor, named_stream
from .synthdata import (
    SequenceRecord,
    crop_and_resize,
    crop_side_for,
    grammar_vocab,
    list_sequences,
    read_lasot_format,
    sample_pair,
    sample_swap_pair,
    swap_color,
    swap_partners,
)


def resolve_vocab(cfg: Config) -> Vocab:
    if cfg.vocab_file:
        return Vocab.load(cfg.vocab_file)
    return grammar_vocab()


# ---------------------------------------------------------------------------
# Batches and loss assembly
# ---------------------------------------------------------------------------


@dataclass
class SampleBatch:
    """Aligned crops, tokenized prompts, and ground truth for N videos."""

    search: np.ndarray  # (B, 3, Hx, Wx)
    template: np.ndarray  # (B, 3, Hz, Wz)
    ids: np.ndarray  # (B, N_t) int64
    mask: np.ndarray  # (B, N_t) float32
    boxes: np.ndarray  # (B, 4) cxcywh in search-crop pixels

    def __len__(self):
        return self.search.shape[0]


def assemble_batch(samples, vocab: Vocab, n_t: int) -> SampleBatch:
    ids, masks = [], []
    for s in samples:
        tp = tokenize(s.prompt, vocab, n_t)
        ids.append(tp.ids)
        masks.append(tp.mask)
    return SampleBatch(
        search=np.stack([s.search for s in samples]),
        template=np.stack([s.template for s in samples]),
        ids=np.asarray(ids, dtype=np.int64),
        mask=np.asarray(masks, dtype=np.float32),
        boxes=np.asarray([[s.gt_box.cx, s.gt_box.cy, s.gt_box.w, s.gt_box.h] for s in samples], dtype=np.float32),
    )


def build_regression_targets(boxes: np.ndarray, grid: int, patch: int):
    """Per-sample heatmaps, center-cell one-hots, and normalized gt boxes."""
    b = boxes.shape[0]
    crop_side = grid * patch
    heat = np.zeros((b, 1, grid, grid), dtype=np.float32)
    onehot = np.zeros((b, 1, grid, grid), dtype=np.float32)
    cells = np.zeros((b, 2), dtype=np.float32)  # (j, i) per sample
    for k in range(b):
        cx, cy = boxes[k, 0], boxes[k, 1]
        j = min(grid - 1, max(0, int(cx // patch)))
        i = min(grid - 1, max(0, int(cy // patch)))
        heat[k] = gaussian_target((i, j), grid)
        onehot[k, 0, i, j] = 1.0
        cells[k] = (j, i)
    gt_norm = boxes.astype(np.float32) / crop_side
    return heat, onehot, cells, gt_norm


def predicted_boxes_at_cells(out, onehot: np.ndarray, cells: np.ndarray, grid: int) -> Tensor:
    """Assemble normalized (B, 4) boxes from the maps at the true center cells."""
    mask = Tensor(onehot, dtype=out.offset.dtype)
    off = nc.tensor_sum(out.offset * mask, axis=(2, 3))  # (B, 2) -> (ox, oy)
    size = nc.tensor_sum(out.size * mask, axis=(2, 3))  # (B, 2) -> (w, h)
    cell_const = Tensor(cells, dtype=out.offset.dtype)  # (j, i)
    centers = (off + cell_const) * (1.0 / grid)
    return nc.concat([centers, size], axis=1)


def assemble_losses(fw, boxes: np.ndarray, cfg: Config, align=None) -> dict:
    """Every loss component of the forward ``fw`` of ground truth ``boxes``, as a scalar tensor.

    ``align`` holds the (search, template, language) alignment rows the
    contrastive terms contrast, by default the forward's own. Only the terms
    in ``cfg.contrastive_losses`` are computed.
    """
    grid = fw.head.grid
    heat, onehot, cells, gt_norm = build_regression_targets(boxes, grid, cfg.patch)

    pred = predicted_boxes_at_cells(fw.head, onehot, cells, grid)
    losses = {
        "cls": focal_loss(fw.head.score, heat),
        "giou": giou_loss_tensor(pred, gt_norm),
        "l1": l1_loss_tensor(pred, gt_norm),
    }
    fx, fz, ft = align if align is not None else (fw.align_search, fw.align_template, fw.align_language)
    if "cma" in cfg.contrastive_losses:
        losses["cma"] = cma_loss(fx, fz, ft, cfg.tau, cfg.denominator_mode)
    if "ima" in cfg.contrastive_losses:
        losses["ima"] = ima_loss(fx, fz, cfg.tau, cfg.denominator_mode)
    return losses


def compute_losses(model: TrackerModel, batch: SampleBatch, cfg: Config) -> dict:
    """Forward the whole batch and return every loss component as a scalar tensor."""
    return assemble_losses(model.forward(batch.search, batch.template, batch.ids, batch.mask), batch.boxes, cfg)


def total_loss(components: dict, cfg: Config):
    """L_total = L_cls + (λ_giou*L_giou + λ_l1*L_1) + λ_cma*L_cma + λ_ima*L_ima.

    The λs are the ``lambda_*`` fields of ``cfg``. Returns the scalar tensor
    and a float breakdown for logging; absent components count as zero, so
    the contrastive terms ``compute_losses`` skips under an ablation add
    nothing.
    """
    zero = Tensor(np.zeros((), dtype=np.float32))
    cls = components.get("cls", zero)
    giou = components.get("giou", zero)
    l1 = components.get("l1", zero)
    cma = components.get("cma", zero)
    ima = components.get("ima", zero)
    total = cls + (cfg.lambda_giou * giou + cfg.lambda_l1 * l1) + cfg.lambda_cma * cma + cfg.lambda_ima * ima
    breakdown = {
        "total": total.item(),
        "cls": cls.item(),
        "giou": giou.item(),
        "l1": l1.item(),
        "cma": cma.item(),
        "ima": ima.item(),
    }
    return total, breakdown


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay over a named parameter table."""

    def __init__(self, params: dict, lr: float, weight_decay: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        # Two scratch buffers per parameter dtype, each as large as the
        # largest parameter; step() writes every temporary into views of them.
        size = max((t.size for t in params.values()), default=0)
        self._scratch = {t.dtype: (np.empty(size, t.dtype), np.empty(size, t.dtype)) for t in params.values()}

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def step(self, lr=None):
        """One update; parameters without gradients are left untouched."""
        lr = self.lr if lr is None else lr
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, t in self.params.items():
            g = t.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            a, b = (buf[: t.size].reshape(t.shape) for buf in self._scratch[t.dtype])
            # The same operations in the same order as
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            #   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps) + lr*wd * p
            # with every temporary written into a or b.
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=b), out=b)
            denom = np.sqrt(np.divide(v, bc2, out=a), out=a)
            denom += self.eps
            update = np.divide(np.divide(m, bc1, out=b), denom, out=b)
            update *= lr
            update += np.multiply(lr * self.weight_decay, t.data, out=a)
            t.data -= update

    def load_state_dict(self, state):
        self.step_count = int(state["step"])
        for k in self.m:
            self.m[k] = np.ascontiguousarray(state["m"][k], dtype=np.float32)
            self.v[k] = np.ascontiguousarray(state["v"][k], dtype=np.float32)


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = np.float32(max_norm / norm)
        for t in params.values():
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    if total_steps <= 0:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def train_step(model: TrackerModel, batch: SampleBatch, opt: AdamW, cfg: Config, lr=None) -> dict:
    """One forward/backward/update over the batch's two row shards; aborts with a diagnostic on non-finite loss.

    Shard 1 runs in a forked peer (``sharded_backward``) wherever one can be
    forked; a batch of one row, or a process that cannot fork a peer, runs
    its shards here (``local_backward``). Both give the same bytes, so the
    trained model does not depend on the host. The update runs here. The
    step runs BLAS at one thread, where the thread call resolves, as the
    peer does; the caller's own count is restored after it.
    """
    opt.zero_grad()
    with nc.one_blas_thread():
        if len(batch) >= 2 and can_fork():
            breakdown = sharded_backward(model, batch, cfg)
        else:
            breakdown = local_backward(model, batch, cfg)
        breakdown["grad_norm"] = clip_gradients(opt.params, cfg.clip_norm)
        opt.step(lr)
    return breakdown


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

LOG_COLUMNS = ("iter", "L_total", "L_cls", "L_giou", "L_1", "L_cma", "L_ima")


def load_dataset(dataset_dir) -> list[SequenceRecord]:
    seq_dirs = list_sequences(dataset_dir)
    if not seq_dirs:
        raise ContractError(f"no sequences found under {dataset_dir}")
    return [read_lasot_format(d) for d in seq_dirs]


# Share of samples drawn as prompt-swap pairs from sequences that have a
# same-shape, different-color object. Without them training never shows a
# prompt that disagrees with the template, and matching the template is the
# cheapest solution: a swapped color word would never move the prediction.
PROMPT_SWAP_RATE = 0.5


def sample_training_sample(record: SequenceRecord, rng, cfg: Config):
    """One training pair: a prompt-swap pair at PROMPT_SWAP_RATE where the
    sentence prompt allows one, else a ``sample_pair`` draw.

    Records without swap partners, and the class prompt mode, draw nothing
    extra from ``rng``.
    """
    partners = swap_partners(record) if cfg.train_prompt == "sentence" else []
    if partners and rng.uniform() < PROMPT_SWAP_RATE:
        other = partners[int(rng.integers(len(partners)))]
        return sample_swap_pair(record, rng, other, cfg)
    return sample_pair(record, rng, cfg)


def sample_training_batch(records, rng, cfg: Config, vocab: Vocab) -> SampleBatch:
    n = len(records)
    if cfg.batch_size <= n:
        idxs = rng.choice(n, size=cfg.batch_size, replace=False)
    else:
        idxs = rng.integers(0, n, size=cfg.batch_size)
    samples = [sample_training_sample(records[int(i)], rng, cfg) for i in idxs]
    return assemble_batch(samples, vocab, cfg.n_t)


def _truncate_log(log_path, iteration: int):
    """Cut a loss log after its last row at or before ``iteration``.

    A run resumed from the checkpoint at ``iteration`` logs the later rows
    again, so the interrupted run's copies of them are dropped.
    """
    with open(log_path, "r+b") as fh:
        keep = 0
        for n, line in enumerate(fh):
            if n and int(line.split(b",", 1)[0]) > iteration:
                break
            keep += len(line)
        fh.truncate(keep)


def train(cfg: Config, dataset_dir, out_dir, resume=None, quiet=False):
    """Full training run; returns (model, final checkpoint path, seconds).

    A step with a non-finite loss raises ``TrainingDiverged`` out of the
    loop, so the last periodic checkpoint stays on disk untouched. The
    training peer of ``sharded_backward`` is stopped when the run returns or
    raises.
    """
    from .checkpoint import load_checkpoint, save_checkpoint

    os.makedirs(out_dir, exist_ok=True)
    vocab = resolve_vocab(cfg)
    records = load_dataset(dataset_dir)
    model = TrackerModel(cfg, vocab)
    opt = AdamW(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    sampler = named_stream(cfg.seed, "train.sampler")
    start_iter = 0
    log_path = os.path.join(out_dir, "loss_log.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.aio")

    if resume is not None:
        state = load_checkpoint(resume, expect=cfg)
        model.load_state(state.params)
        opt.load_state_dict(state.optimizer)
        sampler.bit_generator.state = state.rng_state
        start_iter = state.iteration
        if os.path.isfile(log_path):
            _truncate_log(log_path, start_iter)

    started = time.perf_counter()
    try:
        # rows are flushed as they are written, so a killed run keeps its log
        with open(log_path, "w" if resume is None else "a", newline="", encoding="ascii") as log_file:
            writer = csv.writer(log_file)
            if log_file.tell() == 0:
                writer.writerow(LOG_COLUMNS)
                log_file.flush()
            for it in range(start_iter, cfg.iters):
                batch = sample_training_batch(records, sampler, cfg, vocab)
                lr = cosine_lr(cfg.lr, it, cfg.iters)
                breakdown = train_step(model, batch, opt, cfg, lr)
                step = it + 1
                if step % cfg.log_every == 0 or step == cfg.iters:
                    writer.writerow(
                        [
                            step,
                            f"{breakdown['total']:.6f}",
                            f"{breakdown['cls']:.6f}",
                            f"{breakdown['giou']:.6f}",
                            f"{breakdown['l1']:.6f}",
                            f"{breakdown['cma']:.6f}",
                            f"{breakdown['ima']:.6f}",
                        ]
                    )
                    log_file.flush()
                    if not quiet:
                        print(f"iter {step}/{cfg.iters} loss {breakdown['total']:.4f} lr {lr:.2e}")
                if step % cfg.checkpoint_every == 0 and step != cfg.iters:
                    save_checkpoint(ckpt_path, cfg, model, opt, step, sampler.bit_generator.state)
        save_checkpoint(ckpt_path, cfg, model, opt, cfg.iters, sampler.bit_generator.state)
    finally:
        close_peer()
    return model, ckpt_path, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------


def _prompt_arrays(prompt: str, vocab: Vocab, n_t: int):
    tp = tokenize(prompt, vocab, n_t)
    return (
        np.asarray([tp.ids], dtype=np.int64),
        np.asarray([tp.mask], dtype=np.float32),
    )


def track_sequence(
    model: TrackerModel,
    record: SequenceRecord,
    cfg: Config,
    prompt_override: str | None = None,
    init_box: BBox | None = None,
) -> list[BBox]:
    """One-pass tracking: fixed template from frame 0, no re-detection.

    The prediction for frame 0 is the given box; each later frame is searched
    around the previous prediction at 4x scale. Frames are read once each, in
    order, and never cached on the record, so memory stays flat on long
    sequences. A first box without area, or with a coordinate that is not
    finite, raises ``ContractError``.
    """
    if prompt_override is not None:
        prompt = prompt_override
    else:
        prompt = record.prompt if cfg.eval_prompt == "sentence" else record.class_word
    ids, mask = _prompt_arrays(prompt, model.vocab, cfg.n_t)

    first = init_box if init_box is not None else record.boxes[0]
    if not (first.w > 0 and first.h > 0 and all(map(math.isfinite, (first.cx, first.cy, first.w, first.h)))):
        raise ContractError(
            f"sequence {record.seq_id}: the first box has no area or a non-finite coordinate "
            f"(cx {first.cx}, cy {first.cy}, w {first.w}, h {first.h})"
        )
    template, _ = crop_and_resize(
        record.stream_frame(0), (first.cx, first.cy), max(8.0, crop_side_for(first, 2.0)), cfg.template_size, cfg.patch
    )
    template = template[None]

    preds = [first]
    prev = first
    for t in range(1, len(record)):
        search, meta = crop_and_resize(
            record.stream_frame(t), (prev.cx, prev.cy), max(8.0, crop_side_for(prev, 4.0)), cfg.search_size, cfg.patch
        )
        fw = model.forward(search[None], template, ids, mask)
        box = decode(fw.head, meta, window_weight=cfg.window_weight, image_size=record.canvas)
        preds.append(box)
        prev = box
    return preds


# ---------------------------------------------------------------------------
# Tracking many sequences
# ---------------------------------------------------------------------------


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


_worker_job = None  # (fn, items) inside a worker process of map_sequences


def can_fork() -> bool:
    """Whether this process may fork helpers that run BLAS at one thread.

    It needs the ``fork`` call and a resolvable OpenBLAS thread call: on a
    2-CPU host, two workers left at the default BLAS thread count ran at
    0.26x the speed of one process. A worker of ``map_sequences`` forks
    nothing, since the outer call already counted its CPUs.
    """
    return _worker_job is None and hasattr(os, "fork") and nc.blas_thread_calls() is not None


def sequence_workers(n: int) -> int:
    """How many processes ``map_sequences`` runs ``n`` items in.

    One per usable CPU, at most one per item, where ``can_fork``. A single
    process otherwise, and while the model's forward is wrapped in place
    (``__wrapped__`` set, as ``functools.wraps`` and span tracers do): such
    a wrapper records into this process, and the calls a worker makes would
    never reach it. Training reads neither the CPU count nor the wrapper.
    """
    if not can_fork() or hasattr(TrackerModel.forward, "__wrapped__"):
        return 1
    return max(1, min(n, usable_cpus()))


def _start_worker(fn, items):
    global _worker_job
    set_threads, _ = nc.blas_thread_calls()
    set_threads(1)
    _worker_job = (fn, items)


def _run_item(i):
    fn, items = _worker_job
    return fn(items[i])


@dataclass
class FanOutLog:
    """Wall seconds and the most workers over the ``map_sequences`` calls it is passed to."""

    seconds: float = 0.0
    workers: int = 0

    def line(self, frames: int) -> str:
        """The console line a tracking command prints after its run."""
        plural = "s" if self.workers != 1 else ""
        rate = f"{frames / max(self.seconds, 1e-9):.0f} fps, {self.workers} worker{plural}"
        return f"tracked {frames} frames in {self.seconds:.1f} s ({rate})"


def map_sequences(fn, items, log: FanOutLog | None = None) -> list:
    """``[fn(item) for item in items]``, spread over ``sequence_workers`` processes.

    Each item is an independent job, such as tracking one sequence, and the
    results come back in input order, so every later step sees what the
    in-process loop gives. Workers are forked, so ``fn`` and ``items`` (the
    model among them) reach them without pickling; only the results are
    pickled back. Spawned workers would pay 0.3-0.6 s per call to start
    interpreters and import numpy. Each worker runs BLAS at one thread; the
    calling process keeps its own count. An exception in a worker is raised
    here with its type and message, and a worker that dies raises
    ``BrokenProcessPool``; either way every worker has exited. ``log``, if
    given, gains this call's wall time and worker count.
    """
    started = time.perf_counter()
    workers = sequence_workers(len(items))
    if workers == 1:
        results = [fn(item) for item in items]
    else:
        # imported here: the process machinery adds 2 MB to every process
        # that imports this module, most of which never fans out
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker, initargs=(fn, items)) as pool:
            try:
                results = list(pool.map(_run_item, range(len(items))))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    if log is not None:
        log.seconds += time.perf_counter() - started
        log.workers = max(log.workers, workers)
    return results


# ---------------------------------------------------------------------------
# A training step in two row shards
# ---------------------------------------------------------------------------


def row_shards(batch: SampleBatch) -> tuple[SampleBatch, ...]:
    """Rows [0, ceil(B/2)) and [ceil(B/2), B) of ``batch``; a batch of one row is a single shard."""
    half = (len(batch) + 1) // 2
    bounds = (slice(0, half), slice(half, None)) if len(batch) >= 2 else (slice(None),)
    return tuple(SampleBatch(**{f.name: getattr(batch, f.name)[rows] for f in fields(SampleBatch)}) for rows in bounds)


def shard_backward(model: TrackerModel, batch: SampleBatch, index: int, cfg: Config) -> dict:
    """Back-propagate row shard ``index``'s part of the loss of ``batch``.

    The part is (n/B)(L_cls + l_giou L_giou + l_1 L_1) over the shard's n
    rows plus the contrastive terms over the alignment rows of the whole
    batch in batch order. The other shard's rows are computed here, without
    a tape (``TrackerModel.alignment_rows``), and enter as constants after
    this shard's own in shard 0 and before them in shard 1; a config that
    computes no contrastive term (``cfg.contrastive_losses``) skips them.
    The shard's own forward is recorded on a tape of its own. Gradients of
    the parts of both shards sum to the gradient of the whole batch.
    Returns the part's ``total_loss`` breakdown; a part that is not finite
    is not back-propagated.
    """
    shards = row_shards(batch)
    shard, other = shards[index], None
    if len(shards) == 2 and cfg.contrastive_losses:
        rest = shards[1 - index]
        other = model.alignment_rows(rest.search, rest.template, rest.ids, rest.mask)
    with Tape() as tape:
        fw = model.forward(shard.search, shard.template, shard.ids, shard.mask)
        align = (fw.align_search, fw.align_template, fw.align_language)
        if other is not None:
            pairs = [(t, Tensor(x.data, dtype=t.dtype)) for t, x in zip(align, other)]
            align = tuple(nc.concat(pair if index == 0 else pair[::-1]) for pair in pairs)
        components = assemble_losses(fw, shard.boxes, cfg, align)
        weight = Tensor(len(shard) / len(batch), dtype=fw.head.score.dtype)
        for name in ("cls", "giou", "l1"):
            components[name] = weight * components[name]
        total, breakdown = total_loss(components, cfg)
        if math.isfinite(breakdown["total"]):
            tape.backward(total)
    return breakdown


def merge_parts(parts, cfg: Config) -> dict:
    """The batch's breakdown from its shards': head losses summed, contrastive terms counted once.

    Raises ``TrainingDiverged`` with the components when the total is not finite.
    """
    components = {name: Tensor(sum(part[name] for part in parts), dtype=np.float64) for name in ("cls", "giou", "l1")}
    components.update((name, Tensor(parts[0][name], dtype=np.float64)) for name in ("cma", "ima"))
    _, breakdown = total_loss(components, cfg)
    if not math.isfinite(breakdown["total"]):
        raise TrainingDiverged(f"non-finite loss; components: {breakdown}")
    return breakdown


def add_gradients(params: dict, grads: dict):
    """Add shard 1's gradients ``grads`` (None where it has none) to shard 0's, held in ``params``."""
    for name, t in params.items():
        g = grads[name]
        if g is None:
            continue
        if t.grad is None:
            t.grad = g.copy()
        else:
            t.grad += g


def local_backward(model: TrackerModel, batch: SampleBatch, cfg: Config) -> dict:
    """``sharded_backward`` with both shards run here, to the same bytes.

    Shard 1 is back-propagated first and its gradients set aside, then shard
    0, and ``add_gradients`` sums them as it sums the peer's. A batch of one
    row is a single shard, whose part is the whole batch's loss.
    """
    params = model.named_parameters()
    parts, grads = [], {}
    for index in reversed(range(len(row_shards(batch)))):
        for name, t in params.items():
            grads[name], t.grad = t.grad, None
        parts.insert(0, shard_backward(model, batch, index, cfg))
    add_gradients(params, grads)
    return merge_parts(parts, cfg)


def _shared_arrays(params: dict) -> dict:
    """A zeroed array shaped like each parameter, all in one anonymous mapping that forked children share."""
    offsets, size = {}, 0
    for name, t in params.items():
        offsets[name] = size
        size += t.data.nbytes
    buf = mmap.mmap(-1, size)
    return {name: np.frombuffer(buf, t.dtype, t.size, offsets[name]).reshape(t.shape) for name, t in params.items()}


def _peer_main(conn, parent_end, model, params, grads):
    """The peer's loop: shard 1 of each step, until its pipe closes."""
    parent_end.close()
    set_threads, _ = nc.blas_thread_calls()
    set_threads(1)
    tensors = model.named_parameters()
    for name, t in tensors.items():
        t.data = params[name]
    while True:
        try:
            batch, cfg = conn.recv()
        except EOFError:
            return
        try:
            for t in tensors.values():
                t.grad = None
            part = shard_backward(model, batch, 1, cfg)
            for name, t in tensors.items():
                if t.grad is not None:
                    grads[name][...] = t.grad
            reply = ("done", part, [t.grad is not None for t in tensors.values()])
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


class _TrainingPeer:
    """A forked process that runs shard 1 of every sharded step of one model.

    It reads the parameters from a shared mapping the parent fills before
    each step, and leaves its gradients in a second one.
    """

    def __init__(self, model: TrackerModel):
        # imported here, as in map_sequences
        import multiprocessing

        params = model.named_parameters()
        self.model = weakref.ref(model)
        self.params = _shared_arrays(params)
        self.grads = _shared_arrays(params)
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_peer_main, args=(child_end, self.conn, model, self.params, self.grads), daemon=True
        )
        self.process.start()
        child_end.close()
        self.close = weakref.finalize(model, self._stop, os.getpid())

    def _stop(self, owner):
        global _peer
        if os.getpid() != owner:  # a process forked later, whose copy of the model was collected
            return
        if _peer is self:
            _peer = None
        self.conn.close()
        self.process.terminate()
        self.process.join()


_peer: _TrainingPeer | None = None


def close_peer():
    """Stop the training peer, if one runs."""
    if _peer is not None:
        _peer.close()


def sharded_backward(model: TrackerModel, batch: SampleBatch, cfg: Config) -> dict:
    """Shard 0 here and shard 1 in the model's peer; ``add_gradients`` sums the gradients here.

    For a batch of at least two rows where ``can_fork``; the CPU count does
    not matter, and on one CPU the two processes take turns on it. A wrapper
    of the model's forward sees shard 0's forward only: the peer, forked
    with a copy of the wrapper, keeps what its copy records. The peer starts
    at a model's first call and serves it until the next call with another
    model, until the model is collected, ``close_peer`` or interpreter
    exit. Each call copies the current parameters to it, so
    ``load_state`` and edits in place reach it, and sends it one message,
    the batch and the config, to which it sends one reply: its part and
    which parameters got a gradient. An error in the peer is
    raised here with its type and message, and a peer that exits raises
    ``PeerDied``; either way the peer is stopped, and the next call starts
    a fresh one. Returns ``merge_parts`` of the two shards.
    """
    global _peer
    params = model.named_parameters()
    if _peer is None or _peer.model() is not model:
        close_peer()
        _peer = _TrainingPeer(model)
    peer = _peer
    try:
        for name, t in params.items():
            np.copyto(peer.params[name], t.data)
        peer.conn.send((batch, cfg))
        part = shard_backward(model, batch, 0, cfg)
        kind, *reply = peer.conn.recv()
        if kind == "error":
            raise reply[0]
        peer_part, peer_has_grad = reply
    except (EOFError, ConnectionError) as exc:
        peer.close()
        raise PeerDied(f"the training peer exited with code {peer.process.exitcode} during a step") from exc
    except BaseException:
        peer.close()
        raise
    add_gradients(params, {name: g if has else None for (name, g), has in zip(peer.grads.items(), peer_has_grad)})
    return merge_parts([part, peer_part], cfg)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

SUCCESS_THRESHOLDS = tuple(np.round(np.linspace(0.0, 1.0, 21), 10).tolist())
PRECISION_THRESHOLDS = tuple(float(v) for v in range(0, 51))
NORM_PRECISION_THRESHOLDS = tuple(np.round(np.arange(0, 101) * 0.005, 10).tolist())
CENTER_ERROR_LIMIT = 20.0


def iou(a: BBox, b: BBox) -> float:
    # areas come from the same corner values as the intersection so that
    # identical boxes score exactly 1.0
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def complete_iou(a: BBox, b: BBox) -> float:
    """IoU minus the squared center distance over the enclosing-box diagonal,
    clamped to [0, 1]."""
    ax1, ay1, ax2, ay2 = a.to_xyxy()
    bx1, by1, bx2, by2 = b.to_xyxy()
    hull_w = max(ax2, bx2) - min(ax1, bx1)
    hull_h = max(ay2, by2) - min(ay1, by1)
    c2 = hull_w**2 + hull_h**2
    rho2 = (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2
    penalty = rho2 / c2 if c2 > 0 else 0.0
    return min(1.0, max(0.0, iou(a, b) - penalty))


@dataclass
class MetricReport:
    """Five metrics plus the threshold curves backing them."""

    p: float
    p_norm: float
    auc: float
    cauc: float
    acc: float
    n_frames: int
    curves: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "P": self.p,
            "P_norm": self.p_norm,
            "AUC": self.auc,
            "cAUC": self.cauc,
            "ACC": self.acc,
            "n_frames": self.n_frames,
        }


def compute_metrics(preds, gts) -> MetricReport:
    """Score aligned prediction/ground-truth box sequences.

    cAUC sweeps ``complete_iou`` and ACC is the mean IoU. Success-style
    curves count ties as successes (metric >= threshold) and their area is
    the arithmetic mean over the threshold sweep.
    """
    if len(preds) != len(gts):
        raise ContractError(f"{len(preds)} predictions vs {len(gts)} ground-truth boxes")
    if not preds:
        raise ContractError("empty sequences cannot be scored")
    ious = np.array([iou(p, g) for p, g in zip(preds, gts)])
    compl = np.array([complete_iou(p, g) for p, g in zip(preds, gts)])
    errs = np.array([math.hypot(p.cx - g.cx, p.cy - g.cy) for p, g in zip(preds, gts)])
    nerrs = np.array(
        [math.hypot((p.cx - g.cx) / max(g.w, 1e-9), (p.cy - g.cy) / max(g.h, 1e-9)) for p, g in zip(preds, gts)]
    )

    success = [float(np.mean(ious >= t)) for t in SUCCESS_THRESHOLDS]
    csuccess = [float(np.mean(compl >= t)) for t in SUCCESS_THRESHOLDS]
    precision = [float(np.mean(errs <= t)) for t in PRECISION_THRESHOLDS]
    norm_precision = [float(np.mean(nerrs <= t)) for t in NORM_PRECISION_THRESHOLDS]

    return MetricReport(
        p=float(np.mean(errs <= CENTER_ERROR_LIMIT)),
        p_norm=float(np.mean(norm_precision)),
        auc=float(np.mean(success)),
        cauc=float(np.mean(csuccess)),
        acc=float(np.mean(ious)),
        n_frames=len(preds),
        curves={
            "success": (list(SUCCESS_THRESHOLDS), success),
            "csuccess": (list(SUCCESS_THRESHOLDS), csuccess),
            "precision": (list(PRECISION_THRESHOLDS), precision),
            "norm_precision": (list(NORM_PRECISION_THRESHOLDS), norm_precision),
        },
    )


def aggregate_reports(reports: dict) -> dict:
    """Average per-sequence metrics (sequence-weighted, sorted reduce)."""
    names = ("P", "P_norm", "AUC", "cAUC", "ACC")
    means = {}
    for name in names:
        means[name] = float(np.mean([reports[k].as_dict()[name] for k in sorted(reports)])) if reports else 0.0
    return means


def average_curves(reports: dict, curve: str):
    keys = sorted(reports)
    thresholds = reports[keys[0]].curves[curve][0]
    stacked = np.array([reports[k].curves[curve][1] for k in keys])
    return thresholds, stacked.mean(axis=0).tolist()


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


def evaluate(
    model: TrackerModel, dataset_dir, cfg: Config, out_dir=None, oracle_gt=False, log: FanOutLog | None = None
):
    """Track every sequence, score it, and (optionally) write the reports.

    Sequences are tracked through ``map_sequences``; scoring and the reports
    stay in this process; ``log`` is passed on to it. ``oracle_gt`` replaces
    the tracker output with the ground truth, a sanity path that must score
    1.0 everywhere. Returns (summary, per-sequence reports).
    """
    records = load_dataset(dataset_dir)
    if oracle_gt:
        tracks = [list(record.boxes) for record in records]
    else:
        tracks = map_sequences(lambda record: track_sequence(model, record, cfg), records, log)
    reports = {record.seq_id: compute_metrics(preds, record.boxes) for record, preds in zip(records, tracks)}
    summary = aggregate_reports(reports)
    if out_dir is not None:
        write_reports(out_dir, summary, reports)
    return summary, reports


def write_reports(out_dir, summary, reports):
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "summary": summary,
        "sequences": {k: reports[k].as_dict() for k in sorted(reports)},
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    for curve in ("success", "precision", "norm_precision", "csuccess"):
        thresholds, values = average_curves(reports, curve)
        with open(os.path.join(out_dir, f"{curve}_curve.csv"), "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "value"])
            for t, v in zip(thresholds, values):
                writer.writerow([f"{t:.6g}", f"{v:.6f}"])


# ---------------------------------------------------------------------------
# Twin-disambiguation protocol
# ---------------------------------------------------------------------------


def swap_prompt_color(record: SequenceRecord) -> str:
    """The sequence prompt with the target color word replaced by the twin's."""
    target = next(o for o in record.objects if o.role == "target")
    twin = next(o for o in record.objects if o.role == "twin")
    return swap_color(record.prompt, target.color, twin.color)


def twin_follow_counts(model: TrackerModel, record: SequenceRecord, cfg: Config, prompt: str):
    """Per-frame winner counts for one prompt: (target frames, twin frames, total).

    A frame follows whichever twin the prediction overlaps more; frames
    overlapping neither count toward neither. The Hanning window is disabled:
    this protocol asks which object the appearance/language evidence selects,
    and a motion prior would veto any off-center flip by construction.
    """
    target = next(o for o in record.objects if o.role == "target")
    twin = next(o for o in record.objects if o.role == "twin")
    preds = track_sequence(model, record, cfg.replace(window_weight=0.0), prompt_override=prompt)
    follows_target = follows_twin = 0
    total = len(record) - 1
    for t in range(1, len(record)):
        iou_target = iou(preds[t], BBox(*target.boxes[t], "image"))
        iou_twin = iou(preds[t], BBox(*twin.boxes[t], "image"))
        if iou_target > iou_twin:
            follows_target += 1
        elif iou_twin > iou_target:
            follows_twin += 1
    return follows_target, follows_twin, total


def twin_disambiguation(model: TrackerModel, dataset_dir, cfg: Config, log: FanOutLog | None = None) -> dict:
    """Aggregate follow rates over a twin-distractor suite.

    correct_rate: fraction of frames on the prompt-designated twin under the
    true prompt. flip_rate: fraction on the other twin once the prompt color
    is swapped (same first-frame box). Each sequence's two runs are one
    ``map_sequences`` item; ``log`` is passed on to it.
    """
    records = load_dataset(dataset_dir)
    for record in records:
        if not any(o.role == "twin" for o in record.objects):
            raise ContractError(f"sequence {record.seq_id} has no twin distractor")

    def counts(record):
        on_target, _, n = twin_follow_counts(model, record, cfg, record.prompt)
        _, on_twin, _ = twin_follow_counts(model, record, cfg, swap_prompt_color(record))
        return on_target, on_twin, n

    per_record = map_sequences(counts, records, log)
    correct = sum(c[0] for c in per_record)
    flip = sum(c[1] for c in per_record)
    total = sum(c[2] for c in per_record)
    return {
        "correct_rate": correct / total if total else 0.0,
        "flip_rate": flip / total if total else 0.0,
        "frames": total,
    }
