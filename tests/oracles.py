"""Independent brute-force oracles shared by the test modules.

Everything here is scalar-loop float64 numpy, deliberately ignorant of the
library's vectorized implementations, except two groups at the end of the
file: tape-recorded versions of numcore's linear, softmax, layernorm and
conv2d as they were before those ops were fused, kept so the fused ops'
outputs and gradients can be compared with them, and a one-process
reference of the two-shard training step.
"""

import math

import numpy as np

from vltrack import numcore as nc
from vltrack import pipeline as pl
from vltrack.numcore.tensor import _conv_geometry, _record, _result, as_tensor

COS_EPS = 1e-8


def matmul_oracle(a, b):
    """Triple-loop scalar matrix product in float64."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def conv2d_oracle(x, k, stride, padding):
    """Quadruple-loop scalar cross-correlation in float64."""
    c, h, w = x.shape
    co, ci, kh, kw = k.shape
    assert ci == c
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, padding : padding + h, padding : padding + w] = x
    out = np.zeros((co, ho, wo), dtype=np.float64)
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci_ in range(c):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += float(xp[ci_, i * stride + di, j * stride + dj]) * float(k[o, ci_, di, dj])
                out[o, i, j] = acc
    return out


def cos_oracle(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + COS_EPS))


def _infonce_direction(anchors, positives, negative_sets, tau, mode):
    """Mean over anchors of -log(exp(pos/tau) / denominator)."""
    n = len(anchors)
    total = 0.0
    for i in range(n):
        pos = cos_oracle(anchors[i], positives[i]) / tau
        denom = sum(math.exp(cos_oracle(anchors[i], neg) / tau) for neg in negative_sets[i])
        if mode == "standard":
            denom += math.exp(pos)
        total += math.log(denom) - pos
    return total / n


def cma_oracle(fx, fz, ft, tau, mode):
    """Double-loop cross-modal loss: 0.5*(x2t+z2t) + 0.5*(t2z+t2x)."""
    n = len(fx)
    others = lambda pool, i: [pool[j] for j in range(n) if j != i]
    x2t = _infonce_direction(fx, ft, [others(ft, i) for i in range(n)], tau, mode)
    z2t = _infonce_direction(fz, ft, [others(ft, i) for i in range(n)], tau, mode)
    t2x = _infonce_direction(ft, fx, [others(fx, i) for i in range(n)], tau, mode)
    t2z = _infonce_direction(ft, fz, [others(fz, i) for i in range(n)], tau, mode)
    return 0.5 * (x2t + z2t) + 0.5 * (t2z + t2x)


def ima_oracle(fx, fz, tau, mode):
    """Double-loop intra-modal loss with 2(N-1) negatives per anchor."""
    n = len(fx)

    def vision_others(i):
        return [fx[j] for j in range(n) if j != i] + [fz[j] for j in range(n) if j != i]

    x2z = _infonce_direction(fx, fz, [vision_others(i) for i in range(n)], tau, mode)
    z2x = _infonce_direction(fz, fx, [vision_others(i) for i in range(n)], tau, mode)
    return 0.5 * (x2z + z2x)


def iou_oracle(a, b):
    """Scalar IoU of two (cx, cy, w, h) boxes."""
    ax1, ay1, ax2, ay2 = a[0] - a[2] / 2, a[1] - a[3] / 2, a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1, bx2, by2 = b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def center_error_oracle(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# Unfused references of the fused numcore ops
# ---------------------------------------------------------------------------


def linear_reference(x, w, b):
    """reshape -> matmul -> add -> reshape: four tape nodes."""
    lead = tuple(x.shape[:-1])
    flat = nc.reshape(x, (int(np.prod(lead)), x.shape[-1]))
    return nc.reshape(flat @ w + b, lead + (w.shape[1],))


def softmax_reference(a, axis=-1):
    """Softmax that divides and takes the backward row dot in float64."""
    a = as_tensor(a)
    e = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    denom = np.sum(e, axis=axis, keepdims=True, dtype=np.float64)
    out = _result((e / denom).astype(a.dtype, copy=False), a.requires_grad)

    def backward(g):
        y = out.data
        dot = np.sum(y * g, axis=axis, keepdims=True, dtype=np.float64)
        return ((y * (g - dot)).astype(a.dtype, copy=False),)

    return _record(out, (a,), backward)


def layernorm_reference(x, gain, bias, eps=1e-5):
    """Layernorm that centres, normalises and back-propagates in float64."""
    x = as_tensor(x)
    mu = np.mean(x.data, axis=-1, keepdims=True, dtype=np.float64)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True, dtype=np.float64)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (centered * inv).astype(x.dtype, copy=False)
    out = _result(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        ggain = np.sum(g * xhat, axis=reduce_axes, dtype=np.float64).astype(x.dtype)
        gbias = np.sum(g, axis=reduce_axes, dtype=np.float64).astype(x.dtype)
        gh = g * gain.data
        m1 = np.mean(gh, axis=-1, keepdims=True, dtype=np.float64)
        m2 = np.mean(gh * xhat, axis=-1, keepdims=True, dtype=np.float64)
        gx = (inv * (gh - m1 - xhat * m2)).astype(x.dtype, copy=False)
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), backward)


def conv2d_reference(x, kernels, stride=1, padding=0):
    """Per-image im2col conv2d whose input gradient scatter-adds (col2im)."""
    xd = x.data
    b, c, h, w = xd.shape
    co, _, kh, kw = kernels.shape
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = xd
    cols = np.empty((b, c, kh, kw, ho, wo), dtype=xd.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols2 = cols.reshape(b, c * kh * kw, ho * wo)
    kmat = kernels.data.reshape(co, c * kh * kw)
    out = _result((kmat @ cols2).reshape(b, co, ho, wo), x.requires_grad or kernels.requires_grad)

    def backward(g):
        g4 = g.reshape(b, co, ho * wo)
        gk = np.matmul(g4, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
        gcols = np.matmul(kmat.T, g4).reshape(b, c, kh, kw, ho, wo)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
        return np.ascontiguousarray(gxp[:, :, padding : padding + h, padding : padding + w]), gk

    return _record(out, (x, kernels), backward)


# ---------------------------------------------------------------------------
# The two-shard training step, in one process
# ---------------------------------------------------------------------------


def two_shard_backward(model, batch, cfg):
    """``pipeline.sharded_backward`` without a peer: shard 0, then shard 1, here.

    Each shard's alignment rows come from an untaped forward of that shard,
    each shard's part is forwarded again and back-propagated alone, and the
    gradients are summed shard 0 first. Returns the merged breakdown.
    """
    shards = pl.row_shards(batch)
    rows = []
    for shard in shards:
        fw = pl.forward_batch(model, shard, cfg)
        rows.append([fw.align_search.data, fw.align_template.data, fw.align_language.data])
    params = model.named_parameters()
    parts, grads = [], []
    for s, shard in enumerate(shards):
        for t in params.values():
            t.grad = None
        parts.append(pl.shard_backward(pl.shard_forward(model, shard, cfg), shard, cfg, len(batch), s, rows[1 - s]))
        grads.append({name: t.grad for name, t in params.items()})
    for name, t in params.items():
        g0, g1 = grads[0][name], grads[1][name]
        t.grad = g1 if g0 is None else g0 if g1 is None else g0 + g1
    return pl.merge_parts(parts, cfg)
