"""Tracking head: score/offset/size maps over the search grid, losses, decode.

Last-layer search tokens are reshaped to a 2-d feature map and fed to three
parallel branches of depth four (Conv3x3+ReLU trunks ending in sigmoid heads
of 1, 2, and 2 channels). Training reads the regression maps at the true
center cell; inference takes the score argmax, optionally blended with a
Hanning window, and undoes the crop transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ConfigurationError, ContractError
from .numcore import Tensor, named_stream, truncated_normal


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box (cx, cy, w, h) in pixels of a stated coordinate frame."""

    cx: float
    cy: float
    w: float
    h: float
    frame: str = "image"  # "image" or "search-crop"

    def to_xyxy(self):
        return (self.cx - self.w / 2, self.cy - self.h / 2, self.cx + self.w / 2, self.cy + self.h / 2)

    @classmethod
    def from_xyxy(cls, x1, y1, x2, y2, frame="image"):
        return cls((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1, frame)

    def clipped(self, width, height, min_side=1.0):
        """Clip to [0, width] x [0, height]; the only step where clipping happens."""
        x1, y1, x2, y2 = self.to_xyxy()
        x1, y1 = max(0.0, x1), max(0.0, y1)
        x2, y2 = min(float(width), x2), min(float(height), y2)
        if x2 - x1 < min_side:
            x2 = min(float(width), x1 + min_side)
            x1 = x2 - min_side
        if y2 - y1 < min_side:
            y2 = min(float(height), y1 + min_side)
            y1 = y2 - min_side
        return BBox.from_xyxy(x1, y1, x2, y2, self.frame)


@dataclass(frozen=True)
class CropMeta:
    """Affine between image and crop frames: crop = (image - origin) * scale."""

    x0: float
    y0: float
    scale: float
    stride: int

    def box_to_crop(self, b: BBox) -> BBox:
        return BBox((b.cx - self.x0) * self.scale, (b.cy - self.y0) * self.scale, b.w * self.scale, b.h * self.scale, "search-crop")

    def box_to_image(self, b: BBox) -> BBox:
        return BBox(b.cx / self.scale + self.x0, b.cy / self.scale + self.y0, b.w / self.scale, b.h / self.scale, "image")


@dataclass
class ConvParams:
    kernels: Tensor  # (out, in, 3, 3)
    bias: Tensor  # (out,)


@dataclass
class BranchParams:
    convs: list[ConvParams]


@dataclass
class HeadParams:
    score: BranchParams
    offset: BranchParams
    size: BranchParams


@dataclass
class HeadOutput:
    """Per-cell maps over the GxG search grid, each in (0, 1) after sigmoid."""

    score: Tensor  # (B, 1, G, G)
    offset: Tensor  # (B, 2, G, G)
    size: Tensor  # (B, 2, G, G)

    @property
    def grid(self):
        return self.score.shape[-1]


def _init_branch(rng, d_in, channels, out_channels) -> BranchParams:
    convs = []
    widths = [d_in, *channels, out_channels]
    for cin, cout in zip(widths[:-1], widths[1:]):
        convs.append(
            ConvParams(
                kernels=Tensor(truncated_normal(rng, (cout, cin, 3, 3), std=0.02), requires_grad=True),
                bias=Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True),
            )
        )
    return BranchParams(convs)


def init_head(dim: int, seed: int, channels) -> HeadParams:
    rng = named_stream(seed, "init.head")
    return HeadParams(
        score=_init_branch(rng, dim, channels, 1),
        offset=_init_branch(rng, dim, channels, 2),
        size=_init_branch(rng, dim, channels, 2),
    )


def _run_branch(fmap: Tensor, branch: BranchParams) -> Tensor:
    x = fmap
    last = len(branch.convs) - 1
    for i, conv in enumerate(branch.convs):
        bias = nc.reshape(conv.bias, (conv.bias.shape[0], 1, 1))
        x = nc.conv2d(x, conv.kernels, stride=1, padding=1) + bias
        x = nc.sigmoid(x) if i == last else nc.relu(x)
    return x


def head_forward(sx: Tensor, params: HeadParams) -> HeadOutput:
    """Map search tokens (B, N_x, D) to score/offset/size maps."""
    b, n, d = sx.shape
    g = math.isqrt(n)
    if g * g != n:
        raise ConfigurationError(f"search token count {n} is not a square grid")
    fmap = nc.transpose(nc.reshape(sx, (b, g, g, d)), (0, 3, 1, 2))
    score = _run_branch(fmap, params.score)
    offset = _run_branch(fmap, params.offset)
    size = _run_branch(fmap, params.size)
    return HeadOutput(score, offset, size)


# ---------------------------------------------------------------------------
# Targets and losses
# ---------------------------------------------------------------------------


def gaussian_target(center_cell, grid: int, sigma: float | None = None) -> np.ndarray:
    """Heatmap (1, G, G) with 1 exactly at the center cell, squared-distance decay."""
    if sigma is None:
        sigma = max(1.0, grid / 16.0)
    i0, j0 = center_cell
    ii, jj = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    d2 = (ii - i0) ** 2 + (jj - j0) ** 2
    heat = np.exp(-d2 / (2.0 * sigma * sigma)).astype(np.float32)
    heat[i0, j0] = 1.0
    return heat[None]


def focal_loss(score: Tensor, target, alpha: float = 2.0, beta: float = 4.0) -> Tensor:
    """Center-point focal loss with Gaussian-weighted negatives.

    At cells where the target equals 1: (1-p)^alpha * log p; elsewhere:
    (1-y)^beta * p^alpha * log(1-p). Normalized by the positive-cell count
    (at least 1) per sample, averaged over the batch. Probabilities are
    clamped to [1e-6, 1 - 1e-6] so saturated predictions stay finite.
    """
    score = nc.as_tensor(score)
    y = np.asarray(target, dtype=score.data.dtype)
    if y.shape != tuple(score.shape):
        raise ContractError(f"target shape {y.shape} != score shape {tuple(score.shape)}")
    b = score.shape[0]
    pos = (y >= 1.0).astype(score.data.dtype)
    neg = 1.0 - pos
    n_pos = np.maximum(1.0, pos.reshape(b, -1).sum(axis=1))

    p = nc.clip(score, 1e-6, 1.0 - 1e-6)
    pos_term = Tensor(pos, dtype=score.dtype) * (1.0 - p) ** alpha * nc.log(p)
    neg_w = (neg * (1.0 - y) ** beta).astype(score.data.dtype)
    neg_term = Tensor(neg_w, dtype=score.dtype) * p**alpha * nc.log(1.0 - p)
    per_cell = pos_term + neg_term
    per_sample = nc.tensor_sum(nc.reshape(per_cell, (b, -1)), axis=1)
    normalized = per_sample / Tensor(n_pos, dtype=score.dtype)
    return -nc.mean(normalized)


def _giou_terms(pred: Tensor, gt: Tensor):
    """1 - GIoU per row for (..., 4) cxcywh boxes."""
    def corners(t):
        cx = nc.narrow(t, -1, 0, 1)
        cy = nc.narrow(t, -1, 1, 1)
        w = nc.narrow(t, -1, 2, 1)
        h = nc.narrow(t, -1, 3, 1)
        return cx - w * 0.5, cy - h * 0.5, cx + w * 0.5, cy + h * 0.5, w * h

    px1, py1, px2, py2, p_area = corners(pred)
    gx1, gy1, gx2, gy2, g_area = corners(gt)
    iw = nc.relu(nc.minimum(px2, gx2) - nc.maximum(px1, gx1))
    ih = nc.relu(nc.minimum(py2, gy2) - nc.maximum(py1, gy1))
    inter = iw * ih
    union = p_area + g_area - inter
    iou = inter / union
    hull = (nc.maximum(px2, gx2) - nc.minimum(px1, gx1)) * (nc.maximum(py2, gy2) - nc.minimum(py1, gy1))
    giou = iou - (hull - union) / hull
    return 1.0 - giou


def giou_loss_tensor(pred: Tensor, gt) -> Tensor:
    """Mean 1 - GIoU over (B, 4) cxcywh boxes; differentiable w.r.t. ``pred``."""
    pred = nc.as_tensor(pred)
    gt = nc.as_tensor(gt, dtype=np.float32) if not isinstance(gt, Tensor) else gt
    return nc.mean(_giou_terms(pred, gt))


def l1_loss_tensor(pred: Tensor, gt) -> Tensor:
    """Mean absolute difference over the 4 coordinates (and the batch)."""
    pred = nc.as_tensor(pred)
    gt = nc.as_tensor(gt, dtype=np.float32) if not isinstance(gt, Tensor) else gt
    return nc.mean(nc.absolute(pred - gt))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def hanning2d(grid: int) -> np.ndarray:
    win = np.hanning(grid)
    return np.outer(win, win).astype(np.float32)


def decode(out: HeadOutput, crop_meta: CropMeta, window_weight: float = 0.0, image_size=None) -> BBox:
    """Pick the score peak and assemble the box in the image frame.

    The window, when weighted, is blended as (1-w)*score + w*hanning before
    the argmax; ties break to the first cell in row-major order. Offsets are
    fractions of a cell, sizes fractions of the search crop. The box is
    mapped back through ``crop_meta`` and clipped to ``image_size`` (W, H)
    when given - the only clipping step.
    """
    if out.score.ndim != 4 or out.score.shape[0] != 1:
        raise ContractError(f"decode expects one sample's (1, C, G, G) maps, got {tuple(out.score.shape)}")
    score, offset, size = out.score.data[0], out.offset.data[0], out.size.data[0]
    g = score.shape[-1]
    blended = score[0]
    if window_weight:
        blended = (1.0 - window_weight) * blended + window_weight * hanning2d(g)
    flat_idx = int(np.argmax(blended))
    i, j = divmod(flat_idx, g)
    stride = crop_meta.stride
    crop_side = g * stride
    cx = (j + float(offset[0, i, j])) * stride
    cy = (i + float(offset[1, i, j])) * stride
    w = float(size[0, i, j]) * crop_side
    h = float(size[1, i, j]) * crop_side
    box = crop_meta.box_to_image(BBox(cx, cy, w, h, "search-crop"))
    if image_size is not None:
        box = box.clipped(image_size[0], image_size[1])
    return box
