"""Output checks of the benchmark. Each returns a verdict; none raises on bad output."""

from __future__ import annotations

import math

ORACLE_METRICS = ("P", "P_norm", "AUC", "cAUC", "ACC")


def box_ok(box, canvas) -> bool:
    """A finite, positive-size box lying inside the (W, H) canvas."""
    if not all(math.isfinite(v) for v in (box.cx, box.cy, box.w, box.h)):
        return False
    if box.w <= 0 or box.h <= 0:
        return False
    x1, y1, x2, y2 = box.to_xyxy()
    return x1 >= 0 and y1 >= 0 and x2 <= canvas[0] and y2 <= canvas[1]


def failed_frames(preds, record) -> int:
    """Tracked frames (all but the initial one) without exactly one valid box.

    A prediction list of the wrong length fails every tracked frame, since no
    frame can be matched to its box.
    """
    tracked = len(record) - 1
    if len(preds) != len(record):
        return tracked
    return sum(not box_ok(box, record.canvas) for box in preds[1:])


def step_ok(breakdown) -> bool:
    """A train step whose loss components and gradient norm are all finite."""
    return breakdown is not None and all(math.isfinite(v) for v in breakdown.values())


def loss_trend(losses) -> tuple[bool, str]:
    """The mean loss of the last 10 steps must be below that of the first 10."""
    if len(losses) < 20:
        return False, f"only {len(losses)} steps; need 20"
    first = sum(losses[:10]) / 10
    last = sum(losses[-10:]) / 10
    return last < first, f"first-10 mean {first:.4f}, last-10 mean {last:.4f}"


def gradcheck_failures(report) -> int:
    """Loss-gradient checks in a gradient_fidelity report that did not pass."""
    return sum(not entry["passed"] for entry in report["losses"].values())


def oracle_ok(summary) -> tuple[bool, str]:
    """Ground truth scored against itself must give exactly 1.0 on every metric."""
    off = {k: summary.get(k) for k in ORACLE_METRICS if summary.get(k) != 1.0}
    return not off, "all metrics 1.0" if not off else f"metrics not 1.0: {off}"
