"""Synthetic video-language scenarios and dataset I/O.

Each scenario is a fully seeded description of a moving geometric target,
optional distractors (including a twin: same shape, different color), and
background clutter. Generation rasterizes frames to uncompressed PPM so two
runs of the same seed produce byte-identical files. The on-disk layout
(img/%06d.ppm, groundtruth.txt, nlp.txt, meta.json) doubles as the accepted
input format for real sequences; JPEG frames work when Pillow is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import Config
from .errors import ConfigurationError, ContractError, ParseError
from .head import BBox, CropMeta
from .numcore import named_stream

PALETTE = {
    "red": (220, 45, 45),
    "green": (45, 185, 70),
    "blue": (55, 90, 225),
    "yellow": (230, 212, 50),
    "purple": (160, 60, 205),
    "orange": (240, 140, 40),
    "cyan": (60, 205, 210),
    "white": (235, 235, 235),
}
COLORS = tuple(PALETTE)
SHAPES = ("circle", "square", "triangle")
MOTIONS = ("left", "right", "up", "down", "zigzag")
GRAMMAR_WORDS = tuple(sorted(set(COLORS) | set(SHAPES) | set(MOTIONS) | {"moving"}))

BACKGROUND = (26, 28, 30)


def grammar_vocab():
    from .embedders import Vocab

    return Vocab(GRAMMAR_WORDS)


@dataclass(frozen=True)
class Scenario:
    """Seeded description of one synthetic sequence.

    ``twin_orbit`` bounds the twin's orbit radius in units of the target
    side. Training scenarios default to an occluding range (the twins
    periodically cover the target, which keeps template matching honest);
    evaluation suites should use a separated range so "which twin is
    followed" stays well defined.
    """

    seed: int
    shape: str = "circle"
    color: str = "red"
    motion: str = "right"
    distractor_count: int = 0
    twin: bool = False
    clutter: float = 0.3
    num_frames: int = 40
    canvas: int = 128
    twin_orbit: tuple = (0.7, 1.5)

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigurationError(f"unknown shape {self.shape!r}")
        if self.color not in COLORS:
            raise ConfigurationError(f"unknown color {self.color!r}")
        if self.motion not in MOTIONS:
            raise ConfigurationError(f"unknown motion {self.motion!r}")
        if not 0 <= self.distractor_count <= 4:
            raise ConfigurationError(f"distractor count {self.distractor_count} outside 0..4")
        if not 0.0 <= self.clutter <= 1.0:
            raise ConfigurationError(f"clutter level {self.clutter} outside [0, 1]")
        if self.twin and self.distractor_count < 1:
            raise ConfigurationError("a twin scenario needs at least one distractor slot")
        lo, hi = self.twin_orbit
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad twin orbit range {self.twin_orbit}")

    @property
    def prompt(self):
        return f"{self.color} {self.shape} moving {self.motion}"

    @property
    def class_word(self):
        return self.shape


@dataclass
class ObjectTrack:
    role: str  # "target" | "twin" | "distractor"
    shape: str
    color: str
    boxes: list  # per frame [cx, cy, w, h]


@dataclass
class SequenceRecord:
    """One sequence on disk: frames, per-frame target boxes, and prompts."""

    seq_id: str
    frame_paths: list
    boxes: list  # BBox per frame, image frame
    prompt: str
    class_word: str
    canvas: tuple  # (W, H)
    objects: list = field(default_factory=list)
    _frames: dict = field(default_factory=dict, repr=False)
    _visible: list | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.frame_paths)

    def visible_frames(self) -> list:
        """Indices of the frames whose box has area (w > 0 and h > 0), found once."""
        if self._visible is None:
            self._visible = [i for i, box in enumerate(self.boxes) if box.w > 0 and box.h > 0]
        return self._visible

    def frame(self, i) -> np.ndarray:
        """Frame i as uint8 (H, W, 3), cached after first load for random access."""
        if i not in self._frames:
            self._frames[i] = load_frame(self.frame_paths[i])
        return self._frames[i]

    def stream_frame(self, i) -> np.ndarray:
        """Frame i without caching it: the held frame if there is one, else a fresh decode.

        For one in-order pass, such as tracking, where no frame is read twice.
        """
        held = self._frames.get(i)
        return held if held is not None else load_frame(self.frame_paths[i])


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def _line_path(rng, motion, side, canvas, n):
    margin = side / 2 + 2.0
    lo, hi = margin, canvas - margin
    span = hi - lo
    speed = rng.uniform(1.2, min(2.2, span / max(1, n - 1)))
    travel = speed * (n - 1)
    fixed = rng.uniform(lo, hi)
    start_along = rng.uniform(lo, hi - travel)
    ts = np.arange(n)
    if motion == "right":
        return np.stack([start_along + speed * ts, np.full(n, fixed)], axis=1)
    if motion == "left":
        return np.stack([(hi + lo) - (start_along + speed * ts), np.full(n, fixed)], axis=1)
    if motion == "down":
        return np.stack([np.full(n, fixed), start_along + speed * ts], axis=1)
    if motion == "up":
        return np.stack([np.full(n, fixed), (hi + lo) - (start_along + speed * ts)], axis=1)
    # zigzag: steady horizontal drift, vertical direction flips every 5 frames
    xs = start_along + speed * ts if rng.uniform() < 0.5 else (hi + lo) - (start_along + speed * ts)
    vy = rng.uniform(1.0, 1.8)
    y = rng.uniform(lo + 8, hi - 8)
    ys = []
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    for t in range(n):
        if t and t % 5 == 0:
            sign = -sign
        y = min(hi, max(lo, y + sign * vy))
        ys.append(y)
    return np.stack([xs, np.array(ys)], axis=1)


def _orbit_path(rng, anchor_path, side, canvas, n, orbit=(0.7, 1.5)):
    """Twin trajectory: circles the target at a seeded radius, clamped inside.

    The radius stays within a 4x search crop around the target, so both
    twins are visible whenever the tracker looks.
    """
    margin = side / 2 + 1.0
    radius = rng.uniform(orbit[0] * side, orbit[1] * side)
    theta0 = rng.uniform(0, 2 * math.pi)
    omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.11)
    ts = np.arange(n)
    cx = anchor_path[:, 0] + radius * np.cos(theta0 + omega * ts)
    cy = anchor_path[:, 1] + radius * np.sin(theta0 + omega * ts)
    return np.stack([np.clip(cx, margin, canvas - margin), np.clip(cy, margin, canvas - margin)], axis=1)


def _bounce_path(rng, side, canvas, n):
    margin = side / 2 + 1.0
    pos = np.array([rng.uniform(margin, canvas - margin), rng.uniform(margin, canvas - margin)])
    angle = rng.uniform(0, 2 * math.pi)
    vel = rng.uniform(1.0, 2.4) * np.array([math.cos(angle), math.sin(angle)])
    out = np.zeros((n, 2))
    for t in range(n):
        out[t] = pos
        pos = pos + vel
        for axis in range(2):
            if pos[axis] < margin or pos[axis] > canvas - margin:
                vel[axis] = -vel[axis]
                pos[axis] = min(canvas - margin, max(margin, pos[axis]))
    return out


def build_tracks(scenario: Scenario) -> list[ObjectTrack]:
    """All object trajectories for a scenario; pure function of the seed."""
    rng = named_stream(scenario.seed, "synthdata.scenario")
    n, canvas = scenario.num_frames, scenario.canvas
    side = float(rng.uniform(16.0, 26.0))
    target_path = _line_path(rng, scenario.motion, side, canvas, n)
    tracks = [ObjectTrack("target", scenario.shape, scenario.color, [[x, y, side, side] for x, y in target_path])]

    remaining = scenario.distractor_count
    if scenario.twin and remaining:
        # every distractor slot becomes an orbiting twin with its own color;
        # orbits come close enough that twins periodically occlude the target,
        # which is what makes the prompt a better cue than the template
        other_colors = [c for c in COLORS if c != scenario.color]
        order = rng.permutation(len(other_colors))
        for k in range(remaining):
            twin_color = other_colors[int(order[k % len(other_colors)])]
            path = _orbit_path(rng, target_path, side, canvas, n, scenario.twin_orbit)
            role = "twin" if k == 0 else "distractor"
            tracks.append(ObjectTrack(role, scenario.shape, twin_color, [[x, y, side, side] for x, y in path]))
        remaining = 0
    for _ in range(remaining):
        d_side = float(rng.uniform(12.0, 24.0))
        d_shape = SHAPES[int(rng.integers(len(SHAPES)))]
        if d_shape == scenario.shape:
            choices = [c for c in COLORS if c != scenario.color]
        else:
            choices = list(COLORS)
        d_color = choices[int(rng.integers(len(choices)))]
        path = _bounce_path(rng, d_side, canvas, n)
        tracks.append(ObjectTrack("distractor", d_shape, d_color, [[x, y, d_side, d_side] for x, y in path]))
    return tracks


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------


def _shape_mask(shape, cx, cy, w, h, canvas):
    jj, ii = np.meshgrid(np.arange(canvas) + 0.5, np.arange(canvas) + 0.5)
    if shape == "circle":
        r = w / 2.0
        return (jj - cx) ** 2 + (ii - cy) ** 2 <= r * r
    if shape == "square":
        return (np.abs(jj - cx) <= w / 2.0) & (np.abs(ii - cy) <= h / 2.0)
    # upward triangle: apex at the top edge of the box, base at the bottom
    top = cy - h / 2.0
    within_rows = (ii >= top) & (ii <= cy + h / 2.0)
    half_width = (ii - top) / h * (w / 2.0)
    return within_rows & (np.abs(jj - cx) <= half_width)


def _clutter_rects(rng, scenario, target_box0):
    count = int(round(scenario.clutter * 6))
    rects = []
    tx, ty, tw, th = target_box0
    t_area = tw * th
    for _ in range(count):
        for _ in range(8):  # bounded retries to respect the overlap cap
            w = float(rng.uniform(8, 24))
            h = float(rng.uniform(8, 24))
            x = float(rng.uniform(0, scenario.canvas - w))
            y = float(rng.uniform(0, scenario.canvas - h))
            ix = max(0.0, min(x + w, tx + tw / 2) - max(x, tx - tw / 2))
            iy = max(0.0, min(y + h, ty + th / 2) - max(y, ty - th / 2))
            if ix * iy <= 0.3 * t_area:
                color = tuple(int(v) for v in rng.integers(25, 110, size=3))
                rects.append((x, y, w, h, color))
                break
    return rects


def render_frame(scenario: Scenario, tracks, clutter_rects, frame_idx) -> np.ndarray:
    canvas = scenario.canvas
    img = np.empty((canvas, canvas, 3), dtype=np.uint8)
    img[:] = BACKGROUND
    for x, y, w, h, color in clutter_rects:
        img[int(y) : int(y + h), int(x) : int(x + w)] = color
    # draw non-targets first so the target always sits on top
    for track in sorted(tracks, key=lambda tr: tr.role == "target"):
        cx, cy, w, h = track.boxes[frame_idx]
        mask = _shape_mask(track.shape, cx, cy, w, h, canvas)
        img[mask] = PALETTE[track.color]
    return img


# ---------------------------------------------------------------------------
# PPM and frame I/O
# ---------------------------------------------------------------------------


def write_ppm(path, img: np.ndarray):
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_ppm(path) -> np.ndarray:
    """A binary PPM file as uint8 (H, W, 3); a malformed header or a short payload raises ``ParseError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path} is not a binary PPM file, or its header is truncated")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ParseError(f"{path}: unsupported PPM maxval {maxval}")
    size = w * h * 3
    if len(data) - header.end() < size:
        raise ParseError(f"{path}: truncated PPM payload, {len(data) - header.end()} of {size} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=header.end()).reshape(h, w, 3).copy()


def load_frame(path) -> np.ndarray:
    """Any supported frame file as uint8 (H, W, 3), as stored.

    Frames stay uint8 until ``crop_and_resize`` gathers and normalizes the
    pixels of a crop; a float32 copy of a whole frame would be 4x larger.
    """
    path = str(path)
    if path.endswith(".ppm"):
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError as exc:
        raise ConfigurationError(f"reading {path} needs Pillow; install the 'jpeg' extra") from exc
    return np.asarray(Image.open(path).convert("RGB"), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _clip_track_box(scenario, cx, cy, w, h):
    box = BBox(cx, cy, w, h, "image").clipped(scenario.canvas, scenario.canvas, min_side=4.0)
    # quantize at the corner representation so groundtruth.txt, meta.json and
    # the in-memory record agree exactly
    x = round(box.cx - box.w / 2, 3)
    y = round(box.cy - box.h / 2, 3)
    w = round(box.w, 3)
    h = round(box.h, 3)
    return [x + w / 2, y + h / 2, w, h]


def render_sequence(scenario: Scenario):
    """All frames (uint8) and clipped object tracks; pure function of the seed."""
    tracks = build_tracks(scenario)
    clutter = _clutter_rects(named_stream(scenario.seed, "synthdata.clutter"), scenario, tracks[0].boxes[0])
    frames = [render_frame(scenario, tracks, clutter, t) for t in range(scenario.num_frames)]
    for track in tracks:
        track.boxes = [_clip_track_box(scenario, *b) for b in track.boxes]
    return frames, tracks


def memory_record(scenario: Scenario, seq_id: str = "mem") -> SequenceRecord:
    """A SequenceRecord held entirely in memory (no files written)."""
    frames, tracks = render_sequence(scenario)
    record = SequenceRecord(
        seq_id=seq_id,
        frame_paths=[f"<memory:{seq_id}:{t}>" for t in range(scenario.num_frames)],
        boxes=[BBox(*b, "image") for b in tracks[0].boxes],
        prompt=scenario.prompt,
        class_word=scenario.class_word,
        canvas=(scenario.canvas, scenario.canvas),
        objects=tracks,
    )
    record._frames.update(enumerate(frames))
    return record


def generate(scenario: Scenario, out_dir) -> None:
    """Write one sequence to ``out_dir``; ``read_lasot_format`` reads it back.

    Layout: img/%06d.ppm, groundtruth.txt (corner x,y,w,h per line), nlp.txt
    (one prompt line), meta.json (scenario parameters and every object's
    trajectory). Byte-identical for identical scenarios.
    """
    img_dir = os.path.join(out_dir, "img")
    os.makedirs(img_dir, exist_ok=True)
    frames, tracks = render_sequence(scenario)

    for t, img in enumerate(frames):
        write_ppm(os.path.join(img_dir, f"{t:06d}.ppm"), img)

    with open(os.path.join(out_dir, "groundtruth.txt"), "w", encoding="ascii") as fh:
        for b in tracks[0].boxes:
            fh.write(corner_line(BBox(*b, "image")) + "\n")
    with open(os.path.join(out_dir, "nlp.txt"), "w", encoding="ascii") as fh:
        fh.write(scenario.prompt + "\n")
    meta = {
        "canvas": scenario.canvas,
        "num_frames": scenario.num_frames,
        "prompt": scenario.prompt,
        "class_word": scenario.class_word,
        "scenario": {
            "seed": scenario.seed,
            "shape": scenario.shape,
            "color": scenario.color,
            "motion": scenario.motion,
            "distractor_count": scenario.distractor_count,
            "twin": scenario.twin,
            "clutter": scenario.clutter,
            "twin_orbit": list(scenario.twin_orbit),
        },
        "objects": [
            {"role": tr.role, "shape": tr.shape, "color": tr.color, "boxes": tr.boxes} for tr in tracks
        ],
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def build_manifest(seed: int, count: int, split: str, num_frames: int, canvas: int, twin_fraction=0.5):
    """Deterministic scenario list for one dataset split.

    Colors, shapes, and motions cycle so a small manifest still covers the
    whole grammar; twin scenarios are spread evenly at the requested
    fraction. Per-scenario seeds are derived from (seed, split, index).
    """
    twin_total = int(round(count * twin_fraction))
    scenarios = []
    for i in range(count):
        twin = (i * twin_total) // count < ((i + 1) * twin_total) // count if count else False
        distractors = i % 3
        if twin:
            # evaluation twin suites carry exactly one twin at a separated
            # orbit (the flip experiment needs an unambiguous "other"
            # object); training scenarios get several, close enough to
            # occlude, for harder same-shape negatives
            distractors = 1 if split == "twin" else 1 + i % 3
        scenarios.append(
            Scenario(
                seed=zlib.crc32(f"{seed}:{split}:{i}".encode("ascii")),
                shape=SHAPES[i % len(SHAPES)],
                color=COLORS[i % len(COLORS)],
                motion=MOTIONS[i % len(MOTIONS)],
                distractor_count=distractors,
                twin=twin,
                clutter=(0.2, 0.5, 0.8, 0.35)[i % 4],
                num_frames=num_frames,
                canvas=canvas,
                twin_orbit=(1.2, 1.7) if split == "twin" else (0.7, 1.5),
            )
        )
    return scenarios


def sequence_hash(seq_dir) -> str:
    """SHA-256 over every file in the sequence directory, path-ordered."""
    digest = hashlib.sha256()
    for root, _, files in sorted(os.walk(seq_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, seq_dir).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

_FRAME_EXTENSIONS = (".ppm", ".jpg", ".jpeg", ".png")


def corner_line(box: BBox) -> str:
    """``box`` as a corner-format "x,y,w,h" line, three decimals each."""
    return f"{box.cx - box.w / 2:.3f},{box.cy - box.h / 2:.3f},{box.w:.3f},{box.h:.3f}"


def parse_corner_line(text: str, line: int | None = None) -> BBox:
    """The center box of a corner-format "x,y,w,h" line (tabs also separate).

    A line without four finite numbers raises ``ParseError``, naming ``line``
    when given.
    """
    parts = text.replace("\t", ",").split(",")
    if len(parts) != 4:
        raise ParseError(f"expected 4 comma-separated values, got {text!r}", line=line)
    try:
        x, y, w, h = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-numeric box {text!r}", line=line) from None
    if not all(math.isfinite(v) for v in (x, y, w, h)):
        raise ParseError(f"non-finite box {text!r}", line=line)
    return BBox(x + w / 2, y + h / 2, w, h, "image")


def read_lasot_format(seq_dir) -> SequenceRecord:
    """Parse a sequence directory: img/ frames, groundtruth.txt, nlp.txt.

    Ground-truth lines are corner-format "x,y,w,h" and become center boxes.
    A missing nlp.txt degrades to an empty prompt with a warning; malformed
    ground truth raises with the offending line number.
    """
    img_dir = os.path.join(seq_dir, "img")
    if not os.path.isdir(img_dir):
        raise ParseError(f"missing img/ directory under {seq_dir}")
    frame_paths = sorted(
        os.path.join(img_dir, f) for f in os.listdir(img_dir) if f.lower().endswith(_FRAME_EXTENSIONS)
    )
    if not frame_paths:
        raise ParseError(f"no frames found under {img_dir}")

    gt_path = os.path.join(seq_dir, "groundtruth.txt")
    if not os.path.isfile(gt_path):
        raise ParseError(f"missing groundtruth.txt under {seq_dir}")
    boxes = []
    with open(gt_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                boxes.append(parse_corner_line(line, lineno))
    if not boxes:
        raise ParseError(f"{gt_path} contains no boxes")
    if len(boxes) != len(frame_paths):
        raise ParseError(f"{len(frame_paths)} frames but {len(boxes)} ground-truth boxes under {seq_dir}")

    nlp_path = os.path.join(seq_dir, "nlp.txt")
    if os.path.isfile(nlp_path):
        with open(nlp_path, encoding="utf-8") as fh:
            prompt = fh.readline().strip()
    else:
        warnings.warn(f"{seq_dir}: nlp.txt missing, using an empty prompt")
        prompt = ""

    class_word = ""
    objects = []
    meta_path = os.path.join(seq_dir, "meta.json")
    canvas = None
    if os.path.isfile(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{meta_path} is not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ParseError(f"{meta_path} holds a JSON {type(meta).__name__}, not an object")
        class_word = meta.get("class_word", "")
        side = meta.get("canvas")
        if not isinstance(class_word, str) or not (side is None or type(side) is int and side > 0):
            raise ParseError(f"{meta_path}: canvas must be a positive integer and class_word a string")
        canvas = (side, side) if side is not None else None
        try:
            objects = [ObjectTrack(o["role"], o["shape"], o["color"], o["boxes"]) for o in meta.get("objects", [])]
        except (KeyError, TypeError):
            raise ParseError(f"{meta_path}: every object entry needs a role, shape, color and boxes") from None
    if canvas is None:
        probe = load_frame(frame_paths[0])
        canvas = (probe.shape[1], probe.shape[0])

    return SequenceRecord(
        seq_id=os.path.basename(os.path.normpath(seq_dir)),
        frame_paths=frame_paths,
        boxes=boxes,
        prompt=prompt,
        class_word=class_word,
        canvas=canvas,
        objects=objects,
    )


def list_sequences(dataset_dir) -> list[str]:
    """Sequence subdirectories of a dataset root, sorted by id."""
    entries = []
    for name in sorted(os.listdir(dataset_dir)):
        path = os.path.join(dataset_dir, name)
        if os.path.isdir(path) and os.path.isdir(os.path.join(path, "img")):
            entries.append(path)
    return entries


# ---------------------------------------------------------------------------
# Cropping
# ---------------------------------------------------------------------------


def crop_and_resize(img: np.ndarray, center, side, out_size, stride=8):
    """Square crop of ``side`` pixels around ``center``, bilinearly resized.

    ``img`` is a uint8 frame or a float frame in [0, 1]; uint8 pixels are
    normalized as they are gathered, so both give bit-identical crops.
    Out-of-canvas samples are zero-filled. Returns (3, out, out) float32 and
    the CropMeta tying crop and image coordinates together.
    """
    h, w, _ = img.shape
    cx, cy = center
    x0 = cx - side / 2.0
    y0 = cy - side / 2.0
    scale = out_size / side

    xs = x0 + (np.arange(out_size) + 0.5) / scale - 0.5
    ys = y0 + (np.arange(out_size) + 0.5) / scale - 0.5
    xi = np.floor(xs).astype(np.int64)
    yi = np.floor(ys).astype(np.int64)
    fx = (xs - xi).astype(np.float32)[None, :, None]
    fy = (ys - yi).astype(np.float32)[:, None, None]

    def gather(ii, jj):
        valid = ((ii >= 0) & (ii < h)).astype(np.float32)[:, None, None] * (
            (jj >= 0) & (jj < w)
        ).astype(np.float32)[None, :, None]
        # rows, then columns: two axis takes copy the same pixels as one
        # (ii, jj) fancy index, several times faster
        block = img.take(np.clip(ii, 0, h - 1), axis=0).take(np.clip(jj, 0, w - 1), axis=1)
        if block.dtype == np.uint8:
            block = block.astype(np.float32) / 255.0
        return block * valid

    p00 = gather(yi, xi)
    p01 = gather(yi, xi + 1)
    p10 = gather(yi + 1, xi)
    p11 = gather(yi + 1, xi + 1)
    out = (1 - fy) * ((1 - fx) * p00 + fx * p01) + fy * ((1 - fx) * p10 + fx * p11)
    return out.transpose(2, 0, 1).astype(np.float32), CropMeta(x0=x0, y0=y0, scale=scale, stride=stride)


def crop_side_for(box: BBox, factor: float) -> float:
    """Square crop side: factor times the geometric mean of the box sides."""
    return factor * math.sqrt(box.w * box.h)


@dataclass
class TrainSample:
    template: np.ndarray  # (3, Hz, Wz)
    search: np.ndarray  # (3, Hx, Wx)
    prompt: str
    gt_box: BBox  # search-crop frame
    meta: CropMeta


def _frame_pair(record: SequenceRecord, rng: np.random.Generator):
    """Distinct (template, search) frame indices, uniformly drawn from the visible frames."""
    visible = record.visible_frames()
    n = len(visible)
    if n < 2:
        raise ConfigurationError(f"sequence {record.seq_id} has {n} frames with a visible target; need at least 2")
    t_pos = int(rng.integers(n))
    s_pos = int(rng.integers(n - 1))
    if s_pos >= t_pos:
        s_pos += 1
    return visible[t_pos], visible[s_pos]


def _target_template(record: SequenceRecord, t_idx: int, cfg: Config) -> np.ndarray:
    t_box = record.boxes[t_idx]
    template, _ = crop_and_resize(
        record.frame(t_idx), (t_box.cx, t_box.cy), crop_side_for(t_box, 2.0), cfg.template_size, cfg.patch
    )
    return template


def sample_pair(record: SequenceRecord, rng: np.random.Generator, cfg: Config) -> TrainSample:
    """Draw a training pair from one sequence.

    Template: 2x crop around a random frame's box. Search: 4x crop around a
    different frame's box, center jittered by up to ``cfg.jitter`` of the
    box size per axis. The ground-truth box is mapped into search-crop
    pixels. Crops are ``cfg.template_size`` and ``cfg.search_size`` pixels
    on a ``cfg.patch`` stride, and ``cfg.train_prompt`` picks the prompt.
    """
    t_idx, s_idx = _frame_pair(record, rng)
    template = _target_template(record, t_idx, cfg)
    s_box = record.boxes[s_idx]
    jx = float(rng.uniform(-cfg.jitter, cfg.jitter)) * s_box.w
    jy = float(rng.uniform(-cfg.jitter, cfg.jitter)) * s_box.h
    search, meta = crop_and_resize(
        record.frame(s_idx), (s_box.cx + jx, s_box.cy + jy), crop_side_for(s_box, 4.0), cfg.search_size, cfg.patch
    )
    prompt = record.prompt if cfg.train_prompt == "sentence" else record.class_word
    return TrainSample(template, search, prompt, meta.box_to_crop(s_box), meta)


# ---------------------------------------------------------------------------
# Prompt-swap pairs
# ---------------------------------------------------------------------------


def _word_pattern(word: str):
    # a word is a maximal lowercase alphanumeric run, as the tokenizer reads it
    return re.compile(rf"(?<![a-z0-9]){re.escape(word)}(?![a-z0-9])", re.IGNORECASE)


def swap_color(prompt: str, old: str, new: str) -> str:
    """``prompt`` with every occurrence of the color word ``old`` replaced by ``new``.

    Only whole words match ("red" in "tired red circle" is replaced once, not
    inside "tired"). Raises ContractError when ``old`` is not a word of the
    prompt, since the swap would leave the prompt unchanged.
    """
    swapped, count = _word_pattern(old).subn(new, prompt)
    if not count:
        raise ContractError(f"color word {old!r} does not occur in prompt {prompt!r}")
    return swapped


def swap_partners(record: SequenceRecord) -> list:
    """Objects a color-swapped sentence prompt can designate instead of the target.

    These are the objects with the target's shape and a different color, and
    only when the prompt names the target's color. Records without object
    metadata (real sequences) have none.
    """
    target = next((o for o in record.objects if o.role == "target"), None)
    if target is None or not _word_pattern(target.color).search(record.prompt):
        return []
    return [o for o in record.objects if o is not target and o.shape == target.shape and o.color != target.color]


def sample_swap_pair(record: SequenceRecord, rng: np.random.Generator, other: ObjectTrack, cfg: Config) -> TrainSample:
    """Draw a pair whose prompt designates ``other`` while the template shows the target.

    The template and the crop settings from ``cfg`` are those of
    ``sample_pair``. The prompt is the sequence prompt with the target's
    color word replaced by ``other``'s, and the ground truth is ``other``'s
    box in the search frame. The 4x search crop (sized by that box) is
    centered, jittered as in ``sample_pair``, on the target or on ``other``
    with equal odds; when ``other``'s center would fall outside a
    target-centered crop, the crop is centered on ``other`` instead.
    """
    target = next(o for o in record.objects if o.role == "target")
    t_idx, s_idx = _frame_pair(record, rng)
    template = _target_template(record, t_idx, cfg)
    gt = BBox(*other.boxes[s_idx], "image")
    side = crop_side_for(gt, 4.0)
    anchor = record.boxes[s_idx] if rng.uniform() < 0.5 else gt
    fx = float(rng.uniform(-cfg.jitter, cfg.jitter))
    fy = float(rng.uniform(-cfg.jitter, cfg.jitter))
    center = (anchor.cx + fx * anchor.w, anchor.cy + fy * anchor.h)
    if max(abs(gt.cx - center[0]), abs(gt.cy - center[1])) >= side / 2.0:
        center = (gt.cx + fx * gt.w, gt.cy + fy * gt.h)
    search, meta = crop_and_resize(record.frame(s_idx), center, side, cfg.search_size, cfg.patch)
    prompt = swap_color(record.prompt, target.color, other.color)
    return TrainSample(template, search, prompt, meta.box_to_crop(gt), meta)
