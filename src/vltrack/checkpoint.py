"""Binary checkpoint persistence.

Layout (all integers little-endian):

    magic "AIO1" | u32 version
    u32 config-text length | config text (canonical key=value, sorted)
    u32 param count | per param (name-sorted):
        u16 name length | name utf-8 | u8 ndim | u32 dims... | f32 payload
    u32 optimizer step | per param (same order): f32 m payload | f32 v payload
    u64 iteration counter
    u32 rng-state length | rng state json

Save -> load -> save is byte-identical; loading under a config whose model
shape disagrees with the stored snapshot fails fast. A config key retired
from the model loads when it holds the one value still built
(``RETIRED_KEYS``) and fails otherwise; a retired key that never changed a
parameter or a step is dropped whatever it holds. A save writes a
temporary file beside the target and renames it over the target, so an
interrupted save leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import Config, parse_config_text
from .errors import CheckpointError

MAGIC = b"AIO1"
VERSION = 1

# keys that must agree between the stored snapshot and the requesting config
# for the parameter table to fit the model
MODEL_SHAPE_KEYS = (
    "patch",
    "search_size",
    "template_size",
    "dim",
    "layers",
    "heads",
    "n_t",
    "align_dim",
    "head_channels",
    "vocab_file",
)

# config keys that no longer exist, each with the one value the model still
# builds, or None where no stored value ever changed a parameter or a step
# (data and run-directory settings); checkpoints written while they existed
# store them
RETIRED_KEYS = {
    "canvas": None,
    "data_dir": None,
    "focal_alpha": "2.0",
    "focal_beta": "4.0",
    "lang_pool": "mean",
    "mean_includes_cls": "true",
    "mixup_shared_linear": "true",
    "norm_placement": "post",
    "num_frames": None,
    "out_dir": None,
    "text_embed_std": "1.0",
    "token_reduce": "mean",
    "window_enabled": "true",
}


@dataclass
class CheckpointState:
    config: Config
    params: dict
    optimizer: dict
    iteration: int
    rng_state: dict


def model_signature(cfg: Config) -> dict:
    return {k: getattr(cfg, k) for k in MODEL_SHAPE_KEYS}


def _drop_retired_keys(text: str, path) -> str:
    """Drop retired keys stored at a value they allow (any, where none is named); reject any other value."""
    kept = []
    for line in text.splitlines(keepends=True):
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in RETIRED_KEYS:
            kept.append(line)
        elif RETIRED_KEYS[key] is not None and value != RETIRED_KEYS[key]:
            raise CheckpointError(
                f"{path}: retired config key {key}={value} names a model variant that no longer exists "
                f"(only {key}={RETIRED_KEYS[key]} loads)"
            )
    return "".join(kept)


def _encode_rng_state(state: dict) -> bytes:
    def normalize(value):
        if isinstance(value, dict):
            return {k: normalize(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return {"__ndarray__": value.tolist(), "dtype": value.dtype.name}
        if isinstance(value, (np.integer,)):
            return int(value)
        return value

    return json.dumps(normalize(state), sort_keys=True).encode("ascii")


def _decode_rng_state(blob: bytes) -> dict:
    def restore(value):
        if isinstance(value, dict):
            if "__ndarray__" in value:
                return np.array(value["__ndarray__"], dtype=value["dtype"])
            return {k: restore(v) for k, v in value.items()}
        return value

    return restore(json.loads(blob.decode("ascii")))


def _write_f32(fh, arr):
    """Write ``arr`` as little-endian float32 from its own buffer; a copy is made only to convert."""
    fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B"))


def save_checkpoint(path, cfg: Config, model, opt, iteration: int, rng_state: dict):
    """Write ``model``'s parameters and ``opt``'s AdamW moments (``step_count``, ``m``, ``v``)."""
    params = model.named_parameters()
    names = sorted(params)
    config_blob = cfg.to_text().encode("utf-8")
    rng_blob = _encode_rng_state(rng_state)

    # write beside the target and rename over it, so a crash mid-save leaves
    # the previous checkpoint intact
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(config_blob)))
            fh.write(config_blob)
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                data = params[name].data
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                _write_f32(fh, data)
            fh.write(struct.pack("<I", opt.step_count))
            for name in names:
                _write_f32(fh, opt.m[name])
                _write_f32(fh, opt.v[name])
            fh.write(struct.pack("<Q", iteration))
            fh.write(struct.pack("<I", len(rng_blob)))
            fh.write(rng_blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


class _Reader:
    """Reads a checkpoint's fields in order; a field past the end is a truncated checkpoint."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def _need(self, n: int):
        # checked before reading, so a corrupt length never sizes a buffer
        if n > self.size - self.fh.tell():
            raise CheckpointError(f"{self.path}: truncated checkpoint")

    def take(self, n: int) -> bytes:
        self._need(n)
        return self.fh.read(n)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape) -> np.ndarray:
        """A float32 array of ``shape`` read straight from the file, with no copy of the file held."""
        self._need(4 * math.prod(shape))
        out = np.empty(shape, dtype="<f4")
        self.fh.readinto(memoryview(out).cast("B"))
        return out


def load_checkpoint(path, expect: Config | None = None) -> CheckpointState:
    """Read a checkpoint; with ``expect`` given, reject model-shape mismatches."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    with fh:
        r = _Reader(fh, path)
        if r.take(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (config_len,) = r.unpack("<I")
        stored_cfg = parse_config_text(_drop_retired_keys(r.take(config_len).decode("utf-8"), path))
        if expect is not None and model_signature(expect) != model_signature(stored_cfg):
            stored = model_signature(stored_cfg)
            asked = model_signature(expect)
            diff = {k: (stored[k], asked[k]) for k in stored if stored[k] != asked[k]}
            raise CheckpointError(f"{path}: model shape mismatch (stored, requested): {diff}")

        (n_params,) = r.unpack("<I")
        params = {}
        for _ in range(n_params):
            (name_len,) = r.unpack("<H")
            name = r.take(name_len).decode("utf-8")
            (ndim,) = r.unpack("<B")
            params[name] = r.array(r.unpack(f"<{ndim}I"))
        (step,) = r.unpack("<I")
        m, v = {}, {}
        for name, arr in params.items():
            m[name] = r.array(arr.shape)
            v[name] = r.array(arr.shape)
        (iteration,) = r.unpack("<Q")
        (rng_len,) = r.unpack("<I")
        rng_state = _decode_rng_state(r.take(rng_len))
        trailing = r.size - fh.tell()
        if trailing:
            raise CheckpointError(f"{path}: {trailing} trailing bytes")
    return CheckpointState(
        config=stored_cfg,
        params=params,
        optimizer={"step": step, "m": m, "v": v},
        iteration=int(iteration),
        rng_state=rng_state,
    )
