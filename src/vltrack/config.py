"""Run configuration: desk-scale defaults, flat key=value files, overrides.

The file format is plain ``key=value`` lines with ``#`` comments so diffs of
experiment configs stay readable; no parser dependency. Unknown keys are
rejected. CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass
class Config:
    # reproducibility
    seed: int = 0

    # geometry and model size (desk profile; full-scale values remain valid)
    patch: int = 8
    search_size: int = 64
    template_size: int = 32
    dim: int = 96
    layers: int = 4
    heads: int = 4
    n_t: int = 16
    align_dim: int = 64
    head_channels: str = "64,32,16"

    # losses
    tau: float = 0.5
    denominator_mode: str = "standard"  # "standard" | "literal"
    lambda_giou: float = 2.0
    lambda_l1: float = 5.0
    lambda_cma: float = 1.0
    lambda_ima: float = 1.0

    # training recipe
    lr: float = 4e-4
    weight_decay: float = 1e-4
    iters: int = 2000
    batch_size: int = 8
    clip_norm: float = 1.0
    jitter: float = 0.25
    log_every: int = 10
    checkpoint_every: int = 500
    train_prompt: str = "sentence"  # "sentence" | "class"

    # evaluation / inference
    eval_prompt: str = "sentence"
    window_weight: float = 0.49  # 0.0 turns the Hanning window off

    # ablations: "none" | "no-mma" (contrastive terms not computed) |
    # "vision-only" (additionally skips the language mixup)
    ablate: str = "none"

    # data
    vocab_file: str = ""  # empty: the generator grammar's builtin vocab

    def __post_init__(self):
        self.validate()

    def validate(self):
        sizes = (self.patch, self.search_size, self.template_size)
        if min(sizes) <= 0 or self.search_size % self.patch or self.template_size % self.patch:
            raise ConfigurationError("search_size and template_size must be positive multiples of a positive patch")
        if self.layers < 0 or self.heads < 1:
            raise ConfigurationError(f"invalid layer/head counts {self.layers}/{self.heads}")
        if self.dim < 1 or self.align_dim < 1:
            raise ConfigurationError(f"dim and align_dim must be positive, got {self.dim}/{self.align_dim}")
        if self.dim % self.heads:
            raise ConfigurationError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")
        for name in ("lambda_giou", "lambda_l1", "lambda_cma", "lambda_ima"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        for name, allowed in (
            ("denominator_mode", ("standard", "literal")),
            ("train_prompt", ("sentence", "class")),
            ("eval_prompt", ("sentence", "class")),
            ("ablate", ("none", "no-mma", "vision-only")),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigurationError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.iters < 0 or min(self.batch_size, self.log_every, self.checkpoint_every) < 1:
            raise ConfigurationError(
                f"iters must be non-negative and batch_size, log_every and checkpoint_every positive, got "
                f"{self.iters}/{self.batch_size}/{self.log_every}/{self.checkpoint_every}"
            )
        if self.batch_size < 2 and self.ablate == "none" and (self.lambda_cma > 0 or self.lambda_ima > 0):
            raise ConfigurationError("contrastive losses need batch_size >= 2")
        self.head_channel_plan  # validates the channel string
        if self.n_t < 2:
            raise ConfigurationError("n_t must be at least 2")

    @property
    def head_channel_plan(self):
        try:
            plan = tuple(int(v) for v in self.head_channels.split(","))
        except ValueError:
            raise ConfigurationError(f"bad head_channels {self.head_channels!r}") from None
        if len(plan) != 3 or any(c <= 0 for c in plan):
            raise ConfigurationError(f"head_channels needs 3 positive widths, got {self.head_channels!r}")
        return plan

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)

    def to_text(self) -> str:
        """Canonical serialization: sorted keys, one per line."""
        names = sorted(f.name for f in dataclasses.fields(self))
        return "".join(f"{name}={getattr(self, name)}\n" for name in names)


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}


def _parse_value(field, raw: str):
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    return raw


def parse_config_text(text: str, base: Config | None = None) -> Config:
    values = dataclasses.asdict(base) if base is not None else {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        field = _FIELDS.get(key)
        if field is None:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(field, raw)
        except ValueError:
            raise ConfigurationError(f"config line {lineno}: {key} takes {field.type} values, got {raw!r}") from None
    return Config(**values)


def load_config(path, base: Config | None = None) -> Config:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)
