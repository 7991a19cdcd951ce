"""Input embedders: image patches, text tokens, and language reduction.

Images are patchified in raster order and linearly projected; prompts go
through a deterministic lowercase word tokenizer over a fixed vocabulary (no
external tokenizer assets), are [CLS]-prefixed, and embedded by table lookup.
All functions are pure over immutable parameter tensors and take a leading
batch axis; a single sample is a batch of one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ConfigurationError, ContractError, ShapeMismatchError
from .numcore import Tensor

PAD_ID = 0
CLS_ID = 1
UNK_ID = 2
RESERVED = 3

_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Vocab:
    """Word list with dense ids; 0/1/2 are reserved for [PAD]/[CLS]/[UNK]."""

    words: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for i, word in enumerate(self.words):
            if word != word.lower():
                raise ConfigurationError(f"vocab word {word!r} is not lowercase")
            if word in index:
                raise ConfigurationError(f"duplicate vocab word {word!r}")
            index[word] = RESERVED + i
        object.__setattr__(self, "_index", index)

    @property
    def size(self):
        return RESERVED + len(self.words)

    def id_of(self, word: str) -> int:
        return self._index.get(word, UNK_ID)

    @classmethod
    def load(cls, path):
        """Vocab file format: one token per line, line number = id - 3."""
        with open(path, encoding="utf-8") as fh:
            words = [line.strip() for line in fh if line.strip()]
        return cls(tuple(words))


@dataclass(frozen=True)
class TokenizedPrompt:
    """Fixed-length id sequence for one prompt; ids[0] is always [CLS]."""

    ids: tuple[int, ...]
    mask: tuple[int, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.mask):
            raise ContractError("ids and mask lengths differ")
        if not self.ids or self.ids[0] != CLS_ID:
            raise ContractError("tokenized prompt must start with [CLS]")


def tokenize(prompt: str, vocab: Vocab, n_tokens: int) -> TokenizedPrompt:
    """Lowercase, strip punctuation, split on whitespace, map to ids.

    Prepends [CLS], truncates to ``n_tokens`` and pads with [PAD] (mask 0).
    Unknown words map to [UNK].
    """
    if n_tokens < 2:
        raise ContractError(f"n_tokens must be at least 2, got {n_tokens}")
    words = _WORD_RE.findall(prompt.lower())
    ids = [CLS_ID] + [vocab.id_of(w) for w in words]
    ids = ids[:n_tokens]
    mask = [1] * len(ids)
    while len(ids) < n_tokens:
        ids.append(PAD_ID)
        mask.append(0)
    return TokenizedPrompt(tuple(ids), tuple(mask))


def patch_embed(img: Tensor, patch: int, proj: Tensor, pos: Tensor) -> Tensor:
    """Patchify, project to the token dimension, and add positional embeddings.

    ``img`` is (B, 3, H, W) with H, W divisible by ``patch``; ``proj`` is
    (3 * patch**2, D) and ``pos`` (N, D) for the N patches of the image. The
    result is (B, N, D). Patches are taken in raster order; each is flattened
    channel-major so token k is the dot product of patch k with the
    projection columns.
    """
    img = nc.as_tensor(img)
    if img.ndim != 4:
        raise ShapeMismatchError(f"patch_embed expects a (B, 3, H, W) image batch, got shape {tuple(img.shape)}")
    b, c, h, w = img.shape
    p = patch
    if h % p or w % p:
        raise ConfigurationError(f"image {h}x{w} is not divisible by patch size {p}")
    gh, gw = h // p, w // p
    n = gh * gw
    d = proj.shape[-1]
    if proj.shape != (3 * p * p, d):
        raise ConfigurationError(f"projection shape {tuple(proj.shape)} != ({3 * p * p}, {d})")
    if pos.shape != (n, d):
        raise ConfigurationError(f"positional table shape {tuple(pos.shape)} != ({n}, {d})")

    x = nc.reshape(img, (b, c, gh, p, gw, p))
    x = nc.transpose(x, (0, 2, 4, 1, 3, 5))  # (b, gh, gw, c, p, p)
    x = nc.reshape(x, (b, n, c * p * p))
    return x @ proj + pos


def reduce_language(tokens: Tensor, mask) -> Tensor:
    """Collapse language tokens (B, N_t, D) to one vector per prompt, (B, D).

    Returns the mask-weighted mean of the rows, [CLS] included; padded rows
    never contribute.
    """
    tokens = nc.as_tensor(tokens)
    b, n, _ = tokens.shape
    m = np.asarray(mask, dtype=tokens.data.dtype).reshape(b, n)
    counts = m.sum(axis=1)
    if np.any(counts <= 0):
        raise ContractError("mean reduction needs at least one masked-in token")
    weighted = tokens * Tensor(m[:, :, None], dtype=tokens.dtype)
    return nc.tensor_sum(weighted, axis=1) / Tensor(counts[:, None], dtype=tokens.dtype)
