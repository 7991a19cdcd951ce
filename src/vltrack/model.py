"""The full tracker: embedders + alignment projections + backbone + head.

Owns every learnable tensor under a stable dotted name so the optimizer and
the checkpoint format can address parameters without knowing the structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .align import AlignProjections, init_align, project_pool
from .backbone import BackboneParams, init_backbone
from .config import Config
from .embedders import Vocab, patch_embed, reduce_language
from .errors import CheckpointError, VocabularyError
from .head import HeadOutput, HeadParams, head_forward, init_head
from .numcore import Tensor, named_stream, truncated_normal

# word-embedding init scale; sized so the reduced language vector and the
# mixup gate carry O(1) signal into the vision streams from step one
TEXT_EMBED_STD = 1.0


@dataclass
class ForwardResult:
    head: HeadOutput
    align_search: Tensor  # (B, C)
    align_template: Tensor  # (B, C)
    align_language: Tensor  # (B, C)
    search_tokens: Tensor  # (B, N_x, D)
    template_tokens: Tensor  # (B, N_z, D)


class TrackerModel:
    def __init__(self, cfg: Config, vocab: Vocab):
        self.cfg = cfg
        self.vocab = vocab

        rng = named_stream(cfg.seed, "init.embed")
        n_search = (cfg.search_size // cfg.patch) ** 2
        n_template = (cfg.template_size // cfg.patch) ** 2
        self.patch_proj = Tensor(truncated_normal(rng, (3 * cfg.patch * cfg.patch, cfg.dim)), requires_grad=True)
        self.pos_search = Tensor(
            rng.normal(0.0, 0.02, size=(n_search, cfg.dim)).astype(np.float32), requires_grad=True
        )
        self.pos_template = Tensor(
            rng.normal(0.0, 0.02, size=(n_template, cfg.dim)).astype(np.float32), requires_grad=True
        )
        self.text_table = Tensor(
            truncated_normal(rng, (vocab.size, cfg.dim), std=TEXT_EMBED_STD), requires_grad=True
        )

        self.backbone: BackboneParams = init_backbone(cfg.dim, cfg.layers, cfg.seed)
        self.align: AlignProjections = init_align(cfg.dim, cfg.align_dim, cfg.seed)
        self.head: HeadParams = init_head(cfg.dim, cfg.seed, channels=cfg.head_channel_plan)

    # -- parameter registry -------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {
            "embed.patch_proj": self.patch_proj,
            "embed.pos_search": self.pos_search,
            "embed.pos_template": self.pos_template,
            "embed.text_table": self.text_table,
            "mixup.weight": self.backbone.mixup.weight,
            "mixup.bias": self.backbone.mixup.bias,
        }
        for i, layer in enumerate(self.backbone.layers):
            for tag in ("q", "k", "v", "o", "ffn1", "ffn2"):
                lin = getattr(layer, tag)
                params[f"enc{i}.{tag}.weight"] = lin.weight
                params[f"enc{i}.{tag}.bias"] = lin.bias
            params[f"enc{i}.ln1.gain"] = layer.ln1_gain
            params[f"enc{i}.ln1.bias"] = layer.ln1_bias
            params[f"enc{i}.ln2.gain"] = layer.ln2_gain
            params[f"enc{i}.ln2.bias"] = layer.ln2_bias
        for tag in ("search", "template", "language"):
            lin = getattr(self.align, tag)
            params[f"align.{tag}.weight"] = lin.weight
            params[f"align.{tag}.bias"] = lin.bias
        for tag in ("score", "offset", "size"):
            branch = getattr(self.head, tag)
            for j, conv in enumerate(branch.convs):
                params[f"head.{tag}.conv{j}.kernels"] = conv.kernels
                params[f"head.{tag}.conv{j}.bias"] = conv.bias
        return params

    def load_state(self, arrays: dict[str, np.ndarray]):
        params = self.named_parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise CheckpointError(f"parameter table mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, tensor in params.items():
            arr = arrays[name]
            if tuple(arr.shape) != tuple(tensor.shape):
                raise CheckpointError(f"{name}: stored shape {arr.shape} != model shape {tuple(tensor.shape)}")
            tensor.data = np.ascontiguousarray(arr, dtype=tensor.data.dtype)

    def astype(self, dtype) -> "TrackerModel":
        """Structural clone with parameters cast to ``dtype`` (for checking)."""
        clone = TrackerModel(self.cfg, self.vocab)
        for name, tensor in clone.named_parameters().items():
            tensor.data = self.named_parameters()[name].data.astype(dtype)
        return clone

    # -- forward ------------------------------------------------------------

    def embed_inputs(self, search, template, ids):
        dtype = self.patch_proj.dtype
        h0x = patch_embed(Tensor(search, dtype=dtype), self.cfg.patch, self.patch_proj, self.pos_search)
        h0z = patch_embed(Tensor(template, dtype=dtype), self.cfg.patch, self.patch_proj, self.pos_template)
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.text_table.shape[0])]
        if bad.size:
            raise VocabularyError(f"token id {int(bad[0])} outside the embedding table")
        h0t = nc.take_rows(self.text_table, ids)
        return h0x, h0z, h0t

    def forward(self, search, template, ids, mask, use_language: bool = True) -> ForwardResult:
        """Full pass: embed, align, mixup + encoder stack, head.

        Inputs are batched numpy arrays: images (B, 3, H, W) in [0, 1], ids
        and mask (B, N_t). ``use_language=False`` runs the vision-only path
        (no mixup), which equals a zero-gate forward bit for bit.
        """
        from . import backbone as bb

        h0x, h0z, h0t = self.embed_inputs(search, template, ids)
        fx = project_pool(h0x, self.align.search)
        fz = project_pool(h0z, self.align.template)
        ft = project_pool(h0t, self.align.language, mask=mask)
        reduced = None
        if use_language:
            reduced = reduce_language(h0t, mask)
        sx, sz = bb.forward(h0x, h0z, reduced, self.backbone, self.cfg.heads)
        out = head_forward(sx, self.head)
        return ForwardResult(out, fx, fz, ft, sx, sz)
