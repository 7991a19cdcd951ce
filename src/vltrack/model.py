"""The full tracker: embedders + alignment projections + backbone + head.

Owns every learnable tensor under a stable dotted name so the optimizer and
the checkpoint format can address parameters without knowing the structure.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .align import AlignProjections, init_align, project_pool
from .backbone import BackboneParams, init_backbone
from .config import Config
from .embedders import Vocab, patch_embed, reduce_language
from .errors import CheckpointError, ContractError, VocabularyError
from .head import HeadOutput, HeadParams, head_forward, init_head
from .numcore import Tensor, named_stream, truncated_normal

# word-embedding init scale; sized so the reduced language vector and the
# mixup gate carry O(1) signal into the vision streams from step one
TEXT_EMBED_STD = 1.0


@dataclass
class ForwardResult:
    """The outputs of one forward, and the stage outputs ``TrackerModel.resume`` starts from."""

    inputs: tuple  # the raw (search, template, ids) the forward embedded
    mask: np.ndarray  # (B, N_t) prompt mask
    layer_inputs: list | None  # (B, N_x + N_z, D) joint tokens each encoder layer reads, kept under a tape
    streams: tuple | None = None  # embedded (search, template, text) tokens
    reduced: Tensor | None = None  # (B, D) reduced prompt; None on the vision-only path
    head: HeadOutput | None = None
    align_search: Tensor | None = None  # (B, C)
    align_template: Tensor | None = None  # (B, C)
    align_language: Tensor | None = None  # (B, C)
    search_tokens: Tensor | None = None  # (B, N_x, D)
    template_tokens: Tensor | None = None  # (B, N_z, D)


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

    def stage_of(self, name: str) -> str:
        """The first forward stage that parameter ``name`` feeds, named by its registry prefix.

        "mixup", "enc{i}", "align" or "head"; "embed", the whole forward,
        for the embedding and for any name without a stage of its own.
        """
        prefix = name.split(".", 1)[0]
        stages = {"mixup", "align", "head"} | {f"enc{i}" for i in range(len(self.backbone.layers))}
        return prefix if prefix in stages else "embed"

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
        """Structural clone with parameters cast to ``dtype`` (for checking).

        The clone shares ``cfg`` and ``vocab`` and owns a cast copy of each
        parameter; it draws nothing from the init streams.
        """
        memo = {id(self.cfg): self.cfg, id(self.vocab): self.vocab}
        for tensor in self.named_parameters().values():
            memo[id(tensor)] = Tensor(tensor.data.astype(dtype), requires_grad=tensor.requires_grad, dtype=dtype)
        return copy.deepcopy(self, memo)

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

    def forward(self, search, template, ids, mask) -> ForwardResult:
        """Full pass: embed, align, mixup + encoder stack, head.

        Inputs are batched numpy arrays: images (B, 3, H, W) in [0, 1], ids
        and mask (B, N_t). A ``vision-only`` config runs no mixup, which
        equals a zero-gate forward bit for bit. While a tape records, the
        forward also keeps each encoder layer's input, which the tape holds
        anyway and ``resume`` needs; an untaped forward keeps nothing.
        """
        layer_inputs = [None] * len(self.backbone.layers) if nc.Tape.current is not None else None
        return self._run(ForwardResult((search, template, ids), mask, layer_inputs), "embed")

    def resume(self, kept: ForwardResult, stage: str) -> ForwardResult:
        """``kept``'s forward re-run from ``stage``, a ``stage_of`` name.

        ``kept`` comes from a forward run while a tape recorded. Only
        ``stage`` and the stages it feeds run; every other output is
        ``kept``'s, which is left as it was. The result is the full
        forward's as long as no parameter upstream of ``stage`` has moved
        since ``kept`` was computed; "embed" re-runs the whole forward.
        """
        if kept.layer_inputs is None:
            raise ContractError(f"cannot resume at {stage!r}: the forward ran without a tape and kept no layer inputs")
        fw = dataclasses.replace(kept, layer_inputs=list(kept.layer_inputs))
        return self._run(fw, stage)

    def alignment_rows(self, search, template, ids, mask) -> tuple:
        """The (search, template, language) alignment rows of a batch: a forward's embed and align stages only."""
        fw = ForwardResult((search, template, ids), mask, None, self.embed_inputs(search, template, ids))
        self._run(fw, "align")
        return fw.align_search, fw.align_template, fw.align_language

    def _run(self, fw: ForwardResult, stage: str) -> ForwardResult:
        """Fill ``fw`` with the outputs of ``stage`` and of every stage it feeds, in forward order."""
        from . import backbone as bb

        if stage == "embed":
            fw.streams = self.embed_inputs(*fw.inputs)
        h0x, h0z, h0t = fw.streams
        if stage in ("embed", "align"):
            fw.align_search = project_pool(h0x, self.align.search)
            fw.align_template = project_pool(h0z, self.align.template)
            fw.align_language = project_pool(h0t, self.align.language, mask=fw.mask)
        if stage == "align":
            return fw
        if stage == "embed" and self.cfg.ablate != "vision-only":
            fw.reduced = reduce_language(h0t, fw.mask)
        if stage != "head":
            start = int(stage[3:]) if stage.startswith("enc") else None
            fw.search_tokens, fw.template_tokens = bb.forward(
                h0x, h0z, fw.reduced, self.backbone, self.cfg.heads, fw.layer_inputs, start
            )
        fw.head = head_forward(fw.search_tokens, self.head)
        return fw
