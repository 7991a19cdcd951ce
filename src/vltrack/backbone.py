"""Unified transformer backbone over template and search tokens.

Language enters exactly once, through the modal mixup gate applied to both
vision streams before the encoder stack; the encoder itself consumes only the
concatenated [search; template] token sequence, so information still flows
both ways between the streams through self-attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import Tensor, named_stream, truncated_normal


@dataclass
class LinearParams:
    """Weight (in, out) and bias (out,) for an affine map."""

    weight: Tensor
    bias: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return nc.linear(x, self.weight, self.bias)


def init_linear(rng, d_in, d_out, std=0.02) -> LinearParams:
    return LinearParams(
        weight=Tensor(truncated_normal(rng, (d_in, d_out), std=std), requires_grad=True),
        bias=Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True),
    )


@dataclass
class EncoderLayerParams:
    """Projections, feed-forward weights, and the two layernorm affine pairs."""

    q: LinearParams
    k: LinearParams
    v: LinearParams
    o: LinearParams
    ffn1: LinearParams
    ffn2: LinearParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


def init_encoder_layer(rng, dim: int) -> EncoderLayerParams:
    ones = lambda: Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
    zeros = lambda: Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
    return EncoderLayerParams(
        q=init_linear(rng, dim, dim),
        k=init_linear(rng, dim, dim),
        v=init_linear(rng, dim, dim),
        o=init_linear(rng, dim, dim),
        ffn1=init_linear(rng, dim, 4 * dim),
        ffn2=init_linear(rng, 4 * dim, dim),
        ln1_gain=ones(),
        ln1_bias=zeros(),
        ln2_gain=ones(),
        ln2_bias=zeros(),
    )


@dataclass
class BackboneParams:
    mixup: LinearParams
    layers: list[EncoderLayerParams] = field(default_factory=list)


def init_backbone(dim: int, layers: int, seed: int) -> BackboneParams:
    rng = named_stream(seed, "init.backbone")
    mixup = init_linear(rng, dim, dim)
    return BackboneParams(mixup=mixup, layers=[init_encoder_layer(rng, dim) for _ in range(layers)])


def modal_mixup(hx: Tensor, hz: Tensor, t: Tensor, gate: LinearParams):
    """Gate both vision streams elementwise by the projected language vector.

    F = H * broadcast(gate(t)) + H for each stream, with streams (B, N, D)
    and ``t`` (B, D); the one projection is shared by search and template.
    A zero gate output leaves both streams bit-exactly unchanged.
    """
    g = gate(t)
    g = nc.reshape(g, (g.shape[0], 1, g.shape[-1]))
    fx = hx * g + hx
    fz = hz * g + hz
    return fx, fz


def _mhsa(x: Tensor, p: EncoderLayerParams, heads: int) -> Tensor:
    b, t, d = x.shape
    dh = d // heads
    scale = 1.0 / float(np.sqrt(dh))

    def split_heads(m):
        return nc.transpose(nc.reshape(m, (b, t, heads, dh)), (0, 2, 1, 3))

    q = split_heads(p.q(x))
    k = split_heads(p.k(x))
    v = split_heads(p.v(x))
    scores = (q @ nc.transpose(k, (0, 1, 3, 2))) * scale
    attn = nc.softmax(scores, axis=-1)
    ctx = attn @ v  # (b, heads, t, dh)
    ctx = nc.reshape(nc.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    return p.o(ctx)


def _ffn(x: Tensor, p: EncoderLayerParams) -> Tensor:
    return p.ffn2(nc.gelu(p.ffn1(x)))


def encoder_layer(x: Tensor, p: EncoderLayerParams, heads: int) -> Tensor:
    """One post-norm encoder layer over the joint (B, N, D) token sequence.

    Each residual add is followed by a layernorm, as the update equations
    read.
    """
    x = nc.layernorm(x + _mhsa(x, p, heads), p.ln1_gain, p.ln1_bias)
    return nc.layernorm(x + _ffn(x, p), p.ln2_gain, p.ln2_bias)


def forward(
    hx: Tensor, hz: Tensor, t: Tensor | None, params: BackboneParams, heads: int, layer_inputs=None, start=None
):
    """Mixup then the full encoder stack; returns last-layer (search, template) tokens.

    ``t`` is the reduced language vector; ``None`` runs the language-free
    path, which matches a zero mixup gate bit for bit. The streams are
    concatenated as [search; template] once, before the first layer, and
    split at the search token count once, after the last.

    ``layer_inputs``, if given, is a list with one entry per layer that
    receives the joint tokens each layer reads. With ``start`` = i the
    forward resumes at layer i from ``layer_inputs[i]``, and the mixup and
    the layers before i do not run.
    """
    if start is None:
        fx, fz = (hx, hz) if t is None else modal_mixup(hx, hz, t, params.mixup)
        x, start = nc.concat([fx, fz], axis=1), 0
    else:
        x = layer_inputs[start]
    for i in range(start, len(params.layers)):
        if layer_inputs is not None:
            layer_inputs[i] = x
        x = encoder_layer(x, params.layers[i], heads)
    n_x = hx.shape[1]
    return nc.narrow(x, 1, 0, n_x), nc.narrow(x, 1, n_x, x.shape[1] - n_x)
