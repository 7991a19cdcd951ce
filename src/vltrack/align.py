"""Contrastive alignment of search, template, and language embeddings.

Each stream is mean-pooled and projected into a shared space; matched pairs
from the same video are pulled together against the rest of the batch with
temperature-scaled cosine InfoNCE. The cross-modal loss combines four
directional terms (search/template vs language, both ways); the intra-modal
loss aligns the two vision streams of a video against both vision streams of
every other video, i.e. 2(N-1) negatives per anchor.

The printed equations admit two readings of the denominator; ``standard``
(positive pair included, the usual InfoNCE, bounded below by zero) is the
default and ``literal`` (negatives only, unbounded below) is kept for
fidelity experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .backbone import LinearParams, init_linear
from .embedders import reduce_language
from .errors import ContractError
from .numcore import Tensor, named_stream

COSINE_EPS = 1e-8


@dataclass
class AlignProjections:
    """Three independent linear maps into the shared alignment space."""

    search: LinearParams
    template: LinearParams
    language: LinearParams


def init_align(dim: int, align_dim: int, seed: int) -> AlignProjections:
    rng = named_stream(seed, "init.align")
    return AlignProjections(
        search=init_linear(rng, dim, align_dim),
        template=init_linear(rng, dim, align_dim),
        language=init_linear(rng, dim, align_dim),
    )


def project_pool(tokens: Tensor, proj: LinearParams, mask=None) -> Tensor:
    """Mean-pool each sample's tokens to one vector, then project it.

    ``tokens`` is (B, N_tok, D); the result is (B, C). With a mask the mean
    is the language stream's mask-weighted one (``reduce_language``), so
    padded rows never contribute.
    """
    tokens = nc.as_tensor(tokens)
    if tokens.shape[1] < 1:
        raise ContractError("project_pool needs at least one token")
    pooled = nc.mean(tokens, axis=1) if mask is None else reduce_language(tokens, mask)
    return proj(pooled)


def _cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """S[i, j] = cos(a_i, b_j), guarded against zero norms by ``COSINE_EPS``."""
    dots = a @ nc.transpose(b, (1, 0))
    na = nc.sqrt(nc.tensor_sum(a * a, axis=1, keepdims=True))
    nb = nc.sqrt(nc.tensor_sum(b * b, axis=1, keepdims=True))
    return dots / (na @ nc.transpose(nb, (1, 0)) + COSINE_EPS)


def _masks(n: int, dtype):
    eye = np.eye(n, dtype=dtype)
    return Tensor(eye), Tensor(1.0 - eye)


def _directional(pos_matrix: Tensor, neg_matrices: list[Tensor], tau: float, denominator_mode: str) -> Tensor:
    """Mean over anchors of -log(exp(pos/tau) / denominator).

    ``pos_matrix`` holds the positive similarity on its diagonal; the
    off-diagonal entries of every matrix in ``neg_matrices`` are the negative
    similarities. ``standard`` adds the positive term to the denominator.
    """
    n = pos_matrix.shape[0]
    dtype = pos_matrix.data.dtype
    eye, off = _masks(n, dtype)
    inv_tau = 1.0 / tau
    pos = nc.tensor_sum(pos_matrix * eye, axis=1) * inv_tau
    denom = nc.tensor_sum(nc.exp(neg_matrices[0] * inv_tau) * off, axis=1)
    for m in neg_matrices[1:]:
        denom = denom + nc.tensor_sum(nc.exp(m * inv_tau) * off, axis=1)
    if denominator_mode == "standard":
        denom = denom + nc.exp(pos)
    return nc.mean(nc.log(denom) - pos)


def _batched(*tensors):
    n = tensors[0].shape[0]
    if n < 2:
        raise ContractError(f"contrastive losses need a batch of at least 2, got {n}")
    for t in tensors:
        if t.ndim != 2 or t.shape[0] != n:
            raise ContractError("alignment embeddings must share the batch axis")
    return n


def cma_loss(fx: Tensor, fz: Tensor, ft: Tensor, tau: float, denominator_mode: str) -> Tensor:
    """Cross-modal loss: 0.5*(x2t + z2t) + 0.5*(t2z + t2x).

    Negatives for anchor i are the other N-1 samples' embeddings of the
    opposing modality.
    """
    _batched(fx, fz, ft)
    s_xt = _cosine_matrix(fx, ft)
    s_zt = _cosine_matrix(fz, ft)
    x2t = _directional(s_xt, [s_xt], tau, denominator_mode)
    z2t = _directional(s_zt, [s_zt], tau, denominator_mode)
    t2x = _directional(nc.transpose(s_xt, (1, 0)), [nc.transpose(s_xt, (1, 0))], tau, denominator_mode)
    t2z = _directional(nc.transpose(s_zt, (1, 0)), [nc.transpose(s_zt, (1, 0))], tau, denominator_mode)
    return 0.5 * (x2t + z2t) + 0.5 * (t2z + t2x)


def ima_loss(fx: Tensor, fz: Tensor, tau: float, denominator_mode: str) -> Tensor:
    """Intra-modal loss: 0.5*(x2z + z2x) with 2(N-1) vision negatives per anchor."""
    _batched(fx, fz)
    s_xz = _cosine_matrix(fx, fz)
    s_xx = _cosine_matrix(fx, fx)
    s_zz = _cosine_matrix(fz, fz)
    s_zx = nc.transpose(s_xz, (1, 0))
    x2z = _directional(s_xz, [s_xz, s_xx], tau, denominator_mode)
    z2x = _directional(s_zx, [s_zx, s_zz], tau, denominator_mode)
    return 0.5 * (x2z + z2x)
