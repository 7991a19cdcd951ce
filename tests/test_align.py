"""Alignment projections and the contrastive losses against brute-force oracles."""

import math

import numpy as np
import pytest
from oracles import cma_oracle, cos_oracle, ima_oracle

from vltrack import align
from vltrack import numcore as nc
from vltrack.align import AlignProjections
from vltrack.backbone import LinearParams
from vltrack.errors import ContractError
from vltrack.numcore import Tensor

TAU = 0.5


def embeddings(n, c, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=(n, c)).astype(np.float32)) for _ in range(3)]


class TestProjectPool:
    def test_constant_rows_pool_to_that_row(self):
        tokens = Tensor(np.tile([2.0, -1.0], (1, 5, 1)).astype(np.float32))
        proj = LinearParams(Tensor(np.eye(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32)))
        out = align.project_pool(tokens, proj)
        np.testing.assert_allclose(out.data[0], [2.0, -1.0], atol=1e-6)

    def test_identity_projection_returns_token_mean(self):
        rng = np.random.default_rng(20)
        tokens_np = rng.normal(size=(4, 3)).astype(np.float32)
        proj = LinearParams(Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)))
        out = align.project_pool(Tensor(tokens_np[None]), proj)
        np.testing.assert_allclose(out.data[0], tokens_np.mean(axis=0), atol=1e-6)

    def test_matches_scalar_mean_dot_oracle(self):
        rng = np.random.default_rng(21)
        tokens_np = rng.normal(size=(4, 3)).astype(np.float32)
        w = rng.normal(size=(3, 2)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        out = align.project_pool(Tensor(tokens_np[None]), LinearParams(Tensor(w), Tensor(b)))
        pooled = tokens_np.astype(np.float64).mean(axis=0)
        expect = pooled @ w.astype(np.float64) + b
        np.testing.assert_allclose(out.data[0], expect, atol=1e-6)

    def test_mask_weighted_pooling(self):
        tokens = Tensor(np.array([[[1.0], [5.0], [99.0]]], dtype=np.float32))
        proj = LinearParams(Tensor(np.eye(1, dtype=np.float32)), Tensor(np.zeros(1, dtype=np.float32)))
        out = align.project_pool(tokens, proj, mask=[[1, 1, 0]])
        np.testing.assert_allclose(out.data[0], [3.0])


def cosine(u, v):
    """Cosine of two vectors through the loss's own similarity matrix."""
    return align._cosine_matrix(Tensor([u]), Tensor([v])).item()


class TestCosine:
    def test_self_similarity_is_one(self):
        u = [1.0, 2.0, -3.0]
        assert abs(cosine(u, u) - 1.0) < 1e-6

    def test_orthogonal(self):
        assert abs(cosine([1.0, 0.0], [0.0, 1.0])) < 1e-7

    def test_45_degrees(self):
        got = cosine([1.0, 1.0], [1.0, 0.0])
        assert abs(got - 1 / math.sqrt(2)) < 1e-4

    def test_zero_vector_guarded(self):
        got = cosine([0.0, 0.0], [1.0, 0.0])
        assert got == 0.0


class TestClosedForms:
    def test_cma_identical_embeddings(self):
        f = Tensor(np.tile([0.6, -0.8], (2, 1)).astype(np.float32))
        loss = align.cma_loss(f, f, f, TAU, "standard").item()
        assert abs(loss - 2 * math.log(2)) < 1e-6

    def test_cma_unit_pos_zero_neg(self):
        fx = Tensor(np.eye(2, dtype=np.float32))
        loss = align.cma_loss(fx, fx, fx, TAU, "standard").item()
        expect = 2 * (math.log(1 + math.exp(2)) - 2)  # 4 * -ln(e^2/(e^2+1)) / 2
        assert abs(loss - 0.25385) < 1e-4
        assert abs(loss - expect) < 1e-6

    def test_cma_literal_mode_is_unbounded_below(self):
        fx = Tensor(np.eye(2, dtype=np.float32))
        loss = align.cma_loss(fx, fx, fx, TAU, "literal").item()
        assert abs(loss - (-4.0)) < 1e-5

    def test_ima_identical_embeddings(self):
        f = Tensor(np.tile([1.0, 1.0], (2, 1)).astype(np.float32))
        assert abs(align.ima_loss(f, f, TAU, "standard").item() - math.log(3)) < 1e-6

    def test_ima_identical_literal(self):
        f = Tensor(np.tile([1.0, 1.0], (2, 1)).astype(np.float32))
        assert abs(align.ima_loss(f, f, TAU, "literal").item() - math.log(2)) < 1e-6

    def test_ima_opposed_negatives(self):
        fx = Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32))
        loss = align.ima_loss(fx, fx, TAU, "standard").item()
        expect = -math.log(math.exp(2) / (math.exp(2) + 2 * math.exp(-2)))
        assert abs(loss - 0.0360) < 1e-4
        assert abs(loss - expect) < 1e-6


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("mode", ["standard", "literal"])
    def test_cma_matches_double_loop(self, n, mode):
        fx, fz, ft = embeddings(n, 16, seed=100 + n)
        got = align.cma_loss(fx, fz, ft, TAU, mode).item()
        expect = cma_oracle(fx.data, fz.data, ft.data, TAU, mode)
        assert abs(got - expect) < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("mode", ["standard", "literal"])
    def test_ima_matches_double_loop(self, n, mode):
        fx, fz, _ = embeddings(n, 16, seed=200 + n)
        got = align.ima_loss(fx, fz, TAU, mode).item()
        expect = ima_oracle(fx.data, fz.data, TAU, mode)
        assert abs(got - expect) < 1e-6


class TestProperties:
    def test_standard_terms_nonnegative(self):
        for seed in range(5):
            fx, fz, ft = embeddings(4, 8, seed=seed)
            assert align.cma_loss(fx, fz, ft, TAU, "standard").item() >= 0.0
            assert align.ima_loss(fx, fz, TAU, "standard").item() >= 0.0

    def test_equal_logits_hit_log_k_plus_one(self):
        # all-identical embeddings: every logit equal; K = N-1 for CMA terms,
        # K = 2(N-1) for IMA terms
        for n in (2, 4):
            f = Tensor(np.tile([0.3, 0.4], (n, 1)).astype(np.float32))
            assert abs(align.cma_loss(f, f, f, TAU, "standard").item() - 2 * math.log(n)) < 1e-5
            assert abs(align.ima_loss(f, f, TAU, "standard").item() - math.log(2 * n - 1)) < 1e-5

    def test_invariant_to_positive_rescaling(self):
        fx, fz, ft = embeddings(4, 8, seed=33)
        scaled = Tensor(fx.data.copy())
        scaled.data[2] *= 7.5
        a = align.cma_loss(fx, fz, ft, TAU, "standard").item()
        b = align.cma_loss(scaled, fz, ft, TAU, "standard").item()
        assert abs(a - b) < 1e-5

    def test_permutation_invariance_over_batch(self):
        fx, fz, ft = embeddings(5, 8, seed=34)
        perm = np.array([4, 2, 0, 3, 1])
        a = align.cma_loss(fx, fz, ft, TAU, "standard").item()
        b = align.cma_loss(Tensor(fx.data[perm]), Tensor(fz.data[perm]), Tensor(ft.data[perm]), TAU, "standard").item()
        assert abs(a - b) < 1e-5
        c = align.ima_loss(fx, fz, TAU, "standard").item()
        d = align.ima_loss(Tensor(fx.data[perm]), Tensor(fz.data[perm]), TAU, "standard").item()
        assert abs(c - d) < 1e-5

    def test_gradients_pass_finite_difference_check(self):
        fx, fz, ft = embeddings(3, 8, seed=35)
        report = nc.grad_check(lambda a, b, c: align.cma_loss(a, b, c, TAU, "standard"), [fx, fz, ft], tol=1e-3)
        assert report.passed, str(report)
        report = nc.grad_check(lambda a, b: align.ima_loss(a, b, TAU, "standard"), [fx, fz], tol=1e-3)
        assert report.passed, str(report)

    def test_small_batch_rejected(self):
        f = Tensor(np.ones((1, 4), dtype=np.float32))
        with pytest.raises(ContractError):
            align.cma_loss(f, f, f, TAU, "standard")
        with pytest.raises(ContractError):
            align.ima_loss(f, f, TAU, "standard")


class TestCosineOracleAgreement:
    def test_cosine_matches_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            u = rng.normal(size=6).astype(np.float32)
            v = rng.normal(size=6).astype(np.float32)
            got = cosine(u, v)
            assert abs(got - cos_oracle(u, v)) < 1e-6
