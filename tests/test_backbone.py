"""Modal mixup and the encoder stack."""

import numpy as np
import pytest

from vltrack import backbone as bb
from vltrack import numcore as nc
from vltrack.backbone import LinearParams
from vltrack.config import Config
from vltrack.numcore import Tape, Tensor


def zero_linear(d_in, d_out):
    return LinearParams(
        weight=Tensor(np.zeros((d_in, d_out), dtype=np.float32), requires_grad=True),
        bias=Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True),
    )


@pytest.fixture
def cfg():
    return Config(layers=2, heads=2, dim=8)


@pytest.fixture
def streams():
    rng = np.random.default_rng(10)
    hx = Tensor(rng.uniform(-1, 1, (6, 8)).astype(np.float32)[None])
    hz = Tensor(rng.uniform(-1, 1, (3, 8)).astype(np.float32)[None])
    t = Tensor(rng.uniform(-1, 1, 8).astype(np.float32)[None])
    return hx, hz, t


class TestModalMixup:
    def test_zero_gate_is_identity(self, streams):
        hx, hz, t = streams
        fx, fz = bb.modal_mixup(hx, hz, t, zero_linear(8, 8))
        assert fx.data.tobytes() == hx.data.tobytes()
        assert fz.data.tobytes() == hz.data.tobytes()

    def test_all_ones_gate_doubles(self, streams):
        hx, hz, t = streams
        gate = zero_linear(8, 8)
        gate.bias = Tensor(np.ones(8, dtype=np.float32))
        fx, fz = bb.modal_mixup(hx, hz, Tensor(np.zeros((1, 8), dtype=np.float32)), gate)
        np.testing.assert_allclose(fx.data, 2.0 * hx.data, atol=1e-7)
        np.testing.assert_allclose(fz.data, 2.0 * hz.data, atol=1e-7)

    def test_matches_elementwise_loop_oracle(self, streams):
        hx, hz, t = streams
        rng = np.random.default_rng(11)
        gate = LinearParams(
            weight=Tensor(rng.normal(size=(8, 8)).astype(np.float32)),
            bias=Tensor(rng.normal(size=8).astype(np.float32)),
        )
        fx, _ = bb.modal_mixup(hx, hz, t, gate)
        g = t.data[0].astype(np.float64) @ gate.weight.data.astype(np.float64) + gate.bias.data
        for i in range(hx.shape[1]):
            for j in range(8):
                expect = float(hx.data[0, i, j]) * g[j] + float(hx.data[0, i, j])
                assert abs(fx.data[0, i, j] - expect) < 1e-5

    def test_shared_gate_applies_to_both_streams(self, streams):
        hx, hz, t = streams
        rng = np.random.default_rng(12)
        gate = LinearParams(
            weight=Tensor(rng.normal(size=(8, 8)).astype(np.float32)),
            bias=Tensor(np.zeros(8, dtype=np.float32)),
        )
        fx, fz = bb.modal_mixup(hx, hz, t, gate)
        g = t.data[0] @ gate.weight.data
        np.testing.assert_allclose(fx.data[0], hx.data[0] * g + hx.data[0], atol=1e-6)
        np.testing.assert_allclose(fz.data[0], hz.data[0] * g + hz.data[0], atol=1e-6)


class TestEncoderLayer:
    def test_zero_sublayer_outputs_reduce_to_double_layernorm(self, cfg, streams):
        hx, hz, _ = streams
        rng = np.random.default_rng(13)
        p = bb.init_encoder_layer(rng, 8)
        p.o = zero_linear(8, 8)
        p.ffn2 = zero_linear(32, 8)
        x = np.concatenate([hx.data, hz.data], axis=1)
        out = bb.encoder_layer(Tensor(x), p, heads=cfg.heads)

        def ln(m):
            mu = m.mean(axis=-1, keepdims=True)
            var = ((m - mu) ** 2).mean(axis=-1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-5)

        np.testing.assert_allclose(out.data[0], ln(ln(x[0])), atol=1e-5)

    def test_single_token_single_head_closed_form(self):
        rng = np.random.default_rng(14)
        p = bb.init_encoder_layer(rng, 8)
        x = rng.uniform(-1, 1, (1, 8)).astype(np.float32)
        out = bb.encoder_layer(Tensor(x[None]), p, heads=1)

        def ln(m, gain, bias):
            mu = m.mean(axis=-1, keepdims=True)
            var = ((m - mu) ** 2).mean(axis=-1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-5) * gain + bias

        def gelu(v):
            return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

        # one token, one head: the attention weight is 1, so MHSA(x) = O(V(x))
        v = x @ p.v.weight.data + p.v.bias.data
        att = v @ p.o.weight.data + p.o.bias.data
        y1 = ln(x + att, p.ln1_gain.data, p.ln1_bias.data)
        ffn = gelu(y1 @ p.ffn1.weight.data + p.ffn1.bias.data) @ p.ffn2.weight.data + p.ffn2.bias.data
        y2 = ln(y1 + ffn, p.ln2_gain.data, p.ln2_bias.data)
        np.testing.assert_allclose(out.data[0], y2, atol=1e-5)

    def test_permutation_equivariance_within_search_block(self, cfg, streams):
        hx, hz, _ = streams
        rng = np.random.default_rng(15)
        p = bb.init_encoder_layer(rng, 8)
        # the search tokens permuted, the template tokens (6, 7, 8) in place
        perm = np.array([3, 0, 5, 1, 4, 2, 6, 7, 8])
        x = np.concatenate([hx.data, hz.data], axis=1)
        out = bb.encoder_layer(Tensor(x), p, heads=cfg.heads)
        permuted = bb.encoder_layer(Tensor(x[:, perm]), p, heads=cfg.heads)
        np.testing.assert_allclose(permuted.data[0], out.data[0][perm], atol=1e-5)


class TestForward:
    def test_empty_stack_returns_mixup_outputs(self, streams):
        hx, hz, t = streams
        cfg = Config(layers=0, heads=2, dim=8)
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=0)
        sx, sz = bb.forward(hx, hz, t, params, cfg.heads)
        ex, ez = bb.modal_mixup(hx, hz, t, params.mixup)
        np.testing.assert_array_equal(sx.data, ex.data)
        np.testing.assert_array_equal(sz.data, ez.data)

    def test_zero_language_path_is_bit_exact(self, cfg, streams):
        hx, hz, t = streams
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=1)
        params.mixup = zero_linear(8, 8)
        with_lang = bb.forward(hx, hz, t, params, cfg.heads)
        without = bb.forward(hx, hz, None, params, cfg.heads)
        assert with_lang[0].data.tobytes() == without[0].data.tobytes()
        assert with_lang[1].data.tobytes() == without[1].data.tobytes()

    def test_desk_shapes(self):
        cfg = Config(layers=4, heads=4, dim=96)
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=2)
        rng = np.random.default_rng(17)
        hx = Tensor(rng.uniform(-1, 1, (64, 96)).astype(np.float32)[None])
        hz = Tensor(rng.uniform(-1, 1, (16, 96)).astype(np.float32)[None])
        t = Tensor(rng.uniform(-1, 1, 96).astype(np.float32)[None])
        sx, sz = bb.forward(hx, hz, t, params, cfg.heads)
        assert sx.shape == (1, 64, 96) and sz.shape == (1, 16, 96)

    def test_batched_matches_single(self, cfg):
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=3)
        rng = np.random.default_rng(18)
        hx = rng.uniform(-1, 1, (2, 6, 8)).astype(np.float32)
        hz = rng.uniform(-1, 1, (2, 3, 8)).astype(np.float32)
        t = rng.uniform(-1, 1, (2, 8)).astype(np.float32)
        bx, _ = bb.forward(Tensor(hx), Tensor(hz), Tensor(t), params, cfg.heads)
        for b in range(2):
            sx, _ = bb.forward(Tensor(hx[b][None]), Tensor(hz[b][None]), Tensor(t[b][None]), params, cfg.heads)
            np.testing.assert_allclose(bx.data[b], sx.data[0], atol=1e-6)

    def test_gradient_reaches_template_stream(self, cfg, streams):
        # a generic linear functional of the search tokens; sum(Sx^2) would be
        # nearly constant because layernorm fixes each row's norm
        hx, hz, t = streams
        hz = Tensor(hz.data, requires_grad=True)
        probe = Tensor(np.random.default_rng(40).uniform(-1, 1, (6, 8)).astype(np.float32))
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=4)
        with Tape() as tape:
            sx, _ = bb.forward(hx, hz, t, params, cfg.heads)
            tape.backward(nc.tensor_sum(sx * probe))
        assert hz.grad is not None
        assert np.max(np.abs(hz.grad)) > 1e-6

    def test_final_rows_have_layernorm_statistics(self, cfg, streams):
        hx, hz, t = streams
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=5)  # default init: gain 1, bias 0
        sx, sz = bb.forward(hx, hz, t, params, cfg.heads)
        assert np.max(np.abs(sx.data.mean(axis=-1))) <= 1e-5
        assert np.max(np.abs(sz.data.mean(axis=-1))) <= 1e-5

    def test_language_enters_only_through_mixup(self, cfg, streams):
        # encoder consumes exactly N_x + N_z tokens: swapping the language
        # vector changes nothing once the gate output is fixed
        hx, hz, t = streams
        params = bb.init_backbone(cfg.dim, cfg.layers, seed=6)
        params.mixup = zero_linear(8, 8)
        other_t = Tensor(np.ones((1, 8), dtype=np.float32))
        a = bb.forward(hx, hz, t, params, cfg.heads)
        b = bb.forward(hx, hz, other_t, params, cfg.heads)
        assert a[0].data.tobytes() == b[0].data.tobytes()

