"""Tensor core: forward oracles, backward-vs-finite-difference, determinism."""

import math

import numpy as np
import pytest

from vltrack import numcore as nc
from vltrack.errors import ConfigurationError, ContractError, ShapeMismatchError
from vltrack.numcore import Tape, Tensor

from oracles import (
    conv2d_oracle,
    conv2d_reference,
    layernorm_reference,
    linear_reference,
    matmul_oracle,
    softmax_reference,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a @ b).data, b.data)

    def test_scalar_case(self):
        assert (Tensor([[2.0]]) @ Tensor([[3.0]])).item() == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        got = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-6)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError) as err:
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_batched(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (5, 3, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        got = (Tensor(a) @ Tensor(b)).data
        for i in range(5):
            np.testing.assert_allclose(got[i], matmul_oracle(a[i], b), atol=1e-6)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(nc.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        got = nc.softmax(Tensor([math.log(2.0), 0.0])).data
        np.testing.assert_allclose(got, [2 / 3, 1 / 3], atol=1e-7)

    def test_no_overflow_at_extreme_logits(self):
        got = nc.softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-7)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-5, 5, (4, 9)).astype(np.float32))
        sums = nc.softmax(x, axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


class TestLayernorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((5,), 3.25, dtype=np.float32))
        out = nc.layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_hand_value(self):
        out = nc.layernorm(Tensor([1.0, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-5)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (3, 4)).astype(np.float32))
        bias = Tensor([1.0, 2.0, 3.0, 4.0])
        out = nc.layernorm(x, Tensor(np.zeros(4)), bias)
        np.testing.assert_array_equal(out.data, np.broadcast_to(bias.data, (3, 4)))

    def test_pre_affine_mean_is_zero(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-1, 1, (10, 16)).astype(np.float32))
        out = nc.layernorm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.max(np.abs(out.data.mean(axis=-1))) <= 1e-6

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ConfigurationError):
            nc.layernorm(Tensor([1.0, 2.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (2, 5, 5)).astype(np.float32)
        k = np.zeros((2, 2, 1, 1), dtype=np.float32)
        k[0, 0, 0, 0] = 1.0
        k[1, 1, 0, 0] = 1.0
        np.testing.assert_array_equal(nc.conv2d(Tensor(x[None]), Tensor(k)).data[0], x)

    def test_ones_kernel_center_sum(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = nc.conv2d(x, k, stride=1, padding=1)
        assert out.shape == (1, 1, 5, 5)
        assert out.data[0, 0, 2, 2] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0  # corner sees a 2x2 window

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_quadruple_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (3, 7, 7)).astype(np.float32)
        k = rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        got = nc.conv2d(Tensor(x[None]), Tensor(k), stride=stride, padding=padding).data[0]
        np.testing.assert_allclose(got, conv2d_oracle(x, k, stride, padding), atol=1e-5)

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (2, 3, 6, 6)).astype(np.float32)
        k = rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32)
        got = nc.conv2d(Tensor(x), Tensor(k), padding=1).data
        for i in range(2):
            np.testing.assert_allclose(got[i], conv2d_oracle(x[i], k, 1, 1), atol=1e-5)

    def test_non_integral_output_is_config_error(self):
        with pytest.raises(ConfigurationError):
            nc.conv2d(Tensor(np.zeros((1, 1, 6, 6))), Tensor(np.zeros((1, 1, 3, 3))), stride=2, padding=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            nc.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        report = nc.grad_check(lambda x: nc.tensor_sum(x * x), [Tensor([3.0])], h=1e-3, tol=1e-6)
        assert report.passed
        assert abs(report.coords[0].analytic - 6.0) < 1e-6
        assert report.max_rel_err <= 1e-6

    def test_constant_function_has_vanishing_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1, 1, 6).astype(np.float32))
        report = nc.grad_check(lambda t: nc.tensor_sum(nc.softmax(t)), [x], tol=1e-3)
        assert report.passed
        assert all(abs(c.analytic) < 1e-6 for c in report.coords)

    def test_non_scalar_function_rejected(self):
        with pytest.raises(ContractError):
            nc.grad_check(lambda x: x * 2.0, [Tensor([1.0, 2.0])])

    def test_non_finite_coordinate_fails_and_is_the_worst(self):
        # d sqrt(x)/dx is inf at 0 and the central difference reads sqrt(-h):
        # coordinate 1 has a NaN error between two that pass
        x = Tensor(np.array([1.0, 0.0, 4.0]), dtype=np.float64, requires_grad=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            report = nc.grad_check(lambda t: nc.tensor_sum(nc.sqrt(t)), [x])
        assert not report.passed
        assert math.isnan(report.max_rel_err)
        assert report.worst.flat_index == 1 and report.worst.analytic == math.inf
        assert math.isnan(report.worst.numeric)


def _check(f, tensors, tol=1e-3):
    report = nc.grad_check(f, tensors, h=1e-3, tol=tol, max_coords_per_input=12)
    assert report.passed, str(report)


class TestBackwardMatchesFiniteDifferences:
    """Every primitive's backward agrees with central differences on [-1, 1] inputs."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def rand(self, *shape, lo=-1.0, hi=1.0):
        return Tensor(self.rng.uniform(lo, hi, shape).astype(np.float32))

    def test_add_broadcast(self):
        _check(lambda a, b: nc.tensor_sum((a + b) * (a + b)), [self.rand(3, 4), self.rand(4)])

    def test_sub(self):
        _check(lambda a, b: nc.tensor_sum((a - b) * (a - b)), [self.rand(3, 4), self.rand(3, 1)])

    def test_mul(self):
        _check(lambda a, b: nc.tensor_sum(a * b * a), [self.rand(5), self.rand(5)])

    def test_div(self):
        _check(lambda a, b: nc.tensor_sum(a / b), [self.rand(4), self.rand(4, lo=1.0, hi=2.0)])

    def test_power(self):
        _check(lambda a: nc.tensor_sum(a**3.0), [self.rand(6)])

    def test_exp_log_sqrt(self):
        _check(lambda a: nc.tensor_sum(nc.exp(a)), [self.rand(5)])
        _check(lambda a: nc.tensor_sum(nc.log(a)), [self.rand(5, lo=0.5, hi=1.5)])
        _check(lambda a: nc.tensor_sum(nc.sqrt(a)), [self.rand(5, lo=0.5, hi=1.5)])

    def test_abs_away_from_zero(self):
        x = Tensor(np.array([0.5, -0.7, 0.9, -0.4], dtype=np.float32))
        _check(lambda a: nc.tensor_sum(nc.absolute(a) * a * a), [x])

    def test_relu_away_from_zero(self):
        x = Tensor(np.array([0.5, -0.7, 0.9, -0.4], dtype=np.float32))
        _check(lambda a: nc.tensor_sum(nc.relu(a) * a), [x])

    def test_gelu_sigmoid_tanh(self):
        _check(lambda a: nc.tensor_sum(nc.gelu(a) * a), [self.rand(6)])
        _check(lambda a: nc.tensor_sum(nc.sigmoid(a) * a), [self.rand(6)])

    def test_minmax_and_clip(self):
        a = Tensor(np.array([0.3, -0.8, 0.6], dtype=np.float32))
        b = Tensor(np.array([-0.2, 0.5, 0.1], dtype=np.float32))
        _check(lambda u, v: nc.tensor_sum(nc.maximum(u, v) * u), [a, b])
        _check(lambda u, v: nc.tensor_sum(nc.minimum(u, v) * v), [a, b])
        _check(lambda u: nc.tensor_sum(nc.clip(u, -0.5, 0.5) * u), [a])

    def test_matmul(self):
        _check(lambda a, b: nc.tensor_sum((a @ b) * (a @ b)), [self.rand(3, 4), self.rand(4, 2)])

    def test_matmul_batched(self):
        _check(lambda a, b: nc.tensor_sum((a @ b) * (a @ b)), [self.rand(2, 3, 4), self.rand(4, 2)])

    def test_reductions(self):
        _check(lambda a: nc.tensor_sum(nc.mean(a, axis=1) * nc.mean(a, axis=1)), [self.rand(3, 5)])
        _check(lambda a: nc.tensor_sum(nc.tensor_sum(a, axis=0) ** 2.0), [self.rand(3, 5)])

    def test_shape_ops(self):
        _check(lambda a: nc.tensor_sum(nc.reshape(a, (6,)) ** 2.0), [self.rand(2, 3)])
        _check(lambda a: nc.tensor_sum(nc.transpose(a, (1, 0)) ** 2.0), [self.rand(2, 3)])
        _check(lambda a: nc.tensor_sum(nc.narrow(a, 0, 1, 2) ** 2.0), [self.rand(4, 3)])
        _check(lambda a, b: nc.tensor_sum(nc.concat([a, b], axis=0) ** 2.0), [self.rand(2, 3), self.rand(1, 3)])

    def test_take_rows(self):
        ids = np.array([0, 2, 2, 1])
        _check(lambda t: nc.tensor_sum(nc.take_rows(t, ids) ** 2.0), [self.rand(4, 3)])

    def test_softmax_layernorm(self):
        _check(lambda a: nc.tensor_sum(nc.softmax(a, axis=-1) ** 2.0), [self.rand(3, 5)])
        _check(
            lambda x, g, b: nc.tensor_sum(nc.layernorm(x, g, b) ** 2.0),
            [self.rand(3, 6), self.rand(6), self.rand(6)],
        )

    def test_conv2d(self):
        _check(
            lambda x, k: nc.tensor_sum(nc.conv2d(x, k, stride=1, padding=1) ** 2.0),
            [self.rand(1, 2, 5, 5), self.rand(3, 2, 3, 3)],
        )
        _check(
            lambda x, k: nc.tensor_sum(nc.conv2d(x, k, stride=2, padding=1) ** 2.0),
            [self.rand(2, 2, 7, 7), self.rand(3, 2, 3, 3)],
        )

    def test_linear(self):
        _check(
            lambda x, w, b: nc.tensor_sum(nc.linear(x, w, b) ** 2.0),
            [self.rand(2, 3, 4), self.rand(4, 5), self.rand(5)],
        )

    def test_reused_operand(self):
        # x appears twice in the graph; gradients must accumulate.
        _check(lambda x: nc.tensor_sum(x * x + x), [self.rand(4)])


# (name, fused op, unfused reference, operand shapes)
FUSED_CASES = [
    ("linear-3d", nc.linear, linear_reference, [(2, 5, 6), (6, 4), (4,)]),
    ("linear-2d", nc.linear, linear_reference, [(7, 6), (6, 3), (3,)]),
    ("softmax", nc.softmax, softmax_reference, [(3, 4, 9)]),
    ("layernorm", nc.layernorm, layernorm_reference, [(3, 5, 8), (8,), (8,)]),
] + [
    (
        f"conv2d-s{stride}-p{padding}",
        lambda x, k, s=stride, p=padding: nc.conv2d(x, k, stride=s, padding=p),
        lambda x, k, s=stride, p=padding: conv2d_reference(x, k, stride=s, padding=p),
        [(2, 3, 7, 7), (4, 3, 3, 3)],
    )
    for stride, padding in [(1, 0), (1, 1), (2, 1)]
]


def _forward_and_grads(op, shapes, dtype, seed):
    """Output and every operand's gradient of sum(op(*operands) * weights)."""
    rng = np.random.default_rng(seed)
    operands = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True, dtype=dtype) for shape in shapes]
    with Tape() as tape:
        out = op(*operands)
        weights = Tensor(rng.uniform(-1, 1, out.shape), dtype=dtype)
        tape.backward(nc.tensor_sum(out * weights))
    return out, [t.grad for t in operands]


class TestFusedOpsMatchUnfusedReferences:
    """Fused numcore ops agree with the unfused references in tests/oracles.py."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)], ids=["float32", "float64"])
    @pytest.mark.parametrize("name,op,reference,shapes", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
    def test_output_and_gradients(self, name, op, reference, shapes, dtype, tol):
        out, grads = _forward_and_grads(op, shapes, dtype, seed=21)
        ref_out, ref_grads = _forward_and_grads(reference, shapes, dtype, seed=21)
        np.testing.assert_allclose(out.data, ref_out.data, rtol=tol, atol=tol)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_linear_is_one_tape_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            nc.linear(x, Tensor(np.ones((4, 5))), Tensor(np.zeros(5)))
        assert len(tape) == 1

    def test_linear_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            nc.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 5))), Tensor(np.zeros(5)))


class TestFloat32Discipline:
    """float32 operands give float32 outputs and gradients; float64 stays float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize(
        "op,shapes",
        [
            (nc.layernorm, [(3, 4, 8), (8,), (8,)]),
            (nc.softmax, [(3, 4, 8)]),
            (nc.gelu, [(3, 4, 8)]),
            (nc.linear, [(3, 4, 8), (8, 5), (5,)]),
            (lambda x, k: nc.conv2d(x, k, stride=2, padding=1), [(2, 3, 7, 7), (4, 3, 3, 3)]),
        ],
        ids=["layernorm", "softmax", "gelu", "linear", "conv2d"],
    )
    def test_no_silent_promotion(self, op, shapes, dtype):
        out, grads = _forward_and_grads(op, shapes, dtype, seed=4)
        assert out.dtype == dtype
        assert all(g is not None and g.dtype == dtype for g in grads)


class TestTapeAndTensor:
    def test_invariants(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        assert int(np.prod(t.shape)) == t.size
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.dtype == np.float32

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        assert y.grad is None and x.grad is None

    def test_backward_accumulates_across_calls(self):
        x = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                tape.backward(nc.tensor_sum(x * x))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = x * 3.0
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_in_place_accumulation_never_writes_an_alias(self):
        # c = a + b hands one gradient array to both a and b (and the reshape
        # below hands c a view); each of a and b then receives further
        # gradients, which must not be summed into that shared array.
        def f(x, y):
            a = x * y
            b = x - y
            f1 = a * a
            f2 = nc.exp(b)
            e = a * b
            r = nc.reshape(a + b, (12,))
            return nc.tensor_sum(r * r) + nc.tensor_sum(e) + nc.tensor_sum(f1) + nc.tensor_sum(f2)

        rng = np.random.default_rng(17)
        x, y = (Tensor(rng.uniform(-1, 1, (3, 4)), dtype=np.float64) for _ in range(2))
        report = nc.grad_check(f, [x, y], tol=1e-6, max_coords_per_input=12)
        assert report.passed, str(report)

        x, y = (Tensor(t.data, requires_grad=True, dtype=np.float64) for t in (x, y))
        with Tape() as tape:
            loss = f(x, y)
        saved = []  # (array, copy) of everything a forward kept or a backward returned

        def keep(arr):
            if isinstance(arr, np.ndarray):
                saved.append((arr, arr.copy()))

        def watched(backward):
            def run(g):
                grads = backward(g)
                for grad in grads:
                    keep(grad)
                return grads

            return run

        for node in tape._nodes:
            keep(node.out.data)
            for parent in node.parents:
                keep(parent.data)
            for cell in node.backward.__closure__ or ():
                keep(cell.cell_contents)
            node.backward = watched(node.backward)
        tape.backward(loss)
        assert len(saved) > 40
        for arr, copy in saved:
            np.testing.assert_array_equal(arr, copy)

    def test_grad_not_tracked_for_constants(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = nc.tensor_sum(x * x)
        tape.backward(y)
        assert x.grad is None

    def test_deterministic_outputs(self):
        def run():
            rng = nc.named_stream(123, "op-determinism")
            a = Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32))
            b = Tensor(rng.uniform(-1, 1, (16, 16)).astype(np.float32))
            return nc.softmax(a @ b, axis=-1).data.tobytes()

        assert run() == run()

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-1, 1, (4, 8)).astype(np.float32))
        for f in (nc.relu, nc.gelu, nc.sigmoid, nc.exp, lambda t: nc.softmax(t, axis=-1)):
            assert np.all(np.isfinite(f(x).data))


class TestNamedStreams:
    def test_streams_are_stable_and_independent(self):
        a1 = nc.named_stream(9, "alpha").uniform(size=4)
        a2 = nc.named_stream(9, "alpha").uniform(size=4)
        b = nc.named_stream(9, "beta").uniform(size=4)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_truncated_normal_bounds(self):
        rng = nc.named_stream(1, "init")
        vals = nc.truncated_normal(rng, (1000,), std=0.02)
        assert np.max(np.abs(vals)) <= 0.04 + 1e-7
        assert vals.dtype == np.float32
