"""Deterministic tensor core with reverse-mode automatic differentiation.

Values are contiguous row-major float32 buffers (float64 is supported so the
gradient checker can run the same code at higher precision). Differentiable
operations record onto the active :class:`Tape`; ``Tape.backward`` replays the
records in reverse execution order, which is a valid reverse topological order
because every operand exists before the operation that consumes it.

Elementwise math runs in the storage dtype: float32 operands give float32
outputs and float32 gradients, with no silent promotion to float64. The
reductions ``tensor_sum`` and ``mean``, layernorm's statistics (mean and
variance forward; the two row means and the gain and bias sums backward), the
softmax denominator and the softmax backward's row dot accumulate in 64-bit
and are cast back to the storage dtype before they broadcast. The sums that
undo broadcasting in a backward, linear's bias gradient among them, run in the
storage dtype, and matrix products use the BLAS kernel for the storage dtype.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, ContractError, ShapeMismatchError

_ALLOWED_DTYPES = (np.float32, np.float64)


class Tensor:
    """An n-dimensional array of floats that can participate in a gradient tape.

    Tensors are immutable after creation except through the optimizer's
    documented in-place parameter update. ``grad`` is populated by
    ``Tape.backward`` for leaf tensors with ``requires_grad=True``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=np.float32):
        if dtype not in _ALLOWED_DTYPES:
            raise ConfigurationError(f"unsupported dtype {dtype!r}; use float32 or float64")
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def astype(self, dtype):
        """Dtype-converted copy; gradient history is not carried over."""
        return Tensor(self.data, requires_grad=self.requires_grad, dtype=dtype)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # Arithmetic operators delegate to the functional ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None):
    """Wrap ``x`` in a constant Tensor unless it already is one."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype if dtype is not None else np.float32)


def _result(data, requires_grad):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    return out


class _Node:
    __slots__ = ("out", "parents", "backward")

    def __init__(self, out, parents, backward):
        self.out = out
        self.parents = parents
        self.backward = backward


class Tape:
    """Ordered record of differentiable operations for one training step.

    Used as a context manager; ops executed inside record themselves when any
    operand requires a gradient. A tape is confined to one step on one thread.
    """

    current = None

    def __init__(self):
        self._nodes = []
        self._produced = set()
        self._prev = None

    def __enter__(self):
        self._prev = Tape.current
        Tape.current = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape.current = self._prev
        self._prev = None
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out, parents, backward):
        self._nodes.append(_Node(out, parents, backward))
        self._produced.add(id(out))

    def backward(self, loss):
        """Accumulate d(loss)/d(leaf) into ``grad`` of every requires-grad leaf.

        Traverses the recorded nodes once, in reverse execution order;
        gradients of intermediates are held in a scratch table and freed as
        soon as their node is consumed.
        """
        if loss.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {tuple(loss.shape)}")
        scratch = {id(loss): np.ones_like(loss.data)}
        if id(loss) not in self._produced:
            return
        # Backward closures may hand out aliases of their incoming gradient
        # (add returns it to both operands, reshape a view of it), so a
        # scratch entry is summed into in place only once the tape allocated
        # it itself, by the entry's first accumulation.
        owned = set()
        for node in reversed(self._nodes):
            out_grad = scratch.pop(id(node.out), None)
            if out_grad is None:
                continue
            owned.discard(id(node.out))
            for parent, grad in zip(node.parents, node.backward(out_grad)):
                if grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in self._produced:
                    held = scratch.get(key)
                    if held is None:
                        scratch[key] = grad
                    elif key in owned:
                        held += grad
                    else:
                        scratch[key] = held + grad
                        owned.add(key)
                elif parent.grad is None:
                    parent.grad = grad.copy()
                else:
                    parent.grad += grad


def _record(out, parents, backward):
    tape = Tape.current
    if tape is not None and out.requires_grad:
        tape._record(out, parents, backward)
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _promote(*operands):
    """Operands as tensors of one dtype: float64 if any of them is.

    Promoting to the wider dtype keeps float64 checking paths float64.
    """
    tensors = [as_tensor(t) for t in operands]
    if any(t.dtype == np.float64 for t in tensors):
        tensors = [t if t.dtype == np.float64 else t.astype(np.float64) for t in tensors]
    return tensors


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _promote(a, b)
    out = _result(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), backward)


def sub(a, b):
    a, b = _promote(a, b)
    out = _result(a.data - b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), backward)


def mul(a, b):
    a, b = _promote(a, b)
    out = _result(a.data * b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def div(a, b):
    a, b = _promote(a, b)
    out = _result(a.data / b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def neg(a):
    a = as_tensor(a)
    out = _result(-a.data, a.requires_grad)

    def backward(g):
        return (-g,)

    return _record(out, (a,), backward)


def power(a, exponent):
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = as_tensor(a)
    p = float(exponent)
    out = _result(a.data**p, a.requires_grad)

    def backward(g):
        return (g * p * a.data ** (p - 1.0),)

    return _record(out, (a,), backward)


def maximum(a, b):
    """Elementwise maximum; on ties the gradient flows to ``a``."""
    a, b = _promote(a, b)
    out = _result(np.maximum(a.data, b.data), a.requires_grad or b.requires_grad)

    def backward(g):
        take_a = a.data >= b.data
        ga = _unbroadcast(g * take_a, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ~take_a, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def minimum(a, b):
    """Elementwise minimum; on ties the gradient flows to ``a``."""
    a, b = _promote(a, b)
    out = _result(np.minimum(a.data, b.data), a.requires_grad or b.requires_grad)

    def backward(g):
        take_a = a.data <= b.data
        ga = _unbroadcast(g * take_a, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * ~take_a, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def clip(a, lo, hi):
    """Clamp into [lo, hi]; gradient passes only through the identity region."""
    a = as_tensor(a)
    out = _result(np.clip(a.data, lo, hi), a.requires_grad)

    def backward(g):
        inside = (a.data >= lo) & (a.data <= hi)
        return (g * inside,)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Elementwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a):
    a = as_tensor(a)
    out = _result(np.exp(a.data), a.requires_grad)

    def backward(g):
        return (g * out.data,)

    return _record(out, (a,), backward)


def log(a):
    a = as_tensor(a)
    out = _result(np.log(a.data), a.requires_grad)

    def backward(g):
        return (g / a.data,)

    return _record(out, (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out = _result(np.sqrt(a.data), a.requires_grad)

    def backward(g):
        return (g * (0.5 / out.data),)

    return _record(out, (a,), backward)


def absolute(a):
    a = as_tensor(a)
    out = _result(np.abs(a.data), a.requires_grad)

    def backward(g):
        return (g * np.sign(a.data),)

    return _record(out, (a,), backward)


def relu(a):
    a = as_tensor(a)
    out = _result(np.maximum(a.data, 0), a.requires_grad)

    def backward(g):
        return (g * (a.data > 0),)

    return _record(out, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a):
    """Gaussian error linear unit, tanh form.

    The derivative is computed in forward, and only while a tape records this
    op, so untaped calls (evaluation, tracking, finite-difference probes) pay
    for the forward alone.
    """
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    t = x2 * x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    half_x = 0.5 * x
    out = _result(half_x * (1.0 + t), a.requires_grad)
    if Tape.current is None or not a.requires_grad:
        return out
    # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2)
    dinner = x2
    dinner *= 0.134145
    dinner += 1.0
    dinner *= _GELU_C
    deriv = t * t
    np.subtract(1.0, deriv, out=deriv)
    deriv *= dinner
    deriv *= half_x
    t += 1.0
    t *= 0.5
    deriv += t

    def backward(g):
        return (g * deriv,)

    return _record(out, (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    x = a.data
    # Evaluate each branch only where it is stable to avoid overflow warnings.
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    out = _result(out_data, a.requires_grad)

    def backward(g):
        return (g * out.data * (1.0 - out.data),)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _reduce_backward_shape(a, axis, keepdims, g):
    if axis is None:
        return np.broadcast_to(g, a.shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % a.ndim for ax in axes)
        shape = [1 if i in axes else s for i, s in enumerate(a.shape)]
        g = g.reshape(shape)
    return np.broadcast_to(g, a.shape)


def tensor_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = np.sum(a.data, axis=axis, keepdims=keepdims, dtype=np.float64)
    out = _result(np.asarray(data, dtype=a.dtype), a.requires_grad)

    def backward(g):
        return (np.ascontiguousarray(_reduce_backward_shape(a, axis, keepdims, g)),)

    return _record(out, (a,), backward)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = np.mean(a.data, axis=axis, keepdims=keepdims, dtype=np.float64)
    out = _result(np.asarray(data, dtype=a.dtype), a.requires_grad)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]

    def backward(g):
        return (np.ascontiguousarray(_reduce_backward_shape(a, axis, keepdims, g / count)),)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    out = _result(a.data.reshape(shape), a.requires_grad)

    def backward(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), backward)


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    out = _result(np.ascontiguousarray(a.data.transpose(axes)), a.requires_grad)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _record(out, (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = _result(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            grads.append(np.ascontiguousarray(g[tuple(index)]))
        return grads

    return _record(out, tuple(tensors), backward)


def narrow(a, axis, start, length):
    """Contiguous slice of ``length`` elements along ``axis`` starting at ``start``."""
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = _result(np.ascontiguousarray(a.data[index]), a.requires_grad)

    def backward(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _record(out, (a,), backward)


def take_rows(table, ids):
    """Row lookup ``table[ids]``; the gradient scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = _result(np.ascontiguousarray(table.data[ids]), table.requires_grad)

    def backward(g):
        full = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (full,)

    return _record(out, (table,), backward)


# ---------------------------------------------------------------------------
# Linear algebra and neural-net primitives
# ---------------------------------------------------------------------------


def matmul(a, b):
    a, b = _promote(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul requires 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = _result(a.data @ b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _record(out, (a, b), backward)


def linear(x, w, b):
    """Affine map ``x @ w + b`` over the last axis of ``x``, as one tape node.

    ``x`` is (..., in), ``w`` (in, out) and ``b`` (out,). Any number of
    leading axes are flattened into a single matrix product.
    """
    x, w, b = _promote(x, w, b)
    if w.ndim != 2 or b.shape != (w.shape[1],) or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"linear expects (..., in), (in, out), (out,), got {x.shape}, {w.shape}, {b.shape}")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    out2 = x2 @ w.data
    out2 += b.data
    out = _result(out2.reshape(x.shape[:-1] + (d_out,)), x.requires_grad or w.requires_grad or b.requires_grad)

    def backward(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = g2.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, w, b), backward)


def softmax(a, axis=-1):
    """Stable softmax along ``axis``; outputs are positive and sum to one."""
    a = as_tensor(a)
    e = a.data - np.max(a.data, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True, dtype=np.float64).astype(a.dtype)
    out = _result(e, a.requires_grad)

    def backward(g):
        y = out.data
        dot = np.sum(y * g, axis=axis, keepdims=True, dtype=np.float64).astype(g.dtype)
        grad = g - dot
        grad *= y
        return (grad,)

    return _record(out, (a,), backward)


def layernorm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean, unit variance, then scale and shift."""
    x = as_tensor(x)
    gain = as_tensor(gain, dtype=x.dtype)
    bias = as_tensor(bias, dtype=x.dtype)
    if eps <= 0:
        raise ConfigurationError(f"layernorm eps must be positive, got {eps}")
    dt = x.dtype
    xhat = x.data - np.mean(x.data, axis=-1, keepdims=True, dtype=np.float64).astype(dt)
    var = np.mean(xhat * xhat, axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    out = _result(out_data, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def backward(g):
        gx = ggain = gbias = None
        reduce_axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            ggain = np.sum(g * xhat, axis=reduce_axes, dtype=np.float64).astype(dt)
        if bias.requires_grad:
            gbias = np.sum(g, axis=reduce_axes, dtype=np.float64).astype(dt)
        if x.requires_grad:
            # gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain
            gx = g * gain.data
            m1 = np.mean(gx, axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            m2 = np.mean(gx * xhat, axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            gx -= m1
            gx -= xhat * m2
            gx *= inv
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), backward)


def _conv_geometry(h, w, kh, kw, stride, padding):
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigurationError(f"conv2d requires odd kernel sides, got {kh}x{kw}")
    num_h = h + 2 * padding - kh
    num_w = w + 2 * padding - kw
    if num_h < 0 or num_w < 0 or num_h % stride or num_w % stride:
        raise ConfigurationError(
            f"conv2d output size is not integral for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    return num_h // stride + 1, num_w // stride + 1


def _im2col(xp, kh, kw, stride, ho, wo):
    """Patch matrix (C*kh*kw, B*ho*wo) of a channel-major (C, B, H, W) array."""
    c, b = xp.shape[:2]
    cols = np.empty((c, kh, kw, b, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(c * kh * kw, b * ho * wo)


def conv2d(x, kernels, stride=1, padding=0):
    """2-d cross-correlation (the deep-learning convention).

    ``x`` is (B, C_in, H, W); ``kernels`` is (C_out, C_in, kh, kw).
    Forward and kernel gradient are one matrix product each over an im2col
    patch matrix. The input gradient is the stride-1 correlation of the
    stride-dilated, zero-padded output gradient with the flipped kernels,
    in- and out-channels swapped: one more matrix product, no scatter-add.
    """
    x = as_tensor(x)
    kernels = as_tensor(kernels, dtype=x.dtype)
    xd = x.data
    if xd.ndim != 4 or kernels.ndim != 4:
        raise ShapeMismatchError(f"conv2d expects (B,C,H,W) and (Co,Ci,kh,kw), got {x.shape} and {kernels.shape}")
    b, c, h, w = xd.shape
    co, ci, kh, kw = kernels.shape
    if ci != c:
        raise ShapeMismatchError(f"conv2d channel mismatch: input {c} vs kernel {ci}")
    ho, wo = _conv_geometry(h, w, kh, kw, stride, padding)

    xp = np.zeros((c, b, h + 2 * padding, w + 2 * padding), dtype=xd.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = xd.transpose(1, 0, 2, 3)
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    kmat = kernels.data.reshape(co, c * kh * kw)
    out_data = np.ascontiguousarray((kmat @ cols).reshape(co, b, ho, wo).transpose(1, 0, 2, 3))
    out = _result(out_data, x.requires_grad or kernels.requires_grad)

    def backward(g):
        gx = gk = None
        gt = g.transpose(1, 0, 2, 3)  # (Co, B, Ho, Wo)
        if kernels.requires_grad:
            gk = (gt.reshape(co, b * ho * wo) @ cols.T).reshape(kernels.shape)
        if x.requires_grad:
            # gd holds g[r] at row kh-1 + r*stride (likewise for columns), so
            # padded-input row u receives sum_e gd[u + e] * kflip[e]; the
            # unpadded input starts at padded row ``padding``.
            gd = np.zeros((co, b, h + 2 * padding + kh - 1, w + 2 * padding + kw - 1), dtype=g.dtype)
            gd[:, :, kh - 1 : kh - 1 + stride * ho : stride, kw - 1 : kw - 1 + stride * wo : stride] = gt
            gcols = _im2col(gd[:, :, padding:, padding:], kh, kw, 1, h, w)
            kflip = kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, co * kh * kw)
            gx = np.ascontiguousarray((kflip @ gcols).reshape(c, b, h, w).transpose(1, 0, 2, 3))
        return gx, gk

    return _record(out, (x, kernels), backward)
