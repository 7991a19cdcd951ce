"""Finite-difference verification of tape gradients.

The checker re-evaluates the function under test in float64 (same code path,
higher precision) and compares the tape gradient of each selected coordinate
against a central difference (f(x+h) - f(x-h)) / 2h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError
from .tensor import Tape, Tensor


@dataclass
class CoordResult:
    input_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    """Outcome of one gradient check."""

    max_rel_err: float
    tol: float
    h: float
    passed: bool
    coords: list[CoordResult] = field(default_factory=list)

    @property
    def worst(self) -> CoordResult | None:
        """The coordinate with the largest relative error; None without coordinates."""
        return _worst(self.coords)

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {verdict}: max rel err {self.max_rel_err:.3e} "
            f"(tol {self.tol:.1e}, h {self.h:.1e}, {len(self.coords)} coords)"
        )


def _worst(coords):
    # A NaN error ranks above every number: a non-finite analytic or numeric
    # gradient gives one, and a plain max would pass over it.
    return max(coords, key=lambda c: (math.isnan(c.rel_err), c.rel_err), default=None)


def probe_coords(sizes, max_coords_per_input, seed=0) -> list:
    """The ``(input index, flat index)`` pairs ``grad_check`` probes, in its order.

    Every entry of an input with at most ``max_coords_per_input`` entries;
    otherwise that many distinct entries, ascending, drawn from one
    ``default_rng(seed)`` shared across the inputs in turn.
    """
    rng = np.random.default_rng(seed)
    coords = []
    for k, size in enumerate(sizes):
        if size <= max_coords_per_input:
            idxs = np.arange(size)
        else:
            idxs = np.sort(rng.choice(size, size=max_coords_per_input, replace=False))
        coords.extend((k, int(idx)) for idx in idxs)
    return coords


def tape_gradients(inputs, coords) -> list:
    """The accumulated ``grad`` of ``inputs`` at each ``(input index, flat index)`` of ``coords``, as floats.

    An input without a gradient reads 0.0.
    """
    return [float(inputs[k].grad.reshape(-1)[idx]) if inputs[k].grad is not None else 0.0 for k, idx in coords]


def grad_check(f, inputs, h=1e-3, tol=1e-3, max_coords_per_input=16, seed=0, atol=1e-6, probed=None, analytic=None):
    """Compare tape gradients of scalar ``f(*inputs)`` against central differences.

    ``inputs`` are the tensors to differentiate with respect to; ``f`` must be
    a pure function of them (plus captured constants) built from numcore ops.
    Float32 inputs are copied to float64 and passed to ``f``; float64 inputs
    are used in place, so a closure over a float64 parameter set may ignore
    its arguments. For tensors larger than ``max_coords_per_input`` a
    deterministic sample of coordinates is checked.

    The relative error of a coordinate is |a - n| / max(|a|, |n|, atol/tol),
    so a coordinate passes iff |a - n| <= max(tol*|a|, tol*|n|, atol): the
    usual relative/absolute pair, with ``atol`` absorbing finite-difference
    quantization noise on vanishing gradients. A coordinate whose analytic
    or numeric gradient is not finite has a NaN error, fails the check and is
    its ``worst``.

    ``probed``, if given, holds the untaped values ``(f(x+h), f(x-h))`` as
    floats, one pair per ``probe_coords`` entry in its order, so a caller
    that forwards the probe states itself leaves ``f`` only the taped call.
    ``analytic``, if given, holds the tape gradient at each ``probe_coords``
    entry, so ``f`` is not taped either; with both given, ``f`` is never
    called and may be None.
    """
    inputs64 = [
        t if t.dtype == np.float64 and t.requires_grad else Tensor(t.data, requires_grad=True, dtype=np.float64)
        for t in inputs
    ]
    probes = probe_coords([t.size for t in inputs64], max_coords_per_input, seed)
    for given, what in ((probed, "value pairs"), (analytic, "gradients")):
        if given is not None and len(given) != len(probes):
            raise ContractError(f"grad_check probes {len(probes)} coordinates but got {len(given)} {what}")

    if analytic is None:
        for t in inputs64:
            t.grad = None
        with Tape() as tape:
            out = f(*inputs64)
        if not isinstance(out, Tensor) or out.size != 1:
            raise ContractError("grad_check requires a scalar-valued function")
        tape.backward(out)
        analytic = tape_gradients(inputs64, probes)

    floor = atol / tol
    coords: list[CoordResult] = []
    for j, (k, idx) in enumerate(probes):
        t = inputs64[k]
        if probed is not None:
            f_plus, f_minus = probed[j]
        else:
            flat = t.data.reshape(-1)
            keep = flat[idx]
            flat[idx] = keep + h
            f_plus = f(*inputs64).item()
            flat[idx] = keep - h
            f_minus = f(*inputs64).item()
            flat[idx] = keep
        a = analytic[j]
        n = (f_plus - f_minus) / (2.0 * h)
        rel = abs(a - n) / max(abs(a), abs(n), floor)
        coords.append(CoordResult(k, idx, a, n, rel))

    worst = _worst(coords)
    max_rel_err = worst.rel_err if worst is not None else 0.0
    return GradCheckReport(max_rel_err=max_rel_err, tol=tol, h=h, passed=max_rel_err <= tol, coords=coords)
