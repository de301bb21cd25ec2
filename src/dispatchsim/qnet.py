"""Feedforward q-value approximator built on numpy.

Architecture: fully connected layers with leaky-rectifier activations on
the hidden layers and a linear scalar output.  Training uses smooth-L1
loss and Adam.  Arithmetic is 32-bit by default; a 64-bit mode exists for
finite-difference verification of the gradients.
"""

from __future__ import annotations

import io
import itertools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_DIMS = (15, 64, 32, 1)
LEAKY_SLOPE = 0.01  # in [0, 1], as the activation is max(z, slope * z)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_MAGIC = "DQNCKPT"
CKPT_VERSION = "v1"


def smooth_l1(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Elementwise smooth-L1: quadratic inside |d| < 1, linear outside."""
    d = np.abs(prediction - target)
    return np.where(d < 1.0, 0.5 * d * d, d - 0.5)


def smooth_l1_grad(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(smooth_l1)/d(prediction)."""
    d = prediction - target
    return np.clip(d, -1.0, 1.0)


def layer_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    """`dims` as ints if they are at least two positive integers ending in 1; else ValueError.

    One pass over `dims`.  An integer is a Python or numpy int (checking `numbers.Integral`
    would triple the cost); a bool is not a layer size, though Python counts it an integer.
    """
    out = tuple([int(d) for d in dims
                 if isinstance(d, (int, np.integer)) and type(d) is not bool and d > 0])
    if len(out) != len(dims) or len(out) < 2 or out[-1] != 1:
        raise ValueError(f"bad layer dims {tuple(dims)!r}, want positive sizes ending in 1")
    return out


class QNetwork:
    """MLP mapping a feature vector to a scalar q-value."""

    def __init__(
        self,
        dims: Sequence[int] = DEFAULT_DIMS,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
        *,
        init: bool = True,
    ):
        """`init=False` leaves every parameter 0 and draws nothing, for copies and loads."""
        self.dims = layer_dims(dims)
        self.dtype = np.dtype(dtype)
        shapes = [
            shape
            for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:])
            for shape in ((fan_in, fan_out), (fan_out,))
        ]
        sizes = [math.prod(shape) for shape in shapes]
        # every parameter lives once, in `params`; the layers are views onto it
        self.params = np.zeros(sum(sizes), dtype=self.dtype)
        starts = [0, *itertools.accumulate(sizes)]
        views = [
            self.params[i:j].reshape(shape) for shape, i, j in zip(shapes, starts, starts[1:])
        ]
        self.weights: Tuple[np.ndarray, ...] = tuple(views[0::2])
        self.biases: Tuple[np.ndarray, ...] = tuple(views[1::2])
        if init:  # Glorot-uniform weights, zero biases
            rng = rng or np.random.default_rng()
            for w in self.weights:
                bound = np.sqrt(6.0 / sum(w.shape))
                w[...] = rng.uniform(-bound, bound, size=w.shape).astype(self.dtype)
        self.adam_m = np.zeros_like(self.params)
        self.adam_v = np.zeros_like(self.params)
        self.adam_t = 0

    def parameters(self) -> List[np.ndarray]:
        """Layer views in gradient order: w0, b0, w1, b1, ..."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    # -- forward / backward ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch (n, in_dim) -> (n,).  A single vector is fine too."""
        q, _ = self._forward_cached(np.atleast_2d(np.asarray(x, dtype=self.dtype)))
        return q

    def _forward_cached(self, x: np.ndarray) -> Tuple[np.ndarray, list]:
        cache = []
        h = x
        last = len(self.weights) - 1
        slope = self.dtype.type(LEAKY_SLOPE)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w
            z += b
            cache.append((h, z))
            h = np.maximum(z, slope * z) if i < last else z
        # a non-finite value in any layer propagates to the output, so one
        # check there suffices; the cache then names the first bad layer
        if not np.isfinite(h).all():
            for i, (_, z) in enumerate(cache):
                if not np.isfinite(z).all():
                    raise FloatingPointError(f"non-finite activation at layer {i}")
        return h[:, 0], cache

    def loss_and_gradients(
        self, x: np.ndarray, target: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        """Mean smooth-L1 loss over the batch and its parameter gradients."""
        x = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        target = np.asarray(target, dtype=self.dtype).reshape(-1)
        q, cache = self._forward_cached(x)
        n = x.shape[0]
        loss = float(np.mean(smooth_l1(q, target)))
        dq = (smooth_l1_grad(q, target) / n).astype(self.dtype)

        grads: List[np.ndarray] = [None] * (2 * len(self.weights))
        slope = self.dtype.type(LEAKY_SLOPE)
        delta = dq[:, None]  # gradient w.r.t. the layer output
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            h_in, z = cache[i]
            if i < last:
                delta = np.where(z > 0, delta, slope * delta)
            grads[2 * i] = h_in.T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ self.weights[i].T
        return loss, grads

    def adam_step(self, grads: List[np.ndarray], lr: float) -> None:
        """One Adam update with bias correction."""
        params = self.parameters()
        if len(grads) != len(params):
            raise ValueError("gradient/parameter count mismatch")
        for g, p in zip(grads, params):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
        g = np.concatenate([grad.reshape(-1) for grad in grads])
        self.adam_t += 1
        t = self.adam_t
        m, v = self.adam_m, self.adam_v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        step = lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)
        self.params -= step.astype(self.dtype, copy=False)

    def train_batch(self, x: np.ndarray, target: np.ndarray, lr: float) -> float:
        loss, grads = self.loss_and_gradients(x, target)
        self.adam_step(grads, lr)
        return loss

    # -- parameter plumbing -----------------------------------------------------

    def copy_from(self, other: "QNetwork") -> None:
        if other.dims != self.dims:
            raise ValueError("network shape mismatch")
        self.params[...] = other.params

    def clone(self) -> "QNetwork":
        twin = QNetwork(self.dims, dtype=self.dtype, init=False)
        twin.copy_from(self)
        return twin


# -- checkpoint format --------------------------------------------------------
#
# Line 1:  DQNCKPT v1 <agent-name>
# Line 2:  layer dims, space separated
# Then per layer: one line of row-major weights, one line of biases,
# decimal with 9+ significant digits (lossless for 32-bit values).


def _fmt(values: np.ndarray) -> str:
    return " ".join(f"{float(v):.9g}" for v in values.reshape(-1))


def save_checkpoint(net: QNetwork, agent_name: str, path) -> None:
    buf = io.StringIO()
    buf.write(f"{CKPT_MAGIC} {CKPT_VERSION} {agent_name}\n")
    buf.write(" ".join(str(d) for d in net.dims) + "\n")
    for w, b in zip(net.weights, net.biases):
        buf.write(_fmt(w) + "\n")
        buf.write(_fmt(b) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> Tuple[QNetwork, str]:
    """Read a checkpoint; returns (network, agent_name)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    if len(lines) < 2:
        raise ValueError(f"{path}: truncated checkpoint")
    head = lines[0].split()
    if len(head) != 3 or head[0] != CKPT_MAGIC or head[1] != CKPT_VERSION:
        raise ValueError(f"{path}: bad checkpoint header {lines[0]!r}")
    agent_name = head[2]
    try:
        dims = tuple(int(t) for t in lines[1].split())
    except ValueError:
        dims = (lines[1],)  # not integers: refused, showing the line
    try:
        dims = layer_dims(dims)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if len(lines) < 2 * len(dims):  # header, dims, then two lines per layer
        raise ValueError(f"{path}: truncated checkpoint")
    layers = []  # all sizes are checked before the network is allocated
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.array([np.float32(t) for t in lines[2 + 2 * i].split()], dtype=np.float32)
        b = np.array([np.float32(t) for t in lines[3 + 2 * i].split()], dtype=np.float32)
        if w.size != fan_in * fan_out or b.size != fan_out:
            raise ValueError(f"{path}: layer {i} size mismatch")
        layers.append((w.reshape(fan_in, fan_out), b))
    net = QNetwork(dims, init=False)
    for (w, b), weights, biases in zip(layers, net.weights, net.biases):
        weights[...] = w
        biases[...] = b
    if not np.isfinite(net.params).all():
        raise ValueError(f"{path}: non-finite parameter in checkpoint")
    return net, agent_name
