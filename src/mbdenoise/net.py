"""The lightweight denoising network and its training math.

A single-hidden-layer fully connected autoencoder (256 -> hidden -> 256,
tanh hidden activation, linear reconstruction) followed by a 256x256
filter matrix that starts life as a low-pass filter and is itself
trainable once released. Batch forward, sum-of-squares loss, exact
analytic backprop, Adam updates honoring the filter-freeze flag, and a
byte-stable checkpoint format; one frame is a batch of one.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import FilterSpec, decimate, interpolate, kernel_to_matrix
from .errors import DataError, NumericError
from .signals import atomic_write

CHECKPOINT_MAGIC = b"MBDN"
CHECKPOINT_VERSION = 1


@dataclass
class Network:
    """Parameters of the denoiser plus the filter-layer freeze flag.

    Shapes: w1 (hidden, dim), b1 (hidden,), w2 (dim, hidden), b2 (dim,),
    f (dim, dim). input_scale is the corpus-level normalization applied
    to frames before the tanh path and inverted on output; fs and
    decim_factor document the full-rate signal chain the model serves.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    f: np.ndarray
    hidden: int
    activation: str = "tanh"
    f_frozen: bool = True
    input_scale: float = 1.0
    seed: int = 0
    fs: int = 32768
    decim_factor: int = 8

    @property
    def dim(self) -> int:
        return self.b2.size

    @property
    def frame_len(self) -> int:
        return self.dim * self.decim_factor

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2, "f": self.f}

    def f_hash(self) -> str:
        """Hash of the filter-matrix bytes; constant over frozen segments."""
        return hashlib.sha256(self.f.tobytes()).hexdigest()


@dataclass(frozen=True)
class LossReport:
    """Sum of squared errors per example; batches report the mean of
    per-example sums so the learning rate is batch-size independent."""

    mse: float
    n_examples: int

    def __post_init__(self):
        if self.mse < 0:
            raise NumericError(f"negative loss {self.mse}")


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    f: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2, "f": self.f}


def init_network(
    hidden: int,
    seed: int,
    filter_spec: FilterSpec,
    dim: int = 256,
    fs: int = 32768,
    decim_factor: int = 8,
) -> Network:
    """Deterministically initialize the network for a given seed.

    w1 and w2 are Glorot-uniform (drawn in that order), biases zero, and
    the filter layer is the banded convolution matrix of filter_spec,
    frozen until the training schedule releases it.
    """
    if hidden < 1:
        raise DataError(f"hidden must be >= 1, got {hidden}")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (dim + hidden))
    w1 = rng.uniform(-lim1, lim1, size=(hidden, dim))
    lim2 = np.sqrt(6.0 / (hidden + dim))
    w2 = rng.uniform(-lim2, lim2, size=(dim, hidden))
    f = kernel_to_matrix(filter_spec, dim)
    return Network(
        w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(dim), f=f,
        hidden=hidden, f_frozen=True, seed=seed, fs=fs, decim_factor=decim_factor,
    )


@dataclass(frozen=True)
class ForwardCache:
    """Intermediates needed by backward: input, hidden activation, and
    the pre-filter reconstruction."""

    x: np.ndarray
    a: np.ndarray
    z: np.ndarray


def forward_batch(net: Network, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Row-wise y = f @ (w2 @ tanh(w1 @ x + b1) + b2) over a
    (n_examples, dim) batch.

    The reconstruction before the filter layer is linear; the filter
    layer smooths away high-frequency artifacts of the tanh path.
    """
    X = np.asarray(X, dtype=np.float64)
    A = np.tanh(X @ net.w1.T + net.b1)
    Z = A @ net.w2.T + net.b2
    Y = Z @ net.f.T
    return Y, ForwardCache(X, A, Z)


def mse_loss(y: np.ndarray, target: np.ndarray) -> LossReport:
    """Sum of squared per-sample errors; 2-D inputs average row sums."""
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise DataError(f"shape mismatch {y.shape} vs {target.shape}")
    diff = y - target
    if diff.ndim == 1:
        return LossReport(float(np.dot(diff, diff)), 1)
    per_example = np.sum(diff * diff, axis=1)
    return LossReport(float(np.mean(per_example)), diff.shape[0])


def backward_batch(net: Network, cache: ForwardCache, grad_out: np.ndarray) -> Gradients:
    """Exact gradients of sum_n <grad_out[n], y[n]> through the forward
    graph.

    grad_out is dL/dY (for the sum-of-squares loss, 2*(Y - target));
    pre-scale it by 1/n_examples for a batch-mean loss. The filter
    gradient is always computed; the optimizer discards it while the
    layer is frozen.
    """
    G = np.asarray(grad_out, dtype=np.float64)
    dF = G.T @ cache.z
    dZ = G @ net.f
    db2 = dZ.sum(axis=0)
    dW2 = dZ.T @ cache.a
    dA = dZ @ net.w2
    dU = dA * (1.0 - cache.a * cache.a)
    db1 = dU.sum(axis=0)
    dW1 = dU.T @ cache.x
    return Gradients(dW1, db1, dW2, db2, dF)


@dataclass
class AdamState:
    """Per-parameter Adam moments; step counts advance only when a
    parameter is actually updated, so the filter layer starts its own
    bias-correction clock at release."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)


def adam_step(
    net: Network,
    grads: Gradients,
    state: AdamState,
    lr: float = 1e-3,
    f_lr_scale: float = 0.5,
) -> Network:
    """One Adam update on the unfrozen parameters, in place.

    The frozen filter matrix is left untouched bit for bit (no moment
    accumulation either). f_lr_scale shrinks the filter learning rate
    since it starts near a good solution.
    """
    params = net.params()
    for name, grad in grads.as_dict().items():
        if name == "f" and net.f_frozen:
            continue
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(grad)
            state.v[name] = np.zeros_like(grad)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - state.beta1) * (grad - m)
        v += (1.0 - state.beta2) * (grad * grad - v)
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        step = lr * f_lr_scale if name == "f" else lr
        params[name] -= step * m_hat / (np.sqrt(v_hat) + state.eps)
    return net


def denoise_frame(net: Network, frame: np.ndarray) -> np.ndarray:
    """Full inference chain for one full-rate frame: decimate, scale,
    forward as a batch of one, unscale, interpolate back to the original
    length."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size != net.frame_len:
        raise DataError(f"frame length {frame.size} != {net.frame_len}")
    x = decimate(frame, net.fs, net.decim_factor) / net.input_scale
    if not np.all(np.isfinite(x)):
        raise NumericError("network input contains NaN or Inf")
    y, _ = forward_batch(net, x[np.newaxis])
    return interpolate(y[0] * net.input_scale, net.fs, net.decim_factor)


# ---------------------------------------------------------------------------
# Checkpoint format: fixed header + raw row-major float64 arrays. Plain
# struct packing keeps two identical runs byte-identical on disk.
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, net: Network) -> None:
    act = net.activation.encode("ascii")
    header = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<IIqIIBd", net.dim, net.hidden, net.seed, net.fs,
                    net.decim_factor, int(net.f_frozen), net.input_scale),
        struct.pack("<B", len(act)),
        act,
    ])
    body = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for arr in (net.w1, net.b1, net.w2, net.b2, net.f)
    )
    atomic_write(path, header + body)


def load_checkpoint(path: str | Path) -> Network:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    dim, hidden, seed, fs, decim_factor, f_frozen, input_scale = struct.unpack_from(
        "<IIqIIBd", raw, 8)
    offset = 8 + struct.calcsize("<IIqIIBd")
    (act_len,) = struct.unpack_from("<B", raw, offset)
    offset += 1
    activation = raw[offset:offset + act_len].decode("ascii")
    offset += act_len

    def take(shape):
        nonlocal offset
        count = int(np.prod(shape))
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return arr.reshape(shape).astype(np.float64)

    w1 = take((hidden, dim))
    b1 = take((hidden,))
    w2 = take((dim, hidden))
    b2 = take((dim,))
    f = take((dim, dim))
    if offset != len(raw):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return Network(w1, b1, w2, b2, f, hidden, activation, bool(f_frozen),
                   input_scale, seed, fs, decim_factor)
