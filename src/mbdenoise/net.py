"""The lightweight denoising network and its training math.

A single-hidden-layer fully connected autoencoder (256 -> hidden -> 256,
tanh hidden activation, linear reconstruction) followed by a 256x256
filter matrix that starts life as a low-pass filter and is itself
trainable once released. Training takes the hidden activations of a
batch (hidden_layer) and batch_loss, which gives the batch-mean
sum-of-squares loss against targets that repeat across rows and its
exact gradients from hidden-layer statistics, never forming the
network's output; Adam updates honor the filter-freeze flag, and the
checkpoint format is byte-stable. Inference runs a Plan (compile_plan),
which folds the filter layer, the decimation, the input scale and the
interpolation into the weights. denoise_frame runs one frame through a
plan it compiles once per loaded checkpoint.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import FilterSpec, decimation_matrix, interpolation_matrix, kernel_to_matrix
# Inference no longer decimates here, but mbbench's tracer and its tests
# still look decimate up in this module.
from .dsp import decimate  # noqa: F401
from .errors import DataError, NumericError
from .signals import atomic_write

CHECKPOINT_MAGIC = b"MBDN"
CHECKPOINT_VERSION = 1
# The one hidden activation forward computes; checkpoints name it.
ACTIVATION = b"tanh"

# Adam's moment decay rates and denominator guard, the fixed values of
# Kingma & Ba (arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _layout(dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The network's parameter names and shapes, in the one order that
    params(), gradients, Adam and the checkpoint body share."""
    return {"w1": (hidden, dim), "b1": (hidden,), "w2": (dim, hidden),
            "b2": (dim,), "f": (dim, dim)}


@dataclass
class Network:
    """The denoiser's parameters, named and shaped by _layout, plus the
    filter-layer freeze flag. fs and decim_factor define the full-rate
    signal chain the model serves: frames are decimated with them,
    divided by input_scale before the tanh path, and the output is
    rescaled and interpolated back. train_curriculum sets input_scale
    from its training examples.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    f: np.ndarray
    f_frozen: bool = True
    input_scale: float = 1.0
    seed: int = 0
    fs: int = 32768
    decim_factor: int = 8
    # denoise_frame's cached inference plan: (the parameter arrays and
    # signal-chain fields it was compiled from, the plan).
    _plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.b2.size

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def frame_len(self) -> int:
        return self.dim * self.decim_factor

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _layout(self.dim, self.hidden)}

    def f_hash(self) -> str:
        """Hash of the filter-matrix bytes; constant over frozen segments."""
        return hashlib.sha256(self.f.tobytes()).hexdigest()


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
        f_frozen=True, seed=seed, fs=fs, decim_factor=decim_factor,
    )


def hidden_layer(net: Network, X: np.ndarray) -> np.ndarray:
    """The hidden activations tanh(w1 @ x + b1) of a (n_examples, dim)
    batch, one row per example."""
    A = np.asarray(X, dtype=np.float64) @ net.w1.T
    A += net.b1
    np.tanh(A, out=A)
    return A


def batch_loss(
    net: Network,
    X: np.ndarray,
    targets: np.ndarray,
    rows: np.ndarray,
    A: np.ndarray | None = None,
    grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """The loss (1/n) sum_n ||y_n - targets[rows[n]]||^2 of the n rows
    of X, with y = f @ (w2 @ tanh(w1 @ x + b1) + b2), and, with grads,
    its exact gradients keyed like net.params(); the filter gradient
    only while the layer is released.

    targets holds each distinct target frame once and rows gives each
    row's index into it. A is the batch's hidden_layer, made here unless
    given. No output y is made: the reconstruction and the filter are
    linear, so with W = [w2 | b2], [P | c] = f @ W and the augmented
    activations [A | 1], the loss and its gradients follow from the Gram
    matrix G = [A | 1].T @ [A | 1] (which holds A.T @ A, the row sum s
    and n) and the per-target sums S_k of the rows of [A | 1] whose
    target is k (which hold their count m_k):

        n loss   = <[P|c].T @ [P|c], G> - 2 <S, targets @ [P|c]>
                   + sum_k m_k ||targets_k||^2
        d[P | c] = (2/n) ([P|c] @ G - targets.T @ S)
        dA       = (2/n) ([A | 1] @ ([P|c].T @ [P|c])[:, :h] - (targets @ P)[rows])

    then dW1 and db1 through tanh' = 1 - a^2, [dW2 | db2] = f.T @ d[P|c]
    and dF = d[P|c] @ W.T. The only n x dim products are A's and dW1's.
    S comes from np.add.reduceat over A when rows is sorted, and over a
    copy of A sorted by target otherwise. Rounding can take the sum
    below zero at a perfect fit, so the loss is clipped at 0. A NaN
    input or target makes the loss NaN, a NumericError.
    """
    X = np.asarray(X, dtype=np.float64)
    if A is None:
        A = hidden_layer(net, X)
    n, h = A.shape
    rows = np.asarray(rows)
    counts = np.bincount(rows, minlength=len(targets))
    grouped = A if np.all(rows[1:] >= rows[:-1]) else A[np.argsort(rows, kind="stable")]
    present = counts > 0
    S = np.zeros((len(targets), h + 1))
    S[present, :h] = np.add.reduceat(grouped, (np.cumsum(counts) - counts)[present], axis=0)
    S[:, h] = counts
    G = np.empty((h + 1, h + 1))
    G[:h, :h] = A.T @ A
    G[:h, h] = G[h, :h] = A.sum(axis=0)
    G[h, h] = n
    W = np.column_stack((net.w2, net.b2))
    Pc = net.f @ W
    TP = targets @ Pc
    PtP = Pc.T @ Pc
    n_loss = (np.vdot(PtP, G) - 2.0 * np.vdot(S, TP)
              + counts @ np.einsum("kd,kd->k", targets, targets))
    if not np.isfinite(n_loss):
        raise NumericError("non-finite loss: a NaN or Inf input or target")
    loss = max(float(n_loss), 0.0) / n
    if not grads:
        return loss, None
    dPc = Pc @ G
    dPc -= targets.T @ S
    dPc *= 2.0 / n
    # dA, scaled in place by tanh' = 1 - a^2. Its per-row terms and the
    # slope share one array, so the gradients make two arrays of A's size.
    dU = A @ PtP[:h, :h]
    rowwise = np.take(PtP[h, :h] - TP[:, :h], rows, axis=0)
    dU += rowwise
    dU *= 2.0 / n
    slope = np.multiply(A, A, out=rowwise)
    np.subtract(1.0, slope, out=slope)
    dU *= slope
    dWb = net.f.T @ dPc
    out = {"w1": dU.T @ X, "b1": dU.sum(axis=0), "w2": dWb[:, :h], "b2": dWb[:, h]}
    if not net.f_frozen:
        out["f"] = dPc @ W.T
    return loss, out


@dataclass
class AdamState:
    """Per-parameter Adam moments and two scratch arrays of the same
    shape; step counts advance only when a parameter is actually
    updated, so the filter layer starts its own bias-correction clock at
    release."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(
    net: Network,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    f_lr_scale: float,
) -> Network:
    """One Adam update on the unfrozen parameters, in place.

    The frozen filter matrix is left untouched bit for bit (no moment
    accumulation either). f_lr_scale shrinks the filter learning rate
    since it starts near a good solution. Every intermediate is written
    into the parameter's scratch arrays in state, in the textbook
    order, so the update equals

        m += (1 - b1) * (g - m);  v += (1 - b2) * (g * g - v)
        p -= (step * m_hat) / (sqrt(v_hat) + eps)

    bit for bit without allocating.
    """
    params = net.params()
    for name, grad in grads.items():
        if name == "f" and net.f_frozen:
            continue
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(grad)
            state.v[name] = np.zeros_like(grad)
            state.t[name] = 0
            state.scratch[name] = (np.empty_like(grad), np.empty_like(grad))
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        update, denom = state.scratch[name]
        np.subtract(grad, m, out=update)
        update *= 1.0 - ADAM_BETA1
        m += update
        np.multiply(grad, grad, out=update)
        update -= v
        update *= 1.0 - ADAM_BETA2
        v += update
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=update)
        update *= lr * f_lr_scale if name == "f" else lr
        update /= denom
        params[name] -= update
    return net


@dataclass(frozen=True)
class Plan:
    """A network compiled for inference on full-rate frames.

    decimate and interpolate are linear maps D and I, and so is the
    filter layer, so the whole chain interpolate(s * (f @ (w2 @
    tanh(w1 @ decimate(x) / s + b1) + b2))) for input scale s is
    y = p @ tanh(q @ x + b1) + c with q = w1 @ D / s,
    p = s * I @ f @ w2 and c = s * I @ f @ b2. Calling a plan on a
    (n_frames, frame_len) stack runs that chain in two products.
    """

    q: np.ndarray
    b1: np.ndarray
    p: np.ndarray
    c: np.ndarray

    @property
    def frame_len(self) -> int:
        return self.q.shape[1]

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.frame_len:
            raise DataError(f"frames of shape {frames.shape} are not rows of "
                            f"{self.frame_len} samples")
        A = frames @ self.q.T
        A += self.b1
        # A NaN or Inf sample turns every hidden unit that weighs it
        # NaN or Inf, so the hidden rows show a non-finite frame.
        if not np.all(np.isfinite(A)):
            raise NumericError("network input contains NaN or Inf")
        np.tanh(A, out=A)
        Y = A @ self.p.T
        Y += self.c
        return Y


def compile_plan(net: Network) -> Plan:
    """The inference plan of net's current parameters."""
    D = decimation_matrix(net.frame_len, net.fs, net.decim_factor)
    I = interpolation_matrix(net.dim, net.fs, net.decim_factor)
    scale = net.input_scale
    q = net.w1 @ D
    q /= scale
    p = I @ (net.f @ net.w2)
    p *= scale
    c = I @ (net.f @ net.b2)
    c *= scale
    return Plan(q, net.b1.copy(), p, c)


def _inference_plan(net: Network) -> Plan:
    """net's inference plan, compiled once for a network whose
    parameter arrays can never change (load_checkpoint's) and reused
    while those arrays and the signal-chain fields stay in place;
    compiled afresh otherwise, so a plan is never older than the
    weights."""
    arrays = tuple(net.params().values())
    fields = (net.input_scale, net.fs, net.decim_factor)
    if net._plan is not None:
        cached_arrays, cached_fields, plan = net._plan
        if cached_fields == fields and all(a is b for a, b in zip(arrays, cached_arrays)):
            return plan
    plan = compile_plan(net)
    if all(_immutable(arr) for arr in arrays):
        net._plan = (arrays, fields, plan)
    return plan


def _immutable(arr: np.ndarray) -> bool:
    """Whether arr views the bytes of an immutable bytes object, which
    no one can make writeable."""
    base = arr.base
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def denoise_frame(net: Network, frame: np.ndarray) -> np.ndarray:
    """The network's inference plan on one full-rate frame."""
    return _inference_plan(net)(np.reshape(frame, (1, -1)))[0]


# ---------------------------------------------------------------------------
# Checkpoint format: fixed header + raw row-major float64 arrays. Plain
# struct packing keeps two identical runs byte-identical on disk.
# ---------------------------------------------------------------------------

def _check_header(path: str | Path, dim: int, hidden: int, fs: int, decim_factor: int,
                  input_scale: float) -> None:
    if dim < 1 or hidden < 1:
        raise DataError(f"{path}: checkpoint header needs dim >= 1 and hidden >= 1, "
                        f"got {dim} and {hidden}")
    if fs < 1 or decim_factor < 1 or not 0 < input_scale < math.inf:
        raise DataError(
            f"{path}: checkpoint header needs fs >= 1, decim_factor >= 1 and a "
            f"finite input_scale > 0, got {fs}, {decim_factor} and {input_scale}"
        )


def save_checkpoint(path: str | Path, net: Network) -> None:
    _check_header(path, net.dim, net.hidden, net.fs, net.decim_factor, net.input_scale)
    header = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<IIqIIBd", net.dim, net.hidden, net.seed, net.fs,
                    net.decim_factor, int(net.f_frozen), net.input_scale),
        struct.pack("<B", len(ACTIVATION)),
        ACTIVATION,
    ])
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    for arr in net.params().values())
    atomic_write(path, header + body)


def load_checkpoint(path: str | Path) -> Network:
    """The network saved at path. Its parameter arrays are read-only
    views of the file's bytes, so denoise_frame compiles its inference
    plan once; assign a new array to change a parameter. A header whose
    dim, hidden, fs or decim_factor is below 1, or whose input_scale is
    not finite and positive, is a DataError, and so is a parameter array
    holding NaN or Inf."""
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    offset = 8 + struct.calcsize("<IIqIIBd")
    if len(raw) < offset + 1 or len(raw) < offset + 1 + raw[offset]:
        raise DataError(f"{path}: checkpoint header is truncated")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    dim, hidden, seed, fs, decim_factor, f_frozen, input_scale = struct.unpack_from(
        "<IIqIIBd", raw, 8)
    _check_header(path, dim, hidden, fs, decim_factor, input_scale)
    activation = raw[offset + 1:offset + 1 + raw[offset]]
    if activation != ACTIVATION:
        name = activation.decode("ascii", "backslashreplace")
        raise DataError(f"{path}: checkpoint activation {name!r} is not 'tanh'")
    offset += 1 + len(activation)
    layout = _layout(dim, hidden)
    body_len = 8 * sum(math.prod(shape) for shape in layout.values())
    if len(raw) - offset != body_len:
        raise DataError(
            f"{path}: checkpoint body is {len(raw) - offset} bytes, but dim {dim} "
            f"and hidden {hidden} need {body_len}"
        )
    params = {}
    for name, shape in layout.items():
        count = math.prod(shape)
        params[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).astype(
            float, copy=False)
        if not np.isfinite(params[name]).all():
            raise DataError(f"{path}: checkpoint parameter {name} holds NaN or Inf")
        offset += 8 * count
    return Network(**params, f_frozen=bool(f_frozen), input_scale=input_scale,
                   seed=seed, fs=fs, decim_factor=decim_factor)
