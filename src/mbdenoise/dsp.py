"""Deterministic DSP primitives.

Butterworth-magnitude FIR design, anti-aliased x8 decimation and
interpolation around the 256-point network frame (the inference plan's
matrices are read off these two maps, a block of unit frames at a
time), peak-over-RMS SNR, SNR-controlled mixing, and the banded
convolution-matrix construction that turns filtering into a trainable
matrix-vector product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .signals import ShotRecord, Waveform, rms

DEFAULT_KERNEL_LEN = 63
AA_KERNEL_LEN = 127
_DESIGN_GRID = 8192
# Unit frames per decimate or interpolate call while a matrix is read off.
_UNIT_BLOCK = 16


@dataclass(frozen=True)
class FilterSpec:
    """A linear-phase FIR low-pass realizing a Butterworth magnitude law.

    kernel is symmetric with odd length (zero phase when centered) and
    unit DC gain; order/cutoff_hz/fs document the analytic target
    |H(f)|^2 = 1 / (1 + (f/cutoff)^(2*order)).
    """

    order: int
    cutoff_hz: float
    fs: float
    kernel: np.ndarray

    def __post_init__(self):
        if not (0 < self.cutoff_hz < self.fs / 2):
            raise DataError(
                f"cutoff {self.cutoff_hz} Hz outside (0, fs/2) for fs={self.fs}"
            )
        if self.kernel_len % 2 != 1:
            raise DataError(f"kernel length {self.kernel_len} must be odd")
        if abs(float(np.sum(self.kernel)) - 1.0) > 1e-3:
            raise DataError("kernel DC gain is not 1")
        self.kernel.setflags(write=False)

    @property
    def kernel_len(self) -> int:
        return self.kernel.size

    def response_db(self, f) -> np.ndarray:
        """Amplitude response in dB at frequencies f (Hz), zero-phase form."""
        f = np.atleast_1d(np.asarray(f, dtype=np.float64))
        k = np.arange(self.kernel_len) - (self.kernel_len - 1) // 2
        phases = 2.0 * np.pi * np.outer(f, k) / self.fs
        amp = np.abs(np.cos(phases) @ self.kernel)
        return 20.0 * np.log10(np.maximum(amp, 1e-300))


def design_butterworth(
    order: int,
    cutoff_hz: float,
    fs: float,
    kernel_len: int = DEFAULT_KERNEL_LEN,
) -> FilterSpec:
    """Design a zero-phase FIR kernel matching the Butterworth magnitude.

    The analytic magnitude is sampled on a dense frequency grid, brought
    to the time domain (giving a symmetric impulse response), truncated
    to kernel_len center taps, and renormalized to unit DC gain.

    Args:
        order: Butterworth order (>= 1); 8 throughout this pipeline.
        cutoff_hz: -3 dB cutoff, 0 < cutoff_hz < fs/2.
        fs: sampling frequency the kernel will run at, in Hz.
        kernel_len: odd tap count. 63 taps keep the realized response
            within 0.5 dB of the analytic law down to about -60 dB.
    """
    if order < 1:
        raise DataError(f"order must be >= 1, got {order}")
    if not (0 < cutoff_hz < fs / 2):
        raise DataError(f"cutoff {cutoff_hz} Hz not in (0, {fs / 2}) Hz")
    if kernel_len % 2 != 1 or kernel_len < 1:
        raise DataError(f"kernel_len must be odd and positive, got {kernel_len}")
    return _design(order, float(cutoff_hz), float(fs), kernel_len)


@functools.cache
def _design(order: int, cutoff_hz: float, fs: float, kernel_len: int) -> FilterSpec:
    """design_butterworth's spec for checked arguments, built once."""
    freqs = np.arange(_DESIGN_GRID // 2 + 1) * (fs / _DESIGN_GRID)
    mag = 1.0 / np.sqrt(1.0 + (freqs / cutoff_hz) ** (2 * order))
    impulse = np.fft.irfft(mag, n=_DESIGN_GRID)
    half = kernel_len // 2
    kernel = np.concatenate([impulse[-half:], impulse[: half + 1]]) if half else impulse[:1].copy()
    kernel = kernel / np.sum(kernel)
    return FilterSpec(order, cutoff_hz, fs, kernel)


def anti_alias_spec(fs: float, factor: int) -> FilterSpec:
    """Order-8 low-pass at fs/(2*factor) with AA_KERNEL_LEN taps, used
    before decimation and after interpolation: the muzzle blast has no
    energy above fs/16, so an fs/16 cutoff at factor 8 passes it
    essentially untouched."""
    return design_butterworth(8, fs / (2.0 * factor), fs, kernel_len=AA_KERNEL_LEN)


def decimate(x: np.ndarray, fs: float, factor: int = 8) -> np.ndarray:
    """Low-pass filter then keep every factor-th sample, along the last
    axis of a frame or a stack of frames of any leading shape.

    The filter is zero-phase with replicated edges, so constant frames
    stay constant across the whole output. Only the kept outputs are
    computed: output i is the edge-padded window starting at i*factor
    against the kernel. A row's result does not depend on how many
    rows are stacked with it. The last axis must divide by factor; a
    2048-sample frame becomes the 256-point representation the network
    consumes.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n % factor != 0:
        raise DataError(f"length {n} not divisible by factor {factor}")
    kernel = anti_alias_spec(fs, factor).kernel
    half = (kernel.size - 1) // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel.size, axis=-1)
    # einsum, not `@`: matmul cannot hand these overlapping windows to
    # BLAS and its fallback loop runs at half the speed.
    return np.einsum("...ik,k->...i", windows[..., ::factor, :], kernel)


def interpolate(y: np.ndarray, fs_out: float, factor: int = 8) -> np.ndarray:
    """Zero-stuff by factor and low-pass at the output rate (gain x
    factor), along the last axis of a frame or a stack of frames of any
    leading shape.

    Inverse of decimate for signals band-limited below fs_out/(2*factor):
    interpolate(decimate(x)) reproduces such signals within 1% relative
    RMS away from the frame edges. The kernel's polyphase branches are
    DC-normalized (the order-8 law alone leaves its first spectral
    image only 48 dB down, an ~0.8% ripple on constants). The stuffed
    zeros are never multiplied: output phase r of input position i is a
    window of edge-padded inputs times branch r, one product for all
    phases and rows.
    """
    y = np.asarray(y, dtype=np.float64)
    branches = _interp_branches(fs_out, factor)
    pad = branches.shape[0] // 2
    padded = np.pad(y, [(0, 0)] * (y.ndim - 1) + [(pad, pad)], mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, branches.shape[0], axis=-1)
    return (windows @ branches).reshape(*y.shape[:-1], y.shape[-1] * factor)


def decimation_matrix(frame_len: int, fs: float, factor: int = 8) -> np.ndarray:
    """decimate as a (frame_len // factor, frame_len) matrix D, so that
    D @ x equals decimate(x, fs, factor) for a frame x up to summation
    order. Read off decimate and cached read-only."""
    return _linear_map("decimate", frame_len, fs, factor)


def interpolation_matrix(dim: int, fs_out: float, factor: int = 8) -> np.ndarray:
    """interpolate as a (dim * factor, dim) matrix I, so that I @ y
    equals interpolate(y, fs_out, factor) for a dim-sample frame y up to
    summation order. Read off interpolate and cached read-only."""
    return _linear_map("interpolate", dim, fs_out, factor)


@functools.cache
def _linear_map(kind: str, n: int, fs: float, factor: int) -> np.ndarray:
    """The matrix of decimate or interpolate (kind names which) on
    n-sample frames, read-only: column j is the map of the j-th unit
    frame, computed _UNIT_BLOCK unit frames at a time."""
    resample, n_out = (decimate, n // factor) if kind == "decimate" else (interpolate, n * factor)
    matrix = np.empty((n_out, n))
    for start in range(0, n, _UNIT_BLOCK):
        units = np.eye(min(_UNIT_BLOCK, n - start), n, k=start)
        matrix[:, start:start + units.shape[0]] = resample(units, fs, factor).T
    matrix.setflags(write=False)
    return matrix


@functools.cache
def _interp_branches(fs_out: float, factor: int) -> np.ndarray:
    """The interpolation taps as a (2*pad + 1, factor) branch matrix:
    entry (d, r) weighs input position i + d - pad in output sample
    i*factor + r, where pad = ceil(half / factor) for the kernel
    half-width half. Cached read-only."""
    kernel = _interp_kernel(anti_alias_spec(fs_out, factor), factor)
    half = (kernel.size - 1) // 2
    pad = -(-half // factor)
    # Kernel tap that lands input position i + d - pad on output sample
    # i*factor + r; taps outside the kernel are zero.
    k = half + np.arange(factor) - (np.arange(2 * pad + 1)[:, None] - pad) * factor
    inside = (k >= 0) & (k < kernel.size)
    branches = np.where(inside, kernel[np.where(inside, k, 0)], 0.0)
    branches.setflags(write=False)
    return branches


def _interp_kernel(spec: FilterSpec, factor: int) -> np.ndarray:
    """Interpolation taps: the low-pass kernel scaled by the factor,
    with each polyphase branch normalized to unit sum."""
    kernel = spec.kernel * factor
    half = (kernel.size - 1) // 2
    for r in range(factor):
        # Branch phases are indexed relative to the center tap.
        idx = np.arange(kernel.size)
        branch = (idx - half) % factor == r
        kernel[branch] /= np.sum(kernel[branch])
    return kernel


def kernel_to_matrix(spec: FilterSpec | np.ndarray, dim: int = 256) -> np.ndarray:
    """Build the dim x dim banded matrix realizing convolution by the kernel.

    Row n carries the kernel centered on column n (truncated at the frame
    edges), so matrix @ x equals the zero-padded convolution of the
    kernel with x: entry (n, m) is kernel[center + n - m], zero whenever
    |n - m| exceeds the kernel half-width. A unit-impulse kernel yields
    the identity.
    """
    kernel = spec.kernel if isinstance(spec, FilterSpec) else np.asarray(spec, dtype=np.float64)
    if kernel.size % 2 != 1:
        raise DataError(f"kernel length {kernel.size} must be odd")
    if kernel.size > 2 * dim - 1:
        raise DataError(f"kernel of {kernel.size} taps exceeds a {dim}-dim matrix")
    half = (kernel.size - 1) // 2
    rows = np.zeros((dim, dim), dtype=np.float64)
    for offset in range(-half, half + 1):
        rows += kernel[half + offset] * np.eye(dim, k=-offset)
    return rows


def snr_db(shot: ShotRecord, noise_segment: Waveform | np.ndarray) -> float:
    """Peak-over-RMS SNR in dB: 20*log10(MB peak pressure / noise RMS).

    Peak-over-RMS, not energy ratio, because the vehicle noise is itself
    impulsive and windowed energy would understate it.
    """
    samples = noise_segment.samples if isinstance(noise_segment, Waveform) else noise_segment
    noise_rms = rms(samples)
    if noise_rms <= 0:
        raise NumericError("noise segment is silent (zero RMS)")
    return 20.0 * math.log10(shot.peak_pa / noise_rms)


def mix_stack(
    segments: np.ndarray, shots: Sequence[ShotRecord], snrs_db: Sequence[float]
) -> np.ndarray:
    """Mix a stack of noise segments onto clean shots at target SNRs,
    in place.

    Row k of segments, a noise segment as long as shots[k], is scaled by
    s = peak_pa / (segment RMS * 10^(snrs_db[k]/20)) and shot k's clean
    frame is added to it, so the stack ends up holding the noisy frames.
    The RMS is signals.rms of the row bit for bit. Returns the scales s,
    one per row.
    """
    n = segments.shape[0]
    if len(shots) != n or len(snrs_db) != n:
        raise DataError(f"{n} noise segments for {len(shots)} shots and "
                        f"{len(snrs_db)} SNRs")
    seg_rms = np.sqrt(np.mean(segments * segments, axis=-1))
    if np.any(seg_rms <= 0):
        raise NumericError("noise segment is silent (zero RMS)")
    scales = np.array([shot.peak_pa / (r * 10.0 ** (snr / 20.0))
                       for shot, r, snr in zip(shots, seg_rms.tolist(), snrs_db)])
    segments *= scales[:, np.newaxis]
    for row, shot in zip(segments, shots):
        row += shot.waveform.samples
    return scales
