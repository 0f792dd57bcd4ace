"""Deterministic DSP primitives.

Butterworth-magnitude FIR design, anti-aliased x8 decimation and
interpolation around the 256-point network frame, peak-over-RMS SNR,
SNR-controlled mixing, and the banded convolution-matrix construction
that turns filtering into a trainable matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .signals import NoiseRecord, ShotRecord, Waveform, rms

DEFAULT_KERNEL_LEN = 63
AA_KERNEL_LEN = 127
_DESIGN_GRID = 8192

_design_cache: dict[tuple, "FilterSpec"] = {}


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


def butterworth_gain_db(f, cutoff_hz: float, order: int) -> np.ndarray:
    """Analytic Butterworth magnitude in dB: -10*log10(1 + (f/fc)^(2n))."""
    f = np.asarray(f, dtype=np.float64)
    return -10.0 * np.log10(1.0 + (f / cutoff_hz) ** (2 * order))


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
    key = (order, float(cutoff_hz), float(fs), kernel_len)
    if key in _design_cache:
        return _design_cache[key]

    freqs = np.arange(_DESIGN_GRID // 2 + 1) * (fs / _DESIGN_GRID)
    mag = 1.0 / np.sqrt(1.0 + (freqs / cutoff_hz) ** (2 * order))
    impulse = np.fft.irfft(mag, n=_DESIGN_GRID)
    half = kernel_len // 2
    kernel = np.concatenate([impulse[-half:], impulse[: half + 1]]) if half else impulse[:1].copy()
    kernel = kernel / np.sum(kernel)
    spec = FilterSpec(order, float(cutoff_hz), float(fs), kernel)
    _design_cache[key] = spec
    return spec


def convolve_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-phase filtering: centered convolution with zero-padded edges."""
    x = np.asarray(x, dtype=np.float64)
    full = np.convolve(x, kernel)
    half = (kernel.size - 1) // 2
    return full[half: half + x.size]


def _filter_frame(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-phase filtering with replicated edges, so constant frames
    stay constant across the whole output."""
    half = (kernel.size - 1) // 2
    if half == 0:
        return x * kernel[0]
    padded = np.pad(x, half, mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def anti_alias_spec(fs: float, factor: int) -> FilterSpec:
    """Order-8 low-pass at fs/(2*factor) with AA_KERNEL_LEN taps, used
    before decimation and after interpolation: the muzzle blast has no
    energy above fs/16, so an fs/16 cutoff at factor 8 passes it
    essentially untouched."""
    return design_butterworth(8, fs / (2.0 * factor), fs, kernel_len=AA_KERNEL_LEN)


def decimate(x: np.ndarray, fs: float, factor: int = 8) -> np.ndarray:
    """Low-pass filter then keep every factor-th sample.

    Input length must divide by factor; a 2048-sample frame becomes the
    256-point representation the network consumes.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size % factor != 0:
        raise DataError(f"length {x.size} not divisible by factor {factor}")
    spec = anti_alias_spec(fs, factor)
    return _filter_frame(x, spec.kernel)[::factor]


def interpolate(y: np.ndarray, fs_out: float, factor: int = 8) -> np.ndarray:
    """Zero-stuff by factor and low-pass at the output rate (gain x factor).

    Inverse of decimate for signals band-limited below fs_out/(2*factor):
    interpolate(decimate(x)) reproduces such signals within 1% relative
    RMS away from the frame edges. The kernel's polyphase branches are
    DC-normalized (the order-8 law alone leaves its first spectral
    image only 48 dB down, an ~0.8% ripple on constants).
    """
    y = np.asarray(y, dtype=np.float64)
    spec = anti_alias_spec(fs_out, factor)
    kernel = _interp_kernel(spec, factor)
    half = (kernel.size - 1) // 2
    pad = -(-half // factor)  # ceil: replicated originals covering the kernel
    y_padded = np.pad(y, pad, mode="edge")
    stuffed = np.zeros(y_padded.size * factor, dtype=np.float64)
    stuffed[::factor] = y_padded
    out = convolve_same(stuffed, kernel)
    return out[pad * factor: pad * factor + y.size * factor]


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


@dataclass(frozen=True)
class MixResult:
    noisy: Waveform
    clean: Waveform
    achieved_snr_db: float
    noise_scale: float


def mix_at_snr(
    shot: ShotRecord,
    noise: NoiseRecord,
    noise_offset: int,
    target_snr_db: float,
) -> MixResult:
    """Add a scaled noise segment to the clean shot to hit a target SNR.

    The segment starting at noise_offset (shot length) is scaled by
    s = peak_pa / (segment RMS * 10^(snr/20)) and summed onto the shot;
    recomputing the SNR on the result returns the target exactly up to
    float rounding. The clean frame passes through unmodified as the
    training target, annotations intact on both outputs.
    """
    n = len(shot.waveform)
    segment = noise.waveform.samples[noise_offset: noise_offset + n]
    if noise_offset < 0 or segment.size < n:
        raise DataError(
            f"noise offset {noise_offset} leaves no {n}-sample segment "
            f"in {len(noise.waveform)} samples"
        )
    seg_rms = rms(segment)
    if seg_rms <= 0:
        raise NumericError("noise segment is silent (zero RMS)")
    scale = shot.peak_pa / (seg_rms * 10.0 ** (target_snr_db / 20.0))
    noisy = Waveform(
        shot.waveform.samples + scale * segment,
        shot.waveform.fs,
        list(shot.waveform.annotations),
    )
    achieved = snr_db(shot, scale * segment)
    return MixResult(noisy, shot.waveform, achieved, scale)
