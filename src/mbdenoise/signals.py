"""Acoustic signal types, synthetic generators, and WAV round-trip I/O.

Pressure time series are float64 numpy arrays in pascals. Ground-truth
event times ride along as (label, onset_sample) annotations, persisted in
a plain-text sidecar file next to each WAV.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ChannelCountError,
    DataError,
    EmptyDataError,
    MalformedWavError,
    UnsupportedWavError,
)

EVENT_LABELS = ("MB", "MW")


def rms(x: np.ndarray) -> float:
    """Effective (root-mean-square) value of a sample array."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean(x * x)))


@dataclass
class Waveform:
    """Annotated pressure time series.

    Attributes:
        samples: pressure values in Pa, float64, non-empty, all finite.
        fs: sampling frequency in Hz (positive integer).
        annotations: list of (label, onset_sample) ground-truth events,
            labels restricted to MB (muzzle blast) / MW (Mach wave).
    """

    samples: np.ndarray
    fs: int
    annotations: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0 or int(self.fs) != self.fs:
            raise DataError(f"fs must be a positive integer, got {self.fs!r}")
        self.fs = int(self.fs)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("samples contain NaN or Inf")
        for label, onset in self.annotations:
            if label not in EVENT_LABELS:
                raise DataError(f"unknown annotation label {label!r}")
            if not 0 <= onset < self.samples.size:
                raise DataError(
                    f"annotation onset {onset} outside [0, {self.samples.size})"
                )

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs

    def onsets(self, label: str = "MB") -> list[int]:
        return [s for lab, s in self.annotations if lab == label]


@dataclass
class ShotRecord:
    """One clean shot: a waveform with exactly one MB annotation.

    peak_pa is the maximum absolute pressure over the MB support
    (onset to end of record; everything before onset is pre-trigger).
    """

    waveform: Waveform
    caliber_class: str
    peak_pa: float
    shot_id: str

    def __post_init__(self):
        if not self.caliber_class:
            raise DataError("caliber_class must be non-empty")
        mb = self.waveform.onsets("MB")
        if len(mb) != 1:
            raise DataError(f"shot needs exactly one MB annotation, got {len(mb)}")
        expected = float(np.max(np.abs(self.waveform.samples[mb[0]:])))
        if not (self.peak_pa > 0):
            raise DataError("peak_pa must be positive")
        if not math.isclose(self.peak_pa, expected, rel_tol=1e-9):
            raise DataError(
                f"peak_pa {self.peak_pa} != max |samples| over MB support {expected}"
            )

    @property
    def onset(self) -> int:
        return self.waveform.onsets("MB")[0]

    @classmethod
    def from_waveform(cls, waveform: Waveform, caliber_class: str, shot_id: str):
        mb = waveform.onsets("MB")
        if len(mb) != 1:
            raise DataError(f"shot needs exactly one MB annotation, got {len(mb)}")
        peak = float(np.max(np.abs(waveform.samples[mb[0]:])))
        return cls(waveform, caliber_class, peak, shot_id)


@dataclass
class NoiseRecord:
    """One noise recording: an unannotated waveform plus its RMS pressure."""

    waveform: Waveform
    noise_id: str
    rms_pa: float

    def __post_init__(self):
        if self.waveform.annotations:
            raise DataError("noise records carry no annotations")
        expected = rms(self.waveform.samples)
        if not (self.rms_pa > 0):
            raise DataError("rms_pa must be positive")
        if abs(self.rms_pa - expected) > 1e-9 * expected:
            raise DataError(f"rms_pa {self.rms_pa} != measured RMS {expected}")

    @classmethod
    def from_waveform(cls, waveform: Waveform, noise_id: str):
        return cls(waveform, noise_id, rms(waveform.samples))


def friedlander(
    peak_pa: float,
    t_plus: float,
    fs: int,
    n_samples: int,
    onset: int,
    caliber_class: str = "A",
    shot_id: str = "shot-0",
) -> ShotRecord:
    """Synthesize a muzzle blast as a Friedlander blast wave.

    p(t) = peak_pa * (1 - t/t_plus) * exp(-t/t_plus) for t >= 0 past the
    onset sample, zero before. Sharp rise to peak_pa, zero crossing at
    t_plus, negative phase bottoming at -peak_pa*e^-2, and decay below
    1% of peak by 8*t_plus.

    Args:
        peak_pa: peak overpressure in Pa (> 0).
        t_plus: positive-phase duration in seconds (> 0).
        fs: sampling frequency in Hz.
        n_samples: total record length; the 8*t_plus support must fit.
        onset: sample index of the blast front.

    Returns:
        ShotRecord with one MB annotation at the onset.
    """
    if peak_pa <= 0:
        raise DataError(f"peak_pa must be > 0, got {peak_pa}")
    if t_plus <= 0:
        raise DataError(f"t_plus must be > 0, got {t_plus}")
    support = int(math.ceil(8.0 * t_plus * fs))
    if onset < 0 or onset + support > n_samples:
        raise DataError(
            f"onset {onset} + support {support} does not fit in {n_samples} samples"
        )
    samples = np.zeros(n_samples, dtype=np.float64)
    t = np.arange(n_samples - onset, dtype=np.float64) / fs
    samples[onset:] = peak_pa * (1.0 - t / t_plus) * np.exp(-t / t_plus)
    wave = Waveform(samples, fs, [("MB", onset)])
    return ShotRecord(wave, caliber_class, peak_pa, shot_id)


def gen_vehicle_noise(
    seed: int,
    duration: float,
    fs: int,
    rms_target: float,
    noise_id: str | None = None,
    burst_rate: float = 2.0,
) -> NoiseRecord:
    """Synthesize broadband, impulsive vehicle noise.

    Recipe: 1/f-shaped broadband noise plus engine harmonic tones plus
    short random transient bursts (the impulsive part), globally scaled
    to the requested RMS. Deterministic for a fixed seed. The recipe is
    a documented stand-in; real recordings can be substituted via WAV.

    Args:
        seed: generator seed; same seed gives bit-identical output.
        duration: record length in seconds.
        fs: sampling frequency in Hz.
        rms_target: effective pressure of the output in Pa.
        burst_rate: mean transient bursts per second (each peaking well
            above 3x the record RMS).
    """
    n = int(round(duration * fs))
    if n < 1:
        raise DataError(f"duration {duration}s at {fs} Hz yields no samples")
    if rms_target <= 0:
        raise DataError(f"rms_target must be > 0, got {rms_target}")
    rng = np.random.default_rng(seed)

    # 1/f broadband bed: shape white noise in the frequency domain with a
    # 20 Hz corner so DC stays bounded.
    white = rng.standard_normal(n)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    shape = 1.0 / np.sqrt(np.maximum(freqs, 20.0))
    shape[0] = 0.0
    pink = np.fft.irfft(np.fft.rfft(white) * shape, n=n)
    pink /= rms(pink)

    # Engine harmonics: fundamental with decaying partials.
    f0 = rng.uniform(70.0, 130.0)
    t = np.arange(n, dtype=np.float64) / fs
    harm = np.zeros(n)
    for k in range(1, 7):
        harm += (1.0 / k) * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
    harm *= 0.6 / rms(harm)

    # Transient bursts: short damped oscillations, peaks 5-9x the bed RMS.
    x = pink + harm
    n_bursts = max(1, int(round(burst_rate * duration)))
    burst_len = max(8, int(round(0.003 * fs)))
    tau = burst_len / 5.0
    k = np.arange(burst_len, dtype=np.float64)
    envelope = np.exp(-k / tau)
    for _ in range(n_bursts):
        pos = int(rng.integers(0, max(1, n - burst_len)))
        amp = rng.uniform(5.0, 9.0) * math.copysign(1.0, rng.standard_normal())
        phase = rng.uniform(0, 2 * np.pi)
        burst = amp * envelope * np.cos(2.0 * np.pi * k / 16.0 + phase)
        x[pos:pos + burst_len] += burst[: max(0, n - pos)]

    x *= rms_target / rms(x)
    wave = Waveform(x, fs, [])
    return NoiseRecord(wave, noise_id or f"noise-{seed}", rms(x))


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Write data to a temporary sibling, then rename it over path, so a
    reader never sees a half-written file. Text is written as UTF-8."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    tmp.replace(path)


# ---------------------------------------------------------------------------
# WAV container I/O (RIFF/WAVE, mono, PCM16 or IEEE float32, little-endian)
# ---------------------------------------------------------------------------

_FMT_PCM = 1
_FMT_FLOAT = 3
_PCM16_FULL_SCALE = 32767.0


def save_wav(
    path: str | Path,
    waveform: Waveform,
    encoding: str = "float32",
    extra_meta: dict[str, str] | None = None,
) -> None:
    """Write a mono WAV plus its key=value sidecar metadata file.

    encoding "float32" is lossless for float32-representable samples;
    "pcm16" quantizes a [-1, 1] full-scale signal to 16 bits and rejects
    overrange samples rather than clipping them.
    """
    path = Path(path)
    x = waveform.samples
    if encoding == "float32":
        fmt_tag, bits = _FMT_FLOAT, 32
        payload = x.astype("<f4").tobytes()
    elif encoding == "pcm16":
        fmt_tag, bits = _FMT_PCM, 16
        if np.max(np.abs(x)) > 1.0:
            raise DataError("pcm16 encoding requires samples within [-1, 1]")
        payload = np.round(x * _PCM16_FULL_SCALE).astype("<i2").tobytes()
    else:
        raise DataError(f"unknown encoding {encoding!r}")

    block_align = bits // 8
    byte_rate = waveform.fs * block_align
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, fmt_tag, 1, waveform.fs, byte_rate, block_align, bits),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    atomic_write(path, header + payload)
    _save_sidecar(path, waveform, extra_meta or {})


def load_wav(path: str | Path) -> Waveform:
    """Read a mono PCM16 / float32 WAV and its sidecar annotations."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8: pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedWavError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedWavError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")
    fmt_tag, channels, fs, _rate, _align, bits = fmt
    if channels != 1:
        raise ChannelCountError(f"{path}: {channels} channels, only mono supported")
    if fs <= 0:
        raise MalformedWavError(f"{path}: non-positive sample rate {fs}")
    if len(data) == 0:
        raise EmptyDataError(f"{path}: zero-length data chunk")

    if fmt_tag == _FMT_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif fmt_tag == _FMT_PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _PCM16_FULL_SCALE
    else:
        raise UnsupportedWavError(
            f"{path}: format tag {fmt_tag} with {bits} bits not supported"
        )

    annotations, meta = load_sidecar(path)
    if "fs" in meta and int(meta["fs"]) != fs:
        raise DataError(f"{path}: sidecar fs {meta['fs']} != WAV fs {fs}")
    return Waveform(samples, fs, annotations)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta")


def _save_sidecar(path: Path, waveform: Waveform, extra: dict[str, str]) -> None:
    lines = [f"fs={waveform.fs}"]
    for label, onset in waveform.annotations:
        lines.append(f"annotation={label}:{onset}")
    for key, value in extra.items():
        lines.append(f"{key}={value}")
    atomic_write(sidecar_path(path), "\n".join(lines) + "\n")


def load_sidecar(path: str | Path) -> tuple[list[tuple[str, int]], dict[str, str]]:
    """Return (annotations, other key=value pairs); empty if no sidecar."""
    sc = sidecar_path(path)
    annotations: list[tuple[str, int]] = []
    meta: dict[str, str] = {}
    if not sc.exists():
        return annotations, meta
    for line in sc.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if key == "annotation":
            label, _, onset = value.partition(":")
            annotations.append((label, int(onset)))
        else:
            meta[key] = value
    return annotations, meta


def save_shot(path: str | Path, shot: ShotRecord, encoding: str = "float32") -> None:
    save_wav(path, shot.waveform, encoding,
             {"caliber_class": shot.caliber_class, "shot_id": shot.shot_id})


def load_shot(path: str | Path) -> ShotRecord:
    waveform = load_wav(path)
    _, meta = load_sidecar(path)
    if "shot_id" not in meta or "caliber_class" not in meta:
        raise DataError(f"{path}: sidecar lacks shot_id/caliber_class")
    return ShotRecord.from_waveform(waveform, meta["caliber_class"], meta["shot_id"])


def save_noise(path: str | Path, noise: NoiseRecord, encoding: str = "float32") -> None:
    save_wav(path, noise.waveform, encoding, {"noise_id": noise.noise_id})


def load_noise(path: str | Path) -> NoiseRecord:
    waveform = load_wav(path)
    _, meta = load_sidecar(path)
    if "noise_id" not in meta:
        raise DataError(f"{path}: sidecar lacks noise_id")
    return NoiseRecord.from_waveform(waveform, meta["noise_id"])
