"""Acoustic signal types, synthetic generators, and WAV round-trip I/O.

Pressure time series are numpy arrays in pascals: float32 where they
were read from a float32 WAV, which keeps a loaded corpus at its stored
size, and float64 everywhere else (synthesized signals, PCM16 reads,
whose k/32767 levels float32 cannot hold exactly). Every computation on
samples runs in float64 (or, like a peak, is exact in either), and
float32 widens exactly, so a record gives the same results in either
precision. Ground-truth event times ride along as (label, onset_sample)
annotations, persisted in a plain-text sidecar file next to each WAV.
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
    """Effective (root-mean-square) value of a sample array, in float64.

    The samples are squared straight into one float64 array, which
    equals squaring a float64 copy bit for bit (a float32 sample widens
    exactly), so a float32 record's RMS takes one float64 temporary of
    its length, not two."""
    return float(np.sqrt(np.mean(np.square(x, dtype=np.float64))))


@dataclass
class Waveform:
    """Annotated pressure time series.

    Attributes:
        samples: pressure values in Pa, non-empty, all finite; float32
            or float64 samples are kept as they are, any other dtype is
            converted to float64.
        fs: sampling frequency in Hz (positive integer).
        annotations: list of (label, onset_sample) ground-truth events,
            labels restricted to MB (muzzle blast) / MW (Mach wave).
    """

    samples: np.ndarray
    fs: int
    annotations: list[tuple[str, int]] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.dtype not in (np.float32, np.float64):
            self.samples = self.samples.astype(np.float64)
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

    def onsets(self, label: str = "MB") -> list[int]:
        return [s for lab, s in self.annotations if lab == label]


@dataclass
class ShotRecord:
    """One clean shot: a waveform with exactly one MB annotation.

    peak_pa is measured: the maximum absolute pressure over the MB
    support (onset to end of record; before it is pre-trigger).
    """

    waveform: Waveform
    caliber_class: str
    shot_id: str
    peak_pa: float = field(init=False)

    def __post_init__(self):
        if not self.caliber_class:
            raise DataError("caliber_class must be non-empty")
        mb = self.waveform.onsets("MB")
        if len(mb) != 1:
            raise DataError(f"shot needs exactly one MB annotation, got {len(mb)}")
        self.peak_pa = float(np.max(np.abs(self.waveform.samples[mb[0]:])))
        if not (self.peak_pa > 0):
            raise DataError("peak_pa must be positive")

    @property
    def onset(self) -> int:
        return self.waveform.onsets("MB")[0]


@dataclass
class NoiseRecord:
    """One noise recording: an unannotated waveform plus its RMS
    pressure, measured from the waveform."""

    waveform: Waveform
    noise_id: str
    rms_pa: float = field(init=False)

    def __post_init__(self):
        if self.waveform.annotations:
            raise DataError("noise records carry no annotations")
        self.rms_pa = rms(self.waveform.samples)
        if not (self.rms_pa > 0):
            raise DataError("rms_pa must be positive")

    def segment(self, offset: int, n: int) -> np.ndarray:
        """The n samples from offset on, as a view of the record."""
        segment = self.waveform.samples[offset:offset + n]
        if offset < 0 or segment.size < n:
            raise DataError(f"noise offset {offset} leaves no {n}-sample segment "
                            f"in {len(self.waveform)} samples")
        return segment


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
    return ShotRecord(wave, caliber_class, shot_id)


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

    # Each stage works in place and frees its buffers as they die, with
    # the same operations in the same order as the plain expressions, so
    # the output stays bit for bit that of the out-of-place form.
    # 1/f broadband bed: shape white noise in the frequency domain with a
    # 20 Hz corner so DC stays bounded.
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    del white
    shape = np.fft.rfftfreq(n, d=1.0 / fs)
    np.maximum(shape, 20.0, out=shape)
    np.sqrt(shape, out=shape)
    np.divide(1.0, shape, out=shape)
    shape[0] = 0.0
    spectrum *= shape
    del shape
    x = np.fft.irfft(spectrum, n=n)
    del spectrum
    x /= rms(x)

    # Engine harmonics: fundamental with decaying partials.
    f0 = rng.uniform(70.0, 130.0)
    t = np.arange(n, dtype=np.float64)
    t /= fs
    harm = np.zeros(n)
    partial = np.empty(n)
    for k in range(1, 7):
        np.multiply(2.0 * np.pi * k * f0, t, out=partial)
        partial += rng.uniform(0, 2 * np.pi)
        np.sin(partial, out=partial)
        partial *= 1.0 / k
        harm += partial
    del t, partial
    harm *= 0.6 / rms(harm)

    # Transient bursts: short damped oscillations, peaks 5-9x the bed RMS.
    x += harm
    del harm
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
    return NoiseRecord(wave, noise_id or f"noise-{seed}")


def atomic_write(path: str | Path, data: bytes | str) -> bytes:
    """Write data to a temporary sibling, then rename it over path, so a
    reader never sees a half-written file. Text is written as UTF-8.
    Returns the bytes written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    raw = data.encode("utf-8") if isinstance(data, str) else data
    tmp.write_bytes(raw)
    tmp.replace(path)
    return raw


# ---------------------------------------------------------------------------
# WAV container I/O (RIFF/WAVE, mono, little-endian): IEEE float32 is
# written; PCM16 and IEEE float32 are read
# ---------------------------------------------------------------------------

_FMT_PCM = 1
_FMT_FLOAT = 3
_PCM16_FULL_SCALE = 32767.0


def save_wav(
    path: str | Path,
    waveform: Waveform,
    extra_meta: dict[str, str] | None = None,
) -> tuple[bytes, bytes]:
    """Write a mono IEEE float32 WAV plus its key=value sidecar metadata
    file; lossless for float32-representable samples. Returns the bytes
    written to the WAV and to the sidecar, so a caller can checksum the
    files without reading them back."""
    path = Path(path)
    payload = waveform.samples.astype("<f4").tobytes()
    block_align = 4  # one float32 sample per frame
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, _FMT_FLOAT, 1, waveform.fs,
                    waveform.fs * block_align, block_align, 32),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    wav = atomic_write(path, header + payload)
    return wav, _save_sidecar(path, waveform, extra_meta or {})


@dataclass(frozen=True)
class RecordFiles:
    """A WAV path that carries the bytes already read from it and, when
    the caller has read it too, from its sidecar. load_wav,
    load_sidecar, load_shot and load_noise parse these bytes instead of
    reading the files again; a sidecar left None is read from disk.
    Formats and converts to a path as the WAV path does: a traced
    benchmark run stats the path that load_wav is given."""

    path: Path
    wav: bytes
    sidecar: bytes | None = None

    def __fspath__(self) -> str:
        return str(self.path)

    def __str__(self) -> str:
        return str(self.path)


def load_wav(path: str | Path | RecordFiles,
             meta: dict[str, str] | None = None) -> Waveform:
    """Read a mono PCM16 / float32 WAV and its sidecar annotations; the
    sidecar's other key=value pairs are added to meta when it is given.
    Float32 samples stay float32, a read-only view of the file's bytes;
    PCM16 samples are scaled to float64."""
    files = path if isinstance(path, RecordFiles) else None
    path = files.path if files else Path(path)
    raw = files.wav if files else path.read_bytes()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    view = memoryview(raw)
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8: pos + 8 + chunk_size]
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

    dtype = {(_FMT_FLOAT, 32): "<f4", (_FMT_PCM, 16): "<i2"}.get((fmt_tag, bits))
    if dtype is None:
        raise UnsupportedWavError(
            f"{path}: format tag {fmt_tag} with {bits} bits not supported"
        )
    if len(data) % (bits // 8):
        raise MalformedWavError(
            f"{path}: {len(data)}-byte data chunk is not a whole number of "
            f"{bits // 8}-byte samples"
        )
    samples = np.frombuffer(data, dtype=dtype)
    if fmt_tag == _FMT_PCM:
        samples = samples.astype(np.float64) / _PCM16_FULL_SCALE

    annotations, sidecar = load_sidecar(files or path)
    if "fs" in sidecar and _sidecar_int(path, f"fs={sidecar['fs']}", sidecar["fs"]) != fs:
        raise DataError(f"{path}: sidecar fs {sidecar['fs']} != WAV fs {fs}")
    if meta is not None:
        meta.update(sidecar)
    return Waveform(samples, fs, annotations)


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta")


def _save_sidecar(path: Path, waveform: Waveform, extra: dict[str, str]) -> bytes:
    lines = [f"fs={waveform.fs}"]
    for label, onset in waveform.annotations:
        lines.append(f"annotation={label}:{onset}")
    for key, value in extra.items():
        lines.append(f"{key}={value}")
    return atomic_write(sidecar_path(path), "\n".join(lines) + "\n")


def load_sidecar(
    path: str | Path | RecordFiles,
) -> tuple[list[tuple[str, int]], dict[str, str]]:
    """Return (annotations, other key=value pairs); empty if no sidecar."""
    sc = sidecar_path(path)
    data = path.sidecar if isinstance(path, RecordFiles) else None
    annotations: list[tuple[str, int]] = []
    meta: dict[str, str] = {}
    if data is None and not sc.exists():
        return annotations, meta
    for line in utf8_text(sc, data).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if key == "annotation":
            label, _, onset = value.partition(":")
            annotations.append((label, _sidecar_int(path, line, onset)))
        else:
            meta[key] = value
    return annotations, meta


def utf8_text(path: str | Path, data: bytes | None = None) -> str:
    """The text of the file at path, or of data, its bytes when already
    read, as UTF-8; text that is not UTF-8 is a DataError naming the
    file."""
    try:
        return Path(path).read_text("utf-8") if data is None else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                        f"{exc.start}") from None


def _sidecar_int(path: str | Path, line: str, text: str) -> int:
    """The integer field text of a sidecar line, or a DataError naming
    the sidecar and the line."""
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{sidecar_path(path)}: malformed line {line!r}") from None


def save_shot(path: str | Path, shot: ShotRecord) -> tuple[bytes, bytes]:
    """save_wav of the shot, its class and id in the sidecar."""
    return save_wav(path, shot.waveform,
                    {"caliber_class": shot.caliber_class, "shot_id": shot.shot_id})


def load_shot(path: str | Path | RecordFiles) -> ShotRecord:
    meta: dict[str, str] = {}
    waveform = load_wav(path, meta)
    if "shot_id" not in meta or "caliber_class" not in meta:
        raise DataError(f"{path}: sidecar lacks shot_id/caliber_class")
    return ShotRecord(waveform, meta["caliber_class"], meta["shot_id"])


def save_noise(path: str | Path, noise: NoiseRecord) -> tuple[bytes, bytes]:
    """save_wav of the noise record, its id in the sidecar."""
    return save_wav(path, noise.waveform, {"noise_id": noise.noise_id})


def load_noise(path: str | Path | RecordFiles) -> NoiseRecord:
    meta: dict[str, str] = {}
    waveform = load_wav(path, meta)
    if "noise_id" not in meta:
        raise DataError(f"{path}: sidecar lacks noise_id")
    return NoiseRecord(waveform, meta["noise_id"])
