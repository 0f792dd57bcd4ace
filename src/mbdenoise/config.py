"""Flat key=value run configuration with CLI overrides.

Every default mirrors a documented pipeline decision; the resolved
config is embedded as comment lines in every emitted report so runs
are auditable and byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .detect import DetectorConfig
from .errors import ConfigError

# The SNRs, in dB, that frames can be mixed at; snr_grid values and
# curriculum.combo_cells' cells must lie inside it.
SNR_RANGE_DB = (-25.0, 15.0)

# The second caliber family of the synthetic corpus, held out for the
# cross-caliber test set: its shots' positive phase is this much longer
# and their peak this much lower, an acoustically different blast.
CALIBER_B_T_PLUS_FACTOR = 1.6
CALIBER_B_PEAK_FACTOR = 0.7

# Rates, amplitudes, durations and step sizes: zero or a negative value
# has no meaning for any of them.
_POSITIVE = ("fs", "shot_peak_pa", "shot_t_plus", "noise_duration", "noise_rms_pa",
             "burst_rate", "lr", "f_lr_scale", "sta_ms", "lta_ms", "refractory_ms",
             "warmup_ms")


@dataclass
class RunConfig:
    # signal chain
    fs: int = 32768
    frame_len: int = 2048
    decim_factor: int = 8
    seed: int = 0
    # synthetic corpus
    n_shots_a: int = 200
    n_shots_b: int = 60
    shot_peak_pa: float = 12.0
    shot_t_plus: float = 0.0025
    peak_jitter: float = 0.5
    t_plus_jitter: float = 0.2
    noise_duration: float = 16.0
    noise_rms_pa: float = 1.0
    burst_rate: float = 2.0
    # split and materialization
    snr_grid: tuple[float, ...] = (10.0, 5.0, 0.0, -5.0, -10.0, -15.0, -20.0)
    # network
    hidden: int = 64
    kernel_len: int = 63
    # training plan
    phase_thresholds_db: tuple[float, ...] = (0.0, -5.0, -10.0, -15.0, -20.0)
    freeze_iters: int = 250
    phase_iters: int = 500
    lr: float = 1e-3
    f_lr_scale: float = 0.5
    rotation: int = -1  # -1 trains/evaluates all six rotations
    # detector
    sta_ms: float = 2.0
    lta_ms: float = 50.0
    threshold: float = 4.0
    refractory_ms: float = 20.0
    warmup_ms: float = 10.0

    def validate(self) -> "RunConfig":
        # No rate, duration, step size or threshold means anything at
        # inf or nan, and inf passes the positive-value bounds below.
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if f.type != "int" and not all(map(math.isfinite, values)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for key in _POSITIVE:
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # Decimation low-passes at fs / (2 * decim_factor), which lies
        # below fs / 2 only from a factor of 2 on.
        if self.decim_factor < 2:
            raise ConfigError(f"decim_factor must be >= 2, got {self.decim_factor}")
        if not self.filter_cutoff_hz < self.fs_decimated / 2:
            raise ConfigError(
                f"decim_factor {self.decim_factor} puts the decimated Nyquist rate "
                f"{self.fs_decimated / 2:g} Hz at or below the filter layer's "
                f"{self.filter_cutoff_hz:g} Hz cutoff")
        if self.frame_len % self.decim_factor != 0:
            raise ConfigError(
                f"frame_len {self.frame_len} not divisible by decim_factor "
                f"{self.decim_factor}"
            )
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        # The filter layer is a frame_dim x frame_dim convolution matrix.
        taps = 2 * self.frame_dim() - 1
        if not 1 <= self.kernel_len <= taps or self.kernel_len % 2 != 1:
            raise ConfigError(f"kernel_len must be odd and in [1, {taps}], the taps of "
                              f"a {self.frame_dim()}-point filter, got {self.kernel_len}")
        if not -1 <= self.rotation <= 5:
            raise ConfigError(f"rotation must be in [-1, 5], got {self.rotation}")
        if self.n_shots_a < 2:
            raise ConfigError("n_shots_a must be >= 2")
        if self.n_shots_b < 0:
            raise ConfigError(f"n_shots_b must be >= 0, got {self.n_shots_b}")
        # Jitter scales a value by 1 + jitter * u, u uniform in [-1, 1],
        # so a jitter of 1 or more can zero or flip the blast.
        for key in ("peak_jitter", "t_plus_jitter"):
            if not 0 <= getattr(self, key) < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        # A shot's blast spans 8 t_plus and starts in the frame's middle
        # half, at least frame_len // 4 samples before its end. The
        # longest caliber's t_plus at full jitter, scaled in the order
        # cli._synth_shot scales a shot's, bounds every shot's.
        t_plus = self.shot_t_plus
        if self.n_shots_b > 0:
            t_plus *= CALIBER_B_T_PLUS_FACTOR
        t_plus *= 1.0 + self.t_plus_jitter
        support = math.ceil(8.0 * t_plus * self.fs)
        if support >= self.frame_len - self.frame_len // 4:
            raise ConfigError(
                f"shot_t_plus {self.shot_t_plus:g} s gives blasts of up to {support} "
                f"samples, which leave no onset room in a {self.frame_len}-sample frame")
        # Every mix takes one frame from inside a noise record.
        noise_len = int(round(self.noise_duration * self.fs))
        if noise_len < self.frame_len:
            raise ConfigError(
                f"noise_duration {self.noise_duration:g} s gives {noise_len}-sample "
                f"noise records, shorter than the {self.frame_len}-sample frame")
        lo, hi = SNR_RANGE_DB
        if not self.snr_grid:
            raise ConfigError("snr_grid is empty")
        if not all(lo <= snr <= hi for snr in self.snr_grid):
            raise ConfigError(
                f"snr_grid {self.snr_grid} leaves the [{lo:g}, {hi:+g}] dB range")
        if not self.phase_thresholds_db:
            raise ConfigError("phase_thresholds_db is empty")
        if any(b >= a for a, b in zip(self.phase_thresholds_db,
                                      self.phase_thresholds_db[1:])):
            raise ConfigError("phase_thresholds_db must be strictly decreasing")
        if self.phase_thresholds_db[0] > max(self.snr_grid):
            raise ConfigError(
                f"phase_thresholds_db starts at {self.phase_thresholds_db[0]:g} dB, "
                f"above every snr_grid value (max {max(self.snr_grid):g} dB)")
        if not 0 < self.freeze_iters < self.phase_iters:
            raise ConfigError("need 0 < freeze_iters < phase_iters")
        if not self.threshold > 1.0:
            raise ConfigError(
                f"threshold must exceed 1 (a stationary signal's STA/LTA ratio), "
                f"got {self.threshold}")
        # The detector scans frame_len-sample frames at fs.
        windows = self.detector().windows(self.fs)
        if windows.lta >= self.frame_len:
            raise ConfigError(
                f"lta_ms {self.lta_ms:g} is {windows.lta} samples, not shorter than "
                f"a {self.frame_len}-sample frame")
        if windows.warm >= self.frame_len - windows.sta:
            raise ConfigError(
                f"warmup_ms {self.warmup_ms:g} leaves no candidate onset in a "
                f"{self.frame_len}-sample frame")
        return self

    def detector(self) -> DetectorConfig:
        return DetectorConfig(self.sta_ms, self.lta_ms, self.threshold,
                              self.refractory_ms, self.warmup_ms)

    @property
    def fs_decimated(self) -> float:
        return self.fs / self.decim_factor

    @property
    def filter_cutoff_hz(self) -> float:
        """Cutoff of the trainable filter layer: the full sampling rate
        divided by 41."""
        return self.fs / 41.0

    def frame_dim(self) -> int:
        return self.frame_len // self.decim_factor

    def rotations(self) -> list[int]:
        return list(range(6)) if self.rotation == -1 else [self.rotation]

    def resolved_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(_format_number(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines)

    def comment_header(self) -> str:
        """The resolved config as `# key=value` lines, the header every
        emitted text file starts with."""
        return "".join(f"# {line}\n" for line in self.resolved_text().splitlines())


def _format_number(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str):
    ftype = _FIELD_TYPES.get(key)
    if ftype is None:
        raise ConfigError(f"unknown config key {key!r}")
    text = text.strip()
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
        # tuple[float, ...]
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def _set_item(cfg: RunConfig, item: str, malformed: str) -> None:
    """Set one key=value item on cfg; an item without "=" is a
    ConfigError with the message malformed."""
    key, sep, value = item.partition("=")
    if not sep:
        raise ConfigError(malformed)
    setattr(cfg, key.strip(), _parse_value(key.strip(), value))


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply key=value override strings in order."""
    for item in overrides:
        _set_item(cfg, item, f"override {item!r} is not key=value")
    return cfg


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a key=value config file (all keys optional) plus overrides."""
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
        except OSError as exc:
            # A missing file, a directory or one without read permission.
            raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                _set_item(cfg, line, f"malformed config line {raw!r}")
    return apply_overrides(cfg, overrides or []).validate()
