"""Flat key=value run configuration with CLI overrides.

Every default mirrors a documented pipeline decision; the resolved
config is embedded as comment lines in every emitted report so runs
are auditable and byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError


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
    sections_per_noise: int = 1
    snr_grid: tuple[float, ...] = (10.0, 5.0, 0.0, -5.0, -10.0, -15.0, -20.0)
    examples_per_cell: int = 1
    # network
    hidden: int = 64
    kernel_len: int = 63
    filter_cutoff_mode: str = "original"  # which rate the /41 divides
    # training plan
    phase_thresholds_db: tuple[float, ...] = (0.0, -5.0, -10.0, -15.0, -20.0)
    freeze_iters: int = 250
    phase_iters: int = 500
    lr: float = 1e-3
    f_lr_scale: float = 0.5
    batch_size: int = 0
    rotation: int = -1  # -1 trains/evaluates all six rotations
    # detector
    sta_ms: float = 2.0
    lta_ms: float = 50.0
    threshold: float = 4.0
    refractory_ms: float = 20.0
    warmup_ms: float = 10.0

    def validate(self) -> "RunConfig":
        if self.fs <= 0:
            raise ConfigError(f"fs must be positive, got {self.fs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.decim_factor < 1:
            raise ConfigError(f"decim_factor must be >= 1, got {self.decim_factor}")
        if self.frame_len % self.decim_factor != 0:
            raise ConfigError(
                f"frame_len {self.frame_len} not divisible by decim_factor "
                f"{self.decim_factor}"
            )
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if self.filter_cutoff_mode not in ("original", "decimated"):
            raise ConfigError(
                f"filter_cutoff_mode must be original or decimated, "
                f"got {self.filter_cutoff_mode!r}"
            )
        if not -1 <= self.rotation <= 5:
            raise ConfigError(f"rotation must be in [-1, 5], got {self.rotation}")
        if self.n_shots_a < 2:
            raise ConfigError("n_shots_a must be >= 2")
        if self.sections_per_noise < 1:
            raise ConfigError(
                f"sections_per_noise must be >= 1, got {self.sections_per_noise}")
        if self.examples_per_cell < 1:
            raise ConfigError(
                f"examples_per_cell must be >= 1, got {self.examples_per_cell}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 0:
            raise ConfigError(
                f"batch_size must be >= 0 (0 = full batch), got {self.batch_size}")
        if any(b >= a for a, b in zip(self.phase_thresholds_db,
                                      self.phase_thresholds_db[1:])):
            raise ConfigError("phase_thresholds_db must be strictly decreasing")
        if not 0 < self.freeze_iters < self.phase_iters:
            raise ConfigError("need 0 < freeze_iters < phase_iters")
        return self

    @property
    def fs_decimated(self) -> float:
        return self.fs / self.decim_factor

    @property
    def filter_cutoff_hz(self) -> float:
        """Cutoff of the trainable filter layer: the sampling rate
        divided by 41, at the original or the decimated rate."""
        base = self.fs if self.filter_cutoff_mode == "original" else self.fs_decimated
        return base / 41.0

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
        if ftype == "str":
            return text
        # tuple[float, ...]
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply key=value override strings in order."""
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not key=value")
        setattr(cfg, key.strip(), _parse_value(key.strip(), value))
    return cfg


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a key=value config file (all keys optional) plus overrides."""
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        for raw in path.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"malformed config line {raw!r}")
            setattr(cfg, key.strip(), _parse_value(key.strip(), value))
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg.validate()
