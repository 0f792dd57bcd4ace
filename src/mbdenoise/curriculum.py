"""Dataset splitting, SNR-graded example materialization, and the
SNR-phased training loop with filter-layer freeze and release.

Shots are halved into two subsets and each of the three noise records
forms its own subset (subdivided into sections), giving six noised
combinations. Every rotation holds one combination out for validation
and trains on the other shot half noised by the two remaining noises,
so validation shots and validation noise never touch training.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dsp import decimate, mix_at_snr
from .errors import ConfigError, DataError, NumericError
from .net import (
    AdamState,
    Network,
    adam_step,
    backward_batch,
    forward_batch,
    mse_loss,
)
from .signals import NoiseRecord, ShotRecord

# Examples whose SNR sits exactly on a phase threshold belong to that
# phase; the tolerance absorbs mixing round-off.
_SNR_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Combo:
    """One noised subset: a shot half crossed with one noise record."""

    shot_subset: int
    noise_subset: int

    @property
    def name(self) -> str:
        return f"S{self.shot_subset}xN{self.noise_subset}"


@dataclass(frozen=True)
class NoiseSubset:
    noise_id: str
    sections: tuple[tuple[int, int], ...]


@dataclass
class DatasetSplit:
    """A rotation of the six-combination split.

    The validation combination's shot subset and noise subset appear in
    no training combination; training pairs the other shot half with
    the two other noises.
    """

    shot_subsets: tuple[tuple[str, ...], tuple[str, ...]]
    noise_subsets: tuple[NoiseSubset, NoiseSubset, NoiseSubset]
    combos: tuple[Combo, ...]
    train_combos: tuple[Combo, ...]
    validation_combo: Combo
    rotation: int

    def __post_init__(self):
        if set(self.shot_subsets[0]) & set(self.shot_subsets[1]):
            raise DataError("shot subsets overlap")
        if len(self.combos) != 6:
            raise DataError(f"expected 6 combos, got {len(self.combos)}")
        for combo in self.train_combos:
            if combo.shot_subset == self.validation_combo.shot_subset:
                raise DataError("validation shot subset leaks into training")
            if combo.noise_subset == self.validation_combo.noise_subset:
                raise DataError("validation noise subset leaks into training")


def build_split(
    shots: list[ShotRecord],
    noises: list[NoiseRecord],
    seed: int,
    sections_per_noise: int = 2,
) -> list[DatasetSplit]:
    """Deterministically split the corpus and emit all 6 rotations.

    Each rotation nominates one of the six combinations as validation;
    cycling the rotation index covers every combination exactly once.
    """
    if len(shots) < 2:
        raise DataError(f"need >= 2 shots, got {len(shots)}")
    if len(noises) != 3:
        raise DataError(f"need exactly 3 noise records, got {len(noises)}")
    ids = [s.shot_id for s in shots]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate shot_ids")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    half = len(ids) // 2
    subset_a = tuple(ids[i] for i in order[:half])
    subset_b = tuple(ids[i] for i in order[half:])

    noise_subsets = []
    for rec in noises:
        n = len(rec.waveform)
        edges = np.linspace(0, n, sections_per_noise + 1).astype(int)
        sections = tuple(
            (int(edges[i]), int(edges[i + 1])) for i in range(sections_per_noise)
        )
        noise_subsets.append(NoiseSubset(rec.noise_id, sections))
    noise_subsets = tuple(noise_subsets)

    combos = tuple(Combo(si, nj) for si in range(2) for nj in range(3))
    splits = []
    for rotation, val in enumerate(combos):
        train = tuple(
            c for c in combos
            if c.shot_subset != val.shot_subset and c.noise_subset != val.noise_subset
        )
        splits.append(DatasetSplit(
            shot_subsets=(subset_a, subset_b),
            noise_subsets=noise_subsets,
            combos=combos,
            train_combos=train,
            validation_combo=val,
            rotation=rotation,
        ))
    return splits


@dataclass
class NoisyExample:
    """One training/evaluation unit: a noisy frame, its clean target,
    both at full rate and decimated, plus provenance.

    snr_db is the achieved value recomputed from the mix; snr_bin is
    the grid value it was mixed for (equal within 1e-6 dB) and is what
    evaluation groups by.
    """

    noisy: np.ndarray
    clean: np.ndarray
    noisy_dec: np.ndarray
    clean_dec: np.ndarray
    snr_db: float
    snr_bin: float
    truth_onset: int
    shot_id: str
    noise_id: str
    section: int
    combo: Combo


@dataclass
class MaterializedSplit:
    """Mixed examples for one rotation, separated by role."""

    train: list[NoisyExample]
    validation: list[NoisyExample]
    rotation: int


def materialize_combo(
    split: DatasetSplit,
    combo: Combo,
    shots_by_id: dict[str, ShotRecord],
    noises_by_id: dict[str, NoiseRecord],
    snr_grid: list[float],
    examples_per_cell: int,
    seed: int,
    decim_factor: int = 8,
) -> list[NoisyExample]:
    """Mix every (shot, noise section, SNR) cell of one combination.

    Noise offsets are drawn deterministically per cell from the seed and
    the combination's index in split.combos, so the same seed
    regenerates identical examples whichever combinations are built.
    Frames are decimated once here for network consumption; the
    full-rate originals stay for detection-rate evaluation.
    """
    for snr in snr_grid:
        if not -25.0 <= snr <= 15.0:
            raise ConfigError(f"snr {snr} dB outside [-25, +15] grid range")
    combo_idx = split.combos.index(combo)
    shot_ids = split.shot_subsets[combo.shot_subset]
    nsub = split.noise_subsets[combo.noise_subset]
    noise = noises_by_id[nsub.noise_id]
    out = []
    for shot_pos, shot_id in enumerate(shot_ids):
        shot = shots_by_id[shot_id]
        frame_len = len(shot.waveform)
        fs = shot.waveform.fs
        for sec_idx, (start, stop) in enumerate(nsub.sections):
            if stop - start < frame_len:
                raise DataError(
                    f"noise section {sec_idx} of {nsub.noise_id} shorter "
                    f"than the {frame_len}-sample frame"
                )
            for snr_idx, snr in enumerate(snr_grid):
                for rep in range(examples_per_cell):
                    rng = np.random.default_rng(
                        [seed, combo_idx, shot_pos, sec_idx, snr_idx, rep]
                    )
                    offset = int(rng.integers(start, stop - frame_len + 1))
                    mix = mix_at_snr(shot, noise, offset, snr)
                    out.append(NoisyExample(
                        noisy=mix.noisy.samples,
                        clean=mix.clean.samples,
                        noisy_dec=decimate(mix.noisy.samples, fs, decim_factor),
                        clean_dec=decimate(mix.clean.samples, fs, decim_factor),
                        snr_db=mix.achieved_snr_db,
                        snr_bin=snr,
                        truth_onset=shot.onset,
                        shot_id=shot_id,
                        noise_id=nsub.noise_id,
                        section=sec_idx,
                        combo=combo,
                    ))
    return out


def materialize_examples(
    split: DatasetSplit,
    shots_by_id: dict[str, ShotRecord],
    noises_by_id: dict[str, NoiseRecord],
    snr_grid: list[float],
    examples_per_cell: int,
    seed: int,
    decim_factor: int = 8,
) -> MaterializedSplit:
    """Materialize the rotation's training and validation combinations."""

    def build(combo: Combo) -> list[NoisyExample]:
        return materialize_combo(split, combo, shots_by_id, noises_by_id, snr_grid,
                                 examples_per_cell, seed, decim_factor)

    train = [ex for combo in split.train_combos for ex in build(combo)]
    return MaterializedSplit(train, build(split.validation_combo), split.rotation)


@dataclass(frozen=True)
class PhasePlan:
    """SNR thresholds and per-phase iteration budget.

    Phase k trains on all examples at or above thresholds_db[k]; the
    filter layer is frozen for the first freeze_iters iterations of
    every phase and released for the rest.
    """

    thresholds_db: tuple[float, ...] = (0.0, -5.0, -10.0, -15.0, -20.0)
    freeze_iters: int = 250
    total_iters: int = 500

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.thresholds_db, self.thresholds_db[1:])):
            raise ConfigError("thresholds must be strictly decreasing")
        if not 0 < self.freeze_iters < self.total_iters:
            raise ConfigError(
                f"need 0 < freeze_iters ({self.freeze_iters}) < total_iters "
                f"({self.total_iters})"
            )


@dataclass(frozen=True)
class LogRecord:
    phase: int
    iteration: int
    train_mse: float
    val_mse: float
    f_frozen: bool
    n_active: int


@dataclass
class ConvergenceLog:
    records: list[LogRecord] = field(default_factory=list)

    CSV_HEADER = ("phase", "iter", "train_mse", "val_mse", "f_frozen", "n_active")

    def append(self, record: LogRecord) -> None:
        if self.records and record.phase == self.records[-1].phase:
            if record.iteration <= self.records[-1].iteration:
                raise DataError("iteration indices must increase within a phase")
        self.records.append(record)

    def phase_records(self, phase: int) -> list[LogRecord]:
        return [r for r in self.records if r.phase == phase]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.records:
            writer.writerow([
                r.phase, r.iteration, f"{r.train_mse:.12g}", f"{r.val_mse:.12g}",
                int(r.f_frozen), r.n_active,
            ])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ConvergenceLog":
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        reader = csv.reader(rows)
        header = tuple(next(reader))
        if header != cls.CSV_HEADER:
            raise DataError(f"unexpected convergence header {header}")
        log = cls()
        for row in reader:
            log.append(LogRecord(
                int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                bool(int(row[4])), int(row[5]),
            ))
        return log


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    f_lr_scale: float = 0.5
    batch_size: int = 0  # 0 = full batch over the active set


def train_curriculum(
    net: Network,
    data: MaterializedSplit,
    plan: PhasePlan = PhasePlan(),
    opt: OptimizerConfig = OptimizerConfig(),
    on_iteration: Callable[[int, int, Network], None] | None = None,
) -> tuple[Network, ConvergenceLog]:
    """Run the SNR-phased schedule and log every iteration.

    Each phase warm-starts from the previous one, admits all training
    examples at or above its SNR threshold, re-freezes the filter layer
    at its start, and releases it after freeze_iters iterations. One
    iteration is one optimizer step on the full active set (or one
    minibatch when opt.batch_size > 0). Validation examples are only
    ever used for the logged validation loss, never for gradients.
    """
    scale = net.input_scale
    x_train = np.stack([ex.noisy_dec for ex in data.train]) / scale
    t_train = np.stack([ex.clean_dec for ex in data.train]) / scale
    snrs = np.array([ex.snr_db for ex in data.train])
    x_val = np.stack([ex.noisy_dec for ex in data.validation]) / scale
    t_val = np.stack([ex.clean_dec for ex in data.validation]) / scale

    state = AdamState()
    log = ConvergenceLog()
    for phase, threshold in enumerate(plan.thresholds_db):
        active = np.flatnonzero(snrs >= threshold - _SNR_EDGE_TOL)
        if active.size == 0:
            raise DataError(f"phase {phase}: no examples at SNR >= {threshold} dB")
        x_act = x_train[active]
        t_act = t_train[active]
        net.f_frozen = True
        for it in range(plan.total_iters):
            if it == plan.freeze_iters:
                net.f_frozen = False
            if opt.batch_size > 0:
                rng = np.random.default_rng([net.seed, phase, it])
                pick = rng.choice(active.size, size=min(opt.batch_size, active.size),
                                  replace=False)
                xb, tb = x_act[pick], t_act[pick]
            else:
                xb, tb = x_act, t_act
            y, cache = forward_batch(net, xb)
            train_mse = mse_loss(y, tb).mse
            if not np.isfinite(train_mse):
                raise NumericError(f"phase {phase} iter {it}: non-finite training loss")
            grads = backward_batch(net, cache, (2.0 / xb.shape[0]) * (y - tb))
            adam_step(net, grads, state, lr=opt.lr, f_lr_scale=opt.f_lr_scale)
            y_val, _ = forward_batch(net, x_val)
            val_mse = mse_loss(y_val, t_val).mse
            log.append(LogRecord(phase, it, train_mse, val_mse, net.f_frozen,
                                 int(active.size)))
            if on_iteration is not None:
                on_iteration(phase, it, net)
    return net, log

