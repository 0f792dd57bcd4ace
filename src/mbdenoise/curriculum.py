"""Dataset splitting, SNR-graded mixing, and the SNR-phased training
loop with filter-layer freeze and release.

The loaded corpus is one DatasetSplit, made once for all rotations: the
training caliber's shots are halved into two subsets and crossed with
the three noise records, giving six noised combinations (COMBOS), and
the held-out caliber's shots are kept whole for the cross-caliber test.
Rotation r holds COMBOS[r] out for validation and trains on the other
shot half noised by the two remaining noises (rotation_combos), so
validation shots and noise never touch training.

One walk turns shots and a noise record into cells, one (shot, noise,
offset, SNR) mix per shot and grid SNR, its offset drawn anywhere in
the whole noise record: combo_cells walks combinations, held_out_cells
the held-out shots with a rotation's validation noise. mix_cells turns
any list of cells into a stack of full-rate noisy frames, one row per
cell; each row's shot id, onset and grid SNR stay in its cell.
Training, validation and scoring all read cells a block of rows at a
time (row_blocks): each block is mixed and reduced (decimated, or
denoised and scanned) before the next is made, so no full-rate stack
outlives its block.

Training takes two steps: training_frames turns a rotation's training
and validation cells into the network's decimated inputs and targets,
which refer to no record, in one block ordered by SNR, highest first,
and train_curriculum runs the RunConfig's phased schedule on those
frames alone, so the corpus need not outlive the first step. Each phase
admits the mixes at or above a falling threshold, so each phase trains
on a prefix of the one block. RunConfig.validate is the one check of
the schedule.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import SNR_RANGE_DB, RunConfig
from .dsp import decimate, mix_stack
from .errors import ConfigError, DataError
from .net import AdamState, Network, adam_step, batch_loss, hidden_layer
from .signals import NoiseRecord, ShotRecord

# Cells mixed per block when training or scoring reads them; a block of
# 64 rows of 2048 samples holds 1 MB at full rate. The 1400 training
# cells of the benchmark config took 26-38 ms in blocks of 16 to 128
# rows, against 36-47 ms as one stack, whose traced peak is 53 MB where
# 64-row blocks peak at 7.4 MB (median and minimum of 21, 2-core x86-64
# Xeon, numpy 2.4.6).
MIX_BLOCK_ROWS = 64
# A tail block shorter than this joins the block before it. OpenBLAS
# multiplies a product of a few rows with another kernel, whose rounding
# differs: on a trained inference plan, plan(x[:m]) differs in its last
# bits from the same rows of a 700-row product for m <= 7 and equals
# them for m >= 8 (OpenBLAS 0.3.31, 2-core x86-64 Xeon).
MIN_BLOCK_ROWS = 8


@dataclass(frozen=True)
class Combo:
    """One noised subset: a shot half crossed with one noise record."""

    shot_subset: int
    noise_subset: int


# The six combinations. Rotation r validates on COMBOS[r], and a
# combination's index here is the first entry of its cells' seed keys.
COMBOS = tuple(Combo(si, nj) for si in range(2) for nj in range(3))


@dataclass
class DatasetSplit:
    """The loaded corpus, cut once for all six rotations: two disjoint
    shot halves of the training caliber, the held-out caliber's shots,
    and the three noise records."""

    shot_subsets: tuple[tuple[ShotRecord, ...], tuple[ShotRecord, ...]]
    held_out: tuple[ShotRecord, ...]
    noises: tuple[NoiseRecord, NoiseRecord, NoiseRecord]

    def __post_init__(self):
        halves = [{shot.shot_id for shot in half} for half in self.shot_subsets]
        if halves[0] & halves[1]:
            raise DataError("shot subsets overlap")


def build_split(shots: list[ShotRecord], held_out: list[ShotRecord],
                noises: list[NoiseRecord], seed: int) -> DatasetSplit:
    """Deterministically halve the shots; the held-out shots and each
    noise record are kept whole."""
    if len(shots) < 2:
        raise DataError(f"need >= 2 shots, got {len(shots)}")
    if len(noises) != 3:
        raise DataError(f"need exactly 3 noise records, got {len(noises)}")
    # Clean outcomes are keyed by shot id (cli._score_cells), so a
    # repeated id would pair one shot's mixes with another's clean frame.
    for kind, ids in (("shot", [s.shot_id for s in (*shots, *held_out)]),
                      ("noise", [n.noise_id for n in noises])):
        repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
        if repeated:
            raise DataError(f"duplicate {kind} ids: {', '.join(repeated)}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(shots))
    half = len(shots) // 2
    return DatasetSplit((tuple(shots[i] for i in order[:half]),
                         tuple(shots[i] for i in order[half:])), tuple(held_out),
                        tuple(noises))


def rotation_combos(rotation: int) -> tuple[tuple[Combo, ...], Combo]:
    """The rotation's training combinations, the other shot half with the
    two other noises in COMBOS order, and its validation combination,
    COMBOS[rotation]."""
    if not 0 <= rotation < len(COMBOS):
        raise ConfigError(f"rotation must be in [0, 5], got {rotation}")
    val = COMBOS[rotation]
    return tuple(c for c in COMBOS if c.shot_subset != val.shot_subset
                 and c.noise_subset != val.noise_subset), val


# One mix: a shot, a noise record, the segment's start in it, and the
# grid SNR in dB the segment is scaled to.
Cell = tuple[ShotRecord, NoiseRecord, int, float]


def mix_cells(cells: list[Cell]) -> np.ndarray:
    """The cells' noisy frames, one full-rate row per cell: each cell's
    noise segment is cut into one preallocated stack and the whole stack
    is mixed with dsp.mix_stack. cells must be non-empty and share one
    shot length."""
    if not cells:
        raise DataError("no cells to mix")
    frame_len = len(cells[0][0].waveform)
    noisy = np.empty((len(cells), frame_len))
    for row, (_, noise, offset, _) in zip(noisy, cells):
        row[:] = noise.segment(offset, frame_len)
    mix_stack(noisy, [cell[0] for cell in cells], [cell[3] for cell in cells])
    return noisy


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of MIX_BLOCK_ROWS rows that cover n rows. A
    last block shorter than MIN_BLOCK_ROWS joins the one before it, so
    every block has MIN_BLOCK_ROWS to MIX_BLOCK_ROWS + MIN_BLOCK_ROWS - 1
    rows unless n itself is smaller."""
    starts = list(range(0, n, MIX_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] < MIN_BLOCK_ROWS:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def seed_words(*key: int) -> np.ndarray:
    """The key as the np.uint32 words np.random.SeedSequence makes of the
    list of its entries: each non-negative entry as its 32-bit words,
    least significant first (one word for 0). SeedSequence takes such an
    array as it is, where it converts a list entry by entry."""
    words = []
    for k in key:
        if k < 0:
            raise DataError(f"seed key entries must be non-negative, got {k}")
        words.append(k & 0xFFFFFFFF)
        while k > 0xFFFFFFFF:
            k >>= 32
            words.append(k & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def child_seed(*key: int) -> int:
    """One integer seed drawn from the key, for a generator or
    initializer that takes an int: the first 32-bit word of the state
    np.random.SeedSequence makes of seed_words(*key)."""
    return int(np.random.SeedSequence(seed_words(*key)).generate_state(1)[0])


def _walk(shots: tuple[ShotRecord, ...], noise: NoiseRecord, snr_grid: list[float],
          key: Callable[[int, int], tuple[int, ...]]) -> list[Cell]:
    """Every (shot, SNR) cell of the shots mixed with noise, in order:
    the cell of shots[i] at snr_grid[k] takes its offset, anywhere in
    the whole noise record, from a generator seeded with key(i, k)."""
    lo, hi = SNR_RANGE_DB
    for snr in snr_grid:
        if not lo <= snr <= hi:
            raise ConfigError(f"snr {snr} dB outside [{lo:g}, {hi:+g}] grid range")
    cells = []
    for i, shot in enumerate(shots):
        frame_len = len(shot.waveform)
        if len(noise.waveform) < frame_len:
            raise DataError(f"noise record {noise.noise_id} is shorter than the "
                            f"{frame_len}-sample frame")
        for k, snr in enumerate(snr_grid):
            rng = np.random.default_rng(seed_words(*key(i, k)))
            offset = int(rng.integers(0, len(noise.waveform) - frame_len + 1))
            cells.append((shot, noise, offset, snr))
    return cells


def combo_cells(split: DatasetSplit, combos: tuple[Combo, ...], snr_grid: list[float],
                seed: int) -> list[Cell]:
    """Every (shot, SNR) cell of the combinations, in order.

    Each cell's noise offset is drawn deterministically from the seed
    and the combination's index in COMBOS, so the same seed gives
    identical cells whichever combinations are walked.
    """
    cells = []
    for combo in combos:
        combo_idx = COMBOS.index(combo)
        # The zeros keep the key of the former section and repeat.
        cells += _walk(split.shot_subsets[combo.shot_subset],
                       split.noises[combo.noise_subset], snr_grid,
                       lambda shot_pos, snr_idx: (seed, combo_idx, shot_pos, 0, snr_idx, 0))
    return cells


def held_out_cells(split: DatasetSplit, rotation: int, snr_grid: list[float],
                   seed: int) -> list[Cell]:
    """Every (shot, SNR) cell of the held-out caliber's shots mixed with
    the rotation's validation noise, in order: the cross-caliber test
    cells, scored only and never trained on."""
    noise = split.noises[rotation_combos(rotation)[1].noise_subset]
    return _walk(split.held_out, noise, snr_grid,
                 lambda i, snr_idx: (seed, 5, rotation, i, snr_idx))


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


def _network_frames(net: Network, cells: list[Cell], out: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Write the cells' noisy frames, decimated at the network's rate,
    into out, a (len(cells), net.dim) array, one row per cell; return
    each distinct shot's decimated clean frame once and each row's index
    into those clean frames. Nothing is scaled.

    The cells are mixed and decimated a block at a time (row_blocks)
    into out. Mixing and decimation are both row by row, so every row
    equals the row of decimate(mix_cells(cells)).
    """
    if not cells:
        raise DataError("no cells to mix")
    shots = {cell[0].shot_id: cell[0] for cell in cells}
    shot_row = {shot_id: k for k, shot_id in enumerate(shots)}
    rows = np.array([shot_row[cell[0].shot_id] for cell in cells])
    for block in row_blocks(len(cells)):
        # Mixed and decimated in one expression, the blocks left glibc's
        # heap laid out so that a process that trains and then scores
        # (the benchmark's evaluate run) peaked 4.5 MB higher.
        mixed = mix_cells(cells[block])
        out[block] = decimate(mixed, net.fs, net.decim_factor)
    clean = decimate(np.stack([shot.waveform.samples for shot in shots.values()]), net.fs,
                     net.decim_factor)
    return clean, rows


@dataclass
class TrainingFrames:
    """A rotation's network inputs and targets as training_frames builds
    them: decimated at the network's rate, not yet scaled, and holding
    no cell.

    inputs holds each row once, the n_val validation rows first and then
    every training row, ordered by grid SNR, highest first. clean_val and
    clean_train hold each distinct shot's decimated clean frame once, and
    val_rows and train_rows give each validation and training row's index
    into them. snrs holds each training row's grid SNR, so it does not
    increase, and every phase's active rows are a prefix of the training
    rows.
    """

    inputs: np.ndarray
    n_val: int
    clean_val: np.ndarray
    val_rows: np.ndarray
    clean_train: np.ndarray
    train_rows: np.ndarray
    snrs: np.ndarray


def training_frames(net: Network, train: list[Cell], validation: list[Cell]
                    ) -> TrainingFrames:
    """The training and validation cells' network frames, made by
    _network_frames a block of rows at a time straight into one
    [validation; training] block of inputs, the training cells stably
    sorted by grid SNR, highest first. The frames refer to no cell, shot
    or noise record, so a caller can drop those before training;
    train_curriculum scales them in place, so a set of frames trains
    once."""
    train = sorted(train, key=lambda cell: -cell[3])
    n_val, n_train = len(validation), len(train)
    inputs = np.empty((n_val + n_train, net.dim))
    clean_train, train_rows = _network_frames(net, train, inputs[n_val:])
    clean_val, val_rows = _network_frames(net, validation, inputs[:n_val])
    return TrainingFrames(inputs, n_val, clean_val, val_rows, clean_train, train_rows,
                          np.array([cell[3] for cell in train]))


def train_curriculum(
    net: Network,
    frames: TrainingFrames,
    cfg: RunConfig,
    on_iteration: Callable[[int, int, Network], None] | None = None,
) -> tuple[Network, ConvergenceLog]:
    """Run cfg's SNR-phased schedule on frames that training_frames
    built for net, and log every iteration.

    The network's inputs are the frames divided by its input_scale,
    which is set here to the largest |decimated clean training sample|;
    validation frames never touch the scale. Each shot's scaled,
    decimated clean frame is kept once as the target of all its rows,
    which refer to it by index. Each phase warm-starts from the previous
    one, admits all training rows whose grid SNR is at or above its
    cfg.phase_thresholds_db entry, re-freezes the filter layer at its
    start, and releases it after cfg.freeze_iters of its cfg.phase_iters
    iterations. One iteration is one optimizer step on the full active
    set, an Adam step at cfg.lr (cfg.lr * cfg.f_lr_scale for the filter
    layer). Validation rows are only ever used for the logged validation
    loss, never for gradients.

    The training rows are ordered by SNR, highest first (frames whose
    snrs increase anywhere are a DataError), so the block's first rows
    are the validation rows and then every active row: one hidden_layer
    over them after each Adam step gives that iteration's validation
    loss and the next iteration's training loss and gradients, and each
    phase starts with one hidden_layer of its own. No row is moved, and
    no network output, residual or gathered target is made. The weights
    and the log equal those of separate training and validation
    batch_loss calls per iteration bit for bit, because a row of a
    matrix product does not depend on the rows beside it; the one
    exception is OpenBLAS's kernel for products of a few rows (under 19
    at hidden 64), whose rounding differs.
    """
    n_val, block, snrs = frames.n_val, frames.inputs, frames.snrs
    if np.any(snrs[1:] > snrs[:-1]):
        raise DataError("training rows must be ordered by SNR, highest first")
    clean_train = frames.clean_train
    net.input_scale = float(np.max(np.abs(clean_train)))
    for arr in (block, clean_train, frames.clean_val):
        arr /= net.input_scale

    state = AdamState()
    log = ConvergenceLog()
    for phase, threshold in enumerate(cfg.phase_thresholds_db):
        n_act = int(np.count_nonzero(snrs >= threshold))
        if n_act == 0:
            raise DataError(f"phase {phase}: no training mixes at SNR >= {threshold} dB")
        rows = frames.train_rows[:n_act]
        x = block[:n_val + n_act]
        net.f_frozen = True
        a = hidden_layer(net, x)
        for it in range(cfg.phase_iters):
            if it == cfg.freeze_iters:
                net.f_frozen = False
            train_mse, grads = batch_loss(net, x[n_val:], clean_train, rows, a[n_val:])
            adam_step(net, grads, state, cfg.lr, cfg.f_lr_scale)
            del a
            a = hidden_layer(net, x)
            val_mse, _ = batch_loss(net, x[:n_val], frames.clean_val, frames.val_rows,
                                    a[:n_val], grads=False)
            log.append(LogRecord(phase, it, train_mse, val_mse, net.f_frozen, n_act))
            if on_iteration is not None:
                on_iteration(phase, it, net)
        del a
    return net, log
