"""Impulse detection and detection-rate scoring.

A short-over-long RMS ratio (STA/LTA) trigger stands in for the
production pulse detector: it targets exactly the sharp transient rise
a muzzle blast produces and is scale invariant. Detections are matched
to ground-truth onsets within a tolerance of fs/100 samples (10 ms),
and rates per SNR bin carry the binomial margin sqrt(p(1-p)/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

_LTA_FLOOR_REL = 1e-12
# Rows of a frame stack scanned per block. On 2048-sample frames 16 rows
# keep each temporary near 256 kB. A 1120-row stack scanned whole took
# about twice as long as in blocks of 8 to 32 rows, and one row at a
# time about 1.6 times as long (2-core x86-64, numpy 2.4).
SCAN_BLOCK_ROWS = 16


class SampleWindows(NamedTuple):
    """The detector's windows in samples at one sampling rate."""

    sta: int
    lta: int
    warm: int
    hold: int


@dataclass(frozen=True)
class DetectorConfig:
    """STA/LTA windows and trigger parameters (times in ms).

    warmup_ms is the minimum leading context before the first candidate
    onset; the long window grows from there until it reaches lta_ms.
    """

    sta_ms: float = 2.0
    lta_ms: float = 50.0
    threshold: float = 4.0
    refractory_ms: float = 20.0
    warmup_ms: float = 10.0

    def windows(self, fs: float) -> SampleWindows:
        """The windows rounded to whole samples at fs: at least one
        sample each, and a long window longer than the short one."""
        sta = max(1, int(round(self.sta_ms * 1e-3 * fs)))
        return SampleWindows(
            sta=sta,
            lta=max(sta + 1, int(round(self.lta_ms * 1e-3 * fs))),
            warm=max(1, int(round(self.warmup_ms * 1e-3 * fs))),
            hold=max(1, int(round(self.refractory_ms * 1e-3 * fs))),
        )


@dataclass(frozen=True)
class Detection:
    onset_sample: int
    score: float


@dataclass(frozen=True)
class DetectionScore:
    """Detection rate p over n trials in one SNR bin, with the binomial
    standard-error margin delta_p = sqrt(p*(1-p)/n)."""

    p: float
    n: int
    delta_p: float
    snr_bin: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0) or self.n < 1:
            raise DataError(f"invalid score p={self.p}, n={self.n}")


def binomial_margin(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def detect_impulses(
    x: np.ndarray, fs: int, config: DetectorConfig = DetectorConfig()
) -> list[Detection]:
    """Find sharp transient onsets in a pressure signal: one row of
    the stacked STA/LTA scan (see _scan_frames)."""
    return _scan_frames(np.asarray(x, dtype=np.float64)[np.newaxis], fs, config)[0]


def _scan_frames(
    frames: np.ndarray, fs: int, config: DetectorConfig
) -> list[list[Detection]]:
    """The detections of each row of an (n, L) stack.

    At each candidate sample i the short-window RMS over [i, i+sta) is
    compared against the long-window RMS over the trailing (up to lta)
    samples; a ratio above the threshold triggers a detection at i (the
    first sample of the triggering short window) followed by a
    refractory hold-off. The ratio is computed for a block of rows at
    once and only its threshold crossings are visited. A row's result
    does not depend on the other rows. Deterministic, sorted by onset.
    """
    n_rows, length = frames.shape
    w = config.windows(fs)
    if length <= w.lta:
        raise DataError(f"signal of {length} samples shorter than long window {w.lta}")
    first, last = w.warm, length - w.sta  # candidate onsets idx = [first, last)
    idx = np.arange(first, last)
    lta_start = np.maximum(idx - w.lta, 0)
    lta_len = idx - lta_start

    detections: list[list[Detection]] = []
    for lo in range(0, n_rows, SCAN_BLOCK_ROWS):
        block = frames[lo:lo + SCAN_BLOCK_ROWS]
        energy = np.zeros((block.shape[0], length + 1))
        np.cumsum(block * block, axis=-1, out=energy[:, 1:])
        sta = np.sqrt((energy[:, first + w.sta:last + w.sta] - energy[:, first:last])
                      / w.sta)
        lta = np.sqrt((energy[:, first:last] - energy[:, lta_start]) / lta_len)

        # Scale-invariant ratio; a silent long window below any activity
        # floors at a relative epsilon so a blast out of silence triggers.
        floor = np.maximum(lta, _LTA_FLOOR_REL * np.maximum(sta, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(floor > 0.0, sta / np.where(floor > 0.0, floor, 1.0), 0.0)

        # Visit only the threshold crossings, row by row; a crossing
        # inside the hold-off of its row's last detection is skipped.
        rows: list[list[Detection]] = [[] for _ in range(block.shape[0])]
        row, resume = -1, 0
        crossing_rows, crossing_cols = np.nonzero(ratio > config.threshold)
        for r, i in zip(crossing_rows.tolist(), crossing_cols.tolist()):
            if r != row:
                row, resume = r, 0
            if i >= resume:
                rows[r].append(Detection(first + i, float(ratio[r, i])))
                resume = i + w.hold
        detections.extend(rows)
    return detections


def match_detections(
    detections: list[Detection],
    truth_onsets: list[int],
    tolerance_samples: int,
) -> tuple[list[bool], int]:
    """Greedy nearest-first assignment of detections to truth onsets.

    Each truth onset takes at most one detection within +-tolerance;
    each detection matches at most once. Returns per-truth matched
    flags and the count of leftover detections (false-alarm proxy).
    """
    if tolerance_samples < 0:
        raise DataError(f"tolerance must be >= 0, got {tolerance_samples}")
    pairs = sorted(
        (abs(det.onset_sample - truth), di, ti)
        for di, det in enumerate(detections)
        for ti, truth in enumerate(truth_onsets)
        if abs(det.onset_sample - truth) <= tolerance_samples
    )
    matched = [False] * len(truth_onsets)
    det_used = [False] * len(detections)
    for _, di, ti in pairs:
        if not matched[ti] and not det_used[di]:
            matched[ti] = True
            det_used[di] = True
    return matched, det_used.count(False)


def default_tolerance(fs: int) -> int:
    """Match tolerance in samples: fs/100, i.e. 10 ms at any rate."""
    return int(round(fs / 100.0))


def score_rates(flags_by_bin: dict[float, list[bool]]) -> list[DetectionScore]:
    """Detection rate and binomial margin per SNR bin, ordered by SNR."""
    scores = []
    for snr in sorted(flags_by_bin):
        flags = flags_by_bin[snr]
        if not flags:
            raise DataError(f"empty bin at {snr} dB")
        n = len(flags)
        p = sum(flags) / n
        scores.append(DetectionScore(p, n, binomial_margin(p, n), snr))
    return scores


def detect_conditions(
    clean: dict[str, np.ndarray],
    noisy: np.ndarray,
    denoised: np.ndarray,
    shot_ids: list[str],
    truth_onsets: list[int],
    tolerance_samples: int,
    fs: int,
    config: DetectorConfig = DetectorConfig(),
) -> list[dict[str, bool]]:
    """Whether each example's truth onset is detected under each of the
    four conditions: clean, noisy, denoised, and combined.

    Row k of the noisy and denoised stacks is example k, a mix of shot
    shot_ids[k] with its onset at truth_onsets[k]; clean maps each shot
    id to its clean frame, which is scanned once however many examples
    share it. Combined is the parallel rule noisy OR denoised, so the
    combined rate can never fall below either individual curve
    (denoising occasionally filters out a blast the raw signal keeps).
    """
    n, length = len(shot_ids), noisy.shape[-1]
    if (noisy.shape != (n, length) or denoised.shape != (n, length)
            or len(truth_onsets) != n
            or any(frame.shape != (length,) for frame in clean.values())):
        raise DataError("clean, noisy and denoised stacks disagree in shape")
    if n == 0:
        return []
    clean_ids = list(clean)
    clean_dets = dict(zip(clean_ids, _scan_frames(
        np.stack([clean[s] for s in clean_ids]), fs, config)))
    outcomes = []
    for shot_id, onset, noisy_dets, denoised_dets in zip(
            shot_ids, truth_onsets, _scan_frames(noisy, fs, config),
            _scan_frames(denoised, fs, config)):
        flags = {}
        for condition, dets in (("clean", clean_dets[shot_id]), ("noisy", noisy_dets),
                                ("denoised", denoised_dets)):
            matched, _ = match_detections(dets, [onset], tolerance_samples)
            flags[condition] = matched[0]
        flags["combined"] = flags["noisy"] or flags["denoised"]
        outcomes.append(flags)
    return outcomes
