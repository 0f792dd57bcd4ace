"""Impulse detection and detection-rate scoring.

A short-over-long RMS ratio (STA/LTA) trigger stands in for the
production pulse detector: it targets exactly the sharp transient rise
a muzzle blast produces and is scale invariant. The scan screens whole
blocks of frames on squared window energies and computes the ratio only
where a detection can start. Detections are matched
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
# The candidate screen lowers the threshold by this relative slack. It
# compares window energies, skipping the ratio's square roots and
# divides, whose rounding moves the ratio by a few ulps (about 1e-15);
# the slack keeps every crossing a candidate and admits only samples
# whose ratio lies within 1e-6 below the threshold.
_SCREEN_SLACK = 1e-6
# Below this cumulative energy (2^-900) window energies can be subnormal,
# where a product rounds by more than the slack; such prefixes of a row
# (zeros, or samples below about 1e-135) are screened by short-window
# energy alone.
_TINY_ENERGY = 2.0 ** -900
# Rows of a frame stack scanned per block; at 16 rows of 2048 samples
# each buffer holds about 256 kB. The 2400 rows of 2048 samples that one
# benchmark evaluate op scans took about 60 ms in blocks of 8 to 64 rows,
# 72 ms in blocks of 4, 108 ms as whole 700-row stacks and 120 ms one row
# at a time (median of 5, 2-core x86-64 Xeon, numpy 2.4.6).
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
    refractory hold-off. A row's result does not depend on the other
    rows. Deterministic, sorted by onset.

    A block of rows is screened at once on window energies: a sample is
    a candidate when its short-window energy exceeds its long-window
    energy times (threshold * (1 - _SCREEN_SLACK))^2 * sta / lta_len,
    which holds at every sample whose ratio crosses the threshold. The
    ratio itself (_onset_ratio) is computed only at the first candidate
    of a row past the hold-off; after a detection the walk jumps to the
    first candidate at or past i + hold.
    """
    n_rows, length = frames.shape
    w = config.windows(fs)
    if length <= w.lta:
        raise DataError(f"signal of {length} samples shorter than long window {w.lta}")
    first, last = w.warm, length - w.sta  # candidate onsets idx = [first, last)
    n_idx = last - first
    lta_len = np.minimum(np.arange(first, last), w.lta)
    gain = (config.threshold * (1.0 - _SCREEN_SLACK)) ** 2 * w.sta / lta_len
    # Candidates up to lta have a long window from the row start, whose
    # cumulative energy is 0.
    grown = min(max(w.lta + 1 - first, 0), n_idx)

    rows_max = min(n_rows, SCAN_BLOCK_ROWS)
    squares = np.empty((rows_max, length))
    energy = np.zeros((rows_max, length + 1))
    short = np.empty((rows_max, n_idx))
    long = np.empty((rows_max, n_idx))
    screen = np.empty((rows_max, n_idx), dtype=bool)
    detections: list[list[Detection]] = []
    for lo in range(0, n_rows, SCAN_BLOCK_ROWS):
        block = frames[lo:lo + SCAN_BLOCK_ROWS]
        nb = block.shape[0]
        e, s, g, m = energy[:nb], short[:nb], long[:nb], screen[:nb]
        np.multiply(block, block, out=squares[:nb])
        np.cumsum(squares[:nb], axis=-1, out=e[:, 1:])
        np.subtract(e[:, first + w.sta:last + w.sta], e[:, first:last], out=s)
        g[:, :grown] = e[:, first:first + grown]
        np.subtract(e[:, first + grown:last], e[:, first + grown - w.lta:last - w.lta],
                    out=g[:, grown:])
        np.multiply(g, gain, out=g)
        np.greater(s, g, out=m)
        _screen_tiny_prefixes(e, s, m, first + w.sta)

        rows: list[list[Detection]] = [[] for _ in range(nb)]
        for r in np.flatnonzero(m.any(axis=1)).tolist():
            cols, k = np.flatnonzero(m[r]), 0
            while k < cols.size:
                i = first + int(cols[k])
                ratio = _onset_ratio(e[r], i, w)
                if ratio > config.threshold:
                    rows[r].append(Detection(i, ratio))
                    k = int(np.searchsorted(cols, i + w.hold - first))
                else:
                    k += 1
        detections.extend(rows)
    return detections


def _screen_tiny_prefixes(energy: np.ndarray, short: np.ndarray, screen: np.ndarray,
                          end: int) -> None:
    """Mark every sample with short-window energy as a candidate where
    the cumulative energy at the short window's end, energy[:, end + c]
    for column c, is below _TINY_ENERGY. There products of subnormal
    energies round too coarsely for the screen. Cumulative energy never
    falls, so these columns are a prefix of each row."""
    for r in np.flatnonzero(energy[:, end] < _TINY_ENERGY).tolist():
        n = int(np.searchsorted(energy[r, end:end + short.shape[1]], _TINY_ENERGY))
        screen[r, :n] |= short[r, :n] > 0.0


def _onset_ratio(energy: np.ndarray, i: int, w: SampleWindows) -> float:
    """The STA/LTA ratio at candidate onset i from one row's cumulative
    energy (energy[k] is the sum of the first k squared samples).

    A silent long window below any activity floors at a relative epsilon
    of the short-window RMS, so a blast out of silence triggers."""
    start = max(i - w.lta, 0)
    sta = math.sqrt((energy[i + w.sta] - energy[i]) / w.sta)
    lta = math.sqrt((energy[i] - energy[start]) / (i - start))
    floor = max(lta, _LTA_FLOOR_REL * sta)
    return sta / floor if floor > 0.0 else 0.0


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


def onsets_detected(
    frames: np.ndarray,
    onsets: list[int],
    tolerance_samples: int,
    fs: int,
    config: DetectorConfig = DetectorConfig(),
) -> list[bool]:
    """Whether row k of an (n, L) stack detects its one truth onset,
    onsets[k]: whether any of the row's detections lies within
    tolerance_samples of it (_onset_detected). The stack is scanned as
    float64 whatever its precision: _scan_frames squares and sums in
    its input's dtype, and float32 window energies would move
    detections."""
    if tolerance_samples < 0:
        raise DataError(f"tolerance must be >= 0, got {tolerance_samples}")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] != len(onsets):
        raise DataError(f"{frames.shape} frame stack disagrees in shape "
                        f"with {len(onsets)} onsets")
    return [_onset_detected(dets, onset, tolerance_samples)
            for dets, onset in zip(_scan_frames(frames, fs, config), onsets)]


def _onset_detected(detections: list[Detection], onset: int, tolerance: int) -> bool:
    """Whether a detection lies within tolerance of the one truth onset:
    match_detections(detections, [onset], tolerance)[0][0] without the
    pairing that several onsets need."""
    return any(abs(det.onset_sample - onset) <= tolerance for det in detections)
