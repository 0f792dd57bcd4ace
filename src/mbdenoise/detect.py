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

import numpy as np

from .errors import DataError

_LTA_FLOOR_REL = 1e-12


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
    """Find sharp transient onsets in a pressure signal.

    At each candidate sample i the short-window RMS over [i, i+sta) is
    compared against the long-window RMS over the trailing (up to lta)
    samples; a ratio above the threshold triggers a detection at i (the
    first sample of the triggering short window) followed by a
    refractory hold-off. The ratio is computed for every candidate at
    once and only its threshold crossings are visited. Deterministic,
    sorted by onset.
    """
    x = np.asarray(x, dtype=np.float64)
    n_sta = max(1, int(round(config.sta_ms * 1e-3 * fs)))
    n_lta = max(n_sta + 1, int(round(config.lta_ms * 1e-3 * fs)))
    n_warm = max(1, int(round(config.warmup_ms * 1e-3 * fs)))
    n_hold = max(1, int(round(config.refractory_ms * 1e-3 * fs)))
    if x.size <= n_lta:
        raise DataError(f"signal of {x.size} samples shorter than long window {n_lta}")

    energy = np.concatenate([[0.0], np.cumsum(x * x)])
    first = n_warm
    last = x.size - n_sta
    idx = np.arange(first, last)
    sta = np.sqrt((energy[idx + n_sta] - energy[idx]) / n_sta)
    lta_start = np.maximum(idx - n_lta, 0)
    lta = np.sqrt((energy[idx] - energy[lta_start]) / (idx - lta_start))

    # Scale-invariant ratio; a silent long window below any activity
    # floors at a relative epsilon so a blast out of silence triggers.
    floor = np.maximum(lta, _LTA_FLOOR_REL * np.maximum(sta, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(floor > 0.0, sta / np.where(floor > 0.0, floor, 1.0), 0.0)

    # Visit only the threshold crossings; a crossing inside the hold-off
    # of the last detection is skipped.
    detections: list[Detection] = []
    resume = 0
    for i in np.flatnonzero(ratio > config.threshold):
        if i >= resume:
            detections.append(Detection(int(idx[i]), float(ratio[i])))
            resume = i + n_hold
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
    clean: np.ndarray,
    noisy: np.ndarray,
    denoised: np.ndarray,
    truth_onset: int,
    tolerance_samples: int,
    fs: int,
    config: DetectorConfig = DetectorConfig(),
) -> dict[str, bool]:
    """Whether the truth onset is detected under each of the four
    conditions: clean, noisy, denoised, and combined.

    Combined is the parallel rule noisy OR denoised, so the combined
    rate can never fall below either individual curve (denoising
    occasionally filters out a blast the raw signal keeps).
    """
    if not len(clean) == len(noisy) == len(denoised):
        raise DataError("clean, noisy and denoised lengths differ")
    flags = {}
    for condition, signal in (("clean", clean), ("noisy", noisy), ("denoised", denoised)):
        dets = detect_impulses(signal, fs, config)
        matched, _ = match_detections(dets, [truth_onset], tolerance_samples)
        flags[condition] = matched[0]
    flags["combined"] = flags["noisy"] or flags["denoised"]
    return flags
