import numpy as np
import pytest

from mbdenoise import detect, signals
from mbdenoise.errors import DataError

FS = 32768
CFG = detect.DetectorConfig()


def blast_in_silence(onset, peak=10.0, n=8192, noise=0.0, seed=0):
    shot = signals.friedlander(peak, 0.0025, FS, n, onset)
    x = shot.waveform.samples.copy()
    if noise > 0.0:
        x += noise * np.random.default_rng(seed).standard_normal(n)
    return x


class TestDetectImpulses:
    def test_stationary_noise_no_detections(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(FS)  # one second of white noise
        assert detect.detect_impulses(x, FS, CFG) == []

    def test_single_blast_detected_once(self):
        onset = 4000
        x = blast_in_silence(onset, noise=0.01)
        dets = detect.detect_impulses(x, FS, CFG)
        assert len(dets) == 1
        assert abs(dets[0].onset_sample - onset) <= detect.default_tolerance(FS)

    def test_two_blasts_100ms_apart(self):
        gap = int(0.1 * FS)
        first = 4000
        shot1 = blast_in_silence(first, n=16384, noise=0.01)
        shot2 = signals.friedlander(10.0, 0.0025, FS, 16384, first + gap)
        x = shot1 + shot2.waveform.samples
        dets = detect.detect_impulses(x, FS, CFG)
        assert len(dets) == 2
        assert abs(dets[0].onset_sample - first) <= detect.default_tolerance(FS)
        assert abs(dets[1].onset_sample - first - gap) <= detect.default_tolerance(FS)

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError):
            detect.detect_impulses(np.zeros(100), FS, CFG)

    def test_sorted_and_deterministic(self):
        x = blast_in_silence(3000, n=16384, noise=0.05, seed=5)
        x += blast_in_silence(9000, n=16384, noise=0.0)
        a = detect.detect_impulses(x, FS, CFG)
        b = detect.detect_impulses(x, FS, CFG)
        assert [d.onset_sample for d in a] == [d.onset_sample for d in b]
        assert sorted(d.onset_sample for d in a) == [d.onset_sample for d in a]

    @pytest.mark.parametrize("alpha", [0.25, 4.0, 1024.0, 3.7])
    def test_scale_invariance(self, alpha):
        x = blast_in_silence(4000, noise=0.3, seed=7)
        base = [d.onset_sample for d in detect.detect_impulses(x, FS, CFG)]
        scaled = [d.onset_sample for d in detect.detect_impulses(alpha * x, FS, CFG)]
        assert base == scaled

    def test_silence_then_blast_triggers(self):
        # Long-window RMS is zero before the blast; the relative floor
        # must still let the blast trigger.
        x = blast_in_silence(6000, noise=0.0)
        dets = detect.detect_impulses(x, FS, CFG)
        assert len(dets) == 1


class TestMatchDetections:
    def test_exact_hit(self):
        matched, fa = detect.match_detections([detect.Detection(100, 9.0)], [100], 32)
        assert matched == [True] and fa == 0

    def test_boundary_inclusive(self):
        matched, _ = detect.match_detections([detect.Detection(132, 9.0)], [100], 32)
        assert matched == [True]

    def test_boundary_plus_one_unmatched(self):
        matched, fa = detect.match_detections([detect.Detection(133, 9.0)], [100], 32)
        assert matched == [False] and fa == 1

    def test_two_detections_one_truth(self):
        dets = [detect.Detection(95, 5.0), detect.Detection(108, 6.0)]
        matched, fa = detect.match_detections(dets, [100], 32)
        assert matched == [True] and fa == 1

    def test_nearest_first_assignment(self):
        # One detection between two truths must take the nearer truth.
        dets = [detect.Detection(103, 5.0)]
        matched, fa = detect.match_detections(dets, [100, 140], 50)
        assert matched == [True, False] and fa == 0

    def test_each_detection_used_once(self):
        dets = [detect.Detection(100, 5.0)]
        matched, _ = detect.match_detections(dets, [100, 101], 32)
        assert matched.count(True) == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DataError):
            detect.match_detections([], [], -1)


class TestScores:
    def test_margin_half_hundred(self):
        scores = detect.score_rates({0.0: [True] * 50 + [False] * 50})
        assert scores[0].p == 0.5
        assert scores[0].delta_p == pytest.approx(0.05, abs=1e-15)

    def test_margin_degenerate_p1(self):
        scores = detect.score_rates({0.0: [True] * 37})
        assert scores[0].p == 1.0 and scores[0].delta_p == 0.0

    def test_margin_three_quarters_300(self):
        flags = [True] * 225 + [False] * 75
        scores = detect.score_rates({-5.0: flags})
        assert scores[0].p == 0.75
        assert scores[0].delta_p == pytest.approx(0.025, abs=1e-15)

    def test_bins_ordered_by_snr(self):
        scores = detect.score_rates({0.0: [True], -10.0: [False], 5.0: [True]})
        assert [s.snr_bin for s in scores] == [-10.0, 0.0, 5.0]

    def test_empty_bin_rejected(self):
        with pytest.raises(DataError):
            detect.score_rates({0.0: []})

    def test_margin_shrinks_with_n(self):
        margins = [detect.binomial_margin(0.4, n) for n in (10, 100, 1000)]
        assert margins[0] > margins[1] > margins[2]


class TestCombined:
    def test_denoised_only_still_matches(self):
        onset = 4000
        clean = blast_in_silence(onset, noise=0.01)
        rng = np.random.default_rng(1)
        masked = clean + 20.0 * rng.standard_normal(clean.size)
        tol = detect.default_tolerance(FS)
        flags = detect.detect_conditions(clean, masked, clean, onset, tol, FS, CFG)
        assert flags == {"clean": True, "noisy": False, "denoised": True,
                         "combined": True}

    def test_neither_matches(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(8192)
        flags = detect.detect_conditions(noise, noise, noise, 4000,
                                         detect.default_tolerance(FS), FS, CFG)
        assert not any(flags.values())

    def test_combined_at_least_each_rate(self):
        # Union of matched sets dominates each side, bin by bin.
        rng = np.random.default_rng(3)
        noisy_flags = rng.uniform(size=200) < 0.3
        denoised_flags = rng.uniform(size=200) < 0.5
        combined = noisy_flags | denoised_flags
        assert combined.mean() >= max(noisy_flags.mean(), denoised_flags.mean())

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            detect.detect_conditions(np.zeros(100), np.zeros(100), np.zeros(99),
                                     0, 10, FS, CFG)


def test_default_tolerance_is_ten_ms():
    assert detect.default_tolerance(32768) == 328
    assert detect.default_tolerance(10000) == 100
