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


def reference_ratios(x, fs, config):
    """The STA/LTA ratio at every candidate onset, by its definition:
    (onsets, ratios)."""
    n_sta = max(1, int(round(config.sta_ms * 1e-3 * fs)))
    n_lta = max(n_sta + 1, int(round(config.lta_ms * 1e-3 * fs)))
    n_warm = max(1, int(round(config.warmup_ms * 1e-3 * fs)))
    energy = np.concatenate([[0.0], np.cumsum(x * x)])
    idx = np.arange(n_warm, x.size - n_sta)
    sta = np.sqrt((energy[idx + n_sta] - energy[idx]) / n_sta)
    lta_start = np.maximum(idx - n_lta, 0)
    lta = np.sqrt((energy[idx] - energy[lta_start]) / (idx - lta_start))
    floor = np.maximum(lta, 1e-12 * sta)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(floor > 0.0, sta / np.where(floor > 0.0, floor, 1.0), 0.0)
    return idx, ratio


def reference_scan(x, fs, config):
    """detect_impulses by its definition: the same STA/LTA ratio,
    stepped one candidate at a time, jumping the hold-off after each
    trigger."""
    n_hold = max(1, int(round(config.refractory_ms * 1e-3 * fs)))
    idx, ratio = reference_ratios(x, fs, config)
    detections = []
    i = 0
    while i < ratio.size:
        if ratio[i] > config.threshold:
            detections.append(detect.Detection(int(idx[i]), float(ratio[i])))
            i += n_hold
        else:
            i += 1
    return detections


class TestCrossingScan:
    """At fs = 1000 the defaults give a 2-sample short window, 50-sample
    long window, 10-sample warm-up and 20-sample hold-off, so a spike at
    p makes candidates p-1 and p cross the threshold."""

    FS_SMALL = 1000

    def spikes(self, positions, n=400, seed=0):
        x = 0.01 * np.random.default_rng(seed).standard_normal(n)
        for k, p in enumerate(positions):
            x[p] += 1.0 + 4.0 * k
        return x

    def check(self, x):
        dets = detect.detect_impulses(x, self.FS_SMALL, CFG)
        assert dets == reference_scan(x, self.FS_SMALL, CFG)
        return [d.onset_sample for d in dets]

    def test_crossing_inside_hold_off_skipped(self):
        assert self.check(self.spikes([100, 110])) == [99]

    def test_crossing_exactly_hold_off_apart(self):
        assert self.check(self.spikes([100, 120])) == [99, 119]

    def test_crossing_on_last_candidate(self):
        # Candidates end at n - n_sta - 1 = 397; only its short window
        # [397, 399) holds a spike at 398.
        assert self.check(self.spikes([398])) == [397]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spike_trains(self, seed):
        rng = np.random.default_rng(seed)
        gaps = rng.integers(5, 40, size=30)
        positions = list(np.cumsum(gaps) + 60)
        x = self.spikes([p for p in positions if p < 1400], n=1500, seed=seed)
        self.check(x)

    @pytest.mark.parametrize("n_rows", [
        1, detect.SCAN_BLOCK_ROWS - 1, detect.SCAN_BLOCK_ROWS,
        detect.SCAN_BLOCK_ROWS + 1, 2 * detect.SCAN_BLOCK_ROWS + 1])
    def test_stacked_rows_equal_reference(self, n_rows):
        # Spike trains between silent rows and noise rows that never
        # cross, so blocks start and end on every kind of row.
        rng = np.random.default_rng(n_rows)
        rows = []
        for k in range(n_rows):
            kind = k % 3
            if kind == 0:
                gaps = rng.integers(5, 40, size=12)
                rows.append(self.spikes(list(np.cumsum(gaps) + 60), n=600, seed=k))
            elif kind == 1:
                rows.append(np.zeros(600))
            else:
                rows.append(0.01 * rng.standard_normal(600))
        stack = np.stack(rows)
        found = detect._scan_frames(stack, self.FS_SMALL, CFG)
        assert len(found) == n_rows
        for k, x in enumerate(rows):
            assert found[k] == reference_scan(x, self.FS_SMALL, CFG)
            assert found[k] == detect.detect_impulses(x, self.FS_SMALL, CFG)
            assert (found[k] == []) == (k % 3 != 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_blasts_at_full_rate(self, seed):
        x = blast_in_silence(3000, n=16384, noise=0.8, seed=seed)
        x += blast_in_silence(3000 + 600 + 100 * seed, n=16384)
        dets = detect.detect_impulses(x, FS, CFG)
        assert dets and dets == reference_scan(x, FS, CFG)


class TestScanEdges:
    """Rows at the edges of the stacked scan's candidate screen and of
    its hold-off jump, each checked against reference_scan and against
    detect_impulses on the row alone."""

    FS_SMALL = 1000
    T = CFG.threshold

    def check(self, x, fs):
        [found] = detect._scan_frames(x[np.newaxis], fs, CFG)
        assert found == reference_scan(x, fs, CFG)
        assert found == detect.detect_impulses(x, fs, CFG)
        return found

    @staticmethod
    def spiked(amplitude, seed):
        x = 0.01 * np.random.default_rng(seed).standard_normal(400)
        x[200] += amplitude
        return x

    @pytest.mark.parametrize("seed", [1, 2])
    def test_spike_bisected_across_threshold(self, seed):
        # Bisect the spike amplitude down to two adjacent floats: the
        # lower one's largest reference ratio is at or just below the
        # threshold, the upper one's just above it (seed 1: exactly the
        # threshold; seed 2: the smallest float above it).
        def peak_ratio(amplitude):
            return reference_ratios(self.spiked(amplitude, seed), self.FS_SMALL, CFG)[1].max()

        lo, hi = 0.0, 1.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if peak_ratio(mid) > self.T else (mid, hi)
        below, above = peak_ratio(lo), peak_ratio(hi)
        ulp = np.spacing(self.T)
        assert self.T - 4 * ulp <= below <= self.T < above <= self.T + 2 * ulp
        assert below == self.T if seed == 1 else above == np.nextafter(self.T, np.inf)
        assert self.check(self.spiked(lo, seed), self.FS_SMALL) == []
        found = self.check(self.spiked(hi, seed), self.FS_SMALL)
        assert [d.score for d in found] == [above]

    def test_zeros_before_blast(self):
        # The long window holds only zeros, so the ratio is the floor
        # branch's sta / (1e-12 * sta).
        found = self.check(blast_in_silence(5000), FS)
        assert len(found) == 1 and found[0].score == pytest.approx(1e12)

    def test_tail_scaled_by_1e_200(self):
        # The tail's squares underflow to zero: its windows hold no energy.
        x = blast_in_silence(3000, n=16384, noise=0.5, seed=3)
        x += blast_in_silence(9000, n=16384)
        x[6000:] *= 1e-200
        found = self.check(x, FS)
        assert [d.onset_sample < 6000 for d in found] == [True]

    @pytest.mark.parametrize("seed", range(4))
    def test_subnormal_energies(self, seed):
        # Samples near 1e-162 have subnormal squares, where products of
        # window energies round by far more than the screen's slack.
        rng = np.random.default_rng(seed)
        x = 1e-162 * rng.standard_normal(400)
        x[200] += 3e-162
        x[300:] *= rng.uniform(0.1, 10.0, 100)
        self.check(x, self.FS_SMALL)

    def test_hundreds_of_crossings_after_one_blast(self):
        # A blast followed by a rising reverberation crosses the
        # threshold at thousands of samples; once the reverberation
        # crosses without a break, detections follow each other exactly
        # one hold-off apart.
        rng = np.random.default_rng(1)
        x = blast_in_silence(4000, n=16384, noise=1e-3, seed=1)
        rise = np.exp(0.005 * np.minimum(np.arange(12384), 3000))
        x[4000:] += 1e-2 * rise * rng.standard_normal(12384)
        onsets, ratios = reference_ratios(x, FS, CFG)
        assert np.count_nonzero(ratios > self.T) > 500
        found = [d.onset_sample for d in self.check(x, FS)]
        hold = CFG.windows(FS).hold
        gaps = np.diff(found)
        assert np.all(gaps >= hold) and np.count_nonzero(gaps == hold) >= 2


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
    """onsets_detected, the row scorer behind every scored condition, and
    the union rule that combines two conditions."""

    TOL = detect.default_tolerance(FS)

    def hits(self, frames, onsets):
        return detect.onsets_detected(frames, onsets, self.TOL, FS, CFG)

    def test_denoised_only_still_matches(self):
        onset = 4000
        clean = blast_in_silence(onset, noise=0.01)
        rng = np.random.default_rng(1)
        masked = clean + 20.0 * rng.standard_normal(clean.size)
        assert self.hits([masked, clean], [onset, onset]) == [False, True]

    def test_neither_matches(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(8192)
        assert self.hits([noise], [4000]) == [False]

    def test_matches_one_row_calls(self):
        # Each row's flag equals matching detect_impulses of the row
        # alone, across more rows than one scan block.
        n = detect.SCAN_BLOCK_ROWS + 3
        shots = [blast_in_silence(3000 + 50 * k, noise=0.05, seed=k) for k in range(4)]
        onsets = [3000 + 50 * (k % 4) for k in range(n)]
        rng = np.random.default_rng(5)
        clean = np.stack([shots[k % 4] for k in range(n)])
        noisy = clean + np.stack([rng.uniform(0.5, 8.0) * rng.standard_normal(8192)
                                  for _ in range(n)])
        seen = set()
        for frames in (clean, noisy, 0.5 * (noisy + clean)):
            expected = [detect.match_detections(detect.detect_impulses(row, FS, CFG),
                                                [onset], self.TOL)[0][0]
                        for row, onset in zip(frames, onsets)]
            assert self.hits(frames, onsets) == expected
            seen.update(expected)
        assert seen == {False, True}

    def test_onset_detected_matches_one_onset_matching(self):
        # Random detection lists around one onset, the tolerance edges
        # included, flag the onset exactly when match_detections does.
        rng = np.random.default_rng(7)
        tol, onset = 32, 1000
        for _ in range(2000):
            offsets = rng.integers(-3 * tol, 3 * tol + 1, rng.integers(0, 5))
            offsets[rng.uniform(size=offsets.size) < 0.2] = tol * rng.choice([-1, 1])
            dets = [detect.Detection(onset + int(o), 5.0) for o in sorted(offsets)]
            expected = detect.match_detections(dets, [onset], tol)[0][0]
            assert detect._onset_detected(dets, onset, tol) == expected

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DataError, match="tolerance must be >= 0"):
            detect.onsets_detected(np.zeros((1, 8192)), [0], -1, FS, CFG)

    def test_combined_at_least_each_rate(self):
        # Union of matched sets dominates each side, bin by bin.
        rng = np.random.default_rng(3)
        noisy_flags = rng.uniform(size=200) < 0.3
        denoised_flags = rng.uniform(size=200) < 0.5
        combined = noisy_flags | denoised_flags
        assert combined.mean() >= max(noisy_flags.mean(), denoised_flags.mean())

    def test_length_mismatch(self):
        # Rows shorter than the detector's long window cannot be scored.
        with pytest.raises(DataError, match="shorter than long window"):
            self.hits(np.zeros((1, 100)), [0])

    @pytest.mark.parametrize("shape, n_onsets", [
        pytest.param((1, 8192), 2, id="100-1-1-1-2"),  # one row, two onsets
        pytest.param((2, 8192), 1, id="100-1-2-1-1"),  # a row too many
        pytest.param((0, 8192), 1, id="no-rows"),
        pytest.param((8192,), 8192, id="one-dimensional"),  # a row, not a stack
    ])
    def test_count_mismatch(self, shape, n_onsets):
        with pytest.raises(DataError, match="disagrees in shape"):
            self.hits(np.zeros(shape), [0] * n_onsets)


class TestScanClean:
    """onsets_detected on stacks of clean shot frames, as cli scores them."""

    def test_each_frame_scanned_as_alone(self):
        frames = np.stack([blast_in_silence(3000 + 100 * k, noise=0.05, seed=k)
                           for k in range(detect.SCAN_BLOCK_ROWS + 2)])
        onsets = [3000 + 100 * k for k in range(len(frames))]
        tol = detect.default_tolerance(FS)
        stacked = detect.onsets_detected(frames, onsets, tol, FS, CFG)
        assert stacked == [detect.onsets_detected(row[np.newaxis], [onset], tol, FS, CFG)[0]
                           for row, onset in zip(frames, onsets)]
        assert all(stacked)

    def test_float32_frames_scanned_as_float64(self):
        # Frames loaded from float32 WAVs stay float32. Their flags must
        # be those of their exact float64 copies, each onset being the
        # copy's first detection and the tolerance 0, so a detection
        # moved by one sample fails. Squared and summed in float32, the
        # 1e-25 Pa blast's squares underflow to zero and it goes unseen.
        frames = np.stack([blast_in_silence(3000 + 100 * k, noise=0.05 * k, seed=k)
                           for k in range(detect.SCAN_BLOCK_ROWS + 2)]
                          + [1e-25 * blast_in_silence(4000)]).astype(np.float32)
        onsets = [d[0].onset_sample if (d := detect.detect_impulses(row, FS, CFG)) else 0
                  for row in frames.astype(np.float64)]
        narrow = detect.onsets_detected(frames, onsets, 0, FS, CFG)
        wide = detect.onsets_detected(frames.astype(np.float64), onsets, 0, FS, CFG)
        assert narrow == wide
        assert narrow[-1]

    def test_empty(self):
        assert detect.onsets_detected(np.zeros((0, 8192)), [], 328, FS, CFG) == []


def test_default_tolerance_is_ten_ms():
    assert detect.default_tolerance(32768) == 328
    assert detect.default_tolerance(10000) == 100
