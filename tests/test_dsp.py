import math
import tracemalloc

import numpy as np
import pytest

from mbdenoise import dsp, signals
from mbdenoise.errors import DataError, NumericError

FS = 32768


def analytic_db(f, fc, order=8):
    return -10.0 * np.log10(1.0 + (np.asarray(f, dtype=float) / fc) ** (2 * order))


class TestDesignButterworth:
    def test_minus_3db_at_cutoff(self, filter_spec_dec):
        db = filter_spec_dec.response_db(filter_spec_dec.cutoff_hz)[0]
        assert db == pytest.approx(-3.0103, abs=0.1)

    def test_unity_dc_gain(self, filter_spec_dec):
        assert filter_spec_dec.response_db(0.0)[0] == pytest.approx(0.0, abs=0.01)
        assert float(np.sum(filter_spec_dec.kernel)) == pytest.approx(1.0, abs=1e-12)

    def test_order8_at_twice_cutoff(self, filter_spec_dec):
        # Analytic oracle: 10*log10(1 + 2^16) = 48.1648 dB down.
        expected = -10.0 * math.log10(1.0 + 2.0 ** 16)
        db = filter_spec_dec.response_db(2 * filter_spec_dec.cutoff_hz)[0]
        assert db == pytest.approx(expected, abs=0.5)

    def test_follows_analytic_law_above_floor(self, filter_spec_dec):
        spec = filter_spec_dec
        f = np.geomspace(10.0, spec.fs / 2 * 0.999, 50)
        measured = spec.response_db(f)
        ana = analytic_db(f, spec.cutoff_hz)
        mask = ana > -55.0  # away from the truncation floor
        assert mask.sum() >= 30
        assert np.max(np.abs(measured[mask] - ana[mask])) < 0.5

    def test_kernel_odd_and_symmetric(self, filter_spec_dec):
        k = filter_spec_dec.kernel
        assert k.size % 2 == 1
        assert np.allclose(k, k[::-1], atol=1e-15)

    def test_rejects_cutoff_at_nyquist(self):
        with pytest.raises(DataError):
            dsp.design_butterworth(8, FS / 2, FS)

    def test_rejects_zero_order(self):
        with pytest.raises(DataError):
            dsp.design_butterworth(0, 100.0, FS)

    def test_rejects_even_kernel_len(self):
        with pytest.raises(DataError):
            dsp.design_butterworth(8, 100.0, FS, kernel_len=32)


class TestDecimate:
    def test_constant_passes(self):
        out = dsp.decimate(np.ones(2048), FS)
        assert out.size == 256
        assert np.max(np.abs(out - 1.0)) < 1e-3

    def test_passband_sine_preserved(self):
        # fs/64 sine: analytic gain at cutoff/4 is 0 dB to ~1e-10.
        t = np.arange(4096) / FS
        x = np.sin(2 * np.pi * (FS / 64) * t)
        y = dsp.decimate(x, FS)
        core_in = x[256:-256]
        core_out = y[32:-32]
        gain_db = 20 * np.log10(signals.rms(core_out) / signals.rms(core_in))
        assert abs(gain_db) < 0.5

    def test_stopband_sine_attenuated(self):
        t = np.arange(4096) / FS
        x = np.sin(2 * np.pi * (FS / 4) * t)
        y = dsp.decimate(x, FS)
        gain_db = 20 * np.log10(signals.rms(y) / signals.rms(x))
        assert gain_db <= -40.0

    def test_length_must_divide(self):
        with pytest.raises(DataError):
            dsp.decimate(np.ones(2047), FS)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(2048), rng.standard_normal(2048)
        lhs = dsp.decimate(2.5 * x - 1.5 * y, FS)
        rhs = 2.5 * dsp.decimate(x, FS) - 1.5 * dsp.decimate(y, FS)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestInterpolate:
    def test_constant(self):
        out = dsp.interpolate(np.ones(256), FS)
        assert out.size == 2048
        assert np.max(np.abs(out[64:-64] - 1.0)) < 1e-3

    def test_zeros_exact(self):
        out = dsp.interpolate(np.zeros(256), FS)
        assert np.all(out == 0.0)

    def test_round_trip_bandlimited(self):
        t = np.arange(2048) / FS
        x = np.sin(2 * np.pi * (FS / 64) * t)
        rt = dsp.interpolate(dsp.decimate(x, FS), FS)
        edge = 256
        err = signals.rms(rt[edge:-edge] - x[edge:-edge]) / signals.rms(x[edge:-edge])
        assert err < 0.01

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        lhs = dsp.interpolate(3.0 * x + 0.5 * y, FS)
        rhs = 3.0 * dsp.interpolate(x, FS) + 0.5 * dsp.interpolate(y, FS)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_interp_branches_cached_read_only(self):
        branches = dsp._interp_branches(FS, 8)
        assert dsp._interp_branches(FS, 8) is branches
        assert not branches.flags.writeable
        kernel = dsp._interp_kernel(dsp.anti_alias_spec(FS, 8), 8)
        half = (kernel.size - 1) // 2
        phase = (np.arange(kernel.size) - half) % 8
        for r in range(8):
            assert float(np.sum(kernel[phase == r])) == pytest.approx(1.0, abs=1e-12)
        y = np.random.default_rng(3).standard_normal(256)
        assert np.array_equal(dsp.interpolate(y, FS), dsp.interpolate(y, FS))


def decimate_oracle(x, factor):
    """decimate by its definition: edge-padded zero-phase convolution,
    then every factor-th sample."""
    kernel = dsp.anti_alias_spec(FS, factor).kernel
    half = (kernel.size - 1) // 2
    return np.convolve(np.pad(x, half, mode="edge"), kernel, mode="valid")[::factor]


def interpolate_oracle(y, factor):
    """interpolate by its definition: edge-pad, zero-stuff, centered
    convolution with the interpolation kernel, trim the padding."""
    kernel = dsp._interp_kernel(dsp.anti_alias_spec(FS, factor), factor)
    half = (kernel.size - 1) // 2
    pad = -(-half // factor)
    stuffed = np.zeros((y.size + 2 * pad) * factor)
    stuffed[::factor] = np.pad(y, pad, mode="edge")
    start = pad * factor + half
    return np.convolve(stuffed, kernel)[start: start + y.size * factor]


class TestPolyphase:
    """decimate and interpolate against their convolution definitions, and
    batch rows against single-frame calls."""

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_decimate_matches_convolution(self, factor, kind):
        rng = np.random.default_rng(factor)
        x = rng.standard_normal(2048) if kind == "random" else np.full(2048, -3.7)
        out = dsp.decimate(x, FS, factor)
        assert out.shape == (2048 // factor,)
        assert np.max(np.abs(out - decimate_oracle(x, factor))) < 1e-13

    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_interpolate_matches_convolution(self, factor, kind):
        rng = np.random.default_rng(10 + factor)
        y = rng.standard_normal(256) if kind == "random" else np.full(256, 2.25)
        out = dsp.interpolate(y, FS, factor)
        assert out.shape == (256 * factor,)
        assert np.max(np.abs(out - interpolate_oracle(y, factor))) < 1e-13

    @pytest.mark.parametrize("shape", [(7,), (2, 3)])
    def test_batch_rows_equal_single_frames(self, shape):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal(shape + (2048,))
        dec = dsp.decimate(frames, FS)
        assert dec.shape == shape + (256,)
        inter = dsp.interpolate(dec, FS)
        assert inter.shape == shape + (2048,)
        for index in np.ndindex(shape):
            assert np.array_equal(dec[index], dsp.decimate(frames[index], FS))
            assert np.array_equal(inter[index], dsp.interpolate(dec[index], FS))

    def test_batch_length_must_divide(self):
        with pytest.raises(DataError):
            dsp.decimate(np.ones((3, 2047)), FS)


class TestLinearMaps:
    """decimation_matrix and interpolation_matrix against decimate and
    interpolate: equal up to summation order, so within a few ulps of
    each row's largest output."""

    ULPS = 16

    @pytest.mark.parametrize("factor", [2, 8])
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_decimation_matrix_is_decimate(self, factor, kind):
        rng = np.random.default_rng(20 + factor)
        x = rng.standard_normal((5, 2048)) if kind == "random" else np.full((1, 2048), -3.7)
        D = dsp.decimation_matrix(2048, FS, factor)
        ref = dsp.decimate(x, FS, factor)
        assert D.shape == (2048 // factor, 2048)
        ulp = np.spacing(np.max(np.abs(ref), axis=1, keepdims=True))
        assert np.all(np.abs(x @ D.T - ref) <= self.ULPS * ulp)

    @pytest.mark.parametrize("factor", [2, 8])
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_interpolation_matrix_is_interpolate(self, factor, kind):
        rng = np.random.default_rng(30 + factor)
        y = rng.standard_normal((5, 256)) if kind == "random" else np.full((1, 256), 2.25)
        I = dsp.interpolation_matrix(256, FS, factor)
        ref = dsp.interpolate(y, FS, factor)
        assert I.shape == (256 * factor, 256)
        ulp = np.spacing(np.max(np.abs(ref), axis=1, keepdims=True))
        assert np.all(np.abs(y @ I.T - ref) <= self.ULPS * ulp)

    def test_cached_read_only(self):
        D = dsp.decimation_matrix(2048, FS, 8)
        I = dsp.interpolation_matrix(256, FS, 8)
        assert dsp.decimation_matrix(2048, FS, 8) is D
        assert dsp.interpolation_matrix(256, FS, 8) is I
        assert not D.flags.writeable and not I.flags.writeable

    def test_cache_ignores_swapped_maps(self, monkeypatch):
        # A tracer swaps the module's decimate and interpolate for
        # wrappers; the cached matrices must still be found, and no
        # wrapper called.
        D = dsp.decimation_matrix(2048, FS, 8)
        I = dsp.interpolation_matrix(256, FS, 8)
        calls = []
        for name in ("decimate", "interpolate"):
            original = getattr(dsp, name)

            def passthrough(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            monkeypatch.setattr(dsp, name, passthrough)
        assert dsp.decimation_matrix(2048, FS, 8) is D
        assert dsp.interpolation_matrix(256, FS, 8) is I
        assert calls == []

    @pytest.mark.parametrize("build, n", [(dsp.decimation_matrix, 2048),
                                          (dsp.interpolation_matrix, 256)])
    def test_read_off_holds_little_beside_the_matrix(self, build, n):
        # With the filter designs warm, reading a matrix off its map
        # allocates the matrix and one block of unit frames at a time,
        # never a whole identity (2048 x 2048 doubles is 33.5 MB).
        dsp.interpolate(np.zeros(n), FS)
        dsp._linear_map.cache_clear()
        tracemalloc.start()
        try:
            matrix = build(n, FS, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * matrix.nbytes

    def test_length_must_divide(self):
        with pytest.raises(DataError):
            dsp.decimation_matrix(2047, FS, 8)


class TestKernelToMatrix:
    def test_unit_impulse_is_identity(self):
        mat = dsp.kernel_to_matrix(np.array([1.0]), dim=256)
        assert np.array_equal(mat, np.eye(256))

    def test_moving_average(self):
        mat = dsp.kernel_to_matrix(np.array([0.5, 0.5, 0.0]), dim=8)
        x = np.arange(8.0)
        expected = np.convolve(x, [0.5, 0.5, 0.0])[1:9]
        assert np.allclose(mat @ x, expected, atol=1e-12)

    def test_matches_direct_convolution(self):
        # Direct convolution oracle over random kernels and vectors.
        rng = np.random.default_rng(7)
        for _ in range(10):
            klen = int(rng.integers(1, 32)) * 2 + 1
            kernel = rng.standard_normal(klen)
            mat = dsp.kernel_to_matrix(kernel, dim=256)
            half = (klen - 1) // 2
            for _ in range(10):
                x = rng.standard_normal(256)
                direct = np.convolve(x, kernel)[half: half + 256]
                assert np.max(np.abs(mat @ x - direct)) < 1e-9

    def test_banded_structure(self, filter_spec_dec):
        mat = dsp.kernel_to_matrix(filter_spec_dec, dim=256)
        half = (filter_spec_dec.kernel_len - 1) // 2
        n, m = np.indices(mat.shape)
        assert np.all(mat[np.abs(n - m) > half] == 0.0)

    def test_rows_carry_kernel(self, filter_spec_dec):
        mat = dsp.kernel_to_matrix(filter_spec_dec, dim=256)
        k = filter_spec_dec.kernel
        half = (k.size - 1) // 2
        assert np.allclose(mat[128, 128 - half: 128 + half + 1], k[::-1],
                           atol=1e-15)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(DataError):
            dsp.kernel_to_matrix(np.ones(2 * 16), dim=8)
        with pytest.raises(DataError):
            dsp.kernel_to_matrix(np.ones(17), dim=8)


class TestSnr:
    def make_shot(self, peak):
        return signals.friedlander(peak, 0.0025, FS, 2048, 600)

    def test_equal_peak_and_rms_is_zero_db(self):
        shot = self.make_shot(10.0)
        noise = np.full(2048, 10.0)
        assert dsp.snr_db(shot, noise) == pytest.approx(0.0, abs=1e-12)

    def test_plus_forty_db(self):
        shot = self.make_shot(100.0)
        assert dsp.snr_db(shot, np.full(100, 1.0)) == pytest.approx(40.0, abs=1e-12)

    def test_minus_twenty_db(self):
        shot = self.make_shot(1.0)
        assert dsp.snr_db(shot, np.full(100, 10.0)) == pytest.approx(-20.0, abs=1e-12)

    def test_silent_noise_rejected(self):
        shot = self.make_shot(1.0)
        with pytest.raises(NumericError):
            dsp.snr_db(shot, np.zeros(100))


def mix_one(shot, noise, offset, target_snr_db):
    """mix_stack on the one noise segment at offset: the noisy frame,
    the segment and its scale."""
    segment = noise.segment(offset, len(shot.waveform))
    noisy = segment[np.newaxis].copy()
    [scale] = dsp.mix_stack(noisy, [shot], [target_snr_db])
    return noisy[0], segment, scale


class TestMixAtSnr:
    def test_round_trip_identity(self, shot_a, noise_rec):
        for target in (-30.0, -20.0, -5.0, 0.0, 7.5, 30.0):
            noisy, segment, scale = mix_one(shot_a, noise_rec, 1000, target)
            assert dsp.snr_db(shot_a, scale * segment) == pytest.approx(target, abs=1e-6)
            # Independent recomputation from the mixed output itself.
            residual = noisy - shot_a.waveform.samples
            snr = 20 * math.log10(shot_a.peak_pa / signals.rms(residual))
            assert snr == pytest.approx(target, abs=1e-6)

    def test_vanishing_noise_limit(self, shot_a, noise_rec):
        noisy, _, _ = mix_one(shot_a, noise_rec, 0, 200.0)
        scale = np.max(np.abs(noisy - shot_a.waveform.samples))
        assert scale <= 1e-8 * shot_a.peak_pa

    def test_scaled_noise_rms(self, noise_rec):
        # Inverting the SNR definition by hand: peak 10 Pa at -20 dB
        # means the added noise must carry 100 Pa RMS.
        shot = signals.friedlander(10.0, 0.0025, FS, 2048, 600)
        noisy, _, _ = mix_one(shot, noise_rec, 512, -20.0)
        added = noisy - shot.waveform.samples
        assert signals.rms(added) == pytest.approx(100.0, abs=1e-4)

    def test_clean_frame_untouched(self, shot_a, noise_rec):
        before = shot_a.waveform.samples.copy()
        mix_one(shot_a, noise_rec, 123, 0.0)
        assert np.array_equal(shot_a.waveform.samples, before)

    def test_offset_out_of_range(self, shot_a, noise_rec):
        with pytest.raises(DataError):
            noise_rec.segment(len(noise_rec.waveform) - 100, len(shot_a.waveform))
        with pytest.raises(DataError):
            noise_rec.segment(-5, len(shot_a.waveform))

    def test_silent_segment_rejected(self, shot_a):
        samples = np.ones(8192)
        samples[2048:4096] = 0.0
        silent = signals.NoiseRecord(signals.Waveform(samples, FS), "zeros")
        with pytest.raises(NumericError):
            mix_one(shot_a, silent, 2048, 0.0)


class TestMixStack:
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 130])
    def test_scales_use_signals_rms(self, shot_a, noise_rec, n_rows):
        # Every row, in a stack of one row or of many, takes the scale
        # peak / (rms * 10^(snr/20)), with signals.rms of the row bit
        # for bit.
        rng = np.random.default_rng(n_rows)
        offsets = rng.integers(0, len(noise_rec.waveform) - 2048, size=n_rows)
        snrs = rng.uniform(-20.0, 10.0, size=n_rows).tolist()
        segments = np.stack([noise_rec.segment(int(o), 2048) for o in offsets])
        expected = [shot_a.peak_pa / (signals.rms(seg) * 10.0 ** (snr / 20.0))
                    for seg, snr in zip(segments, snrs)]
        noisy = segments.copy()
        scales = dsp.mix_stack(noisy, [shot_a] * n_rows, snrs)
        assert scales.tolist() == expected
        for row, seg, scale in zip(noisy, segments, expected):
            assert np.array_equal(row, shot_a.waveform.samples + scale * seg)

    def test_silent_row_rejected(self, shot_a, noise_rec):
        segments = np.stack([noise_rec.segment(0, 2048), np.zeros(2048)])
        with pytest.raises(NumericError, match="zero RMS"):
            dsp.mix_stack(segments, [shot_a, shot_a], [0.0, 0.0])

    def test_count_mismatch_rejected(self, shot_a, noise_rec):
        segments = np.stack([noise_rec.segment(0, 2048)] * 2)
        with pytest.raises(DataError):
            dsp.mix_stack(segments, [shot_a], [0.0, 0.0])
        with pytest.raises(DataError):
            dsp.mix_stack(segments, [shot_a, shot_a], [0.0])
