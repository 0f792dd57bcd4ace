import math

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


class TestMixAtSnr:
    def test_round_trip_identity(self, shot_a, noise_rec):
        for target in (-30.0, -20.0, -5.0, 0.0, 7.5, 30.0):
            mix = dsp.mix_at_snr(shot_a, noise_rec, 1000, target)
            assert mix.achieved_snr_db == pytest.approx(target, abs=1e-6)
            # Independent recomputation from the mixed output itself.
            residual = mix.noisy.samples - mix.clean.samples
            snr = 20 * math.log10(shot_a.peak_pa / signals.rms(residual))
            assert snr == pytest.approx(target, abs=1e-6)

    def test_vanishing_noise_limit(self, shot_a, noise_rec):
        mix = dsp.mix_at_snr(shot_a, noise_rec, 0, 200.0)
        scale = np.max(np.abs(mix.noisy.samples - mix.clean.samples))
        assert scale <= 1e-8 * shot_a.peak_pa

    def test_scaled_noise_rms(self, noise_rec):
        # Inverting the SNR definition by hand: peak 10 Pa at -20 dB
        # means the added noise must carry 100 Pa RMS.
        shot = signals.friedlander(10.0, 0.0025, FS, 2048, 600)
        mix = dsp.mix_at_snr(shot, noise_rec, 512, -20.0)
        added = mix.noisy.samples - mix.clean.samples
        assert signals.rms(added) == pytest.approx(100.0, abs=1e-4)

    def test_clean_frame_untouched(self, shot_a, noise_rec):
        mix = dsp.mix_at_snr(shot_a, noise_rec, 123, 0.0)
        assert np.array_equal(mix.clean.samples, shot_a.waveform.samples)

    def test_annotation_preserved(self, shot_a, noise_rec):
        mix = dsp.mix_at_snr(shot_a, noise_rec, 123, 0.0)
        assert mix.noisy.annotations == shot_a.waveform.annotations

    def test_offset_out_of_range(self, shot_a, noise_rec):
        with pytest.raises(DataError):
            dsp.mix_at_snr(shot_a, noise_rec, len(noise_rec.waveform) - 100, 0.0)
        with pytest.raises(DataError):
            dsp.mix_at_snr(shot_a, noise_rec, -5, 0.0)

    def test_silent_segment_rejected(self, shot_a):
        samples = np.ones(8192)
        samples[2048:4096] = 0.0
        silent = signals.NoiseRecord.from_waveform(
            signals.Waveform(samples, FS), "zeros")
        with pytest.raises(NumericError):
            dsp.mix_at_snr(shot_a, silent, 2048, 0.0)
