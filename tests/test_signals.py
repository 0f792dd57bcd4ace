import math
import struct
import tracemalloc

import numpy as np
import pytest

from mbdenoise import signals
from mbdenoise.errors import (
    ChannelCountError,
    DataError,
    EmptyDataError,
    MalformedWavError,
    UnsupportedWavError,
)

from conftest import wav_bytes


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            signals.Waveform(np.array([0.0, np.nan]), 1000)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            signals.Waveform(np.array([]), 1000)

    def test_rejects_bad_fs(self):
        with pytest.raises(DataError):
            signals.Waveform(np.zeros(4), 0)

    def test_rejects_out_of_range_annotation(self):
        with pytest.raises(DataError):
            signals.Waveform(np.zeros(4), 1000, [("MB", 4)])

    def test_rejects_unknown_label(self):
        with pytest.raises(DataError):
            signals.Waveform(np.zeros(4), 1000, [("XX", 0)])

    @pytest.mark.parametrize("given, kept", [
        (np.float32, np.float32), (np.float64, np.float64), (np.int16, np.float64),
        (np.float16, np.float64),
    ])
    def test_sample_dtype(self, given, kept):
        # float32 and float64 samples are kept; anything else widens.
        wave = signals.Waveform(np.arange(1, 5).astype(given), 1000)
        assert wave.samples.dtype == kept
        assert wave.samples.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestFriedlander:
    FS = 1000
    T_PLUS = 0.05  # 50 samples at 1 kHz, so the zero crossing is on-grid

    def make(self, peak=10.0, onset=100, n=2048):
        return signals.friedlander(peak, self.T_PLUS, self.FS, n, onset)

    def test_peak_at_onset_exact(self):
        shot = self.make(peak=10.0, onset=100)
        assert shot.waveform.samples[100] == 10.0

    def test_zero_crossing_at_t_plus(self):
        shot = self.make(onset=100)
        assert shot.waveform.samples[100 + 50] == 0.0

    def test_negative_lobe_at_two_t_plus(self):
        # Closed form evaluated independently: p(2*t_plus) = -peak * e^-2.
        peak = 10.0
        expected = -peak * math.exp(-2.0)
        shot = self.make(peak=peak, onset=100)
        assert shot.waveform.samples[100 + 100] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-1.353352832366127, rel=1e-12)

    def test_zero_before_onset(self):
        shot = self.make(onset=300)
        assert np.all(shot.waveform.samples[:300] == 0.0)

    def test_decays_below_one_percent_after_support(self):
        shot = self.make(peak=10.0, onset=100)
        tail = shot.waveform.samples[100 + int(8 * self.T_PLUS * self.FS):]
        assert np.all(np.abs(tail) < 0.1)

    def test_peak_pa_is_max_abs(self):
        shot = self.make(peak=3.5)
        assert shot.peak_pa == float(np.max(np.abs(shot.waveform.samples)))

    def test_single_mb_annotation(self):
        shot = self.make(onset=123)
        assert shot.waveform.annotations == [("MB", 123)]

    @pytest.mark.parametrize("kwargs", [
        dict(peak_pa=0.0), dict(peak_pa=-1.0), dict(t_plus=0.0),
        dict(t_plus=-0.1), dict(onset=2000), dict(onset=-1),
    ])
    def test_rejects_bad_args(self, kwargs):
        args = dict(peak_pa=10.0, t_plus=self.T_PLUS, fs=self.FS,
                    n_samples=2048, onset=100)
        args.update(kwargs)
        with pytest.raises(DataError):
            signals.friedlander(**args)


class TestRms:
    @staticmethod
    def widened(x):
        wide = x.astype(np.float64)
        return float(np.sqrt(np.mean(wide * wide)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_float64_mean_square(self, dtype):
        x = (3.0 * np.random.default_rng(5).standard_normal(100_003)).astype(dtype)
        assert signals.rms(x) == self.widened(x)

    def test_loaded_noise_record(self, tmp_path, noise_rec):
        path = tmp_path / "noise.wav"
        signals.save_noise(path, noise_rec)
        x = signals.load_noise(path).waveform.samples
        assert x.dtype == np.float32
        assert signals.rms(x) == self.widened(x)

    def test_one_float64_temporary(self):
        # Squaring straight into float64 holds one widened copy of the
        # samples, where widening and then squaring holds two.
        x = np.ones(2 ** 20, dtype=np.float32)
        tracemalloc.start()
        try:
            signals.rms(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.size * 8, peak


class TestVehicleNoise:
    def test_same_seed_bit_identical(self):
        a = signals.gen_vehicle_noise(42, 1.0, 32768, 1.0)
        b = signals.gen_vehicle_noise(42, 1.0, 32768, 1.0)
        assert np.array_equal(a.waveform.samples, b.waveform.samples)

    def test_different_seeds_differ(self):
        a = signals.gen_vehicle_noise(1, 1.0, 32768, 1.0)
        b = signals.gen_vehicle_noise(2, 1.0, 32768, 1.0)
        assert not np.array_equal(a.waveform.samples, b.waveform.samples)

    def test_rms_normalization(self):
        rec = signals.gen_vehicle_noise(3, 1.0, 32768, 1.0)
        assert signals.rms(rec.waveform.samples) == pytest.approx(1.0, rel=1e-6)

    def test_rms_target_scales(self):
        rec = signals.gen_vehicle_noise(3, 0.5, 32768, 7.25)
        assert signals.rms(rec.waveform.samples) == pytest.approx(7.25, rel=1e-6)

    def test_impulsive_exceedances(self):
        # seed 1, 10 s at 32768 Hz: count samples beyond 3x RMS.
        rec = signals.gen_vehicle_noise(1, 10.0, 32768, 1.0)
        x = rec.waveform.samples
        count = int(np.sum(np.abs(x) > 3.0 * signals.rms(x)))
        assert count >= 10

    def test_no_annotations(self):
        rec = signals.gen_vehicle_noise(5, 0.1, 32768, 1.0)
        assert rec.waveform.annotations == []

    def test_rejects_bad_args(self):
        with pytest.raises(DataError):
            signals.gen_vehicle_noise(0, 0.0, 32768, 1.0)
        with pytest.raises(DataError):
            signals.gen_vehicle_noise(0, 1.0, 32768, 0.0)


class TestWavRoundTrip:
    def test_float32_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500).astype(np.float32).astype(np.float64) * 20.0
        x = x.astype(np.float32).astype(np.float64)
        wave = signals.Waveform(x, 32768, [("MB", 17)])
        path = tmp_path / "a.wav"
        signals.save_wav(path, wave)
        loaded = signals.load_wav(path)
        assert loaded.samples.dtype == np.float32  # kept at its stored precision
        assert np.max(np.abs(loaded.samples - x)) == 0.0
        assert loaded.fs == 32768
        assert loaded.annotations == [("MB", 17)]

    def test_pcm16_quantization_bound(self, tmp_path):
        # Hand-build a mono PCM16 file: code k reads as k/32767, so full
        # scale reads as exactly 1.0 and one code step is 1/32767.
        codes = [32767, 0, 1, -1, 12345, -20000, -32767, -32768]
        payload = struct.pack(f"<{len(codes)}h", *codes)
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
        header += b"data" + struct.pack("<I", len(payload))
        path = tmp_path / "b.wav"
        path.write_bytes(header + payload)
        loaded = signals.load_wav(path)
        assert loaded.fs == 8000
        assert loaded.samples[0] == 1.0
        assert loaded.samples.dtype == np.float64  # k/32767 is not float32-exact
        assert loaded.samples.tolist() == [k / 32767 for k in codes]

    def test_multichannel_rejected(self, tmp_path):
        # Hand-build a 2-channel PCM16 file.
        payload = struct.pack("<4h", 0, 0, 100, -100)
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
        header += b"data" + struct.pack("<I", len(payload))
        path = tmp_path / "stereo.wav"
        path.write_bytes(header + payload)
        with pytest.raises(ChannelCountError):
            signals.load_wav(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"NOTRIFFDATA" + b"\x00" * 64)
        with pytest.raises(MalformedWavError):
            signals.load_wav(path)

    def test_zero_length_data_rejected(self, tmp_path):
        header = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
        header += b"data" + struct.pack("<I", 0)
        path = tmp_path / "empty.wav"
        path.write_bytes(header)
        with pytest.raises(EmptyDataError):
            signals.load_wav(path)

    def test_unsupported_format_rejected(self, tmp_path):
        payload = struct.pack("<2i", 1, 2)  # 32-bit PCM, unsupported
        header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 32000, 4, 32)
        header += b"data" + struct.pack("<I", len(payload))
        path = tmp_path / "pcm32.wav"
        path.write_bytes(header + payload)
        with pytest.raises(UnsupportedWavError):
            signals.load_wav(path)

    @pytest.mark.parametrize("fmt_tag, bits, payload", [
        (3, 32, bytes(5)),  # float32: one sample and one byte
        (1, 16, bytes(3)),  # PCM16: one sample and one byte
    ], ids=["float32", "pcm16"])
    def test_partial_sample_rejected(self, tmp_path, fmt_tag, bits, payload):
        path = tmp_path / "partial.wav"
        path.write_bytes(wav_bytes(fmt_tag, bits, payload))
        with pytest.raises(MalformedWavError,
                           match=f"{len(payload)}-byte data chunk is not a whole number "
                                 f"of {bits // 8}-byte samples"):
            signals.load_wav(path)

    def test_shot_round_trip(self, tmp_path, shot_a):
        path = tmp_path / "shot.wav"
        signals.save_shot(path, shot_a)
        loaded = signals.load_shot(path)
        assert loaded.shot_id == shot_a.shot_id
        assert loaded.caliber_class == shot_a.caliber_class
        assert loaded.onset == shot_a.onset
        assert loaded.peak_pa == pytest.approx(shot_a.peak_pa, rel=1e-6)

    def test_noise_round_trip(self, tmp_path, noise_rec):
        path = tmp_path / "noise.wav"
        signals.save_noise(path, noise_rec)
        loaded = signals.load_noise(path)
        assert loaded.noise_id == noise_rec.noise_id
        assert loaded.rms_pa == pytest.approx(noise_rec.rms_pa, rel=1e-6)

    @pytest.mark.parametrize("bad", ["annotation=MB:12x", "annotation=MB", "fs=32k"])
    def test_malformed_sidecar_line_rejected(self, tmp_path, bad):
        path = tmp_path / "shot.wav"
        signals.save_wav(path, signals.Waveform(np.zeros(64), 32768, [("MB", 12)]))
        key = bad.partition("=")[0]
        meta = signals.sidecar_path(path)
        lines = [bad if ln.startswith(key + "=") else ln
                 for ln in meta.read_text().splitlines()]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="malformed line") as info:
            signals.load_wav(path)
        assert str(meta) in str(info.value) and repr(bad) in str(info.value)

    def test_non_utf8_sidecar_rejected(self, tmp_path):
        path = tmp_path / "shot.wav"
        signals.save_wav(path, signals.Waveform(np.zeros(64), 32768, [("MB", 12)]))
        meta = signals.sidecar_path(path)
        meta.write_bytes(meta.read_bytes() + b"note=\xff\n")
        with pytest.raises(DataError, match="is not UTF-8 text") as info:
            signals.load_wav(path)
        assert str(info.value).startswith(f"{meta} ")

    def test_record_sidecar_parsed_once(self, tmp_path, shot_a, noise_rec, monkeypatch):
        signals.save_shot(tmp_path / "shot.wav", shot_a)
        signals.save_noise(tmp_path / "noise.wav", noise_rec)
        parsed = []
        parse = signals.load_sidecar
        monkeypatch.setattr(signals, "load_sidecar",
                            lambda path: parsed.append(path) or parse(path))
        signals.load_shot(tmp_path / "shot.wav")
        signals.load_noise(tmp_path / "noise.wav")
        assert parsed == [tmp_path / "shot.wav", tmp_path / "noise.wav"]

    @pytest.mark.parametrize("kind, dropped", [
        ("shot", "shot_id"), ("shot", "caliber_class"), ("noise", "noise_id")])
    def test_record_sidecar_lacking_id_rejected(self, tmp_path, shot_a, noise_rec,
                                                kind, dropped):
        path = tmp_path / f"{kind}.wav"
        if kind == "shot":
            signals.save_shot(path, shot_a)
        else:
            signals.save_noise(path, noise_rec)
        meta = signals.sidecar_path(path)
        meta.write_text("".join(ln + "\n" for ln in meta.read_text().splitlines()
                                if not ln.startswith(dropped + "=")))
        load = signals.load_shot if kind == "shot" else signals.load_noise
        with pytest.raises(DataError, match="sidecar lacks"):
            load(path)


class TestRecordInvariants:
    def test_shot_peak_measured_when_omitted(self, shot_a):
        shot = signals.ShotRecord(shot_a.waveform, "A", "x")
        assert shot.peak_pa == shot_a.peak_pa

    def test_noise_rejects_annotations(self, shot_a):
        with pytest.raises(DataError):
            signals.NoiseRecord(shot_a.waveform, "x")

    def test_shot_needs_one_mb(self, noise_rec):
        with pytest.raises(DataError):
            signals.ShotRecord(noise_rec.waveform, "A", "x")
