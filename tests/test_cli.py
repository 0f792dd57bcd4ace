import csv
import time

import numpy as np
import pytest

from mbdenoise import cli, config, net, signals
from mbdenoise.errors import ConfigError, DataError

SMOKE = dict(
    n_shots_a=12, n_shots_b=4, noise_duration=4.0,
    snr_grid=(5.0, 0.0, -5.0), phase_thresholds_db=(0.0, -5.0),
    freeze_iters=4, phase_iters=10, rotation=0,
)


def smoke_cfg(**extra) -> config.RunConfig:
    params = dict(SMOKE)
    params.update(extra)
    return config.RunConfig(**params).validate()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> evaluate once for the whole module."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = smoke_cfg()
    cli.cmd_gen_data(cfg, root / "corpus")
    start = time.perf_counter()
    cli.cmd_train(cfg, root / "corpus", root / "train")
    train_seconds = time.perf_counter() - start
    cli.cmd_evaluate(cfg, root / "corpus", root / "train", root / "eval")
    return cfg, root, train_seconds


def read_csv(path):
    rows = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    return header, list(reader)


class TestConfig:
    def test_defaults_valid(self):
        config.RunConfig().validate()

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hidden = 32\nsnr_grid = 5,0  # trailing comment\n")
        cfg = config.load_config(path, ["seed=9", "lr=0.01"])
        assert cfg.hidden == 32
        assert cfg.snr_grid == (5.0, 0.0)
        assert cfg.seed == 9 and cfg.lr == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ConfigError):
            config.load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("override", [
        "frame_len=1001", "hidden=0", "rotation=6", "seed=-1",
        "filter_cutoff_mode=banana", "freeze_iters=500", "aa_kernel_len=63",
        "decim_factor=0", "examples_per_cell=0", "sections_per_noise=0",
        "lr=-1", "batch_size=-3",
    ])
    def test_validation_failures(self, override):
        with pytest.raises(ConfigError):
            config.load_config(None, [override])

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = smoke_cfg(hidden=48)
        path = tmp_path / "resolved.cfg"
        path.write_text(cfg.resolved_text())
        again = config.load_config(path)
        assert again == cfg

    def test_cutoff_modes(self):
        cfg = config.RunConfig().validate()
        assert cfg.filter_cutoff_hz == pytest.approx(32768 / 41)
        cfg = config.load_config(None, ["filter_cutoff_mode=decimated"])
        assert cfg.filter_cutoff_hz == pytest.approx(4096 / 41)


class TestGenData:
    def test_corpus_contents(self, pipeline):
        cfg, root, _ = pipeline
        corpus = cli.load_corpus(root / "corpus")
        assert len(corpus.shots_a) == cfg.n_shots_a
        assert len(corpus.shots_b) == cfg.n_shots_b
        assert len(corpus.noises) == 3
        assert {s.caliber_class for s in corpus.shots_a} == {"A"}
        assert {s.caliber_class for s in corpus.shots_b} == {"B"}

    def test_manifest_covers_every_file(self, pipeline):
        _, root, _ = pipeline
        manifest = (root / "corpus" / "manifest.txt").read_text()
        entries = [ln for ln in manifest.splitlines()
                   if ln and not ln.startswith("#")]
        # wav + sidecar for every shot and noise
        assert len(entries) == 2 * (12 + 4 + 3)

    def test_regen_identical(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        cli.cmd_gen_data(cfg, tmp_path / "again")
        a = (root / "corpus" / "manifest.txt").read_text()
        b = (tmp_path / "again" / "manifest.txt").read_text()
        assert a == b

    def test_tampered_file_detected(self, pipeline, tmp_path):
        cfg, _, _ = pipeline
        cli.cmd_gen_data(cfg, tmp_path / "t")
        victim = next((tmp_path / "t" / "shots_a").glob("*.wav"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            cli.load_corpus(tmp_path / "t")

    def test_caliber_families_differ(self, pipeline):
        _, root, _ = pipeline
        corpus = cli.load_corpus(root / "corpus")
        peak_a = np.mean([s.peak_pa for s in corpus.shots_a])
        peak_b = np.mean([s.peak_pa for s in corpus.shots_b])
        assert peak_b < peak_a


class TestTrain:
    def test_outputs_exist(self, pipeline):
        _, root, _ = pipeline
        assert (root / "train" / "rotation_0" / "checkpoint.bin").exists()
        assert (root / "train" / "rotation_0" / "convergence.csv").exists()

    def test_smoke_config_fast(self, pipeline):
        _, _, train_seconds = pipeline
        assert train_seconds < 60.0

    def test_convergence_schema(self, pipeline):
        _, root, _ = pipeline
        header, rows = read_csv(root / "train" / "rotation_0" / "convergence.csv")
        assert header == ["phase", "iter", "train_mse", "val_mse",
                          "f_frozen", "n_active"]
        assert len(rows) == 2 * 10  # two phases x ten iterations

    def test_checkpoint_loads(self, pipeline):
        cfg, root, _ = pipeline
        model = net.load_checkpoint(root / "train" / "rotation_0" / "checkpoint.bin")
        assert model.hidden == cfg.hidden
        assert model.fs == cfg.fs
        assert model.input_scale > 0

    def test_config_embedded_in_log(self, pipeline):
        _, root, _ = pipeline
        text = (root / "train" / "rotation_0" / "convergence.csv").read_text()
        assert "# n_shots_a=12" in text

    def test_all_rotations_when_requested(self, tmp_path):
        cfg = smoke_cfg(rotation=-1, n_shots_a=6, n_shots_b=2,
                        phase_iters=4, freeze_iters=2)
        cli.cmd_gen_data(cfg, tmp_path / "c")
        cli.cmd_train(cfg, tmp_path / "c", tmp_path / "t")
        for r in range(6):
            assert (tmp_path / "t" / f"rotation_{r}" / "checkpoint.bin").exists()


class TestEvaluate:
    def test_score_schema_complete(self, pipeline):
        cfg, root, _ = pipeline
        for name in ("scores_validation.csv", "scores_test.csv"):
            header, rows = read_csv(root / "eval" / name)
            assert header == ["snr_db", "condition", "p", "delta_p", "n"]
            cells = {(r[0], r[1]) for r in rows}
            for snr in cfg.snr_grid:
                for condition in cli.CONDITIONS:
                    assert (f"{snr:.12g}", condition) in cells

    def test_combined_dominates(self, pipeline):
        _, root, _ = pipeline
        for name in ("scores_validation.csv", "scores_test.csv"):
            _, rows = read_csv(root / "eval" / name)
            p = {(r[0], r[1]): float(r[2]) for r in rows}
            bins = {r[0] for r in rows}
            for snr in bins:
                assert p[(snr, "combined")] >= max(p[(snr, "noisy")],
                                                   p[(snr, "denoised")])

    def test_margin_formula_in_rows(self, pipeline):
        _, root, _ = pipeline
        _, rows = read_csv(root / "eval" / "scores_validation.csv")
        for r in rows:
            p, dp, n = float(r[2]), float(r[3]), int(r[4])
            assert dp == pytest.approx(np.sqrt(p * (1 - p) / n), abs=1e-12)

    def test_missing_checkpoint_rejected(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        with pytest.raises(DataError):
            cli.cmd_evaluate(cfg, root / "corpus", tmp_path / "nothing",
                             tmp_path / "out")

    def test_fs_mismatch_rejected(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        model = net.load_checkpoint(root / "train" / "rotation_0" / "checkpoint.bin")
        model.fs = 48000
        bad_dir = tmp_path / "badckpt" / "rotation_0"
        bad_dir.mkdir(parents=True)
        net.save_checkpoint(bad_dir / "checkpoint.bin", model)
        with pytest.raises(DataError):
            cli.cmd_evaluate(cfg, root / "corpus", tmp_path / "badckpt",
                             tmp_path / "out2")


class TestDenoiseCmd:
    def test_round_trip_length_and_latency(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        out = tmp_path / "den.wav"
        stats = cli.cmd_denoise(cfg, root / "train" / "rotation_0" / "checkpoint.bin",
                                src, out)
        original = signals.load_wav(src)
        denoised = signals.load_wav(out)
        assert len(denoised) == len(original)
        assert stats["mean_latency_s"] < stats["frame_budget_s"]

    def test_multi_frame_input(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        x = np.zeros(5000)  # 2.44 frames, exercises padding and trimming
        wav_in = tmp_path / "in.wav"
        signals.save_wav(wav_in, signals.Waveform(x, cfg.fs))
        out = tmp_path / "out.wav"
        cli.cmd_denoise(cfg, root / "train" / "rotation_0" / "checkpoint.bin",
                        wav_in, out)
        denoised = signals.load_wav(out)
        assert len(denoised) == 5000
        assert np.all(np.isfinite(denoised.samples))

    def test_fs_mismatch(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        wav_in = tmp_path / "wrong.wav"
        signals.save_wav(wav_in, signals.Waveform(np.zeros(2048), 44100))
        with pytest.raises(DataError):
            cli.cmd_denoise(cfg, root / "train" / "rotation_0" / "checkpoint.bin",
                            wav_in, tmp_path / "o.wav")


class TestReport:
    def test_long_format(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        cli.cmd_report(cfg, root / "eval", root / "train", tmp_path / "rep")
        header, rows = read_csv(tmp_path / "rep" / "detection_rates.csv")
        assert header == ["dataset", "snr_db", "condition", "p", "delta_p", "n"]
        assert {r[0] for r in rows} == {"validation", "test"}
        header, rows = read_csv(tmp_path / "rep" / "convergence_curves.csv")
        assert header[0] == "rotation"
        assert rows


class TestMainEntry:
    def test_exit_codes(self, pipeline, tmp_path, monkeypatch):
        cfg, root, _ = pipeline
        assert cli.main(["gen-data", "--set", "n_shots_a=1", "--out", "x"]) == 1
        assert cli.main(["train", "--corpus", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "t")]) == 2
        from mbdenoise.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("loss diverged")

        monkeypatch.setattr(cli, "cmd_train", boom)
        assert cli.main(["train", "--corpus", str(root / "corpus"),
                         "--out", str(tmp_path / "t2")]) == 3
        monkeypatch.undo()
        cfg_file = tmp_path / "smoke.cfg"
        cfg_file.write_text(cfg.resolved_text())
        out = tmp_path / "cli_den.wav"
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main([
            "denoise", "--config", str(cfg_file),
            "--checkpoint", str(root / "train" / "rotation_0" / "checkpoint.bin"),
            "--in", str(src), "--out", str(out),
        ])
        assert code == 0 and out.exists()


class TestDeterminism:
    def test_end_to_end_byte_identical(self, tmp_path):
        cfg = smoke_cfg(n_shots_a=8, n_shots_b=2, phase_iters=6, freeze_iters=2)
        outputs = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            cli.cmd_gen_data(cfg, base / "corpus")
            cli.cmd_train(cfg, base / "corpus", base / "train")
            cli.cmd_evaluate(cfg, base / "corpus", base / "train", base / "eval")
            outputs.append({
                "ckpt": (base / "train" / "rotation_0" / "checkpoint.bin").read_bytes(),
                "log": (base / "train" / "rotation_0" / "convergence.csv").read_bytes(),
                "val": (base / "eval" / "scores_validation.csv").read_bytes(),
                "test": (base / "eval" / "scores_test.csv").read_bytes(),
            })
        assert outputs[0] == outputs[1]
