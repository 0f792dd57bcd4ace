import csv
import gc
import hashlib
import re
import shutil
import struct
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from pathlib import Path

from mbdenoise import cli, config, curriculum, detect, net, signals
from mbdenoise.errors import ConfigError, DataError

from conftest import empty_layer_net, rewrite_header, serial_gen_data, wav_bytes

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


@pytest.fixture(scope="module")
def odd_corpora(tmp_path_factory):
    """Small corpora generated at 16384 Hz, with 4096-sample shots, and
    with 2 s noise records at the default fs and frame_len."""
    root = tmp_path_factory.mktemp("odd")
    for name, override in (("fs16k", "fs=16384"), ("long", "frame_len=4096"),
                           ("noise2s", "noise_duration=2")):
        cli.cmd_gen_data(config.load_config(None, [
            "n_shots_a=2", "n_shots_b=1", "noise_duration=1.0", override]), root / name)
    return root


def read_csv(path):
    rows = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    return header, list(reader)


def rewrite_sidecar(corpus: Path, rel: str, old: str, new: str) -> None:
    """Replace text in a corpus record's sidecar and re-hash it in the
    manifest, so the corpus still loads."""
    meta = corpus / (rel + ".meta")
    manifest = corpus / "manifest.txt"
    before = hashlib.sha256(meta.read_bytes()).hexdigest()
    meta.write_text(meta.read_text().replace(old, new))
    after = hashlib.sha256(meta.read_bytes()).hexdigest()
    manifest.write_text(manifest.read_text().replace(before, after))


class TestConfig:
    def test_defaults_valid(self):
        config.RunConfig().validate()

    def test_schedule_defaults(self):
        cfg = config.RunConfig()
        assert cfg.phase_thresholds_db == (0.0, -5.0, -10.0, -15.0, -20.0)
        assert cfg.freeze_iters == 250 and cfg.phase_iters == 500

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

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=f"config file {tmp_path} cannot be read"):
            config.load_config(tmp_path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("hidden = 32\nseed 3  # no equals sign\n")
        with pytest.raises(ConfigError,
                           match="malformed config line 'seed 3  # no equals sign'"):
            config.load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"hidden = 32  # \xff\n")
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            config.load_config(path)

    def test_override_without_equals_exits_1(self, tmp_path, capsys):
        assert cli.main(["gen-data", "--set", "seed3", "--out", str(tmp_path / "c")]) == 1
        assert "override 'seed3' is not key=value" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("override", [
        "frame_len=1001", "hidden=0", "rotation=6", "seed=-1",
        "filter_cutoff_mode=banana", "freeze_iters=500", "aa_kernel_len=63",
        "decim_factor=0", "examples_per_cell=0", "sections_per_noise=0",
        "lr=-1", "batch_size=-3", "kernel_len=4",
        "snr_grid=", "phase_thresholds_db=", "snr_grid=20,0",
        "lta_ms=100", "warmup_ms=70", "threshold=-1", "phase_thresholds_db=12,0",
        "phase_thresholds_db=0,0", "phase_thresholds_db=-5,0", "phase_iters=250",
        "sta_ms=-5", "lta_ms=0", "refractory_ms=-20", "warmup_ms=-1",
        "burst_rate=-1", "n_shots_b=-4", "shot_peak_pa=-3", "noise_rms_pa=0",
        "shot_t_plus=0", "peak_jitter=1.5", "t_plus_jitter=1.2", "f_lr_scale=-1",
        "noise_duration=0.05", "sections_per_noise=257",
        # Removed keys, at the one value they were ever set to.
        "sections_per_noise=1", "examples_per_cell=1",
        "decim_factor=1", "decim_factor=32", "decim_factor=64",
        "kernel_len=513", "kernel_len=1023",
    ])
    def test_validation_failures(self, override):
        with pytest.raises(ConfigError):
            config.load_config(None, [override])

    @pytest.mark.parametrize("override", ["decim_factor=16", "kernel_len=511"])
    def test_signal_chain_limits_accepted(self, override):
        config.load_config(None, [override])

    def test_noise_record_at_least_a_frame(self):
        # At 32768 Hz, 0.0625 s is a 2048-sample record, which holds one
        # frame; 0.0624 s rounds to 2045 samples, which does not.
        config.load_config(None, ["noise_duration=0.0625"])
        with pytest.raises(ConfigError, match="2045-sample noise records, shorter than "
                                              "the 2048-sample frame"):
            config.load_config(None, ["noise_duration=0.0624"])

    def test_blast_support_leaves_onset_room(self):
        # At 0.004 s a caliber B blast at full jitter spans
        # ceil(8 * 0.004 * 1.6 * 1.2 * 32768) = 2014 samples, past the
        # 1536 that end a quarter frame after the earliest onset; a
        # caliber A blast spans 1259.
        with pytest.raises(ConfigError, match="blasts of up to 2014 samples"):
            config.load_config(None, ["shot_t_plus=0.004"])
        config.load_config(None, ["shot_t_plus=0.004", "n_shots_b=0"])

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = smoke_cfg(hidden=48)
        path = tmp_path / "resolved.cfg"
        path.write_text(cfg.resolved_text())
        again = config.load_config(path)
        assert again == cfg

    def test_cutoff_modes(self):
        # One cutoff, the full sampling rate over 41, and no key to change it.
        assert config.RunConfig().validate().filter_cutoff_hz == 32768 / 41
        with pytest.raises(ConfigError, match="unknown config key"):
            config.load_config(None, ["filter_cutoff_mode=decimated"])


class TestGenData:
    def test_corpus_contents(self, pipeline):
        cfg, root, _ = pipeline
        split = cli.load_corpus(cfg, root / "corpus")
        shots_a = [shot for half in split.shot_subsets for shot in half]
        assert len(shots_a) == cfg.n_shots_a
        assert len(split.held_out) == cfg.n_shots_b
        assert len(split.noises) == 3
        assert {s.caliber_class for s in shots_a} == {"A"}
        assert {s.caliber_class for s in split.held_out} == {"B"}

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

    def test_matches_serial_recipe(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        reference = serial_gen_data(cfg, tmp_path / "serial")
        files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
        assert sorted(p.relative_to(root / "corpus")
                      for p in (root / "corpus").rglob("*") if p.is_file()) == files
        for rel in files:
            assert (root / "corpus" / rel).read_bytes() == (reference / rel).read_bytes(), rel
        # load_corpus checks each manifest checksum, made from the bytes
        # gen-data wrote, against the file on disk.
        corpus = cli.load_corpus(cfg, root / "corpus")
        assert [n.noise_id for n in corpus.noises] == ["N0", "N1", "N2"]

    def test_tampered_file_detected(self, pipeline, tmp_path):
        cfg, _, _ = pipeline
        cli.cmd_gen_data(cfg, tmp_path / "t")
        victim = next((tmp_path / "t" / "shots_a").glob("*.wav"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            cli.load_corpus(cfg, tmp_path / "t")

    def test_records_that_disagree_rejected(self, pipeline, odd_corpora, tmp_path):
        cfg, root, _ = pipeline
        corpus = tmp_path / "mixed"
        shutil.copytree(root / "corpus", corpus)
        victim = sorted((corpus / "shots_a").glob("*.wav"))[0]
        stranger = sorted((odd_corpora / "fs16k" / "shots_a").glob("*.wav"))[0]
        manifest = (corpus / "manifest.txt").read_text()
        for suffix in ("", ".meta"):
            old = hashlib.sha256(Path(str(victim) + suffix).read_bytes()).hexdigest()
            shutil.copy(str(stranger) + suffix, str(victim) + suffix)
            new = hashlib.sha256(Path(str(victim) + suffix).read_bytes()).hexdigest()
            manifest = manifest.replace(old, new)
        (corpus / "manifest.txt").write_text(manifest)
        with pytest.raises(DataError, match=re.escape(f"{victim} has fs 16384 Hz")):
            cli.load_corpus(cfg, corpus)

    def test_noise_records_that_disagree_rejected(self, pipeline, odd_corpora, tmp_path):
        cfg, root, _ = pipeline
        corpus = tmp_path / "mixed"
        shutil.copytree(root / "corpus", corpus)
        manifest = (corpus / "manifest.txt").read_text()
        for suffix in ("", ".meta"):
            victim = corpus / "noise" / f"N0.wav{suffix}"
            old = hashlib.sha256(victim.read_bytes()).hexdigest()
            shutil.copy(odd_corpora / "noise2s" / "noise" / f"N0.wav{suffix}", victim)
            manifest = manifest.replace(old, hashlib.sha256(victim.read_bytes()).hexdigest())
        (corpus / "manifest.txt").write_text(manifest)
        stranger = corpus / "noise" / "N0.wav"
        with pytest.raises(DataError,
                           match=re.escape(f"{stranger} has fs 32768 Hz and 65536 samples")):
            cli.load_corpus(cfg, corpus)

    def test_each_listed_file_read_once(self, pipeline, monkeypatch):
        cfg, root, _ = pipeline
        reads: list[Path] = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes",
                            lambda self: reads.append(self) or read_bytes(self))
        cli.load_corpus(cfg, root / "corpus")
        listed = [root / "corpus" / ln.split()[1]
                  for ln in (root / "corpus" / "manifest.txt").read_text().splitlines()
                  if ln and not ln.startswith("#")]
        assert sorted(reads) == sorted(listed)

    def test_unlisted_sidecar_read_from_disk(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        manifest = corpus / "manifest.txt"
        manifest.write_text("".join(ln + "\n" for ln in manifest.read_text().splitlines()
                                    if ".meta " not in ln))
        full, partial = cli.load_corpus(cfg, root / "corpus"), cli.load_corpus(cfg, corpus)

        def shots(split):
            return [(s.shot_id, s.onset, s.caliber_class) for s in
                    (*split.shot_subsets[0], *split.shot_subsets[1], *split.held_out)]

        assert shots(partial) == shots(full)
        assert [n.noise_id for n in partial.noises] == ["N0", "N1", "N2"]

    def test_tampered_sidecar_detected(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        victim = signals.sidecar_path(next((corpus / "shots_a").glob("*.wav")))
        victim.write_text(victim.read_text().replace("caliber_class=A", "caliber_class=B"))
        rel = victim.relative_to(corpus).as_posix()
        with pytest.raises(DataError, match=f"checksum mismatch for {rel}"):
            cli.load_corpus(cfg, corpus)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 7])
    def test_test_cell_offsets_as_list_form(self, pipeline, seed):
        cfg, root, _ = pipeline
        split = cli.load_corpus(cfg, root / "corpus")
        record = split.noises[curriculum.rotation_combos(2)[1].noise_subset]
        cells = curriculum.held_out_cells(split, 2, list(cfg.snr_grid), seed)
        assert all(noise is record for _, noise, _, _ in cells)
        assert [shot for shot, _, _, _ in cells[::len(cfg.snr_grid)]] == list(split.held_out)
        expected = []
        for i in range(len(split.held_out)):
            for snr_idx in range(len(cfg.snr_grid)):
                rng = np.random.default_rng([seed, 5, 2, i, snr_idx])
                expected.append(
                    int(rng.integers(0, len(record.waveform) - cfg.frame_len + 1)))
        assert [offset for _, _, offset, _ in cells] == expected

    def test_caliber_families_differ(self, pipeline):
        cfg, root, _ = pipeline
        split = cli.load_corpus(cfg, root / "corpus")
        peak_a = np.mean([s.peak_pa for half in split.shot_subsets for s in half])
        peak_b = np.mean([s.peak_pa for s in split.held_out])
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

    def test_corpus_released_before_first_step(self, pipeline, monkeypatch):
        # By the first optimizer step no record _train_rotation loaded,
        # nor its split, is alive: the loop holds only the network's frames.
        cfg, root, _ = pipeline
        refs = []
        load_corpus = cli.load_corpus

        def tracked(*args):
            split = load_corpus(*args)
            refs.extend(weakref.ref(record) for record in
                        (*split.shot_subsets[0], *split.shot_subsets[1], *split.held_out,
                         *split.noises))
            refs.append(weakref.ref(split))
            return split

        steps = []

        def on_iteration(phase, it, model):
            if not steps:
                gc.collect()
                assert refs and all(ref() is None for ref in refs)
            steps.append((phase, it))

        monkeypatch.setattr(cli, "load_corpus", tracked)
        cli._train_rotation(cfg, root / "corpus", 0, on_iteration)
        assert len(refs) == cfg.n_shots_a + cfg.n_shots_b + 3 + 1
        assert steps[0] == (0, 0)

    def test_each_rotation_as_when_trained_alone(self, tmp_path):
        # Criterion 12's config: every rotation reads the corpus anew, so
        # rotations 0 and 5 of an all-rotation run give the checkpoint
        # and convergence rows of those rotations trained alone; the
        # CSVs' config headers differ only in the rotation line.
        small = dict(n_shots_a=10, n_shots_b=3, noise_duration=4.0,
                     snr_grid=(5.0, 0.0, -5.0), phase_thresholds_db=(0.0, -5.0),
                     freeze_iters=4, phase_iters=10)
        every = config.RunConfig(**small, rotation=-1).validate()
        cli.cmd_gen_data(every, tmp_path / "corpus")
        cli.cmd_train(every, tmp_path / "corpus", tmp_path / "every")
        for rotation in (0, 5):
            cfg = config.RunConfig(**small, rotation=rotation).validate()
            cli.cmd_train(cfg, tmp_path / "corpus", tmp_path / f"alone{rotation}")
            together = tmp_path / "every" / f"rotation_{rotation}"
            alone = tmp_path / f"alone{rotation}" / f"rotation_{rotation}"
            assert ((together / "checkpoint.bin").read_bytes()
                    == (alone / "checkpoint.bin").read_bytes())
            log = (together / "convergence.csv").read_bytes()
            assert b"# rotation=-1\n" in log
            assert (log.replace(b"# rotation=-1\n", f"# rotation={rotation}\n".encode())
                    == (alone / "convergence.csv").read_bytes())

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

    def test_no_held_out_caliber_shots(self, pipeline, tmp_path):
        _, root, _ = pipeline
        cfg = smoke_cfg(n_shots_b=0)
        cli.cmd_gen_data(cfg, tmp_path / "corpus")
        cli.cmd_evaluate(cfg, tmp_path / "corpus", root / "train", tmp_path / "eval")
        assert read_csv(tmp_path / "eval" / "scores_test.csv")[1] == []
        assert (read_csv(tmp_path / "eval" / "scores_validation.csv")
                == read_csv(root / "eval" / "scores_validation.csv"))

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


def no_flags():
    """An empty flag table for cli._score_cells."""
    return {condition: {} for condition in cli.CONDITIONS}


def scoring_inputs(cfg, root, n):
    """n cells of the pipeline corpus (its cells of every combination,
    repeated end to end) and rotation 0's inference plan."""
    split = cli.load_corpus(cfg, root / "corpus")
    cells = curriculum.combo_cells(split, curriculum.COMBOS, list(cfg.snr_grid), cfg.seed)
    cells = (cells * (n // len(cells) + 1))[:n]
    model = net.load_checkpoint(root / "train" / "rotation_0" / "checkpoint.bin")
    return cells, net.compile_plan(model)


class TestScoreCells:
    @pytest.mark.parametrize("n", [1, 7, 64, 65, 71, 72, 129])
    def test_blocks_score_like_one_stack(self, pipeline, n):
        # Flags from block scoring equal those of the whole cell list
        # mixed at once, denoised in one call and scanned in one call.
        cfg, root, _ = pipeline
        cells, plan = scoring_inputs(cfg, root, n)
        det_cfg, tol = cfg.detector(), detect.default_tolerance(cfg.fs)
        flags = no_flags()
        cli._score_cells(plan, cells, flags, det_cfg, tol, cfg.fs)
        noisy = curriculum.mix_cells(cells)
        onsets = [cell[0].onset for cell in cells]
        rows = {
            "clean": np.stack([cell[0].waveform.samples for cell in cells]),
            "noisy": noisy,
            "denoised": plan(noisy),
        }
        outcomes = {condition: detect.onsets_detected(frames, onsets, tol, cfg.fs, det_cfg)
                    for condition, frames in rows.items()}
        outcomes["combined"] = [a or b for a, b in zip(outcomes["noisy"],
                                                       outcomes["denoised"])]
        expected = no_flags()
        for condition, outcome in outcomes.items():
            for (_, _, _, snr), matched in zip(cells, outcome):
                expected[condition].setdefault(snr, []).append(matched)
        assert flags == expected
        assert sum(len(v) for c in flags.values() for v in c.values()) == 4 * n

    def test_interleaved_shots_keep_their_clean_flags(self):
        # Shot "hit" is a blast at its onset; shot "miss" is noise with no
        # blast. Their cells interleave, so a clean flag taken from the
        # wrong shot, or from the wrong row, changes the outcome. The
        # plan denoises every frame to silence.
        fs, onset = 32768, 4000
        hit = signals.friedlander(10.0, 0.0025, fs, 8192, onset, shot_id="hit")
        miss = signals.ShotRecord(signals.Waveform(
            np.random.default_rng(4).standard_normal(8192), fs, [("MB", onset)]),
            "A", "miss")
        noise = signals.NoiseRecord(signals.Waveform(
            np.random.default_rng(5).standard_normal(8192), fs), "N0")
        shot_ids = ["hit", "miss", "miss", "hit", "miss"]
        cells = [(hit if s == "hit" else miss, noise, 0, 40.0) for s in shot_ids]
        flags = no_flags()
        cli._score_cells(np.zeros_like, cells, flags, detect.DetectorConfig(),
                         detect.default_tolerance(fs), fs)
        hits = [s == "hit" for s in shot_ids]
        assert flags == {"clean": {40.0: hits}, "noisy": {40.0: hits},
                         "denoised": {40.0: [False] * 5}, "combined": {40.0: hits}}

    def test_peak_bounded_by_a_few_blocks(self, pipeline):
        # 700 cells of 2048 samples hold 11.5 MB per full-rate stack;
        # scored a block at a time, the traced peak stays under 8 MB.
        cfg, root, _ = pipeline
        cells, plan = scoring_inputs(cfg, root, 700)
        assert cfg.frame_len == 2048
        flags = no_flags()
        tracemalloc.start()
        try:
            cli._score_cells(plan, cells, flags, cfg.detector(),
                             detect.default_tolerance(cfg.fs), cfg.fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(v) for c in flags.values() for v in c.values()) == 4 * 700
        assert peak < 8e6, peak


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

    def test_batch_matches_frame_by_frame(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        ckpt = root / "train" / "rotation_0" / "checkpoint.bin"
        x = np.random.default_rng(2).normal(0.0, 2.0, 5000)
        wav_in = tmp_path / "in.wav"
        signals.save_wav(wav_in, signals.Waveform(x, cfg.fs))
        stats = cli.cmd_denoise(cfg, ckpt, wav_in, tmp_path / "out.wav")
        assert stats["frames"] == 3.0 and "max_latency_s" not in stats
        model = net.load_checkpoint(ckpt)
        padded = np.zeros(3 * model.frame_len)
        padded[:5000] = signals.load_wav(wav_in).samples
        ref = np.concatenate([net.denoise_frame(model, frame)
                              for frame in padded.reshape(3, -1)])[:5000]
        out = signals.load_wav(tmp_path / "out.wav").samples
        tol = 1e-9 + np.spacing(np.abs(ref).astype(np.float32))
        assert np.all(np.abs(out - ref) <= tol)

    def test_fs_mismatch(self, pipeline, tmp_path):
        cfg, root, _ = pipeline
        wav_in = tmp_path / "wrong.wav"
        signals.save_wav(wav_in, signals.Waveform(np.zeros(2048), 44100))
        with pytest.raises(DataError):
            cli.cmd_denoise(cfg, root / "train" / "rotation_0" / "checkpoint.bin",
                            wav_in, tmp_path / "o.wav")


class TestReport:
    def test_unexpected_convergence_header_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        train = tmp_path / "train"
        shutil.copytree(root / "train", train)
        log = train / "rotation_0" / "convergence.csv"
        log.write_text(log.read_text().replace("train_mse,val_mse", "val_mse,train_mse"))
        code = cli.main(["report", "--set", "rotation=0", "--eval-dir", str(root / "eval"),
                         "--train-dir", str(train), "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unexpected" in err and "header" in err

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

    @pytest.mark.parametrize("argv, message", [
        (["denoise", "--checkpoint", "missing.bin", "--in", "missing.wav",
          "--out", "out.wav"], "No such file or directory: 'missing.bin'"),
        (["report", "--eval-dir", "eval", "--out", "taken"], "File exists: 'taken'"),
        (["gen-data", "--set", "noise_duration=1", "--out", "taken"],
         "Not a directory: 'taken/shots_a'"),
    ], ids=["missing_checkpoint", "report_out_is_a_file", "gen_data_out_is_a_file"])
    def test_os_error_exits_2(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_blast_without_onset_room_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert cli.main(["gen-data", "--set", "shot_t_plus=0.004", "--out", str(out)]) == 1
        assert "leave no onset room" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("writer", ["save_shot", "save_noise"])
    def test_gen_data_error_on_either_thread_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      writer):
        # The shots are written on the worker thread, the noise records
        # on the calling one; the fifth shot or the second noise fails.
        save = getattr(signals, writer)
        calls = []

        def failing(path, record):
            calls.append(path)
            if len(calls) == (5 if writer == "save_shot" else 2):
                raise DataError(f"cannot write {path}")
            return save(path, record)

        monkeypatch.setattr(signals, writer, failing)
        out = tmp_path / "c"
        before = threading.active_count()
        code = cli.main(["gen-data", "--set", "n_shots_a=8", "--set", "n_shots_b=2",
                         "--set", "noise_duration=1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: cannot write {calls[-1]}\n"
        assert threading.active_count() == before
        assert not (out / "manifest.txt").exists()

    def test_bad_detector_time_exits_1_before_reading_the_corpus(self, tmp_path, capsys):
        assert cli.main(["train", "--corpus", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "t"), "--set", "sta_ms=-5"]) == 1
        assert "sta_ms must be positive" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        ckpt = root / "train" / "rotation_0" / "checkpoint.bin"
        cut = tmp_path / "cut.bin"
        cut.write_bytes(ckpt.read_bytes()[:300])
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(cut), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_non_ascii_activation_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        raw = bytearray((root / "train" / "rotation_0" / "checkpoint.bin").read_bytes())
        raw[8 + struct.calcsize("<IIqIIBd") + 1] = 0xFF  # first activation byte
        bad = tmp_path / "bad_act.bin"
        bad.write_bytes(bytes(raw))
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert "activation" in capsys.readouterr().err

    def test_other_activation_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        raw = (root / "train" / "rotation_0" / "checkpoint.bin").read_bytes()
        name_at = 8 + struct.calcsize("<IIqIIBd") + 1
        bad = tmp_path / "relu.bin"
        bad.write_bytes(raw[:name_at] + b"relu" + raw[name_at + 4:])
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert "activation 'relu'" in capsys.readouterr().err
        assert not (tmp_path / "den.wav").exists()

    def test_empty_layer_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        # A dim-0 network would divide by zero in inference, so loading
        # it must end denoise as a data error, not a traceback.
        _, root, _ = pipeline
        bad = tmp_path / "empty.bin"
        shutil.copyfile(root / "train" / "rotation_0" / "checkpoint.bin", bad)
        rewrite_header(bad, empty_layer_net(dim=0, hidden=4))
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint header needs dim >= 1 and hidden >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "den.wav").exists()

    def test_corpus_fs_mismatch_exits_2(self, pipeline, odd_corpora, tmp_path, capsys):
        cfg, root, _ = pipeline
        cfg_file = tmp_path / "smoke.cfg"
        cfg_file.write_text(cfg.resolved_text())
        corpus = str(odd_corpora / "fs16k")
        assert cli.main(["train", "--config", str(cfg_file), "--corpus", corpus,
                         "--out", str(tmp_path / "t")]) == 2
        assert "fs 16384 Hz" in capsys.readouterr().err
        assert cli.main(["evaluate", "--config", str(cfg_file), "--corpus", corpus,
                         "--train-dir", str(root / "train"),
                         "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "fs 16384 Hz" in err and "fs 32768 Hz" in err
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()

    def test_corpus_frame_len_mismatch_exits_2(self, pipeline, odd_corpora, tmp_path,
                                               capsys):
        cfg, root, _ = pipeline
        cfg_file = tmp_path / "smoke.cfg"
        cfg_file.write_text(cfg.resolved_text())
        corpus = str(odd_corpora / "long")
        assert cli.main(["train", "--config", str(cfg_file), "--corpus", corpus,
                         "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "4096 samples" in err and "frame_len 2048 samples" in err
        assert cli.main(["evaluate", "--config", str(cfg_file), "--corpus", corpus,
                         "--train-dir", str(root / "train"),
                         "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "4096 samples" in err and "frame_len 2048 samples" in err
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()

    def test_corpus_noise_length_mismatch_exits_2(self, odd_corpora, tmp_path, capsys):
        # A corpus of 2 s noise records under the default 16 s config.
        corpus = str(odd_corpora / "noise2s")
        loaded = cli.load_corpus(config.load_config(None, ["noise_duration=2"]), corpus)
        assert [len(noise.waveform) for noise in loaded.noises] == [65536] * 3
        assert cli.main(["train", "--corpus", corpus, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert "65536 samples" in err and "noise_duration 16 s, so 524288 samples" in err
        assert cli.main(["evaluate", "--corpus", corpus, "--train-dir", str(tmp_path / "t"),
                         "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "65536 samples" in err and "noise_duration 16 s, so 524288 samples" in err
        assert not (tmp_path / "t").exists() and not (tmp_path / "e").exists()

    def test_empty_phase_list_exits_1_before_training(self, pipeline, tmp_path, capsys):
        cfg, root, _ = pipeline
        cfg_file = tmp_path / "smoke.cfg"
        cfg_file.write_text(cfg.resolved_text())
        code = cli.main(["train", "--config", str(cfg_file),
                         "--set", "phase_thresholds_db=",
                         "--corpus", str(root / "corpus"), "--out", str(tmp_path / "t")])
        assert code == 1
        assert "phase_thresholds_db is empty" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("rel, old, new", [
        # A held-out caliber shot claiming a training shot's id would be
        # trained on in its place.
        ("shots_b/B0000.wav", "shot_id=B0000", "shot_id=A0000"),
        # Rotation 0's validation noise would also be a training noise.
        ("noise/N2.wav", "noise_id=N2", "noise_id=N0"),
    ], ids=["held_out_shot", "validation_noise"])
    def test_duplicate_record_id_exits_2(self, pipeline, tmp_path, capsys, rel, old, new):
        cfg, root, _ = pipeline
        cfg_file = tmp_path / "smoke.cfg"
        cfg_file.write_text(cfg.resolved_text())
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        rewrite_sidecar(corpus, rel, old, new)
        code = cli.main(["train", "--config", str(cfg_file), "--corpus", str(corpus),
                         "--out", str(tmp_path / "t")])
        assert code == 2
        kind, ident = new.split("_id=")
        assert f"duplicate {kind} ids: {ident}" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("field, value", [("decim_factor", 0), ("input_scale", 0.0),
                                              ("input_scale", float("nan"))])
    def test_bad_checkpoint_header_exits_2(self, pipeline, tmp_path, capsys, field,
                                           value):
        _, root, _ = pipeline
        bad = tmp_path / "bad.bin"
        shutil.copyfile(root / "train" / "rotation_0" / "checkpoint.bin", bad)
        rewrite_header(bad, **{field: value})
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert "checkpoint header needs" in capsys.readouterr().err
        assert not (tmp_path / "den.wav").exists()

    def test_malformed_manifest_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        manifest = corpus / "manifest.txt"
        lines = manifest.read_text().splitlines()
        entry = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
        lines[entry] = " ".join(lines[entry].split()[:2])  # drop the id field
        manifest.write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "t")])
        assert code == 2
        assert "malformed manifest line" in capsys.readouterr().err

    def test_malformed_sidecar_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        shot = tmp_path / src.name
        shutil.copy(src, shot)
        meta = signals.sidecar_path(src).read_text()
        signals.sidecar_path(shot).write_text(
            "\n".join("annotation=MB:12x" if ln.startswith("annotation=") else ln
                      for ln in meta.splitlines()) + "\n")
        code = cli.main(["denoise",
                         "--checkpoint", str(root / "train" / "rotation_0" / "checkpoint.bin"),
                         "--in", str(shot), "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert "malformed line 'annotation=MB:12x'" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"seed = 3  # \xff\n")
        code = cli.main(["gen-data", "--config", str(cfg_file),
                         "--out", str(tmp_path / "c")])
        assert code == 1
        assert capsys.readouterr().err == (f"config error: config file {cfg_file} is not "
                                           f"UTF-8 text: invalid start byte at byte 12\n")
        assert not (tmp_path / "c").exists()

    def test_config_directory_exits_1(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--config", str(tmp_path),
                         "--out", str(tmp_path / "c")])
        assert code == 1
        assert capsys.readouterr().err == (f"config error: config file {tmp_path} cannot "
                                           f"be read: Is a directory\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("table", ["eval/scores_validation.csv",
                                       "train/rotation_0/convergence.csv"])
    def test_non_utf8_table_exits_2(self, pipeline, tmp_path, capsys, table):
        _, root, _ = pipeline
        for sub in ("eval", "train"):
            shutil.copytree(root / sub, tmp_path / sub)
        (tmp_path / table).write_bytes(b"\xff\xfe")
        code = cli.main(["report", "--set", "rotation=0",
                         "--eval-dir", str(tmp_path / "eval"),
                         "--train-dir", str(tmp_path / "train"),
                         "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / table} is not UTF-8 text")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_utf8_manifest_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(root / "corpus", corpus)
        manifest = corpus / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"# \xff\n")
        code = cli.main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest} is not UTF-8 text")
        assert err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    def test_non_utf8_sidecar_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        shot = tmp_path / src.name
        shutil.copy(src, shot)
        meta = signals.sidecar_path(shot)
        meta.write_bytes(signals.sidecar_path(src).read_bytes() + b"note=\xff\n")
        code = cli.main(["denoise",
                         "--checkpoint", str(root / "train" / "rotation_0" / "checkpoint.bin"),
                         "--in", str(shot), "--out", str(tmp_path / "den.wav")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {meta} is not UTF-8 text")
        assert err.count("\n") == 1
        assert not (tmp_path / "den.wav").exists()

    @pytest.mark.parametrize("fmt_tag, bits, payload",
                             [(3, 32, bytes(5)), (1, 16, bytes(3))], ids=["float32", "pcm16"])
    def test_partial_sample_wav_exits_2(self, pipeline, tmp_path, capsys, fmt_tag, bits,
                                        payload):
        cfg, root, _ = pipeline
        wav = tmp_path / "partial.wav"
        wav.write_bytes(wav_bytes(fmt_tag, bits, payload, fs=cfg.fs))
        code = cli.main(["denoise",
                         "--checkpoint", str(root / "train" / "rotation_0" / "checkpoint.bin"),
                         "--in", str(wav), "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {wav}: {len(payload)}-byte data chunk is not a whole number "
            f"of {bits // 8}-byte samples\n")
        assert not (tmp_path / "den.wav").exists()

    def test_non_finite_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        _, root, _ = pipeline
        model = net.load_checkpoint(root / "train" / "rotation_0" / "checkpoint.bin")
        model.w1 = model.w1.copy()
        model.w1[0, 0] = np.nan
        bad = tmp_path / "nan.bin"
        net.save_checkpoint(bad, model)
        src = next((root / "corpus" / "shots_a").glob("*.wav"))
        code = cli.main(["denoise", "--checkpoint", str(bad), "--in", str(src),
                         "--out", str(tmp_path / "den.wav")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: checkpoint parameter w1 holds NaN or Inf\n")
        assert not (tmp_path / "den.wav").exists()

    def test_short_noise_record_exit_1_before_loading(self, tmp_path, capsys):
        # The corpus does not exist: reading it would exit 2.
        code = cli.main(["train", "--set", "noise_duration=0.05",
                         "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "t")])
        assert code == 1
        assert ("1638-sample noise records, shorter than the 2048-sample frame"
                in capsys.readouterr().err)
        assert not (tmp_path / "t").exists()

    def test_even_kernel_len_exits_1_before_loading(self, tmp_path, capsys):
        code = cli.main(["train", "--set", "kernel_len=4",
                         "--corpus", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "t")])
        assert code == 1
        assert "kernel_len" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("decim_factor=1", "decim_factor must be >= 2"),
        ("decim_factor=32", "decimated Nyquist rate 512 Hz at or below"),
        ("decim_factor=64", "decimated Nyquist rate 256 Hz at or below"),
        ("kernel_len=513", "kernel_len must be odd and in [1, 511]"),
        ("kernel_len=1023", "kernel_len must be odd and in [1, 511]"),
    ])
    def test_signal_chain_config_exits_1_before_loading(self, tmp_path, capsys, override,
                                                         message):
        # The corpus does not exist: reading it would exit 2.
        code = cli.main(["train", "--set", override,
                         "--corpus", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "t")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("override, message", [
        ("lta_ms=100", "lta_ms 100 is 3277 samples"),
        ("warmup_ms=70", "leaves no candidate onset"),
        ("threshold=-1", "threshold must exceed 1"),
    ])
    def test_detector_config_exits_1_before_loading(self, tmp_path, capsys, override,
                                                    message):
        # The corpus does not exist: reading it would exit 2.
        code = cli.main(["evaluate", "--set", override,
                         "--corpus", str(tmp_path / "absent"),
                         "--train-dir", str(tmp_path / "t"), "--out", str(tmp_path / "e")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


    @pytest.mark.parametrize("override", [
        "noise_duration=inf", "shot_t_plus=inf", "sta_ms=inf", "lta_ms=inf",
        "warmup_ms=inf", "refractory_ms=inf", "burst_rate=inf", "shot_peak_pa=inf",
        "noise_rms_pa=inf", "lr=inf", "f_lr_scale=inf", "phase_thresholds_db=nan,-5",
        "threshold=inf",
    ])
    def test_non_finite_config_exits_1_before_loading(self, tmp_path, capsys, override):
        # The corpus does not exist: reading it would exit 2.
        code = cli.main(["train", "--set", override,
                         "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        key = override.partition("=")[0]
        assert err.startswith(f"config error: {key} must be finite")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "t").exists()


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
