import math
import tracemalloc

import numpy as np
import pytest

from mbdenoise import config, curriculum, dsp, net, signals
from mbdenoise.errors import ConfigError, DataError

from conftest import make_corpus, textbook_adam_step, textbook_loss

FS = 32768


@pytest.fixture(scope="module")
def corpus10():
    return make_corpus(10, seed=100)


@pytest.fixture(scope="module")
def held3():
    """Three shots whose ids no corpus10 shot has: split10's held-out
    caliber."""
    return make_corpus(3, seed=101, id_prefix="h")[0]


@pytest.fixture(scope="module")
def split10(corpus10, held3):
    shots, noises = corpus10
    return curriculum.build_split(shots, held3, noises, seed=0)


# Eight grid SNRs, so every combination's cells number 40 and all six
# combinations' 240.
WIDE_GRID = (10.0, 5.0, 0.0, -5.0, -10.0, -15.0, -20.0, -25.0)


def cells(split, combos, grid=(0.0,), seed=0):
    return curriculum.combo_cells(split, combos, list(grid), seed)


def rotation_cells(split, rotation, **kwargs):
    """The rotation's training and validation cells."""
    train, validation = curriculum.rotation_combos(rotation)
    return cells(split, train, **kwargs), cells(split, (validation,), **kwargs)


def subset_ids(split):
    return tuple(tuple(shot.shot_id for shot in half) for half in split.shot_subsets)


def shot_ids(cell_list):
    return [cell[0].shot_id for cell in cell_list]


def onsets(cell_list):
    return [cell[0].onset for cell in cell_list]


def snr_bins(cell_list):
    return [cell[3] for cell in cell_list]


def by_snr(cell_list):
    """The cells stably sorted by grid SNR, highest first: the order of
    training_frames' training rows."""
    order = np.argsort(-np.array(snr_bins(cell_list)), kind="stable")
    return [cell_list[k] for k in order]


def clean_frames(cell_list):
    """Each distinct shot's clean frame once, keyed by shot id."""
    return {cell[0].shot_id: cell[0].waveform.samples for cell in cell_list}


def clean_rows(cell_list):
    """Each cell's clean frame, one row per cell."""
    return np.stack([cell[0].waveform.samples for cell in cell_list])


def decimated_targets(cell_list):
    """Each distinct shot's decimated clean frame once, in the order the
    shots first appear (train_curriculum's target order), and each
    cell's index into them."""
    frames = clean_frames(cell_list)
    index = {shot_id: k for k, shot_id in enumerate(frames)}
    return (np.stack([dsp.decimate(frame, FS, 8) for frame in frames.values()]),
            np.array([index[shot_id] for shot_id in shot_ids(cell_list)]))


def mixed_alone(cell):
    """The cell's mix worked out by hand: its shot plus its noise
    segment scaled by s = peak / (rms(segment) * 10^(snr/20))."""
    shot, noise, offset, snr = cell
    segment = noise.segment(offset, len(shot.waveform))
    scale = shot.peak_pa / (signals.rms(segment) * 10.0 ** (snr / 20.0))
    return shot.waveform.samples + scale * segment


def shifted(cell, by):
    """The cell with its shot's and its noise's samples raised by by."""
    shot, noise, offset, snr = cell
    wave = shot.waveform
    return (signals.ShotRecord(
                signals.Waveform(wave.samples + by, wave.fs, list(wave.annotations)),
                shot.caliber_class, shot.shot_id),
            signals.NoiseRecord(
                signals.Waveform(noise.waveform.samples + by, noise.waveform.fs),
                noise.noise_id),
            offset, snr)


def best_match(residual, record):
    """The largest normalised correlation of residual with any segment of
    record."""
    n, size = residual.size, 1 << (residual.size + record.size).bit_length()
    corr = np.fft.irfft(np.fft.rfft(record, size) * np.conj(np.fft.rfft(residual, size)),
                        size)[: record.size - n + 1]
    energy = np.concatenate([[0.0], np.cumsum(record ** 2)])
    return float(np.max(corr / (np.sqrt(energy[n:] - energy[:-n])
                                * np.linalg.norm(residual))))


class TestBuildSplit:
    def test_even_halves_and_six_combos(self, split10):
        assert len(split10.shot_subsets[0]) == 5
        assert len(split10.shot_subsets[1]) == 5
        assert len(curriculum.COMBOS) == 6

    def test_subsets_disjoint(self, split10):
        first, second = subset_ids(split10)
        assert not set(first) & set(second)

    def test_holds_the_records(self, split10, corpus10, held3):
        # The halves hold the corpus's shot records themselves and cover
        # every shot; the split holds the held-out shots and the noise
        # records themselves, whole and in order.
        shots, noises = corpus10
        held = [shot for half in split10.shot_subsets for shot in half]
        assert sorted(map(id, held)) == sorted(map(id, shots))
        assert list(map(id, split10.held_out)) == list(map(id, held3))
        assert list(map(id, split10.noises)) == list(map(id, noises))

    def test_overlapping_halves_rejected(self, split10):
        first, second = split10.shot_subsets
        with pytest.raises(DataError, match="shot subsets overlap"):
            curriculum.DatasetSplit((first, second + first[:1]), split10.held_out,
                                    split10.noises)

    def test_held_out_shot_reusing_an_id_rejected(self, corpus10, held3):
        # Clean outcomes are keyed by shot id, so a held-out shot may not
        # share one with a training-caliber shot.
        shots, noises = corpus10
        impostor = signals.ShotRecord(held3[0].waveform, "B", shots[3].shot_id)
        with pytest.raises(DataError, match="duplicate shot ids: s003"):
            curriculum.build_split(shots, [impostor, *held3[1:]], noises, seed=0)

    def test_validation_isolated_from_training(self):
        for rotation in range(6):
            train, val = curriculum.rotation_combos(rotation)
            for combo in train:
                assert combo.shot_subset != val.shot_subset
                assert combo.noise_subset != val.noise_subset

    def test_two_train_combos_per_rotation(self):
        for rotation in range(6):
            assert len(curriculum.rotation_combos(rotation)[0]) == 2

    def test_rotations_cover_each_combo_once(self):
        vals = [curriculum.rotation_combos(rotation)[1] for rotation in range(6)]
        assert vals == list(curriculum.COMBOS)
        assert len(set(vals)) == 6

    def test_rotation_order_pinned(self):
        # Training rows follow this order, and so does the order in which
        # their gradients are summed.
        C = curriculum.Combo
        expected = [
            ((C(1, 1), C(1, 2)), C(0, 0)),
            ((C(1, 0), C(1, 2)), C(0, 1)),
            ((C(1, 0), C(1, 1)), C(0, 2)),
            ((C(0, 1), C(0, 2)), C(1, 0)),
            ((C(0, 0), C(0, 2)), C(1, 1)),
            ((C(0, 0), C(0, 1)), C(1, 2)),
        ]
        assert [curriculum.rotation_combos(r) for r in range(6)] == expected

    @pytest.mark.parametrize("rotation", [-1, 6])
    def test_rotation_out_of_range_rejected(self, rotation):
        # -1 is the config's "all rotations", not an index into COMBOS.
        with pytest.raises(ConfigError,
                           match=rf"rotation must be in \[0, 5\], got {rotation}"):
            curriculum.rotation_combos(rotation)

    def test_deterministic(self, corpus10):
        shots, noises = corpus10
        a = curriculum.build_split(shots, [], noises, seed=5)
        b = curriculum.build_split(shots, [], noises, seed=5)
        assert subset_ids(a) == subset_ids(b)

    def test_requires_three_noises(self, corpus10):
        shots, noises = corpus10
        with pytest.raises(DataError):
            curriculum.build_split(shots, [], noises[:2], seed=0)

    def test_requires_two_shots(self, corpus10):
        shots, noises = corpus10
        with pytest.raises(DataError):
            curriculum.build_split(shots[:1], [], noises, seed=0)


class TestMaterialize:
    def test_counts(self, split10):
        train, val = rotation_cells(split10, 0)
        # Validation cells: 5 shots x 1 SNR, one cell each.
        # Training: the other shot half x 2 noises.
        for c, n in ((val, 5), (train, 10)):
            assert len(c) == n
            assert curriculum.mix_cells(c).shape == (n, 2048)
            assert len(clean_frames(c)) == 5

    def test_rows_are_scaled_segments_on_shots(self, corpus10, split10):
        shots, noises = corpus10
        cells = [(shots[3], noises[1], 500, -5.0), (shots[0], noises[2], 9000, 10.0),
                 (shots[3], noises[0], 17, 0.0)]
        noisy = curriculum.mix_cells(cells)
        assert noisy.shape == (3, 2048)
        for row, cell in zip(noisy, cells):
            assert np.array_equal(row, mixed_alone(cell))

    def test_every_row_is_a_scaled_segment_on_its_shot(self, split10):
        # The stacked mix of every cell of every combination, at eight
        # grid SNRs, equals the cell's mix worked out alone.
        cells = curriculum.combo_cells(split10, curriculum.COMBOS, list(WIDE_GRID), 0)
        noisy = curriculum.mix_cells(cells)
        assert noisy.shape == (len(cells), 2048) and len(cells) == 240
        for row, cell in zip(noisy, cells):
            assert np.array_equal(row, mixed_alone(cell))

    def test_empty_cell_list_rejected(self):
        with pytest.raises(DataError):
            curriculum.mix_cells([])

    def test_snr_recompute_oracle(self, corpus10, split10):
        shots, _ = corpus10
        by_id = {s.shot_id: s for s in shots}
        for c in rotation_cells(split10, 0, grid=(5.0, -10.0)):
            assert set(snr_bins(c)) == {5.0, -10.0}
            for row, shot_id, snr_bin in zip(curriculum.mix_cells(c), shot_ids(c),
                                             snr_bins(c)):
                residual = row - by_id[shot_id].waveform.samples
                snr = 20 * math.log10(by_id[shot_id].peak_pa / signals.rms(residual))
                assert snr == pytest.approx(snr_bin, abs=1e-6)

    def test_clean_frame_is_source_shot(self, corpus10, split10):
        shots, _ = corpus10
        by_id = {s.shot_id: s for s in shots}
        _, val = rotation_cells(split10, 0)
        assert set(clean_frames(val)) == set(shot_ids(val))
        for shot_id, frame in clean_frames(val).items():
            assert np.array_equal(frame, by_id[shot_id].waveform.samples)
        assert onsets(val) == [by_id[shot_id].onset for shot_id in shot_ids(val)]

    def test_deterministic(self, split10):
        (a, _), (b, _) = (rotation_cells(split10, 1, seed=3) for _ in range(2))
        assert np.array_equal(curriculum.mix_cells(a), curriculum.mix_cells(b))
        assert (shot_ids(a), onsets(a), snr_bins(a)) == (shot_ids(b), onsets(b),
                                                         snr_bins(b))

    def test_validation_provenance_isolated(self, split10):
        # Each validation row is its shot plus a scaled segment of the
        # validation noise record at the offset the cell's seed draws;
        # no training row holds a segment of that record anywhere.
        train, val = rotation_cells(split10, 0)
        val_noisy, val_clean = curriculum.mix_cells(val), clean_frames(val)
        combo = curriculum.COMBOS[0]
        record = split10.noises[combo.noise_subset].waveform.samples
        ids = subset_ids(split10)[combo.shot_subset]
        assert shot_ids(val) == list(ids)
        for row, shot_id in enumerate(ids):
            rng = np.random.default_rng([0, curriculum.COMBOS.index(combo), row, 0, 0, 0])
            offset = int(rng.integers(0, record.size - 2048 + 1))
            segment = record[offset:offset + 2048]
            residual = val_noisy[row] - val_clean[shot_id]
            scale = residual @ segment / (segment @ segment)
            assert scale > 0
            assert np.allclose(residual, scale * segment, rtol=0, atol=1e-12)
            assert best_match(residual, record) > 1 - 1e-9
        assert not set(shot_ids(train)) & set(shot_ids(val))
        for noisy, clean in zip(curriculum.mix_cells(train), clean_rows(train)):
            assert best_match(noisy - clean, record) < 0.5

    def test_validation_combo_alone_matches_full_rotation(self, split10):
        train, validation = curriculum.rotation_combos(4)
        kwargs = dict(grid=(5.0, -10.0), seed=7)
        full = cells(split10, train + (validation,), **kwargs)
        alone = cells(split10, (validation,), **kwargs)
        n = len(alone)
        assert len(full) == 3 * n
        assert np.array_equal(curriculum.mix_cells(alone), curriculum.mix_cells(full)[-n:])
        assert shot_ids(alone) == shot_ids(full[-n:])
        assert onsets(alone) == onsets(full[-n:])
        assert snr_bins(alone) == snr_bins(full[-n:])
        assert all(np.array_equal(frame, clean_frames(full)[s])
                   for s, frame in clean_frames(alone).items())

    def test_rejects_out_of_range_grid(self, split10):
        with pytest.raises(ConfigError):
            rotation_cells(split10, 0, grid=(20.0,))
        with pytest.raises(ConfigError):
            curriculum.held_out_cells(split10, 0, [20.0], seed=0)

    def test_noise_shorter_than_a_frame_rejected(self, split10):
        # A record one sample short of a frame leaves the offset draw an
        # empty range, on which numpy raises its own ValueError.
        short = signals.NoiseRecord(signals.Waveform(
            split10.noises[0].waveform.samples[:2047], FS), "short")
        split = curriculum.DatasetSplit(split10.shot_subsets, split10.held_out,
                                        (short,) + split10.noises[1:])
        with pytest.raises(DataError, match="noise record short is shorter than the "
                                            "2048-sample frame"):
            cells(split, (curriculum.COMBOS[0],))
        with pytest.raises(DataError, match="noise record short is shorter than the "
                                            "2048-sample frame"):
            curriculum.held_out_cells(split, 0, [0.0], seed=0)


class TestHeldOutCells:
    @pytest.mark.parametrize("rotation", range(6))
    def test_held_out_shots_on_the_validation_noise(self, split10, rotation):
        grid = [5.0, -10.0]
        held = curriculum.held_out_cells(split10, rotation, grid, seed=0)
        record = split10.noises[curriculum.COMBOS[rotation].noise_subset]
        assert [(shot, snr) for shot, _, _, snr in held] == [
            (shot, snr) for shot in split10.held_out for snr in grid]
        assert all(noise is record for _, noise, _, _ in held)

    @pytest.mark.parametrize("rotation", [-1, 6])
    def test_rotation_out_of_range_rejected(self, split10, rotation):
        # -1 does not wrap around to the last combination's noise.
        with pytest.raises(ConfigError,
                           match=rf"rotation must be in \[0, 5\], got {rotation}"):
            curriculum.held_out_cells(split10, rotation, [0.0], seed=0)


SEEDS_ACROSS_WORDS = [0, 2**32 - 1, 2**32, 2**40 + 7]


class TestSeedWords:
    @pytest.mark.parametrize("seed", SEEDS_ACROSS_WORDS)
    def test_same_state_as_list_form(self, seed):
        key = [seed, 3, 0, 7, 2, 1]
        words = curriculum.seed_words(*key)
        assert words.dtype == np.uint32
        assert np.array_equal(np.random.SeedSequence(words).generate_state(8),
                              np.random.SeedSequence(key).generate_state(8))

    @pytest.mark.parametrize("seed", SEEDS_ACROSS_WORDS)
    def test_child_seed_as_list_form(self, seed):
        # The seeds of gen-data's noise records and of each rotation's
        # initial weights.
        for key in ([seed, 3, 2], [seed, 4, 5]):
            assert curriculum.child_seed(*key) == int(
                np.random.SeedSequence(key).generate_state(1)[0])

    def test_splits_large_entries_little_endian(self):
        assert curriculum.seed_words(2**40 + 7, 5).tolist() == [7, 256, 5]
        assert curriculum.seed_words(2**32, 0).tolist() == [0, 1, 0]

    def test_rejects_negative_entry(self):
        with pytest.raises(DataError):
            curriculum.seed_words(0, -1)

    @pytest.mark.parametrize("seed", SEEDS_ACROSS_WORDS)
    def test_combo_cell_offsets_as_list_form(self, split10, seed):
        # The key keeps a zero where the section index and the repeat
        # index were, so cells keep the offsets of earlier corpora.
        grid = [0.0, -5.0]
        cells = curriculum.combo_cells(split10, curriculum.COMBOS, grid, seed)
        expected = []
        for combo_idx, combo in enumerate(curriculum.COMBOS):
            noise = split10.noises[combo.noise_subset]
            for shot_pos, _ in enumerate(split10.shot_subsets[combo.shot_subset]):
                for snr_idx in range(len(grid)):
                    rng = np.random.default_rng([seed, combo_idx, shot_pos, 0, snr_idx, 0])
                    expected.append(
                        int(rng.integers(0, len(noise.waveform) - 2048 + 1)))
        assert [offset for _, _, offset, _ in cells] == expected


class TestConvergenceLog:
    def test_csv_round_trip(self):
        log = curriculum.ConvergenceLog()
        log.append(curriculum.LogRecord(0, 0, 1.5, 2.5, True, 10))
        log.append(curriculum.LogRecord(0, 1, 1.25, 2.25, False, 10))
        log.append(curriculum.LogRecord(1, 0, 3.0, 2.0, True, 20))
        text = "# seed=1\n" + log.to_csv()
        back = curriculum.ConvergenceLog.from_csv(text)
        assert back.records == log.records

    def test_schema_header(self):
        assert curriculum.ConvergenceLog.CSV_HEADER == (
            "phase", "iter", "train_mse", "val_mse", "f_frozen", "n_active")

    def test_iterations_strictly_increase(self):
        log = curriculum.ConvergenceLog()
        log.append(curriculum.LogRecord(0, 3, 1.0, 1.0, True, 1))
        with pytest.raises(DataError):
            log.append(curriculum.LogRecord(0, 3, 1.0, 1.0, True, 1))


def tiny_net(seed=0, hidden=16):
    spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
    return net.init_network(hidden, seed, spec, dim=256, fs=FS)


def network_frames(model, cell_list):
    """The noisy frames _network_frames writes into a new array, then
    the clean frames and the rows it returns."""
    noisy = np.empty((len(cell_list), model.dim))
    return (noisy, *curriculum._network_frames(model, cell_list, noisy))


def train_cells(model, train, val, *args, **kwargs):
    """train_curriculum on the frames training_frames builds from the cells."""
    return curriculum.train_curriculum(
        model, curriculum.training_frames(model, train, val), *args, **kwargs)


@pytest.fixture(scope="module")
def trained(split10):
    train, val = rotation_cells(split10, 0, grid=(5.0, 0.0, -5.0))
    model = tiny_net()
    cfg = config.RunConfig(phase_thresholds_db=(0.0, -5.0), freeze_iters=6, phase_iters=14)
    hashes = []
    model, log = train_cells(
        model, train, val, cfg,
        on_iteration=lambda ph, it, n: hashes.append((ph, it, n.f_hash())),
    )
    return train, model, log, hashes


class TestTrainCurriculum:
    def test_active_set_grows(self, trained):
        _, _, log, _ = trained
        sizes = [log.phase_records(ph)[0].n_active for ph in (0, 1)]
        assert sizes[0] < sizes[1]

    def test_phase_zero_excludes_low_snr(self, trained):
        train, _, log, _ = trained
        n_at_or_above_zero = sum(1 for snr in snr_bins(train) if snr >= 0.0)
        assert log.phase_records(0)[0].n_active == n_at_or_above_zero

    def test_filter_frozen_then_released(self, trained):
        _, _, log, hashes = trained
        for ph in (0, 1):
            recs = log.phase_records(ph)
            assert all(r.f_frozen for r in recs if r.iteration < 6)
            assert all(not r.f_frozen for r in recs if r.iteration >= 6)
            phase_hashes = [h for p, _, h in hashes if p == ph]
            assert len(set(phase_hashes[:6])) == 1  # frozen segment constant
            assert len(set(phase_hashes)) > 1  # release actually moves f

    def test_loss_decreases_within_phase(self, trained):
        _, _, log, _ = trained
        recs = log.phase_records(0)
        assert recs[-1].train_mse < recs[0].train_mse

    def test_warm_start_between_phases(self, trained):
        # Phase 1 must start from phase-0 weights: its first loss sits far
        # below an untrained network's loss on the wider active set.
        train, model, log, _ = trained
        fresh = tiny_net()
        X = dsp.decimate(curriculum.mix_cells(train), FS, 8)
        T = dsp.decimate(clean_rows(train), FS, 8)
        untrained = textbook_loss(fresh, X / model.input_scale, T / model.input_scale)
        assert log.phase_records(1)[0].train_mse < 0.5 * untrained

    def test_inputs_decimated_and_scaled_by_the_model(self, split10):
        # Training decimates each row with the network's own rate and
        # scales by the largest decimated clean training sample, row for
        # row in stack order, here with the two combinations interleaved.
        train, val = rotation_cells(split10, 0, grid=(0.0,))
        half = len(train) // 2
        interleaved = [train[k] for pair in zip(range(half), range(half, 2 * half))
                       for k in pair]
        mixed = curriculum.mix_cells(interleaved)
        assert np.array_equal(mixed[1], curriculum.mix_cells(train)[half])
        cfg = config.RunConfig(phase_thresholds_db=(0.0,), freeze_iters=1, phase_iters=2)
        model, log = train_cells(tiny_net(seed=4), interleaved, val, cfg)

        scale = max(float(np.max(np.abs(dsp.decimate(clean, FS, 8))))
                    for clean in clean_rows(interleaved))
        assert model.input_scale == scale
        X = np.stack([dsp.decimate(row, FS, 8) for row in mixed]) / scale
        C, rows = decimated_targets(interleaved)
        # The loop's order: cells by SNR, here one SNR, so cell order.
        loss, _ = net.batch_loss(tiny_net(seed=4), X, C / scale, rows)
        assert log.records[0].train_mse == loss

    def test_validation_never_in_gradients(self, split10):
        # Corrupting every validation frame must not change the trained
        # weights by a single bit. Raising the validation shots and noise
        # records by 2e6 raises every network input and target of
        # validation by at least 1e6.
        train, val = rotation_cells(split10, 0, grid=(0.0,))
        corrupted = [shifted(cell, 2e6) for cell in val]
        (x, clean, rows), (x_c, clean_c, rows_c) = (
            network_frames(tiny_net(), v) for v in (val, corrupted))
        assert np.array_equal(rows, rows_c)
        assert np.min(x_c - x) >= 1e6 and np.min(clean_c - clean) >= 1e6

        def run(corrupt):
            model = tiny_net(seed=9)
            cfg = config.RunConfig(phase_thresholds_db=(0.0,),
                                   freeze_iters=3, phase_iters=8)
            model, _ = train_cells(model, train, corrupted if corrupt else val, cfg)
            return model

        clean_run, corrupted_run = run(False), run(True)
        for k in clean_run.params():
            assert np.array_equal(clean_run.params()[k],
                                  corrupted_run.params()[k])

    def test_matches_two_forward_reference_loop(self, split10):
        # The textbook loop: per iteration a batch_loss call on the
        # active rows, allocating Adam, then a separate validation
        # batch_loss call, with the rows in the loop's order: each
        # phase's active rows are a prefix of the cells stably sorted by
        # SNR, highest first.
        # train_curriculum's one stacked hidden layer per parameter state
        # must give the same bits. The model is full width: OpenBLAS
        # rounds products of a few rows (under 19 at hidden 64) with a
        # kernel of their own, so a row's bits depend on the batch only
        # below that size; 30 validation and 40 or 60 training rows stay
        # above it.
        train, val = rotation_cells(split10, 1, grid=WIDE_GRID[1:7])
        assert (len(val), len(train)) == (30, 60)
        cfg = config.RunConfig(phase_thresholds_db=(-10.0, -20.0), freeze_iters=4,
                               phase_iters=9, lr=2e-3, f_lr_scale=0.7)
        model, log = train_cells(tiny_net(seed=6, hidden=64), train, val, cfg)

        def frames(c):
            targets, rows = decimated_targets(c)
            mixed = np.stack([dsp.decimate(row, FS, 8) for row in curriculum.mix_cells(c)])
            return mixed, targets, rows

        ref = tiny_net(seed=6, hidden=64)
        ordered = by_snr(train)
        x_train, c_train, rows_train = frames(ordered)
        scale = float(np.max(np.abs(c_train)))
        x_train, c_train = x_train / scale, c_train / scale
        x_val, c_val, rows_val = frames(val)
        x_val, c_val = x_val / scale, c_val / scale
        snrs = np.array(snr_bins(ordered))
        moments, records = {}, []
        for phase, threshold in enumerate(cfg.phase_thresholds_db):
            n_act = int(np.count_nonzero(snrs >= threshold))
            x, rows = x_train[:n_act], rows_train[:n_act]
            ref.f_frozen = True
            for it in range(cfg.phase_iters):
                if it == cfg.freeze_iters:
                    ref.f_frozen = False
                train_mse, grads = net.batch_loss(ref, x, c_train, rows)
                textbook_adam_step(ref, grads, moments, cfg.lr, cfg.f_lr_scale)
                val_mse, _ = net.batch_loss(ref, x_val, c_val, rows_val, grads=False)
                records.append(curriculum.LogRecord(
                    phase, it, train_mse, val_mse, ref.f_frozen, n_act))

        assert model.input_scale == scale
        assert moments["f"][2] == 2 * (cfg.phase_iters - cfg.freeze_iters)
        for k, v in ref.params().items():
            assert np.array_equal(model.params()[k], v), k
        assert log.records == records
        assert {r.n_active for r in records} == {40, 60}

    def test_empty_active_set_aborts(self, split10):
        train, val = rotation_cells(split10, 0, grid=(-5.0,))
        model = tiny_net()
        cfg = config.RunConfig(phase_thresholds_db=(0.0, -5.0),
                               freeze_iters=2, phase_iters=5)
        with pytest.raises(DataError):
            train_cells(model, train, val, cfg)

    def test_overfits_single_example(self, split10):
        train, val = rotation_cells(split10, 0, grid=(0.0,))
        model = tiny_net(seed=2)
        cfg = config.RunConfig(phase_thresholds_db=(0.0,),
                               freeze_iters=250, phase_iters=2000)
        model, log = train_cells(model, train[:1], val[:1], cfg)
        first = log.records[0].train_mse
        assert log.records[-1].train_mse < 0.01 * first

    def test_each_training_row_held_once(self, split10):
        # Traced over the frames builder and the loop together, at the
        # config's hidden width of 64. Training holds a row in its input
        # block plus four arrays of the hidden width (the activations,
        # batch_loss's copy of them sorted by target, their gradient and
        # one temporary): no output, residual or gathered target is
        # made. So doubling the training rows raises the traced peak by
        # about 1 + 4 * 64/256 = 2.0 rows' bytes per added row. A slope
        # near 1 would be the peak of mixing, not of training; a second
        # copy of the inputs, or an output-sized array, makes it 3.0.
        train, val = rotation_cells(split10, 0, grid=(5.0, 0.0, -5.0, -10.0))
        cfg = config.RunConfig(phase_thresholds_db=(0.0, -10.0), freeze_iters=1,
                               phase_iters=2)

        def peak(n_train):
            tracemalloc.start()
            try:
                train_cells(tiny_net(hidden=64), repeated(train, n_train), repeated(val, 64),
                            cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n, row_bytes = 512, 256 * 8
        per_row = (peak(2 * n) - peak(n)) / (n * row_bytes)
        assert 1.5 <= per_row < 2.25, per_row

    def test_rows_out_of_snr_order_rejected(self):
        # A hand-built TrainingFrames whose training SNRs rise would
        # train its phases on the wrong rows; it is rejected before any
        # frame is scaled.
        rng = np.random.default_rng(3)
        inputs, clean = rng.standard_normal((40, 256)), rng.standard_normal((2, 256))
        rows = np.tile([0, 1], 10)
        frames = curriculum.TrainingFrames(inputs.copy(), 20, clean.copy(), rows,
                                           clean.copy(), rows, np.repeat([0.0, 5.0], 10))
        cfg = config.RunConfig(phase_thresholds_db=(0.0,), freeze_iters=1, phase_iters=2)
        with pytest.raises(DataError, match="ordered by SNR"):
            curriculum.train_curriculum(tiny_net(), frames, cfg)
        assert np.array_equal(frames.inputs, inputs)

    def test_determinism_bitwise(self, split10):
        def run():
            train, val = rotation_cells(split10, 2, grid=(0.0, -5.0))
            model = tiny_net(seed=5)
            cfg = config.RunConfig(phase_thresholds_db=(0.0, -5.0),
                                   freeze_iters=4, phase_iters=9)
            return train_cells(model, train, val, cfg)

        (net_a, log_a), (net_b, log_b) = run(), run()
        for k in net_a.params():
            assert np.array_equal(net_a.params()[k], net_b.params()[k])
        assert log_a.records == log_b.records


BLOCK = curriculum.MIX_BLOCK_ROWS


@pytest.fixture(scope="module")
def all_cells(split10):
    """Every cell of every combination: 240 cells over all ten shots."""
    return cells(split10, curriculum.COMBOS, grid=WIDE_GRID)


def repeated(cells_, n):
    """The first n cells of the list repeated end to end."""
    return (cells_ * (n // len(cells_) + 1))[:n]


class TestRowBlocks:
    @pytest.mark.parametrize("n, sizes", [
        (0, []),
        (1, [1]),
        (7, [7]),
        (BLOCK, [BLOCK]),
        (BLOCK + 1, [BLOCK + 1]),
        (BLOCK + 7, [BLOCK + 7]),
        (BLOCK + 8, [BLOCK, 8]),
        (2 * BLOCK + 1, [BLOCK, BLOCK + 1]),
        (700, [BLOCK] * 10 + [60]),
    ])
    def test_blocks_cover_the_rows_in_order(self, n, sizes):
        # A tail under MIN_BLOCK_ROWS joins the block before it.
        assert curriculum.MIN_BLOCK_ROWS == 8
        blocks = curriculum.row_blocks(n)
        assert [b.stop - b.start for b in blocks] == sizes
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))


class TestNetworkFrames:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_edges(self, all_cells, n):
        # Rows on either side of every block edge equal the rows of the
        # whole stack mixed and decimated at once, and each row's target
        # is its shot's decimated clean frame.
        cell_list = repeated(all_cells[::-1], n)
        noisy, clean, rows = network_frames(tiny_net(), cell_list)
        whole = dsp.decimate(curriculum.mix_cells(cell_list), FS, 8)
        assert noisy.shape == (n, 256) and rows.shape == (n,)
        for k in range(n):
            assert np.array_equal(noisy[k], whole[k]), k
            assert np.array_equal(clean[rows[k]],
                                  dsp.decimate(cell_list[k][0].waveform.samples, FS, 8))
        assert len(clean) == len(clean_frames(cell_list))
        # input_scale as taken from one target row per mix.
        targets = dsp.decimate(clean_rows(cell_list), FS, 8)
        assert float(np.max(np.abs(clean))) == float(np.max(np.abs(targets)))

    def test_uses_the_model_rate(self, all_cells):
        spec = dsp.design_butterworth(8, FS / 41.0, FS / 4.0)
        model = net.init_network(4, 0, spec, dim=512, fs=FS, decim_factor=4)
        cell_list = all_cells[:BLOCK + 3]
        noisy, clean, rows = network_frames(model, cell_list)
        assert np.array_equal(noisy, dsp.decimate(curriculum.mix_cells(cell_list), FS, 4))
        assert np.array_equal(clean[rows], dsp.decimate(clean_rows(cell_list), FS, 4))

    def test_empty_cell_list_rejected(self):
        with pytest.raises(DataError):
            curriculum._network_frames(tiny_net(), [], np.empty((0, 256)))

    def test_training_frames_stack_validation_then_training(self, all_cells):
        # One block of inputs, the validation rows then the training
        # rows stably sorted by SNR, highest first, each as
        # _network_frames makes it, and the training SNRs.
        cells_ = all_cells[:BLOCK + 9]
        train, val = by_snr(cells_), all_cells[-30:]
        assert snr_bins(train) != snr_bins(cells_)
        frames = curriculum.training_frames(tiny_net(), cells_, val)
        for part, cell_list in ((frames.inputs[:30], val), (frames.inputs[30:], train)):
            noisy, clean, rows = network_frames(tiny_net(), cell_list)
            assert np.array_equal(part, noisy)
        assert frames.n_val == 30
        assert np.array_equal(frames.clean_val[frames.val_rows],
                              dsp.decimate(clean_rows(val), FS, 8))
        assert np.array_equal(frames.clean_train[frames.train_rows],
                              dsp.decimate(clean_rows(train), FS, 8))
        assert frames.snrs.tolist() == snr_bins(train)

    def test_peak_below_one_full_rate_stack(self, all_cells):
        # Six blocks of cells: the traced peak, output included, stays
        # below the bytes of the full-rate noisy stack of those cells,
        # which mixing them all at once would hold (with decimate's
        # edge-padded copy of it besides).
        cell_list = repeated(all_cells, 6 * BLOCK)
        model = tiny_net()
        full_rate = len(cell_list) * len(cell_list[0][0].waveform) * 8
        tracemalloc.start()
        try:
            frames = network_frames(model, cell_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frames[0].shape == (6 * BLOCK, 256)
        assert peak < full_rate, (peak, full_rate)
