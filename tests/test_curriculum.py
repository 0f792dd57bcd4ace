import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest

from mbdenoise import curriculum, dsp, net, signals
from mbdenoise.errors import ConfigError, DataError

from conftest import make_corpus

FS = 32768


@pytest.fixture(scope="module")
def corpus10():
    return make_corpus(10, seed=100)


@pytest.fixture(scope="module")
def splits10(corpus10):
    shots, noises = corpus10
    return curriculum.build_split(shots, noises, seed=0, sections_per_noise=2)


def materialize(corpus, split, grid=(0.0,), per_cell=1, seed=0):
    shots, noises = corpus
    return curriculum.materialize_examples(
        split, {s.shot_id: s for s in shots}, {n.noise_id: n for n in noises},
        list(grid), per_cell, seed,
    )


class TestBuildSplit:
    def test_even_halves_and_six_combos(self, splits10):
        split = splits10[0]
        assert len(split.shot_subsets[0]) == 5
        assert len(split.shot_subsets[1]) == 5
        assert len(split.combos) == 6

    def test_subsets_disjoint(self, splits10):
        split = splits10[0]
        assert not set(split.shot_subsets[0]) & set(split.shot_subsets[1])

    def test_validation_isolated_from_training(self, splits10):
        for split in splits10:
            val = split.validation_combo
            for combo in split.train_combos:
                assert combo.shot_subset != val.shot_subset
                assert combo.noise_subset != val.noise_subset

    def test_two_train_combos_per_rotation(self, splits10):
        for split in splits10:
            assert len(split.train_combos) == 2

    def test_rotations_cover_each_combo_once(self, splits10):
        vals = [s.validation_combo for s in splits10]
        assert len(set(vals)) == 6

    def test_deterministic(self, corpus10):
        shots, noises = corpus10
        a = curriculum.build_split(shots, noises, seed=5)
        b = curriculum.build_split(shots, noises, seed=5)
        assert a[0].shot_subsets == b[0].shot_subsets

    def test_noise_sections_tile_record(self, splits10, corpus10):
        _, noises = corpus10
        for sub, rec in zip(splits10[0].noise_subsets, noises):
            assert sub.sections[0][0] == 0
            assert sub.sections[-1][1] == len(rec.waveform)
            for (a, b), (c, d) in zip(sub.sections, sub.sections[1:]):
                assert b == c  # contiguous, non-overlapping

    def test_requires_three_noises(self, corpus10):
        shots, noises = corpus10
        with pytest.raises(DataError):
            curriculum.build_split(shots, noises[:2], seed=0)

    def test_requires_two_shots(self, corpus10):
        shots, noises = corpus10
        with pytest.raises(DataError):
            curriculum.build_split(shots[:1], noises, seed=0)


class TestMaterialize:
    def test_counts(self, corpus10, splits10):
        # Validation cells: 5 shots x 2 sections x 1 SNR x 1 per cell.
        data = materialize(corpus10, splits10[0])
        assert len(data.validation) == 10
        # Training: other shot half x 2 noises x 2 sections each.
        assert len(data.train) == 20

    def test_snr_recompute_oracle(self, corpus10, splits10):
        shots, _ = corpus10
        by_id = {s.shot_id: s for s in shots}
        data = materialize(corpus10, splits10[0], grid=(5.0, -10.0))
        for ex in data.train + data.validation:
            residual = ex.noisy - ex.clean
            snr = 20 * math.log10(by_id[ex.shot_id].peak_pa / signals.rms(residual))
            assert snr == pytest.approx(ex.snr_bin, abs=1e-6)
            assert ex.snr_db == pytest.approx(ex.snr_bin, abs=1e-6)

    def test_clean_frame_is_source_shot(self, corpus10, splits10):
        shots, _ = corpus10
        by_id = {s.shot_id: s for s in shots}
        data = materialize(corpus10, splits10[0])
        for ex in data.validation:
            assert np.array_equal(ex.clean, by_id[ex.shot_id].waveform.samples)

    def test_decimated_frames_consistent(self, corpus10, splits10):
        data = materialize(corpus10, splits10[0])
        ex = data.train[0]
        assert np.array_equal(ex.noisy_dec, dsp.decimate(ex.noisy, FS, 8))
        assert ex.noisy_dec.size == 256

    def test_deterministic(self, corpus10, splits10):
        a = materialize(corpus10, splits10[1], seed=3)
        b = materialize(corpus10, splits10[1], seed=3)
        assert all(np.array_equal(x.noisy, y.noisy)
                   for x, y in zip(a.train, b.train))

    def test_validation_provenance_isolated(self, corpus10, splits10):
        data = materialize(corpus10, splits10[0])
        train_shots = {ex.shot_id for ex in data.train}
        train_noises = {ex.noise_id for ex in data.train}
        for ex in data.validation:
            assert ex.shot_id not in train_shots
            assert ex.noise_id not in train_noises

    def test_validation_combo_alone_matches_full_rotation(self, corpus10, splits10):
        shots, noises = corpus10
        split = splits10[4]
        full = materialize(corpus10, split, grid=(5.0, -10.0), per_cell=2, seed=7)
        alone = curriculum.materialize_combo(
            split, split.validation_combo, {s.shot_id: s for s in shots},
            {n.noise_id: n for n in noises}, [5.0, -10.0], 2, 7)
        assert len(alone) == len(full.validation)
        for a, b in zip(alone, full.validation):
            for f in fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_rejects_out_of_range_grid(self, corpus10, splits10):
        with pytest.raises(ConfigError):
            materialize(corpus10, splits10[0], grid=(20.0,))


class TestPhasePlan:
    def test_defaults_valid(self):
        plan = curriculum.PhasePlan()
        assert plan.thresholds_db == (0.0, -5.0, -10.0, -15.0, -20.0)
        assert plan.freeze_iters == 250 and plan.total_iters == 500

    def test_rejects_non_decreasing(self):
        with pytest.raises(ConfigError):
            curriculum.PhasePlan(thresholds_db=(0.0, 0.0))

    def test_rejects_freeze_past_total(self):
        with pytest.raises(ConfigError):
            curriculum.PhasePlan(freeze_iters=10, total_iters=10)


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


def tiny_net(seed=0):
    spec = dsp.design_butterworth(8, FS / 41.0, FS / 8.0)
    return net.init_network(16, seed, spec, dim=256, fs=FS)


@pytest.fixture(scope="module")
def trained(corpus10, splits10):
    data = materialize((corpus10[0], corpus10[1]), splits10[0],
                       grid=(5.0, 0.0, -5.0))
    model = tiny_net()
    model.input_scale = max(float(np.max(np.abs(ex.clean_dec)))
                            for ex in data.train)
    plan = curriculum.PhasePlan(thresholds_db=(0.0, -5.0),
                                freeze_iters=6, total_iters=14)
    hashes = []
    model, log = curriculum.train_curriculum(
        model, data, plan,
        on_iteration=lambda ph, it, n: hashes.append((ph, it, n.f_hash())),
    )
    return data, model, log, hashes


class TestTrainCurriculum:
    def test_active_set_grows(self, trained):
        _, _, log, _ = trained
        sizes = [log.phase_records(ph)[0].n_active for ph in (0, 1)]
        assert sizes[0] < sizes[1]

    def test_phase_zero_excludes_low_snr(self, trained):
        data, _, log, _ = trained
        n_at_or_above_zero = sum(1 for ex in data.train if ex.snr_db >= -1e-9)
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
        data, _, log, _ = trained
        fresh = tiny_net()
        fresh.input_scale = max(float(np.max(np.abs(ex.clean_dec)))
                                for ex in data.train)
        X = np.stack([ex.noisy_dec for ex in data.train]) / fresh.input_scale
        T = np.stack([ex.clean_dec for ex in data.train]) / fresh.input_scale
        Y, _ = net.forward_batch(fresh, X)
        untrained = net.mse_loss(Y, T).mse
        assert log.phase_records(1)[0].train_mse < 0.5 * untrained

    def test_validation_never_in_gradients(self, corpus10, splits10):
        # Corrupting every validation frame must not change the trained
        # weights by a single bit.
        def run(corrupt):
            data = materialize(corpus10, splits10[0], grid=(0.0,))
            if corrupt:
                for ex in data.validation:
                    ex.noisy_dec = ex.noisy_dec + 1e6
                    ex.clean_dec = ex.clean_dec - 1e6
            model = tiny_net(seed=9)
            model.input_scale = 10.0
            plan = curriculum.PhasePlan(thresholds_db=(0.0,),
                                        freeze_iters=3, total_iters=8)
            model, _ = curriculum.train_curriculum(model, data, plan)
            return model

        clean_run, corrupted_run = run(False), run(True)
        for k in clean_run.params():
            assert np.array_equal(clean_run.params()[k],
                                  corrupted_run.params()[k])

    def test_empty_active_set_aborts(self, corpus10, splits10):
        data = materialize(corpus10, splits10[0], grid=(-5.0,))
        model = tiny_net()
        plan = curriculum.PhasePlan(thresholds_db=(0.0, -5.0),
                                    freeze_iters=2, total_iters=5)
        with pytest.raises(DataError):
            curriculum.train_curriculum(model, data, plan)

    def test_overfits_single_example(self, corpus10, splits10):
        data = materialize(corpus10, splits10[0], grid=(0.0,))
        single = curriculum.MaterializedSplit([data.train[0]],
                                              [data.validation[0]], 0)
        model = tiny_net(seed=2)
        model.input_scale = float(np.max(np.abs(data.train[0].clean_dec)))
        plan = curriculum.PhasePlan(thresholds_db=(0.0,),
                                    freeze_iters=250, total_iters=2000)
        model, log = curriculum.train_curriculum(model, single, plan)
        first = log.records[0].train_mse
        assert log.records[-1].train_mse < 0.01 * first

    def test_determinism_bitwise(self, corpus10, splits10):
        def run():
            data = materialize(corpus10, splits10[2], grid=(0.0, -5.0))
            model = tiny_net(seed=5)
            model.input_scale = 12.0
            plan = curriculum.PhasePlan(thresholds_db=(0.0, -5.0),
                                        freeze_iters=4, total_iters=9)
            return curriculum.train_curriculum(model, data, plan)

        (net_a, log_a), (net_b, log_b) = run(), run()
        for k in net_a.params():
            assert np.array_equal(net_a.params()[k], net_b.params()[k])
        assert log_a.records == log_b.records

    def test_minibatch_mode_runs(self, corpus10, splits10):
        data = materialize(corpus10, splits10[0], grid=(0.0,))
        model = tiny_net(seed=3)
        model.input_scale = 12.0
        plan = curriculum.PhasePlan(thresholds_db=(0.0,),
                                    freeze_iters=2, total_iters=6)
        opt = curriculum.OptimizerConfig(batch_size=4)
        model, log = curriculum.train_curriculum(model, data, plan, opt)
        assert len(log.records) == 6
