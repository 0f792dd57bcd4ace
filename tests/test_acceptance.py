"""End-to-end acceptance gate.

Runs the full desk-scale pipeline once (synthetic corpus of 200 shots
plus a held-out caliber class, three noises, five SNR phases, all six
validation rotations) and checks the twelve exit criteria at fixed
tolerances, printing one PASS line per criterion. Run with

    pytest tests/test_acceptance.py -v -s
"""

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from mbdenoise import cli, config, curriculum, detect, dsp, net, signals
from conftest import gradient_errors

TRAIN_BUDGET_S = 30 * 60


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {detail}")


@dataclass
class DeskRun:
    cfg: config.RunConfig
    corpus_dir: Path
    train_dir: Path
    eval_dir: Path
    train_seconds: float


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory) -> DeskRun:
    """Default-config pipeline: gen-data, 6-rotation train, evaluate."""
    root = tmp_path_factory.mktemp("desk")
    cfg = config.RunConfig().validate()
    cli.cmd_gen_data(cfg, root / "corpus")
    start = time.perf_counter()
    cli.cmd_train(cfg, root / "corpus", root / "train")
    train_seconds = time.perf_counter() - start
    cli.cmd_evaluate(cfg, root / "corpus", root / "train", root / "eval")
    return DeskRun(cfg, root / "corpus", root / "train", root / "eval",
                   train_seconds)


@pytest.fixture(scope="session")
def instrumented_run(desk_run):
    """Rotation-0 training re-run at desk scale with a per-iteration
    hash of the filter layer (the convergence CSVs cannot carry it)."""
    cfg = desk_run.cfg
    corpus = cli.load_corpus(desk_run.corpus_dir)
    data = cli._materialize_rotation(cfg, corpus, 0)
    scale = max(float(np.max(np.abs(ex.clean_dec))) for ex in data.train)
    model = net.init_network(
        cfg.hidden, cli._child_seed(cfg.seed, 4, 0), cli._filter_spec(cfg),
        dim=cfg.frame_dim(), fs=cfg.fs, decim_factor=cfg.decim_factor)
    model.input_scale = scale
    plan = curriculum.PhasePlan(cfg.phase_thresholds_db, cfg.freeze_iters,
                                cfg.phase_iters)
    hashes: list[tuple[int, int, str]] = []
    model, log = curriculum.train_curriculum(
        model, data, plan,
        on_iteration=lambda ph, it, n: hashes.append((ph, it, n.f_hash())))
    return model, log, hashes, plan


def load_scores(path: Path):
    rows = [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    reader = csv.reader(rows)
    next(reader)
    out = {}
    for snr, condition, p, delta_p, n in reader:
        out[(float(snr), condition)] = (float(p), float(delta_p), int(n))
    return out


def load_log(path: Path) -> curriculum.ConvergenceLog:
    return curriculum.ConvergenceLog.from_csv(path.read_text())


def test_criterion_01_filter_matrix_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        klen = 2 * int(rng.integers(1, 32)) + 1
        kernel = rng.standard_normal(klen)
        mat = dsp.kernel_to_matrix(kernel, dim=256)
        half = (klen - 1) // 2
        for _ in range(100):
            x = rng.standard_normal(256)
            direct = np.convolve(x, kernel)[half: half + 256]
            worst = max(worst, float(np.max(np.abs(mat @ x - direct))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"matrix vs direct convolution: max |diff| {worst:.2e} "
              f"over 10 kernels x 100 vectors in {elapsed:.2f} s")


def test_criterion_02_butterworth_law():
    cfg = config.RunConfig()
    spec = dsp.design_butterworth(8, cfg.filter_cutoff_hz, cfg.fs_decimated,
                                  kernel_len=cfg.kernel_len)
    fc = spec.cutoff_hz
    at_fc = spec.response_db(fc)[0]
    assert at_fc == pytest.approx(-3.0103, abs=0.1)
    expected_2fc = -10.0 * math.log10(1.0 + 2.0 ** 16)
    at_2fc = spec.response_db(2 * fc)[0]
    assert at_2fc == pytest.approx(expected_2fc, abs=0.5)
    freqs = np.geomspace(10.0, spec.fs / 2 * 0.999, 50)
    analytic = -10.0 * np.log10(1.0 + (freqs / fc) ** 16)
    measured = spec.response_db(freqs)
    mask = analytic > -55.0  # points above the truncation floor
    worst = float(np.max(np.abs(measured[mask] - analytic[mask])))
    assert worst < 0.5
    report(2, f"|H(fc)| {at_fc:+.3f} dB, |H(2fc)| {at_2fc:+.2f} dB "
              f"(analytic {expected_2fc:+.2f}), sweep max err {worst:.3f} dB "
              f"at {int(mask.sum())} of 50 points above floor")


def test_criterion_03_gradient_check():
    cfg = config.RunConfig()
    rng = np.random.default_rng(99)
    model = net.init_network(cfg.hidden, 31337, cli._filter_spec(cfg),
                             dim=cfg.frame_dim(), fs=cfg.fs)
    x = rng.standard_normal(cfg.frame_dim())
    t = rng.standard_normal(cfg.frame_dim())
    errors = gradient_errors(model, x, t, samples_per_group=200, rng=rng)
    assert errors.size == 1000
    frac_ok = float(np.mean(errors < 1e-4))
    assert frac_ok >= 0.99
    report(3, f"analytic vs central differences: {frac_ok:.1%} of 1000 "
              f"sampled parameters below 1e-4 relative error "
              f"(median {np.median(errors):.2e})")


def test_criterion_04_freeze_contract(instrumented_run):
    _, _, hashes, plan = instrumented_run
    n_phases = len(plan.thresholds_db)
    for phase in range(n_phases):
        frozen = [h for p, it, h in hashes if p == phase and it < plan.freeze_iters]
        assert len(set(frozen)) == 1, f"filter drifted while frozen in phase {phase}"
    final = n_phases - 1
    release = plan.freeze_iters
    at_release = [h for p, it, h in hashes if p == final and it == release - 1][0]
    after = [h for p, it, h in hashes if p == final and it == release + 9][0]
    assert at_release != after, "filter did not move within 10 iterations of release"
    report(4, f"filter hash constant over all {n_phases} frozen segments; "
              f"changed within 10 iterations of release in the final phase")


def test_criterion_05_snr_round_trip(shot_a, noise_rec):
    targets = [-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0]
    worst = 0.0
    for target in targets:
        mix = dsp.mix_at_snr(shot_a, noise_rec, 4096, target)
        worst = max(worst, abs(mix.achieved_snr_db - target))
    assert worst < 1e-6
    report(5, f"snr_db(mix_at_snr(target)) == target over {targets[0]:+.0f} "
              f"to {targets[-1]:+.0f} dB, worst |err| {worst:.2e} dB")


def test_criterion_06_margin_formula():
    cases = []
    for n in (1, 100, 300):
        for p_num, p_den in ((0, 1), (1, 2), (3, 4), (1, 1)):
            hits = n * p_num // p_den
            if hits * p_den != n * p_num:
                continue  # p not realizable at this n
            flags = [True] * hits + [False] * (n - hits)
            score = detect.score_rates({0.0: flags})[0]
            expected = math.sqrt(score.p * (1 - score.p) / n)
            assert score.delta_p == expected
            cases.append((score.p, n, score.delta_p))
    assert (0.5, 100, 0.05) in cases
    assert (0.75, 300, 0.025) in cases
    report(6, f"delta_p exact on {len(cases)} (p, n) grid points incl. "
              f"(0.5,100)->0.05 and (0.75,300)->0.025")


def test_criterion_07_convergence_shape(desk_run):
    cfg = desk_run.cfg
    assert cfg.n_shots_a >= 200 and len(cfg.phase_thresholds_db) == 5
    release = cfg.freeze_iters
    jumps = release_gains = windows_ok = windows_total = 0
    for rotation in range(6):
        log = load_log(desk_run.train_dir / f"rotation_{rotation}"
                       / "convergence.csv")
        for phase in range(1, 5):
            prev_end = log.phase_records(phase - 1)[-1].train_mse
            start = log.phase_records(phase)[0].train_mse
            assert start > prev_end, (
                f"rotation {rotation} phase {phase}: no MSE jump at phase start")
            jumps += 1
        for phase in (3, 4):
            mse = [r.train_mse for r in log.phase_records(phase)]
            pre = float(np.mean(mse[release - 50: release]))
            post = float(np.mean(mse[release: release + 50]))
            assert post < pre, (
                f"rotation {rotation} phase {phase}: no descent after release "
                f"(pre {pre:.4f}, post {post:.4f})")
            release_gains += 1
        # descent property: train MSE non-increasing over >= 90% of
        # 50-iteration windows within each phase
        for phase in range(5):
            mse = [r.train_mse for r in log.phase_records(phase)]
            checks = [mse[i + 50] <= mse[i] for i in range(len(mse) - 50)]
            windows_ok += sum(checks)
            windows_total += len(checks)
    assert windows_ok / windows_total >= 0.90
    assert desk_run.train_seconds < TRAIN_BUDGET_S
    report(7, f"{jumps} phase-start jumps, {release_gains} post-release descents "
              f"(last two phases, all rotations), {windows_ok}/{windows_total} "
              f"descending 50-iter windows; 6-rotation training took "
              f"{desk_run.train_seconds / 60:.1f} min < 30 min")


def test_criterion_08_denoising_benefit(desk_run):
    scores = load_scores(desk_run.eval_dir / "scores_validation.csv")
    for snr in (-5.0, 0.0):
        p_n, d_n, n_n = scores[(snr, "noisy")]
        p_d, d_d, n_d = scores[(snr, "denoised")]
        assert n_n >= 200 and n_d >= 200
        assert p_d >= p_n + 0.15, f"{snr} dB: {p_d:.3f} < {p_n:.3f} + 0.15"
        assert p_d >= 1.3 * p_n, f"{snr} dB: {p_d:.3f} < 1.3 x {p_n:.3f}"
        gap = p_d - p_n
        assert gap > 2.0 * (d_n + d_d), (
            f"{snr} dB: gap {gap:.3f} within error margins")
    p0n = scores[(0.0, "noisy")][0]
    p0d = scores[(0.0, "denoised")][0]
    report(8, f"validation at 0 dB: denoised {p0d:.2f} vs noisy {p0n:.2f} "
              f"(n={scores[(0.0, 'denoised')][2]}), margins satisfied at "
              f"-5 and 0 dB")


def test_criterion_09_cross_caliber(desk_run):
    scores = load_scores(desk_run.eval_dir / "scores_test.csv")
    p_n = scores[(0.0, "noisy")][0]
    p_d = scores[(0.0, "denoised")][0]
    assert p_d >= p_n + 0.10, f"test caliber at 0 dB: {p_d:.3f} < {p_n:.3f} + 0.10"
    report(9, f"held-out caliber at 0 dB: denoised {p_d:.2f} vs noisy {p_n:.2f}")


def test_criterion_10_combined_rule(desk_run):
    checked = 0
    for name in ("scores_validation.csv", "scores_test.csv"):
        scores = load_scores(desk_run.eval_dir / name)
        bins = sorted({snr for snr, _ in scores})
        for snr in bins:
            combined = scores[(snr, "combined")][0]
            best = max(scores[(snr, "noisy")][0], scores[(snr, "denoised")][0])
            assert combined >= best, f"{name} {snr} dB: combined {combined} < {best}"
            checked += 1
    report(10, f"combined >= max(noisy, denoised) on all {checked} bins "
               f"of both score tables")


def test_criterion_11_realtime_latency(desk_run):
    model = net.load_checkpoint(desk_run.train_dir / "rotation_0"
                                / "checkpoint.bin")
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((105, model.frame_len))
    for frame in frames[:5]:  # warm design caches
        net.denoise_frame(model, frame)
    start = time.perf_counter()
    for frame in frames[5:]:
        net.denoise_frame(model, frame)
    mean_s = (time.perf_counter() - start) / 100
    budget = model.frame_len / model.fs
    assert mean_s < 0.005
    report(11, f"mean denoise latency {mean_s * 1e3:.2f} ms per "
               f"{model.frame_len}-sample frame "
               f"({mean_s / budget:.1%} of the {budget * 1e3:.1f} ms budget)")


def test_criterion_12_determinism(tmp_path):
    cfg = config.RunConfig(
        n_shots_a=10, n_shots_b=3, noise_duration=4.0,
        snr_grid=(5.0, 0.0, -5.0), phase_thresholds_db=(0.0, -5.0),
        freeze_iters=4, phase_iters=10, rotation=0,
    ).validate()
    digests = []
    for run in ("first", "second"):
        base = tmp_path / run
        cli.cmd_gen_data(cfg, base / "corpus")
        cli.cmd_train(cfg, base / "corpus", base / "train")
        cli.cmd_evaluate(cfg, base / "corpus", base / "train", base / "eval")
        digests.append(tuple(
            (name, (base / name).read_bytes())
            for name in ("train/rotation_0/checkpoint.bin",
                         "train/rotation_0/convergence.csv",
                         "eval/scores_validation.csv",
                         "eval/scores_test.csv")
        ))
    assert digests[0] == digests[1]
    report(12, "two identical end-to-end runs: checkpoint, convergence CSV, "
               "and both score CSVs byte-identical")
