"""Command-line pipeline: corpus generation, training, denoising,
detection-rate evaluation, and report emission.

Jobs are reproducible: every output embeds the resolved config, file
writes are atomic, and identical config+seed yields byte-identical
CSVs and checkpoints.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import curriculum, detect, dsp, net, signals
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, MbDenoiseError, NumericError

# Second caliber family for the cross-caliber test set: longer positive
# phase and lower peak make an acoustically different blast.
CALIBER_B_T_PLUS_FACTOR = 1.6
CALIBER_B_PEAK_FACTOR = 0.7

SCORE_CSV_HEADER = ("snr_db", "condition", "p", "delta_p", "n")
CONDITIONS = ("clean", "noisy", "denoised", "combined")


def _child_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def _synth_shot(cfg: RunConfig, caliber: str, index: int) -> signals.ShotRecord:
    rng = np.random.default_rng([cfg.seed, 1 if caliber == "A" else 2, index])
    peak = cfg.shot_peak_pa
    t_plus = cfg.shot_t_plus
    if caliber == "B":
        peak *= CALIBER_B_PEAK_FACTOR
        t_plus *= CALIBER_B_T_PLUS_FACTOR
    peak *= 1.0 + cfg.peak_jitter * rng.uniform(-1.0, 1.0)
    t_plus *= 1.0 + cfg.t_plus_jitter * rng.uniform(-1.0, 1.0)
    support = int(np.ceil(8.0 * t_plus * cfg.fs))
    lo = cfg.frame_len // 4
    hi = min(3 * cfg.frame_len // 4, cfg.frame_len - support)
    if hi <= lo:
        raise ConfigError(
            f"blast support {support} samples leaves no onset room in a "
            f"{cfg.frame_len}-sample frame"
        )
    onset = int(rng.integers(lo, hi))
    return signals.friedlander(
        peak, t_plus, cfg.fs, cfg.frame_len, onset,
        caliber_class=caliber, shot_id=f"{caliber}{index:04d}",
    )


def cmd_gen_data(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Write the synthetic corpus: two caliber classes of shots, three
    noise records, sidecar metadata, and a checksum manifest."""
    out = Path(out_dir)
    (out / "shots_a").mkdir(parents=True, exist_ok=True)
    (out / "shots_b").mkdir(parents=True, exist_ok=True)
    (out / "noise").mkdir(parents=True, exist_ok=True)

    entries: list[tuple[str, str]] = []  # (relpath, id)
    for i in range(cfg.n_shots_a):
        shot = _synth_shot(cfg, "A", i)
        rel = f"shots_a/{shot.shot_id}.wav"
        signals.save_shot(out / rel, shot)
        entries.append((rel, shot.shot_id))
    for i in range(cfg.n_shots_b):
        shot = _synth_shot(cfg, "B", i)
        rel = f"shots_b/{shot.shot_id}.wav"
        signals.save_shot(out / rel, shot)
        entries.append((rel, shot.shot_id))
    for j in range(3):
        noise = signals.gen_vehicle_noise(
            _child_seed(cfg.seed, 3, j), cfg.noise_duration, cfg.fs,
            cfg.noise_rms_pa, noise_id=f"N{j}", burst_rate=cfg.burst_rate,
        )
        rel = f"noise/{noise.noise_id}.wav"
        signals.save_noise(out / rel, noise)
        entries.append((rel, noise.noise_id))

    lines = []
    for rel, ident in entries:
        for suffix in ("", ".meta"):
            path = out / (rel + suffix)
            lines.append(f"{_sha256(path)}  {rel + suffix}  id={ident}")
    signals.atomic_write(out / "manifest.txt",
                         cfg.comment_header() + "\n".join(lines) + "\n")
    return out


@dataclass
class Corpus:
    shots_a: list[signals.ShotRecord]
    shots_b: list[signals.ShotRecord]
    noises: list[signals.NoiseRecord]

    def shots_by_id(self) -> dict[str, signals.ShotRecord]:
        return {s.shot_id: s for s in self.shots_a + self.shots_b}

    def noises_by_id(self) -> dict[str, signals.NoiseRecord]:
        return {n.noise_id: n for n in self.noises}


def load_corpus(corpus_dir: str | Path) -> Corpus:
    """Load a generated corpus, verifying every manifest checksum."""
    root = Path(corpus_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataError(f"no manifest.txt in {root}")
    wav_paths = []
    for line in manifest.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        checksum, rel, _ident = line.split()
        path = root / rel
        if not path.exists():
            raise DataError(f"manifest entry missing on disk: {rel}")
        if _sha256(path) != checksum:
            raise DataError(f"checksum mismatch for {rel}")
        if rel.endswith(".wav"):
            wav_paths.append((rel, path))

    corpus = Corpus([], [], [])
    for rel, path in wav_paths:
        if rel.startswith("shots_a/"):
            corpus.shots_a.append(signals.load_shot(path))
        elif rel.startswith("shots_b/"):
            corpus.shots_b.append(signals.load_shot(path))
        elif rel.startswith("noise/"):
            corpus.noises.append(signals.load_noise(path))
    if not corpus.shots_a or len(corpus.noises) != 3:
        raise DataError(f"incomplete corpus in {root}")
    return corpus


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _filter_spec(cfg: RunConfig) -> dsp.FilterSpec:
    return dsp.design_butterworth(
        8, cfg.filter_cutoff_hz, cfg.fs_decimated, kernel_len=cfg.kernel_len
    )


def _materialize_rotation(cfg: RunConfig, corpus: Corpus, rotation: int,
                          ) -> curriculum.MaterializedSplit:
    splits = curriculum.build_split(
        corpus.shots_a, corpus.noises, cfg.seed, cfg.sections_per_noise
    )
    return curriculum.materialize_examples(
        splits[rotation], corpus.shots_by_id(), corpus.noises_by_id(),
        list(cfg.snr_grid), cfg.examples_per_cell, cfg.seed,
        decim_factor=cfg.decim_factor,
    )


def cmd_train(cfg: RunConfig, corpus_dir: str | Path, out_dir: str | Path) -> Path:
    """Train one network per requested rotation; each rotation writes a
    checkpoint and a per-iteration convergence CSV."""
    corpus = load_corpus(corpus_dir)
    out = Path(out_dir)
    plan = curriculum.PhasePlan(cfg.phase_thresholds_db, cfg.freeze_iters,
                                cfg.phase_iters)
    opt = curriculum.OptimizerConfig(cfg.lr, cfg.f_lr_scale, cfg.batch_size)
    for rotation in cfg.rotations():
        data = _materialize_rotation(cfg, corpus, rotation)
        scale = max(float(np.max(np.abs(ex.clean_dec))) for ex in data.train)
        model = net.init_network(
            cfg.hidden, _child_seed(cfg.seed, 4, rotation), _filter_spec(cfg),
            dim=cfg.frame_dim(), fs=cfg.fs, decim_factor=cfg.decim_factor,
        )
        model.input_scale = scale
        model, log = curriculum.train_curriculum(model, data, plan, opt)
        rot_dir = out / f"rotation_{rotation}"
        rot_dir.mkdir(parents=True, exist_ok=True)
        net.save_checkpoint(rot_dir / "checkpoint.bin", model)
        signals.atomic_write(rot_dir / "convergence.csv",
                             cfg.comment_header() + log.to_csv())
    return out


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _detector_config(cfg: RunConfig) -> detect.DetectorConfig:
    return detect.DetectorConfig(cfg.sta_ms, cfg.lta_ms, cfg.threshold,
                                 cfg.refractory_ms, cfg.warmup_ms)


def evaluate_example(
    model: net.Network,
    example: curriculum.NoisyExample,
    det_cfg: detect.DetectorConfig,
    tolerance: int,
    fs: int,
) -> dict[str, bool]:
    """Detection outcome of one example under all four conditions."""
    denoised = net.denoise_frame(model, example.noisy)
    return detect.detect_conditions(example.clean, example.noisy, denoised,
                                    example.truth_onset, tolerance, fs, det_cfg)


def _test_examples(cfg: RunConfig, corpus: Corpus, rotation: int,
                   split: curriculum.DatasetSplit) -> list[curriculum.NoisyExample]:
    """Cross-caliber examples: held-out caliber shots mixed with the
    rotation's validation noise (scoring only, never trained on)."""
    nsub = split.noise_subsets[split.validation_combo.noise_subset]
    noise = corpus.noises_by_id()[nsub.noise_id]
    out = []
    for i, shot in enumerate(corpus.shots_b):
        frame_len = len(shot.waveform)
        for snr_idx, snr in enumerate(cfg.snr_grid):
            rng = np.random.default_rng([cfg.seed, 5, rotation, i, snr_idx])
            start, stop = nsub.sections[int(rng.integers(0, len(nsub.sections)))]
            offset = int(rng.integers(start, stop - frame_len + 1))
            mix = dsp.mix_at_snr(shot, noise, offset, snr)
            out.append(curriculum.NoisyExample(
                noisy=mix.noisy.samples, clean=mix.clean.samples,
                noisy_dec=np.empty(0), clean_dec=np.empty(0),
                snr_db=mix.achieved_snr_db, snr_bin=snr, truth_onset=shot.onset,
                shot_id=shot.shot_id, noise_id=noise.noise_id,
                section=0, combo=split.validation_combo,
            ))
    return out


def _score_csv(flags: dict[tuple[float, str], list[bool]], cfg: RunConfig) -> str:
    buf = io.StringIO()
    buf.write(cfg.comment_header())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    by_condition: dict[str, dict[float, list[bool]]] = {c: {} for c in CONDITIONS}
    for (snr, condition), values in flags.items():
        by_condition[condition].setdefault(snr, []).extend(values)
    for condition in CONDITIONS:
        for score in detect.score_rates(by_condition[condition]):
            writer.writerow([
                f"{score.snr_bin:.12g}", condition, f"{score.p:.12g}",
                f"{score.delta_p:.12g}", score.n,
            ])
    return buf.getvalue()


def cmd_evaluate(cfg: RunConfig, corpus_dir: str | Path, train_dir: str | Path,
                 out_dir: str | Path) -> Path:
    """Score detection per SNR bin on clean, noisy, denoised, and
    combined signals, concatenated across rotations; the held-out
    caliber class is scored separately."""
    corpus = load_corpus(corpus_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    det_cfg = _detector_config(cfg)
    tolerance = detect.default_tolerance(cfg.fs)

    splits = curriculum.build_split(
        corpus.shots_a, corpus.noises, cfg.seed, cfg.sections_per_noise
    )
    shots_by_id, noises_by_id = corpus.shots_by_id(), corpus.noises_by_id()
    val_flags: dict[tuple[float, str], list[bool]] = {}
    test_flags: dict[tuple[float, str], list[bool]] = {}
    for rotation in cfg.rotations():
        ckpt = Path(train_dir) / f"rotation_{rotation}" / "checkpoint.bin"
        if not ckpt.exists():
            raise DataError(f"missing checkpoint {ckpt}")
        model = net.load_checkpoint(ckpt)
        if model.fs != cfg.fs:
            raise DataError(
                f"checkpoint fs {model.fs} != corpus fs {cfg.fs} ({ckpt})"
            )
        split = splits[rotation]
        validation = curriculum.materialize_combo(
            split, split.validation_combo, shots_by_id, noises_by_id,
            list(cfg.snr_grid), cfg.examples_per_cell, cfg.seed,
            decim_factor=cfg.decim_factor,
        )
        for example in validation:
            outcome = evaluate_example(model, example, det_cfg, tolerance, cfg.fs)
            for condition, matched in outcome.items():
                val_flags.setdefault((example.snr_bin, condition), []).append(matched)
        for example in _test_examples(cfg, corpus, rotation, split):
            outcome = evaluate_example(model, example, det_cfg, tolerance, cfg.fs)
            for condition, matched in outcome.items():
                test_flags.setdefault((example.snr_bin, condition), []).append(matched)

    signals.atomic_write(out / "scores_validation.csv", _score_csv(val_flags, cfg))
    signals.atomic_write(out / "scores_test.csv", _score_csv(test_flags, cfg))
    return out


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def cmd_denoise(cfg: RunConfig, checkpoint: str | Path, wav_in: str | Path,
                wav_out: str | Path) -> dict[str, float]:
    """Denoise a WAV frame by frame; returns per-frame latency stats."""
    model = net.load_checkpoint(checkpoint)
    waveform = signals.load_wav(wav_in)
    if waveform.fs != model.fs:
        raise DataError(f"input fs {waveform.fs} != checkpoint fs {model.fs}")
    frame_len = model.frame_len
    x = waveform.samples
    n_frames = (x.size + frame_len - 1) // frame_len
    padded = np.zeros(n_frames * frame_len)
    padded[: x.size] = x
    out = np.empty_like(padded)
    latencies = []
    for k in range(n_frames):
        frame = padded[k * frame_len: (k + 1) * frame_len]
        start = time.perf_counter()
        out[k * frame_len: (k + 1) * frame_len] = net.denoise_frame(model, frame)
        latencies.append(time.perf_counter() - start)
    result = signals.Waveform(out[: x.size], waveform.fs, list(waveform.annotations))
    signals.save_wav(wav_out, result)
    return {
        "frames": float(n_frames),
        "mean_latency_s": float(np.mean(latencies)),
        "max_latency_s": float(np.max(latencies)),
        "frame_budget_s": frame_len / waveform.fs,
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(cfg: RunConfig, eval_dir: str | Path, train_dir: str | Path | None,
               out_dir: str | Path) -> Path:
    """Merge evaluation scores (and convergence logs when available)
    into long-format plot-ready CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    buf.write(cfg.comment_header())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("dataset",) + SCORE_CSV_HEADER)
    for dataset, name in (("validation", "scores_validation.csv"),
                          ("test", "scores_test.csv")):
        path = Path(eval_dir) / name
        if not path.exists():
            raise DataError(f"missing evaluation output {path}")
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#")]
        reader = csv.reader(rows)
        next(reader)  # header
        for row in reader:
            writer.writerow([dataset] + row)
    signals.atomic_write(out / "detection_rates.csv", buf.getvalue())

    if train_dir is not None:
        buf = io.StringIO()
        buf.write(cfg.comment_header())
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("rotation",) + curriculum.ConvergenceLog.CSV_HEADER)
        for rotation in cfg.rotations():
            path = Path(train_dir) / f"rotation_{rotation}" / "convergence.csv"
            if not path.exists():
                continue
            log = curriculum.ConvergenceLog.from_csv(path.read_text())
            for r in log.records:
                writer.writerow([rotation, r.phase, r.iteration,
                                 f"{r.train_mse:.12g}", f"{r.val_mse:.12g}",
                                 int(r.f_frozen), r.n_active])
        signals.atomic_write(out / "convergence_curves.csv", buf.getvalue())
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")


def _resolve_config(args) -> RunConfig:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbdenoise",
        description="Muzzle-blast denoising pipeline: generate data, train, "
                    "denoise, evaluate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the synthetic corpus")
    _add_common(p)
    p.add_argument("--out", required=True, help="corpus output directory")

    p = sub.add_parser("train", help="train one network per rotation")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score detection rates per SNR bin")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--train-dir", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", help="denoise a WAV file frame by frame")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="wav_in", required=True)
    p.add_argument("--out", dest="wav_out", required=True)

    p = sub.add_parser("report", help="merge outputs into plot-ready CSVs")
    _add_common(p)
    p.add_argument("--eval-dir", required=True)
    p.add_argument("--train-dir", default=None)
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "gen-data":
            cmd_gen_data(cfg, args.out)
        elif args.command == "train":
            cmd_train(cfg, args.corpus, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.corpus, args.train_dir, args.out)
        elif args.command == "denoise":
            stats = cmd_denoise(cfg, args.checkpoint, args.wav_in, args.wav_out)
            print(
                f"{int(stats['frames'])} frames, mean latency "
                f"{stats['mean_latency_s'] * 1e3:.3f} ms "
                f"(budget {stats['frame_budget_s'] * 1e3:.1f} ms)"
            )
        elif args.command == "report":
            cmd_report(cfg, args.eval_dir, args.train_dir, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, MbDenoiseError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
