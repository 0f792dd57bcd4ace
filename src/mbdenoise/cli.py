"""Command-line pipeline: corpus generation, training, denoising,
detection-rate evaluation, and report emission.

Jobs are reproducible: every output embeds the resolved config, file
writes are atomic, and identical config+seed yields byte-identical
corpora, CSVs and checkpoints. gen-data writes the shots on one worker
thread while the calling thread synthesizes the noise records; every
other command runs on the calling thread alone. train and evaluate load
the corpus as one curriculum.DatasetSplit and take their cells from
curriculum's combo_cells and held_out_cells.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from . import curriculum, detect, dsp, net, signals
from .config import CALIBER_B_PEAK_FACTOR, CALIBER_B_T_PLUS_FACTOR, RunConfig, load_config
from .errors import ConfigError, DataError, MbDenoiseError, NumericError

SCORE_CSV_HEADER = ("snr_db", "condition", "p", "delta_p", "n")
CONDITIONS = ("clean", "noisy", "denoised", "combined")


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
    # RunConfig.validate leaves room for the longest blast.
    support = int(np.ceil(8.0 * t_plus * cfg.fs))
    onset = int(rng.integers(cfg.frame_len // 4,
                             min(3 * cfg.frame_len // 4, cfg.frame_len - support)))
    return signals.friedlander(
        peak, t_plus, cfg.fs, cfg.frame_len, onset,
        caliber_class=caliber, shot_id=f"{caliber}{index:04d}",
    )


def _manifest_lines(rel: str, ident: str, written: tuple[bytes, bytes]) -> list[str]:
    """The manifest lines of a WAV and its sidecar, checksummed from the
    bytes save_wav wrote to them."""
    return [f"{hashlib.sha256(data).hexdigest()}  {rel + suffix}  id={ident}"
            for suffix, data in zip(("", ".meta"), written)]


def _write_shots(cfg: RunConfig, out: Path) -> list[str]:
    """Synthesize and write every caliber A shot, then every caliber B
    shot; their manifest lines, in that order."""
    lines = []
    for caliber, count in (("A", cfg.n_shots_a), ("B", cfg.n_shots_b)):
        for i in range(count):
            shot = _synth_shot(cfg, caliber, i)
            rel = f"shots_{caliber.lower()}/{shot.shot_id}.wav"
            lines += _manifest_lines(rel, shot.shot_id, signals.save_shot(out / rel, shot))
    return lines


def cmd_gen_data(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Write the synthetic corpus: two caliber classes of shots, three
    noise records, sidecar metadata, and a checksum manifest.

    One worker thread writes the shots while this thread synthesizes and
    writes the noise records, whose numpy work releases the GIL. The
    worker is joined before the function returns or raises, and an error
    it raises is raised here. Each file is checksummed from the bytes
    written to it, and the manifest lists the shots, then the noises."""
    out = Path(out_dir)
    for sub in ("shots_a", "shots_b", "noise"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(1) as worker:
        shots = worker.submit(_write_shots, cfg, out)
        noise_lines = []
        for j in range(3):
            noise = signals.gen_vehicle_noise(
                curriculum.child_seed(cfg.seed, 3, j), cfg.noise_duration, cfg.fs,
                cfg.noise_rms_pa, noise_id=f"N{j}", burst_rate=cfg.burst_rate,
            )
            rel = f"noise/{noise.noise_id}.wav"
            noise_lines += _manifest_lines(rel, noise.noise_id,
                                           signals.save_noise(out / rel, noise))
        lines = shots.result() + noise_lines
    signals.atomic_write(out / "manifest.txt",
                         cfg.comment_header() + "\n".join(lines) + "\n")
    return out


def load_corpus(cfg: RunConfig, corpus_dir: str | Path) -> curriculum.DatasetSplit:
    """Load a generated corpus, verifying every manifest checksum and,
    as each record is parsed, that it was made at cfg's fs with
    frame_len samples per shot and noise_duration seconds per noise
    record. Each listed file is read once: the bytes whose checksum was
    verified are the bytes parsed, and a float32 WAV's samples stay a
    float32 view of them, so the loaded corpus holds its stored size.
    Returns the corpus as its split (curriculum.build_split): caliber A
    halved for training and validation, caliber B held out."""
    root = Path(corpus_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise DataError(f"no manifest.txt in {root}")
    wavs: list[tuple[str, Path, bytes]] = []
    sidecars: dict[str, bytes] = {}
    for line in signals.utf8_text(manifest).splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise DataError(f"malformed manifest line in {manifest}: {line!r}")
        checksum, rel, _ident = fields
        path = root / rel
        try:
            data = path.read_bytes()
        except OSError:
            if path.exists():
                raise
            raise DataError(f"manifest entry missing on disk: {rel}") from None
        if hashlib.sha256(data).hexdigest() != checksum:
            raise DataError(f"checksum mismatch for {rel}")
        if rel.endswith(".wav"):
            wavs.append((rel, path, data))
        elif rel.endswith(".meta"):
            sidecars[rel] = data

    shots_a, shots_b, noises = [], [], []
    noise_len = int(round(cfg.noise_duration * cfg.fs))
    # Popped in manifest order, so each WAV's bytes are held only by its
    # record: a float32 record's samples view them, and a PCM16 record's
    # are freed once parsed.
    wavs.reverse()
    while wavs:
        rel, path, data = wavs.pop()
        files = signals.RecordFiles(path, data, sidecars.get(rel + ".meta"))
        if rel.startswith("noise/"):
            records, record = noises, signals.load_noise(files)
            length, setting = noise_len, f"noise_duration {cfg.noise_duration:g} s, so"
        elif rel.startswith(("shots_a/", "shots_b/")):
            records = shots_a if rel.startswith("shots_a/") else shots_b
            record, length, setting = signals.load_shot(files), cfg.frame_len, "frame_len"
        else:
            continue
        wave = record.waveform
        if (wave.fs, len(wave)) != (cfg.fs, length):
            raise DataError(f"{path} has fs {wave.fs} Hz and {len(wave)} samples, but "
                            f"the config has fs {cfg.fs} Hz and {setting} {length} samples")
        records.append(record)
    if not shots_a or len(noises) != 3:
        raise DataError(f"incomplete corpus in {root}")
    return curriculum.build_split(shots_a, shots_b, noises, cfg.seed)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _filter_spec(cfg: RunConfig) -> dsp.FilterSpec:
    return dsp.design_butterworth(
        8, cfg.filter_cutoff_hz, cfg.fs_decimated, kernel_len=cfg.kernel_len
    )


def _train_rotation(
    cfg: RunConfig,
    corpus_dir: str | Path,
    rotation: int,
    on_iteration: Callable[[int, int, net.Network], None] | None = None,
) -> tuple[net.Network, curriculum.ConvergenceLog]:
    """Train one rotation from the corpus on disk: load and verify the
    corpus, walk the rotation's training and validation combinations
    into cells, initialize its network from the rotation's child seed,
    build the network's frames from the cells, and run the phased
    schedule on the frames. The split and the cells are dropped before
    the first optimizer step, so the loop holds only the frames."""
    split, snr_grid = load_corpus(cfg, corpus_dir), list(cfg.snr_grid)
    train_combos, validation_combo = curriculum.rotation_combos(rotation)
    train = curriculum.combo_cells(split, train_combos, snr_grid, cfg.seed)
    validation = curriculum.combo_cells(split, (validation_combo,), snr_grid, cfg.seed)
    model = net.init_network(
        cfg.hidden, curriculum.child_seed(cfg.seed, 4, rotation), _filter_spec(cfg),
        dim=cfg.frame_dim(), fs=cfg.fs, decim_factor=cfg.decim_factor,
    )
    frames = curriculum.training_frames(model, train, validation)
    del split, train, validation
    return curriculum.train_curriculum(model, frames, cfg, on_iteration)


def cmd_train(cfg: RunConfig, corpus_dir: str | Path, out_dir: str | Path) -> Path:
    """Train one network per requested rotation; each rotation writes a
    checkpoint and a per-iteration convergence CSV. Each rotation reads
    and verifies the corpus, and drops its split and its cells before
    the first optimizer step (_train_rotation)."""
    out = Path(out_dir)
    for rotation in cfg.rotations():
        model, log = _train_rotation(cfg, corpus_dir, rotation)
        rot_dir = out / f"rotation_{rotation}"
        rot_dir.mkdir(parents=True, exist_ok=True)
        net.save_checkpoint(rot_dir / "checkpoint.bin", model)
        signals.atomic_write(rot_dir / "convergence.csv",
                             cfg.comment_header() + log.to_csv())
    return out


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _score_cells(
    plan: net.Plan,
    cells: list[curriculum.Cell],
    flags: dict[str, dict[float, list[bool]]],
    det_cfg: detect.DetectorConfig,
    tolerance: int,
    fs: int,
) -> None:
    """Append each cell's detection outcome under each of CONDITIONS to
    flags[condition][snr].

    A cell's truth onset is its shot's onset, so its clean outcome is
    its shot's: each distinct shot's clean frame is scored once. The
    cells are then scored a block at a time (curriculum.row_blocks):
    the block is mixed, denoised in one batch and its noisy and denoised
    frames scored, and only its flags outlive it. Combined is the
    parallel rule noisy OR denoised, so the combined rate can never fall
    below either individual rate (denoising occasionally filters out a
    blast the raw signal keeps).
    """
    if not cells:
        return
    shots = {cell[0].shot_id: cell[0] for cell in cells}
    clean = dict(zip(shots, detect.onsets_detected(
        np.stack([shot.waveform.samples for shot in shots.values()]),
        [shot.onset for shot in shots.values()], tolerance, fs, det_cfg)))
    for block in curriculum.row_blocks(len(cells)):
        block_cells = cells[block]
        onsets = [cell[0].onset for cell in block_cells]
        noisy = curriculum.mix_cells(block_cells)
        outcomes = zip(block_cells,
                       detect.onsets_detected(noisy, onsets, tolerance, fs, det_cfg),
                       detect.onsets_detected(plan(noisy), onsets, tolerance, fs, det_cfg))
        for (shot, _, _, snr), noisy_hit, denoised_hit in outcomes:
            for condition, matched in zip(CONDITIONS, (
                    clean[shot.shot_id], noisy_hit, denoised_hit,
                    noisy_hit or denoised_hit)):
                flags[condition].setdefault(snr, []).append(matched)


def _score_csv(flags: dict[str, dict[float, list[bool]]], cfg: RunConfig) -> str:
    buf = io.StringIO()
    buf.write(cfg.comment_header())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCORE_CSV_HEADER)
    for condition in CONDITIONS:
        for score in detect.score_rates(flags[condition]):
            writer.writerow([
                f"{score.snr_bin:.12g}", condition, f"{score.p:.12g}",
                f"{score.delta_p:.12g}", score.n,
            ])
    return buf.getvalue()


def cmd_evaluate(cfg: RunConfig, corpus_dir: str | Path, train_dir: str | Path,
                 out_dir: str | Path) -> Path:
    """Score detection per SNR bin on clean, noisy, denoised, and
    combined signals, concatenated across rotations; the held-out
    caliber class is scored separately (curriculum.held_out_cells).
    Each cell list is scored a block of rows at a time (_score_cells)."""
    split, snr_grid = load_corpus(cfg, corpus_dir), list(cfg.snr_grid)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    det_cfg = cfg.detector()
    tolerance = detect.default_tolerance(cfg.fs)

    val_flags: dict[str, dict[float, list[bool]]] = {c: {} for c in CONDITIONS}
    test_flags: dict[str, dict[float, list[bool]]] = {c: {} for c in CONDITIONS}
    for rotation in cfg.rotations():
        ckpt = Path(train_dir) / f"rotation_{rotation}" / "checkpoint.bin"
        if not ckpt.exists():
            raise DataError(f"missing checkpoint {ckpt}")
        model = net.load_checkpoint(ckpt)
        if model.fs != cfg.fs:
            raise DataError(
                f"checkpoint fs {model.fs} != corpus fs {cfg.fs} ({ckpt})"
            )
        plan = net.compile_plan(model)
        validation = curriculum.rotation_combos(rotation)[1]
        _score_cells(plan, curriculum.combo_cells(split, (validation,), snr_grid, cfg.seed),
                     val_flags, det_cfg, tolerance, cfg.fs)
        _score_cells(plan, curriculum.held_out_cells(split, rotation, snr_grid, cfg.seed),
                     test_flags, det_cfg, tolerance, cfg.fs)

    signals.atomic_write(out / "scores_validation.csv", _score_csv(val_flags, cfg))
    signals.atomic_write(out / "scores_test.csv", _score_csv(test_flags, cfg))
    return out


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def cmd_denoise(cfg: RunConfig, checkpoint: str | Path, wav_in: str | Path,
                wav_out: str | Path) -> dict[str, float]:
    """Denoise a WAV as one batch of back-to-back frames through the
    checkpoint's inference plan; returns the frame count and the batch
    time per frame (the plan's one-off compilation not included)."""
    model = net.load_checkpoint(checkpoint)
    waveform = signals.load_wav(wav_in)
    if waveform.fs != model.fs:
        raise DataError(f"input fs {waveform.fs} != checkpoint fs {model.fs}")
    plan = net.compile_plan(model)
    frame_len = model.frame_len
    x = waveform.samples
    n_frames = (x.size + frame_len - 1) // frame_len
    padded = np.zeros(n_frames * frame_len)
    padded[: x.size] = x
    start = time.perf_counter()
    out = plan(padded.reshape(n_frames, frame_len))
    elapsed = time.perf_counter() - start
    result = signals.Waveform(out.ravel()[: x.size], waveform.fs,
                              list(waveform.annotations))
    signals.save_wav(wav_out, result)
    return {
        "frames": float(n_frames),
        "mean_latency_s": elapsed / n_frames,
        "frame_budget_s": frame_len / waveform.fs,
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _merge_tables(cfg: RunConfig, key: str, header: tuple[str, ...],
                  tables: list[tuple[object, Path]]) -> str:
    """One long-format CSV: the data rows of each (label, path) table,
    whose header must be header, behind a leading key column holding
    the table's label."""
    buf = io.StringIO()
    buf.write(cfg.comment_header())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow((key,) + header)
    for label, path in tables:
        if not path.exists():
            raise DataError(f"missing table {path}")
        reader = csv.reader(ln for ln in signals.utf8_text(path).splitlines()
                            if ln and not ln.startswith("#"))
        found = tuple(next(reader, ()))
        if found != header:
            raise DataError(f"unexpected header {found} in {path}")
        for row in reader:
            writer.writerow([label] + row)
    return buf.getvalue()


def cmd_report(cfg: RunConfig, eval_dir: str | Path, train_dir: str | Path | None,
               out_dir: str | Path) -> Path:
    """Merge evaluation scores (and convergence logs when available)
    into long-format plot-ready CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    signals.atomic_write(out / "detection_rates.csv", _merge_tables(
        cfg, "dataset", SCORE_CSV_HEADER,
        [(dataset, Path(eval_dir) / f"scores_{dataset}.csv")
         for dataset in ("validation", "test")]))

    if train_dir is not None:
        logs = [(rotation, Path(train_dir) / f"rotation_{rotation}" / "convergence.csv")
                for rotation in cfg.rotations()]
        signals.atomic_write(out / "convergence_curves.csv", _merge_tables(
            cfg, "rotation", curriculum.ConvergenceLog.CSV_HEADER,
            [(rotation, path) for rotation, path in logs if path.exists()]))
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

    p = sub.add_parser("denoise", help="denoise a WAV file in frames")
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
                f"{int(stats['frames'])} frames in one batch, "
                f"{stats['mean_latency_s'] * 1e3:.3f} ms per frame "
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
    except (MbDenoiseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
