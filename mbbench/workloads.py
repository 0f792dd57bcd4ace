"""The benchmark's workloads and the loop that measures them.

Each workload is a closed loop from one process with one request in
flight: an operation through mbdenoise's public entry points, then the
checks on its outputs, then the next operation. See README.md for why
each workload exists and which metric each layer moves.
"""

from __future__ import annotations

import csv
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mbdenoise import cli, curriculum, detect, net, signals
from mbdenoise.config import RunConfig, load_config
from mbdenoise.errors import MbDenoiseError

import tracing

SETUP_MIN_REPEATS = 3
CONDITIONS = ("clean", "noisy", "denoised", "combined")
# Stream onsets advance by one frame plus this many samples, so the
# in-frame offset visits every value once per frame_len blasts (the
# stride is odd) and consecutive blasts stay at least a long STA/LTA
# window apart.
STREAM_OFFSET_STRIDE = 1759
# Allowed difference between the denoised WAV and the frame-by-frame
# pass, on top of the WAV's float32 rounding.
STREAM_MATCH_TOL = 1e-9

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark's; tests shrink them."""

    # Rotation 0 of a default-size corpus on a shortened five-phase
    # schedule that still freezes and releases F in every phase.
    config: tuple[str, ...] = ("rotation=0", "phase_iters=40", "freeze_iters=20")
    # One stream blast per in-frame offset of the 2048-sample frame.
    stream_blasts: int = 2048
    # Set-up repeats at least SETUP_MIN_REPEATS times and for at least
    # this long, and setup_s is the median; cheap set-ups repeat more.
    setup_seconds: float = 5.0


@dataclass
class OpResult:
    out: Path
    busy_s: float  # time of the entry-point call that did the op's units
    latencies_s: list[float] = field(default_factory=list)
    frames: np.ndarray | None = None


Check = tuple[str, bool]


class Workload:
    """Set-up, one operation, and the checks on its outputs."""

    name = ""
    throughput = ""  # the workload's own name for work_per_s

    def __init__(self, cfg: RunConfig, sizes: Sizes):
        self.cfg = cfg
        self.sizes = sizes
        self.reference = None

    def setup(self, root: Path) -> None:
        self.corpus = cli.cmd_gen_data(self.cfg, root / "corpus")

    def op(self, out: Path) -> OpResult:
        raise NotImplementedError

    def check(self, res: OpResult) -> tuple[int, list[Check]]:
        """Units of work the op did, and its checks. The first result
        checked becomes the reference later ones must match."""
        raise NotImplementedError

    def quality(self) -> dict[str, tuple[float, str]]:
        """Deterministic quality of the reference outputs, by name."""
        raise NotImplementedError

    def _train_setup(self, root: Path) -> None:
        Workload.setup(self, root)
        self.train_dir = cli.cmd_train(self.cfg, self.corpus, root / "train")
        self.checkpoint = self.train_dir / f"rotation_{self.cfg.rotation}" / "checkpoint.bin"


class Train(Workload):
    name = "train"
    throughput = "train_iter_per_s"

    def op(self, out: Path) -> OpResult:
        t0 = clock()
        cli.cmd_train(self.cfg, self.corpus, out)
        return OpResult(out, clock() - t0)

    def check(self, res):
        rot = res.out / f"rotation_{self.cfg.rotation}"
        files = ((rot / "checkpoint.bin").read_bytes(),
                 (rot / "convergence.csv").read_text())
        model = net.load_checkpoint(rot / "checkpoint.bin")
        log = curriculum.ConvergenceLog.from_csv(files[1])
        expected = len(self.cfg.phase_thresholds_db) * self.cfg.phase_iters
        checks = [
            ("checkpoint finite",
             all(np.all(np.isfinite(p)) for p in model.params().values())),
            ("convergence finite", all(math.isfinite(r.train_mse) and math.isfinite(r.val_mse)
                                       for r in log.records)),
            ("convergence rows", len(log.records) == expected),
        ]
        if self.reference is None:
            self.reference, self.log = files, log
        else:
            checks += [("checkpoint identical", files[0] == self.reference[0]),
                       ("convergence identical", files[1] == self.reference[1])]
        return len(log.records), checks

    def quality(self):
        return {"val_mse_final": (self.log.records[-1].val_mse, "1")}


def _score_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(ln for ln in text.splitlines()
                               if ln and not ln.startswith("#")))


class Evaluate(Workload):
    name = "evaluate"
    throughput = "eval_examples_per_s"
    tables = ("scores_validation.csv", "scores_test.csv")

    setup = Workload._train_setup

    def op(self, out: Path) -> OpResult:
        t0 = clock()
        cli.cmd_evaluate(self.cfg, self.corpus, self.train_dir, out)
        return OpResult(out, clock() - t0)

    def check(self, res):
        texts = tuple((res.out / name).read_text() for name in self.tables)
        cells = {(c, float(s)) for c in CONDITIONS for s in self.cfg.snr_grid}
        checks = []
        scored = 0
        for name, text in zip(self.tables, texts):
            rows = _score_rows(text)
            checks.append((f"{name} has 4 conditions x 7 SNR bins",
                           len(rows) == len(cells)
                           and {(r["condition"], float(r["snr_db"])) for r in rows} == cells))
            scored += sum(int(r["n"]) for r in rows if r["condition"] == "clean")
        if self.reference is None:
            self.reference = texts
        else:
            checks += [(f"{name} identical", text == ref)
                       for name, text, ref in zip(self.tables, texts, self.reference)]
        return scored, checks

    def quality(self):
        ps = [float(r["p"]) for text in self.reference for r in _score_rows(text)
              if r["condition"] == "denoised"]
        return {"denoised_p_mean": (sum(ps) / len(ps), "1")}


def stream_record(cfg: RunConfig, n_blasts: int) -> signals.Waveform:
    """A long vehicle-noise record with Friedlander blasts at known onsets.

    The noise is a run of corpus-length gen_vehicle_noise sections, each
    scaled so the corpus's nominal blast sits at the next SNR of the grid.
    Blast k starts in frame k + 1 at in-frame offset k * stride mod
    frame_len, so the onsets cover every in-frame offset and those late
    in a frame cross into the next. The record ends half-way into a frame.
    """
    frame = cfg.frame_len
    section = int(round(cfg.noise_duration * cfg.fs))
    onsets = [frame * (k + 1) + (k * STREAM_OFFSET_STRIDE) % frame for k in range(n_blasts)]
    n_sections = -(-(onsets[-1] + frame) // section)
    pieces = []
    for j in range(n_sections):
        snr = cfg.snr_grid[j % len(cfg.snr_grid)]
        seed = int(np.random.SeedSequence([cfg.seed, 8, j]).generate_state(1)[0])
        noise = signals.gen_vehicle_noise(
            seed, cfg.noise_duration, cfg.fs, cfg.shot_peak_pa / 10.0 ** (snr / 20.0),
            burst_rate=cfg.burst_rate)
        pieces.append(noise.waveform.samples)
    x = np.concatenate(pieces)[: n_sections * section - frame // 2]
    for k, onset in enumerate(onsets):
        rng = np.random.default_rng([cfg.seed, 9, k])
        peak = cfg.shot_peak_pa * (1.0 + cfg.peak_jitter * rng.uniform(-1.0, 1.0))
        t_plus = cfg.shot_t_plus * (1.0 + cfg.t_plus_jitter * rng.uniform(-1.0, 1.0))
        blast = signals.friedlander(peak, t_plus, cfg.fs, frame, 0)
        x[onset: onset + frame] += blast.waveform.samples
    return signals.Waveform(x, cfg.fs, [("MB", o) for o in onsets])


class Stream(Workload):
    name = "stream"
    throughput = "stream_frames_per_s"

    def setup(self, root: Path) -> None:
        self._train_setup(root)
        self.wav_in = root / "record.wav"
        signals.save_wav(self.wav_in, stream_record(self.cfg, self.sizes.stream_blasts))
        # The client's own frame-by-frame pass needs the model and samples.
        self.model = net.load_checkpoint(self.checkpoint)
        self.record = signals.load_wav(self.wav_in)

    def op(self, out: Path) -> OpResult:
        out.mkdir()
        t0 = clock()
        cli.cmd_denoise(self.cfg, self.checkpoint, self.wav_in, out / "denoised.wav")
        busy = clock() - t0
        frame = self.model.frame_len
        x = self.record.samples
        n_frames = -(-x.size // frame)
        padded = np.zeros(n_frames * frame)
        padded[: x.size] = x
        y = np.empty_like(padded)
        latencies = []
        for k in range(n_frames):
            chunk = padded[k * frame: (k + 1) * frame]
            t = clock()
            denoised = net.denoise_frame(self.model, chunk)
            latencies.append(clock() - t)
            y[k * frame: (k + 1) * frame] = denoised
        return OpResult(out, busy, latencies, y[: x.size])

    def check(self, res):
        out = signals.load_wav(res.out / "denoised.wav").samples
        n = self.record.samples.size
        checks = [("output length", out.size == n)]
        if out.size == n:
            # One float32 rounding step separates the WAV from the pass.
            ref = res.frames
            tol = STREAM_MATCH_TOL + np.spacing(np.abs(ref).astype(np.float32))
            checks.append(("matches frame pass", bool(np.all(np.abs(out - ref) <= tol))))
        if self.reference is None:
            self.reference = out
        return len(res.latencies_s), checks

    def quality(self):
        cfg = self.cfg
        det_cfg = detect.DetectorConfig(cfg.sta_ms, cfg.lta_ms, cfg.threshold,
                                        cfg.refractory_ms, cfg.warmup_ms)
        dets = detect.detect_impulses(self.reference, cfg.fs, det_cfg)
        matched, _ = detect.match_detections(dets, self.record.onsets(),
                                             detect.default_tolerance(cfg.fs))
        return {"stream_denoised_p": (sum(matched) / len(matched), "1")}


WORKLOADS = {w.name: w for w in (Train, Evaluate, Stream)}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, checks: list[Check]) -> None:
        self.attempted += len(checks)
        self.failed += sum(not ok for _, ok in checks)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: Sizes = Sizes(), trace_out: Path | None = None) -> dict:
    """Set up, run operations for ``seconds``, check every output.

    Untraced, the result holds the end-to-end metrics. Traced, every
    odd-numbered operation runs with the layer wrappers installed, the
    even ones without, and the result holds the per-layer metrics.
    """
    cfg = load_config(None, [f"seed={seed}", *sizes.config])
    workload = WORKLOADS[name](cfg, sizes)
    tracer = tracing.Tracer() if trace else None
    tally = Tally()

    setup_s: list[float] = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < sizes.setup_seconds:
        i = len(setup_s)
        with tracer.active(tracing.SETUP_OP) if tracer else nullcontext():
            t0 = clock()
            workload.setup(work / f"setup{i}")
            setup_s.append(clock() - t0)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")

    def run_op(out: Path, traced: bool, op_id: int):
        with tracer.active(op_id) if traced else nullcontext():
            t0 = clock()
            try:
                res = workload.op(out)
            except MbDenoiseError:
                res = None
            wall = clock() - t0
        tally.attempted += 1
        if res is None:
            tally.failed += 1
            return None, wall
        units, checks = workload.check(res)
        tally.add(checks)
        shutil.rmtree(out)
        return (units, res), wall

    # The warm-up operation writes the reference outputs.
    if run_op(work / "reference", False, tracing.SETUP_OP)[0] is None:
        raise MbDenoiseError("the reference operation failed")

    walls = {False: [], True: []}
    rates: list[float] = []
    latencies: list[float] = []
    k = 0
    start = clock()
    while k < (2 if trace else 1) or clock() - start < seconds:
        traced = trace and k % 2 == 1
        done, wall = run_op(work / f"op{k}", traced, k)
        walls[traced].append(wall)
        if done is not None and not traced:
            rates.append(done[0] / done[1].busy_s)
            latencies += done[1].latencies_s
        k += 1

    if trace:
        metrics = layer_metrics(tracer.spans, walls[True], walls[False])
        within = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        tally.add([("layer self times within op wall", within <= metrics["trace.wall_s"][0])])
        if trace_out is not None:
            tracer.write_jsonl(trace_out)
        return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}

    named = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls[False]), "s"),
        "fail_ratio": (tally.failed / tally.attempted, "1"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        workload.throughput: (statistics.median(rates), "1/s"),
        **workload.quality(),
    }
    if latencies:
        named["frame_latency_p50_ms"] = (float(np.percentile(latencies, 50)) * 1e3, "ms")
        named["frame_latency_p99_ms"] = (float(np.percentile(latencies, 99)) * 1e3, "ms")
        named["frames_timed"] = (len(latencies), "count")
    metrics = {"setup_s": named["setup_s"], "wall_s": named["wall_s"],
               "work_per_s": named[workload.throughput], "peak_rss_mb": named["peak_rss_mb"]}
    return {"attempted": tally.attempted, "failed": tally.failed, "named": named,
            "metrics": metrics}


# Per-operation self time of a span: metric, span.
SELF_TIMED = (
    ("net.forward_batch.train_self_s", "net.forward_batch.train"),
    ("net.forward_batch.val_self_s", "net.forward_batch.val"),
    *((f"{span}.self_s", span) for span in (
        "net.backward_batch", "net.mse_loss", "net.adam_step",
        "curriculum.train_curriculum", "dsp.decimate", "dsp.mix_at_snr",
        "detect.detect_impulses", "detect.match_detections", "net.denoise_frame",
        "net.forward", "dsp.interpolate")),
)
# Calls per operation.
CALLED = ("dsp.decimate", "detect.detect_impulses", "net.denoise_frame")
# Mean inclusive time of one call, over set-up and operations: metric,
# span, unit.
PER_CALL = (
    ("curriculum.materialize_examples.s", "curriculum.materialize_examples", "s"),
    ("cli.gen_data.s", "cli.cmd_gen_data", "s"),
    ("cli.load_corpus.s", "cli.load_corpus", "s"),
    ("net.save_checkpoint.ms", "net.save_checkpoint", "ms"),
    ("net.load_checkpoint.ms", "net.load_checkpoint", "ms"),
    ("signals.load_wav.ms", "signals.load_wav", "ms"),
    ("signals.save_wav.ms", "signals.save_wav", "ms"),
)


def layer_metrics(spans: list[tracing.Span], traced_walls: list[float],
                  plain_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; per-operation values are means
    over the traced operations."""
    stats, counts = tracing.summarize(spans)
    n_ops = len(traced_walls)
    empty = tracing.NameStats()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMED:
        m[metric] = (stats.get(span, empty).self_s / n_ops, "s")
    for stem in CALLED:
        m[f"{stem}.calls"] = (stats.get(stem, empty).calls / n_ops, "count")
    for metric, span, unit in PER_CALL:
        scale = 1e3 if unit == "ms" else 1.0
        m[metric] = (tracing.mean_call_s(spans, span) * scale, unit)

    frame_ms = sorted(s.duration * 1e3 for s in spans
                      if s.op != tracing.SETUP_OP and s.name == "net.denoise_frame")
    for q in (50, 99):
        m[f"net.denoise_frame.p{q}_ms"] = (
            float(np.percentile(frame_ms, q)) if frame_ms else 0.0, "ms")

    examples = counts.get("curriculum.materialize_examples.examples", 0)
    m["curriculum.iterations"] = (
        counts.get("curriculum.train_curriculum.iterations", 0) / n_ops, "count")
    m["curriculum.examples_materialized"] = (examples / n_ops, "count")
    m["curriculum.scored_ratio"] = (
        ratio(stats.get("cli.evaluate_example", empty).calls, examples), "1")
    m["detect.detections"] = (counts.get("detect.detect_impulses.detections", 0) / n_ops,
                              "count")
    m["detect.useful_ratio"] = (ratio(counts.get("detect.match_detections.matched", 0),
                                      counts.get("detect.match_detections.offered", 0)), "1")
    m["signals.bytes_io"] = ((counts.get("signals.load_wav.bytes", 0)
                              + counts.get("signals.save_wav.bytes", 0)) / n_ops, "B")

    for layer in tracing.LAYERS:
        total = sum(v.self_s for k, v in stats.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total / n_ops, "s")
    m["trace.spans"] = (sum(v.calls for v in stats.values()) / n_ops, "count")
    m["trace.wall_s"] = (statistics.fmean(traced_walls), "s")
    m["trace.overhead_s"] = (statistics.fmean(traced_walls) - statistics.fmean(plain_walls),
                             "s")
    return m
