"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest mbbench/tests``.
Every workload runs at a tiny size, untraced and traced; the traced run
must leave no wrapper behind.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "mbbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mbdenoise import dsp, net  # noqa: E402

TINY = workloads.Sizes(
    config=("rotation=0", "phase_iters=4", "freeze_iters=2", "n_shots_a=8",
            "n_shots_b=2", "noise_duration=1.0"),
    stream_blasts=8,
    setup_seconds=0.0,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload's own names for its end-to-end metrics, with units.
NAMED = {
    "train": {"train_iter_per_s": "1/s", "val_mse_final": "1"},
    "evaluate": {"eval_examples_per_s": "1/s", "denoised_p_mean": "1"},
    "stream": {"stream_frames_per_s": "1/s", "frame_latency_p50_ms": "ms",
               "frame_latency_p99_ms": "ms", "stream_denoised_p": "1"},
}
COMMON = {"setup_s": "s", "wall_s": "s", "fail_ratio": "1", "peak_rss_mb": "MB"}


def wrapped_functions() -> list[str]:
    """Layer-module attributes that are tracing wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in tracing.layer_modules()
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and hasattr(obj, "__wrapped__")
    ]


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = workloads.run_workload(name, 5, 0.0, False, tmp_path, TINY)
    assert result["failed"] == 0 and result["attempted"] > 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    named = units(result["named"])
    assert named.items() >= {**COMMON, **NAMED[name]}.items()
    values = [v for v, _ in result["metrics"].values()]
    assert all(math.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_unwraps(name, tmp_path):
    originals = {attr: getattr(net, attr) for attr in ("denoise_frame", "decimate")}
    spans = tmp_path / "spans.jsonl"
    result = workloads.run_workload(name, 5, 0.0, True, tmp_path, TINY, trace_out=spans)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert wrapped_functions() == []
    assert {attr: getattr(net, attr) for attr in originals} == originals
    assert spans.stat().st_size > 0
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert 0 < self_total <= metrics["trace.wall_s"][0]


def test_tracer_unwraps_after_an_error():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active(0):
            assert "mbdenoise.net.decimate" in wrapped_functions()
            raise RuntimeError
    assert wrapped_functions() == []


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.active(0):
        dsp.decimate(np.ones(2048), 32768.0)
    top = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in top] == ["dsp.decimate"]
    children = [s for s in tracer.spans if s.parent == top[0].span_id]
    assert children and top[0].child_s == pytest.approx(sum(s.duration for s in children))
    stats, _ = tracing.summarize(tracer.spans)
    assert stats["dsp.decimate"].self_s == pytest.approx(top[0].duration - top[0].child_s)


def test_forward_batch_split_into_training_and_validation():
    spans = [tracing.Span(0, i, -1, name, float(i), i + 0.5) for i, name in enumerate(
        ["net.forward_batch", "net.mse_loss", "net.backward_batch", "net.adam_step",
         "net.forward_batch", "net.mse_loss"])]
    stats, _ = tracing.summarize(spans)
    assert stats["net.forward_batch.train"].calls == 1
    assert stats["net.forward_batch.val"].calls == 1


def test_stream_onsets_cover_every_in_frame_offset():
    cfg = workloads.load_config(None, ["noise_duration=1.0"])
    record = workloads.stream_record(cfg, 64)
    onsets = np.array(record.onsets())
    assert np.all(np.diff(onsets) >= workloads.STREAM_OFFSET_STRIDE)
    offsets = [(k * workloads.STREAM_OFFSET_STRIDE) % 2048 for k in range(2048)]
    assert sorted(offsets) == list(range(2048))
    assert len(record) % cfg.frame_len == cfg.frame_len // 2


def test_run_prints_the_result_as_last_line(monkeypatch, capsys):
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads, "run_workload",
                        functools.partial(workloads.run_workload, sizes=TINY))
    assert run.main(["--workload", "train", "--seed", "2", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    env = json.loads(lines[-2])["env"]
    assert env["workload"] == "train" and env["seed"] == 2 and env["nproc"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mbbench", tmp_path / "mbbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mbbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
