"""Timing spans around the public functions of mbdenoise's modules.

A Tracer replaces every public function of the six layer modules with a
timing wrapper, in every module namespace that binds it (so
``curriculum.forward_batch`` and ``net.decimate`` are wrapped where the
calling module looks them up), and puts the originals back when the
traced block ends. Spans stay in memory; ``write_jsonl`` writes them
out once the run is over. Nothing here runs unless a traced run asks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("signals", "dsp", "net", "curriculum", "detect", "cli")
SETUP_OP = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _wav_bytes(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def _matched(args, kwargs, result):
    offered = len(_arg(args, kwargs, 0, "detections"))
    return {"offered": offered, "matched": offered - result[1]}


# Work counted at the layer boundary, from a call's arguments and result.
COUNTERS = {
    "curriculum.materialize_examples":
        lambda a, k, r: {"examples": len(r.train) + len(r.validation)},
    "curriculum.train_curriculum": lambda a, k, r: {"iterations": len(r[1].records)},
    "detect.detect_impulses": lambda a, k, r: {"detections": len(r)},
    "detect.match_detections": _matched,
    "signals.load_wav": _wav_bytes,
    "signals.save_wav": _wav_bytes,
}


@dataclass(slots=True)
class Span:
    """One call of one wrapped function. ``op`` identifies the request
    (SETUP_OP during set-up); ``parent`` is the enclosing span's id."""

    op: int
    span_id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def layer_modules() -> list:
    return [importlib.import_module(f"mbdenoise.{layer}") for layer in LAYERS]


def _span_name(fn) -> str | None:
    package, _, layer = fn.__module__.rpartition(".")
    if package != "mbdenoise" or layer not in LAYERS or fn.__name__.startswith("_"):
        return None
    return f"{layer}.{fn.__name__}"


class Tracer:
    """Collects spans while ``active`` is entered; wraps nothing otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = SETUP_OP

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(self._op, len(spans), parent.span_id if parent else -1,
                        name, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self, op: int):
        """Wrap every layer function for the duration of the block."""
        patched = []
        wrappers: dict = {}
        try:
            for module in layer_modules():
                for attr, obj in list(vars(module).items()):
                    if not inspect.isfunction(obj):
                        continue
                    name = _span_name(obj)
                    if name is None:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(name, obj)
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
            self._op = op
            yield self
        finally:
            for module, attr, obj in reversed(patched):
                setattr(module, attr, obj)
            self._op = SETUP_OP

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.op, s.span_id, s.parent, s.name,
                                     s.start, s.end, s.counts]) + "\n")


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> tuple[dict[str, NameStats], dict[str, int]]:
    """Per-name totals over request spans, and summed counters.

    ``net.forward_batch`` calls are split by role: a call that directly
    follows ``net.adam_step`` under the same parent is the per-iteration
    validation forward, any other is a training forward.
    """
    stats: dict[str, NameStats] = {}
    counts: dict[str, int] = {}
    last_child: dict[tuple[int, int], str] = {}
    for s in spans:
        if s.op == SETUP_OP:
            continue
        name = s.name
        sibling_key = (s.op, s.parent)
        if name == "net.forward_batch":
            val = last_child.get(sibling_key) == "net.adam_step"
            name = f"{name}.{'val' if val else 'train'}"
        last_child[sibling_key] = s.name
        entry = stats.setdefault(name, NameStats())
        entry.calls += 1
        entry.self_s += s.self_s
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
    return stats, counts


def mean_call_s(spans: list[Span], name: str) -> float:
    """Mean inclusive duration of one call, over set-up and requests."""
    durations = [s.duration for s in spans if s.name == name]
    return sum(durations) / len(durations) if durations else 0.0
