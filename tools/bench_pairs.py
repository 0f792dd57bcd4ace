"""Run alternating parent/change benchmark pairs and write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload evaluate --seeds 0-9 --label polyphase

Each pair runs ``python3 mbbench/run.py --workload W --seed S --seconds T
--trace X`` once in each checkout, with T the ``run_seconds`` of the
change's BENCHMARK.json, the parent first on even seeds and the change
first on odd ones, so slow and fast stretches of a shared host fall on
both sides. The runs are summarised per metric: each side's runs,
median and interquartile range, how many pairs the change won (in the
metric's ``better`` direction from BENCHMARK.json), and whether a gain
claim holds (at least nine wins in ten, a median gain larger than the
parent's IQR, and no more failed operations than the parent). Untraced
runs also summarise the frame latencies that run.py prints on its
environment line (the ``stream`` workload's). One workload and trace
mode is written per call, into the ``end_to_end`` or ``traced`` section
of the file; other sections already in the file are kept. The file is
written in the repository root and rewritten after every pair, so an
interrupted batch keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ENV_KEYS = ("nproc", "blas_threads", "blas", "numpy", "python", "machine")
# Figures of run.py's environment line that BENCHMARK.json does not list.
NAMED_DIRECTIONS = {"frame_latency_p50_ms": "lower", "frame_latency_p99_ms": "lower"}


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '3,5,7' (or a mix: '0-2,7') to a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name to 'lower' or 'higher', from BENCHMARK.json, plus the
    frame latencies of the environment line."""
    return {**NAMED_DIRECTIONS, **{m["name"]: m["better"] for section in ("end_to_end", "per_layer")
                                   for m in benchmark.get(section, [])}}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One benchmark run in a checkout: (environment record, result).

    The result's metrics also hold the figures of the environment line
    that the result line does not."""
    proc = subprocess.run(
        [sys.executable, "mbbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run in {checkout} (seed {seed}) exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    env_line, result = json.loads(lines[-2]), json.loads(lines[-1])
    result["metrics"] = {**env_line.get("named", {}), **result["metrics"]}
    return env_line["env"], result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of paired runs.

    parent[k] and change[k] are the result objects that run.py printed
    for pair k ({"failed": ..., "metrics": {name: {"value", "unit"}}}).
    A pair is a win when the change's value is strictly better in the
    metric's direction. A claim holds when the change wins at least 90%
    of the pairs, its median beats the parent's by more than the
    parent's IQR, and its runs failed no more operations than the
    parent's. Metrics without a direction are skipped.
    """
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs but {len(change)} change runs")
    failed = {"parent": sum(r["failed"] for r in parent),
              "change": sum(r["failed"] for r in change)}
    names = [n for n in parent[0]["metrics"] if n in better] if parent else []
    metrics = {}
    for name in names:
        p_runs = [float(r["metrics"][name]["value"]) for r in parent]
        c_runs = [float(r["metrics"][name]["value"]) for r in change]
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(p_runs, c_runs))
        p_q1, p_med, p_q3 = _quartiles(p_runs)
        c_q1, c_med, c_q3 = _quartiles(c_runs)
        metrics[name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "better": better[name],
            "parent_median": round(p_med, 6),
            "parent_iqr": round(p_q3 - p_q1, 6),
            "change_median": round(c_med, 6),
            "change_iqr": round(c_q3 - c_q1, 6),
            "change_wins": f"{wins}/{len(p_runs)}",
            "claim_holds": bool(wins >= 0.9 * len(p_runs)
                                and sign * (c_med - p_med) > p_q3 - p_q1
                                and failed["change"] <= failed["parent"]),
            "parent_runs": [round(v, 6) for v in p_runs],
            "change_runs": [round(v, 6) for v in c_runs],
        }
    return {
        "pairs": len(parent),
        "failed_ops": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-9 or 0,2,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", default="", help="one-line description of the change")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = metric_directions(benchmark)
    seconds = benchmark["run_seconds"]
    out = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else {"label": args.label}
    if args.what:
        record["what"] = args.what
    section = record.setdefault("traced" if args.trace else "end_to_end", {})
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    commits = {}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            env, result = run_once(getattr(args, side).resolve(), args.workload, seed,
                                   seconds, args.trace)
            runs[side].append(result)
            commits[side] = env.get("git_commit", "unknown")
            record["environment"] = {key: env.get(key) for key in ENV_KEYS}
        entry = summarize(runs["parent"], runs["change"], better)
        entry.update(seeds=seeds[: k + 1], seconds=seconds, commits=commits,
                     command=(f"python3 mbbench/run.py --workload {args.workload} "
                              f"--seed N --seconds {seconds:g} --trace {args.trace}; "
                              "alternating, parent first on even seeds"))
        section[args.workload] = entry
        out.write_text(json.dumps(record, indent=1) + "\n")
        wins = {n: m["change_wins"] for n, m in entry["metrics"].items()
                if n in ("wall_s", "work_per_s", "peak_rss_mb", "setup_s")}
        print(f"pair {k + 1}/{len(seeds)} seed {seed}: {wins}", file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
