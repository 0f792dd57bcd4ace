"""Run one benchmark workload of mbdenoise and print its metrics.

    python3 mbbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported
from the checkout's ``src``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it is the environment record, with the
untraced metrics also under the workload's own names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        current = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(current, nproc))
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def git_commit() -> str:
    """The checkout's HEAD commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_library() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "evaluate", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbdenoise" / "__init__.py").is_file():
        print(f"mbdenoise sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    trace_out = ROOT / ".mbbench-traces" / f"{args.workload}-seed{args.seed}.jsonl"
    with tempfile.TemporaryDirectory(prefix=".mbbench-work-", dir=ROOT) as work:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), Path(work),
                                        trace_out=trace_out if args.trace else None)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "blas_threads": blas_threads,
        "blas": blas_library(), "numpy": np.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
        "git_commit": git_commit(),
    }

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(json.dumps({"env": env, "named": as_json(result.get("named", {}))}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": as_json(result["metrics"]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
