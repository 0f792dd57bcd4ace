"""Check that two checkouts produce the same pipeline outputs.

    python3 tools/same_results.py --parent ../parent --change . [--seed N]

Runs the benchmark config (mbbench's ``rotation=0 phase_iters=40
freeze_iters=20``, seed N, 0 by default) through every command: ``gen-data``,
``train``, ``evaluate``, ``denoise`` of ``noise/N0.wav`` and ``report``,
in each checkout, with that checkout's own ``src`` on the path, into a
temporary directory. Then it prints one line per artefact (every corpus
WAV, sidecar and manifest, the checkpoint, the convergence and score
CSVs, the denoised WAV and its sidecar, and the report's
``detection_rates.csv`` and ``convergence_curves.csv``) with one of
these results; identical files are counted per directory instead:

- ``identical``: the bytes are equal;
- ``differs only in # header lines``, followed by the header lines only
  the parent has (``-``) and only the change has (``+``);
- for a checkpoint, the largest absolute parameter difference and the
  parameter it is in;
- ``differs``, or ``only in parent`` / ``only in change``.

Before the artefacts it prints the BLAS thread variables every command
ran with: products that sum over the rows of a batch round differently
with the thread count, so the two sides' bytes compare only under one
count. After the artefacts it prints each command's wall time and peak
resident memory (the child's ``ru_maxrss``) in both checkouts; these
lines are for information and do not change the exit status.

Exits 0 when every artefact is identical or differs only in header
lines, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mbdenoise import net  # noqa: E402
from mbdenoise.errors import DataError  # noqa: E402

SETTINGS = ("--set", "rotation=0", "--set", "phase_iters=40", "--set", "freeze_iters=20")
IDENTICAL = "identical"
HEADER_ONLY = "differs only in # header lines"
# The variables that set the BLAS library's thread count.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_command(cmd: list[str], env: dict[str, str],
                cwd: Path) -> tuple[int, str, float, float]:
    """Run one command to its end: (exit code, stderr, wall time in s,
    peak resident memory in MB)."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    # ru_maxrss is in KiB on Linux; MB as mbbench reports peak_rss_mb.
    return proc.returncode, stderr, wall_s, usage.ru_maxrss * 1024 / 1e6


def run_pipeline(checkout: Path, out: Path, seed: int) -> dict[str, tuple[float, float]]:
    """gen-data, train, evaluate, denoise and report with the checkout's
    sources, at the given seed; each command's wall time in s and peak
    resident memory in MB."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    checkpoint = out / "train" / "rotation_0" / "checkpoint.bin"
    costs = {}
    for args in (
        ("gen-data", "--out", out / "corpus"),
        ("train", "--corpus", out / "corpus", "--out", out / "train"),
        ("evaluate", "--corpus", out / "corpus", "--train-dir", out / "train",
         "--out", out / "eval"),
        ("denoise", "--checkpoint", checkpoint, "--in", out / "corpus" / "noise" / "N0.wav",
         "--out", out / "denoised.wav"),
        ("report", "--eval-dir", out / "eval", "--train-dir", out / "train",
         "--out", out / "report"),
    ):
        cmd = [sys.executable, "-m", "mbdenoise.cli", *map(str, args), "--seed", str(seed),
               *SETTINGS]
        code, stderr, wall_s, peak_mb = run_command(cmd, env, out)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                               f"{code}: {stderr.strip()[-2000:]}")
        costs[args[0]] = (wall_s, peak_mb)
    return costs


def _header_split(data: bytes) -> tuple[list[str], list[str]] | None:
    """(# lines, other lines) of UTF-8 text, or None for binary data."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    return ([ln for ln in lines if ln.startswith("#")],
            [ln for ln in lines if not ln.startswith("#")])


def _checkpoint_difference(parent: Path, change: Path) -> str:
    try:
        a, b = net.load_checkpoint(parent), net.load_checkpoint(change)
    except DataError as exc:
        return f"differs ({exc})"
    if a.params().keys() != b.params().keys() or any(
            a.params()[k].shape != b.params()[k].shape for k in a.params()):
        return "differs: parameter shapes"
    diffs = {k: float(np.max(np.abs(a.params()[k] - b.params()[k]))) for k in a.params()}
    name = max(diffs, key=diffs.get)
    return f"largest absolute parameter difference {diffs[name]:.3g} ({name})"


def compare_file(parent: Path, change: Path) -> list[str]:
    """The result for one artefact: its first line, then any detail lines."""
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return [IDENTICAL]
    if parent.suffix == ".bin":
        return [_checkpoint_difference(parent, change)]
    split_a, split_b = _header_split(a), _header_split(b)
    if split_a is None or split_b is None or split_a[1] != split_b[1]:
        return ["differs"]
    return ([HEADER_ONLY]
            + [f"- {ln}" for ln in split_a[0] if ln not in split_b[0]]
            + [f"+ {ln}" for ln in split_b[0] if ln not in split_a[0]])


def compare_trees(parent: Path, change: Path) -> dict[str, list[str]]:
    """Result per relative path of every file under either directory."""
    files = {p.relative_to(root).as_posix()
             for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    results = {}
    for rel in sorted(files):
        if not (parent / rel).is_file():
            results[rel] = ["only in change"]
        elif not (change / rel).is_file():
            results[rel] = ["only in parent"]
        else:
            results[rel] = compare_file(parent / rel, change / rel)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed for every command (default 0)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / side for side in ("parent", "change")}
        costs = {}
        for side, out in outs.items():
            out.mkdir()
            costs[side] = run_pipeline(getattr(args, side), out, args.seed)
        results = compare_trees(outs["parent"], outs["change"])
    print("BLAS threads of every command: "
          + ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS))
    identical: dict[str, int] = {}
    for rel, lines in results.items():
        if lines == [IDENTICAL]:
            folder = (rel.rpartition("/")[0] or ".") + "/"
            identical[folder] = identical.get(folder, 0) + 1
            continue
        print(f"{rel}: {lines[0]}")
        for detail in lines[1:]:
            print(f"    {detail}")
    for folder, count in identical.items():
        print(f"{folder} ({count} files): {IDENTICAL}")
    print("cost per command, parent -> change:")
    for command, (wall_p, peak_p) in costs["parent"].items():
        wall_c, peak_c = costs["change"][command]
        print(f"    {command}: wall {wall_p:.2f} -> {wall_c:.2f} s, "
              f"peak RSS {peak_p:.1f} -> {peak_c:.1f} MB")
    same = all(lines[0] in (IDENTICAL, HEADER_ONLY) for lines in results.values())
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
