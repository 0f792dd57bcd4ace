"""The artefact comparison of tools/same_results.py on canned files, and
the commands it would run; no pipeline is run."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from mbdenoise import dsp, net

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
spec = importlib.util.spec_from_file_location("same_results", SCRIPT)
same_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_results)


def write(root: Path, rel: str, data: bytes | str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data.encode() if isinstance(data, str) else data)


def small_net() -> net.Network:
    spec = dsp.design_butterworth(8, 100.0, 4096.0, kernel_len=7)
    return net.init_network(4, 0, spec, dim=16)


def test_compare_trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        write(root, "corpus/noise/N0.wav", b"RIFF\xff\x00")
        net.save_checkpoint(root / "same.bin", small_net())
    write(parent, "scores.csv", "# seed=0\n# batch_size=0\nsnr_db,p\n0,0.5\n")
    write(change, "scores.csv", "# seed=0\n# hidden=64\nsnr_db,p\n0,0.5\n")
    write(parent, "log.csv", "# seed=0\nphase,mse\n0,1.5\n")
    write(change, "log.csv", "# seed=0\nphase,mse\n0,1.25\n")
    write(parent, "d.wav", b"RIFF\xff\x01")
    write(change, "d.wav", b"RIFF\xff\x02")
    moved = small_net()
    moved.w2[3, 1] += 2.5e-15
    moved.b1[0] -= 1e-16
    for root, model in ((parent, small_net()), (change, moved)):
        (root / "rot").mkdir()
        net.save_checkpoint(root / "rot" / "checkpoint.bin", model)
    write(parent, "gone.txt", "x\n")
    write(change, "new.txt", "x\n")

    results = same_results.compare_trees(parent, change)
    assert results == {
        "corpus/noise/N0.wav": ["identical"],
        "same.bin": ["identical"],
        "scores.csv": ["differs only in # header lines",
                       "- # batch_size=0", "+ # hidden=64"],
        "log.csv": ["differs"],
        "d.wav": ["differs"],
        "rot/checkpoint.bin": [f"largest absolute parameter difference "
                               f"{abs(moved.w2[3, 1] - small_net().w2[3, 1]):.3g} (w2)"],
        "gone.txt": ["only in parent"],
        "new.txt": ["only in change"],
    }


def test_checkpoint_shapes_and_unreadable(tmp_path):
    wide = small_net()
    narrow = net.init_network(3, 0, dsp.design_butterworth(8, 100.0, 4096.0, kernel_len=7),
                              dim=16)
    net.save_checkpoint(tmp_path / "a.bin", wide)
    net.save_checkpoint(tmp_path / "b.bin", narrow)
    (tmp_path / "c.bin").write_bytes(b"not a checkpoint")
    assert same_results.compare_file(tmp_path / "a.bin", tmp_path / "b.bin") == [
        "differs: parameter shapes"]
    verdict = same_results.compare_file(tmp_path / "a.bin", tmp_path / "c.bin")
    assert verdict[0].startswith("differs (") and "not a checkpoint" in verdict[0]


@pytest.mark.parametrize("argv, seed", [([], "0"), (["--seed", "7"], "7")])
def test_every_command_runs_at_the_seed(tmp_path, monkeypatch, capsys, argv, seed):
    commands = []

    def fake_run(cmd, env, cwd):
        commands.append((cmd, env["PYTHONPATH"]))
        return 0, "", float(len(commands)), 10.0 * len(commands)

    monkeypatch.setattr(same_results, "run_command", fake_run)
    parent, change = tmp_path / "p", tmp_path / "c"
    assert same_results.main(["--parent", str(parent), "--change", str(change), *argv]) == 0
    stages = ["gen-data", "train", "evaluate", "denoise", "report"]
    assert [cmd[3] for cmd, _ in commands] == stages * 2
    assert [path for _, path in commands] == (
        [str(parent.resolve() / "src")] * 5 + [str(change.resolve() / "src")] * 5)
    for cmd, _ in commands:
        at = cmd.index("--seed")
        assert cmd[at + 1] == seed and cmd.count("--seed") == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("cost per command, parent -> change:")
    assert out[at + 1:] == [
        f"    {stage}: wall {k:.2f} -> {k + 5:.2f} s, "
        f"peak RSS {10 * k:.1f} -> {10 * (k + 5):.1f} MB"
        for k, stage in enumerate(stages, start=1)]


def test_prints_the_blas_threads_of_the_commands(tmp_path, monkeypatch, capsys):
    # The commands inherit this process's environment.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setattr(same_results, "run_command", lambda cmd, env, cwd: (0, "", 1.0, 1.0))
    same_results.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c")])
    assert ("BLAS threads of every command: OMP_NUM_THREADS=2, OPENBLAS_NUM_THREADS=1, "
            "MKL_NUM_THREADS=unset") in capsys.readouterr().out.splitlines()


def test_failed_command_raises_with_its_stderr(tmp_path, monkeypatch):
    monkeypatch.setattr(same_results, "run_command",
                        lambda cmd, env, cwd: (2, "data error: no manifest\n", 0.1, 50.0))
    with pytest.raises(RuntimeError, match="exited 2: data error: no manifest"):
        same_results.run_pipeline(tmp_path, tmp_path, 0)


def test_run_command_measures_the_child(tmp_path):
    # A child that holds 64 MB, writes to stderr and exits 3: its own
    # peak, not this process's, is reported.
    code = ("import sys, time; block = bytearray(64 * 2**20); "
            "sys.stderr.write('held'); time.sleep(0.05); sys.exit(3)")
    status, stderr, wall_s, peak_mb = same_results.run_command(
        [sys.executable, "-c", code], dict(os.environ), tmp_path)
    assert (status, stderr) == (3, "held")
    assert wall_s >= 0.05
    assert 64 * 2**20 / 1e6 < peak_mb < 64 * 2**20 / 1e6 + 200
