"""The artefact comparison of tools/same_results.py on canned files, and
the commands it would run; no pipeline is run."""

import importlib.util
import subprocess
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

    def fake_run(cmd, **kwargs):
        commands.append((cmd, kwargs["env"]["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(same_results.subprocess, "run", fake_run)
    parent, change = tmp_path / "p", tmp_path / "c"
    assert same_results.main(["--parent", str(parent), "--change", str(change), *argv]) == 0
    stages = ["gen-data", "train", "evaluate", "denoise", "report"]
    assert [cmd[3] for cmd, _ in commands] == stages * 2
    assert [path for _, path in commands] == (
        [str(parent.resolve() / "src")] * 5 + [str(change.resolve() / "src")] * 5)
    for cmd, _ in commands:
        at = cmd.index("--seed")
        assert cmd[at + 1] == seed and cmd.count("--seed") == 1
