import importlib.util
import os
import re

import pytest

from stgraph.numgrad import Tensor
from stgraph.passing import ModelConfig
from stgraph.train import init_params, save_checkpoint

_SPEC = importlib.util.spec_from_file_location(
    "numdiff", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "numdiff.py"))
numdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(numdiff)

CONFIG = ModelConfig(state_dim=2, heads=1, feature_channels=2, action_classes=2)


def _checkpoint(tmp_path, nudge=0.0, config=CONFIG) -> bytes:
    """A tiny model's checkpoint, one value of readout.action.bias moved by nudge; its bytes."""
    params = init_params(config, seed=0)
    params["readout.action.bias"] = Tensor(params["readout.action.bias"].data + [0.0, nudge])
    path = str(tmp_path / "checkpoint.safetensors")
    save_checkpoint(path, params, config, seed=0, log=[{"epoch": 0, "loss": 0.5}])
    with open(path, "rb") as f:
        return f.read()


def _tree(root, files: dict[str, bytes]) -> str:
    for path, raw in files.items():
        os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
        with open(os.path.join(root, path), "wb") as f:
            f.write(raw)
    return str(root)


def test_numdiff_reports_the_largest_deviation_per_differing_file(tmp_path, capsys):
    old = _tree(tmp_path / "a", {
        "run/checkpoint.safetensors": _checkpoint(tmp_path),
        "train.txt": b"epoch 0 loss 0.5270 lr 0.1\nhead1 ok\n",
        "same.txt": b"mAP 1.0\n",
        "report.txt": b"classes 3\n",
        "grids/k0.grid": b"\xff\xfe\x00",
        "gone.txt": b"1\n",
        "wide/checkpoint.safetensors": _checkpoint(tmp_path),
    })
    new = _tree(tmp_path / "b", {
        "run/checkpoint.safetensors": _checkpoint(tmp_path, 2 ** -40),
        "train.txt": b"epoch 0 loss 0.5646 lr 0.1\nhead1 ok\n",
        "same.txt": b"mAP 1.0\n",
        "report.txt": b"labels 3\n",
        "grids/k0.grid": b"\xff\xfe\x01",
        "added.txt": b"2\n",
        "wide/checkpoint.safetensors": _checkpoint(tmp_path, config=ModelConfig(
            state_dim=3, heads=1, feature_channels=2, action_classes=2)),
    })
    assert numdiff.main([old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the tensors' values, decoded, and the header's numbers: offsets, shapes, config and log
    values = sum(t.data.size for t in init_params(CONFIG, seed=0).values())
    count = re.fullmatch(rf"run/checkpoint\.safetensors: largest deviation "
                         rf"{re.escape(f'{2 ** -40:.3g}')} over (\d+) numbers \(1 differ\)",
                         lines[4])
    assert count and int(count[1]) > values
    assert lines[:4] + lines[5:] == [
        f"added.txt: only in {new}",
        f"gone.txt: only in {old}",
        "grids/k0.grid: binary, differs",
        "report.txt: differs in structure, not only in numbers",
        "train.txt: largest deviation 0.0376 over 3 numbers (1 differ)",
        "wide/checkpoint.safetensors: differs in structure, not only in numbers",
    ]


def test_numdiff_is_quiet_on_equal_trees_and_reads_words_as_text(tmp_path, capsys):
    files = {"x/attention.jsonl": b'{"head": 1, "weights": [0.25, 0.75]}\n'}
    assert numdiff.main([_tree(tmp_path / "a", files), _tree(tmp_path / "b", files)]) == 0
    assert capsys.readouterr().out == ""
    # the digits of a name are text, not numbers: iter0 against iter1 is a structural change
    assert numdiff.compare(b"mp.iter0.w 1.5", b"mp.iter1.w 1.5").startswith("differs in structure")
    assert numdiff.compare(b"w -1e-3", b"w -2e-3") == (
        "largest deviation 0.001 over 1 numbers (1 differ)")


def test_numdiff_help_warns_about_the_warm_start(capsys):
    with pytest.raises(SystemExit):
        numdiff.main(["--help"])
    assert "warmrun/" in capsys.readouterr().out
