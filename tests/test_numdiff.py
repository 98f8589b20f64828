import base64
import importlib.util
import os

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "numdiff", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "numdiff.py"))
numdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(numdiff)


def _checkpoint(values) -> bytes:
    data = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()
    return ('{"config":{"heads":2},"params":{"mp.iter0.w":{"data":"%s","shape":[%d]}},'
            '"seed":0}\n' % (data, len(values))).encode()


def _tree(root, files: dict[str, bytes]) -> str:
    for path, raw in files.items():
        os.makedirs(os.path.dirname(os.path.join(root, path)), exist_ok=True)
        with open(os.path.join(root, path), "wb") as f:
            f.write(raw)
    return str(root)


def test_numdiff_reports_the_largest_deviation_per_differing_file(tmp_path, capsys):
    old = _tree(tmp_path / "a", {
        "run/checkpoint.json": _checkpoint([1.0, -2.0, 3.0]),
        "train.txt": b"epoch 0 loss 0.5270 lr 0.1\nhead1 ok\n",
        "same.txt": b"mAP 1.0\n",
        "report.txt": b"classes 3\n",
        "grids/k0.grid": b"\xff\xfe\x00",
        "gone.txt": b"1\n",
    })
    new = _tree(tmp_path / "b", {
        "run/checkpoint.json": _checkpoint([1.0, -2.0 + 2 ** -40, 3.0]),
        "train.txt": b"epoch 0 loss 0.5646 lr 0.1\nhead1 ok\n",
        "same.txt": b"mAP 1.0\n",
        "report.txt": b"labels 3\n",
        "grids/k0.grid": b"\xff\xfe\x01",
        "added.txt": b"2\n",
    })
    assert numdiff.main([old, new]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"added.txt: only in {new}",
        f"gone.txt: only in {old}",
        "grids/k0.grid: binary, differs",
        "report.txt: differs in structure, not only in numbers",
        f"run/checkpoint.json: largest deviation {2 ** -40:.3g} over 5 numbers (1 differ)",
        "train.txt: largest deviation 0.0376 over 3 numbers (1 differ)",
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
