#!/usr/bin/env python3
"""Largest numeric deviation between two tools/walkthrough.sh output trees.

    tools/walkthrough.sh old/src a && tools/walkthrough.sh src b && tools/numdiff.py a b

For every file whose bytes differ, prints the largest absolute difference
over all the numbers it holds.  A checkpoint (8-byte header length, JSON
header, raw tensors) counts as its header's text, numbers included, and
every tensor's little-endian float64 values, each decoded from the
header's data_offsets in name order.  A file whose text differs outside
its numbers, or whose numbers do not pair up one to one, is named as
differing in structure, as is any other binary file.  Files found in one
tree only are listed too.  Exits 1 when anything differs, else 0.

The walkthrough's warm start (warmrun/, warmtrain.txt) restarts the full
schedule on converged weights and amplifies last-bit differences into a
different model, so its deviations say nothing about a numeric change.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

# how compare describes two files whose text differs outside its numbers
STRUCTURE = "differs in structure, not only in numbers"
# a number that does not continue a word, such as the 0 of iter0
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def checkpoint(raw: bytes) -> tuple[bytes, list[np.ndarray]] | None:
    """(the header, each tensor's values in name order) of a checkpoint; None for other files."""
    n = int.from_bytes(raw[:8], "little")
    if len(raw) < 8 or n > len(raw) - 8:
        return None
    try:
        header = json.loads(raw[8:8 + n])
        spans = sorted((name, entry["data_offsets"]) for name, entry in header.items()
                       if name != "__metadata__")
        body = raw[8 + n:]
        return raw[8:8 + n], [np.frombuffer(body[begin:end], dtype="<f8")
                              for _, (begin, end) in spans]
    except (ValueError, TypeError, KeyError, AttributeError):
        return None


def numbers(raw: bytes) -> tuple[str, np.ndarray] | None:
    """(the text with each number replaced by a mark, the values in order, tensors last).

    None for a file that is neither UTF-8 text nor a checkpoint.
    """
    tensors = []
    if (found := checkpoint(raw)) is not None:
        raw, tensors = found
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    values = [float(m.group()) for m in NUMBER.finditer(text)]
    skeleton = NUMBER.sub("#", text)
    return skeleton, np.concatenate([np.array(values, dtype=np.float64)] + tensors)


def compare(old: bytes, new: bytes) -> str:
    """One line describing how new differs from old, which differ in bytes."""
    a, b = numbers(old), numbers(new)
    if a is None or b is None:
        return "binary, differs"
    if a[0] != b[0] or a[1].shape != b[1].shape:
        return STRUCTURE
    return deviation(a[1], b[1])


def deviation(old: np.ndarray, new: np.ndarray) -> str:
    """The largest absolute difference of two equally shaped arrays, and how many entries differ."""
    gap = np.abs(old - new)
    return (f"largest deviation {gap.max():.3g} over {gap.size} numbers "
            f"({np.count_nonzero(gap)} differ)")


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], epilog=__doc__.split(
        "\n\n", 2)[2], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="the walkthrough output tree to compare against")
    parser.add_argument("new", help="the walkthrough output tree to compare")
    args = parser.parse_args(argv)
    old, new = files(args.old), files(args.new)
    differs = False
    for path in sorted(old | new):
        if path not in new or path not in old:
            print(f"{path}: only in {args.old if path in old else args.new}")
            differs = True
            continue
        with open(os.path.join(args.old, path), "rb") as f:
            a = f.read()
        with open(os.path.join(args.new, path), "rb") as f:
            b = f.read()
        if a != b:
            print(f"{path}: {compare(a, b)}")
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
