"""Serialization helpers shared by the artifact writers.

All floats in external files carry 17 significant digits, which guarantees
exact round-tripping of IEEE doubles.  Every CSV table goes through
write_csv and every JSON document through write_json.  Writes are atomic:
content goes to a temporary file in the target directory and is renamed
into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def format_float(x: float) -> str:
    """17-significant-digit representation, round-trip exact."""
    return format(float(x), ".17g")


def atomic_write_text(path, text: str):
    """Write text to ``path`` via a same-directory temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):  # also np.float64
        return format_float(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"unsupported CSV cell of type {type(value).__name__}")


def write_csv(path, header, rows):
    """Atomically write a CSV table: a header row, then one line per row.

    Cells render by type: bool as true/false, int as is, float at 17
    significant digits (inf as "inf"), str unchanged.
    """
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def dumps_json17(obj) -> str:
    """JSON text indented by two spaces, floats at 17 significant digits.

    Supports the plain JSON data model (dict, list, str, bool, None, int,
    float).  Key order is preserved, so byte output is deterministic for a
    deterministically built document.
    """

    def render(node, depth):
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = (
                f"{pad_in}{json.dumps(str(k))}: {render(v, depth + 1)}"
                for k, v in node.items()
            )
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            if not len(node):
                return "[]"
            items = (f"{pad_in}{render(v, depth + 1)}" for v in node)
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(node, bool) or node is None:
            return json.dumps(node)
        if isinstance(node, int):
            return str(node)
        if isinstance(node, float):
            if node != node or node in (float("inf"), float("-inf")):
                raise ValueError(f"non-finite float {node} in JSON document")
            return format_float(node)
        if isinstance(node, str):
            return json.dumps(node)
        raise TypeError(f"unsupported JSON value of type {type(node).__name__}")

    return render(obj, 0) + "\n"


def write_json(path, obj):
    atomic_write_text(path, dumps_json17(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()
