"""Deterministic CSV output: 17-significant-digit doubles, atomic writes.

A table is either rows of values, each formatted by ``fmt``, or a 2-D float
array, formatted as a whole by one ``%`` operation with a ``%.17g`` field
per cell; both give the same bytes for the same floats.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_atomic(path: str, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it over
    ``path``; the temp file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows atomically (temp file + rename), '\\n' newlines.

    ``rows`` is an iterable of tuples or a 2-D float array.
    """

    def write(fh):
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            n_rows, n_cols = rows.shape
            line = ",".join(["%.17g"] * n_cols) + "\n"
            fh.write(line * n_rows % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")

    _write_atomic(path, write)


def write_text(path: str, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text))
