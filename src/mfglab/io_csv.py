"""Deterministic CSV output: 17-significant-digit doubles, atomic writes.

A table is either rows of values, each formatted by ``fmt``, or a ``Grid``
of values v[i, j] on a tensor grid s x y, written as the rows
(s_i, y_j, v[i, j]): each s and each y is formatted once, and the values of
one s by one ``%`` operation with a ``%.17g`` field per value.  Both give
the same bytes for the same floats.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Grid:
    """The rows (s[i], y[j], v[i, j]) of a table on the tensor grid s x y, s
    outermost; its length is its row count."""

    s: np.ndarray  # (ns,)
    y: np.ndarray  # (ny,)
    v: np.ndarray  # (ns, ny)

    def __len__(self) -> int:
        return self.v.size


def write_csv(path: str, header: list[str], rows) -> None:
    """Write rows atomically (temp file + rename), '\\n' newlines.

    ``rows`` is an iterable of tuples or a ``Grid``.
    """

    def write(fh):
        fh.write(",".join(header) + "\n")
        if isinstance(rows, Grid):
            # ",y_j,%.17g\n" for every j; formatted numbers hold no '%'
            tails = ["," + format(y, ".17g") + ",%.17g\n" for y in rows.y.tolist()]
            for s, v in zip(rows.s.tolist(), rows.v.tolist()):
                head = format(s, ".17g")
                fh.write("".join([head + tail for tail in tails]) % tuple(v))
            return
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")

    _write_atomic(path, write)


def write_text(path: str, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text))
