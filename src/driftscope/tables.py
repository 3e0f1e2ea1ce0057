"""Deterministic CSV emission with atomic writes."""

from __future__ import annotations

import csv
import os
import tempfile
from typing import Sequence

from .events import EventFormatError


def format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write rows atomically (temp file + rename). Floats use %.10g so repeated
    runs with identical inputs produce identical bytes. Cells holding a comma,
    quote or line break are quoted; all others are written bare."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([format_cell(c) for c in row] for row in rows)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_csv(path, header: Sequence[str] | None = None) -> tuple[list[str], list[list[str]]]:
    """Read a file written by write_csv; blank lines are skipped.

    An empty file is an EventFormatError. With ``header`` given, the first row
    must equal it and every row must have as many cells.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(c.strip() for c in r)]
    if not rows:
        raise EventFormatError(f"{path}: empty CSV file, no header")
    if header is not None:
        if rows[0] != list(header):
            raise EventFormatError(f"{path}: expected header {','.join(header)!r}")
        for i, r in enumerate(rows[1:], start=1):
            if len(r) != len(header):
                raise EventFormatError(
                    f"{path}: data row {i} has {len(r)} cells, expected {len(header)}")
    return rows[0], rows[1:]
