"""Deterministic CSV emission with atomic writes."""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import tempfile
from typing import Sequence

from .events import EventFormatError


@contextlib.contextmanager
def atomic_open(path):
    """Open a temp file beside ``path`` for UTF-8 text, written without newline
    translation; it replaces ``path`` when the block ends and is deleted if
    the block raises, which leaves any previous file at ``path`` intact. The
    file gets the mode ``open`` would give a new file: 0o666 less the umask."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        umask = os.umask(0)  # reading the umask means setting it; it is restored at once
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _quoted(cell: str) -> str:
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write rows atomically (temp file + rename). Floats use %.10g so repeated
    runs with identical inputs produce identical bytes. Quoting is minimal: a
    cell holding a comma, quote, CR or LF is quoted, with quotes doubled, and
    so is the cell of a row of one empty cell; others are bare. These are the
    bytes of ``csv.writer`` with that quoting rule (Python 3.11's writer leaves
    a lone CR bare, and ``read_csv`` would then split the row)."""
    with atomic_open(path) as fh:
        for row in itertools.chain([header], rows):
            cells = [f"{c:.10g}" if isinstance(c, float) else str(c) for c in row]
            line = ",".join(cells)
            if (line and line.count(",") == len(cells) - 1
                    and '"' not in line and "\r" not in line and "\n" not in line):
                fh.write(line + "\n")
            else:
                fh.write('""\n' if cells == [""] else ",".join(map(_quoted, cells)) + "\n")


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
