import csv
import io
import os
import stat

import pytest
from hypothesis import given, strategies as st

from driftscope.events import EventFormatError
from driftscope.tables import atomic_open, format_cell, read_csv, write_csv


def csv_writer_bytes(header, rows):
    """What csv.writer of the running interpreter writes for the same cells,
    with a cell holding a CR quoted as well. The writer quotes a cell holding
    any character of its line terminator, so each row is written with "\r\n"
    and then ends in "\n"."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\r\n").writerow([format_cell(c) for c in row])
        lines.append(buf.getvalue()[: -len("\r\n")] + "\n")
    return "".join(lines).encode("utf-8")


HOSTILE = ["a,b", 'say "hi"', '"', "cr\rx", "lf\nx", "\r\n", " lead", "trail ", " ",
           "crème brûlée", "心拍", "", ",", "x\ty", "#"]


@pytest.mark.parametrize("cell", HOSTILE)
def test_bytes_are_those_of_csv_writer(tmp_path, cell):
    path = tmp_path / "t.csv"
    header = ["episode", "feature", "weight"]
    rows = [[cell, "plain", 0.5], ["e2", cell, 1.5], [cell], ["e3", "f", 2]]
    write_csv(path, header, rows)
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_row_of_one_empty_cell_is_quoted(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[""], ["x"], ["", ""]])
    assert path.read_bytes() == b'a\n""\nx\n,\n'
    assert path.read_bytes() == csv_writer_bytes(["a"], [[""], ["x"], ["", ""]])


@given(st.lists(st.lists(st.one_of(st.text(), st.floats(allow_nan=False), st.integers()),
                         min_size=1, max_size=4), max_size=5))
def test_any_cells_give_the_bytes_of_csv_writer(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["h"], rows)
    assert path.read_bytes() == csv_writer_bytes(["h"], rows)


def test_plain_cells_are_written_bare(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [["x-1", 2, 0.1 + 0.2], ["y", -3, 1e-12]])
    assert path.read_bytes() == b"a,b,c\nx-1,2,0.3\ny,-3,1e-12\n"


def test_lone_cr_cell_round_trips(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["episode", "feature", "weight"], [["a\rb", "f", 0.5]])
    assert read_csv(path, ["episode", "feature", "weight"])[1] == [["a\rb", "f", "0.5"]]


@pytest.mark.parametrize("fid", ['heart,rate', 'say "hi"', 'line\nbreak', 'crème, "brûlée"'])
def test_hostile_ids_round_trip(tmp_path, fid):
    path = tmp_path / "t.csv"
    write_csv(path, ["episode", "feature", "weight"], [[fid, fid, 0.5], ["e2", "plain", 1.5]])
    header, rows = read_csv(path, ["episode", "feature", "weight"])
    assert header == ["episode", "feature", "weight"]
    assert rows == [[fid, fid, "0.5"], ["e2", "plain", "1.5"]]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [[1]])
    with pytest.raises(RuntimeError, match="partway"):
        with atomic_open(path) as fh:
            fh.write("a\n2\n")
            raise RuntimeError("partway")
    with pytest.raises(TypeError):
        write_csv(path, ["a"], [[2], None])  # the second row is not iterable
    assert path.read_bytes() == b"a\n1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["022", "077", "002"])
def test_written_file_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "t.csv"
    old = os.umask(umask)
    try:
        write_csv(path, ["a"], [[1]])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_empty_file_is_format_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EventFormatError, match="empty"):
        read_csv(path)


def test_headerless_file_is_format_error(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("e1,0,3,0,10,checkpoint\n")
    with pytest.raises(EventFormatError, match="header"):
        read_csv(path, ["episode", "t0", "t1", "t0_time_s", "t1_time_s", "source"])


def test_short_row_is_format_error(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(EventFormatError, match="row 2"):
        read_csv(path, ["a", "b"])
