import pytest

from driftscope.events import EventFormatError
from driftscope.tables import read_csv, write_csv


def test_plain_cells_are_written_bare(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [["x-1", 2, 0.1 + 0.2], ["y", -3, 1e-12]])
    assert path.read_bytes() == b"a,b,c\nx-1,2,0.3\ny,-3,1e-12\n"


@pytest.mark.parametrize("fid", ['heart,rate', 'say "hi"', 'line\nbreak', 'crème, "brûlée"'])
def test_hostile_ids_round_trip(tmp_path, fid):
    path = tmp_path / "t.csv"
    write_csv(path, ["episode", "feature", "weight"], [[fid, fid, 0.5], ["e2", "plain", 1.5]])
    header, rows = read_csv(path, ["episode", "feature", "weight"])
    assert header == ["episode", "feature", "weight"]
    assert rows == [[fid, fid, "0.5"], ["e2", "plain", "1.5"]]


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
