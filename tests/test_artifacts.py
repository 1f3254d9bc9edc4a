import os
import stat

import numpy as np
import pytest

from neurphy.artifacts import fmt, write_atomic, write_csv


def test_fmt_round_trips_float64():
    for x in (0.1, 1.0 / 3.0, -2.5e-300, 1e17, 5e-324):
        assert float(fmt(x)) == x


def test_write_atomic_replaces_with_plain_open_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w") as f:
        f.write("x")
    path = tmp_path / "a.txt"
    path.write_text("old contents")
    write_atomic(path, "new")
    write_atomic(tmp_path / "b.bin", b"\x00\x01")
    assert path.read_text() == "new"
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
    assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin", "plain.txt"]


def test_write_atomic_streams_chunks_and_leaves_nothing_when_they_fail(tmp_path):
    write_atomic(tmp_path / "a.txt", (f"{i}\n" for i in range(3)))
    assert (tmp_path / "a.txt").read_text() == "0\n1\n2\n"

    def chunks():
        yield "written\n"
        raise RuntimeError("the source failed")

    with pytest.raises(RuntimeError, match="the source failed"):
        write_atomic(tmp_path / "b.txt", chunks())
    assert os.listdir(tmp_path) == ["a.txt"]


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "n", "x"], [["a", 3, 0.1], ["b", -1, 2.0]])
    assert path.read_text() == "name,n,x\na,3,0.10000000000000001\nb,-1,2\n"


def test_write_csv_cell_types(tmp_path):
    # as the numbers.Integral check wrote them: bools and numpy integers as
    # str, numpy bools and floats through fmt
    path = tmp_path / "t.csv"
    write_csv(path, ["c"] * 6, [[True, np.int64(7), np.uint8(2), np.True_,
                                 np.float64(0.5), np.float32(0.1)]])
    assert path.read_text() == "c,c,c,c,c,c\nTrue,7,2,1,0.5,0.10000000149011612\n"
