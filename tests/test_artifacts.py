import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurphy.artifacts import write_atomic, write_csv

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(),
                  st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                  st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                        exclude_characters=",")))
EDGES = [0.1, 1.0 / 3.0, -2.5e-300, 1e17, 5e-324]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=5))
@example([EDGES, [np.float64(x) for x in EDGES]])
def test_write_csv_cells_read_back_with_floats_spelled_as_json(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["a", "b"], rows)
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b" and lines[-1] == ""
    for row, line in zip(rows, lines[1:-1], strict=True):
        for cell, text in zip(row, line.split(","), strict=True):
            if isinstance(cell, float):  # np.float64 is a float
                assert text == json.dumps(float(cell)) and float(text) == cell
            elif isinstance(cell, str):
                assert text == cell
            else:
                assert int(text) == cell


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
    assert path.read_text() == "name,n,x\na,3,0.1\nb,-1,2.0\n"


def test_write_csv_cell_types(tmp_path):
    # each as str writes it: a numpy float32 in the shortest text that reads
    # back to it at float32's precision
    path = tmp_path / "t.csv"
    write_csv(path, ["c"] * 6, [[True, np.int64(7), np.uint8(2), np.True_,
                                 np.float64(0.5), np.float32(0.1)]])
    assert path.read_text() == "c,c,c,c,c,c\nTrue,7,2,True,0.5,0.1\n"
