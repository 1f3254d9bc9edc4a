"""Artifact writes: round-trip float text, atomic replace, and CSV tables.
Every file the package writes goes through write_atomic, so a crash mid-write
leaves the previous file or none, never a torn one."""

import os

import numpy as np


def fmt(x):
    """17 significant digits: round-trips float64 exactly."""
    return format(float(x), ".17g")


def write_atomic(path, data):
    """Write str, bytes or an iterable of str chunks to a sibling temp file,
    then rename it over path; chunks are written as they come, so they need
    not all be held at once. open() creates the temp file, so path gets the
    mode a plain open() gives."""
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "xb" if isinstance(data, bytes) else "x")  # never another's temp
    try:
        with f:
            if isinstance(data, (str, bytes)):
                f.write(data)
            else:
                f.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """One comma-separated line per row of an iterable of cell lists;
    integers (bools included) and strings are written as they are, every other
    cell through fmt. The types are concrete: an ABC check per cell is slow."""
    def lines():
        yield ",".join(header) + "\n"
        for row in rows:
            yield ",".join(str(c) if isinstance(c, (str, int, np.integer))
                           else fmt(c) for c in row) + "\n"

    write_atomic(path, lines())
