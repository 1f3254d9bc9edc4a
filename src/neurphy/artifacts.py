"""Artifact writes: atomic replace, and CSV tables.
Every file the package writes goes through write_atomic, so a crash mid-write
leaves the previous file or none, never a torn one."""

import os
from itertools import chain


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
    """One comma-separated line for the header, then one per row of an
    iterable of cell lists, each row written as it comes. Every cell is
    written with str, so a float (Python's or numpy's float64) is spelled
    as json spells the task files: the shortest text that reads back to it."""
    write_atomic(path, (",".join(map(str, row)) + "\n" for row in chain([header], rows)))
