"""trajectory.csv lines from float64 rows: ``write_rows``, and, run as ``python -S -I _trajectory_writer.py WIDTH``
(the standard library alone), a filter from raw native float64 rows of WIDTH values on stdin to lines on stdout."""

import sys

__all__ = ["write_rows"]


def _line_template(floats: int) -> str:
    """%-template of a CSV line: ``floats`` columns with 17 significant digits (exact round-trips), then a 0/1 flag."""
    return ",".join(["%.17g"] * floats) + ",%d\n"


def write_rows(out, rows) -> None:
    """Write each row of a (n, width) float64 block, a numpy array or a memoryview, to the text stream ``out``."""
    line = _line_template(rows.shape[1] - 1)
    out.write("".join([line % tuple(row) for row in rows.tolist()]))


if __name__ == "__main__":
    width = int(sys.argv[1])
    size = 8 * width * max(1, 8192 // width)  # whole rows, about one 64 KiB pipe buffer
    while block := sys.stdin.buffer.read(size):
        if n := len(block) // (8 * width):  # a row cut short by a parent killed mid-write is dropped
            write_rows(sys.stdout, memoryview(block)[: 8 * width * n].cast("d", (n, width)))
