"""Text shared across modules: decimal rendering for prompts, mock replies and file
writers, the one whole-file read of the line-based input files, and the one reader
and one writer of the numeric CSV files, the signal and the station coordinates."""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np


def read_text(path: Path, error: type[ValueError] = ValueError) -> str:
    """The text of a UTF-8 file, a leading byte order mark dropped; other bytes are an ``error`` naming it."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def format_value(value: float) -> str:
    """Render a finite float as plain decimal text that parses back exactly.

    Whole numbers drop the trailing ``.0`` (3.0 becomes "3"); everything else
    uses the shortest representation that round-trips, so
    ``float(format_value(x)) == x`` for any finite ``x``.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot format non-finite value {value!r}")
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def read_number_table(path: str | Path, what: str) -> tuple[list[str] | None, np.ndarray]:
    """Read a numeric CSV: its header cells (None without one) and its finite values, N x width.

    The first non-blank row is a header when any of its cells is not a number. Cells may be quoted,
    as csv quotes them; blank rows are skipped and a leading byte order mark is dropped. The first
    faulty cell or row is a load error naming its row (and column), no row an ``empty {what} file``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
        if '"' in text:  # csv unquotes
            rows = [row for row in csv.reader(io.StringIO(text, newline="")) if any(map(str.strip, row))]
            split = list
        else:  # csv's row rules; each row is split only when it is read
            # csv ends a row at "\n", "\r\n" or a lone "\r", and skips a row of blank cells,
            # which never starts with one of "-./0123456789".
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            rows = [row for row in lines if "-" <= row[:1] <= "9" or row.replace(",", "").strip()]
            split = lambda row: row.split(",")
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    first, header = 1, None
    try:
        [float(cell) for cell in split(rows[0])]
    except ValueError:
        header, rows, first = split(rows[0]), rows[1:], 2
    if not rows:
        raise ValueError(f"{path}: header but no data rows")
    widths: list[int] = []

    def cells(row) -> list[str]:
        row = split(row)
        widths.append(len(row))
        return row

    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(map(cells, rows))), dtype=float)
        ok = len(set(widths)) == 1 and np.isfinite(values).all()
    except ValueError:
        ok = False
    if not ok:  # name the first fault in file order
        width = len(split(rows[0]))
        for lineno, row in enumerate(map(split, rows), start=first):
            if len(row) != width:
                raise ValueError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
            for col, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{path}: row {lineno}, column {col}: not a number: {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: row {lineno}, column {col}: non-finite cell {cell!r}")
    return header, values.reshape(len(rows), -1)


def write_number_table(path: str | Path, header: list[str], rows: np.ndarray) -> None:
    """Write ``header`` and the finite ``rows`` as csv would, with CRLF line ends: each value as
    ``format_value`` writes it, but a negative zero as ``-0``, so every value reads back bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in np.asarray(rows, dtype=float).tolist():
            cells = ("-0" if v == 0 and math.copysign(1.0, v) < 0 else format_value(v) for v in row)
            fh.write(",".join(cells) + "\r\n")
