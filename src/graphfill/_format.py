"""Text shared across modules: decimal rendering for prompts, mock replies and
file writers, and the one whole-file read of the line-based input files."""

from __future__ import annotations

import math
from pathlib import Path


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
