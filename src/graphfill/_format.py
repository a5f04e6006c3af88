"""Decimal text rendering shared by prompts, mock replies, and file writers."""

from __future__ import annotations

import math


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
