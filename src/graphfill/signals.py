"""Time-varying node signals, sampling masks, masked observations, synthetic generators."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._format import format_value
from .graphs import Graph, eigendecompose, laplacian

__all__ = [
    "SignalSeries",
    "SamplingMask",
    "Observation",
    "MaskSpec",
    "generate_mask",
    "observation_from_column",
    "synth_bandlimited",
    "read_signal_csv",
    "write_signal_csv",
    "read_mask_file",
    "write_mask_file",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SignalSeries:
    """Dense node-by-time signal matrix (row = node, column = time step)."""

    values: np.ndarray
    units: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"signal matrix must be 2-D, got shape {vals.shape}")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"signal matrix must be non-empty, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal matrix contains non-finite entries")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def num_steps(self) -> int:
        return self.values.shape[1]

    def column(self, t: int) -> np.ndarray:
        """Column ``t`` as a read-only view of the series (no copy)."""
        t = int(t)
        if not 0 <= t < self.values.shape[1]:
            raise ValueError(f"time index {t} outside [0, {self.num_steps})")
        return self.values[:, t]


@dataclass(frozen=True)
class SamplingMask:
    """Which nodes are observed; fixed across every time step of a run.

    ``missing`` is the ascending, read-only ``intp`` index of the hidden nodes.
    Like a :class:`MaskSpec`, a mask gives each run's mask (itself) and its policy.
    """

    observed: np.ndarray
    missing: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 1 or obs.shape[0] < 1:
            raise ValueError(f"mask must be a non-empty 1-D boolean vector, got shape {obs.shape}")
        object.__setattr__(self, "observed", _readonly(obs))
        object.__setattr__(self, "missing", _readonly(np.flatnonzero(~obs)))

    @property
    def num_nodes(self) -> int:
        return self.observed.shape[0]

    @property
    def num_observed(self) -> int:
        return self.num_nodes - self.num_missing

    @property
    def num_missing(self) -> int:
        return self.missing.shape[0]

    def mask_for_run(self, run_index: int, n: int) -> "SamplingMask":
        if self.num_nodes != n:
            raise ValueError(f"mask covers {self.num_nodes} nodes, graph has {n}")
        return self

    def describe(self) -> dict:
        flags = " ".join("1" if o else "0" for o in self.observed)
        return {"mode": "explicit", "observed_sha256": hashlib.sha256(flags.encode()).hexdigest()}


class Observation:
    """One time step of masked node values, as two read-only arrays.

    ``present`` marks the observed nodes and is the only marker of absence.
    ``data`` holds the observed values there and 0.0 at every absent node,
    so it never carries a hidden value. Each observation checks its shapes and
    its observed entries; a read-only bool array that owns its memory, such as
    ``SamplingMask.observed``, is shared as ``present`` rather than copied.
    """

    __slots__ = ("time_index", "data", "present")

    def __init__(self, time_index: int, data: Sequence[float], present: Sequence[bool]):
        time_index = int(time_index)
        if time_index < 0:
            raise ValueError(f"time index must be nonnegative, got {time_index}")
        data = np.asarray(data, dtype=float)
        if not (isinstance(present, np.ndarray) and present.dtype == bool
                and present.base is None and not present.flags.writeable):
            present = _readonly(np.asarray(present, dtype=bool))
        if data.ndim != 1 or data.shape[0] < 1 or present.shape != data.shape:
            raise ValueError(f"observation needs matching non-empty 1-D data and presence, "
                             f"got shapes {data.shape} and {present.shape}")
        data = np.where(present, data, 0.0)
        if np.count_nonzero(np.isfinite(data)) != data.size:  # half the time of .all()
            raise ValueError(f"observation entry {int(np.argmin(np.isfinite(data)))} is non-finite")
        data.setflags(write=False)
        self.time_index, self.data, self.present = time_index, data, present

    @property
    def num_nodes(self) -> int:
        return self.data.shape[0]


def generate_mask(n: int, missing_fraction: float, seed: int) -> SamplingMask:
    """Draw a mask with exactly ``round(missing_fraction * n)`` missing nodes.

    The missing set is sampled uniformly without replacement from a generator
    seeded with ``seed``, so identical arguments always give the same mask.
    Rounding is half-away-from-zero.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    missing_fraction = float(missing_fraction)
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1), got {missing_fraction}")
    count = int(math.floor(n * missing_fraction + 0.5))
    rng = np.random.default_rng(int(seed))
    missing = rng.choice(n, size=count, replace=False)
    observed = np.ones(n, dtype=bool)
    observed[missing] = False
    return SamplingMask(observed)


@dataclass(frozen=True)
class MaskSpec:
    """Mask policy for repeated runs: resample per run (default) or reuse one mask.

    Run ``r`` uses seed ``seed + r`` when resampling, plain ``seed`` otherwise.
    """

    fraction: float
    seed: int
    resample: bool = True

    def __post_init__(self):
        if not 0.0 <= float(self.fraction) < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")

    def mask_for_run(self, run_index: int, n: int) -> SamplingMask:
        seed = int(self.seed) + int(run_index) if self.resample else int(self.seed)
        return generate_mask(n, self.fraction, seed)

    def describe(self) -> dict:
        return {
            "mode": "per-run" if self.resample else "fixed",
            "fraction": float(self.fraction),
            "seed": int(self.seed),
        }


def observation_from_column(column: Sequence[float], mask: SamplingMask, time_index: int) -> Observation:
    """Build an observation from one signal column, hiding the masked nodes."""
    return Observation(time_index, column, mask.observed)


def synth_bandlimited(
    g: Graph,
    bandwidth: int,
    temporal_rho: float,
    innovation_std: float,
    t_len: int,
    seed: int,
    units: str = "",
) -> SignalSeries:
    """Synthesize a spatially smooth, temporally correlated signal.

    Every column lies in the span of the first ``bandwidth`` Laplacian
    eigenvectors. The spectral coefficients start from a seeded standard
    normal draw and follow an order-1 autoregression:
    ``c[t] = temporal_rho * c[t-1] + innovation`` with the given innovation
    standard deviation. Deterministic for a fixed seed.
    """
    n = g.num_nodes
    bandwidth = int(bandwidth)
    if not 1 <= bandwidth <= n:
        raise ValueError(f"bandwidth {bandwidth} outside [1, {n}]")
    temporal_rho = float(temporal_rho)
    if not 0.0 <= temporal_rho <= 1.0:
        raise ValueError(f"temporal_rho must be in [0, 1], got {temporal_rho}")
    innovation_std = float(innovation_std)
    if innovation_std < 0:
        raise ValueError("innovation_std must be nonnegative")
    t_len = int(t_len)
    if t_len < 1:
        raise ValueError("t_len must be at least 1")

    basis = eigendecompose(laplacian(g))
    low_band = basis.leading(bandwidth)
    rng = np.random.default_rng(int(seed))
    coeffs = np.empty((bandwidth, t_len))
    current = rng.standard_normal(bandwidth)
    coeffs[:, 0] = current
    for t in range(1, t_len):
        current = temporal_rho * current + innovation_std * rng.standard_normal(bandwidth)
        coeffs[:, t] = current
    return SignalSeries(values=low_band @ coeffs, units=units)


def write_signal_csv(series: SignalSeries, path: str | Path) -> None:
    """Write the node-by-time matrix as CSV: a ``t0,t1,...`` header, one exact-text row per node."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"t{t}" for t in range(series.num_steps)])
        for row in series.values:
            writer.writerow([format_value(v) for v in row])


def read_signal_csv(path: str | Path, units: str = "") -> SignalSeries:
    """Read a signal CSV (optional ``t0,t1,...`` header; row order = node id).

    The first non-blank row is a header when any of its cells is not a number.
    Cells may be quoted, as csv quotes them. Blank rows are skipped and a
    leading UTF-8 byte order mark is allowed. Any cell that fails to parse as a
    finite number is a load error reported with its row and column; missing
    data never enters through files.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
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
        raise ValueError(f"{path}: empty signal file")
    first = 1
    try:
        [float(cell) for cell in split(rows[0])]
    except ValueError:
        rows, first = rows[1:], 2  # a header
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
    return SignalSeries(values=values.reshape(len(rows), -1), units=units)


def write_mask_file(mask: SamplingMask, path: str | Path) -> None:
    """One line of space-separated 0/1 flags, 1 marking an observed node."""
    Path(path).write_text(" ".join("1" if o else "0" for o in mask.observed) + "\n")


def read_mask_file(path: str | Path) -> SamplingMask:
    path = Path(path)
    tokens = path.read_text(encoding="utf-8-sig").split()
    if not tokens:
        raise ValueError(f"{path}: empty mask file")
    flags = []
    for i, tok in enumerate(tokens):
        if tok not in ("0", "1"):
            raise ValueError(f"{path}: flag {i} must be 0 or 1, got {tok!r}")
        flags.append(tok == "1")
    return SamplingMask(np.array(flags, dtype=bool))
