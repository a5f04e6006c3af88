"""Time-varying node signals, sampling masks, masked observations, synthetic generators."""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._format import read_number_table, read_text, write_number_table
from .filters import graph_spectrum
from .graphs import Graph

__all__ = [
    "SignalSeries",
    "signal_sha256",
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


@dataclass(frozen=True, eq=False)  # arrays have no truth value: equality is identity
class SignalSeries:
    """Dense node-by-time signal matrix (row = node, column = time step), finite and read-only.

    The online loop reads a column only through :class:`~graphfill.harness.CausalSignalView`."""

    values: np.ndarray
    units: str = ""
    _sha256: str | None = field(default=None, init=False, repr=False)  # kept by signal_sha256

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


def signal_sha256(series: SignalSeries) -> str:
    """SHA-256 of the series' shape text and value bytes, computed on first use and kept on ``series``."""
    if series._sha256 is None:
        digest = hashlib.sha256(str(series.values.shape).encode())
        digest.update(np.ascontiguousarray(series.values).tobytes())
        object.__setattr__(series, "_sha256", digest.hexdigest())  # the series is frozen
    return series._sha256


@dataclass(frozen=True, eq=False)  # equality is identity, so a mask is hashable
class SamplingMask:
    """Which nodes are observed; fixed across every time step of a run.

    ``missing`` is the ascending, read-only ``intp`` index of the hidden nodes.
    Like a :class:`MaskSpec`, a mask gives each run's mask (itself) and its policy.
    """

    observed: np.ndarray
    missing: np.ndarray = field(init=False, repr=False)

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
    """One time step of masked node values: a plain record, compared by identity.

    ``present`` marks the observed nodes and is the only marker of absence.
    ``data`` holds the observed values there and 0.0 at every absent node,
    so it never carries a hidden value. :func:`observation_from_column` is
    the one maker; both arrays are read-only.
    """

    __slots__ = ("time_index", "data", "present")

    def __init__(self, time_index: int, data: np.ndarray, present: np.ndarray):
        self.time_index, self.data, self.present = time_index, data, present

    @property
    def num_nodes(self) -> int:
        return self.data.shape[0]


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a value that is not a ``numbers.Integral`` is refused, not truncated."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(seed) -> int:
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def generate_mask(n: int, missing_fraction: float, seed: int) -> SamplingMask:
    """Draw a mask with exactly ``round(missing_fraction * n)`` missing nodes.

    The missing set is sampled uniformly without replacement from a generator
    seeded with ``seed``, so identical arguments always give the same mask.
    Rounding is half-away-from-zero.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    missing_fraction = float(missing_fraction)
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1), got {missing_fraction}")
    count = int(math.floor(n * missing_fraction + 0.5))
    rng = np.random.default_rng(_seed(seed))
    missing = rng.choice(n, size=count, replace=False)
    observed = np.ones(n, dtype=bool)
    observed[missing] = False
    return SamplingMask(observed)


@dataclass(frozen=True)
class MaskSpec:
    """Mask policy for repeated runs: resample per run (default) or reuse one mask.

    Run ``r`` uses seed ``seed + r`` when resampling, plain ``seed`` otherwise.
    Each ``(n, seed)`` mask is drawn once per spec and kept on it; equality
    and hash stay by the three fields.
    """

    fraction: float
    seed: int
    resample: bool = True
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= float(self.fraction) < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")
        _seed(self.seed)

    def mask_for_run(self, run_index: int, n: int) -> SamplingMask:
        key = int(n), int(self.seed) + int(run_index) if self.resample else int(self.seed)
        if key not in self._masks:
            self._masks[key] = generate_mask(key[0], self.fraction, key[1])
        return self._masks[key]

    def describe(self) -> dict:
        return {
            "mode": "per-run" if self.resample else "fixed",
            "fraction": float(self.fraction),
            "seed": int(self.seed),
        }


def observation_from_column(column: Sequence[float], mask: SamplingMask, time_index: int) -> Observation:
    """Build an observation from one signal column, hiding the masked nodes.

    The one maker of an :class:`Observation`. A :class:`SignalSeries` column is
    finite and ``mask.observed`` a read-only bool array, each checked where it
    was made, so only the shapes are checked here (``time_index`` is a
    nonnegative int). ``data`` has the bits of ``np.where(mask.observed,
    column, 0.0)``, and ``present`` is ``mask.observed`` itself.
    """
    data = np.array(column, dtype=float)
    if data.shape != mask.observed.shape:
        raise ValueError(f"observation needs matching non-empty 1-D data and presence, "
                         f"got shapes {data.shape} and {mask.observed.shape}")
    data[mask.missing] = 0.0
    data.setflags(write=False)
    return Observation(time_index, data, mask.observed)


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
    bandwidth = _integer("bandwidth", bandwidth)
    if not 1 <= bandwidth <= n:
        raise ValueError(f"bandwidth {bandwidth} outside [1, {n}]")
    temporal_rho = float(temporal_rho)
    if not 0.0 <= temporal_rho <= 1.0:
        raise ValueError(f"temporal_rho must be in [0, 1], got {temporal_rho}")
    innovation_std = float(innovation_std)
    if not 0 <= innovation_std < math.inf:
        raise ValueError(f"innovation_std must be finite and nonnegative, got {innovation_std}")
    t_len = _integer("t_len", t_len)
    if t_len < 1:
        raise ValueError("t_len must be at least 1")
    seed = _seed(seed)

    low_band = graph_spectrum(g)[1][:, :bandwidth]
    rng = np.random.default_rng(seed)
    coeffs = np.empty((bandwidth, t_len))
    current = rng.standard_normal(bandwidth)
    coeffs[:, 0] = current
    for t in range(1, t_len):
        current = temporal_rho * current + innovation_std * rng.standard_normal(bandwidth)
        coeffs[:, t] = current
    return SignalSeries(values=low_band @ coeffs, units=units)


def write_signal_csv(series: SignalSeries, path: str | Path) -> None:
    """Write a ``t0,t1,...`` header and one row per node with the one numeric CSV writer (a -0.0 as ``-0``)."""
    write_number_table(path, [f"t{t}" for t in range(series.num_steps)], series.values)


def read_signal_csv(path: str | Path, units: str = "") -> SignalSeries:
    """Read a signal CSV (optional ``t0,t1,...`` header; row order = node id) with the one numeric
    CSV reader, ``_format.read_number_table``, by its rules; missing data never enters through files."""
    return SignalSeries(values=read_number_table(path, "signal")[1], units=units)


def write_mask_file(mask: SamplingMask, path: str | Path) -> None:
    """One line of space-separated 0/1 flags, 1 marking an observed node."""
    Path(path).write_text(" ".join("1" if o else "0" for o in mask.observed) + "\n", encoding="utf-8")


def read_mask_file(path: str | Path) -> SamplingMask:
    path = Path(path)
    tokens = read_text(path).split()
    if not tokens:
        raise ValueError(f"{path}: empty mask file")
    flags = []
    for i, tok in enumerate(tokens):
        if tok not in ("0", "1"):
            raise ValueError(f"{path}: flag {i} must be 0 or 1, got {tok!r}")
        flags.append(tok == "1")
    return SamplingMask(np.array(flags, dtype=bool))
