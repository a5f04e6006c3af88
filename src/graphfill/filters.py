"""Online adaptive graph-filter baselines: least-mean-squares and sign-error updates.

GLMS (Di Lorenzo et al., 2016) and G-Sign (Yan, Kuruoglu and Altinkaya,
2022) each step ``x <- x + mu * U_F U_F^T e``, where the basis ``U_F`` is the
N x F block of the first F Laplacian eigenvectors, passed as a plain array.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Graph, eigendecompose, laplacian

if TYPE_CHECKING:  # signals takes its basis from graph_spectrum
    from .signals import Observation

__all__ = [
    "FilterConfig",
    "FILTER_KINDS",
    "default_bandwidth",
    "filter_step",
    "graph_spectrum",
]

FILTER_KINDS = ("glms", "gsign")


def graph_spectrum(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``eigendecompose(laplacian(g))``: decomposed on first use and kept on ``g``.

    The read-only ``(eigenvalues, eigenvectors)`` pair lives exactly as long
    as the graph: a graph loaded again is decomposed again.
    """
    spectrum = g._spectrum
    if spectrum is None:
        spectrum = g._spectrum = eigendecompose(laplacian(g))
    return spectrum


@dataclass(frozen=True)
class FilterConfig:
    """Step size and bandwidth for an online filter run; the estimate starts at zero.

    ``bandwidth=None`` resolves to round(0.3 * N) at run time.
    """

    mu: float = 0.5
    bandwidth: int | None = None

    def __post_init__(self):
        if not 0 < float(self.mu) < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.bandwidth is not None and not isinstance(self.bandwidth, numbers.Integral):
            raise ValueError(f"bandwidth must be an integer, got {self.bandwidth!r}")
        if self.bandwidth is not None and self.bandwidth < 1:
            raise ValueError(f"bandwidth must be at least 1, got {self.bandwidth}")

    def resolve_bandwidth(self, num_nodes: int) -> int:
        if self.bandwidth is not None:
            bw = int(self.bandwidth)
            if bw > num_nodes:
                raise ValueError(f"bandwidth {bw} exceeds node count {num_nodes}")
            return bw
        return default_bandwidth(num_nodes)


def default_bandwidth(num_nodes: int) -> int:
    return max(1, int(round(0.3 * num_nodes)))


def filter_step(
    kind: str,
    estimate: np.ndarray,
    obs: Observation,
    basis: np.ndarray,
    mu: float,
) -> np.ndarray:
    """One online update toward the observed values: ``x + mu * U (U^T e)`` for the N x F basis ``U``.

    The error ``e`` is zero at absent nodes. ``glms`` (least mean squares)
    uses it as is. ``gsign`` uses only its sign; sign(0) is 0, so a perfectly
    matched observation is a fixed point and the step norm is bounded by
    ``mu * sqrt(#observed)`` when ``U`` has orthonormal columns. Each call
    checks the kind, that the basis is 2-D, and that estimate, observation
    and basis cover the same nodes, reading the shapes directly.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
    estimate = np.asarray(estimate, dtype=float)
    n = estimate.shape[0]
    if basis.ndim != 2 or obs.data.shape[0] != n or basis.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: estimate {n}, observation {obs.num_nodes}, basis {basis.shape}"
        )
    err = obs.data - estimate
    err *= obs.present  # zero the absent nodes in place, with no second array as np.where makes
    if kind == "gsign":
        np.sign(err, out=err)
    # U (U^T e) by ndarray.dot, the BLAS calls of @ with less dispatch; then
    # mu * step + x in place: the bits of x + mu * U (U^T e).
    step = basis.dot(basis.T.dot(err))
    step *= float(mu)
    step += estimate
    return step
