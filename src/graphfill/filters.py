"""Online adaptive graph-filter baselines: least-mean-squares and sign-error updates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, SpectralBasis, eigendecompose, laplacian
from .signals import Observation

__all__ = [
    "BandlimitedProjector",
    "FilterConfig",
    "FILTER_KINDS",
    "default_bandwidth",
    "filter_step",
    "graph_spectrum",
]

FILTER_KINDS = ("glms", "gsign")


def graph_spectrum(g: Graph) -> SpectralBasis:
    """The spectrum of the Laplacian of ``g``, decomposed on first use and kept on ``g``.

    The basis lives exactly as long as the graph: a graph loaded again is
    decomposed again.
    """
    basis = g._spectrum
    if basis is None:
        basis = g._spectrum = eigendecompose(laplacian(g))
    return basis


@dataclass(frozen=True)
class BandlimitedProjector:
    """Orthogonal projection onto the span of the first F Laplacian eigenvectors.

    Stored in factored form (the N x F basis block); ``apply`` computes
    ``U (U^T z)`` without materializing the N x N projection matrix.
    """

    basis_block: np.ndarray

    def __post_init__(self):
        block = np.asarray(self.basis_block, dtype=float)
        if block.ndim != 2 or block.shape[1] < 1 or block.shape[1] > block.shape[0]:
            raise ValueError(f"basis block has invalid shape {block.shape}")
        block = np.array(block)
        block.setflags(write=False)
        object.__setattr__(self, "basis_block", block)

    @classmethod
    def from_graph(cls, g: Graph, bandwidth: int) -> "BandlimitedProjector":
        return cls(graph_spectrum(g).leading(bandwidth))

    @property
    def num_nodes(self) -> int:
        return self.basis_block.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.basis_block.shape[1]

    def apply(self, z: np.ndarray) -> np.ndarray:
        """``U (U^T z)`` by ``ndarray.dot``: the BLAS calls of ``@`` with less dispatch."""
        return self.basis_block.dot(self.basis_block.T.dot(z))

    def matrix(self) -> np.ndarray:
        """Dense N x N projection matrix (test and small-scale use)."""
        return self.basis_block @ self.basis_block.T


@dataclass(frozen=True)
class FilterConfig:
    """Step size and bandwidth for an online filter run; the estimate starts at zero.

    ``bandwidth=None`` resolves to round(0.3 * N) at run time.
    """

    mu: float = 0.5
    bandwidth: int | None = None

    def __post_init__(self):
        if not float(self.mu) > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.bandwidth is not None and int(self.bandwidth) < 1:
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
    proj: BandlimitedProjector,
    mu: float,
) -> np.ndarray:
    """One online update toward the observed values: ``x + mu * P(e)``.

    The error ``e`` is zero at absent nodes. ``glms`` (least mean squares)
    uses it as is. ``gsign`` uses only its sign; sign(0) is 0, so a perfectly
    matched observation is a fixed point and the step norm is bounded by
    ``mu * sqrt(#observed)``. Each call checks the kind and that estimate,
    observation and projector cover the same nodes, reading the shapes directly.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
    estimate = np.asarray(estimate, dtype=float)
    n = estimate.shape[0]
    if obs.data.shape[0] != n or proj.basis_block.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: estimate {n}, observation {obs.num_nodes}, projector {proj.num_nodes}"
        )
    err = obs.data - estimate
    err *= obs.present  # zero the absent nodes in place, with no second array as np.where makes
    if kind == "gsign":
        np.sign(err, out=err)
    step = proj.apply(err)  # then mu * P(e) + x in place: the bits of x + mu * P(e)
    step *= float(mu)
    step += estimate
    return step
