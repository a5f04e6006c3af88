"""Adaptive filter baselines: basis algebra, update rules, online runs."""

import re

import numpy as np
import pytest

import graphfill.filters
from graphfill.filters import (
    FilterConfig,
    default_bandwidth,
    filter_step,
    graph_spectrum,
)
from graphfill.graphs import Graph, eigendecompose, knn_graph, laplacian
from graphfill.harness import FilterPredictor, run_online
from graphfill.signals import (
    MaskSpec,
    SamplingMask,
    generate_mask,
    observation_from_column,
    synth_bandlimited,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph(n, pairs or [(0, 1)])


def leading_basis(g, bandwidth):
    """The former projector's block: a C-contiguous copy of the first ``bandwidth`` eigenvectors."""
    return np.array(graph_spectrum(g)[1][:, :bandwidth])


def project(basis, z):
    """The former projector's ``apply``: ``U (U^T z)``."""
    return basis.dot(basis.T.dot(z))


def observe(values):
    """Observation at step 0; None marks an absent node."""
    present = [v is not None for v in values]
    return observation_from_column([0.0 if v is None else v for v in values], SamplingMask(present), 0)


# ---------------------------------------------------------------- basis


def test_projector_idempotent_symmetric_contractive():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 8)
    basis = leading_basis(g, 3)
    mat = basis @ basis.T
    assert np.abs(mat - mat.T).max() < 1e-12
    for _ in range(20):
        z = rng.standard_normal(8)
        once = project(basis, z)
        assert np.abs(project(basis, once) - once).max() < 1e-8
        assert np.linalg.norm(once) <= np.linalg.norm(z) * (1 + 1e-8)


def test_projector_full_bandwidth_is_identity():
    basis = leading_basis(path3(), 3)
    assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-10


def test_default_bandwidth_rounding():
    assert default_bandwidth(197) == 59
    assert default_bandwidth(50) == 15
    assert default_bandwidth(2) == 1


# ---------------------------------------------------------------- steps


def test_glms_zero_error_is_fixed_point():
    estimate = np.array([1.0, 2.0, 3.0])
    basis = leading_basis(path3(), 3)
    out = filter_step("glms", estimate, observe([1.0, None, 3.0]), basis, mu=0.7)
    assert np.allclose(out, estimate, atol=1e-12)


def test_glms_mu_zero_no_motion():
    estimate = np.zeros(3)
    basis = leading_basis(path3(), 3)
    out = filter_step("glms", estimate, observe([5.0, -1.0, 2.0]), basis, mu=0.0)
    assert np.array_equal(out, estimate)


def test_glms_identity_projection_example():
    basis = leading_basis(path3(), 3)
    out = filter_step("glms", np.zeros(3), observe([1.0, None, 2.0]), basis, mu=0.5)
    assert np.allclose(out, [0.5, 0.0, 1.0], atol=1e-12)


def test_gsign_zero_error_is_fixed_point():
    estimate = np.array([4.0, 0.0, -1.0])
    basis = leading_basis(path3(), 3)
    out = filter_step("gsign", estimate, observe([4.0, None, -1.0]), basis, mu=0.3)
    assert np.allclose(out, estimate, atol=1e-12)


def test_gsign_identity_projection_example():
    basis = leading_basis(path3(), 3)
    out = filter_step("gsign", np.zeros(3), observe([1.0, None, -2.0]), basis, mu=0.1)
    assert np.allclose(out, [0.1, 0.0, -0.1], atol=1e-12)


def test_step_dimension_mismatch():
    basis = leading_basis(path3(), 3)
    obs = observe([1.0, 2.0])
    with pytest.raises(ValueError):
        filter_step("glms", np.zeros(3), obs, basis, mu=0.5)
    with pytest.raises(ValueError):
        filter_step("glms", np.zeros(2), obs, basis, mu=0.5)


def test_step_dimension_mismatch_names_every_size():
    basis = leading_basis(path3(), 3)
    for estimate, obs in ((np.zeros(3), observe([1.0, 2.0])),
                          (np.zeros(2), observe([1.0, 2.0])),
                          (np.zeros(2), observe([1.0, 2.0, 3.0]))):
        with pytest.raises(ValueError, match=r"dimension mismatch: estimate .* basis \(3, 3\)"):
            filter_step("gsign", estimate, obs, basis, mu=0.5)


def test_step_refuses_a_basis_that_is_not_a_block():
    # A 1-D basis of the right length would broadcast into a wrong step.
    obs = observe([1.0, 2.0, 3.0])
    for basis in (np.ones(3), np.ones((3, 3, 1)), np.ones((2, 2))):
        with pytest.raises(ValueError, match="estimate 3, observation 3, basis " + re.escape(str(basis.shape))):
            filter_step("glms", np.zeros(3), obs, basis, mu=0.5)


def test_updates_stay_bandlimited_from_zero_init():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 7)
    bandwidth = 3
    basis = leading_basis(g, bandwidth)
    high = eigendecompose(laplacian(g))[1][:, bandwidth:]
    mask = generate_mask(7, 0.3, seed=1)
    estimate = np.zeros(7)
    for t in range(20):
        obs = observation_from_column(rng.standard_normal(7), mask, t)
        estimate = filter_step("glms", estimate, obs, basis, mu=0.4)
        assert np.abs(high.T @ estimate).max() < 1e-8


def test_gsign_bounded_update():
    rng = np.random.default_rng(77)
    g = random_graph(rng, 6)
    basis = leading_basis(g, 4)
    for _ in range(50):
        mask = generate_mask(6, 0.3, seed=int(rng.integers(1 << 16)))
        obs = observation_from_column(rng.standard_normal(6) * 10, mask, 0)
        estimate = rng.standard_normal(6)
        mu = float(rng.uniform(0.05, 2.0))
        out = filter_step("gsign", estimate, obs, basis, mu)
        delta = np.linalg.norm(out - estimate)
        assert delta <= mu * np.sqrt(mask.num_nodes - mask.num_missing) + 1e-9


# ---------------------------------------------------------------- oracle


def dense_oracle_step(kind, estimate, column, observed, basis, mu):
    """Brute-force matrix form: x + mu * U U^T D e, with e from explicit loops."""
    n = estimate.shape[0]
    mat = basis @ basis.T
    err = np.zeros(n)
    for i in range(n):
        if observed[i]:
            err[i] = column[i] - estimate[i]
    if kind == "gsign":
        err = np.sign(err)
    return estimate + mu * mat @ err


def test_steps_match_dense_oracle():
    rng = np.random.default_rng(99)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        bandwidth = int(rng.integers(1, n + 1))
        basis = leading_basis(g, bandwidth)
        mask = SamplingMask(rng.random(n) < 0.7)
        column = rng.standard_normal(n) * 5
        obs = observation_from_column(column, mask, 0)
        estimate = rng.standard_normal(n)
        mu = float(rng.uniform(0.1, 1.5))
        for kind in ("glms", "gsign"):
            got = filter_step(kind, estimate, obs, basis, mu)
            want = dense_oracle_step(kind, estimate, column, mask.observed, basis, mu)
            assert np.abs(got - want).max() <= 1e-9


# ---------------------------------------------------------------- runs


def run_steps(kind, cfg, g, observations):
    """Unclamped filter estimates after each observation, from a zero start."""
    basis = leading_basis(g, cfg.resolve_bandwidth(g.num_nodes))
    estimate = np.zeros(g.num_nodes)
    estimates = []
    for obs in observations:
        estimate = filter_step(kind, estimate, obs, basis, cfg.mu)
        estimates.append(estimate)
    return estimates


def test_run_filter_constant_signal_immediate_lock():
    g = path3()
    signal = np.array([2.0, -1.0, 0.5])
    mask = SamplingMask(np.array([True, True, True]))
    stream = [observation_from_column(signal, mask, t) for t in range(4)]
    cfg = FilterConfig(mu=1.0, bandwidth=3)
    for t, est in enumerate(run_steps("glms", cfg, g, stream)):
        assert np.allclose(est, signal, atol=1e-12), f"step {t}"


def test_run_filter_converges_on_static_bandlimited():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 20)
    series = synth_bandlimited(g, bandwidth=5, temporal_rho=1.0, innovation_std=0.0,
                               t_len=120, seed=2)
    mask = generate_mask(20, 0.3, seed=3)
    stream = [observation_from_column(series.values[:, t], mask, t) for t in range(120)]
    estimates = run_steps("glms", FilterConfig(mu=0.5, bandwidth=5), g, stream)
    first = float(np.mean((series.values[:, 0] - estimates[0]) ** 2))
    last = float(np.mean((series.values[:, -1] - estimates[-1]) ** 2))
    assert last < 0.1 * first


def test_run_filter_rejects_unknown_kind():
    basis = leading_basis(path3(), 3)
    with pytest.raises(ValueError):
        filter_step("rls", np.zeros(3), observe([1.0, 2.0, 3.0]), basis, mu=0.5)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(mu=0.0)
    with pytest.raises(ValueError, match="mu must be positive and finite, got inf"):
        FilterConfig(mu=float("inf"))
    with pytest.raises(ValueError, match="bandwidth must be at least 1"):
        FilterConfig(bandwidth=0)
    with pytest.raises(ValueError, match="bandwidth 5 exceeds node count 3"):
        FilterConfig(bandwidth=5).resolve_bandwidth(3)
    assert FilterConfig(bandwidth=3).resolve_bandwidth(3) == 3


# ---------------------------------------------------------------- spectrum cache


def test_one_eigendecomposition_per_graph(monkeypatch):
    calls = []
    real = graphfill.filters.eigendecompose

    def counted(lap):
        calls.append(lap.shape)
        return real(lap)

    def refused(lap):
        raise AssertionError("decomposed again")

    coords = np.random.default_rng(5).random((30, 2))
    g = knn_graph(coords, 4)
    series = synth_bandlimited(g, bandwidth=6, temporal_rho=0.9, innovation_std=0.1,
                               t_len=12, seed=1)
    # The synthesis took its basis from graph_spectrum, so g keeps the spectrum it computed.
    monkeypatch.setattr(graphfill.filters, "eigendecompose", refused)
    graph_spectrum(g)
    monkeypatch.setattr(graphfill.filters, "eigendecompose", counted)
    spec = MaskSpec(fraction=0.3, seed=2)
    predictors = [
        FilterPredictor("glms"),
        FilterPredictor("gsign", FilterConfig(mu=0.2, bandwidth=4)),
        FilterPredictor("gsign", FilterConfig(mu=0.2, bandwidth=9)),
    ]
    for predictor in predictors:
        run_online(predictor, g, series, spec, runs=5)
    assert calls == []

    # An equal graph built again holds no spectrum yet: it is decomposed again, once.
    again = knn_graph(coords, 4)
    assert (again.num_nodes, again.edges) == (g.num_nodes, g.edges) and again is not g
    run_online(FilterPredictor("glms"), again, series, spec, runs=5)
    run_online(FilterPredictor("gsign"), again, series, spec, runs=5)
    assert calls == [(30, 30)]

    # The cached pair holds the bits of a fresh decomposition.
    for cached, fresh in zip(graph_spectrum(g), eigendecompose(laplacian(g))):
        assert cached.shape == fresh.shape and cached.tobytes() == fresh.tobytes()


def test_cached_spectrum_is_read_only():
    eigenvalues, eigenvectors = graph_spectrum(path3())
    with pytest.raises(ValueError):
        eigenvectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        eigenvalues[0] = 1.0
