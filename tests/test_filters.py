"""Adaptive filter baselines: projector algebra, update rules, online runs."""

import numpy as np
import pytest

import graphfill.filters
from graphfill.filters import (
    BandlimitedProjector,
    FilterConfig,
    default_bandwidth,
    filter_step,
)
from graphfill.graphs import Graph, eigendecompose, knn_graph, laplacian
from graphfill.harness import FilterPredictor, run_online
from graphfill.signals import (
    MaskSpec,
    Observation,
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


def obs3(values):
    """Observation of three nodes; None marks an absent node."""
    present = [v is not None for v in values]
    return Observation(0, [0.0 if v is None else v for v in values], present)


# ---------------------------------------------------------------- projector


def test_projector_idempotent_symmetric_contractive():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 8)
    proj = BandlimitedProjector.from_graph(g, 3)
    mat = proj.matrix()
    assert np.abs(mat - mat.T).max() < 1e-12
    for _ in range(20):
        z = rng.standard_normal(8)
        once = proj.apply(z)
        assert np.abs(proj.apply(once) - once).max() < 1e-8
        assert np.linalg.norm(once) <= np.linalg.norm(z) * (1 + 1e-8)


def test_projector_full_bandwidth_is_identity():
    proj = BandlimitedProjector.from_graph(path3(), 3)
    assert np.abs(proj.matrix() - np.eye(3)).max() < 1e-10


def test_default_bandwidth_rounding():
    assert default_bandwidth(197) == 59
    assert default_bandwidth(50) == 15
    assert default_bandwidth(2) == 1


# ---------------------------------------------------------------- steps


def test_glms_zero_error_is_fixed_point():
    estimate = np.array([1.0, 2.0, 3.0])
    proj = BandlimitedProjector.from_graph(path3(), 3)
    out = filter_step("glms", estimate, obs3([1.0, None, 3.0]), proj, mu=0.7)
    assert np.allclose(out, estimate, atol=1e-12)


def test_glms_mu_zero_no_motion():
    estimate = np.zeros(3)
    proj = BandlimitedProjector.from_graph(path3(), 3)
    out = filter_step("glms", estimate, obs3([5.0, -1.0, 2.0]), proj, mu=0.0)
    assert np.array_equal(out, estimate)


def test_glms_identity_projection_example():
    proj = BandlimitedProjector.from_graph(path3(), 3)
    out = filter_step("glms", np.zeros(3), obs3([1.0, None, 2.0]), proj, mu=0.5)
    assert np.allclose(out, [0.5, 0.0, 1.0], atol=1e-12)


def test_gsign_zero_error_is_fixed_point():
    estimate = np.array([4.0, 0.0, -1.0])
    proj = BandlimitedProjector.from_graph(path3(), 3)
    out = filter_step("gsign", estimate, obs3([4.0, None, -1.0]), proj, mu=0.3)
    assert np.allclose(out, estimate, atol=1e-12)


def test_gsign_identity_projection_example():
    proj = BandlimitedProjector.from_graph(path3(), 3)
    out = filter_step("gsign", np.zeros(3), obs3([1.0, None, -2.0]), proj, mu=0.1)
    assert np.allclose(out, [0.1, 0.0, -0.1], atol=1e-12)


def test_step_dimension_mismatch():
    proj = BandlimitedProjector.from_graph(path3(), 3)
    obs = Observation(0, [1.0, 2.0], [True, True])
    with pytest.raises(ValueError):
        filter_step("glms", np.zeros(3), obs, proj, mu=0.5)
    with pytest.raises(ValueError):
        filter_step("glms", np.zeros(2), obs, proj, mu=0.5)


def test_updates_stay_bandlimited_from_zero_init():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 7)
    bandwidth = 3
    proj = BandlimitedProjector.from_graph(g, bandwidth)
    basis = eigendecompose(laplacian(g))
    high = basis.eigenvectors[:, bandwidth:]
    mask = generate_mask(7, 0.3, seed=1)
    estimate = np.zeros(7)
    for t in range(20):
        obs = observation_from_column(rng.standard_normal(7), mask, t)
        estimate = filter_step("glms", estimate, obs, proj, mu=0.4)
        assert np.abs(high.T @ estimate).max() < 1e-8


def test_gsign_bounded_update():
    rng = np.random.default_rng(77)
    g = random_graph(rng, 6)
    proj = BandlimitedProjector.from_graph(g, 4)
    for _ in range(50):
        mask = generate_mask(6, 0.3, seed=int(rng.integers(1 << 16)))
        obs = observation_from_column(rng.standard_normal(6) * 10, mask, 0)
        estimate = rng.standard_normal(6)
        mu = float(rng.uniform(0.05, 2.0))
        out = filter_step("gsign", estimate, obs, proj, mu)
        delta = np.linalg.norm(out - estimate)
        assert delta <= mu * np.sqrt(mask.num_observed) + 1e-9


# ---------------------------------------------------------------- oracle


def dense_oracle_step(kind, estimate, column, observed, proj, mu):
    """Brute-force matrix form: x + mu * U U^T D e, with e from explicit loops."""
    n = estimate.shape[0]
    mat = proj.matrix()
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
        proj = BandlimitedProjector.from_graph(g, bandwidth)
        mask = SamplingMask(rng.random(n) < 0.7)
        column = rng.standard_normal(n) * 5
        obs = observation_from_column(column, mask, 0)
        estimate = rng.standard_normal(n)
        mu = float(rng.uniform(0.1, 1.5))
        for kind in ("glms", "gsign"):
            got = filter_step(kind, estimate, obs, proj, mu)
            want = dense_oracle_step(kind, estimate, column, mask.observed, proj, mu)
            assert np.abs(got - want).max() <= 1e-9


# ---------------------------------------------------------------- runs


def run_steps(kind, cfg, g, observations):
    """Unclamped filter estimates after each observation, from a zero start."""
    proj = BandlimitedProjector.from_graph(g, cfg.resolve_bandwidth(g.num_nodes))
    estimate = np.zeros(g.num_nodes)
    estimates = []
    for obs in observations:
        estimate = filter_step(kind, estimate, obs, proj, cfg.mu)
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
    stream = [observation_from_column(series.column(t), mask, t) for t in range(120)]
    estimates = run_steps("glms", FilterConfig(mu=0.5, bandwidth=5), g, stream)
    first = float(np.mean((series.values[:, 0] - estimates[0]) ** 2))
    last = float(np.mean((series.values[:, -1] - estimates[-1]) ** 2))
    assert last < 0.1 * first


def test_run_filter_rejects_unknown_kind():
    proj = BandlimitedProjector.from_graph(path3(), 3)
    with pytest.raises(ValueError):
        filter_step("rls", np.zeros(3), obs3([1.0, 2.0, 3.0]), proj, mu=0.5)


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(mu=0.0)
    with pytest.raises(ValueError):
        FilterConfig(bandwidth=5).resolve_bandwidth(3)


# ---------------------------------------------------------------- spectrum cache


def test_one_eigendecomposition_per_graph(monkeypatch):
    calls = []
    real = graphfill.filters.eigendecompose

    def counted(lap):
        calls.append(lap.shape)
        return real(lap)

    monkeypatch.setattr(graphfill.filters, "eigendecompose", counted)
    coords = np.random.default_rng(5).random((30, 2))
    g = knn_graph(coords, 4)
    series = synth_bandlimited(g, bandwidth=6, temporal_rho=0.9, innovation_std=0.1,
                               t_len=12, seed=1)
    spec = MaskSpec(fraction=0.3, seed=2)
    predictors = [
        FilterPredictor("glms"),
        FilterPredictor("gsign", FilterConfig(mu=0.2, bandwidth=4)),
        FilterPredictor("gsign", FilterConfig(mu=0.2, bandwidth=9)),
    ]
    for predictor in predictors:
        run_online(predictor, g, series, spec, runs=5)
    assert calls == [(30, 30)]

    # An equal graph built again holds no spectrum yet: it is decomposed again.
    again = knn_graph(coords, 4)
    assert again == g and again is not g
    run_online(FilterPredictor("glms"), again, series, spec, runs=5)
    assert len(calls) == 2

    fresh = eigendecompose(laplacian(g)).leading(9)
    block = BandlimitedProjector.from_graph(g, 9).basis_block
    assert block.shape == fresh.shape
    assert block.tobytes() == np.ascontiguousarray(fresh).tobytes()


def test_cached_spectrum_is_read_only():
    basis = graphfill.filters.graph_spectrum(path3())
    with pytest.raises(ValueError):
        basis.eigenvectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        basis.eigenvalues[0] = 1.0
