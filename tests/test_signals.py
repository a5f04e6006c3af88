"""Signal series, masks, observations, synthesis, and the file formats."""

import numpy as np
import pytest

from graphfill.graphs import Graph, eigendecompose, laplacian
from graphfill.signals import (
    MaskSpec,
    Observation,
    SamplingMask,
    SignalSeries,
    generate_mask,
    observation_from_column,
    read_mask_file,
    read_signal_csv,
    synth_bandlimited,
    write_mask_file,
    write_signal_csv,
)


def ring(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------- series


def test_series_shape_and_column():
    s = SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0]]), units="m/s")
    assert s.num_nodes == 2 and s.num_steps == 2
    assert np.array_equal(s.column(1), [2.0, 4.0])
    assert s.units == "m/s"


def test_series_rejects_non_finite():
    with pytest.raises(ValueError):
        SignalSeries(np.array([[1.0, np.nan]]))


def test_series_rejects_wrong_rank():
    with pytest.raises(ValueError):
        SignalSeries(np.zeros(4))


def test_series_column_out_of_range():
    s = SignalSeries(np.ones((2, 3)))
    with pytest.raises(ValueError):
        s.column(3)


def test_series_values_read_only():
    s = SignalSeries(np.ones((2, 2)))
    with pytest.raises(ValueError):
        s.values[0, 0] = 5.0


# ---------------------------------------------------------------- masks


def test_generate_mask_counts():
    assert generate_mask(10, 0.3, seed=0).num_missing == 3
    assert generate_mask(197, 0.3, seed=0).num_missing == 59


def test_generate_mask_zero_fraction_all_observed():
    mask = generate_mask(8, 0.0, seed=1)
    assert mask.num_missing == 0
    assert mask.observed_ids == tuple(range(8))


def test_generate_mask_deterministic():
    a = generate_mask(40, 0.3, seed=9)
    b = generate_mask(40, 0.3, seed=9)
    assert np.array_equal(a.observed, b.observed)


def test_generate_mask_seed_matters():
    a = generate_mask(40, 0.3, seed=9)
    b = generate_mask(40, 0.3, seed=10)
    assert not np.array_equal(a.observed, b.observed)


def test_generate_mask_rejects_full_fraction():
    with pytest.raises(ValueError):
        generate_mask(10, 1.0, seed=0)


def test_mask_spec_resample_vs_fixed():
    spec = MaskSpec(fraction=0.3, seed=4)
    assert not np.array_equal(spec.mask_for_run(0, 30).observed, spec.mask_for_run(1, 30).observed)
    fixed = MaskSpec(fraction=0.3, seed=4, resample=False)
    assert np.array_equal(fixed.mask_for_run(0, 30).observed, fixed.mask_for_run(3, 30).observed)


def test_mask_ids_partition():
    mask = generate_mask(12, 0.25, seed=2)
    assert sorted(mask.observed_ids + mask.missing_ids) == list(range(12))


# ---------------------------------------------------------------- observations


def test_apply_mask_all_observed_equals_column():
    s = SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0]]))
    mask = SamplingMask(np.array([True, True]))
    obs = observation_from_column(s.column(1), mask, 1)
    assert obs.time_index == 1
    assert np.array_equal(obs.data, [2.0, 4.0])
    assert np.array_equal(obs.present, [True, True])


def test_apply_mask_indexing_example():
    s = SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    mask = SamplingMask(np.array([True, False, True]))
    obs = observation_from_column(s.column(1), mask, 1)
    assert np.array_equal(obs.data, [2.0, 0.0, 6.0])
    assert np.array_equal(obs.present, [True, False, True])
    with pytest.raises(ValueError):
        obs.data[1] = 4.0
    with pytest.raises(ValueError):
        obs.present[1] = True


def test_apply_mask_hides_node_at_every_step():
    s = SignalSeries(np.arange(8.0).reshape(2, 4) + 1.0)
    mask = SamplingMask(np.array([False, True]))
    for t in range(4):
        obs = observation_from_column(s.column(t), mask, t)
        assert not obs.present[0]
        assert obs.data[0] == 0.0


def test_apply_mask_t_out_of_range():
    s = SignalSeries(np.ones((2, 2)))
    with pytest.raises(ValueError):
        s.column(2)


def test_observation_rejects_non_finite_present_value():
    with pytest.raises(ValueError):
        Observation(0, [1.0, float("inf")], [True, True])
    with pytest.raises(ValueError):
        Observation(0, [1.0, float("nan")], [True, True])


def test_observation_dense_masks_absent():
    # an absent node's input value never reaches ``data``, finite or not
    obs = Observation(0, [1.5, 7.0], [True, False])
    assert np.array_equal(obs.data, [1.5, 0.0])
    assert np.array_equal(obs.present, [True, False])
    assert np.array_equal(Observation(0, [1.5, np.nan], [True, False]).data, [1.5, 0.0])
    with pytest.raises(ValueError):
        Observation(-1, [1.5], [True])


def test_observation_from_column_checks_shape():
    with pytest.raises(ValueError):
        observation_from_column([1.0, 2.0], SamplingMask(np.array([True])), 0)


# ---------------------------------------------------------------- synthesis


def test_synth_f1_constant_everywhere():
    s = synth_bandlimited(ring(6), bandwidth=1, temporal_rho=1.0, innovation_std=0.0,
                          t_len=5, seed=3)
    assert np.ptp(s.values) < 1e-10


def test_synth_static_when_rho_one_no_innovation():
    s = synth_bandlimited(ring(8), bandwidth=3, temporal_rho=1.0, innovation_std=0.0,
                          t_len=6, seed=3)
    for t in range(1, 6):
        assert np.allclose(s.values[:, t], s.values[:, 0], atol=1e-12)


def test_synth_out_of_band_residual():
    g = ring(10)
    bandwidth = 4
    s = synth_bandlimited(g, bandwidth=bandwidth, temporal_rho=0.9, innovation_std=0.5,
                          t_len=12, seed=7)
    basis = eigendecompose(laplacian(g))
    high = basis.eigenvectors[:, bandwidth:]
    assert np.abs(high.T @ s.values).max() < 1e-10


def test_synth_deterministic():
    a = synth_bandlimited(ring(7), 3, 0.8, 0.2, 9, seed=42)
    b = synth_bandlimited(ring(7), 3, 0.8, 0.2, 9, seed=42)
    assert np.array_equal(a.values, b.values)


def test_synth_bandwidth_out_of_range():
    with pytest.raises(ValueError):
        synth_bandlimited(ring(5), bandwidth=6, temporal_rho=0.9, innovation_std=0.1,
                          t_len=3, seed=0)


# ---------------------------------------------------------------- files


def test_signal_csv_round_trip_exact(tmp_path):
    values = np.array([[0.1, 1.0 / 3.0], [7.25e-9, -2.0]])
    path = tmp_path / "signal.csv"
    write_signal_csv(SignalSeries(values, units="m/s"), path)
    back = read_signal_csv(path, units="m/s")
    assert np.array_equal(back.values, values)
    assert back.units == "m/s"


def test_signal_csv_headerless(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    s = read_signal_csv(path)
    assert np.array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])


def test_signal_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        read_signal_csv(path)


def test_signal_csv_rejects_nan_cell(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("1.0,nan\n")
    with pytest.raises(ValueError):
        read_signal_csv(path)


def test_mask_file_round_trip(tmp_path):
    mask = generate_mask(9, 0.3, seed=5)
    path = tmp_path / "mask.txt"
    write_mask_file(mask, path)
    assert np.array_equal(read_mask_file(path).observed, mask.observed)


def test_mask_file_one_means_observed(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("1 0 1\n")
    mask = read_mask_file(path)
    assert mask.observed_ids == (0, 2)
    assert mask.missing_ids == (1,)


def test_mask_file_rejects_other_digits(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("1 2 1\n")
    with pytest.raises(ValueError):
        read_mask_file(path)
