"""Signal series, masks, observations, synthesis, and the file formats."""

import numpy as np
import pytest

from graphfill.graphs import Graph, eigendecompose, laplacian
from graphfill.harness import CausalSignalView
from graphfill.signals import (
    MaskSpec,
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
    assert np.array_equal(s.values[:, 1], [2.0, 4.0])
    assert s.units == "m/s"


def test_series_rejects_non_finite():
    with pytest.raises(ValueError):
        SignalSeries(np.array([[1.0, np.nan]]))


def test_series_rejects_wrong_rank():
    with pytest.raises(ValueError):
        SignalSeries(np.zeros(4))


def test_series_column_out_of_range():
    # The causal view is the one reader of a truth column; past the last step it refuses.
    view = CausalSignalView(SignalSeries(np.ones((2, 3))))
    view.advance(3)
    with pytest.raises(ValueError, match=r"time index 3 outside \[0, 3\)"):
        view.column(3)


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
    assert mask.observed.all() and mask.missing.tolist() == []


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


@pytest.mark.parametrize("resample", [True, False])
def test_mask_spec_draws_each_mask_once_per_spec(resample):
    spec, twin = MaskSpec(0.3, 7, resample), MaskSpec(0.3, 7, resample)
    for r in range(4):
        for n in (5, 30):
            mask = spec.mask_for_run(r, n)
            want = generate_mask(n, 0.3, 7 + r if resample else 7)
            assert mask.observed.tobytes() == want.observed.tobytes()
            assert spec.mask_for_run(r, n) is mask
    assert (spec.mask_for_run(3, 30) is spec.mask_for_run(0, 30)) is not resample
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    twin.mask_for_run(0, 5)
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != MaskSpec(0.3, 8, resample)


def test_a_negative_seed_is_refused_by_name():
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        generate_mask(5, 0.2, seed=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -2"):
        MaskSpec(fraction=0.2, seed=-2)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        synth_bandlimited(ring(6), bandwidth=2, temporal_rho=0.5, innovation_std=0.1, t_len=3, seed=-1)


def test_mask_ids_partition():
    mask = generate_mask(12, 0.25, seed=2)
    assert sorted(np.flatnonzero(mask.observed).tolist() + mask.missing.tolist()) == list(range(12))


# ---------------------------------------------------------------- observations


def test_apply_mask_all_observed_equals_column():
    s = SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0]]))
    mask = SamplingMask(np.array([True, True]))
    obs = observation_from_column(s.values[:, 1], mask, 1)
    assert obs.time_index == 1
    assert np.array_equal(obs.data, [2.0, 4.0])
    assert np.array_equal(obs.present, [True, True])


def test_apply_mask_indexing_example():
    s = SignalSeries(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    mask = SamplingMask(np.array([True, False, True]))
    obs = observation_from_column(s.values[:, 1], mask, 1)
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
        obs = observation_from_column(s.values[:, t], mask, t)
        assert not obs.present[0]
        assert obs.data[0] == 0.0


def test_apply_mask_t_out_of_range():
    view = CausalSignalView(SignalSeries(np.ones((2, 2))))
    view.advance(2)
    with pytest.raises(ValueError, match=r"time index 2 outside \[0, 2\)"):
        view.column(2)


def test_observation_dense_masks_absent():
    # an absent node's input value never reaches ``data``, finite or not
    mask = SamplingMask(np.array([True, False]))
    obs = observation_from_column([1.5, 7.0], mask, 0)
    assert np.array_equal(obs.data, [1.5, 0.0])
    assert obs.present is mask.observed and not obs.data.flags.writeable
    assert np.array_equal(observation_from_column([1.5, np.nan], mask, 0).data, [1.5, 0.0])


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
    high = eigendecompose(laplacian(g))[1][:, bandwidth:]
    assert np.abs(high.T @ s.values).max() < 1e-10


def test_synth_deterministic():
    a = synth_bandlimited(ring(7), 3, 0.8, 0.2, 9, seed=42)
    b = synth_bandlimited(ring(7), 3, 0.8, 0.2, 9, seed=42)
    assert np.array_equal(a.values, b.values)


def test_synth_bandwidth_out_of_range():
    for bandwidth in (0, 6):
        with pytest.raises(ValueError, match=rf"bandwidth {bandwidth} outside \[1, 5\]"):
            synth_bandlimited(ring(5), bandwidth=bandwidth, temporal_rho=0.9, innovation_std=0.1,
                              t_len=3, seed=0)
    assert synth_bandlimited(ring(5), 5, 0.9, 0.1, 3, seed=0).values.shape == (5, 3)


@pytest.mark.parametrize("innovation_std", [float("nan"), float("inf")])
def test_synth_refuses_a_non_finite_innovation_std(innovation_std):
    # Refused before the draw, naming the setting, not as a non-finite signal afterwards.
    with pytest.raises(ValueError, match=f"innovation_std must be finite and nonnegative, got {innovation_std}"):
        synth_bandlimited(ring(5), bandwidth=2, temporal_rho=0.9, innovation_std=innovation_std,
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
    # No run reads rows ended by a lone "\r", "\r\n" or "\n", a blank row or a row of blank cells; a quoted
    # first row, which is data once csv unquotes it; or rows over csv's 131,072-character field limit.
    path.write_bytes(b"1,2\r3,4\r\n\n , \t\n-5,.5e1\n")
    assert read_signal_csv(path).values.tolist() == [[1, 2], [3, 4], [-5, 5]]
    path.write_text('"1",2\n3,"4"\n')
    assert read_signal_csv(path).values.tolist() == [[1, 2], [3, 4]]
    path.write_text(("1.5," * 39_999 + "1.5\n") * 2)
    assert read_signal_csv(path).values.tolist() == [[1.5] * 40_000] * 2


def test_signal_csv_byte_order_mark_keeps_node_0(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(read_signal_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])
    path.write_bytes(b"\xef\xbb\xbft0,t1\r\n1.0,2.0\r\n")
    assert np.array_equal(read_signal_csv(path).values, [[1.0, 2.0]])
    path.write_bytes(b'\xef\xbb\xbf"1",2\r3,4')  # quoted: csv reads it
    assert np.array_equal(read_signal_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])


def test_signal_csv_error_names_row_and_column(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("t0,t1\n1.0,2.0\n\n3.0,four\n")
    with pytest.raises(ValueError, match=r"row 3, column 2: not a number: 'four'"):
        read_signal_csv(path)
    path.write_text('1.0,"inf"\n')
    with pytest.raises(ValueError, match=r"row 1, column 2: non-finite cell 'inf'"):
        read_signal_csv(path)
    path.write_text('"t0","t1"\n"1,5",2\n3,4\n')  # a quoted cell that holds a comma
    with pytest.raises(ValueError, match=r"row 2, column 1: not a number: '1,5'"):
        read_signal_csv(path)
    path.write_text("1,9\r,2\n")  # a lone "\r" ends a row: csv reads "1,9" and ",2"
    with pytest.raises(ValueError, match=r"row 2, column 1: not a number: ''"):
        read_signal_csv(path)


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
    assert mask.observed.tolist() == [True, False, True]
    assert mask.missing.tolist() == [1]


def test_mask_missing_is_a_read_only_intp_index():
    mask = generate_mask(20, 0.35, seed=8)
    assert mask.missing.dtype == np.intp
    assert not mask.missing.flags.writeable
    assert np.array_equal(mask.missing, np.flatnonzero(~mask.observed))
    assert mask.num_missing == 7 and mask.num_nodes - mask.num_missing == 13
    with pytest.raises(ValueError):
        mask.missing[0] = 1


def test_explicit_mask_serves_every_run_and_checks_the_node_count():
    mask = SamplingMask(np.array([True, False, True]))
    assert mask.mask_for_run(0, 3) is mask and mask.mask_for_run(4, 3) is mask
    with pytest.raises(ValueError, match="mask covers 3 nodes, graph has 4"):
        mask.mask_for_run(0, 4)
    assert mask.describe() == {
        "mode": "explicit",
        "observed_sha256": "ecfdc94c0f83722e8879e81f69560ab43a59d07cd3cb8f6471833c94a68356e0",
    }


def test_mask_file_rejects_other_digits(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("1 2 1\n")
    with pytest.raises(ValueError):
        read_mask_file(path)
