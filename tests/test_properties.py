"""Property tests: the reply parser round trip, observations, and the online loop's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill._format import format_value
from graphfill.graphs import Graph
from graphfill.harness import Predictor, run_online
from graphfill.messenger import parse_response
from graphfill.signals import MaskSpec, SamplingMask, SignalSeries, observation_from_column

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite)
def test_parse_response_reads_back_format_value(x):
    assert parse_response(format_value(x)).value == x


@st.composite
def masked_columns(draw):
    n = draw(st.integers(1, 12))
    column = draw(st.lists(finite, min_size=n, max_size=n))
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(column), np.array(observed)


@given(masked_columns(), st.integers(0, 1000))
def test_observation_from_column_keeps_present_and_zeroes_absent(case, t):
    column, observed = case
    obs = observation_from_column(column, SamplingMask(observed), t)
    assert obs.time_index == t
    assert np.array_equal(obs.present, observed)
    assert np.array_equal(obs.data, np.where(observed, column, 0.0))
    assert np.all(obs.data[~observed] == 0.0)


class RandomPredictor(Predictor):
    """Proposes seeded random values and remembers every proposal."""

    name = "random"

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.proposals = []

    def predict_missing(self, t, obs, state):
        values = self.rng.normal(scale=100.0, size=self._mask.num_missing)
        self.proposals.append(values)
        return values


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 3),
    st.floats(0.0, 0.99),
    st.integers(0, 2**16),
)
def test_run_online_clamps_observed_entries_and_never_reads_ahead(n, steps, runs, fraction, seed):
    rng = np.random.default_rng(seed)
    truth = SignalSeries(rng.uniform(-1e6, 1e6, size=(n, steps)))
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    predictor = RandomPredictor(seed)
    result = run_online(predictor, g, truth, MaskSpec(fraction, seed), runs=runs)

    proposals = iter(predictor.proposals)
    for est, mask, log in zip(result.estimates, result.masks, result.access_logs):
        observed = mask.observed
        assert np.array_equal(est[observed], truth.values[observed])
        for t in range(steps):
            assert np.array_equal(est[~observed, t], next(proposals))
        assert log == [(t, t) for t in range(steps)]
