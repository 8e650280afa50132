"""The percentile definition and the sample-count rule for tail latencies."""

import pytest

from qoebench.stats import median, min_samples, percentile, samples_beyond


def test_nearest_rank_percentile_returns_an_observed_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.2) == 1.0
    assert percentile(values, 0.21) == 2.0
    assert percentile(values, 1.0) == 5.0


def test_p99_needs_a_thousand_samples_for_ten_beyond_it():
    assert min_samples(0.99) == 1000
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) < 10
    assert min_samples(0.5, tail=10) == 20


def test_p99_of_a_thousand_leaves_exactly_ten_above():
    values = list(range(1000))
    p99 = percentile(values, 0.99)
    assert sum(v > p99 for v in values) == 10


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        median([])
