"""Percentiles and series."""

import pytest

from repro.sim.stats import Series, percentile


def test_percentile():
    values = list(map(float, range(1, 101)))
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_series():
    s = Series("FV")
    s.add(64, 100.0, runs=10)
    s.add(128, 180.0)
    assert s.xs == [64, 128]
    assert s.ys == [100.0, 180.0]
    assert s.y_at(64) == 100.0
    with pytest.raises(KeyError):
        s.y_at(999)
