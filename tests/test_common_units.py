"""Unit-conversion helpers."""

import pytest

from repro.common import units


def test_time_constants_relative_magnitudes():
    assert units.US == 1_000 * units.NS
    assert units.MS == 1_000 * units.US
    assert units.S == 1_000 * units.MS


def test_size_constants():
    assert units.KB == 1024
    assert units.MB == 1024 ** 2
    assert units.GB == 1024 ** 3


def test_one_gbps_is_one_byte_per_ns():
    assert units.GBPS == 1.0


def test_gbit_conversion_100g():
    # 100 Gbit/s == 12.5 GB/s == 12.5 bytes/ns
    assert units.gbit(100.0) == pytest.approx(12.5)


def test_to_us():
    assert units.to_us(2_500.0) == pytest.approx(2.5)


def test_mhz_cycle_ns():
    assert units.mhz_cycle_ns(250.0) == pytest.approx(4.0)
    assert units.mhz_cycle_ns(300.0) == pytest.approx(10.0 / 3.0)


def test_mhz_cycle_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.mhz_cycle_ns(0.0)
