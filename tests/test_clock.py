import time

import pytest

from shardvcs.clock import RealClock, VirtualClock, make_clock


def test_virtual_clock_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_virtual_sleep_advances_without_waiting():
    clock = VirtualClock()
    before = time.monotonic()
    clock.sleep(3600.0)
    assert time.monotonic() - before < 1.0
    assert clock.now() == 3600.0


def test_virtual_negative_sleep_rejected():
    with pytest.raises(ValueError):
        VirtualClock().sleep(-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_virtual_clock_rejects_non_finite_times(value):
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.sleep(value)
    with pytest.raises(ValueError):
        clock.advance_to(value)
    assert clock.now() == 0.0


def test_virtual_advance_to():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now() == 10.0
    with pytest.raises(ValueError):
        clock.advance_to(9.0)


def test_real_clock_tracks_wall_time():
    clock = RealClock()
    a = clock.now()
    clock.sleep(0.02)
    assert clock.now() - a >= 0.015


def test_make_clock():
    assert make_clock("virtual").is_virtual
    assert not make_clock("real").is_virtual
    with pytest.raises(ValueError):
        make_clock("cesium")
