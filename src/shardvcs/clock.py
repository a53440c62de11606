"""Virtual and real clocks shared by the storage, ledger, and cache layers.

The virtual clock advances only when a component sleeps on it, so second-scale
latency models run in microseconds of wall time.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Protocol


def is_finite(x) -> bool:
    """A finite number; False, not an error, for a non-number or an int past float range."""
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


class Clock(Protocol):
    is_virtual: bool

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class VirtualClock:
    """Simulation time in seconds, starting at 0.0."""

    is_virtual = True

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"cannot sleep a negative or non-finite duration: {seconds}")
        with self._lock:
            self._now += seconds

    def advance_to(self, timestamp: float) -> None:
        if not math.isfinite(timestamp):
            raise ValueError(f"cannot go to a non-finite time: {timestamp}")
        with self._lock:
            if timestamp < self._now:
                raise ValueError(
                    f"cannot go back in time: {timestamp} < {self._now}"
                )
            self._now = timestamp


class RealClock:
    """Wall-clock time; `now` is epoch seconds so timestamps survive restarts."""

    is_virtual = False

    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


def make_clock(kind: str) -> VirtualClock | RealClock:
    if kind == "virtual":
        return VirtualClock()
    if kind == "real":
        return RealClock()
    raise ValueError(f"unknown clock kind: {kind!r} (expected 'virtual' or 'real')")
