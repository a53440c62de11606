"""Flat key/value harness configuration.

One `key = value` per line; `#` starts a comment; unknown keys are errors so
typos surface instead of silently falling back to defaults. Every knob the
simulation exposes lives here: the two blob-transfer latency profiles, the
chain confirmation-delay bounds, the middleman TTL, and the clock kind. Each
default is the constant of the module that owns it. The two modeling
constants that are deliberate choices rather than measured figures are not
knobs: the pull overhead is `bench.DEFAULT_PULL_OVERHEAD_S` and the grant gas
is `ledger.ADD_COLLABORATOR_GAS`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .cas import LatencyProfile
from .clock import Clock, make_clock
from .ledger import ChainConfig
from .middleman import DEFAULT_TTL_S


@dataclass
class HarnessConfig:
    store_fixed_s: float = 0.0
    store_per_mb_s: float = 0.0
    fetch_fixed_s: float = 0.0
    fetch_per_mb_s: float = 0.0
    confirmation_delay_min_s: float = ChainConfig.confirmation_delay_min_s
    confirmation_delay_max_s: float = ChainConfig.confirmation_delay_max_s
    clock: str = "virtual"
    middleman_ttl_s: float = DEFAULT_TTL_S

    def __post_init__(self) -> None:
        self.make_clock()  # rejects an unknown clock kind
        if not (math.isfinite(self.middleman_ttl_s) and self.middleman_ttl_s > 0):
            raise ValueError("middleman_ttl_s must be positive and finite")

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "HarnessConfig":
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in kinds:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = float(val) if kinds[key] == "float" else val
                if kinds[key] == "float" and not math.isfinite(values[key]):
                    raise ValueError  # nan and inf parse as floats
            except ValueError:
                raise ValueError(f"config line {lineno}: bad value for {key!r}: {val!r}") from None
        return cls(**values)

    @classmethod
    def from_file(cls, path: str | Path) -> "HarnessConfig":
        return cls.from_text(Path(path).read_text())

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"

    # -- derived objects ---------------------------------------------------------

    def store_profile(self) -> LatencyProfile:
        return LatencyProfile(self.store_fixed_s, self.store_per_mb_s)

    def fetch_profile(self) -> LatencyProfile:
        return LatencyProfile(self.fetch_fixed_s, self.fetch_per_mb_s)

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            confirmation_delay_min_s=self.confirmation_delay_min_s,
            confirmation_delay_max_s=self.confirmation_delay_max_s,
        )

    def make_clock(self) -> Clock:
        return make_clock(self.clock)
