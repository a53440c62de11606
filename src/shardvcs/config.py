"""Flat key/value harness configuration.

One `key = value` per line; `#` starts a comment; unknown keys are errors so
typos surface instead of silently falling back to defaults. Every knob the
simulation exposes lives here: the two blob-transfer latency profiles, the
chain confirmation-delay bounds, the middleman TTL, the clock kind, and two
modeling constants (pull protocol overhead, grant gas) that are deliberate
artifact choices rather than measured figures. Each default is the constant
of the module that owns it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .bench import DEFAULT_PULL_OVERHEAD_S
from .cas import LatencyProfile
from .clock import Clock, make_clock
from .ledger import DEFAULT_ADD_COLLABORATOR_GAS, ChainConfig
from .middleman import DEFAULT_TTL_S

CLOCK_KINDS = ("virtual", "real")


@dataclass
class HarnessConfig:
    store_fixed_s: float = 0.0
    store_per_mb_s: float = 0.0
    fetch_fixed_s: float = 0.0
    fetch_per_mb_s: float = 0.0
    confirmation_delay_min_s: float = 12.0
    confirmation_delay_max_s: float = 16.0
    clock: str = "virtual"
    middleman_ttl_s: float = DEFAULT_TTL_S
    pull_overhead_s: float = DEFAULT_PULL_OVERHEAD_S
    add_collaborator_gas: int = DEFAULT_ADD_COLLABORATOR_GAS

    def __post_init__(self) -> None:
        if self.clock not in CLOCK_KINDS:
            raise ValueError(f"clock must be one of {CLOCK_KINDS}, got {self.clock!r}")
        if self.middleman_ttl_s <= 0:
            raise ValueError("middleman_ttl_s must be positive")
        if self.pull_overhead_s < 0:
            raise ValueError("pull_overhead_s must be >= 0")

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
                if kinds[key] == "int":
                    values[key] = int(val)
                elif kinds[key] == "float":
                    values[key] = float(val)
                else:
                    values[key] = val
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
            add_collaborator_gas=self.add_collaborator_gas,
        )

    def make_clock(self) -> Clock:
        return make_clock(self.clock)
