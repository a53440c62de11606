"""Flat key/value harness configuration.

One `key = value` per line; `#` starts a comment; unknown keys are errors so
typos surface instead of silently falling back to defaults. Every knob the
simulation exposes lives here: the two blob-transfer latency profiles, the
chain confirmation-delay bounds, the middleman TTL, and the clock kind. Each
default is the constant of the module that owns it. The one modeling
constant that is a deliberate choice rather than a measured figure, the grant
gas `ledger.ADD_COLLABORATOR_GAS`, is not a knob. `HarnessConfig.client`
builds the world a config describes, for the bench and the CLI alike.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .cas import BlobStore, LatencyProfile
from .clock import make_clock
from .ledger import ChainConfig, SimulatedChain
from .middleman import DEFAULT_TTL_S, ShareCache
from .protocol import Client


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
        make_clock(self.clock)  # rejects an unknown clock kind
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

    # -- the world it describes ---------------------------------------------------

    def client(self, store_root: str | Path, rng=None, middleman=None) -> Client:
        """A client on the world this config describes, with its blob store under `store_root`.

        Store, chain, cache and client share one clock of the configured kind,
        and chain and client share `rng` (each makes its own when it is None).
        `middleman` stands in for the in-process `ShareCache`, which otherwise
        keeps each share for `middleman_ttl_s`.
        """
        clock = make_clock(self.clock)
        cas = BlobStore(
            store_root,
            LatencyProfile(self.store_fixed_s, self.store_per_mb_s),
            LatencyProfile(self.fetch_fixed_s, self.fetch_per_mb_s),
            clock,
        )
        chain = SimulatedChain(ChainConfig(self.confirmation_delay_min_s, self.confirmation_delay_max_s), clock, rng)
        if middleman is None:
            middleman = ShareCache(ttl_s=self.middleman_ttl_s, clock=clock)
        return Client(cas, chain, middleman, clock=clock, rng=rng)
