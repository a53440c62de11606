"""Sharded-key decentralized repository hosting, simulated end to end.

A pushed repository is sealed client-side under a fresh symmetric key, the
sealed blob is stored content-addressed, and the key material is split into
threshold shares spread across the owner, a temporary cache service, and a
simulated smart contract. Pulling rebuilds the key from any two shares,
preferring the on-chain copy and falling back to the cache while the
registration is still confirming.
"""

from .cas import BlobStore, CapacityError, Cid, CorruptBlobError, LatencyProfile, NotFoundError
from .clock import Clock, RealClock, VirtualClock, make_clock
from .config import HarnessConfig
from .envelope import DecryptionError, generate_secret, seal, unseal
from .ledger import (
    AccessDeniedError,
    Address,
    ChainConfig,
    ClockModeError,
    REGISTER_GAS,
    SimulatedChain,
    TxReceipt,
)
from .middleman import HttpShareCache, MiddlemanServer, MiddlemanUnavailableError, ShareCache
from .protocol import (
    Client,
    IntegrityError,
    ProtocolError,
    PushResult,
    RetrievalReport,
    SharesUnavailableError,
)
from .sss import (
    DEFAULT_PARAMS,
    ReconstructionError,
    Share,
    ThresholdParams,
    combine,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "AccessDeniedError",
    "Address",
    "BlobStore",
    "CapacityError",
    "ChainConfig",
    "Cid",
    "Client",
    "Clock",
    "ClockModeError",
    "CorruptBlobError",
    "DecryptionError",
    "DEFAULT_PARAMS",
    "HarnessConfig",
    "HttpShareCache",
    "IntegrityError",
    "LatencyProfile",
    "MiddlemanServer",
    "MiddlemanUnavailableError",
    "NotFoundError",
    "ProtocolError",
    "PushResult",
    "REGISTER_GAS",
    "RealClock",
    "ReconstructionError",
    "RetrievalReport",
    "Share",
    "ShareCache",
    "SharesUnavailableError",
    "SimulatedChain",
    "ThresholdParams",
    "TxReceipt",
    "VirtualClock",
    "combine",
    "generate_secret",
    "make_clock",
    "seal",
    "split",
    "unseal",
]
