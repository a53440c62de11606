"""Sharded-key decentralized repository hosting, simulated end to end.

A pushed repository is sealed client-side under a fresh symmetric key, the
sealed blob is stored content-addressed, and the key material is split into
threshold shares spread across the owner, a temporary cache service, and a
simulated smart contract. Pulling rebuilds the key from any two shares,
preferring the on-chain copy and falling back to the cache while the
registration is still confirming.

Importing the package imports no submodule. Each exported name loads its
module on first access (PEP 562), so a process such as `shardvcs
serve-middleman` pays only for the layers it uses. `from shardvcs import *`
still loads them all.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cas": ("BlobStore", "Cid", "CorruptBlobError", "LatencyProfile", "NotFoundError"),
    "clock": ("Clock", "RealClock", "VirtualClock", "make_clock"),
    "config": ("HarnessConfig",),
    "envelope": ("DecryptionError", "SealedPieces", "generate_secret", "seal", "unseal"),
    "ledger": ("AccessDeniedError", "Address", "ChainConfig", "ClockModeError", "REGISTER_GAS", "SimulatedChain",
               "TxReceipt"),
    "middleman": ("HttpShareCache", "MiddlemanServer", "MiddlemanUnavailableError", "ShareCache"),
    "protocol": ("Client", "IntegrityError", "ProtocolError", "PushResult", "RetrievalReport",
                 "SharesUnavailableError"),
    "sss": ("DEFAULT_PARAMS", "ReconstructionError", "Share", "ThresholdParams", "combine", "split"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
