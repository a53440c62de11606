"""Push/pull orchestration across sealing, sharding, storage, cache, and chain.

Push seals the repository bytes under a fresh key, stores the sealed blob
content-addressed, splits the key material into threshold shares, parks one
share at the middleman cache, escrows one on-chain via a registration
transaction, and hands the last share back to the owner. It returns without
waiting for the registration to confirm; the receipt handle settles later.

Pull prefers the authoritative on-chain share and falls back to the
middleman cache only while the registration is pending (or the chain is too
slow to answer). Two shares rebuild the key, the blob is fetched (the
store re-hashes it against its address), and the seal is opened. Every phase
duration is measured on the configured clock so benchmarks can decompose
latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import envelope
from .cas import BlobStore, Cid, CorruptBlobError
from .clock import Clock
from .ledger import AccessDeniedError, Address, SimulatedChain, TxReceipt
from .sss import DEFAULT_PARAMS, ReconstructionError, Share, split, combine

ON_CHAIN = "on-chain"
MIDDLEMAN = "middleman"


class ProtocolError(Exception):
    """Base for push/pull orchestration failures."""


class SharesUnavailableError(ProtocolError):
    """Neither the chain nor the middleman produced a counterpart share."""


class IntegrityError(ProtocolError):
    """Retrieved data failed authentication or content-address checks."""


@dataclass
class PushResult:
    cid: Cid
    owner_share: Share
    registration: TxReceipt
    user_perceived_duration: float
    phases: dict[str, float] = field(default_factory=dict)


@dataclass
class RetrievalReport:
    path_used: str
    access_checked: bool
    durations: dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.durations.values())


class Client:
    """Binds one blob store, one chain, and one middleman into the protocol."""

    def __init__(
        self,
        cas: BlobStore,
        chain: SimulatedChain,
        middleman,
        clock: Clock | None = None,
        rng=None,
    ):
        import random

        self.cas = cas
        self.chain = chain
        self.middleman = middleman
        self.clock = clock if clock is not None else chain.clock
        self.rng = rng if rng is not None else random.SystemRandom()

    # -- publish ------------------------------------------------------------

    def push(self, repo_bytes: bytes, owner: Address, rng=None) -> PushResult:
        """Seal, store, distribute shares, register; return before confirmation."""
        if not repo_bytes:
            raise ValueError("cannot push an empty repository blob")
        rng = rng if rng is not None else self.rng

        t0 = self.clock.now()
        bundle = envelope.generate_bundle(rng)
        sealed = envelope.seal(repo_bytes, bundle)
        t1 = self.clock.now()

        cid = self.cas.store(sealed)
        t2 = self.clock.now()

        # Share roles by index: the owner keeps 1, the middleman caches 2, 3 goes on-chain.
        owner_share, cached_share, escrowed_share = split(envelope.bundle_to_secret(bundle), DEFAULT_PARAMS, rng)
        repo = cid.text
        self.middleman.store_share(repo, cached_share.to_text())
        t3 = self.clock.now()

        try:
            receipt = self.chain.submit_register(owner, repo, escrowed_share.to_text())
        except BaseException:
            self.middleman.evict(repo)  # failed push must leave no live cache entry
            raise
        t4 = self.clock.now()

        return PushResult(
            cid=cid,
            owner_share=owner_share,
            registration=receipt,
            user_perceived_duration=t4 - t0,
            phases={
                "seal_s": t1 - t0,
                "store_s": t2 - t1,
                "middleman_s": t3 - t2,
                "submit_s": t4 - t3,
            },
        )

    # -- retrieve -------------------------------------------------------------

    def _default_timeout(self) -> float:
        return 0.0 if getattr(self.clock, "is_virtual", False) else 2.0

    def pull(
        self,
        cid: Cid,
        caller: Address,
        held_share: Share,
        fallback_timeout: float | None = None,
    ) -> tuple[bytes, RetrievalReport]:
        """Fetch, rebuild the key from two shares, verify, and open the blob."""
        if fallback_timeout is None:
            fallback_timeout = self._default_timeout()
        repo = cid.text

        # Access gate: only a confirmed registration can deny. While the
        # registration is still pending (or unknown) there is no on-chain
        # owner to consult, so the pull proceeds optimistically.
        t0 = self.clock.now()
        owner = self.chain.registered_owner(repo)
        access_checked = owner is not None
        if access_checked and not self.chain.check_access(repo, caller):
            raise AccessDeniedError(f"{caller.text} has no access to {repo}")
        t1 = self.clock.now()

        # Authoritative share first; cache fallback on absence or slowness.
        started = self.clock.now()
        remote_text = self.chain.get_on_chain_share(caller, repo)
        elapsed = self.clock.now() - started
        if remote_text is not None and elapsed <= fallback_timeout:
            path_used = ON_CHAIN
        else:
            remote_text = self.middleman.fetch_share(repo)
            if remote_text is None:
                raise SharesUnavailableError(f"no counterpart share reachable for {repo}")
            path_used = MIDDLEMAN
        remote_share = Share.from_text(remote_text)
        try:
            secret = combine([held_share, remote_share], threshold=2)
            bundle = envelope.secret_to_bundle(secret)
        except (ReconstructionError, ValueError) as exc:
            raise IntegrityError(f"share reconstruction failed: {exc}") from exc
        t2 = self.clock.now()

        try:
            blob = self.cas.fetch(cid)
            t3 = self.clock.now()
            plaintext = envelope.unseal(blob, bundle)
        except (CorruptBlobError, envelope.DecryptionError) as exc:
            raise IntegrityError(f"sealed blob failed verification: {exc}") from exc
        t4 = self.clock.now()

        report = RetrievalReport(
            path_used=path_used,
            access_checked=access_checked,
            durations={
                "access_s": t1 - t0,
                "share_fetch_s": t2 - t1,
                "blob_fetch_s": t3 - t2,
                "decrypt_s": t4 - t3,
            },
        )
        return plaintext, report

    # -- access management ------------------------------------------------------

    def add_collaborator(self, owner: Address, cid: Cid, collaborator: Address) -> TxReceipt:
        return self.chain.submit_add_collaborator(owner, cid.text, collaborator)
