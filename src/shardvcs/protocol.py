"""Push/pull orchestration across sealing, sharding, storage, cache, and chain.

Push seals the repository bytes under a fresh secret and stores the sealed
blob content-addressed in one pass: the store hashes and writes each sealed
piece as the envelope produces it, so a push holds at most one piece (1 MiB)
beyond the plaintext, and the sealing time falls in the store phase. It then
splits the secret into threshold shares, parks one share at the middleman
cache, escrows one on-chain via a registration transaction, and hands the
last share back to the owner. It returns without waiting for the
registration to confirm; the receipt handle settles later.

Pull asks the chain once: a confirmed registration returns the on-chain share
or denies the caller, and a pending or unknown one returns nothing, so the
pull uses the middleman's copy. Two shares rebuild the
secret, the blob is fetched, and the seal is opened in one pass: the store
hands the blob out a piece at a time, re-hashing each piece against its
address as it reads it, and the envelope decrypts each piece as it arrives.
So a pull holds at most one piece (1 MiB) beyond the plaintext, and on a real
clock reading and hashing the blob fall in the decrypt phase. Every phase
duration is measured on the configured clock so benchmarks can decompose
latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import envelope
from .cas import BlobStore, Cid, CorruptBlobError
from .clock import Clock
from .ledger import Address, SimulatedChain, TxReceipt
from .sss import DEFAULT_PARAMS, Share, split, combine

ON_CHAIN = "on-chain"
MIDDLEMAN = "middleman"

PUSH_PHASES = ("seal_s", "store_s", "middleman_s", "submit_s")
PULL_PHASES = ("access_s", "share_fetch_s", "blob_fetch_s", "decrypt_s")


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
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def access_checked(self) -> bool:
        """Whether the chain's access gate ran: it did exactly when its share was used."""
        return self.path_used == ON_CHAIN

    @property
    def total_s(self) -> float:
        return sum(self.phases.values())


def _phases(names: tuple[str, ...], stamps: list[float]) -> dict[str, float]:
    """Each named phase runs from one clock stamp to the next."""
    return {name: end - start for name, start, end in zip(names, stamps, stamps[1:])}


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

    def push(self, repo_bytes: bytes, owner: Address) -> PushResult:
        """Seal, store, distribute shares, register; return before confirmation."""
        if not repo_bytes:
            raise ValueError("cannot push an empty repository blob")

        stamps = [self.clock.now()]
        secret = envelope.generate_secret(self.rng)
        sealed = envelope.SealedPieces(repo_bytes, secret)  # sealed as the store draws it
        stamps.append(self.clock.now())

        cid = self.cas.store(sealed)
        stamps.append(self.clock.now())

        # Share roles by index: the owner keeps 1, the middleman caches 2, 3 goes on-chain.
        owner_share, cached_share, escrowed_share = split(secret, DEFAULT_PARAMS, self.rng)
        repo = cid.text
        self.middleman.store_share(repo, cached_share.to_text())
        stamps.append(self.clock.now())

        try:
            receipt = self.chain.submit_register(owner, repo, escrowed_share.to_text())
        except BaseException:
            self.middleman.evict(repo)  # failed push must leave no live cache entry
            raise
        stamps.append(self.clock.now())

        return PushResult(
            cid=cid,
            owner_share=owner_share,
            registration=receipt,
            user_perceived_duration=stamps[-1] - stamps[0],
            phases=_phases(PUSH_PHASES, stamps),
        )

    # -- retrieve -------------------------------------------------------------

    def pull(self, cid: Cid, caller: Address, held_share: Share) -> tuple[bytes | bytearray, RetrievalReport]:
        """Fetch, rebuild the secret from two shares, verify, and open the blob."""
        repo = cid.text

        # One view call is both the access gate and the share read: a confirmed
        # registration returns the share or denies the caller. While the
        # registration is still pending (or unknown) it returns None, there is
        # no on-chain owner to consult, and the pull proceeds optimistically
        # on the middleman's copy.
        stamps = [self.clock.now()]
        remote_text = self.chain.get_on_chain_share(caller, repo)
        stamps.append(self.clock.now())

        path_used = ON_CHAIN
        if remote_text is None:
            remote_text = self.middleman.fetch_share(repo)
            if remote_text is None:
                raise SharesUnavailableError(f"no counterpart share reachable for {repo}")
            path_used = MIDDLEMAN
        try:
            secret = combine([held_share, Share.from_text(remote_text)], threshold=2)
        except ValueError as exc:  # a malformed share, ReconstructionError, duplicate indices, mismatched lengths
            raise IntegrityError(f"share reconstruction failed: {exc}") from exc
        stamps.append(self.clock.now())

        try:
            blob = self.cas.fetch(cid)  # read as unseal draws the pieces
            stamps.append(self.clock.now())
            plaintext = envelope.unseal(blob, secret)
        except (CorruptBlobError, envelope.DecryptionError) as exc:
            raise IntegrityError(f"sealed blob failed verification: {exc}") from exc
        stamps.append(self.clock.now())

        return plaintext, RetrievalReport(path_used, _phases(PULL_PHASES, stamps))

    # -- access management ------------------------------------------------------

    def add_collaborator(self, owner: Address, cid: Cid, collaborator: Address) -> TxReceipt:
        return self.chain.submit_add_collaborator(owner, cid.text, collaborator)
