"""Push/pull orchestration across sealing, sharding, storage, cache, and chain.

Push seals the repository bytes under a fresh secret and stages the sealed
blob content-addressed in one pass: the store hashes and writes each sealed
piece as the envelope produces it (see `cas` for its buffers and where the
hash runs), and the sealing time falls in the store phase. The blob's
address is then known. The push splits the secret into threshold shares and
sends one share to the middleman cache, and while that request is in flight
it commits the blob (see `StagedBlob.commit`); a commit that fails leaves no
file. Only after the middleman's reply does the push escrow one share
on-chain via a registration transaction, and it hands the last share back
to the owner. If the share store, the commit or the submit fails, the push
evicts the middleman's share once before its error propagates, so it leaves
no live share unless the middleman cannot be reached (the share then lives
until its TTL). A push returns without waiting for the registration to
confirm; the receipt handle settles later. On a real clock the commit
counts in `middleman_s`.

Pull asks the chain once: a confirmed registration returns the on-chain share
or denies the caller, and a pending or unknown one returns nothing, so the
pull uses the middleman's copy. It then fetches the blob, which charges the
modeled download delay and reads nothing yet. On the middleman path it sends
the share request, reads and hashes the blob's first piece while the request
is in flight, then reads the reply. Two shares rebuild the secret, and the
seal is opened in one pass: the store hands the blob out a piece at a time,
re-hashing each piece against its address as it reads it (see `cas`), and
the envelope decrypts each piece as it arrives. Every phase is measured on
the configured clock around its own step, so benchmarks can decompose
latency; the report lists the phases in `PULL_PHASES` order. On a real
clock, reading and hashing the first piece of a middleman pull fall in
`share_fetch_s`, and every other read and hash in `decrypt_s`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from . import envelope
from .cas import BlobStore, Cid, CorruptBlobError, FetchedPieces, StagedBlob
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


# perfbench's TracedStore and TracedCache, proxies that only a change to the
# benchmark may edit, and some test doubles offer only `store`, `store_share`
# and `fetch_share`. For them `_stage` stores the blob at once and `_while`
# runs the work before the call, so that `push` and `pull` each keep one
# code path.


class _Stored:
    """A blob that a store without `stage` has stored already; its commit does nothing."""

    def __init__(self, cid: Cid):
        self.cid = cid

    def commit(self) -> None:
        pass

    def __enter__(self) -> "_Stored":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


def _stage(store, blob) -> StagedBlob | _Stored:
    stage = getattr(store, "stage", None)
    return stage(blob) if stage is not None else _Stored(store.store(blob))


def _while(cache, call: str, work, *args):
    """`cache.<call>_while(*args, work)`, or `work()` then `cache.<call>(*args)`."""
    overlapped = getattr(cache, call + "_while", None)
    if overlapped is not None:
        return overlapped(*args, work)
    work()
    return getattr(cache, call)(*args)


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

        with _stage(self.cas, sealed) as staged:  # a blob left uncommitted leaves no temp file
            stamps.append(self.clock.now())

            # Share roles by index: the owner keeps 1, the middleman caches 2, 3 goes on-chain.
            owner_share, cached_share, escrowed_share = split(secret, DEFAULT_PARAMS, self.rng)
            cid = staged.cid
            repo = cid.text
            try:  # from the share store on, a failed push must leave no live middleman share
                _while(self.middleman, "store_share", staged.commit, repo, cached_share.to_text())
                stamps.append(self.clock.now())
                receipt = self.chain.submit_register(owner, repo, escrowed_share.to_text())
            except BaseException:
                with contextlib.suppress(ConnectionError):  # MiddlemanUnavailableError; the push's error says more
                    self.middleman.evict(repo)
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

        with self.cas.fetch(cid) as blob:  # closes a started read however the pull ends
            stamps.append(self.clock.now())
            try:
                path_used = ON_CHAIN
                if remote_text is None:
                    remote_text, path_used = self._middleman_share(repo, blob), MIDDLEMAN
                try:
                    secret = combine([held_share, Share.from_text(remote_text)], threshold=2)
                except ValueError as exc:  # a malformed share, ReconstructionError, duplicate indices, mismatched lengths
                    raise IntegrityError(f"share reconstruction failed: {exc}") from exc
                stamps.append(self.clock.now())
                plaintext = envelope.unseal(blob, secret)
            except (CorruptBlobError, envelope.DecryptionError) as exc:
                raise IntegrityError(f"sealed blob failed verification: {exc}") from exc
            stamps.append(self.clock.now())

        steps = _phases(("access_s", "blob_fetch_s", "share_fetch_s", "decrypt_s"), stamps)
        return plaintext, RetrievalReport(path_used, {name: steps[name] for name in PULL_PHASES})

    def _middleman_share(self, repo: str, blob: FetchedPieces) -> str:
        """The middleman's copy, fetched while the blob's first piece is read and hashed."""
        remote_text = _while(self.middleman, "fetch_share", blob.start, repo)
        if remote_text is None:
            raise SharesUnavailableError(f"no counterpart share reachable for {repo}")
        return remote_text

    # -- access management ------------------------------------------------------

    def add_collaborator(self, owner: Address, cid: Cid, collaborator: Address) -> TxReceipt:
        return self.chain.submit_add_collaborator(owner, cid.text, collaborator)
