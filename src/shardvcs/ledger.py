"""Simulated blockchain running the repository-registry contract.

The contract state machine tracks, per repository id (the blob's content
address rendered as text): the owner, the access list, and one escrowed
key share. Transactions are validated when they confirm, not when they are
submitted, so a submission always succeeds and invalid operations surface
as rejected receipts after the confirmation delay, the way a real chain
behaves. View calls are free, instant, and never see half-applied state.
Settled receipts collect in `settled`; the chain itself writes no files.

Confirmations are applied lazily: pending transactions wait in a heap
ordered by (due time, submission order), and whenever the chain is consulted
it first pops and settles every one whose due time has passed. On a virtual
clock this makes the whole lifecycle deterministic and instantaneous to test.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from .clock import Clock, RealClock, is_finite

# Modeled execution cost of a confirmed registration, in gas units.
REGISTER_GAS = 206_886

# Modeled cost of a confirmed collaborator grant. Arbitrary positive
# constant: no measured figure exists for this operation.
ADD_COLLABORATOR_GAS = 50_000

PENDING = "pending"
CONFIRMED = "confirmed"
REJECTED = "rejected"

REASON_ALREADY_REGISTERED = "already-registered"
REASON_NOT_OWNER = "not-owner"


class AccessDeniedError(PermissionError):
    """Caller lacks access to a confirmed repository registration."""


class ClockModeError(RuntimeError):
    """Operation requires a virtual clock but the chain runs on a real one."""


@dataclass(frozen=True)
class Address:
    """20-byte account identifier, rendered `0x` + 40 lowercase hex chars."""

    identity: bytes

    def __post_init__(self) -> None:
        if len(self.identity) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(self.identity)}")

    @property
    def text(self) -> str:
        return "0x" + self.identity.hex()

    def __str__(self) -> str:
        return self.text

    @classmethod
    def from_text(cls, text: str) -> "Address":
        if not text.startswith("0x"):
            raise ValueError(f"address must start with 0x: {text!r}")
        hexpart = text[2:]
        if len(hexpart) != 40 or hexpart != hexpart.lower():
            raise ValueError(f"address must be 40 lowercase hex chars: {text!r}")
        return cls(bytes.fromhex(hexpart))

    @classmethod
    def from_label(cls, label: str) -> "Address":
        """Deterministic address for a human-readable name (test/bench aid)."""
        return cls(hashlib.sha256(label.encode()).digest()[:20])


@dataclass(frozen=True)
class ChainConfig:
    """Confirmation-delay sampling rule: uniform between the two bounds."""

    confirmation_delay_min_s: float = 12.0
    confirmation_delay_max_s: float = 16.0

    def __post_init__(self) -> None:
        bounds = (self.confirmation_delay_min_s, self.confirmation_delay_max_s)
        if not all(math.isfinite(v) and v >= 0 for v in bounds):
            raise ValueError("confirmation delay bounds must be finite and >= 0")
        if self.confirmation_delay_min_s > self.confirmation_delay_max_s:
            raise ValueError("confirmation delay min must not exceed max")


@dataclass(slots=True, kw_only=True)
class TxReceipt:
    """Live handle to a submitted transaction; mutates in place on settlement.

    Fields are declared in receipt-log key order.
    """

    tx_id: str
    status: str = PENDING
    gas_used: int = 0
    submitted_at: float
    confirmed_at: Optional[float] = None
    rejection_reason: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(slots=True)
class _PendingTx:
    receipt: TxReceipt
    kind: str  # "register" | "add_collaborator"
    sender: Address
    repo: str
    share_text: Optional[str]
    collaborator: Optional[Address]


class SimulatedChain:
    """Deterministic single-contract chain with delayed settlement.

    A chain is for one thread: it takes no lock, and no code path shares one
    across threads. A caller that wants to do so must serialize its calls.
    """

    def __init__(
        self,
        config: ChainConfig | None = None,
        clock: Clock | None = None,
        rng=None,
    ):
        import random

        self.config = config if config is not None else ChainConfig()
        self.clock = clock if clock is not None else RealClock()
        self._rng = rng if rng is not None else random.Random()
        self._owners: dict[str, Address] = {}
        # Access beyond the owner's, which is implied: a set per registered
        # repo would be most of the memory a registration keeps.
        self._collaborators: dict[str, set[Address]] = {}
        self._shares: dict[str, str] = {}
        # Min-heap of (due_at, seq, tx): seq is unique, so tx is never compared.
        self._pending: list[tuple[float, int, _PendingTx]] = []
        self._next_seq = 0
        self._settled_seq = -1  # the highest seq settled so far
        self.settled: list[TxReceipt] = []

    # -- settlement core ---------------------------------------------------

    def _sample_delay(self) -> float:
        lo, hi = self.config.confirmation_delay_min_s, self.config.confirmation_delay_max_s
        if lo == hi:
            return lo
        return self._rng.uniform(lo, hi)

    def _apply(self, tx: _PendingTx, due_at: float) -> None:
        r = tx.receipt
        r.confirmed_at = due_at
        if tx.kind == "register":
            if tx.repo in self._owners:
                r.status = REJECTED
                r.rejection_reason = REASON_ALREADY_REGISTERED
            else:
                self._owners[tx.repo] = tx.sender
                self._shares[tx.repo] = tx.share_text
                r.status = CONFIRMED
                r.gas_used = REGISTER_GAS
        else:  # add_collaborator: enqueue makes no other kind, and restore refuses one
            if self._owners.get(tx.repo) != tx.sender:
                r.status = REJECTED
                r.rejection_reason = REASON_NOT_OWNER
            else:
                self._collaborators.setdefault(tx.repo, set()).add(tx.collaborator)
                r.status = CONFIRMED
                r.gas_used = ADD_COLLABORATOR_GAS
        self.settled.append(r)

    def _can_access(self, repo: str, user: Address) -> bool:
        return self._owners.get(repo) == user or user in self._collaborators.get(repo, ())

    def _sync(self) -> list[TxReceipt]:
        """Settle every pending transaction whose due time has passed."""
        now = self.clock.now()
        settled = []
        while self._pending and self._pending[0][0] <= now:
            due_at, seq, tx = heapq.heappop(self._pending)
            self._apply(tx, due_at)
            self._settled_seq = max(self._settled_seq, seq)
            settled.append(tx.receipt)
        return settled

    def _enqueue(self, kind: str, sender: Address, repo: str,
                 share_text: str | None = None, collaborator: Address | None = None) -> TxReceipt:
        now = self.clock.now()
        receipt = TxReceipt(tx_id=f"tx-{self._next_seq:06d}", submitted_at=now)
        tx = _PendingTx(receipt, kind, sender, repo, share_text, collaborator)
        heapq.heappush(self._pending, (now + self._sample_delay(), self._next_seq, tx))
        self._next_seq += 1
        return receipt

    # -- transactions ------------------------------------------------------

    def submit_register(self, sender: Address, repo: str, share_text: str) -> TxReceipt:
        """Enqueue a registration; validity is judged at confirmation time."""
        self._sync()
        return self._enqueue("register", sender, repo, share_text=share_text)

    def submit_add_collaborator(self, sender: Address, repo: str, collaborator: Address) -> TxReceipt:
        self._sync()
        return self._enqueue("add_collaborator", sender, repo, collaborator=collaborator)

    # -- view calls (no gas, no delay) ---------------------------------------

    def check_access(self, repo: str, user: Address) -> bool:
        self._sync()
        return self._can_access(repo, user)

    def get_on_chain_share(self, caller: Address, repo: str) -> Optional[str]:
        """Stored share for confirmed repos; None while pending or unknown."""
        self._sync()
        if repo not in self._owners:
            return None
        if not self._can_access(repo, caller):
            raise AccessDeniedError(f"{caller.text} has no access to {repo}")
        return self._shares[repo]

    def registered_owner(self, repo: str) -> Optional[Address]:
        """Public owner-mapping readback; None while pending or unknown."""
        self._sync()
        return self._owners.get(repo)

    def pending_count(self) -> int:
        self._sync()
        return len(self._pending)

    def due_at(self, tx_id: str) -> Optional[float]:
        """Scheduled settlement time of a still-pending transaction.

        Harness plumbing: lets a benchmark place operations relative to the
        confirmation instant without guessing the sampled delay.
        """
        for due_at, _, tx in self._pending:
            if tx.receipt.tx_id == tx_id:
                return due_at
        return None

    # -- time driver ----------------------------------------------------------

    def advance_clock(self, delta_s: float) -> list[TxReceipt]:
        """Advance virtual time and return the receipts settled by doing so."""
        if not self.clock.is_virtual:
            raise ClockModeError("advance_clock requires a virtual clock")
        self.clock.sleep(delta_s)
        return self._sync()

    # -- persistence (CLI state dir) -------------------------------------------

    def snapshot(self) -> dict:
        self._sync()
        return {
            "next_seq": self._next_seq,
            "settled_seq": self._settled_seq,
            "owners": {repo: addr.text for repo, addr in self._owners.items()},
            "access": {
                repo: sorted(a.text for a in {owner} | self._collaborators.get(repo, set()))
                for repo, owner in self._owners.items()
            },
            "shares": dict(self._shares),
            "pending": [
                {
                    "tx_id": tx.receipt.tx_id,
                    "kind": tx.kind,
                    "sender": tx.sender.text,
                    "repo": tx.repo,
                    "share_text": tx.share_text,
                    "collaborator": tx.collaborator.text if tx.collaborator else None,
                    "submitted_at": tx.receipt.submitted_at,
                    "due_at": due_at,
                    "seq": seq,
                }
                for due_at, seq, tx in sorted(self._pending, key=lambda entry: entry[1])
            ],
        }

    def restore(self, state: dict) -> None:
        """Load a snapshot; one saved before snapshots kept `settled_seq` loads as before."""
        self._next_seq = state["next_seq"]
        self._settled_seq = state.get("settled_seq", -1)
        self._owners = {repo: Address.from_text(a) for repo, a in state["owners"].items()}
        self._collaborators = {}
        for repo, users in state["access"].items():
            extra = {Address.from_text(a) for a in users} - {self._owners.get(repo)}
            if extra:
                self._collaborators[repo] = extra
        self._shares = dict(state["shares"])
        if self._shares.keys() != self._owners.keys() or not all(isinstance(s, str) for s in self._shares.values()):
            raise ValueError("shares must hold one string share for each registered repo and for no other")
        pending = state["pending"]
        for p in pending:
            for key in ("due_at", "submitted_at"):
                if not is_finite(p[key]):
                    raise ValueError(f"pending {key} must be a finite number, got {p[key]!r}")
            needs = {"register": "share_text", "add_collaborator": "collaborator"}.get(p["kind"])
            if not isinstance(p.get(needs), str):
                raise ValueError(f"pending {p['tx_id']}: kind {p['kind']!r} needs a string share_text or collaborator")
        seqs, tx_ids = [p["seq"] for p in pending], {p["tx_id"] for p in pending}
        if any(type(seq) is not int for seq in seqs) or len(set(seqs)) < len(seqs) or len(tx_ids) < len(pending):
            raise ValueError(f"pending seqs must be distinct ints, and tx_ids distinct, got {seqs}")
        if type(self._next_seq) is not int or any(seq >= self._next_seq for seq in seqs):
            raise ValueError(f"next_seq must be an int above every pending seq, got {self._next_seq!r}")
        if type(self._settled_seq) is not int or self._next_seq <= self._settled_seq:
            raise ValueError(f"next_seq must be above settled_seq {self._settled_seq!r}, got {self._next_seq}")
        self._pending = [
            (p["due_at"], p["seq"], _PendingTx(
                receipt=TxReceipt(tx_id=p["tx_id"], submitted_at=p["submitted_at"]),
                kind=p["kind"],
                sender=Address.from_text(p["sender"]),
                repo=p["repo"],
                share_text=p["share_text"],
                collaborator=Address.from_text(p["collaborator"]) if p["kind"] == "add_collaborator" else None,
            ))
            for p in pending
        ]
        heapq.heapify(self._pending)
