import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from shardvcs.clock import RealClock, VirtualClock
from shardvcs.ledger import (
    ADD_COLLABORATOR_GAS,
    REGISTER_GAS,
    AccessDeniedError,
    Address,
    ChainConfig,
    ClockModeError,
    SimulatedChain,
    TxReceipt,
)

from contract_oracle import ACCESS_DENIED, ContractOracle

ALICE = Address.from_label("alice")
BOB = Address.from_label("bob")
CAROL = Address.from_label("carol")


def make_chain(delay=14.0, **kw) -> tuple[SimulatedChain, VirtualClock]:
    clock = VirtualClock()
    chain = SimulatedChain(ChainConfig(delay, delay), clock, rng=random.Random(0), **kw)
    return chain, clock


def test_address_render_and_parse():
    addr = Address(bytes(range(20)))
    assert addr.text == "0x" + bytes(range(20)).hex()
    assert len(addr.text) == 42
    assert Address.from_text(addr.text) == addr
    with pytest.raises(ValueError):
        Address.from_text(addr.text.upper())
    with pytest.raises(ValueError):
        Address.from_text("0x1234")
    with pytest.raises(ValueError):
        Address(b"\x00" * 19)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(confirmation_delay_min_s=-1.0, confirmation_delay_max_s=5.0)
    with pytest.raises(ValueError):
        ChainConfig(confirmation_delay_min_s=10.0, confirmation_delay_max_s=5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_chain_config_rejects_non_finite_bounds(value):
    with pytest.raises(ValueError, match="finite"):
        ChainConfig(confirmation_delay_min_s=value, confirmation_delay_max_s=16.0)
    with pytest.raises(ValueError, match="finite"):
        ChainConfig(confirmation_delay_min_s=12.0, confirmation_delay_max_s=value)


def test_register_lifecycle():
    chain, _ = make_chain(delay=14.0)
    receipt = chain.submit_register(ALICE, "repo-1", "03ab")
    assert receipt.status == "pending"
    assert receipt.gas_used == 0
    assert not chain.check_access("repo-1", ALICE)

    chain.advance_clock(13.0)
    assert receipt.status == "pending"
    chain.advance_clock(1.0)
    assert receipt.status == "confirmed"
    assert receipt.gas_used == REGISTER_GAS == 206_886
    assert receipt.confirmed_at == pytest.approx(receipt.submitted_at + 14.0)
    assert chain.check_access("repo-1", ALICE)
    assert chain.get_on_chain_share(ALICE, "repo-1") == "03ab"
    assert chain.registered_owner("repo-1") == ALICE


def test_second_register_rejected():
    chain, _ = make_chain()
    first = chain.submit_register(ALICE, "repo", "03aa")
    chain.advance_clock(14.0)
    second = chain.submit_register(BOB, "repo", "03bb")
    chain.advance_clock(14.0)
    assert first.status == "confirmed"
    assert second.status == "rejected"
    assert second.rejection_reason == "already-registered"
    assert second.gas_used == 0
    assert chain.registered_owner("repo") == ALICE
    assert chain.get_on_chain_share(ALICE, "repo") == "03aa"


def test_conflicting_registers_in_one_batch():
    chain, _ = make_chain()
    first = chain.submit_register(ALICE, "repo", "03aa")
    second = chain.submit_register(BOB, "repo", "03bb")
    chain.advance_clock(20.0)
    assert first.status == "confirmed"
    assert second.status == "rejected"


def test_view_trichotomy():
    chain, _ = make_chain()
    assert chain.get_on_chain_share(ALICE, "ghost") is None  # unknown
    chain.submit_register(ALICE, "repo", "03aa")
    assert chain.get_on_chain_share(ALICE, "repo") is None  # pending
    chain.advance_clock(14.0)
    assert chain.get_on_chain_share(ALICE, "repo") == "03aa"
    with pytest.raises(AccessDeniedError):
        chain.get_on_chain_share(BOB, "repo")  # confirmed, no access


def test_check_access_defaults_false():
    chain, _ = make_chain()
    assert not chain.check_access("nothing", ALICE)
    chain.submit_register(ALICE, "repo", "03aa")
    assert not chain.check_access("repo", ALICE)  # pending, not yet applied


def test_add_collaborator_flow():
    chain, _ = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    chain.advance_clock(14.0)
    grant = chain.submit_add_collaborator(ALICE, "repo", BOB)
    assert not chain.check_access("repo", BOB)
    chain.advance_clock(14.0)
    assert grant.status == "confirmed"
    assert grant.gas_used == ADD_COLLABORATOR_GAS
    assert chain.check_access("repo", BOB)
    assert chain.get_on_chain_share(BOB, "repo") == "03aa"


def test_add_collaborator_rejections():
    chain, _ = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    chain.advance_clock(14.0)
    not_owner = chain.submit_add_collaborator(BOB, "repo", CAROL)
    unregistered = chain.submit_add_collaborator(ALICE, "ghost", BOB)
    chain.advance_clock(14.0)
    assert not_owner.status == "rejected"
    assert not_owner.rejection_reason == "not-owner"
    assert unregistered.status == "rejected"
    assert unregistered.rejection_reason == "not-owner"
    assert not chain.check_access("repo", CAROL)


def test_views_cost_no_time():
    chain, clock = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    mark = clock.now()
    chain.check_access("repo", ALICE)
    chain.get_on_chain_share(ALICE, "repo")
    chain.registered_owner("repo")
    assert clock.now() == mark


def test_advance_clock_requires_virtual():
    chain = SimulatedChain(ChainConfig(0.01, 0.01), RealClock())
    with pytest.raises(ClockModeError):
        chain.advance_clock(1.0)


def test_real_clock_settles_with_wall_time():
    chain = SimulatedChain(ChainConfig(0.03, 0.03), RealClock())
    receipt = chain.submit_register(ALICE, "repo", "03aa")
    assert receipt.status == "pending"
    deadline = RealClock().now() + 2.0
    while receipt.status == "pending" and RealClock().now() < deadline:
        RealClock().sleep(0.005)
        chain.pending_count()
    assert receipt.status == "confirmed"


def test_uniform_delay_fidelity():
    clock = VirtualClock()
    config = ChainConfig(confirmation_delay_min_s=12.0, confirmation_delay_max_s=16.0)
    chain = SimulatedChain(config, clock, rng=random.Random(42))
    receipts = [chain.submit_register(ALICE, f"repo-{i}", "03aa") for i in range(50)]
    chain.advance_clock(16.0)
    delays = [r.confirmed_at - r.submitted_at for r in receipts]
    assert all(12.0 <= d <= 16.0 for d in delays)
    assert max(delays) - min(delays) > 0.5  # actually sampling, not constant


def test_receipt_log_jsonl():
    chain, _ = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    chain.submit_register(BOB, "repo", "03bb")
    chain.advance_clock(14.0)
    lines = [r.to_json() for r in chain.settled]
    assert len(lines) == 2
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {
            "tx_id",
            "status",
            "gas_used",
            "submitted_at",
            "confirmed_at",
            "rejection_reason",
        }
    assert [r.status for r in chain.settled] == ["confirmed", "rejected"]


def test_receipt_log_line_is_pinned():
    chain, _ = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    chain.submit_register(BOB, "repo", "03bb")
    chain.advance_clock(14.0)
    assert [r.to_json() for r in chain.settled] == [
        '{"tx_id": "tx-000000", "status": "confirmed", "gas_used": 206886, "submitted_at": 0.0,'
        ' "confirmed_at": 14.0, "rejection_reason": null}',
        '{"tx_id": "tx-000001", "status": "rejected", "gas_used": 0, "submitted_at": 0.0,'
        ' "confirmed_at": 14.0, "rejection_reason": "already-registered"}',
    ]


def test_snapshot_restore_preserves_pending(tmp_path):
    chain, clock = make_chain()
    chain.submit_register(ALICE, "repo", "03aa")
    chain.advance_clock(5.0)
    state = chain.snapshot()

    clock2 = VirtualClock()
    clock2.advance_to(clock.now())
    chain2 = SimulatedChain(ChainConfig(14.0, 14.0), clock2)
    chain2.restore(state)
    assert chain2.registered_owner("repo") is None
    settled = chain2.advance_clock(9.0)
    assert [r.tx_id for r in settled] == ["tx-000000"]
    assert chain2.registered_owner("repo") == ALICE
    assert chain2.get_on_chain_share(ALICE, "repo") == "03aa"


def test_snapshot_lists_everyone_with_access_and_restores_it():
    chain, clock = make_chain(delay=1.0)
    chain.submit_register(ALICE, "repo", "03aa")
    chain.submit_register(BOB, "solo", "03bb")
    chain.advance_clock(1.0)
    chain.submit_add_collaborator(ALICE, "repo", CAROL)
    chain.submit_add_collaborator(ALICE, "repo", ALICE)  # the owner already has access
    chain.advance_clock(1.0)
    state = chain.snapshot()
    assert state["access"] == {"repo": sorted([ALICE.text, CAROL.text]), "solo": [BOB.text]}

    clock2 = VirtualClock()
    clock2.advance_to(clock.now())
    chain2 = SimulatedChain(ChainConfig(1.0, 1.0), clock2)
    chain2.restore(json.loads(json.dumps(state)))
    assert chain2.snapshot() == state
    assert chain2.check_access("repo", CAROL) and chain2.check_access("repo", ALICE)
    assert not chain2.check_access("solo", CAROL)
    with pytest.raises(AccessDeniedError):
        chain2.get_on_chain_share(CAROL, "solo")


def test_ownership_never_changes_and_access_monotone():
    chain, _ = make_chain(delay=1.0)
    rng = random.Random(9)
    addrs = [Address.from_label(f"a{i}") for i in range(4)]
    repos = [f"repo-{i}" for i in range(3)]
    seen_owner: dict[str, Address] = {}
    seen_access: set[tuple[str, str]] = set()
    for _ in range(200):
        op = rng.choice(["register", "grant"])
        repo = rng.choice(repos)
        sender = rng.choice(addrs)
        if op == "register":
            chain.submit_register(sender, repo, "03aa")
        else:
            chain.submit_add_collaborator(sender, repo, rng.choice(addrs))
        chain.advance_clock(1.0)
        for r in repos:
            owner = chain.registered_owner(r)
            if r in seen_owner:
                assert owner == seen_owner[r]
            elif owner is not None:
                seen_owner[r] = owner
            for a in addrs:
                if (r, a.text) in seen_access:
                    assert chain.check_access(r, a)
                elif chain.check_access(r, a):
                    seen_access.add((r, a.text))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_property_oracle_equivalence(data):
    n_addrs = data.draw(st.integers(1, 5))
    n_repos = data.draw(st.integers(1, 5))
    addrs = [Address.from_label(f"addr-{i}") for i in range(n_addrs)]
    repos = [f"repo-{i}" for i in range(n_repos)]

    clock = VirtualClock()
    chain = SimulatedChain(ChainConfig(1.0, 1.0), clock)
    oracle = ContractOracle()

    n_ops = data.draw(st.integers(0, 50))
    for step in range(n_ops):
        kind = data.draw(st.sampled_from(["register", "grant"]), label=f"op{step}")
        sender = data.draw(st.sampled_from(addrs), label=f"sender{step}")
        repo = data.draw(st.sampled_from(repos), label=f"repo{step}")
        if kind == "register":
            share = f"03{step:02x}"
            receipt = chain.submit_register(sender, repo, share)
            expected = oracle.register(sender.text, repo, share)
        else:
            collab = data.draw(st.sampled_from(addrs), label=f"collab{step}")
            receipt = chain.submit_add_collaborator(sender, repo, collab)
            expected = oracle.add_collaborator(sender.text, repo, collab.text)
        chain.advance_clock(1.0)
        assert receipt.status == expected

    for repo in repos:
        owner = chain.registered_owner(repo)
        assert (owner.text if owner else None) == oracle.owners.get(repo)
        for addr in addrs:
            assert chain.check_access(repo, addr) == oracle.check_access(repo, addr.text)
            expected_share = oracle.get_share(addr.text, repo)
            if expected_share is ACCESS_DENIED:
                with pytest.raises(AccessDeniedError):
                    chain.get_on_chain_share(addr, repo)
            else:
                assert chain.get_on_chain_share(addr, repo) == expected_share


_ADDRS = [ALICE, BOB, CAROL]
_REPOS = ["repo-a", "repo-b", "repo-c"]
_REASONS = {"register": "already-registered", "add_collaborator": "not-owner"}
_GAS = {"register": REGISTER_GAS, "add_collaborator": ADD_COLLABORATOR_GAS}


class LedgerModel(RuleBasedStateMachine):
    """The chain beside a model: the oracle plus its own queue of pending operations.

    Unlike the tests above, the clock does not move between submissions, so
    many transactions are pending at once. The model settles its queue in
    (due time, submission index) order and predicts every delay with a twin
    rng that draws `uniform(lo, hi)` once per submission, as the chain does.
    """

    @initialize(seed=st.integers(0, 2**32 - 1), delays=st.sampled_from([(10.0, 10.0), (5.0, 15.0), (0.5, 3.0)]))
    def start(self, seed, delays):
        self.config = ChainConfig(*delays)
        self.clock = VirtualClock()
        self.chain_rng, self.twin = random.Random(seed), random.Random(seed)
        self.chain = SimulatedChain(self.config, self.clock, rng=self.chain_rng)
        self.oracle = ContractOracle()
        self.queue: list[tuple[float, int, str, tuple]] = []  # (due, index, kind, oracle args)
        self.expected: dict[str, str] = {}  # tx_id -> predicted status
        self.handles: dict[str, TxReceipt] = {}  # tx_id -> live receipt from the current chain

    def _submitted(self, receipt, kind: str, args: tuple) -> None:
        index = len(self.expected)
        assert receipt.tx_id == f"tx-{index:06d}"
        due = self.clock.now() + self.twin.uniform(self.config.confirmation_delay_min_s,
                                                   self.config.confirmation_delay_max_s)
        self.queue.append((due, index, kind, args))
        self.expected[receipt.tx_id] = "pending"
        self.handles[receipt.tx_id] = receipt

    @rule(sender=st.sampled_from(_ADDRS), repo=st.sampled_from(_REPOS), share=st.sampled_from(["02aa", "03bb"]))
    def register(self, sender, repo, share):
        self._submitted(self.chain.submit_register(sender, repo, share), "register", (sender.text, repo, share))

    @rule(repo=st.sampled_from(_REPOS), first=st.sampled_from(_ADDRS), second=st.sampled_from(_ADDRS))
    def conflicting_registers(self, repo, first, second):
        self.register(first, repo, "02aa")
        self.register(second, repo, "03bb")

    @rule(sender=st.sampled_from(_ADDRS), repo=st.sampled_from(_REPOS), collaborator=st.sampled_from(_ADDRS))
    def add_collaborator(self, sender, repo, collaborator):
        receipt = self.chain.submit_add_collaborator(sender, repo, collaborator)
        self._submitted(receipt, "add_collaborator", (sender.text, repo, collaborator.text))

    @rule(dt=st.sampled_from([0.5, 1.0, 2.5, 5.0, 10.0, 16.0]))
    def advance(self, dt):
        settled = self.chain.advance_clock(dt)
        now = self.clock.now()
        self.queue.sort(key=lambda entry: entry[:2])
        predicted = []
        while self.queue and self.queue[0][0] <= now:
            due, index, kind, args = self.queue.pop(0)
            status = getattr(self.oracle, kind)(*args)
            tx_id = f"tx-{index:06d}"
            self.expected[tx_id] = status
            confirmed = status == "confirmed"
            predicted.append((tx_id, status, None if confirmed else _REASONS[kind], _GAS[kind] if confirmed else 0, due))
        assert [(r.tx_id, r.status, r.rejection_reason, r.gas_used, r.confirmed_at) for r in settled] == predicted

    @rule()
    def snapshot_and_restore(self):
        """Reload into a fresh chain and clock, as each CLI command does."""
        state = json.loads(json.dumps(self.chain.snapshot()))
        now, self.clock = self.clock.now(), VirtualClock()
        self.clock.advance_to(now)
        self.chain = SimulatedChain(self.config, self.clock, rng=self.chain_rng)
        self.chain.restore(state)
        assert self.chain.snapshot() == state
        self.handles = {}  # the old chain's receipts no longer settle

    @invariant()
    def agrees_with_the_oracle(self):
        assert self.chain.pending_count() == len(self.queue)
        for tx_id, receipt in self.handles.items():
            assert receipt.status == self.expected[tx_id], tx_id
        for repo in _REPOS:
            owner = self.chain.registered_owner(repo)
            assert (owner.text if owner else None) == self.oracle.owners.get(repo)
            for addr in _ADDRS:
                assert self.chain.check_access(repo, addr) == self.oracle.check_access(repo, addr.text)
                expected_share = self.oracle.get_share(addr.text, repo)
                if expected_share is ACCESS_DENIED:
                    with pytest.raises(AccessDeniedError):
                        self.chain.get_on_chain_share(addr, repo)
                else:
                    assert self.chain.get_on_chain_share(addr, repo) == expected_share


LedgerModel.TestCase.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)
TestLedgerModel = LedgerModel.TestCase
