"""Acceptance gate: one test per criterion, each printing one verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen. Every check states its tolerance inline; expected values come
from the embedded reference table, from independent oracles living next to
these tests, or from constants frozen after computing them out-of-band.

Known red: the reference-table pull reproduction. A two-parameter linear
latency model fitted by least squares to the four pull means cannot land
within ±15% of all of them — the 1 MB and 5 MB rows sit at about +15.7% and
−15.5% under the best fit. The test states the requirement faithfully,
prints the per-size deviations, and fails; the push half fits within ±10%.
"""

import itertools
import random
import shutil
import time

import pytest

from shardvcs.bench import (
    EMBEDDED_REFERENCE,
    render_report,
    run_pull_bench,
    run_push_bench,
)
from shardvcs.cas import BlobStore, LatencyProfile
from shardvcs.clock import VirtualClock
from shardvcs.ledger import (
    REGISTER_GAS,
    AccessDeniedError,
    Address,
    ChainConfig,
    SimulatedChain,
)
from shardvcs.middleman import MiddlemanUnavailableError, ShareCache
from shardvcs.protocol import Client, IntegrityError
from shardvcs.sss import ReconstructionError, ThresholdParams, combine, split

from contract_oracle import ACCESS_DENIED, ContractOracle


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def test_acceptance_1_secret_sharing_reconstruction_property():
    # every k-subset reconstructs, every (k-1)-subset errors; n <= 5,
    # 200 random secrets of lengths 1..64; runtime < 10 s
    t0 = time.perf_counter()
    rng = random.Random(101)
    secrets = [rng.randbytes(rng.randint(1, 64)) for _ in range(200)]
    failures = []
    for n in range(1, 6):
        for k in range(1, n + 1):
            params = ThresholdParams(k, n)
            for secret in secrets:
                shares = split(secret, params, rng=rng)
                for subset in itertools.combinations(shares, k):
                    if combine(list(subset), threshold=k) != secret:
                        failures.append(f"(k={k},n={n}) wrong reconstruction")
                for subset in itertools.combinations(shares, k - 1):
                    try:
                        combine(list(subset), threshold=k)
                        failures.append(f"(k={k},n={n}) {k - 1} shares did not error")
                    except ReconstructionError:
                        pass
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _verdict(
        "secret-sharing reconstruction property",
        ok,
        f"15 (k,n) pairs x 200 secrets, {len(failures)} violations, {elapsed:.1f}s (limit 10s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 10.0


# The 0.999 quantile of chi-square with 255 degrees of freedom, frozen from
# scipy.stats.chi2.isf(0.001, 255); the Wilson-Hilferty approximation gives
# 330.55. A statistic at most this has p >= 0.001.
CHI2_255_AT_0_999 = 330.51974363400586


def test_acceptance_2_share_byte_uniformity():
    # k=2, fixed secret, 25,600 fresh splits: the first payload byte of the
    # first share is chi-square uniform at significance 0.001; runtime < 30 s
    t0 = time.perf_counter()
    rng = random.Random(2026)
    secret = bytes(range(32))
    params = ThresholdParams(2, 3)
    counts = [0] * 256
    for _ in range(25_600):
        counts[split(secret, params, rng=rng)[0].payload[0]] += 1
    expected = 25_600 / 256
    statistic = sum((c - expected) ** 2 for c in counts) / expected
    elapsed = time.perf_counter() - t0
    ok = statistic <= CHI2_255_AT_0_999 and elapsed < 30.0
    _verdict(
        "share byte uniformity",
        ok,
        f"chi2={statistic:.2f} over 256 bins, at most {CHI2_255_AT_0_999:.2f} (p >= 0.001),"
        f" {elapsed:.1f}s (limit 30s)",
    )
    assert statistic <= CHI2_255_AT_0_999
    assert elapsed < 30.0


def test_acceptance_3_contract_matches_bruteforce_interpreter():
    # 1,000 random sequences (<= 50 ops, <= 5 addresses, <= 5 repos) applied
    # to the chain and to a line-by-line interpreter end in identical state;
    # runtime < 30 s
    t0 = time.perf_counter()
    rng = random.Random(31)
    addrs = [Address.from_label(f"acct-{i}") for i in range(5)]
    repos = [f"repo-{i}" for i in range(5)]
    mismatches = 0
    for _ in range(1_000):
        chain = SimulatedChain(ChainConfig(1.0, 1.0), clock=VirtualClock(), rng=rng)
        oracle = ContractOracle()
        for _ in range(rng.randint(1, 50)):
            op = rng.randrange(4)
            addr, repo = rng.choice(addrs), rng.choice(repos)
            if op == 0:
                share = f"02{rng.randrange(256):02x}"
                receipt = chain.submit_register(addr, repo, share)
                chain.advance_clock(1.0)
                if receipt.status != oracle.register(addr.text, repo, share):
                    mismatches += 1
            elif op == 1:
                other = rng.choice(addrs)
                receipt = chain.submit_add_collaborator(addr, repo, other)
                chain.advance_clock(1.0)
                if receipt.status != oracle.add_collaborator(addr.text, repo, other.text):
                    mismatches += 1
            elif op == 2:
                if chain.check_access(repo, addr) != oracle.check_access(repo, addr.text):
                    mismatches += 1
            else:
                expected = oracle.get_share(addr.text, repo)
                try:
                    got = chain.get_on_chain_share(addr, repo)
                except AccessDeniedError:
                    got = ACCESS_DENIED
                if got is not expected and got != expected:
                    mismatches += 1
        for repo in repos:
            owner = chain.registered_owner(repo)
            if (owner.text if owner else None) != oracle.owners.get(repo):
                mismatches += 1
            for addr in addrs:
                if chain.check_access(repo, addr) != oracle.check_access(repo, addr.text):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(
        "contract vs brute-force interpreter",
        ok,
        f"1000 sequences, {mismatches} state mismatches, {elapsed:.1f}s (limit 30s)",
    )
    assert mismatches == 0
    assert elapsed < 30.0


def test_acceptance_4_registration_gas_exact(tmp_path, make_world):
    # every confirmed registration costs exactly 206,886 gas, 1 KB .. 20 MB
    world = make_world(delay_s=1.0, seed=9)
    sizes = [1_000, 10_000, 250_000, 1_000_000, 5_000_000, 20_000_000]
    observed = []
    for nbytes in sizes:
        result = world.client.push(world.rng.randbytes(nbytes), world.owner)
        world.chain.advance_clock(1.0)
        assert result.registration.status == "confirmed"
        observed.append(result.registration.gas_used)
    ok = all(gas == REGISTER_GAS == 206_886 for gas in observed)
    _verdict(
        "registration gas",
        ok,
        f"sizes {sizes} -> gas {sorted(set(observed))} (required exactly 206886, zero tolerance)",
    )
    assert observed == [206_886] * len(sizes)
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_acceptance_5_path_selection_straddles_confirmation(tmp_path, make_world):
    # 100 pull start times straddling a 14 s confirmation: pre -> middleman,
    # post -> on-chain, all plaintexts correct; runtime < 20 s
    t0 = time.perf_counter()
    offsets = [-5.0 + 10.0 * i / 99 for i in range(100)]
    failures = []
    for i, offset in enumerate(offsets):
        world = make_world(delay_s=14.0, seed=500 + i)
        blob = world.rng.randbytes(10_000)
        result = world.client.push(blob, world.owner)
        target = world.chain.due_at(result.registration.tx_id) + offset
        world.clock.sleep(target - world.clock.now())
        plaintext, report = world.client.pull(result.cid, world.owner, result.owner_share)
        expected = "middleman" if offset < 0 else "on-chain"
        if report.path_used != expected:
            failures.append(f"offset {offset:+.3f}: {report.path_used} != {expected}")
        if plaintext != blob:
            failures.append(f"offset {offset:+.3f}: wrong plaintext")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 20.0
    _verdict(
        "pre/post confirmation path selection",
        ok,
        f"100 offsets in [-5,+5]s around a 14s confirmation, {len(failures)} wrong, {elapsed:.1f}s (limit 20s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 20.0
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_acceptance_6_reference_table_reproduction(calibrated_config):
    # calibrated push means within ±10% and pull means within ±15% of the
    # reference table at 1/5/10/20 MB x 5 repeats; runtime < 60 s
    t0 = time.perf_counter()
    sizes = [1, 5, 10, 20]

    push_samples = run_push_bench(sizes, 5, calibrated_config, seed=0)
    pull_samples = run_pull_bench(sizes, 5, calibrated_config, start_offset_s=2.0, seed=0)
    assert all(s.path_used == "on-chain" for s in pull_samples)

    def mean_by_size(samples):
        return {
            size: sum(s.user_perceived_s for s in samples if s.size_mb == size) / 5
            for size in sizes
        }

    push_dev = {}
    for size, ref in zip(sizes, [r.system_push_s for r in EMBEDDED_REFERENCE.rows]):
        push_dev[size] = (mean_by_size(push_samples)[size] - ref) / ref
    pull_dev = {}
    for size, ref in zip(sizes, [r.system_pull_s for r in EMBEDDED_REFERENCE.rows]):
        pull_dev[size] = (mean_by_size(pull_samples)[size] - ref) / ref

    push_ok = all(abs(d) <= 0.10 for d in push_dev.values())
    pull_ok = all(abs(d) <= 0.15 for d in pull_dev.values())
    elapsed = time.perf_counter() - t0

    fmt = lambda devs: ", ".join(f"{s}MB {d:+.1%}" for s, d in devs.items())
    _verdict(
        "reference table reproduction",
        push_ok and pull_ok and elapsed < 60.0,
        f"push within ±10%: {push_ok} ({fmt(push_dev)}); "
        f"pull within ±15%: {pull_ok} ({fmt(pull_dev)}); {elapsed:.1f}s (limit 60s)",
    )
    assert elapsed < 60.0
    assert push_ok, f"push deviations beyond ±10%: {fmt(push_dev)}"
    assert pull_ok, f"pull deviations beyond ±15%: {fmt(pull_dev)}"


def test_acceptance_7_confirmation_is_largest_phase(calibrated_config):
    # with confirmation delay uniform in [12,16]s, confirmation_s is the
    # largest single phase of every push sample at all four sizes
    samples = run_push_bench([1, 5, 10, 20], 5, calibrated_config, seed=1)
    wrong = [s for s in samples if max(s.timings, key=s.timings.get) != "confirmation_s"]
    report = render_report(samples)
    marked = [
        line for line in report.splitlines()
        if line.startswith("push") and "confirmation_s=" in line and "*" in line.split("confirmation_s=")[1].split()[0]
    ]
    ok = not wrong and len(marked) == 4
    _verdict(
        "confirmation dominates every push",
        ok,
        f"{len(samples)} samples, {len(wrong)} with a larger foreground phase; "
        f"report marks confirmation largest at {len(marked)}/4 sizes",
    )
    assert not wrong
    assert len(marked) == 4


def test_acceptance_8_end_to_end_fidelity(tmp_path, make_world):
    # 50 random repos up to 20 MB: push -> grant -> confirm -> collaborator
    # pull returns the exact bytes; a single bit flipped in the stored blob
    # turns the pull into an integrity error, never wrong plaintext
    rng = random.Random(88)
    world = make_world(delay_s=0.5, seed=88)
    collaborator = Address.from_label("collaborator")
    corrupted_caught = 0
    for _ in range(50):
        blob = world.rng.randbytes(rng.randint(1, 20_000_000))
        result = world.client.push(blob, world.owner)
        world.client.add_collaborator(world.owner, result.cid, collaborator)
        world.chain.advance_clock(0.5)
        plaintext, report = world.client.pull(result.cid, collaborator, result.owner_share)
        assert plaintext == blob
        assert report.path_used == "on-chain"

        digest = result.cid.text.split(":", 1)[1]
        stored = world.cas.root / digest[:2] / digest
        sealed = bytearray(stored.read_bytes())
        bit = rng.randrange(len(sealed) * 8)
        sealed[bit // 8] ^= 1 << (bit % 8)
        stored.write_bytes(bytes(sealed))
        with pytest.raises(IntegrityError):
            world.client.pull(result.cid, collaborator, result.owner_share)
        corrupted_caught += 1
    _verdict(
        "end-to-end fidelity",
        corrupted_caught == 50,
        f"50 repos round-tripped bit-exact; {corrupted_caught}/50 single-bit corruptions raised integrity errors",
    )
    assert corrupted_caught == 50
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_acceptance_9_failure_atomicity(tmp_path, full_disk):
    # a failed push leaves storage consistent with the failure point, no live
    # middleman entry, and no confirmed registration
    outcomes = []

    def fresh(cas_dir, cache=None, chain_cls=SimulatedChain):
        clock = VirtualClock()
        rng = random.Random(7)
        cas = BlobStore(tmp_path / cas_dir, LatencyProfile(), LatencyProfile(), clock)
        cache = cache if cache is not None else ShareCache(clock=clock)
        chain = chain_cls(ChainConfig(1.0, 1.0), clock=clock, rng=rng)
        return cas, cache, chain, Client(cas, chain, cache, clock=clock, rng=rng)

    # fault: the disk is full when the blob is written -> nothing anywhere
    cas, cache, chain, client = fresh("a")
    with full_disk(), pytest.raises(OSError):
        client.push(b"x" * 4096, Address.from_label("o"))
    chain.advance_clock(5.0)
    stored = [p for p in (tmp_path / "a").rglob("*") if p.is_file()]
    outcomes.append(("disk-full", not stored and not cache.live_shares() and chain.pending_count() == 0))

    # fault: middleman down -> blob stored, nothing cached, never registered
    class _DownCache(ShareCache):
        def store_share(self, repo, share_text):
            raise MiddlemanUnavailableError("injected outage")

    clock = VirtualClock()
    down = _DownCache(clock=clock)
    cas, cache, chain, client = fresh("b", cache=down)
    with pytest.raises(MiddlemanUnavailableError):
        client.push(b"y" * 4096, Address.from_label("o"))
    settled = chain.advance_clock(5.0)
    stored = list((tmp_path / "b").glob("??/*"))
    outcomes.append(("middleman-down", len(stored) == 1 and not cache.live_shares()
                     and chain.pending_count() == 0 and settled == []))

    # fault: ledger submission fails -> the cached share is evicted again
    class _BrokenChain(SimulatedChain):
        def submit_register(self, sender, repo, share_text):
            raise RuntimeError("injected submission outage")

    cas, cache, chain, client = fresh("c", chain_cls=_BrokenChain)
    with pytest.raises(RuntimeError):
        client.push(b"z" * 4096, Address.from_label("o"))
    chain.advance_clock(5.0)
    stored = list((tmp_path / "c").glob("??/*"))
    outcomes.append(("submit-failure", len(stored) == 1 and not cache.live_shares()
                     and chain.pending_count() == 0))

    ok = all(good for _, good in outcomes)
    _verdict(
        "failure atomicity",
        ok,
        "; ".join(f"{name}: {'clean' if good else 'LEAKED'}" for name, good in outcomes),
    )
    assert ok, outcomes
