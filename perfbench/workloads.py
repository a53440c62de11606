"""The benchmark's workloads: worlds, op schedules and the timed closed loop.

Every workload is one client in a closed loop: it sends its next operation
only after the previous one returned. The client is `protocol.Client` over an
injected `cas.BlobStore`, `ledger.SimulatedChain` and share cache, all on one
`clock.VirtualClock` that only the generator advances.

Inputs come from the seed alone. Payload pools and op schedules are drawn
from their own string-seeded generators; the world's generator (keys, IVs,
share coefficients, confirmation delays) is `random.Random(seed)`. So the
same seed gives the same ops, and every modeled figure repeats exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import select
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from shardvcs.bench import calibrate
from shardvcs.cas import ZERO_LATENCY, BlobStore, LatencyProfile
from shardvcs.clock import VirtualClock
from shardvcs.ledger import CONFIRMED, PENDING, Address, ChainConfig, SimulatedChain
from shardvcs.middleman import HttpShareCache, ShareCache
from shardvcs.protocol import MIDDLEMAN, ON_CHAIN, Client

import spans

KIB = 1024
MB = 1_000_000

# Pushes and pulls each need this many samples: it is the smallest count at
# which the 95th percentile still has ten samples beyond it. The modeled
# metrics are taken over exactly this many leading samples, so they do not
# depend on how far a time-bounded run gets.
MIN_SAMPLES = 200

# Upper end of the confirmation delay: advancing this far settles a push.
SETTLE_S = 16.0

# A run gives up after this many failures or this long past its deadline.
MAX_FAILURES = 50
OVERRUN_S = 60.0

OPS = ("push", "pull", "grant")

STORE = "store"  # the blob store's directory under a world's root


def make_store_dirs(root: Path) -> None:
    """Make the 256 prefix directories of the store a `World` at `root` uses.

    `BlobStore` files a blob under a two-hex-digit prefix directory, and a
    long-lived store has all 256, so no timed push should pay for a `mkdir`.
    They stand in for the store's history, not for work the program does, so
    they are made before set-up is timed. Under another layout they go unused.
    """
    for i in range(256):
        (root / STORE / f"{i:02x}").mkdir(parents=True)


def payload_pool(seed: int, size: int, count: int) -> list[tuple[bytes, bytes]]:
    """`count` random payloads of `size` bytes, each with its SHA-256 digest."""
    rng = random.Random(f"pool:{seed}")
    out = []
    for _ in range(count):
        payload = rng.randbytes(size)
        out.append((payload, hashlib.sha256(payload).digest()))
    return out


def calibrated_profiles() -> tuple[LatencyProfile, LatencyProfile]:
    fit = calibrate()
    return fit.store_profile, fit.fetch_profile


class World:
    """Clock, store, chain and cache behind one client, traced or not.

    The store keeps one directory tree for the whole run, as a long-lived
    store would (see `make_store_dirs`). Workloads that push large blobs
    delete each one after its cycle, outside the timed region. Deleting a
    blob soon after it was written, while it is still only in the page cache,
    keeps disk use bounded and costs no disk I/O; a store left to grow and
    deleted later made the next file writes of this and later runs several
    times slower. On an ext4 volume mounted with `discard`, creating a file
    or a directory took either about 20 us or about 600 us, depending on the
    filesystem's state, so every creation a push does beyond its blob file
    adds that noise.
    """

    def __init__(self, root: Path, seed: int, profiles=(ZERO_LATENCY, ZERO_LATENCY), cache=None):
        self.root = root
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.chain = SimulatedChain(ChainConfig(), clock=self.clock, rng=self.rng)
        self.cache = cache if cache is not None else ShareCache(clock=self.clock)
        self.rec: spans.Recorder | None = None
        self.store = BlobStore(root / STORE, *profiles, clock=self.clock)
        self._bind()

    def delete_blob(self, cid) -> None:
        """Delete one stored blob and keep the store's directories.

        The store's byte count still includes the blob; no capacity is set,
        so nothing reads it.
        """
        hexd = cid.digest.hex()
        path = self.store.root / hexd[:2] / hexd
        if path.exists():
            path.unlink()
            return
        for dirpath, _, files in os.walk(self.store.root):  # some other layout
            for name in files:
                os.unlink(os.path.join(dirpath, name))

    def trace(self, rec: spans.Recorder) -> None:
        self.rec = rec
        self._bind()

    def _bind(self) -> None:
        store, chain, cache = self.store, self.chain, self.cache
        if self.rec is not None:
            store = spans.TracedStore(store, self.rec)
            chain = spans.TracedChain(chain, self.rec)
            cache = spans.TracedCache(cache, self.rec)
        self.client = Client(store, chain, cache, clock=self.clock, rng=self.rng)
        self.driver = chain  # advance_clock goes through the traced chain too


@dataclass
class Tally:
    """What one timed loop saw: wall, CPU and modeled time per op, and failures.

    `busy_s` and `cpu_s` cover the operations and the generator's clock
    advances (settlement is the ledger's work), not the harness's own checks.
    """

    clock: VirtualClock
    rec: spans.Recorder | None = None
    wall: dict = field(default_factory=lambda: {k: [] for k in OPS})
    modeled: dict = field(default_factory=lambda: {"push": [], "pull": []})
    pushes: list = field(default_factory=list)  # (virtual push start, registration receipt)
    grants: list = field(default_factory=list)
    paths: Counter = field(default_factory=Counter)
    pushed_bytes: int = 0
    pulled_bytes: int = 0
    busy_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def op(self, kind: str, fn, *args):
        """Time one push, pull or grant; a raised exception is a failure."""
        self.attempted += 1
        if self.rec is not None:
            self.rec.op_id += 1
            fn = self.rec.wrap("protocol." + kind, fn)
        m0 = self.clock.now()
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self._spent(w0, c0)
            self.fail(kind, repr(exc))
            return None
        self.wall[kind].append(self._spent(w0, c0))
        if kind == "push":
            self.modeled["push"].append(self.clock.now() - m0)
            self.pushes.append((m0, out.registration))
            self.pushed_bytes += len(args[0])
        elif kind == "pull":
            self.modeled["pull"].append(self.clock.now() - m0)
            self.pulled_bytes += len(out[0])
        else:
            self.grants.append(out)
        return out

    def drive(self, fn, *args):
        """Time a clock advance made by the generator."""
        c0 = time.process_time()
        w0 = time.perf_counter()
        out = fn(*args)
        self._spent(w0, c0)
        return out

    def _spent(self, w0: float, c0: float) -> float:
        wall = time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0
        self.busy_s += wall
        return wall

    def fail(self, kind: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {reason}")

    def check_pull(self, pulled, digest: bytes, expected_path: str) -> None:
        plaintext, report = pulled
        self.paths[report.path_used] += 1
        if hashlib.sha256(plaintext).digest() != digest:
            self.fail("pull", "plaintext digest differs from the pushed digest")
        elif report.path_used != expected_path:
            self.fail("pull", f"took the {report.path_used} path, expected {expected_path}")

    def enough(self, min_samples: int) -> bool:
        return len(self.wall["push"]) >= min_samples and len(self.wall["pull"]) >= min_samples

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


@dataclass
class Session:
    """One set-up world plus the inputs a workload feeds it."""

    world: World
    pool: list
    schedule: object
    owners: list
    repos: list = field(default_factory=list)
    child: subprocess.Popen | None = None


@dataclass
class Repo:
    cid: object
    owner: int
    share: object
    receipt: object
    digest: bytes


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class LargeBlob:
    """20 MB payloads, push -> settle -> pull on the on-chain path.

    Sealing, hashing and disk dominate; the ledger and sharing barely work
    (at most one registration pending). The paper's largest table row.
    """

    name = "large-blob"
    payload_bytes: int = 20 * MB
    pool_size: int = 3
    warmup_cycles: int = 2

    def schedule(self, seed: int):
        rng = random.Random(f"schedule:{seed}")
        while True:
            yield ("cycle", rng.randrange(self.pool_size))

    def setup(self, seed: int, root: Path) -> Session:
        pool = payload_pool(seed, self.payload_bytes, self.pool_size)
        world = World(root, seed, calibrated_profiles())
        session = Session(world, pool, self.schedule(seed), [Address.from_label("large-blob-owner")])
        warm(self, session, self.warmup_cycles)
        return session

    def step(self, s: Session, op, t: Tally) -> None:
        payload, digest = s.pool[op[1]]
        owner = s.owners[0]
        pushed = t.op("push", s.world.client.push, payload, owner)
        if pushed is not None:
            t.drive(s.world.driver.advance_clock, SETTLE_S)
            pulled = t.op("pull", s.world.client.pull, pushed.cid, owner, pushed.owner_share)
            if pulled is not None:
                t.check_pull(pulled, digest, ON_CHAIN)
            s.world.delete_blob(pushed.cid)


@dataclass(frozen=True)
class ManyOwners:
    """256 owners on 4 KiB payloads: 50% push, 20% grant, 30% pull.

    Virtual time moves 5 ms per op, so ~1,950 registrations and grants sit
    pending: the ledger's per-call scan of pending transactions and the
    Shamir split/combine dominate, and pulls mix both share paths.

    Warm-up runs until the settlement window has passed and the pull window
    holds `window` repositories. Only then is the share of pulls that find
    their registration pending steady; before, it falls as the window fills,
    and a run's pull latency would depend on how many ops it got through.

    `BENCHMARK.json` leaves this workload out: its wall and CPU times do not
    repeat from run to run. Its ops are pure-Python scans over thousands of
    small objects, and on a 2-vCPU VM shared with other tenants their speed
    switched between two levels about 1.5-2x apart, for seconds to minutes at
    a time, in step with a plain Python loop timed beside it. Two sets of
    ten 20 s runs spread 13% and 21% in pull p50 (interquartile range over
    median), too close to any bound a regression check could use. Run it by
    name to study the ledger.
    """

    name = "many-owners"
    payload_bytes: int = 4 * KIB
    pool_size: int = 64
    owners: int = 256
    window: int = 4000
    tick_s: float = 0.005
    warmup_s: float = SETTLE_S

    def schedule(self, seed: int):
        rng = random.Random(f"schedule:{seed}")
        yield ("push", rng.randrange(self.owners), rng.randrange(self.pool_size))
        while True:
            r = rng.random()
            if r < 0.5:
                yield ("push", rng.randrange(self.owners), rng.randrange(self.pool_size))
            elif r < 0.7:
                yield ("grant", rng.randrange(self.window), rng.randrange(1, self.owners))
            else:
                yield ("pull", rng.randrange(self.window), 0)

    def setup(self, seed: int, root: Path) -> Session:
        pool = payload_pool(seed, self.payload_bytes, self.pool_size)
        world = World(root, seed)
        owners = [Address.from_label(f"owner-{i}") for i in range(self.owners)]
        session = Session(world, pool, self.schedule(seed), owners)
        tally = Tally(world.clock)
        while (world.clock.now() < self.warmup_s or len(session.repos) < self.window) and not tally.failed:
            self.step(session, next(session.schedule), tally)
        if tally.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {tally.errors}")
        return session

    def step(self, s: Session, op, t: Tally) -> None:
        kind, a, b = op
        client = s.world.client
        if kind == "push":
            payload, digest = s.pool[b]
            pushed = t.op("push", client.push, payload, s.owners[a])
            if pushed is not None:
                s.repos.append(Repo(pushed.cid, a, pushed.owner_share, pushed.registration, digest))
        elif not s.repos:
            t.attempted += 1
            t.fail(kind, "no repository pushed yet")
        else:
            repo = s.repos[-1 - a % min(len(s.repos), self.window)]
            owner = s.owners[repo.owner]
            if kind == "grant":
                collaborator = s.owners[(repo.owner + b) % self.owners]
                t.op("grant", client.add_collaborator, owner, repo.cid, collaborator)
            else:
                pulled = t.op("pull", client.pull, repo.cid, owner, repo.share)
                if pulled is not None:
                    # The pull settled everything due before choosing a path,
                    # and nothing moved the clock after: the receipt shows
                    # what the pull saw.
                    expected = MIDDLEMAN if repo.receipt.status == PENDING else ON_CHAIN
                    t.check_pull(pulled, repo.digest, expected)
        t.drive(s.world.driver.advance_clock, self.tick_s)


@dataclass(frozen=True)
class FreshPullHttp:
    """64 KiB payloads against a middleman child process over HTTP.

    Each pull follows its push at once, while the registration is pending,
    so it takes the middleman fallback; HTTP store and fetch round trips
    dominate.
    """

    name = "fresh-pull-http"
    payload_bytes: int = 64 * KIB
    pool_size: int = 32
    warmup_cycles: int = 20

    def schedule(self, seed: int):
        rng = random.Random(f"schedule:{seed}")
        while True:
            yield ("cycle", rng.randrange(self.pool_size))

    def setup(self, seed: int, root: Path) -> Session:
        pool = payload_pool(seed, self.payload_bytes, self.pool_size)
        child, url = start_middleman(root)
        try:
            world = World(root, seed, calibrated_profiles(), HttpShareCache(url))
            session = Session(world, pool, self.schedule(seed),
                              [Address.from_label("fresh-pull-owner")], child=child)
            warm(self, session, self.warmup_cycles)
        except BaseException:
            stop(child)
            raise
        return session

    def step(self, s: Session, op, t: Tally) -> None:
        payload, digest = s.pool[op[1]]
        owner = s.owners[0]
        pushed = t.op("push", s.world.client.push, payload, owner)
        if pushed is not None:
            pulled = t.op("pull", s.world.client.pull, pushed.cid, owner, pushed.owner_share)
            if pulled is not None:
                t.check_pull(pulled, digest, MIDDLEMAN)
            t.drive(s.world.driver.advance_clock, SETTLE_S)
            s.world.delete_blob(pushed.cid)


WORKLOADS = {w.name: w for w in (LargeBlob(), ManyOwners(), FreshPullHttp())}


# -- shared steps ---------------------------------------------------------------------


def warm(workload, s: Session, cycles: int) -> None:
    tally = Tally(s.world.clock)
    for _ in range(cycles):
        workload.step(s, next(s.schedule), tally)
    if tally.failed:
        raise RuntimeError(f"{workload.name} warm-up failed: {tally.errors}")


def start_middleman(root: Path) -> tuple[subprocess.Popen, str]:
    """Run `shardvcs serve-middleman --port 0` as a child; return it and its URL."""
    src = Path(sys.modules["shardvcs"].__file__).resolve().parent.parent
    root.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, "-m", "shardvcs.cli", "serve-middleman", "--port", "0"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    ready, _, _ = select.select([child.stdout], [], [], 30.0)
    line = child.stdout.readline() if ready else ""
    if "listening on " not in line:
        stop(child)
        raise RuntimeError(f"middleman did not start (said {line!r})")
    return child, line.split("listening on ", 1)[1].split()[0]


def stop(child: subprocess.Popen) -> None:
    child.terminate()
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()


def teardown(s: Session) -> None:
    if s.child is not None:
        stop(s.child)
    shutil.rmtree(s.world.root, ignore_errors=True)


# -- the timed loop -------------------------------------------------------------------


def measure(workload, s: Session, seconds: float, min_samples: int,
            rec: spans.Recorder | None = None) -> Tally:
    """Run ops until `seconds` have passed and both pushes and pulls have
    `min_samples` samples, then settle everything and check every receipt."""
    tally = Tally(s.world.clock, rec)
    start = time.perf_counter()
    deadline = start + seconds
    give_up = deadline + OVERRUN_S
    while True:
        now = time.perf_counter()
        if (now >= deadline and tally.enough(min_samples)) or now >= give_up:
            break
        if tally.failed >= MAX_FAILURES:
            break
        workload.step(s, next(s.schedule), tally)
    s.world.chain.advance_clock(SETTLE_S)  # untimed: lets every receipt settle
    for _, receipt in tally.pushes:
        if receipt.status != CONFIRMED:
            tally.fail("push", f"registration {receipt.tx_id} ended {receipt.status}")
    for receipt in tally.grants:
        if receipt.status == PENDING:
            tally.fail("grant", f"grant {receipt.tx_id} never settled")
    if not tally.enough(min_samples):
        tally.fail("run", f"fewer than {min_samples} pushes and pulls completed")
    return tally


def modeled_prefix(tally: Tally, n: int) -> dict[str, list[float]]:
    """The modeled durations of the first `n` pushes and pulls, and each
    push's start-to-confirmation time."""
    return {
        "push": tally.modeled["push"][:n],
        "pull": tally.modeled["pull"][:n],
        "confirm": [r.confirmed_at - start for start, r in tally.pushes[:n]],
    }


def ops_digest(workload, seed: int, pool: list, n_ops: int = 10_000) -> str:
    """Digest of the first `n_ops` scheduled ops and the payload pool."""
    h = hashlib.sha256()
    for op in itertools.islice(workload.schedule(seed), n_ops):
        h.update(repr(op).encode())
    for _, digest in pool:
        h.update(digest)
    return h.hexdigest()[:16]
