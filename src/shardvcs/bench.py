"""Benchmark harness: calibration, timed runs, CSV emission, and reports.

The harness reproduces the published end-to-end latency experiment at desk
scale. `calibrate` fits linear latency profiles to its only input, the
embedded reference table `EMBEDDED_REFERENCE` (literature values, never
measurements); the bench runners then drive the full protocol on a virtual
clock under those profiles, recording one sample per (size, repeat) with a
per-phase latency breakdown. A fixed seed plus the virtual clock makes every
run bit-identical.

Pull samples carry a modeled constant (`DEFAULT_PULL_OVERHEAD_S`, 0.2 s) for
the access view call and share reconstruction; calibration subtracts the
same constant before fitting the fetch profile, so the two bookkeeping
choices cancel when comparing against the reference table.
"""

from __future__ import annotations

import math
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .cas import BlobStore, LatencyProfile
from .clock import Clock, VirtualClock
from .ledger import Address, ChainConfig, SimulatedChain
from .middleman import ShareCache
from .protocol import PULL_PHASES, PUSH_PHASES, Client

_PUSH_TIMINGS = PUSH_PHASES + ("confirmation_s",)
_ZERO_PHASES = dict.fromkeys(PUSH_PHASES + PULL_PHASES, 0.0)
CSV_COLUMNS = (
    ("operation", "size_mb", "repeat", "user_perceived_s") + _PUSH_TIMINGS + PULL_PHASES + ("path_used",)
)

# Modeled constant for the pull-only protocol work (access view call and
# share reconstruction); subtracted before fetch-profile fitting and charged
# back to every benchmarked pull. Not a measured figure.
DEFAULT_PULL_OVERHEAD_S = 0.2


class BenchError(Exception):
    """A benchmark sample failed; the message identifies it."""


class CsvParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


# -- reference data ----------------------------------------------------------


@dataclass(frozen=True)
class ReferenceRow:
    size_mb: int
    system_push_s: float
    system_pull_s: float
    git_push_s: float
    git_pull_s: float


@dataclass(frozen=True)
class ReferenceTable:
    """Per-size literature baselines for the system and for centralized git."""

    rows: tuple[ReferenceRow, ...]

    def sizes(self) -> list[int]:
        return [r.size_mb for r in self.rows]

    def column(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.rows]


# Published reference means (literature values): sizes 1, 5, 10, 20 MB.
EMBEDDED_REFERENCE = ReferenceTable(
    (
        ReferenceRow(1, 2.04, 1.29, 4.05, 1.06),
        ReferenceRow(5, 4.19, 2.41, 6.16, 1.07),
        ReferenceRow(10, 6.56, 2.54, 7.74, 1.06),
        ReferenceRow(20, 11.47, 4.08, 8.14, 1.17),
    )
)


# -- calibration ---------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residuals: tuple[float, ...]


@dataclass(frozen=True)
class CalibrationResult:
    store_profile: LatencyProfile
    fetch_profile: LatencyProfile
    push_fit: FitResult
    pull_fit: FitResult


def _fit_line(sizes: list[int], times: list[float]) -> FitResult:
    slope, intercept = statistics.linear_regression(sizes, times)
    residuals = tuple(t - (intercept + slope * s) for s, t in zip(sizes, times))
    return FitResult(slope=slope, intercept=intercept, residuals=residuals)


def calibrate() -> CalibrationResult:
    """Fit store/fetch latency profiles to the push/pull columns of `EMBEDDED_REFERENCE`."""
    sizes = EMBEDDED_REFERENCE.sizes()
    push_fit = _fit_line(sizes, EMBEDDED_REFERENCE.column("system_push_s"))
    pull_fit = _fit_line(
        sizes, [t - DEFAULT_PULL_OVERHEAD_S for t in EMBEDDED_REFERENCE.column("system_pull_s")]
    )
    return CalibrationResult(
        store_profile=LatencyProfile(push_fit.intercept, push_fit.slope),
        fetch_profile=LatencyProfile(pull_fit.intercept, pull_fit.slope),
        push_fit=push_fit,
        pull_fit=pull_fit,
    )


# -- samples and CSV -------------------------------------------------------------


@dataclass
class BenchSample:
    operation: str
    size_mb: int
    repeat_index: int
    user_perceived_s: float
    phases: dict[str, float] = field(default_factory=dict)
    confirmation_s: float | None = None
    path_used: str | None = None


def _timings(sample: BenchSample) -> dict[str, float]:
    """The sample's latency components: its phases, then confirmation_s when set."""
    if sample.confirmation_s is None:
        return sample.phases
    return {**sample.phases, "confirmation_s": sample.confirmation_s}


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def samples_to_csv(samples: list[BenchSample]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for s in samples:
        timings = _timings(s)
        cells = [s.operation, str(s.size_mb), str(s.repeat_index), _cell(s.user_perceived_s)]
        cells += [_cell(timings.get(name)) for name in CSV_COLUMNS[4:-1]]
        cells.append(s.path_used or "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BenchSample]:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise CsvParseError(1, "missing header row")
    if lines[0].strip() != ",".join(CSV_COLUMNS):
        raise CsvParseError(1, f"unexpected header {lines[0]!r}")
    samples = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise CsvParseError(line_no, f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        if cells[0] not in ("push", "pull"):
            raise CsvParseError(line_no, f"unknown operation {cells[0]!r}")
        try:
            timings = {
                name: float(cell) for name, cell in zip(CSV_COLUMNS[4:-1], cells[4:-1]) if cell != ""
            }
            confirmation_s = timings.pop("confirmation_s", None)
            head = (cells[0], int(cells[1]), int(cells[2]), float(cells[3]))
            samples.append(BenchSample(*head, timings, confirmation_s, cells[-1] or None))
        except ValueError as exc:
            raise CsvParseError(line_no, f"bad numeric cell: {exc}") from None
    return samples


# -- bench runs ------------------------------------------------------------------

_OWNER = Address.from_label("bench-owner")


def _sweep(op, sample, sizes, repeats, store_profile, fetch_profile, chain_config, seed, workdir, clock):
    """Call `sample(client, size, repeat, blob)` once per (size, repeat) on one fresh client.

    The client's store, chain and cache share one clock (virtual unless one is
    given) and one rng seeded with `seed`; each blob is drawn from that rng just
    before its sample runs. With no workdir, the blob store lives in a temporary
    directory removed afterwards.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be >= 1 MB, got {size}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    with tempfile.TemporaryDirectory(prefix="shardvcs-bench-") as scratch:
        clock = clock if clock is not None else VirtualClock()
        rng = random.Random(seed)
        cas = BlobStore(scratch if workdir is None else workdir, store_profile, fetch_profile, clock)
        chain = SimulatedChain(chain_config, clock=clock, rng=rng)
        client = Client(cas, chain, ShareCache(clock=clock), clock=clock, rng=rng)
        samples = []
        for size in sizes:
            for rep in range(repeats):
                blob = rng.randbytes(size * 1_000_000)
                try:
                    samples.append(sample(client, size, rep, blob))
                except BenchError:
                    raise
                except Exception as exc:
                    raise BenchError(f"{op} sample size={size} repeat={rep} failed: {exc}") from exc
        return samples


def _sleep_until_due(client: Client, tx_id: str, offset_s: float) -> float:
    """Sleep on the client's clock (a virtual one advances, a real one waits) to `offset_s` past the
    transaction's due time. Returns the time that was left, negative if that instant had passed."""
    due = client.chain.due_at(tx_id)
    if due is None:
        raise BenchError(f"{tx_id} settled before the sample could wait for it")
    left = due + offset_s - client.clock.now()
    client.clock.sleep(max(left, 0.0))
    return left


def run_push_bench(
    sizes: list[int],
    repeats: int,
    store_profile: LatencyProfile,
    fetch_profile: LatencyProfile,
    chain_config: ChainConfig,
    seed: int | None = 0,
    workdir: str | Path | None = None,
    clock: Clock | None = None,
) -> list[BenchSample]:
    """One push per (size, repeat); confirmation settles between samples."""

    def sample(client: Client, size: int, rep: int, blob: bytes) -> BenchSample:
        result = client.push(blob, _OWNER)
        receipt = result.registration
        _sleep_until_due(client, receipt.tx_id, 0.0)
        client.chain.pending_count()  # settles what is due
        if receipt.status != "confirmed":
            raise BenchError(f"registration {receipt.status}")
        return BenchSample(
            "push", size, rep, result.user_perceived_duration, dict(result.phases),
            confirmation_s=receipt.confirmed_at - receipt.submitted_at,
        )

    return _sweep(
        "push", sample, sizes, repeats, store_profile, fetch_profile, chain_config, seed, workdir, clock
    )


def run_pull_bench(
    sizes: list[int],
    repeats: int,
    store_profile: LatencyProfile,
    fetch_profile: LatencyProfile,
    chain_config: ChainConfig,
    start_offset_s: float = 2.0,
    seed: int | None = 0,
    workdir: str | Path | None = None,
    clock: Clock | None = None,
) -> list[BenchSample]:
    """Push then pull each sample at confirmation + start_offset_s.

    A negative offset schedules the pull before the registration confirms
    (exercising the cache fallback); a positive one schedules it after
    (exercising the authoritative path).
    """
    if not math.isfinite(start_offset_s):
        raise ValueError(f"start offset must be finite, got {start_offset_s}")

    def sample(client: Client, size: int, rep: int, blob: bytes) -> BenchSample:
        result = client.push(blob, _OWNER)
        if _sleep_until_due(client, result.registration.tx_id, start_offset_s) < 0:
            raise BenchError(f"offset {start_offset_s} reaches back before the push returned")
        plaintext, report = client.pull(result.cid, _OWNER, result.owner_share)
        if plaintext != blob:
            raise BenchError("pulled plaintext does not match the pushed bytes")
        phases = dict(report.phases)
        phases["access_s"] += DEFAULT_PULL_OVERHEAD_S  # modeled view-call + reconstruction cost
        return BenchSample(
            "pull", size, rep, report.total_s + DEFAULT_PULL_OVERHEAD_S, phases, path_used=report.path_used
        )

    return _sweep(
        "pull", sample, sizes, repeats, store_profile, fetch_profile, chain_config, seed, workdir, clock
    )


# -- reporting ------------------------------------------------------------------------


def largest_phase(sample: BenchSample) -> str:
    """Name of the single largest latency component of one sample."""
    parts = _timings(sample)
    return max(parts, key=parts.get)


def _q(value: float) -> float:
    # quantize to CSV precision so reports match across emit/parse round-trips
    return round(value, 6)


@dataclass(frozen=True)
class SizeSummary:
    operation: str
    size_mb: int
    count: int
    mean_s: float
    std_s: float
    phase_means: dict[str, float]
    largest: str
    paths: dict[str, int]


def summarize(samples: list[BenchSample]) -> list[SizeSummary]:
    groups: dict[tuple[str, int], list[BenchSample]] = {}
    for s in samples:
        groups.setdefault((s.operation, s.size_mb), []).append(s)
    out = []
    for (op, size) in sorted(groups):
        rows = groups[(op, size)]
        totals = [_q(s.user_perceived_s) for s in rows]
        # A missing phase counts as zero; a sample without a confirmation is left out of that mean.
        timings = [_ZERO_PHASES | _timings(s) for s in rows]
        phase_means = {}
        for name in _PUSH_TIMINGS if op == "push" else PULL_PHASES:
            vals = [_q(t[name]) for t in timings if name in t]
            if vals:
                phase_means[name] = statistics.fmean(vals)
        paths: dict[str, int] = {}
        for s in rows:
            if s.path_used:
                paths[s.path_used] = paths.get(s.path_used, 0) + 1
        out.append(
            SizeSummary(
                operation=op,
                size_mb=size,
                count=len(rows),
                mean_s=statistics.fmean(totals),
                std_s=statistics.stdev(totals) if len(totals) > 1 else 0.0,
                phase_means=phase_means,
                largest=max(phase_means, key=phase_means.get) if phase_means else "",
                paths=paths,
            )
        )
    return out


def render_report(samples: list[BenchSample]) -> str:
    """Deterministic text report: summary, comparison with `EMBEDDED_REFERENCE`, breakdown."""
    if not samples:
        raise CsvParseError(1, "no samples to report")
    summaries = summarize(samples)
    ref_by_size = {r.size_mb: r for r in EMBEDDED_REFERENCE.rows}
    lines = []

    lines.append("== Per-size summary ==")
    lines.append("operation  size_mb  n  mean_s     std_s      paths")
    for s in summaries:
        paths = ",".join(f"{k}:{v}" for k, v in sorted(s.paths.items())) or "-"
        lines.append(
            f"{s.operation:<9}  {s.size_mb:>7}  {s.count}  {s.mean_s:<9.4f}  {s.std_s:<9.4f}  {paths}"
        )

    lines.append("")
    lines.append("== Comparison against literature reference values (not measurements) ==")
    lines.append("operation  size_mb  measured_mean_s  literature_s  deviation")
    for s in summaries:
        ref = ref_by_size.get(s.size_mb)
        if ref is None:
            continue
        ref_val = ref.system_push_s if s.operation == "push" else ref.system_pull_s
        dev = (s.mean_s - ref_val) / ref_val
        lines.append(
            f"{s.operation:<9}  {s.size_mb:>7}  {s.mean_s:<15.4f}  {ref_val:<12.2f}  {dev:+.2%}"
        )
    git_rows = [f"  git push: {r.size_mb} MB = {r.git_push_s:.2f} s" for r in EMBEDDED_REFERENCE.rows]
    git_rows += [f"  git pull: {r.size_mb} MB = {r.git_pull_s:.2f} s" for r in EMBEDDED_REFERENCE.rows]
    lines.append("centralized git baselines (literature values):")
    lines.extend(git_rows)

    lines.append("")
    lines.append("== Phase breakdown (mean seconds; * marks the largest component) ==")
    for s in summaries:
        parts = "  ".join(
            f"{name}={mean:.4f}{'*' if name == s.largest else ''}"
            for name, mean in s.phase_means.items()
        )
        lines.append(f"{s.operation} {s.size_mb} MB: {parts}")

    return "\n".join(lines) + "\n"
