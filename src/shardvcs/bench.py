"""Benchmark harness: calibration, timed runs, CSV emission, and reports.

The harness reproduces the published end-to-end latency experiment at desk
scale. `calibrate` fits linear latency profiles to its only input, the
embedded reference table `EMBEDDED_REFERENCE` (literature values, never
measurements); the bench runners then drive the full protocol on the world a
`HarnessConfig` describes (its clock, latency profiles, confirmation delays
and cache TTL), recording one sample per (size, repeat) with a per-phase
latency breakdown. A fixed seed plus the virtual clock makes every run
bit-identical.
"""

from __future__ import annotations

import math
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .cas import LatencyProfile
from .ledger import Address
from .protocol import PULL_PHASES, PUSH_PHASES, Client

if TYPE_CHECKING:
    from .config import HarnessConfig

_PUSH_TIMINGS = PUSH_PHASES + ("confirmation_s",)
_ZERO_PHASES = dict.fromkeys(PUSH_PHASES + PULL_PHASES, 0.0)
CSV_COLUMNS = (
    ("operation", "size_mb", "repeat", "user_perceived_s") + _PUSH_TIMINGS + PULL_PHASES + ("path_used",)
)

# Read only by perfbench's paper cross-check, which adds it to the modeled
# pull; the fitted fetch profile already carries the whole pull, so 0.2 would
# count that overhead twice there. Deleted together with that import by the
# benchmark-only change of ROADMAP item 3.
DEFAULT_PULL_OVERHEAD_S = 0.0


class BenchError(Exception):
    """A benchmark sample failed; the message identifies it."""


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


class CalibrationResult(NamedTuple):
    store_profile: LatencyProfile
    fetch_profile: LatencyProfile
    push_residuals: tuple[float, ...]
    pull_residuals: tuple[float, ...]


def _fit_line(sizes: list[int], times: list[float]) -> tuple[LatencyProfile, tuple[float, ...]]:
    """The least-squares line through (size, time) as a profile, and each time's residual from it."""
    slope, intercept = statistics.linear_regression(sizes, times)
    return LatencyProfile(intercept, slope), tuple(t - (intercept + slope * s) for s, t in zip(sizes, times))


def calibrate() -> CalibrationResult:
    """Fit store/fetch latency profiles to the push/pull columns of `EMBEDDED_REFERENCE`."""
    sizes = EMBEDDED_REFERENCE.sizes()
    store_profile, push_residuals = _fit_line(sizes, EMBEDDED_REFERENCE.column("system_push_s"))
    fetch_profile, pull_residuals = _fit_line(sizes, EMBEDDED_REFERENCE.column("system_pull_s"))
    return CalibrationResult(store_profile, fetch_profile, push_residuals, pull_residuals)


# -- samples and CSV -------------------------------------------------------------


@dataclass
class BenchSample:
    """One timed operation. `timings` holds its latency components by CSV column name:
    a push's phases and then its `confirmation_s`, or a pull's phases."""

    operation: str
    size_mb: int
    repeat_index: int
    user_perceived_s: float
    timings: dict[str, float] = field(default_factory=dict)
    path_used: str | None = None


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def samples_to_csv(samples: list[BenchSample]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for s in samples:
        cells = [s.operation, str(s.size_mb), str(s.repeat_index), _cell(s.user_perceived_s)]
        cells += [_cell(s.timings.get(name)) for name in CSV_COLUMNS[4:-1]]
        cells.append(s.path_used or "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BenchSample]:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("line 1: missing header row")
    if lines[0].strip() != ",".join(CSV_COLUMNS):
        raise ValueError(f"line 1: unexpected header {lines[0]!r}")
    samples = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"line {line_no}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        if cells[0] not in ("push", "pull"):
            raise ValueError(f"line {line_no}: unknown operation {cells[0]!r}")
        try:
            timings = {
                name: float(cell) for name, cell in zip(CSV_COLUMNS[4:-1], cells[4:-1]) if cell != ""
            }
            size_mb, repeat, user_perceived_s = int(cells[1]), int(cells[2]), float(cells[3])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad numeric cell: {exc}") from None
        for name, value in (("user_perceived_s", user_perceived_s), *timings.items()):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"line {line_no}: {name} must be finite and >= 0, got {value}")
        if size_mb < 1:
            raise ValueError(f"line {line_no}: size_mb must be >= 1, got {size_mb}")
        if repeat < 0:
            raise ValueError(f"line {line_no}: repeat must be >= 0, got {repeat}")
        samples.append(BenchSample(cells[0], size_mb, repeat, user_perceived_s, timings, cells[-1] or None))
    return samples


# -- bench runs ------------------------------------------------------------------

_OWNER = Address.from_label("bench-owner")


def _sweep(op, sample, sizes, repeats, cfg: HarnessConfig, seed: int):
    """Call `sample(client, size, repeat, blob)` once per (size, repeat) on one fresh client.

    The client's world is the one `cfg.client` builds, with the blob store in
    a temporary directory removed afterwards and one rng seeded with `seed`;
    each blob is drawn from that rng just before its sample runs.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be >= 1 MB, got {size}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    with tempfile.TemporaryDirectory(prefix="shardvcs-bench-") as scratch:
        rng = random.Random(seed)
        client = cfg.client(scratch, rng=rng)
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


def run_push_bench(sizes: list[int], repeats: int, cfg: HarnessConfig, seed: int = 0) -> list[BenchSample]:
    """One push per (size, repeat); confirmation settles between samples."""

    def sample(client: Client, size: int, rep: int, blob: bytes) -> BenchSample:
        result = client.push(blob, _OWNER)
        receipt = result.registration
        _sleep_until_due(client, receipt.tx_id, 0.0)
        client.chain.pending_count()  # settles what is due
        if receipt.status != "confirmed":
            raise BenchError(f"registration {receipt.status}")
        timings = {**result.phases, "confirmation_s": receipt.confirmed_at - receipt.submitted_at}
        return BenchSample("push", size, rep, result.user_perceived_duration, timings)

    return _sweep("push", sample, sizes, repeats, cfg, seed)


def run_pull_bench(
    sizes: list[int], repeats: int, cfg: HarnessConfig, start_offset_s: float = 2.0, seed: int = 0
) -> list[BenchSample]:
    """Push then pull each sample at confirmation + start_offset_s.

    A negative offset schedules the pull before the registration confirms
    (exercising the cache fallback, which fails once the cache TTL has passed);
    a positive one schedules it after (exercising the authoritative path).
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
        return BenchSample("pull", size, rep, report.total_s, report.phases, report.path_used)

    return _sweep("pull", sample, sizes, repeats, cfg, seed)


# -- reporting ------------------------------------------------------------------------


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
        timings = [_ZERO_PHASES | s.timings for s in rows]
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
        raise ValueError("line 1: no samples to report")
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
