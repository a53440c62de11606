"""Benchmark harness: calibration, timed runs, CSV emission, and reports.

The harness reproduces the published end-to-end latency experiment at desk
scale. `calibrate` fits linear latency profiles to the embedded reference
table (literature values, never measurements); the bench runners then drive
the full protocol on a virtual clock under those profiles, recording one
sample per (size, repeat) with a per-phase latency breakdown. A fixed seed
plus the virtual clock makes every run bit-identical.

Pull samples carry a modeled constant (`pull_overhead_s`, default 0.2 s) for
the access view call and share reconstruction; calibration subtracts the
same constant before fitting the fetch profile, so the two bookkeeping
choices cancel when comparing against the reference table.
"""

from __future__ import annotations

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

CSV_COLUMNS = (
    ("operation", "size_mb", "repeat", "user_perceived_s")
    + PUSH_PHASES
    + ("confirmation_s",)
    + PULL_PHASES
    + ("path_used",)
)

# Modeled constant for the pull-only protocol work (access view call and
# share reconstruction); subtracted before fetch-profile fitting and charged
# back to every benchmarked pull. Not a measured figure.
DEFAULT_PULL_OVERHEAD_S = 0.2


class BenchError(Exception):
    """A benchmark sample failed; the message identifies it."""


class CalibrationError(Exception):
    """The reference data cannot support a usable linear fit."""


class CsvParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


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

    def __post_init__(self) -> None:
        sizes = [r.size_mb for r in self.rows]
        if not sizes:
            raise ValueError("reference table must have at least one row")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("reference rows must be strictly increasing in size")

    def sizes(self) -> list[int]:
        return [r.size_mb for r in self.rows]

    def column(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.rows]

    @classmethod
    def from_file(cls, path: str | Path) -> "ReferenceTable":
        rows = []
        lines = Path(path).read_text().splitlines()
        header = "size_mb,system_push_s,system_pull_s,git_push_s,git_pull_s"
        if not lines or lines[0].strip() != header:
            raise ValueError(f"reference file must start with header {header!r}")
        for raw in lines[1:]:
            if not raw.strip():
                continue
            cells = raw.split(",")
            if len(cells) != 5:
                raise ValueError(f"reference row needs 5 cells: {raw!r}")
            rows.append(
                ReferenceRow(int(cells[0]), float(cells[1]), float(cells[2]), float(cells[3]), float(cells[4]))
            )
        return cls(tuple(rows))


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
    pull_overhead_s: float


def _fit_line(sizes: list[int], times: list[float]) -> FitResult:
    if len(sizes) < 2:
        raise CalibrationError("need at least two rows for a linear fit")
    slope, intercept = statistics.linear_regression(sizes, times)
    if slope <= 0:
        raise CalibrationError(f"degenerate fit: non-positive slope {slope:.6f}")
    if intercept < 0:
        raise CalibrationError(f"degenerate fit: negative intercept {intercept:.6f}")
    residuals = tuple(t - (intercept + slope * s) for s, t in zip(sizes, times))
    return FitResult(slope=slope, intercept=intercept, residuals=residuals)


def calibrate(
    reference: ReferenceTable = EMBEDDED_REFERENCE,
    pull_overhead_s: float = DEFAULT_PULL_OVERHEAD_S,
) -> CalibrationResult:
    """Fit store/fetch latency profiles to the reference push/pull columns."""
    sizes = reference.sizes()
    push_fit = _fit_line(sizes, reference.column("system_push_s"))
    pull_fit = _fit_line(sizes, [t - pull_overhead_s for t in reference.column("system_pull_s")])
    return CalibrationResult(
        store_profile=LatencyProfile(push_fit.intercept, push_fit.slope),
        fetch_profile=LatencyProfile(pull_fit.intercept, pull_fit.slope),
        push_fit=push_fit,
        pull_fit=pull_fit,
        pull_overhead_s=pull_overhead_s,
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


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def samples_to_csv(samples: list[BenchSample]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for s in samples:
        cells = [s.operation, str(s.size_mb), str(s.repeat_index), _cell(s.user_perceived_s)]
        cells += [_cell(s.phases.get(name)) for name in PUSH_PHASES]
        cells.append(_cell(s.confirmation_s))
        cells += [_cell(s.phases.get(name)) for name in PULL_PHASES]
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
        row = dict(zip(CSV_COLUMNS, cells))
        if row["operation"] not in ("push", "pull"):
            raise CsvParseError(line_no, f"unknown operation {row['operation']!r}")
        try:
            phases = {
                name: float(row[name])
                for name in PUSH_PHASES + PULL_PHASES
                if row[name] != ""
            }
            samples.append(
                BenchSample(
                    operation=row["operation"],
                    size_mb=int(row["size_mb"]),
                    repeat_index=int(row["repeat"]),
                    user_perceived_s=float(row["user_perceived_s"]),
                    phases=phases,
                    confirmation_s=float(row["confirmation_s"]) if row["confirmation_s"] != "" else None,
                    path_used=row["path_used"] or None,
                )
            )
        except ValueError as exc:
            raise CsvParseError(line_no, f"bad numeric cell: {exc}") from None
    return samples


# -- bench worlds ------------------------------------------------------------------


@dataclass
class BenchWorld:
    clock: Clock
    cas: BlobStore
    cache: ShareCache
    chain: SimulatedChain
    client: Client
    rng: random.Random
    owner: Address


def make_world(
    store_profile: LatencyProfile,
    fetch_profile: LatencyProfile,
    chain_config: ChainConfig,
    seed: int | None = 0,
    workdir: str | Path | None = None,
    clock: Clock | None = None,
) -> BenchWorld:
    clock = clock if clock is not None else VirtualClock()
    rng = random.Random(seed)
    root = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="shardvcs-bench-"))
    cas = BlobStore(root, store_profile, fetch_profile, clock)
    cache = ShareCache(clock=clock)
    chain = SimulatedChain(chain_config, clock=clock, rng=rng)
    client = Client(cas, chain, cache, clock=clock, rng=rng)
    return BenchWorld(clock, cas, cache, chain, client, rng, Address.from_label("bench-owner"))


def _settle(world: BenchWorld, chain_config: ChainConfig, receipt) -> None:
    if world.clock.is_virtual:
        world.chain.advance_clock(chain_config.confirmation_delay_max_s)
    else:
        while not receipt.settled:
            world.clock.sleep(0.01)
            world.chain.pending_count()  # lazy settlement trigger


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
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    world = make_world(store_profile, fetch_profile, chain_config, seed, workdir, clock)
    samples = []
    for size in sizes:
        for rep in range(repeats):
            blob = world.rng.randbytes(size * 1_000_000)
            try:
                result = world.client.push(blob, world.owner, rng=world.rng)
                _settle(world, chain_config, result.registration)
                if result.registration.status != "confirmed":
                    raise BenchError(f"registration {result.registration.status}")
            except BenchError:
                raise
            except Exception as exc:
                raise BenchError(f"push sample size={size} repeat={rep} failed: {exc}") from exc
            samples.append(
                BenchSample(
                    operation="push",
                    size_mb=size,
                    repeat_index=rep,
                    user_perceived_s=result.user_perceived_duration,
                    phases=dict(result.phases),
                    confirmation_s=result.registration.confirmed_at - result.registration.submitted_at,
                )
            )
    return samples


def run_pull_bench(
    sizes: list[int],
    repeats: int,
    store_profile: LatencyProfile,
    fetch_profile: LatencyProfile,
    chain_config: ChainConfig,
    start_offset_s: float = 2.0,
    pull_overhead_s: float = DEFAULT_PULL_OVERHEAD_S,
    seed: int | None = 0,
    workdir: str | Path | None = None,
    clock: Clock | None = None,
) -> list[BenchSample]:
    """Push then pull each sample at confirmation + start_offset_s.

    A negative offset schedules the pull before the registration confirms
    (exercising the cache fallback); a positive one schedules it after
    (exercising the authoritative path).
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    world = make_world(store_profile, fetch_profile, chain_config, seed, workdir, clock)
    samples = []
    for size in sizes:
        for rep in range(repeats):
            blob = world.rng.randbytes(size * 1_000_000)
            try:
                result = world.client.push(blob, world.owner, rng=world.rng)
                due = world.chain.due_at(result.registration.tx_id)
                if due is None:
                    raise BenchError("registration settled before the pull could be scheduled")
                target = due + start_offset_s
                now = world.clock.now()
                if target < now:
                    raise BenchError(f"offset {start_offset_s} reaches back before the push returned")
                world.clock.sleep(target - now)  # virtual clocks advance, real ones wait
                plaintext, report = world.client.pull(result.cid, world.owner, result.owner_share)
                if plaintext != blob:
                    raise BenchError("pulled plaintext does not match the pushed bytes")
            except BenchError:
                raise
            except Exception as exc:
                raise BenchError(f"pull sample size={size} repeat={rep} failed: {exc}") from exc
            phases = dict(report.phases)
            phases["access_s"] += pull_overhead_s  # modeled view-call + reconstruction cost
            samples.append(
                BenchSample(
                    operation="pull",
                    size_mb=size,
                    repeat_index=rep,
                    user_perceived_s=report.total_s + pull_overhead_s,
                    phases=phases,
                    path_used=report.path_used,
                )
            )
    return samples


# -- reporting ------------------------------------------------------------------------


def largest_phase(sample: BenchSample) -> str:
    """Name of the single largest latency component of one sample."""
    parts = dict(sample.phases)
    if sample.confirmation_s is not None:
        parts["confirmation_s"] = sample.confirmation_s
    return max(parts, key=lambda name: parts[name])


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
    for (op, size) in sorted(groups, key=lambda k: (k[0], k[1])):
        rows = groups[(op, size)]
        totals = [_q(s.user_perceived_s) for s in rows]
        phase_names = PUSH_PHASES + ("confirmation_s",) if op == "push" else PULL_PHASES
        phase_means = {}
        for name in phase_names:
            vals = [
                _q(s.confirmation_s if name == "confirmation_s" else s.phases.get(name, 0.0))
                for s in rows
                if (s.confirmation_s is not None if name == "confirmation_s" else True)
            ]
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
                largest=max(phase_means, key=lambda n: phase_means[n]) if phase_means else "",
                paths=paths,
            )
        )
    return out


def render_report(samples: list[BenchSample], reference: ReferenceTable = EMBEDDED_REFERENCE) -> str:
    """Deterministic text report: summary, literature comparison, breakdown."""
    if not samples:
        raise CsvParseError(1, "no samples to report")
    summaries = summarize(samples)
    ref_by_size = {r.size_mb: r for r in reference.rows}
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
    git_rows = [f"  git push: {r.size_mb} MB = {r.git_push_s:.2f} s" for r in reference.rows]
    git_rows += [f"  git pull: {r.size_mb} MB = {r.git_pull_s:.2f} s" for r in reference.rows]
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
