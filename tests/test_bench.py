import hashlib

import pytest

from shardvcs.bench import (
    CSV_COLUMNS,
    EMBEDDED_REFERENCE,
    BenchError,
    BenchSample,
    CsvParseError,
    _fit_line,
    calibrate,
    largest_phase,
    parse_csv,
    render_report,
    run_pull_bench,
    run_push_bench,
    samples_to_csv,
    summarize,
)
from shardvcs.ledger import ChainConfig


def normal_equations_fit(xs, ys):
    # independent closed-form least squares: slope and intercept from sums
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


def test_embedded_reference_rows():
    assert EMBEDDED_REFERENCE.sizes() == [1, 5, 10, 20]
    assert EMBEDDED_REFERENCE.column("system_push_s") == [2.04, 4.19, 6.56, 11.47]
    assert EMBEDDED_REFERENCE.column("system_pull_s") == [1.29, 2.41, 2.54, 4.08]
    assert EMBEDDED_REFERENCE.column("git_push_s") == [4.05, 6.16, 7.74, 8.14]
    assert EMBEDDED_REFERENCE.column("git_pull_s") == [1.06, 1.07, 1.06, 1.17]


def test_calibrate_matches_independent_least_squares():
    result = calibrate()
    slope, intercept = normal_equations_fit([1, 5, 10, 20], [2.04, 4.19, 6.56, 11.47])
    assert result.push_fit.slope == pytest.approx(slope, abs=1e-9)
    assert result.push_fit.intercept == pytest.approx(intercept, abs=1e-9)
    # frozen values from the same closed form, computed ahead of time
    assert result.push_fit.slope == pytest.approx(0.4933168, abs=1e-7)
    assert result.push_fit.intercept == pytest.approx(1.6251485, abs=1e-7)

    pull_slope, pull_intercept = normal_equations_fit(
        [1, 5, 10, 20], [1.29 - 0.2, 2.41 - 0.2, 2.54 - 0.2, 4.08 - 0.2]
    )
    assert result.pull_fit.slope == pytest.approx(pull_slope, abs=1e-9)
    assert result.pull_fit.intercept == pytest.approx(pull_intercept, abs=1e-9)
    assert result.pull_fit.slope == pytest.approx(0.1359406, abs=1e-7)
    assert result.pull_fit.intercept == pytest.approx(1.1565347, abs=1e-7)

    assert result.store_profile.fixed_overhead_s == result.push_fit.intercept
    assert result.store_profile.per_mb_s == result.push_fit.slope
    assert result.fetch_profile.fixed_overhead_s == result.pull_fit.intercept
    assert result.fetch_profile.per_mb_s == result.pull_fit.slope


def test_fit_of_an_exact_line_has_zero_residuals():
    sizes = [1, 2, 4, 8]
    fit = _fit_line(sizes, [1.0 + 0.5 * s for s in sizes])
    assert all(abs(r) < 1e-9 for r in fit.residuals)
    assert fit.slope == pytest.approx(0.5)
    assert fit.intercept == pytest.approx(1.0)


def test_embedded_fits_are_usable_latency_lines():
    # a latency line must grow with size and cost nothing negative at size zero
    result = calibrate()
    for fit in (result.push_fit, result.pull_fit):
        assert fit.slope > 0
        assert fit.intercept >= 0


def _bench_profiles():
    result = calibrate()
    return result.store_profile, result.fetch_profile


def test_push_bench_schema_and_phases(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_push_bench([1, 5], 2, store, fetch, ChainConfig(), seed=3, workdir=tmp_path)
    assert len(samples) == 4
    for s in samples:
        assert s.operation == "push"
        assert set(s.phases) == {"seal_s", "store_s", "middleman_s", "submit_s"}
        assert s.user_perceived_s == pytest.approx(sum(s.phases.values()))
        assert 12.0 <= s.confirmation_s <= 16.0
        assert s.path_used is None


def test_pull_bench_post_confirmation(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_pull_bench(
        [1], 3, store, fetch, ChainConfig(), start_offset_s=2.0, seed=3, workdir=tmp_path
    )
    assert all(s.path_used == "on-chain" for s in samples)
    for s in samples:
        assert s.user_perceived_s == pytest.approx(sum(s.phases.values()))
        assert s.phases["access_s"] >= 0.2  # modeled protocol overhead charged here
        assert s.confirmation_s is None


def test_pull_bench_pre_confirmation(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_pull_bench(
        [1], 3, store, fetch, ChainConfig(), start_offset_s=-2.0, seed=3, workdir=tmp_path
    )
    assert all(s.path_used == "middleman" for s in samples)


def test_bench_rejects_bad_args(tmp_path):
    store, fetch = _bench_profiles()
    with pytest.raises(ValueError):
        run_push_bench([], 5, store, fetch, ChainConfig(), workdir=tmp_path)
    with pytest.raises(ValueError):
        run_push_bench([1], 0, store, fetch, ChainConfig(), workdir=tmp_path)
    with pytest.raises(BenchError):
        run_pull_bench([1], 1, store, fetch, ChainConfig(), start_offset_s=-100.0, workdir=tmp_path)


@pytest.mark.parametrize(
    "sizes, offset, message",
    [
        ([1, 0], 2.0, "sizes must be >= 1 MB, got 0"),
        ([-1], 2.0, "sizes must be >= 1 MB, got -1"),
        ([1], float("nan"), "start offset must be finite, got nan"),
        ([1], float("-inf"), "start offset must be finite, got -inf"),
    ],
)
def test_bench_rejects_bad_sizes_and_offsets_before_any_sample(tmp_path, sizes, offset, message):
    store, fetch = _bench_profiles()
    workdir = tmp_path / "store"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pull_bench(sizes, 1, store, fetch, ChainConfig(), start_offset_s=offset, workdir=workdir)
    assert not workdir.exists()  # no world was built, so no sample ran


def test_bench_reproducible_bit_identical(tmp_path):
    store, fetch = _bench_profiles()
    a = run_push_bench([1, 5], 3, store, fetch, ChainConfig(), seed=11, workdir=tmp_path / "a")
    b = run_push_bench([1, 5], 3, store, fetch, ChainConfig(), seed=11, workdir=tmp_path / "b")
    assert samples_to_csv(a) == samples_to_csv(b)
    c = run_push_bench([1, 5], 3, store, fetch, ChainConfig(), seed=12, workdir=tmp_path / "c")
    assert samples_to_csv(a) != samples_to_csv(c)


def test_bench_csv_matches_golden_digest(tmp_path):
    # Pins seeded output across versions, not just between two runs of one
    # version: the chain's confirmation delays share the rng with key
    # generation, sharing and the payloads, so any change to the draws moves
    # the confirmation_s cells. Digest taken before SecretBundle was removed.
    store, fetch = _bench_profiles()
    args = ([1, 5], 2, store, fetch, ChainConfig())
    samples = run_push_bench(*args, seed=0, workdir=tmp_path / "push")
    samples += run_pull_bench(*args, start_offset_s=2.0, seed=0, workdir=tmp_path / "post")
    samples += run_pull_bench(*args, start_offset_s=-2.0, seed=0, workdir=tmp_path / "pre")
    digest = hashlib.sha256(samples_to_csv(samples).encode()).hexdigest()
    assert digest == "cb18f0aae4aceaac29b4b820d15abdfa093d9796ab7d7b2c15d238721e15e3da"


def test_report_matches_golden_digest(tmp_path):
    # The report over the samples of test_bench_csv_matches_golden_digest;
    # digest taken before the runners shared one sweep loop.
    store, fetch = _bench_profiles()
    args = ([1, 5], 2, store, fetch, ChainConfig())
    samples = run_push_bench(*args, seed=0, workdir=tmp_path / "push")
    samples += run_pull_bench(*args, start_offset_s=2.0, seed=0, workdir=tmp_path / "post")
    samples += run_pull_bench(*args, start_offset_s=-2.0, seed=0, workdir=tmp_path / "pre")
    digest = hashlib.sha256(render_report(samples).encode()).hexdigest()
    assert digest == "87ac66a56e5ed2b0076192b21f7dcb57f0a80a6f0b2d6b5d705dc5f003ac40e3"


def test_report_counts_missing_phase_as_zero_and_skips_missing_confirmation():
    header = ",".join(CSV_COLUMNS)
    text = (
        header
        + "\npush,1,0,0.800000,0.100000,,0.300000,0.400000,14.000000,,,,,"
        + "\npush,1,1,2.600000,0.300000,2.000000,0.100000,0.200000,,,,,,"
        + "\npull,1,0,1.500000,,,,,,0.400000,,0.900000,0.200000,on-chain\n"
    )
    breakdown = render_report(parse_csv(text)).split("== Phase breakdown", 1)[1].splitlines()[1:]
    # pull share_fetch_s: its one cell is empty, so 0; push store_s: (0 + 2.0) / 2;
    # push confirmation_s: the mean of the one row that has it
    assert breakdown == [
        "pull 1 MB: access_s=0.4000  share_fetch_s=0.0000  blob_fetch_s=0.9000*  decrypt_s=0.2000",
        "push 1 MB: seal_s=0.2000  store_s=1.0000  middleman_s=0.2000  submit_s=0.3000  confirmation_s=14.0000*",
    ]


def test_csv_header_schema():
    assert samples_to_csv([]).strip() == ",".join(CSV_COLUMNS)
    assert CSV_COLUMNS[0] == "operation"
    assert CSV_COLUMNS[-1] == "path_used"


def test_csv_roundtrip(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_push_bench([1], 2, store, fetch, ChainConfig(), seed=1, workdir=tmp_path)
    samples += run_pull_bench([1], 2, store, fetch, ChainConfig(), seed=1, workdir=tmp_path)
    parsed = parse_csv(samples_to_csv(samples))
    assert len(parsed) == len(samples)
    for original, round_tripped in zip(samples, parsed):
        assert round_tripped.operation == original.operation
        assert round_tripped.size_mb == original.size_mb
        assert round_tripped.user_perceived_s == pytest.approx(original.user_perceived_s, abs=1e-6)
        assert round_tripped.path_used == original.path_used
    # summary equality is the round-trip contract
    assert render_report(parsed) == render_report(samples)


def test_parse_csv_error_reporting():
    with pytest.raises(CsvParseError, match="line 1"):
        parse_csv("")
    with pytest.raises(CsvParseError, match="line 1"):
        parse_csv("totally,wrong,header\n")
    header = ",".join(CSV_COLUMNS)
    with pytest.raises(CsvParseError, match="line 2"):
        parse_csv(header + "\npush,1\n")
    with pytest.raises(CsvParseError, match="line 3"):
        parse_csv(
            header
            + "\npush,1,0,1.0,0.1,0.2,0.3,0.4,14.0,,,,,\n"
            + "push,1,0,not-a-number,0.1,0.2,0.3,0.4,14.0,,,,,\n"
        )
    with pytest.raises(CsvParseError, match="unknown operation"):
        parse_csv(header + "\nclone,1,0,1.0,,,,,,,,,,\n")


def test_largest_phase_picks_confirmation_when_dominant():
    sample = BenchSample(
        operation="push",
        size_mb=10,
        repeat_index=0,
        user_perceived_s=6.5,
        phases={"seal_s": 0.1, "store_s": 6.0, "middleman_s": 0.1, "submit_s": 0.3},
        confirmation_s=13.5,
    )
    assert largest_phase(sample) == "confirmation_s"
    sample.confirmation_s = 0.5
    assert largest_phase(sample) == "store_s"


def test_summarize_groups_and_orders(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_push_bench([5, 1], 2, store, fetch, ChainConfig(), seed=2, workdir=tmp_path)
    summaries = summarize(samples)
    assert [(s.operation, s.size_mb) for s in summaries] == [("push", 1), ("push", 5)]
    assert all(s.count == 2 for s in summaries)


def test_report_is_deterministic_and_marks_largest(tmp_path):
    store, fetch = _bench_profiles()
    samples = run_push_bench([1, 5], 2, store, fetch, ChainConfig(), seed=5, workdir=tmp_path)
    text = render_report(samples)
    assert text == render_report(samples)
    assert "confirmation_s=" in text
    for line in text.splitlines():
        if line.startswith("push") and "confirmation_s=" in line:
            marked = [p for p in line.split() if p.endswith("*")]
            assert len(marked) == 1 and marked[0].startswith("confirmation_s=")
    assert "literature" in text
    assert "4.05" in text and "1.17" in text  # git baselines carried verbatim


def test_report_of_nothing_is_an_error():
    with pytest.raises(CsvParseError):
        render_report([])


def test_zero_latency_crypto_baseline_is_subsecond_at_20mb(tmp_path):
    # real clock, zero modeled latency, zero chain delay: only crypto+hash cost
    from shardvcs.cas import LatencyProfile
    from shardvcs.clock import RealClock

    samples = run_push_bench(
        [20],
        1,
        LatencyProfile(),
        LatencyProfile(),
        ChainConfig.constant(0.0),
        seed=0,
        workdir=tmp_path,
        clock=RealClock(),
    )
    assert samples[0].user_perceived_s < 1.0
