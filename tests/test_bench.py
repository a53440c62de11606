import hashlib
import time

import pytest

from shardvcs.bench import (
    CSV_COLUMNS,
    EMBEDDED_REFERENCE,
    BenchError,
    _fit_line,
    calibrate,
    parse_csv,
    render_report,
    run_pull_bench,
    run_push_bench,
    samples_to_csv,
    summarize,
)
from shardvcs.config import HarnessConfig


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
    rows = EMBEDDED_REFERENCE.rows
    assert [r.size_mb for r in rows] == [1, 5, 10, 20]
    assert [r.system_push_s for r in rows] == [2.04, 4.19, 6.56, 11.47]
    assert [r.system_pull_s for r in rows] == [1.29, 2.41, 2.54, 4.08]
    assert [r.git_push_s for r in rows] == [4.05, 6.16, 7.74, 8.14]
    assert [r.git_pull_s for r in rows] == [1.06, 1.07, 1.06, 1.17]


def test_calibrate_matches_independent_least_squares():
    result = calibrate()
    sizes = [1, 5, 10, 20]
    push_times = [2.04, 4.19, 6.56, 11.47]
    slope, intercept = normal_equations_fit(sizes, push_times)
    assert result.store_profile.per_mb_s == pytest.approx(slope, abs=1e-9)
    assert result.store_profile.fixed_overhead_s == pytest.approx(intercept, abs=1e-9)
    # frozen values from the same closed form, computed ahead of time
    assert result.store_profile.per_mb_s == pytest.approx(0.4933168, abs=1e-7)
    assert result.store_profile.fixed_overhead_s == pytest.approx(1.6251485, abs=1e-7)
    expected = [t - (intercept + slope * size) for size, t in zip(sizes, push_times)]
    assert result.push_residuals == pytest.approx(expected, abs=1e-9)

    pull_times = [1.29, 2.41, 2.54, 4.08]
    pull_slope, pull_intercept = normal_equations_fit(sizes, pull_times)
    assert result.fetch_profile.per_mb_s == pytest.approx(pull_slope, abs=1e-9)
    assert result.fetch_profile.fixed_overhead_s == pytest.approx(pull_intercept, abs=1e-9)
    assert result.fetch_profile.per_mb_s == pytest.approx(0.1359406, abs=1e-7)
    assert result.fetch_profile.fixed_overhead_s == pytest.approx(1.3565347, abs=1e-7)
    expected = [t - (pull_intercept + pull_slope * size) for size, t in zip(sizes, pull_times)]
    assert result.pull_residuals == pytest.approx(expected, abs=1e-9)


def test_fit_of_an_exact_line_has_zero_residuals():
    sizes = [1, 2, 4, 8]
    profile, residuals = _fit_line(sizes, [1.0 + 0.5 * s for s in sizes])
    assert all(abs(r) < 1e-9 for r in residuals)
    assert profile.per_mb_s == pytest.approx(0.5)
    assert profile.fixed_overhead_s == pytest.approx(1.0)


def test_embedded_fits_are_usable_latency_lines():
    # a latency line must grow with size and cost nothing negative at size zero
    result = calibrate()
    for profile in (result.store_profile, result.fetch_profile):
        assert profile.per_mb_s > 0
        assert profile.fixed_overhead_s >= 0


def test_push_bench_schema_and_phases(calibrated_config):
    samples = run_push_bench([1, 5], 2, calibrated_config, seed=3)
    assert len(samples) == 4
    for s in samples:
        assert s.operation == "push"
        assert list(s.timings) == ["seal_s", "store_s", "middleman_s", "submit_s", "confirmation_s"]
        confirmation_s = s.timings.pop("confirmation_s")
        assert s.user_perceived_s == pytest.approx(sum(s.timings.values()))
        assert 12.0 <= confirmation_s <= 16.0
        assert s.path_used is None


def test_pull_bench_post_confirmation(calibrated_config):
    samples = run_pull_bench([1], 3, calibrated_config, start_offset_s=2.0, seed=3)
    assert all(s.path_used == "on-chain" for s in samples)
    for s in samples:
        assert list(s.timings) == ["access_s", "share_fetch_s", "blob_fetch_s", "decrypt_s"]
        assert s.user_perceived_s == pytest.approx(sum(s.timings.values()))
        assert s.timings["access_s"] == 0.0  # the view call charges no virtual time


def test_pull_bench_pre_confirmation(calibrated_config):
    samples = run_pull_bench([1], 3, calibrated_config, start_offset_s=-2.0, seed=3)
    assert all(s.path_used == "middleman" for s in samples)


def test_bench_rejects_bad_args(calibrated_config):
    with pytest.raises(ValueError):
        run_push_bench([], 5, calibrated_config)
    with pytest.raises(ValueError):
        run_push_bench([1], 0, calibrated_config)
    with pytest.raises(BenchError):
        run_pull_bench([1], 1, calibrated_config, start_offset_s=-100.0)


@pytest.mark.parametrize(
    "sizes, offset, message",
    [
        ([1, 0], 2.0, "sizes must be >= 1 MB, got 0"),
        ([-1], 2.0, "sizes must be >= 1 MB, got -1"),
        ([1], float("nan"), "start offset must be finite, got nan"),
        ([1], float("-inf"), "start offset must be finite, got -inf"),
    ],
)
def test_bench_rejects_bad_sizes_and_offsets_before_any_sample(calibrated_config, monkeypatch, sizes, offset, message):
    def no_world(*args, **kwargs):
        pytest.fail("a world was built, so a sample could run")

    monkeypatch.setattr(HarnessConfig, "client", no_world)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_pull_bench(sizes, 1, calibrated_config, start_offset_s=offset)


def test_bench_reproducible_bit_identical(calibrated_config):
    a = run_push_bench([1, 5], 3, calibrated_config, seed=11)
    b = run_push_bench([1, 5], 3, calibrated_config, seed=11)
    assert samples_to_csv(a) == samples_to_csv(b)
    c = run_push_bench([1, 5], 3, calibrated_config, seed=12)
    assert samples_to_csv(a) != samples_to_csv(c)


def test_bench_csv_matches_golden_digest(calibrated_config):
    # Pins seeded output across versions, not just between two runs of one
    # version: the chain's confirmation delays share the rng with key
    # generation, sharing and the payloads, so any change to the draws moves
    # the confirmation_s cells. Digest retaken when the bench stopped charging
    # a modeled 0.2 s to each pull's access_s, which the fitted fetch profile
    # now carries: on every pull row access_s fell from 0.200000 to 0.000000
    # and blob_fetch_s rose by 0.200000; no other cell changed.
    args = ([1, 5], 2, calibrated_config)
    samples = run_push_bench(*args, seed=0)
    samples += run_pull_bench(*args, start_offset_s=2.0, seed=0)
    samples += run_pull_bench(*args, start_offset_s=-2.0, seed=0)
    digest = hashlib.sha256(samples_to_csv(samples).encode()).hexdigest()
    assert digest == "187156b2f15b17e470966e54a97e11cd25ce4cf5a56ff1783ed50271f8d0eb54"


def test_report_matches_golden_digest(calibrated_config):
    # The report over the samples of test_bench_csv_matches_golden_digest;
    # digest retaken with that one, for the same cause: only the two pull
    # lines of the phase breakdown changed.
    args = ([1, 5], 2, calibrated_config)
    samples = run_push_bench(*args, seed=0)
    samples += run_pull_bench(*args, start_offset_s=2.0, seed=0)
    samples += run_pull_bench(*args, start_offset_s=-2.0, seed=0)
    digest = hashlib.sha256(render_report(samples).encode()).hexdigest()
    assert digest == "0e1f76a9c4aee4ffdeb966b9ddb254452de08c88db79b7127da8b821c05ec134"


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


def test_csv_roundtrip(calibrated_config):
    samples = run_push_bench([1], 2, calibrated_config, seed=1)
    samples += run_pull_bench([1], 2, calibrated_config, seed=1)
    parsed = parse_csv(samples_to_csv(samples))
    assert len(parsed) == len(samples)
    for original, round_tripped in zip(samples, parsed):
        assert round_tripped.operation == original.operation
        assert round_tripped.size_mb == original.size_mb
        assert round_tripped.user_perceived_s == pytest.approx(original.user_perceived_s, abs=1e-6)
        assert round_tripped.timings == pytest.approx(original.timings, abs=1e-6)
        assert round_tripped.path_used == original.path_used
    # summary equality is the round-trip contract
    assert render_report(parsed) == render_report(samples)


def test_parse_csv_error_reporting():
    with pytest.raises(ValueError, match="line 1"):
        parse_csv("")
    with pytest.raises(ValueError, match="line 1"):
        parse_csv("totally,wrong,header\n")
    header = ",".join(CSV_COLUMNS)
    with pytest.raises(ValueError, match="line 2"):
        parse_csv(header + "\npush,1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_csv(
            header
            + "\npush,1,0,1.0,0.1,0.2,0.3,0.4,14.0,,,,,\n"
            + "push,1,0,not-a-number,0.1,0.2,0.3,0.4,14.0,,,,,\n"
        )
    with pytest.raises(ValueError, match="unknown operation"):
        parse_csv(header + "\nclone,1,0,1.0,,,,,,,,,,\n")


@pytest.mark.parametrize(
    "row, message",
    [
        ("push,1,0,nan,0.1,0.2,0.3,0.4,14.0,,,,,", "user_perceived_s must be finite and >= 0, got nan"),
        ("push,1,0,1.0,0.1,inf,0.3,0.4,14.0,,,,,", "store_s must be finite and >= 0, got inf"),
        ("pull,1,0,1.0,,,,,,0.1,-inf,0.5,0.2,middleman", "share_fetch_s must be finite and >= 0, got -inf"),
        ("pull,1,0,1.0,,,,,,0.1,0.1,-0.5,0.2,on-chain", "blob_fetch_s must be finite and >= 0, got -0.5"),
        ("push,1,0,-1.0,0.1,0.2,0.3,0.4,14.0,,,,,", "user_perceived_s must be finite and >= 0, got -1.0"),
        ("push,0,0,1.0,0.1,0.2,0.3,0.4,14.0,,,,,", "size_mb must be >= 1, got 0"),
        ("push,-3,0,1.0,0.1,0.2,0.3,0.4,14.0,,,,,", "size_mb must be >= 1, got -3"),
        ("push,1,-1,1.0,0.1,0.2,0.3,0.4,14.0,,,,,", "repeat must be >= 0, got -1"),
    ],
)
def test_parse_csv_refuses_non_finite_negative_and_impossible_cells(row, message):
    good = "push,1,0,1.0,0.1,0.2,0.3,0.4,14.0,,,,,"
    with pytest.raises(ValueError) as refused:
        parse_csv(",".join(CSV_COLUMNS) + "\n" + good + "\n" + row + "\n")
    assert str(refused.value) == f"line 3: {message}"


def test_summarize_groups_and_orders(calibrated_config):
    samples = run_push_bench([5, 1], 2, calibrated_config, seed=2)
    summaries = summarize(samples)
    assert [(s.operation, s.size_mb) for s in summaries] == [("push", 1), ("push", 5)]
    assert all(s.count == 2 for s in summaries)


def test_report_is_deterministic_and_marks_largest(calibrated_config):
    samples = run_push_bench([1, 5], 2, calibrated_config, seed=5)
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
    with pytest.raises(ValueError, match="^line 1: no samples to report$"):
        render_report([])


def test_zero_latency_crypto_baseline_is_subsecond_at_20mb():
    # real clock, zero modeled latency, zero chain delay: only crypto+hash cost
    cfg = HarnessConfig(clock="real", confirmation_delay_min_s=0, confirmation_delay_max_s=0)
    samples = run_push_bench([20], 1, cfg, seed=0)
    assert samples[0].user_perceived_s < 1.0


def test_real_clock_pull_rows_report_no_more_time_than_the_run_took():
    # on a real clock every pull cell is measured time, so no row can exceed the run
    cfg = HarnessConfig(clock="real", confirmation_delay_min_s=0, confirmation_delay_max_s=0)
    t0 = time.time()
    samples = run_pull_bench([1], 2, cfg, start_offset_s=0.01)
    elapsed = time.time() - t0
    for s in samples:
        assert s.user_perceived_s <= elapsed
        assert s.timings["access_s"] <= elapsed
