import dataclasses

import pytest

from shardvcs.config import HarnessConfig

FLOAT_KEYS = [f.name for f in dataclasses.fields(HarnessConfig) if f.type == "float"]


def test_defaults():
    cfg = HarnessConfig()
    assert cfg.clock == "virtual"
    assert cfg.middleman_ttl_s == 24 * 3600.0
    assert cfg.confirmation_delay_min_s == 12.0
    assert cfg.confirmation_delay_max_s == 16.0


def test_parse_full_file():
    cfg = HarnessConfig.from_text(
        """
        # transfer latency model
        store_fixed_s = 1.62
        store_per_mb_s = 0.49   # slope
        fetch_fixed_s = 1.15
        fetch_per_mb_s = 0.14
        confirmation_delay_min_s = 14
        confirmation_delay_max_s = 14
        clock = real
        middleman_ttl_s = 3600
        """
    )
    assert cfg.store_profile().fixed_overhead_s == 1.62
    assert cfg.fetch_profile().per_mb_s == 0.14
    assert cfg.chain_config().confirmation_delay_min_s == 14.0
    assert not cfg.make_clock().is_virtual
    assert cfg.middleman_ttl_s == 3600.0


def test_unknown_key_is_an_error():
    with pytest.raises(ValueError, match="unknown key"):
        HarnessConfig.from_text("store_fxied_s = 1.0")
    # keys removed from the schema fail the same way, at their line
    with pytest.raises(ValueError, match="line 2: unknown key 'threshold_k'"):
        HarnessConfig.from_text("clock = virtual\nthreshold_k = 2")
    for key in ("pull_overhead_s", "add_collaborator_gas"):
        with pytest.raises(ValueError, match=f"line 1: unknown key '{key}'"):
            HarnessConfig.from_text(f"{key} = 0")


def test_bad_value_reports_line():
    with pytest.raises(ValueError, match="line 2: bad value for 'middleman_ttl_s'"):
        HarnessConfig.from_text("clock = virtual\nmiddleman_ttl_s = two")


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_value_reports_line(key, value):
    with pytest.raises(ValueError, match=f"line 2: bad value for '{key}'"):
        HarnessConfig.from_text(f"clock = virtual\n{key} = {value}")


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_value_is_rejected_by_what_it_configures(key):
    with pytest.raises(ValueError, match="finite"):
        cfg = HarnessConfig(**{key: float("nan")})
        for derive in (cfg.store_profile, cfg.fetch_profile, cfg.chain_config):
            derive()


def test_missing_equals_sign():
    with pytest.raises(ValueError, match="key = value"):
        HarnessConfig.from_text("middleman_ttl_s 2")


def test_bad_clock_kind():
    with pytest.raises(ValueError, match="clock"):
        HarnessConfig.from_text("clock = sundial")


def test_text_roundtrip():
    cfg = HarnessConfig(store_fixed_s=1.5, clock="real", middleman_ttl_s=60.0)
    assert HarnessConfig.from_text(cfg.to_text()) == cfg


def test_file_roundtrip(tmp_path):
    cfg = HarnessConfig(fetch_per_mb_s=0.3)
    path = tmp_path / "harness.cfg"
    path.write_text(cfg.to_text())
    assert HarnessConfig.from_file(path) == cfg
