import dataclasses
import random

import pytest

from shardvcs.cas import LatencyProfile
from shardvcs.clock import RealClock
from shardvcs.config import HarnessConfig
from shardvcs.ledger import ChainConfig

FLOAT_KEYS = [f.name for f in dataclasses.fields(HarnessConfig) if f.type == "float"]


def test_defaults():
    cfg = HarnessConfig()
    assert cfg.clock == "virtual"
    assert cfg.middleman_ttl_s == 24 * 3600.0
    assert cfg.confirmation_delay_min_s == 12.0
    assert cfg.confirmation_delay_max_s == 16.0


def test_parse_full_file(tmp_path):
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
    client = cfg.client(tmp_path)
    assert client.cas.store_profile.fixed_overhead_s == 1.62
    assert client.cas.fetch_profile.per_mb_s == 0.14
    assert client.chain.config.confirmation_delay_min_s == 14.0
    assert not client.clock.is_virtual
    assert client.middleman.ttl_s == 3600.0


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
def test_non_finite_value_is_rejected_by_what_it_configures(key, tmp_path):
    with pytest.raises(ValueError, match="finite"):
        HarnessConfig(**{key: float("nan")}).client(tmp_path)


def test_the_built_client_carries_every_key_on_one_clock_and_one_rng(tmp_path):
    cfg = HarnessConfig(
        store_fixed_s=1.5,
        store_per_mb_s=0.25,
        fetch_fixed_s=0.75,
        fetch_per_mb_s=0.125,
        confirmation_delay_min_s=3.0,
        confirmation_delay_max_s=5.0,
        clock="real",
        middleman_ttl_s=60.0,
    )
    assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
    rng = random.Random(7)
    client = cfg.client(tmp_path / "cas", rng=rng)
    assert client.cas.root == tmp_path / "cas"
    assert client.cas.store_profile == LatencyProfile(1.5, 0.25)
    assert client.cas.fetch_profile == LatencyProfile(0.75, 0.125)
    assert client.chain.config == ChainConfig(3.0, 5.0)
    assert isinstance(client.clock, RealClock)
    assert client.middleman.ttl_s == 60.0
    assert client.cas.clock is client.chain.clock is client.middleman.clock is client.clock
    assert client.chain._rng is client.rng is rng
    remote = object()  # stands in for an HttpShareCache
    assert cfg.client(tmp_path / "cas", middleman=remote).middleman is remote


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
