import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs import envelope
from shardvcs.envelope import (
    DecryptionError,
    SecretBundle,
    bundle_to_secret,
    generate_bundle,
    seal,
    secret_to_bundle,
    unseal,
)

import aes_gcm_oracle

VECTORS = Path(__file__).parent / "data" / "envelope_vectors.txt"


def _bundle(seed: int) -> SecretBundle:
    return generate_bundle(random.Random(seed))


def test_bundle_length_validation():
    with pytest.raises(ValueError):
        SecretBundle(key=b"\x00" * 31, iv=b"\x00" * 12)
    with pytest.raises(ValueError):
        SecretBundle(key=b"\x00" * 32, iv=b"\x00" * 11)


def test_generate_bundle_distinct_and_reproducible():
    assert generate_bundle() != generate_bundle()
    assert _bundle(4) == _bundle(4)
    assert _bundle(4) != _bundle(5)


def test_roundtrip_simple():
    b = _bundle(0)
    assert unseal(seal(b"repository bytes", b), b) == b"repository bytes"


def test_empty_plaintext():
    b = _bundle(1)
    sealed = seal(b"", b)
    assert sealed[:-16] == b""
    assert len(sealed) == 16
    assert unseal(sealed, b) == b""


def test_ciphertext_length_equals_plaintext_length():
    b = _bundle(2)
    for n in (1, 15, 16, 17, 1000):
        assert len(seal(b"\x00" * n, b)[:-16]) == n


def test_golden_vectors_from_independent_implementation():
    # vectors were generated by tests/aes_gcm_oracle.py, not by this package
    lines = VECTORS.read_text().splitlines()
    assert len(lines) >= 10
    for line in lines:
        key_h, iv_h, pt_h, ct_h, tag_h = line.split(" ")
        bundle = SecretBundle(bytes.fromhex(key_h), bytes.fromhex(iv_h))
        sealed = seal(bytes.fromhex(pt_h), bundle)
        assert sealed[:-16] == bytes.fromhex(ct_h)
        assert sealed[-16:] == bytes.fromhex(tag_h)
        assert unseal(sealed, bundle) == bytes.fromhex(pt_h)


def test_dual_route_agreement_fresh_inputs():
    # same operation computed via the package and via the standalone oracle
    rng = random.Random(1234)
    for length in (1, 16, 100, 333):
        bundle = generate_bundle(rng)
        plaintext = rng.randbytes(length)
        sealed = seal(plaintext, bundle)
        ct, tag = aes_gcm_oracle.gcm_encrypt(bundle.key, bundle.iv, plaintext)
        assert (sealed[:-16], sealed[-16:]) == (ct, tag)
        assert aes_gcm_oracle.gcm_decrypt(bundle.key, bundle.iv, sealed[:-16], sealed[-16:]) == plaintext


def test_known_answer_zero_key_zero_iv():
    bundle = SecretBundle(b"\x00" * 32, b"\x00" * 12)
    assert seal(b"", bundle)[-16:].hex() == "530f8afbc74536b9a963b4f1c4cb738b"
    sealed = seal(b"\x00" * 16, bundle)
    assert sealed[:-16].hex() == "cea7403d4d606b6e074ec5d3baf39d18"
    assert sealed[-16:].hex() == "d0d1c8a799996bf0265b98b5d48ab919"


def test_tamper_detection_ciphertext_and_tag():
    b = _bundle(3)
    sealed = seal(b"sensitive", b)
    flipped_ct = bytes([sealed[0] ^ 0x01]) + sealed[1:]
    with pytest.raises(DecryptionError):
        unseal(flipped_ct, b)
    flipped_tag = sealed[:-1] + bytes([sealed[-1] ^ 0x80])
    with pytest.raises(DecryptionError):
        unseal(flipped_tag, b)


def test_wrong_key_and_wrong_iv_fail():
    b = _bundle(6)
    sealed = seal(b"payload", b)
    wrong_key = SecretBundle(bytes(32), b.iv)
    wrong_iv = SecretBundle(b.key, bytes(12))
    with pytest.raises(DecryptionError):
        unseal(sealed, wrong_key)
    with pytest.raises(DecryptionError):
        unseal(sealed, wrong_iv)


def test_roundtrip_at_benchmark_size():
    b = _bundle(7)
    plaintext = random.Random(8).randbytes(32 * 1024 * 1024)
    assert unseal(seal(plaintext, b), b) == plaintext


def test_unseal_shorter_than_tag_fails():
    with pytest.raises(DecryptionError):
        unseal(b"\x00" * 15, _bundle(9))


def test_secret_concatenation_inverse():
    b = _bundle(10)
    secret = bundle_to_secret(b)
    assert len(secret) == 44
    assert secret == b.key + b.iv
    assert secret_to_bundle(secret) == b
    with pytest.raises(ValueError):
        secret_to_bundle(secret + b"\x00")
    zero = SecretBundle(b"\x00" * 32, b"\x00" * 12)
    assert bundle_to_secret(zero) == b"\x00" * 44


@given(plaintext=st.binary(max_size=2048), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_roundtrip(plaintext, seed):
    b = _bundle(seed)
    assert unseal(seal(plaintext, b), b) == plaintext


@given(
    plaintext=st.binary(min_size=1, max_size=256),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_single_bit_flip_rejected(plaintext, seed, data):
    b = _bundle(seed)
    sealed = seal(plaintext, b)
    raw = bytearray(sealed)
    bit = data.draw(st.integers(0, len(raw) * 8 - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(DecryptionError):
        unseal(bytes(raw), b)


def test_full_pipeline_shares_to_plaintext():
    from itertools import combinations

    from shardvcs.sss import ThresholdParams, combine, split

    rng = random.Random(77)
    b = generate_bundle(rng)
    sealed = seal(b"full pipeline", b)
    shares = split(bundle_to_secret(b), ThresholdParams(2, 3), rng)
    for pair in combinations(shares, 2):
        rebuilt = secret_to_bundle(combine(list(pair), threshold=2))
        assert unseal(sealed, rebuilt) == b"full pipeline"
