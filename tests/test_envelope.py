import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs.envelope import DecryptionError, generate_secret, seal, unseal

import aes_gcm_oracle

VECTORS = Path(__file__).parent / "data" / "envelope_vectors.txt"


def _secret(seed: int) -> bytes:
    return generate_secret(random.Random(seed))


def test_bundle_length_validation():
    # a short key or a short IV makes a secret of the wrong length
    for key_len, iv_len in ((31, 12), (32, 11)):
        wrong = b"\x00" * key_len + b"\x00" * iv_len
        with pytest.raises(ValueError):
            seal(b"payload", wrong)
        with pytest.raises(DecryptionError):
            unseal(b"\x00" * 16, wrong)


def test_secret_concatenation_inverse():
    # the secret is the key bytes followed by the IV bytes, drawn in that order
    rng = random.Random(10)
    key, iv = rng.randbytes(32), rng.randbytes(12)
    secret = _secret(10)
    assert len(secret) == 44
    assert secret == key + iv
    ct, tag = aes_gcm_oracle.gcm_encrypt(key, iv, b"split")
    assert seal(b"split", secret) == ct + tag
    assert seal(b"", b"\x00" * 44) == b"".join(aes_gcm_oracle.gcm_encrypt(b"\x00" * 32, b"\x00" * 12, b""))


def test_secret_length_validation():
    secret = _secret(0)
    sealed = seal(b"payload", secret)
    for wrong in (secret[:43], secret + b"\x00"):
        with pytest.raises(ValueError):
            seal(b"payload", wrong)
        with pytest.raises(DecryptionError):
            unseal(sealed, wrong)


def test_generate_secret_distinct_and_reproducible():
    assert len(generate_secret()) == 44
    assert generate_secret() != generate_secret()
    assert _secret(4) == _secret(4)
    assert _secret(4) != _secret(5)


def test_roundtrip_simple():
    b = _secret(0)
    assert unseal(seal(b"repository bytes", b), b) == b"repository bytes"


def test_empty_plaintext():
    b = _secret(1)
    sealed = seal(b"", b)
    assert sealed[:-16] == b""
    assert len(sealed) == 16
    assert unseal(sealed, b) == b""


def test_ciphertext_length_equals_plaintext_length():
    b = _secret(2)
    for n in (1, 15, 16, 17, 1000):
        assert len(seal(b"\x00" * n, b)[:-16]) == n


def test_golden_vectors_from_independent_implementation():
    # vectors were generated by tests/aes_gcm_oracle.py, not by this package
    lines = VECTORS.read_text().splitlines()
    assert len(lines) >= 10
    for line in lines:
        key_h, iv_h, pt_h, ct_h, tag_h = line.split(" ")
        secret = bytes.fromhex(key_h) + bytes.fromhex(iv_h)
        sealed = seal(bytes.fromhex(pt_h), secret)
        assert sealed[:-16] == bytes.fromhex(ct_h)
        assert sealed[-16:] == bytes.fromhex(tag_h)
        assert unseal(sealed, secret) == bytes.fromhex(pt_h)


def test_dual_route_agreement_fresh_inputs():
    # same operation computed via the package and via the standalone oracle
    rng = random.Random(1234)
    for length in (1, 16, 100, 333):
        key, iv = rng.randbytes(32), rng.randbytes(12)
        plaintext = rng.randbytes(length)
        sealed = seal(plaintext, key + iv)
        ct, tag = aes_gcm_oracle.gcm_encrypt(key, iv, plaintext)
        assert (sealed[:-16], sealed[-16:]) == (ct, tag)
        assert aes_gcm_oracle.gcm_decrypt(key, iv, sealed[:-16], sealed[-16:]) == plaintext


def test_known_answer_zero_key_zero_iv():
    secret = b"\x00" * 32 + b"\x00" * 12
    assert seal(b"", secret)[-16:].hex() == "530f8afbc74536b9a963b4f1c4cb738b"
    sealed = seal(b"\x00" * 16, secret)
    assert sealed[:-16].hex() == "cea7403d4d606b6e074ec5d3baf39d18"
    assert sealed[-16:].hex() == "d0d1c8a799996bf0265b98b5d48ab919"


def test_tamper_detection_ciphertext_and_tag():
    b = _secret(3)
    sealed = seal(b"sensitive", b)
    flipped_ct = bytes([sealed[0] ^ 0x01]) + sealed[1:]
    with pytest.raises(DecryptionError):
        unseal(flipped_ct, b)
    flipped_tag = sealed[:-1] + bytes([sealed[-1] ^ 0x80])
    with pytest.raises(DecryptionError):
        unseal(flipped_tag, b)


def test_wrong_key_and_wrong_iv_fail():
    b = _secret(6)
    sealed = seal(b"payload", b)
    wrong_key = bytes(32) + b[32:]
    wrong_iv = b[:32] + bytes(12)
    with pytest.raises(DecryptionError):
        unseal(sealed, wrong_key)
    with pytest.raises(DecryptionError):
        unseal(sealed, wrong_iv)


def test_roundtrip_at_benchmark_size():
    b = _secret(7)
    plaintext = random.Random(8).randbytes(32 * 1024 * 1024)
    assert unseal(seal(plaintext, b), b) == plaintext


def test_unseal_shorter_than_tag_fails():
    with pytest.raises(DecryptionError):
        unseal(b"\x00" * 15, _secret(9))


@given(plaintext=st.binary(max_size=2048), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_property_roundtrip(plaintext, seed):
    b = _secret(seed)
    assert unseal(seal(plaintext, b), b) == plaintext


@given(
    plaintext=st.binary(min_size=1, max_size=256),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_single_bit_flip_rejected(plaintext, seed, data):
    b = _secret(seed)
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
    secret = generate_secret(rng)
    sealed = seal(b"full pipeline", secret)
    shares = split(secret, ThresholdParams(2, 3), rng)
    for pair in combinations(shares, 2):
        rebuilt = combine(list(pair), threshold=2)
        assert unseal(sealed, rebuilt) == b"full pipeline"
