import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shardvcs.cas import PIECE
from shardvcs.envelope import DecryptionError, SealedPieces, generate_secret, seal, unseal

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
        with pytest.raises(ValueError):
            SealedPieces(b"payload", wrong)
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


@pytest.mark.parametrize("n", [1, PIECE - 16, PIECE - 15, PIECE - 1, PIECE, PIECE + 1, 3 * PIECE + 5])
def test_sealed_pieces_join_to_the_one_shot_seal(n):
    rng = random.Random(n)
    key, iv, plaintext = rng.randbytes(32), rng.randbytes(12), rng.randbytes(n)
    pieces = SealedPieces(plaintext, key + iv)
    # A ciphertext piece is a view of a buffer the next piece overwrites: copy before collecting.
    copies = [bytes(piece) for piece in pieces]
    assert b"".join(copies) == AESGCM(key).encrypt(iv, plaintext, None)
    assert len(pieces) == n + 16
    if n + 16 <= PIECE:  # sealed in one call, yielded whole
        assert [len(c) for c in copies] == [n + 16]
    else:  # at most one piece beyond the plaintext is held at a time, then the tag
        assert max(len(c) for c in copies[:-1]) <= PIECE
        assert len(copies[-1]) == 16
    assert [bytes(piece) for piece in pieces] == copies  # each iteration seals afresh


def _matches_the_oracle(piece, offset: int, key: bytes, iv: bytes, plaintext: bytes) -> bool:
    """Whether the first and last whole blocks of a ciphertext piece at `offset` are the oracle's."""
    first, last = offset // 16, (offset + len(piece)) // 16 - 1
    return all(
        bytes(piece[16 * i - offset : 16 * i - offset + 16])
        == aes_gcm_oracle.ciphertext_block(key, iv, plaintext[16 * i : 16 * i + 16], i)
        for i in (first, last)
    )


def test_a_sealed_piece_stays_intact_while_the_next_one_is_drawn():
    rng = random.Random(21)
    key, iv, plaintext = rng.randbytes(32), rng.randbytes(12), rng.randbytes(3 * PIECE)
    one_shot = AESGCM(key).encrypt(iv, plaintext, None)
    pieces = iter(SealedPieces(plaintext, key + iv))
    held, offset, copies = next(pieces), 0, []
    for drawn in pieces:  # piece i is checked after piece i+1 has been sealed
        copy = bytes(held)
        assert copy == one_shot[offset : offset + len(copy)]
        assert _matches_the_oracle(held, offset, key, iv, plaintext)
        copies.append(copy)
        offset += len(copy)
        held = drawn
    copies.append(bytes(held))
    assert len(copies) == 4 and b"".join(copies) == one_shot


class ReusedBufferPieces:
    """`sealed` as a sized iterable of `cut`-byte pieces, each written over the last one's buffer."""

    def __init__(self, sealed: bytes, cut: int, size: int | None = None, fail_at_end: bool = False):
        self.sealed, self.cut, self.fail_at_end = sealed, cut, fail_at_end
        self.size = len(sealed) if size is None else size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        buf = bytearray(self.cut)
        for start in range(0, len(self.sealed), self.cut):
            piece = self.sealed[start : start + self.cut]
            buf[: len(piece)] = piece
            yield memoryview(buf)[: len(piece)]
        if self.fail_at_end:
            raise OSError("source failed at its end")


@pytest.mark.parametrize("n", [0, 5, PIECE + 1, 3 * PIECE + 5])
@pytest.mark.parametrize("cut", [1000, 4096, PIECE])
def test_unseal_decrypts_pieces_as_they_arrive(n, cut):
    b = _secret(n)
    plaintext = random.Random(n).randbytes(n)
    sealed = seal(plaintext, b)
    assert unseal(ReusedBufferPieces(sealed, cut), b) == plaintext
    assert unseal(ReusedBufferPieces(sealed, len(sealed)), b) == plaintext  # one piece: opened in one call


@pytest.mark.parametrize("where", [0, 700, -17, -16, -1])  # ciphertext, first and last tag byte
def test_unseal_of_pieces_rejects_a_flipped_byte(where):
    b = _secret(11)
    raw = bytearray(seal(random.Random(11).randbytes(3000), b))
    raw[where] ^= 0x08
    for cut in (1000, len(raw)):
        with pytest.raises(DecryptionError):
            unseal(ReusedBufferPieces(bytes(raw), cut), b)


@pytest.mark.parametrize("cut", [1000, 3016])
def test_unseal_of_pieces_rejects_a_length_that_is_not_the_pieces_length(cut):
    b = _secret(12)
    sealed = seal(random.Random(12).randbytes(3000), b)
    for size in (len(sealed) - 1, len(sealed) + 1, 15):
        with pytest.raises(DecryptionError):
            unseal(ReusedBufferPieces(sealed, cut, size=size), b)


@pytest.mark.parametrize("cut", [1000, 3016])
def test_unseal_of_pieces_returns_nothing_until_the_pieces_end(cut):
    b = _secret(13)
    sealed = seal(random.Random(13).randbytes(3000), b)
    with pytest.raises(OSError, match="at its end"):
        unseal(ReusedBufferPieces(sealed, cut, fail_at_end=True), b)


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
