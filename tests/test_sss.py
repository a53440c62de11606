import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs.sss import (
    ReconstructionError,
    Share,
    ThresholdParams,
    combine,
    gf_inv,
    gf_mul,
    split,
)


def oracle_gf_mul(a: int, b: int) -> int:
    # carry-less schoolbook multiply, then long division by 0x11B
    prod = 0
    for i in range(8):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(14, 7, -1):
        if (prod >> bit) & 1:
            prod ^= 0x11B << (bit - 8)
    return prod


def test_gf_mul_zero_annihilates():
    assert gf_mul(0x57, 0x00) == 0x00
    assert gf_mul(0x00, 0x57) == 0x00


def test_gf_mul_identity():
    assert gf_mul(0x57, 0x01) == 0x57


def test_gf_mul_known_products():
    assert gf_mul(0x02, 0x80) == 0x1B
    assert gf_mul(0x57, 0x13) == 0xFE


def test_gf_mul_exhaustive_against_bitlevel_oracle():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == oracle_gf_mul(a, b)


def test_gf_inv_roundtrip():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@pytest.mark.parametrize("k,n", [(0, 1), (2, 1), (1, 0), (3, 256), (256, 256)])
def test_threshold_params_rejects_bad_bounds(k, n):
    with pytest.raises(ValueError, match=rf"^invalid threshold params: need 1 <= k <= n <= 255, got \({k}, {n}\)$"):
        ThresholdParams(k=k, n=n)


def test_share_validation():
    with pytest.raises(ValueError, match=r"^share index must be in 1\.\.255, got 0$"):
        Share(index=0, payload=b"\x01")
    with pytest.raises(ValueError, match=r"^share index must be in 1\.\.255, got 256$"):
        Share(index=256, payload=b"\x01")
    with pytest.raises(ValueError, match=r"^share payload must not be empty$"):
        Share(index=1, payload=b"")


def test_shares_and_params_are_immutable_values():
    share = Share(index=3, payload=b"\x00\xff")
    params = ThresholdParams(k=2, n=3)
    for value, field in ((share, "index"), (share, "payload"), (params, "k"), (params, "n")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert share == Share(3, b"\x00\xff") and share != Share(index=2, payload=b"\x00\xff")
    assert params == ThresholdParams(2, 3) and params != ThresholdParams(k=2, n=4)
    assert len({share, Share(index=3, payload=b"\x00\xff"), params, ThresholdParams(k=2, n=3)}) == 2
    assert repr(share) == "Share(index=3, payload=b'\\x00\\xff')"
    assert repr(params) == "ThresholdParams(k=2, n=3)"


def test_share_text_roundtrip():
    share = Share(index=3, payload=bytes([0x00, 0xFF, 0x1B]))
    assert share.to_text() == "0300ff1b"
    assert Share.from_text("0300ff1b") == share


def test_share_text_rejects_garbage():
    with pytest.raises(ValueError):
        Share.from_text("zz00")
    with pytest.raises(ValueError):
        Share.from_text("01")  # index byte but no payload
    with pytest.raises(ValueError):
        Share.from_text("00ff")  # index 0 never issued


def test_split_rejects_empty_secret():
    with pytest.raises(ValueError):
        split(b"", ThresholdParams(2, 3), random.Random(0))


def test_split_k1_n1_is_the_secret():
    shares = split(b"hello", ThresholdParams(1, 1), random.Random(0))
    assert len(shares) == 1
    assert shares[0].index == 1
    assert shares[0].payload == b"hello"


def test_split_2_of_3_every_pair_reconstructs():
    secret = bytes(range(40))
    shares = split(secret, ThresholdParams(2, 3), random.Random(7))
    assert [s.index for s in shares] == [1, 2, 3]
    for pair in combinations(shares, 2):
        assert combine(list(pair)) == secret


def test_split_3_of_5_every_triple_reconstructs():
    secret = b"\x00\x01\xfe\xff secret"
    shares = split(secret, ThresholdParams(3, 5), random.Random(11))
    for triple in combinations(shares, 3):
        assert combine(list(triple)) == secret


def test_split_deterministic_under_fixed_seed():
    secret = b"determinism"
    a = split(secret, ThresholdParams(3, 5), random.Random(99))
    b = split(secret, ThresholdParams(3, 5), random.Random(99))
    assert a == b
    c = split(secret, ThresholdParams(3, 5), random.Random(100))
    assert a != c


def test_combine_all_shares_superset():
    secret = b"superset"
    shares = split(secret, ThresholdParams(2, 5), random.Random(1))
    assert combine(shares) == secret


def test_combine_errors():
    shares = split(b"abc", ThresholdParams(2, 3), random.Random(0))
    with pytest.raises(ReconstructionError):
        combine([])
    with pytest.raises(ReconstructionError):
        combine(shares[:1], threshold=2)
    with pytest.raises(ValueError):
        combine([shares[0], shares[0]])
    with pytest.raises(ValueError):
        combine([shares[0], Share(index=2, payload=b"\x00\x01")])


@given(
    secret=st.binary(min_size=1, max_size=64),
    kn=st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda t: (min(t), max(t))),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_every_k_subset_reconstructs(secret, kn, seed):
    k, n = kn
    shares = split(secret, ThresholdParams(k, n), random.Random(seed))
    assert sorted(s.index for s in shares) == list(range(1, n + 1))
    assert all(len(s.payload) == len(secret) for s in shares)
    for subset in combinations(shares, k):
        assert combine(list(subset), threshold=k) == secret
    if k > 1:
        with pytest.raises(ReconstructionError):
            combine(list(shares[: k - 1]), threshold=k)


@given(secret=st.binary(min_size=1, max_size=32), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_text_codec_roundtrip(secret, seed):
    for share in split(secret, ThresholdParams(2, 3), random.Random(seed)):
        assert Share.from_text(share.to_text()) == share


def test_single_share_of_k2_split_alone_fails():
    # one cached share must be useless on its own
    shares = split(b"\x2a" * 44, ThresholdParams(2, 3), random.Random(5))
    with pytest.raises(ReconstructionError):
        combine([shares[1]], threshold=2)


GOLDEN_SECRET = bytes([0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF]) + b"key"

# Shares of GOLDEN_SECRET under random.Random(seed), frozen from the per-byte evaluator
# that table-driven split replaced; seeded pushes must keep producing exactly these.
GOLDEN_SHARES = {
    (2, 3, 0): ["01c5d66b040630f091ce", "0291b45793157a46960c", "0354634317edb5dd62bb"],
    (2, 3, 1): ["014421fdbc03199aa712", "02884160f81f2892faaf", "03cc61e2c4e2ce6338c4"],
    (2, 3, 2): ["011c2f5438a862eb096b", "02385d29eb52de70bd5d", "03247302530443f0d14f"],
    (3, 5, 0): ["01129148ef26281caed5", "02e00f85502c07254996", "03f29fb23ff4d052823a",
                "04e6c9f603be3b418f3a", "05f459c16c66ec364496"],
    (3, 5, 1): ["0164bf64b3a508718084", "0208ee2b5ce82ea7dabd", "036c50306fb3d9bd3f40",
                "043dd244fd64d625a37e", "05596c5fce3f213f4683"],
    (3, 5, 2): ["013292b46cbdea36fecd", "02808191308555ad24bb", "03b2125adcc640f0bf0f",
                "04a6d82f2cd186174c14", "05944be4c092934ad7a0"],
    (1, 1, 0): ["0100017f80feff6b6579"],
    (1, 1, 1): ["0100017f80feff6b6579"],
    (1, 1, 2): ["0100017f80feff6b6579"],
}


@pytest.mark.parametrize("k,n,seed", sorted(GOLDEN_SHARES))
def test_split_matches_golden_shares(k, n, seed):
    shares = split(GOLDEN_SECRET, ThresholdParams(k, n), random.Random(seed))
    assert [s.to_text() for s in shares] == GOLDEN_SHARES[(k, n, seed)]


def oracle_split(secret: bytes, k: int, n: int, rng: random.Random) -> list[bytes]:
    # k-1 draws per secret byte in byte order, each polynomial evaluated term by term
    payloads = [bytearray() for _ in range(n)]
    for byte in secret:
        coeffs = [byte] + [rng.randrange(256) for _ in range(k - 1)]
        for x in range(1, n + 1):
            y, power = 0, 1
            for c in coeffs:
                y ^= oracle_gf_mul(c, power)
                power = oracle_gf_mul(power, x)
            payloads[x - 1].append(y)
    return [bytes(p) for p in payloads]


@given(
    secret=st.binary(min_size=1, max_size=48),
    kn=st.tuples(st.integers(1, 6), st.integers(1, 8)).map(lambda t: (min(t), max(t))),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_split_matches_independent_oracle_and_draw_order(secret, kn, seed):
    k, n = kn
    rng, twin = random.Random(seed), random.Random(seed)
    shares = split(secret, ThresholdParams(k, n), rng)
    assert [s.payload for s in shares] == oracle_split(secret, k, n, twin)
    assert rng.getstate() == twin.getstate()  # same number of draws, so the shared rng stays in step

