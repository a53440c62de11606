"""Threshold secret sharing over GF(256), applied byte-wise to secrets of any length.

Uses the Rijndael reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B), so each
share carries one y-coordinate byte per secret byte and shares stay exactly as
long as the secret. Shares are 1-indexed; x = 0 would evaluate the polynomial
to the secret itself and is never issued.

    shares = split(secret, ThresholdParams(k=2, n=3), rng)
    assert combine(shares[:2]) == secret

Table-driven: `bytes.translate` with a multiply-by-c table scales a whole string
at once, and XOR of the strings as integers adds them. The draws are k-1
bytes per secret byte in byte order, so a seed fixes the shares. Each byte is
drawn as CPython's `rng.randrange(256)` draws it, 9 bits redrawn while >= 256,
but without its call frames; the values and the rng state after a split are
those of `randrange(256)`.

`combine` interpolates with exactly the shares it is given. It cannot detect a
forged payload at a valid index; integrity is the job of the authenticated
encryption layer above.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import islice, repeat
from typing import Sequence

_SYSTEM_RNG = random.SystemRandom()


def _exp_log_tables() -> tuple[bytes, list[int]]:
    # Powers of the generator 3, stored twice over so a sum of two logs needs no mod 255.
    exp, log, x = bytearray(510), [0] * 256, 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)  # x * 3 = x + 2x, reduced by 0x11B
    return bytes(exp), log


_EXP, _LOG = _exp_log_tables()
_LOGS = bytes(_LOG[1:])
# _MUL[c][b] == gf_mul(c, b): row c sends b = 3^i to 3^(log c + i).
_MUL = [bytes(256)] + [b"\0" + _LOGS.translate(_EXP[_LOG[c] : _LOG[c] + 256]) for c in range(1, 256)]


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements in GF(256) reduced by 0x11B."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


class ReconstructionError(ValueError):
    """Too few shares to interpolate the secret uniquely."""


# The value types are validated named tuples, not dataclasses: `dataclasses`
# loads `inspect`, which slows the middleman service's start-up.
class ThresholdParams(namedtuple("ThresholdParams", "k n")):
    """(k, n): any k of the n issued shares reconstruct the secret."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> "ThresholdParams":
        if not (1 <= k <= n <= 255):
            raise ValueError(f"invalid threshold params: need 1 <= k <= n <= 255, got ({k}, {n})")
        return tuple.__new__(cls, (k, n))


DEFAULT_PARAMS = ThresholdParams(k=2, n=3)


class Share(namedtuple("Share", "index payload")):
    """One point set of the per-byte polynomials: x-coordinate plus y-bytes."""

    __slots__ = ()

    def __new__(cls, index: int, payload: bytes) -> "Share":
        if not (1 <= index <= 255):
            raise ValueError(f"share index must be in 1..255, got {index}")
        if len(payload) == 0:
            raise ValueError("share payload must not be empty")
        return tuple.__new__(cls, (index, payload))

    def to_text(self) -> str:
        """Hex encoding: one index byte followed by the payload, no separators."""
        return bytes([self.index]).hex() + self.payload.hex()

    @classmethod
    def from_text(cls, text: str) -> "Share":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ValueError(f"share text is not valid hex: {text!r}") from exc
        if len(raw) < 2:
            raise ValueError("share text too short: need index byte plus payload")
        return cls(index=raw[0], payload=raw[1:])


def split(secret: bytes, params: ThresholdParams, rng: random.Random | None = None) -> list[Share]:
    """Split `secret` into n shares, any k of which reconstruct it.

    For each secret byte a fresh degree-(k-1) polynomial is drawn with that
    byte as constant term and k-1 coefficients from `rng`, then evaluated at
    x = 1..n. A seeded `rng` makes the output deterministic.
    """
    if len(secret) == 0:
        raise ValueError("cannot split an empty secret")
    if rng is None:
        rng = _SYSTEM_RNG

    degree = params.k - 1
    draws = bytes(islice(filter((256).__gt__, map(rng.getrandbits, repeat(9))), degree * len(secret)))
    # strings[d] holds every byte's degree-d coefficient; the draws are byte-major.
    strings = [secret] + [draws[d::degree] for d in range(degree)]
    lower = [int.from_bytes(s, "big") for s in reversed(strings[:-1])]
    shares = []
    for x in range(1, params.n + 1):
        acc, row = strings[-1], _MUL[x]
        for c in lower:  # Horner's rule on all bytes at once
            acc = (int.from_bytes(acc.translate(row), "big") ^ c).to_bytes(len(secret), "big")
        shares.append(Share(index=x, payload=acc))
    return shares


def combine(shares: Sequence[Share], threshold: int | None = None) -> bytes:
    """Reconstruct the secret by Lagrange interpolation at x = 0, byte-wise.

    Interpolation is exact when at least k shares of a (k, n) split are given;
    passing `threshold` lets callers enforce that precondition (fewer shares
    raise ReconstructionError instead of yielding a silently wrong secret).
    """
    if len(shares) == 0:
        raise ReconstructionError("no shares given")
    if threshold is not None and len(shares) < threshold:
        raise ReconstructionError(
            f"{len(shares)} share(s) cannot reconstruct a threshold-{threshold} secret"
        )
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate share indices: {sorted(indices)}")
    length = len(shares[0].payload)
    if any(len(s.payload) != length for s in shares):
        raise ValueError("shares have mismatched payload lengths")

    # Lagrange basis at x = 0: l_i = prod_{j != i} x_j / (x_i + x_j), in GF(256).
    acc = 0
    for share in shares:
        num, den = 1, 1
        for xj in indices:
            if xj != share.index:
                num, den = gf_mul(num, xj), gf_mul(den, share.index ^ xj)
        acc ^= int.from_bytes(share.payload.translate(_MUL[gf_mul(num, gf_inv(den))]), "big")
    return acc.to_bytes(length, "big")
