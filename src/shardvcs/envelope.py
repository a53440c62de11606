"""Authenticated encryption of repository snapshots (AES-256-GCM).

A snapshot is sealed under one fresh 44-byte secret: a 32-byte key followed by
a 12-byte IV. That secret is what the threshold-sharing layer splits; only
this module knows its key||IV layout. GCM's 16-byte tag is the integrity
backstop for the whole pipeline: plain secret sharing cannot detect a forged
share, but a wrong reconstructed secret fails authentication here.
"""

from __future__ import annotations

import random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_LEN = 32
IV_LEN = 12
SECRET_LEN = KEY_LEN + IV_LEN

_SYSTEM_RNG = random.SystemRandom()


class DecryptionError(Exception):
    """Authentication failed: wrong secret or tampered ciphertext."""


def generate_secret(rng: random.Random | None = None) -> bytes:
    """Fresh key||IV secret. One secret per snapshot; never reuse an IV."""
    if rng is None:
        rng = _SYSTEM_RNG
    return rng.randbytes(SECRET_LEN)


def _key_iv(secret: bytes, error: type[Exception]) -> tuple[bytes, bytes]:
    # A wrong length must not reach AESGCM: some would pass as a valid key
    # with a short nonce.
    if len(secret) != SECRET_LEN:
        raise error(f"secret must be {SECRET_LEN} bytes (key || iv), got {len(secret)}")
    return secret[:KEY_LEN], secret[KEY_LEN:]


def seal(plaintext: bytes, secret: bytes) -> bytes:
    """Sealed wire form: ciphertext followed by the 16-byte tag (RFC 5116 §5.1)."""
    key, iv = _key_iv(secret, ValueError)
    return AESGCM(key).encrypt(iv, plaintext, None)


def unseal(sealed: bytes, secret: bytes) -> bytes:
    key, iv = _key_iv(secret, DecryptionError)
    try:
        return AESGCM(key).decrypt(iv, sealed, None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed (wrong secret or tampered data)") from exc
