"""Authenticated encryption of repository snapshots (AES-256-GCM).

A snapshot is sealed under a fresh 32-byte key and 12-byte IV; the pair is the
single 44-byte secret handed to the threshold-sharing layer. GCM's 16-byte tag
is the integrity backstop for the whole pipeline: plain secret sharing cannot
detect a forged share, but a wrong reconstructed key fails authentication here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_LEN = 32
IV_LEN = 12
SECRET_LEN = KEY_LEN + IV_LEN

_SYSTEM_RNG = random.SystemRandom()


class DecryptionError(Exception):
    """Authentication failed: wrong key/IV or tampered ciphertext."""


@dataclass(frozen=True)
class SecretBundle:
    key: bytes
    iv: bytes

    def __post_init__(self) -> None:
        if len(self.key) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes, got {len(self.key)}")
        if len(self.iv) != IV_LEN:
            raise ValueError(f"iv must be {IV_LEN} bytes, got {len(self.iv)}")


def generate_bundle(rng: random.Random | None = None) -> SecretBundle:
    """Fresh key/IV pair. One bundle per snapshot; never reuse an IV."""
    if rng is None:
        rng = _SYSTEM_RNG
    return SecretBundle(key=rng.randbytes(KEY_LEN), iv=rng.randbytes(IV_LEN))


def seal(plaintext: bytes, bundle: SecretBundle) -> bytes:
    """Sealed wire form: ciphertext followed by the 16-byte tag (RFC 5116 §5.1)."""
    return AESGCM(bundle.key).encrypt(bundle.iv, plaintext, None)


def unseal(sealed: bytes, bundle: SecretBundle) -> bytes:
    try:
        return AESGCM(bundle.key).decrypt(bundle.iv, sealed, None)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed (wrong key/IV or tampered data)") from exc


def bundle_to_secret(bundle: SecretBundle) -> bytes:
    """Key bytes followed by IV bytes: the 44-byte sharing secret."""
    return bundle.key + bundle.iv


def secret_to_bundle(secret: bytes) -> SecretBundle:
    if len(secret) != SECRET_LEN:
        raise ValueError(f"secret must be {SECRET_LEN} bytes (key || iv), got {len(secret)}")
    return SecretBundle(key=secret[:KEY_LEN], iv=secret[KEY_LEN:])
