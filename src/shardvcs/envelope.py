"""Authenticated encryption of repository snapshots (AES-256-GCM).

A snapshot is sealed under one fresh 44-byte secret: a 32-byte key followed by
a 12-byte IV. That secret is what the threshold-sharing layer splits; only
this module knows its key||IV layout. GCM's 16-byte tag is the integrity
backstop for the whole pipeline: plain secret sharing cannot detect a forged
share, but a wrong reconstructed secret fails authentication here. So does the
secret a stranger rebuilds from the public on-chain share and the middleman's
copy, which `protocol` masks with a pad only the owner's share makes.

A push seals through `SealedPieces`, which produces the sealed form a piece of
`cas.PIECE` bytes at a time while its consumer hashes and writes it, so no
second full-size copy of a snapshot is ever built. `seal` gives the same bytes
in one call. A pull opens the sealed form the same way: `unseal` takes the
pieces a fetch hands out and decrypts each one as it arrives.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .cas import PIECE

KEY_LEN = 32
IV_LEN = 12
SECRET_LEN = KEY_LEN + IV_LEN
TAG_LEN = 16

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


class SealedPieces:
    """The sealed form of `plaintext`, made piece by piece as it is iterated.

    `len()` is the sealed length. Iterating yields the ciphertext in pieces of
    at most `cas.PIECE` bytes from one incremental AES-GCM context, then the
    16-byte tag; joined, the pieces equal `seal(plaintext, secret)`. The
    ciphertext pieces are views of two buffers taken in turn, which keeps the
    buffer rule stated in `cas`. A sealed form of at most PIECE bytes is
    sealed in one call and yielded whole, because the incremental context
    costs more to set up than one piece saves; it is one piece to the store
    as well.
    """

    def __init__(self, plaintext: bytes, secret: bytes):
        self._key, self._iv = _key_iv(secret, ValueError)
        self._plaintext = plaintext

    def __len__(self) -> int:
        return len(self._plaintext) + TAG_LEN

    def __iter__(self) -> Iterator[bytes | memoryview]:
        if len(self) <= PIECE:
            yield AESGCM(self._key).encrypt(self._iv, self._plaintext, None)
            return
        encryptor = Cipher(algorithms.AES(self._key), modes.GCM(self._iv)).encryptor()
        # update_into asks for a block less one beyond the input
        bufs = itertools.cycle([memoryview(bytearray(PIECE + 15)), memoryview(bytearray(PIECE + 15))])
        plaintext = memoryview(self._plaintext)
        for start, buf in zip(range(0, len(plaintext), PIECE), bufs):
            yield buf[: encryptor.update_into(plaintext[start : start + PIECE], buf)]
        encryptor.finalize()
        yield encryptor.tag


def unseal(sealed: bytes | Iterable, secret: bytes) -> bytes | bytearray:
    """Open a sealed blob: bytes, or a sized iterable of pieces such as `cas.FetchedPieces`.

    `len(sealed)` must be the sealed length. Pieces are decrypted by one
    incremental AES-GCM context into one output buffer as they are drawn, so
    a piece may reuse its predecessor's buffer; the trailing 16 bytes are held
    back as the tag. The plaintext is returned only after the pieces have run
    out, at exactly `len(sealed)` bytes, and the tag has verified. A blob that
    arrives as one piece is opened in one call and gives `bytes`; several
    pieces give a `bytearray`, which spares a full-size copy.
    """
    key, iv = _key_iv(secret, DecryptionError)
    size = len(sealed)
    pieces = iter((sealed,) if isinstance(sealed, (bytes, bytearray, memoryview)) else sealed)
    try:
        return _unseal_pieces(pieces, size, key, iv)
    except InvalidTag as exc:
        raise DecryptionError("authentication failed (wrong secret or tampered data)") from exc


def _unseal_pieces(pieces: Iterator, size: int, key: bytes, iv: bytes) -> bytes | bytearray:
    piece = next(pieces, b"")
    if len(piece) == size:  # the whole blob in one piece
        if any(pieces):
            raise DecryptionError(f"sealed pieces run past their length of {size} bytes")
        return AESGCM(key).decrypt(iv, piece, None)
    text_len = size - TAG_LEN
    if text_len < 0:
        raise DecryptionError(f"sealed length {size} is shorter than the tag")
    decryptor = Cipher(algorithms.AES(key), modes.GCM(iv)).decryptor()
    out = bytearray(text_len + 15)  # update_into asks for a block less one beyond the input
    view = memoryview(out)
    done = 0
    tag = bytearray()
    for piece in itertools.chain((piece,), pieces):
        piece = memoryview(piece)
        n = min(len(piece), text_len - done)
        if n:
            decryptor.update_into(piece[:n], view[done:])
            done += n
        tag += piece[n:]
    view.release()
    if done != text_len or len(tag) != TAG_LEN:
        raise DecryptionError(f"sealed pieces do not add up to their length of {size} bytes")
    decryptor.finalize_with_tag(bytes(tag))
    del out[text_len:]
    return out
