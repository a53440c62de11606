"""Independent AES-256-GCM implementation used only as a test oracle.

Written from the public cipher and mode definitions, with no shared code or
dependencies with the package under test (tables are generated, not copied).
Slow by design; use it for short vectors only.
"""

from __future__ import annotations


def _xtime_mul(a: int, b: int) -> int:
    # shift-and-add multiply in GF(2^8) reduced by 0x11B
    acc = 0
    for _ in range(8):
        if b & 1:
            acc ^= a
        b >>= 1
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
    return acc


def _build_sbox() -> bytes:
    # multiplicative inverse followed by the affine transform
    inv = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _xtime_mul(x, y) == 1:
                inv[x] = y
                break
    out = bytearray(256)
    for x in range(256):
        b = inv[x]
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        out[x] = s ^ 0x63
    return bytes(out)


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40]


def _key_schedule_256(key: bytes) -> list[bytes]:
    assert len(key) == 32
    words = [key[i : i + 4] for i in range(0, 32, 4)]
    for i in range(8, 60):
        temp = words[i - 1]
        if i % 8 == 0:
            temp = temp[1:] + temp[:1]
            temp = bytes(_SBOX[b] for b in temp)
            temp = bytes([temp[0] ^ _RCON[i // 8 - 1]]) + temp[1:]
        elif i % 8 == 4:
            temp = bytes(_SBOX[b] for b in temp)
        words.append(bytes(a ^ b for a, b in zip(words[i - 8], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(15)]


def _sub_bytes(state: bytearray) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _shift_rows(state: bytearray) -> bytearray:
    out = bytearray(16)
    for col in range(4):
        for row in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _mix_columns(state: bytearray) -> bytearray:
    out = bytearray(16)
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        out[4 * col + 0] = _xtime_mul(a[0], 2) ^ _xtime_mul(a[1], 3) ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ _xtime_mul(a[1], 2) ^ _xtime_mul(a[2], 3) ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ _xtime_mul(a[2], 2) ^ _xtime_mul(a[3], 3)
        out[4 * col + 3] = _xtime_mul(a[0], 3) ^ a[1] ^ a[2] ^ _xtime_mul(a[3], 2)
    return out


def aes256_encrypt_block(key: bytes, block: bytes) -> bytes:
    round_keys = _key_schedule_256(key)
    state = bytearray(a ^ b for a, b in zip(block, round_keys[0]))
    for rnd in range(1, 14):
        _sub_bytes(state)
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = bytearray(a ^ b for a, b in zip(state, round_keys[rnd]))
    _sub_bytes(state)
    state = _shift_rows(state)
    return bytes(a ^ b for a, b in zip(state, round_keys[14]))


# -- GCM ------------------------------------------------------------------


def _gf128_mul(x: int, y: int) -> int:
    # bit-reflected polynomial basis per the mode definition (R = 0xE1...)
    reduction = 0xE1000000000000000000000000000000
    z, v = 0, x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = (v >> 1) ^ reduction if v & 1 else v >> 1
    return z


def _ghash(h: bytes, data: bytes) -> bytes:
    hval = int.from_bytes(h, "big")
    y = 0
    for i in range(0, len(data), 16):
        block = data[i : i + 16].ljust(16, b"\x00")
        y = _gf128_mul(y ^ int.from_bytes(block, "big"), hval)
    return y.to_bytes(16, "big")


def _inc32(block: bytes) -> bytes:
    ctr = (int.from_bytes(block[12:], "big") + 1) & 0xFFFFFFFF
    return block[:12] + ctr.to_bytes(4, "big")


def _ctr_stream(key: bytes, j0: bytes, length: int) -> bytes:
    out = bytearray()
    counter = j0
    while len(out) < length:
        counter = _inc32(counter)
        out.extend(aes256_encrypt_block(key, counter))
    return bytes(out[:length])


def ciphertext_block(key: bytes, iv: bytes, plaintext_block: bytes, index: int) -> bytes:
    """Block `index` (from 0) of the ciphertext, given that block of the plaintext. IV must be 12 bytes.

    In counter mode each block depends only on its own counter, so a seal
    too long for this oracle can still be checked a few blocks at a time.
    """
    assert len(key) == 32 and len(iv) == 12
    counter = iv + ((index + 2) & 0xFFFFFFFF).to_bytes(4, "big")  # block 0 takes the counter after J0's 1
    return bytes(p ^ k for p, k in zip(plaintext_block, aes256_encrypt_block(key, counter)))


def _lengths_block(aad_len: int, ct_len: int) -> bytes:
    return (aad_len * 8).to_bytes(8, "big") + (ct_len * 8).to_bytes(8, "big")


def gcm_encrypt(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
    """Return (ciphertext, 16-byte tag). IV must be 12 bytes."""
    assert len(key) == 32 and len(iv) == 12
    h = aes256_encrypt_block(key, b"\x00" * 16)
    j0 = iv + b"\x00\x00\x00\x01"
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, _ctr_stream(key, j0, len(plaintext))))

    def pad16(b: bytes) -> bytes:
        return b + b"\x00" * ((16 - len(b) % 16) % 16)

    s = _ghash(h, pad16(aad) + pad16(ciphertext) + _lengths_block(len(aad), len(ciphertext)))
    tag = bytes(a ^ b for a, b in zip(s, aes256_encrypt_block(key, j0)))
    return ciphertext, tag


def gcm_decrypt(key: bytes, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
    """Return plaintext or raise ValueError on tag mismatch."""
    expected_ct, expected_tag = gcm_encrypt(key, iv, b"\x00" * len(ciphertext), aad)
    del expected_ct
    h = aes256_encrypt_block(key, b"\x00" * 16)
    j0 = iv + b"\x00\x00\x00\x01"

    def pad16(b: bytes) -> bytes:
        return b + b"\x00" * ((16 - len(b) % 16) % 16)

    s = _ghash(h, pad16(aad) + pad16(ciphertext) + _lengths_block(len(aad), len(ciphertext)))
    check = bytes(a ^ b for a, b in zip(s, aes256_encrypt_block(key, j0)))
    if check != tag:
        raise ValueError("authentication tag mismatch")
    return bytes(c ^ k for c, k in zip(ciphertext, _ctr_stream(key, j0, len(ciphertext))))
