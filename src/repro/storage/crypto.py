"""Block encryption stand-in (the SEC module of Figures 12/13).

EBS optionally encrypts block payloads in the SA datapath.  The real
deployment uses hardware crypto engines; this reproduction needs a
*reversible, keyed, deterministic, tweakable* byte transform so that the
datapath (encrypt on WRITE, decrypt on READ, corruption detection through
it) can be exercised end to end.  We use a BLAKE2b keystream XOR keyed by
(key, vd_id, lba) — an XTS-like construction in shape.

**This is not a secure cipher**; it is a simulation artifact.  The point
is that encryption is a real per-byte pass over the payload with a
per-block tweak, so integrity and cost accounting behave like the real
thing.
"""

from __future__ import annotations

import hashlib


class BlockCipher:
    """Deterministic keyed keystream cipher with per-(vd, lba) tweak."""

    DIGEST = 64  # BLAKE2b max digest size per keystream chunk

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("empty cipher key")
        self.key = hashlib.blake2b(key, digest_size=32).digest()

    def _keystream(self, vd_id: str, lba: int, length: int) -> bytes:
        out = bytearray()
        counter = 0
        tweak = f"{vd_id}|{lba}".encode()
        while len(out) < length:
            chunk = hashlib.blake2b(
                tweak + counter.to_bytes(8, "little"),
                key=self.key,
                digest_size=self.DIGEST,
            ).digest()
            out.extend(chunk)
            counter += 1
        return bytes(out[:length])

    def encrypt(self, vd_id: str, lba: int, plaintext: bytes) -> bytes:
        n = len(plaintext)
        stream = self._keystream(vd_id, lba, n)
        return (
            int.from_bytes(plaintext, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(n, "little")

    def decrypt(self, vd_id: str, lba: int, ciphertext: bytes) -> bytes:
        # XOR keystream is an involution.
        return self.encrypt(vd_id, lba, ciphertext)
