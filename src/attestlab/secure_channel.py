"""Symmetric crypto, nonce, key, and clock plumbing for the attestation protocol.

AES-128-CBC with PKCS#7 padding and a fresh random IV per message,
HMAC-SHA256 message tags, a seedable randomness source so simulations are
reproducible, and a simulated millisecond clock.

AES runs in `cryptography`, with one CBC encryptor and one ECB decryptor
per key, built once and memoized (at most 64 keys; an evicted key's
contexts and chain state go together). CBC (NIST SP 800-38A, 6.2) is
C_0 = IV, C_i = E_K(P_i xor C_{i-1}) and P_i = D_K(C_i) xor C_{i-1}.

The cached encryptor is never finalized, so it carries its CBC chain from
one message to the next: its next block is xored with L, the last
ciphertext block it produced, which is tracked beside it. enc() therefore
feeds P_1 xor IV xor L, then P_2 ... P_n, in one update: the context
computes E_K(P_1 xor IV) = C_1 and chains the rest as CBC does, and L
becomes C_n. The decryptor sees only whole blocks, since dec() checks the
length before its one update, so it carries no state. The bytes equal the
library's own CBC mode with a fresh context per message. The contexts and
L are shared by every caller in the process, so enc() and dec() are
single-threaded.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import secrets
import random

from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_LEN = 16
IV_LEN = 16
NONCE_LEN = 16
TAG_LEN = 32


class DecryptError(ValueError):
    """Ciphertext failed structural or padding checks during decryption."""


class RandomSource:
    """Byte source for IVs and nonces.

    With a seed the stream is a deterministic PRNG (simulation mode); with
    seed=None bytes come from the OS CSPRNG (live mode).
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed) if seed is not None else None

    def bytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if self._rng is None:
            return secrets.token_bytes(n)
        return self._rng.randbytes(n)

    def nonce(self) -> bytes:
        return self.bytes(NONCE_LEN)


class SimulatedClock:
    """Explicitly advanced millisecond clock for deterministic protocol runs."""

    def __init__(self, start_ms: int = 0):
        if start_ms < 0:
            raise ValueError("start_ms must be non-negative")
        self._now = int(start_ms)

    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: int) -> None:
        if delta_ms < 0:
            raise ValueError("clock cannot move backwards")
        self._now += int(delta_ms)


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_LEN:
        raise ValueError("key must be %d bytes" % KEY_LEN)


@functools.lru_cache(maxsize=64)
def _aes_blocks(key: bytes) -> list:
    """[CBC encryptor, its last ciphertext block L as an int, ECB
    decryptor] of AES-128 under key; whole blocks only, never finalized."""
    aes = algorithms.AES(key)
    return [Cipher(aes, modes.CBC(bytes(16))).encryptor(), 0,
            Cipher(aes, modes.ECB()).decryptor()]


def enc(plaintext: bytes, key: bytes, rng: RandomSource) -> bytes:
    """Encrypt with AES-128-CBC/PKCS#7. Returns IV || ciphertext."""
    _check_key(key)
    iv = rng.bytes(IV_LEN)
    plaintext = bytes(plaintext)
    pad = 16 - len(plaintext) % 16
    padded = plaintext + bytes((pad,)) * pad
    chain = _aes_blocks(bytes(key))
    # the context xors its first block with L: cancel L, apply the IV
    first = (int.from_bytes(padded[:16], "big") ^ int.from_bytes(iv, "big")
             ^ chain[1]).to_bytes(16, "big")
    body = chain[0].update(first + padded[16:])
    chain[1] = int.from_bytes(body[-16:], "big")
    return iv + body


def dec(blob: bytes, key: bytes) -> bytes:
    """Decrypt IV || ciphertext produced by enc(). Raises DecryptError."""
    _check_key(key)
    blob = bytes(blob)
    if len(blob) < IV_LEN + 16 or (len(blob) - IV_LEN) % 16 != 0:
        raise DecryptError("ciphertext has invalid length")
    body = blob[IV_LEN:]
    # every block at once: D_K(C_i) xor C_{i-1}, with C_0 = IV
    padded = (int.from_bytes(_aes_blocks(bytes(key))[2].update(body), "big")
              ^ int.from_bytes(blob[:-16], "big")).to_bytes(len(body), "big")
    unpadder = padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError as e:
        raise DecryptError("bad padding") from e


def hmac_tag(message: bytes, key: bytes) -> bytes:
    """HMAC-SHA256 tag (32 bytes)."""
    _check_key(key)
    return _hmac.new(bytes(key), bytes(message), hashlib.sha256).digest()


def hmac_verify(message: bytes, key: bytes, tag: bytes) -> bool:
    """Constant-time tag comparison."""
    if not isinstance(tag, (bytes, bytearray)) or len(tag) != TAG_LEN:
        return False
    return _hmac.compare_digest(hmac_tag(message, key), bytes(tag))


class KeyStore:
    """Pairwise pre-shared keys.

    Each unordered device pair holds two independent 128-bit keys: an outer
    key for handshake messages and an inner key for attestation reports
    produced inside the trusted environment.
    """

    def __init__(self):
        self._outer: dict[frozenset, bytes] = {}
        self._inner: dict[frozenset, bytes] = {}

    @staticmethod
    def _pair(a: bytes, b: bytes) -> frozenset:
        if a == b:
            raise ValueError("a key pair needs two distinct device ids")
        return frozenset((bytes(a), bytes(b)))

    def add_pair(self, a: bytes, b: bytes, outer: bytes, inner: bytes) -> None:
        if len(outer) != KEY_LEN or len(inner) != KEY_LEN:
            raise ValueError("keys must be %d bytes" % KEY_LEN)
        if outer == inner:
            raise ValueError("outer and inner key must differ")
        p = self._pair(a, b)
        self._outer[p] = bytes(outer)
        self._inner[p] = bytes(inner)

    def outer(self, a: bytes, b: bytes) -> bytes:
        return self._outer[self._pair(a, b)]

    def inner(self, a: bytes, b: bytes) -> bytes:
        return self._inner[self._pair(a, b)]

    def peers(self, a: bytes) -> list[bytes]:
        """Device ids that share keys with a, sorted."""
        a = bytes(a)
        out = []
        for pair in self._outer:
            if a in pair:
                out.extend(x for x in pair if x != a)
        return sorted(out)

    @classmethod
    def generate(cls, device_ids: list[bytes], rng: RandomSource) -> "KeyStore":
        """Provision distinct outer/inner keys for every device pair."""
        ks = cls()
        ids = sorted(bytes(d) for d in device_ids)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                outer = rng.bytes(KEY_LEN)
                inner = rng.bytes(KEY_LEN)
                while inner == outer:
                    inner = rng.bytes(KEY_LEN)
                ks.add_pair(a, b, outer, inner)
        return ks
