"""Crypto plumbing: AES-CBC framing, HMAC tags, randomness, clocks, keys."""

import hashlib
import random

import pytest
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from attestlab import secure_channel as sc

KEY_A = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KEY_B = b"0123456789abcdef"


def _hmac_sha256_by_construction(key: bytes, message: bytes) -> bytes:
    """Independent HMAC built from the padded two-pass hash definition."""
    block = key + b"\x00" * (64 - len(key))
    ipad = bytes(b ^ 0x36 for b in block)
    opad = bytes(b ^ 0x5c for b in block)
    inner = hashlib.sha256(ipad + message).digest()
    return hashlib.sha256(opad + inner).digest()


class _FixedIv:
    """Stub rng whose bytes() hands out a chosen IV."""

    def __init__(self, iv: bytes):
        self.iv = iv

    def bytes(self, n: int) -> bytes:
        assert n == len(self.iv)
        return self.iv


def _ref_enc(plaintext: bytes, key: bytes, iv: bytes) -> bytes:
    """Library CBC mode with a fresh cipher per message."""
    padder = padding.PKCS7(128).padder()
    padded = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + encryptor.update(padded) + encryptor.finalize()


def _ref_dec(blob: bytes, key: bytes):
    """Library CBC-mode plaintext of a well-formed blob, or None on a bad pad."""
    decryptor = Cipher(algorithms.AES(key), modes.CBC(blob[:16])).decryptor()
    padded = decryptor.update(blob[16:]) + decryptor.finalize()
    unpadder = padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# HMAC

def test_hmac_matches_two_pass_construction():
    for key in (KEY_A, KEY_B):
        for msg in (b"", b"attest", b"x" * 200):
            assert sc.hmac_tag(msg, key) \
                == _hmac_sha256_by_construction(key, msg)


def test_hmac_frozen_vectors():
    assert sc.hmac_tag(b"attest", KEY_A).hex() == (
        "56bfa0b3324967b10a4e386888ef80aa790237bf242bd50024f350471173e7ac")
    assert sc.hmac_tag(b"", KEY_B).hex() == (
        "496dc93fa2d26eae500ec0bc37a122706b88f8963cebf0899d0245fae313e241")


def test_hmac_verify_paths():
    tag = sc.hmac_tag(b"payload", KEY_A)
    assert len(tag) == sc.TAG_LEN
    assert sc.hmac_verify(b"payload", KEY_A, tag)
    assert not sc.hmac_verify(b"payload!", KEY_A, tag)
    assert not sc.hmac_verify(b"payload", KEY_B, tag)
    flipped = bytes([tag[0] ^ 0x01]) + tag[1:]
    assert not sc.hmac_verify(b"payload", KEY_A, flipped)
    assert not sc.hmac_verify(b"payload", KEY_A, tag[:-1])  # short tag
    assert not sc.hmac_verify(b"payload", KEY_A, "x" * 32)  # wrong type


def test_hmac_rejects_bad_key_length():
    with pytest.raises(ValueError):
        sc.hmac_tag(b"m", b"short")


# ---------------------------------------------------------------------------
# AES-CBC framing

def test_enc_dec_roundtrip_all_small_lengths():
    rng = sc.RandomSource(1)
    for n in range(0, 257, 16):
        for extra in (0, 1, 15):
            pt = bytes(range(256))[:n + extra] if n + extra <= 256 \
                else b"z" * (n + extra)
            blob = sc.enc(pt, KEY_A, rng)
            assert len(blob) % 16 == 0
            assert len(blob) >= len(pt) + sc.IV_LEN + 1  # padding present
            assert sc.dec(blob, KEY_A) == pt


def test_cbc_known_answer_sp800_38a():
    # NIST SP 800-38A F.2.1 (CBC-AES128.Encrypt) and F.2.2 (.Decrypt)
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plain = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710")
    blob = sc.enc(plain, key, _FixedIv(iv))
    assert blob[:16] == iv
    assert blob[16:80].hex() == (
        "7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516" "3ff1caa1681fac09120eca307586e1a7")
    assert len(blob) == 16 + 80  # a whole PKCS#7 block follows
    assert sc.dec(blob, key) == plain


def test_cbc_matches_library_mode_with_interleaved_keys():
    g = random.Random(20)
    keys = [g.randbytes(16) for _ in range(4)]
    for n in range(101):
        for k in (n % 4, (n * 3 + 1) % 4, (n + 2) % 4):
            key, iv, pt = keys[k], g.randbytes(16), g.randbytes(n)
            blob = sc.enc(pt, key, _FixedIv(iv))
            assert blob == _ref_enc(pt, key, iv)
            assert sc.dec(blob, key) == pt


def test_dec_matches_library_mode_on_bit_flips():
    g = random.Random(21)
    keys = [g.randbytes(16) for _ in range(3)]
    outcomes = set()
    for trial in range(600):
        key = keys[trial % 3]
        pt = g.randbytes(g.randrange(0, 100))
        buf = bytearray(_ref_enc(pt, key, g.randbytes(16)))
        bit = g.randrange(8 * len(buf))
        buf[bit // 8] ^= 1 << (bit % 8)
        want = _ref_dec(bytes(buf), key)
        outcomes.add(want is None)
        if want is None:
            with pytest.raises(sc.DecryptError, match="bad padding"):
                sc.dec(bytes(buf), key)
        else:
            assert sc.dec(bytes(buf), key) == want
    assert outcomes == {True, False}  # both garbled text and bad pads seen


def test_block_context_cache_stays_bounded():
    bound = sc._aes_blocks.cache_info().maxsize
    g = random.Random(22)
    first = g.randbytes(16)
    blob = sc.enc(b"evicted and rebuilt", first, sc.RandomSource(0))
    rng = sc.RandomSource(1)
    for _ in range(bound + 10):
        key = g.randbytes(16)
        assert sc.dec(sc.enc(b"x", key, rng), key) == b"x"
    assert sc._aes_blocks.cache_info().currsize == bound
    assert sc.dec(blob, first) == b"evicted and rebuilt"


def test_cbc_matches_library_mode_after_eviction():
    # the cached encryptor carries its CBC chain between messages; an
    # evicted key's chain must go with it, so that the rebuilt context
    # starts a fresh chain and every ciphertext still equals library CBC
    bound = sc._aes_blocks.cache_info().maxsize
    g = random.Random(23)
    keys = [g.randbytes(16) for _ in range(bound + 6)]
    for key in [keys[0], keys[0], *keys, keys[0], keys[0], keys[1]]:
        iv, pt = g.randbytes(16), g.randbytes(g.randrange(0, 70))
        blob = sc.enc(pt, key, _FixedIv(iv))
        assert blob == _ref_enc(pt, key, iv)
        assert sc.dec(blob, key) == pt


def test_enc_uses_fresh_ivs():
    rng = sc.RandomSource(2)
    a = sc.enc(b"same plaintext", KEY_A, rng)
    b = sc.enc(b"same plaintext", KEY_A, rng)
    assert a[:16] != b[:16]
    assert a != b
    assert sc.dec(a, KEY_A) == sc.dec(b, KEY_A)


def test_enc_is_deterministic_given_the_rng_stream():
    a = sc.enc(b"msg", KEY_A, sc.RandomSource(7))
    b = sc.enc(b"msg", KEY_A, sc.RandomSource(7))
    assert a == b


def test_dec_rejects_malformed_blobs():
    with pytest.raises(sc.DecryptError):
        sc.dec(b"", KEY_A)
    with pytest.raises(sc.DecryptError):
        sc.dec(b"\x00" * 31, KEY_A)  # shorter than IV + one block
    with pytest.raises(sc.DecryptError):
        sc.dec(b"\x00" * 40, KEY_A)  # body not block aligned


def test_dec_of_a_partial_block_leaves_the_key_usable():
    # the block decryptor is cached per key and shared by every message:
    # a 20-byte body must be refused before it reaches the decryptor, where
    # 4 bytes would stay buffered and shift every later message's blocks
    key = bytes(range(100, 116))
    with pytest.raises(sc.DecryptError):
        sc.dec(b"\x00" * (sc.IV_LEN + 20), key)
    blob = sc.enc(b"attestation report", key, sc.RandomSource(8))
    assert sc.dec(blob, key) == b"attestation report"


def test_dec_with_wrong_key_never_returns_plaintext():
    rng = sc.RandomSource(3)
    for i in range(200):
        pt = bytes([i % 256]) * (1 + i % 64)
        blob = sc.enc(pt, KEY_A, rng)
        try:
            out = sc.dec(blob, KEY_B)
        except sc.DecryptError:
            continue
        assert out != pt


def test_enc_rejects_bad_key():
    with pytest.raises(ValueError):
        sc.enc(b"m", b"tiny", sc.RandomSource(0))


# ---------------------------------------------------------------------------
# randomness

def test_random_source_seeded_determinism():
    a, b = sc.RandomSource(9), sc.RandomSource(9)
    assert a.bytes(32) == b.bytes(32)
    assert a.bytes(8) == b.bytes(8)
    assert sc.RandomSource(10).bytes(32) != sc.RandomSource(9).bytes(32)


def test_random_source_live_mode():
    a = sc.RandomSource(None)
    got = a.bytes(24)
    assert len(got) == 24
    assert a.bytes(24) != got  # vanishing collision odds


def test_random_source_rejects_negative_count():
    with pytest.raises(ValueError):
        sc.RandomSource(0).bytes(-1)


def test_nonces_are_sized_and_collision_free():
    rng = sc.RandomSource(4)
    seen = {rng.nonce() for _ in range(100_000)}
    assert len(seen) == 100_000
    assert all(len(n) == sc.NONCE_LEN for n in list(seen)[:10])


# ---------------------------------------------------------------------------
# clocks

def test_simulated_clock():
    clock = sc.SimulatedClock(start_ms=100)
    assert clock.now() == 100
    clock.advance(50)
    assert clock.now() == 150
    clock.advance(0)
    assert clock.now() == 150
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        sc.SimulatedClock(start_ms=-5)


# ---------------------------------------------------------------------------
# keystore

def test_keystore_contract():
    ks = sc.KeyStore()
    a, b = b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"
    ks.add_pair(a, b, KEY_A, KEY_B)
    assert ks.outer(a, b) == KEY_A
    assert ks.outer(b, a) == KEY_A  # unordered pair
    assert ks.inner(a, b) == KEY_B
    assert ks.peers(a) == [b]
    with pytest.raises(KeyError):
        ks.outer(a, b"\xee\x00\xee\x1f")


def test_keystore_validation():
    ks = sc.KeyStore()
    a, b = b"\x01\x02\x03\x04", b"\x05\x06\x07\x08"
    with pytest.raises(ValueError):
        ks.add_pair(a, a, KEY_A, KEY_B)
    with pytest.raises(ValueError):
        ks.add_pair(a, b, KEY_A[:8], KEY_B)
    with pytest.raises(ValueError):
        ks.add_pair(a, b, KEY_A, KEY_A)  # outer must differ from inner


def test_keystore_generate_distinct_keys():
    ids = [bytes([i, 0, 0, 1]) for i in range(4)]
    ks = sc.KeyStore.generate(ids, sc.RandomSource(5))
    seen = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            seen.add(ks.outer(a, b))
            seen.add(ks.inner(a, b))
    assert len(seen) == 2 * 6  # every provisioned key is unique
    again = sc.KeyStore.generate(ids, sc.RandomSource(5))
    assert again.outer(ids[0], ids[1]) == ks.outer(ids[0], ids[1])
