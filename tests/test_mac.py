import hashlib
import hmac as stdlib_hmac
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import vitalcode
from vitalcode.mac import (MacKey, MacKeyError, constant_time_equal,
                           hash_digest, hmac_tag, hmac_verify)

# FIPS 180-4 known-answer vectors.
HASH_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]

# RFC 4231 test cases 1-4.
RFC4231 = [
    (bytes([0x0B] * 20), b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (bytes([0xAA] * 20), bytes([0xDD] * 50),
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), bytes([0xCD] * 50),
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (bytes([0xAA] * 131),
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]

# Key and message lengths either side of the 64-byte block and of the
# 55/56-byte padding boundary; keys above 64 bytes are hashed first.
KEY_LENGTHS = (0, 1, 63, 64, 65, 131)
MESSAGE_LENGTHS = (0, 55, 56, 63, 64, 119, 1000)


class TestHash:
    @pytest.mark.parametrize("message,expected", HASH_VECTORS,
                             ids=["empty", "abc", "two-block"])
    def test_known_answers(self, message, expected):
        assert hash_digest(message).hex() == expected

    @given(st.binary(max_size=500))
    def test_matches_independent_reference(self, message):
        assert hash_digest(message) == hashlib.sha256(message).digest()

    def test_block_boundary_lengths(self):
        for n in (0, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 1000):
            message = (bytes(range(256)) * 4)[:n]
            assert hash_digest(message) == hashlib.sha256(message).digest()

    def test_avalanche(self):
        rng = random.Random(17)
        flipped_counts = []
        for _ in range(100):
            message = bytearray(rng.randbytes(1024))
            base = hash_digest(bytes(message))
            message[rng.randrange(1024)] ^= 1 << rng.randrange(8)
            other = hash_digest(bytes(message))
            diff = int.from_bytes(base, "big") ^ int.from_bytes(other, "big")
            flipped_counts.append(bin(diff).count("1"))
        assert all(count >= 100 for count in flipped_counts)


class TestHmac:
    @pytest.mark.parametrize("key,message,expected", RFC4231,
                             ids=["case1", "case2", "case3", "case4", "case6"])
    def test_rfc4231(self, key, message, expected):
        assert hmac_tag(MacKey(key), message, 32).hex() == expected

    @given(st.binary(min_size=1, max_size=100), st.binary(max_size=200))
    @settings(max_examples=50)
    def test_matches_independent_reference(self, key, message):
        assert hmac_tag(MacKey(key), message, 32) == \
            stdlib_hmac.new(key, message, hashlib.sha256).digest()

    @pytest.mark.parametrize("key_length", KEY_LENGTHS)
    def test_length_grid_matches_reference(self, key_length):
        # One key object for every tag: its pad states must not be used up.
        material = bytes(range(7, 7 + key_length))
        key = MacKey(material)
        for n in MESSAGE_LENGTHS:
            message = bytes(i % 251 for i in range(n))
            full = stdlib_hmac.new(material, message, hashlib.sha256).digest()
            for t in (8, 16, 32):
                assert hmac_tag(key, message, t) == full[:t], (n, t)

    def test_long_key_prehashed(self):
        key = bytes([0xAA] * 131)
        assert hmac_tag(MacKey(key), b"x", 32) == \
            stdlib_hmac.new(key, b"x", hashlib.sha256).digest()

    def test_deterministic(self):
        key = MacKey(b"secret")
        assert hmac_tag(key, b"msg", 16) == hmac_tag(key, b"msg", 16)

    def test_truncation_is_prefix(self):
        key = MacKey(b"secret")
        full = hmac_tag(key, b"msg", 32)
        assert hmac_tag(key, b"msg", 16) == full[:16]
        assert hmac_tag(key, b"msg", 8) == full[:8]

    def test_bad_truncation_rejected(self):
        with pytest.raises(ValueError):
            hmac_tag(MacKey(b"k"), b"m", 12)

    def test_key_bit_changes_tag(self):
        rng = random.Random(23)
        for _ in range(100):
            material = bytearray(rng.randbytes(16))
            tag1 = hmac_tag(MacKey(bytes(material)), b"m", 32)
            material[rng.randrange(16)] ^= 1 << rng.randrange(8)
            tag2 = hmac_tag(MacKey(bytes(material)), b"m", 32)
            assert tag1 != tag2


class TestVerify:
    def test_round_trip(self):
        rng = random.Random(5)
        for t in (8, 16, 32):
            key = MacKey(rng.randbytes(20))
            message = rng.randbytes(50)
            assert hmac_verify(key, message, hmac_tag(key, message, t))

    def test_flipped_message_bit_rejected(self):
        key = MacKey(b"secret")
        tag = hmac_tag(key, b"hello", 32)
        assert not hmac_verify(key, b"hellp", tag)

    def test_random_tags_never_accepted(self):
        key = MacKey(b"secret")
        message = b"fixed message"
        expected = hmac_tag(key, message, 8)
        rng = random.Random(31)
        accepts = sum(
            1 for _ in range(10_000)
            if (tag := rng.randbytes(8)) != expected
            and hmac_verify(key, message, tag))
        assert accepts == 0

    def test_wrong_length_rejected(self):
        key = MacKey(b"secret")
        assert not hmac_verify(key, b"m", b"short")


class TestKeyHandling:
    def test_key_never_in_repr(self):
        key = MacKey(b"super-secret-material")
        assert b"super-secret".hex() not in repr(key)
        assert "super-secret" not in repr(key)

    def test_from_hex(self):
        assert hmac_tag(MacKey.from_hex("0b" * 20), b"Hi There", 32).hex() \
            == RFC4231[0][2]

    def test_bad_hex(self):
        with pytest.raises(MacKeyError):
            MacKey.from_hex("zz")

    @pytest.mark.parametrize("text", ["", "  ", "\n"])
    def test_empty_hex(self, text):
        with pytest.raises(MacKeyError, match="no key material"):
            MacKey.from_hex(text)


def test_openssl_not_loaded():
    # hashlib and hmac load OpenSSL's _hashlib, which costs ~3.5 MB of
    # resident memory in every campaign process.  Running one campaign of
    # each kind exercises every trial generator and MAC path.
    code = """
import sys, vitalcode.cli, vitalcode.telegram
from vitalcode import campaign, coded_runtime, dsl, redundancy, sigtool
from vitalcode.coded_core import make_key
key = make_key(251)
table, program = sigtool.build(
    dsl.parse_program("input a; input b; s = a * b; output s;"), key, 1)
coded_runtime.run_campaign(program, table, key, coded_runtime.FAULT_MODELS,
                           20, seed=1)
redundancy.redundancy_campaign(
    redundancy.VoteConfig(redundancy.MAJORITY, 0.1, 0.1), 20, seed=1)
campaign.run_channel_campaign(campaign.parse_config({
    "schemes": ["crc32-ieee", "hamming74", "hmac-32"],
    "threats": [{"kind": "bit_error", "rate": 0.01},
                {"kind": "codeword_flip"}, {"kind": "forge"},
                {"kind": "brute_force", "attempts": 5}],
    "trials": 5, "seed": 1, "mac_key": "0c" * 16}))
print('_hashlib' in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(vitalcode.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abcd", b"abcd")

    def test_unequal_same_length(self):
        assert not constant_time_equal(b"abcd", b"abce")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"abc", b"abcd")
