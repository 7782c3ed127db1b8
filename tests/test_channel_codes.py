import random

import pytest
from hypothesis import given, strategies as st

from helpers import crc_bitwise, hamming_encode_matrix
from vitalcode import channel_codes as cc
from vitalcode.channel_codes import (CRC32_IEEE, CRC8_ATM, CRC_CATALOG,
                                     CrcParams, crc_compute,
                                     hamming74_decode, hamming74_encode,
                                     hamming74_decode_bytes,
                                     hamming74_encode_bytes, parity_bit)
from vitalcode.stats import binomial_sigma


class TestParity:
    def test_three_ones(self):
        assert parity_bit(bytes([0b00001011])) == 1

    def test_empty(self):
        assert parity_bit(b"") == 0

    def test_detects_odd_misses_even(self):
        # Exhaustive over 1-byte payloads and all error patterns.
        for value in range(256):
            payload = bytes([value])
            bit = parity_bit(payload)
            for pattern in range(1, 256):
                corrupted = bytes([value ^ pattern])
                detects = parity_bit(corrupted) != bit
                assert detects == (bin(pattern).count("1") % 2 == 1)

    @pytest.mark.parametrize("length", [0, 1, 64, 1024])
    def test_matches_xor_fold(self, length):
        for seed in range(20):
            payload = random.Random(seed).randbytes(length)
            acc = 0
            for b in payload:
                acc ^= b
            assert parity_bit(payload) == bin(acc).count("1") & 1


@st.composite
def random_crc_params(draw) -> CrcParams:
    """Any width 1-32, any polynomial, init and xorout, either reflection."""
    width = draw(st.integers(1, 32))
    word = st.integers(0, (1 << width) - 1)
    return CrcParams("random", width, draw(st.integers(1, (1 << width) - 1)),
                     draw(word), draw(word), draw(st.booleans()),
                     draw(st.booleans()))


class TestCrc:
    def test_crc32_published_check_value(self):
        assert crc_compute(b"123456789", CRC32_IEEE) == 0xCBF43926

    def test_crc8_check_value(self):
        # Frozen from the bit-serial long-division oracle.
        assert crc_bitwise(b"123456789", CRC8_ATM) == 0xF4
        assert crc_compute(b"123456789", CRC8_ATM) == 0xF4

    def test_crc8_empty(self):
        assert crc_compute(b"", CRC8_ATM) == 0x00

    @given(random_crc_params(), st.binary(max_size=256))
    def test_matches_bitwise_oracle(self, params, payload):
        for p in (params, *CRC_CATALOG.values()):
            assert crc_compute(payload, p) == crc_bitwise(payload, p)

    @given(st.binary(max_size=2048))
    def test_crc32_fast_path_matches_rows_and_oracle(self, payload):
        # An equal-valued parameter set under another name takes the
        # row path; CRC32_IEEE itself takes binascii.crc32.
        rows = CrcParams("crc32-rows", 32, CRC32_IEEE.polynomial,
                         CRC32_IEEE.init, CRC32_IEEE.xorout, True, True)
        fast = crc_compute(payload, CRC32_IEEE)
        assert fast == crc_bitwise(payload, CRC32_IEEE)
        assert fast == crc_compute(payload, rows)

    def test_round_trip(self):
        payload = b"telegram body"
        for params in CRC_CATALOG.values():
            assert crc_compute(payload, params) == crc_compute(payload, params)

    @pytest.mark.parametrize("params", [CRC8_ATM, CRC32_IEEE],
                             ids=lambda p: p.name)
    def test_single_bit_errors_all_detected(self, params):
        payload = bytes(random.Random(5).randbytes(64))
        checksum = crc_compute(payload, params)
        for byte in range(len(payload)):
            for bit in range(8):
                corrupted = bytearray(payload)
                corrupted[byte] ^= 1 << bit
                assert crc_compute(bytes(corrupted), params) != checksum
        for bit in range(params.width):
            assert crc_compute(payload, params) != checksum ^ (1 << bit)

    def test_crc32_bursts_detected(self):
        # All burst lengths <= 32 at every start position, a sample of
        # interior patterns per length.
        rng = random.Random(7)
        payload = rng.randbytes(64)
        checksum = crc_compute(payload, CRC32_IEEE)
        nbits = len(payload) * 8
        for length in (1, 2, 3, 8, 17, 31, 32):
            patterns = [(1 << (length - 1)) | 1 | (p << 1)
                        for p in rng.sample(range(1 << max(length - 2, 0)),
                                            min(8, 1 << max(length - 2, 0)))]
            for start in range(nbits - length + 1):
                for pattern in patterns:
                    corrupted = int.from_bytes(payload, "big") \
                        ^ (pattern << (nbits - start - length))
                    frame = corrupted.to_bytes(len(payload), "big")
                    assert crc_compute(frame, CRC32_IEEE) != checksum, \
                        (length, start)

    def test_crc8_random_corruption_rate(self):
        # Undetected fraction of uniform random replacements ~ 2^-8.
        rng = random.Random(11)
        payload = rng.randbytes(64)
        checksum = crc_compute(payload, CRC8_ATM)
        trials = 200_000
        undetected = 0
        for _ in range(trials):
            other = rng.randbytes(64)
            if other != payload and crc_compute(other, CRC8_ATM) == checksum:
                undetected += 1
        expected = 2**-8
        assert abs(undetected / trials - expected) \
            < 4 * binomial_sigma(expected, trials)

    def test_linearity(self):
        # With init/xorout folded out the map is linear over GF(2).
        rng = random.Random(3)
        for params in CRC_CATALOG.values():
            raw = CrcParams("raw", params.width, params.polynomial, 0, 0,
                            params.reflect_in, params.reflect_out)
            for _ in range(20):
                x = rng.randbytes(32)
                y = rng.randbytes(32)
                xy = bytes(a ^ b for a, b in zip(x, y))
                assert crc_compute(xy, raw) == \
                    crc_compute(x, raw) ^ crc_compute(y, raw)

    def test_polynomial_degree_must_match_width(self):
        with pytest.raises(ValueError):
            CrcParams("bad", 8, 0x107, 0, 0, False, False)


class TestHamming:
    def test_worked_examples(self):
        assert hamming74_encode(0b1011) == 0b0110011
        assert hamming74_encode(0b0000) == 0b0000000
        assert hamming74_encode(0b1111) == 0b1111111

    def test_matches_generator_matrix_oracle(self):
        for data in range(16):
            assert hamming74_encode(data) == hamming_encode_matrix(data)

    def test_clean_round_trip(self):
        for data in range(16):
            assert hamming74_decode(hamming74_encode(data)) == (data, None)

    def test_single_flip_corrected_exhaustive(self):
        for data in range(16):
            word = hamming74_encode(data)
            for position in range(1, 8):
                flipped = word ^ (1 << (7 - position))
                assert hamming74_decode(flipped) == (data, position)

    def test_worked_correction(self):
        assert hamming74_decode(0b0110111) == (0b1011, 5)

    def test_double_flip_miscorrects(self):
        # Exhaustive over flip pairs on the zero codeword: the decoder
        # always "corrects" to some wrong nonzero data.
        for i in range(1, 8):
            for j in range(i + 1, 8):
                word = (1 << (7 - i)) | (1 << (7 - j))
                data, position = hamming74_decode(word)
                assert position is not None
                assert data != 0 or word ^ (1 << (7 - position)) != 0

    def test_byte_stream_round_trip(self):
        payload = bytes(range(0, 250, 7))
        words = hamming74_encode_bytes(payload)
        assert len(words) == 2 * len(payload)
        assert hamming74_decode_bytes(words) == (payload, 0)

    def test_byte_stream_corrects_one_flip_per_word(self):
        rng = random.Random(9)
        payload = rng.randbytes(32)
        words = bytearray(hamming74_encode_bytes(payload))
        for i in range(len(words)):
            words[i] ^= 1 << rng.randrange(7)
        decoded, corrections = hamming74_decode_bytes(bytes(words))
        assert decoded == payload
        assert corrections == len(words)


def encode_per_word(payload):
    """hamming74_encode_bytes as a loop over the per-word reference."""
    out = bytearray()
    for b in payload:
        out += bytes([hamming74_encode(b >> 4), hamming74_encode(b & 0xF)])
    return bytes(out)


def decode_per_word(words):
    """hamming74_decode_bytes as a loop over the per-word reference."""
    out = bytearray()
    corrections = 0
    for i in range(0, len(words), 2):
        hi, hi_pos = hamming74_decode(words[i])
        lo, lo_pos = hamming74_decode(words[i + 1])
        corrections += (hi_pos is not None) + (lo_pos is not None)
        out.append((hi << 4) | lo)
    return bytes(out), corrections


@st.composite
def noisy_codewords(draw):
    """Codewords of an arbitrary payload with 0-2 random flips each."""
    payload = draw(st.binary(max_size=100))
    words = bytearray(encode_per_word(payload))
    for i in range(len(words)):
        for position in draw(st.lists(st.integers(0, 6), max_size=2)):
            words[i] ^= 1 << position
    return bytes(words)


class TestHammingTables:
    def test_encode_tables_match_reference(self):
        for byte in range(256):
            assert cc._ENC_HI[byte] == hamming74_encode(byte >> 4)
            assert cc._ENC_LO[byte] == hamming74_encode(byte & 0xF)

    def test_decode_tables_match_reference(self):
        for word in range(128):
            data, position = hamming74_decode(word)
            assert cc._DEC_HI[word] == data << 4
            assert cc._DEC_LO[word] == data
            assert cc._FIXED[word] == (position is not None)

    @given(st.binary(max_size=200))
    def test_encode_matches_per_word_loop(self, payload):
        assert hamming74_encode_bytes(payload) == encode_per_word(payload)

    @given(noisy_codewords())
    def test_decode_matches_per_word_loop(self, words):
        assert hamming74_decode_bytes(words) == decode_per_word(words)

    def test_odd_word_count_rejected(self):
        words = hamming74_encode_bytes(b"ab")
        with pytest.raises(ValueError):
            hamming74_decode_bytes(words[:-1])
        with pytest.raises(ValueError):
            hamming74_decode_bytes(b"\x00")

    @pytest.mark.parametrize("bad", [0x80, 0xC3, 0xFF])
    def test_word_outside_code_rejected(self, bad):
        words = bytearray(hamming74_encode_bytes(b"abc"))
        for i in range(len(words)):
            corrupted = bytearray(words)
            corrupted[i] = bad
            with pytest.raises(ValueError):
                hamming74_decode_bytes(bytes(corrupted))

    def test_bytearray_input_same_as_bytes(self):
        words = bytearray(hamming74_encode_bytes(b"vital frame"))
        words[3] ^= 0x04
        assert hamming74_decode_bytes(words) == \
            hamming74_decode_bytes(bytes(words))
        result, _ = hamming74_decode_bytes(words)
        assert type(result) is bytes
        assert hamming74_encode_bytes(bytearray(b"xyz")) == \
            hamming74_encode_bytes(b"xyz")

    def test_empty(self):
        assert hamming74_encode_bytes(b"") == b""
        assert hamming74_decode_bytes(b"") == (b"", 0)
