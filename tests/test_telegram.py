import dataclasses
import inspect
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from vitalcode.campaign import parse_config
from vitalcode.channel_codes import (CRC8_ATM, CRC32_IEEE, CRC_CATALOG,
                                     CrcParams, crc_compute,
                                     hamming74_encode_bytes, parity_bit)
from vitalcode.coded_core import encode, make_key
from vitalcode.mac import TAG_LENGTHS, MacKey, hmac_tag
from vitalcode.stats import trial_rng, wilson_interval
from vitalcode.telegram import (ACCEPT, ATTACK_THREATS, BAD_CRC, BAD_PARITY,
                                BAD_RESIDUE, BAD_TAG, CORRECTED, MALFORMED,
                                NOISE_THREATS, REJECT, REPLAYED_SEQ,
                                SCHEME_CODEDSIG, SCHEME_CRC, SCHEME_HAMMING,
                                SCHEME_HMAC, SCHEME_NONE, SCHEME_PARITY,
                                STALE_DATE, ProtectionScheme,
                                ReceiverWindow, Telegram, TelegramError,
                                Threat, VerifyResult, WIRE_MAGIC,
                                apply_attack, apply_channel_noise,
                                make_tag, parse_wire,
                                protect_telegram, serialize_wire,
                                verify_telegram)

KEY = make_key(251)
MAC = MacKey(b"test-mac-key-material")

SCHEMES = {
    "none": ProtectionScheme(SCHEME_NONE),
    "parity": ProtectionScheme(SCHEME_PARITY),
    "crc8": ProtectionScheme(SCHEME_CRC, crc_params=CRC8_ATM),
    "crc32": ProtectionScheme(SCHEME_CRC, crc_params=CRC32_IEEE),
    "hamming": ProtectionScheme(SCHEME_HAMMING),
    "codedsig": ProtectionScheme(SCHEME_CODEDSIG, key=KEY, signature=77),
    "hmac": ProtectionScheme(SCHEME_HMAC, mac_truncation=8),
}


def roundtrip(scheme, telegram, window=None):
    wire = protect_telegram(telegram, scheme, MAC)
    return verify_telegram(wire, scheme, MAC, window)


class TestTelegram:
    def test_payload_limit(self):
        Telegram(0, 0, bytes(1024))
        with pytest.raises(TelegramError, match="^payload 1025 > 1024$"):
            Telegram(0, 0, bytes(1025))

    def test_field_ranges(self):
        with pytest.raises(TelegramError):
            Telegram(1 << 32, 0, b"")
        with pytest.raises(TelegramError):
            Telegram(0, -1, b"")


class TestWireFormat:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.binary(max_size=1024), st.integers(0, 255),
           st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_parse_inverts_protect(self, seq, date, payload, any_id, any_tag):
        t = Telegram(seq, date, payload)
        scheme = SCHEMES["crc32"]
        wire = protect_telegram(t, scheme)
        parsed, scheme_id, tag = parse_wire(wire)
        assert parsed == t
        assert scheme_id == scheme.wire_id == 2
        assert len(tag) == 4
        assert serialize_wire(parsed, scheme_id, tag) == wire
        # The layout spelled out field by field, apart from its struct.
        frame = serialize_wire(t, any_id, any_tag)
        assert frame == (WIRE_MAGIC + seq.to_bytes(4, "big")
                         + date.to_bytes(4, "big") + bytes([any_id])
                         + len(payload).to_bytes(2, "big") + payload
                         + len(any_tag).to_bytes(2, "big") + any_tag)
        assert parse_wire(frame) == (t, any_id, any_tag)

    def test_malformed_frames(self):
        good = protect_telegram(Telegram(1, 1, b"abc"), SCHEMES["crc8"])
        for bad in (b"", b"VT0", b"XX01" + good[4:], good[:-1],
                    good + b"\x00"):
            with pytest.raises(TelegramError):
                parse_wire(bad)

    def test_verify_rejects_malformed_instead_of_raising(self):
        result = verify_telegram(b"garbage", SCHEMES["crc8"])
        assert result.status == REJECT and result.reason == MALFORMED

    def test_scheme_id_mismatch_rejected(self):
        wire = protect_telegram(Telegram(1, 1, b"abc"), SCHEMES["crc8"])
        result = verify_telegram(wire, SCHEMES["parity"])
        assert result.status == REJECT and result.reason == MALFORMED


class TestVerify:
    @pytest.mark.parametrize("name", list(SCHEMES), ids=list(SCHEMES))
    def test_clean_round_trip(self, name):
        t = Telegram(5, 9, b"speed=17;limit=40")
        window = ReceiverWindow(min_seq=4, current_date=9)
        result = roundtrip(SCHEMES[name], t, window)
        assert result.status == ACCEPT
        assert result.telegram == t

    def test_parity_rejects_odd_corruption(self):
        t = Telegram(1, 1, b"\x00\x01")
        wire = bytearray(protect_telegram(t, SCHEMES["parity"]))
        wire[15] ^= 1  # first payload byte
        result = verify_telegram(bytes(wire), SCHEMES["parity"])
        assert result.status == REJECT and result.reason == BAD_PARITY

    def test_crc_rejects_corruption(self):
        t = Telegram(1, 1, b"payload bytes")
        wire = bytearray(protect_telegram(t, SCHEMES["crc32"]))
        wire[17] ^= 0x40
        result = verify_telegram(bytes(wire), SCHEMES["crc32"])
        assert result.status == REJECT and result.reason == BAD_CRC

    def test_hamming_corrects_payload_flip(self):
        t = Telegram(1, 1, b"ok")
        wire = bytearray(protect_telegram(t, SCHEMES["hamming"]))
        wire[15] ^= 0x04
        result = verify_telegram(bytes(wire), SCHEMES["hamming"])
        assert result.status == CORRECTED
        assert result.telegram.payload == b"ok"

    def test_hamming_corrects_tag_flip(self):
        t = Telegram(1, 1, b"ok")
        wire = bytearray(protect_telegram(t, SCHEMES["hamming"]))
        wire[-1] ^= 0x01
        result = verify_telegram(bytes(wire), SCHEMES["hamming"])
        assert result.status == CORRECTED
        assert result.telegram.payload == b"ok"

    def test_codedsig_residue_checks_payload_and_date(self):
        t = Telegram(1, 9, b"abc")
        scheme = SCHEMES["codedsig"]
        expected = (int.from_bytes(b"abc", "big") + 77 + 9) % 251
        assert make_tag(t, scheme) == expected.to_bytes(8, "big")
        wire = bytearray(protect_telegram(t, scheme))
        wire[16] ^= 0x01
        result = verify_telegram(bytes(wire), scheme)
        assert result.status == REJECT and result.reason == BAD_RESIDUE

    def test_codedsig_stale_date(self):
        scheme = SCHEMES["codedsig"]
        window = ReceiverWindow(current_date=10)
        for date, status in ((9, ACCEPT), (10, ACCEPT), (11, ACCEPT),
                             (8, REJECT), (12, REJECT)):
            wire = protect_telegram(Telegram(1, date, b"x"), scheme)
            result = verify_telegram(wire, scheme, window=window)
            assert result.status == status, date
            if status == REJECT:
                assert result.reason == STALE_DATE

    def test_hmac_rejects_tampering(self):
        t = Telegram(3, 7, b"vital command")
        scheme = SCHEMES["hmac"]
        wire = bytearray(protect_telegram(t, scheme, MAC))
        for offset in (4, 8, 15, len(wire) - 1):  # seq, date, payload, tag
            tampered = bytearray(wire)
            tampered[offset] ^= 0x01
            result = verify_telegram(bytes(tampered), scheme, MAC)
            assert result.status == REJECT, offset
            assert result.reason == BAD_TAG

    def test_hmac_replay_rejected(self):
        scheme = SCHEMES["hmac"]
        wire = protect_telegram(Telegram(5, 7, b"x"), scheme, MAC)
        window = ReceiverWindow(min_seq=5, current_date=7)
        result = verify_telegram(wire, scheme, MAC, window)
        assert result.status == REJECT and result.reason == REPLAYED_SEQ

    def test_hmac_stale_date_rejected(self):
        scheme = SCHEMES["hmac"]
        wire = protect_telegram(Telegram(5, 3, b"x"), scheme, MAC)
        window = ReceiverWindow(min_seq=0, current_date=7)
        result = verify_telegram(wire, scheme, MAC, window)
        assert result.status == REJECT and result.reason == STALE_DATE

    def test_hmac_needs_key(self):
        scheme = SCHEMES["hmac"]
        with pytest.raises(TelegramError, match="needs a MAC key"):
            protect_telegram(Telegram(1, 1, b"x"), scheme)
        wire = protect_telegram(Telegram(1, 1, b"x"), scheme, MAC)
        with pytest.raises(TelegramError, match="needs a MAC key"):
            verify_telegram(wire, scheme)


FUZZ_SCHEMES = {**SCHEMES, **{
    f"hmac-{t}": ProtectionScheme(SCHEME_HMAC, mac_truncation=t)
    for t in (8, 16, 32)},
    # Widths that are not a multiple of 8 leave the top bits of the tag's
    # first byte zero.
    "crc12": ProtectionScheme(SCHEME_CRC, crc_params=CrcParams(
        "crc12", 12, 0x80F, 0, 0, False, False)),
    "crc5": ProtectionScheme(SCHEME_CRC, crc_params=CrcParams(
        "crc5", 5, 0x05, 0x1F, 0x1F, True, True))}

# Every scheme whose tag is recomputed and compared, with the reason a
# right-length tag that does not match is rejected for.
RECOMPUTED = {"none": None, "parity": BAD_PARITY, "crc8": BAD_CRC,
              "crc32": BAD_CRC, "crc12": BAD_CRC, "crc5": BAD_CRC,
              "codedsig": BAD_RESIDUE,
              "hmac-8": BAD_TAG, "hmac-16": BAD_TAG, "hmac-32": BAD_TAG}
GENUINE = Telegram(4, 9, b"vital payload")


def retagged(name, tag, telegram=GENUINE):
    """The frame of `telegram` under scheme `name`, carrying `tag`."""
    wire = protect_telegram(telegram, FUZZ_SCHEMES[name], MAC)
    parsed, scheme_id, _ = parse_wire(wire)
    return serialize_wire(parsed, scheme_id, tag)


class TestVerifyContract:
    @pytest.mark.parametrize("name", list(RECOMPUTED))
    def test_wrong_length_tag_is_malformed(self, name):
        # Before tags were recomputed, `none` accepted any tag and HMAC
        # called a tag of the wrong length BadTag.
        scheme = FUZZ_SCHEMES[name]
        right = len(make_tag(GENUINE, scheme, MAC))
        for length in {0, right - 1, right + 1, 40} - {-1, right}:
            wire = retagged(name, bytes(range(length)))
            result = verify_telegram(wire, scheme, MAC)
            assert (result.status, result.reason) == (REJECT, MALFORMED)

    @pytest.mark.parametrize("name", list(RECOMPUTED))
    def test_every_tag_bit_flip_gets_the_scheme_reason(self, name):
        scheme = FUZZ_SCHEMES[name]
        true_tag = make_tag(GENUINE, scheme, MAC)
        # The window accepts the genuine frame, so only the tag decides.
        window = ReceiverWindow(min_seq=3, current_date=9)
        for bit in range(8 * len(true_tag)):
            tag = bytearray(true_tag)
            tag[bit // 8] ^= 1 << (bit % 8)
            result = verify_telegram(retagged(name, bytes(tag)), scheme, MAC,
                                     window)
            assert (result.status, result.reason) \
                == (REJECT, RECOMPUTED[name]), bit

    def test_bad_tag_outranks_freshness(self):
        window = ReceiverWindow(min_seq=5, current_date=100)
        for name in ("codedsig", "hmac-8"):
            scheme = FUZZ_SCHEMES[name]
            tag = bytearray(make_tag(GENUINE, scheme, MAC))
            tag[-1] ^= 1
            result = verify_telegram(retagged(name, bytes(tag)), scheme, MAC,
                                     window)
            assert result.reason == RECOMPUTED[name]

    @pytest.mark.parametrize("name", list(RECOMPUTED))
    def test_freshness_only_for_covered_fields(self, name):
        scheme = FUZZ_SCHEMES[name]
        wire = protect_telegram(GENUINE, scheme, MAC)
        replayed = ReceiverWindow(min_seq=10, current_date=9)
        stale = ReceiverWindow(min_seq=0, current_date=100)
        for window, reason in ((replayed, REPLAYED_SEQ), (stale, STALE_DATE)):
            covered = name.startswith("hmac") or (
                name == "codedsig" and reason == STALE_DATE)
            result = verify_telegram(wire, scheme, MAC, window)
            assert result.reason == (reason if covered else None)

    def test_parity_tag_byte_above_one_is_bad_parity(self):
        # Formerly Malformed: any one-byte tag has the right length.
        scheme = FUZZ_SCHEMES["parity"]
        for byte in range(2, 256):
            result = verify_telegram(retagged("parity", bytes([byte])),
                                     scheme)
            assert (result.status, result.reason) == (REJECT, BAD_PARITY)


u32 = st.integers(0, 2**32 - 1)
windows = st.none() | st.builds(ReceiverWindow, u32, u32)


@st.composite
def near_frames(draw):
    """Well-formed frames with any scheme id and tag, then maybe cut or
    bit-flipped, so the fuzzing reaches past the structural checks."""
    telegram = Telegram(draw(u32), draw(u32), draw(st.binary(max_size=40)))
    frame = bytearray(serialize_wire(telegram, draw(st.integers(0, 255)),
                                     draw(st.binary(max_size=40))))
    for index in draw(st.lists(st.integers(0, len(frame) - 1), max_size=3)):
        frame[index] ^= 1 << draw(st.integers(0, 7))
    return bytes(frame[:draw(st.integers(0, len(frame)))])


class TestVerifyFuzz:
    @given(st.sampled_from(sorted(FUZZ_SCHEMES)),
           st.binary(max_size=80)
           | st.binary(max_size=80).map(lambda b: WIRE_MAGIC + b)
           | near_frames(),
           windows)
    @settings(max_examples=500)
    def test_arbitrary_bytes_give_a_verdict(self, name, data, window):
        result = verify_telegram(data, FUZZ_SCHEMES[name], MAC, window)
        assert isinstance(result, VerifyResult)
        assert result.status in (ACCEPT, CORRECTED, REJECT)
        assert (result.status == REJECT) == (result.reason is not None)

    @given(st.sampled_from((8, 16, 32)), u32, u32, st.binary(max_size=40),
           st.binary(max_size=40), windows)
    @settings(max_examples=300)
    def test_hmac_wrong_tag_of_any_length_rejected(self, t, seq, date,
                                                   payload, tag, window):
        scheme = FUZZ_SCHEMES[f"hmac-{t}"]
        telegram, scheme_id, true_tag = parse_wire(
            protect_telegram(Telegram(seq, date, payload), scheme, MAC))
        assume(tag != true_tag)
        result = verify_telegram(serialize_wire(telegram, scheme_id, tag),
                                 scheme, MAC, window)
        assert result.status == REJECT
        assert result.reason == (BAD_TAG if len(tag) == t else MALFORMED)


def frame_of(telegram, name="none"):
    """The sender's frame of `telegram` under scheme `name`."""
    scheme = SCHEMES[name]
    return telegram, scheme.wire_id, make_tag(telegram, scheme, MAC)


def payload_frame(payload):
    return frame_of(Telegram(1, 1, payload))


# The smallest frame: an empty payload under `none`.  OVERHEAD is its
# length on the wire, the bytes every `none` frame adds to its payload.
SMALLEST = payload_frame(b"")
OVERHEAD = len(serialize_wire(*SMALLEST))


def flip_mask(frame, noisy):
    """The bits the channel flipped in the frame, byte 0 lowest."""
    return (int.from_bytes(serialize_wire(*frame), "little")
            ^ int.from_bytes(noisy, "little"))


class TestNoise:
    def test_zero_rate_is_identity(self):
        frame = payload_frame(bytes(range(64)))
        threat = Threat("bit_error", rate=0.0)
        assert apply_channel_noise(frame, threat, random.Random(0)) \
            == serialize_wire(*frame)

    def test_rate_one_flips_everything(self):
        frame = payload_frame(bytes(64))
        threat = Threat("bit_error", rate=1.0)
        assert apply_channel_noise(frame, threat, random.Random(0)) \
            == bytes(b ^ 0xFF for b in serialize_wire(*frame))

    def test_bit_error_rate_is_binomial(self):
        frame = payload_frame(bytes(1000))
        threat = Threat("bit_error", rate=0.01)
        rng = random.Random(3)
        flipped = flip_mask(frame, apply_channel_noise(frame, threat, rng))
        # 8120 bits at 1%: expect 81, sigma ~ 9.
        assert 40 <= flipped.bit_count() <= 120

    def test_burst_is_contiguous(self):
        frame = payload_frame(bytes(32))
        wire = serialize_wire(*frame)
        threat = Threat("burst", length=9)
        for seed in range(20):
            noisy = apply_channel_noise(frame, threat, random.Random(seed))
            bits = int.from_bytes(bytes(a ^ b for a, b in zip(wire, noisy)),
                                  "big")
            assert bin(bits).count("1") == 9
            # Contiguous run: stripping trailing zeros leaves all-ones.
            while bits % 2 == 0:
                bits //= 2
            assert bits == (1 << 9) - 1
        # The exact bytes and stream of the per-bit loop, bit 0 being the
        # most significant bit of byte 0.
        for size in (0, 1, 2, 8, 85):
            nbits = 8 * (OVERHEAD + size)
            for length in (0, 1, 7, 8, 9, 17, 64, nbits, nbits + 5):
                threat = Threat("burst", length=length)
                for seed in range(30):
                    frame = payload_frame(random.Random(seed).randbytes(size))
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    noisy = apply_channel_noise(frame, threat, rng)
                    run = min(length, nbits)
                    expected = bytearray(serialize_wire(*frame))
                    if run:
                        start = ref_rng.randrange(nbits - run + 1)
                        for pos in range(start, start + run):
                            expected[pos // 8] ^= 1 << (7 - pos % 8)
                    assert noisy == bytes(expected), (size, length, seed)
                    assert rng.getstate() == ref_rng.getstate()

    def test_deterministic_under_seed(self):
        frame = payload_frame(bytes(range(100)))
        threat = Threat("bit_error", rate=0.05)
        assert apply_channel_noise(frame, threat, random.Random(7)) \
            == apply_channel_noise(frame, threat, random.Random(7))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_channel_noise(SMALLEST, Threat("erasure"),
                                random.Random(0))

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rate_must_be_a_probability(self, rate):
        with pytest.raises(ValueError):
            Threat("bit_error", rate=rate)

    @pytest.mark.parametrize("length", [0, 1, 64, 1024])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5, 1.0])
    def test_bit_error_matches_gap_loop(self, eps, length):
        # Reference: draw the gap to the next flipped bit of the frame of
        # a `length`-byte payload, byte by byte, bit 0 first.  Equal
        # generator states afterwards mean one draw per flip plus one, and
        # none at eps 0 or 1.
        frame = payload_frame(random.Random(length).randbytes(length))
        data = serialize_wire(*frame)
        threat = Threat("bit_error", rate=eps)
        nbits = 8 * len(data)
        for seed in range(3):
            rng = random.Random(seed)
            noisy = apply_channel_noise(frame, threat, rng)
            reference = random.Random(seed)
            flips = []
            if eps == 1.0:
                flips = list(range(nbits))
            elif eps:
                pos = -1
                while True:
                    gap = (math.log(1.0 - reference.random())
                           / math.log1p(-eps))
                    pos += 1 + math.floor(gap)
                    if pos >= nbits:
                        break
                    flips.append(pos)
            expected = bytearray(data)
            for pos in flips:
                expected[pos // 8] ^= 1 << (pos % 8)
            assert noisy == bytes(expected)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("length", [0, 1, 64, 1024])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5, 1.0])
    def test_bit_error_matches_per_bit_loop(self, eps, length):
        # Reference: one draw per bit of the frame of a `length`-byte
        # payload, byte by byte, bit 0 first.  The sampler draws a
        # different stream, so the two must give the same bytes where the
        # outcome is certain, and otherwise the same flip rate in each of
        # the 8 bit lanes (two-proportion z-test, z = 3.89).
        frame = payload_frame(random.Random(length).randbytes(length))
        data = serialize_wire(*frame)
        threat = Threat("bit_error", rate=eps)

        def per_bit_loop(rng):
            out = bytearray(data)
            for i in range(len(out)):
                for bit in range(8):
                    if rng.random() < eps:
                        out[i] ^= 1 << bit
            return bytes(out)

        if eps in (0.0, 1.0):
            for seed in range(3):
                noisy = apply_channel_noise(frame, threat, random.Random(seed))
                assert noisy == per_bit_loop(random.Random(seed))
            return
        frames = -(-160_000 // (8 * len(data)))
        lanes = [int.from_bytes(bytes([1 << bit]) * len(data), "little")
                 for bit in range(8)]

        def lane_counts(transform, seed):
            rng = random.Random(seed)
            counts = [0] * 8
            for _ in range(frames):
                mask = int.from_bytes(data, "little") ^ int.from_bytes(
                    transform(rng), "little")
                for bit, lane in enumerate(lanes):
                    counts[bit] += (mask & lane).bit_count()
            return counts

        sampled = lane_counts(lambda rng: apply_channel_noise(frame, threat,
                                                              rng), 44)
        reference = lane_counts(per_bit_loop, 45)
        n = frames * len(data)
        for bit, (k1, k2) in enumerate(zip(sampled, reference)):
            p = (k1 + k2) / (2 * n)
            assert abs(k1 - k2) <= 3.89 * math.sqrt(2 * n * p * (1 - p)), bit

    @staticmethod
    def _flip_masks(eps, length, frames, seed):
        # Per-frame masks of flipped bits in the frame of a `length`-byte
        # zero payload, which is OVERHEAD + length bytes long.
        rng = random.Random(seed)
        threat = Threat("bit_error", rate=eps)
        frame = payload_frame(bytes(length))
        return [flip_mask(frame, apply_channel_noise(frame, threat, rng))
                for _ in range(frames)]

    @pytest.mark.parametrize("eps, frames", [(1e-3, 500), (1e-1, 20)])
    def test_bit_error_rate_in_wilson_interval(self, eps, frames):
        length = 256
        masks = self._flip_masks(eps, length, frames, seed=41)
        flipped = sum(m.bit_count() for m in masks)
        lo, hi = wilson_interval(flipped, frames * (OVERHEAD + length) * 8)
        assert lo <= eps <= hi

    def test_end_bits_flip_at_rate(self):
        # The smallest frame: bit 0 is the first gap, its last bit the
        # last slot before the stop test; an off-by-one at either end
        # shows here.
        frames = 20_000
        masks = self._flip_masks(0.1, 0, frames, seed=42)
        for bit in (0, 8 * OVERHEAD - 1):
            hits = sum(m >> bit & 1 for m in masks)
            lo, hi = wilson_interval(hits, frames)
            assert lo <= 0.1 <= hi, bit

    def test_adjacent_pairs_flip_at_rate_squared(self):
        # P(gap = 0) = eps: bits i and i+1 both flip with probability eps^2.
        eps, length, frames = 0.1, 64, 200
        masks = self._flip_masks(eps, length, frames, seed=43)
        pairs = sum((m & m >> 1).bit_count() for m in masks)
        lo, hi = wilson_interval(pairs,
                                 frames * ((OVERHEAD + length) * 8 - 1))
        assert lo <= eps * eps <= hi

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_certain_rates_make_no_draw(self, eps):
        frame = payload_frame(random.Random(1).randbytes(1024))
        data = serialize_wire(*frame)
        rng = random.Random(5)
        state = rng.getstate()
        noisy = apply_channel_noise(frame, Threat("bit_error", rate=eps),
                                    rng)
        assert rng.getstate() == state
        assert noisy == (data if eps == 0.0 else bytes(b ^ 0xFF for b in data))

    @pytest.mark.parametrize("eps", [5e-324, 1e-300])
    def test_vanishing_rate_flips_nothing(self, eps):
        frame = payload_frame(random.Random(2).randbytes(1024))
        threat = Threat("bit_error", rate=eps)
        for seed in range(20):
            assert apply_channel_noise(frame, threat, random.Random(seed)) \
                == serialize_wire(*frame)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_random_payload_keeps_tag(self, name):
        t = Telegram(3, 5, bytes(range(16)))
        frame = frame_of(t, name)
        rng = random.Random(5)
        got, scheme_id, tag = parse_wire(apply_channel_noise(
            frame, Threat("random_payload"), rng))
        assert (scheme_id, tag) == frame[1:]
        assert (got.seq, got.date) == (t.seq, t.date)
        # One draw: a fresh payload of the frame's own length.
        reference = random.Random(5)
        assert got.payload == reference.randbytes(len(t.payload))
        assert rng.getstate() == reference.getstate()

    def test_codeword_flip_flips_one_low_bit_per_tag_byte(self):
        frame = frame_of(Telegram(1, 1, bytes(range(32))), "hamming")
        for seed in range(20):
            noisy = apply_channel_noise(frame, Threat("codeword_flip"),
                                        random.Random(seed))
            got, _, tag = parse_wire(noisy)
            assert got == Telegram(1, 1, bytes(range(32)))
            true_tag = frame[2]
            assert len(tag) == len(true_tag)
            assert all(a ^ b in (1, 2, 4, 8, 16, 32, 64)
                       for a, b in zip(tag, true_tag))

    def test_codeword_flip_bit_positions_uniform(self):
        # 3,000 frames of 128 tag bytes under the campaigns' generator:
        # each of the 7 low bits is the flipped one in 1/7 of the bytes.
        frame = frame_of(Telegram(1, 1, bytes(64)), "hamming")
        true_tag = frame[2]
        counts = [0] * 7
        for i in range(3000):
            noisy = apply_channel_noise(frame, Threat("codeword_flip"),
                                        trial_rng("codeword-flip", i))
            for a, b in zip(parse_wire(noisy)[2], true_tag):
                counts[(a ^ b).bit_length() - 1] += 1
        for bit, k in enumerate(counts):
            lo, hi = wilson_interval(k, 3000 * len(true_tag), z=3.89)
            assert lo <= 1 / 7 <= hi, bit


class TestAttacks:
    def test_forge_succeeds_against_keyless_schemes(self):
        # The attacker reruns the public algorithm; the forged frame is
        # accepted as genuine by every scheme without a secret.
        t = Telegram(2, 6, b"original")
        for name in ("parity", "crc8", "crc32", "codedsig"):
            scheme = SCHEMES[name]
            forged = apply_attack(frame_of(t, name),
                                  Threat("forge", payload=b"injected"),
                                  scheme,
                                  random.Random(0))
            result = verify_telegram(forged, scheme,
                                     window=ReceiverWindow(current_date=6))
            assert result.status == ACCEPT, name
            assert result.telegram.payload == b"injected", name

    def test_forge_succeeds_against_hamming(self):
        t = Telegram(2, 6, b"original")
        scheme = SCHEMES["hamming"]
        forged = apply_attack(frame_of(t, "hamming"),
                              Threat("forge", payload=b"injected"),
                              scheme, random.Random(0))
        result = verify_telegram(forged, scheme)
        assert result.status == ACCEPT
        assert result.telegram.payload == b"injected"

    def test_forge_fails_against_hmac(self):
        t = Telegram(2, 6, b"original")
        scheme = SCHEMES["hmac"]
        frame = frame_of(t, "hmac")
        rng = random.Random(1)
        for _ in range(1000):
            forged = apply_attack(frame, Threat("forge", payload=b"injected"),
                                  scheme, rng)
            assert verify_telegram(forged, scheme, MAC).status == REJECT

    def test_forge_without_payload_draws_one_of_frame_length(self):
        scheme = SCHEMES["crc8"]
        frame = frame_of(Telegram(2, 6, b"original"), "crc8")
        forged = apply_attack(frame, Threat("forge"),
                              scheme, random.Random(6))
        result = verify_telegram(forged, scheme)
        assert result.status == ACCEPT
        assert result.telegram.payload == random.Random(6).randbytes(8)

    def test_replay_uses_recorded_bytes(self):
        scheme = SCHEMES["crc8"]
        donor = Telegram(1, 1, b"old")
        rng = random.Random(0)
        replayed = apply_attack(frame_of(donor, "crc8"), Threat("replay"),
                                scheme, rng)
        assert replayed == protect_telegram(donor, scheme)
        assert rng.getstate() == random.Random(0).getstate()
        # CRC has no freshness notion: the recorded frame sent again is
        # accepted, even past the sequence window.
        result = verify_telegram(replayed, scheme,
                                 window=ReceiverWindow(min_seq=5))
        assert result.status == ACCEPT

    def test_splice_moves_tag_between_frames(self):
        scheme = SCHEMES["codedsig"]
        donor = protect_telegram(Telegram(1, 1, b"aaaa"), scheme)
        victim, scheme_id, _ = parse_wire(
            protect_telegram(Telegram(2, 1, b"bbbb"), scheme))
        _, _, donor_tag = parse_wire(donor)
        spliced = serialize_wire(victim, scheme_id, donor_tag)
        # Residues differ, so the mismatch is caught.
        assert verify_telegram(spliced, scheme).status == REJECT

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_splice_keeps_tag_on_fresh_payload(self, name):
        scheme = SCHEMES[name]
        t = Telegram(2, 1, bytes(range(12)))
        frame = frame_of(t, name)
        rng = random.Random(8)
        spliced = apply_attack(frame, Threat("splice"),
                               scheme, rng)
        got, scheme_id, tag = parse_wire(spliced)
        assert (scheme_id, tag) == frame[1:]
        assert (got.seq, got.date) == (t.seq, t.date)
        assert got.payload == random.Random(8).randbytes(12)
        # The same draws give the same bytes as random-payload noise.
        assert spliced == apply_channel_noise(
            frame, Threat("random_payload"), random.Random(8))

    def test_brute_force_tags_are_random(self):
        scheme = SCHEMES["hmac"]
        carrier = frame_of(Telegram(1, 1, b"x"), "hmac")
        rng = random.Random(2)
        threat = Threat("brute_force", attempts=100)
        frames = [parse_wire(apply_attack(carrier, threat,
                                          scheme, rng))
                  for _ in range(100)]
        assert len({tag for _, _, tag in frames}) == 100
        # Every guess keeps the carrier's payload and draws only a tag.
        assert {t.payload for t, _, _ in frames} == {b"x"}
        reference = random.Random(2)
        for _ in range(100):
            reference.randbytes(scheme.mac_truncation)
        assert rng.getstate() == reference.getstate()

    def test_brute_force_recomputes_keyless_tag(self):
        scheme = SCHEMES["codedsig"]
        carrier = Telegram(1, 1, b"carrier")
        rng = random.Random(3)
        guess = apply_attack(frame_of(carrier, "codedsig"),
                             Threat("brute_force", attempts=1),
                             scheme, rng)
        assert guess == protect_telegram(carrier, scheme)
        assert rng.getstate() == random.Random(3).getstate()

    def test_attacker_is_never_given_the_mac_key(self):
        # The attacker is handed the scheme and nothing else: no scheme a
        # config can build holds the MAC key, and apply_attack takes none.
        names = ["none", "parity", "hamming74", "codedsig", "hmac",
                 *CRC_CATALOG, *(f"hmac-{t}" for t in TAG_LENGTHS)]
        config = parse_config({"schemes": names, "threats": [],
                               "trials": 1, "seed": 0, "mac_key": "0c" * 16})
        assert list(config.schemes) == names
        for scheme in config.schemes.values():
            for f in dataclasses.fields(scheme):
                value = getattr(scheme, f.name)
                assert not isinstance(value, MacKey), f.name
                assert "0c0c" not in repr(value), f.name
        params = inspect.signature(apply_attack).parameters
        assert list(params) == ["frame", "threat", "scheme", "rng"]
        assert not any("MacKey" in str(p.annotation)
                       for p in params.values())

    def test_unknown_attack(self):
        with pytest.raises(ValueError):
            apply_attack(SMALLEST, Threat("downgrade"),
                         SCHEMES["none"],
                         random.Random(0))


class TestThreatDispatch:
    FRAME = frame_of(Telegram(7, 7, bytes(range(10))), "hamming")

    @pytest.mark.parametrize("kind", NOISE_THREATS)
    def test_noise_kinds_are_noise(self, kind):
        threat = Threat(kind, rate=0.5, length=3)
        noisy = apply_channel_noise(self.FRAME, threat, random.Random(0))
        assert noisy != serialize_wire(*self.FRAME)

    @pytest.mark.parametrize("kind", ATTACK_THREATS)
    def test_attack_kinds_are_attacks(self, kind):
        sent = apply_attack(self.FRAME, Threat(kind, attempts=1),
                            SCHEMES["hamming"],
                            random.Random(0))
        assert parse_wire(sent)[1] == self.FRAME[1]

    @pytest.mark.parametrize("kind", NOISE_THREATS + ATTACK_THREATS)
    def test_other_kind_rejected_before_parsing(self, kind):
        # The family check comes before any draw from the generator.
        rng = random.Random(0)
        if kind not in NOISE_THREATS:
            with pytest.raises(ValueError, match="not a noise threat"):
                apply_channel_noise(SMALLEST, Threat(kind), rng)
        if kind not in ATTACK_THREATS:
            with pytest.raises(ValueError, match="not an attack threat"):
                apply_attack(SMALLEST, Threat(kind),
                             SCHEMES["none"], rng)
        assert rng.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("kind", ["erasure", "", "Forge", "bit-error"])
    def test_unknown_kind_rejected_on_construction(self, kind):
        with pytest.raises(ValueError, match="unknown threat kind"):
            Threat(kind)

    @pytest.mark.parametrize("kind,count", [("burst", "length"),
                                            ("brute_force", "attempts"),
                                            ("forge", "length")])
    def test_negative_count_rejected_on_construction(self, kind, count):
        # A negative burst length used to build, then fail in the noise
        # transform with "negative shift count".
        with pytest.raises(ValueError, match=">= 0"):
            Threat(kind, **{count: -1})
        assert getattr(Threat(kind, **{count: 0}), count) == 0


class TestSchemeValidation:
    def test_unknown_variant(self):
        with pytest.raises(TelegramError):
            ProtectionScheme("checksum")

    @pytest.mark.parametrize("t", [0, 5, 31, 64, -8])
    def test_hmac_truncation_checked_on_construction(self, t):
        # A 5-byte truncation used to build, then fail on the first frame
        # while the attacker went on forging 5-byte tags.
        with pytest.raises(TelegramError, match="truncation must be one of"):
            ProtectionScheme(SCHEME_HMAC, mac_truncation=t)

    def test_truncation_of_a_keyless_scheme_is_not_read(self):
        assert ProtectionScheme(SCHEME_NONE, mac_truncation=5).tag(
            GENUINE, None) == b""

    def test_crc_needs_params(self):
        with pytest.raises(TelegramError):
            ProtectionScheme(SCHEME_CRC)

    def test_codedsig_needs_key(self):
        with pytest.raises(TelegramError):
            ProtectionScheme(SCHEME_CODEDSIG)


def reachable(value, depth=4):
    """Every object reachable from `value` through dataclass fields,
    containers and functions' closures and defaults, `depth` levels
    deep."""
    yield value
    if depth == 0:
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list)):
        children = value
    elif inspect.isfunction(value):
        children = [c.cell_contents for c in value.__closure__ or ()]
        children += value.__defaults__ or ()
    else:
        children = []
    for child in children:
        yield from reachable(child, depth - 1)


class TestSchemeTable:
    """Each `ProtectionScheme` resolves its variant's row on construction."""

    PAYLOADS = [b"", b"\x00", b"\xff" * 3, bytes(range(64)), b"vital"]

    def reference_tag(self, name, t):
        """The tag by the public functions the scheme rows replaced."""
        scheme = FUZZ_SCHEMES[name]
        if name == "none":
            return b""
        if name == "parity":
            return bytes([parity_bit(t.payload)])
        if name == "hamming":
            return hamming74_encode_bytes(t.payload)
        if name == "codedsig":
            fold = int.from_bytes(t.payload, "big") % KEY.modulus
            return encode(fold, 77, t.date, KEY)[1].to_bytes(8, "big")
        if name.startswith("hmac"):
            return hmac_tag(MAC, t.seq.to_bytes(4, "big")
                            + t.date.to_bytes(4, "big") + t.payload,
                            scheme.mac_truncation)
        params = scheme.crc_params
        return crc_compute(t.payload, params).to_bytes(
            (params.width + 7) // 8, "big")

    @pytest.mark.parametrize("name", sorted(FUZZ_SCHEMES))
    def test_row_tag_matches_the_reference(self, name):
        scheme = FUZZ_SCHEMES[name]
        for payload in self.PAYLOADS:
            for seq, date in ((0, 0), (4, 9), (2**32 - 1, 2**32 - 1)):
                t = Telegram(seq, date, payload)
                assert scheme.tag(t, MAC) == make_tag(t, scheme, MAC) \
                    == self.reference_tag(name, t), (payload, seq, date)

    def test_crc32_equal_params_tag_like_the_catalog_entry(self):
        twin = CrcParams(*dataclasses.astuple(CRC32_IEEE))
        assert twin == CRC32_IEEE and twin is not CRC32_IEEE
        scheme = ProtectionScheme(SCHEME_CRC, crc_params=twin)
        for payload in self.PAYLOADS:
            t = Telegram(1, 2, payload)
            assert scheme.tag(t, None) \
                == crc_compute(payload, twin).to_bytes(4, "big") \
                == SCHEMES["crc32"].tag(t, None)

    def test_rows(self):
        rows = {name: (s.wire_id, s.bad_tag, s.covers_seq, s.covers_date,
                       s.keyed, s.corrects)
                for name, s in SCHEMES.items()}
        assert rows == {
            "none": (0, MALFORMED, False, False, False, False),
            "parity": (1, BAD_PARITY, False, False, False, False),
            "crc8": (2, BAD_CRC, False, False, False, False),
            "crc32": (2, BAD_CRC, False, False, False, False),
            "hamming": (3, BAD_TAG, False, False, False, True),
            "codedsig": (4, BAD_RESIDUE, False, True, False, False),
            "hmac": (5, BAD_TAG, True, True, True, False)}

    @pytest.mark.parametrize("name", sorted(FUZZ_SCHEMES))
    def test_no_mac_key_reachable_from_a_scheme(self, name):
        scheme = FUZZ_SCHEMES[name]
        scheme.tag(GENUINE, MAC)  # the key has been through the row
        seen = list(reachable(scheme))
        assert scheme.tag in seen
        assert not any(isinstance(value, MacKey) for value in seen)

    @pytest.mark.parametrize("name", sorted(FUZZ_SCHEMES))
    def test_rows_stay_out_of_equality_hash_and_repr(self, name):
        scheme = FUZZ_SCHEMES[name]
        twin = dataclasses.replace(scheme)
        assert twin is not scheme
        assert twin == scheme and hash(twin) == hash(scheme)
        assert repr(twin) == repr(scheme)
        assert "function" not in repr(scheme) and "lambda" not in repr(scheme)
        with pytest.raises(TypeError):
            ProtectionScheme(scheme.variant, tag=scheme.tag)
