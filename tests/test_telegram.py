import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from vitalcode.channel_codes import CRC8_ATM, CRC32_IEEE
from vitalcode.coded_core import make_key
from vitalcode.mac import MacKey
from vitalcode.telegram import (ACCEPT, BAD_CRC, BAD_PARITY, BAD_RESIDUE,
                                BAD_TAG, BRUTE_FORCE_TAG, CORRECTED,
                                FORGE_PAYLOAD, MALFORMED, REJECT, REPLAY,
                                REPLAYED_SEQ, SCHEME_CODEDSIG, SCHEME_CRC,
                                SCHEME_HAMMING, SCHEME_HMAC, SCHEME_NONE,
                                SCHEME_PARITY, SPLICE_SIGNATURE, STALE_DATE,
                                AttackSpec, AttackerKnowledge,
                                KeyAccessViolation, MissingKey, NoiseModel,
                                PayloadTooLong, ProtectionScheme,
                                ReceiverWindow, Telegram, TelegramError,
                                VerifyResult, WIRE_MAGIC, apply_attack, apply_channel_noise,
                                coded_signature_residue, parse_wire,
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
        with pytest.raises(PayloadTooLong):
            Telegram(0, 0, bytes(1025))

    def test_field_ranges(self):
        with pytest.raises(TelegramError):
            Telegram(1 << 32, 0, b"")
        with pytest.raises(TelegramError):
            Telegram(0, -1, b"")


class TestWireFormat:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.binary(max_size=64))
    @settings(max_examples=50)
    def test_parse_inverts_protect(self, seq, date, payload):
        t = Telegram(seq, date, payload)
        scheme = SCHEMES["crc32"]
        wire = protect_telegram(t, scheme)
        parsed, scheme_id, tag = parse_wire(wire)
        assert parsed == t
        assert scheme_id == 2
        assert len(tag) == 4
        assert serialize_wire(parsed, scheme_id, tag) == wire

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
        assert coded_signature_residue(t, scheme) == expected
        wire = bytearray(protect_telegram(t, scheme))
        wire[16] ^= 0x01
        result = verify_telegram(bytes(wire), scheme)
        assert result.status == REJECT and result.reason == BAD_RESIDUE

    def test_codedsig_stale_date(self):
        scheme = SCHEMES["codedsig"]
        window = ReceiverWindow(current_date=10, date_tolerance=1)
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
        with pytest.raises(MissingKey):
            protect_telegram(Telegram(1, 1, b"x"), scheme)
        wire = protect_telegram(Telegram(1, 1, b"x"), scheme, MAC)
        with pytest.raises(MissingKey):
            verify_telegram(wire, scheme)


FUZZ_SCHEMES = {**SCHEMES, **{
    f"hmac-{t}": ProtectionScheme(SCHEME_HMAC, mac_truncation=t)
    for t in (8, 16, 32)}}

u32 = st.integers(0, 2**32 - 1)
windows = st.none() | st.builds(ReceiverWindow, u32, u32, st.integers(0, 3))


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
        assert result.reason in (BAD_TAG, MALFORMED)


class TestNoise:
    def test_zero_rate_is_identity(self):
        data = bytes(range(64))
        model = NoiseModel("bit_error", bit_error_rate=0.0)
        assert apply_channel_noise(data, model, random.Random(0)) == data

    def test_rate_one_flips_everything(self):
        data = bytes(64)
        model = NoiseModel("bit_error", bit_error_rate=1.0)
        assert apply_channel_noise(data, model, random.Random(0)) \
            == bytes([0xFF] * 64)

    def test_bit_error_rate_is_binomial(self):
        data = bytes(1000)
        model = NoiseModel("bit_error", bit_error_rate=0.01)
        rng = random.Random(3)
        flipped = sum(bin(b).count("1")
                      for b in apply_channel_noise(data, model, rng))
        # 8000 bits at 1%: expect 80, sigma ~ 8.9.
        assert 40 <= flipped <= 120

    def test_burst_is_contiguous(self):
        data = bytes(32)
        model = NoiseModel("burst", burst_length=9)
        for seed in range(20):
            noisy = apply_channel_noise(data, model, random.Random(seed))
            bits = int.from_bytes(bytes(a ^ b for a, b in zip(data, noisy)),
                                  "big")
            assert bin(bits).count("1") == 9
            # Contiguous run: stripping trailing zeros leaves all-ones.
            while bits % 2 == 0:
                bits //= 2
            assert bits == (1 << 9) - 1

    def test_deterministic_under_seed(self):
        data = bytes(range(100))
        model = NoiseModel("bit_error", bit_error_rate=0.05)
        assert apply_channel_noise(data, model, random.Random(7)) \
            == apply_channel_noise(data, model, random.Random(7))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseModel("erasure")

    @pytest.mark.parametrize("length", [0, 1, 64, 1024])
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5, 1.0])
    def test_bit_error_matches_per_bit_loop(self, eps, length):
        # Reference: one draw per bit, byte by byte, bit 0 first.  Equal
        # generator states afterwards mean every bit cost exactly one draw.
        data = random.Random(length).randbytes(length)
        model = NoiseModel("bit_error", bit_error_rate=eps)
        for seed in range(3):
            rng = random.Random(seed)
            noisy = apply_channel_noise(data, model, rng)
            reference = random.Random(seed)
            expected = bytearray(data)
            if eps:
                for i in range(len(expected)):
                    for bit in range(8):
                        if reference.random() < eps:
                            expected[i] ^= 1 << bit
            assert noisy == bytes(expected)
            assert rng.getstate() == reference.getstate()


class TestAttacks:
    def test_forge_succeeds_against_keyless_schemes(self):
        # The attacker reruns the public algorithm; the forged frame is
        # accepted as genuine by every scheme without a secret.
        t = Telegram(2, 6, b"original")
        for name in ("parity", "crc8", "crc32", "codedsig"):
            scheme = SCHEMES[name]
            wire = protect_telegram(t, scheme)
            attack = AttackSpec(FORGE_PAYLOAD, payload=b"injected")
            forged = apply_attack(wire, attack, AttackerKnowledge(scheme),
                                  random.Random(0))
            result = verify_telegram(forged, scheme,
                                     window=ReceiverWindow(current_date=6))
            assert result.status == ACCEPT, name
            assert result.telegram.payload == b"injected", name

    def test_forge_succeeds_against_hamming(self):
        t = Telegram(2, 6, b"original")
        scheme = SCHEMES["hamming"]
        wire = protect_telegram(t, scheme)
        attack = AttackSpec(FORGE_PAYLOAD, payload=b"injected")
        forged = apply_attack(wire, attack, AttackerKnowledge(scheme),
                              random.Random(0))
        result = verify_telegram(forged, scheme)
        assert result.status == ACCEPT
        assert result.telegram.payload == b"injected"

    def test_forge_fails_against_hmac(self):
        t = Telegram(2, 6, b"original")
        scheme = SCHEMES["hmac"]
        wire = protect_telegram(t, scheme, MAC)
        rng = random.Random(1)
        for _ in range(1000):
            attack = AttackSpec(FORGE_PAYLOAD, payload=b"injected")
            forged = apply_attack(wire, attack, AttackerKnowledge(scheme),
                                  rng)
            assert verify_telegram(forged, scheme, MAC).status == REJECT

    def test_replay_uses_recorded_bytes(self):
        scheme = SCHEMES["crc8"]
        donor = protect_telegram(Telegram(1, 1, b"old"), scheme)
        attack = AttackSpec(REPLAY, donor=donor)
        replayed = apply_attack(b"current traffic", attack,
                                AttackerKnowledge(scheme), random.Random(0))
        assert replayed == donor
        # CRC has no freshness notion: the replay is accepted.
        assert verify_telegram(replayed, scheme).status == ACCEPT

    def test_splice_moves_tag_between_frames(self):
        scheme = SCHEMES["codedsig"]
        donor = protect_telegram(Telegram(1, 1, b"aaaa"), scheme)
        victim = protect_telegram(Telegram(2, 1, b"bbbb"), scheme)
        attack = AttackSpec(SPLICE_SIGNATURE, donor=donor)
        spliced = apply_attack(victim, attack, AttackerKnowledge(scheme),
                               random.Random(0))
        t, _, tag = parse_wire(spliced)
        assert t.payload == b"bbbb"
        _, _, donor_tag = parse_wire(donor)
        assert tag == donor_tag
        # Residues differ, so the mismatch is caught.
        assert verify_telegram(spliced, scheme).status == REJECT

    def test_brute_force_tags_are_random(self):
        scheme = SCHEMES["hmac"]
        wire = protect_telegram(Telegram(1, 1, b"x"), scheme, MAC)
        rng = random.Random(2)
        attack = AttackSpec(BRUTE_FORCE_TAG)
        tags = {parse_wire(apply_attack(wire, attack,
                                        AttackerKnowledge(scheme), rng))[2]
                for _ in range(100)}
        assert len(tags) == 100

    def test_attacker_cannot_read_mac_key(self):
        with pytest.raises(KeyAccessViolation):
            AttackerKnowledge(SCHEMES["hmac"]).mac_key()

    def test_unknown_attack(self):
        scheme = SCHEMES["none"]
        wire = protect_telegram(Telegram(1, 1, b"x"), scheme)
        with pytest.raises(ValueError):
            apply_attack(wire, AttackSpec("downgrade"),
                         AttackerKnowledge(scheme), random.Random(0))


class TestSchemeValidation:
    def test_unknown_variant(self):
        with pytest.raises(TelegramError):
            ProtectionScheme("checksum")

    def test_crc_needs_params(self):
        with pytest.raises(TelegramError):
            ProtectionScheme(SCHEME_CRC)

    def test_codedsig_needs_key(self):
        with pytest.raises(TelegramError):
            ProtectionScheme(SCHEME_CODEDSIG)
