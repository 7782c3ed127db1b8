"""Telegram wire format, pluggable protection schemes, channel noise and
adversarial transformations.

A telegram is a sequence-numbered, dated message.  The protection tag is
appended per scheme: parity, CRC and Hamming cover the payload only
(their historical role); the coded-signature scheme covers the payload
fold plus the date; HMAC covers seq, date and payload.  The attacker has
full read/write on the channel and knows every algorithm and non-secret
parameter; only the MAC key is withheld.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from . import channel_codes as cc
from .coded_core import CodeKey
from .mac import MacKey, constant_time_equal, hmac_tag

WIRE_MAGIC = b"VT01"
MAX_PAYLOAD = 1024

SCHEME_NONE = "none"
SCHEME_PARITY = "parity"
SCHEME_CRC = "crc"
SCHEME_HAMMING = "hamming74"
SCHEME_CODEDSIG = "codedsig"
SCHEME_HMAC = "hmac"

_SCHEME_IDS = {
    SCHEME_NONE: 0,
    SCHEME_PARITY: 1,
    SCHEME_CRC: 2,
    SCHEME_HAMMING: 3,
    SCHEME_CODEDSIG: 4,
    SCHEME_HMAC: 5,
}

ACCEPT = "accept"
CORRECTED = "corrected"
REJECT = "reject"

BAD_TAG = "BadTag"
BAD_PARITY = "BadParity"
BAD_CRC = "BadCrc"
BAD_RESIDUE = "BadResidue"
STALE_DATE = "StaleDate"
REPLAYED_SEQ = "ReplayedSeq"
MALFORMED = "Malformed"


class TelegramError(Exception):
    pass


class PayloadTooLong(TelegramError):
    pass


class MissingKey(TelegramError):
    pass


class KeyAccessViolation(TelegramError):
    """An attack asked for the withheld MAC key."""


@dataclass(frozen=True)
class Telegram:
    seq: int
    date: int
    payload: bytes

    def __post_init__(self):
        if not (0 <= self.seq < 1 << 32):
            raise TelegramError("seq out of u32 range")
        if not (0 <= self.date < 1 << 32):
            raise TelegramError("date out of u32 range")
        if len(self.payload) > MAX_PAYLOAD:
            raise PayloadTooLong(f"payload {len(self.payload)} > {MAX_PAYLOAD}")


@dataclass(frozen=True)
class ProtectionScheme:
    """Exactly one protection variant with its public parameters.

    CodedSig carries the code key and the static signature; both are
    public (the signature is static, not a secret).  Only the HMAC scheme
    references a secret key.
    """

    variant: str
    crc_params: cc.CrcParams | None = None
    key: CodeKey | None = None          # codedsig
    signature: int = 0                  # codedsig
    mac_truncation: int = 32            # hmac

    def __post_init__(self):
        if self.variant not in _SCHEME_IDS:
            raise TelegramError(f"unknown scheme {self.variant!r}")
        if self.variant == SCHEME_CRC and self.crc_params is None:
            raise TelegramError("crc scheme needs parameters")
        if self.variant == SCHEME_CODEDSIG and self.key is None:
            raise TelegramError("codedsig scheme needs a code key")


@dataclass(frozen=True)
class VerifyResult:
    status: str
    telegram: Telegram | None = None
    reason: str | None = None


@dataclass
class ReceiverWindow:
    """Freshness policy: seq strictly increasing, date within +/-1 cycle.

    Only enforced for the fields a scheme authenticates (HMAC: seq and
    date; CodedSig: date).
    """

    min_seq: int = 0
    current_date: int = 0
    date_tolerance: int = 1


def _payload_fold(payload: bytes, key: CodeKey) -> int:
    return int.from_bytes(payload, "big") % key.modulus


def coded_signature_residue(t: Telegram, scheme: ProtectionScheme) -> int:
    """Code residue of a telegram: payload fold + signature + date."""
    key = scheme.key
    fold = _payload_fold(t.payload, key)
    return (fold + scheme.signature + t.date % key.modulus) % key.modulus


def _hmac_message(t: Telegram) -> bytes:
    return t.seq.to_bytes(4, "big") + t.date.to_bytes(4, "big") + t.payload


@lru_cache(maxsize=4096)
def _cached_tag(key: MacKey, message: bytes, t: int) -> bytes:
    # Verification recomputes the tag of the same message many times in
    # brute-force campaigns; the recomputation is deterministic, so a
    # cache only removes redundant hashing.
    return hmac_tag(key, message, t)


def make_tag(t: Telegram, scheme: ProtectionScheme,
             mac_key: MacKey | None = None) -> bytes:
    """Compute the scheme's tag for a telegram."""
    v = scheme.variant
    if v == SCHEME_NONE:
        return b""
    if v == SCHEME_PARITY:
        return bytes([cc.parity_bit(t.payload)])
    if v == SCHEME_CRC:
        p = scheme.crc_params
        return cc.crc_compute(t.payload, p).to_bytes(p.width // 8, "big")
    if v == SCHEME_HAMMING:
        return cc.hamming74_encode_bytes(t.payload)
    if v == SCHEME_CODEDSIG:
        return coded_signature_residue(t, scheme).to_bytes(8, "big")
    if mac_key is None:
        raise MissingKey("hmac scheme needs a MAC key")
    return _cached_tag(mac_key, _hmac_message(t), scheme.mac_truncation)


def protect_telegram(t: Telegram, scheme: ProtectionScheme,
                     mac_key: MacKey | None = None) -> bytes:
    """Serialize a telegram with its protection tag appended."""
    return serialize_wire(t, _SCHEME_IDS[scheme.variant],
                          make_tag(t, scheme, mac_key))


def serialize_wire(t: Telegram, scheme_id: int, tag: bytes) -> bytes:
    """Frame bytes for (telegram, scheme id, tag); inverse of parse_wire."""
    out = bytearray()
    out += WIRE_MAGIC
    out += t.seq.to_bytes(4, "big")
    out += t.date.to_bytes(4, "big")
    out.append(scheme_id)
    out += len(t.payload).to_bytes(2, "big")
    out += t.payload
    out += len(tag).to_bytes(2, "big")
    out += tag
    return bytes(out)


def parse_wire(data: bytes) -> tuple[Telegram, int, bytes]:
    """Split wire bytes into (telegram, scheme id, tag); raises
    TelegramError on any structural problem."""
    if len(data) < 4 + 4 + 4 + 1 + 2:
        raise TelegramError("frame too short")
    if data[:4] != WIRE_MAGIC:
        raise TelegramError("bad magic")
    seq = int.from_bytes(data[4:8], "big")
    date = int.from_bytes(data[8:12], "big")
    scheme_id = data[12]
    plen = int.from_bytes(data[13:15], "big")
    pos = 15
    if len(data) < pos + plen + 2:
        raise TelegramError("truncated payload")
    payload = data[pos:pos + plen]
    pos += plen
    taglen = int.from_bytes(data[pos:pos + 2], "big")
    pos += 2
    if len(data) != pos + taglen:
        raise TelegramError("bad tag length")
    return Telegram(seq, date, payload), scheme_id, data[pos:]


def verify_telegram(data: bytes, scheme: ProtectionScheme,
                    mac_key: MacKey | None = None,
                    window: ReceiverWindow | None = None) -> VerifyResult:
    """Check a received frame against the configured scheme.

    All failures are verdicts, never exceptions.  Freshness (seq
    monotonicity, date window) is enforced only for schemes that
    authenticate those fields: HMAC covers both, CodedSig the date only.
    """
    try:
        telegram, scheme_id, tag = parse_wire(data)
    except TelegramError:
        return VerifyResult(REJECT, reason=MALFORMED)
    if scheme_id != _SCHEME_IDS[scheme.variant]:
        return VerifyResult(REJECT, reason=MALFORMED)

    v = scheme.variant
    if v == SCHEME_NONE:
        return VerifyResult(ACCEPT, telegram)
    if v == SCHEME_PARITY:
        if len(tag) != 1 or tag[0] > 1:
            return VerifyResult(REJECT, reason=MALFORMED)
        if not cc.parity_check(telegram.payload, tag[0]):
            return VerifyResult(REJECT, reason=BAD_PARITY)
        return VerifyResult(ACCEPT, telegram)
    if v == SCHEME_CRC:
        p = scheme.crc_params
        if len(tag) != p.width // 8:
            return VerifyResult(REJECT, reason=MALFORMED)
        if not cc.crc_check(telegram.payload, int.from_bytes(tag, "big"), p):
            return VerifyResult(REJECT, reason=BAD_CRC)
        return VerifyResult(ACCEPT, telegram)
    if v == SCHEME_HAMMING:
        if len(tag) != 2 * len(telegram.payload) or not tag.isascii():
            return VerifyResult(REJECT, reason=BAD_TAG)
        decoded, corrections = cc.hamming74_decode_bytes(tag)
        if corrections == 0 and decoded == telegram.payload:
            return VerifyResult(ACCEPT, telegram)
        # The codewords are authoritative: reconstruct the payload from
        # them, whether the damage was in the payload field or in the
        # tag.  Double flips within one codeword miscorrect silently.
        fixed = Telegram(telegram.seq, telegram.date, decoded)
        return VerifyResult(CORRECTED, fixed)
    if v == SCHEME_CODEDSIG:
        if len(tag) != 8:
            return VerifyResult(REJECT, reason=MALFORMED)
        if int.from_bytes(tag, "big") != coded_signature_residue(telegram,
                                                                 scheme):
            return VerifyResult(REJECT, reason=BAD_RESIDUE)
        if window is not None:
            if abs(telegram.date - window.current_date) > window.date_tolerance:
                return VerifyResult(REJECT, reason=STALE_DATE)
        return VerifyResult(ACCEPT, telegram)
    # HMAC
    if mac_key is None:
        raise MissingKey("hmac scheme needs a MAC key")
    expected = _cached_tag(mac_key, _hmac_message(telegram),
                           scheme.mac_truncation)
    if not constant_time_equal(tag, expected):
        return VerifyResult(REJECT, reason=BAD_TAG)
    if window is not None:
        if telegram.seq <= window.min_seq:
            return VerifyResult(REJECT, reason=REPLAYED_SEQ)
        if abs(telegram.date - window.current_date) > window.date_tolerance:
            return VerifyResult(REJECT, reason=STALE_DATE)
    return VerifyResult(ACCEPT, telegram)


# --- channel noise -------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    kind: str                 # "bit_error" or "burst"
    bit_error_rate: float = 0.0
    burst_length: int = 0

    def __post_init__(self):
        if self.kind not in ("bit_error", "burst"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (0.0 <= self.bit_error_rate <= 1.0):
            raise ValueError("bit error rate must be a probability")


def apply_channel_noise(data: bytes, model: NoiseModel,
                        rng: random.Random) -> bytes:
    """Flip bits per the noise model; deterministic under a seeded rng."""
    if model.kind == "bit_error":
        eps = model.bit_error_rate
        if eps == 0.0:
            return data
        # One draw per bit: byte by byte, least significant bit first.
        out = bytearray(data)
        draw = rng.random
        for pos in range(len(out) * 8):
            if draw() < eps:
                out[pos >> 3] ^= 1 << (pos & 7)
        return bytes(out)
    # Burst: one contiguous run of flipped bits at a random start.
    nbits = len(data) * 8
    length = min(model.burst_length, nbits)
    if length == 0:
        return data
    start = rng.randrange(nbits - length + 1)
    out = bytearray(data)
    for offset in range(length):
        pos = start + offset
        out[pos // 8] ^= 1 << (7 - pos % 8)
    return bytes(out)


# --- adversarial transformations -----------------------------------------

FORGE_PAYLOAD = "forge_payload"
REPLAY = "replay"
SPLICE_SIGNATURE = "splice_signature"
BRUTE_FORCE_TAG = "brute_force_tag"


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    payload: bytes = b""       # forge
    donor: bytes = b""         # splice / replay: recorded wire bytes


@dataclass(frozen=True)
class AttackerKnowledge:
    """Everything on the channel plus all non-secret parameters.

    The MAC key is structurally absent: any scheme handed to the attacker
    must not embed it, and requesting it raises KeyAccessViolation.
    """

    scheme: ProtectionScheme

    def mac_key(self):
        raise KeyAccessViolation("attacker must never read the MAC key")


def apply_attack(data: bytes, attack: AttackSpec,
                 knowledge: AttackerKnowledge,
                 rng: random.Random) -> bytes:
    """One adversarial transformation of the wire bytes.

    ForgePayload rewrites the payload and recomputes any keyless tag
    (parity, CRC, Hamming, coded signature: no secret exists, the
    attacker just reruns the public algorithm).  Against HMAC the
    attacker cannot recompute and emits one uniformly random tag per
    call; brute force is that same move repeated.  Replay and splice
    reuse recorded bytes.
    """
    scheme = knowledge.scheme
    if attack.kind == REPLAY:
        return attack.donor if attack.donor else data

    telegram, scheme_id, tag = parse_wire(data)
    if attack.kind == SPLICE_SIGNATURE:
        _, _, donor_tag = parse_wire(attack.donor)
        return serialize_wire(telegram, scheme_id, donor_tag)
    if attack.kind in (FORGE_PAYLOAD, BRUTE_FORCE_TAG):
        forged = Telegram(telegram.seq, telegram.date,
                          attack.payload or telegram.payload)
        if scheme.variant == SCHEME_HMAC:
            random_tag = rng.randbytes(scheme.mac_truncation)
            return serialize_wire(forged, scheme_id, random_tag)
        return serialize_wire(forged, scheme_id, make_tag(forged, scheme))
    raise ValueError(f"unknown attack kind {attack.kind!r}")

