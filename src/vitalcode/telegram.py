"""Telegram wire format, pluggable protection schemes, and the threats
of the channel.

A telegram is a sequence-numbered, dated message.  On the wire a frame
is, big-endian and unpadded: magic "VT01", seq u32, date u32, scheme id
u8 and payload length u16 (the `_HEAD` struct), the payload, tag length
u16 (`_TAGLEN`) and the tag.  The protection tag is computed per scheme:
parity, CRC and Hamming cover the payload only (their historical role);
the coded-signature tag is the code residue, as `coded_core.encode`
defines it, of the payload folded mod A at the telegram's date; HMAC
covers seq, date and payload.  Every tag but Hamming's is deterministic,
so the receiver verifies a frame by recomputing its tag and comparing,
in constant time; Hamming instead decodes and corrects.

A `Threat` maps the sender's `Frame` to the bytes the receiver gets.
Accidental corruption (`apply_channel_noise`) flips bits or replaces the
payload at random; the keyless codes are there to catch it.  Adversarial
moves (`apply_attack`) replay, splice, forge or guess: the attacker has
full read/write on the channel and is handed the `ProtectionScheme`,
every algorithm and non-secret parameter.  No scheme holds the MAC key,
so the attacker never has it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from math import log, log1p

from . import channel_codes as cc
from .coded_core import CodeKey
from .mac import MacKey, constant_time_equal, hmac_tag
from .stats import TrialStream

WIRE_MAGIC = b"VT01"
MAX_PAYLOAD = 1024
_HEAD = struct.Struct(">4sIIBH")
_TAGLEN = struct.Struct(">H")

SCHEME_NONE = "none"
SCHEME_PARITY = "parity"
SCHEME_CRC = "crc"
SCHEME_HAMMING = "hamming74"
SCHEME_CODEDSIG = "codedsig"
SCHEME_HMAC = "hmac"

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

# Variant -> (wire id, reason for a tag of the right length that does not
# match, whether the tag covers seq, whether it covers the date).  Only
# covered fields are checked for freshness.  A `none` tag is empty, so
# it cannot mismatch at the right length.
_VARIANTS = {
    SCHEME_NONE: (0, MALFORMED, False, False),
    SCHEME_PARITY: (1, BAD_PARITY, False, False),
    SCHEME_CRC: (2, BAD_CRC, False, False),
    SCHEME_HAMMING: (3, BAD_TAG, False, False),
    SCHEME_CODEDSIG: (4, BAD_RESIDUE, False, True),
    SCHEME_HMAC: (5, BAD_TAG, True, True),
}


class TelegramError(Exception):
    pass


@dataclass(slots=True)
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
            raise TelegramError(f"payload {len(self.payload)} > {MAX_PAYLOAD}")


# A frame as the sender emits it: (telegram, scheme id, tag).
Frame = tuple[Telegram, int, bytes]


@dataclass(frozen=True)
class ProtectionScheme:
    """Exactly one protection variant with its public parameters.

    CodedSig carries the code key and the static signature; both are
    public (the signature is static, not a secret).  The HMAC scheme's
    secret key is never held here: it is passed to `make_tag` and
    `verify_telegram` separately, so a scheme can be handed to an
    attacker.
    """

    variant: str
    crc_params: cc.CrcParams | None = None
    key: CodeKey | None = None          # codedsig
    signature: int = 0                  # codedsig
    mac_truncation: int = 32            # hmac

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise TelegramError(f"unknown scheme {self.variant!r}")
        if self.variant == SCHEME_CRC and self.crc_params is None:
            raise TelegramError("crc scheme needs parameters")
        if self.variant == SCHEME_CODEDSIG and self.key is None:
            raise TelegramError("codedsig scheme needs a code key")

    @property
    def wire_id(self) -> int:
        """The scheme id a frame of this scheme carries on the wire."""
        return _VARIANTS[self.variant][0]


@dataclass(slots=True)
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
        return cc.crc_compute(t.payload, p).to_bytes((p.width + 7) // 8,
                                                     "big")
    if v == SCHEME_HAMMING:
        return cc.hamming74_encode_bytes(t.payload)
    if v == SCHEME_CODEDSIG:
        # coded_core.encode's residue of the payload folded mod A, at the
        # date, written out: calling it made the tag ~15% slower (timeit,
        # 64-byte payload).
        a = scheme.key.modulus
        fold = int.from_bytes(t.payload, "big") % a
        return ((fold + scheme.signature + t.date) % a).to_bytes(8, "big")
    if mac_key is None:
        raise TelegramError("hmac scheme needs a MAC key")
    return _cached_tag(mac_key, _hmac_message(t), scheme.mac_truncation)


def protect_telegram(t: Telegram, scheme: ProtectionScheme,
                     mac_key: MacKey | None = None) -> bytes:
    """Serialize a telegram with its protection tag appended."""
    return serialize_wire(t, scheme.wire_id, make_tag(t, scheme, mac_key))


def serialize_wire(t: Telegram, scheme_id: int, tag: bytes) -> bytes:
    """Frame bytes for (telegram, scheme id, tag), laid out by `_HEAD` and
    `_TAGLEN`; inverse of parse_wire."""
    return (_HEAD.pack(WIRE_MAGIC, t.seq, t.date, scheme_id, len(t.payload))
            + t.payload + _TAGLEN.pack(len(tag)) + tag)


def parse_wire(data: bytes) -> Frame:
    """Split wire bytes into (telegram, scheme id, tag); raises
    TelegramError on any structural problem."""
    if len(data) < _HEAD.size:
        raise TelegramError("frame too short")
    magic, seq, date, scheme_id, plen = _HEAD.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise TelegramError("bad magic")
    end = _HEAD.size + plen
    if len(data) < end + _TAGLEN.size:
        raise TelegramError("truncated payload")
    if len(data) != end + _TAGLEN.size + _TAGLEN.unpack_from(data, end)[0]:
        raise TelegramError("bad tag length")
    return (Telegram(seq, date, data[_HEAD.size:end]), scheme_id,
            data[end + _TAGLEN.size:])


def verify_telegram(data: bytes, scheme: ProtectionScheme,
                    mac_key: MacKey | None = None,
                    window: ReceiverWindow | None = None) -> VerifyResult:
    """Check a received frame against the configured scheme.

    All failures are verdicts, never exceptions.  A tag of the wrong
    length is malformed; one of the right length must equal the tag
    recomputed from the received telegram.  Freshness (seq monotonicity,
    date window) is then enforced only for the fields the tag covers:
    HMAC covers both, CodedSig the date only.
    """
    try:
        telegram, scheme_id, tag = parse_wire(data)
    except TelegramError:
        return VerifyResult(REJECT, reason=MALFORMED)
    wire_id, bad_tag, covers_seq, covers_date = _VARIANTS[scheme.variant]
    if scheme_id != wire_id:
        return VerifyResult(REJECT, reason=MALFORMED)

    if scheme.variant == SCHEME_HAMMING:
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

    expected = make_tag(telegram, scheme, mac_key)
    if len(tag) != len(expected):
        return VerifyResult(REJECT, reason=MALFORMED)
    if not constant_time_equal(tag, expected):
        return VerifyResult(REJECT, reason=bad_tag)
    if window is not None:
        if covers_seq and telegram.seq <= window.min_seq:
            return VerifyResult(REJECT, reason=REPLAYED_SEQ)
        if covers_date and abs(telegram.date - window.current_date) > 1:
            return VerifyResult(REJECT, reason=STALE_DATE)
    return VerifyResult(ACCEPT, telegram)


# --- threats ---------------------------------------------------------------

# Accidental corruption, which the keyless codes are there to catch, and
# adversarial moves, which only a keyed tag resists.
NOISE_THREATS = ("bit_error", "burst", "random_payload", "codeword_flip")
ATTACK_THREATS = ("forge", "replay", "splice", "brute_force")


@dataclass(slots=True)
class Threat:
    """One channel threat on the sender's frame: a kind from NOISE_THREATS
    or ATTACK_THREATS and the parameters that kind reads."""

    kind: str
    rate: float = 0.0          # bit_error
    length: int = 0            # burst
    attempts: int = 0          # brute_force
    payload: bytes = b""       # forge
    # Names the cell and its random stream.  Built with the threat, as
    # `parse_config` reads it to reject repeated labels; a threat is not
    # changed after parsing.
    label: str = field(init=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit error rate must be a probability")
        label = self.kind
        if self.kind == "bit_error":
            label = f"bit_error({self.rate:g})"
        elif self.kind == "burst":
            label = f"burst({self.length})"
        elif self.kind == "brute_force":
            label = f"brute_force({self.attempts})"
        self.label = label


# Random byte b -> codeword_flip mask.  b % 7 is uniform for b < 252;
# a byte at or above 252 maps to 0 and is drawn again.
_CODEWORD_FLIP = bytes(1 << b % 7 if b < 252 else 0 for b in range(256))


def _fresh_payload(telegram: Telegram, rng: TrialStream) -> Telegram:
    return Telegram(telegram.seq, telegram.date,
                    rng.randbytes(len(telegram.payload)))


def apply_channel_noise(frame: Frame, threat: Threat,
                        rng: TrialStream) -> bytes:
    """The bytes the receiver gets when accidental corruption strikes the
    sender's frame; deterministic under a seeded rng.

    `bit_error` flips each bit of the serialized frame independently with
    probability `rate`; `burst` flips one contiguous run of `length` bits
    of it; `random_payload` replaces the payload with random bytes of the
    same length and keeps the tag; `codeword_flip` flips one of the low 7
    bits of every tag byte, one error per Hamming codeword.
    """
    kind = threat.kind
    if kind not in NOISE_THREATS:
        raise ValueError(f"not a noise threat: {kind!r}")
    telegram, scheme_id, tag = frame
    if kind == "random_payload":
        return serialize_wire(_fresh_payload(telegram, rng), scheme_id, tag)
    if kind == "codeword_flip":
        masks = bytearray(rng.randbytes(len(tag)).translate(_CODEWORD_FLIP))
        i = masks.find(0)
        while i >= 0:
            masks[i] = _CODEWORD_FLIP[rng.getrandbits(8)]
            i = masks.find(0, i)
        tag = (int.from_bytes(tag, "little")
               ^ int.from_bytes(masks, "little")).to_bytes(len(tag), "little")
        return serialize_wire(telegram, scheme_id, tag)
    data = serialize_wire(telegram, scheme_id, tag)
    nbits = len(data) * 8
    if kind == "burst":
        length = min(threat.length, nbits)
        if length == 0:
            return data
        start = rng.randrange(nbits - length + 1)
        # Bits count from the most significant bit of byte 0.
        mask = ((1 << length) - 1) << (nbits - start - length)
        noisy = int.from_bytes(data, "big") ^ mask
        return noisy.to_bytes(len(data), "big")
    eps = threat.rate
    if eps == 0.0:
        return data
    if eps == 1.0:
        return bytes(b ^ 0xFF for b in data)
    # Bit `pos` is bit pos & 7 (least significant first) of byte pos >> 3.
    # Draw the gap to the next flipped bit, geometric as
    # floor(ln U / ln(1 - eps)) (Devroye 1986, X.2): one draw per flip plus
    # one.  Compare before int(): a subnormal eps makes the gap infinite.
    out = bytearray(data)
    draw = rng.random
    log_keep = log1p(-eps)
    pos = -1
    while True:
        gap = log(1.0 - draw()) / log_keep
        if gap >= nbits - 1 - pos:
            return bytes(out)
        pos += 1 + int(gap)
        out[pos >> 3] ^= 1 << (pos & 7)


def apply_attack(frame: Frame, threat: Threat, scheme: ProtectionScheme,
                 rng: TrialStream) -> bytes:
    """The bytes the receiver gets when an adversary acts on the sender's
    frame.

    The attacker knows the frame and `scheme`, every public parameter;
    a `ProtectionScheme` never holds the MAC key, and no key is passed.

    `replay` redelivers the frame as sent; `splice` puts its tag on a
    fresh random payload.  `forge` sends `threat.payload`, or a random
    one, and `brute_force` keeps the frame's payload; both recompute a
    keyless tag (parity, CRC, Hamming, coded signature: no secret exists,
    the attacker just reruns the public algorithm).  Against HMAC the
    attacker cannot recompute and sends one uniformly random tag per
    call; brute force is that same move repeated.
    """
    kind = threat.kind
    if kind not in ATTACK_THREATS:
        raise ValueError(f"not an attack threat: {kind!r}")
    if kind == "replay":
        return serialize_wire(*frame)
    telegram, scheme_id, tag = frame
    if kind == "splice":
        return serialize_wire(_fresh_payload(telegram, rng), scheme_id, tag)
    if kind == "forge":
        telegram = Telegram(telegram.seq, telegram.date, threat.payload
                            or rng.randbytes(len(telegram.payload)))
    if scheme.variant == SCHEME_HMAC:
        tag = rng.randbytes(scheme.mac_truncation)
    else:
        tag = make_tag(telegram, scheme)
    return serialize_wire(telegram, scheme_id, tag)
