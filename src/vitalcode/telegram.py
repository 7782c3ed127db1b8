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

Each variant is one row of the scheme table `_ROWS`, which a
`ProtectionScheme` resolves once, when it is built, into fields of its
own (wire id, tag function, bad-tag reason, coverage, keyed, corrects),
so no call branches on the variant.

A `Threat` maps the sender's `Frame` to the bytes the receiver gets.
Accidental corruption (`apply_channel_noise`) flips bits or replaces the
payload at random; the keyless codes are there to catch it.  Adversarial
moves (`apply_attack`) replay, splice, forge or guess: the attacker has
full read/write on the channel and is handed the `ProtectionScheme`,
every algorithm and non-secret parameter.  No scheme holds the MAC key,
so the attacker never has it.  Each threat kind is one function of the
move table `_MOVES`, which a campaign cell looks up once.
"""

from __future__ import annotations

import struct
from binascii import crc32
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from math import log, log1p

from . import channel_codes as cc
from .coded_core import CodeKey
from .mac import TAG_LENGTHS, MacKey, constant_time_equal, hmac_tag
from .stats import TrialStream

WIRE_MAGIC = b"VT01"
MAX_PAYLOAD = 1024
_HEAD = struct.Struct(">4sIIBH")
_TAGLEN = struct.Struct(">H")
_SEQ_DATE = struct.Struct(">II")

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


def _row():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, init=False)
class ProtectionScheme:
    """Exactly one protection variant with its public parameters.

    CodedSig carries the code key and the static signature; both are
    public (the signature is static, not a secret).  The HMAC scheme's
    secret key is never held here: it is passed to `tag(telegram,
    mac_key)` on every call, so a scheme can be handed to an attacker.
    The fields after the parameters are its variant's row; they take no
    part in equality, hashing or repr.
    """

    variant: str
    crc_params: cc.CrcParams | None     # crc
    key: CodeKey | None                 # codedsig
    signature: int                      # codedsig
    mac_truncation: int                 # hmac
    wire_id: int = _row()
    bad_tag: str = _row()
    covers_seq: bool = _row()
    covers_date: bool = _row()
    keyed: bool = _row()
    corrects: bool = _row()
    tag: Callable[[Telegram, MacKey | None], bytes] = _row()

    # Not generated: a frozen dataclass sets each field through a call of
    # `object.__setattr__`, and each configuration parse builds schemes.
    # The parameters' defaults are here only.
    def __init__(self, variant: str, crc_params: cc.CrcParams | None = None,
                 key: CodeKey | None = None, signature: int = 0,
                 mac_truncation: int = 32):
        if variant not in _VARIANTS:
            raise TelegramError(f"unknown scheme {variant!r}")
        if variant == SCHEME_CRC and crc_params is None:
            raise TelegramError("crc scheme needs parameters")
        if variant == SCHEME_CODEDSIG and key is None:
            raise TelegramError("codedsig scheme needs a code key")
        if variant == SCHEME_HMAC and mac_truncation not in TAG_LENGTHS:
            raise TelegramError(
                f"hmac truncation must be one of {TAG_LENGTHS}")
        row, make_tag_function = _VARIANTS[variant]
        fields = {**row, "variant": variant, "crc_params": crc_params,
                  "key": key, "signature": signature,
                  "mac_truncation": mac_truncation}
        object.__setattr__(self, "__dict__", fields)
        fields["tag"] = make_tag_function(self)


# --- the scheme table ------------------------------------------------------

@lru_cache(maxsize=4096)
def _cached_tag(key: MacKey, message: bytes, t: int) -> bytes:
    # Verification recomputes the tag of the same message many times in
    # brute-force campaigns; the recomputation is deterministic, so a
    # cache only removes redundant hashing.
    return hmac_tag(key, message, t)


# A tag maker takes the scheme and returns its tag(telegram, mac_key),
# which holds public parameters only.  The catalog's CRC-32/IEEE calls
# crc32 directly; an equal copy takes `crc_compute`'s row path to the
# same value, sparing each CRC scheme a 7-field comparison when built.
def _fixed(tag):
    """The maker of a tag function that reads no parameter."""
    return lambda scheme: tag


def _crc_tag(scheme):
    params = scheme.crc_params
    if params is cc.CRC32_IEEE:
        return lambda t, mac_key: crc32(t.payload).to_bytes(4, "big")
    size = (params.width + 7) // 8
    return lambda t, mac_key: cc.crc_compute(t.payload, params).to_bytes(
        size, "big")


def _residue_tag(scheme):
    # The code field of encode(payload mod A, signature, date), the fold
    # and the residue in one reduction.
    signature, modulus = scheme.signature, scheme.key.modulus
    return lambda t, mac_key: ((int.from_bytes(t.payload, "big") + signature
                                + t.date) % modulus).to_bytes(8, "big")


def _mac_tag(scheme):
    size = scheme.mac_truncation

    def tag(t, mac_key):
        if mac_key is None:
            raise TelegramError("hmac scheme needs a MAC key")
        return _cached_tag(mac_key, _SEQ_DATE.pack(t.seq, t.date) + t.payload,
                           size)
    return tag


# Variant -> its row: wire id; the reason for a tag of the right length
# that does not match (a `none` tag is empty, so it cannot mismatch at
# the right length); whether the tag covers seq and the date, the only
# fields checked for freshness; keyed (an attacker cannot recompute the
# tag); corrects (decodes rather than compares); the tag maker.
_PARITY = (b"\x00", b"\x01")
_ROWS = {
    SCHEME_NONE: (0, MALFORMED, False, False, False, False,
                  _fixed(lambda t, mac_key: b"")),
    SCHEME_PARITY: (1, BAD_PARITY, False, False, False, False, _fixed(
        lambda t, mac_key: _PARITY[cc.parity_bit(t.payload)])),
    SCHEME_CRC: (2, BAD_CRC, False, False, False, False, _crc_tag),
    SCHEME_HAMMING: (3, BAD_TAG, False, False, False, True, _fixed(
        lambda t, mac_key: cc.hamming74_encode_bytes(t.payload))),
    SCHEME_CODEDSIG: (4, BAD_RESIDUE, False, True, False, False,
                      _residue_tag),
    SCHEME_HMAC: (5, BAD_TAG, True, True, True, False, _mac_tag),
}
# Variant -> (its row's fields by name, its tag maker).
_ROW = ("wire_id", "bad_tag", "covers_seq", "covers_date", "keyed",
        "corrects")
_VARIANTS = {variant: (dict(zip(_ROW, row)), make)
             for variant, (*row, make) in _ROWS.items()}


@dataclass(slots=True)
class VerifyResult:
    status: str
    telegram: Telegram | None = None
    reason: str | None = None


@dataclass(slots=True)
class ReceiverWindow:
    """Freshness policy: seq strictly increasing, date within +/-1 cycle.

    Only enforced for the fields a scheme authenticates (HMAC: seq and
    date; CodedSig: date).
    """

    min_seq: int = 0
    current_date: int = 0


def protect_telegram(t: Telegram, scheme: ProtectionScheme,
                     mac_key: MacKey | None = None) -> bytes:
    """Serialize a telegram with its protection tag appended."""
    return serialize_wire(t, scheme.wire_id, scheme.tag(t, mac_key))


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
    if scheme_id != scheme.wire_id:
        return VerifyResult(REJECT, reason=MALFORMED)

    if scheme.corrects:
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

    expected = scheme.tag(telegram, mac_key)
    if len(tag) != len(expected):
        return VerifyResult(REJECT, reason=MALFORMED)
    if not constant_time_equal(tag, expected):
        return VerifyResult(REJECT, reason=scheme.bad_tag)
    if window is not None:
        if scheme.covers_seq and telegram.seq <= window.min_seq:
            return VerifyResult(REJECT, reason=REPLAYED_SEQ)
        if scheme.covers_date and abs(telegram.date
                                      - window.current_date) > 1:
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
        if self.kind not in _MOVES:
            raise ValueError(f"unknown threat kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit error rate must be a probability")
        if self.length < 0 or self.attempts < 0:
            raise ValueError("burst length and attempts must be >= 0")
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


def _bit_error(frame, threat, scheme, rng):
    data = serialize_wire(*frame)
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
    nbits = len(data) * 8
    draw = rng.random
    log_keep = log1p(-eps)
    pos = -1
    while True:
        gap = log(1.0 - draw()) / log_keep
        if gap >= nbits - 1 - pos:
            return bytes(out)
        pos += 1 + int(gap)
        out[pos >> 3] ^= 1 << (pos & 7)


def _burst(frame, threat, scheme, rng):
    data = serialize_wire(*frame)
    nbits = len(data) * 8
    length = min(threat.length, nbits)
    if length == 0:
        return data
    start = rng.randrange(nbits - length + 1)
    # Bits count from the most significant bit of byte 0.
    mask = ((1 << length) - 1) << (nbits - start - length)
    noisy = int.from_bytes(data, "big") ^ mask
    return noisy.to_bytes(len(data), "big")


def _new_payload(frame, threat, scheme, rng):
    # random_payload and splice: the frame's tag on a fresh random
    # payload of the same length.
    telegram, scheme_id, tag = frame
    fresh = Telegram(telegram.seq, telegram.date,
                     rng.randbytes(len(telegram.payload)))
    return serialize_wire(fresh, scheme_id, tag)


def _codeword_flip(frame, threat, scheme, rng):
    telegram, scheme_id, tag = frame
    masks = bytearray(rng.randbytes(len(tag)).translate(_CODEWORD_FLIP))
    i = masks.find(0)
    while i >= 0:
        masks[i] = _CODEWORD_FLIP[rng.getrandbits(8)]
        i = masks.find(0, i)
    tag = (int.from_bytes(tag, "little")
           ^ int.from_bytes(masks, "little")).to_bytes(len(tag), "little")
    return serialize_wire(telegram, scheme_id, tag)


def _retagged(telegram, scheme_id, scheme, rng):
    # A keyless tag is the public algorithm rerun; a keyed one is guessed.
    if scheme.keyed:
        tag = rng.randbytes(scheme.mac_truncation)
    else:
        tag = scheme.tag(telegram, None)
    return serialize_wire(telegram, scheme_id, tag)


def _forge(frame, threat, scheme, rng):
    telegram, scheme_id, _ = frame
    forged = Telegram(telegram.seq, telegram.date, threat.payload
                      or rng.randbytes(len(telegram.payload)))
    return _retagged(forged, scheme_id, scheme, rng)


# Threat kind -> its move(frame, threat, scheme, rng) -> the bytes the
# receiver gets.  Each serializes the frame once; noise ignores `scheme`.
_MOVES = {
    "bit_error": _bit_error, "burst": _burst, "random_payload": _new_payload,
    "codeword_flip": _codeword_flip, "forge": _forge, "splice": _new_payload,
    "replay": lambda frame, threat, scheme, rng: serialize_wire(*frame),
    "brute_force": lambda frame, threat, scheme, rng: _retagged(
        frame[0], frame[1], scheme, rng)}


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
    if threat.kind not in NOISE_THREATS:
        raise ValueError(f"not a noise threat: {threat.kind!r}")
    return _MOVES[threat.kind](frame, threat, None, rng)


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
    if threat.kind not in ATTACK_THREATS:
        raise ValueError(f"not an attack threat: {threat.kind!r}")
    return _MOVES[threat.kind](frame, threat, scheme, rng)
