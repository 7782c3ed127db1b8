"""Channel protections against accidental corruption: parity, CRC,
Hamming(7,4) single-error correction.

CRC and the Hamming byte codec are table-driven; the Hamming tables are
built at import from the per-word `hamming74_encode`/`hamming74_decode`,
which remain the reference.

The CRC follows the usual width/poly/init/xorout/reflect parameter model;
two parameter sets are built in: "crc8-atm" (poly 0x07, no reflection,
its 8-bit residual makes undetected rates measurable in small campaigns)
and "crc32-ieee" (the reflected 0x04C11DB7 standard, anchored against the
published check value 0xCBF43926 for "123456789").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def parity_bit(payload: bytes) -> int:
    """Even parity: XOR of all payload bits."""
    return int.from_bytes(payload, "big").bit_count() & 1


def parity_check(payload: bytes, bit: int) -> bool:
    return parity_bit(payload) == bit


@dataclass(frozen=True)
class CrcParams:
    name: str
    width: int
    polynomial: int  # normal (non-reflected) form, top bit implicit
    init: int
    xorout: int
    reflect_in: bool
    reflect_out: bool

    def __post_init__(self):
        if not (0 < self.polynomial < (1 << self.width)):
            raise ValueError("polynomial degree must equal width")


CRC8_ATM = CrcParams("crc8-atm", 8, 0x07, 0x00, 0x00, False, False)
CRC32_IEEE = CrcParams("crc32-ieee", 32, 0x04C11DB7, 0xFFFFFFFF,
                       0xFFFFFFFF, True, True)

CRC_CATALOG = {p.name: p for p in (CRC8_ATM, CRC32_IEEE)}


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@lru_cache(maxsize=None)
def _crc_table(params: CrcParams) -> tuple:
    top = 1 << (params.width - 1)
    mask = (1 << params.width) - 1
    table = []
    for byte in range(256):
        if params.reflect_in:
            byte = _reflect(byte, 8)
        reg = byte << (params.width - 8) if params.width >= 8 \
            else byte >> (8 - params.width)
        for _ in range(8):
            if reg & top:
                reg = ((reg << 1) ^ params.polynomial) & mask
            else:
                reg = (reg << 1) & mask
        if params.reflect_in:
            # Table entries are stored pre-reflected so the byte loop
            # stays a single shift/xor in the reflected domain.
            reg = _reflect(reg, params.width)
        table.append(reg)
    return tuple(table)


def crc_compute(payload: bytes, params: CrcParams) -> int:
    """Table-driven CRC, bit-exact per the parameter set."""
    table = _crc_table(params)
    mask = (1 << params.width) - 1
    if params.reflect_in:
        # Reflected domain: register is kept output-reflected throughout.
        reg = _reflect(params.init, params.width)
        for b in payload:
            reg = (reg >> 8) ^ table[(reg ^ b) & 0xFF]
        if not params.reflect_out:
            reg = _reflect(reg, params.width)
    else:
        reg = params.init
        shift = params.width - 8
        for b in payload:
            reg = ((reg << 8) ^ table[((reg >> shift) ^ b) & 0xFF]) & mask
        if params.reflect_out:
            reg = _reflect(reg, params.width)
    return reg ^ params.xorout


def crc_check(payload: bytes, checksum: int, params: CrcParams) -> bool:
    return crc_compute(payload, params) == checksum


# Hamming(7,4), positional layout p1 p2 d1 p3 d2 d3 d4 (positions 1..7,
# position 1 is the most significant bit of the 7-bit word).  The
# syndrome equals the 1-based position of a single flipped bit.

def _bit(word: int, position: int) -> int:
    return (word >> (7 - position)) & 1


def hamming74_encode(data: int) -> int:
    """Encode a 4-bit value into a 7-bit codeword."""
    if not (0 <= data <= 0xF):
        raise ValueError("data must be a 4-bit value")
    d1 = (data >> 3) & 1
    d2 = (data >> 2) & 1
    d3 = (data >> 1) & 1
    d4 = data & 1
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4
    return (p1 << 6) | (p2 << 5) | (d1 << 4) | (p3 << 3) \
        | (d2 << 2) | (d3 << 1) | d4


def hamming74_decode(word: int) -> tuple[int, int | None]:
    """Decode a 7-bit word, correcting at most one flipped bit.

    Returns (data, corrected_position); position is None for a clean
    word, else the 1-based position that was flipped back.  Two flips
    miscorrect to a wrong nearby codeword; the code cannot tell.
    """
    if not (0 <= word <= 0x7F):
        raise ValueError("word must be a 7-bit value")
    s1 = _bit(word, 1) ^ _bit(word, 3) ^ _bit(word, 5) ^ _bit(word, 7)
    s2 = _bit(word, 2) ^ _bit(word, 3) ^ _bit(word, 6) ^ _bit(word, 7)
    s4 = _bit(word, 4) ^ _bit(word, 5) ^ _bit(word, 6) ^ _bit(word, 7)
    syndrome = (s4 << 2) | (s2 << 1) | s1
    position = None
    if syndrome:
        word ^= 1 << (7 - syndrome)
        position = syndrome
    data = (_bit(word, 3) << 3) | (_bit(word, 5) << 2) \
        | (_bit(word, 6) << 1) | _bit(word, 7)
    return data, position


# Byte-wide tables from the reference codec: a payload byte's high- and
# low-nibble codewords; a received word's corrected data nibble (shifted
# into the high half for the first word of a pair) and a 1 where a bit
# was flipped back.  Entries for bytes >= 0x80 are 0 and never read,
# because the byte decoder rejects such words first.
_ENC_HI = bytes(hamming74_encode(b >> 4) for b in range(256))
_ENC_LO = bytes(hamming74_encode(b & 0xF) for b in range(256))
_DECODED = [hamming74_decode(w) for w in range(0x80)] + [(0, None)] * 0x80
_DEC_HI = bytes(data << 4 for data, _ in _DECODED)
_DEC_LO = bytes(data for data, _ in _DECODED)
_FIXED = bytes(position is not None for _, position in _DECODED)
del _DECODED


def hamming74_encode_bytes(payload: bytes) -> bytes:
    """One codeword per nibble, high nibble first, one byte per codeword."""
    out = bytearray(2 * len(payload))
    out[0::2] = payload.translate(_ENC_HI)
    out[1::2] = payload.translate(_ENC_LO)
    return bytes(out)


def hamming74_decode_bytes(words: bytes) -> tuple[bytes, int]:
    """Inverse of hamming74_encode_bytes; returns (payload, corrections).

    Raises ValueError if a word's top bit is set (outside the 7-bit code).
    """
    if len(words) % 2:
        raise ValueError("odd number of codewords")
    if not words.isascii():
        raise ValueError("word must be a 7-bit value")
    n = len(words) // 2
    data = int.from_bytes(words[0::2].translate(_DEC_HI), "big") \
        | int.from_bytes(words[1::2].translate(_DEC_LO), "big")
    return data.to_bytes(n, "big"), words.translate(_FIXED).count(1)
