"""Channel protections against accidental corruption: parity, CRC,
Hamming(7,4) single-error correction.

CRC-32/IEEE is the interpreter's `binascii.crc32`; every other CRC is
linear algebra over GF(2): per payload length, w row masks and a
constant, and each output bit is one parity of the payload against its
row.  The Hamming byte codec is table-driven; its tables are built at
import from the per-word `hamming74_encode`/`hamming74_decode`, which
remain the reference.

The CRC follows the usual width/poly/init/xorout/reflect parameter model,
for any width from 1 to 32; two parameter sets are built in: "crc8-atm"
(poly 0x07, no reflection, its 8-bit residual makes undetected rates
measurable in small campaigns) and "crc32-ieee" (the reflected 0x04C11DB7
standard, anchored against the published check value 0xCBF43926 for
"123456789").
"""

from __future__ import annotations

from binascii import crc32
from dataclasses import dataclass
from functools import lru_cache


def parity_bit(payload: bytes) -> int:
    """Even parity: XOR of all payload bits."""
    return int.from_bytes(payload, "big").bit_count() & 1


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


@lru_cache(maxsize=64)
def _crc_rows(params: CrcParams, length: int) -> tuple[tuple[int, ...], int]:
    """The CRC of a `length`-byte payload as an affine map over GF(2):
    crc(m) = M·m ⊕ crc(0ᴸ) (Williams, "A Painless Guide to CRC Error
    Detection Algorithms", 1993), with m the payload read as one
    big-endian integer.  Returns the w row masks of M, row k giving
    output bit k as the parity of `m & row`, and the constant crc(0ᴸ).
    Rows hold public parameters only."""
    w, poly, n = params.width, params.polynomial, 8 * length
    top, mask, fmt = 1 << (w - 1), (1 << w) - 1, f"0{w}b"
    # Message bit t (processing order) leaves poly·x^(n-1-t) mod P in the
    # register: one zero-input step per later bit, so walk back from the
    # last bit; cols[i] is then the column of bit i of m.  The zero
    # message steps `init` n times.
    cols, col, reg = [], poly, params.init
    for _ in range(n):
        cols.append(col)
        col = ((col << 1) & mask) ^ (poly if col & top else 0)
        reg = ((reg << 1) & mask) ^ (poly if reg & top else 0)
    if params.reflect_in:  # each byte is read LSB first
        cols = [cols[i ^ 7] for i in range(n)]
    bits = "".join(format(c, fmt) for c in reversed(cols))
    rows = [int(bits[w - 1 - k::w] or "0", 2) for k in range(w)]
    if params.reflect_out:
        rows.reverse()
        reg = int(format(reg, fmt)[::-1], 2)
    return tuple(rows), reg ^ params.xorout


def crc_compute(payload: bytes, params: CrcParams) -> int:
    """CRC, bit-exact per the parameter set: the catalog's CRC-32/IEEE
    through the interpreter's `binascii.crc32`, every other set, an equal
    copy too, as w parities of the payload against `_crc_rows`."""
    if params is CRC32_IEEE:
        return crc32(payload)
    rows, crc = _crc_rows(params, len(payload))
    m = int.from_bytes(payload, "big")
    for k, row in enumerate(rows):
        crc ^= ((m & row).bit_count() & 1) << k
    return crc


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
