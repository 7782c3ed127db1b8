"""Keyed message authentication: HMAC over the built-in SHA-256.

The hash is the interpreter's own SHA-256, taken from its lean internal
module so that OpenSSL (which `hashlib` and `hmac` load) stays out of the
process; `vitalcode vectors` and the test suite check it against the
FIPS 180-4 and RFC 4231 known answers.  HMAC follows the FIPS 198 /
RFC 2104 construction with optional truncation to 8, 16 or 32 bytes; the
keyed inner and outer pad states are computed once per key (RFC 2104
section 4), not once per tag.
"""

from __future__ import annotations

# The interpreter's own C compare (what `hmac.compare_digest` falls back
# to), without the OpenSSL that importing `hmac` loads: its time does not
# depend on where the first mismatch lies, and inputs of unequal length
# compare unequal.
from _operator import _compare_digest as constant_time_equal

try:  # hashlib is heavy to load: try the lean internal module first
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

DIGEST_SIZE = 32
BLOCK_SIZE = 64

TAG_LENGTHS = (8, 16, 32)

MAC_KEY_ENV = "VITALCODE_MAC_KEY"

_TRANS_36 = bytes(x ^ 0x36 for x in range(256))
_TRANS_5C = bytes(x ^ 0x5C for x in range(256))


def hash_digest(message: bytes) -> bytes:
    """256-bit digest of the message."""
    return sha256(message).digest()


class MacKeyError(Exception):
    pass


class MacKey:
    """Shared secret for tag generation.

    Deliberately opaque: no repr of the key material, no serialization
    into reports or logs.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, material: bytes):
        if not isinstance(material, (bytes, bytearray)):
            raise MacKeyError("key material must be bytes")
        if len(material) > BLOCK_SIZE:
            material = hash_digest(material)
        block_key = bytes(material).ljust(BLOCK_SIZE, b"\x00")
        # Only the keyed pad states are kept, never the material itself.
        self._inner = sha256(block_key.translate(_TRANS_36))
        self._outer = sha256(block_key.translate(_TRANS_5C))

    @classmethod
    def from_hex(cls, text: str) -> "MacKey":
        try:
            material = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise MacKeyError(f"bad hex key: {exc}") from None
        if not material:  # a set but empty key must not mean "no secret"
            raise MacKeyError("bad hex key: no key material")
        return cls(material)

    def __repr__(self):
        return "MacKey(<secret>)"


def hmac_tag(key: MacKey, message: bytes, t: int = DIGEST_SIZE) -> bytes:
    """HMAC tag truncated to the leading t bytes."""
    if t not in TAG_LENGTHS:
        raise ValueError(f"tag length must be one of {TAG_LENGTHS}")
    inner = key._inner.copy()
    inner.update(message)
    outer = key._outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:t]
