"""Arithmetic-coded data and the elementary operations that preserve it.

A coded value is the plain tuple (x, c): the functional integer x and
its code residue c = (x + B + D) mod A, where A is a prime code key, B a
per-variable static signature and D the cycle-date term, the integer
cycle counter mod A.  Dates A cycles apart alias, so data staler than
that is invisible to the date mechanism by construction.  Every
elementary operation (add, sub, mul, move) updates the code channel with
offline-precomputed compensation constants, each needed only up to
congruence mod A, so that a well-formed input yields a well-formed
output for the destination signature.  A corruption of either channel
survives an end check only if its delta happens to be a multiple of A.
"""

from __future__ import annotations

from dataclasses import dataclass

# The functional field is a 64-bit two's-complement word.
FUNCTIONAL_BITS = 64
INT64_MIN = -(1 << (FUNCTIONAL_BITS - 1))
INT64_MAX = (1 << (FUNCTIONAL_BITS - 1)) - 1

MIN_KEY = 3
MAX_KEY_BITS = 48


class CodedCoreError(Exception):
    pass


class NotPrimeError(CodedCoreError):
    """Code key candidate is composite."""


class OutOfRangeError(CodedCoreError):
    """Code key candidate outside [3, 2^48)."""


class FunctionalOverflow(CodedCoreError):
    """Functional result left the 64-bit signed range.

    Wrapping is never performed silently: a wrapped functional value with
    an unwrapped code residue would break the congruence invariant in a
    way the end check cannot see.
    """


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the listed bases are exact for n < 3.3e24,
    # far beyond the 48-bit key ceiling.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CodeKey:
    """Prime modulus of the arithmetic code, validated on construction."""

    modulus: int

    def __post_init__(self):
        if not (MIN_KEY <= self.modulus < (1 << MAX_KEY_BITS)):
            raise OutOfRangeError(f"key {self.modulus} outside [3, 2^48)")
        if not _is_prime(self.modulus):
            raise NotPrimeError(f"key {self.modulus} is not prime")

    @property
    def bit_width(self) -> int:
        """Bits of a code residue: residues lie in [0, modulus)."""
        return (self.modulus - 1).bit_length()


# Keys are built as make_key(modulus); CodeKey validates the modulus.
make_key = CodeKey


# A coded value is the plain pair (x, c): an exact tuple, because
# CPython builds and unpacks those without a call.
CodedValue = tuple[int, int]


def encode(x: int, signature: int, date: int, key: CodeKey) -> CodedValue:
    """Attach the code residue for a trusted plain value at cycle `date`."""
    if not (INT64_MIN <= x <= INT64_MAX):
        raise FunctionalOverflow(f"value {x} outside 64-bit signed range")
    return x, (x + signature + date) % key.modulus


def check(v: CodedValue, signature: int, date: int, key: CodeKey) -> bool:
    """True iff v is well-formed for the given signature and cycle date."""
    x, c = v
    return c == (x + signature + date) % key.modulus


# OPELs take their compensation constants as plain ints, range-test every
# functional result and reduce the code field once, so a constant need
# only be congruent to its residue mod A.
def opel_add(v1: CodedValue, v2: CodedValue, k: int,
             key: CodeKey) -> CodedValue:
    """Coded addition.

    k ≡ B3 - B1 - B2 - D (mod A).  The code field is computed from c1, c2
    and k only; the functional fields never enter the code channel.
    """
    (x1, c1), (x2, c2) = v1, v2
    x = x1 + x2
    if not INT64_MIN <= x <= INT64_MAX:
        raise FunctionalOverflow(f"result {x} outside 64-bit signed range")
    return x, (c1 + c2 + k) % key.modulus


def opel_sub(v1: CodedValue, v2: CodedValue, k: int,
             key: CodeKey) -> CodedValue:
    """Coded subtraction; k ≡ B3 - B1 + B2 + D (mod A)."""
    (x1, c1), (x2, c2) = v1, v2
    x = x1 - x2
    if not INT64_MIN <= x <= INT64_MAX:
        raise FunctionalOverflow(f"result {x} outside 64-bit signed range")
    return x, (c1 - c2 + k) % key.modulus


def opel_mul(v1: CodedValue, v2: CodedValue, t1: int, t2: int, km: int,
             key: CodeKey) -> CodedValue:
    """Coded multiplication.

    Residue codes are not multiplicatively closed under additive
    signatures, so the code channel consumes the functional values through
    the cross terms x1*t2 and x2*t1, with t1 ≡ B1 + D, t2 ≡ B2 + D and
    km ≡ B3 + D - t1*t2 (mod A).  A corruption of x1 by delta leaves a
    residual delta*c2 mod A in the end check, nonzero for prime A whenever
    c2 is not a multiple of A.
    """
    (x1, c1), (x2, c2) = v1, v2
    x = x1 * x2
    if not INT64_MIN <= x <= INT64_MAX:
        raise FunctionalOverflow(f"result {x} outside 64-bit signed range")
    return x, (c1 * c2 - x1 * t2 - x2 * t1 + km) % key.modulus


def opel_move(v: CodedValue, k: int, key: CodeKey) -> CodedValue:
    """Re-signature on assignment; k ≡ B_dst - B_src (mod A)."""
    x, c = v
    return x, (c + k) % key.modulus
