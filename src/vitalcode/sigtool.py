"""Offline signature predetermination and PROM image handling.

Runs before deployment, in parallel with compilation: every variable of a
parsed program receives a random static signature, every instruction gets
one execution row carrying the compensation constants that keep the code
channel coherent, and the result is serialized into a byte-deterministic
PROM image.  The same rows are what `run_cycle` executes.  The image is
a function of (program, key, seed) only; the data the program will later
process never influences it.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

from .coded_core import CodeKey, CodedCoreError
from .dsl import (ADD, MOVE, MUL, SUB, DslError, ProgramIR,
                  canonical_ir_bytes, ir_from_canonical)
from .mac import hash_digest

PROM_MAGIC = b"VCPROM1"
PROM_VERSION = 1
_HEADER = struct.Struct(">7sBQQ32s")  # magic, version, key, seed, digest
_U32 = struct.Struct(">I")            # section lengths and counts


class SigtoolError(Exception):
    pass


class MissingSignatureError(SigtoolError):
    pass


class SeedRangeError(SigtoolError):
    """Signature seed outside [0, 2^64): it is stored as a u64."""


class PromFormatError(SigtoolError):
    pass


class BadMagicError(PromFormatError):
    pass


class VersionMismatchError(PromFormatError):
    pass


class DigestMismatchError(PromFormatError):
    pass


class TruncatedError(PromFormatError):
    pass


class IntegrityError(PromFormatError):
    """Image disagrees with its rebuild from (IR, key, seed), or its key or
    IR is ill-formed."""


class DuplicateSignatureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SignatureTable:
    """Per-variable static signatures for one program build."""

    signatures: dict[str, int]
    key: CodeKey
    seed: int
    program_digest: bytes


@dataclass(frozen=True)
class CodedProgram:
    """Program IR plus its offline-predetermined execution rows.

    `rows` holds one row per instruction, as built by `predetermine`.
    Derived on construction: `variables`, in canonical order;
    `sorted_variables`, the same names sorted (F3 draws its donors from
    these).
    """

    ir: ProgramIR
    rows: tuple[tuple, ...]
    variables: tuple = field(init=False, repr=False, compare=False)
    sorted_variables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.ir.variables())
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "sorted_variables", tuple(sorted(names)))


def _draw_signature(seed: int, name: str, key: CodeKey) -> int:
    # Deterministic per (seed, variable): one digest per draw, reduced
    # mod A.  Bias from the reduction is below 2^-200.
    material = hash_digest(b"vitalcode-signature\x00"
                           + seed.to_bytes(8, "big", signed=False)
                           + name.encode("utf-8"))
    return int.from_bytes(material, "big") % key.modulus


def assign_signatures(ir: ProgramIR, key: CodeKey, seed: int) -> SignatureTable:
    """Draw a uniform random signature for every variable of the program.

    Deterministic: the same (ir, key, seed) always yields a byte-identical
    table.  Duplicate signatures (unavoidable for small keys) raise a
    DuplicateSignatureWarning but do not fail.
    """
    if not 0 <= seed < 1 << 64:
        raise SeedRangeError(f"seed {seed} outside [0, 2^64)")
    signatures = {name: _draw_signature(seed, name, key)
                  for name in ir.variables()}
    by_value: dict[int, list[str]] = {}
    for name, sig in signatures.items():
        by_value.setdefault(sig, []).append(name)
    duplicates = {sig: names for sig, names in by_value.items()
                  if len(names) > 1}
    if duplicates:
        detail = "; ".join(f"{sig}: {', '.join(names)}"
                           for sig, names in sorted(duplicates.items()))
        warnings.warn(f"duplicate signatures ({detail})",
                      DuplicateSignatureWarning, stacklevel=2)
    return SignatureTable(signatures=signatures, key=key, seed=seed,
                          program_digest=hash_digest(canonical_ir_bytes(ir)))


def predetermine(ir: ProgramIR, table: SignatureTable) -> CodedProgram:
    """Compute every instruction's execution row offline.

    A row is (opcode, dest, src1, src2, kappa_sig, src1_sig, src2_sig,
    dest_sig): the instruction plus the signature-only residues of its
    compensation constants, 0 in the slots its opcode does not use.
    They depend only on the signature table, never on runtime data;
    `run_cycle` folds in the cycle-date term D:
      ADD:  kappa = kappa_sig - D      (kappa_sig = B3 - B1 - B2)
      SUB:  kappa = kappa_sig + D      (kappa_sig = B3 - B1 + B2)
      MOVE: kappa = kappa_sig          (kappa_sig = B_dst - B_src)
      MUL:  t1 = src1_sig + D, t2 = src2_sig + D,
            km = dest_sig + D - t1*t2
    """
    a = table.key.modulus
    sigs = table.signatures
    rows = []
    for ins in ir.instructions:
        op, dest, src1, src2 = ins.opcode, ins.dest, ins.src1, ins.src2
        for name in (dest, src1, src2):
            if name is not None and name not in sigs:
                raise MissingSignatureError(f"no signature for {name!r}")
        if op == MUL:
            rows.append((op, dest, src1, src2, 0, sigs[src1], sigs[src2],
                         sigs[dest]))
            continue
        if op == ADD:
            kappa = sigs[dest] - sigs[src1] - sigs[src2]
        elif op == SUB:
            kappa = sigs[dest] - sigs[src1] + sigs[src2]
        else:
            kappa = sigs[dest] - sigs[src1]
        rows.append((op, dest, src1, src2, kappa % a, 0, 0, 0))
    return CodedProgram(ir, tuple(rows))


def build(ir: ProgramIR, key: CodeKey, seed: int):
    """Convenience: signatures plus predetermined program in one call."""
    table = assign_signatures(ir, key, seed)
    return table, predetermine(ir, table)


_OPCODE_IDS = {ADD: 1, SUB: 2, MUL: 3, MOVE: 4}


def _section(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + payload


def emit_prom(table: SignatureTable, program: CodedProgram) -> bytes:
    """Serialize the PROM image.

    Layout (all integers big-endian, no padding): the `_HEADER` struct
    (magic "VCPROM1", version u8, key u64, seed u64, program digest of
    32 bytes), then three sections, each a `_U32` length and its bytes:
    canonical IR, signatures, and per row its opcode id and residues
    (kappa_sig, or for MUL src1_sig, src2_sig, dest_sig).
    """
    out = bytearray(_HEADER.pack(PROM_MAGIC, PROM_VERSION,
                                 table.key.modulus, table.seed,
                                 table.program_digest))
    out += _section(canonical_ir_bytes(program.ir))

    sig_payload = bytearray()
    sig_payload += _U32.pack(len(table.signatures))
    for name in program.ir.variables():
        encoded = name.encode("utf-8")
        sig_payload += len(encoded).to_bytes(2, "big")
        sig_payload += encoded
        sig_payload += table.signatures[name].to_bytes(8, "big")
    out += _section(bytes(sig_payload))

    const_payload = bytearray()
    const_payload += _U32.pack(len(program.rows))
    for row in program.rows:
        const_payload.append(_OPCODE_IDS[row[0]])
        for residue in (row[5:] if row[0] == MUL else row[4:5]):
            const_payload += residue.to_bytes(8, "big")
    out += _section(bytes(const_payload))
    return bytes(out)


def load_prom(data: bytes) -> tuple[SignatureTable, CodedProgram]:
    """Parse and verify a PROM image.

    After the header checks, the loader rebuilds the image from the
    embedded (IR, key, seed) and requires it to equal `data` byte for
    byte, so a corrupted image never loads silently.
    """
    # Magic and version are judged on as many bytes as are present, so
    # a short file of the wrong kind is named as such, not as truncated.
    magic_len = len(PROM_MAGIC)
    if len(data) >= magic_len and data[:magic_len] != PROM_MAGIC:
        raise BadMagicError("not a PROM image")
    if len(data) > magic_len and data[magic_len] != PROM_VERSION:
        raise VersionMismatchError(f"unsupported version {data[magic_len]}")
    if len(data) < _HEADER.size:
        raise TruncatedError("image ends inside the header")
    _, _, modulus, seed, digest = _HEADER.unpack_from(data)

    try:
        key = CodeKey(modulus)
    except CodedCoreError as exc:
        raise IntegrityError(f"stored key invalid: {exc}") from None

    start = _HEADER.size + _U32.size
    if len(data) < start:
        raise TruncatedError("image ends inside the IR section length")
    end = start + _U32.unpack_from(data, _HEADER.size)[0]
    if len(data) < end:
        raise TruncatedError("image ends inside the IR section")
    ir_bytes = data[start:end]
    if hash_digest(ir_bytes) != digest:
        raise DigestMismatchError("program digest does not match IR section")
    try:
        ir = ir_from_canonical(ir_bytes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, seed)
    except (DslError, MissingSignatureError, ValueError) as exc:
        raise IntegrityError(f"bad canonical IR: {exc}") from None
    if emit_prom(table, program) != data:
        raise IntegrityError("image disagrees with its rebuild from "
                             "(IR, key, seed)")
    return table, program
