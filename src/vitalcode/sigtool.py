"""Offline signature predetermination and PROM image handling.

Runs before deployment, in parallel with compilation: every variable of a
parsed program receives a random static signature, every instruction gets
the compensation constants that keep the code channel coherent, and the
result is serialized into a byte-deterministic PROM image.  The image is
a function of (program, key, seed) only; the data the program will later
process never influences it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .coded_core import CodeKey, CodedCoreError
from .dsl import (ADD, MOVE, MUL, SUB, DslError, Instruction, ProgramIR,
                  canonical_ir_bytes, ir_from_canonical)
from .mac import hash_digest

PROM_MAGIC = b"VCPROM1"
PROM_VERSION = 1


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
class InstructionConstants:
    """Signature-only parts of one instruction's compensation constants.

    The cycle-date term is folded in at runtime:
      ADD:  kappa = kappa_sig - D      (kappa_sig = B3 - B1 - B2)
      SUB:  kappa = kappa_sig + D      (kappa_sig = B3 - B1 + B2)
      MOVE: kappa = kappa_sig          (kappa_sig = B_dst - B_src)
      MUL:  t1 = src1_sig + D, t2 = src2_sig + D,
            km = dest_sig + D - t1*t2
    """

    opcode: str
    kappa_sig: int = 0       # ADD / SUB / MOVE
    src1_sig: int = 0        # MUL only
    src2_sig: int = 0        # MUL only
    dest_sig: int = 0        # MUL only


def instruction_row(ins: Instruction, const: InstructionConstants) -> tuple:
    """One flat execution row: (opcode, dest, src1, src2, kappa_sig,
    src1_sig, src2_sig, dest_sig)."""
    return (ins.opcode, ins.dest, ins.src1, ins.src2, const.kappa_sig,
            const.src1_sig, const.src2_sig, const.dest_sig)


@dataclass(frozen=True)
class CodedProgram:
    """Program IR plus its offline-predetermined constants.

    Derived on construction: `rows`, one `instruction_row` per
    instruction; `variables`, in canonical order; `sorted_variables`,
    the same names sorted (F3 draws its donors from these).
    """

    ir: ProgramIR
    constants: tuple[InstructionConstants, ...]
    rows: tuple = field(init=False, repr=False, compare=False)
    variables: tuple = field(init=False, repr=False, compare=False)
    sorted_variables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.ir.variables())
        for attr, value in (
                ("rows", tuple(map(instruction_row, self.ir.instructions,
                                   self.constants))),
                ("variables", names),
                ("sorted_variables", tuple(sorted(names)))):
            object.__setattr__(self, attr, value)


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


def predetermine(ir: ProgramIR, table: SignatureTable,
                 key: CodeKey) -> CodedProgram:
    """Compute every instruction's compensation constants offline.

    Depends only on the signature table, never on runtime data.
    """
    a = key.modulus
    sigs = table.signatures
    constants = []
    for ins in ir.instructions:
        for name in (ins.dest, ins.src1, ins.src2):
            if name is not None and name not in sigs:
                raise MissingSignatureError(f"no signature for {name!r}")
        b_dst = sigs[ins.dest]
        b1 = sigs[ins.src1]
        if ins.opcode == ADD:
            constants.append(InstructionConstants(
                ADD, kappa_sig=(b_dst - b1 - sigs[ins.src2]) % a))
        elif ins.opcode == SUB:
            constants.append(InstructionConstants(
                SUB, kappa_sig=(b_dst - b1 + sigs[ins.src2]) % a))
        elif ins.opcode == MUL:
            constants.append(InstructionConstants(
                MUL, src1_sig=b1, src2_sig=sigs[ins.src2], dest_sig=b_dst))
        else:
            constants.append(InstructionConstants(
                MOVE, kappa_sig=(b_dst - b1) % a))
    return CodedProgram(ir=ir, constants=tuple(constants))


def build(ir: ProgramIR, key: CodeKey, seed: int):
    """Convenience: signatures plus predetermined program in one call."""
    table = assign_signatures(ir, key, seed)
    return table, predetermine(ir, table, key)


_OPCODE_IDS = {ADD: 1, SUB: 2, MUL: 3, MOVE: 4}


def _section(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def emit_prom(table: SignatureTable, program: CodedProgram) -> bytes:
    """Serialize the PROM image.

    Layout (all integers big-endian, no padding): magic "VCPROM1",
    version u8, key u64, seed u64, program digest (32 bytes), then three
    length-prefixed sections: canonical IR, signatures, per-instruction
    constants.
    """
    out = bytearray()
    out += PROM_MAGIC
    out.append(PROM_VERSION)
    out += table.key.modulus.to_bytes(8, "big")
    out += table.seed.to_bytes(8, "big")
    out += table.program_digest

    out += _section(canonical_ir_bytes(program.ir))

    sig_payload = bytearray()
    sig_payload += len(table.signatures).to_bytes(4, "big")
    for name in program.ir.variables():
        encoded = name.encode("utf-8")
        sig_payload += len(encoded).to_bytes(2, "big")
        sig_payload += encoded
        sig_payload += table.signatures[name].to_bytes(8, "big")
    out += _section(bytes(sig_payload))

    const_payload = bytearray()
    const_payload += len(program.constants).to_bytes(4, "big")
    for c in program.constants:
        const_payload.append(_OPCODE_IDS[c.opcode])
        if c.opcode == MUL:
            const_payload += c.src1_sig.to_bytes(8, "big")
            const_payload += c.src2_sig.to_bytes(8, "big")
            const_payload += c.dest_sig.to_bytes(8, "big")
        else:
            const_payload += c.kappa_sig.to_bytes(8, "big")
    out += _section(bytes(const_payload))
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"need {n} bytes at offset {self.pos}, have "
                f"{len(self.data) - self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def section(self) -> bytes:
        return self.take(self.u32())


def load_prom(data: bytes) -> tuple[SignatureTable, CodedProgram]:
    """Parse and verify a PROM image.

    After the header checks, the loader rebuilds the image from the
    embedded (IR, key, seed) and requires it to equal `data` byte for
    byte, so a corrupted image never loads silently.
    """
    r = _Reader(data)
    if r.take(len(PROM_MAGIC)) != PROM_MAGIC:
        raise BadMagicError("not a PROM image")
    version = r.u8()
    if version != PROM_VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    modulus = r.u64()
    seed = r.u64()
    digest = r.take(32)

    try:
        key = CodeKey(modulus)
    except CodedCoreError as exc:
        raise IntegrityError(f"stored key invalid: {exc}") from None

    ir_bytes = r.section()
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
