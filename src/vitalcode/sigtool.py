"""Offline signature predetermination and PROM image handling.

Runs before deployment, in parallel with compilation: every variable of a
parsed program receives a random static signature, every instruction gets
one execution row carrying the compensation constants that keep the code
channel coherent, and the result is serialized into a byte-deterministic
PROM image.  The image (layout version 2) holds each fact once: names and
opcodes in its canonical IR, then only the 8-byte signatures and row
residues.  `run_cycle` compiles its cycle from the same rows on the
program's first cycle.  The image is a function of (program, key, seed)
only; the data the program will later process never influences it.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

from .coded_core import CodeKey, CodedCoreError
from .dsl import (ADD, MUL, SUB, DslError, ProgramIR, canonical_ir_bytes,
                  ir_from_canonical)
from .mac import hash_digest

PROM_MAGIC = b"VCPROM1"
PROM_VERSION = 2
_HEADER = struct.Struct(">7sBQQ32s")  # magic, version, key, seed, digest
_U32 = struct.Struct(">I")            # section lengths


class SigtoolError(Exception):
    """A seed outside [0, 2^64), a variable without a signature, or a PROM
    image that is malformed or disagrees with its rebuild."""


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

    `rows` holds one row per instruction of `ir.instructions`, as built
    by `predetermine`: only the residues, which are exactly the PROM's
    constants; the opcode and operands are read from the IR.  Derived
    on construction: `variables`, in canonical order;
    `sorted_variables`, the same names sorted (F3 draws its donors from
    these); `index`, each name's position in `variables`.  `compiled`
    is None until the first `run_cycle` compiles the cycle into it.
    """

    ir: ProgramIR
    rows: tuple[tuple, ...]
    variables: tuple = field(init=False, repr=False, compare=False)
    sorted_variables: tuple = field(init=False, repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)
    compiled: object = field(init=False, repr=False, compare=False,
                             default=None)

    def __post_init__(self):
        names = tuple(self.ir.variables())
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "sorted_variables", tuple(sorted(names)))
        object.__setattr__(self, "index",
                           {name: i for i, name in enumerate(names)})


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
        raise SigtoolError(f"seed {seed} outside [0, 2^64)")
    signatures = {name: _draw_signature(seed, name, key)
                  for name in ir.variables()}
    by_value: dict[int, list[str]] = {}
    for name, sig in signatures.items():
        by_value.setdefault(sig, []).append(name)
    groups = [names for _, names in sorted(by_value.items())
              if len(names) > 1]
    if groups:
        # A count and the first three groups, each cut to three names:
        # a long program at a small key has hundreds of groups.
        shown = "; ".join(", ".join(names[:3]) + ", ..." * (len(names) > 3)
                          for names in groups[:3])
        warnings.warn(f"{len(groups)} duplicate signatures shared by "
                      f"{sum(map(len, groups))} variables ({shown}"
                      f"{'; ...' * (len(groups) > 3)})",
                      DuplicateSignatureWarning, stacklevel=2)
    return SignatureTable(signatures=signatures, key=key, seed=seed,
                          program_digest=hash_digest(canonical_ir_bytes(ir)))


def predetermine(ir: ProgramIR, table: SignatureTable) -> CodedProgram:
    """Compute every instruction's execution row offline.

    A row holds the signature-only residues of the instruction's
    compensation constants, exactly as the PROM stores them: (kappa_sig,)
    for ADD, SUB and MOVE, (src1_sig, src2_sig, dest_sig) for MUL.  They
    depend only on the signature table, never on runtime data;
    `run_cycle`'s compiled cycle folds in the cycle-date term D:
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
                raise SigtoolError(f"no signature for {name!r}")
        if op == MUL:
            rows.append((sigs[src1], sigs[src2], sigs[dest]))
            continue
        kappa = sigs[dest] - sigs[src1]
        if op == ADD:
            kappa -= sigs[src2]
        elif op == SUB:
            kappa += sigs[src2]
        rows.append((kappa % a,))
    return CodedProgram(ir, tuple(rows))


def build(ir: ProgramIR, key: CodeKey, seed: int):
    """Convenience: signatures plus predetermined program in one call."""
    table = assign_signatures(ir, key, seed)
    return table, predetermine(ir, table)


def _section(values) -> bytes:
    """A `_U32` byte length, then each value as a big-endian u64."""
    return _U32.pack(8 * len(values)) + struct.pack(f">{len(values)}Q",
                                                    *values)


def emit_prom(table: SignatureTable, program: CodedProgram) -> bytes:
    """Serialize the PROM image, layout version 2.

    All integers are big-endian, with no padding: the `_HEADER` struct
    (magic "VCPROM1", version u8, key u64, seed u64, program digest of
    32 bytes), then three sections, each a `_U32` byte length and its
    bytes: the canonical IR; each variable's u64 signature, in
    `program.variables` order; and each row's u64 residues, in IR
    order (kappa_sig, or for MUL src1_sig, src2_sig, dest_sig).  Names
    and opcodes are stored once, in the IR.
    """
    ir_bytes = canonical_ir_bytes(program.ir)
    return b"".join((
        _HEADER.pack(PROM_MAGIC, PROM_VERSION, table.key.modulus,
                     table.seed, table.program_digest),
        _U32.pack(len(ir_bytes)), ir_bytes,
        _section([table.signatures[name] for name in program.variables]),
        _section([r for row in program.rows for r in row])))


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
        raise SigtoolError("not a PROM image")
    if len(data) > magic_len and data[magic_len] != PROM_VERSION:
        raise SigtoolError(f"unsupported version {data[magic_len]}")
    if len(data) < _HEADER.size:
        raise SigtoolError("image ends inside the header")
    _, _, modulus, seed, digest = _HEADER.unpack_from(data)

    try:
        key = CodeKey(modulus)
    except CodedCoreError as exc:
        raise SigtoolError(f"stored key invalid: {exc}") from None

    start = _HEADER.size + _U32.size
    if len(data) < start:
        raise SigtoolError("image ends inside the IR section length")
    end = start + _U32.unpack_from(data, _HEADER.size)[0]
    if len(data) < end:
        raise SigtoolError("image ends inside the IR section")
    ir_bytes = data[start:end]
    if hash_digest(ir_bytes) != digest:
        raise SigtoolError("program digest does not match IR section")
    try:
        ir = ir_from_canonical(ir_bytes)
    except DslError as exc:
        raise SigtoolError(f"bad canonical IR: {exc}") from None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        table, program = build(ir, key, seed)
    if emit_prom(table, program) != data:
        raise SigtoolError("image disagrees with its rebuild from "
                           "(IR, key, seed)")
    return table, program
