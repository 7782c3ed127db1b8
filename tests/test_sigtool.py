import warnings

import pytest
from hypothesis import given, settings, strategies as st

from helpers import MIXED_PROGRAM
from vitalcode.coded_core import make_key
from vitalcode.dsl import (ADD, MOVE, MUL, SUB, Instruction, ProgramIR,
                          canonical_ir_bytes, parse_program)
from vitalcode.mac import hash_digest
from vitalcode.sigtool import (PROM_MAGIC, PROM_VERSION,
                               DuplicateSignatureWarning, SigtoolError,
                               SignatureTable, assign_signatures, build,
                               emit_prom, load_prom, predetermine)

A13 = make_key(13)

# Every way load_prom refuses an image.
LOAD_REFUSAL = (r"^(not a PROM image|unsupported version|image ends inside"
                r"|stored key invalid|program digest does not match"
                r"|bad canonical IR|image disagrees with its rebuild)")

SRC = "input a; input b; const k = 4; output out; out = (a + b) * k;"


def quiet_build(src, key, seed):
    ir = parse_program(src)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        return (ir, *build(ir, key, seed))


class TestAssignSignatures:
    def test_deterministic(self):
        ir = parse_program(SRC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            t1 = assign_signatures(ir, A13, seed=1)
            t2 = assign_signatures(ir, A13, seed=1)
        assert t1 == t2

    def test_covers_every_variable(self):
        ir = parse_program(SRC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table = assign_signatures(ir, A13, seed=1)
        assert set(table.signatures) == {"a", "b", "k", "$t0", "out"}
        assert all(0 <= s < 13 for s in table.signatures.values())

    def test_seed_changes_table(self):
        ir = parse_program(SRC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            base = assign_signatures(ir, A13, seed=1)
            for seed in range(2, 12):
                if assign_signatures(ir, A13, seed).signatures != \
                        base.signatures:
                    break
            else:
                pytest.fail("ten reseeds never changed the table")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(SigtoolError, match=r"^seed -?\d+ outside "
                                               r"\[0, 2\^64\)$"):
            assign_signatures(parse_program(SRC), A13, seed)

    def test_pigeonhole_duplicate_warning(self):
        lines = ["input x0;"] + [f"v{i} = x0 + {i};" for i in range(14)]
        ir = parse_program("\n".join(lines))
        assert len(ir.variables()) > 13
        with pytest.warns(DuplicateSignatureWarning):
            assign_signatures(ir, A13, seed=3)

    def test_duplicate_warning_is_bounded(self):
        # A legitimate long program at a small key: the warning counts the
        # groups and shows the first three, instead of every group.
        ir = parse_program("input a; output o; o = "
                           + " + ".join(["a"] * 500) + ";")
        with pytest.warns(DuplicateSignatureWarning) as record:
            table = assign_signatures(ir, make_key(251), seed=0)
        sigs = list(table.signatures.values())
        groups = sum(sigs.count(s) > 1 for s in set(sigs))
        message = str(record[0].message)
        assert groups > 3 and len(message) < 300, message
        assert message.startswith(f"{groups} duplicate signatures "), message
        assert record[0].filename == __file__  # blamed on the caller


class TestPredetermine:
    def test_add_constant(self):
        ir, table, program = quiet_build("input a; input b; out = a + b;",
                                         A13, 1)
        sigs = table.signatures
        assert ir.instructions[0].opcode == ADD
        assert program.rows == (((sigs["out"] - sigs["a"] - sigs["b"]) % 13,),)

    def test_move_same_signature_is_zero(self):
        ir = parse_program("input a; out = a;")
        table = SignatureTable(signatures={"a": 5, "out": 5}, key=A13,
                               seed=0, program_digest=b"\0" * 32)
        program = predetermine(ir, table)
        assert ir.instructions == [Instruction(MOVE, "out", "a")]
        assert program.rows == ((0,),)

    def test_mul_stores_signature_parts(self):
        ir = parse_program("input a; input b; out = a * b;")
        table = SignatureTable(signatures={"a": 5, "b": 2, "out": 4},
                               key=A13, seed=0, program_digest=b"\0" * 32)
        program = predetermine(ir, table)
        assert ir.instructions == [Instruction(MUL, "out", "a", "b")]
        assert program.rows == ((5, 2, 4),)

    def test_missing_signature(self):
        ir = parse_program("input a; out = a;")
        table = SignatureTable(signatures={"a": 5}, key=A13, seed=0,
                               program_digest=b"\0" * 32)
        with pytest.raises(SigtoolError, match="^no signature for 'out'$"):
            predetermine(ir, table)


class TestPromImage:
    def test_emit_deterministic(self):
        _, t1, p1 = quiet_build(SRC, A13, 1)
        _, t2, p2 = quiet_build(SRC, A13, 1)
        assert emit_prom(t1, p1) == emit_prom(t2, p2)

    def test_formatting_does_not_change_the_image(self):
        # Line endings, tabs, blank lines and comments, even ones holding
        # `;`, are not part of the program: each copy signs to one image.
        guard = ("input speed; input limit;\nconst margin = 3;\n"
                 "output slack;\nslack = (limit - speed) + margin;\n")
        reflowed = ("# overspeed guard; one output\n\n"
                    "input\tspeed;\n\tinput limit;  # ; not a statement\n\n"
                    "const margin\t=\t3;\n\n"
                    "output slack ;   #;;\n"
                    "slack =\n\t(limit - speed)  # ; still one statement\n"
                    "\t+ margin\n;\n")
        key = make_key(251)
        builds = [quiet_build(src, key, 4) for src in
                  (guard, guard.replace("\n", "\r\n"), reflowed)]
        assert len({canonical_ir_bytes(ir) for ir, _, _ in builds}) == 1
        assert len({emit_prom(table, program)
                    for _, table, program in builds}) == 1

    def test_image_independent_of_program_data(self):
        # Signatures depend on the program text, never on the data it
        # later processes; nothing else to vary here by construction,
        # so re-emitting across interpreter runs must agree bytewise.
        _, table, program = quiet_build(SRC, A13, 1)
        images = {emit_prom(table, program) for _ in range(10)}
        assert len(images) == 1

    def test_round_trip(self):
        _, table, program = quiet_build(SRC, A13, 1)
        loaded_table, loaded_program = load_prom(emit_prom(table, program))
        assert loaded_table == table
        assert loaded_program == program

    @pytest.mark.parametrize("modulus", [13, 2**31 - 1])
    def test_rows_are_the_image_constants(self, modulus):
        # Past the IR, the image holds only u64s: the signatures in
        # canonical order, then each row's residues in IR order.
        ir, table, program = quiet_build(MIXED_PROGRAM, make_key(modulus), 6)
        image = emit_prom(table, program)
        sigs_at, consts_at = section_offsets(image)[1:]

        def u64s(start):
            end = start + 4 + int.from_bytes(image[start:start + 4], "big")
            return end, [int.from_bytes(image[pos:pos + 8], "big")
                         for pos in range(start + 4, end, 8)]

        end, stored_sigs = u64s(sigs_at)
        assert end == consts_at
        assert stored_sigs == [table.signatures[name]
                               for name in ir.variables()]
        end, stored_consts = u64s(consts_at)
        assert end == len(image)
        assert stored_consts == [r for row in program.rows for r in row]
        assert {ins.opcode for ins in ir.instructions} == {ADD, SUB, MUL,
                                                           MOVE}
        assert all(type(r) is int for row in program.rows for r in row)

    def test_truncation_detected(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = emit_prom(table, program)
        ir_end = 60 + int.from_bytes(image[56:60], "big")
        for cut in range(len(image)):
            # Once the IR section is whole, the rebuild tells the rest.
            error = ("^image ends inside" if cut < ir_end
                     else "^image disagrees with its rebuild")
            with pytest.raises(SigtoolError, match=error):
                load_prom(image[:cut])

    def test_bad_magic(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = bytearray(emit_prom(table, program))
        image[0] ^= 0xFF
        for data in (bytes(image), b'{"speed": 17, "limit": 40}\n'):
            with pytest.raises(SigtoolError, match="^not a PROM image$"):
                load_prom(data)

    def test_version_mismatch(self):
        # Images of layout 1 are refused, not migrated.
        _, table, program = quiet_build(SRC, A13, 1)
        image = bytearray(emit_prom(table, program))
        for version in (1, 99):
            image[7] = version
            with pytest.raises(SigtoolError,
                               match=f"^unsupported version {version}$"):
                load_prom(bytes(image))

    def test_every_single_byte_corruption_detected(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = emit_prom(table, program)
        for pos in range(len(image)):
            for flip in (0x01, 0x80):
                corrupt = bytearray(image)
                corrupt[pos] ^= flip
                with pytest.raises(SigtoolError, match=LOAD_REFUSAL):
                    load_prom(bytes(corrupt))

    def test_big_key_round_trip(self):
        key = make_key(2**31 - 1)
        _, table, program = quiet_build(SRC, key, 42)
        loaded_table, loaded_program = load_prom(emit_prom(table, program))
        assert loaded_table == table and loaded_program == program

    @pytest.mark.parametrize("section", [1, 2])  # signatures, constants
    def test_junk_inside_section_detected(self, section):
        _, table, program = quiet_build(SRC, A13, 1)
        image = emit_prom(table, program)
        start = section_offsets(image)[section]
        length = int.from_bytes(image[start:start + 4], "big")
        end = start + 4 + length
        bumped = (image[:start] + (length + 3).to_bytes(4, "big")
                  + image[start + 4:end] + b"\x00\x01\x02" + image[end:])
        with pytest.raises(SigtoolError,
                           match="^image disagrees with its rebuild"):
            load_prom(bumped)

    @pytest.mark.parametrize("ir_bytes", [
        b"ADD out a b\n",         # operands never defined
        b"input \xff\n",          # not UTF-8
        b"const k x\n",           # not an integer
        b"NOP a\n",
    ])
    def test_ill_formed_ir_with_matching_digest(self, ir_bytes):
        image = (PROM_MAGIC + bytes([PROM_VERSION])
                 + (13).to_bytes(8, "big") + (0).to_bytes(8, "big")
                 + hash_digest(ir_bytes)
                 + len(ir_bytes).to_bytes(4, "big") + ir_bytes
                 + 2 * bytes(4))  # empty sections
        with pytest.raises(SigtoolError, match="^bad canonical IR: "):
            load_prom(image)

    @pytest.mark.parametrize("ir, message", [
        (ProgramIR(inputs=["a"], outputs=["z"]),
         "output 'z' is never defined"),
        (ProgramIR(inputs=["a"], consts={"a": 5}, outputs=["a"]),
         "2:1: variable 'a' already defined"),
        (ProgramIR(inputs=["a"], outputs=["a"],
                   instructions=[Instruction(ADD, "a", "a", "a")]),
         "3:1: variable 'a' already defined"),
        (ProgramIR(inputs=["a"], outputs=["a", "a"]),
         "3:1: output 'a' declared twice"),
        (ProgramIR(inputs=["a"], outputs=["b"],
                   instructions=[Instruction(ADD, "b", "a", "c"),
                                 Instruction(MOVE, "c", "a")]),
         "3:1: undefined variable 'c'"),
    ], ids=["undefined-output", "const-redefines-input",
            "instruction-redefines-input", "output-twice",
            "operand-before-its-definition"])
    def test_ir_the_parser_never_emits(self, ir, message):
        # The digest is unkeyed, so build + emit_prom of a hand-made IR
        # gives an image whose digest and rebuild both match.  The loader
        # keeps the parser's rules, so it names the break as the parser
        # does.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            image = emit_prom(*build(ir, A13, 0))
        with pytest.raises(SigtoolError,
                           match=f"^bad canonical IR: {message}$"):
            load_prom(image)


def section_offsets(image: bytes) -> list[int]:
    """Offsets of the IR, signatures and constants length prefixes."""
    offsets = [len(PROM_MAGIC) + 1 + 8 + 8 + 32]
    for _ in range(2):
        start = offsets[-1]
        offsets.append(start + 4 + int.from_bytes(image[start:start + 4],
                                                  "big"))
    return offsets


def _mutations(image: bytes):
    n = len(image)
    flip = st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
        lambda t: image[:t[0]] + bytes([image[t[0]] ^ t[1]])
        + image[t[0] + 1:])
    truncate = st.integers(0, n - 1).map(lambda cut: image[:cut])
    insert = st.tuples(st.integers(0, n),
                       st.binary(min_size=1, max_size=4)).map(
        lambda t: image[:t[0]] + t[1] + image[t[0]:])

    def edit_length(choice):
        section, delta = choice
        start = section_offsets(image)[section]
        old = int.from_bytes(image[start:start + 4], "big")
        new = (old + delta) % (1 << 32)
        return image[:start] + new.to_bytes(4, "big") + image[start + 4:]

    length = st.tuples(st.integers(0, 2),
                       st.integers(1, (1 << 32) - 1)
                       | st.integers(-8, 8).filter(bool)).map(edit_length)
    return st.one_of(flip, truncate, insert, length)


_, _TABLE, _PROGRAM = quiet_build(SRC, A13, 1)
_IMAGE = emit_prom(_TABLE, _PROGRAM)


@given(_mutations(_IMAGE))
@settings(max_examples=200, deadline=None)
def test_any_mutation_is_prom_format_error(mutated):
    with pytest.raises(SigtoolError, match=LOAD_REFUSAL):
        load_prom(mutated)
