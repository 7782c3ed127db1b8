import warnings

import pytest
from hypothesis import given, settings, strategies as st

from vitalcode.coded_core import make_key
from vitalcode.dsl import (ADD, MOVE, MUL, Instruction, ProgramIR,
                          parse_program)
from vitalcode.mac import hash_digest
from vitalcode.sigtool import (PROM_MAGIC, PROM_VERSION, BadMagicError,
                               DigestMismatchError,
                               DuplicateSignatureWarning,
                               IntegrityError,
                               MissingSignatureError, PromFormatError,
                               SeedRangeError, SignatureTable,
                               TruncatedError, VersionMismatchError,
                               assign_signatures, build, emit_prom,
                               load_prom, predetermine)

A13 = make_key(13)

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
        with pytest.raises(SeedRangeError):
            assign_signatures(parse_program(SRC), A13, seed)

    def test_pigeonhole_duplicate_warning(self):
        lines = ["input x0;"] + [f"v{i} = x0 + {i};" for i in range(14)]
        ir = parse_program("\n".join(lines))
        assert len(ir.variables()) > 13
        with pytest.warns(DuplicateSignatureWarning):
            assign_signatures(ir, A13, seed=3)


class TestPredetermine:
    def test_add_constant(self):
        ir, table, program = quiet_build("input a; input b; out = a + b;",
                                         A13, 1)
        sigs = table.signatures
        row = program.rows[0]
        assert row[0] == ADD
        assert row[4] == (sigs["out"] - sigs["a"] - sigs["b"]) % 13

    def test_move_same_signature_is_zero(self):
        ir = parse_program("input a; out = a;")
        table = SignatureTable(signatures={"a": 5, "out": 5}, key=A13,
                               seed=0, program_digest=b"\0" * 32)
        program = predetermine(ir, table)
        assert program.rows == ((MOVE, "out", "a", None, 0, 0, 0, 0),)

    def test_mul_stores_signature_parts(self):
        ir = parse_program("input a; input b; out = a * b;")
        table = SignatureTable(signatures={"a": 5, "b": 2, "out": 4},
                               key=A13, seed=0, program_digest=b"\0" * 32)
        program = predetermine(ir, table)
        assert program.rows == ((MUL, "out", "a", "b", 0, 5, 2, 4),)

    def test_missing_signature(self):
        ir = parse_program("input a; out = a;")
        table = SignatureTable(signatures={"a": 5}, key=A13, seed=0,
                               program_digest=b"\0" * 32)
        with pytest.raises(MissingSignatureError):
            predetermine(ir, table)


class TestPromImage:
    def test_emit_deterministic(self):
        _, t1, p1 = quiet_build(SRC, A13, 1)
        _, t2, p2 = quiet_build(SRC, A13, 1)
        assert emit_prom(t1, p1) == emit_prom(t2, p2)

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

    def test_truncation_detected(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = emit_prom(table, program)
        ir_end = 60 + int.from_bytes(image[56:60], "big")
        for cut in range(len(image)):
            # Once the IR section is whole, the rebuild tells the rest.
            error = TruncatedError if cut < ir_end else IntegrityError
            with pytest.raises(PromFormatError) as caught:
                load_prom(image[:cut])
            assert type(caught.value) is error, cut

    def test_bad_magic(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = bytearray(emit_prom(table, program))
        image[0] ^= 0xFF
        for data in (bytes(image), b'{"speed": 17, "limit": 40}\n'):
            with pytest.raises(BadMagicError):
                load_prom(data)

    def test_version_mismatch(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = bytearray(emit_prom(table, program))
        image[7] = 99
        with pytest.raises(VersionMismatchError):
            load_prom(bytes(image))

    def test_every_single_byte_corruption_detected(self):
        _, table, program = quiet_build(SRC, A13, 1)
        image = emit_prom(table, program)
        for pos in range(len(image)):
            for flip in (0x01, 0x80):
                corrupt = bytearray(image)
                corrupt[pos] ^= flip
                with pytest.raises(PromFormatError):
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
        with pytest.raises(IntegrityError):
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
                 + 2 * ((4).to_bytes(4, "big") + bytes(4)))  # empty tables
        with pytest.raises(IntegrityError):
            load_prom(image)

    @pytest.mark.parametrize("ir", [
        ProgramIR(inputs=["a"], outputs=["z"]),            # z never defined
        ProgramIR(inputs=["a"], consts={"a": 5}, outputs=["a"]),
        ProgramIR(inputs=["a"], outputs=["a"],
                  instructions=[Instruction(ADD, "a", "a", "a")]),
        ProgramIR(inputs=["a"], outputs=["a", "a"]),
    ], ids=["undefined-output", "const-redefines-input",
            "instruction-redefines-input", "output-twice"])
    def test_ir_the_parser_never_emits(self, ir):
        # The digest is unkeyed, so build + emit_prom of a hand-made IR
        # gives an image whose digest and rebuild both match.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            image = emit_prom(*build(ir, A13, 0))
        with pytest.raises(IntegrityError):
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
    with pytest.raises(PromFormatError):
        load_prom(mutated)
