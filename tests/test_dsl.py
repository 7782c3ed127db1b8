import pytest
from hypothesis import given, strategies as st

from vitalcode.dsl import (ADD, MAX_NESTING, DslError,
                           DuplicateDefinitionError, Instruction, MOVE, MUL,
                           ParseError, SUB, UndefinedVariableError,
                           canonical_ir_bytes, interpret, ir_from_canonical,
                           parse_program)


class TestParse:
    def test_desugared_example(self):
        ir = parse_program("input a; input b; const k = 4; out = (a + b) * k;")
        assert ir.inputs == ["a", "b"]
        assert ir.consts == {"k": 4}
        assert ir.instructions == [
            Instruction(ADD, "$t0", "a", "b"),
            Instruction(MUL, "out", "$t0", "k"),
        ]

    def test_temps_numbered_before_their_operands(self):
        # Temps are numbered pre-order, instructions emitted post-order.
        ir = parse_program("input a; input b; o = ((a + b) * a) - (b - 2);")
        assert ir.instructions == [
            Instruction(ADD, "$t1", "a", "b"),
            Instruction(MUL, "$t0", "$t1", "a"),
            Instruction(SUB, "$t2", "b", "$lit2"),
            Instruction(SUB, "o", "$t0", "$t2"),
        ]

    @pytest.mark.parametrize("openers", ["(", "-", "-("],
                             ids=["parentheses", "unary-minus", "both"])
    def test_nesting_bound(self, openers):
        # "(" and "-" each open one level: MAX_NESTING levels parse, and
        # one more is a ParseError at the token that opens it.
        def source(levels):
            opened = (openers * levels)[:levels]
            return ("input a; output o;\no = " + opened + "a"
                    + ")" * opened.count("(") + ";")

        ir = parse_program(source(MAX_NESTING))
        sign = (-1) ** source(MAX_NESTING).count("-")
        assert interpret(ir, {"a": 5}) == {"o": sign * 5}
        with pytest.raises(ParseError) as exc:
            parse_program(source(MAX_NESTING + 1))
        assert (exc.value.line, exc.value.col) == (2, 5 + MAX_NESTING)

    def test_empty_body(self):
        ir = parse_program("input a;")
        assert ir.instructions == [] and ir.inputs == ["a"]

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariableError):
            parse_program("out = q + 1;")

    def test_duplicate_assignment(self):
        with pytest.raises(DuplicateDefinitionError):
            parse_program("input a; x = a; x = a;")

    def test_assignment_shadowing_input(self):
        with pytest.raises(DuplicateDefinitionError):
            parse_program("input a; a = 3;")

    def test_output_never_defined(self):
        with pytest.raises(UndefinedVariableError):
            parse_program("input a; output q;")

    def test_self_reference_is_undefined(self):
        with pytest.raises(UndefinedVariableError):
            parse_program("x = x + 1;")

    def test_comments_and_whitespace(self):
        ir = parse_program("# header\ninput a;  # trailing\n\n out = a; \n")
        assert ir.instructions == [Instruction(MOVE, "out", "a")]

    def test_literals_become_consts(self):
        ir = parse_program("input a; out = a + 1; other = a * -3;")
        assert ir.consts == {"$lit1": 1, "$lit-3": -3}

    def test_unary_minus_on_variable(self):
        ir = parse_program("input a; out = -a;")
        assert interpret(ir, {"a": 5}) == {}
        ir = parse_program("input a; output out; out = -a;")
        assert interpret(ir, {"a": 5}) == {"out": -5}

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("input a;\nout = a + ;")
        assert exc.value.line == 2 and exc.value.col is not None

    @pytest.mark.parametrize("source, col", [
        ("const k = " + "9" * 5000 + "; output k;", 11),
        ("const k = -" + "9" * 5000 + "; output k;", 12),
        ("input a; output o;\no = a * " + "9" * 5000 + ";", 9),
    ], ids=["const", "negative-const", "expression"])
    def test_overlong_literal_carries_position(self, source, col):
        # More digits than int() converts: a diagnostic, not a ValueError.
        with pytest.raises(ParseError) as exc:
            parse_program(source)
        assert (exc.value.line, exc.value.col) == (source.count("\n") + 1,
                                                   col)

    def test_precedence(self):
        ir = parse_program("input a; input b; output o; o = a + b * 2;")
        assert interpret(ir, {"a": 1, "b": 3}) == {"o": 7}

    @given(st.text(max_size=60))
    def test_parser_total_on_arbitrary_text(self, text):
        # Any input yields IR or a positioned diagnostic, never a crash.
        try:
            parse_program(text)
        except DslError:
            pass

    @given(st.binary(max_size=60))
    def test_parser_total_on_arbitrary_bytes(self, data):
        try:
            parse_program(data.decode("utf-8", errors="replace"))
        except DslError:
            pass


class TestInterpret:
    def test_arithmetic(self):
        ir = parse_program(
            "input a; input b; output s; output p;"
            "s = a - b; p = (a + 1) * (b - 2);")
        assert interpret(ir, {"a": 10, "b": 4}) == {"s": 6, "p": 22}

    def test_missing_input(self):
        ir = parse_program("input a; output o; o = a;")
        with pytest.raises(KeyError):
            interpret(ir, {})


class TestCanonicalForm:
    def test_round_trip(self):
        ir = parse_program(
            "input a; const k = -7; output o; t = a * k; o = t + 1;")
        again = ir_from_canonical(canonical_ir_bytes(ir))
        assert again == ir

    def test_deterministic(self):
        src = "input a; output o; o = a * 3;"
        assert canonical_ir_bytes(parse_program(src)) == \
            canonical_ir_bytes(parse_program(src))

    def test_empty_program(self):
        assert canonical_ir_bytes(parse_program("")) == b""
