"""Straight-line arithmetic DSL: parser, three-address IR, interpreter,
and the cone of instructions the declared outputs depend on.

Source is UTF-8 text.  Only LF breaks a line and no token spans one, so
a token's position is its line's number and its place in the line.
Whitespace is space, tab, CR and LF; `#` comments run to the end of the
line.  INT is a run of ASCII digits 0-9, ID an ASCII name, and any
other character, a digit of another script too, is an error at its
`line:col`.  Grammar:

    program   : stmt*
    stmt      : "input" ID ";"
              | "const" ID "=" INT ";"
              | "output" ID ";"
              | ID "=" expr ";"
    expr      : term (("+" | "-") term)*
    term      : factor ("*" factor)*
    factor    : INT | ID | "(" expr ")" | "-" factor

Assignments desugar to ADD/SUB/MUL/MOVE three-address instructions with
fresh temporaries.  The body is executed once per cycle; there are no
branches or loops and every destination is assigned exactly once.

`interpret` is the plain reference semantics, the oracle that coded
execution is held to.  `output_cone` drops the instructions no declared
output depends on, so the oracle walks only what a cycle publishes; it
is a walk of its own, sharing nothing with the coded executor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

ADD = "ADD"
SUB = "SUB"
MUL = "MUL"
MOVE = "MOVE"

# Deepest nesting of parentheses and unary minus the parser accepts: it
# descends one level per nesting, so a deeper expression would otherwise
# exhaust the interpreter's stack.  Long sums and products need no depth.
MAX_NESTING = 200


class DslError(Exception):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Instruction:
    opcode: str
    dest: str
    src1: str
    src2: str | None = None  # None only for MOVE


@dataclass
class ProgramIR:
    """Validated straight-line program in three-address form."""

    inputs: list[str] = field(default_factory=list)
    consts: dict[str, int] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    instructions: list[Instruction] = field(default_factory=list)

    def variables(self) -> list[str]:
        """All variables in canonical (definition) order."""
        names = list(self.inputs)
        names.extend(self.consts)
        names.extend(ins.dest for ins in self.instructions)
        return names


_TOKEN_RE = re.compile(
    r"[ \t\r]+|#.*|(?P<kw>(?:input|const|output)(?![A-Za-z0-9_]))"
    r"|(?P<int>[0-9]+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[-+*=();])"
    r"|(?P<bad>.)")


class _Token(NamedTuple):
    kind: str  # "int", "id", "kw", "punct", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for row, line in enumerate(text.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "bad":
                raise DslError(f"unexpected character {m.group()!r}",
                               row, m.start() + 1)
            if kind:  # whitespace and comments match no named group
                tokens.append(_Token(kind, m.group(), row, m.start() + 1))
    tokens.append(_Token("eof", "", row, len(line) + 1))
    return tokens


class _Rules:
    """The four rules of every program, parsed from source or loaded from
    canonical IR: each name is defined once, each operand is defined
    before its use, each output is declared once, and each output is
    defined.  Outputs are recorded in `ir`; `finish` returns it."""

    def __init__(self, ir: ProgramIR):
        self.ir = ir
        self.defined: set[str] = set()
        self.declared: set[str] = set()  # ir.outputs, for O(1) lookup

    def define(self, name: str, line, col):
        if name in self.defined:
            raise DslError(f"variable {name!r} already defined", line, col)
        self.defined.add(name)

    def use(self, name: str, line, col):
        if name not in self.defined:
            raise DslError(f"undefined variable {name!r}", line, col)

    def output(self, name: str, line, col):
        if name in self.declared:
            raise DslError(f"output {name!r} declared twice", line, col)
        self.declared.add(name)
        self.ir.outputs.append(name)

    def finish(self) -> ProgramIR:
        for name in self.ir.outputs:
            if name not in self.defined:
                raise DslError(f"output {name!r} is never defined")
        return self.ir


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ir = ProgramIR()
        self.rules = _Rules(self.ir)
        self.temp_count = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise DslError(f"expected {want!r}, got {tok.text!r}",
                           tok.line, tok.col)
        return self.next()

    def parse(self) -> ProgramIR:
        while self.peek().kind != "eof":
            self.statement()
        return self.rules.finish()

    def statement(self):
        tok = self.peek()
        if tok.kind == "kw":
            self.next()
            if tok.text == "input":
                name = self.expect("id")
                self.rules.define(name.text, name.line, name.col)
                self.ir.inputs.append(name.text)
            elif tok.text == "const":
                name = self.expect("id")
                self.expect("punct", "=")
                value = self.int_literal()
                self.rules.define(name.text, name.line, name.col)
                self.ir.consts[name.text] = value
            else:  # output
                name = self.expect("id")
                self.rules.output(name.text, name.line, name.col)
            self.expect("punct", ";")
        elif tok.kind == "id":
            self.next()
            self.expect("punct", "=")
            node = self.expr()
            self.expect("punct", ";")
            self.rules.define(tok.text, tok.line, tok.col)
            self.flatten(node, dest=tok.text)
        else:
            raise DslError(f"expected statement, got {tok.text!r}",
                           tok.line, tok.col)

    def int_literal(self) -> int:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.next()
            return -self.int_value(self.expect("int"))
        return self.int_value(self.expect("int"))

    def int_value(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise DslError(f"integer literal of {len(tok.text)} digits is "
                           f"too long", tok.line, tok.col) from None

    # Expression AST nodes are ("op", opcode, left, right), ("var", name)
    # or ("lit", value).

    def expr(self):
        node = self.term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = ADD if self.next().text == "+" else SUB
            node = ("op", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.next()
            node = ("op", MUL, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return ("lit", self.int_value(tok))
        if tok.kind == "id":
            self.next()
            self.rules.use(tok.text, tok.line, tok.col)
            return ("var", tok.text)
        if tok.kind != "punct" or tok.text not in ("(", "-"):
            raise DslError(f"expected expression, got {tok.text!r}",
                           tok.line, tok.col)
        self.next()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING}",
                           tok.line, tok.col)
        if tok.text == "(":
            node = self.expr()
            self.expect("punct", ")")
        else:
            node = self.factor()
            if node[0] == "lit":
                node = ("lit", -node[1])
            else:  # unary minus on a non-literal desugars as 0 - x
                node = ("op", SUB, ("lit", 0), node)
        self.nesting -= 1
        return node

    def literal_var(self, value: int) -> str:
        name = f"$lit{value}"
        self.ir.consts.setdefault(name, value)
        return name

    def new_temp(self) -> str:
        name = f"$t{self.temp_count}"
        self.temp_count += 1
        return name

    def flatten(self, node, dest: str) -> None:
        """Emit three-address code computing `node` into `dest`.

        Each operation goes into a new temp, numbered before its operands,
        and is emitted after them.  The walk keeps its own stack of
        (operation, destination, operand names so far), so a sum of any
        length flattens without recursion."""
        if node[0] != "op":
            self.ir.instructions.append(
                Instruction(MOVE, dest, self.operand(node)))
            return
        stack = [(node, dest, [])]
        while stack:
            (_, opcode, left, right), dest, names = stack[-1]
            for child in (left, right)[len(names):]:
                if child[0] == "op":  # descend; come back for the rest
                    names.append(self.new_temp())
                    stack.append((child, names[-1], []))
                    break
                names.append(self.operand(child))
            else:
                stack.pop()
                self.ir.instructions.append(Instruction(opcode, dest, *names))

    def operand(self, leaf) -> str:
        """The name holding a literal's or a variable's value."""
        if leaf[0] == "lit":
            return self.literal_var(leaf[1])
        return leaf[1]


def parse_program(text: str) -> ProgramIR:
    """Parse DSL source into validated three-address IR."""
    return _Parser(text).parse()


def interpret(ir: ProgramIR, inputs: dict[str, int]) -> dict[str, int]:
    """Plain (uncoded) reference interpretation of the IR.

    Returns the values of declared outputs.  Serves as the independent
    oracle for coded execution; kept free of any code-channel machinery.
    """
    env: dict[str, int] = {}
    for name in ir.inputs:
        if name not in inputs:
            raise KeyError(f"missing input {name!r}")
        env[name] = int(inputs[name])
    env.update(ir.consts)
    for ins in ir.instructions:
        if ins.opcode == ADD:
            env[ins.dest] = env[ins.src1] + env[ins.src2]
        elif ins.opcode == SUB:
            env[ins.dest] = env[ins.src1] - env[ins.src2]
        elif ins.opcode == MUL:
            env[ins.dest] = env[ins.src1] * env[ins.src2]
        else:
            env[ins.dest] = env[ins.src1]
    return {name: env[name] for name in ir.outputs}


def output_cone(ir: ProgramIR) -> ProgramIR:
    """The program cut down to the instructions its declared outputs
    depend on, kept in IR order; inputs, constants and outputs are
    unchanged.  `interpret` gives the same outputs on it, walking fewer
    rows.

    One backward walk from the outputs: an instruction is kept when its
    destination is needed, and its operands are then needed too.  Each
    name is assigned once, so one pass from the last instruction is
    exact.
    """
    needed = set(ir.outputs)
    kept = []
    for ins in reversed(ir.instructions):
        if ins.dest in needed:
            kept.append(ins)
            needed.add(ins.src1)
            needed.add(ins.src2)  # None for a MOVE, never a name
    kept.reverse()
    return ProgramIR(list(ir.inputs), dict(ir.consts), list(ir.outputs),
                     kept)


def canonical_ir_bytes(ir: ProgramIR) -> bytes:
    """Deterministic flat encoding of the IR.

    Digested into PROM images; also embedded verbatim so the loader can
    reconstruct the program and re-verify the digest.
    """
    lines = []
    for name in ir.inputs:
        lines.append(f"input {name}")
    for name, value in ir.consts.items():
        lines.append(f"const {name} {value}")
    for name in ir.outputs:
        lines.append(f"output {name}")
    for ins in ir.instructions:
        if ins.opcode == MOVE:
            lines.append(f"MOVE {ins.dest} {ins.src1}")
        else:
            lines.append(f"{ins.opcode} {ins.dest} {ins.src1} {ins.src2}")
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def ir_from_canonical(data: bytes) -> ProgramIR:
    """Inverse of canonical_ir_bytes.

    Requires UTF-8 text that keeps the parser's four program rules,
    checked by the same `_Rules` methods with the same messages; anything
    else raises DslError.  Names are not checked against the grammar:
    `input 1x` loads.
    """
    ir = ProgramIR()
    rules = _Rules(ir)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DslError(f"not UTF-8 ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            raise DslError("blank line in canonical IR", lineno, 1)
        head = parts[0]
        if head == "input" and len(parts) == 2:
            rules.define(parts[1], lineno, 1)
            ir.inputs.append(parts[1])
        elif head == "const" and len(parts) == 3:
            try:
                value = int(parts[2])
            except ValueError:
                raise DslError("constant is not an integer",
                               lineno, 1) from None
            rules.define(parts[1], lineno, 1)
            ir.consts[parts[1]] = value
        elif head == "output" and len(parts) == 2:
            rules.output(parts[1], lineno, 1)
        elif ((head == MOVE and len(parts) == 3)
              or (head in (ADD, SUB, MUL) and len(parts) == 4)):
            for name in parts[2:]:
                rules.use(name, lineno, 1)
            rules.define(parts[1], lineno, 1)
            ir.instructions.append(Instruction(*parts))
        else:
            raise DslError(f"bad canonical IR line {line!r}", lineno, 1)
    return rules.finish()
