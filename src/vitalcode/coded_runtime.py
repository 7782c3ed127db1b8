"""Cyclic execution of a coded program with end-of-cycle checks,
plus the accidental-fault injection engine and campaign runner.

A cycle encodes the inputs and constants at the current date (a trusted
boundary), runs every instruction as its coded elementary operation
(OPEL), and finally checks each declared output against its PROM
signature and the date.  Any failed check suppresses output publication
for the cycle (fail-safe contract).

The program is straight-line and fixed when it is signed, so its cycle
is one generated Python function, compiled on the program's first cycle
and kept on it: two locals per variable, its functional field and its
code field, and per instruction in IR order the formula of its OPEL in
`coded_core`, written inline and reading that instruction's row of
residues, then the end strike and each output's check inline.  Only
those checks read a code field, so only a variable whose code field
reaches a declared output's check keeps one; every variable keeps its
functional field, whose overflow is a safe halt.  Every OPEL cancels
the date D, so every code field holds c - D, reduced lazily, and only a
strike and a check add D back.  The `coded_core` OPELs and `check` stay
the reference arithmetic, and the tests hold the cycle to them.
Names, values and residues reach it as arguments, never as text, and
`dsl.interpret` stays the separately written oracle.

A `Fault` is armed against a program and key when it is built: the
constructor checks each selector that is set and keeps the candidates
of each one left unset, and a cycle then only draws from them.
`run_campaign` builds one fault per model and hands it to every trial.

Fault models (one mutation per trial).  `Fault.draw` makes every draw a
fault needs, before the cycle runs; `inject_fault` then maps the
target's coded value to the struck one from the armed fault alone, for
every model but F5, whose row `draw` patches:

  F1  flip one bit of a variable's functional field, right after the
      variable is defined
  F2  flip one bit of a variable's code field, right after definition
  F3  operand substitution: at cycle end an output's coded value is
      replaced by another variable's, taken where that one is defined
  F4  stale data: at cycle end an output's code field is replaced by the
      code the same value had at an earlier date
  F5  corrupt one compensation constant of one instruction before the
      cycle runs
  F6  replace both fields of one output at cycle end with a uniform
      random record, drawn with the output
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .coded_core import (FUNCTIONAL_BITS, INT64_MAX, INT64_MIN, CodeKey,
                         CodedValue)
from .dsl import ADD, MOVE, MUL, SUB, interpret, output_cone
from .sigtool import CodedProgram, SignatureTable
from .stats import (ConfigError, Outcomes, TrialStream, report_json,
                    run_trials, trial_rng)

ACCEPT = "accept"
REJECT = "reject"
SAFE_HALT = "safe_halt"

# CycleResult.reason of a reject and of a safe halt.
OUTPUT_INCOHERENT = "output_incoherent"
OVERFLOW = "overflow"

F1 = "F1"
F2 = "F2"
F3 = "F3"
F4 = "F4"
F5 = "F5"
F6 = "F6"

FAULT_MODELS = (F1, F2, F3, F4, F5, F6)


class UnresolvableTarget(Exception):
    """A fault names a variable, instruction, bit or model the program or
    key lacks, sets a selector its model does not read, or would strike
    nothing."""


@dataclass
class CycleResult:
    verdict: str
    outputs: dict[str, int] | None  # published only on accept
    reason: str | None = None       # OUTPUT_INCOHERENT or OVERFLOW
    variable: str | None = None     # the output, input, const or result


def _candidates(selected, candidates, allowed, what):
    """None if `selected` is set and allowed, else the non-empty
    `candidates` it is drawn from."""
    if selected is None:
        if not candidates:
            raise UnresolvableTarget(f"no candidate {what}")
        return candidates
    if selected not in allowed:
        raise UnresolvableTarget(f"no {what} {selected!r}")
    return None


# The selectors each model reads; setting any other one is refused.
_SELECTORS = {F1: ("variable", "bit"), F2: ("variable", "bit"),
              F3: ("variable", "donor"), F4: ("variable", "staleness"),
              F5: ("instruction",), F6: ("variable",)}


class Fault:
    """One accidental fault, armed against one program and key.

    Each cycle the fault strikes draws every selector left unset
    uniformly, and never changes one that was set, so one fault serves
    a campaign:
    F1/F2 pick any variable (and bit), struck right after its definition;
    F3/F4/F6 a declared output (F3 also a donor, F6 also the record
    it writes), struck at cycle end; F5 an instruction and the patch of
    its row, applied before the cycle runs.  `bit` addresses
    the functional field's two's-complement word for F1, in [0, 64), and
    the code residue for F2, in [0, key.bit_width).  `staleness` is
    F4's age in cycles, 1 when unset.

    The constructor checks every selector that is set and keeps the
    candidates of every one left unset.  It raises UnresolvableTarget,
    drawing nothing, for a selector its model does not read, for one
    outside its range and for a fault that would strike nothing: an F3
    `donor` that is or can be drawn as its target, or an F4 `staleness`
    below 1 (a staleness that is a positive multiple of A is allowed: it
    is a real fault that the code cannot see).  F3 sorts the variable
    names once, here, when its donor is unset.  `draw` then picks one
    cycle's selectors and leaves them in `variable`, `donor`,
    `instruction`, `bit` and, for F6, `record`, where `inject_fault`
    reads them; F3's first strike keeps its donor's value in `record`.
    """

    __slots__ = ("model", "variable", "donor", "instruction", "bit",
                 "staleness", "record", "_targets", "_bits", "_donors",
                 "_program", "_key")

    def __init__(self, model: str, program: CodedProgram, key: CodeKey, *,
                 variable: str | None = None, donor: str | None = None,
                 instruction: int | None = None, bit: int | None = None,
                 staleness: int | None = None):
        if model not in FAULT_MODELS:
            raise UnresolvableTarget(f"unknown fault model {model!r}")
        for selector, value in (("variable", variable), ("donor", donor),
                                ("instruction", instruction), ("bit", bit),
                                ("staleness", staleness)):
            if value is not None and selector not in _SELECTORS[model]:
                raise UnresolvableTarget(f"{model} reads no {selector}")
        if model == F4 and staleness is None:
            staleness = 1
        self.model, self.variable, self.donor = model, variable, donor
        self.instruction, self.bit = instruction, bit
        self.staleness, self.record = staleness, None
        self._program, self._key = program, key
        self._bits = self._donors = None
        names = program.index
        if model in (F1, F2):
            self._targets = _candidates(variable, program.variables, names,
                                        "variable")
            bits = range(FUNCTIONAL_BITS if model == F1 else key.bit_width)
            self._bits = _candidates(bit, bits, bits, "bit")
        elif model in (F3, F4, F6):
            # An explicit target need not be an output.
            targets = self._targets = _candidates(
                variable, program.ir.outputs, names, "variable")
            if model == F3 and donor is None:
                if len(names) < 2:
                    raise UnresolvableTarget("no candidate donor")
                self._donors = tuple(sorted(names))
            elif model == F3 and (donor not in names
                                  or donor in (targets or (variable,))):
                raise UnresolvableTarget(f"no donor {donor!r}")
            elif model == F4 and staleness < 1:
                raise UnresolvableTarget(f"no staleness {staleness!r}")
        else:  # F5
            indices = range(len(program.rows))
            self._targets = _candidates(instruction, indices, indices,
                                        "instruction")

    def draw(self, rng: TrialStream | None):
        """Make every draw of one cycle's fault from `rng` and return the
        rows the cycle runs, the index of the variable struck right after
        its definition (F3's donor) and the index of the one struck at
        cycle end, each -1 for none.  Nothing else draws for the fault.

        Draw order: F1/F2 variable, then bit; F3 output, then donor from
        the other variables in sorted order; F4 output; F5 instruction,
        then a MUL row's slot (src1_sig, src2_sig, dest_sig; a
        one-residue row draws none), then a uniform nonzero residue added
        to that slot; F6 output, then its record: the functional field
        `getrandbits(64) - 2**63`, then the code field `randrange(A)`.
        """
        targets, program = self._targets, self._program
        if self.model == F5:
            if targets is not None:
                self.instruction = rng.randrange(len(targets))
            i, a, rows = self.instruction, self._key.modulus, program.rows
            row = list(rows[i])
            slot = rng.randrange(len(row)) if len(row) > 1 else 0
            row[slot] = (row[slot] + rng.randrange(1, a)) % a
            return rows[:i] + (tuple(row),) + rows[i + 1:], -1, -1
        if targets is not None:
            self.variable = targets[rng.randrange(len(targets))]
        j = program.index[self.variable]
        if self.model in (F1, F2):
            if self._bits is not None:
                self.bit = rng.randrange(len(self._bits))
            return program.rows, j, -1
        self.record = None  # F3's donor value, kept by its first strike
        if self._donors is not None:
            # Uniform over the sorted variables other than the target.
            names = self._donors
            k = rng.randrange(len(names) - 1)
            self.donor = names[k + (k >= bisect_left(names, self.variable))]
        elif self.model == F6:
            x = rng.getrandbits(FUNCTIONAL_BITS) - (1 << (FUNCTIONAL_BITS - 1))
            self.record = x, rng.randrange(self._key.modulus)
        return program.rows, program.index.get(self.donor, -1), j

    def strike(self, value: CodedValue) -> CodedValue:
        """The compiled cycle's strike hook, after an F1/F2 target's or
        F3 donor's definition and at cycle end for F3/F4/F6."""
        return inject_fault(self, value)


def inject_fault(fault: Fault, value: CodedValue) -> CodedValue:
    """The struck value of a fault's target (F1-F4, F6).

    `fault` has drawn this cycle's selectors (`Fault.draw`); `value` is
    the coded value at the injection point.  F1 flips bit `fault.bit` of
    the functional field's 64-bit two's-complement word, F2 that bit of
    the code field; F3's first strike keeps the donor's value in
    `fault.record`, at its one definition and so as at cycle end, and
    returns it unchanged, and its second, on the target, returns that
    record; F4 returns the code the same value had `fault.staleness`
    dates ago, which on a well-formed value is its encoding at that
    date; F6 returns the record `draw` drew.  Nothing here draws.
    """
    x, c = value
    if fault.model == F1:
        word = (x & ((1 << FUNCTIONAL_BITS) - 1)) ^ (1 << fault.bit)
        if word >= 1 << (FUNCTIONAL_BITS - 1):
            word -= 1 << FUNCTIONAL_BITS
        return word, c
    if fault.model == F2:
        return x, c ^ (1 << fault.bit)
    if fault.model == F3 and fault.record is None:
        fault.record = value
    if fault.model == F4:
        return x, (c - fault.staleness) % fault._key.modulus
    return fault.record  # F3, F6


# The generated cycle.  Variable j is the pair of locals xj, cj (xj
# alone if it is not live), and its text is these templates filled with
# integers only: row i's residues are read from the `rows` argument.  A
# functional value outside the 64-bit range makes the cycle return j at
# once.  Every code field holds c - D, which is x + B mod A: the OPELs'
# date terms cancel, so only a strike and a check add the date d.
_HEAD = ("def cycle(inputs, consts, sigs, names, rows, d, a, hit, end, "
         "strike, int):")
_RANGE = f"if not {INT64_MIN} <= x{{j}} <= {INT64_MAX}: return {{j}}"
# Inputs and constants are encoded as `coded_core.encode` does, less D.
_INPUT = "x{j} = int(inputs[names[{j}]])"
_CONST = "x{j} = consts[names[{j}]]"
_ENCODE = "c{j} = (x{j} + sigs[names[{j}]]) % a"
# Each row is its functional line and range test, then `coded_core`'s
# OPEL formula less its date terms, as documented on
# sigtool.predetermine, so the constants stay unreduced; `_REDUCE`
# follows where `_compile_cycle` reduces.
_ROW = {
    ADD: (("x{j} = x{s1} + x{s2}", _RANGE),
          ("c{j} = c{s1} + c{s2} + rows[{i}][0]",)),
    SUB: (("x{j} = x{s1} - x{s2}", _RANGE),
          ("c{j} = c{s1} - c{s2} + rows[{i}][0]",)),
    MUL: (("x{j} = x{s1} * x{s2}", _RANGE),
          ("t1, t2, k3 = rows[{i}]",
           "c{j} = (c{s1} - t1) * (c{s2} - t2) + k3")),
    MOVE: (("x{j} = x{s1}",), ("c{j} = c{s1} + rows[{i}][0]",)),
}
_REDUCE = "c{j} %= a"
# An unreduced code field stays below _BOUND·A, 2^60 at the largest
# key; a strike, whose code field is below 2A, at most doubles that.
_BOUND = 1 << 12
# The strike after a definition (`at` is hit), or on an output at cycle
# end (`at` is end): the fault sees the dated, reduced code field, and
# the date is stored back out.
_STRIKE = ("if {at} == {j}: x{j}, c{j} = strike((x{j}, (c{j} + d) % a)); "
           "c{j} -= d")
# A variable whose code field reaches no declared output's check has no
# cj.  Its strike hands over the encoding the OPELs would give it there,
# where nothing has struck yet, and keeps only the struck x: F1's flip
# still reaches the range tests of later rows, and F2's flip and an F5
# patch of its row could reach no check.
_DEAD_STRIKE = ("if hit == {j}: "
                "x{j} = strike((x{j}, (x{j} + sigs[names[{j}]] + d) % a))[0]")
# Output p's check: `coded_core.check`, with both sides less D.
_CHECK = "if (c{j} - x{j} - sigs[names[{j}]]) % a: return {code}"


def _compile_cycle(program: CodedProgram):
    """Generate the program's cycle function and cache it on the program.

    It encodes the inputs and constants, runs each instruction in IR
    order as the formula of `coded_core.opel_add/sub/mul/move`, strikes
    output `end` and checks each declared output p in turn.  It returns
    the outputs' functional values as a tuple on an accept, ~p on a
    failed check, or the index of the first variable whose functional
    value leaves the 64-bit range.  Instruction i's residues are read
    from `rows[i]` of the `rows` argument, so F5's patched rows need no
    recompile.  The function reads no global name and is built in empty
    globals.

    One backward pass over the instructions marks live the declared
    outputs and every operand of a live instruction: only a live
    variable's code field reaches a check.  A variable that is not live
    gets its functional line, its range test and `_DEAD_STRIKE`, and no
    code field.  A live code field is reduced only by a MUL or where
    `bound`, on |cj| in multiples of A, would pass `_BOUND`; a strike
    sees it as `(cj + d) % a`.
    """
    ir, index = program.ir, program.index
    first = len(ir.inputs) + len(ir.consts)
    outputs = [index[name] for name in ir.outputs]
    bound, live = [1] * (first + len(ir.instructions)), set(outputs)
    for i in reversed(range(len(ir.instructions))):
        ins = ir.instructions[i]
        if first + i in live:
            live.update(index[n] for n in (ins.src1, ins.src2)
                        if n is not None)
    lines = [_HEAD]
    for j in range(first):
        head = _INPUT if j < len(ir.inputs) else _CONST
        tail = (_ENCODE, _STRIKE) if j in live else (_DEAD_STRIKE,)
        lines += (t.format(j=j, at="hit") for t in (head, _RANGE) + tail)
    for i, ins in enumerate(ir.instructions):
        j, op = first + i, ins.opcode
        functional, code = _ROW[op]
        s1, s2 = index[ins.src1], index.get(ins.src2)  # None for MOVE
        b = bound[s1] + (0 if s2 is None else bound[s2]) + 1
        if j not in live:
            code = (_DEAD_STRIKE,)
        elif op == MUL or b > _BOUND:
            code += (_REDUCE, _STRIKE)
        else:
            bound[j] = b
            code += (_STRIKE,)
        lines += (t.format(i=i, j=j, s1=s1, s2=s2, at="hit")
                  for t in functional + code)
    lines += (_STRIKE.format(j=j, at="end") for j in dict.fromkeys(outputs))
    lines += (_CHECK.format(j=j, code=~p) for p, j in enumerate(outputs))
    lines.append(f"return ({''.join(f'x{j}, ' for j in outputs)})")
    namespace = {}
    exec(compile("\n ".join(lines), "<cycle>", "exec"), {}, namespace)
    object.__setattr__(program, "compiled", namespace["cycle"])
    return program.compiled


def run_cycle(program: CodedProgram, table: SignatureTable,
              inputs: dict[str, int], cycle: int, key: CodeKey,
              fault: Fault | None = None,
              rng: TrialStream | None = None) -> CycleResult:
    """Execute one cycle; publish outputs only if every check accepts.

    The cycle runs, checks included, as the program's compiled function
    (`_compile_cycle`).  A fault, armed against this program and key,
    makes all its draws from `rng` in `Fault.draw` before execution;
    exactly one mutation is applied: F5 runs its patched rows, and the
    cycle calls `Fault.strike` right after the F1/F2 target or F3 donor
    is defined, and at cycle end, before the checks, on an F3/F4/F6
    target that is an output (no check reads any other).  A value
    outside the 64-bit range, input or result, is a safe halt that
    names the variable being defined.

    Raises ValueError, running nothing, if `key`'s modulus is not the
    table's, or if `fault` was armed against another program object or
    a key of another modulus: its checks and strikes would then belong
    to another build.
    """
    a = key.modulus
    if a != table.key.modulus:
        raise ValueError(f"key {a} is not the table's key "
                         f"{table.key.modulus}")
    ir = program.ir
    rows, hit, end, strike = program.rows, -1, -1, None
    if fault is not None:
        if fault._program is not program or fault._key.modulus != a:
            raise ValueError("fault armed against another program or key")
        rows, hit, end = fault.draw(rng)
        strike = fault.strike
    try:
        code = (program.compiled or _compile_cycle(program))(
            inputs, ir.consts, table.signatures, program.variables, rows,
            cycle % a, a, hit, end, strike, int)
    except KeyError as exc:
        name = exc.args[0]
        if name in ir.inputs and name not in inputs:
            raise KeyError(f"missing input {name!r}") from None
        raise
    if type(code) is tuple:
        return CycleResult(ACCEPT, dict(zip(ir.outputs, code)))
    if code < 0:
        return CycleResult(REJECT, None, OUTPUT_INCOHERENT, ir.outputs[~code])
    return CycleResult(SAFE_HALT, None, OVERFLOW, program.variables[code])


class FaultOutcomes(Outcomes):
    """How each injected cycle ended, over one fault model or all."""

    names = ("detected", "undetected_wrong_output", "benign")
    __slots__ = names


class InjectionReport(FaultOutcomes):
    """Aggregated outcome of a fault-injection campaign: the totals, and
    one group per fault model in `per_model`."""

    __slots__ = ("per_model", "seed", "key_modulus")

    @property
    def undetected_rate(self) -> float:
        return self.undetected_wrong_output / self.trials

    @property
    def false_alarms(self) -> int:
        """Rejections without a fault: only a fault-free run has them."""
        return 0 if self.per_model else self.detected

    def to_json(self) -> str:
        return report_json(
            {"key_modulus": self.key_modulus}, self.seed, totals=self.row(),
            per_model={m: g.row() for m, g in self.per_model.items()})


# An inject trial's header ranges: inputs in [-100, 100], cycles in
# [1, 2**20).
_INPUT_VALUES = 201
_CYCLES = (1 << 20) - 1


def run_campaign(program: CodedProgram, table: SignatureTable, key: CodeKey,
                 models, trials: int, seed: int) -> InjectionReport:
    """Inject `trials` single faults drawn uniformly from `models`.

    Trial i draws from the engine stream `vitalcode:{seed}`.  Its header
    is one `randrange` over the product of its ranges, decoded least
    significant digit first: each input in program order (uniform in
    [-100, 100], safe from 64-bit overflow in short programs), the model,
    then the cycle in [1, 2**20).  `run_cycle` then draws the fault's
    targets from the same stream.  An empty model list runs a fault-free
    baseline; any rejection there counts as a false alarm.  Only
    accepted cycles are compared with the `interpret` oracle, which walks
    the outputs' cone (`dsl.output_cone`), built once per campaign: the
    rows no output depends on still run in every cycle.  Each model
    is armed once, before the first trial, so an unknown model, a
    repeated one or one the program cannot host (e.g. F5 without
    instructions) raises ConfigError there, drawing nothing; an unknown
    one is named before any model is armed.
    """
    for model in models:
        if model not in FAULT_MODELS:
            raise ConfigError(f"unknown fault model {model!r}", "--model")
    armed = []
    for i, model in enumerate(models):
        if model in models[:i]:
            raise ConfigError(f"repeated fault model {model!r}", "--model")
        try:
            armed.append(Fault(model, program, key))
        except UnresolvableTarget as exc:
            raise ConfigError(f"fault model {model} cannot strike "
                              f"this program ({exc})", "--model") from None
    stream = f"vitalcode:{seed}"
    ir = program.ir
    cone = output_cone(ir)
    faults = armed or [None]
    span = _INPUT_VALUES ** len(ir.inputs) * len(faults) * _CYCLES
    # Inputs are peeled off 16 digits at a time: m inputs divide the long
    # header m/16 times, not m times.
    limbs = [(ir.inputs[k:k + 16], _INPUT_VALUES ** len(ir.inputs[k:k + 16]))
             for k in range(0, len(ir.inputs), 16)]

    def trial(i):
        rng = trial_rng(stream, i)
        r = rng.randrange(span)
        inputs = {}
        for names, limb_span in limbs:
            r, limb = divmod(r, limb_span)
            for name in names:
                limb, x = divmod(limb, _INPUT_VALUES)
                inputs[name] = x - 100
        r, m = divmod(r, len(faults))
        cycle = r + 1
        fault = faults[m]
        model = fault.model if fault else None
        # The module attribute, looked up per trial: the benchmark's
        # tracer wraps it there to time each cycle apart from its callees.
        result = run_cycle(program, table, inputs, cycle, key, fault, rng)
        if result.verdict != ACCEPT:
            return model, "detected"
        if result.outputs != interpret(cone, inputs):
            return model, "undetected_wrong_output"
        return model, "benign"

    tally = run_trials(trials, trial)
    per_model = {}
    for model in models:
        counts = {o: tally[model, o] for o in FaultOutcomes.names}
        per_model[model] = FaultOutcomes(sum(counts.values()), counts)
    totals = Counter()
    for (_, outcome), n in tally.items():
        totals[outcome] += n
    return InjectionReport(trials, totals, per_model=per_model, seed=seed,
                           key_modulus=key.modulus)
