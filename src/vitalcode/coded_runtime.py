"""Cyclic execution of a coded program with end-of-cycle checks,
plus the accidental-fault injection engine and campaign runner.

A cycle encodes the inputs and constants at the current date (a trusted
boundary), runs every instruction through the coded elementary
operations, and finally checks each declared output against its PROM
signature and the date.  Any failed check suppresses output publication
for the cycle (fail-safe contract).

Fault models (one mutation per trial):

  F1  flip one bit of a variable's functional field, right after the
      variable is defined
  F2  flip one bit of a variable's code field, right after definition
  F3  operand substitution: at cycle end an output's coded value is
      replaced by another variable's current coded value
  F4  stale data: at cycle end an output's code field is replaced by the
      re-encoding of its value at an earlier date
  F5  corrupt one compensation constant of one instruction before the
      cycle runs
  F6  replace both fields of one output with uniform random values at
      cycle end
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, replace

from .coded_core import (CodeKey, CodedValue, FunctionalOverflow, check,
                         encode, opel_add, opel_mul, opel_sub, opel_move)
from .dsl import ADD, MUL, SUB, interpret
from .sigtool import CodedProgram, SignatureTable, instruction_row
from .stats import (ConfigError, report_json, run_trials, trial_rng,
                    wilson_interval)

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

FUNCTIONAL_BITS = 64


class CodedRuntimeError(Exception):
    pass


class UnresolvableTarget(CodedRuntimeError):
    """Fault spec names a variable or instruction the program lacks."""


@dataclass
class FaultSpec:
    """One accidental fault to inject into one cycle.

    `run_cycle` draws every unset selector uniformly before the cycle
    runs: F1/F2 pick any variable (and bit), F3/F4/F6 pick a declared
    output (F3 also a donor), F5 picks an instruction.  `bit` addresses the functional field's
    two's-complement word for F1 and the code residue for F2.
    """

    model: str
    variable: str | None = None
    donor: str | None = None        # F3 replacement source
    instruction: int | None = None  # F5 target
    bit: int | None = None          # F1 / F2
    staleness: int = 1              # F4: cycles of age


@dataclass
class CycleState:
    """Live coded values of one cycle, keyed by variable name."""

    values: dict[str, CodedValue]
    cycle: int


@dataclass
class CycleResult:
    verdict: str
    outputs: dict[str, int] | None  # published only on accept
    reason: str | None = None       # OUTPUT_INCOHERENT or OVERFLOW
    variable: str | None = None     # the output, input, const or result


def _flip_functional_bit(v: CodedValue, bit: int) -> CodedValue:
    word = v.x & ((1 << FUNCTIONAL_BITS) - 1)
    word ^= 1 << bit
    if word >= 1 << (FUNCTIONAL_BITS - 1):
        word -= 1 << FUNCTIONAL_BITS
    return CodedValue(word, v.c)


def _resolve_fault(spec: FaultSpec, program: CodedProgram, key: CodeKey,
                   rng: random.Random | None) -> FaultSpec:
    """Fill every unset selector of `spec`, drawing from `rng`.

    Draw order per model: F1/F2 variable then bit; F3 output then donor
    from the other variables in sorted order; F4 and F6 output; F5
    instruction.  Raises UnresolvableTarget for selectors the program
    cannot satisfy.
    """
    names = program.variables

    def pick(selected, candidates, allowed, what):
        if selected is None:
            if not candidates:
                raise UnresolvableTarget(f"no candidate {what}")
            return candidates[rng.randrange(len(candidates))]
        if selected not in allowed:
            raise UnresolvableTarget(f"no {what} {selected!r}")
        return selected

    variable, donor, bit = spec.variable, spec.donor, spec.bit
    instruction = spec.instruction
    if spec.model in (F1, F2):
        variable = pick(variable, names, names, "variable")
        if bit is None:
            bit = rng.randrange(FUNCTIONAL_BITS if spec.model == F1
                                else key.bit_width)
    elif spec.model in (F3, F4, F6):
        variable = pick(variable, program.ir.outputs, names, "variable")
        if spec.model == F3:  # an explicit target need not be an output
            others = [n for n in program.sorted_variables if n != variable]
            donor = pick(donor, others, names, "donor")
    elif spec.model == F5:
        indices = range(len(program.rows))
        instruction = pick(instruction, indices, indices, "instruction")
    else:
        raise UnresolvableTarget(f"unknown fault model {spec.model!r}")
    return FaultSpec(spec.model, variable, donor, instruction, bit,
                     spec.staleness)


def inject_fault(state: CycleState, program: CodedProgram,
                 table: SignatureTable, key: CodeKey, spec: FaultSpec,
                 rng: random.Random | None) -> tuple[tuple, ...]:
    """Apply one resolved fault (every selector set) at its injection point.

    F1-F4 and F6 mutate `state` in place.  Returns the instruction rows
    to execute with: the program's own except for F5, where one
    instruction's constant moves by a uniform nonzero residue and only
    that row is rebuilt.  The only draws are the fault's values: F5's
    MUL field and delta, F6's functional and code fields.
    """
    a = key.modulus
    rows = program.rows
    name = spec.variable
    if spec.model == F1:
        state.values[name] = _flip_functional_bit(state.values[name],
                                                   spec.bit)
    elif spec.model == F2:
        v = state.values[name]
        state.values[name] = CodedValue(v.x, v.c ^ (1 << spec.bit))
    elif spec.model == F3:
        state.values[name] = state.values[spec.donor]
    elif spec.model == F4:
        v = state.values[name]
        stale_term = (state.cycle - spec.staleness) % a
        state.values[name] = CodedValue(
            v.x, (v.x + table.signatures[name] + stale_term) % a)
    elif spec.model == F5:
        i = spec.instruction
        old = program.constants[i]
        which = "kappa_sig"
        if old.opcode == MUL:
            which = ("src1_sig", "src2_sig", "dest_sig")[rng.randrange(3)]
        shifted = (getattr(old, which) + rng.randrange(1, a)) % a
        row = instruction_row(program.ir.instructions[i],
                              replace(old, **{which: shifted}))
        rows = rows[:i] + (row,) + rows[i + 1:]
    else:  # F6
        x = rng.getrandbits(FUNCTIONAL_BITS) - (1 << (FUNCTIONAL_BITS - 1))
        state.values[name] = CodedValue(x, rng.randrange(a))
    return rows


def run_cycle(program: CodedProgram, table: SignatureTable,
              inputs: dict[str, int], cycle: int, key: CodeKey,
              fault: FaultSpec | None = None,
              rng: random.Random | None = None) -> CycleResult:
    """Execute one cycle; publish outputs only if every check accepts.

    With a fault spec, its unset selectors are drawn from `rng` before
    execution starts, and exactly one mutation is applied at the model's
    injection point (F5 before execution, F1/F2 after the target's
    definition, F3/F4/F6 at cycle end before the checks).  A value
    outside the 64-bit range, input or result, is a safe halt.
    """
    a = key.modulus
    ir = program.ir
    sigs = table.signatures
    d = cycle % a
    state = CycleState(values={}, cycle=cycle)
    values = state.values

    rows = program.rows
    struck = None  # F1/F2 strike right after this variable's definition
    if fault is not None:
        fault = _resolve_fault(fault, program, key, rng)
        if fault.model == F5:
            rows = inject_fault(state, program, table, key, fault, rng)
        elif fault.model in (F1, F2):
            struck = fault.variable

    try:
        for name in ir.inputs:
            if name not in inputs:
                raise KeyError(f"missing input {name!r}")
            values[name] = encode(int(inputs[name]), sigs[name], cycle, key)
            if name == struck:
                inject_fault(state, program, table, key, fault, rng)
        for name, value in ir.consts.items():
            values[name] = encode(value, sigs[name], cycle, key)
            if name == struck:
                inject_fault(state, program, table, key, fault, rng)

        # Fold the date term d in, as documented on InstructionConstants.
        for op, name, src1, src2, kappa, b1, b2, b3 in rows:
            if op == ADD:
                values[name] = opel_add(values[src1], values[src2],
                                        (kappa - d) % a, key)
            elif op == SUB:
                values[name] = opel_sub(values[src1], values[src2],
                                        (kappa + d) % a, key)
            elif op == MUL:
                t1, t2 = (b1 + d) % a, (b2 + d) % a
                values[name] = opel_mul(values[src1], values[src2], t1, t2,
                                        (b3 + d - t1 * t2) % a, key)
            else:
                values[name] = opel_move(values[src1], kappa, key)
            if name == struck:
                inject_fault(state, program, table, key, fault, rng)
    except FunctionalOverflow:  # `name` is the variable being defined
        return CycleResult(SAFE_HALT, None, OVERFLOW, name)

    if fault is not None and fault.model in (F3, F4, F6):
        inject_fault(state, program, table, key, fault, rng)

    for name in ir.outputs:
        if not check(values[name], sigs[name], cycle, key):
            return CycleResult(REJECT, None, OUTPUT_INCOHERENT, name)
    return CycleResult(ACCEPT, {name: values[name].x for name in ir.outputs})


_OUTCOMES = ("detected", "undetected_wrong_output", "benign")


@dataclass
class ModelCounts:
    trials: int
    detected: int
    undetected_wrong_output: int
    benign: int


@dataclass
class InjectionReport:
    """Aggregated outcome of a fault-injection campaign."""

    trials: int
    detected: int
    undetected_wrong_output: int
    benign: int
    false_alarms: int
    per_model: dict[str, ModelCounts]
    seed: int
    key_modulus: int
    undetected_rate: float
    undetected_ci: tuple[float, float]

    def to_json(self) -> str:
        return report_json(asdict(self))


def run_campaign(program: CodedProgram, table: SignatureTable, key: CodeKey,
                 models, trials: int, seed: int) -> InjectionReport:
    """Inject `trials` single faults drawn uniformly from `models`.

    Trial i draws its inputs (uniform in [-100, 100], safe from 64-bit
    overflow in short programs), cycle, model and fault from the engine
    stream `vitalcode:{seed}`.  An empty model list runs a fault-free
    baseline; any rejection there counts as a false alarm.  Only
    accepted cycles are compared with the `interpret` oracle.  A model
    the program cannot host (e.g. F5 without instructions) raises
    ConfigError before the first trial.
    """
    models = list(models)
    for m in models:
        try:
            _resolve_fault(FaultSpec(m), program, key, random.Random(0))
        except UnresolvableTarget as exc:
            raise ConfigError(f"fault model {m} cannot strike this program "
                              f"({exc})", "models") from None
    ir = program.ir
    stream = f"vitalcode:{seed}"

    def trial(i):
        rng = trial_rng(stream, i)
        inputs = {name: rng.randrange(-100, 101) for name in ir.inputs}
        cycle = rng.randrange(1, 1 << 20)
        model = models[rng.randrange(len(models))] if models else None
        result = run_cycle(program, table, inputs, cycle, key,
                           fault=FaultSpec(model) if model else None,
                           rng=rng)
        if result.verdict != ACCEPT:
            return model, "detected"
        if result.outputs != interpret(ir, inputs):
            return model, "undetected_wrong_output"
        return model, "benign"

    tally = run_trials(trials, trial)
    per_model = {}
    for m in models:
        counts = [tally[m, outcome] for outcome in _OUTCOMES]
        per_model[m] = ModelCounts(sum(counts), *counts)
    totals = Counter()
    for (_, outcome), n in tally.items():
        totals[outcome] += n
    undetected = totals["undetected_wrong_output"]
    return InjectionReport(
        trials=trials, detected=totals["detected"],
        undetected_wrong_output=undetected, benign=totals["benign"],
        false_alarms=tally[None, "detected"], per_model=per_model,
        seed=seed, key_modulus=key.modulus,
        undetected_rate=undetected / trials,
        undetected_ci=wilson_interval(undetected, trials))
