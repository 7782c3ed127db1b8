"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: CRC by
bit-serial long division, Hamming by generator matrix, coded execution by
the plain interpreter, hashes by the standard library.  An inject
campaign is replayed one public `run_cycle` call per trial, apart from
the campaign's own loop.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter

from vitalcode.coded_core import make_key
from vitalcode.coded_runtime import ACCEPT, FaultSpec, run_cycle
from vitalcode.dsl import interpret, parse_program
from vitalcode.sigtool import DuplicateSignatureWarning, build
from vitalcode.stats import trial_rng

SAMPLE_PROGRAM = """
# Overspeed guard evaluated once per cycle.
input speed; input limit; input gain;
const margin = 3;
adj = speed * gain;
slack = limit - speed;
guard = slack + margin;
alarm = guard * gain;
output adj; output alarm;
"""

# Sixteen instructions over every opcode, so F1-F6 also strike MOVEs
# (F5 included) and every variable reaches a checked output.
MIXED_PROGRAM = """
input u; input v; input w;
const k = 7; const m = -3;
s = u + v; d = u - w; p = s * k; q = d * m; r = p + q; t = r;
e = t - v; f = e * w; g = f + k; h = g; i = h - s; j = i * m;
l = j + d; n = l; o = n - p; z = o;
output z; output t; output n; output f;
"""

# The MUL leaves int64 unless a is in [-2, 1], so most cycles safe-halt.
OVERFLOW_PROGRAM = """
input a; input b;
const big = 4611686018427387904;
x = a * big; y = x + b; c = y; o = c - a;
output o; output c;
"""

# Every keyless scheme family and HMAC under all eight threat kinds: the
# channel grid whose report digests are pinned.
CHANNEL_GRID = {
    "schemes": ["none", "parity", "crc8-atm", "crc32-ieee", "hamming74",
                "codedsig", "hmac-8"],
    "threats": [{"kind": "bit_error", "rate": 0.01},
                {"kind": "burst", "length": 9},
                {"kind": "random_payload"}, {"kind": "codeword_flip"},
                {"kind": "forge"}, {"kind": "replay"},
                {"kind": "splice"},
                {"kind": "brute_force", "attempts": 20}],
    "trials": 8, "seed": 9, "payload_length": 8, "mac_key": "0c" * 16}

SAMPLE_INPUTS = {"speed": 17, "limit": 40, "gain": 5}
SAMPLE_CYCLE = 9
SAMPLE_SEED = 0


def build_sample(modulus: int, seed: int = SAMPLE_SEED):
    ir = parse_program(SAMPLE_PROGRAM)
    key = make_key(modulus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        table, program = build(ir, key, seed)
    return ir, key, table, program


def replay_campaign(program, table, key, models, trials: int,
                    seed: int) -> Counter:
    """`run_campaign`'s tally, rebuilt one trial at a time from the public
    API: the trial's stream, its header decoded as `run_campaign`
    documents it, `run_cycle` with a new unresolved `FaultSpec` of the
    trial's model, and the outcome from the verdict and `interpret`.
    Returns the count of each (model, outcome), model None fault-free."""
    ir = program.ir
    faults = list(models) or [None]
    span = 201 ** len(ir.inputs) * len(faults) * ((1 << 20) - 1)
    tally = Counter()
    for i in range(trials):
        rng = trial_rng(f"vitalcode:{seed}", i)
        r = rng.randrange(span)
        inputs = {}
        for name in ir.inputs:
            r, x = divmod(r, 201)
            inputs[name] = x - 100
        r, m = divmod(r, len(faults))
        model = faults[m]
        spec = FaultSpec(model) if model else None
        result = run_cycle(program, table, inputs, r + 1, key, spec, rng)
        if result.verdict != ACCEPT:
            outcome = "detected"
        elif result.outputs != interpret(ir, inputs):
            outcome = "undetected_wrong_output"
        else:
            outcome = "benign"
        tally[model, outcome] += 1
    return tally


def find_cell(report, scheme: str, threat: str):
    """The one cell of a channel report for (scheme, threat)."""
    [cell] = [c for c in report.cells
              if c.scheme == scheme and c.threat == threat]
    return cell


def crc_bitwise(payload: bytes, params) -> int:
    """Bit-serial long-division CRC; independent of the row-parity path."""
    mask = (1 << params.width) - 1
    top = 1 << (params.width - 1)
    reg = params.init
    for byte in payload:
        if params.reflect_in:
            byte = _reflect(byte, 8)
        for i in range(7, -1, -1):
            bit = (byte >> i) & 1
            if ((reg >> (params.width - 1)) & 1) ^ bit:
                reg = ((reg << 1) ^ params.polynomial) & mask
            else:
                reg = (reg << 1) & mask
    if params.reflect_out:
        reg = _reflect(reg, params.width)
    return reg ^ params.xorout


def _reflect(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


# Hamming(7,4) generator matrix for layout p1 p2 d1 p3 d2 d3 d4,
# rows indexed by data bits d1..d4, columns by positions 1..7.
_G = (
    (1, 1, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 1, 0, 1, 0),
    (1, 1, 0, 1, 0, 0, 1),
)


def hamming_encode_matrix(data: int) -> int:
    bits = [(data >> (3 - i)) & 1 for i in range(4)]
    word = 0
    for position in range(7):
        parity = 0
        for row in range(4):
            parity ^= bits[row] & _G[row][position]
        word = (word << 1) | parity
    return word


def random_straight_line_program(rng: random.Random,
                                 max_instructions: int = 6) -> str:
    """Random DSL source: a few inputs, consts and chained assignments.

    Operand magnitudes stay small so reference evaluation never leaves
    the 64-bit range.
    """
    n_inputs = rng.randint(1, 3)
    names = [f"in{i}" for i in range(n_inputs)]
    lines = [f"input {n};" for n in names]
    bounds = {n: 100 for n in names}
    for i in range(rng.randint(0, 2)):
        value = rng.randint(-20, 20)
        name = f"c{i}"
        lines.append(f"const {name} = {value};")
        names.append(name)
        bounds[name] = 20
    limit = 1 << 62
    assigned = []
    for i in range(rng.randint(1, max_instructions)):
        op = rng.choice(["+", "-", "*", None])
        dest = f"v{i}"
        if op is None:
            src = rng.choice(names)
            lines.append(f"{dest} = {src};")
            bounds[dest] = bounds[src]
        else:
            a = rng.choice(names)
            b = rng.choice(names)
            if rng.random() < 0.3:
                lit = rng.randint(-9, 9)
                b, b_bound = str(lit), abs(lit)
            else:
                b_bound = bounds[b]
            if op == "*" and bounds[a] * max(b_bound, 1) >= limit:
                op = "+"
            lines.append(f"{dest} = {a} {op} {b};")
            if op == "*":
                bounds[dest] = bounds[a] * max(b_bound, 1)
            else:
                bounds[dest] = bounds[a] + b_bound
        names.append(dest)
        assigned.append(dest)
    for name in rng.sample(assigned, rng.randint(1, len(assigned))):
        lines.append(f"output {name};")
    return "\n".join(lines)
