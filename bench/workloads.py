"""The benchmark's four workloads: set-up, one batch, and correctness checks.

Each workload is a closed loop of campaign batches driven by `run.py`.
Inputs derive only from the workload seed; the library receives the
generated programs and configurations, never the seed itself.  Library
functions are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field, replace
from math import log, sqrt

from vitalcode import campaign, coded_runtime, dsl, redundancy, sigtool
from vitalcode.coded_core import make_key

clock = time.perf_counter

# The sample program of the test suite: 4 instructions, 8 variables.
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

SMALL_KEY = 251
LARGE_KEY = 2**31 - 1

VOTE_P = 0.01
VOTE_Q = 1e-3

KEYLESS_SCHEMES = ("parity", "crc8-atm", "crc32-ieee", "hamming74",
                   "codedsig")
KEYLESS_THREATS = ({"kind": "bit_error", "rate": 1e-3},
                   {"kind": "burst", "length": 9},
                   {"kind": "codeword_flip"},
                   {"kind": "random_payload"},
                   {"kind": "forge"})
HMAC_THREATS = ({"kind": "bit_error", "rate": 1e-3},
                {"kind": "forge"},
                {"kind": "replay"},
                {"kind": "splice"})
BRUTE_FORCE_MESSAGE = bytes(range(64))
PAYLOAD_LENGTH = 64

# A correct program fails a statistical check with probability below this.
CHECK_ALPHA = 1e-6


class Checks:
    """Counts correctness checks and keeps the message of each failure."""

    def __init__(self):
        self.run = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.run += 1
        if not ok:
            self.failures.append(message)


def rate_consistent(hits: int, n: int, p: float) -> bool:
    """Two-sided Bernstein test: False with probability < CHECK_ALPHA
    when the true rate is p."""
    if n == 0:
        return True
    budget = 2 * log(2 / CHECK_ALPHA)
    variance = n * p * (1 - p)
    t = (budget / 3 + sqrt((budget / 3) ** 2 + 4 * budget * variance)) / 2
    return abs(hits - n * p) < t


def large_program_source(seed: int) -> str:
    """A straight-line program of 64 instructions, ADD, SUB, MUL, MOVE in
    turn.

    Operands are drawn from the seed under magnitude bounds for inputs in
    [-100, 100], so no fault-free cycle leaves the 64-bit range, and
    every seed gives the same opcode mix and variable count.
    """
    rng = random.Random(f"bench-inject-large:{seed}")
    bounds: dict[str, int] = {}
    lines = []
    for i in range(4):
        lines.append(f"input in{i};")
        bounds[f"in{i}"] = 100
    k = rng.choice([v for v in range(-9, 10) if v])
    lines.append(f"const k0 = {k};")
    bounds["k0"] = abs(k)
    for i in range(64):
        op = "+-*="[i % 4]
        dest = f"v{i}"
        if op == "=":
            src = rng.choice(list(bounds))
            lines.append(f"{dest} = {src};")
            bounds[dest] = bounds[src]
            continue
        cap = 1 << 24 if op == "*" else 1 << 60
        pool = [name for name, bound in bounds.items() if bound <= cap]
        a, b = rng.choice(pool), rng.choice(pool)
        lines.append(f"{dest} = {a} {op} {b};")
        bounds[dest] = (bounds[a] * bounds[b] if op == "*"
                        else bounds[a] + bounds[b])
    for i in range(60, 64):
        lines.append(f"output v{i};")
    return "\n".join(lines) + "\n"


@dataclass
class Phase:
    """One timed campaign call of a batch."""

    metric: str      # end-to-end rate this phase reports, e.g. frames_per_s
    unit: str
    units: int       # trials, frames or attempts completed
    seconds: float


@dataclass
class Batch:
    phases: list[Phase]
    reports: list = field(default_factory=list)
    scale: float = 1.0  # speed scale to the reference machine (run.py)

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.phases)


class InjectWorkload:
    """`run_campaign` with F1-F6 mixed on a signed and loaded PROM,
    optionally followed by a majority-vote redundancy campaign."""

    unit_kinds = ("inject_trial", "redundancy_trial")

    def __init__(self, name, why, modulus, trials, redundancy_trials=0,
                 fault_free_trials=0):
        self.name = name
        self.why = why
        self.modulus = modulus
        self.trials = trials
        self.redundancy_trials = redundancy_trials
        self.fault_free_trials = fault_free_trials
        self.f6_trials = self.f6_undetected = 0
        self.vote_trials = self.vote_undetected = 0

    def source(self, seed: int) -> str:
        return SAMPLE_PROGRAM

    def setup(self, seed: int):
        """Parse, sign, emit and load the PROM image."""
        source = self.source(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sigtool.DuplicateSignatureWarning)
            ir = dsl.parse_program(source)
            table, program = sigtool.build(ir, make_key(self.modulus), seed)
            image = sigtool.emit_prom(table, program)
            return sigtool.load_prom(image)

    def secret(self, state) -> str | None:
        return None

    def batch(self, state, seed: int) -> Batch:
        table, program = state
        t0 = clock()
        report = coded_runtime.run_campaign(
            program, table, table.key, coded_runtime.FAULT_MODELS,
            self.trials, seed)
        t1 = clock()
        batch = Batch([Phase("inject_trials_per_s", "trials/s",
                             report.trials, t1 - t0)], [report])
        if self.redundancy_trials:
            config = redundancy.VoteConfig(redundancy.MAJORITY, VOTE_P,
                                           VOTE_Q)
            votes = redundancy.redundancy_campaign(
                config, self.redundancy_trials, seed)
            batch.phases.append(Phase("redundancy_trials_per_s", "trials/s",
                                      votes.trials, clock() - t1))
            batch.reports.append(votes)
        return batch

    def units(self, batch: Batch) -> dict[str, int]:
        counts = {"inject_trial": batch.phases[0].units,
                  "redundancy_trial": 0}
        if len(batch.phases) > 1:
            counts["redundancy_trial"] = batch.phases[1].units
        return counts

    def check_batch(self, state, batch: Batch, checks: Checks) -> None:
        report = batch.reports[0]
        checks.expect(
            report.trials == self.trials
            and report.detected + report.undetected_wrong_output
            + report.benign == report.trials,
            f"{self.name}: injection tallies do not add up")
        f6 = report.per_model["F6"]
        self.f6_trials += f6.trials
        self.f6_undetected += f6.undetected_wrong_output
        if self.modulus == LARGE_KEY:
            checks.expect(report.undetected_wrong_output == 0,
                          f"{self.name}: undetected fault at A=2^31-1 "
                          f"(seed {report.seed})")
        if self.redundancy_trials:
            votes = batch.reports[1]
            checks.expect(
                votes.correct + votes.safe_halt + votes.undetected_wrong
                == votes.trials == self.redundancy_trials,
                f"{self.name}: redundancy tallies do not add up")
            self.vote_trials += votes.trials
            self.vote_undetected += votes.undetected_wrong

    def finish(self, state, seed: int, checks: Checks) -> None:
        if self.modulus == SMALL_KEY:
            checks.expect(
                rate_consistent(self.f6_undetected, self.f6_trials,
                                1 / self.modulus),
                f"{self.name}: pooled F6 undetected {self.f6_undetected}"
                f"/{self.f6_trials} inconsistent with 1/{self.modulus}")
        if self.redundancy_trials:
            # Majority passes a common-mode value unless two replicas
            # were also corrupted independently.
            p = VOTE_P
            expected = VOTE_Q * ((1 - p) ** 3 + 3 * p * (1 - p) ** 2)
            checks.expect(
                rate_consistent(self.vote_undetected, self.vote_trials,
                                expected),
                f"{self.name}: pooled redundancy undetected "
                f"{self.vote_undetected}/{self.vote_trials} inconsistent "
                f"with q={VOTE_Q}")
        if self.fault_free_trials:
            table, program = state
            clean = coded_runtime.run_campaign(
                program, table, table.key, [], self.fault_free_trials, seed)
            checks.expect(clean.false_alarms == 0 and clean.detected == 0,
                          f"{self.name}: {clean.false_alarms} false alarms "
                          f"in a fault-free campaign")

    def report_text(self, batch: Batch) -> str:
        return "\n".join(r.to_json() for r in batch.reports)


class LargeInjectWorkload(InjectWorkload):
    def source(self, seed: int) -> str:
        return large_program_source(seed)


class ChannelWorkload:
    """`run_channel_campaign` over a schemes x threats grid, with an
    optional brute-force campaign timed as its own phase."""

    unit_kinds = ("frame",)

    def __init__(self, name, why, schemes, threats, trials,
                 brute_force_attempts=0):
        self.name = name
        self.why = why
        self.schemes = schemes
        self.threats = threats
        self.trials = trials
        self.brute_force_attempts = brute_force_attempts
        self.keyed = any(s.startswith("hmac") for s in schemes)

    def mac_key_hex(self, seed: int) -> str:
        return random.Random(f"bench-mac-key:{seed}").randbytes(32).hex()

    def documents(self, seed: int) -> list[dict]:
        base = {"schemes": list(self.schemes), "seed": seed,
                "payload_length": PAYLOAD_LENGTH}
        if self.keyed:
            base["mac_key"] = self.mac_key_hex(seed)
        docs = [dict(base, threats=[dict(t) for t in self.threats],
                     trials=self.trials)]
        if self.brute_force_attempts:
            docs.append(dict(base, trials=1, threats=[{
                "kind": "brute_force",
                "attempts": self.brute_force_attempts,
                "payload_hex": BRUTE_FORCE_MESSAGE.hex()}]))
        return docs

    def setup(self, seed: int):
        """Validate the campaign configurations."""
        return [campaign.parse_config(doc) for doc in self.documents(seed)]

    def secret(self, state) -> str | None:
        return state[0].mac_key_hex

    def batch(self, state, seed: int) -> Batch:
        batch = Batch([])
        for config, metric, unit in zip(
                state, ("frames_per_s", "attempts_per_s"),
                ("frames/s", "attempts/s")):
            t0 = clock()
            report = campaign.run_channel_campaign(replace(config, seed=seed))
            seconds = clock() - t0
            delivered = sum(c.delivered for c in report.cells)
            batch.phases.append(Phase(metric, unit, delivered, seconds))
            batch.reports.append(report)
        return batch

    def units(self, batch: Batch) -> dict[str, int]:
        return {"frame": sum(p.units for p in batch.phases)}

    def check_batch(self, state, batch: Batch, checks: Checks) -> None:
        frames = batch.reports[0]
        checks.expect(
            all(c.delivered == self.trials for c in frames.cells)
            and len(frames.cells) == len(self.schemes) * len(self.threats),
            f"{self.name}: cells did not deliver {self.trials} frames each")
        if self.keyed:
            for report in batch.reports:
                for c in report.cells:
                    checks.expect(c.accepted_but_wrong == 0,
                                  f"{self.name}: {c.scheme} x {c.threat} "
                                  f"accepted {c.accepted_but_wrong} wrong "
                                  f"frames (seed {report.seed})")
            for report in batch.reports[1:]:
                brute = report.cells[0]
                checks.expect(
                    brute.accepted == 0
                    and brute.delivered == self.brute_force_attempts,
                    f"{self.name}: brute force accepted {brute.accepted} "
                    f"of {brute.delivered} guesses")
            return
        for c in frames.cells:
            if c.threat == "forge":
                checks.expect(c.accepted_but_wrong == c.delivered,
                              f"{self.name}: forge against {c.scheme} "
                              f"accepted-but-wrong on only "
                              f"{c.accepted_but_wrong}/{c.delivered}")
            if c.threat == "codeword_flip" and c.scheme in ("crc32-ieee",
                                                            "hamming74"):
                checks.expect(c.accepted_but_wrong == 0
                              and c.miscorrected == 0,
                              f"{self.name}: codeword_flip against "
                              f"{c.scheme} gave {c.accepted_but_wrong} "
                              f"wrong and {c.miscorrected} miscorrected")

    def finish(self, state, seed: int, checks: Checks) -> None:
        pass

    def report_text(self, batch: Batch) -> str:
        return "\n".join(r.to_json() + "\n" + r.to_csv()
                         for r in batch.reports)


def make_workloads() -> dict:
    """Fresh workload objects (they hold one run's pooled tallies)."""
    workloads = (
        InjectWorkload(
            "small-trials",
            "fixed per-trial overhead (seeding, interpret, tally) dominates "
            "on a 4-instruction program at A=251, plus majority voting",
            SMALL_KEY, trials=600, redundancy_trials=2500),
        LargeInjectWorkload(
            "inject-large",
            "run_cycle and the OPELs dominate on a 64-instruction program "
            "at A=2^31-1; set-up hashes one signature per variable",
            LARGE_KEY, trials=300, fault_free_trials=200),
        ChannelWorkload(
            "channel-keyless",
            "CRC, Hamming, parity and coded-signature framing under noise "
            "and forgery; no MAC is ever computed",
            KEYLESS_SCHEMES, KEYLESS_THREATS, trials=20),
        ChannelWorkload(
            "channel-hmac",
            "HMAC-32 on fresh messages misses the tag cache; brute force on "
            "one fixed message hits it on every attempt",
            ("hmac-32",), HMAC_THREATS, trials=10,
            brute_force_attempts=1000),
    )
    return {w.name: w for w in workloads}
