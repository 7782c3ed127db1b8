import random

import pytest

from helpers import (SAMPLE_CYCLE, SAMPLE_INPUTS, build_sample,
                     random_straight_line_program)
from vitalcode.coded_runtime import (ACCEPT, FAULT_MODELS, FUNCTIONAL_BITS,
                                     REJECT, SAFE_HALT, FaultSpec,
                                     UnresolvableTarget, run_campaign,
                                     run_cycle)
from vitalcode.dsl import MUL, interpret, parse_program
from vitalcode.sigtool import build
from vitalcode.coded_core import make_key
from vitalcode.stats import binomial_sigma


class TestRunCycle:
    def test_matches_reference_interpreter(self):
        ir, key, table, program = build_sample(13)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key)
        assert result.verdict == ACCEPT
        assert result.outputs == interpret(ir, SAMPLE_INPUTS)

    def test_simple_program(self):
        ir = parse_program(
            "input a; input b; const k = 4; output out; out = (a + b) * k;")
        key = make_key(251)
        table, program = build(ir, key, 5)
        result = run_cycle(program, table, {"a": 2, "b": 3}, 0, key)
        assert result.verdict == ACCEPT and result.outputs == {"out": 20}

    def test_empty_program(self):
        ir = parse_program("input a;")
        key = make_key(13)
        table, program = build(ir, key, 0)
        result = run_cycle(program, table, {"a": 1}, 0, key)
        assert result.verdict == ACCEPT and result.outputs == {}

    def test_stale_cycle_replay_rejected(self):
        ir, key, table, program = build_sample(13)
        spec = FaultSpec("F4", staleness=1)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=spec, rng=random.Random(0))
        assert result.verdict == REJECT

    def test_overflow_is_safe_halt(self):
        ir = parse_program("input a; output o; o = a * a;")
        key = make_key(13)
        table, program = build(ir, key, 0)
        result = run_cycle(program, table, {"a": 2**62}, 0, key)
        assert result.verdict == SAFE_HALT
        assert result.outputs is None

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_overflowing_input_is_safe_halt(self, value):
        ir, key, table, program = build_sample(13)
        inputs = dict(SAMPLE_INPUTS, limit=value)
        result = run_cycle(program, table, inputs, SAMPLE_CYCLE, key)
        assert result.verdict == SAFE_HALT
        assert result.outputs is None

    def test_reject_suppresses_outputs(self):
        ir, key, table, program = build_sample(13)
        spec = FaultSpec("F1", variable="alarm", bit=0)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=spec, rng=random.Random(0))
        assert result.verdict == REJECT and result.outputs is None


class TestFaultModels:
    def test_f1_single_bit_always_detected(self):
        # 2^i mod A is never zero for an odd prime A, and the sample
        # program propagates every variable into a checked output.
        ir, key, table, program = build_sample(13)
        ref = interpret(ir, SAMPLE_INPUTS)
        for name in ir.variables():
            for bit in range(64):
                spec = FaultSpec("F1", variable=name, bit=bit)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=spec)
                assert not (r.verdict == ACCEPT and r.outputs != ref), \
                    (name, bit)

    def test_f2_code_bit_always_detected(self):
        ir, key, table, program = build_sample(13)
        ref = interpret(ir, SAMPLE_INPUTS)
        for name in ir.variables():
            for bit in range(key.bit_width):
                spec = FaultSpec("F2", variable=name, bit=bit)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=spec)
                assert not (r.verdict == ACCEPT and r.outputs != ref), \
                    (name, bit)

    def test_f3_distinct_signatures_detected(self):
        ir, key, table, program = build_sample(13)
        for donor in ir.variables():
            for target in ir.outputs:
                if donor == target:
                    continue
                spec = FaultSpec("F3", variable=target, donor=donor)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=spec, rng=random.Random(0))
                distinct = table.signatures[donor] != table.signatures[target]
                assert (r.verdict == REJECT) == distinct, (donor, target)

    def test_f4_stale_detected_iff_age_not_multiple_of_key(self):
        ir, key, table, program = build_sample(13)
        cycle = 40
        for age in range(1, 13):
            spec = FaultSpec("F4", variable="alarm", staleness=age)
            r = run_cycle(program, table, SAMPLE_INPUTS, cycle, key,
                          fault=spec, rng=random.Random(0))
            assert r.verdict == REJECT, age
        spec = FaultSpec("F4", variable="alarm", staleness=13)
        r = run_cycle(program, table, SAMPLE_INPUTS, cycle, key,
                      fault=spec, rng=random.Random(0))
        assert r.verdict == ACCEPT

    def test_f5_corrupt_constant_detected(self):
        ir, key, table, program = build_sample(13)
        rng = random.Random(1)
        for idx in range(len(program.constants)):
            spec = FaultSpec("F5", instruction=idx)
            r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                          fault=spec, rng=rng)
            assert r.verdict == REJECT, idx

    def test_f6_undetected_fraction_near_one_over_key(self):
        ir, key, table, program = build_sample(13)
        trials = 100_000
        report = run_campaign(program, table, key, ["F6"], trials, seed=11)
        expected = 1 / 13
        sigma = binomial_sigma(expected, trials)
        assert abs(report.undetected_rate - expected) < 3 * sigma

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_draw_order(self, model):
        # Selectors are drawn before execution, which draws nothing, so
        # the generator ends exactly where the documented draws leave it.
        ir, key, table, program = build_sample(13)
        rng, ref = random.Random(5), random.Random(5)
        names = ir.variables()
        run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                  fault=FaultSpec(model), rng=rng)
        if model in ("F1", "F2"):
            ref.randrange(len(names))
            ref.randrange(FUNCTIONAL_BITS if model == "F1"
                          else key.bit_width)
        elif model == "F5":
            idx = ref.randrange(len(program.constants))
            if program.constants[idx].opcode == MUL:
                ref.randrange(3)
            ref.randrange(1, 13)
        else:
            ref.randrange(len(ir.outputs))
            if model == "F3":
                ref.randrange(len(names) - 1)
            elif model == "F6":
                ref.getrandbits(FUNCTIONAL_BITS)
                ref.randrange(13)
        assert rng.getstate() == ref.getstate()

    def test_unresolvable_target(self):
        ir, key, table, program = build_sample(13)
        for spec in (FaultSpec("F1", variable="ghost"),
                     FaultSpec("F3", donor="ghost"),
                     FaultSpec("F5", instruction=99),
                     FaultSpec("F9")):
            with pytest.raises(UnresolvableTarget):
                run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                          fault=spec, rng=random.Random(0))


class TestCampaign:
    def test_fault_free_baseline(self):
        ir, key, table, program = build_sample(251)
        report = run_campaign(program, table, key, [], 200, seed=4)
        assert report.detected == 0 and report.false_alarms == 0
        assert report.benign == 200

    def test_counts_are_conserved(self):
        ir, key, table, program = build_sample(13)
        report = run_campaign(program, table, key, ["F1", "F3", "F6"],
                              3000, seed=9)
        assert report.detected + report.undetected_wrong_output \
            + report.benign == report.trials
        per_model_total = sum(c.trials for c in report.per_model.values())
        assert per_model_total == report.trials

    def test_reports_are_reproducible(self):
        ir, key, table, program = build_sample(13)
        a = run_campaign(program, table, key, ["F6"], 500, seed=21)
        b = run_campaign(program, table, key, ["F6"], 500, seed=21)
        assert a.to_json() == b.to_json()


class TestFaultFreeEquivalence:
    def test_random_programs_match_reference(self):
        rng = random.Random(2024)
        for _ in range(100):
            src = random_straight_line_program(rng)
            ir = parse_program(src)
            key = make_key(251)
            table, program = build(ir, key, rng.randrange(1 << 30))
            inputs = {n: rng.randint(-100, 100) for n in ir.inputs}
            cycle = rng.randrange(1000)
            result = run_cycle(program, table, inputs, cycle, key)
            assert result.verdict == ACCEPT, src
            assert result.outputs == interpret(ir, inputs), src
