import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (MIXED_PROGRAM, SAMPLE_CYCLE, SAMPLE_INPUTS,
                     build_sample, random_straight_line_program)
from vitalcode.coded_runtime import (ACCEPT, FAULT_MODELS, FUNCTIONAL_BITS,
                                     OUTPUT_INCOHERENT, OVERFLOW, REJECT,
                                     SAFE_HALT, FaultSpec,
                                     UnresolvableTarget, _resolve_fault,
                                     inject_fault, run_campaign, run_cycle)
from vitalcode.dsl import MUL, interpret, parse_program
from vitalcode.sigtool import DuplicateSignatureWarning, build
from vitalcode.coded_core import (INT64_MAX, INT64_MIN, FunctionalOverflow,
                                  check, encode, make_key, opel_add,
                                  opel_move, opel_mul, opel_sub)
from vitalcode.stats import binomial_sigma, trial_rng


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
        for idx in range(len(program.rows)):
            spec = FaultSpec("F5", instruction=idx)
            r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                          fault=spec, rng=rng)
            assert r.verdict == REJECT, idx

    def test_f5_patches_one_residue_slot(self):
        key = make_key(251)
        table, program = build(parse_program(MIXED_PROGRAM), key, 6)
        for idx, old in enumerate(program.rows):
            for seed in range(5):
                rows = inject_fault({}, SAMPLE_CYCLE, program, table, key,
                                    FaultSpec("F5", instruction=idx),
                                    random.Random(seed))
                changed = [(i, slot)
                           for i, (new_row, old_row)
                           in enumerate(zip(rows, program.rows))
                           for slot in range(8)
                           if new_row[slot] != old_row[slot]]
                assert len(rows) == len(program.rows)
                assert len(changed) == 1, (idx, seed, changed)
                i, slot = changed[0]
                assert i == idx
                assert slot in ((5, 6, 7) if old[0] == MUL else (4,))
                assert (rows[i][slot] - old[slot]) % 251 != 0

    def test_inject_fault_mutates_the_pair(self):
        # Each model's effect on the coded pairs, checked field by field
        # on a resolved spec; F1-F4 draw nothing from the stream.
        ir, key, table, program = build_sample(2**31 - 1)
        a, sigs, cycle = key.modulus, table.signatures, 1_000_003
        names = program.sorted_variables
        plain = [INT64_MIN, -1, 0, 1, INT64_MAX, -123456789, 987654321]
        before = {name: encode(plain[i % len(plain)], sigs[name], cycle, key)
                  for i, name in enumerate(names)}
        word = (1 << FUNCTIONAL_BITS) - 1

        def strike(spec, stream="inject"):
            values = dict(before)
            rng = trial_rng(stream, 0)
            rows = inject_fault(values, cycle, program, table, key, spec, rng)
            assert rows is program.rows
            assert {n: v for n, v in values.items() if n != spec.variable} \
                == {n: v for n, v in before.items() if n != spec.variable}
            struck = values[spec.variable]
            assert type(struck) is tuple
            if spec.model != "F6":
                assert rng.getrandbits(64) \
                    == trial_rng(stream, 0).getrandbits(64)
            return struck

        for name in names:
            x, c = before[name]
            for bit in (0, 1, 31, 62, 63):
                fx, fc = strike(FaultSpec("F1", variable=name, bit=bit))
                assert INT64_MIN <= fx <= INT64_MAX
                assert fx & word == (x & word) ^ (1 << bit) and fc == c
            for bit in range(key.bit_width):
                assert strike(FaultSpec("F2", variable=name, bit=bit)) \
                    == (x, c ^ (1 << bit))
            for donor in names:
                if donor != name:
                    assert strike(FaultSpec("F3", variable=name,
                                            donor=donor)) == before[donor]
            for staleness in (1, 2, a - 1, a, a + 5):
                stale = encode(x, sigs[name], cycle - staleness, key)
                assert strike(FaultSpec("F4", variable=name,
                                        staleness=staleness)) == stale
            for i in range(3):
                ref = trial_rng(f"F6:{i}", 0)
                fx, fc = strike(FaultSpec("F6", variable=name), f"F6:{i}")
                assert INT64_MIN <= fx <= INT64_MAX and 0 <= fc < a
                assert fx == ref.getrandbits(FUNCTIONAL_BITS) - (1 << 63)
                assert fc == ref.randrange(a)

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
            idx = ref.randrange(len(program.rows))
            if program.rows[idx][0] == MUL:
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
                     FaultSpec("F9"),
                     FaultSpec("F1", variable="adj", bit=64),
                     FaultSpec("F1", variable="adj", bit=-1),
                     FaultSpec("F1", variable="speed", bit=70),
                     FaultSpec("F2", variable="adj", bit=key.bit_width),
                     FaultSpec("F3", variable="adj", donor="adj"),
                     FaultSpec("F4", variable="alarm", staleness=0),
                     FaultSpec("F4", variable="alarm", staleness=-13)):
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


class TestCycleReasons:
    def test_accept_has_no_reason(self):
        ir, key, table, program = build_sample(13)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key)
        assert (result.reason, result.variable) == (None, None)

    def test_reject_names_incoherent_output(self):
        ir, key, table, program = build_sample(13)
        spec = FaultSpec("F1", variable="alarm", bit=0)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=spec, rng=random.Random(0))
        assert result.verdict == REJECT
        assert (result.reason, result.variable) == (OUTPUT_INCOHERENT,
                                                    "alarm")

    def test_safe_halt_names_input(self):
        ir, key, table, program = build_sample(13)
        inputs = dict(SAMPLE_INPUTS, limit=2**63)
        result = run_cycle(program, table, inputs, SAMPLE_CYCLE, key)
        assert (result.verdict, result.reason, result.variable) == (
            SAFE_HALT, OVERFLOW, "limit")

    def test_safe_halt_names_result(self):
        ir = parse_program("input a; output o; p = a + a; o = a * p;")
        key = make_key(13)
        table, program = build(ir, key, 0)
        result = run_cycle(program, table, {"a": 2**61}, 0, key)
        assert (result.verdict, result.reason, result.variable) == (
            SAFE_HALT, OVERFLOW, "o")

    def test_safe_halt_names_constant(self):
        ir = parse_program("input a; const k = 9223372036854775808; "
                           "output o; o = a + k;")
        key = make_key(13)
        table, program = build(ir, key, 0)
        result = run_cycle(program, table, {"a": 1}, 0, key)
        assert (result.verdict, result.reason, result.variable) == (
            SAFE_HALT, OVERFLOW, "k")


class TestFaultTargetsBuiltOnce:
    def test_program_holds_variables(self):
        ir, key, table, program = build_sample(13)
        assert program.variables == tuple(ir.variables())
        assert program.sorted_variables == tuple(sorted(ir.variables()))

    @pytest.mark.parametrize("seed", range(5))
    def test_f3_donor_drawn_from_other_variables_sorted(self, seed):
        # Any explicit target, output or not, and a drawn output: the
        # donor is drawn from the other variables in sorted order.
        ir, key, table, program = build_sample(13)
        names = ir.variables()
        for target in [None, *names]:
            ref = random.Random(seed)
            variable = target
            if variable is None:
                variable = ir.outputs[ref.randrange(len(ir.outputs))]
            others = sorted(n for n in names if n != variable)
            spec = _resolve_fault(FaultSpec("F3", variable=target), program,
                                  key, random.Random(seed))
            assert (spec.variable, spec.donor) == (
                variable, others[ref.randrange(len(others))])


KEYS = (13, 251, 2**31 - 1)
INT64 = st.integers(INT64_MIN, INT64_MAX)
# Mostly small values, plus values at and just beyond the int64 bounds,
# so both accepted cycles and safe halts are common.
VALUES = st.one_of(st.integers(-1000, 1000), INT64,
                   st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1,
                                    INT64_MAX + 1, 1 << 62, -(1 << 62)]))


@st.composite
def straight_line_programs(draw):
    """(source, inputs): every variable is declared an output."""
    names = [f"i{n}" for n in range(draw(st.integers(1, 3)))]
    lines = [f"input {n};" for n in names]
    inputs = {n: draw(VALUES) for n in names}
    for n in range(draw(st.integers(0, 2))):
        value = draw(VALUES)
        lines.append(f"const k{n} = {value};")
        names.append(f"k{n}")
    for n in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["+", "-", "*", None]))
        src1 = draw(st.sampled_from(names))
        if op is None:
            lines.append(f"v{n} = {src1};")
        else:
            lines.append(f"v{n} = {src1} {op} {draw(st.sampled_from(names))};")
        names.append(f"v{n}")
    lines.extend(f"output {n};" for n in names)
    return "\n".join(lines), inputs


class TestCodedExecutionProperty:
    @settings(max_examples=300, deadline=None)
    @given(straight_line_programs(), st.sampled_from(KEYS),
           st.integers(0, 1 << 40), st.integers(0, (1 << 64) - 1))
    def test_fault_free_cycle(self, program_inputs, modulus, cycle, seed):
        # Every variable is an output, so an accepted cycle has checked
        # every OPEL result against its destination signature.
        source, inputs = program_inputs
        ir = parse_program(source)
        key = make_key(modulus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, seed)
        result = run_cycle(program, table, inputs, cycle, key)
        reference = interpret(ir, inputs)
        outside = [n for n in ir.variables()
                   if not INT64_MIN <= reference[n] <= INT64_MAX]
        if outside:
            assert (result.verdict, result.outputs) == (SAFE_HALT, None)
            assert (result.reason, result.variable) == (OVERFLOW, outside[0])
        else:
            assert result.verdict == ACCEPT, source
            assert result.outputs == reference

    @given(st.sampled_from(KEYS), INT64, INT64,
           st.integers(0, 1 << 40), st.data())
    def test_opel_results_are_well_formed(self, modulus, x1, x2, cycle,
                                          data):
        key = make_key(modulus)
        a = modulus
        b1, b2, b3 = (data.draw(st.integers(0, a - 1)) for _ in range(3))
        d = cycle % a
        v1, v2 = encode(x1, b1, cycle, key), encode(x2, b2, cycle, key)
        t1, t2 = (b1 + d) % a, (b2 + d) % a
        results = [opel_move(v1, (b3 - b1) % a, key)]
        for x, opel, args in (
                (x1 + x2, opel_add, ((b3 - b1 - b2 - d) % a,)),
                (x1 - x2, opel_sub, ((b3 - b1 + b2 + d) % a,)),
                (x1 * x2, opel_mul, (t1, t2, (b3 + d - t1 * t2) % a))):
            if INT64_MIN <= x <= INT64_MAX:
                results.append(opel(v1, v2, *args, key))
                assert results[-1][0] == x
            else:
                with pytest.raises(FunctionalOverflow):
                    opel(v1, v2, *args, key)
        for x, c in results:
            assert c == (x + b3 + d) % a
            assert check((x, c), b3, cycle, key)
