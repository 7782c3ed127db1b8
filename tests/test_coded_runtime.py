import random
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (DEAD_PROGRAM, MIXED_PROGRAM, OVERFLOW_PROGRAM,
                     SAMPLE_CYCLE, SAMPLE_INPUTS, SAMPLE_PROGRAM,
                     build_sample, random_straight_line_program,
                     replay_campaign)
from vitalcode import coded_runtime
from vitalcode.coded_runtime import (ACCEPT, FAULT_MODELS, FUNCTIONAL_BITS,
                                     OUTPUT_INCOHERENT, OVERFLOW, REJECT,
                                     SAFE_HALT, CycleResult, Fault,
                                     FaultOutcomes, UnresolvableTarget,
                                     inject_fault, run_campaign, run_cycle)
from vitalcode.dsl import (ADD, MOVE, MUL, SUB, interpret, output_cone,
                           parse_program)
from vitalcode.sigtool import (CodedProgram, DuplicateSignatureWarning,
                               build, emit_prom, load_prom)
from vitalcode.coded_core import (INT64_MAX, INT64_MIN, FunctionalOverflow,
                                  check, encode, make_key, opel_add,
                                  opel_move, opel_mul, opel_sub)
from vitalcode.stats import (ConfigError, binomial_sigma, trial_rng,
                             wilson_interval)


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
        fault = Fault("F4", program, key, staleness=1)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=fault, rng=random.Random(0))
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
        fault = Fault("F1", program, key, variable="alarm", bit=0)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=fault, rng=random.Random(0))
        assert result.verdict == REJECT and result.outputs is None

    def test_key_of_another_table_is_refused(self):
        # Signed at 251, run at 13: every check would fail, a false reject.
        ir, key, table, program = build_sample(251)
        with pytest.raises(ValueError, match="^key 13 is not the table's "
                                             "key 251$"):
            run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                      make_key(13))

    @pytest.mark.parametrize("model", ["F1", "F4", "F5"])
    @pytest.mark.parametrize("other", ["program", "key"])
    def test_fault_armed_against_another_build_is_refused(self, model,
                                                          other):
        # Struck anyway, the fault's targets, bits and rows would be those
        # of another build: a well-formed reject, or a crash in the cycle.
        ir, key, table, program = build_sample(251)
        if other == "program":
            armed = built((MIXED_PROGRAM, {}), 251, 0)[0]
            fault = Fault(model, armed, key)
        else:
            fault = Fault(model, program, make_key(13))
        with pytest.raises(ValueError, match="^fault armed against another "
                                             "program or key$"):
            run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                      fault=fault, rng=random.Random(0))

    def test_equal_keys_are_one_key(self):
        # The key is compared by modulus: a loaded image's key, or one
        # built afresh, is the key it was signed with.
        ir, key, table, program = build_sample(251)
        fault = Fault("F4", program, make_key(251))
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                           make_key(251), fault=fault, rng=random.Random(0))
        assert result.verdict == REJECT


class TestFaultModels:
    def test_f1_single_bit_always_detected(self):
        # 2^i mod A is never zero for an odd prime A, and the sample
        # program propagates every variable into a checked output.
        ir, key, table, program = build_sample(13)
        ref = interpret(ir, SAMPLE_INPUTS)
        for name in ir.variables():
            for bit in range(64):
                fault = Fault("F1", program, key, variable=name, bit=bit)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=fault)
                assert not (r.verdict == ACCEPT and r.outputs != ref), \
                    (name, bit)

    def test_f2_code_bit_always_detected(self):
        ir, key, table, program = build_sample(13)
        ref = interpret(ir, SAMPLE_INPUTS)
        for name in ir.variables():
            for bit in range(key.bit_width):
                fault = Fault("F2", program, key, variable=name, bit=bit)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=fault)
                assert not (r.verdict == ACCEPT and r.outputs != ref), \
                    (name, bit)

    def test_f3_distinct_signatures_detected(self):
        ir, key, table, program = build_sample(13)
        for donor in ir.variables():
            for target in ir.outputs:
                if donor == target:
                    continue
                fault = Fault("F3", program, key, variable=target,
                              donor=donor)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=fault, rng=random.Random(0))
                distinct = table.signatures[donor] != table.signatures[target]
                assert (r.verdict == REJECT) == distinct, (donor, target)

    def test_f4_stale_detected_iff_age_not_multiple_of_key(self):
        ir, key, table, program = build_sample(13)
        cycle = 40
        for age in range(1, 13):
            fault = Fault("F4", program, key, variable="alarm",
                          staleness=age)
            r = run_cycle(program, table, SAMPLE_INPUTS, cycle, key,
                          fault=fault, rng=random.Random(0))
            assert r.verdict == REJECT, age
        fault = Fault("F4", program, key, variable="alarm", staleness=13)
        r = run_cycle(program, table, SAMPLE_INPUTS, cycle, key,
                      fault=fault, rng=random.Random(0))
        assert r.verdict == ACCEPT

    def test_f5_corrupt_constant_detected(self):
        ir, key, table, program = build_sample(13)
        rng = random.Random(1)
        for idx in range(len(program.rows)):
            fault = Fault("F5", program, key, instruction=idx)
            r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                          fault=fault, rng=rng)
            assert r.verdict == REJECT, idx

    def test_f5_patches_one_residue_slot(self):
        key = make_key(251)
        table, program = build(parse_program(MIXED_PROGRAM), key, 6)
        for idx, old in enumerate(program.rows):
            for seed in range(5):
                rows = Fault("F5", program, key, instruction=idx).draw(
                    random.Random(seed))[0]
                assert len(rows) == len(program.rows)
                assert [len(row) for row in rows] \
                    == [len(row) for row in program.rows]
                changed = [(i, slot)
                           for i, (new_row, old_row)
                           in enumerate(zip(rows, program.rows))
                           for slot in range(len(old_row))
                           if new_row[slot] != old_row[slot]]
                assert len(changed) == 1, (idx, seed, changed)
                i, slot = changed[0]
                assert i == idx
                mul = program.ir.instructions[idx].opcode == MUL
                assert slot in ((0, 1, 2) if mul else (0,))
                assert (rows[i][slot] - old[slot]) % 251 != 0

    def test_f5_draws_a_slot_only_from_a_mul_row(self):
        # A one-residue row patches its only slot without a slot draw, so
        # a random.Random stream ends where the nonzero shift leaves it.
        key = make_key(251)
        ir = parse_program("input a; output m; s = a + a; m = s * a;")
        program = CodedProgram(ir, ((5,), (1, 2, 3)))

        def patch(i, rng):
            return Fault("F5", program, key, instruction=i).draw(rng)[0]

        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            shift = ref.randrange(1, 251)
            assert patch(0, rng) == (((5 + shift) % 251,), (1, 2, 3))
            assert rng.getstate() == ref.getstate()
            slot = ref.randrange(3)
            shift = ref.randrange(1, 251)
            patched = [1, 2, 3]
            patched[slot] = (patched[slot] + shift) % 251
            assert patch(1, rng) == ((5,), tuple(patched))
            assert rng.getstate() == ref.getstate()

    def test_inject_fault_mutates_the_pair(self):
        # Each model's struck value, checked field by field on a fault
        # with every selector set, after the fault's draws: only F6's
        # record, drawn in `draw`.  F3 first strikes its donor, which
        # it keeps and leaves unchanged.
        ir, key, table, program = build_sample(2**31 - 1)
        a, sigs, cycle = key.modulus, table.signatures, 1_000_003
        names = sorted(program.variables)
        plain = [INT64_MIN, -1, 0, 1, INT64_MAX, -123456789, 987654321]
        before = {name: encode(plain[i % len(plain)], sigs[name], cycle, key)
                  for i, name in enumerate(names)}
        word = (1 << FUNCTIONAL_BITS) - 1

        def strike(model, stream="inject", **selectors):
            fault = Fault(model, program, key, **selectors)
            rng = trial_rng(stream, 0)
            fault.draw(rng)
            if model != "F6":
                assert rng.getrandbits(64) \
                    == trial_rng(stream, 0).getrandbits(64)
            if model == "F3":
                donor = before[fault.donor]
                assert inject_fault(fault, donor) == donor
            struck = inject_fault(fault, before[fault.variable])
            assert type(struck) is tuple
            return struck

        for name in names:
            x, c = before[name]
            for bit in (0, 1, 31, 62, 63):
                fx, fc = strike("F1", variable=name, bit=bit)
                assert INT64_MIN <= fx <= INT64_MAX
                assert fx & word == (x & word) ^ (1 << bit) and fc == c
            for bit in range(key.bit_width):
                assert strike("F2", variable=name, bit=bit) \
                    == (x, c ^ (1 << bit))
            for donor in names:
                if donor != name:
                    assert strike("F3", variable=name, donor=donor) \
                        == before[donor]
            for staleness in (1, 2, a - 1, a, a + 5):
                stale = encode(x, sigs[name], cycle - staleness, key)
                assert strike("F4", variable=name,
                              staleness=staleness) == stale
            for i in range(3):
                ref = trial_rng(f"F6:{i}", 0)
                fx, fc = strike("F6", f"F6:{i}", variable=name)
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
        # The fault makes all its draws in `draw`, before execution, and
        # nothing else draws, so the generator ends exactly where the
        # documented draws leave it, whether `draw` runs alone or in a
        # cycle.
        ir, key, table, program = build_sample(13)
        rng, ref = random.Random(5), random.Random(5)
        alone = random.Random(5)
        names = ir.variables()
        run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                  fault=Fault(model, program, key), rng=rng)
        Fault(model, program, key).draw(alone)
        if model in ("F1", "F2"):
            ref.randrange(len(names))
            ref.randrange(FUNCTIONAL_BITS if model == "F1"
                          else key.bit_width)
        elif model == "F5":
            idx = ref.randrange(len(program.rows))
            if program.ir.instructions[idx].opcode == MUL:
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
        assert alone.getstate() == ref.getstate()

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_reused_fault_equals_fresh(self, model):
        # The campaign arms each model once and reuses it on every trial.
        key = make_key(13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(parse_program(MIXED_PROGRAM), key, 6)
        inputs = {"u": 4, "v": -7, "w": 2}
        cases = [{"staleness": 3} if model == "F4" else {}] + [
            selectors for m, selectors in colliding_selectors(program, key)
            if m == model]
        for selectors in cases:
            reused = Fault(model, program, key, **selectors)
            for seed in range(8):
                rng, ref = random.Random(seed), random.Random(seed)
                fresh = Fault(model, program, key, **selectors)
                assert run_cycle(program, table, inputs, 5, key, reused, rng) \
                    == run_cycle(program, table, inputs, 5, key, fresh, ref)
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("model", FAULT_MODELS)
    def test_drawn_selectors_do_not_stick(self, model):
        # A reused fault draws each unset selector afresh on every cycle,
        # so over many cycles it reaches every candidate; a selector set
        # at construction, and one the model does not use, never changes.
        key = make_key(251)
        table, program = build(parse_program(MIXED_PROGRAM), key, 6)
        inputs = {"u": 4, "v": -7, "w": 2}
        names, outputs = program.variables, program.ir.outputs
        # (selectors set, {selectors drawn: every value they take together})
        if model in ("F1", "F2"):
            bits = range(FUNCTIONAL_BITS if model == "F1" else key.bit_width)
            cases = [({}, {("variable",): names, ("bit",): bits}),
                     ({"variable": "q"}, {("bit",): bits}),
                     ({"bit": 3}, {("variable",): names})]
        elif model == "F3":
            pairs = [(o, d) for o in outputs for d in names if d != o]
            cases = [({}, {("variable", "donor"): pairs}),
                     ({"variable": "q"},
                      {("donor",): [d for d in names if d != "q"]}),
                     ({"donor": "k"}, {("variable",): outputs})]
        elif model == "F5":
            cases = [({}, {("instruction",): range(len(program.rows))}),
                     ({"instruction": 3}, {})]
        elif model == "F4":
            cases = [({}, {("variable",): outputs}),
                     ({"variable": "q", "staleness": 3}, {})]
        else:
            cases = [({}, {("variable",): outputs}), ({"variable": "q"}, {})]
        for given, drawn in cases:
            fault = Fault(model, program, key, **given)
            fixed = {s: getattr(fault, s) for s in
                     ("variable", "donor", "instruction", "bit", "staleness")
                     if not any(s in attrs for attrs in drawn)}
            assert given.items() <= fixed.items()
            seen = {attrs: set() for attrs in drawn}
            for i in range(1000):
                run_cycle(program, table, inputs, 5, key, fault,
                          trial_rng("sticky", i))
                for attrs in drawn:
                    seen[attrs].add(attrgetter(*attrs)(fault))
                assert {s: getattr(fault, s) for s in fixed} == fixed, i
            assert seen == {attrs: set(values)
                            for attrs, values in drawn.items()}, given

    def test_unresolvable_target(self):
        ir, key, table, program = build_sample(13)
        for model, selectors in (
                ("F1", {"variable": "ghost"}),
                ("F3", {"donor": "ghost"}),
                ("F5", {"instruction": 99}),
                ("F9", {}),
                ("F1", {"variable": "adj", "bit": 64}),
                ("F1", {"variable": "adj", "bit": -1}),
                ("F1", {"variable": "speed", "bit": 70}),
                ("F2", {"variable": "adj", "bit": key.bit_width}),
                ("F3", {"variable": "adj", "donor": "adj"}),
                ("F4", {"variable": "alarm", "staleness": 0}),
                ("F4", {"variable": "alarm", "staleness": -13})):
            with pytest.raises(UnresolvableTarget):
                Fault(model, program, key, **selectors)

    @pytest.mark.parametrize("model, selectors, unread", [
        ("F1", {"variable": "adj", "instruction": 3}, "instruction"),
        ("F2", {"donor": "adj"}, "donor"),
        ("F3", {"variable": "alarm", "bit": 0}, "bit"),
        ("F4", {"instruction": 0}, "instruction"),
        ("F5", {"variable": "ghost", "bit": 99}, "variable"),
        ("F6", {"staleness": 0}, "staleness")])
    def test_unread_selector_refused(self, model, selectors, unread):
        # A selector the model never reads would be silently ignored.
        ir, key, table, program = build_sample(13)
        with pytest.raises(UnresolvableTarget,
                           match=f"^{model} reads no {unread}$"):
            Fault(model, program, key, **selectors)


class TestCampaign:
    @pytest.mark.parametrize("models", [["F9"], ["F1", "f2"], ["F5", "F9"],
                                        ["F1", "F1", "F9"]])
    def test_unknown_model_named_before_arming(self, models):
        # Named as unknown, not as one that cannot strike, even after a
        # model this program cannot host (F5: no instruction) or a repeat.
        ir = parse_program("input a; output a;")
        key = make_key(13)
        table, program = build(ir, key, 0)
        with pytest.raises(ConfigError) as exc:
            run_campaign(program, table, key, models, 3, seed=1)
        assert exc.value.path == "--model"
        assert str(exc.value) \
            == f"--model: unknown fault model {models[-1]!r}"

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

    @pytest.mark.parametrize("models", [FAULT_MODELS, []])
    def test_header_is_uniform(self, monkeypatch, models):
        # One draw gives a trial's inputs, model and cycle; record them
        # in place of the cycle.
        ir, key, table, program = build_sample(251)
        seen = []

        def record(program, table, inputs, cycle, key, fault, rng):
            seen.append((inputs, cycle, fault and fault.model))
            return CycleResult(REJECT, None)

        monkeypatch.setattr(coded_runtime, "run_cycle", record)
        trials = 20_000
        run_campaign(program, table, key, models, trials, seed=31)
        assert len(seen) == trials
        assert all(1 <= cycle < 1 << 20 for _, cycle, _ in seen)
        groups = [(Counter(inputs[n] for inputs, _, _ in seen),
                   range(-100, 101)) for n in ir.inputs]
        models_seen = Counter(model for *_, model in seen)
        if models:
            groups.append((models_seen, models))
        else:
            assert models_seen == {None: trials}
        groups.append((Counter(cycle >> 19 for _, cycle, _ in seen),
                       range(2)))
        for counts, values in groups:
            assert set(counts) <= set(values)
            for v in values:
                lo, hi = wilson_interval(counts[v], trials, z=3.89)
                assert lo <= 1 / len(values) <= hi, (v, counts[v])

    @pytest.mark.parametrize("m", [17, 2000])
    def test_header_decoded_as_per_digit(self, monkeypatch, m):
        # The campaign peels its header a limb of inputs at a time; the
        # values and their order are the per-digit decode's: each input
        # in program order, then the model, then the cycle.
        ir = parse_program("".join(f"input v{i}; output v{i}; "
                                   for i in range(m)))
        key = make_key(2**31 - 1)
        table, program = build(ir, key, 1)
        seen = []

        def record(program, table, inputs, cycle, key, fault, rng):
            seen.append((list(inputs.items()), fault.model, cycle))
            return CycleResult(REJECT, None)

        monkeypatch.setattr(coded_runtime, "run_cycle", record)
        models = ["F3", "F4"]
        run_campaign(program, table, key, models, 20, seed=4)
        span = 201 ** m * len(models) * ((1 << 20) - 1)
        expected = []
        for i in range(20):
            r = trial_rng("vitalcode:4", i).randrange(span)
            inputs = []
            for name in ir.inputs:
                r, x = divmod(r, 201)
                inputs.append((name, x - 100))
            r, k = divmod(r, len(models))
            expected.append((inputs, models[k], r + 1))
        assert seen == expected

    @pytest.mark.parametrize("modulus", [13, 251])
    @pytest.mark.parametrize("source", [SAMPLE_PROGRAM, MIXED_PROGRAM,
                                        OVERFLOW_PROGRAM],
                             ids=["sample", "mixed", "overflow"])
    def test_equals_replay_through_public_api(self, source, modulus):
        key = make_key(modulus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(parse_program(source), key, 6)
        for models in (FAULT_MODELS, []):
            report = run_campaign(program, table, key, models, 900, seed=7)
            tally = replay_campaign(program, table, key, models, 900, 7)
            groups = report.per_model.items() if models else [(None, report)]
            for model, group in groups:
                assert {o: getattr(group, o) for o in FaultOutcomes.names} \
                    == {o: tally[model, o] for o in FaultOutcomes.names}
            assert sum(tally.values()) == report.trials

    def test_f3_rates_match_the_enumeration(self):
        # ROADMAP item 3's F3 slice.  Seed 19 signs t and o alike, each
        # the last name the other draws as a donor, so a substitution
        # between them is accepted: a wrong output unless a = 0.
        ir = parse_program("input a; const k = 3; t = a * k; o = t + a; "
                           "output o; output t;")
        key = make_key(13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, 19)
        assert table.signatures["t"] == table.signatures["o"]
        exact = exact_outcomes(program, table, key,
                               {"F3": f3_cases(program, key)})
        assert exact["F3"]["undetected_wrong_output"] == Fraction(200, 201 * 3)
        assert_campaign_covers(program, table, key, exact, seed=3)

    def test_dead_variable_rates_match_the_enumeration(self):
        # ROADMAP item 3's F2, F3 and F5 slices on a program whose u
        # reaches no declared output's check, so the compiled cycle keeps
        # no code field for it and strikes it through its functional
        # field alone.  Seed 3 signs u and o alike and t apart, so
        # substituting u for o is accepted (a wrong output unless
        # a = -3), and substituting u for t is detected on every date.
        ir = parse_program("input a; const k = 3; t = a * k; o = t + a; "
                           "u = t - k; output o; output t;")
        key = make_key(13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, 3)
        sigs = table.signatures
        assert sigs["u"] == sigs["o"] != sigs["t"]
        assert live_variables(program) == {program.index[n]
                                           for n in ("a", "k", "t", "o")}
        names = program.variables
        f2 = [(Fraction(1, len(names) * key.bit_width),
               Fault("F2", program, key, variable=name, bit=bit), ())
              for name in names for bit in range(key.bit_width)]
        # A one-residue row draws no slot, only the delta.
        f5 = [(Fraction(1, len(program.rows) * len(row) * 12),
               Fault("F5", program, key, instruction=i),
               (slot, delta) if len(row) > 1 else (delta,))
              for i, row in enumerate(program.rows)
              for slot in range(len(row)) for delta in range(1, 13)]
        exact = exact_outcomes(program, table, key, {
            "F2": f2, "F3": f3_cases(program, key), "F5": f5})
        assert exact["F2"]["undetected_wrong_output"] == 0
        assert exact["F5"]["undetected_wrong_output"] == 0
        # An F2 flip of u, or an F5 patch of u's row, is never read.
        assert exact["F2"]["benign"] > Fraction(1, len(names))
        assert exact["F5"]["benign"] > Fraction(1, len(program.rows))
        assert_campaign_covers(program, table, key, exact, seed=4)

    def test_f3_memory_stays_linear_in_outputs(self):
        # A donor tuple per target would hold outputs x variables names:
        # ~73 MB here, where arming and drawing need a few kB.  Only the
        # fault is traced: tracemalloc scans the cycle's line table for
        # every allocation made in its one frame, so a traced cycle
        # costs the square of the program's size.
        n = 3000
        ir = parse_program("".join(f"input v{i}; output v{i}; "
                                   for i in range(n)))
        key = make_key(2**31 - 1)
        table, program = build(ir, key, 1)
        tracemalloc.start()
        try:
            fault = Fault("F3", program, key)
            pairs = set()
            for i in range(5):
                fault.draw(trial_rng("vitalcode:2", i))
                pairs.add((fault.variable, fault.donor))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 5 and all(t != d for t, d in pairs)
        assert peak < 2 << 20, peak
        report = run_campaign(program, table, key, ["F3"], 5, seed=2)
        assert report.per_model["F3"].trials == 5

    def test_program_without_inputs(self):
        ir = parse_program("const k = 5; const m = -3; output y; y = k * m;")
        key = make_key(251)
        table, program = build(ir, key, 2)
        report = run_campaign(program, table, key, FAULT_MODELS, 600, seed=5)
        assert sum(g.trials for g in report.per_model.values()) == 600
        assert run_campaign(program, table, key, [], 50, seed=5).benign == 50

    def test_header_wider_than_one_block(self):
        # 70 inputs: the header's range needs more than the 512 bits of
        # the stream's first block.
        names = [f"a{j}" for j in range(70)]
        sums = ["s1 = a0 + a1;"] + [f"s{j} = s{j - 1} + a{j};"
                                    for j in range(2, 70)]
        ir = parse_program("".join(f"input {n}; " for n in names)
                           + " ".join(sums) + " output s69;")
        assert (201 ** 70 * 6 * ((1 << 20) - 1)).bit_length() > 512
        key = make_key(2**31 - 1)
        table, program = build(ir, key, 3)
        a = run_campaign(program, table, key, FAULT_MODELS, 200, seed=6)
        b = run_campaign(program, table, key, FAULT_MODELS, 200, seed=6)
        assert a.to_json() == b.to_json()
        assert a.undetected_wrong_output == 0
        assert run_campaign(program, table, key, [], 50, seed=6).benign == 50


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
        fault = Fault("F1", program, key, variable="alarm", bit=0)
        result = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key,
                           fault=fault, rng=random.Random(0))
        assert result.verdict == REJECT
        assert (result.reason, result.variable) == (OUTPUT_INCOHERENT,
                                                    "alarm")

    @pytest.mark.parametrize("first, second", [("y", "x"), ("x", "y")])
    @pytest.mark.parametrize("model", ["F1", "F2"])
    def test_reject_names_first_declared_output(self, first, second, model):
        # The struck input feeds both outputs, so both fail their check;
        # x is defined first, and the reject names whichever is declared
        # first.
        ir = parse_program(f"input a; x = a + 1; y = a * 2; "
                           f"output {first}; output {second};")
        key = make_key(251)
        table, program = build(ir, key, 1)
        fault = Fault(model, program, key, variable="a", bit=0)
        result = run_cycle(program, table, {"a": 3}, 5, key, fault)
        assert (result.verdict, result.reason, result.variable) == (
            REJECT, OUTPUT_INCOHERENT, first)

    @pytest.mark.parametrize("model, selectors", [
        ("F3", {}), ("F3", {"donor": "adj"}), ("F4", {}),
        ("F4", {"staleness": 5}), ("F6", {})])
    def test_end_fault_on_non_output_changes_nothing(self, model, selectors):
        # No check reads a variable that is not an output.
        ir, key, table, program = build_sample(13)
        clean = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE, key)
        assert clean.verdict == ACCEPT
        for target in ("speed", "margin", "slack", "guard"):
            fault = Fault(model, program, key, variable=target, **selectors)
            for n in range(5):
                assert run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                                 key, fault, trial_rng("non-output", n)) \
                    == clean, (target, n)

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
            fault = Fault("F3", program, key, variable=target)
            fault.draw(random.Random(seed))
            assert (fault.variable, fault.donor) == (
                variable, others[ref.randrange(len(others))])


KEYS = (13, 251, 2**31 - 1)
INT64 = st.integers(INT64_MIN, INT64_MAX)
# Mostly small values, plus values at and just beyond the int64 bounds,
# so both accepted cycles and safe halts are common.
VALUES = st.one_of(st.integers(-1000, 1000), INT64,
                   st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1,
                                    INT64_MAX + 1, 1 << 62, -(1 << 62)]))


@st.composite
def straight_line_programs(draw, subset=False):
    """(source, inputs): every variable is declared an output, in
    canonical order, or with `subset` a drawn non-empty subset of them,
    in a drawn order."""
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
    if subset:
        names = draw(st.permutations(names))
        names = names[:draw(st.integers(1, len(names)))]
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
        results = [opel_move(v1, (b3 - b1) % a, key)]
        for x, opel, args in (
                (x1 + x2, opel_add, ((b3 - b1 - b2 - d) % a,)),
                (x1 - x2, opel_sub, ((b3 - b1 + b2 + d) % a,)),
                (x1 * x2, opel_mul, ((b1 + d) % a, (b2 + d) % a,
                                     (b3 + d) % a))):
            if INT64_MIN <= x <= INT64_MAX:
                results.append(opel(v1, v2, *args, key))
                assert results[-1][0] == x
            else:
                with pytest.raises(FunctionalOverflow):
                    opel(v1, v2, *args, key)
        for x, c in results:
            assert c == (x + b3 + d) % a
            assert check((x, c), b3, cycle, key)


# Names of the generated cycle's parameters (a, d, hit, strike, int,
# rows) and of a local (t1), of names an earlier cycle read (key, v0,
# encode, opel_add) and of a builtin (__import__), plus k0 and _.  Every
# variable flows into the output `rows`.
COLLIDING_PROGRAM = """
input v0; input key; input d;
const k0 = 7; const int = -3;
a = v0 + key; hit = a * k0; strike = hit - d; opel_add = strike;
encode = opel_add * int; __import__ = encode + a; t1 = __import__ - v0;
_ = t1 * d; rows = _;
output rows; output hit; output encode;
"""
COLLIDING_INPUTS = {"v0": 5, "key": -4, "d": 3}

# v1 doubled 39 times, with the output v5 inside the chain: its code
# fields must be reduced along the way (`test_long_sums_stay_bounded`).
_CHAIN = "".join(f"v{n} = v{n - 1} + v{n - 1}; " for n in range(2, 41))
LONG_SUMS = (f"input a; input b; v1 = a + a; {_CHAIN}m = v40 * b; "
             f"r = m - v5; output r; output v5;", {"a": 3, "b": -5})


def reference_cycle(program, table, inputs, cycle, key, rows, hit, strike):
    """Every variable's coded value in canonical order, from
    `coded_core.encode` and the OPELs walked over `ir.instructions` and
    `rows`, with variable `hit` struck right after its definition; or
    the index of the first variable whose value leaves int64."""
    ir, sigs, index = program.ir, table.signatures, program.index
    d = cycle % key.modulus
    values = []

    def define(value):
        values.append(strike(value) if len(values) == hit else value)

    try:
        for name in ir.inputs:
            define(encode(int(inputs[name]), sigs[name], cycle, key))
        for name, x in ir.consts.items():
            define(encode(x, sigs[name], cycle, key))
        for ins, row in zip(ir.instructions, rows):
            v1 = values[index[ins.src1]]
            if ins.opcode == MOVE:
                define(opel_move(v1, row[0], key))
                continue
            v2 = values[index[ins.src2]]
            if ins.opcode == ADD:
                define(opel_add(v1, v2, row[0] - d, key))
            elif ins.opcode == SUB:
                define(opel_sub(v1, v2, row[0] + d, key))
            else:
                define(opel_mul(v1, v2, *(r + d for r in row), key))
    except FunctionalOverflow:
        return len(values)
    return tuple(values)


def reference_tail(program, table, cycle, key, values, fault, end):
    """(verdict, reason, variable, outputs) of a cycle whose variables
    `reference_cycle` gave as `values`, striking `fault`: output `end`
    struck through `inject_fault` (F3 with the donor value its strike
    in `reference_cycle` kept), then `coded_core.check` on each
    declared output."""
    if type(values) is int:
        return SAFE_HALT, OVERFLOW, program.variables[values], None
    values = list(values)
    if end >= 0:
        values[end] = inject_fault(fault, values[end])
    outputs = {}
    for name in program.ir.outputs:
        value = values[program.index[name]]
        if not check(value, table.signatures[name], cycle, key):
            return REJECT, OUTPUT_INCOHERENT, name, None
        outputs[name] = value[0]
    return ACCEPT, None, None, outputs


class AnswerStream:
    """The `TrialStream` subset `Fault.draw` reads for F2, F3 and F5:
    each `randrange` call returns the next of the given answers."""

    def __init__(self, answers):
        self._answers = iter(answers)

    def randrange(self, *bounds):
        return next(self._answers)


def f3_cases(program, key):
    """(share, fault, answers) of every F3 (output, donor) pair, drawn
    with the campaign's weights: uniform over the outputs, then over the
    other variables."""
    names, outputs = program.variables, program.ir.outputs
    return [(Fraction(1, len(outputs) * (len(names) - 1)),
             Fault("F3", program, key, variable=target, donor=donor), ())
            for target in outputs for donor in names if donor != target]


def exact_outcomes(program, table, key, cases):
    """Each model's exact outcome fractions over an inject trial of a
    one-input program at A = 13, from the reference walker.  The header
    is one uniform draw and the cycle is uniform on [1, 2^20), so a is
    uniform on [-100, 100] and each date residue weighs its count there.
    `cases[model]` lists (share, fault, answers): an explicit fault
    drawn, afresh for every cycle, from an `AnswerStream` of the
    answers, with its share of the model's draws."""
    [name] = program.ir.inputs
    weight = [len(range(r or 13, 1 << 20, 13)) for r in range(13)]
    assert set(weight) == {80_659, 80_660}
    plain = {a: interpret(program.ir, {name: a}) for a in range(-100, 101)}
    exact = {}
    for model, model_cases in cases.items():
        assert sum(share for share, _, _ in model_cases) == 1
        exact[model] = Counter()
        for share, fault, answers in model_cases:
            counts = Counter()
            for a, outputs_of_a in plain.items():
                for r in range(13):
                    rows, hit, end = fault.draw(AnswerStream(answers))
                    values = reference_cycle(program, table, {name: a}, r,
                                             key, rows, hit, fault.strike)
                    verdict, _, _, outputs = reference_tail(
                        program, table, r, key, values, fault, end)
                    counts["detected" if verdict != ACCEPT else
                           "benign" if outputs == outputs_of_a else
                           "undetected_wrong_output"] += weight[r]
            for outcome, n in counts.items():
                exact[model][outcome] += share * Fraction(
                    n, 201 * ((1 << 20) - 1))
        assert sum(exact[model].values()) == 1
    return exact


def assert_campaign_covers(program, table, key, exact, seed):
    """20,000 campaign trials of each model: every outcome's Wilson
    interval at z = 3.89 covers its exact fraction."""
    trials = 20_000
    for model, fractions in exact.items():
        group = run_campaign(program, table, key, [model], trials,
                             seed=seed).per_model[model]
        for outcome in FaultOutcomes.names:
            lo, hi = wilson_interval(getattr(group, outcome), trials,
                                     z=3.89)
            assert lo <= fractions[outcome] <= hi, (model, outcome,
                                                    group.row())


def colliding_selectors(program, key):
    """(model, selectors) of explicit F1-F6 faults over every variable,
    output and row."""
    names, outputs = program.variables, program.ir.outputs
    for name in names:
        for bit in (0, 1, 31, 62, 63):
            yield "F1", {"variable": name, "bit": bit}
        for bit in (0, key.bit_width - 1):
            yield "F2", {"variable": name, "bit": bit}
    for target in outputs:
        for donor in names:
            if donor != target:
                yield "F3", {"variable": target, "donor": donor}
        for staleness in (1, key.modulus):
            yield "F4", {"variable": target, "staleness": staleness}
        yield "F6", {"variable": target}
    for i in range(len(program.rows)):
        yield "F5", {"instruction": i}


def built(program_inputs, modulus, seed):
    """(program, table, inputs, key) of a (source, inputs) pair."""
    source, inputs = program_inputs
    key = make_key(modulus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        table, program = build(parse_program(source), key, seed)
    return program, table, inputs, key


def live_variables(program):
    """Indices of the variables whose code field reaches a declared
    output's check: the outputs and, walking the instructions from the
    last, every operand of an instruction whose destination is live."""
    live = set(program.ir.outputs)
    for ins in reversed(program.ir.instructions):
        if ins.dest in live:
            live |= {ins.src1, ins.src2} - {None}
    return {program.index[name] for name in live}


def assert_matches_the_opels(program, table, inputs, key, cycle):
    """Every variable's (x, c), fault-free and under every explicit
    fault, against `reference_cycle`: the end strike on the first
    declared output reads them from the cycle's locals, where a code
    field holds c - D, and strikes nothing.  Every x must match exactly.
    Only a live variable (`live_variables`) has a code local, and its
    (c + D) mod A must match the reference's c mod A exactly: that is
    all a strike or a check reads of it.  Every code local then lies
    below 2^61.  On overflow both halt at the same variable.  Then
    run_cycle's verdict against `reference_tail`.
    """
    compiled = coded_runtime._compile_cycle(program)
    a, outputs, d = key.modulus, program.ir.outputs, cycle % key.modulus
    live = live_variables(program)

    def observed(values, date=0):
        return [(x, (c + date) % a if j in live else None)
                for j, (x, c) in enumerate(values)]

    cases = [(None, {}), *colliding_selectors(program, key)]
    for n, (model, selectors) in enumerate(cases):
        rows, hit, end, fault = program.rows, -1, -1, None
        if model:
            fault = Fault(model, program, key, **selectors)
            rows, hit, end = fault.draw(trial_rng("opels", n))
        recorded, struck = [], []

        def strike(value):
            if hit >= 0 and not struck:  # F1/F2/F3, after the definition
                struck.append(value)
                return fault.strike(value)
            cycle_locals = sys._getframe(1).f_locals
            recorded.append(observed(
                ((cycle_locals[f"x{j}"],
                  cycle_locals[f"c{j}"] if j in live else None)
                 for j in range(len(program.variables))), d))
            assert all(abs(c) < 1 << 61 for name, c in cycle_locals.items()
                       if name[0] == "c" and name[1:].isdigit())
            return value

        code = compiled(inputs, program.ir.consts, table.signatures,
                        program.variables, rows, d, a, hit,
                        program.index[outputs[0]], strike, int)
        if model:  # a fresh capture for the reference's own F3 strikes
            fault.draw(trial_rng("opels", n))
        expected = reference_cycle(program, table, inputs, cycle, key,
                                   rows, hit, fault and fault.strike)
        if type(expected) is int:
            assert (code, recorded) == (expected, []), (model, selectors)
        else:
            assert recorded == [observed(expected)], (model, selectors)
        result = run_cycle(
            program, table, inputs, cycle, key,
            model and Fault(model, program, key, **selectors),
            trial_rng("opels", n))
        assert (result.verdict, result.reason, result.variable,
                result.outputs) == reference_tail(
                    program, table, cycle, key, expected, fault, end), (
                        model, selectors)


class TestCompiledCycle:
    def test_colliding_names_match_interpret(self):
        ir = parse_program(COLLIDING_PROGRAM)
        key = make_key(2**31 - 1)
        table, program = build(ir, key, 8)
        reference = interpret(ir, COLLIDING_INPUTS)
        result = run_cycle(program, table, COLLIDING_INPUTS, 11, key)
        assert (result.verdict, result.outputs) == (ACCEPT, reference)
        code = program.compiled.__code__
        assert code.co_names == ()
        assert all(c is None or type(c) is int for c in code.co_consts)
        for n, (model, selectors) in enumerate(
                colliding_selectors(program, key)):
            r = run_cycle(program, table, COLLIDING_INPUTS, 11, key,
                          fault=Fault(model, program, key, **selectors),
                          rng=trial_rng("colliding", n))
            assert r.verdict != ACCEPT or r.outputs == reference, selectors
            if model in ("F1", "F2", "F5"):
                assert r.verdict != ACCEPT, (model, selectors)

    def test_colliding_names_prom_round_trip(self):
        ir = parse_program(COLLIDING_PROGRAM)
        key = make_key(251)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, 8)
        loaded_table, loaded = load_prom(emit_prom(table, program))
        assert (loaded_table, loaded) == (table, program)
        cases = [(None, {}), *colliding_selectors(program, key)]
        for n, (model, selectors) in enumerate(cases):
            results = [run_cycle(p, t, COLLIDING_INPUTS, 11, key,
                                 fault=model and Fault(model, p, key,
                                                       **selectors),
                                 rng=trial_rng("round-trip", n))
                       for t, p in ((table, program), (loaded_table, loaded))]
            assert results[0] == results[1], (model, selectors)

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(), st.sampled_from(KEYS),
           st.integers(0, 1 << 40), st.integers(0, (1 << 64) - 1))
    def test_matches_the_opels(self, program_inputs, modulus, cycle, seed):
        # Every variable is an output, so every (x, c) must match exactly.
        assert_matches_the_opels(*built(program_inputs, modulus, seed),
                                 cycle)

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(subset=True), st.sampled_from(KEYS),
           st.integers(0, 1 << 40), st.integers(0, (1 << 64) - 1))
    def test_matches_the_opels_on_declared_outputs(
            self, program_inputs, modulus, cycle, seed):
        # Only the outputs, a drawn subset in a drawn order, are checked,
        # so some variables are dead; every live code field, an output's
        # too, is reduced lazily.
        assert_matches_the_opels(*built(program_inputs, modulus, seed),
                                 cycle)

    @pytest.mark.parametrize("modulus", KEYS)
    @pytest.mark.parametrize("a", [7, -91])
    def test_matches_the_opels_on_dead_rows(self, modulus, a):
        # The dead MUL u leaves int64 at a = -91: a safe halt in a row no
        # check reads.  At a = 7 every fault on a dead variable runs on.
        inputs = {"a": a, "b": 4, "spare": -3}
        assert_matches_the_opels(*built((DEAD_PROGRAM, inputs), modulus, 6),
                                 77)

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(subset=True))
    def test_code_locals_are_the_live_variables(self, program_inputs):
        # A code field that reaches no declared output's check can change
        # no verdict, so only a live variable keeps a code local; every
        # variable keeps its functional one.
        program = built(program_inputs, 251, 0)[0]
        local = coded_runtime._compile_cycle(program).__code__.co_varnames
        n = len(program.variables)
        assert {name for name in local if name[0] == "c"
                and name[1:].isdigit()} == {f"c{j}"
                                            for j in live_variables(program)}
        assert {f"x{j}" for j in range(n)} <= set(local)

    @pytest.mark.parametrize("modulus", [2**31 - 1, 2**48 - 59])
    def test_long_sums_stay_bounded(self, modulus):
        # Unreduced, v40's code field would pass 2^61.  v_n's bound is
        # twice v_(n-1)'s plus one, for its constant, and no date: it
        # passes `coded_runtime._BOUND` at v12, v24 and v36, so each of
        # them is reduced, and v5, though an output, is not.
        assert_matches_the_opels(*built(LONG_SUMS, modulus, 6), 77)

    @pytest.mark.parametrize("modulus", KEYS)
    @pytest.mark.parametrize("cycle", [lambda a: 0, lambda a: 3 * a - 1,
                                       lambda a: a],
                             ids=["0", "3A-1", "A"])
    @pytest.mark.parametrize("program_inputs", [
        (DEAD_PROGRAM, {"a": 7, "b": 4, "spare": -3}), LONG_SUMS],
        ids=["dead", "long-sums"])
    def test_matches_the_opels_at_the_date_edges(self, program_inputs,
                                                 modulus, cycle):
        # Dates 0 and A - 1, where a strike's (cj + d) % a and its
        # cj -= d wrap; the cycle A has date 0 again.
        assert_matches_the_opels(*built(program_inputs, modulus, 6),
                                 cycle(modulus))

    def test_compiled_on_first_cycle_only(self):
        ir, key, table, program = build_sample(251)
        loaded_table, loaded = load_prom(emit_prom(table, program))
        assert program.compiled is None and loaded.compiled is None
        run_cycle(loaded, loaded_table, SAMPLE_INPUTS, 1, key)
        compiled = loaded.compiled
        assert callable(compiled) and program.compiled is None
        for model in FAULT_MODELS:
            run_cycle(loaded, loaded_table, SAMPLE_INPUTS, 2, key,
                      fault=Fault(model, loaded, key),
                      rng=trial_rng("lazy", 0))
            assert loaded.compiled is compiled

    @pytest.mark.parametrize("op, b", [("+", 1 << 62), ("-", -(1 << 62)),
                                       ("*", 2)])
    def test_struck_value_overflows_later_row(self, op, b):
        # c = 1 is fine; with bit 62 flipped it is 2^62 + 1, and the next
        # row leaves int64.  The halt names that row's destination.
        ir = parse_program(f"input a; input b; c = a; r = c {op} b; "
                           f"output r; output c;")
        key = make_key(251)
        table, program = build(ir, key, 2)
        inputs = {"a": 1, "b": b}
        assert run_cycle(program, table, inputs, 5, key).verdict == ACCEPT
        result = run_cycle(program, table, inputs, 5, key,
                           fault=Fault("F1", program, key, variable="c",
                                       bit=62))
        assert (result.verdict, result.reason, result.variable) == (
            SAFE_HALT, OVERFLOW, "r")

    @pytest.mark.parametrize("modulus", [13, 2**31 - 1])
    def test_f3_capture_never_goes_stale(self, monkeypatch, modulus):
        # One armed F3 fault per donor serves every cycle.  The second
        # cycle keeps its donor, then halts at m; each later end strike
        # must hand over the donor's value of its own cycle, the one the
        # reference walker's fresh fault keeps.  r is defined after the
        # target p, so its value is kept after p's definition.  At
        # A = 13, seed 6 signs s, m and p alike, so substituting s or m
        # is accepted.
        ir = parse_program("input a; input b; const k = 3; s = a - b; "
                           "m = s * b; p = m + k; r = a + b; "
                           "output p; output r;")
        key = make_key(modulus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            table, program = build(ir, key, 6)
        cycles = [({"a": 3, "b": 4}, 5), ({"a": 1 << 40, "b": 1 << 30}, 6),
                  ({"a": -7, "b": 2}, 1000), ({"a": 0, "b": 0}, 3 * 13)]
        calls = []

        def spy(fault, value):
            calls.append((value, inject_fault(fault, value)))
            return calls[-1][1]

        monkeypatch.setattr(coded_runtime, "inject_fault", spy)
        end, verdicts = program.index["p"], set()
        for donor in ("a", "b", "k", "s", "m", "r"):
            fault = Fault("F3", program, key, variable="p", donor=donor)
            for inputs, cycle in cycles:
                calls.clear()
                result = run_cycle(program, table, inputs, cycle, key, fault)
                strikes = calls[:]
                ref = Fault("F3", program, key, variable="p", donor=donor)
                values = reference_cycle(
                    program, table, inputs, cycle, key, program.rows,
                    program.index[donor], ref.strike)
                kept = [ref.record] if ref.record else []
                if type(values) is tuple:
                    assert values[program.index[donor]] == ref.record
                    kept *= 2
                assert [struck for _, struck in strikes] == kept, donor
                assert [value for value, _ in strikes[:1]] == kept[:1]
                assert (result.verdict, result.reason, result.variable,
                        result.outputs) == reference_tail(
                            program, table, cycle, key, values, ref, end)
                verdicts.add(result.verdict)
        assert verdicts == {REJECT, SAFE_HALT} | (
            {ACCEPT} if modulus == 13 else set())

    def test_missing_input_is_named(self):
        ir, key, table, program = build_sample(13)
        with pytest.raises(KeyError, match="missing input 'gain'"):
            run_cycle(program, table, {"speed": 1, "limit": 2}, 0, key)


class TestOutputCone:
    """`dsl.output_cone`, the rows the `interpret` oracle walks."""

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(subset=True))
    def test_interprets_to_the_same_outputs(self, program_inputs):
        source, inputs = program_inputs
        ir = parse_program(source)
        cone = output_cone(ir)
        assert (cone.inputs, cone.consts, cone.outputs) == (
            ir.inputs, ir.consts, ir.outputs)
        assert interpret(cone, inputs) == interpret(ir, inputs)

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(subset=True))
    def test_is_closed_and_in_ir_order(self, program_inputs):
        ir = parse_program(program_inputs[0])
        cone = output_cone(ir)
        defined = {*cone.inputs, *cone.consts}
        for ins in cone.instructions:
            assert {ins.src1, ins.src2} - {None} <= defined, ins
            defined.add(ins.dest)
        assert set(cone.outputs) <= defined
        rows = iter(ir.instructions)
        assert all(ins in rows for ins in cone.instructions)

    @settings(max_examples=100, deadline=None)
    @given(straight_line_programs())
    def test_keeps_a_program_without_dead_rows(self, program_inputs):
        # Every variable is an output, so every row is kept.
        ir = parse_program(program_inputs[0])
        assert output_cone(ir).instructions == ir.instructions

    @settings(max_examples=200, deadline=None)
    @given(straight_line_programs(subset=True))
    def test_rows_are_the_live_variables(self, program_inputs):
        # Two walks written apart: the cone's rows are the rows whose
        # destination the test-side liveness walk reports live.
        program = built(program_inputs, 251, 0)[0]
        cone = output_cone(program.ir)
        rows = {program.index[ins.dest] for ins in program.ir.instructions}
        assert {program.index[ins.dest] for ins in cone.instructions} == (
            live_variables(program) & rows)

    def test_campaign_oracle_walks_the_cone(self, monkeypatch):
        # Every accepted cycle is compared with `interpret` over one cone,
        # built once for the campaign; the dead rows u, w, m, y and z are
        # not walked.
        program, table, _, key = built((DEAD_PROGRAM, {}), 251, 6)
        seen = []

        def spy(ir, inputs):
            seen.append(ir)
            return interpret(ir, inputs)

        monkeypatch.setattr(coded_runtime, "interpret", spy)
        run_campaign(program, table, key, [], 50, 3)
        assert seen and all(ir is seen[0] for ir in seen)
        assert [ins.dest for ins in seen[0].instructions] == ["s", "p", "o"]
