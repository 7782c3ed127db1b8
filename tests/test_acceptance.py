"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy statistical criteria (million-trial campaigns) live here rather
than in the per-module suites; expect a few minutes of total runtime.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

from helpers import (SAMPLE_CYCLE, SAMPLE_INPUTS, build_sample,
                     find_cell, random_straight_line_program)
from vitalcode.campaign import parse_config, run_channel_campaign
from vitalcode.channel_codes import (CRC32_IEEE, CRC8_ATM, crc_compute,
                                     hamming74_decode, hamming74_encode)
from vitalcode.cli import EXIT_OK, main
from vitalcode.coded_core import check, encode, make_key
from vitalcode.coded_runtime import (ACCEPT, REJECT, FaultSpec, run_campaign,
                                     run_cycle)
from vitalcode.dsl import interpret, parse_program
from vitalcode.mac import MacKey, hash_digest, hmac_tag
from vitalcode.redundancy import (MAJORITY, UNANIMITY, VoteConfig,
                                  redundancy_campaign, vote)
from vitalcode.sigtool import (SignatureTable, build, emit_prom,
                               predetermine)
from vitalcode.stats import binomial_sigma


@contextmanager
def criterion(capfd, number, title):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\nACCEPTANCE {number}: FAIL - {title}")
        raise
    with capfd.disabled():
        print(f"\nACCEPTANCE {number}: PASS - {title}")


def test_01_undetected_rate_one_over_key(capfd):
    with criterion(capfd, 1, "undetected corruption rate ~ 1/A"):
        # Statistical bound: A=251, random double-field corruption (F6),
        # one million trials.
        ir, key, table, program = build_sample(251)
        trials = 1_000_000
        report = run_campaign(program, table, key, ["F6"], trials, seed=101)
        rate = report.undetected_rate
        assert 0.9 / 251 <= rate <= 1.1 / 251, rate

        # Exact bound: A=13, exhaustive corruption deltas on the
        # functional field.  The check passes iff delta is a multiple of
        # 13 (the residue cannot tell x from x + 13k).
        small = make_key(13)
        signature = 7
        date = 9
        x, c = encode(1005, signature, date, small)
        for delta in range(-2600, 2601):
            corrupted = (x + delta, c)
            passes = check(corrupted, signature, date, small)
            assert passes == (delta % 13 == 0), delta


def test_02_single_bit_faults_always_detected(capfd):
    with criterion(capfd, 2, "single-bit faults: zero undetected"):
        # Every F1 and F2 bit at one point per key.  Then, at A = 251,
        # every date residue (cycles 1-251) at two input sets: an F1
        # strike on a MUL operand must be caught whatever the residue of
        # the other operand, including the cycle where it is 0.
        sweeps = [(modulus, SAMPLE_INPUTS, [SAMPLE_CYCLE], range(64), True)
                  for modulus in (13, 251, 2**31 - 1)]
        sweeps += [(251, inputs, range(1, 252), (0, 5, 40, 63), False)
                   for inputs in (SAMPLE_INPUTS,
                                  {"speed": -42, "limit": 90, "gain": -7})]
        for modulus, inputs, cycles, f1_bits, f2 in sweeps:
            ir, key, table, program = build_sample(modulus)
            reference = interpret(ir, inputs)
            specs = [FaultSpec("F1", variable=name, bit=bit)
                     for name in ir.variables() for bit in f1_bits]
            if f2:
                specs += [FaultSpec("F2", variable=name, bit=bit)
                          for name in ir.variables()
                          for bit in range(key.bit_width)]
            undetected = 0
            for cycle in cycles:
                for spec in specs:
                    r = run_cycle(program, table, inputs, cycle, key,
                                  fault=spec)
                    if r.verdict == ACCEPT and r.outputs != reference:
                        undetected += 1
            assert undetected == 0, (modulus, inputs)


def test_03_substitution_detected_iff_signatures_distinct(capfd):
    with criterion(capfd, 3, "operand substitution vs signatures"):
        # Natural table: every distinct-signature pair is detected.
        ir, key, table, program = build_sample(13)
        for donor in ir.variables():
            for target in ir.outputs:
                if donor == target:
                    continue
                distinct = table.signatures[donor] != table.signatures[target]
                spec = FaultSpec("F3", variable=target, donor=donor)
                r = run_cycle(program, table, SAMPLE_INPUTS, SAMPLE_CYCLE,
                              key, fault=spec, rng=random.Random(0))
                assert (r.verdict == REJECT) == distinct, (donor, target)

        # Constructed fixture: force a collision and show the substitution
        # slips through for exactly the colliding pairs.
        small_ir = parse_program("input a; input b; output o; o = a + b;")
        key13 = make_key(13)
        natural = build(small_ir, key13, 0)[0]
        forced = SignatureTable(
            signatures={"a": 5, "b": 7, "o": 5},  # a and o collide
            key=key13, seed=0, program_digest=natural.program_digest)
        coded = predetermine(small_ir, forced)
        inputs = {"a": 3, "b": 4}
        for donor, colliding in (("a", True), ("b", False)):
            spec = FaultSpec("F3", variable="o", donor=donor)
            r = run_cycle(coded, forced, inputs, 2, key13, fault=spec,
                          rng=random.Random(0))
            assert (r.verdict == ACCEPT) == colliding, donor


def test_04_stale_data_detected(capfd):
    with criterion(capfd, 4, "stale data: every age in [1, A) detected"):
        ir, key, table, program = build_sample(13)
        for age in range(1, 13):
            spec = FaultSpec("F4", variable="alarm", staleness=age)
            r = run_cycle(program, table, SAMPLE_INPUTS, 40, key,
                          fault=spec, rng=random.Random(0))
            assert r.verdict == REJECT, age


def test_05_prom_determinism(capfd):
    with criterion(capfd, 5, "PROM images byte-identical across runs"):
        ir, key, table, program = build_sample(251)
        first = emit_prom(table, program)
        datasets = [{"speed": s, "limit": s + 20, "gain": g}
                    for s, g in [(1, 1), (9, 2), (-5, 3), (100, -1),
                                 (0, 0), (17, 5), (-42, 7), (3, -3),
                                 (8, 8)]]
        for run, inputs in enumerate(datasets, start=1):
            # Processing different data between builds must not influence
            # the next image.
            assert run_cycle(program, table, inputs, run, key).verdict \
                == ACCEPT
            table2, program2 = build(ir, key, 0)
            assert emit_prom(table2, program2) == first, run


def test_06_crc_anchors(capfd):
    with criterion(capfd, 6, "CRC check values, bursts, random corruption"):
        assert crc_compute(b"123456789", CRC32_IEEE) == 0xCBF43926

        # 64-byte telegram: the protected span is payload plus the 32-bit
        # checksum.  Exhaustive burst positions for every length 1..32;
        # exhaustive interior patterns up to length 8, sampled beyond.
        rng = random.Random(66)
        payload = rng.randbytes(64)
        checksum = crc_compute(payload, CRC32_IEEE)
        span = int.from_bytes(payload, "big") << 32 | checksum
        span_bits = 64 * 8 + 32

        def survives(corrupted: int) -> bool:
            frame = corrupted >> 32
            tag = corrupted & 0xFFFFFFFF
            return crc_compute(frame.to_bytes(64, "big"), CRC32_IEEE) == tag

        for length in range(1, 33):
            interior = max(length - 2, 0)
            if interior <= 6:
                patterns = range(1 << interior)
            else:
                patterns = rng.sample(range(1 << interior), 8)
            shaped = [(1 << max(length - 1, 0)) | 1 | (p << 1)
                      if length > 1 else 1 for p in patterns]
            for start in range(span_bits - length + 1):
                for pattern in set(shaped):
                    corrupted = span ^ (pattern
                                        << (span_bits - start - length))
                    assert not survives(corrupted), (length, start)

        # CRC-8 random replacement: undetected fraction within 10% of 2^-8
        # over one million trials.
        base = rng.randbytes(64)
        tag8 = crc_compute(base, CRC8_ATM)
        trials = 1_000_000
        undetected = 0
        for _ in range(trials):
            other = rng.randbytes(64)
            if other != base and crc_compute(other, CRC8_ATM) == tag8:
                undetected += 1
        rate = undetected / trials
        assert 0.9 * 2**-8 <= rate <= 1.1 * 2**-8, rate


def test_07_hamming_exhaustive(capfd):
    with criterion(capfd, 7, "Hamming(7,4): all 16x7 single flips corrected"):
        for data in range(16):
            word = hamming74_encode(data)
            for position in range(1, 8):
                decoded, corrected = hamming74_decode(
                    word ^ (1 << (7 - position)))
                assert decoded == data and corrected == position


def test_08_crypto_known_answers(capfd):
    with criterion(capfd, 8, "hash and HMAC known-answer vectors"):
        assert hash_digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855")
        assert hash_digest(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad")
        assert hash_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        ).hex() == ("248d6a61d20638b8e5c026930c3e6039"
                    "a33ce45964ff2167f6ecedd419db06c1")
        assert hmac_tag(MacKey(bytes([0x0B] * 20)), b"Hi There", 32).hex() \
            == ("b0344c61d8db38535ca8afceaf0bf12b"
                "881dc200c9833da726e9376c2e32cff7")
        assert hmac_tag(MacKey(b"Jefe"),
                        b"what do ya want for nothing?", 32).hex() \
            == ("5bdcc146bf60754e6a042426089575c7"
                "5a003f089d2739839dec58b964ec3843")
        assert main(["vectors"]) == EXIT_OK


def test_09_safety_vs_security_separation(capfd):
    with criterion(capfd, 9, "keyless schemes forgeable, HMAC not"):
        mac_hex = "4f" * 16

        # Forgery: every keyless scheme accepts 100% of forged frames.
        forge = parse_config({
            "schemes": ["parity", "crc8-atm", "crc32-ieee", "hamming74",
                        "codedsig"],
            "threats": [{"kind": "forge"}],
            "trials": 1000, "seed": 91,
        })
        report = run_channel_campaign(forge)
        for name in forge.schemes:
            cell = find_cell(report, name, "forge")
            assert cell.accepted_but_wrong == cell.delivered == 1000, name

        # Brute force: one million random tags against HMAC(t=32), zero
        # accepted.
        brute = parse_config({
            "schemes": ["hmac-32"],
            "threats": [{"kind": "brute_force", "attempts": 1_000_000}],
            "trials": 1, "seed": 92, "mac_key": mac_hex,
        })
        cell = find_cell(run_channel_campaign(brute), "hmac-32",
                         "brute_force(1000000)")
        assert cell.delivered == 1_000_000
        assert cell.accepted == 0 and cell.accepted_but_wrong == 0

        # Replay: rejected under HMAC (sequence window), accepted under
        # CRC (payload-only tag scope).
        replay = parse_config({
            "schemes": ["crc32-ieee", "hmac"],
            "threats": [{"kind": "replay"}],
            "trials": 1000, "seed": 93, "mac_key": mac_hex,
        })
        report = run_channel_campaign(replay)
        crc_cell = find_cell(report, "crc32-ieee", "replay")
        assert crc_cell.accepted == crc_cell.accepted_but_wrong == 1000
        hmac_cell = find_cell(report, "hmac", "replay")
        assert hmac_cell.rejected == 1000
        assert hmac_cell.accepted_but_wrong == 0


def test_10_voting(capfd):
    with criterion(capfd, 10, "voter truth tables and Monte Carlo rates"):
        for a, b in product(range(3), repeat=2):
            assert vote([a, b], UNANIMITY) == (a if a == b else None)
        for triple in product(range(3), repeat=3):
            winners = [v for v in triple if triple.count(v) >= 2]
            assert vote(list(triple), MAJORITY) \
                == (winners[0] if winners else None), triple

        trials = 1_000_000
        q = 1e-3
        report = redundancy_campaign(VoteConfig(MAJORITY, p=0.0, q=q),
                                     trials, seed=110)
        sigma = binomial_sigma(q, trials)
        assert abs(report.undetected_wrong / report.trials - q) <= 3 * sigma

        report = redundancy_campaign(VoteConfig(MAJORITY, p=0.01, q=0.0),
                                     trials, seed=111)
        assert report.undetected_wrong == 0


def test_11_fault_free_equivalence(capfd):
    with criterion(capfd, 11, "1000 random programs match the reference"):
        rng = random.Random(1100)
        key = make_key(251)
        for index in range(1000):
            source = random_straight_line_program(rng)
            ir = parse_program(source)
            table, program = build(ir, key, rng.randrange(1 << 30))
            inputs = {name: rng.randint(-100, 100) for name in ir.inputs}
            result = run_cycle(program, table, inputs,
                               rng.randrange(10_000), key)
            assert result.verdict == ACCEPT, (index, source)
            assert result.outputs == interpret(ir, inputs), (index, source)
