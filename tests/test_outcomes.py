"""Report rows against the groups they are written from.

A report is a configuration echo, a seed and `Outcomes` groups.  Each
group's row must give the counts its accessors give, every rate must be
count / trials, and every interval the Wilson interval of its count.
"""

import csv
import io
import json

import pytest

from helpers import build_sample
from vitalcode.campaign import parse_config, run_channel_campaign
from vitalcode.coded_runtime import FAULT_MODELS, run_campaign
from vitalcode.redundancy import (MAJORITY, UNANIMITY, VoteConfig,
                                  redundancy_campaign)
from vitalcode.stats import wilson_interval

SEEDS = (1, 2, 3)


def assert_row_matches(row, group):
    assert row["trials"] == group.trials
    for name in group.names:
        count = getattr(group, name)
        entry = row[name]
        assert entry["count"] == count
        assert entry["rate"] == (count / group.trials if group.trials
                                 else None)
        assert entry["ci"] == list(wilson_interval(count, group.trials))


def outcome_sum(row, names):
    return sum(row[name]["count"] for name in names)


@pytest.mark.parametrize("seed", SEEDS)
def test_inject_rows(seed):
    _, key, table, program = build_sample(13, seed=seed)
    report = run_campaign(program, table, key, FAULT_MODELS, 300, seed)
    doc = json.loads(report.to_json())
    assert doc["config"] == {"key_modulus": 13}
    assert doc["seed"] == report.seed == seed
    assert_row_matches(doc["totals"], report)
    assert doc["totals"]["undetected_wrong_output"]["rate"] \
        == report.undetected_rate
    assert outcome_sum(doc["totals"], report.names) == report.trials
    assert set(doc["per_model"]) == set(report.per_model) == set(FAULT_MODELS)
    for model, row in doc["per_model"].items():
        group = report.per_model[model]
        assert_row_matches(row, group)
        assert outcome_sum(row, group.names) == group.trials
    assert sum(row["trials"] for row in doc["per_model"].values()) \
        == report.trials


@pytest.mark.parametrize("seed", SEEDS)
def test_redundancy_rows(seed):
    policy = (MAJORITY, UNANIMITY)[seed % 2]
    report = redundancy_campaign(VoteConfig(policy, 0.05, 0.01), 2000, seed)
    doc = json.loads(report.to_json())
    assert doc["config"] == {"policy": policy, "p": 0.05, "q": 0.01}
    assert doc["seed"] == report.seed == seed
    assert_row_matches(doc["totals"], report)
    assert doc["totals"]["undetected_wrong"]["rate"] \
        == report.undetected_wrong / report.trials
    assert outcome_sum(doc["totals"], report.names) == report.trials
    predicted = report.predicted()
    assert set(predicted) == set(report.names)
    for name, rate in predicted.items():
        assert doc["totals"][name]["predicted"] == rate


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_rows(seed, monkeypatch):
    monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
    report = run_channel_campaign(parse_config({
        "schemes": ["parity", "crc8-atm", "hamming74", "hmac-8"],
        "threats": [{"kind": "bit_error", "rate": 0.05},
                    {"kind": "codeword_flip"}, {"kind": "forge"},
                    {"kind": "brute_force", "attempts": 30}],
        "trials": 20, "seed": seed, "payload_length": 8,
        "mac_key": "0c" * 16}))
    doc = json.loads(report.to_json())
    lines = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert doc["seed"] == report.seed == seed
    assert len(doc["cells"]) == len(lines) == len(report.cells) == 16
    for cell, row, line in zip(report.cells, doc["cells"], lines):
        assert row["scheme"] == line["scheme"] == cell.scheme
        assert row["threat"] == line["threat"] == cell.threat
        assert_row_matches(row, cell)
        assert int(line["delivered"]) == row["trials"] == cell.delivered
        for name in cell.names:
            assert int(line[name]) == row[name]["count"]


def test_groups_without_trials():
    # One trial over six models leaves five per-model groups empty.
    _, key, table, program = build_sample(251)
    report = run_campaign(program, table, key, FAULT_MODELS, 1, seed=4)
    rows = json.loads(report.to_json())["per_model"].values()
    empty = [row for row in rows if row["trials"] == 0]
    assert len(empty) == 5
    for row in empty:
        for name in report.names:
            assert row[name] == {"count": 0, "rate": None, "ci": [0.0, 1.0]}
