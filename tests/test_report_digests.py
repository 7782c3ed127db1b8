"""Byte-identity of reports on fixed seeds.

Each case pins the SHA-256 of a report or PROM image.  A change that
alters a random stream or the report format changes these digests; such
a change must say so and update them deliberately.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

from helpers import CHANNEL_GRID, MIXED_PROGRAM, build_sample
from vitalcode.campaign import parse_config, run_channel_campaign
from vitalcode.cli import main
from vitalcode.coded_core import make_key
from vitalcode.coded_runtime import FAULT_MODELS, run_campaign
from vitalcode.redundancy import (MAJORITY, UNANIMITY, VoteConfig,
                                  redundancy_campaign)
from vitalcode.dsl import parse_program
from vitalcode.sigtool import DuplicateSignatureWarning, build, emit_prom

# The MUL leaves int64 unless a is in [-2, 1], so most cycles safe-halt.
OVERFLOW_PROGRAM = """
input a; input b;
const big = 4611686018427387904;
x = a * big; y = x + b; c = y; o = c - a;
output o; output c;
"""


def inject(modulus, models):
    _, key, table, program = build_sample(modulus, seed=4)
    return run_campaign(program, table, key, models, 1000, seed=3).to_json()


def build_source(source, modulus):
    key = make_key(modulus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        return (key, *build(parse_program(source), key, 6))


def inject_source(source, modulus):
    key, table, program = build_source(source, modulus)
    return run_campaign(program, table, key, FAULT_MODELS, 1000,
                        seed=5).to_json()


def run_stdout(source, inputs):
    with tempfile.TemporaryDirectory() as tmp:
        src, image = Path(tmp, "p.vc"), Path(tmp, "p.prom")
        values = Path(tmp, "inputs.json")
        src.write_text(source)
        values.write_text(json.dumps(inputs))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateSignatureWarning)
            main(["sign", str(src), "--key", "251", "--seed", "8",
                  "-o", str(image)])
            out.truncate(0)
            out.seek(0)
            main(["run", str(image), "--inputs", str(values),
                  "--cycles", "3"])
        return out.getvalue()


def channel():
    return run_channel_campaign(parse_config(CHANNEL_GRID))


CASES = {
    "inject-13-all": lambda: inject(13, FAULT_MODELS),
    "inject-251-F3F5": lambda: inject(251, ["F3", "F5"]),
    "inject-mersenne-none": lambda: inject(2**31 - 1, []),
    "redundancy-majority": lambda: redundancy_campaign(
        VoteConfig(MAJORITY, 0.05, 0.01), 5000, seed=7).to_json(),
    "redundancy-unanimity": lambda: redundancy_campaign(
        VoteConfig(UNANIMITY, 0.05, 0.01), 5000, seed=7).to_json(),
    "channel-json": lambda: channel().to_json(),
    "channel-csv": lambda: channel().to_csv(),
    "prom-251": lambda: emit_prom(*build_sample(251, seed=4)[2:]),
    "prom-mixed-mersenne":
        lambda: emit_prom(*build_source(MIXED_PROGRAM, 2**31 - 1)[1:]),
    "inject-mixed-251": lambda: inject_source(MIXED_PROGRAM, 251),
    "inject-mixed-mersenne": lambda: inject_source(MIXED_PROGRAM, 2**31 - 1),
    "inject-overflow-251": lambda: inject_source(OVERFLOW_PROGRAM, 251),
    "inject-overflow-mersenne":
        lambda: inject_source(OVERFLOW_PROGRAM, 2**31 - 1),
    "run-accept": lambda: run_stdout(MIXED_PROGRAM,
                                     {"u": 12, "v": -5, "w": 9}),
    "run-safe-halt": lambda: run_stdout(OVERFLOW_PROGRAM, {"a": 5, "b": 1}),
}

DIGESTS = {
    "channel-csv":
        "06f5f5ec6f8d46352c56ed8a6dad6d04606ce0d33cc4dac6a16d6847b86731cc",
    "channel-json":
        "68de50e7e8cc22a292db5e29eeb3c1d7bf84e0e407a26bb3c54a73482900ff23",
    "inject-13-all":
        "f6751b1c8caa1e22ae6bbd67aacc902544ef82a0ba178e8b56f77af98430273d",
    "inject-251-F3F5":
        "eb3e3f007ce706329ec8c84d48a2ce466bd761100babb933c3fdc1e512ef6b29",
    "inject-mersenne-none":
        "ebc0aebf0b6fc579bb3927e8b027947cd193bd3acc9bd09cbf156fa0c9a0997f",
    "inject-mixed-251":
        "d4de61feb18e44d08ff7b97caac645d8ffe6fb5b00c2371a7b5b3dcabd1335b9",
    "inject-mixed-mersenne":
        "2dbe11be8526706577f1c87d75a512c37269f0c0b25afba4ac00ea473259001d",
    "inject-overflow-251":
        "e45655f33754951cd13f9905218a540263f922d5c9a67bfe5e60b073d3fe8d1b",
    "inject-overflow-mersenne":
        "be203a317b016dac5e55b71301846107d48436e99954460a78306e425db3d75c",
    "run-accept":
        "393aace4b9bd7b85f3edb805429d50348c0195ed72a0cd770cd799f4bc11b176",
    "run-safe-halt":
        "0c6933e9548c10a9621fea0973e4f5ea8e27c76ccd42e21ea182d2a0bf951eeb",
    "prom-251":
        "53f545d3946adfbfd882cf445d7b0c5af83375c0c30fb6537ac6593cad0e73d0",
    "prom-mixed-mersenne":
        "9ad14d0a9fc5f9d59abe626a5e2ab5a1365b2552eb84ec54650712c521e21768",
    "redundancy-majority":
        "2e7be871d10cb3a877f39f0c66d3370c2da392799b0058072f3daefcc0b77688",
    "redundancy-unanimity":
        "0d4fb2f9e920f8ab572173c5b54ce9d4a98d2d553fd225755c27c316713fa3a0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, monkeypatch):
    monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
    data = CASES[name]()
    if isinstance(data, str):
        data = data.encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def report_rows(node):
    """Every outcome entry (`count`, `rate`, `ci`) of a JSON report."""
    if isinstance(node, dict):
        if "ci" in node:
            yield node
        for value in node.values():
            yield from report_rows(value)
    elif isinstance(node, list):
        for value in node:
            yield from report_rows(value)


@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if n.startswith(("inject",
                                                         "redundancy",
                                                         "channel-json"))))
def test_report_ci_holds_its_rate(name, monkeypatch):
    monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
    rows = list(report_rows(json.loads(CASES[name]())))
    assert rows
    for row in rows:
        lo, hi = row["ci"]
        assert lo <= row["rate"] <= hi, row
