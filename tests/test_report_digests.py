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

from helpers import MIXED_PROGRAM, build_sample
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
    return run_channel_campaign(parse_config({
        "schemes": ["none", "parity", "crc8-atm", "crc32-ieee", "hamming74",
                    "codedsig", "hmac-8"],
        "threats": [{"kind": "bit_error", "rate": 0.01},
                    {"kind": "burst", "length": 9},
                    {"kind": "random_payload"}, {"kind": "codeword_flip"},
                    {"kind": "forge"}, {"kind": "replay"},
                    {"kind": "splice"},
                    {"kind": "brute_force", "attempts": 20}],
        "trials": 8, "seed": 9, "payload_length": 8, "mac_key": "0c" * 16}))


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
        "de54e6470701eef2c738ebd630d52cf06a72fda9358e810609fe9d3909c08623",
    "inject-13-all":
        "9fb02008da1e0645a793307d5900f3dd2a60fcdcd3c1cddd6d12477eab8e5c79",
    "inject-251-F3F5":
        "9c2cf2e1538a9ddeb9ee1f6f513e5c01a81e180c8120f4563c197ac20d9619f7",
    "inject-mersenne-none":
        "ac689a21985a2ea385a78e94d9041cb5fca3a5b1fb888e3ce50f78e0fcffdd07",
    "inject-mixed-251":
        "bc4c8c572b87f9a09b8547d59f0e554c904a5b0e7cb5e0d20dcc8229c9bdd4be",
    "inject-mixed-mersenne":
        "e532aa64df78396fca04cc73f60d01aeca2b7e14e2d051f17cec012780fb500c",
    "inject-overflow-251":
        "50451784586295c8d9e835bdf4e28dab379065728c96d9500ac05df3479aee32",
    "inject-overflow-mersenne":
        "778263820506fda56f68372cc426987606163b06a6a61518ae38a465946d7c79",
    "run-accept":
        "393aace4b9bd7b85f3edb805429d50348c0195ed72a0cd770cd799f4bc11b176",
    "run-safe-halt":
        "0c6933e9548c10a9621fea0973e4f5ea8e27c76ccd42e21ea182d2a0bf951eeb",
    "prom-251":
        "6030069281cd0549a97e0d5c01288de539f73f0584175e43ff088af00a429ac1",
    "prom-mixed-mersenne":
        "7ae4e577b87c399e545969bb5617b53c792072d84648dd36d7d37d058c74cfe1",
    "redundancy-majority":
        "e2ec8b0c9c7eb8a9e2a9e7707f1553521ef9b93f15bf369665c06ad6d4734217",
    "redundancy-unanimity":
        "9227275ebb0a93e8c5e26cc7e16299ee0f913f94216ea8c6af9fc983df4ae113",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, monkeypatch):
    monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
    data = CASES[name]()
    if isinstance(data, str):
        data = data.encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
