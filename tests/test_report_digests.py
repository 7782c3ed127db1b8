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

from helpers import build_sample
from vitalcode.campaign import parse_config, run_channel_campaign
from vitalcode.cli import main
from vitalcode.coded_core import make_key
from vitalcode.coded_runtime import FAULT_MODELS, run_campaign
from vitalcode.redundancy import (MAJORITY, UNANIMITY, VoteConfig,
                                  redundancy_campaign)
from vitalcode.dsl import parse_program
from vitalcode.sigtool import DuplicateSignatureWarning, build, emit_prom

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


def inject(modulus, models):
    _, key, table, program = build_sample(modulus, seed=4)
    return run_campaign(program, table, key, models, 1000, seed=3).to_json()


def inject_source(source, modulus):
    key = make_key(modulus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DuplicateSignatureWarning)
        table, program = build(parse_program(source), key, 6)
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
        "57677c24f94cd3a36e841e05d21be3e95e4ca48e0fda4a9488f45c1f06369716",
    "channel-json":
        "943b742ff027288e848086798eda28b1c5a02a87e65b4b8304f9305560364897",
    "inject-13-all":
        "5a74e85977c5cabd73785f41c59a99c5256174dbaf8dd3338a0a80b2affb5e16",
    "inject-251-F3F5":
        "7fa323374732c69b16b7b24b8e1fdf569293a634704bd447b5ed6c803b558927",
    "inject-mersenne-none":
        "ac689a21985a2ea385a78e94d9041cb5fca3a5b1fb888e3ce50f78e0fcffdd07",
    "inject-mixed-251":
        "02274d8113051d8599f88a019f17b61250d7881580100ccf355ced1ad71273a5",
    "inject-mixed-mersenne":
        "b970fb02488c956cbbbcec8b9eba2b660a06676aa2438401fb02ad0d0b080cd2",
    "inject-overflow-251":
        "f2b6f4dc3d3e6df064feea45b8273adf18c32fc1bb7e7181f24684e482bc2dcb",
    "inject-overflow-mersenne":
        "72e7be8201042b6de413288aeff5e91b79a528155a6bf0ba81658b2acbe849f0",
    "run-accept":
        "393aace4b9bd7b85f3edb805429d50348c0195ed72a0cd770cd799f4bc11b176",
    "run-safe-halt":
        "0c6933e9548c10a9621fea0973e4f5ea8e27c76ccd42e21ea182d2a0bf951eeb",
    "prom-251":
        "6030069281cd0549a97e0d5c01288de539f73f0584175e43ff088af00a429ac1",
    "redundancy-majority":
        "f8b7a1dad89719ebaa9dac78c717d54296cb5321de657efc22e3f66ce0baab90",
    "redundancy-unanimity":
        "4db188af352459103c22167a182c11cb99fc2bc9d514ec645a231b8e25c091cf",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name, monkeypatch):
    monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
    data = CASES[name]()
    if isinstance(data, str):
        data = data.encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]
