"""Byte-identity of reports on fixed seeds.

Each case pins the SHA-256 of a report or PROM image.  A change that
alters a random stream or the report format changes these digests; such
a change must say so and update them deliberately.
"""

import hashlib

import pytest

from helpers import build_sample
from vitalcode.campaign import parse_config, run_channel_campaign
from vitalcode.coded_runtime import FAULT_MODELS, run_campaign
from vitalcode.redundancy import (MAJORITY, UNANIMITY, VoteConfig,
                                  redundancy_campaign)
from vitalcode.sigtool import emit_prom


def inject(modulus, models):
    _, key, table, program = build_sample(modulus, seed=4)
    return run_campaign(program, table, key, models, 1000, seed=3).to_json()


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
