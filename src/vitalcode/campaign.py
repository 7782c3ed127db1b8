"""Channel campaign: schemes x threats, with JSON/CSV reports.

Each campaign cell sends `trials` telegrams under one protection scheme,
applies one threat (accidental noise or adversarial transformation) to
every frame, and tallies the receiver verdicts.  `accepted_but_wrong` is
the safety/security failure metric: frames the receiver accepted whose
content differs from what the sender emitted (or that the sender never
emitted at all, as with replays).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import asdict, dataclass, fields
from functools import cached_property

from . import telegram as tg
from .channel_codes import CRC_CATALOG
from .coded_core import CodedCoreError, make_key
from .mac import MAC_KEY_ENV, MacKey, TAG_LENGTHS
from .stats import (ConfigError, report_json, run_trials, trial_rng,
                    wilson_interval)

DEFAULT_PAYLOAD_LENGTH = 64

NOISE_THREATS = ("bit_error", "burst", "random_payload", "codeword_flip")
ATTACK_THREATS = ("forge", "replay", "splice", "brute_force")


@dataclass(frozen=True)
class Threat:
    kind: str
    rate: float = 0.0          # bit_error
    length: int = 0            # burst
    attempts: int = 0          # brute_force
    payload: bytes = b""       # forge

    @cached_property
    def label(self) -> str:
        if self.kind == "bit_error":
            return f"bit_error({self.rate:g})"
        if self.kind == "burst":
            return f"burst({self.length})"
        if self.kind == "brute_force":
            return f"brute_force({self.attempts})"
        return self.kind


@dataclass
class CampaignConfig:
    schemes: list[str]
    threats: list[Threat]
    trials: int
    seed: int
    key_modulus: int = 251
    coded_signature: int = 7
    payload_length: int = DEFAULT_PAYLOAD_LENGTH
    mac_key_hex: str | None = None
    mac_truncation: int = 32


def _within(low, high=math.inf):
    return lambda v: (None if low <= v <= high
                      else f"must be in [{low}, {high}], got {v!r}")


def _one_of(choices):
    return lambda v: (None if v in choices
                      else f"must be one of {choices}, got {v!r}")


def _payload_hex(text):
    try:
        payload = bytes.fromhex(text)
    except ValueError:
        return "not a hex string"
    if len(payload) > tg.MAX_PAYLOAD:
        return f"payload longer than {tg.MAX_PAYLOAD} bytes"
    return None


# Field -> (JSON types, value check returning an error or None), for the
# top-level object and each threat.  Only fields present are checked, by
# exact type, so a bool is never a number.  `mac_key` has no value check,
# so its material never reaches an error.
_FIELDS = {
    "schemes": ((list,), None),
    "threats": ((list,), None),
    "trials": ((int,), _within(1)),
    "seed": ((int,), None),
    "key_a": ((int,), None),  # primality: build_scheme
    "coded_signature": ((int,), None),
    "payload_length": ((int,), _within(0, tg.MAX_PAYLOAD)),
    "mac_key": ((str, type(None)), None),
    "mac_truncation": ((int,), _one_of(TAG_LENGTHS)),
    "kind": ((str,), _one_of(NOISE_THREATS + ATTACK_THREATS)),
    "rate": ((int, float), _within(0, 1)),
    "length": ((int,), _within(0)),
    "attempts": ((int,), _within(1)),
    "payload_hex": ((str,), _payload_hex),
}


def _check_fields(doc: dict, path: str) -> None:
    for name, value in doc.items():
        spec = _FIELDS.get(name)
        if spec is None:
            continue
        types, check = spec
        if type(value) not in types:
            raise ConfigError(f"bad type {type(value).__name__}",
                              f"{path}.{name}")
        if check is not None and (error := check(value)) is not None:
            raise ConfigError(error, f"{path}.{name}")


def parse_config(doc) -> CampaignConfig:
    """Validate a campaign configuration document."""
    if not isinstance(doc, dict):
        raise ConfigError("document must be a JSON object")
    for name in ("schemes", "threats", "trials", "seed"):
        if name not in doc:
            raise ConfigError("missing field", f"config.{name}")
    _check_fields(doc, "config")
    threats = []
    for i, entry in enumerate(doc["threats"]):
        path = f"config.threats[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError("threat needs a 'kind'", path)
        _check_fields(entry, path)
        if entry["kind"] == "brute_force" and "attempts" not in entry:
            raise ConfigError("missing field", f"{path}.attempts")
        threats.append(Threat(
            kind=entry["kind"],
            rate=float(entry.get("rate", 0.0)),
            length=entry.get("length", 0),
            attempts=entry.get("attempts", 0),
            payload=bytes.fromhex(entry.get("payload_hex", ""))))
    config = CampaignConfig(
        schemes=[str(s) for s in doc["schemes"]],
        threats=threats,
        trials=doc["trials"],
        seed=doc["seed"],
        key_modulus=doc.get("key_a", 251),
        coded_signature=doc.get("coded_signature", 7),
        payload_length=doc.get("payload_length", DEFAULT_PAYLOAD_LENGTH),
        mac_key_hex=doc.get("mac_key"),
        mac_truncation=doc.get("mac_truncation", 32))
    for name in config.schemes:
        build_scheme(name, config)  # raises ConfigError on bad names
    return config


def load_json(path: str):
    """Read a JSON file; invalid JSON is a ConfigError at `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}", path) from None


def load_config(path: str) -> CampaignConfig:
    return parse_config(load_json(path))


def build_scheme(name: str, config: CampaignConfig) -> tg.ProtectionScheme:
    """Instantiate a protection scheme from its config name."""
    if name == tg.SCHEME_NONE:
        return tg.ProtectionScheme(tg.SCHEME_NONE)
    if name == tg.SCHEME_PARITY:
        return tg.ProtectionScheme(tg.SCHEME_PARITY)
    if name in CRC_CATALOG:
        return tg.ProtectionScheme(tg.SCHEME_CRC,
                                   crc_params=CRC_CATALOG[name])
    if name == tg.SCHEME_HAMMING:
        return tg.ProtectionScheme(tg.SCHEME_HAMMING)
    if name == tg.SCHEME_CODEDSIG:
        try:
            key = make_key(config.key_modulus)
        except CodedCoreError as exc:
            raise ConfigError(str(exc), "config.key_a") from None
        return tg.ProtectionScheme(
            tg.SCHEME_CODEDSIG, key=key,
            signature=config.coded_signature % key.modulus)
    if name.startswith("hmac"):
        t = config.mac_truncation
        if "-" in name:
            try:
                t = int(name.split("-", 1)[1])
            except ValueError:
                t = None
        if t not in TAG_LENGTHS:
            raise ConfigError(f"hmac truncation must be one of {TAG_LENGTHS}",
                              f"config.schemes[{name}]")
        return tg.ProtectionScheme(tg.SCHEME_HMAC, mac_truncation=t)
    raise ConfigError(f"unknown scheme {name!r}", f"config.schemes[{name}]")


def resolve_mac_key(config: CampaignConfig) -> MacKey | None:
    """Env variable overrides the config key reference; never echoed."""
    env = os.environ.get(MAC_KEY_ENV)
    if env is not None:
        return MacKey.from_hex(env)
    if config.mac_key_hex is not None:
        return MacKey.from_hex(config.mac_key_hex)
    return None


@dataclass(slots=True)
class CellResult:
    scheme: str
    threat: str
    delivered: int
    accepted: int
    rejected: int
    corrected: int
    accepted_but_wrong: int
    miscorrected: int  # corrected to content the sender never emitted

    def rates(self) -> dict:
        n = self.delivered
        lo, hi = wilson_interval(self.accepted_but_wrong, n)
        return {
            "accepted": self.accepted / n,
            "rejected": self.rejected / n,
            "corrected": self.corrected / n,
            "accepted_but_wrong": self.accepted_but_wrong / n,
            "accepted_but_wrong_ci": [lo, hi],
        }


@dataclass
class ChannelReport:
    cells: list[CellResult]
    config: dict  # echo of the campaign configuration, key redacted
    seed: int

    def to_json(self) -> str:
        doc = asdict(self)
        for row, cell in zip(doc["cells"], self.cells):
            row["rates"] = cell.rates()
        return report_json(doc)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, [f.name for f in fields(CellResult)])
        writer.writeheader()
        writer.writerows(asdict(c) for c in self.cells)
        return buf.getvalue()

    def cell(self, scheme: str, threat: str) -> CellResult:
        for c in self.cells:
            if c.scheme == scheme and c.threat == threat:
                return c
        raise KeyError((scheme, threat))


def _flip_tag_bits(wire: bytes, rng: random.Random) -> bytes:
    """One random bit flip per tag byte (per Hamming codeword)."""
    telegram, scheme_id, tag = tg.parse_wire(wire)
    flipped = bytes(b ^ (1 << rng.randrange(7)) for b in tag)
    return tg.serialize_wire(telegram, scheme_id, flipped)


def _replace_payload(wire: bytes, payload: bytes) -> bytes:
    telegram, scheme_id, tag = tg.parse_wire(wire)
    forged = tg.Telegram(telegram.seq, telegram.date, payload)
    return tg.serialize_wire(forged, scheme_id, tag)


def _run_cell(scheme_name: str, scheme: tg.ProtectionScheme, threat: Threat,
              config: CampaignConfig, mac_key: MacKey | None) -> CellResult:
    knowledge = tg.AttackerKnowledge(scheme)
    stream = f"vitalcode-channel:{config.seed}:{scheme_name}:{threat.label}"
    if threat.kind == "brute_force":
        # Tag guessing: the attacker fabricates frames for one chosen
        # message and tries a fresh random tag per attempt.  Nothing the
        # attacker presents was ever sent, so any acceptance is a wrong
        # acceptance.  The carrier frame is the same for every attempt.
        forged = threat.payload or b"\x00" * config.payload_length
        carrier = tg.protect_telegram(tg.Telegram(1, 1, forged), scheme,
                                      mac_key)
        carrier_window = tg.ReceiverWindow(min_seq=0, current_date=1)
        guess = tg.AttackSpec(tg.BRUTE_FORCE_TAG, payload=forged)

    def trial(i):
        rng = trial_rng(stream, i)

        if threat.kind == "brute_force":
            delivered = tg.apply_attack(carrier, guess, knowledge, rng)
            return _outcome(tg.verify_telegram(delivered, scheme, mac_key,
                                               carrier_window), None, threat)

        seq = i + 1
        date = i + 1
        payload = rng.randbytes(config.payload_length)
        original = tg.Telegram(seq, date, payload)
        wire = tg.protect_telegram(original, scheme, mac_key)
        window = tg.ReceiverWindow(min_seq=seq - 1, current_date=date)

        if threat.kind == "bit_error":
            delivered = tg.apply_channel_noise(
                wire, tg.NoiseModel("bit_error", bit_error_rate=threat.rate),
                rng)
        elif threat.kind == "burst":
            delivered = tg.apply_channel_noise(
                wire, tg.NoiseModel("burst", burst_length=threat.length), rng)
        elif threat.kind == "random_payload":
            delivered = _replace_payload(
                wire, rng.randbytes(config.payload_length))
        elif threat.kind == "codeword_flip":
            delivered = _flip_tag_bits(wire, rng)
        elif threat.kind == "forge":
            forged = threat.payload or rng.randbytes(config.payload_length)
            delivered = tg.apply_attack(
                wire, tg.AttackSpec(tg.FORGE_PAYLOAD, payload=forged),
                knowledge, rng)
        elif threat.kind == "replay":
            # The genuine frame was already accepted; the receiver's
            # sequence window has moved past it.
            window = tg.ReceiverWindow(min_seq=seq, current_date=date)
            delivered = tg.apply_attack(wire, tg.AttackSpec(tg.REPLAY),
                                        knowledge, rng)
        else:  # splice
            donor = tg.Telegram(seq, date,
                                rng.randbytes(config.payload_length))
            donor_wire = tg.protect_telegram(donor, scheme, mac_key)
            delivered = tg.apply_attack(
                donor_wire, tg.AttackSpec(tg.SPLICE_SIGNATURE, donor=wire),
                knowledge, rng)

        return _outcome(tg.verify_telegram(delivered, scheme, mac_key,
                                           window), original, threat)

    trials = threat.attempts if threat.kind == "brute_force" else config.trials
    tally = run_trials(trials, trial)
    return CellResult(
        scheme=scheme_name, threat=threat.label, delivered=trials,
        accepted=tally["accepted"] + tally["accepted_but_wrong"],
        rejected=tally["rejected"],
        corrected=tally["corrected"] + tally["miscorrected"],
        accepted_but_wrong=tally["accepted_but_wrong"],
        miscorrected=tally["miscorrected"])


def _outcome(result: tg.VerifyResult, original: tg.Telegram | None,
             threat: Threat) -> str:
    if result.status == tg.REJECT:
        return "rejected"
    if result.status == tg.CORRECTED:
        if original is None or result.telegram.payload != original.payload:
            return "miscorrected"
        return "corrected"
    # A replayed or tag-spliced frame is unauthorized even when its
    # content matches something the sender once emitted; a fabricated
    # brute-force frame (original None) was never sent at all.
    if (original is None or result.telegram != original
            or threat.kind in ("replay", "splice")):
        return "accepted_but_wrong"
    return "accepted"


def run_channel_campaign(config: CampaignConfig) -> ChannelReport:
    """Run the full schemes x threats grid; reproducible under its seed."""
    mac_key = resolve_mac_key(config)
    needs_key = any(name.startswith("hmac") for name in config.schemes)
    if needs_key and mac_key is None:
        raise ConfigError(f"hmac scheme configured but no MAC key in "
                          f"config.mac_key or ${MAC_KEY_ENV}",
                          "config.mac_key")
    cells = []
    for scheme_name in config.schemes:
        scheme = build_scheme(scheme_name, config)
        for threat in config.threats:
            cells.append(_run_cell(scheme_name, scheme, threat, config,
                                   mac_key))
    echo = {
        "schemes": config.schemes,
        "threats": [t.label for t in config.threats],
        "trials": config.trials,
        "key_a": config.key_modulus,
        "coded_signature": config.coded_signature,
        "payload_length": config.payload_length,
        "mac_truncation": config.mac_truncation,
        "mac_key": "<configured>" if mac_key is not None else None,
    }
    return ChannelReport(cells=cells, config=echo, seed=config.seed)
