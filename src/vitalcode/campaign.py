"""Channel campaign: schemes x threats, with JSON/CSV reports.

Each campaign cell sends `trials` telegrams under one protection scheme,
passes every sender's frame through one `Threat` (accidental noise through
`telegram.apply_channel_noise`, an adversarial move through
`telegram.apply_attack`), and tallies the receiver verdicts.
`accepted_but_wrong` is the safety/security failure metric: frames the
receiver accepted whose content differs from what the sender emitted (or
that the sender never emitted at all, as with replays).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

from . import telegram as tg
from .channel_codes import CRC_CATALOG
from .coded_core import CodedCoreError, make_key
from .mac import MAC_KEY_ENV, MacKey, MacKeyError, TAG_LENGTHS
from .stats import ConfigError, Outcomes, report_json, run_trials, trial_rng
# Defined with the transforms that apply them; re-exported for configs.
from .telegram import ATTACK_THREATS, NOISE_THREATS, Threat

DEFAULT_PAYLOAD_LENGTH = 64


@dataclass
class CampaignConfig:
    schemes: dict[str, tg.ProtectionScheme]  # exact name -> built, in order
    threats: list[Threat]
    trials: int
    seed: int
    key_modulus: int
    coded_signature: int
    payload_length: int
    mac_key_hex: str | None
    mac_truncation: int


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
# top-level object and for each threat.  Every field present is checked,
# by exact type, so a bool is never a number, and a field of neither set
# is an error.  No error shows a value, so `mac_key` material, even under
# a misspelled name, never reaches one.
_CONFIG_FIELDS = {
    "schemes": ((list,), None),
    "threats": ((list,), None),
    "trials": ((int,), _within(1, 2**32 - 1)),  # seq of the last frame: u32
    "seed": ((int,), None),
    "key_a": ((int,), None),  # primality: build_scheme
    "coded_signature": ((int,), None),
    "payload_length": ((int,), _within(0, tg.MAX_PAYLOAD)),
    "mac_key": ((str, type(None)), None),
    "mac_truncation": ((int,), _one_of(TAG_LENGTHS)),
}
_THREAT_FIELDS = {
    "kind": ((str,), _one_of(NOISE_THREATS + ATTACK_THREATS)),
    "rate": ((int, float), _within(0, 1)),
    "length": ((int,), _within(0)),
    "attempts": ((int,), _within(1)),
    "payload_hex": ((str,), _payload_hex),
}
# Threat kind -> the parameters it reads; the other kinds read none.
_THREAT_PARAMS = {
    "bit_error": ("rate",),
    "burst": ("length",),
    "brute_force": ("attempts", "payload_hex"),
    "forge": ("payload_hex",),
}


def _check_fields(doc: dict, path: str, fields: dict) -> None:
    for name, value in doc.items():
        if name not in fields:
            raise ConfigError("unknown field", f"{path}.{name}")
        types, check = fields[name]
        if type(value) not in types:
            raise ConfigError(f"bad type {type(value).__name__}",
                              f"{path}.{name}")
        if check is not None and (error := check(value)) is not None:
            raise ConfigError(error, f"{path}.{name}")


def parse_config(doc) -> CampaignConfig:
    """Validate a campaign configuration document."""
    if not isinstance(doc, dict):
        raise ConfigError("document must be a JSON object", "config")
    for name in ("schemes", "threats", "trials", "seed"):
        if name not in doc:
            raise ConfigError("missing field", f"config.{name}")
    _check_fields(doc, "config", _CONFIG_FIELDS)
    threats, labels = [], set()
    for i, entry in enumerate(doc["threats"]):
        path = f"config.threats[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError("threat needs a 'kind'", path)
        _check_fields(entry, path, _THREAT_FIELDS)
        kind = entry["kind"]
        for name in entry:
            if name != "kind" and name not in _THREAT_PARAMS.get(kind, ()):
                raise ConfigError(f"not a parameter of {kind}",
                                  f"{path}.{name}")
        if kind == "brute_force" and "attempts" not in entry:
            raise ConfigError("missing field", f"{path}.attempts")
        threat = Threat(
            kind=kind,
            rate=float(entry.get("rate", 0.0)),
            length=entry.get("length", 0),
            attempts=entry.get("attempts", 0),
            payload=bytes.fromhex(entry.get("payload_hex", "")))
        if threat.label in labels:
            raise ConfigError(f"repeated threat {threat.label!r}", path)
        labels.add(threat.label)
        threats.append(threat)
    config = CampaignConfig(
        schemes={},
        threats=threats,
        trials=doc["trials"],
        seed=doc["seed"],
        key_modulus=doc.get("key_a", 251),
        coded_signature=doc.get("coded_signature", 7),
        payload_length=doc.get("payload_length", DEFAULT_PAYLOAD_LENGTH),
        mac_key_hex=doc.get("mac_key"),
        mac_truncation=doc.get("mac_truncation", 32))
    for i, name in enumerate(map(str, doc["schemes"])):
        where = f"config.schemes[{i}]"
        scheme = build_scheme(name, config, where)  # ConfigError if bad
        if name in config.schemes:
            raise ConfigError(f"repeated scheme {name!r}", where)
        config.schemes[name] = scheme
    return config


def load_json(fh):
    """Read the JSON document in the open text file `fh`.  Invalid JSON,
    nesting deeper than the decoder recurses, an integer longer than
    int() converts and a key repeated in one object, which the decoder
    would let the last one win, are each a ConfigError at `fh.name`."""
    path = fh.name

    def parse_int(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            raise ConfigError("integer too long to convert", path) from None

    def unique_keys(pairs) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for name, _ in pairs:
                if name in seen:
                    raise ConfigError(f"repeated key {name!r}", path)
                seen.add(name)
        return obj

    try:
        return json.load(fh, parse_int=parse_int,
                         object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}", path) from None
    except RecursionError:
        raise ConfigError("JSON nested too deeply", path) from None


def load_config(fh) -> CampaignConfig:
    return parse_config(load_json(fh))


# Exact HMAC scheme names that fix the truncation; plain `hmac` takes
# `mac_truncation` from the config.
_HMAC_NAMES = {f"hmac-{t}": t for t in TAG_LENGTHS}


def build_scheme(name: str, config: CampaignConfig,
                 where: str = "config.schemes") -> tg.ProtectionScheme:
    """Instantiate a protection scheme from its exact config name; a bad
    name is a ConfigError at `where`."""
    if name in (tg.SCHEME_NONE, tg.SCHEME_PARITY, tg.SCHEME_HAMMING):
        return tg.ProtectionScheme(name)
    if name in CRC_CATALOG:
        return tg.ProtectionScheme(tg.SCHEME_CRC,
                                   crc_params=CRC_CATALOG[name])
    if name == tg.SCHEME_CODEDSIG:
        try:
            key = make_key(config.key_modulus)
        except CodedCoreError as exc:
            raise ConfigError(str(exc), "config.key_a") from None
        return tg.ProtectionScheme(
            tg.SCHEME_CODEDSIG, key=key,
            signature=config.coded_signature % key.modulus)
    if name == tg.SCHEME_HMAC or name in _HMAC_NAMES:
        return tg.ProtectionScheme(
            tg.SCHEME_HMAC,
            mac_truncation=_HMAC_NAMES.get(name, config.mac_truncation))
    if name.startswith("hmac-"):
        raise ConfigError(f"hmac truncation must be one of {TAG_LENGTHS}",
                          where)
    raise ConfigError(f"unknown scheme {name!r}", where)


def resolve_mac_key(config: CampaignConfig) -> MacKey | None:
    """Env variable overrides the config key reference; never echoed.

    A bad or empty key is a ConfigError at `$VITALCODE_MAC_KEY` or
    `config.mac_key`, whichever supplied it.
    """
    text, where = os.environ.get(MAC_KEY_ENV), f"${MAC_KEY_ENV}"
    if text is None:
        text, where = config.mac_key_hex, "config.mac_key"
    if text is None:
        return None
    try:
        return MacKey.from_hex(text)
    except MacKeyError as exc:
        raise ConfigError(str(exc), where) from None


class CellResult(Outcomes):
    """The receiver's verdicts on the frames of one (scheme, threat) cell.

    `accepted` includes `accepted_but_wrong`, and `corrected` includes
    `miscorrected`: corrected to content the sender never emitted.
    """

    names = ("accepted", "rejected", "corrected", "accepted_but_wrong",
             "miscorrected")
    __slots__ = names + ("scheme", "threat")

    @property
    def delivered(self) -> int:
        return self.trials


@dataclass
class ChannelReport:
    cells: list[CellResult]
    config: dict  # echo of the campaign configuration, key redacted
    seed: int

    def rows(self) -> list[dict]:
        return [{"scheme": c.scheme, "threat": c.threat, **c.row()}
                for c in self.cells]

    def to_json(self) -> str:
        return report_json(self.config, self.seed, cells=self.rows())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["scheme", "threat", "delivered", *CellResult.names])
        writer.writerows([r["scheme"], r["threat"], r["trials"],
                          *(r[name]["count"] for name in CellResult.names)]
                         for r in self.rows())
        return buf.getvalue()


def _run_cell(scheme_name: str, scheme: tg.ProtectionScheme, threat: Threat,
              config: CampaignConfig, mac_key: MacKey | None) -> CellResult:
    stream = f"vitalcode-channel:{config.seed}:{scheme_name}:{threat.label}"
    # Resolved once per cell, so neither trial body below branches on the
    # scheme or the threat.
    move, verify, tag = tg._MOVES[threat.kind], tg.verify_telegram, scheme.tag
    wire_id = scheme.wire_id
    if threat.kind == "brute_force":
        # Tag guessing: the attacker fabricates frames for one chosen
        # message and tries a fresh random tag per attempt.  Nothing the
        # attacker presents was ever sent, so any acceptance is a wrong
        # acceptance.  The carrier frame is the same for every attempt.
        message = tg.Telegram(1, 1,
                              threat.payload or bytes(config.payload_length))
        carrier = (message, wire_id, tag(message, mac_key))
        window = tg.ReceiverWindow(0, 1)

        def trial(i):
            guess = move(carrier, threat, scheme, trial_rng(stream, i))
            status = verify(guess, scheme, mac_key, window).status
            if status == tg.REJECT:
                return "rejected"
            if status == tg.CORRECTED:
                return "miscorrected"
            return "accepted_but_wrong"

        trials = threat.attempts
    else:
        length = config.payload_length
        # A replayed frame was already accepted, so the receiver's
        # sequence window has moved past it.
        lag = 0 if threat.kind == "replay" else 1
        # A replayed or tag-spliced frame is unauthorized even when its
        # content matches something the sender once emitted.
        unauthorized = threat.kind in ("replay", "splice")

        def trial(i):
            rng = trial_rng(stream, i)
            seq = i + 1
            sent = tg.Telegram(seq, seq, rng.randbytes(length))
            delivered = move((sent, wire_id, tag(sent, mac_key)), threat,
                             scheme, rng)
            result = verify(delivered, scheme, mac_key,
                            tg.ReceiverWindow(seq - lag, seq))
            if result.status == tg.REJECT:
                return "rejected"
            if result.status == tg.CORRECTED:
                if result.telegram.payload == sent.payload:
                    return "corrected"
                return "miscorrected"
            if unauthorized or result.telegram != sent:
                return "accepted_but_wrong"
            return "accepted"

        trials = config.trials
    tally = run_trials(trials, trial)
    tally["accepted"] += tally["accepted_but_wrong"]
    tally["corrected"] += tally["miscorrected"]
    return CellResult(trials, tally, scheme=scheme_name, threat=threat.label)


def run_channel_campaign(config: CampaignConfig) -> ChannelReport:
    """Run the full schemes x threats grid; reproducible under its seed."""
    mac_key = resolve_mac_key(config)
    if mac_key is None and any(s.variant == tg.SCHEME_HMAC
                               for s in config.schemes.values()):
        raise ConfigError(f"hmac scheme configured but no MAC key in "
                          f"config.mac_key or ${MAC_KEY_ENV}",
                          "config.mac_key")
    cells = []
    for scheme_name, scheme in config.schemes.items():
        for threat in config.threats:
            cells.append(_run_cell(scheme_name, scheme, threat, config,
                                   mac_key))
    echo = {
        "schemes": list(config.schemes),
        "threats": [t.label for t in config.threats],
        "trials": config.trials,
        "key_a": config.key_modulus,
        "coded_signature": config.coded_signature,
        "payload_length": config.payload_length,
        "mac_truncation": config.mac_truncation,
        "mac_key": "<configured>" if mac_key is not None else None,
    }
    return ChannelReport(cells=cells, config=echo, seed=config.seed)
