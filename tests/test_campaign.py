import csv
import io
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import CHANNEL_GRID, build_sample, find_cell
from vitalcode.campaign import (CampaignConfig, ConfigError, Threat,
                                build_scheme, load_config, parse_config,
                                resolve_mac_key, run_channel_campaign)
from vitalcode import telegram
from vitalcode.coded_runtime import run_campaign
from vitalcode.mac import MAC_KEY_ENV
from vitalcode.redundancy import MAJORITY, VoteConfig, redundancy_campaign

# Every field a config document or a threat may hold.
FIELDS = ("schemes", "threats", "trials", "seed", "key_a", "coded_signature",
          "payload_length", "mac_key", "mac_truncation", "kind", "rate",
          "length", "attempts", "payload_hex")

# Scheme and threat names, so generated documents are often nearly valid.
NAMES = ("crc8-atm", "codedsig", "hmac-8", "forge", "burst", "bit_error",
         "brute_force", "replay")

# Threat kind -> the parameters it reads; the other kinds read none.
THREAT_READS = {"bit_error": ("rate",), "burst": ("length",),
                "brute_force": ("attempts", "payload_hex"),
                "forge": ("payload_hex",)}
PARAM_VALUES = {"rate": 0.1, "length": 3, "attempts": 2, "payload_hex": "0c"}

BASE_DOC = {
    "schemes": ["crc8-atm"],
    "threats": [{"kind": "forge"}],
    "trials": 10,
    "seed": 1,
}


def make_config(**overrides) -> CampaignConfig:
    doc = dict(BASE_DOC)
    doc.update(overrides)
    return parse_config(doc)


def inject_report():
    _, key, table, program = build_sample(251)
    return run_campaign(program, table, key, ["F6"], 5, seed=1)


# One report or group of each kind, each an `Outcomes` subclass.
GROUPS = {
    "InjectionReport": inject_report,
    "per_model": lambda: inject_report().per_model["F6"],
    "RedundancyReport": lambda: redundancy_campaign(
        VoteConfig(MAJORITY, 0.1, 0.1), 5, seed=1),
    "CellResult": lambda: run_channel_campaign(make_config(trials=5)).cells[0],
}


class TestConfigParsing:
    def test_minimal(self):
        config = make_config()
        assert list(config.schemes) == ["crc8-atm"]
        assert config.trials == 10
        assert config.threats[0].kind == "forge"

    def test_missing_field_positions_error(self):
        with pytest.raises(ConfigError, match="config.trials"):
            parse_config({"schemes": [], "threats": [], "seed": 0})

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="config.trials"):
            make_config(trials="ten")

    def test_nonpositive_trials(self):
        with pytest.raises(ConfigError, match="config.trials"):
            make_config(trials=0)

    def test_trials_bounded_by_the_sequence_space(self):
        # Frame i is sent with seq i + 1, and a telegram's seq is a u32.
        assert make_config(trials=2**32 - 1).trials == 2**32 - 1
        with pytest.raises(ConfigError, match=r"^config.trials: must be in "
                                              r"\[1, 4294967295\]"):
            make_config(trials=2**32)

    def test_unknown_threat_kind(self):
        with pytest.raises(ConfigError, match=r"config.threats\[0\]"):
            make_config(threats=[{"kind": "teleport"}])

    def test_threat_needs_kind(self):
        with pytest.raises(ConfigError, match=r"config.threats\[0\]"):
            make_config(threats=[{"rate": 0.1}])

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="crc16"):
            make_config(schemes=["crc16"])

    @pytest.mark.parametrize("name", ["crc16", "hmac-12"])
    def test_bad_scheme_name_located_by_index(self, name):
        with pytest.raises(ConfigError, match=r"^config\.schemes\[1\]: "):
            make_config(schemes=["crc8-atm", name])

    def test_threat_is_the_telegram_threat(self):
        assert Threat is telegram.Threat
        assert make_config().threats[0] == telegram.Threat("forge")

    def test_readme_config_is_valid(self):
        # The channel config documented in README.md must stay valid.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```json\n(.*?)```",
                          readme.read_text(encoding="utf-8"), re.S)
        config = parse_config(json.loads(block.group(1)))
        assert config.threats
        assert all(t.kind in telegram.NOISE_THREATS + telegram.ATTACK_THREATS
                   for t in config.threats)

    def test_bad_mac_truncation(self):
        with pytest.raises(ConfigError, match="config.mac_truncation"):
            make_config(mac_truncation=12)

    def test_threat_parameters(self):
        config = make_config(threats=[
            {"kind": "bit_error", "rate": 0.01},
            {"kind": "burst", "length": 9},
            {"kind": "brute_force", "attempts": 50},
            {"kind": "forge", "payload_hex": "deadbeef"},
        ])
        labels = [t.label for t in config.threats]
        assert labels == ["bit_error(0.01)", "burst(9)", "brute_force(50)",
                          "forge"]
        assert config.threats[3].payload == bytes.fromhex("deadbeef")

    @pytest.mark.parametrize("kind", telegram.NOISE_THREATS
                             + telegram.ATTACK_THREATS)
    @pytest.mark.parametrize("param", sorted(PARAM_VALUES))
    def test_threat_takes_only_the_parameters_it_reads(self, kind, param):
        entry = {"kind": kind, param: PARAM_VALUES[param]}
        if kind == "brute_force":
            entry.setdefault("attempts", 2)
        if param in THREAT_READS.get(kind, ()):
            assert make_config(threats=[entry]).threats[0].kind == kind
        else:
            with pytest.raises(ConfigError) as info:
                make_config(threats=[entry])
            assert info.value.path == f"config.threats[0].{param}"

    @pytest.mark.parametrize("threat", [
        {"kind": "brute_force"},
        {"kind": "brute_force", "attempts": 0},
        {"kind": "brute_force", "attempts": -3},
    ])
    def test_brute_force_needs_attempts(self, threat):
        with pytest.raises(ConfigError, match=r"config.threats\[1\]"):
            make_config(threats=[{"kind": "forge"}, threat])

    @pytest.mark.parametrize("overrides, where", [
        ({"trials": True}, "config.trials"),
        ({"seed": 1.5}, "config.seed"),
        ({"payload_length": 5000}, "config.payload_length"),
        ({"payload_length": -1}, "config.payload_length"),
        ({"key_a": "251"}, "config.key_a"),
        ({"mac_key": 5}, "config.mac_key"),
        ({"schemes": "crc8-atm"}, "config.schemes"),
        # A misspelled or misplaced field is named, never its value.
        ({"payload_lenght": 8}, "config.payload_lenght"),
        ({"mac_kee": "5ec7" * 8}, "config.mac_kee"),
        ({"kind": "forge"}, "config.kind"),
    ])
    def test_bad_field(self, overrides, where):
        with pytest.raises(ConfigError, match=rf"^{where}: ") as info:
            make_config(**overrides)
        assert "5ec7" not in str(info.value)

    @pytest.mark.parametrize("threat, field", [
        ({"kind": 5}, "kind"),
        ({"kind": "bit_error", "rate": "x"}, "rate"),
        ({"kind": "bit_error", "rate": 2}, "rate"),
        ({"kind": "bit_error", "rate": True}, "rate"),
        ({"kind": "bit_error", "rate": float("nan")}, "rate"),
        ({"kind": "burst", "length": -2}, "length"),
        ({"kind": "brute_force", "attempts": "x"}, "attempts"),
        ({"kind": "forge", "payload_hex": "zz"}, "payload_hex"),
        ({"kind": "forge", "payload_hex": "00" * 1025}, "payload_hex"),
        ({"kind": "bit_error", "rat": 0.5}, "rat"),
        ({"kind": "forge", "mac_key": "5ec7" * 8}, "mac_key"),
        ({"kind": "replay", "trials": 3}, "trials"),
    ])
    def test_bad_threat_field(self, threat, field):
        where = rf"^config\.threats\[1\]\.{field}: "
        with pytest.raises(ConfigError, match=where) as info:
            make_config(threats=[{"kind": "forge"}, threat])
        assert "5ec7" not in str(info.value)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8) | st.sampled_from(NAMES),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=6)
        | st.fixed_dictionaries(
            {name: st.just(value) | inner
             for name, value in BASE_DOC.items()},
            optional={name: inner for name in FIELDS
                      if name not in BASE_DOC}),
        max_leaves=16))
    @settings(max_examples=300, deadline=None)
    def test_any_json_is_config_or_config_error(self, doc):
        try:
            config = parse_config(doc)
        except ConfigError:
            return
        assert isinstance(config, CampaignConfig)

    @given(key=st.sampled_from(FIELDS),
           first=st.integers() | st.text(max_size=4),
           second=st.integers() | st.text(max_size=4),
           others=st.dictionaries(st.sampled_from(FIELDS), st.integers(),
                                  max_size=4),
           where=st.sampled_from(["@", '{"threats": [@], "trials": 3}',
                                  "[[@]]"]))
    @settings(max_examples=100, deadline=None)
    def test_any_json_with_a_repeated_key_is_config_error(
            self, key, first, second, others, where):
        # The decoder would let the last of the two win; the loader
        # refuses the document at its file, naming the key.
        members = [(key, first), *others.items(), (key, second)]
        text = where.replace("@", "{" + ", ".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}")
        fh = io.StringIO(text)
        fh.name = "campaign.json"
        with pytest.raises(ConfigError) as exc:
            load_config(fh)
        assert str(exc.value) == f"campaign.json: repeated key {key!r}"

    def test_repeated_scheme(self):
        with pytest.raises(ConfigError, match=r"^config\.schemes\[2\]: "):
            make_config(schemes=["crc8-atm", "hmac", "crc8-atm"])

    def test_repeated_threat_label(self):
        # Both rates print as bit_error(0.001), the label that names the
        # cell and its random stream.
        with pytest.raises(ConfigError, match=r"^config\.threats\[1\]: "):
            make_config(threats=[{"kind": "bit_error", "rate": 0.001},
                                 {"kind": "bit_error",
                                  "rate": 0.0010000001}])

    def test_load_config_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schemes": [,]}')
        with open(bad, encoding="utf-8") as fh, \
                pytest.raises(ConfigError, match="line 1"):
            load_config(fh)

    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000 + "]" * 200_000, "JSON nested too deeply"),
        ('{"trials": ' + "9" * 5000 + "}", "integer too long to convert"),
    ], ids=["deep", "long-int"])
    def test_load_config_past_the_decoder_limits(self, tmp_path, text,
                                                 message):
        # The error names the file and shows no value.
        path = tmp_path / "campaign.json"
        path.write_text(text)
        with open(path, encoding="utf-8") as fh, \
                pytest.raises(ConfigError) as exc:
            load_config(fh)
        assert str(exc.value) == f"{path}: {message}"

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(BASE_DOC))
        with open(path, encoding="utf-8") as fh:
            assert load_config(fh).trials == 10


class TestSchemeBuilding:
    def test_all_names(self):
        config = make_config(mac_key="00" * 16)
        for name in ("none", "parity", "crc8-atm", "crc32-ieee",
                     "hamming74", "codedsig", "hmac", "hmac-8", "hmac-16",
                     "hmac-32"):
            scheme = build_scheme(name, config)
            assert scheme is not None

    def test_hmac_truncation_from_name(self):
        config = make_config()
        assert build_scheme("hmac-8", config).mac_truncation == 8
        assert build_scheme("hmac", config).mac_truncation == 32

    def test_bad_hmac_truncation_name(self):
        with pytest.raises(ConfigError):
            build_scheme("hmac-12", make_config())

    @pytest.mark.parametrize("name", ["hmac-x", "hmac-", "hmac-8x",
                                      "hmac-08", "hmac- 8", "hmac-8 "])
    def test_non_integer_hmac_truncation_name(self, name):
        with pytest.raises(ConfigError, match="hmac truncation"):
            build_scheme(name, make_config())

    @pytest.mark.parametrize("name", ["hmacfoo", "hmac_x", "HMAC", "crc"])
    def test_unknown_scheme_name(self, name):
        with pytest.raises(ConfigError, match="unknown scheme"):
            build_scheme(name, make_config())

    @pytest.mark.parametrize("key_a", [12, 2, 2**48 + 21])
    def test_codedsig_bad_key(self, key_a):
        with pytest.raises(ConfigError, match=r"^config\.key_a: "):
            make_config(schemes=["codedsig"], key_a=key_a)

    def test_codedsig_uses_config_key(self):
        config = make_config(key_a=13, coded_signature=20)
        scheme = build_scheme("codedsig", config)
        assert scheme.key.modulus == 13
        assert scheme.signature == 20 % 13


class TestMacKeyResolution:
    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv(MAC_KEY_ENV, "aa" * 16)
        config = make_config(mac_key="bb" * 16)
        key = resolve_mac_key(config)
        from vitalcode.mac import MacKey, hmac_tag
        assert hmac_tag(key, b"m", 8) == \
            hmac_tag(MacKey.from_hex("aa" * 16), b"m", 8)

    def test_config_key_used_when_no_env(self, monkeypatch):
        monkeypatch.delenv(MAC_KEY_ENV, raising=False)
        assert resolve_mac_key(make_config(mac_key="bb" * 16)) is not None
        assert resolve_mac_key(make_config()) is None

    def test_hmac_without_key_is_config_error(self, monkeypatch):
        monkeypatch.delenv(MAC_KEY_ENV, raising=False)
        config = make_config(schemes=["hmac"])
        with pytest.raises(ConfigError, match="MAC key"):
            run_channel_campaign(config)


class TestCampaignSemantics:
    def test_forge_beats_every_keyless_scheme(self):
        config = make_config(
            schemes=["parity", "crc8-atm", "crc32-ieee", "codedsig"],
            threats=[{"kind": "forge"}], trials=50)
        report = run_channel_campaign(config)
        for name in config.schemes:
            cell = find_cell(report, name, "forge")
            assert cell.accepted == 50, name
            assert cell.accepted_but_wrong == 50, name

    def test_forge_never_beats_hmac(self):
        config = make_config(schemes=["hmac-8"],
                             threats=[{"kind": "forge"}], trials=200,
                             mac_key="0c" * 16)
        cell = find_cell(run_channel_campaign(config), "hmac-8", "forge")
        assert cell.accepted_but_wrong == 0
        assert cell.rejected == 200

    def test_replay_accepted_by_crc_rejected_by_hmac(self):
        config = make_config(schemes=["crc32-ieee", "hmac"],
                             threats=[{"kind": "replay"}], trials=50,
                             mac_key="0d" * 16)
        report = run_channel_campaign(config)
        crc = find_cell(report, "crc32-ieee", "replay")
        assert crc.accepted == 50 and crc.accepted_but_wrong == 50
        hmac_cell = find_cell(report, "hmac", "replay")
        assert hmac_cell.rejected == 50 and hmac_cell.accepted_but_wrong == 0

    def test_splice_rejected_when_residues_differ(self):
        config = make_config(schemes=["codedsig", "hmac"],
                             threats=[{"kind": "splice"}], trials=50,
                             key_a=2**31 - 1, mac_key="0e" * 16)
        report = run_channel_campaign(config)
        # 64-byte random payloads collide mod a 31-bit prime with
        # probability ~5e-10; every splice should be caught.
        for name in config.schemes:
            assert find_cell(report, name, "splice").accepted_but_wrong == 0

    def test_splice_of_identical_content_is_unauthorized(self):
        # With empty payloads the spliced frame equals the genuine one;
        # it is still a frame the sender did not emit with that tag.
        config = make_config(schemes=["none", "crc8-atm"],
                             threats=[{"kind": "splice"},
                                      {"kind": "random_payload"}],
                             trials=20, payload_length=0)
        report = run_channel_campaign(config)
        for name in config.schemes:
            splice = find_cell(report, name, "splice")
            noise = find_cell(report, name, "random_payload")
            assert splice.accepted_but_wrong == 20
            assert noise.accepted_but_wrong == 0

    def test_brute_force_uses_attempts(self):
        config = make_config(
            schemes=["hmac-8"],
            threats=[{"kind": "brute_force", "attempts": 300}],
            trials=5, mac_key="0f" * 16)
        cell = find_cell(run_channel_campaign(config), "hmac-8",
                         "brute_force(300)")
        assert cell.delivered == 300
        assert cell.accepted_but_wrong == 0

    def test_noise_on_unprotected_scheme_accepted_wrong(self):
        config = make_config(schemes=["none"],
                             threats=[{"kind": "random_payload"}], trials=50)
        cell = find_cell(run_channel_campaign(config), "none",
                         "random_payload")
        assert cell.accepted == 50
        assert cell.accepted_but_wrong == 50

    def test_burst_against_crc32(self):
        config = make_config(schemes=["crc32-ieee"],
                             threats=[{"kind": "burst", "length": 17}],
                             trials=100)
        cell = find_cell(run_channel_campaign(config), "crc32-ieee",
                         "burst(17)")
        # The CRC covers the payload only.  A burst touching payload or
        # tag is always caught; one confined to the seq/date header fields
        # (~7% of start positions) slips through and alters the telegram.
        assert cell.accepted == cell.accepted_but_wrong
        assert cell.accepted < 20
        assert cell.rejected == cell.delivered - cell.accepted

    def test_hamming_corrects_codeword_flips(self):
        config = make_config(schemes=["hamming74"],
                             threats=[{"kind": "codeword_flip"}], trials=50)
        cell = find_cell(run_channel_campaign(config), "hamming74",
                         "codeword_flip")
        assert cell.corrected == 50
        assert cell.miscorrected == 0

    def test_counts_conserved(self):
        config = make_config(
            schemes=["parity", "crc8-atm", "hamming74", "codedsig"],
            threats=[{"kind": "bit_error", "rate": 0.02},
                     {"kind": "forge"}],
            trials=40)
        report = run_channel_campaign(config)
        for cell in report.cells:
            assert cell.accepted + cell.rejected + cell.corrected \
                == cell.delivered
            assert cell.accepted_but_wrong <= cell.accepted
            assert cell.miscorrected <= cell.corrected


class TestFramePath:
    """Each threat maps the sender's frame to the delivered bytes."""

    def test_threats_leave_the_sender_frame_alone(self, monkeypatch):
        # A cell passes each sender's frame to the threat's entry of the
        # move table.  The receiver's verdict is compared with the sender's
        # telegram, so a move that changed it in place would hide wrong
        # acceptances.
        kinds = []

        def checked(move):
            def run(frame, threat, *rest):
                telegram, scheme_id, tag = frame
                before = replace(telegram)
                sent = (before, scheme_id, tag)
                delivered = move(frame, threat, *rest)
                assert telegram == before and frame == sent, threat.label
                kinds.append(threat.kind)
                return delivered
            return run

        for kind, move in telegram._MOVES.items():
            monkeypatch.setitem(telegram._MOVES, kind, checked(move))
        report = run_channel_campaign(parse_config(CHANNEL_GRID))
        assert len(kinds) == sum(cell.delivered for cell in report.cells)
        assert set(kinds) == set(telegram.NOISE_THREATS
                                 + telegram.ATTACK_THREATS)

    def test_one_serialize_and_one_parse_per_frame(self, monkeypatch):
        calls = {"serialize_wire": 0, "parse_wire": 0, "frames": 0}
        kinds = set()

        def counted(name):
            original = getattr(telegram, name)

            def run(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(telegram, name, run)

        counted("serialize_wire")
        counted("parse_wire")
        verify = telegram.verify_telegram

        def verify_one(*args):
            # The threat's move serialized this frame once; the receiver
            # parses it once.
            calls["frames"] += 1
            assert calls["serialize_wire"] == calls["frames"]
            result = verify(*args)
            assert calls["parse_wire"] == calls["frames"]
            return result

        def seen(move):
            def run(frame, threat, *rest):
                kinds.add(threat.kind)
                return move(frame, threat, *rest)
            return run

        monkeypatch.setattr(telegram, "verify_telegram", verify_one)
        for kind, move in telegram._MOVES.items():
            monkeypatch.setitem(telegram._MOVES, kind, seen(move))
        report = run_channel_campaign(parse_config(CHANNEL_GRID))
        frames = sum(cell.delivered for cell in report.cells)
        assert calls == {"serialize_wire": frames, "parse_wire": frames,
                         "frames": frames}
        assert kinds == set(telegram.NOISE_THREATS + telegram.ATTACK_THREATS)


class TestReports:
    def test_reports_reproducible(self):
        config = make_config(schemes=["crc8-atm", "codedsig"],
                             threats=[{"kind": "bit_error", "rate": 0.01},
                                      {"kind": "forge"}],
                             trials=30)
        a = run_channel_campaign(config)
        b = run_channel_campaign(config)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_json_shape_and_key_redaction(self):
        config = make_config(schemes=["hmac"], threats=[{"kind": "forge"}],
                             trials=10, mac_key="ab" * 16)
        doc = json.loads(run_channel_campaign(config).to_json())
        assert doc["config"]["mac_key"] == "<configured>"
        assert "ab" * 16 not in json.dumps(doc)
        wrong = doc["cells"][0]["accepted_but_wrong"]
        lo, hi = wrong["ci"]
        assert 0.0 <= lo <= wrong["rate"] <= hi <= 1.0

    def test_csv_shape(self):
        config = make_config(trials=10)
        rows = list(csv.reader(io.StringIO(
            run_channel_campaign(config).to_csv())))
        assert rows[0][:3] == ["scheme", "threat", "delivered"]
        assert rows[1][0] == "crc8-atm"
        assert int(rows[1][2]) == 10

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_groups_keep_no_instance_dict(self, group):
        # The benchmark keeps every batch's reports, so the groups' slots
        # bound its peak RSS.
        assert not hasattr(GROUPS[group](), "__dict__")

    def test_threat_label_built_once(self):
        config = make_config(threats=[{"kind": "bit_error", "rate": 0.01},
                                      {"kind": "burst", "length": 3},
                                      {"kind": "forge"}])
        for threat in config.threats:
            assert threat.label is threat.label
        assert [t.label for t in config.threats] == \
            ["bit_error(0.01)", "burst(3)", "forge"]
