import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from vitalcode.campaign import load_config
from vitalcode.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from vitalcode.coded_core import make_key
from vitalcode.dsl import MAX_NESTING, ProgramIR, interpret, parse_program
from vitalcode.sigtool import build, emit_prom, load_prom

PROGRAM = """\
input speed;
input limit;
const margin = 3;
output slack;
slack = (limit - speed) + margin;
"""


def assert_one_error_line(capsys) -> str:
    """Read the capture once: nothing on stdout, one error line on stderr,
    which is returned."""
    out, err = capsys.readouterr()
    assert out == "", out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def assert_names_source(lines, path):
    """One error line, naming the file at `path` or a channel config
    field (`config` alone for the document as a whole)."""
    assert len(lines) == 1, lines
    assert lines[0].startswith((f"error: {path}: ", "error: config: ",
                                "error: config.")), lines


def sum_program(terms: int) -> str:
    """A legitimate program: one flat sum of `terms` terms."""
    return "input a; output o; o = " + " + ".join(["a"] * terms) + ";"


# Past the limits of the readers: JSON nested deeper than the decoder
# recurses, and an integer longer than int() converts.
DEEP_JSON = "[" * 200_000 + "]" * 200_000
LONG_INT = "9" * 5000


@pytest.fixture
def prom(tmp_path):
    src = tmp_path / "guard.vc"
    src.write_text(PROGRAM)
    image = tmp_path / "guard.prom"
    assert main(["sign", str(src), "--key", "251", "--seed", "4",
                 "-o", str(image)]) == EXIT_OK
    return image


class TestSign:
    def test_writes_image(self, tmp_path, capsys):
        src = tmp_path / "p.vc"
        src.write_text(PROGRAM)
        image = tmp_path / "p.prom"
        assert main(["sign", str(src), "--key", "251",
                     "-o", str(image)]) == EXIT_OK
        assert image.exists() and image.stat().st_size > 0
        out = capsys.readouterr().out
        assert "instructions" in out and "signatures" in out

    def test_deterministic(self, tmp_path):
        src = tmp_path / "p.vc"
        src.write_text(PROGRAM)
        a, b = tmp_path / "a.prom", tmp_path / "b.prom"
        for target in (a, b):
            assert main(["sign", str(src), "--key", "251", "--seed", "4",
                         "-o", str(target)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_source(self, tmp_path):
        assert main(["sign", str(tmp_path / "nope.vc"), "--key", "251",
                     "-o", str(tmp_path / "x.prom")]) == EXIT_CONFIG

    def test_nonprime_key(self, tmp_path):
        src = tmp_path / "p.vc"
        src.write_text(PROGRAM)
        assert main(["sign", str(src), "--key", "252",
                     "-o", str(tmp_path / "x.prom")]) == EXIT_CONFIG

    def test_parse_error(self, tmp_path):
        src = tmp_path / "bad.vc"
        src.write_text("output o; o = undefined_name + 1;")
        assert main(["sign", str(src), "--key", "251",
                     "-o", str(tmp_path / "x.prom")]) == EXIT_CONFIG

    @pytest.mark.parametrize("source, seed", [
        (PROGRAM.encode(), "-1"),
        (PROGRAM.encode(), str(2**64)),
        (b"input \xff;", "0"),
        (b"const k = " + b"9" * 5000 + b"; output k;", "0"),
        (b"input a; output o; o = a * " + b"9" * 5000 + b";", "0"),
        (b"input a; output o; o = " + b"(" * 3000 + b"a" + b")" * 3000 + b";",
         "0"),
        (b"input a; output o; o = " + b"-" * 3000 + b"a;", "0"),
    ], ids=["seed-negative", "seed-2^64", "source-not-utf8",
            "const-literal-5000-digits", "expr-literal-5000-digits",
            "expr-3000-parentheses", "expr-3000-unary-minus"])
    def test_config_error(self, tmp_path, capsys, source, seed):
        src = tmp_path / "p.vc"
        src.write_bytes(source)
        assert main(["sign", str(src), "--key", "251", "--seed", seed,
                     "-o", str(tmp_path / "x.prom")]) == EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not (tmp_path / "x.prom").exists()

    def test_long_sum_signs_and_runs(self, tmp_path, capsys):
        src = tmp_path / "sum.vc"
        src.write_text(sum_program(10_000))
        image = tmp_path / "sum.prom"
        assert main(["sign", str(src), "--key", "2147483647",
                     "-o", str(image)]) == EXIT_OK
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"a": -7}))
        capsys.readouterr()
        assert main(["run", str(image), "--inputs", str(inputs)]) == EXIT_OK
        expected = interpret(parse_program(sum_program(10_000)), {"a": -7})
        assert capsys.readouterr().out == \
            f"cycle 0: accept o={expected['o']}\n"

    def test_long_name_signs_and_runs(self, tmp_path, capsys):
        # The image stores each name once, in its IR, with no length
        # field that a 70,000-character name could overflow.
        name = "a" * 70_000
        src = tmp_path / "long.vc"
        src.write_text(f"input {name}; output {name};")
        image = tmp_path / "long.prom"
        assert main(["sign", str(src), "--key", "251",
                     "-o", str(image)]) == EXIT_OK
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({name: 5}))
        capsys.readouterr()
        assert main(["run", str(image), "--inputs", str(inputs)]) == EXIT_OK
        assert capsys.readouterr().out == f"cycle 0: accept {name}=5\n"


class TestRun:
    def test_accepting_cycles(self, prom, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"speed": 17, "limit": 40}))
        assert main(["run", str(prom), "--inputs", str(inputs),
                     "--cycles", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("accept slack=26") == 3

    def test_overflow_cycle_fails(self, prom, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"speed": -(2**63), "limit": 2**62}))
        assert main(["run", str(prom), "--inputs",
                     str(inputs)]) == EXIT_FAILURE
        assert "safe_halt" in capsys.readouterr().out

    def test_overflowing_input_is_safe_halt(self, prom, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"speed": 1, "limit": 2**63}))
        assert main(["run", str(prom), "--inputs",
                     str(inputs)]) == EXIT_FAILURE
        assert "cycle 0: safe_halt" in capsys.readouterr().out

    @pytest.mark.parametrize("values, line", [
        ({"speed": 1, "limit": 2**63}, "cycle 0: safe_halt (overflow: limit)"),
        ({"speed": -(2**63), "limit": 2**62},
         "cycle 0: safe_halt (overflow: $t0)"),
    ])
    def test_safe_halt_names_variable(self, prom, tmp_path, capsys, values,
                                      line):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps(values))
        assert main(["run", str(prom), "--inputs",
                     str(inputs)]) == EXIT_FAILURE
        assert capsys.readouterr().out.splitlines()[0] == line

    def test_corrupted_image_refused(self, prom, tmp_path):
        data = bytearray(prom.read_bytes())
        data[len(data) // 2] ^= 0x01
        bad = tmp_path / "bad.prom"
        bad.write_bytes(bytes(data))
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"speed": 1, "limit": 2}))
        assert main(["run", str(bad), "--inputs",
                     str(inputs)]) == EXIT_CONFIG

    def test_image_of_undefined_output_refused(self, tmp_path, capsys):
        # Digest and rebuild match: the IR itself is what is ill-formed.
        image = tmp_path / "crafted.prom"
        image.write_bytes(emit_prom(*build(
            ProgramIR(inputs=["a"], outputs=["z"]), make_key(13), 0)))
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps({"a": 3}))
        assert main(["run", str(image), "--inputs",
                     str(inputs)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_bad_inputs_file(self, prom, tmp_path):
        inputs = tmp_path / "inputs.json"
        inputs.write_text("not json")
        assert main(["run", str(prom), "--inputs",
                     str(inputs)]) == EXIT_CONFIG

    @pytest.mark.parametrize("inputs_text, cycles", [
        ('{"speed": 1}', "1"),                 # an input missing
        ("[1, 2]", "1"),                       # not an object
        ('{"speed": 1, "limit": "2"}', "1"),   # not an integer
        ('{"speed": 1, "limit": true}', "1"),
        ('{"speed": 1, "limit": 2}', "-1"),
        ('{"speed": 1, "limit": 2}', "0"),
        pytest.param(DEEP_JSON, "1", id="deep-json"),
        pytest.param('{"speed": 1, "limit": ' + LONG_INT + "}", "1",
                     id="long-int"),
    ])
    def test_config_error(self, prom, tmp_path, capsys, inputs_text,
                          cycles):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(inputs_text)
        assert main(["run", str(prom), "--inputs", str(inputs),
                     "--cycles", cycles]) == EXIT_CONFIG
        assert_one_error_line(capsys)


class TestInject:
    def test_report_printed(self, prom, capsys):
        assert main(["inject", str(prom), "--model", "F1,F6",
                     "--trials", "500", "--seed", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["trials"] == 500
        assert set(doc["per_model"]) == {"F1", "F6"}

    def test_groups_without_trials(self, prom, capsys):
        # One trial over six models leaves five per-model groups empty.
        assert main(["inject", str(prom), "--model", "F1,F2,F3,F4,F5,F6",
                     "--trials", "1"]) == EXIT_OK
        groups = json.loads(capsys.readouterr().out)["per_model"].values()
        assert sorted(g["trials"] for g in groups) == [0, 0, 0, 0, 0, 1]

    def test_unknown_model(self, prom, capsys):
        assert main(["inject", str(prom), "--model", "F9"]) == EXIT_CONFIG
        assert assert_one_error_line(capsys).startswith("error: --model: ")

    @pytest.mark.parametrize("models", ["F1,F1", "F6,F2,f6"])
    def test_repeated_model(self, prom, capsys, models):
        # A repeat would double its model's share of the header draw,
        # while the report's per-model groups would merge the two.
        assert main(["inject", str(prom), "--model", models,
                     "--trials", "3"]) == EXIT_CONFIG
        assert assert_one_error_line(capsys) == (
            f"error: --model: repeated fault model '{models[-2:].upper()}'")

    @pytest.mark.parametrize("model", ["F3", "F5", "F1,F5"])
    def test_model_without_target(self, tmp_path, capsys, model):
        # One variable leaves F3 no donor; no instruction leaves F5 none.
        src = tmp_path / "echo.vc"
        src.write_text("input a; output a;")
        image = tmp_path / "echo.prom"
        assert main(["sign", str(src), "--key", "251",
                     "-o", str(image)]) == EXIT_OK
        capsys.readouterr()
        assert main(["inject", str(image), "--model", model,
                     "--trials", "3"]) == EXIT_CONFIG
        line = assert_one_error_line(capsys)
        assert line.startswith(f"error: --model: fault model {model[-2:]} ")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials(self, prom, capsys, trials):
        assert main(["inject", str(prom), "--model", "F1",
                     "--trials", trials]) == EXIT_CONFIG
        assert assert_one_error_line(capsys).startswith("error: --trials: ")


class TestChannel:
    def test_runs_and_writes_reports(self, tmp_path, capsys):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["crc8-atm", "codedsig"],
            "threats": [{"kind": "forge"}],
            "trials": 20,
            "seed": 5,
        }))
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main(["channel", "--config", str(config), "-o", str(out),
                     "--csv", str(csv_path)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 2
        assert csv_path.read_text().startswith("scheme,threat")

    def test_stdout_report(self, tmp_path, capsys):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["parity"],
            "threats": [{"kind": "replay"}],
            "trials": 5,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"][0]["scheme"] == "parity"

    def test_bad_config(self, tmp_path):
        config = tmp_path / "campaign.json"
        config.write_text("{broken")
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("threat", [
        {"kind": "brute_force"},
        {"kind": "brute_force", "attempts": 0},
    ])
    def test_brute_force_without_attempts(self, tmp_path, capsys, threat):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["crc8-atm"],
            "threats": [threat],
            "trials": 5,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        assert "config.threats[0]" in assert_one_error_line(capsys)

    def test_non_integer_hmac_truncation(self, tmp_path, capsys):
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["hmac-x"],
            "threats": [{"kind": "forge"}],
            "trials": 5,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("overrides, where", [
        ({"key_a": 12}, "config.key_a"),
        ({"threats": [{"kind": "bit_error", "rate": "x"}]},
         "config.threats[0].rate"),
        ({"threats": [{"kind": "bit_error", "rate": 2}]},
         "config.threats[0].rate"),
        ({"threats": [{"kind": "brute_force", "attempts": "x"}]},
         "config.threats[0].attempts"),
        ({"threats": [{"kind": "forge", "payload_hex": "zz"}]},
         "config.threats[0].payload_hex"),
        ({"payload_length": 5000}, "config.payload_length"),
        ({"trials": True}, "config.trials"),
        ({"threats": [{"kind": "burst", "length": -2}]},
         "config.threats[0].length"),
        ({"schemes": ["crc8-atm", "codedsig", "crc8-atm"]},
         "config.schemes[2]"),
        ({"threats": [{"kind": "bit_error", "rate": 0.001},
                      {"kind": "bit_error", "rate": 0.0010000001}]},
         "config.threats[1]"),
        # Unknown fields, and parameters the threat's kind does not read,
        # are named without their value.
        ({"threats": [{"kind": "bit_error", "rat": 0.5}]},
         "config.threats[0].rat"),
        ({"payload_lenght": 8}, "config.payload_lenght"),
        ({"mac_kee": "5ec7" * 8}, "config.mac_kee"),
        ({"threats": [{"kind": "burst", "rate": 0.5}]},
         "config.threats[0].rate"),
        ({"threats": [{"kind": "replay", "payload_hex": "5ec7" * 8}]},
         "config.threats[0].payload_hex"),
        # Frame i is sent with seq i + 1, a u32.
        ({"trials": 2**32}, "config.trials"),
    ])
    def test_bad_config_value(self, tmp_path, capsys, overrides, where):
        doc = {"schemes": ["crc8-atm", "codedsig"],
               "threats": [{"kind": "forge"}], "trials": 3, "seed": 0}
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps(dict(doc, **overrides)))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        line = assert_one_error_line(capsys)
        assert line.startswith(f"error: {where}:") and "5ec7" not in line

    @pytest.mark.parametrize("content", [
        None, b'{"schemes": "\xff"}',
        pytest.param(DEEP_JSON.encode(), id="deep-json"),
        pytest.param(('{"schemes": ["parity"], "threats": [{"kind": "forge"}],'
                      ' "trials": ' + LONG_INT + ', "seed": 0}').encode(),
                     id="long-int"),
    ])
    def test_unreadable_config(self, tmp_path, capsys, content):
        config = tmp_path / "campaign.json"
        if content is not None:
            config.write_bytes(content)
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        assert_one_error_line(capsys)

    def test_bad_mac_key_in_env(self, tmp_path, monkeypatch, capsys):
        secret = "ab" * 16
        monkeypatch.setenv("VITALCODE_MAC_KEY", secret + "zz")
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["hmac"],
            "threats": [{"kind": "forge"}],
            "trials": 3,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        assert secret not in assert_one_error_line(capsys)

    @pytest.mark.parametrize("env,field", [("", "ab" * 16), (" ", None),
                                           (None, ""), (None, "  ")])
    def test_empty_mac_key(self, tmp_path, monkeypatch, capsys, env, field):
        # A set but empty key never stands in for a configured one, and
        # never runs HMAC without a secret.
        if env is None:
            monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
        else:
            monkeypatch.setenv("VITALCODE_MAC_KEY", env)
        doc = {"schemes": ["hmac"], "threats": [{"kind": "forge"}],
               "trials": 3, "seed": 0}
        if field is not None:
            doc["mac_key"] = field
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps(doc))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        line = assert_one_error_line(capsys)
        assert "no key material" in line and "ab" * 16 not in line

    @pytest.mark.parametrize("env,field,where", [
        ("ab" * 16 + "zz", "cd" * 16, "$VITALCODE_MAC_KEY"),
        ("", "cd" * 16, "$VITALCODE_MAC_KEY"),
        (None, "ab" * 16 + "zz", "config.mac_key"),
        (None, " ", "config.mac_key"),
    ])
    def test_bad_mac_key_names_its_source(self, tmp_path, monkeypatch,
                                          capsys, env, field, where):
        if env is None:
            monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
        else:
            monkeypatch.setenv("VITALCODE_MAC_KEY", env)
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["hmac"], "threats": [{"kind": "forge"}],
            "trials": 3, "seed": 0, "mac_key": field}))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: bad hex key: ")
        assert len(err.splitlines()) == 1
        assert "ab" * 16 not in err and "cd" * 16 not in err

    def test_hmac_without_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("VITALCODE_MAC_KEY", raising=False)
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["hmac"],
            "threats": [{"kind": "forge"}],
            "trials": 5,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_CONFIG

    def test_hmac_key_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("VITALCODE_MAC_KEY", "aa" * 16)
        config = tmp_path / "campaign.json"
        config.write_text(json.dumps({
            "schemes": ["hmac-8"],
            "threats": [{"kind": "forge"}],
            "trials": 10,
            "seed": 0,
        }))
        assert main(["channel", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "aa" * 16 not in out


class TestRedundancy:
    def test_report_printed(self, capsys):
        assert main(["redundancy", "--policy", "majority", "--p", "0.01",
                     "--q", "0.001", "--trials", "2000",
                     "--seed", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["trials"] == 2000
        assert doc["config"]["policy"] == "majority"

    def test_bad_probability(self, capsys):
        assert main(["redundancy", "--p", "1.5"]) == EXIT_CONFIG
        assert assert_one_error_line(capsys) == \
            "error: --p: must be a probability, got 1.5"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials(self, capsys, trials):
        assert main(["redundancy", "--trials", trials]) == EXIT_CONFIG
        assert assert_one_error_line(capsys).startswith("error: --trials: ")


# Errors argparse finds, before any command runs: one line at the flag
# it names, or else at the command.
@pytest.mark.parametrize("argv, where, what", [
    (["inject", "x.prom", "--model", "F1", "--trials", "abc"], "--trials",
     "invalid int value: 'abc'"),
    (["redundancy", "--policy", "x"], "--policy", "invalid choice: 'x'"),
    (["sign", "p.vc", "--key", "0x11", "-o", "x.prom"], "--key",
     "invalid int value: '0x11'"),
    (["redundancy", "--trials"], "--trials", "expected one argument"),
    (["sign", "p.vc", "--key", "251"], "vitalcode sign",
     "the following arguments are required: -o/--output"),
    (["vectors", "--extra"], "vitalcode", "unrecognized arguments: --extra"),
    (["nope"], "vitalcode", "argument command: invalid choice: 'nope'"),
    ([], "vitalcode", "the following arguments are required: command"),
], ids=["trials-not-int", "unknown-policy", "key-hex", "trials-no-value",
        "missing-output", "extra-argument", "unknown-command", "no-command"])
def test_usage_error_is_one_line(capsys, argv, where, what):
    assert main(argv) == EXIT_CONFIG
    assert assert_one_error_line(capsys).startswith(f"error: {where}: {what}")


@pytest.mark.parametrize("argv", [["-h"], ["sign", "--help"]],
                         ids=["root", "sign"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: vitalcode") and err == ""


@pytest.mark.parametrize("case", [
    "missing-file", "unwritable-output", "program-not-utf8", "key-composite",
    "key-too-small", "seed-negative", "cut-image", "not-an-image"])
def test_error_names_its_source(prom, tmp_path, capsys, case):
    src, bad_src = tmp_path / "p.vc", tmp_path / "bad.vc"
    src.write_text(PROGRAM)
    bad_src.write_bytes(b"input \xff;")
    inputs, cut = tmp_path / "inputs.json", tmp_path / "cut.prom"
    inputs.write_text(json.dumps({"speed": 1, "limit": 2}))
    cut.write_bytes(prom.read_bytes()[:40])
    missing, unwritable = tmp_path / "nope.prom", tmp_path / "no" / "x.prom"

    def sign(program=src, key="251", seed="0", output=tmp_path / "x.prom"):
        return ["sign", str(program), "--key", key, "--seed", seed,
                "-o", str(output)]

    def run(image):
        return ["run", str(image), "--inputs", str(inputs)]

    argv, where, what = {
        "missing-file": (run(missing), missing, "No such file or directory"),
        "unwritable-output": (sign(output=unwritable), unwritable,
                              "No such file or directory"),
        "program-not-utf8": (sign(program=bad_src), bad_src,
                             "'utf-8' codec can't decode byte 0xff"),
        "key-composite": (sign(key="12"), "--key", "key 12 is not prime"),
        "key-too-small": (sign(key="2"), "--key", "key 2 outside [3, 2^48)"),
        "seed-negative": (sign(seed="-1"), "--seed",
                          "seed -1 outside [0, 2^64)"),
        "cut-image": (run(cut), cut, "image ends inside the header"),
        "not-an-image": (run(inputs), inputs, "not a PROM image"),
    }[case]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert assert_one_error_line(capsys).startswith(f"error: {where}: {what}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

GARBAGE = st.one_of(
    st.binary(max_size=80),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.text("inputoc ab=+*-;()0123456789\n", max_size=40).map(str.encode))

# Deep and long files: JSON past the decoder's limits, expressions nested
# past MAX_NESTING, and flat sums, which are legitimate programs.
PAST_LIMITS = st.one_of(
    st.integers(1_000, 200_000).map(lambda n: b"[" * n + b"]" * n),
    st.integers(4_301, 6_000).map(
        lambda n: b'{"speed": 1, "limit": ' + b"9" * n + b"}"),
    st.builds(lambda opener, n: (f"input a; output o; o = {opener * n}a"
                                 + ")" * opener.count("(") * n + ";").encode(),
              st.sampled_from(["(", "-", "-("]),
              st.integers(MAX_NESTING + 1, 3_000)),
    st.integers(2, 3_000).map(lambda n: sum_program(n).encode()))


def _valid(command: str, path: Path) -> bool:
    """Whether `path` is a valid file for `command`'s file argument."""
    try:
        if command == "sign":
            parse_program(path.read_text(encoding="utf-8"))
        elif command == "run --inputs":
            inputs = json.loads(path.read_bytes())
            return all(type(inputs[n]) is int for n in ("speed", "limit"))
        elif command == "channel":
            with path.open(encoding="utf-8") as fh:
                load_config(fh)
        else:
            load_prom(path.read_bytes())
        return True
    except Exception:
        return False


@pytest.fixture(scope="module")
def garbage_prom(tmp_path_factory):
    root = tmp_path_factory.mktemp("garbage")
    src = root / "guard.vc"
    src.write_text(PROGRAM)
    image = root / "guard.prom"
    inputs = root / "inputs.json"
    inputs.write_text(json.dumps({"speed": 1, "limit": 2}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sign", str(src), "--key", "251",
                     "-o", str(image)]) == EXIT_OK
    return str(image), str(inputs)


def file_argv(garbage_prom, command: str, path: Path) -> list[str]:
    """`command` reading `path` as its file argument; a signed image goes
    next to `path`."""
    image, inputs = garbage_prom
    return {
        "sign": ["sign", str(path), "--key", "251",
                 "-o", str(path.with_suffix(".prom"))],
        "run": ["run", str(path), "--inputs", inputs],
        "run --inputs": ["run", image, "--inputs", str(path)],
        "inject": ["inject", str(path), "--model", "F1", "--trials", "1"],
        "channel": ["channel", "--config", str(path)],
    }[command]


@pytest.mark.parametrize("command", ["sign", "run", "run --inputs",
                                     "inject", "channel"])
@given(data=GARBAGE)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_garbage_file_exits_2(garbage_prom, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        assume(not _valid(command, path))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(file_argv(garbage_prom, command, path)) == EXIT_CONFIG
    assert_names_source(err.getvalue().splitlines(), path)


@pytest.mark.parametrize("command", ["sign", "run --inputs", "channel"])
@given(data=PAST_LIMITS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_input_at_its_limits_exits_0_or_2(garbage_prom, command, data):
    # A long sum is a legitimate program; everything else past a limit is
    # one error line and exit 2, never a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        expected = EXIT_OK if _valid(command, path) else EXIT_CONFIG
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(file_argv(garbage_prom, command, path)) == expected
    if expected == EXIT_CONFIG:
        assert_names_source(err.getvalue().splitlines(), path)


class TestVectors:
    def test_all_pass(self, capsys):
        assert main(["vectors"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
