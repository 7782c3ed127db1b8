"""Command-line interface.

Exit codes: 0 success, 1 on any acceptance-relevant failure (a rejected
cycle, a failed known-answer vector), 2 on configuration errors.  Bad
outside input is a ConfigError naming where it entered: `_file` names
the path of any file that cannot be opened, read, decoded, parsed or
written, the commands name their flags, and a usage error names the
flag argparse reports or else the command.  `main` turns a ConfigError
into one `error: <where>: <what>` line and exit code 2; every other
exception is a fault in the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import sys

from . import campaign as ch
from . import coded_runtime as rt
from .coded_core import CodedCoreError, make_key
from .dsl import DslError, parse_program
from .mac import MacKey, hash_digest, hmac_tag
from .redundancy import POLICIES, VoteConfig, redundancy_campaign
from .sigtool import (SigtoolError, assign_signatures, emit_prom, load_prom,
                      predetermine)
from .stats import ConfigError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _file(path, mode, use):
    """`use(fh)` on `path` opened in `mode`, as UTF-8 text unless the mode
    is binary.  Failing to open, read, decode, parse or write the file is
    a ConfigError at `path`."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            return use(fh)
    except OSError as exc:
        raise ConfigError(exc.strerror, path) from None
    except (UnicodeDecodeError, DslError, SigtoolError) as exc:
        raise ConfigError(str(exc), path) from None


def _cmd_sign(args) -> int:
    try:
        key = make_key(args.key)
    except CodedCoreError as exc:
        raise ConfigError(str(exc), "--key") from None
    ir = _file(args.program, "r", lambda fh: parse_program(fh.read()))
    try:
        table = assign_signatures(ir, key, args.seed)
    except SigtoolError as exc:
        raise ConfigError(str(exc), "--seed") from None
    image = emit_prom(table, predetermine(ir, table))
    _file(args.output, "wb", lambda fh: fh.write(image))
    print(f"wrote {len(image)} bytes to {args.output} "
          f"(digest {table.program_digest.hex()[:16]}..., "
          f"{len(ir.instructions)} instructions, "
          f"{len(table.signatures)} signatures)")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.cycles < 1:
        raise ConfigError(f"must be >= 1, got {args.cycles}", "--cycles")
    table, program = _file(args.prom, "rb", lambda fh: load_prom(fh.read()))
    inputs = _file(args.inputs, "r", ch.load_json)
    if not isinstance(inputs, dict):
        raise ConfigError("must be a JSON object", args.inputs)
    names = program.ir.inputs
    for name in names:
        if type(inputs.get(name)) is not int:
            problem = "is not an integer" if name in inputs else "is missing"
            raise ConfigError(f"input {name!r} {problem}", args.inputs)
    declared = set(names)
    undeclared = [name for name in inputs if name not in declared]
    if undeclared:
        raise ConfigError(f"{undeclared[0]!r} is not an input of the "
                          f"program", args.inputs)
    status = EXIT_OK
    for cycle in range(args.cycles):
        result = rt.run_cycle(program, table, inputs, cycle, table.key)
        if result.verdict == rt.ACCEPT:
            rendered = ", ".join(f"{k}={v}"
                                 for k, v in sorted(result.outputs.items()))
            print(f"cycle {cycle}: accept {rendered}")
        else:
            print(f"cycle {cycle}: {result.verdict} "
                  f"({result.reason}: {result.variable})")
            status = EXIT_FAILURE
    return status


def _cmd_inject(args) -> int:
    table, program = _file(args.prom, "rb", lambda fh: load_prom(fh.read()))
    models = [m.strip().upper() for m in args.model.split(",")]
    report = rt.run_campaign(program, table, table.key, models,
                             args.trials, args.seed)
    print(report.to_json())
    return EXIT_OK


def _cmd_channel(args) -> int:
    report = ch.run_channel_campaign(_file(args.config, "r", ch.load_config))
    rendered = report.to_json()
    if args.output:
        _file(args.output, "w", lambda fh: fh.write(rendered + "\n"))
        print(f"wrote {args.output}")
    else:
        print(rendered)
    if args.csv:
        _file(args.csv, "w", lambda fh: fh.write(report.to_csv()))
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_redundancy(args) -> int:
    cfg = VoteConfig(policy=args.policy, p=args.p, q=args.q)
    report = redundancy_campaign(cfg, args.trials, args.seed)
    print(report.to_json())
    return EXIT_OK


# Known-answer vectors: FIPS 180-4 examples and RFC 4231 test cases 1
# and 6 (a 131-byte key, hashed before use).
_HASH_VECTORS = (
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
)

_HMAC_VECTORS = (
    (bytes([0x0B] * 20), b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (bytes([0xAA] * 131),
     b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
)


def _cmd_vectors(_args) -> int:
    status = EXIT_OK
    for message, expected in _HASH_VECTORS:
        got = hash_digest(message).hex()
        ok = got == expected
        print(f"hash {message[:16]!r}: {'PASS' if ok else 'FAIL (' + got + ')'}")
        status = status if ok else EXIT_FAILURE
    for key, message, expected in _HMAC_VECTORS:
        got = hmac_tag(MacKey(key), message).hex()
        ok = got == expected
        print(f"hmac {message!r}: {'PASS' if ok else 'FAIL (' + got + ')'}")
        status = status if ok else EXIT_FAILURE
    return status


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError; subparsers inherit it."""

    def error(self, message):
        where, sep, what = message.partition(": ")
        if sep and where.startswith("argument -"):
            raise ConfigError(what, where.removeprefix("argument "))
        raise ConfigError(message, self.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vitalcode",
        description="Coded-processor safety toolkit: signature "
                    "predetermination, fault campaigns, channel codes, "
                    "message authentication, redundancy voting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign", help="predetermine signatures for a program "
                                    "and emit a PROM image")
    p.add_argument("program", help="DSL source file")
    p.add_argument("--key", type=int, required=True,
                   help="prime code key (modulus)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("run", help="execute cycles against a PROM image")
    p.add_argument("prom")
    p.add_argument("--inputs", required=True, help="JSON file of input values")
    p.add_argument("--cycles", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("inject", help="fault-injection campaign")
    p.add_argument("prom")
    p.add_argument("--model", required=True,
                   help="comma-separated fault models (F1..F6)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("channel", help="telegram channel campaign")
    p.add_argument("--config", required=True, help="campaign JSON config")
    p.add_argument("-o", "--output", help="write JSON report here")
    p.add_argument("--csv", help="also write a CSV report")
    p.set_defaults(func=_cmd_channel)

    p = sub.add_parser("redundancy", help="voting Monte Carlo")
    p.add_argument("--p", type=float, default=0.0,
                   help="independent fault probability per replica")
    p.add_argument("--q", type=float, default=0.0,
                   help="common-mode fault probability")
    p.add_argument("--policy", choices=POLICIES, default="majority")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_redundancy)

    p = sub.add_parser("vectors", help="print crypto known-answer pass/fail")
    p.set_defaults(func=_cmd_vectors)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"unrecognized arguments: {' '.join(extra)}",
                              f"vitalcode {args.command}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
