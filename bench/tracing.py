"""Span tracer that wraps library functions at their module attributes.

Spans are aggregated per name in memory (calls, inclusive time, self
time), so memory stays bounded however many calls a run makes.  Self
time is a span's duration minus the time covered by the spans it
called.  Every wrapped attribute is restored when the tracer is removed.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (vitalcode module, attribute, span name).  By-name imports are wrapped
# where they are called from (e.g. `coded_runtime.encode`), and each
# function is also wrapped where it is defined, so a later change to how a
# module imports it still lands in the same span.
WRAPS = (
    ("coded_runtime", "run_campaign", "coded_runtime.run_campaign"),
    ("coded_runtime", "run_cycle", "coded_runtime.run_cycle"),
    ("coded_runtime", "inject_fault", "coded_runtime.inject_fault"),
    ("coded_runtime", "trial_rng", "coded_runtime.trial_rng"),
    ("coded_runtime", "interpret", "dsl.interpret"),
    ("coded_runtime", "encode", "coded_core.encode"),
    ("coded_runtime", "check", "coded_core.check"),
    ("coded_runtime", "opel_add", "coded_core.opel"),
    ("coded_runtime", "opel_sub", "coded_core.opel"),
    ("coded_runtime", "opel_mul", "coded_core.opel"),
    ("coded_runtime", "opel_move", "coded_core.opel"),
    ("coded_core", "encode", "coded_core.encode"),
    ("coded_core", "check", "coded_core.check"),
    ("coded_core", "opel_add", "coded_core.opel"),
    ("coded_core", "opel_sub", "coded_core.opel"),
    ("coded_core", "opel_mul", "coded_core.opel"),
    ("coded_core", "opel_move", "coded_core.opel"),
    ("dsl", "parse_program", "dsl.parse_program"),
    ("dsl", "interpret", "dsl.interpret"),
    ("sigtool", "build", "sigtool.build"),
    ("sigtool", "emit_prom", "sigtool.emit_prom"),
    ("sigtool", "load_prom", "sigtool.load_prom"),
    ("sigtool", "hash_digest", "sigtool.hash_digest"),
    ("redundancy", "redundancy_campaign", "redundancy.redundancy_campaign"),
    ("redundancy", "vote", "redundancy.vote"),
    ("mac", "hash_digest", "mac.hash_digest"),
    ("mac", "hmac_tag", "mac.hmac_tag"),
    ("telegram", "hmac_tag", "mac.hmac_tag"),
    ("telegram", "protect_telegram", "telegram.protect_telegram"),
    ("telegram", "parse_wire", "telegram.parse_wire"),
    ("telegram", "verify_telegram", "telegram.verify_telegram"),
    ("telegram", "apply_channel_noise", "telegram.apply_channel_noise"),
    ("telegram", "apply_attack", "telegram.apply_attack"),
    ("channel_codes", "crc_compute", "channel_codes.crc_compute"),
    ("channel_codes", "hamming74_encode_bytes",
     "channel_codes.hamming74_encode_bytes"),
    ("channel_codes", "hamming74_decode_bytes",
     "channel_codes.hamming74_decode_bytes"),
    ("channel_codes", "parity_bit", "channel_codes.parity_bit"),
    ("campaign", "run_channel_campaign", "campaign.run_channel_campaign"),
)


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs span wrappers; aggregates into `self.spans`."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        # Span names with at least one wrapper installed; a span whose
        # every attribute has disappeared is reported as absent.
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._warned: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def _wrap(self, module_name, attr, span):
        try:
            module = importlib.import_module(f"vitalcode.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"vitalcode.{module_name}.{attr}")
            return
        stats = self.spans.setdefault(span, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, traced)
        self.present.add(span)

    @contextmanager
    def installed(self):
        """Wrap every listed attribute for the duration of the block."""
        self.missing = []
        try:
            for module_name, attr, span in WRAPS:
                self._wrap(module_name, attr, span)
            for name in set(self.missing) - self._warned:
                print(f"warning: {name} no longer exists; it is not traced",
                      file=sys.stderr)
            self._warned.update(self.missing)
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
            self._stack.clear()

    def stats(self, span: str) -> SpanStats | None:
        """Aggregate for a span, or None if it was never installed."""
        if span not in self.present:
            return None
        return self.spans[span]
