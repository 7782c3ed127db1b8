"""Campaign benchmark for vitalcode: trials/s and frames/s per workload.

    python3 bench/run.py --workload small-trials --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports `vitalcode` from its
`src/`.  One single-threaded client runs a workload's batch, waits for it,
then runs the next with the next seed (a closed loop) for `--seconds`.
With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` batches alternate untraced and
traced, and the JSON carries the per-layer metrics instead.  Every batch
is checked for correctness; a failed check makes the exit code 1.  The
lines before the JSON repeat each metric with its unit, plus the run
record and, when traced, every span's call count, total and self time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

clock = time.perf_counter

SEED_STRIDE = 1_000_000      # batch i of workload seed s runs seed s*STRIDE+i
# Median time of `calibration_kernel` on the machine the baseline was
# recorded on (2-core Xeon VM at 2.0 GHz, Python 3.11.7).
CALIBRATION_REFERENCE_S = 0.0057
SCALE_WINDOW = 5
SETUP_SAMPLES = 21
SETUP_SAMPLE_SECONDS = 0.1   # each set-up sample repeats set-up this long
TRACED_SETUPS = 3

RUN_SECONDS = 25

# name, unit, better, bound (the share of the parent's median by which
# the metric may worsen).  Each applies to every workload; `trials_per_s`
# counts inject trials on the inject workloads and non-brute-force frames
# on the channel workloads.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("batch_ms_p50", "ms", "lower", 0.25),
    ("batch_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, span, quantity (total/self/calls), per (call, a
# unit kind of the batch, or one set-up).  A "frame" is every frame the
# receiver was handed, brute-force guesses included.  Spans in
# SETUP_SPANS are measured over traced set-ups, the others over traced
# batches.
LAYER_METRICS = (
    ("coded_runtime.run_cycle.self_us", "us", "lower",
     "coded_runtime.run_cycle", "self", "call"),
    ("coded_runtime.inject_fault.self_us", "us", "lower",
     "coded_runtime.inject_fault", "self", "call"),
    ("coded_runtime.inject_fault.calls_per_trial", "calls/trial", "lower",
     "coded_runtime.inject_fault", "calls", "inject_trial"),
    ("coded_core.opel.self_us", "us", "lower",
     "coded_core.opel", "self", "call"),
    ("coded_core.opel.calls_per_trial", "calls/trial", "lower",
     "coded_core.opel", "calls", "inject_trial"),
    ("coded_core.encode.us", "us", "lower",
     "coded_core.encode", "total", "call"),
    ("coded_core.check.us", "us", "lower",
     "coded_core.check", "total", "call"),
    ("coded_runtime.trial_rng.us", "us", "lower",
     "coded_runtime.trial_rng", "total", "call"),
    ("coded_runtime.run_campaign.self_us_per_trial", "us/trial", "lower",
     "coded_runtime.run_campaign", "self", "inject_trial"),
    ("dsl.interpret.us", "us", "lower", "dsl.interpret", "total", "call"),
    ("redundancy.redundancy_campaign.self_us_per_trial", "us/trial",
     "lower", "redundancy.redundancy_campaign", "self", "redundancy_trial"),
    ("redundancy.vote.us", "us", "lower", "redundancy.vote", "total",
     "call"),
    ("dsl.parse_program.ms", "ms", "lower",
     "dsl.parse_program", "total", "call"),
    ("sigtool.build.ms", "ms", "lower", "sigtool.build", "total", "call"),
    ("sigtool.emit_prom.ms", "ms", "lower",
     "sigtool.emit_prom", "total", "call"),
    ("sigtool.load_prom.ms", "ms", "lower",
     "sigtool.load_prom", "total", "call"),
    ("sigtool.hash_digest.calls", "count", "lower",
     "sigtool.hash_digest", "calls", "setup"),
    ("mac.hash_digest.us", "us", "lower", "mac.hash_digest", "total",
     "call"),
    ("mac.hash_digest.calls_per_frame", "calls/frame", "lower",
     "mac.hash_digest", "calls", "frame"),
    ("mac.hmac_tag.us", "us", "lower", "mac.hmac_tag", "total", "call"),
    ("mac.hmac_tag.calls_per_frame", "calls/frame", "lower",
     "mac.hmac_tag", "calls", "frame"),
    ("channel_codes.crc_compute.us", "us", "lower",
     "channel_codes.crc_compute", "total", "call"),
    ("channel_codes.hamming74_encode_bytes.us", "us", "lower",
     "channel_codes.hamming74_encode_bytes", "total", "call"),
    ("channel_codes.hamming74_decode_bytes.us", "us", "lower",
     "channel_codes.hamming74_decode_bytes", "total", "call"),
    ("channel_codes.parity_bit.us", "us", "lower",
     "channel_codes.parity_bit", "total", "call"),
    ("telegram.protect_telegram.us", "us", "lower",
     "telegram.protect_telegram", "total", "call"),
    ("telegram.parse_wire.us", "us", "lower",
     "telegram.parse_wire", "total", "call"),
    ("telegram.verify_telegram.self_us", "us", "lower",
     "telegram.verify_telegram", "self", "call"),
    ("telegram.apply_channel_noise.us", "us", "lower",
     "telegram.apply_channel_noise", "total", "call"),
    ("telegram.apply_attack.us", "us", "lower",
     "telegram.apply_attack", "total", "call"),
    ("campaign.run_channel_campaign.self_us_per_frame", "us/frame", "lower",
     "campaign.run_channel_campaign", "self", "frame"),
)

SETUP_SPANS = frozenset(("dsl.parse_program", "sigtool.build",
                         "sigtool.emit_prom", "sigtool.load_prom",
                         "sigtool.hash_digest"))

# Per-layer metrics not derived from a single span.
EXTRA_LAYER_METRICS = (
    ("telegram.tag_cache.hit_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_spec(workloads) -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": m[0], "unit": m[1], "better": m[2]}
                      for m in LAYER_METRICS + EXTRA_LAYER_METRICS],
    }


def load_library() -> str | None:
    """Put the checkout's `src/` first on the path; return an error, if any."""
    sys.path.insert(0, str(SRC))
    try:
        import vitalcode
    except ImportError as exc:
        return f"cannot import vitalcode from {SRC}: {exc}"
    origin = Path(vitalcode.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        return f"vitalcode was imported from {origin}, not {SRC}"
    return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg": list(os.getloadavg()),
    }


class _Value:
    __slots__ = ("x", "c")

    def __init__(self, x, c):
        self.x = x
        self.c = c


def calibration_kernel() -> int:
    """Fixed stdlib-only work resembling campaign trials: dict, list and
    integer bytecode, string-seeded generators, small objects, big-int
    and bytes arithmetic."""
    acc = 0
    counts: dict[int, int] = {}
    items = []
    for i in range(3000):
        k = (i * 2654435761) & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        acc = (acc + k * i) % 1000003
        items.append((k, acc))
    items.sort()
    for i in range(75):
        rng = random.Random(f"calibration:{i}")
        for _ in range(8):
            v = _Value(rng.getrandbits(64) - (1 << 63),
                       rng.randrange(2147483647))
            acc = (acc + v.x * v.c) % 2147483647
        b = bytearray(rng.randbytes(32))
        for j in range(len(b)):
            b[j] ^= 1 << (j & 7)
        acc ^= int.from_bytes(b, "big") % 1000003
    return acc + len(counts) + items[-1][1]


def calibrate() -> float:
    """Seconds one calibration kernel takes right now.  The collector is
    off while it runs, so its time follows the machine's speed and not the
    heap the library left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        calibration_kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def speed_scales(kernels: list[float]) -> list[float]:
    """Scales to the reference machine speed, one per timed interval.

    The host's speed drifts by up to 2x over seconds on shared machines,
    so a calibration kernel runs before the first interval and after
    each one (`kernels`).  Interval i is multiplied by
    CALIBRATION_REFERENCE_S over a kernel time: the median of the
    SCALE_WINDOW kernels on either side of it, since one kernel is too
    noisy for the tail of the batch times; or the mean of the two
    kernels next to it, if that is longer, so that a slow-down too short
    for the median still scales the intervals it slowed, which would
    otherwise make up the p90.
    """
    scales = []
    for i in range(len(kernels) - 1):
        around = kernels[max(0, i + 1 - SCALE_WINDOW):i + 1 + SCALE_WINDOW]
        adjacent = (kernels[i] + kernels[i + 1]) / 2
        scales.append(CALIBRATION_REFERENCE_S
                      / max(statistics.median(around), adjacent))
    return scales


def time_setup(workload, seed: int):
    """Median scaled and wall-clock set-up time over several samples,
    after a warm-up."""
    start = clock()
    state = workload.setup(seed)
    reps = max(1, math.ceil(SETUP_SAMPLE_SECONDS / (clock() - start)))
    raw, kernels = [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        start = clock()
        for _ in range(reps):
            state = workload.setup(seed)
        raw.append((clock() - start) / reps)
        kernels.append(calibrate())
    scaled = [t * s for t, s in zip(raw, speed_scales(kernels))]
    return statistics.median(scaled), statistics.median(raw), state, reps


def tag_cache_counts():
    """(hits, misses) of the telegram tag cache, or None without one."""
    try:
        telegram = importlib.import_module("vitalcode.telegram")
        info = telegram._cached_tag.cache_info()
    except (ImportError, AttributeError):
        return None
    return info.hits, info.misses


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


class Run:
    """One benchmark run of one workload; fills `metrics` and `lines`."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from workloads import Checks
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.absent: list[str] = []

    def emit(self, name, value, unit, note=""):
        self.lines.append(f"{name} = {value!r} {unit}{note}")

    def execute(self) -> None:
        w = self.workload
        self.lines.append(f"run_record {json.dumps(run_record(self.seed))}")
        self.lines.append(f"workload {w.name}: {w.why}")
        *setup, state, reps = time_setup(w, self.seed)
        if self.trace:
            from tracing import Tracer
            self.setup_tracer = Tracer()
            with self.setup_tracer.installed():
                for _ in range(TRACED_SETUPS):
                    w.setup(self.seed)
            self.tracer = Tracer()
        untraced, traced, first_text = self.measure(state)

        rerun = w.batch(state, self.seed * SEED_STRIDE)
        rerun_text = w.report_text(rerun)
        self.checks.expect(rerun_text == first_text,
                           f"{w.name}: re-running batch 0 changed its report")
        w.finish(state, self.seed, self.checks)

        if self.trace:
            self.layer_metrics(untraced, traced)
        else:
            self.end_to_end(setup, reps, untraced)
        secret = w.secret(state)
        if secret is not None:
            text = "\n".join([first_text, rerun_text] + self.lines)
            self.checks.expect(secret.lower() not in text.lower(),
                               f"{w.name}: output contains the MAC key")
        failed = len(self.checks.failures)
        self.emit("failed_check_ratio", failed / max(1, self.checks.run),
                  "failed/checks", f" ({failed} of {self.checks.run})")

    def measure(self, state):
        """Closed loop of batches with consecutive seeds."""
        w = self.workload
        untraced, traced, batches = [], [], []
        self.units = dict.fromkeys(w.unit_kinds, 0)
        self.cache_hits = self.cache_lookups = 0
        first_text = None
        i = 0
        kernels = [calibrate()]
        start = clock()
        while True:
            batch_seed = self.seed * SEED_STRIDE + i
            if self.trace and i % 2:
                before = tag_cache_counts()
                with self.tracer.installed():
                    batch = w.batch(state, batch_seed)
                after = tag_cache_counts()
                if before is not None:
                    self.cache_hits += after[0] - before[0]
                    self.cache_lookups += sum(after) - sum(before)
                for kind, n in w.units(batch).items():
                    self.units[kind] += n
                traced.append(batch)
            else:
                batch = w.batch(state, batch_seed)
                untraced.append(batch)
            kernels.append(calibrate())
            batches.append(batch)
            if i == 0:
                first_text = w.report_text(batch)
            w.check_batch(state, batch, self.checks)
            i += 1
            if clock() - start >= self.seconds and (traced or not self.trace):
                break
        for batch, scale in zip(batches, speed_scales(kernels)):
            batch.scale = scale
        return untraced, traced, first_text

    def end_to_end(self, setup, reps, batches) -> None:
        """Fill the end-to-end metrics from scaled times, and print the
        same metrics from wall-clock times on a `wall_clock` line."""
        values = {}
        for scaled in (True, False):
            times = [b.seconds * (b.scale if scaled else 1.0)
                     for b in batches]
            # Rate of the first campaign of a batch over its median time.
            first = statistics.median(
                b.phases[0].seconds * (b.scale if scaled else 1.0)
                for b in batches)
            values[scaled] = {
                "setup_s": setup[0 if scaled else 1],
                "trials_per_s": batches[0].phases[0].units / first,
                "batch_ms_p50": statistics.median(times) * 1e3,
                "batch_ms_p90": percentile_90(times) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            }
        scaled, raw = values[True], values[False]
        n = len(batches)
        beyond = sum(b.seconds * b.scale * 1e3 > scaled["batch_ms_p90"]
                     for b in batches)
        notes = {
            "setup_s": f" (median of {SETUP_SAMPLES} samples of {reps} "
                       f"set-ups)",
            "batch_ms_p50": f" ({n} batches, speed scale "
                            f"{statistics.median(b.scale for b in batches):.3f})",
            "batch_ms_p90": f" ({n} batches, {beyond} beyond p90)",
        }
        for phases in zip(*(b.phases for b in batches)):
            seconds = statistics.median(p.seconds * b.scale
                                        for p, b in zip(phases, batches))
            self.emit(phases[0].metric, phases[0].units / seconds,
                      phases[0].unit)
        for name, unit, _, _ in END_TO_END:
            self.metrics[name] = {"value": scaled[name], "unit": unit}
            self.emit(name, scaled[name], unit, notes.get(name, ""))
        self.lines.append(f"wall_clock {json.dumps(raw)}")

    def layer_metrics(self, untraced, traced) -> None:
        tracer, setup_tracer = self.tracer, self.setup_tracer
        for span, s in sorted(tracer.spans.items()):
            if s.calls:
                self.lines.append(
                    f"span {span} calls={s.calls} total_s={s.total!r} "
                    f"self_s={s.self_time!r}")
        for name, unit, _, span, quantity, per in LAYER_METRICS:
            source = setup_tracer if span in SETUP_SPANS else tracer
            stats = source.stats(span)
            if stats is None:
                self.set_absent(name, f"span {span} is not traced")
                continue
            amount = {"total": stats.total, "self": stats.self_time,
                      "calls": stats.calls}[quantity]
            if quantity != "calls":
                amount *= 1e3 if unit == "ms" else 1e6
            denominator = {"call": stats.calls,
                           "setup": TRACED_SETUPS}.get(per,
                                                       self.units.get(per))
            self.set_layer(name, amount / denominator if denominator else 0.0,
                           unit)
        if tag_cache_counts() is None:
            self.set_absent("telegram.tag_cache.hit_ratio",
                            "telegram._cached_tag has no cache_info")
        else:
            self.set_layer("telegram.tag_cache.hit_ratio",
                           self.cache_hits / self.cache_lookups
                           if self.cache_lookups else 0.0, "ratio")
        self.set_layer("trace.overhead_ratio",
                       statistics.median(b.seconds * b.scale for b in traced)
                       / statistics.median(b.seconds * b.scale
                                           for b in untraced),
                       "ratio")

    def set_layer(self, name, value, unit) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.emit(name, value, unit)

    def set_absent(self, name, why) -> None:
        # Left out of the JSON: no value could be measured, and a
        # placeholder would read as a measurement.
        print(f"warning: {name} absent: {why}", file=sys.stderr)
        self.absent.append(name)
        self.lines.append(f"{name} absent ({why})")

    def result(self) -> dict:
        return {"correct": not self.checks.failures and self.checks.run > 0,
                "attempted": self.checks.run,
                "failed": len(self.checks.failures),
                "metrics": self.metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        parser.error("--seed must be in [0, 2^32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_library()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The channel workloads pass their MAC key in the configuration; the
    # library would let this variable override it.
    os.environ.pop("VITALCODE_MAC_KEY", None)
    from workloads import make_workloads
    workloads = make_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    run = Run(workloads[args.workload], args.seed, args.seconds,
              bool(args.trace))
    try:
        run.execute()
    except Exception as exc:  # an operation failed: report it, no result
        import traceback
        traceback.print_exc()
        print(f"error: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    for line in run.lines:
        print(line)
    for message in run.checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0 if run.result()["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
