"""Self-test of the campaign benchmark, outside the tier-1 suite.

    PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider bench

Every workload runs at tiny size, traced and untraced; every metric must
appear with its unit and every correctness check must pass.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types

import pytest

import run

assert run.load_library() is None

import tracing  # noqa: E402
import vitalcode  # noqa: E402
import workloads  # noqa: E402
from vitalcode import coded_runtime, dsl, sigtool  # noqa: E402
from vitalcode.coded_core import make_key  # noqa: E402


def tiny_workloads():
    ws = workloads.make_workloads()
    small, large = ws["small-trials"], ws["inject-large"]
    small.trials, small.redundancy_trials = 12, 40
    large.trials, large.fault_free_trials = 3, 3
    ws["channel-keyless"].trials = 2
    hmac = ws["channel-hmac"]
    hmac.trials, hmac.brute_force_attempts = 1, 5
    return ws


def module_attributes():
    """Identity of every attribute of every loaded vitalcode module."""
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name.startswith("vitalcode")
            and isinstance(module, types.ModuleType)
            for attr, value in vars(module).items()}


def execute(name, trace):
    r = run.Run(tiny_workloads()[name], seed=3, seconds=0.01, trace=trace)
    r.execute()
    return r


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.make_workloads()))
def test_workload_reports_every_metric_and_passes_checks(name, trace):
    r = execute(name, trace)
    assert r.checks.failures == []
    assert r.checks.run > 0
    assert r.result()["correct"]
    if trace:
        expected = {m[0]: m[1] for m in run.LAYER_METRICS
                    + run.EXTRA_LAYER_METRICS}
    else:
        expected = {m[0]: m[1] for m in run.END_TO_END}
    assert {k: v["unit"] for k, v in r.metrics.items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} = ") and unit in line
                   for line in r.lines), metric
    if not trace:
        assert all(v["value"] > 0 for v in r.metrics.values())
        wall = json.loads(next(line for line in r.lines
                               if line.startswith("wall_clock "))[11:])
        assert set(wall) == set(expected)
    assert r.absent == []


def test_tracer_restores_module_attributes():
    before = module_attributes()
    execute("small-trials", trace=True)
    execute("channel-hmac", trace=True)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert coded_runtime.run_cycle.__wrapped__ is not None
            raise RuntimeError("body failed")
    assert module_attributes() == before


def test_missing_attribute_is_absent_not_fatal(monkeypatch, capsys):
    monkeypatch.delattr(vitalcode.mac, "hmac_tag")
    monkeypatch.delattr(vitalcode.telegram, "hmac_tag")
    r = execute("small-trials", trace=True)
    assert r.checks.failures == []
    assert "mac.hmac_tag.us" in r.absent
    assert "mac.hmac_tag.us" not in r.result()["metrics"]
    assert "mac.hmac_tag.us absent (span mac.hmac_tag is not traced)" \
        in r.lines
    assert "vitalcode.mac.hmac_tag no longer exists" in capsys.readouterr().err


def test_tracer_self_time_excludes_children():
    r = execute("inject-large", trace=True)
    stats = r.tracer.stats("coded_runtime.run_cycle")
    assert 0 < stats.self_time < stats.total


def test_rate_check_bounds():
    assert workloads.rate_consistent(0, 0, 0.5)
    assert workloads.rate_consistent(400, 100_000, 1 / 251)
    assert not workloads.rate_consistent(0, 100_000, 1 / 251)
    assert not workloads.rate_consistent(1000, 100_000, 1 / 251)


@pytest.mark.parametrize("seed", range(5))
def test_large_program_never_overflows_fault_free(seed):
    ir = dsl.parse_program(workloads.large_program_source(seed))
    assert len(ir.instructions) == 64
    assert len(ir.variables()) == 69
    table, program = sigtool.build(ir, make_key(workloads.LARGE_KEY), seed)
    rng = random.Random(seed)
    for _ in range(20):
        inputs = {n: rng.choice((-100, 100)) for n in ir.inputs}
        result = coded_runtime.run_cycle(program, table, inputs, 5,
                                         table.key)
        assert result.verdict == coded_runtime.ACCEPT


def test_benchmark_json_matches_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec == run.benchmark_spec(workloads.make_workloads())


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-trials",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
