"""Run the benchmark over several seeds and summarise its spread.

    python3 bench/baseline.py            # print the table
    python3 bench/baseline.py --record   # also write the files

Runs `bench/run.py` once per workload and seed 1-10, one run at a time.
For each end-to-end metric it prints the median over the runs and the
spread, the distance between the first and third quartile as a share of
the median, of the scaled values and of the wall-clock ones.  The scaled
spreads should stay below a third of each metric's bound; the exit code
is 1 if one does not.  With `--record` it also makes one traced run per
workload, writes the run record, the scaled and wall-clock values,
medians, quartiles and per-layer values to bench/BASELINE.json, and
rewrites BENCHMARK.json from the metric tables in run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BASELINE = run.BENCH / "BASELINE.json"
SPEC = run.ROOT / "BENCHMARK.json"
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (result JSON, its printed lines)."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def printed(lines: list[str], key: str):
    """The JSON printed after `key` on one of a run's lines."""
    return next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith(key + " "))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write bench/BASELINE.json and BENCHMARK.json")
    args = parser.parse_args(argv)
    error = run.load_library()
    if error is not None:
        raise SystemExit(error)
    from workloads import make_workloads
    workloads = make_workloads()
    seconds = run.RUN_SECONDS

    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in workloads:
        results, wall = [], []
        for seed in SEEDS:
            result, lines = run_once(name, seed, seconds, 0)
            results.append(result)
            wall.append(printed(lines, "wall_clock"))
            doc.setdefault("run_record", printed(lines, "run_record"))
        entry = {}
        for metric, unit, _, bound in run.END_TO_END:
            stats = summarise([r["metrics"][metric]["value"]
                               for r in results])
            raw = summarise([w[metric] for w in wall])
            entry[metric] = dict(stats, unit=unit, bound=bound,
                                 wall_clock=raw)
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"{name:16} {metric:14} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} (wall clock "
                  f"{raw['spread']:.4f}) bound {bound} "
                  f"{'ok' if ok else 'NOT STEADY'}", flush=True)
        doc["workloads"][name] = {"end_to_end": entry}
        if args.record:
            traced, _ = run_once(name, SEEDS[0], seconds, 1)
            doc["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}

    if args.record:
        BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
        SPEC.write_text(json.dumps(run.benchmark_spec(workloads), indent=2)
                        + "\n")
        print(f"wrote {BASELINE} and {SPEC}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
