"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--trace] [--out perfbench/BENCH_0.json]

For every workload it runs ``BENCHMARK.json``'s command once per seed,
seeds 0 to ``RUNS`` - 1, and prints per end-to-end metric the
median and the distance between the first and third quartiles as a share
of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound. ``--out`` writes every run's record and these summaries
to a JSON file. Compare such files only when they come from one host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: {workload} seed {seed} printed nothing:\n{done.stderr}")
    record = {"workload": workload, "seed": seed, "exit": done.returncode,
              "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key in ("host", "passes"):
            record[key] = json.loads(rest)
    return record


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="traced runs instead")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    records, summaries = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, args.trace) for seed in range(RUNS)]
        records += runs
        failed = [r["seed"] for r in runs if not r["result"]["correct"]]
        print(f"{workload}: {len(runs)} runs, incorrect seeds {failed or 'none'}")
        summaries[workload] = {}
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            if len(values) < 2 or statistics.median(values) == 0:
                continue
            summary = summarize(values)
            summaries[workload][metric["name"]] = summary
            bound = metric.get("bound")
            flag = "" if bound is None or summary["spread"] < bound / 3 else "  <-- wide"
            print(f"  {metric['name']:28} median {summary['median']:.6g} {metric['unit']:6}"
                  f" spread {summary['spread']:.4f}"
                  + ("" if bound is None else f" (bound {bound})") + flag)
    if args.out:
        args.out.write_text(json.dumps({"summaries": summaries, "runs": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
