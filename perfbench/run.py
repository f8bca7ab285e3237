"""Benchmark runner for the ``artifact`` workbench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload correspond-2x --seed 0 --seconds 20 --trace 0

A run sets up as a CLI call does, then repeats passes of the workload on
the inputs its seed makes until its passes have taken ``--seconds`` and at
least three are done, checking every pass's report against
``perfbench/reference.json``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted`` (passes), ``failed`` (passes whose report deviated from
the pinned reference, or raised) and ``metrics``. The lines before it
record the host and the passes.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``units_per_s``: work units per second of the median pass;
- ``setup_s``: process start until ready to sweep, median over several
  fresh interpreters started between passes (import, checker
  compilation, proof registry, instance tables);
- ``peak_rss_mb``: peak resident memory of the run's own process.

Both times are rescaled to a reference host speed by a gauge timed right
before and right after each pass or probe (see ``rescale``): a
calibration loop for passes, a bare interpreter start for set-up probes.
The raw times are printed on the ``passes:`` line next to the rescaled
ones.

With ``--trace 1`` the run installs ``perfbench/layertrace.py`` and
reports per-layer self times and counts per pass, plus
``trace.overhead_s``: the traced pass time minus that of an untraced run
of the same workload and seed, made afterwards in a child process, both
at reference speed. Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 12
REFERENCE_CALIBRATION_S = 0.02
REFERENCE_START_S = 0.08
MIN_PASSES = 3  # a median of fewer is a mean or a single sample

def import_artifact(tracer) -> None:
    """Import the package from this checkout's ``src``, never elsewhere."""
    if not (SRC / "artifact" / "__init__.py").is_file():
        sys.exit(f"error: no artifact package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if tracer is not None:
        tracer.install()
    import artifact

    if Path(artifact.__file__).resolve().parent != SRC / "artifact":
        sys.exit(f"error: imported artifact from {artifact.__file__}, not {SRC}")


def setup_probe() -> None:
    """Child side of a ``setup_s`` sample: set up, say so, exit."""
    import_artifact(None)
    import workloads

    workloads.setup()
    print("ready", flush=True)


def calibration_s() -> float:
    """Seconds a fixed loop of tuple lookups and bit tests (the checkers'
    staple operations) takes now. It does not touch the program, so it
    gauges only the host's current speed."""
    rows = tuple(tuple((i * 7 + j) & 15 for j in range(15)) for i in range(8))
    start = time.perf_counter()
    acc = 0
    for _ in range(750):
        for row in rows:
            for e in range(1, 16):
                if row[e - 1] & ~e == 0:
                    acc += 1
                acc ^= (e << 1) & 0xFF
    return time.perf_counter() - start


def interpreter_start_s() -> float:
    """Seconds a bare interpreter takes now to start and exit. It does not
    load the program, so it gauges only the host's current speed at the
    work set-up is made of: starting a process, reading and importing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - start


def rescale(elapsed: float, before: float, after: float, reference: float) -> float:
    """``elapsed`` seconds at the speed of a host on which the gauge that
    took ``before`` seconds right before the timing and ``after`` right
    after it takes ``reference``.

    On the 2-vCPU Xeon virtual machine the benchmark was written on, the
    host switches every few seconds between speeds up to 2x apart. A
    timing divided by a gauge of the same kind of work is nearly the same
    in every state, while a change to the program, which the gauge does
    not run, moves it in full. The calibration loop follows pass times
    (correlation about 0.9) but not set-up times, which follow a bare
    interpreter start instead.
    """
    return elapsed * 2 * reference / (before + after)


def measure_setup() -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is set up, raw
    and at reference speed."""
    before = interpreter_start_s()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        sys.exit("error: set-up probe failed")
    return elapsed, rescale(elapsed, before, interpreter_start_s(), REFERENCE_START_S)


def host_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": os.getloadavg(), "seed": seed}


def untraced_pass_s(args) -> float:
    """Pass time of an untraced run with the same arguments, as reported."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: untraced comparison run failed:\n{done.stderr}")
    record = json.loads(next(line[len("passes: "):] for line in lines
                             if line.startswith("passes: ")))
    return statistics.median(record["pass_ref_s"])


def layer_metrics(tracer, setup: dict, derived: dict, passes: int,
                  overhead_s: float) -> dict[str, float]:
    s, calls, items = tracer.self_s, tracer.calls, tracer.items
    values = {
        "frame.gen_s": s["frame.gen"], "frame.frames": items["frame"],
        "frame.property_s": s["frame.property"],
        "frame.property_calls": calls["frame.property"],
        "schema.validity_s": s["schema.validity"],
        "schema.validity_calls": calls["schema.validity"],
        "model.event_check_s": s["model.event_check"],
        "model.event_checks": calls["model.event_check"],
        "model.formula_check_s": s["model.formula_check"],
        "worlds.gen_s": s["worlds.gen"], "worlds.families": items["family"],
        "worlds.lemma_s": s["worlds.lemma"], "worlds.lemma_calls": calls["worlds.lemma"],
        "proofkit.check_s": s["proofkit.script"] + s["proofkit.line"],
        "proofkit.scripts_checked": calls["proofkit.script"],
        "proofkit.lines_checked": calls["proofkit.line"],
        "formula.tautology_s": s["formula.tautology"],
        "formula.tautology_calls": calls["formula.tautology"],
        "cli.self_s": s["cli.self"],
    }
    values = {name: value / passes for name, value in values.items()}
    values.update(derived)
    values.update({"schema.compile_s": setup["schema.compile_s"],
                   "model.instances_s": setup["model.instances_s"],
                   "trace.overhead_s": overhead_s})
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe()
        return 0

    from layertrace import NullTracer, Tracer

    tracer = Tracer() if args.trace else None
    import_artifact(tracer)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print("host:", json.dumps(host_record(args.seed)))
    setup = workloads.setup()
    probes = 0 if args.trace else SETUP_PROBES
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, reference, tracer or NullTracer())

    pass_s: list[float] = []
    pass_ref_s: list[float] = []
    setups: list[tuple[float, float]] = []  # (raw, at reference speed)
    failures: list[str] = []
    report = None
    while len(pass_s) < MIN_PASSES or sum(pass_s) < args.seconds:
        before = calibration_s()
        start = time.perf_counter()
        try:
            report = workload.run()
            errors = []
        except Exception as exc:  # a pass that raises counts as failed
            errors, report = [f"raised {type(exc).__name__}: {exc}"], None
        pass_s.append(time.perf_counter() - start)
        pass_ref_s.append(rescale(pass_s[-1], before, calibration_s(),
                                  REFERENCE_CALIBRATION_S))
        if report is not None:
            errors = workload.check(report)
        if errors:
            failures.append(f"pass {len(pass_s)}: " + "; ".join(errors))
        if len(setups) < probes:  # spread over the run, outside the passes' time
            setups.append(measure_setup())
    while len(setups) < probes:
        setups.append(measure_setup())
    setup_s, setup_ref_s = [raw for raw, _ in setups], [ref for _, ref in setups]

    print("passes:", json.dumps({
        "workload": args.workload, "unit": workload.unit, "units_per_pass": workload.units(),
        "pinned_seed": workload.pinned, "trace": args.trace, "setup_steps_s": setup,
        "pass_s": pass_s, "pass_ref_s": pass_ref_s,
        "setup_s": setup_s, "setup_ref_s": setup_ref_s}))
    if report is not None:
        for note in workload.notes(report):
            print(note)
    for failure in failures:
        print("FAILED", failure)

    pass_time = statistics.median(pass_ref_s)
    if tracer is None:
        declared = spec["end_to_end"]
        values = {"units_per_s": workload.units() / pass_time,
                  "setup_s": statistics.median(setup_ref_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        declared = spec["per_layer"]
        tracer.dump(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "passes": len(pass_s)})
        overhead = pass_time - untraced_pass_s(args)
        derived = workload.derived(report) if report is not None else {}
        values = layer_metrics(tracer, setup, derived, len(pass_s), overhead)
    # a layer this workload does not use reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    result = {"correct": not failures, "attempted": len(pass_s), "failed": len(failures),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
