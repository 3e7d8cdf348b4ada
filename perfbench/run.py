"""Run one end-to-end benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload batch_trace --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the same checkout and given only
the inputs generated from ``--seed``. With ``--trace 0`` the last line of
standard output is a JSON object carrying every end-to-end metric named
in ``BENCHMARK.json``; with ``--trace 1`` the run is split into an
untraced and a traced half and the last line carries every per-layer
metric instead (a layer a workload does not exercise reads 0, and the
report says why). The lines before it are a JSON report: provenance,
the workload's reason, sample counts, the correctness gate's outcome and,
when traced, self time per layer. Spans and the report are also written
under ``.bench_build/perfbench/``, which holds every file a run writes
(the native kernels' build cache and checkpoints included).

``--size tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
#: Set-up is repeated and its median reported, so one slow repetition
#: does not move ``setup_s``.
SETUP_REPEATS = 3
#: The program's import, timed again in a fresh interpreter: the same
#: modules this file imports before ``repro``, then ``repro``.
IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import argparse, json, os, platform, resource, "
                "subprocess, sys, tempfile; sys.path.insert(0, sys.argv[1]); "
                "import repro; print(time.perf_counter() - start)")

clock = time.perf_counter


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad spec)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    return json.loads(path.read_text())


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else.

    The native kernels compile into the system temp directory, so it is
    pointed inside the checkout first.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {src}/repro "
                             "is missing")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(src))
    import repro
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise BenchmarkError(f"repro was imported from {repro.__file__}, "
                             f"not from {src}")


def import_seconds(first: float) -> list[float]:
    """This process's import time, then that of fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(child.stdout))
    return times


def provenance(machine: dict) -> dict:
    git = {"sha": None, "dirty": None,
           "reason": "the checkout is not a git repository"}
    if (ROOT / ".git").exists():
        def run(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        git = {"sha": run("rev-parse", "HEAD") or None,
               "dirty": bool(run("status", "--porcelain",
                                 "--untracked-files=no")),
               "reason": None}
    import numpy
    return {"git": git,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "REPRO_NO_CKERNEL": os.environ.get("REPRO_NO_CKERNEL"),
            "machine": machine}


def run_phase(workload, tracer, seconds: float):
    """Repeat closed-loop passes until ``seconds`` have gone by."""
    from workloads import Phase
    phase = workload.phase = Phase()
    start = clock()
    while phase.passes == 0 or clock() - start < seconds:
        workload.run_pass(tracer)
        phase.passes += 1
    return phase


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv)
    import_program()
    first_import_s = clock() - STARTED

    from repro.native import machine_info
    start = clock()
    machine = machine_info()
    load_s = clock() - start

    from tracer import NULL_TRACER, Tracer
    from workloads import WORKLOADS, median

    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"no workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
    BUILD.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, BUILD)
    data_setup = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        data_setup.append(clock() - start)
    imports = import_seconds(first_import_s)
    import_s = median(imports)
    setup_s = import_s + load_s + median(data_setup)
    workload.prepare_gate()

    tracer = NULL_TRACER
    if args.trace:
        untraced = run_phase(workload, NULL_TRACER, args.seconds / 2)
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        phase = run_phase(workload, tracer, args.seconds / 2)
        # Taken before ``finish``, whose probes add spans of their own.
        # The top-level spans' self times, per unit of work, should match
        # the untraced busy time to within the tracing overhead.
        untraced_per_unit = untraced.busy / untraced.work
        spans_per_unit = tracer.top_level_seconds() / phase.work
        traced_per_unit = phase.busy / phase.work
        accounting = {
            "untraced_busy_per_unit_s": untraced_per_unit,
            "traced_busy_per_unit_s": traced_per_unit,
            # From best rates, as throughput is: the two halves of the
            # run may fall on different host speeds.
            "trace_overhead_share":
                untraced.best_rate() / phase.best_rate() - 1,
            "top_level_spans_per_unit_s": spans_per_unit,
            "spans_vs_traced_share": spans_per_unit / traced_per_unit - 1,
            "spans_vs_untraced_share": spans_per_unit / untraced_per_unit - 1,
            "self_time_by_layer_s": tracer.self_time_by_layer()}
    else:
        phase = run_phase(workload, NULL_TRACER, args.seconds)
    workload.finish(tracer)

    ops = workload.ops
    # Best repeats, not medians: see ``Phase``. A repeat that ran at the
    # host's slow level says nothing about the program, and a median
    # over a fast/slow mix jumps with the mix.
    latency_ms = [1e3 * s for s in phase.best_latencies()]
    measured = {
        "setup_s": setup_s,
        "throughput_per_s": phase.best_rate(),
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_p90_ms": percentile(latency_ms, 90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "workload": args.workload, "why": workload.why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "provenance": provenance(machine),
        "work_unit": workload.work_unit, "latency_op": workload.latency_op,
        "passes": phase.passes, "pass_rates": phase.pass_rates,
        "latency_ops": len(latency_ms),
        "latency_samples": sum(map(len, phase.latency.values())),
        "setup": {"import_s": imports, "native_load_s": load_s,
                  "data_setup_s": data_setup},
        "operations": {"attempted": ops.attempted, "failed": ops.failed,
                       "failed_op_share": ops.failed / max(ops.attempted, 1),
                       "failures": ops.failures},
        "issue_metrics": workload.issue_metrics(measured),
    }
    if args.trace:
        values = workload.per_layer(tracer)
        values.update({
            "setup.import_s": import_s,
            "native.load_s": load_s,
            "workloads.generate_s":
                median(workload.setup_parts["workloads.generate"]),
            "observability.trace_overhead_share":
                accounting["trace_overhead_share"],
        })
        names = [m["name"] for m in spec["per_layer"]]
        report["absent"] = {}
        for name in names:
            if name not in values:
                report["absent"][name] = workload.absent_reason(name)
                values[name] = 0.0
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["accounting"] = accounting
        tracer.write(BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = measured
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) != set(names):
        raise BenchmarkError(f"measured {sorted(values)} but BENCHMARK.json "
                             f"names {sorted(names)}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}
    report["metrics"] = metrics
    text = json.dumps(report, indent=1, default=str)
    (BUILD / f"report-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(text)
    print(text)
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
