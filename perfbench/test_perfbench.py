"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that one command prints every metric ``BENCHMARK.json``
names, with its unit, and that each workload's correctness gate fails
when the benchmark's own copy of an answer is corrupted (the program is
never touched).
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro import plan as make_plan  # noqa: E402

from gates import Ops  # noqa: E402
from tracer import NULL_TRACER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The benchmark's workloads and the parked ones, which run when named.
WORKLOAD_NAMES = list(WORKLOADS)

#: A user query that the plan makes an interior node (one query feeding
#: another, e.g. ``CD(C)``) never reaches the HFTA, so its tenants get
#: no answers for those epochs; the service workload's gate reports it.
#: That workload is parked outside ``BENCHMARK.json`` until the program
#: is fixed.
INTERIOR_QUERY_DEFECT = pytest.mark.xfail(
    strict=True, reason="answers of queries that feed other queries are "
    "lost: the engine ships only leaf evictions to the HFTA")


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module", params=[
    (name, trace) for name in WORKLOAD_NAMES for trace in (0, 1)],
    ids=lambda p: f"{p[0]}-trace{p[1]}")
def cli_result(request):
    name, trace = request.param
    proc = run_cli(name, trace)
    assert proc.returncode == 0, proc.stderr
    return name, trace, json.loads(proc.stdout.splitlines()[-1])


def test_every_named_metric_is_printed_with_its_unit(cli_result):
    name, trace, result = cli_result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=INTERIOR_QUERY_DEFECT)
    if name == "service_churn" else name for name in WORKLOAD_NAMES])
def test_workload_passes_its_gate(name):
    proc = run_cli(name, 0)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = run_cli("batch_trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the gates catch a corrupted copy of an answer ---------------------
def one_pass(name: str, tmp_path: Path):
    workload = WORKLOADS[name](3, "tiny", tmp_path)
    workload.setup()
    workload.prepare_gate()
    workload.run_pass(NULL_TRACER)
    assert workload.ops.failed == 0 or name == "service_churn"
    workload.ops = Ops()
    return workload


def bump(answer: dict) -> dict:
    """A copy with one value changed in its last bit."""
    corrupted = dict(answer)
    group = next(iter(corrupted))
    corrupted[group] = float(corrupted[group]) * (1 + 2 ** -52)
    return corrupted


def test_batch_gate_catches_a_corrupted_answer(tmp_path):
    workload = one_pass("batch_trace", tmp_path)
    answers = {gb: dict(per_epoch)
               for gb, per_epoch in workload.answers.items()}
    gb = next(iter(answers))
    epoch = next(iter(answers[gb]))
    answers[gb][epoch] = bump(answers[gb][epoch])
    workload.check_answers(answers)
    assert workload.ops.failed == 1


def test_live_gate_catches_a_corrupted_answer(tmp_path):
    workload = one_pass("live_uniform", tmp_path)
    epoch, answers = workload.rendered[-1]
    for i in range(len(answers)):
        corrupted = list(answers)
        corrupted[i] = bump(answers[i])
        workload.check_epoch(epoch, corrupted)
    # The count query is checked twice: against simulate and a group-by.
    assert workload.ops.failed == len(answers) + 1


def test_plan_gate_catches_a_corrupted_plan(tmp_path):
    workload = one_pass("plan_abcd", tmp_path)
    factor = workload.sequence[0]
    snapshot = workload.snapshots[factor]
    plan = make_plan(workload.queries, snapshot, workload.MEMORY)
    workload.check_plan(factor, snapshot, dataclasses.replace(
        plan, predicted_cost=plan.predicted_cost * (1 + 2 ** -52)))
    # Both the re-evaluation and the repeat-identity checks trip.
    assert workload.ops.failed == 2


def test_service_gate_catches_a_corrupted_answer(tmp_path):
    workload = one_pass("service_churn", tmp_path)
    service = workload.service
    for lease in service.leases():
        got = service.answers(lease["tenant"]).get(lease["group_by"], {})
        before = workload.ops.failed
        workload.check_lease(lease, got)
        if got and workload.ops.failed == before:
            break
    else:
        pytest.fail("no tenant's answers pass the gate")
    epoch = next(iter(got))
    workload.check_lease(lease, {**got, epoch: bump(got[epoch])})
    assert workload.ops.failed == before + 1


def test_traced_spans_nest_and_partition_their_parent():
    tracer = Tracer("test")
    with tracer.span("pass"):
        with tracer.span("core.plan_gcsl"):
            pass
        with tracer.span("engine.run"):
            pass
    own = tracer.self_times()
    total = sum(own.values())
    assert tracer.spans[1].parent == tracer.spans[2].parent == 0
    assert total == pytest.approx(tracer.top_level_seconds())
