"""The benchmark's workloads: two in ``BENCHMARK.json``, two parked.

Each workload is driven by one single-threaded process in a closed loop:
the next batch, plan or call goes in only when the last one returned.
A run repeats *passes* (one pass = the workload's whole script over its
generated inputs) until the time is up. Every pass is timed segment by
segment, so only calls into the program count as busy time; the
correctness gates (``gates.py``) run between the timed segments.

Why these four: the offline pipeline is dominated by statistics, the
live runtime by ingest, HFTA fold, answers and checkpoints, planning at
the paper's ``{A,B,C,D}`` size by the planners alone, and the
multi-tenant service by sketches and many small re-plans. A change to
one layer therefore shows on one workload and is predicted not to move
the others.

A parked workload runs when named on the command line, but
``BENCHMARK.json`` leaves it out. ``service_churn`` is parked because
the program fails its gate: a query the plan makes feed another query
(``CD`` feeding ``C``) never reaches the HFTA, so its tenants get no
answers for those epochs. ``plan_abcd`` is parked because it is not
steady on a shared 2-vCPU host: its pure-Python planners slow down ~1.7x
for whole runs at a time, which no estimator within a run can remove.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.core.choosing.exhaustive as exhaustive_choice
from repro import MetricsRegistry, QuerySet, StreamService, StreamSystem
from repro import plan as make_plan
from repro.core.allocation.exhaustive import ExhaustiveAllocator
from repro.core.attributes import AttributeSet
from repro.core.collision.lookup import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import Aggregate, AggregationQuery
from repro.core.sketches import StreamStatisticsCollector
from repro.core.statistics import RelationStatistics
from repro.errors import AdmissionError
from repro.gigascope.engine import simulate
from repro.gigascope.online import LiveStreamSystem
from repro.gigascope.records import StreamSchema
from repro.workloads import (
    PAPER_CHAIN,
    NetflowTraceGenerator,
    make_group_universe,
    mean_flow_length,
    measure_statistics,
    paper_like_trace,
    uniform_dataset,
)

from gates import Ops, groupby_counts, same_answer, same_counters

__all__ = ["WORKLOADS", "Phase"]

clock = time.perf_counter


class Phase:
    """What one phase of a run (untraced or traced) measured.

    Every pass replays the same script, so each user-facing operation
    recurs once a pass under the same key (an epoch id, a snapshot, a
    tenant), and so does each timed segment of the script (a push, a
    plan call). The host's speed switches between a fast and a ~1.7x
    slower level every few seconds; the *best* time of an operation or
    a segment over its repeats is its cost without that interference.
    ``best_latencies`` and ``best_rate`` are built from those.
    """

    def __init__(self) -> None:
        self.passes = 0
        self.work = 0.0       # records, or plan calls on plan_abcd
        self.busy = 0.0       # seconds inside timed segments
        #: seconds per user-facing operation, by operation key
        self.latency: dict[object, list[float]] = defaultdict(list)
        #: seconds per timed segment, by segment key (unique in a pass)
        self.segments: dict[object, list[float]] = defaultdict(list)
        self.pass_rates: list[float] = []  # work / busy, per pass
        self._pass_start = 0.0

    def timed(self, key, seconds: float) -> None:
        self.busy += seconds
        self.segments[key].append(seconds)

    def sample(self, key, seconds: float) -> None:
        self.latency[key].append(seconds)

    def best_latencies(self) -> list[float]:
        return [min(times) for times in self.latency.values()]

    def best_rate(self) -> float:
        """Work per second of a pass whose segments all ran at their
        best; every pass runs the same segments and the same work."""
        best = sum(min(times) for times in self.segments.values())
        return self.work / self.passes / best

    def begin_pass(self) -> None:
        self._pass_start = self.busy

    def end_pass(self, work: float) -> None:
        self.work += work
        self.pass_rates.append(work / (self.busy - self._pass_start))


def short_flow_trace(n_records: int, seed: int):
    """A clustered trace whose ~100-packet flows cover all 2,837 groups.

    ``paper_like_trace`` draws ~300-packet flows; below ~850k records
    that is fewer flows than groups, and the groups a trace realizes then
    depend on the seed. Shorter flows keep every seed's statistics at the
    paper's 552/1846/2117/2837 chain.
    """
    universe = make_group_universe(StreamSchema(("A", "B", "C", "D")),
                                   PAPER_CHAIN, seed=seed)
    return NetflowTraceGenerator(universe, mean_flow_length=100.0).generate(
        n_records, seed=seed + 1)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class Workload:
    """One workload: inputs from a seed, a pass script, its gates."""

    name = ""
    why = ""
    #: What ``throughput_per_s`` counts and what one latency sample is.
    work_unit = "records"
    latency_op = ""
    SIZES: dict[str, dict] = {}
    #: Workload-specific names of the generic end-to-end metrics.
    ALIASES: dict[str, str] = {}
    #: Reasons, by metric-name prefix, for per-layer metrics this
    #: workload cannot produce (they are reported as 0).
    ABSENT: dict[str, str] = {}

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.scratch = scratch
        self.ops = Ops()
        self.phase = Phase()
        self.setup_parts: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, float] = {}

    @contextmanager
    def timed_setup(self, part: str):
        start = clock()
        yield
        self.setup_parts[part].append(clock() - start)

    def statistics(self, tracer, data, relations, flow_timeout=None,
                   counters=1) -> RelationStatistics:
        """``measure_statistics``; traced, split into its per-relation
        ``Dataset.group_count`` and ``mean_flow_length`` calls."""
        if not tracer.enabled:
            return measure_statistics(data, relations, flow_timeout,
                                      counters=counters)
        groups, flows = {}, {}
        for rel in relations:
            with tracer.span("workloads.group_count"):
                groups[rel] = float(data.group_count(rel))
            if flow_timeout is not None:
                with tracer.span("workloads.flow_length"):
                    flows[rel] = mean_flow_length(data, rel, flow_timeout)
        return RelationStatistics(groups, flows, counters=counters)

    def split_statistics(self, tracer, data, relations, flow_timeout=None,
                         counters=1) -> None:
        """Traced only: time set-up's statistics call by call, once."""
        self.statistics(tracer, data, relations, flow_timeout, counters)
        self.layer["workloads.group_count_s"] = sum(
            tracer.durations("workloads.group_count"))
        self.layer["workloads.flow_length_s"] = sum(
            tracer.durations("workloads.flow_length"))

    def engine_layer(self, eras, hfta) -> None:
        """One pass's engine and HFTA counts.

        ``eras`` are ``(configuration, CostCounters)`` pairs; evictions
        from leaf relations are the rows shipped to the HFTA.
        """
        counts = [(config.is_leaf(rel), counters.counters(rel))
                  for config, counters in eras for rel in counters.relations]
        intra = sum(c.arrivals_intra for _, c in counts)
        leaves = {rel for config, _ in eras for rel in config.relations
                  if config.is_leaf(rel)}
        self.layer.update({
            "engine.probes": sum(c.arrivals for _, c in counts),
            "engine.evictions": sum(c.evictions for _, c in counts),
            "engine.collision_rate": sum(
                c.evictions_intra for _, c in counts) / intra if intra else 0.0,
            "hfta.evictions_received": sum(
                c.evictions for leaf, c in counts if leaf),
            "hfta.rows_folded": sum(
                hfta.totals_columnar(rel, epoch).n_groups
                for rel in leaves for epoch in hfta.epochs(rel)),
        })

    # -- the interface run.py drives -----------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def prepare_gate(self) -> None:
        """Build oracles (untimed, outside set-up)."""

    def run_pass(self, tracer) -> None:
        raise NotImplementedError

    def finish(self, tracer) -> None:
        """End-of-run operations and checks."""

    def per_layer(self, tracer) -> dict[str, float]:
        return dict(self.layer)

    def issue_metrics(self, measured: dict) -> dict[str, float]:
        """The end-to-end metrics under their workload-specific names."""
        return {alias: measured[name]
                for alias, name in self.ALIASES.items()}

    def absent_reason(self, metric: str) -> str:
        for prefix, reason in self.ABSENT.items():
            if metric.startswith(prefix):
                return reason
        raise KeyError(f"{self.name} measures no {metric} and says "
                       "nothing about why")


# ----------------------------------------------------------------------
class BatchTrace(Workload):
    name = "batch_trace"
    why = ("offline pipeline on the clustered trace: statistics dominate, "
           "so a statistics change shows here and an engine change must not")
    latency_op = "one pass: statistics, plan, run and every answer"
    ALIASES = {"batch_records_per_s": "throughput_per_s"}
    SIZES = {"full": {"records": 1_000_000}, "tiny": {"records": 20_000}}
    EPOCH = 5.0
    MEMORY = 40_000.0
    FLOW_TIMEOUT = 1.0
    ABSENT = {
        "core.plan_gs": "only GCSL plans the offline pipeline",
        "core.epes": "no EPES call in this workload",
        "core.es_": "no EPES call in this workload",
        "engine.close": "StreamSystem.run has no per-epoch close span",
        "hfta.fold": "the offline HFTA folds lazily inside query_answer "
                     "(counted in hfta.answer_ms)",
        "online.": "no LiveStreamSystem in the offline pipeline",
        "checkpoint.": "the offline pipeline writes no checkpoint",
        "sketches.": "exact statistics, no sketches",
        "service.": "no StreamService in this workload",
    }

    def setup(self) -> None:
        with self.timed_setup("workloads.generate"):
            self.data = paper_like_trace(n_records=self.cfg["records"],
                                         seed=self.seed)
        self.queries = QuerySet.counts(["AB", "BC", "BD", "CD"],
                                       epoch_seconds=self.EPOCH)
        self.relations = FeedingGraph(self.queries).nodes

    def prepare_gate(self) -> None:
        data = self.data
        self.expected = {
            q.group_by: groupby_counts([data.columns[a] for a in q.group_by],
                                       data.timestamps, self.EPOCH)
            for q in self.queries}

    def run_pass(self, tracer) -> None:
        registry = MetricsRegistry() if tracer.enabled else None
        start = clock()
        with tracer.span("workloads.stats"):
            stats = self.statistics(tracer, self.data, self.relations,
                                    self.FLOW_TIMEOUT)
        with tracer.span("core.plan_gcsl"):
            plan = make_plan(self.queries, stats, self.MEMORY)
        with tracer.span("engine.run"):
            report = StreamSystem.from_plan(self.data, self.queries,
                                            plan).run(registry)
        with tracer.span("hfta.answer"):
            answers = {q.group_by: report.answers(q) for q in self.queries}
        elapsed = clock() - start
        self.phase.begin_pass()
        self.phase.timed("pass", elapsed)
        self.phase.end_pass(len(self.data))
        self.phase.sample("pass", elapsed)
        self.ops.check(True, "plan")
        self.ops.check(True, "run")
        if registry is not None:
            tracer.adopt(registry.spans)

        self.answers = answers
        self.check_answers(answers)
        if not hasattr(self, "numpy_checked"):
            numpy_run = StreamSystem.from_plan(self.data, self.queries, plan,
                                               native=False).run()
            self.ops.check(same_counters(report.result.counters,
                                         numpy_run.result.counters),
                           "engine counters: native != numpy engine")
            self.numpy_checked = True
        self.engine_layer([(plan.configuration, report.result.counters)],
                          report.result.hfta)
        self.layer["hfta.answer_rows"] = sum(
            len(a) for per_epoch in answers.values()
            for a in per_epoch.values())

    def check_answers(self, answers) -> None:
        for gb, expected in self.expected.items():
            got = answers[gb]
            self.ops.check(got.keys() == expected.keys(),
                           f"{gb.label()}: epochs differ")
            for epoch, want in expected.items():
                self.ops.check(same_answer(want, got.get(epoch, {})),
                               f"{gb.label()} epoch {epoch}: count "
                               "answer != numpy group-by")

    def per_layer(self, tracer) -> dict[str, float]:
        out = dict(self.layer)
        passes = max(self.phase.passes, 1)
        run_s = median(tracer.durations("engine.run"))
        out.update({
            "workloads.stats_s": median(tracer.durations("workloads.stats")),
            "workloads.group_count_s":
                sum(tracer.durations("workloads.group_count")) / passes,
            "workloads.flow_length_s":
                sum(tracer.durations("workloads.flow_length")) / passes,
            "workloads.stats_relations": len(self.relations),
            "core.plan_gcsl_ms":
                1e3 * median(tracer.durations("core.plan_gcsl")),
            "engine.run_s": run_s,
            "engine.records_per_s": len(self.data) / run_s if run_s else 0.0,
            "hfta.answer_ms": 1e3 * median(tracer.durations("hfta.answer")),
        })
        return out


# ----------------------------------------------------------------------
class LiveUniform(Workload):
    name = "live_uniform"
    why = ("live runtime on uniform, eviction-heavy data: ingest, HFTA "
           "fold, answers and checkpoints do all the work")
    latency_op = ("one epoch result: start of the push that closes it to "
                  "every answer in hand, checkpoint included when due")
    ALIASES = {"live_records_per_s": "throughput_per_s",
               "epoch_result_p50_ms": "latency_p50_ms",
               "epoch_result_p90_ms": "latency_p90_ms"}
    SIZES = {"full": {"records": 500_000, "duration": 100.0, "batch": 2000},
             "tiny": {"records": 20_000, "duration": 10.0, "batch": 500}}
    SCHEMA = StreamSchema(("A", "B", "C", "D"), ("len",))
    EPOCH = 1.0
    MEMORY = 40_000.0
    CHECKPOINT_EVERY = 5
    ABSENT = {
        "workloads.flow_length": "uniform data: l = 1, no flow lengths",
        "core.plan_gs": "the live plan is made once, by GCSL",
        "core.epes": "no EPES call in this workload",
        "core.es_": "no EPES call in this workload",
        "sketches.": "exact statistics, no sketches",
        "service.": "no StreamService in this workload",
    }

    def setup(self) -> None:
        with self.timed_setup("workloads.generate"):
            universe = make_group_universe(self.SCHEMA, PAPER_CHAIN,
                                           seed=self.seed)
            self.data = uniform_dataset(
                universe, self.cfg["records"], self.cfg["duration"],
                seed=self.seed + 1, value_column="len")
        epoch = self.EPOCH
        self.queries = QuerySet([
            AggregationQuery(AttributeSet.parse("A"), epoch_seconds=epoch),
            AggregationQuery(AttributeSet.parse("B"), Aggregate("sum", "len"),
                             epoch_seconds=epoch),
            AggregationQuery(AttributeSet.parse("C"), Aggregate("avg", "len"),
                             epoch_seconds=epoch),
            AggregationQuery(AttributeSet.parse("D"), Aggregate("max", "len"),
                             epoch_seconds=epoch)])
        self.relations = FeedingGraph(self.queries).nodes
        with self.timed_setup("workloads.stats"):
            stats = measure_statistics(self.data, self.relations, counters=2)
        with self.timed_setup("core.plan_gcsl"):
            self.plan = make_plan(self.queries, stats, self.MEMORY)

    def prepare_gate(self) -> None:
        buckets = {rel: int(b)
                   for rel, b in self.plan.allocation.buckets.items()}
        self.oracle = simulate(self.data, self.plan.configuration, buckets,
                               self.EPOCH, "len").hfta
        self.count_oracle = groupby_counts(
            [self.data.columns["A"]], self.data.timestamps, self.EPOCH)
        self.rendered: list = []

    def run_pass(self, tracer) -> None:
        registry = MetricsRegistry() if tracer.enabled else None
        live = LiveStreamSystem(self.SCHEMA, self.queries, self.plan,
                                value_column="len", registry=registry)
        self.checkpoint_path = self.scratch / "live.ckpt"
        cols, times = self.data.columns, self.data.timestamps
        values = self.data.values["len"]
        n, step = len(self.data), self.cfg["batch"]
        self.closed = 0
        self.phase.begin_pass()
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            start = clock()
            with tracer.span("online.push") as span:
                reports = live.push({a: c[lo:hi] for a, c in cols.items()},
                                    times[lo:hi], values[lo:hi])
                if reports:
                    span.name = "online.close_push"
            self.close_epochs(live, reports, lo, start, tracer)
        start = clock()
        with tracer.span("online.close_push"):
            reports = live.finish()
        self.close_epochs(live, reports, "finish", start, tracer)
        self.phase.end_pass(n)
        self.live = live
        if registry is not None:
            tracer.adopt(registry.spans)

    def close_epochs(self, live, reports, key, start, tracer) -> None:
        """Render each closed epoch's answers, checkpoint when due; the
        segment ``key`` is timed from ``start``, before the push."""
        self.ops.check(True, "push")
        rendered = []
        for report in reports:
            with tracer.span("hfta.answer"):
                answers = [live.hfta.query_answer(q, report.epoch)
                           for q in self.queries]
            self.closed += 1
            if self.closed % self.CHECKPOINT_EVERY == 0:
                with tracer.span("checkpoint.write"):
                    live.checkpoint(self.checkpoint_path)
                self.ops.check(True, "checkpoint")
            self.phase.sample(report.epoch, clock() - start)
            rendered.append((report.epoch, answers))
        self.phase.timed(key, clock() - start)
        for epoch, answers in rendered:
            self.check_epoch(epoch, answers)
        self.rendered = rendered or self.rendered

    def check_epoch(self, epoch: int, answers: list[dict]) -> None:
        for query, got in zip(self.queries, answers):
            self.ops.check(
                same_answer(self.oracle.query_answer(query, epoch), got),
                f"{query} epoch {epoch}: live != offline simulate")
        self.ops.check(same_answer(self.count_oracle.get(epoch, {}),
                                   answers[0]),
                       f"A count epoch {epoch}: != numpy group-by")

    def finish(self, tracer) -> None:
        live, path = self.live, self.scratch / "live-final.ckpt"
        live.checkpoint(path)
        self.ops.check(True, "checkpoint")
        with tracer.span("checkpoint.restore"):
            restored = LiveStreamSystem.restore(path)
        self.ops.check(True, "restore")
        for query in self.queries:
            before, after = live.answers(query), restored.answers(query)
            self.ops.check(
                before.keys() == after.keys() and all(
                    same_answer(before[e], after[e]) for e in before),
                f"{query}: answers after restore != before")
        self.layer["checkpoint.bytes"] = path.stat().st_size
        if tracer.enabled:
            self.split_statistics(tracer, self.data, self.relations,
                                  counters=2)
        self.engine_layer([(era.configuration, era.counters)
                           for era in live.eras], live.hfta)

    def per_layer(self, tracer) -> dict[str, float]:
        out = dict(self.layer)
        passes = max(self.phase.passes, 1)
        engine_s = sum(tracer.durations("program.engine")) / passes
        out.update({
            "workloads.stats_s": median(self.setup_parts["workloads.stats"]),
            "workloads.stats_relations": len(self.relations),
            "core.plan_gcsl_ms":
                1e3 * median(self.setup_parts["core.plan_gcsl"]),
            "engine.run_s": engine_s,
            "engine.records_per_s":
                len(self.data) / engine_s if engine_s else 0.0,
            "engine.close_ms": 1e3 * median(tracer.durations("program.flush")),
            "hfta.fold_ms": 1e3 * median(tracer.durations("program.hfta.merge")),
            "hfta.answer_ms": 1e3 * median(tracer.durations("hfta.answer")),
            "hfta.answer_rows": sum(
                len(live_answer) for q in self.queries
                for live_answer in self.live.answers(q).values()),
            "online.push_ms_p50": 1e3 * median(tracer.durations("online.push")),
            "online.close_push_ms_p50":
                1e3 * median(tracer.durations("online.close_push")),
            "checkpoint.write_ms":
                1e3 * median(tracer.durations("checkpoint.write")),
            "checkpoint.restore_ms":
                1e3 * median(tracer.durations("checkpoint.restore")),
        })
        return out


# ----------------------------------------------------------------------
class PlanABCD(Workload):
    name = "plan_abcd"
    why = ("planning at the paper's {A,B,C,D} size (11 candidate "
           "phantoms) with no records flowing: an engine change reads zero")
    work_unit = "plan calls"
    latency_op = "one GCSL plan call on a drifted snapshot"
    ALIASES = {"plan_gcsl_p50_ms": "latency_p50_ms"}
    SIZES = {"full": {"records": 300_000, "queries": "ABCD", "drifts": 20},
             "tiny": {"records": 20_000, "queries": "ABC", "drifts": 4}}
    EPOCH = 5.0
    MEMORY = 40_000.0
    FLOW_TIMEOUT = 1.0
    ABSENT = {
        "engine.": "no records flow: planning only",
        "hfta.": "no records flow: planning only",
        "online.": "no records flow: planning only",
        "checkpoint.": "no records flow: planning only",
        "sketches.": "exact statistics, no sketches",
        "service.": "no StreamService in this workload",
    }

    def setup(self) -> None:
        with self.timed_setup("workloads.generate"):
            self.data = short_flow_trace(self.cfg["records"], self.seed)
        self.queries = QuerySet.counts(list(self.cfg["queries"]),
                                       epoch_seconds=self.EPOCH)
        self.relations = FeedingGraph(self.queries).nodes
        with self.timed_setup("workloads.stats"):
            self.stats = measure_statistics(self.data, self.relations,
                                            self.FLOW_TIMEOUT)
        # Every seed plans the same grid of scalings, in its own order;
        # the drift returns along the way it came, so every snapshot is
        # planned twice per round and plan repeatability is checked.
        grid = np.geomspace(0.5, 2.0, self.cfg["drifts"])
        drifts = np.random.default_rng(self.seed).permutation(grid).tolist()
        self.sequence = drifts + drifts[::-1]
        self.snapshots = {f: self.stats.scaled_groups(f) for f in drifts}
        self.seen: dict[tuple, tuple] = {}
        self.epes_counts: Counter = Counter()
        self.epes_seconds: list[float] = []

    def run_pass(self, tracer) -> None:
        plans = []
        self.phase.begin_pass()
        for i, factor in enumerate(self.sequence):
            snapshot = self.snapshots[factor]
            start = clock()
            with tracer.span("core.plan_gcsl"):
                gcsl = make_plan(self.queries, snapshot, self.MEMORY)
            middle = clock()
            with tracer.span("core.plan_gs"):
                gs = make_plan(self.queries, snapshot, self.MEMORY,
                               algorithm="gs")
            self.phase.timed(i, clock() - start)
            self.phase.sample(factor, middle - start)
            plans += [(factor, snapshot, gcsl), (factor, snapshot, gs)]
        start = clock()
        with tracer.span("core.plan_epes"), self.epes_split(tracer):
            epes = make_plan(self.queries, self.stats, self.MEMORY,
                             algorithm="epes")
        elapsed = clock() - start
        self.phase.timed("epes", elapsed)
        self.epes_seconds.append(elapsed)
        self.phase.end_pass(len(plans) + 1)
        plans.append((1.0, self.stats, epes))
        for factor, snapshot, plan in plans:
            self.check_plan(factor, snapshot, plan)

    def check_plan(self, factor, snapshot, plan) -> None:
        self.ops.check(True, "plan")
        what = f"{plan.algorithm} x{factor:.3f}"
        self.ops.check(plan.allocation.space_used(snapshot) <= self.MEMORY,
                       f"{what}: allocation exceeds the budget")
        cost = per_record_cost(plan.configuration, snapshot,
                               plan.allocation.buckets, LookupModel(),
                               CostParameters())
        self.ops.check(cost == plan.predicted_cost,
                       f"{what}: predicted cost does not re-evaluate")
        signature = (plan.configuration, plan.predicted_cost,
                     tuple(sorted((r.label(), b) for r, b in
                                  plan.allocation.buckets.items())))
        key = (plan.algorithm, factor)
        first = self.seen.setdefault(key, signature)
        self.ops.check(first == signature,
                       f"{what}: a repeated snapshot gave another plan")

    @contextmanager
    def epes_split(self, tracer):
        """Traced only: time EPES's enumeration and ES allocation apart.

        Interposes on ``enumerate_structures`` (as the EPES chooser looks
        it up) and on ``ExhaustiveAllocator.allocate`` for the duration of
        one call, restoring both afterwards.
        """
        if not tracer.enabled:
            yield
            return
        enumerate_structures = exhaustive_choice.enumerate_structures
        allocate = ExhaustiveAllocator.allocate
        counts = self.epes_counts

        def timed_enumerate(*args, **kwargs):
            structures = enumerate_structures(*args, **kwargs)
            while True:
                with tracer.span("core.epes_enumerate"):
                    config = next(structures, None)
                if config is None:
                    return
                counts["structures"] += 1
                yield config

        def timed_allocate(allocator, *args, **kwargs):
            counts["survivors"] += 1
            with tracer.span("core.es_allocate"):
                return allocate(allocator, *args, **kwargs)

        exhaustive_choice.enumerate_structures = timed_enumerate
        ExhaustiveAllocator.allocate = timed_allocate
        try:
            yield
        finally:
            exhaustive_choice.enumerate_structures = enumerate_structures
            ExhaustiveAllocator.allocate = allocate
        counts["calls"] += 1

    def finish(self, tracer) -> None:
        if tracer.enabled:
            self.split_statistics(tracer, self.data, self.relations,
                                  self.FLOW_TIMEOUT)

    def issue_metrics(self, measured: dict) -> dict[str, float]:
        return {**super().issue_metrics(measured),
                "plan_epes_s": median(self.epes_seconds)}

    def per_layer(self, tracer) -> dict[str, float]:
        calls = max(self.epes_counts["calls"], 1)
        structures = self.epes_counts["structures"] / calls
        survivors = self.epes_counts["survivors"] / calls
        return {**self.layer,
            "workloads.stats_s": median(self.setup_parts["workloads.stats"]),
            "workloads.stats_relations": len(self.relations),
            "core.plan_gcsl_ms":
                1e3 * median(tracer.durations("core.plan_gcsl")),
            "core.plan_gs_ms": 1e3 * median(tracer.durations("core.plan_gs")),
            "core.epes_enumerate_s":
                sum(tracer.durations("core.epes_enumerate")) / calls,
            "core.es_allocate_s":
                sum(tracer.durations("core.es_allocate")) / calls,
            "core.epes_structures": structures,
            "core.epes_survivors": survivors,
            "core.epes_survivor_ratio":
                survivors / structures if structures else 0.0,
        }


# ----------------------------------------------------------------------
GROUP_BYS = ["".join(c) for k in (1, 2, 3)
             for c in itertools.combinations("ABCD", k)]


class ServiceChurn(Workload):
    name = "service_churn"
    why = ("multi-tenant service on the clustered trace: sketch statistics "
           "and many small GS re-plans as tenants register and retire")
    latency_op = "one register call: admission plus re-plan"
    ALIASES = {"service_records_per_s": "throughput_per_s",
               "register_p50_ms": "latency_p50_ms",
               "register_p90_ms": "latency_p90_ms"}
    SIZES = {"full": {"records": 300_000, "batch": 2000},
             "tiny": {"records": 20_000, "batch": 500}}
    EPOCH = 0.5
    MEMORY = 40_000.0
    OPS_PER_PUSH = 4
    ACTIVE = 5
    ABSENT = {
        "workloads.stats": "statistics come from streaming sketches",
        "workloads.group_count": "statistics come from streaming sketches",
        "workloads.flow_length": "statistics come from streaming sketches",
        "core.plan_gcsl": "the service plans with GS",
        "core.epes": "no EPES call in this workload",
        "core.es_": "no EPES call in this workload",
        "hfta.answer": "tenants read answers once, in the untimed gate",
        "online.": "StreamService.push wraps LiveStreamSystem.push; see "
                   "service.push_ms_p50",
        "checkpoint.": "the churn script writes no checkpoint",
    }

    def setup(self) -> None:
        with self.timed_setup("workloads.generate"):
            self.data = short_flow_trace(self.cfg["records"], self.seed)
        self.script = self.churn_script()

    def prepare_gate(self) -> None:
        self.oracles: dict[str, dict] = {}

    def churn_script(self) -> tuple[list, list[list]]:
        """Register/retire operations: before the data, and per push.

        Group-bys are registered in seed-shuffled cycles through all 14;
        every fourth registration instead joins the newest live group-by
        (a tenant sharing a table, which needs no re-plan). The oldest
        registration retires whenever more than ``ACTIVE`` are live. So
        every seed churns the same mix, in another order.
        """
        rng = np.random.default_rng(self.seed)
        initial = [("register", "t0", "AB"), ("register", "t1", "CD")]
        active = deque([("t0", "AB"), ("t1", "CD")])
        tenants = itertools.count(2)
        cycle: list[str] = []
        per_push = []
        for _ in range(0, len(self.data), self.cfg["batch"]):
            ops = []
            for _ in range(self.OPS_PER_PUSH):
                if len(active) > self.ACTIVE:
                    ops.append(("retire", *active.popleft()))
                    continue
                tenant = next(tenants)
                if tenant % 4 == 0:
                    gb = active[-1][1]
                else:
                    if not cycle:
                        cycle = [str(g) for g in rng.permutation(GROUP_BYS)]
                    gb = cycle.pop()
                registration = (f"t{tenant}", gb)
                active.append(registration)
                ops.append(("register", *registration))
            per_push.append(ops)
        return initial, per_push

    def churn(self, service, ops, tracer) -> None:
        for kind, tenant, gb in ops:
            start = clock()
            if kind == "register":
                query = AggregationQuery(AttributeSet.parse(gb),
                                         epoch_seconds=self.EPOCH)
                try:
                    with tracer.span("service.register"):
                        service.register(tenant, query)
                    self.ops.check(True, "register")
                except AdmissionError as exc:
                    self.rejected.add(tenant)
                    self.ops.check(False, f"register {tenant} {gb}: {exc}")
                self.phase.sample(tenant, clock() - start)
            elif tenant not in self.rejected:
                with tracer.span("service.retire"):
                    service.retire(tenant, gb)
                self.ops.check(True, "retire")
            self.phase.timed((kind, tenant), clock() - start)

    def run_pass(self, tracer) -> None:
        service = StreamService(self.data.schema, memory=self.MEMORY)
        self.rejected: set[str] = set()
        initial, per_push = self.script
        cols, times = self.data.columns, self.data.timestamps
        n, step = len(self.data), self.cfg["batch"]
        self.phase.begin_pass()
        self.churn(service, initial, tracer)
        for i, lo in enumerate(range(0, n, step)):
            hi = min(lo + step, n)
            start = clock()
            with tracer.span("service.push"):
                service.push({a: c[lo:hi] for a, c in cols.items()},
                             times[lo:hi])
            self.phase.timed(lo, clock() - start)
            self.ops.check(True, "push")
            self.churn(service, per_push[i], tracer)
        start = clock()
        with tracer.span("service.push"):
            service.finish()
        self.phase.timed("finish", clock() - start)
        self.phase.end_pass(n)
        if tracer.enabled:
            tracer.adopt(service.metrics.spans)
        self.check_service(service)
        self.service = service

    def check_service(self, service) -> None:
        live = service.live
        trail = ([(r.epoch, r.intra_cost, r.flush_cost)
                  for r in live.epoch_reports], service.leases())
        if hasattr(self, "trail"):
            # Passes replay one script over one stream: they must agree.
            self.ops.check(trail == self.trail,
                           "a pass diverged from the first pass")
            return
        self.trail = trail
        for lease in service.leases():
            got = service.answers(lease["tenant"]).get(lease["group_by"], {})
            self.check_lease(lease, got)

    def check_lease(self, lease: dict, got: dict) -> None:
        """A tenant's answers equal the flat oracle over its lease."""
        gb, start, end = lease["group_by"], lease["start"], lease["end"]
        if gb not in self.oracles:
            query = AggregationQuery(AttributeSet.parse(gb),
                                     epoch_seconds=self.EPOCH)
            self.oracles[gb] = simulate(
                self.data, Configuration.flat([query.group_by]),
                {query.group_by: 64}, self.EPOCH).hfta.all_answers(query)
        expected = {} if lease["pending"] else {
            epoch: answer for epoch, answer in self.oracles[gb].items()
            if (start is None or epoch >= start)
            and (end is None or epoch < end)}
        wrong = sorted(e for e in expected.keys() | got.keys()
                       if not same_answer(expected.get(e, {}),
                                          got.get(e, {})))
        self.ops.check(not wrong, f"tenant {lease['tenant']} {gb}: epochs "
                       f"{wrong[:3]}... ({len(wrong)} of {len(expected)}) "
                       "!= flat simulate oracle")

    def finish(self, tracer) -> None:
        service = self.service
        live = service.live
        counters = service.metrics.counters
        replans = counters["service.replans"].value
        hits = counters["service.replan_cache_hits"].value \
            if "service.replan_cache_hits" in counters else 0
        self.layer.update({
            "service.replans": replans,
            "service.replan_cache_hits": hits,
            "service.replan_hit_ratio": hits / (hits + replans),
            "service.rejections": counters["service.rejections"].value
            if "service.rejections" in counters else 0,
            "core.plan_gs_ms": 1e3 * service.metrics.histograms[
                "service.replan_seconds"].mean,
        })
        self.engine_layer([(era.configuration, era.counters)
                           for era in live.eras], live.hfta)
        if tracer.enabled:
            self.observe_probe(service)

    def observe_probe(self, service) -> None:
        """A standalone sketch collector over the same relations and
        batches, timing ``observe`` alone (traced run only)."""
        collector = StreamStatisticsCollector(service.collector.relations,
                                              k=service.sketch_k)
        cols = self.data.columns
        step, times = self.cfg["batch"], []
        for lo in range(0, len(self.data), step):
            batch = {a: c[lo:lo + step] for a, c in cols.items()}
            start = clock()
            collector.observe(batch)
            times.append(clock() - start)
        self.layer["sketches.observe_ms"] = 1e3 * median(times)

    def per_layer(self, tracer) -> dict[str, float]:
        out = dict(self.layer)
        passes = max(self.phase.passes, 1)
        engine_s = sum(tracer.durations("program.engine")) / passes
        out.update({
            "engine.run_s": engine_s,
            "engine.records_per_s":
                len(self.data) / engine_s if engine_s else 0.0,
            "engine.close_ms": 1e3 * median(tracer.durations("program.flush")),
            "hfta.fold_ms": 1e3 * median(tracer.durations("program.hfta.merge")),
            "service.push_ms_p50":
                1e3 * median(tracer.durations("service.push")),
            "service.retire_ms_p50":
                1e3 * median(tracer.durations("service.retire")),
        })
        return out


WORKLOADS = {w.name: w for w in (BatchTrace, LiveUniform, PlanABCD,
                                 ServiceChurn)}
