"""Tracked performance suite: planner and engine fast paths, as JSON.

Times the three layers this repo optimizes and writes a schema-versioned
``BENCH_perf.json`` at the repo root so the performance trajectory is
tracked from PR to PR::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --quick  # CI smoke

Measured cases:

* ``es_allocate_*`` — the ES allocator on the paper's 6-relation
  configuration, in three flavours: ``scalar_reference`` (a live-timed
  verbatim replica of the pre-fast-path coordinate descent — the
  "before" number), ``fallback`` (the library's scalar descent, used
  without a compiler) and ``native`` (the runtime-compiled C kernel,
  when a compiler exists).
* ``plan_*`` — end-to-end planner wall time for GS, GCSL and the EPES
  oracle on the paper workload.
* ``engine_sweep_uncached`` — a 4-point bucket-count sweep of the
  vectorized engine over a synthetic stream. It pins ``native=False`` so
  it keeps timing the pure numpy reference path from commit to commit.
* ``engine_native`` (its own top-level section) — the same sweep through
  the fused C ingest kernel (:mod:`repro.native.ingest`), with its
  speedup over ``engine_sweep_uncached`` and the kernel's build
  diagnostics. The
  section is equivalence-gated: the kernel's counters and per-epoch HFTA
  totals must be bit-identical to the numpy sweep at every point, or the
  suite exits non-zero.
* ``hfta`` (its own top-level section) — the columnar HFTA merge: per
  regime (low-collision, high-collision, and a 4-shard merge) the epoch
  group-merge and the answer materialization are timed against a
  live-timed verbatim replica of the pre-columnar path (``np.unique``
  over the stacked row matrix + per-row dict construction — the
  "before" number), through the :mod:`repro.native.merge` hash-table
  kernel and through the numpy fallback. Equivalence-gated: every
  timed path's totals and answers must be bit-identical to the
  replica's.

Every fast path must be *bit-identical* to its reference; the suite
re-asserts that here (``equivalence`` in the JSON) and exits non-zero on
any mismatch — timing regressions alone never fail the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.allocation import ExhaustiveAllocator, _ckernel
from repro.core.choosing.greedy_space import GreedySpace
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.optimizer import plan
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.gigascope import simulate
from repro.native import machine_info
from repro.observability import MetricsRegistry, RunManifest
from repro.observability.manifest import current_git_sha
from repro.workloads import paper_synthetic_dataset

SCHEMA = "bench-perf/2"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

STATS = RelationStatistics.from_counts({
    "A": 552, "B": 760, "C": 940, "D": 1120,
    "AB": 1846, "AC": 1520, "CD": 2050, "BC": 1730, "BD": 1940,
    "ABC": 2117, "BCD": 2520, "ABCD": 2837,
})
CONFIG = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
PARAMS = CostParameters()
MEMORY = 40_000.0
QUERIES = QuerySet.counts(["AB", "BC", "BD", "CD"])
ENGINE_CONFIG = Configuration.from_notation("(ABCD(AB BC CD))")


class ScalarReferenceES(ExhaustiveAllocator):
    """ES with the pre-fast-path scalar descent — the "before" baseline.

    Identical multi-start structure; only the inner loop is the original
    mutate-and-revert scalar scan, so its wall time is what every
    ``allocate`` call cost before the native path existed.
    """

    def _descend(self, evaluator, stats, memory, spaces, initial_step=None):
        floors = [float(h) for h in evaluator.entry_units]
        step = (initial_step if initial_step is not None
                else self.grid_step) * memory
        min_step = self.polish_step * memory
        n = len(spaces)
        cost = evaluator.cost(spaces)
        while step >= min_step:
            improved = True
            while improved:
                improved = False
                for i in range(n):
                    if spaces[i] - step < floors[i]:
                        continue
                    for j in range(n):
                        if i == j:
                            continue
                        spaces[i] -= step
                        spaces[j] += step
                        trial = evaluator.cost(spaces)
                        if trial < cost - 1e-15:
                            cost = trial
                            improved = True
                        else:
                            spaces[i] += step
                            spaces[j] -= step
                        if spaces[i] - step < floors[i]:
                            break
            step /= 2.0
        return spaces


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Time planner and engine fast paths, re-assert their "
                    "bit-identity, and write BENCH_perf.json.")
    parser.add_argument("--records", type=int, default=200_000,
                        help="engine-sweep stream length (default 200k)")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per case (best kept)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="JSON output path (default: repo root)")
    parser.add_argument("--manifest-out", default=None, metavar="PATH",
                        help="also write a RunManifest JSON carrying the "
                             "suite's metrics registry")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: 40k records, 2 reps")
    return parser


def _time_case(fn, reps: int) -> tuple[float, object]:
    """Best-of-``reps`` wall time (after one warmup); returns last result."""
    fn()  # warmup: triggers lazy table builds / kernel compilation
    best = float("inf")
    result = None
    for _ in range(max(1, reps)):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _alloc_key(allocation) -> dict[str, float]:
    return {str(rel): b for rel, b in allocation.buckets.items()}


def _engine_outputs(result, config) -> tuple:
    counters = {str(rel): (c.arrivals_intra, c.arrivals_flush,
                           c.evictions_intra, c.evictions_flush)
                for rel, c in result.counters.relations.items()}
    hfta = {}
    for rel in config.relations:
        if config.children(rel):
            continue
        for epoch in result.hfta.epochs(rel):
            hfta[(str(rel), epoch)] = dict(result.hfta.totals(rel, epoch))
    return counters, hfta


def _planner_cases(reps: int, cases: dict, checks: list) -> None:
    scalar = ScalarReferenceES()
    fallback = ExhaustiveAllocator(native=False)
    native = ExhaustiveAllocator()

    scalar_s, scalar_alloc = _time_case(
        lambda: scalar.allocate(CONFIG, STATS, MEMORY, PARAMS), reps)
    fallback_s, fallback_alloc = _time_case(
        lambda: fallback.allocate(CONFIG, STATS, MEMORY, PARAMS), reps)
    cases["es_allocate_scalar_reference"] = {
        "seconds": scalar_s, "per_call_ms": scalar_s * 1e3,
        "meta": {"relations": len(CONFIG), "memory": MEMORY}}
    cases["es_allocate_fallback"] = {
        "seconds": fallback_s, "per_call_ms": fallback_s * 1e3,
        "meta": {"speedup_vs_scalar": scalar_s / fallback_s}}
    checks.append({
        "name": "es_fallback_equals_scalar_reference",
        "ok": _alloc_key(fallback_alloc) == _alloc_key(scalar_alloc)})

    if _ckernel.kernel_available():
        native_s, native_alloc = _time_case(
            lambda: native.allocate(CONFIG, STATS, MEMORY, PARAMS), reps)
        cases["es_allocate_native"] = {
            "seconds": native_s, "per_call_ms": native_s * 1e3,
            "meta": {"speedup_vs_scalar": scalar_s / native_s}}
        checks.append({
            "name": "es_native_equals_scalar_reference",
            "ok": _alloc_key(native_alloc) == _alloc_key(scalar_alloc)})
    else:
        cases["es_allocate_native"] = {
            "seconds": None, "per_call_ms": None,
            "meta": {"skipped": "no C compiler available"}}

    for algorithm in ("gs", "gcsl", "epes"):
        seconds, _ = _time_case(
            lambda a=algorithm: plan(QUERIES, STATS, MEMORY, algorithm=a),
            reps)
        cases[f"plan_{algorithm}"] = {
            "seconds": seconds, "per_call_ms": seconds * 1e3,
            "meta": {"memory": MEMORY,
                     "queries": [str(q) for q in QUERIES]}}

    cached = GreedySpace().choose(QUERIES, STATS, MEMORY, PARAMS)
    plain = GreedySpace(cache_benefits=False).choose(QUERIES, STATS, MEMORY,
                                                     PARAMS)
    checks.append({
        "name": "gs_benefit_cache_parity",
        "ok": (cached.cost == plain.cost
               and _alloc_key(cached.allocation)
               == _alloc_key(plain.allocation)
               and [str(s.phantom) for s in cached.trajectory]
               == [str(s.phantom) for s in plain.trajectory])})


def _engine_cases(records: int, reps: int, cases: dict,
                  checks: list) -> dict:
    """Time the numpy engine sweep, then the native kernel sweep.

    Returns the ``engine_native`` section of the JSON document. The
    numpy cases pin ``native=False`` so ``engine_sweep_uncached`` stays
    the stable reference the kernel's speedup is judged against.
    """
    dataset = paper_synthetic_dataset(n_records=records, seed=11)
    bases = (500, 600, 700, 800)

    def buckets(base):
        return {rel: base + 37 * i
                for i, rel in enumerate(ENGINE_CONFIG.relations)}

    def sweep(native=False):
        return [simulate(dataset, ENGINE_CONFIG, buckets(base),
                         epoch_seconds=5.0, native=native)
                for base in bases]

    plain_s, plain_results = _time_case(sweep, reps)

    per_point = records * len(bases)
    cases["engine_sweep_uncached"] = {
        "seconds": plain_s,
        "records_per_sec": per_point / plain_s,
        "meta": {"records": records, "sweep_points": len(bases),
                 "native": False}}
    reference = [_engine_outputs(r, ENGINE_CONFIG) for r in plain_results]

    from repro.native import ingest as native_ingest
    from repro.native.build import kernel_status

    available = native_ingest.kernel_available()
    status = kernel_status(native_ingest.KERNEL_NAME)
    section = {
        "available": available,
        "kernel": status.to_dict() if status is not None else None,
    }
    if not available:
        section["skipped"] = "no C compiler available (or REPRO_NO_CKERNEL)"
        return section

    native_s, native_results = _time_case(lambda: sweep(native=True), reps)
    checks.append({
        "name": "engine_native_equals_numpy",
        "ok": all(reference[i] == _engine_outputs(r, ENGINE_CONFIG)
                  for i, r in enumerate(native_results))})
    section["uncached"] = {
        "seconds": native_s,
        "records_per_sec": per_point / native_s,
        "speedup_vs_numpy": plain_s / native_s}
    return section


def _reference_hfta_merge(batches, names):
    """Verbatim replica of the pre-columnar HFTA merge — the "before"
    number the ``hfta`` section is judged against.

    Stacks every batch into one row matrix, group-uniques it with
    ``np.unique(axis=0)`` (the lexsort chain the columnar fold
    replaced), accumulates with ``bincount``/``minimum.at`` and
    materializes the ``group -> GroupAggregate`` dict row by row —
    exactly the old ``HFTA.totals`` general path, kept here live-timed
    so the speedup is measured against real work, not a remembered
    constant."""
    from repro.gigascope.hfta import GroupAggregate

    stacked = {name: np.concatenate([b[0][name] for b in batches])
               for name in names}
    counts = np.concatenate([b[1] for b in batches])
    vsums = np.concatenate([b[2] for b in batches])
    vmins = np.concatenate([b[3] for b in batches])
    vmaxs = np.concatenate([b[4] for b in batches])
    matrix = np.column_stack([stacked[name] for name in names])
    uniques, inverse = np.unique(matrix, axis=0, return_inverse=True)
    total_counts = np.bincount(inverse, weights=counts)
    total_vsums = np.bincount(inverse, weights=vsums)
    total_vmins = np.full(uniques.shape[0], np.inf)
    np.minimum.at(total_vmins, inverse, vmins)
    total_vmaxs = np.full(uniques.shape[0], -np.inf)
    np.maximum.at(total_vmaxs, inverse, vmaxs)
    merged = {}
    for i, row in enumerate(uniques):
        merged[tuple(int(v) for v in row)] = GroupAggregate(
            int(total_counts[i]), float(total_vsums[i]),
            float(total_vmins[i]), float(total_vmaxs[i]))
    return merged


def _reference_hfta_answer(totals, kind, having_min):
    """Verbatim replica of the pre-columnar ``query_answer`` loop."""
    answer = {}
    for group, agg in totals.items():
        if having_min is not None and agg.count < having_min:
            continue
        if kind == "count":
            answer[group] = float(agg.count)
        elif kind == "sum":
            answer[group] = agg.value_sum
        elif kind == "avg":
            answer[group] = (agg.value_sum / agg.count
                             if agg.count else 0.0)
        elif kind == "min":
            answer[group] = agg.value_min
        else:
            answer[group] = agg.value_max
    return answer


def _hfta_batches(rows, groups, n_batches, seed):
    """Eviction-shaped batches: ``rows`` partial rows over ``groups``
    distinct (A, B) keys, with counts and value sum/min/max columns."""
    rng = np.random.default_rng(seed)
    gid = rng.integers(0, groups, rows)
    a = (gid >> 10).astype(np.int64)
    b = (gid & 1023).astype(np.int64)
    counts = rng.integers(1, 6, rows).astype(np.int64)
    vs = rng.uniform(0.0, 100.0, rows)
    vmin = rng.uniform(0.0, 50.0, rows)
    vmax = vmin + rng.uniform(0.0, 50.0, rows)
    bounds = np.linspace(0, rows, n_batches + 1).astype(int)
    return [({"A": a[s:e], "B": b[s:e]}, counts[s:e], vs[s:e],
             vmin[s:e], vmax[s:e])
            for s, e in zip(bounds, bounds[1:]) if e > s]


def _hfta_cases(records: int, reps: int, checks: list) -> dict:
    """Time the columnar HFTA merge and answer paths; returns the
    ``hfta`` section of the JSON document.

    Three regimes: ``low_collision`` (~2 rows per group — the merge is
    group-discovery-bound), ``high_collision`` (hundreds of rows per
    group — accumulate-bound), and ``sharded_merge`` (4 shard HFTAs
    through ``merge_hftas`` + one fold). Each times the columnar path
    (native kernel when available), the numpy fallback, and the
    pre-columnar replica; ``answer`` times ``query_answer`` off folded
    state against the replica's per-group loop. All equivalence-gated.
    """
    from repro.core.attributes import AttributeSet
    from repro.core.queries import Aggregate, AggregationQuery
    from repro.gigascope.hfta import HFTA
    from repro.native import merge as native_merge
    from repro.native.build import kernel_status
    from repro.parallel.merge import merge_hftas

    rel = AttributeSet.parse("AB")
    names = rel.names

    def columnar_totals(batches):
        hfta = HFTA()
        for batch in batches:
            hfta.ingest_arrays(rel, 0, *batch)
        return hfta.totals(rel, 0)

    def with_fallback(fn):
        real = native_merge.kernel_available
        native_merge.kernel_available = lambda: False
        try:
            return fn()
        finally:
            native_merge.kernel_available = real

    available = native_merge.kernel_available()
    status = kernel_status(native_merge.KERNEL_NAME)
    section = {
        "available": available,
        "kernel": status.to_dict() if status is not None else None,
        "cases": {},
    }

    regimes = (
        ("low_collision", max(2048, records // 2), 16),
        ("high_collision", 512, 16),
    )
    for regime, groups, n_batches in regimes:
        batches = _hfta_batches(records, groups, n_batches, seed=29)
        ref_s, ref_totals = _time_case(
            lambda: _reference_hfta_merge(batches, names), reps)
        col_s, col_totals = _time_case(
            lambda: columnar_totals(batches), reps)
        fb_s, fb_totals = _time_case(
            lambda: with_fallback(lambda: columnar_totals(batches)), reps)
        checks.append({"name": f"hfta_columnar_equals_reference_{regime}",
                       "ok": col_totals == ref_totals})
        checks.append({"name": f"hfta_fallback_equals_reference_{regime}",
                       "ok": fb_totals == ref_totals})

        # Answer materialization off already-folded state, vs the
        # replica's per-group Python loop off its prebuilt dict. Timed
        # without HAVING (the pure vectorized materialization) and with
        # a threshold (the masked path, inherently per-group either
        # way); both equivalence-gated.
        folded = HFTA()
        for batch in batches:
            folded.ingest_arrays(rel, 0, *batch)
        folded.totals_columnar(rel, 0)
        query = AggregationQuery(rel, Aggregate("avg", "v"))
        having = AggregationQuery(rel, Aggregate("avg", "v"),
                                  having_min=4)
        ans_ref_s, ans_ref = _time_case(
            lambda: _reference_hfta_answer(ref_totals, "avg", None), reps)
        ans_s, ans = _time_case(
            lambda: folded.query_answer(query, 0), reps)
        having_ref_s, having_ref = _time_case(
            lambda: _reference_hfta_answer(ref_totals, "avg", 4), reps)
        having_s, having_ans = _time_case(
            lambda: folded.query_answer(having, 0), reps)
        checks.append({"name": f"hfta_answer_equals_reference_{regime}",
                       "ok": ans == ans_ref})
        checks.append({
            "name": f"hfta_having_answer_equals_reference_{regime}",
            "ok": having_ans == having_ref})

        section["cases"][regime] = {
            "rows": records,
            "groups": len(ref_totals),
            "batches": n_batches,
            "reference_merge_seconds": ref_s,
            "columnar_merge_seconds": col_s,
            "fallback_merge_seconds": fb_s,
            "merge_speedup": ref_s / col_s,
            "fallback_merge_speedup": ref_s / fb_s,
            "rows_per_sec": records / col_s,
            "native": available,
            "reference_answer_seconds": ans_ref_s,
            "vectorized_answer_seconds": ans_s,
            "answer_speedup": ans_ref_s / ans_s,
            "reference_having_answer_seconds": having_ref_s,
            "vectorized_having_answer_seconds": having_s,
            "having_answer_speedup": having_ref_s / having_s,
            # Merge + answer materialization combined — the epoch-close
            # cost a query actually pays. Conservative for the columnar
            # side: its merge timing already includes the totals()-dict
            # build that query_answer never needs.
            "end_to_end_speedup": (ref_s + ans_ref_s) / (col_s + ans_s),
        }

    # Sharded merge: 4 shard HFTAs folded into one parent, vs the
    # replica merging the same batches in the same shard order.
    n_shards = 4
    shard_batches = [
        _hfta_batches(records // n_shards, 4096, 8, seed=31 + i)
        for i in range(n_shards)
    ]
    flat = [batch for shard in shard_batches for batch in shard]

    def sharded_totals():
        shards = []
        for per_shard in shard_batches:
            hfta = HFTA()
            for batch in per_shard:
                hfta.ingest_arrays(rel, 0, *batch)
            shards.append(hfta)
        return merge_hftas(shards).totals(rel, 0)

    ref_s, ref_totals = _time_case(
        lambda: _reference_hfta_merge(flat, names), reps)
    col_s, col_totals = _time_case(sharded_totals, reps)
    checks.append({"name": "hfta_sharded_equals_reference",
                   "ok": col_totals == ref_totals})
    section["cases"]["sharded_merge"] = {
        "rows": records,
        "groups": len(ref_totals),
        "shards": n_shards,
        "reference_merge_seconds": ref_s,
        "columnar_merge_seconds": col_s,
        "merge_speedup": ref_s / col_s,
        "rows_per_sec": records / col_s,
        "native": available,
    }
    return section


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.records = min(args.records, 40_000)
        args.reps = min(args.reps, 2)

    registry = MetricsRegistry()
    cases: dict[str, dict] = {}
    checks: list[dict] = []

    print("timing planner cases...")
    _planner_cases(args.reps, cases, checks)
    print("timing engine sweep (numpy + native kernel)...")
    engine_native = _engine_cases(args.records, args.reps, cases, checks)
    print("timing HFTA columnar merge...")
    hfta = _hfta_cases(args.records, args.reps, checks)

    for name, case in cases.items():
        if case.get("seconds") is not None:
            registry.gauge(f"bench.{name}.seconds").set(case["seconds"])
    for check in checks:
        registry.counter(
            f"bench.equivalence.{check['name']}."
            f"{'ok' if check['ok'] else 'FAILED'}").inc()

    all_ok = all(check["ok"] for check in checks)
    result = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "machine": machine_info(),
        "settings": {"records": args.records, "reps": args.reps,
                     "quick": args.quick},
        "cases": cases,
        "engine_native": engine_native,
        "hfta": hfta,
        "equivalence": {"ok": all_ok, "checks": checks},
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")

    for name, case in cases.items():
        if case.get("seconds") is None:
            print(f"{name:>32}: skipped ({case['meta'].get('skipped')})")
        elif "per_call_ms" in case:
            print(f"{name:>32}: {case['per_call_ms']:.3f} ms/call")
        else:
            print(f"{name:>32}: {case['seconds']:.3f} s "
                  f"({case['records_per_sec'] / 1e6:.2f}M rec/s)")
    if engine_native.get("available"):
        point = engine_native["uncached"]
        print(f"{'engine_native_uncached':>32}: "
              f"{point['seconds']:.3f} s "
              f"({point['records_per_sec'] / 1e6:.2f}M rec/s, "
              f"{point['speedup_vs_numpy']:.2f}x vs numpy)")
    else:
        print(f"{'engine_native':>32}: skipped "
              f"({engine_native.get('skipped')})")
    for regime, case in hfta["cases"].items():
        extra = (f", answer {case['answer_speedup']:.2f}x"
                 f", e2e {case['end_to_end_speedup']:.2f}x"
                 if "answer_speedup" in case else "")
        print(f"{'hfta_' + regime:>32}: "
              f"{case['columnar_merge_seconds'] * 1e3:.1f} ms "
              f"({case['rows_per_sec'] / 1e6:.2f}M rows/s, "
              f"merge {case['merge_speedup']:.2f}x vs np.unique{extra})")

    if args.manifest_out:
        manifest = RunManifest.collect(
            registry=registry,
            extra={"benchmark": "perf_suite", "schema": SCHEMA,
                   "records": args.records, "quick": args.quick})
        print(f"wrote {manifest.write(args.manifest_out)}")

    if not all_ok:
        failed = [c["name"] for c in checks if not c["ok"]]
        print(f"EQUIVALENCE FAILURES: {failed}", file=sys.stderr)
        return 1
    print(f"equivalence: all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
