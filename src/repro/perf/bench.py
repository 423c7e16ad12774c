"""The ``repro bench`` command: measure, record, compare.

Six suites, selectable with ``--suite`` (default runs all):

* ``pipeline`` — ingestion throughput: telemetry streaming, per-record
  vs vectorised aggregation, columnar training counts, and the
  end-to-end serial vs parallel hourly pipeline.
* ``serving`` — the online service (paper §4): incremental vs
  from-scratch daily retrain latency over the rolling window, batched
  prediction throughput, and batched vs per-flow ``what_if``.
* ``lint`` — whole-tree ``repro lint --project`` over this repo's own
  source, cold cache vs warm, plus the single per-file extraction pass
  (the per-miss cost) and the RA7xx and RA8xx link stages (the floor
  every warm run pays), so the incremental analysis cache's benefit is
  tracked like every other hot path.
* ``store`` — the persistence boundary (``repro.store``,
  ``docs/storage.md``): snapshot write throughput, restart latency to
  the first served prediction, and out-of-core retrain throughput over
  the columnar day segments.
* ``bgp`` — the routing substrate at 10x the default AS-graph scale:
  full columnar table builds, dirty-set incremental recomputation
  after single-peer withdrawals, and sustained withdrawal churn
  through the simulator's bounded table cache.

* ``soak`` — the serving daemon (``repro.serve``) under sustained
  load: a paced hourly ingest stream runs concurrently with a
  continuous query loop issuing heavy-tailed prediction batches, and
  the suite reports sustained predictions/s plus p50/p99 query latency
  (recorded as inverse seconds so the regression gate's
  higher-is-better convention applies).

Results are written as a ``BENCH_<date>.json`` report and compared
against the last committed baseline of the same profile.

Two profiles:

* ``full`` — the paper-scale scenario; the numbers behind the README's
  Performance section.
* ``smoke`` — the small scenario over a shorter window; seconds-fast,
  suitable as a CI gate.
"""

from __future__ import annotations

import ast
import datetime
import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis import (DEFAULT_HOT_PACKAGES, FileAnalysis,
                        analyze_project, check_determinism,
                        check_durability, check_lifecycle, extract_file,
                        find_determinism_config, find_durability_config)
from ..analysis.callgraph import ProjectGraph
from ..bgp import (IngressSimulator, SimulatorParams, compute_routing_table,
                   default_bias, update_routing_table)
from ..core.features import FEATURES_A, FEATURES_AL, FEATURES_AP
from ..core.persistence import train_models_from_store
from ..core.service import ServiceConfig, TipsyService
from ..core.training import CountsAccumulator
from ..store import SegmentStore
from ..experiments.scenario import Scenario, ScenarioParams
from ..obs import runtime as obs
from ..pipeline.aggregation import HourlyAggregator
from ..pipeline.records import AggRecord
from ..topology import (MetroCatalog, TopologyParams, WANParams,
                        generate_as_graph, generate_wan)
from ..util.hashing import unit
from .parallel import ParallelPipelineRunner, default_workers
from .regression import (
    BenchReport,
    compare_reports,
    default_meta,
    find_baseline,
    load_report,
    save_report,
)

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

SUITES = ("all", "pipeline", "serving", "lint", "store", "bgp", "soak")


def _best_of(fn: Callable[[], object], rounds: int = 3) -> float:
    """Seconds for one call, best of ``rounds`` (noise-resistant)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_scenario(profile: str, seed: int) -> Tuple[Scenario, int]:
    """(scenario, measured window in hours) for a profile."""
    if profile == "smoke":
        return Scenario(ScenarioParams.small(seed=seed)), 12
    return Scenario(ScenarioParams(seed=seed)), 24


def _bench_pipeline(report: BenchReport, profile: str, seed: int,
                    n_workers: int, rounds: int) -> None:
    """Ingestion throughput: streaming, aggregation, counts, pipeline."""
    t_build = time.perf_counter()
    scenario, window = _bench_scenario(profile, seed)
    print(f"world: {scenario.wan.summary()}, {len(scenario.traffic)} flows "
          f"(built in {time.perf_counter() - t_build:.1f}s); "
          f"measuring {window}h windows, best of {rounds}")

    # 1. telemetry streaming (warm the expansion caches first)
    for _ in scenario.stream(0, 2):
        pass
    elapsed = _best_of(lambda: sum(
        1 for _ in scenario.stream(0, window)), rounds)
    report.record("stream_hours_per_s", window / elapsed)
    print(f"  stream:             {window / elapsed:8.1f} hours/s")

    # 2. hourly aggregation, per-record reference vs vectorised columns
    cols = next(iter(scenario.stream(12, 13)))
    ipfix = scenario.ipfix_records_for(cols)
    arrays = scenario.ipfix_columns_for(cols)
    agg = HourlyAggregator(scenario.metadata, encoders=scenario.encoders)
    agg.aggregate_hour(cols.hour, ipfix)              # warm join caches
    serial_s = _best_of(lambda: agg.aggregate_hour(cols.hour, ipfix), rounds)
    column_s = _best_of(
        lambda: agg.aggregate_hour_columns(cols.hour, *arrays), rounds)
    report.record("aggregate_records_per_s", len(ipfix) / serial_s)
    report.record("aggregate_columnar_records_per_s", len(ipfix) / column_s)
    print(f"  aggregate (record): {len(ipfix) / serial_s:8.0f} records/s")
    print(f"  aggregate (column): {len(ipfix) / column_s:8.0f} records/s "
          f"({serial_s / column_s:.1f}x)")

    # 3. training counts from an aggregated window (columnar drain)
    with ParallelPipelineRunner(scenario=scenario,
                                n_workers=n_workers) as runner:
        hours = list(runner.iter_hour_columns(0, window, parallel=False))
        agg_records = sum(h.n_records for h in hours)

        def collect() -> int:
            counts = runner.collect_counts(0, window, parallel=False)
            return len(counts)

        counts_s = _best_of(collect, rounds)
        report.record("counts_records_per_s", agg_records / counts_s)
        print(f"  counts (columnar):  {agg_records / counts_s:8.0f} "
              "agg-records/s")

        # 4. end-to-end hourly pipeline, serial vs process pool
        serial_pipe_s = _best_of(lambda: sum(
            1 for _ in runner.iter_hour_columns(0, window, parallel=False)),
            rounds)
        report.record("pipeline_serial_hours_per_s", window / serial_pipe_s)
        print(f"  pipeline (serial):  {window / serial_pipe_s:8.1f} hours/s")
        if n_workers > 1:
            # first parallel call pays pool startup; warm before timing
            for _ in runner.iter_hour_columns(0, 2):
                pass
            par_s = _best_of(lambda: sum(
                1 for _ in runner.iter_hour_columns(0, window)), rounds)
            report.record("pipeline_parallel_hours_per_s", window / par_s)
            print(f"  pipeline ({n_workers} proc):  {window / par_s:8.1f} "
                  f"hours/s ({serial_pipe_s / par_s:.1f}x)")
        else:
            print("  pipeline (parallel): skipped (single CPU)")
    scenario.simulator.export_gauges()
    for key, value in scenario.simulator.cache_stats().items():
        report.meta[f"sim_{key}"] = str(value)


def _serving_setup(profile: str, seed: int) -> Tuple[Scenario, int]:
    """(scenario, training window in days) for the serving suite.

    The full profile uses the paper's 3-week rolling window (§5) over a
    horizon long enough to measure several post-eviction retrains.
    """
    if profile == "smoke":
        return Scenario(ScenarioParams.small(seed=seed, horizon_days=10)), 7
    return Scenario(ScenarioParams.medium(seed=seed, horizon_days=24)), 21


def _bench_serving(report: BenchReport, profile: str, seed: int,
                   rounds: int) -> None:
    """Online service: retrain latency, prediction and what-if rates."""
    t_build = time.perf_counter()
    scenario, window_days = _serving_setup(profile, seed)
    n_hours = scenario.horizon_hours
    hourly: List[List[AggRecord]] = [
        scenario.agg_records_for(cols) for cols in scenario.stream(0, n_hours)]
    print(f"serving: {len(scenario.flow_contexts)} flows, "
          f"{window_days}-day window, {n_hours // 24} days of telemetry "
          f"(built in {time.perf_counter() - t_build:.1f}s)")

    service = TipsyService(
        scenario.wan, ServiceConfig(training_window_days=window_days))
    # 1. daily retrain latency: time each first-hour-of-day ingest once
    # the window is full (it carries the eviction + incremental retrain)
    incremental_times: List[float] = []
    for hour, records in enumerate(hourly):
        if hour % 24 == 0 and hour // 24 > window_days:
            t0 = time.perf_counter()
            service.ingest_hour(hour, records)
            incremental_times.append(time.perf_counter() - t0)
        else:
            service.ingest_hour(hour, records)
    incremental_s = min(incremental_times)
    strict_s = _best_of(
        lambda: service.retrain(strict_rebuild=True), rounds)
    report.record("serving_retrain_days_per_s", 1.0 / incremental_s)
    report.record("serving_strict_retrain_days_per_s", 1.0 / strict_s)
    print(f"  retrain (incr):     {incremental_s * 1e3:8.1f} ms/day")
    print(f"  retrain (scratch):  {strict_s * 1e3:8.1f} ms "
          f"({strict_s / incremental_s:.1f}x slower than incremental)")

    # 2. batched prediction throughput over every known flow
    contexts = scenario.flow_contexts

    def predict_all() -> None:
        service.clear_memo()
        service.predict_batch(contexts)

    predict_s = _best_of(predict_all, rounds)
    report.record("serving_predictions_per_s", len(contexts) / predict_s)
    print(f"  predict (batch):    {len(contexts) / predict_s:8.0f} flows/s")

    # 3. what-if spill for the last trained day's flows against the
    # window's busiest link, batched vs the per-flow reference
    day = max(service.trained_days)
    day_counts = CountsAccumulator()
    for hour in range(day * 24, (day + 1) * 24):
        day_counts.consume_hour(hour, hourly[hour])
    flows = [(context, bytes_)
             for (context, _link), bytes_ in day_counts.counts.items()]
    link_bytes: Dict[int, float] = {}
    for (_context, link), bytes_ in day_counts.counts.items():
        link_bytes[link] = link_bytes.get(link, 0.0) + bytes_
    withdrawn = frozenset({max(link_bytes, key=lambda l: link_bytes[l])})

    # steady-state serving: the memo persists between queries and is only
    # invalidated by retrains, so round one warms it and the rest measure
    # the path the CMS actually sees
    service.clear_memo()
    service.what_if(flows, withdrawn)        # warm the memo once
    batched_s = _best_of(
        lambda: service.what_if(flows, withdrawn), rounds)
    serial_s = _best_of(
        lambda: service.what_if_per_flow(flows, withdrawn), rounds)
    report.record("serving_what_if_flows_per_s", len(flows) / batched_s)
    report.record("serving_what_if_serial_flows_per_s",
                  len(flows) / serial_s)
    print(f"  what_if (batch):    {len(flows) / batched_s:8.0f} flows/s "
          f"({serial_s / batched_s:.1f}x over per-flow)")
    print(f"  what_if (per-flow): {len(flows) / serial_s:8.0f} flows/s")
    service.export_gauges()
    for key, value in service.cache_stats().items():
        report.meta[f"serving_{key}"] = str(value)


def _bench_lint(report: BenchReport, rounds: int) -> None:
    """Whole-tree project lint: cold cache vs warm cache throughput.

    The target is this repo's own ``src/repro`` tree — the same corpus
    CI lints — so the numbers move with the codebase the cache has to
    keep up with.  Profiles share the corpus: a smoke lint over a
    synthetic mini-tree would measure fixture size, not the analyzer.
    """
    src_root = Path(__file__).resolve().parents[2]
    target = src_root / "repro"
    probe = analyze_project([target], cache_dir=None, root=src_root)
    n_files = probe.files_scanned
    print(f"lint: {n_files} files under {target}, best of {rounds}")

    def cold() -> None:
        with tempfile.TemporaryDirectory() as fresh:
            analyze_project([target], cache_dir=Path(fresh) / "cache",
                            root=src_root)

    cold_s = _best_of(cold, rounds)
    report.record("lint_cold_files_per_s", n_files / cold_s)
    print(f"  lint (cold cache):  {n_files / cold_s:8.0f} files/s")

    with tempfile.TemporaryDirectory() as keep:
        cache_dir = Path(keep) / "cache"
        analyze_project([target], cache_dir=cache_dir, root=src_root)
        warm_s = _best_of(
            lambda: analyze_project([target], cache_dir=cache_dir,
                                    root=src_root), rounds)
    report.record("lint_warm_files_per_s", n_files / warm_s)
    print(f"  lint (warm cache):  {n_files / warm_s:8.0f} files/s "
          f"({cold_s / warm_s:.1f}x)")


def _bench_lint_passes(report: BenchReport, rounds: int) -> None:
    """Per-file extraction vs the link-time rule waves.

    Mirrors the cache design (``docs/static-analysis.md``): the single
    per-file pass (:func:`~repro.analysis.project.extract_file` — one
    :class:`~repro.analysis.ir.ModuleIR` feeding the per-file rules,
    the call-graph facts and every site builder) is the cold-path cost
    paid once per cache miss; the *link* checks (RA7xx reachability,
    lock-order cycles, transitive blocking, thread lifecycle, the
    durability protocol) rerun on every run, warm or cold — so they are
    the floor a fully-warm ``repro lint --project`` cannot go below.
    """
    src_root = Path(__file__).resolve().parents[2]
    target = src_root / "repro"
    parsed: List[Tuple[ast.Module, str, Path, str]] = []
    for path in sorted(target.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        parsed.append((ast.parse(source), source, path,
                       str(path.relative_to(src_root))))
    determinism = find_determinism_config(target)
    durability = find_durability_config(target)
    if determinism is None or durability is None:  # pragma: no cover
        return  # the repo always has both tables
    n_files = len(parsed)
    roots = frozenset({"repro"})

    def extract() -> List[FileAnalysis]:
        return [extract_file(tree, source, path, display,
                             DEFAULT_HOT_PACKAGES, roots)
                for tree, source, path, display in parsed]

    extract_s = _best_of(extract, rounds)
    report.record("lint_extract_files_per_s", n_files / extract_s)
    print(f"  lint (extract):     {n_files / extract_s:8.0f} files/s "
          f"(cold, {n_files} files)")

    analyses = extract()
    graph = ProjectGraph.link([a.facts for a in analyses
                               if a.facts is not None])

    def by_module(sites: Callable[[FileAnalysis], List[Any]]
                  ) -> Dict[str, List[Any]]:
        return {a.facts.module: sites(a) for a in analyses
                if a.facts is not None}

    det_sites = by_module(lambda a: a.det_sites)
    life_sites = by_module(lambda a: a.life_sites)
    dura_sites = by_module(lambda a: a.dura_sites)

    link_s = _best_of(
        lambda: check_determinism(graph, det_sites, determinism), rounds)
    report.record("lint_dataflow_link_runs_per_s", 1.0 / link_s)
    print(f"  dataflow (link):    {link_s * 1e3:8.1f} ms/run "
          f"(warm floor, {1.0 / link_s:.1f} runs/s)")

    def link() -> None:
        check_lifecycle(graph, life_sites)
        check_durability(graph, dura_sites, durability)

    link_s = _best_of(link, rounds)
    report.record("lint_lifecycle_link_runs_per_s", 1.0 / link_s)
    print(f"  lifecycle (link):   {link_s * 1e3:8.1f} ms/run "
          f"(warm floor, {1.0 / link_s:.1f} runs/s)")


def _bench_store(report: BenchReport, profile: str, seed: int,
                 rounds: int) -> None:
    """Persistence: snapshot write rate, restart latency, out-of-core.

    Reuses the serving scenario so the persisted state is the same
    rolling window the serving suite measures — the restart number is
    "this service, back from disk", not a toy.
    """
    t_build = time.perf_counter()
    scenario, window_days = _serving_setup(profile, seed)
    service = TipsyService(
        scenario.wan, ServiceConfig(training_window_days=window_days))
    for cols in scenario.stream(0, scenario.horizon_hours):
        service.ingest_hour(cols.hour, scenario.agg_records_for(cols))
    print(f"store: {len(service.trained_days)} trained days, "
          f"{window_days}-day window "
          f"(built in {time.perf_counter() - t_build:.1f}s)")

    with tempfile.TemporaryDirectory() as root:
        target = Path(root) / "snap"

        def snap() -> None:
            # rewrite from scratch each round: measure the write path,
            # not an overwrite of already-allocated files
            shutil.rmtree(target, ignore_errors=True)
            service.snapshot(target)

        snap()
        nbytes = SegmentStore(target).total_bytes()
        snap_s = _best_of(snap, rounds)
        report.record("store_snapshot_mb_per_s", nbytes / snap_s / 1e6)
        print(f"  snapshot (write):   {nbytes / snap_s / 1e6:8.1f} MB/s "
              f"({nbytes / 1e6:.1f} MB)")

        # restart latency: cold store -> restored service -> first
        # prediction actually served (the operator-facing number)
        context = scenario.flow_contexts[0]

        def restart() -> None:
            restored = TipsyService.restore(target, scenario.wan)
            restored.predict(context)

        restart_s = _best_of(restart, rounds)
        report.record("store_restarts_per_s", 1.0 / restart_s)
        print(f"  restore+predict:    {restart_s * 1e3:8.1f} ms "
              f"({1.0 / restart_s:.2f} restarts/s)")

        # out-of-core retrain: stream day segments one at a time into a
        # fresh model suite (memory bounded by one day, not the window)
        store = SegmentStore(target)
        n_days = sum(1 for info in store.segments()
                     if info.kind == "day_counts")

        def retrain_from_disk() -> None:
            train_models_from_store(SegmentStore(target),
                                    (FEATURES_AP, FEATURES_AL, FEATURES_A))

        oo_s = _best_of(retrain_from_disk, rounds)
        report.record("store_out_of_core_days_per_s", n_days / oo_s)
        print(f"  out-of-core train:  {n_days / oo_s:8.1f} days/s "
              f"({n_days} days)")


def _bench_bgp(report: BenchReport, profile: str, seed: int,
               rounds: int) -> None:
    """Routing substrate: full builds, incremental repair, churn.

    The full profile runs a 10x-default AS graph (~6k ASes) — the scale
    the dirty-set path exists for; smoke runs the default-scale graph so
    CI measures the same code in seconds.  The incremental metric is the
    headline: single-peer withdrawals repaired by ``update_routing_table``
    against the full ``compute_routing_table`` rebuild the repair is
    bit-identical to.
    """
    t_build = time.perf_counter()
    if profile == "smoke":
        topo = TopologyParams()
    else:
        topo = TopologyParams(n_tier1=8, n_transit=120, n_access=1200,
                              n_cdn=24, n_stub=4600)
    metros = MetroCatalog()
    graph = generate_as_graph(metros, topo, seed=seed)
    wan = generate_wan(graph, WANParams(), seed=seed)
    bias = default_bias(graph, seed)
    base_seeded = frozenset(wan.peer_asns)
    n_asns = len(graph)
    print(f"bgp: {n_asns} ASes, {len(base_seeded)} peers, "
          f"{len(wan.links)} links "
          f"(built in {time.perf_counter() - t_build:.1f}s); "
          f"best of {rounds}")

    # 1. full columnar table build (the cost the dirty-set path avoids)
    base = compute_routing_table(graph, base_seeded, bias)
    full_s = _best_of(
        lambda: compute_routing_table(graph, base_seeded, bias), rounds)
    report.record("bgp_full_table_asns_per_s", n_asns / full_s)
    print(f"  full build:         {n_asns / full_s:8.0f} ASes/s "
          f"({full_s * 1e3:.1f} ms/table)")

    # 2. dirty-set incremental repair after single-peer withdrawals,
    # measured over a deterministic sample of peers and amortised
    sample = sorted(base_seeded)[::max(1, len(base_seeded) // 16)][:16]
    deltas = [base_seeded - {asn} for asn in sample]

    def repair_all() -> None:
        for seeded in deltas:
            update_routing_table(graph, base, seeded, bias)

    incr_s = _best_of(repair_all, rounds) / len(deltas)
    speedup = full_s / incr_s
    report.record("bgp_incremental_recompute_per_s", 1.0 / incr_s)
    report.meta["bgp_incremental_speedup"] = f"{speedup:.1f}"
    print(f"  incremental repair: {1.0 / incr_s:8.1f} tables/s "
          f"({incr_s * 1e3:.2f} ms/update, {speedup:.1f}x over full)")

    # 3. withdrawal churn through the simulator: more distinct removal
    # sets than the table cache holds, so every lookup exercises the
    # miss path (seed diff + incremental repair + install), which is
    # what a long outage-schedule replay pays
    sim = IngressSimulator(graph, wan, SimulatorParams(table_cache_size=8),
                           seed=seed)
    churn_keys = []
    for asn in sorted(base_seeded):
        links = wan.links_of_peer(asn)
        if len(links) == 1:
            churn_keys.append(frozenset({links[0].link_id}))
        if len(churn_keys) >= 24:
            break
    sim.routing_table(frozenset())            # warm the pinned base table

    def churn() -> None:
        for key in churn_keys:
            sim.routing_table(key)

    churn_s = _best_of(churn, rounds) / len(churn_keys)
    report.record("bgp_withdrawal_churn_tables_per_s", 1.0 / churn_s)
    print(f"  withdrawal churn:   {1.0 / churn_s:8.1f} tables/s "
          f"({len(churn_keys)} keys through a {sim.params.table_cache_size}"
          "-entry cache)")
    sim.export_gauges()
    for key, value in sim.cache_stats().items():
        report.meta[f"bgp_{key}"] = str(value)


def _soak_setup(profile: str) -> Tuple[int, float]:
    """(shards, seconds between live hours) for the soak suite."""
    if profile == "smoke":
        return 2, 0.05
    return 4, 0.25


def _percentile(sorted_values: List[float], q: float) -> float:
    """The q-quantile of an ascending list (nearest-rank)."""
    assert sorted_values
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _soak_batch_sizes(n_batches: int, n_contexts: int,
                      seed: int) -> List[Tuple[int, int]]:
    """Deterministic (start, size) query batches, heavy-tailed sizes.

    Batch sizes follow a Pareto (alpha=1.2) — most queries are small
    incident probes, a rare few sweep a large slice of the flow
    population — matching the heavy-tailed arrivals the serving path
    sees in practice.
    """
    alpha, x_m = 1.2, 4.0
    cap = max(1, min(512, n_contexts))
    batches: List[Tuple[int, int]] = []
    for i in range(n_batches):
        u = max(unit(2 * i, seed=seed), 1e-9)
        size = min(cap, int(x_m * u ** (-1.0 / alpha)))
        start = int(unit(2 * i + 1, seed=seed) * n_contexts)
        batches.append((start, max(1, size)))
    return batches


def _bench_soak(report: BenchReport, profile: str, seed: int) -> None:
    """Serving daemon under sustained concurrent ingest (one long run).

    A warm phase streams the training window into the sharded daemon;
    the measured phase then runs the remaining days as a *paced* live
    feed from a background thread while the foreground loop issues
    heavy-tailed prediction batches back to back.  Day boundaries in
    the live feed trigger per-shard incremental retrains and hot swaps
    mid-measurement — the p99 shows whether a query ever waited on one.
    Latency percentiles are recorded as inverses (``1/p50``) so the
    regression gate's higher-is-better drop detection applies.
    """
    from ..serve import DaemonConfig, ServeDaemon

    t_build = time.perf_counter()
    scenario, window_days = _serving_setup(profile, seed)
    n_shards, hour_gap = _soak_setup(profile)
    warm_hours = (window_days + 1) * 24
    live_hours = scenario.horizon_hours - warm_hours
    hourly = [scenario.agg_records_for(cols)
              for cols in scenario.stream(0, scenario.horizon_hours)]
    contexts = scenario.flow_contexts
    print(f"soak: {n_shards} shards (process), {len(contexts)} flows, "
          f"{warm_hours // 24} warm days + {live_hours} live hours at "
          f"{hour_gap:.2f}s/hour "
          f"(built in {time.perf_counter() - t_build:.1f}s)")

    daemon = ServeDaemon(scenario.wan, DaemonConfig(
        n_shards=n_shards, workers="process",
        service=ServiceConfig(training_window_days=window_days))).start()
    try:
        for hour in range(warm_hours):
            daemon.ingest_hour(hour, hourly[hour])
        daemon.drain()
        warm_swaps = daemon.status().total_swaps

        def feed() -> None:
            for hour in range(warm_hours, warm_hours + live_hours):
                daemon.ingest_hour(hour, hourly[hour])
                time.sleep(hour_gap)

        feeder = threading.Thread(target=feed, name="soak-feed")
        latencies: List[float] = []
        flows_served = 0
        batch_plan = _soak_batch_sizes(100_000, len(contexts), seed)
        batch_index = 0
        feeder.start()
        t0 = time.perf_counter()
        while feeder.is_alive():
            start, size = batch_plan[batch_index % len(batch_plan)]
            batch_index += 1
            batch = [contexts[(start + j) % len(contexts)]
                     for j in range(size)]
            t_q = time.perf_counter()
            daemon.predict_batch(batch)
            latencies.append(time.perf_counter() - t_q)
            flows_served += size
        elapsed = time.perf_counter() - t0
        feeder.join()
        daemon.drain()
        status = daemon.status()
    finally:
        daemon.shutdown(drain=False)

    latencies.sort()
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    report.record("soak_predictions_per_s", flows_served / elapsed)
    report.record("soak_query_p50_per_s", 1.0 / p50)
    report.record("soak_query_p99_per_s", 1.0 / p99)
    live_swaps = status.total_swaps - warm_swaps
    report.meta["soak_shards"] = str(n_shards)
    report.meta["soak_batches"] = str(len(latencies))
    report.meta["soak_live_hours"] = str(live_hours)
    report.meta["soak_live_swaps"] = str(live_swaps)
    report.meta["soak_max_staleness_hours"] = str(
        status.max_staleness_hours)
    print(f"  sustained serve:    {flows_served / elapsed:8.0f} flows/s "
          f"({len(latencies)} batches over {elapsed:.1f}s)")
    print(f"  query latency:      p50 {p50 * 1e3:.2f} ms, "
          f"p99 {p99 * 1e3:.2f} ms "
          f"({live_swaps} hot swaps during measurement)")


def run_bench(
    profile: str = "full",
    seed: int = 1,
    out_dir: str = DEFAULT_BASELINE_DIR,
    tolerance: float = 0.30,
    workers: Optional[int] = None,
    compare: bool = True,
    save: bool = True,
    rounds: int = 3,
    date: Optional[str] = None,
    suite: str = "all",
    trace_out: Optional[str] = None,
) -> int:
    """Run the benchmark suite; returns a process exit code."""
    if suite not in SUITES:
        raise SystemExit(
            f"repro bench: --suite must be one of {', '.join(SUITES)}, "
            f"got {suite!r}")
    if compare and not 0.0 <= tolerance < 1.0:
        raise SystemExit(
            f"repro bench: --tolerance must be in [0, 1), got {tolerance}")
    n_workers = workers or default_workers()
    report = BenchReport(
        date=date or datetime.date.today().isoformat(),
        profile=profile, meta=default_meta())
    report.meta["workers"] = str(n_workers)
    report.meta["seed"] = str(seed)
    # benches run instrumented: the report carries the run's metrics
    # snapshot in its meta, so a baseline documents cache efficiency and
    # stage activity alongside the throughput numbers it defends
    obs.enable(fresh=True)
    if suite in ("all", "pipeline"):
        with obs.span("bench.pipeline"):
            _bench_pipeline(report, profile, seed, n_workers, rounds)
    if suite in ("all", "serving"):
        with obs.span("bench.serving"):
            _bench_serving(report, profile, seed, rounds)
    if suite in ("all", "lint"):
        with obs.span("bench.lint"):
            _bench_lint(report, rounds)
            _bench_lint_passes(report, rounds)
    if suite in ("all", "store"):
        with obs.span("bench.store"):
            _bench_store(report, profile, seed, rounds)
    if suite in ("all", "bgp"):
        with obs.span("bench.bgp"):
            _bench_bgp(report, profile, seed, rounds)
    if suite in ("all", "soak"):
        with obs.span("bench.soak"):
            _bench_soak(report, profile, seed)
    report.meta["obs"] = json.dumps(
        obs.snapshot().to_json(), sort_keys=True, separators=(",", ":"))
    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(obs.tracer().to_json(), handle, indent=2)
            handle.write("\n")
        print(f"wrote trace to {trace_out}")

    exit_code = 0
    if compare:
        baseline_path = find_baseline(out_dir, profile=profile,
                                      before=report.date)
        if baseline_path is None:
            print(f"no committed {profile!r} baseline under {out_dir}; "
                  "nothing to compare against")
        else:
            baseline = load_report(baseline_path)
            regressions = compare_reports(report, baseline, tolerance)
            print(f"compared against {baseline_path} "
                  f"(tolerance {tolerance:.0%}): "
                  f"{len(regressions)} regression(s)")
            for regression in regressions:
                print(f"  REGRESSION {regression}")
            if regressions:
                exit_code = 1
    if save:
        path = save_report(report, out_dir)
        print(f"wrote {path}")
    return exit_code
