"""The three end-to-end workloads, driven through the public API.

* ``paper_eval`` — the §5 reproduction: one cold
  ``EvaluationRunner.run(PAPER_WINDOW)`` (21-day train, 7-day test) over
  the full outage schedule of a medium world.
* ``window_sweep`` — Appendix B style: ``figures.fig11_outage_sensitivity``
  over overlapping windows through one warm simulator, so the expansion
  layer re-resolves hours it has already resolved.
* ``serve_soak`` — the operator path: a 2-shard process daemon ingests
  8 warm days, then answers an open-loop Poisson stream of
  ``predict_batch`` and ``what_if`` queries while a feeder thread paces
  49 live hours (three day-boundary retrains and hot swaps) into it.

The world is pinned (``WORLD_SEED``); the run seed draws the IPFIX
sampling of the telemetry, the query arrivals and the probe questions.
World-to-world cost differs by more than the benchmark's bounds
(36-50 s for one paper evaluation across six world seeds), so drawing
the world from the run seed would measure the world, not the program.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bgp.simulator import IngressSimulator
from repro.bgp.state import AdvertisementState
from repro.core.historical import HistoricalModel
from repro.core.service import ServiceConfig, TipsyService
from repro.core.training import CountsAccumulator
from repro.experiments import (EvaluationRunner, Scenario, ScenarioParams,
                               WindowSpec, figures)
from repro.experiments.benchlib import PAPER_WINDOW
from repro.obs import runtime as obs
from repro.serve import DaemonConfig, ServeDaemon
from repro.serve import daemon as daemon_module
from repro.telemetry.ipfix import IpfixExporter

from tracing import LayerClock, Patches, calibrate_span_cost, format_table
from verify import ReferenceBook, Verdict, digest, is_fraction

_now = time.perf_counter

#: the pinned world (the seed ``repro bench`` uses); its share working
#: set exceeds the simulator's 262,144-slot share cache on every workload
WORLD_SEED = 1
#: world set-ups timed before and again after each offline repetition;
#: ``setup_s`` is their median, so a slow second of machine noise at
#: either end of the run does not set it
SETUP_REPEATS = 3

HEADLINE_BLOCKS = ("overall", "outages_all", "outages_seen",
                   "outages_unseen")
HEADLINE_MODELS = ("Hist_AP/AL/A", "Hist_AL+G")
KS = (1, 2, 3)


@dataclass(frozen=True)
class SweepShape:
    horizon_days: int
    n_windows: int
    train_days: int


@dataclass(frozen=True)
class SoakShape:
    horizon_days: int = 11
    warm_days: int = 8
    #: the first hours of days 8, 9 and 10 fall inside the live phase, so
    #: three day-boundary retrains and their hot swaps race the queries
    live_hours: int = 49
    n_shards: int = 2
    window_days: int = 7
    rate_per_s: float = 200.0
    what_if_share: float = 0.25
    pareto_alpha: float = 1.2
    pareto_xm: float = 4.0
    batch_cap: int = 512
    n_probes: int = 8
    probe_batch: int = 64
    #: a query whose latency exceeds this counts as timed out (failed)
    timeout_s: float = 10.0
    #: service time above which a query counts as a stall
    stall_s: float = 0.05


#: per world size: (paper window, sweep shape)
SHAPES: Dict[str, Tuple[WindowSpec, SweepShape]] = {
    "medium": (PAPER_WINDOW, SweepShape(horizon_days=9, n_windows=3,
                                        train_days=5)),
    "small": (WindowSpec(train_start_day=0, train_days=7, test_days=2),
              SweepShape(horizon_days=8, n_windows=2, train_days=4)),
}
SOAK = SoakShape()


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    verdicts: List[Verdict] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- shared helpers -----------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank q-quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest value (the maximum below 11 samples).  On the
    serving workload it sits on the retrain stall itself, where a p99
    sits on the stall's queue and moves with how many queries it caught.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def build_world(size: str, horizon_days: int, seed: int) -> Scenario:
    """The pinned world, with IPFIX sampling drawn from ``seed``."""
    factory = (ScenarioParams.medium if size == "medium"
               else ScenarioParams.small)
    scenario = Scenario(factory(WORLD_SEED, horizon_days=horizon_days))
    scenario.exporter = IpfixExporter(
        sampling_rate=scenario.params.sampling_rate, seed=seed)
    return scenario


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """The traced run's patches, layer clock and bookkeeping counters."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.patches = Patches()
        self.stream_hours = 0
        self.expansions = 0
        self.predict_calls = 0
        self.span_cost_s = calibrate_span_cost()
        self._share_keys: List[np.ndarray] = []
        self._flows: Dict[int, Tuple[Scenario, np.ndarray, np.ndarray]] = {}
        self._drift: Dict[Tuple[int, int], np.ndarray] = {}
        self._dest_states: Dict[Tuple[Any, Any], int] = {}

    def note_expansion(self, scenario: Scenario, state: AdvertisementState,
                       day: int) -> None:
        """Record the share keys one expansion resolves.

        A key is what ``IngressSimulator.resolve_shares`` caches on: the
        flow's (source AS, metro, prefix, destination), the destination's
        removal and prepend keys under ``state``, and the flow's drift
        state on ``day``.  The distinct keys over a run are the share
        working set, a property of the workload rather than of the cache.
        """
        start = _now()
        cached = self._flows.get(id(scenario))
        if cached is None or cached[0] is not scenario:
            static: Dict[Tuple[Any, ...], int] = {}
            flows = scenario.traffic.flows
            flow_ids = np.array(
                [static.setdefault((f.src_asn, f.src_metro, f.src_prefix_id,
                                    f.dest_prefix_id), len(static))
                 for f in flows], dtype=np.int64)
            dests = np.array([f.dest_prefix_id for f in flows],
                             dtype=np.int64)
            cached = (scenario, flow_ids, dests)
            self._flows[id(scenario)] = cached
        _scenario, flow_ids, dests = cached
        drift = self._drift.get((id(scenario), day))
        if drift is None:
            simulator = scenario.simulator
            drift = np.array(
                [2 * minor + major for minor, major in (
                    simulator.drift_state(f.src_asn, f.src_prefix_id,
                                          f.dest_prefix_id, day)
                    for f in scenario.traffic.flows)], dtype=np.int64)
            self._drift[(id(scenario), day)] = drift
        unique = np.unique(dests)
        state_ids = np.array(
            [self._dest_states.setdefault(
                (state.removal_key(d), state.prepend_key(d)),
                len(self._dest_states)) for d in unique.tolist()],
            dtype=np.int64)
        dest_ids = state_ids[np.searchsorted(unique, dests)]
        self._share_keys.append((dest_ids << 26) | (flow_ids << 2) | drift)
        self.clock.charge("trace.bookkeeping", _now() - start)

    def share_working_set(self) -> int:
        if not self._share_keys:
            return 0
        return int(np.unique(np.concatenate(self._share_keys)).size)

    def spans(self) -> int:
        return sum(calls for layer, (calls, _b, _s)
                   in self.clock.totals().items()
                   if layer != "trace.bookkeeping")

    def overhead_s(self) -> float:
        """Estimated cost of tracing: span cost plus bookkeeping time."""
        return (self.spans() * self.span_cost_s
                + self.clock.busy("trace.bookkeeping"))


def patch_stream(patches: Patches, hour_times: Optional[List[float]],
                 tracer: Optional[Tracer]) -> None:
    """Time each hour ``Scenario.stream`` yields; count expansions."""
    original = Scenario.stream
    clock = tracer.clock if tracer is not None else None

    def stream(self: Scenario, start_hour: int, end_hour: int,
               state: Optional[AdvertisementState] = None,
               apply_outages: bool = True) -> Any:
        if tracer is not None and state is None:
            # the state stream() would create itself, held here so each
            # expansion's share keys can be read off it
            state = (self.state_at(start_hour) if apply_outages
                     else AdvertisementState(self.wan))
        source = original(self, start_hour, end_hour, state, apply_outages)
        previous_rows = None
        while True:
            if clock is not None:
                clock.enter()
            start = _now()
            try:
                cols = next(source)
            except StopIteration:
                if clock is not None:
                    clock.leave("scenario.stream")
                return
            except BaseException:
                if clock is not None:
                    clock.leave("scenario.stream")
                raise
            elapsed = _now() - start
            if clock is not None:
                clock.leave("scenario.stream")
            if hour_times is not None:
                hour_times.append(elapsed)
            if tracer is not None:
                tracer.stream_hours += 1
                if cols.flow_rows is not previous_rows:
                    tracer.expansions += 1
                    tracer.note_expansion(self, state, cols.hour // 24)
                previous_rows = cols.flow_rows
            yield cols

    patches.replace(Scenario, "stream", stream)


def patch_timer(patches: Patches, owner: object, name: str,
                times: List[float]) -> None:
    """Append the duration of every ``owner.name`` call to ``times``."""
    original = getattr(owner, name)

    def timed(*args: Any, **kwargs: Any) -> Any:
        start = _now()
        try:
            return original(*args, **kwargs)
        finally:
            times.append(_now() - start)

    patches.replace(owner, name, timed)


def patch_offline_layers(tracer: Tracer) -> None:
    """Spans around the expansion, runner and model layers."""
    clock, patches = tracer.clock, tracer.patches
    for name in ("run", "collect_window", "counts_from", "build_models"):
        patches.wrap(EvaluationRunner, name, clock, f"runner.{name}")
    patches.wrap(CountsAccumulator, "fit", clock, "core.fit")

    predict = HistoricalModel.predict

    def counted_predict(self: HistoricalModel, *args: Any,
                        **kwargs: Any) -> Any:
        tracer.predict_calls += 1
        return predict(self, *args, **kwargs)

    patches.replace(HistoricalModel, "predict", counted_predict)

    patches.wrap(IngressSimulator, "resolve_shares", clock,
                 "simulator.resolve_shares")


def simulator_layer(tracer: Optional[Tracer],
                    scenario: Scenario) -> Dict[str, float]:
    stats = scenario.simulator.cache_stats()
    hits, misses = stats["share_hits"], stats["share_misses"]
    return {
        "simulator.share_hits": hits,
        "simulator.share_misses": misses,
        "simulator.share_evictions": stats["share_evictions"],
        "simulator.share_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "simulator.share_capacity":
            scenario.simulator.params.share_cache_size,
        "simulator.share_working_set":
            tracer.share_working_set() if tracer else 0,
        "simulator.table_full_rebuilds": stats["table_full_rebuilds"],
        "simulator.table_incremental_updates":
            stats["table_incremental_updates"],
    }


PER_LAYER_UNITS: Dict[str, str] = {
    "scenario.stream_hours": "count",
    "scenario.stream_busy_s": "s",
    "scenario.expansions": "count",
    "simulator.resolve_calls": "count",
    "simulator.resolve_busy_s": "s",
    "simulator.share_hits": "count",
    "simulator.share_misses": "count",
    "simulator.share_evictions": "count",
    "simulator.share_hit_ratio": "ratio",
    "simulator.share_working_set": "count",
    "simulator.share_capacity": "count",
    "simulator.table_full_rebuilds": "count",
    "simulator.table_incremental_updates": "count",
    "runner.collect_window_s": "s",
    "runner.counts_from_s": "s",
    "runner.build_models_s": "s",
    "runner.score_s": "s",
    "runner.windows_collected": "count",
    "core.fit_s": "s",
    "core.predict_calls": "count",
    "serve.predict_calls": "count",
    "serve.predict_busy_s": "s",
    "serve.what_if_calls": "count",
    "serve.what_if_busy_s": "s",
    "serve.ingest_calls": "count",
    "serve.ingest_busy_s": "s",
    "serve.drain_wait_s": "s",
    "serve.swaps": "count",
    "serve.stalls": "count",
    "serve.gen_late_p99_s": "s",
    "serve.scatter_s": "s",
    "serve.transport_wait_s": "s",
    "serve.predict_p50_s": "s",
    "serve.predict_p99_s": "s",
    "serve.what_if_p50_s": "s",
    "serve.what_if_p99_s": "s",
    "shard.model_s": "s",
    "shard.retrain_count": "count",
    "shard.retrain_s": "s",
    "shard.ingest_s": "s",
    "shard.memo_hit_ratio": "ratio",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_coverage": "ratio",
}

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "p50_s": "s",
    "tail_s": "s",
}


def layer_rows(totals: Dict[str, Tuple[int, float, float]]
               ) -> List[Tuple[str, int, float, float]]:
    return [(layer, calls, busy, self_s)
            for layer, (calls, busy, self_s)
            in sorted(totals.items(), key=lambda item: -item[1][2])]


def subtract(after: Dict[str, Tuple[int, float, float]],
             before: Dict[str, Tuple[int, float, float]]
             ) -> Dict[str, Tuple[int, float, float]]:
    out = {}
    for layer, (calls, busy, self_s) in after.items():
        c0, b0, s0 = before.get(layer, (0, 0.0, 0.0))
        if calls - c0:
            out[layer] = (calls - c0, busy - b0, self_s - s0)
    return out


def finish_trace(outcome: Outcome, tracer: Tracer, title: str,
                 timed: Dict[str, Tuple[int, float, float]],
                 timed_s: float, layer: Dict[str, float]) -> None:
    """Per-layer metrics and the attribution table of a traced run.

    Layer metrics cover the whole run (``serve_soak`` streams its
    telemetry in set-up); the table and the self-time coverage cover
    ``timed``, the spans of the timed phase.
    """
    totals = tracer.clock.totals()

    def busy(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    accounted = sum(self_s for _c, _b, self_s in timed.values())
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update({
        "scenario.stream_hours": tracer.stream_hours,
        "scenario.stream_busy_s": busy("scenario.stream"),
        "scenario.expansions": tracer.expansions,
        "simulator.resolve_calls": calls("simulator.resolve_shares"),
        "simulator.resolve_busy_s": busy("simulator.resolve_shares"),
        "runner.collect_window_s": busy("runner.collect_window"),
        "runner.counts_from_s": busy("runner.counts_from"),
        "runner.build_models_s": busy("runner.build_models"),
        "runner.score_s": totals.get("runner.run", (0, 0.0, 0.0))[2],
        "runner.windows_collected": calls("runner.collect_window"),
        "core.fit_s": busy("core.fit"),
        "core.predict_calls": tracer.predict_calls,
        "trace.wall_s": timed_s,
        "trace.overhead_s": tracer.overhead_s(),
        "trace.self_coverage": accounted / timed_s if timed_s else 0.0,
    })
    values.update(layer)
    for name, unit in PER_LAYER_UNITS.items():
        outcome.put(name, values[name], unit)
    outcome.lines.append(format_table(title, layer_rows(timed), timed_s))
    working_set = values["simulator.share_working_set"]
    capacity = values["simulator.share_capacity"]
    outcome.lines.append(
        f"  share cache: {values['simulator.share_hits']:.0f} hits / "
        f"{values['simulator.share_misses']:.0f} misses = hit ratio "
        f"{values['simulator.share_hit_ratio']:.3f}; "
        f"{values['simulator.share_evictions']:.0f} evictions; working set "
        f"{working_set:.0f} keys vs capacity {capacity:.0f} "
        f"({working_set / capacity if capacity > 0 else 0:.2f}x); "
        f"{values['simulator.resolve_calls']:.0f} resolve calls")
    outcome.lines.append(
        f"  self times cover {100 * values['trace.self_coverage']:.1f}% of "
        f"the {timed_s:.2f}s timed phase; tracing overhead ~"
        f"{values['trace.overhead_s']:.2f}s ({tracer.spans()} spans at "
        f"{tracer.span_cost_s * 1e9:.0f} ns + bookkeeping); measured "
        "overhead = trace.wall_s - untraced wall_s")


# -- offline workloads --------------------------------------------------------


def _offline(name: str, size: str, seed: int, seconds: float,
             tracer: Optional[Tracer], book: ReferenceBook, record: bool,
             horizon_days: int, unit: str,
             operation: Callable[[Scenario], Any],
             fingerprint_of: Callable[[Any], Any],
             invariants: Callable[[Any], List[str]]) -> Outcome:
    """Repeat a cold set-up + timed operation while ``seconds`` allow.

    ``unit`` is what ``p50_s``/``tail_s`` time: each streamed ``hour``,
    or each evaluation ``window`` (``EvaluationRunner.run`` call).
    """
    outcome = Outcome()
    setups: List[float] = []
    walls: List[float] = []
    latencies: List[float] = []
    cpu = 0.0
    layer: Dict[str, float] = {}
    patches = tracer.patches if tracer is not None else Patches()
    patch_stream(patches, latencies if unit == "hour" else None, tracer)
    if unit == "window":
        patch_timer(patches, EvaluationRunner, "run", latencies)
    if tracer is not None:
        patch_offline_layers(tracer)
    began = _now()
    try:
        while True:
            for _ in range(SETUP_REPEATS):
                start = _now()
                scenario = build_world(size, horizon_days, seed)
                setups.append(_now() - start)
            cpu_start = cpu_seconds()
            start = _now()
            result = operation(scenario)
            wall = _now() - start
            cpu += cpu_seconds() - cpu_start
            walls.append(wall)
            outcome.attempted += 1
            fingerprint = fingerprint_of(result)
            problems = invariants(fingerprint)
            if record and not problems:
                verdict = book.record(name, size, seed, fingerprint)
            else:
                verdict = book.check(name, size, seed, fingerprint)
                verdict.mismatches = problems + verdict.mismatches
                if problems:
                    verdict.status = "failed"
            outcome.verdicts.append(verdict)
            if verdict.status == "failed":
                outcome.failed += 1
            layer = simulator_layer(tracer, scenario)
            del scenario, result
            for _ in range(SETUP_REPEATS):
                start = _now()
                build_world(size, horizon_days, seed)
                setups.append(_now() - start)
            # another cold repetition only if it fits in ``seconds``; a
            # traced run keeps one, so its counters describe one world
            if (tracer is not None or _now() - began + wall
                    + setups[-1] * 2 * SETUP_REPEATS > seconds):
                break
    finally:
        patches.undo()
    outcome.put("setup_s", statistics.median(setups), "s")
    outcome.put("wall_s", statistics.median(walls), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.put("p50_s", percentile(latencies, 0.50), "s")
    outcome.put("tail_s", tail(latencies), "s")
    outcome.lines.append(
        f"{name}: {len(walls)} cold run(s), wall "
        f"{statistics.median(walls):.2f}s, set-up "
        f"{statistics.median(setups):.3f}s (median of {len(setups)}), "
        f"{unit} latency p50 {percentile(latencies, 0.5) * 1e3:.2f}ms / "
        f"tail {tail(latencies) * 1e3:.2f}ms over "
        f"{len(latencies)} {unit}s, peak RSS "
        f"{peak_rss_mb():.0f} MB")
    if tracer is not None:
        layer["process.cpu_s"] = cpu
        finish_trace(outcome, tracer, f"{name} per-layer attribution",
                     tracer.clock.totals(), sum(walls), layer)
    return outcome


def paper_fingerprint(result: Any) -> Dict[str, Dict[str, List[float]]]:
    out: Dict[str, Dict[str, List[float]]] = {}
    for block_name in HEADLINE_BLOCKS:
        block = getattr(result, block_name)
        out[block_name] = {
            model: [block.rows[model][k] for k in KS]
            for model in HEADLINE_MODELS if model in block.rows}
    return out


def paper_invariants(fingerprint: Dict[str, Dict[str, List[float]]]
                     ) -> List[str]:
    problems = []
    for block_name in HEADLINE_BLOCKS:
        for model in HEADLINE_MODELS:
            values = fingerprint.get(block_name, {}).get(model)
            if values is None or len(values) != len(KS):
                problems.append(f"{block_name}/{model}: missing")
            elif not all(is_fraction(v) for v in values):
                problems.append(f"{block_name}/{model}: {values} not in "
                                "[0, 1]")
    return problems


def run_paper_eval(size: str, seed: int, seconds: float,
                   tracer: Optional[Tracer], book: ReferenceBook,
                   record: bool) -> Outcome:
    window = SHAPES[size][0]
    horizon = window.train_start_day + window.train_days + window.test_days
    return _offline(
        "paper_eval", size, seed, seconds, tracer, book, record, horizon,
        "hour", lambda scenario: EvaluationRunner(scenario).run(window),
        paper_fingerprint, paper_invariants)


def run_window_sweep(size: str, seed: int, seconds: float,
                     tracer: Optional[Tracer], book: ReferenceBook,
                     record: bool) -> Outcome:
    shape = SHAPES[size][1]

    def invariants(fingerprint: Dict[str, List[float]]) -> List[str]:
        problems = []
        if len(fingerprint.get("overall", [])) != shape.n_windows:
            problems.append(f"overall: {len(fingerprint.get('overall', []))}"
                            f" windows scored, expected {shape.n_windows}")
        for key, values in fingerprint.items():
            if not all(is_fraction(v) for v in values):
                problems.append(f"{key}: {values} not in [0, 1]")
        return problems

    return _offline(
        "window_sweep", size, seed, seconds, tracer, book, record,
        shape.horizon_days, "window",
        lambda scenario: figures.fig11_outage_sensitivity(
            scenario, n_windows=shape.n_windows,
            train_days=shape.train_days),
        lambda result: {key: list(values)
                        for key, values in sorted(result.items())},
        invariants)


# -- serving workload ---------------------------------------------------------


@dataclass(frozen=True)
class Query:
    due_s: float
    kind: str  # "predict" | "what_if"
    start: int
    size: int
    link_index: int


def query_plan(rng: np.random.Generator, duration_s: float,
               n_contexts: int, n_links: int,
               shape: SoakShape) -> List[Query]:
    """Open-loop Poisson arrivals with Pareto batch sizes."""
    plan: List[Query] = []
    due = 0.0
    while True:
        due += float(rng.exponential(1.0 / shape.rate_per_s))
        if due >= duration_s:
            return plan
        kind = "what_if" if rng.random() < shape.what_if_share else "predict"
        u = max(float(rng.random()), 1e-9)
        size = min(shape.batch_cap,
                   max(1, int(shape.pareto_xm * u ** (-1.0
                                                      / shape.pareto_alpha))))
        plan.append(Query(due, kind, int(rng.integers(n_contexts)), size,
                          int(rng.integers(n_links))))


def predict_problems(answers: Any, n: int, links: frozenset,
                     unavailable: frozenset, k: int) -> List[str]:
    if len(answers) != n:
        return [f"{len(answers)} answers for {n} flows"]
    for answer in answers:
        if len(answer) > k:
            return [f"{len(answer)} predictions for k={k}"]
        for prediction in answer:
            if (prediction.link_id not in links
                    or prediction.link_id in unavailable
                    or not prediction.score >= 0.0):
                return [f"bad prediction {prediction!r}"]
    return []


def what_if_problems(spill: Dict[int, float], total_bytes: float,
                     links: frozenset, withdrawn: frozenset) -> List[str]:
    spilled = math.fsum(spill.values())
    if not math.isclose(spilled, total_bytes, rel_tol=1e-9):
        return [f"spill {spilled!r} does not conserve {total_bytes!r} bytes"]
    for link_id in spill:
        if link_id != -1 and (link_id not in links or link_id in withdrawn):
            return [f"spill onto link {link_id}"]
    return []


def canonical_predictions(answers: Any) -> List[List[List[float]]]:
    return [[[p.link_id, p.score] for p in answer] for answer in answers]


def patch_serve_layers(tracer: Tracer) -> None:
    """Parent-side spans, plus shard-side timings shipped through obs.

    Shard workers are forked from this process after the patches are in
    place, so the wrapped service methods run inside them and report
    through the obs snapshot deltas ``ServeDaemon.status()`` merges.
    """
    clock, patches = tracer.clock, tracer.patches
    for name in ("predict_batch", "what_if", "ingest_hour", "drain"):
        patches.wrap(ServeDaemon, name, clock, f"serve.{name}")
    for name in ("split_indices", "group_flows"):
        patches.wrap(daemon_module, name, clock, "serve.scatter")
    patches.wrap(daemon_module, "split_records", clock,
                 "serve.split_records")
    for name in ("ingest_hour", "withdrawal_predictions"):
        original = getattr(TipsyService, name)

        def observed(self: TipsyService, *args: Any,
                     _original: Callable[..., Any] = original,
                     _series: str = f"e2ebench.service.{name}.seconds",
                     **kwargs: Any) -> Any:
            start = _now()
            try:
                return _original(self, *args, **kwargs)
            finally:
                obs.observe(_series, _now() - start)

        patches.replace(TipsyService, name, observed)


@dataclass
class LiveResult:
    """What the live phase observed."""

    latencies: Dict[str, List[float]]
    late: List[float]
    stalls: int
    failures: List[str]
    seconds: float


def live_phase(daemon: ServeDaemon, plan: List[Query], hourly: List[Any],
               live_hours: range, pace_s: float, contexts: Any,
               link_ids: List[int], flow_bytes: Any,
               shape: SoakShape) -> LiveResult:
    """Feed ``live_hours`` on a paced thread while sending ``plan``.

    Queries go out from this thread at their due times (open loop);
    latency counts from the due time, so a query stuck behind a stall
    also charges the wait to every query due meanwhile.
    """
    live_start = _now() + 0.05
    feed_errors: List[str] = []

    def feed() -> None:
        for index, hour in enumerate(live_hours):
            delay = live_start + index * pace_s - _now()
            if delay > 0:
                time.sleep(delay)
            try:
                daemon.ingest_hour(hour, hourly[hour])
            except Exception as error:  # reported as a failure below
                feed_errors.append(f"ingest of hour {hour}: {error!r}")
                return

    links = frozenset(link_ids)
    k = ServiceConfig().prediction_k
    n = len(contexts)
    result = LiveResult({"predict": [], "what_if": []}, [], 0, [], 0.0)
    feeder = threading.Thread(target=feed, name="e2ebench-feed")
    feeder.start()
    try:
        for query in plan:
            due = live_start + query.due_s
            delay = due - _now()
            if delay > 0:
                time.sleep(delay)
            sent = _now()
            rows = [(query.start + j) % n for j in range(query.size)]
            batch = [contexts[row] for row in rows]
            try:
                if query.kind == "predict":
                    answers = daemon.predict_batch(batch)
                    done = _now()
                    problems = predict_problems(answers, len(batch), links,
                                                frozenset(), k)
                else:
                    withdrawn = frozenset((link_ids[query.link_index],))
                    flows = [(contexts[row], float(flow_bytes[row]))
                             for row in rows]
                    spill = daemon.what_if(flows, withdrawn)
                    done = _now()
                    problems = what_if_problems(
                        spill, math.fsum(b for _c, b in flows), links,
                        withdrawn)
            except Exception as error:  # a failed query, counted
                done = _now()
                problems = [f"raised {error!r}"]
            latency = done - due
            if latency > shape.timeout_s:
                problems.append(f"timed out after {latency:.1f}s")
            if problems:
                result.failures.append(
                    f"{query.kind}@{query.due_s:.3f}s: " + "; ".join(problems))
            else:
                result.latencies[query.kind].append(latency)
            result.late.append(sent - due)
            if done - sent > shape.stall_s:
                result.stalls += 1
    finally:
        feeder.join()
    result.seconds = _now() - live_start
    result.failures.extend(feed_errors)
    return result


def probe_verdict(book: ReferenceBook, size: str, seed: int, record: bool,
                  probes: List[Tuple[Any, List[str]]]) -> Tuple[Verdict, int]:
    """Check probe answers against the stored digests; (verdict, failed)."""
    fingerprint = {"probes": [digest(answer) for answer, _p in probes]}
    bad = {index for index, (_a, problems) in enumerate(probes) if problems}
    mismatches = [problem for _a, problems in probes for problem in problems]
    expected = book.lookup("serve_soak", size, seed)
    if record and not bad:
        verdict = book.record("serve_soak", size, seed, fingerprint)
    elif expected is None:
        verdict = Verdict("unverified")
    else:
        stored = expected.get("probes", [])
        for index, answer in enumerate(fingerprint["probes"]):
            if index >= len(stored) or stored[index] != answer:
                bad.add(index)
                mismatches.append(f"probe {index}: digest {answer} != "
                                  f"reference {stored[index:index + 1]}")
        verdict = Verdict("passed")
    verdict.mismatches = mismatches
    if bad:
        verdict.status = "failed"
    return verdict, len(bad)


def run_serve_soak(size: str, seed: int, seconds: float,
                   tracer: Optional[Tracer], book: ReferenceBook,
                   record: bool) -> Outcome:
    shape = SOAK
    outcome = Outcome()
    patches = tracer.patches if tracer is not None else Patches()
    if tracer is not None:
        obs.enable(fresh=True)
        patch_stream(patches, None, tracer)
        patch_offline_layers(tracer)
        patch_serve_layers(tracer)
    # independent streams, so the probes and their references do not
    # depend on how many queries --seconds lets the plan draw
    plan_rng, bytes_rng, probe_rng = (
        np.random.default_rng([seed, stream]) for stream in range(3))
    daemon: Optional[ServeDaemon] = None
    try:
        start = _now()
        scenario = build_world(size, shape.horizon_days, seed)
        hourly = [scenario.agg_records_for(cols)
                  for cols in scenario.stream(
                      0, shape.warm_days * 24 + shape.live_hours)]
        daemon = ServeDaemon(scenario.wan, DaemonConfig(
            n_shards=shape.n_shards, workers="process",
            service=ServiceConfig(training_window_days=shape.window_days)))
        daemon.start()
        setup_s = _now() - start
        setup_totals = tracer.clock.totals() if tracer else {}
        layer = simulator_layer(tracer, scenario)

        contexts = scenario.flow_contexts
        link_ids = sorted(scenario.wan.link_ids)
        flow_bytes = bytes_rng.lognormal(mean=13.0, sigma=1.0,
                                         size=len(contexts))
        warm_hours = shape.warm_days * 24
        pace_s = seconds / shape.live_hours
        plan = query_plan(plan_rng, seconds, len(contexts), len(link_ids),
                          shape)

        cpu_start = cpu_seconds()
        timed_start = _now()
        for hour in range(warm_hours):
            daemon.ingest_hour(hour, hourly[hour])
        daemon.drain()
        ingest_s = _now() - timed_start
        swaps_before = daemon.status().total_swaps
        live = live_phase(
            daemon, plan, hourly,
            range(warm_hours, warm_hours + shape.live_hours), pace_s,
            contexts, link_ids, flow_bytes, shape)
        daemon.drain()
        timed_s = _now() - timed_start
        status = daemon.status()
        probes = probe_answers(daemon, probe_rng, contexts, link_ids,
                               flow_bytes, shape)
    finally:
        if daemon is not None:
            daemon.shutdown(drain=False)
        patches.undo()
    cpu = cpu_seconds() - cpu_start + cpu_seconds(resource.RUSAGE_CHILDREN)
    live_swaps = status.total_swaps - swaps_before
    memo_hits = sum(s.memo_hits for s in status.shards)
    memo_misses = sum(s.memo_misses for s in status.shards)

    verdict, bad_probes = probe_verdict(book, size, seed, record, probes)
    outcome.verdicts.append(verdict)
    outcome.attempted = len(plan) + len(probes)
    outcome.failed = len(live.failures) + bad_probes
    for failure in live.failures[:5]:
        outcome.lines.append(f"  failed: {failure}")

    latencies = live.latencies
    everything = latencies["predict"] + latencies["what_if"]
    shard_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    outcome.put("setup_s", setup_s, "s")
    outcome.put("wall_s", ingest_s, "s")
    outcome.put("peak_rss_mb", shard_rss, "MB")
    outcome.put("p50_s", percentile(everything, 0.5), "s")
    outcome.put("tail_s", tail(everything), "s")
    outcome.lines.append(
        f"serve_soak: set-up {setup_s:.2f}s (world + {len(hourly)}h "
        f"telemetry + {shape.n_shards} process shards); warm ingest "
        f"{warm_hours}h in {ingest_s:.2f}s = {warm_hours / ingest_s:.1f} "
        f"h/s; live {live.seconds:.1f}s, {shape.live_hours}h at "
        f"{pace_s:.3f}s/h, {live_swaps} swaps")
    for kind in ("predict", "what_if"):
        values = latencies[kind]
        outcome.lines.append(
            f"  {kind:<8} n={len(values):5d}  p50 "
            f"{percentile(values, 0.5) * 1e3:8.3f}ms  p99 "
            f"{percentile(values, 0.99) * 1e3:8.3f}ms  tail "
            f"{tail(values) * 1e3:8.3f}ms  max "
            f"{max(values, default=0.0) * 1e3:8.3f}ms (from due time)")
    outcome.lines.append(
        f"  offered {shape.rate_per_s:.0f} q/s open loop, {len(plan)} "
        f"queries, {live.stalls} stalls >{shape.stall_s * 1e3:.0f}ms, "
        f"generator late p99 {percentile(live.late, 0.99) * 1e3:.3f}ms; "
        f"shard peak RSS {shard_rss:.0f} MB, parent {peak_rss_mb():.0f} MB")
    if tracer is None:
        return outcome

    hist = obs.snapshot().histograms
    obs.reset()

    def hist_sum(name: str) -> float:
        data = hist.get(name)
        return data.total if data is not None else 0.0

    timed = subtract(tracer.clock.totals(), setup_totals)

    def busy(name: str) -> float:
        return timed.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return timed.get(name, (0, 0.0, 0.0))[0]

    model_s = (hist_sum("service.predict_batch.seconds")
               + hist_sum("e2ebench.service.withdrawal_predictions.seconds"))
    retrains = hist.get("service.retrain.seconds")
    query_s = busy("serve.predict_batch") + busy("serve.what_if")
    layer.update({
        "serve.predict_calls": calls("serve.predict_batch"),
        "serve.predict_busy_s": busy("serve.predict_batch"),
        "serve.what_if_calls": calls("serve.what_if"),
        "serve.what_if_busy_s": busy("serve.what_if"),
        "serve.ingest_calls": calls("serve.ingest_hour"),
        "serve.ingest_busy_s": busy("serve.ingest_hour"),
        "serve.drain_wait_s": busy("serve.drain"),
        "serve.swaps": live_swaps,
        "serve.stalls": live.stalls,
        "serve.gen_late_p99_s": percentile(live.late, 0.99),
        "serve.scatter_s": busy("serve.scatter"),
        "serve.transport_wait_s": max(
            0.0, query_s - busy("serve.scatter") - model_s),
        "serve.predict_p50_s": percentile(latencies["predict"], 0.5),
        "serve.predict_p99_s": percentile(latencies["predict"], 0.99),
        "serve.what_if_p50_s": percentile(latencies["what_if"], 0.5),
        "serve.what_if_p99_s": percentile(latencies["what_if"], 0.99),
        "shard.model_s": model_s,
        "shard.retrain_count": retrains.count if retrains else 0,
        "shard.retrain_s": retrains.total if retrains else 0.0,
        "shard.ingest_s": hist_sum("e2ebench.service.ingest_hour.seconds"),
        "shard.memo_hit_ratio": memo_hits / (memo_hits + memo_misses)
        if memo_hits + memo_misses else 0.0,
        "process.cpu_s": cpu,
        # comparable with the untraced run's wall_s
        "trace.wall_s": ingest_s,
    })
    outcome.lines.append(format_table(
        "serve_soak set-up per-layer attribution",
        layer_rows(setup_totals), setup_s))
    finish_trace(outcome, tracer,
                 "serve_soak timed-phase per-layer attribution "
                 "(parent process, both client threads)", timed, timed_s,
                 layer)
    outcome.lines.append(
        f"  shard side (both shards, both replicas): model {model_s:.3f}s, "
        f"ingest {layer['shard.ingest_s']:.3f}s incl. "
        f"{layer['shard.retrain_count']:.0f} retrains "
        f"{layer['shard.retrain_s']:.3f}s; memo hit ratio "
        f"{layer['shard.memo_hit_ratio']:.3f} ({memo_hits} hits / "
        f"{memo_misses} misses); transport "
        f"{layer['serve.transport_wait_s']:.3f}s = query {query_s:.3f}s - "
        f"scatter {layer['serve.scatter_s']:.3f}s - model")
    return outcome


def probe_answers(daemon: ServeDaemon, rng: np.random.Generator,
                  contexts: Any, link_ids: List[int], flow_bytes: Any,
                  shape: SoakShape) -> List[Tuple[Any, List[str]]]:
    """Fixed probe questions for the drained daemon: (answer, problems)."""
    links = frozenset(link_ids)
    n = len(contexts)
    out: List[Tuple[Any, List[str]]] = []
    for index in range(shape.n_probes):
        rows = [int(r) for r in rng.integers(n, size=shape.probe_batch)]
        batch = [contexts[r] for r in rows]
        link = frozenset((link_ids[int(rng.integers(len(link_ids)))],))
        try:
            if index % 2 == 0:
                k = 1 + index % 3
                unavailable = link if index % 4 == 2 else frozenset()
                answers = daemon.predict_batch(batch, k, unavailable)
                out.append((canonical_predictions(answers), predict_problems(
                    answers, len(batch), links, unavailable, k)))
            else:
                flows = [(contexts[r], float(flow_bytes[r])) for r in rows]
                spill = daemon.what_if(flows, link)
                out.append(([[key, spill[key]] for key in sorted(spill)],
                            what_if_problems(
                                spill, math.fsum(b for _c, b in flows),
                                links, link)))
        except Exception as error:  # a failed probe, counted
            out.append((None, [f"probe {index} raised {error!r}"]))
    return out


RUNNERS = {
    "paper_eval": run_paper_eval,
    "window_sweep": run_window_sweep,
    "serve_soak": run_serve_soak,
}
