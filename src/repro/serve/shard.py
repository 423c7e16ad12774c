"""One shard of hot-swappable model state.

A shard owns the rolling-window service state for the feature keys that
hash to it (:mod:`repro.serve.sharding`).  The serving requirement is
that queries never block on — and never observe — a retrain in
progress, while the retrain itself stays *incremental* (the service
mutates its exact model suite in place, so a reader holding the same
objects mid-retrain would see a half-updated model).

:class:`HotSwapShard` resolves that with a double buffer: two replicas
of the same :class:`~repro.core.service.TipsyService`, fed the same
per-shard stream in the same order (so they are bit-identical at every
quiescent point).  Each ingested hour is applied to the *offline*
replica first — including any day-boundary retrain — then one atomic
pointer assignment swaps it live, and finally the same hour is applied
to the now-offline ex-live replica.  Readers take the live pointer and
hold that replica's lock for the duration of one query:

* a reader that locked the old replica before a swap finishes its
  query on the *old* state (the writer waits for the replica lock
  before mutating it);
* a reader that read the pointer just before a swap but finds the
  replica locked by the writer's trailing ingest re-reads the pointer
  and moves to the new live replica instead of waiting out that ingest
  (and any retrain it carries);
* a reader arriving after the swap sees the *new* state;
* no interleaving exposes a half-retrained model — the old-or-new
  guarantee the lifecycle tests assert under a concurrent reader.

The price is double ingest work per shard, but the incremental retrain
is O(one day's delta) (``docs/benchmarking.md``), and shards divide the
window N ways — the daemon's total state is ~2x a single service's,
spread across worker processes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import (AbstractSet, Callable, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

from ..core.base import NO_LINKS, Prediction
from ..core.service import RestoreReport, ServiceConfig, TipsyService
from ..pipeline.records import AggRecord, FlowContext
from ..topology.wan import CloudWAN
from .health import ShardHealth, staleness_hours

_T = TypeVar("_T")

#: how long a reader waits on a replica lock before re-reading the live
#: pointer; the writer only ever holds the lock of a replica that is not
#: live, so a longer wait means the pointer moved under the reader
_RECHECK_S = 0.001


class HotSwapShard:
    """Double-buffered per-shard service state with atomic read swaps."""

    def __init__(self, shard_id: int, wan: CloudWAN,
                 config: Optional[ServiceConfig] = None):
        self.shard_id = shard_id
        config = config or ServiceConfig()
        self._replicas: Tuple[TipsyService, TipsyService] = (
            TipsyService(wan, config), TipsyService(wan, config))
        self._locks: Tuple[threading.Lock, threading.Lock] = (
            threading.Lock(), threading.Lock())
        # index of the reader-visible replica; plain attribute reads and
        # writes are atomic, which is all the swap needs
        self._live = 0
        self.swap_count = 0
        self.last_hour: Optional[int] = None

    # -- ingest (writer side) -------------------------------------------------

    def ingest_hour(self, hour: int, records: Sequence[AggRecord]) -> None:
        """Apply one hour to both replicas with a swap in between.

        The offline replica absorbs the hour (and any day-boundary
        retrain) first, under its own lock — readers are on the live
        replica and never wait.  The pointer swap is one atomic
        assignment; the trailing application brings the ex-live replica
        up to date so the next hour finds it ready to become live.
        """
        offline = 1 - self._live
        with self._locks[offline]:
            self._replicas[offline].ingest_hour(hour, records)
        self._live = offline
        self.swap_count += 1
        trailing = 1 - offline
        with self._locks[trailing]:
            self._replicas[trailing].ingest_hour(hour, records)
        self.last_hour = hour

    # -- queries (reader side) ------------------------------------------------

    def _on_live(self, read: Callable[[TipsyService], _T]) -> _T:
        """Run ``read`` on the live replica under that replica's lock.

        The writer holds a replica's lock only while that replica is
        offline, so a reader that cannot take the lock promptly, or
        finds the pointer moved once it has the lock, re-reads the
        pointer rather than queueing behind a trailing ingest.
        """
        while True:
            live = self._live
            lock = self._locks[live]
            if not lock.acquire(timeout=_RECHECK_S):
                continue
            try:
                if self._live == live:
                    return read(self._replicas[live])
            finally:
                lock.release()

    def predict_batch(self, contexts: Sequence[FlowContext],
                      k: Optional[int] = None,
                      unavailable: AbstractSet[int] = NO_LINKS,
                      ) -> List[List[Prediction]]:
        """Batched predictions from the live replica (old-or-new only)."""
        return self._on_live(
            lambda service: service.predict_batch(contexts, k, unavailable))

    def withdrawal_predictions(
        self,
        contexts: Sequence[FlowContext],
        k: Optional[int] = None,
        withdrawn: AbstractSet[int] = NO_LINKS,
    ) -> List[Tuple[Prediction, ...]]:
        """Per-context withdrawal-model answers from the live replica."""
        return self._on_live(
            lambda service: service.withdrawal_predictions(
                contexts, k, withdrawn))

    # -- lifecycle ------------------------------------------------------------

    def snapshot(self, directory: Union[str, Path]) -> None:
        """Checkpoint the live replica's state (``docs/storage.md``)."""
        self._on_live(lambda service: service.snapshot(directory))

    @classmethod
    def restore(cls, directory: Union[str, Path], shard_id: int,
                wan: CloudWAN) -> "HotSwapShard":
        """Resume a shard from a checkpoint directory.

        Both replicas are restored independently from the same segments;
        restore is deterministic, so they come back bit-identical — the
        same quiescent state an uninterrupted shard would hold.
        """
        first = TipsyService.restore(directory, wan)
        second = TipsyService.restore(directory, wan)
        shard = cls(shard_id, wan, first.config)
        shard._replicas = (first, second)
        if first._last_hour is not None:
            shard.last_hour = first._last_hour
        return shard

    @property
    def restore_report(self) -> Optional[RestoreReport]:
        """The live replica's restore report (None unless restored)."""
        return self._replicas[self._live].restore_report

    def health(self, ingest_queue_depth: int = 0) -> ShardHealth:
        """A point-in-time health sample of the live replica."""
        service, trained, stats = self._on_live(
            lambda live: (live, live.trained_days, live.cache_stats()))
        latest = max(trained) if trained else None
        return ShardHealth(
            shard_id=self.shard_id,
            last_hour=self.last_hour,
            trained_days=len(trained),
            latest_trained_day=latest,
            staleness_hours=staleness_hours(self.last_hour, latest),
            swap_count=self.swap_count,
            retrain_count=service.retrain_count,
            ready=bool(trained),
            ingest_queue_depth=ingest_queue_depth,
            memo_entries=stats["memo_entries"],
            memo_hits=stats["memo_hits"],
            memo_misses=stats["memo_misses"],
        )
