"""HotSwapShard: equivalence, swap accounting, and the old-or-new
invariant under a concurrent reader while a retrain is in flight."""

import threading

import pytest

from repro.core.service import TipsyService
from repro.serve.shard import HotSwapShard

from .conftest import HOURS


class TestHotSwapEquivalence:
    def test_matches_single_service_after_full_stream(self, serve_world):
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        for hour, records in enumerate(serve_world.hourly):
            shard.ingest_hour(hour, records)
        contexts = serve_world.contexts[:300]
        assert (shard.predict_batch(contexts)
                == serve_world.reference.predict_batch(contexts))

    def test_swap_per_ingested_hour(self, serve_world):
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        for hour in range(30):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        assert shard.swap_count == 30
        assert shard.last_hour == 29

    def test_health_reflects_training_state(self, serve_world):
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        health = shard.health()
        assert not health.ready and health.trained_days == 0
        for hour in range(25):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        health = shard.health()
        assert health.ready
        assert health.latest_trained_day == 0
        assert health.staleness_hours == 1  # hour 24 awaits day 1's retrain


class TestOldOrNewInvariant:
    def test_concurrent_reader_never_sees_half_retrained_state(
            self, serve_world):
        """Queries racing a day-boundary retrain see old-or-new only.

        Hour 72 carries an eviction + incremental retrain (3-day window,
        day 3 starting).  A reader hammers the shard throughout that
        ingest; every answer must equal either the pre-ingest state's or
        the post-ingest state's — anything else is a torn read of a
        half-retrained model.
        """
        wan = serve_world.scenario.wan
        boundary = 72
        before = TipsyService(wan, serve_world.config)
        after = TipsyService(wan, serve_world.config)
        shard = HotSwapShard(0, wan, serve_world.config)
        for hour in range(boundary):
            before.ingest_hour(hour, serve_world.hourly[hour])
            after.ingest_hour(hour, serve_world.hourly[hour])
            shard.ingest_hour(hour, serve_world.hourly[hour])
        after.ingest_hour(boundary, serve_world.hourly[boundary])

        batch = serve_world.contexts[:40]
        old_answer = before.predict_batch(batch)
        new_answer = after.predict_batch(batch)
        assert old_answer != new_answer  # otherwise the test is vacuous

        observed = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                observed.append(shard.predict_batch(batch))

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            shard.ingest_hour(boundary, serve_world.hourly[boundary])
        finally:
            stop.set()
            reader.join()

        assert observed
        for answer in observed:
            assert answer in (old_answer, new_answer)
        # quiescent state is the new one on both replicas
        assert shard.predict_batch(batch) == new_answer

    def test_full_stream_with_concurrent_reader_ends_identical(
            self, serve_world):
        """Old-or-new holds across every hour, not just one boundary."""
        shard = HotSwapShard(0, serve_world.scenario.wan,
                             serve_world.config)
        warm = 25  # past the first retrain, so the shard is serving
        for hour in range(warm):
            shard.ingest_hour(hour, serve_world.hourly[hour])
        batch = serve_world.contexts[:20]
        failures = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                try:
                    shard.predict_batch(batch)
                except Exception as error:  # pragma: no cover - on failure
                    failures.append(error)
                    return

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for hour in range(warm, HOURS):
                shard.ingest_hour(hour, serve_world.hourly[hour])
        finally:
            stop.set()
            reader.join()
        assert not failures
        assert (shard.predict_batch(batch)
                == serve_world.reference.predict_batch(batch))


class _PausingShard(HotSwapShard):
    """A shard whose live-pointer read can park one reader thread.

    ``_live`` becomes a property so a test can stop a reader right
    after it reads the pointer and before it takes that replica's lock:
    the window in which the writer can swap and grab the same lock for
    its trailing ingest.
    """

    paused_reader = None
    resume = None

    @property
    def _live(self):
        value = self.__dict__["_live_index"]
        if (threading.current_thread() is self.paused_reader
                and self.resume is not None):
            resume, self.resume = self.resume, None
            assert resume.wait(10), "the writer never reached its trailing ingest"
        return value

    @_live.setter
    def _live(self, value):
        self.__dict__["_live_index"] = value


class TestReaderNeverWaitsOutARetrain:
    @staticmethod
    def _hold_trailing_ingest(shard, trailing_started, release):
        """Make the next trailing (second) replica ingest block."""
        calls = []
        for replica in shard._replicas:
            real = replica.ingest_hour

            def held(hour, records, _real=real):
                calls.append(hour)
                if len(calls) == 2:  # offline first, trailing second
                    trailing_started.set()
                    assert release.wait(30)
                _real(hour, records)

            replica.ingest_hour = held

    @pytest.mark.parametrize("query", ["predict_batch",
                                       "withdrawal_predictions",
                                       "health"])
    def test_reader_pinned_before_a_swap_skips_the_trailing_ingest(
            self, serve_world, query):
        """A reader that read the pointer just before a swap must not
        queue behind the writer's trailing ingest of that replica.

        The trailing ingest of hour 72 (a day-boundary retrain) is held
        on an event; the reader read the old pointer before the swap.
        It has to answer from the new live replica while the trailing
        ingest is still blocked.
        """
        wan = serve_world.scenario.wan
        boundary = 72
        after = TipsyService(wan, serve_world.config)
        shard = _PausingShard(0, wan, serve_world.config)
        for hour in range(boundary):
            after.ingest_hour(hour, serve_world.hourly[hour])
            shard.ingest_hour(hour, serve_world.hourly[hour])
        after.ingest_hour(boundary, serve_world.hourly[boundary])
        batch = serve_world.contexts[:40]

        trailing_started = threading.Event()
        release = threading.Event()
        self._hold_trailing_ingest(shard, trailing_started, release)
        answers = []

        def read():
            answers.append(getattr(shard, query)(
                *(() if query == "health" else (batch,))))

        reader = threading.Thread(target=read)
        writer = threading.Thread(target=shard.ingest_hour, args=(
            boundary, serve_world.hourly[boundary]))
        shard.paused_reader = reader
        shard.resume = trailing_started
        reader.start()
        writer.start()
        try:
            reader.join(timeout=5)
            finished_early = not reader.is_alive()
        finally:
            release.set()
            writer.join(timeout=60)
            reader.join(timeout=60)
        assert not writer.is_alive() and not reader.is_alive()
        assert finished_early, (
            "the reader waited for the trailing ingest of the replica "
            "it read before the swap")
        if query == "health":
            assert answers[0].trained_days == len(after.trained_days)
        elif query == "predict_batch":
            assert answers[0] == after.predict_batch(batch)
        else:
            assert answers[0] == after.withdrawal_predictions(batch)
