"""Autoscaling layer: placement policies, AutoBalancer, Autoscaler.

Three contracts on top of the sharded tier's bit-exactness:

* placement policies put sessions where they claim to
  (:data:`~repro.serving.PLACEMENTS`, validated like executors);
* the :class:`~repro.serving.AutoBalancer` hysteresis *converges*:
  under any seeded static load, migrations reach a fixed point (no
  ping-ponging) within a bounded number of ticks;
* the elastic pool drains losslessly: ``retire_worker`` of a worker
  with backlogged (blocked-inbox) sessions migrates them with no
  event loss, and the ``stats()`` schema the policies read is pinned.
"""

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    PLACEMENTS,
    AutoBalancer,
    Autoscaler,
    ShardedGateway,
    StreamGateway,
    default_pipeline,
    serve_autoscaled,
    worker_loads,
)
from repro.serving.executors import validate_placement

N_LEADS = 1


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=201).synthesize(
        12.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name="autoscale"
    )


class TestPlacementPolicies:
    def test_placements_export_and_validation(self):
        assert PLACEMENTS == ("hash", "least-loaded", "round-robin")
        assert validate_placement("hash") == "hash"
        with pytest.raises(ValueError) as excinfo:
            validate_placement("random")
        message = str(excinfo.value)
        assert "random" in message
        for name in PLACEMENTS:
            assert name in message

    def test_unknown_placement_rejected_before_spawning(self, embedded_classifier):
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown placement"):
            ShardedGateway(embedded_classifier, 360.0, placement="spread")
        assert len(multiprocessing.active_children()) == before

    def test_round_robin_cycles(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="round-robin",
            n_leads=N_LEADS,
        ) as gateway:
            for i in range(6):
                gateway.open_session(f"s{i}")
            assert [gateway.worker_of(f"s{i}") for i in range(6)] == [0, 1, 2, 0, 1, 2]
            assert gateway.session_counts() == [2, 2, 2]

    def test_least_loaded_fills_gaps(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=0)
            gateway.open_session("c", worker=2)
            gateway.open_session("d")  # emptiest is worker 1
            assert gateway.worker_of("d") == 1
            gateway.open_session("e")  # tie 1 vs 2 -> lowest index
            assert gateway.worker_of("e") == 1
            assert gateway.sessions_on(0) == ["a", "b"]

    def test_hash_placement_unchanged(self, embedded_classifier):
        """The default policy is still the stable CRC-32 assignment."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=4, n_leads=N_LEADS
        ) as gateway:
            assert gateway.placement == "hash"
            for sid in ("alpha", "beta", "gamma"):
                gateway.open_session(sid)
                assert gateway.worker_of(sid) == gateway._hash(sid) % gateway.workers


class TestAutoBalancer:
    @pytest.mark.chaos_seeds(0, 1, 2)
    def test_hysteresis_converges_without_ping_pong(
        self, chaos_seed, embedded_classifier
    ):
        """Under any seeded static load, migrations reach a fixed point
        within a bounded number of ticks and then stay there."""
        rng = np.random.default_rng(3000 + chaos_seed)
        workers = int(rng.integers(2, 5))
        n_sessions = int(rng.integers(6, 14))
        threshold = int(rng.integers(1, 3))
        per_tick = int(rng.integers(1, 4))
        cooldown = int(rng.integers(0, 3))
        with ShardedGateway(
            embedded_classifier, 360.0, workers=workers, n_leads=N_LEADS
        ) as gateway:
            for i in range(n_sessions):  # seeded skew, incl. fully loaded worker 0
                worker = 0 if rng.random() < 0.6 else int(rng.integers(0, workers))
                gateway.open_session(f"s{i}", worker=worker)
            balancer = AutoBalancer(
                gateway,
                imbalance_threshold=threshold,
                cooldown_ticks=cooldown,
                max_migrations_per_tick=per_tick,
            )
            # Worst case: every session must move, per_tick at a time,
            # with cooldown quiet ticks after each migrating tick — so
            # `bound` ticks always suffice to reach the fixed point.
            bound = (n_sessions + per_tick - 1) // per_tick * (1 + cooldown) + 1
            history = [balancer.tick() for _ in range(bound)]
            loads = worker_loads(gateway.stats())
            assert max(loads) - min(loads) <= threshold  # inside the band
            # Fixed point: further ticks never migrate again (no ping-pong).
            for _ in range(cooldown + 3):
                assert balancer.tick() == []
            total_moved = sum(len(h) for h in history)
            assert total_moved == gateway.n_migrations == balancer.n_migrations
            assert total_moved < n_sessions  # never churned the whole fleet

    def test_quiet_inside_band(self, embedded_classifier):
        """A balanced pool is never touched (the hysteresis band)."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=0)
            gateway.open_session("c", worker=1)
            balancer = AutoBalancer(gateway, imbalance_threshold=1)
            assert balancer.tick() == []
            assert gateway.n_migrations == 0

    def test_tick_survives_eviction_racing_the_snapshot(
        self, embedded_classifier
    ):
        """A session evicted after the load snapshot but before its
        migration (the eviction notice still undrained in the pipe)
        is skipped, not crashed on — same race retire_worker guards."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, n_leads=N_LEADS,
            evict_after_ticks=3,
        ) as gateway:
            for i in range(4):
                gateway.open_session(f"a{i}", worker=0)
            gateway.open_session("idle", worker=0)  # last placed on 0
            stats = gateway.stats()  # snapshot still lists "idle"
            # Three ticks on worker 0 with only a0 ingesting: the
            # worker evicts every other session during the third; the
            # notices ride a pipelined response the parent has not
            # drained yet, so the parent still lists all five sessions.
            for _ in range(3):
                gateway.ingest("a0", np.zeros(32))
            assert gateway.session_counts() == [5, 0]  # notices undrained
            balancer = AutoBalancer(
                gateway, imbalance_threshold=1, cooldown_ticks=0,
                max_migrations_per_tick=4,
            )
            # The first move targets "idle" (most recently placed on
            # the busy worker); its release drains the eviction
            # notices — the KeyError is swallowed and balancing
            # continues with the real survivor.
            moved = balancer.tick(stats)  # must not raise
            assert moved == [("a0", 0, 1)]
            assert set(gateway.take_evicted()) == {"a1", "a2", "a3", "idle"}
            assert gateway.session_counts() == [0, 1]

    def test_single_worker_noop(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("a")
            assert AutoBalancer(gateway).tick() == []

    def test_validation_named_bounds(self, embedded_classifier):
        with ShardedGateway(embedded_classifier, 360.0, workers=1) as gateway:
            with pytest.raises(ValueError, match="imbalance_threshold must be >= 1"):
                AutoBalancer(gateway, imbalance_threshold=0)
            with pytest.raises(ValueError, match="cooldown_ticks must be >= 0"):
                AutoBalancer(gateway, cooldown_ticks=-1)
            with pytest.raises(
                ValueError, match="max_migrations_per_tick must be >= 1"
            ):
                AutoBalancer(gateway, max_migrations_per_tick=0)

    def test_rebalance_preserves_events(
        self, record, embedded_classifier, assert_events_equal, standalone_events
    ):
        """A balancer tick mid-stream never perturbs a session's events."""
        fs = record.fs
        block = int(0.5 * fs)
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=8
        ) as gateway:
            for sid in ("a", "b", "c"):
                gateway.open_session(sid, worker=0)  # skewed on purpose
            balancer = AutoBalancer(
                gateway, imbalance_threshold=1, cooldown_ticks=0
            )
            events, i = [], 0
            while i < record.n_samples:
                events += gateway.ingest("a", record.signal[i : i + block])
                i += block
                balancer.tick()
            events += gateway.close_session("a")
            assert gateway.n_migrations > 0
            gateway.close_session("b")
            gateway.close_session("c")
        assert_events_equal(
            standalone_events(embedded_classifier, record, fs, N_LEADS), events
        )


class TestElasticPool:
    def test_add_worker_grows_and_places(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a")
            index = gateway.add_worker()
            assert (index, gateway.workers) == (1, 2)
            gateway.open_session("b")  # least-loaded favors the new worker
            assert gateway.worker_of("b") == 1
            assert gateway.stats()["scale_events"] == 1

    def test_retire_last_worker_rejected(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, n_leads=N_LEADS
        ) as gateway:
            with pytest.raises(ValueError, match="cannot retire the last worker"):
                gateway.retire_worker(0)
            with pytest.raises(ValueError, match=r"worker must be in \[0, 1\)"):
                gateway.retire_worker(1)

    def test_retire_reindexes_surviving_sessions(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=1)
            gateway.open_session("c", worker=2)
            moved = gateway.retire_worker(1)
            assert moved == 1
            assert gateway.workers == 2
            assert gateway.worker_of("a") == 0
            assert gateway.worker_of("c") == 1  # shifted down
            assert gateway.n_sessions == 3
            stats = gateway.stats()
            assert len(stats["per_worker"]) == 2
            assert stats["n_sessions"] == 3
            # Drain moves count as migrations, like any other move.
            assert stats["migrations"] == moved == gateway.n_migrations

    def test_scaling_rejected_after_shutdown(self, embedded_classifier):
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=2)
        gateway.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            gateway.add_worker()
        with pytest.raises(RuntimeError, match="shut down"):
            gateway.retire_worker(0)

    def test_retire_drains_blocked_inbox_sessions_losslessly(
        self, record, embedded_classifier, assert_events_equal, standalone_events
    ):
        """Retiring a worker whose sessions have backlogged bounded
        inboxes (chunks accepted but not yet processed) loses nothing:
        the drain waits for the worker, folds every buffered event into
        the migration, and the inbox audit survives on the new owner."""
        fs = record.fs
        block = int(0.5 * fs)
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS,
            inbox_capacity=1, inbox_policy="block", max_batch=4,
        ) as gateway:
            gateway.open_session("p", worker=0)
            gateway.open_session("q", worker=0)
            events, i = [], 0
            # Backlog worker 0: each session has an in-flight chunk.
            for _ in range(3):
                events += gateway.ingest("p", record.signal[i : i + block])
                gateway.ingest("q", record.signal[:block])
                i += block
            assert len(gateway._inboxes["p"]) + len(gateway._inboxes["q"]) > 0
            moved = gateway.retire_worker(0)
            assert moved == 2
            assert gateway.workers == 1
            assert gateway.worker_of("p") == 0 and gateway.worker_of("q") == 0
            while i < record.n_samples:
                events += gateway.ingest("p", record.signal[i : i + block])
                i += block
            events += gateway.close_session("p")
            gateway.close_session("q")
        assert_events_equal(
            standalone_events(embedded_classifier, record, fs, N_LEADS), events
        )

    def test_retire_preserves_drop_audit(self, record, embedded_classifier):
        """The shedding audit (n_dropped) survives the drain migration."""
        fs = record.fs
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS,
            inbox_capacity=1, inbox_policy="drop",
        ) as gateway:
            gateway.open_session("p", worker=0)
            for _ in range(6):  # overrun the inbox; some chunks shed
                gateway.ingest("p", record.signal[: int(0.5 * fs)])
            dropped = gateway.dropped_chunks("p")
            gateway.retire_worker(0)
            assert gateway.dropped_chunks("p") == dropped
            gateway.close_session("p")


class TestAutoscaler:
    def test_scales_up_to_demand_and_down_when_idle(
        self, record, embedded_classifier
    ):
        fs = record.fs
        with ShardedGateway(
            embedded_classifier, fs, workers=1, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            scaler = Autoscaler(
                gateway, target_depth=2, min_workers=1, max_workers=3,
                cooldown_ticks=0,
            )
            for i in range(6):
                gateway.open_session(f"s{i}")
            assert scaler.tick() == [("add", 1)]
            assert scaler.tick() == [("add", 2)]
            assert scaler.tick() == []  # 6 sessions / depth 2 = 3 workers
            assert gateway.workers == 3
            for i in range(5):
                gateway.close_session(f"s{i}")
            assert scaler.tick()[0][0] == "retire"
            assert scaler.tick()[0][0] == "retire"
            assert scaler.tick() == []
            assert gateway.workers == 1  # back at min_workers
            assert gateway.n_sessions == 1  # survivor drained onto the pool
            assert (scaler.n_scale_ups, scaler.n_scale_downs) == (2, 2)
            assert gateway.stats()["scale_events"] == 4

    def test_cooldown_spaces_scale_events(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, n_leads=N_LEADS
        ) as gateway:
            scaler = Autoscaler(
                gateway, target_depth=1, min_workers=1, max_workers=4,
                cooldown_ticks=2,
            )
            for i in range(4):
                gateway.open_session(f"s{i}")
            assert len(scaler.tick()) == 1
            assert scaler.tick() == []  # cooling down
            assert scaler.tick() == []
            assert len(scaler.tick()) == 1
            assert gateway.workers == 3

    def test_respects_min_and_max(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, n_leads=N_LEADS
        ) as gateway:
            scaler = Autoscaler(
                gateway, target_depth=1, min_workers=2, max_workers=2,
                cooldown_ticks=0,
            )
            assert scaler.tick() == []  # empty fleet but min_workers=2
            for i in range(8):
                gateway.open_session(f"s{i}")
            assert scaler.tick() == []  # load wants 8 workers, max is 2
            assert gateway.workers == 2

    def test_desired_workers_policy(self, embedded_classifier):
        with ShardedGateway(embedded_classifier, 360.0, workers=1) as gateway:
            scaler = Autoscaler(
                gateway, target_depth=4, min_workers=1, max_workers=4
            )
            assert scaler.desired_workers(0) == 1
            assert scaler.desired_workers(4) == 1
            assert scaler.desired_workers(5) == 2
            assert scaler.desired_workers(17) == 4
            assert scaler.desired_workers(400) == 4

    def test_validation_named_bounds(self, embedded_classifier):
        with ShardedGateway(embedded_classifier, 360.0, workers=1) as gateway:
            with pytest.raises(ValueError, match="target_depth must be >= 1"):
                Autoscaler(gateway, target_depth=0)
            with pytest.raises(ValueError, match="min_workers must be >= 1"):
                Autoscaler(gateway, min_workers=0)
            with pytest.raises(ValueError, match="max_workers must be >= 3"):
                Autoscaler(gateway, min_workers=3, max_workers=2)

    def test_serve_autoscaled_validates_chunk(self, embedded_classifier):
        with ShardedGateway(embedded_classifier, 360.0, workers=1) as gateway:
            with pytest.raises(ValueError, match="chunk must be >= 1"):
                serve_autoscaled(gateway, {"s": np.zeros(10)}, 0)

    def test_serve_autoscaled_end_to_end_bit_exact(
        self, record, embedded_classifier, assert_events_equal, standalone_events
    ):
        """The canonical elastic driver: the pool grows under load and
        rebalances, and every session's events stay bit-exact with a
        standalone node."""
        fs = record.fs
        streams = {f"s{i}": record.signal for i in range(5)}
        with ShardedGateway(
            embedded_classifier, fs, workers=1, placement="least-loaded",
            n_leads=N_LEADS, max_batch=16,
        ) as gateway:
            scaler = Autoscaler(
                gateway, target_depth=2, min_workers=1, max_workers=3,
                cooldown_ticks=0,
            )
            balancer = AutoBalancer(
                gateway, imbalance_threshold=1, cooldown_ticks=0
            )
            events = serve_autoscaled(
                gateway, streams, int(0.5 * fs),
                autoscaler=scaler, balancer=balancer,
            )
            stats = gateway.stats()
            assert stats["workers"] == 3  # 5 sessions / depth 2
            assert stats["scale_events"] >= 2
            assert stats["migrations"] >= 1  # the balancer spread the load
        expected = standalone_events(embedded_classifier, record, fs, N_LEADS)
        for sid in streams:
            assert_events_equal(expected, events[sid])


class TestStatsSchema:
    """Pin the ``stats()`` schema the autoscaling policies consume.

    If a key is renamed, dropped, or changes type, the policies would
    silently misread the load — this regression test fails instead.
    """

    TOTALS = ("n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted")
    ANALYTICS = ("sessions", "beats", "episodes", "alerts", "by_kind")

    def assert_schema(self, stats):
        """Key, type and column-sum checks every tier's stats() meets."""
        expected = set(self.TOTALS) | {
            "analytics", "per_worker", "workers", "migrations", "scale_events"
        }
        assert set(stats) == expected
        assert isinstance(stats["per_worker"], list)
        assert len(stats["per_worker"]) == stats["workers"]
        for key in ("workers", "migrations", "scale_events", *self.TOTALS):
            assert isinstance(stats[key], int), key
            assert stats[key] >= 0, key
        for block in [stats["analytics"]] + [
            w["analytics"] for w in stats["per_worker"]
        ]:
            assert set(block) == set(self.ANALYTICS)
            for key in ("sessions", "beats", "episodes", "alerts"):
                assert isinstance(block[key], int), key
                assert block[key] >= 0, key
            assert isinstance(block["by_kind"], dict)
        for worker_stats in stats["per_worker"]:
            assert set(worker_stats) == set(self.TOTALS) | {"analytics"}
            for key, value in worker_stats.items():
                if key == "analytics":
                    continue
                assert isinstance(value, int), key
                assert value >= 0, key
        # Sum-over-workers consistency: every total is its column sum.
        for key in self.TOTALS:
            assert stats[key] == sum(w[key] for w in stats["per_worker"]), key

    def test_schema_keys_types_and_consistency(self, record, embedded_classifier):
        fs = record.fs
        with ShardedGateway(
            embedded_classifier, fs, workers=3, n_leads=N_LEADS, max_batch=4
        ) as gateway:
            for i in range(4):
                gateway.open_session(f"s{i}")
            for i in range(4):
                gateway.ingest(f"s{i}", record.signal[: int(2.0 * fs)])
            gateway.migrate_session("s0", (gateway.worker_of("s0") + 1) % 3)
            gateway.add_worker()
            stats = gateway.stats()

            self.assert_schema(stats)
            assert stats["workers"] == gateway.workers == 4
            assert stats["n_sessions"] == gateway.n_sessions == 4
            assert stats["migrations"] == gateway.n_migrations == 1
            assert stats["scale_events"] == gateway.n_scale_events == 1
            assert worker_loads(stats) == [
                w["n_sessions"] + w["n_queued"] for w in stats["per_worker"]
            ]
            for sid in gateway.session_ids():
                gateway.close_session(sid)

    def test_stream_gateway_has_the_one_worker_shape(
        self, record, embedded_classifier,
    ):
        fs = record.fs
        gateway = StreamGateway(
            embedded_classifier, fs, n_leads=N_LEADS, max_batch=4,
            analytics=default_pipeline,
        )
        for i in range(3):
            gateway.open_session(f"s{i}")
            gateway.ingest(f"s{i}", record.signal[: int(4.0 * fs)])
        gateway.close_session("s0")  # closed sessions stay in the rollup
        stats = gateway.stats()

        self.assert_schema(stats)
        assert stats["workers"] == 1
        assert stats["n_sessions"] == gateway.n_sessions == 2
        assert stats["migrations"] == stats["scale_events"] == 0
        assert stats["analytics"]["sessions"] == 3
        assert stats["analytics"]["beats"] > 0
        assert stats["analytics"]["alerts"] == gateway.n_alerts
