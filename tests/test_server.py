"""Tests for the concurrent query server: admission control, the global
memory broker, session isolation, plan-cache concurrency safety, and the
memory re-allocation trigger under induced cross-query contention."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    AdmissionError,
    Database,
    DataType,
    DynamicMode,
    EngineConfig,
    SessionError,
)
from repro.engine.server import AdmissionController, GlobalMemoryBroker
from repro.executor.memory import MemoryManager
from repro.observe.metrics import MetricsRegistry


def small_db(config: EngineConfig | None = None) -> Database:
    db = Database(config or EngineConfig(), metrics=MetricsRegistry())
    db.create_table("r", [("id", DataType.INTEGER), ("a", DataType.INTEGER)], key=["id"])
    db.create_table("s", [("id", DataType.INTEGER), ("b", DataType.INTEGER)], key=["id"])
    db.load_rows("r", [(i, i % 10) for i in range(500)])
    db.load_rows("s", [(i, i % 7) for i in range(300)])
    db.analyze()
    return db


JOIN_SQL = "SELECT r.a, count(*) FROM r, s WHERE r.id = s.id GROUP BY r.a"


class TestSplitGrantContract:
    """Satellite: degenerate splits follow one floor-zero contract."""

    def test_partitions_exceed_pages_trailing_zeros(self):
        shares = MemoryManager.split_grant(3, 5)
        assert shares == [1, 1, 1, 0, 0]
        assert sum(shares) == 3

    def test_zero_and_negative_pages_all_zero(self):
        assert MemoryManager.split_grant(0, 4) == [0, 0, 0, 0]
        assert MemoryManager.split_grant(-7, 3) == [0, 0, 0]

    def test_exact_sum_preserved_across_degenerate_splits(self):
        for pages in (0, 1, 2, 5, 7):
            for partitions in (1, 2, 3, 8):
                shares = MemoryManager.split_grant(pages, partitions)
                assert sum(shares) == max(0, pages)
                assert all(s >= 0 for s in shares)
                assert max(shares) - min(shares) <= 1


class TestAdmissionController:
    def test_serial_admits_immediately(self):
        ctl = AdmissionController(max_active=2, queue_size=4, timeout_s=5.0)
        wait, depth = ctl.admit()
        assert depth == 0
        assert wait < 1.0
        ctl.leave()

    def test_queue_full_rejects(self):
        ctl = AdmissionController(max_active=1, queue_size=0, timeout_s=5.0)
        ctl.admit()
        with pytest.raises(AdmissionError):
            ctl.admit()
        ctl.leave()

    def test_timeout_raises(self):
        ctl = AdmissionController(max_active=1, queue_size=4, timeout_s=0.05)
        ctl.admit()
        with pytest.raises(AdmissionError):
            ctl.admit()
        ctl.leave()

    def test_concurrency_never_exceeds_max_active(self):
        # Twenty waiters park one after another behind held slots.  With one
        # slot they run one at a time, so their admission order is exact and
        # must be their arrival order (a LIFO queue admits the last first).
        for max_active in (3, 1):
            ctl = AdmissionController(
                max_active=max_active, queue_size=64, timeout_s=10.0
            )
            active = 0
            peak = 0
            admitted: list[int] = []
            lock = threading.Lock()

            def work(arrival: int):
                nonlocal active, peak
                ctl.admit()
                with lock:
                    active += 1
                    peak = max(peak, active)
                    admitted.append(arrival)
                with lock:
                    active -= 1
                ctl.leave()

            for __ in range(max_active):
                ctl.admit()
            threads = []
            for arrival in range(20):
                thread = threading.Thread(target=work, args=(arrival,))
                thread.start()
                threads.append(thread)
                deadline = time.monotonic() + 10.0
                while len(ctl._waiting) <= arrival:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            for __ in range(max_active):
                ctl.leave()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert 1 <= peak <= max_active
            assert sorted(admitted) == list(range(20))
            if max_active == 1:
                assert admitted == list(range(20))


class TestGlobalMemoryBroker:
    def test_uncontended_gets_full_request(self):
        broker = GlobalMemoryBroker(total_pages=400, max_sessions=4)
        lease = broker.acquire("a", 100)
        assert lease.granted_pages == 100
        broker.release(lease)
        assert broker.free_pages() == 400

    def test_fair_borrowing_and_reclaim(self):
        broker = GlobalMemoryBroker(total_pages=100, max_sessions=2)
        first = broker.acquire("greedy", 90)
        assert first.granted_pages == 90  # borrows beyond its 50-page share
        second = broker.acquire("late", 50)
        # The arrival reclaimed the borrowed headroom down to the guarantee.
        assert first.granted_pages == 50
        assert first.reclaims == 1
        assert second.granted_pages == 50
        broker.release(second)
        # Departure re-grants freed pages to the running lease.
        assert first.granted_pages == 90
        assert first.regrants == 1
        broker.release(first)

    def test_reclaim_respects_reserved_pages(self):
        broker = GlobalMemoryBroker(total_pages=100, max_sessions=2)
        first = broker.acquire("running", 90)
        manager = MemoryManager(first.granted_pages)
        first.attach(manager)
        # Simulate a query whose operators were promised 70 pages.
        manager.reserved_pages = 70
        second = broker.acquire("late", 30)
        # Reclaim floored at the promised 70, not the 50-page guarantee.
        assert first.granted_pages == 70
        assert second.granted_pages >= second.guarantee_pages
        broker.release(first)
        broker.release(second)

    def test_acquire_timeout(self):
        broker = GlobalMemoryBroker(
            total_pages=10, max_sessions=1, timeout_s=0.05
        )
        # The holder's grant is its whole guarantee: nothing is reclaimable.
        lease = broker.acquire("holder", 10)
        assert lease.granted_pages == lease.guarantee_pages == 10
        with pytest.raises(AdmissionError):
            broker.acquire("starved", 10)
        broker.release(lease)
        assert broker.acquire("starved", 10).granted_pages == 10


class TestServerExecution:
    def test_server_mode_routes_and_matches_inline(self):
        """A session statement (admission + a broker lease) equals the
        inline ``db.execute`` of the same statement, including Q5, Q7 and
        Q8 under FULL, which switch plans mid-query."""
        from repro.bench.harness import ExperimentConfig, build_database
        from repro.workloads.tpcd import ALL_QUERIES

        tpcd = build_database(
            ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31)
        )
        switching = [q.sql for q in ALL_QUERIES if q.name in ("Q5", "Q7", "Q8")]
        assert len(switching) == 3
        for db, sql in [(small_db(), JOIN_SQL)] + [(tpcd, sql) for sql in switching]:
            base = db.execute(sql, mode=DynamicMode.FULL)
            with db.create_session("parity") as session:
                res = session.execute(sql, mode=DynamicMode.FULL)
            assert res.rows == base.rows
            assert repr(res.profile.total_cost) == repr(base.profile.total_cost)
            assert repr(res.profile.breakdown) == repr(base.profile.breakdown)
            assert res.profile.plan_switches == base.profile.plan_switches
            assert res.profile.memory_reallocations == base.profile.memory_reallocations
            assert res.profile.session == "parity"
            assert base.profile.session == ""
            assert (
                res.profile.memory_granted_pages
                == res.profile.memory_requested_pages
                == base.profile.memory_granted_pages
            )
            assert sql == JOIN_SQL or base.profile.plan_switches >= 1

    def test_concurrent_sessions_byte_identical(self):
        inline = small_db()
        base = inline.execute(JOIN_SQL)
        server_db = small_db(EngineConfig(max_sessions=4))
        results: dict[int, list] = {}

        def client(i: int):
            session = server_db.create_session(f"c{i}")
            try:
                results[i] = [session.execute(JOIN_SQL).rows for _ in range(3)]
            finally:
                session.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        for rows_list in results.values():
            for rows in rows_list:
                assert rows == base.rows

    def test_admission_telemetry_on_profile(self):
        server_db = small_db(EngineConfig(max_sessions=2))
        with server_db.create_session("telemetry") as session:
            res = session.execute(JOIN_SQL)
        assert res.profile.admission_wait_s >= 0.0
        assert res.profile.queue_depth_at_admission == 0
        snap = server_db.metrics_snapshot()
        assert snap["server.admitted"]["value"] >= 1
        assert snap["broker.leases"]["value"] >= 1

    def test_session_single_statement_contract(self):
        server_db = small_db()
        session = server_db.create_session("solo")
        release = threading.Event()
        entered = threading.Event()

        def slow(x):
            entered.set()
            release.wait(5.0)
            return x

        server_db.register_udf("slow", slow)
        errors: list = []

        def run():
            try:
                session.execute("SELECT count(*) FROM r WHERE slow(a) >= 0")
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)

        t = threading.Thread(target=run)
        t.start()
        assert entered.wait(5.0)
        with pytest.raises(SessionError):
            session.execute("SELECT count(*) FROM r")
        release.set()
        t.join()
        assert not errors
        session.close()
        with pytest.raises(SessionError):
            session.execute("SELECT count(*) FROM r")


class TestSessionIsolation:
    """Satellite: per-session temp tables and session-scoped plan cache."""

    def test_same_temp_name_isolated_rows(self):
        db = small_db()
        s1 = db.create_session("alice")
        s2 = db.create_session("bob")
        s1.create_temp_table("t", [("x", DataType.INTEGER)])
        s2.create_temp_table("t", [("x", DataType.INTEGER)])
        s1.load_rows("t", [(1,), (2,)])
        s2.load_rows("t", [(10,)])
        assert sorted(s1.execute("SELECT x FROM t").rows) == [(1,), (2,)]
        assert sorted(s2.execute("SELECT x FROM t").rows) == [(10,)]
        s1.close()
        s2.close()

    def test_temp_plan_cache_entries_session_scoped(self):
        db = small_db()
        s1 = db.create_session("alice")
        s2 = db.create_session("bob")
        s1.create_temp_table("t", [("x", DataType.INTEGER)])
        s2.create_temp_table("t", [("x", DataType.INTEGER)])
        s1.load_rows("t", [(1,)])
        s2.load_rows("t", [(2,)])
        # Warm s1's cache entry, then run the identical SQL on s2: a shared
        # entry would serve s1's plan (bound to s1's table object).
        first = s1.execute("SELECT x FROM t")
        hit = s1.execute("SELECT x FROM t")
        assert hit.profile.plan_cache_hit
        other = s2.execute("SELECT x FROM t")
        assert not other.profile.plan_cache_hit
        assert first.rows == [(1,)]
        assert other.rows == [(2,)]
        # Shared-table statements still share one cache entry across sessions.
        s1.execute("SELECT count(*) FROM r")
        shared = s2.execute("SELECT count(*) FROM r")
        assert shared.profile.plan_cache_hit
        s1.close()
        s2.close()

    def test_temp_table_invisible_to_other_session_and_inline(self):
        from repro.errors import BindError, CatalogError, ReproError

        db = small_db()
        s1 = db.create_session("alice")
        s1.create_temp_table("private_t", [("x", DataType.INTEGER)])
        s2 = db.create_session("bob")
        with pytest.raises((BindError, CatalogError, ReproError)):
            s2.execute("SELECT x FROM private_t")
        with pytest.raises((BindError, CatalogError, ReproError)):
            db.execute("SELECT x FROM private_t")
        s1.close()
        s2.close()

    def test_close_drops_scoped_cache_entries(self):
        db = small_db()
        s1 = db.create_session("alice")
        s1.create_temp_table("t", [("x", DataType.INTEGER)])
        s1.load_rows("t", [(1,)])
        s1.execute("SELECT x FROM t")
        assert len(db.plan_cache) >= 1
        before = len(db.plan_cache)
        s1.close()
        assert len(db.plan_cache) < before

    def test_session_temp_recreate_invalidates_scoped_plan(self):
        db = small_db()
        s1 = db.create_session("alice")
        s1.create_temp_table("t", [("x", DataType.INTEGER)])
        s1.load_rows("t", [(1,)])
        assert s1.execute("SELECT x FROM t").rows == [(1,)]
        s1.drop_table("t")
        s1.create_temp_table("t", [("x", DataType.INTEGER)])
        s1.load_rows("t", [(42,)])
        res = s1.execute("SELECT x FROM t")
        assert res.rows == [(42,)]
        assert not res.profile.plan_cache_hit
        s1.close()

    def test_reopt_temp_tables_land_in_session_overlay(self):
        # Two sessions concurrently running a plan-switching query must not
        # collide on the re-optimizer's __temp_N names in the shared catalog.
        from repro.workloads import SyntheticConfig, build_running_example

        config = EngineConfig(max_sessions=2)
        db = Database(config, metrics=MetricsRegistry())
        build_running_example(db, SyntheticConfig())
        from repro.workloads import RUNNING_EXAMPLE_SQL

        baseline = None
        errors: list = []
        rows_out: dict[int, object] = {}

        def client(i: int):
            session = db.create_session(f"switcher-{i}")
            try:
                rows_out[i] = session.execute(
                    RUNNING_EXAMPLE_SQL,
                    params={"value1": 80, "value2": 80},
                    mode=DynamicMode.FULL,
                ).rows
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                session.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        inline_db = Database(EngineConfig(), metrics=MetricsRegistry())
        build_running_example(inline_db, SyntheticConfig())
        baseline = inline_db.execute(
            RUNNING_EXAMPLE_SQL,
            params={"value1": 80, "value2": 80},
            mode=DynamicMode.FULL,
        ).rows
        assert rows_out[0] == baseline
        assert rows_out[1] == baseline
        # The shared catalog must hold no leaked temp tables.
        assert not [n for n in db.catalog.table_names if n.startswith("__temp")]


class TestSwitchesLeaveOtherPlansCached:
    """One session's mid-query plan switches and temp-table write cycles
    invalidate nothing another session (or the switching statement itself)
    has cached: a switch is not a statistics event, temp-table DDL moves
    only the session's scoped epoch."""

    ROUNDS = 3
    GLOBAL_SQL = "SELECT count(*) n FROM rel2 WHERE rel2.attr2a < 500"
    TEMP_SQL = "SELECT t.x x FROM t WHERE t.x < 3"

    def _database(self) -> Database:
        from repro.workloads import SyntheticConfig, build_running_example

        config = EngineConfig(max_sessions=2)
        db = Database(config, metrics=MetricsRegistry())
        build_running_example(
            db, SyntheticConfig(rel1_rows=20_000, rel3_rows=60_000, correlation=1.0)
        )
        return db

    def _run(self, db: Database, concurrent: bool):
        """Client A (switching statement + temp-table cycle) and client B
        (one global statement, twice a round); returns a WorkloadReport."""
        from repro.workloads import RUNNING_EXAMPLE_SQL
        from repro.workloads.driver import WorkloadReport

        report = WorkloadReport(
            sessions=2, statements=4 * self.ROUNDS, elapsed_s=0.0,
            rows=[[], []], profiles=[[], []],
        )
        # Rounds run in lockstep, so from round 2 on every B statement is
        # known to execute after at least one of A's switches.
        barrier = threading.Barrier(2 if concurrent else 1)

        def record(index: int, result) -> None:
            report.rows[index].append(result.rows)
            report.profiles[index].append(result.profile)

        def client_a() -> None:
            session = db.create_session("switcher")
            for __ in range(self.ROUNDS):
                record(0, session.execute(
                    RUNNING_EXAMPLE_SQL,
                    params={"value1": 80, "value2": 80},
                    mode=DynamicMode.FULL,
                ))
                session.create_temp_table("t", [("x", DataType.INTEGER)])
                session.load_rows("t", [(i,) for i in range(10)])
                session.analyze("t")
                record(0, session.execute(self.TEMP_SQL))
                session.drop_table("t")
                barrier.wait()
            session.close()

        def client_b() -> None:
            session = db.create_session("reader")
            for __ in range(self.ROUNDS):
                record(1, session.execute(self.GLOBAL_SQL))
                record(1, session.execute(self.GLOBAL_SQL))
                barrier.wait()
            session.close()

        def guarded(client) -> None:
            try:
                client()
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                report.errors.append(f"{client.__name__}: {exc!r}")
                barrier.abort()

        if concurrent:
            threads = [
                threading.Thread(target=guarded, args=(client,))
                for client in (client_a, client_b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            guarded(client_a)
            guarded(client_b)
        return report

    def test_switching_session_invalidates_only_its_scoped_entry(self):
        from repro.workloads import assert_parity

        db = self._database()
        epoch = db.catalog.stats_epoch
        report = self._run(db, concurrent=True)
        assert_parity(self._run(self._database(), concurrent=False).rows, report)

        a, b = report.profiles
        switching, temp = a[0::2], a[1::2]
        assert all(p.plan_switches >= 1 for p in switching)
        assert [p.plan_cache_hit for p in switching] == [False] + [True] * (
            self.ROUNDS - 1
        )
        assert [p.plan_cache_hit for p in b] == [False] + [True] * (
            2 * self.ROUNDS - 1
        )
        # Each create/load/analyze cycle moves the session's scoped epoch:
        # the temp statement's previous entry is the only thing invalidated.
        assert [p.plan_cache_miss for p in temp] == ["absent"] + ["stale-epoch"] * (
            self.ROUNDS - 1
        )
        assert db.plan_cache.stats.invalidations == self.ROUNDS - 1
        assert db.catalog.stats_epoch == epoch
        assert report.summary()["plan_cache_hit_rate"] == round(
            (3 * self.ROUNDS - 2) / (4 * self.ROUNDS), 4
        )



class TestContentionReallocation:
    """Acceptance: the paper's memory re-allocation trigger fires from real
    cross-query pressure (a departing session's pages re-granted mid-query)."""

    def test_regrant_mid_query_fires_reallocation(self):
        config = EngineConfig(
            query_memory_pages=20,
            server_memory_pages=24,
            max_sessions=2,
        )
        db = Database(config, metrics=MetricsRegistry())
        db.create_table(
            "build", [("id", DataType.INTEGER), ("v", DataType.INTEGER)], key=["id"]
        )
        db.create_table(
            "probe", [("id", DataType.INTEGER), ("w", DataType.INTEGER)], key=["id"]
        )
        db.create_table("third", [("w", DataType.INTEGER), ("z", DataType.INTEGER)])
        db.load_rows("build", [(i, i % 50) for i in range(4000)])
        db.load_rows("probe", [(i, i % 7) for i in range(8000)])
        db.load_rows("third", [(i % 7, i % 3) for i in range(3000)])
        db.analyze()

        server = db.server
        # A phantom peer holds the other fair share of the pool; the query
        # under test is therefore granted less than it requested.
        phantom = server.broker.acquire("phantom", 12)
        released = {"done": False}

        def poke(x):
            # First call happens mid-scan, while downstream memory
            # operators are still uncommitted: release the peer so the
            # broker re-grants its pages to the running query.
            if not released["done"]:
                released["done"] = True
                server.broker.release(phantom)
            return x

        db.register_udf("poke", poke)
        sql = (
            "SELECT t.z, count(*) FROM build b, probe p, third t "
            "WHERE b.id = p.id AND p.w = t.w AND poke(b.v) < 40 GROUP BY t.z"
        )
        session = db.create_session("contender")
        res = session.execute(sql, mode=DynamicMode.FULL)
        profile = res.profile
        assert released["done"]
        assert profile.broker_regrants >= 1
        assert profile.memory_granted_pages > 12
        # The re-grant reached the running query and changed its grants.
        assert profile.memory_reallocations >= 1
        session.close()
        # Parity: the same query inline (full budget) returns the same rows.
        db2 = Database(EngineConfig(), metrics=MetricsRegistry())
        db2.create_table(
            "build", [("id", DataType.INTEGER), ("v", DataType.INTEGER)], key=["id"]
        )
        db2.create_table(
            "probe", [("id", DataType.INTEGER), ("w", DataType.INTEGER)], key=["id"]
        )
        db2.create_table("third", [("w", DataType.INTEGER), ("z", DataType.INTEGER)])
        db2.load_rows("build", [(i, i % 50) for i in range(4000)])
        db2.load_rows("probe", [(i, i % 7) for i in range(8000)])
        db2.load_rows("third", [(i % 7, i % 3) for i in range(3000)])
        db2.analyze()
        db2.register_udf("poke", lambda x: x)
        assert sorted(res.rows) == sorted(db2.execute(sql).rows)


class TestPlanCacheConcurrency:
    """Satellite: stats-epoch bumps racing concurrent lookups must never
    serve a stale plan or corrupt LRU/counter state."""

    def test_epoch_bumps_race_lookups(self):
        db = small_db(EngineConfig(max_sessions=4))
        stop = threading.Event()
        errors: list = []
        executed = {"count": 0}
        lock = threading.Lock()
        base = db.execute(JOIN_SQL).rows

        def executor_thread():
            try:
                with db.create_session() as session:
                    while not stop.is_set():
                        res = session.execute(JOIN_SQL)
                        if res.rows != base:
                            raise AssertionError("rows diverged under epoch races")
                        with lock:
                            executed["count"] += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def bumper_thread():
            try:
                while not stop.is_set():
                    db.analyze("r")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=executor_thread) for _ in range(3)]
        threads.append(threading.Thread(target=bumper_thread))
        for t in threads:
            t.start()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert executed["count"] > 0
        stats = db.plan_cache.stats
        # Counter consistency survived the race.
        assert stats.lookups == stats.hits + stats.misses
        assert stats.invalidations <= stats.misses
        # No stale entry can be served now that the dust settled: a lookup
        # with the current epoch either hits a current-epoch entry or misses.
        res = db.execute(JOIN_SQL)
        assert res.rows == base

    def test_prepared_statements_race_epoch_bumps(self):
        db = small_db(EngineConfig(max_sessions=4))
        base = db.prepare(JOIN_SQL).execute().rows
        stop = threading.Event()
        errors: list = []

        def runner():
            try:
                with db.create_session() as session:
                    stmt = session.prepare(JOIN_SQL)
                    while not stop.is_set():
                        if stmt.execute().rows != base:
                            raise AssertionError("prepared rows diverged")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def bumper():
            try:
                while not stop.is_set():
                    db.analyze("s")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=runner) for _ in range(2)]
        threads.append(threading.Thread(target=bumper))
        for t in threads:
            t.start()
        time.sleep(0.8)
        stop.set()
        for t in threads:
            t.join()
        assert not errors


class TestWorkloadDriver:
    def test_driver_parity_and_report(self):
        from repro.bench.harness import ExperimentConfig, build_database
        from repro.workloads import (
            assert_parity,
            build_tpcd_scripts,
            run_concurrent,
            run_serial,
        )

        config = ExperimentConfig(scale_factor=0.002, seed=7)
        db = build_database(config)
        scripts = build_tpcd_scripts(sessions=2, statements_per_session=2, seed=3)
        serial_rows, _ = run_serial(db, scripts)
        report = run_concurrent(db.server, scripts)
        assert_parity(serial_rows, report)
        summary = report.summary()
        assert summary["statements"] == 4
        assert summary["errors"] == 0
        assert report.throughput_qps > 0
        assert report.latency_percentile(99) >= report.latency_percentile(50)

    def test_percentile_nearest_rank(self):
        from repro.workloads import percentile

        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 50) == 0.2
        assert percentile(values, 99) == 0.4
        assert percentile([], 50) == 0.0
