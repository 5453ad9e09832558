"""The four workloads: what each client sends, and against which database.

A workload is a database configuration plus one or more closed-loop
*clients*.  A client produces *rounds*; a round is a fixed sequence of
operations in which every statement kind of the workload appears equally
often, so throughput and latency percentiles mean the same thing however
many whole rounds fit into the run.  Why each workload exists is recorded
in ``/BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from repro import Database, DataType, DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.workloads.tpcd import query_by_name

from .reference import HotJoinReference, Row, expected_rows

PAPER_QUERIES = ("Q1", "Q3", "Q5", "Q6", "Q7", "Q8", "Q10")
WRITE_CYCLE = "write_cycle"

HOT_KEYS = 200
HOT_JOIN_SQL = (
    "SELECT c_mktsegment AS segment, count(*) AS orders, sum(o_totalprice) AS total "
    "FROM hot, customer, orders "
    "WHERE h_custkey = c_custkey AND c_custkey = o_custkey "
    "GROUP BY c_mktsegment"
)

# Spans a statement produces whether or not its plan was cached ...
_ALWAYS = frozenset({
    "sql.binder.bind", "sql.deparser.deparse", "engine.PlanCache.lookup",
    "engine.clone_plan", "optimizer.PlanAnnotator.annotate",
    "executor.MemoryManager.allocate", "executor.Dispatcher.run",
    "core.DynamicReoptimizer.on_collector_complete",
})
# ... and the ones only a plan-cache miss produces.
_COLD = frozenset({
    "sql.parser.parse", "optimizer.Optimizer.optimize",
    "optimizer.JoinEnumerator.best_join_plan", "core.scia.insert_collectors",
    "engine.PlanCache.store",
})


@dataclass
class Op:
    """One operation: what to run and the reference answer it must return."""

    kind: str  # "<query>:<mode>" or "write_cycle"
    run: Callable[[], object]  # -> QueryResult
    expected: list[Row]


class References:
    """Reference answers for one database, computed once during set-up."""

    def __init__(self, db: Database, queries: Sequence[str], with_hot: bool) -> None:
        self.rows = {name: expected_rows(db, name) for name in queries}
        self.hot = HotJoinReference(db) if with_hot else None
        self.customers = db.table("customer").row_count


class AdhocClient:
    """``db.execute`` with the plan cache emptied first: every statement pays
    parse, bind, optimize and SCIA, as an ad-hoc analyst's would."""

    def __init__(self, db, refs: References, queries, modes) -> None:
        self.db, self.refs = db, refs
        self.statements = [(query_by_name(q), mode) for q in queries for mode in modes]

    def _execute(self, sql: str, mode: DynamicMode):
        self.db.plan_cache.clear()
        return self.db.execute(sql, mode=mode)

    def round(self) -> Iterator[Op]:
        for query, mode in self.statements:
            yield Op(
                f"{query.name}:{mode.value}",
                partial(self._execute, query.sql, mode),
                self.refs.rows[query.name],
            )

    def close(self) -> None:
        pass


class PreparedClient:
    """``Database.prepare()`` handles re-executed against a warm plan cache."""

    def __init__(self, db, refs: References, queries) -> None:
        self.refs = refs
        self.handles = [(name, db.prepare(query_by_name(name).sql)) for name in queries]

    def round(self) -> Iterator[Op]:
        for name, handle in self.handles:
            yield Op(f"{name}:full", handle.execute, self.refs.rows[name])

    def close(self) -> None:
        pass


class ServerClient:
    """One server session: per round the seven queries in an order drawn from
    the client's own RNG, a write cycle after the fourth and after the last.

    The ISSUE sketched i.i.d. draws of four reads per write; drawing a
    permutation instead keeps the read mix identical in every round, so a
    run that fits three rounds and one that fits four measure the same
    thing (one extra Q8 would otherwise move ``stmts_per_s`` by ~10 %).
    """

    def __init__(self, db, refs: References, seed: int, index: int | str) -> None:
        self.refs = refs
        self.rng = random.Random(f"{seed}:{index}")
        self.session = db.create_session(f"client-{index}")

    def _read(self, sql: str):
        return self.session.execute(sql)

    def write_cycle(self, keys: Sequence[int], mode: DynamicMode = DynamicMode.FULL):
        session = self.session
        session.create_temp_table("hot", [("h_custkey", DataType.INTEGER)])
        try:
            session.load_rows("hot", [(key,) for key in keys])
            session.analyze("hot")
            return session.execute(HOT_JOIN_SQL, mode=mode)
        finally:
            session.drop_table("hot")

    def draw_keys(self) -> list[int]:
        return self.rng.sample(range(self.refs.customers), HOT_KEYS)

    def _write_op(self) -> Op:
        keys = self.draw_keys()
        return Op(WRITE_CYCLE, partial(self.write_cycle, keys), self.refs.hot.expected(keys))

    def round(self) -> Iterator[Op]:
        order = self.rng.sample(PAPER_QUERIES, len(PAPER_QUERIES))
        for position, name in enumerate(order, start=1):
            yield Op(
                f"{name}:full",
                partial(self._read, query_by_name(name).sql),
                self.refs.rows[name],
            )
            if position in (4, len(order)):
                yield self._write_op()

    def close(self) -> None:
        self.session.close()


@dataclass(frozen=True)
class Workload:
    name: str
    scale_factor: float
    memory_pages: int
    queries: tuple[str, ...]
    #: Spans the traced pass must observe, or the run fails.
    expected_spans: frozenset[str]
    client_factory: Callable  # (workload, db, refs, seed) -> clients
    clients: int = 1
    write_cycle: bool = False

    def build(self, seed: int, smoke: bool) -> Database:
        """Generate, load, index and ANALYZE TPC-D (COARSE catalog)."""
        return build_database(ExperimentConfig(
            scale_factor=SMOKE_SCALE_FACTOR if smoke else self.scale_factor,
            memory_pages=self.memory_pages,
            seed=seed,
        ))

    def references(self, db: Database) -> References:
        return References(db, self.queries, with_hot=self.write_cycle)

    def make_clients(self, db: Database, refs: References, seed: int) -> list:
        return self.client_factory(self, db, refs, seed)


def _adhoc(*modes: DynamicMode):
    return lambda wl, db, refs, seed: [AdhocClient(db, refs, wl.queries, modes)]


def _prepared(wl, db, refs, seed):
    return [PreparedClient(db, refs, wl.queries)]


def _sessions(wl, db, refs, seed):
    return [ServerClient(db, refs, seed, i) for i in range(wl.clients)]


SMOKE_SCALE_FACTOR = 0.005

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "adhoc_cold", scale_factor=0.02, memory_pages=256, queries=PAPER_QUERIES,
            expected_spans=_ALWAYS | _COLD | {"engine.Database.execute"},
            client_factory=_adhoc(DynamicMode.FULL),
        ),
        Workload(
            "simple_medium_warm", scale_factor=0.05, memory_pages=256,
            queries=("Q1", "Q3", "Q6", "Q10"),
            expected_spans=_ALWAYS | {"engine.PreparedStatement.execute"},
            client_factory=_prepared,
        ),
        Workload(
            # The committed Figure-10 configuration (ExperimentConfig, 192 pages).
            "reopt_fig10", scale_factor=0.01, memory_pages=192, queries=PAPER_QUERIES,
            expected_spans=_ALWAYS | _COLD | {
                "engine.Database.execute", "core.remainder.build_remainder",
            },
            client_factory=_adhoc(DynamicMode.OFF, DynamicMode.FULL),
        ),
        Workload(
            "server_mixed", scale_factor=0.01, memory_pages=256, queries=PAPER_QUERIES,
            expected_spans=_ALWAYS | _COLD | {"engine.Session.execute", "stats.Catalog.analyze"},
            client_factory=_sessions, clients=2, write_cycle=True,
        ),
    )
}
