"""The concurrent query server: admission control + cross-query memory.

Every execution path built before this module ran one query at a time, so
engine throughput was bounded by single-query latency — and the paper's
memory re-allocation trigger (section 2.3) only ever saw the pressure one
query put on itself.  The server runs many sessions against one shared
:class:`~repro.engine.database.Database` and supplies the two pieces of
machinery that makes that safe and interesting:

**Admission control** (:class:`AdmissionController`) bounds concurrency at
``max_sessions`` statements in flight, parking excess arrivals in a bounded
FIFO queue.  A full queue (:data:`ADMISSION_QUEUE_SIZE` parked) rejects
immediately and a parked statement times out after
:data:`ADMISSION_TIMEOUT_S` — both raise :class:`~repro.errors.AdmissionError`.

**The global memory broker** (:class:`GlobalMemoryBroker`) divides the
server-wide page pool into per-session leases
(:meth:`MemoryManager.split_grant` computes the fair shares).  A lease may
*borrow* idle pages beyond its fair share; when another session arrives
(or leaves), the broker reclaims borrowed headroom and re-grants freed
pages to running leases by resizing their
:class:`~repro.executor.memory.MemoryManager` budgets mid-query.  The
resize lands at the query's next dynamic re-allocation (a statistics
collector completing), which is exactly the paper's trigger — now fed by
real cross-query pressure instead of a synthetic budget change.  Pages a
manager has already promised to operators (``reserved_pages``) are never
reclaimed, preserving the paper's started-operators-keep-their-grants rule.

Statements arrive only through a :class:`~repro.engine.session.Session`
and run on its thread, sharing the engine's memory, so a mid-query
re-grant reaches the running query.

Determinism: an uncontended server grants every statement its full
requested budget (the pool defaults to ``max_sessions *
query_memory_pages``), so results *and profiles* are byte-identical to
inline execution; under contention, results stay byte-identical — grants
only change plan *timing* knobs the executor is deterministic over — while
memory telemetry records the arbitration that actually happened.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import monotonic, perf_counter
from typing import TYPE_CHECKING, Mapping

from ..core.modes import DynamicMode
from ..errors import AdmissionError
from ..executor.memory import MemoryManager
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observe.metrics import MetricsRegistry
    from ..sql.ast import AstSelect
    from .database import Database
    from .results import QueryResult

__all__ = [
    "AdmissionController",
    "GlobalMemoryBroker",
    "QueryServer",
    "SessionLease",
]

#: Statements that may wait for an admission slot; arrivals past this bound
#: are rejected (overload sheds load rather than queueing without limit).
ADMISSION_QUEUE_SIZE = 64
#: Seconds a statement may wait for admission or for memory before it is
#: refused (guards tests and CI against deadlock-shaped bugs).
ADMISSION_TIMEOUT_S = 120.0

#: Bucket bounds for the broker's page-size histograms (powers of four, in
#: pages — the default wall-clock-oriented buckets bottom out far below any
#: real grant).
_PAGE_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)


class SessionLease:
    """One session-statement's slice of the server's page pool.

    ``granted_pages`` is live: the broker may grow it (a re-grant, when
    pages free up) or shrink it (a reclaim, when another session needs its
    guarantee) while the statement runs.  Once a
    :class:`~repro.executor.memory.MemoryManager` is attached, grant
    changes flow through :meth:`MemoryManager.resize`, whose
    ``reserved_pages`` floor caps how much a reclaim can actually take.
    """

    def __init__(self, label: str, requested_pages: int, guarantee_pages: int) -> None:
        self.label = label
        self.requested_pages = requested_pages
        self.guarantee_pages = guarantee_pages
        self.granted_pages = 0
        self.regrants = 0
        self.reclaims = 0
        self._manager: MemoryManager | None = None

    def attach(self, manager: MemoryManager) -> None:
        """Bind the running query's memory manager to this lease."""
        self._manager = manager
        # A re-grant may have landed between lease acquisition and the
        # manager's construction; converge on the lease's current view.
        manager.resize(self.granted_pages)

    def reclaim_floor(self) -> int:
        """Pages this lease can never give back (guarantee + promised grants)."""
        reserved = self._manager.reserved_pages if self._manager is not None else 0
        return max(self.guarantee_pages, reserved, 1)

    def apply_grant(self, pages: int) -> int:
        """Set the grant (broker-internal; called under the broker lock).

        Returns the grant actually in force — a shrink below the attached
        manager's reserved pages is floored by :meth:`MemoryManager.resize`.
        """
        pages = max(pages, 1)
        if self._manager is not None:
            pages = self._manager.resize(pages)
        before = self.granted_pages
        self.granted_pages = pages
        if pages > before:
            self.regrants += 1
        elif pages < before:
            self.reclaims += 1
        return pages


class GlobalMemoryBroker:
    """Arbitrates the server-wide page pool across session leases.

    A default-budget statement is guaranteed ``min(requested, total //
    max_sessions)`` pages and may borrow idle pages up to its full request;
    arrivals reclaim borrowed headroom (never below a lease's guarantee or
    its manager's promised pages) and departures re-grant freed pages to
    running leases in arrival order.
    """

    def __init__(
        self,
        total_pages: int,
        max_sessions: int,
        metrics: "MetricsRegistry | None" = None,
        timeout_s: float = ADMISSION_TIMEOUT_S,
    ) -> None:
        self.total_pages = max(1, total_pages)
        self.max_sessions = max(1, max_sessions)
        self.timeout_s = timeout_s
        self._metrics = metrics
        self._cond = threading.Condition()
        #: Live leases in arrival order (the re-grant order).
        self._leases: list[SessionLease] = []

    @property
    def fair_share(self) -> int:
        """Per-session guarantee (never zero)."""
        return max(
            1, MemoryManager.split_grant(self.total_pages, self.max_sessions)[0]
        )

    def granted_pages(self) -> int:
        """Pages currently out on leases (callers need not hold the lock:
        reads are a consistent-enough snapshot for telemetry)."""
        return sum(lease.granted_pages for lease in self._leases)

    def free_pages(self) -> int:
        """Pages not currently granted to any lease."""
        return self.total_pages - self.granted_pages()

    def acquire(self, label: str, requested_pages: int) -> SessionLease:
        """Block until a lease with at least its guarantee can be issued."""
        requested = max(1, requested_pages)
        guarantee = min(requested, self.fair_share)
        lease = SessionLease(label, requested, guarantee)
        deadline = monotonic() + self.timeout_s
        with self._cond:
            while True:
                reclaimable = sum(
                    max(0, other.granted_pages - other.reclaim_floor())
                    for other in self._leases
                )
                if self.free_pages() + reclaimable >= guarantee:
                    break
                remaining = deadline - monotonic()
                if remaining <= 0:
                    self._bump("broker.timeouts")
                    raise AdmissionError(
                        f"statement {label!r} timed out waiting for "
                        f"{guarantee} pages (pool={self.total_pages}, "
                        f"granted={self.granted_pages()})"
                    )
                self._bump("broker.waits")
                self._cond.wait(remaining)
            shortfall = guarantee - self.free_pages()
            if shortfall > 0:
                self._reclaim(shortfall)
            grant = min(requested, max(guarantee, self.free_pages()))
            lease.apply_grant(grant)
            lease.regrants = 0  # the initial grant is not a re-grant
            self._leases.append(lease)
            self._bump("broker.leases")
            self._observe_pages("broker.grant_pages", grant)
            self._set_gauges()
        return lease

    def release(self, lease: SessionLease) -> None:
        """Return a lease's pages and re-grant them to running statements."""
        with self._cond:
            if lease in self._leases:
                self._leases.remove(lease)
                lease.granted_pages = 0
                self._redistribute()
            self._set_gauges()
            self._cond.notify_all()

    def _reclaim(self, needed: int) -> None:
        """Shrink borrowed headroom, youngest lease first (under the lock)."""
        for other in reversed(self._leases):
            if needed <= 0:
                break
            floor = other.reclaim_floor()
            headroom = other.granted_pages - floor
            if headroom <= 0:
                continue
            target = max(floor, other.granted_pages - needed)
            before = other.granted_pages
            actual = other.apply_grant(target)
            taken = before - actual
            if taken > 0:
                needed -= taken
                self._bump("broker.reclaims")
                self._observe_pages("broker.reclaim_pages", taken)

    def _redistribute(self) -> None:
        """Top freed pages back up to running leases, arrival order."""
        for other in self._leases:
            free = self.free_pages()
            if free <= 0:
                break
            deficit = other.requested_pages - other.granted_pages
            if deficit <= 0:
                continue
            topped_up = min(free, deficit)
            other.apply_grant(other.granted_pages + topped_up)
            self._bump("broker.regrants")
            self._observe_pages("broker.regrant_pages", topped_up)

    def _bump(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _observe_pages(self, name: str, pages: int) -> None:
        """Histogram a grant/reclaim/re-grant size (page-scale buckets, so
        the distribution of lease resizes is visible on the metrics page
        next to the existing ``server.admission_wait_s`` latency)."""
        if self._metrics is not None:
            self._metrics.histogram(name, buckets=_PAGE_BUCKETS).observe(pages)

    def _set_gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("broker.leases_active").set(len(self._leases))
            self._metrics.gauge("broker.free_pages").set(self.free_pages())


class AdmissionController:
    """Bounded FIFO admission: at most ``max_active`` statements run; up to
    ``queue_size`` more wait, admitted in arrival order; everyone else is
    refused immediately."""

    def __init__(
        self,
        max_active: int,
        queue_size: int,
        timeout_s: float,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.max_active = max(1, max_active)
        self.queue_size = max(0, queue_size)
        self.timeout_s = timeout_s
        self._metrics = metrics
        self._cond = threading.Condition()
        self._active = 0
        self._waiting: deque[int] = deque()  # tickets, oldest first
        self._tickets = itertools.count()

    def admit(self) -> tuple[float, int]:
        """Block until admitted; returns (wait_seconds, queue_depth_on_arrival)."""
        t0 = perf_counter()
        with self._cond:
            if self._active >= self.max_active and len(self._waiting) >= self.queue_size:
                self._bump("server.rejected")
                raise AdmissionError(
                    f"admission queue full ({len(self._waiting)} waiting, "
                    f"{self._active} active)"
                )
            depth = len(self._waiting)
            ticket = next(self._tickets)
            self._waiting.append(ticket)
            self._set_gauges()
            deadline = monotonic() + self.timeout_s
            try:
                while not (
                    self._active < self.max_active and self._waiting[0] == ticket
                ):
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        self._bump("server.admission_timeouts")
                        raise AdmissionError(
                            f"statement timed out after {self.timeout_s:.1f}s "
                            f"in the admission queue"
                        )
                    self._cond.wait(remaining)
            except BaseException:
                self._waiting.remove(ticket)
                self._set_gauges()
                self._cond.notify_all()
                raise
            self._waiting.popleft()
            self._active += 1
            self._bump("server.admitted")
            self._set_gauges()
            # Wake the next head: slots may still be free.
            self._cond.notify_all()
        wait_s = perf_counter() - t0
        if self._metrics is not None:
            self._metrics.histogram("server.admission_wait_s").observe(wait_s)
        return wait_s, depth

    def leave(self) -> None:
        """Release an admission slot."""
        with self._cond:
            self._active -= 1
            self._set_gauges()
            self._cond.notify_all()

    def _bump(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _set_gauges(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("server.sessions_active").set(self._active)
            self._metrics.gauge("server.queue_depth").set(len(self._waiting))


class QueryServer:
    """Runs concurrent statements against one shared :class:`Database`."""

    def __init__(self, database: "Database") -> None:
        self.database = database
        config = database.config
        self.broker = GlobalMemoryBroker(
            total_pages=config.resolved_server_memory_pages,
            max_sessions=config.max_sessions,
            metrics=database.metrics,
        )
        self.admission = AdmissionController(
            max_active=config.max_sessions,
            queue_size=ADMISSION_QUEUE_SIZE,
            timeout_s=ADMISSION_TIMEOUT_S,
            metrics=database.metrics,
        )

    def session(self, name: str | None = None) -> Session:
        """Open a new session (its own temp namespace and cache scope)."""
        return Session(self, name)

    def _execute(
        self,
        session: Session,
        sql: str,
        ast: "AstSelect | None" = None,
        params: Mapping[str, object] | None = None,
        mode: DynamicMode = DynamicMode.FULL,
        parametric: bool = False,
    ) -> "QueryResult":
        """Run one session statement under admission and a broker lease."""
        db = self.database
        wait_s, depth = self.admission.admit()
        try:
            lease = self.broker.acquire(session.name, db.config.query_memory_pages)
            try:
                prepared = db._prepare(
                    sql,
                    ast=ast,
                    params=params,
                    mode=mode,
                    parametric=parametric,
                    catalog=session.catalog,
                    cache_scope=session.scope,
                )
                return db._run(
                    prepared,
                    sql,
                    mode,
                    catalog=session.catalog,
                    lease=lease,
                    session_label=session.name,
                    admission_wait_s=wait_s,
                    admission_queue_depth=depth,
                )
            finally:
                self.broker.release(lease)
        finally:
            self.admission.leave()
            if db.metrics is not None:
                db.metrics.counter("server.statements").inc()
