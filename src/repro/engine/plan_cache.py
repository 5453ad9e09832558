"""The statistics-epoch plan cache.

PR 1's batch executor made execution fast enough that end-to-end latency on
complex queries is dominated by compile-time work: parse, bind, DP join
enumeration, SCIA collector placement and predicate compilation were re-done
from scratch on every :meth:`repro.engine.Database.execute` call.  This
module caches the products of that work so repeated statements pay it once.

Two kinds of entry live in one LRU map:

* **Exact entries** — keyed by the *normalized* SQL text (the bound query
  deparsed back to canonical SQL, so formatting, alias qualification and
  literal spelling all collapse), the parameter signature and the
  :class:`~repro.core.modes.DynamicMode`.  They hold
  the bound query, the optimized annotated plan with statistics collectors
  already spliced, and the SCIA result.  Served plans are **cloned**
  (:func:`repro.plans.physical.clone_plan`) before execution: the SCIA, the
  annotation passes and mid-query plan switches all mutate plans in place,
  so the cached template itself is never executed.

* **Parametric entries** — keyed by the *parameter-masked* normalized SQL
  (host-variable constants rendered as ``:name`` placeholders), holding a
  :class:`~repro.core.parametric.ParametricPlan` scenario set.  Scenario
  plan *structure* is parameter-value independent (the scenario estimator
  deliberately ignores the values), so one entry serves every binding of the
  statement; per execution only the cheap ``choose_plan`` selection and
  value plugging remain.

**An entry is stale when something the optimizer reads has changed.**  Every
entry is stamped with the catalog's statistics epoch
(:attr:`repro.storage.catalog.Catalog.stats_epoch`) at optimization time;
``ANALYZE``, data loads, index/table DDL and injected statistics bump it, and
a lookup whose entry carries an older epoch — or a fragment that has since
earned a bad feedback record — is a miss counted as an invalidation.  A
mid-query plan switch is not such an event: what it observed goes to the
running query's temp table (paper section 2.4), never to the catalog, so a
statement that switches is served warm and its clone switches again, with
the rows and simulated cost of a cold execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.scia import SciaResult
from ..plans.logical import LogicalQuery
from ..plans.physical import PlanNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.parametric import ParametricPlan
    from ..observe.feedback import FeedbackRepository
    from ..observe.metrics import MetricsRegistry

#: Default number of cached entries (exact + parametric combined).
DEFAULT_CAPACITY = 128

#: Why a lookup missed (:meth:`PlanCache.lookup`,
#: :attr:`~repro.engine.profile.ExecutionProfile.plan_cache_miss`).
MISS_ABSENT = "absent"
MISS_STALE_EPOCH = "stale-epoch"
MISS_FEEDBACK = "feedback"


def parameter_signature(params: Mapping[str, object] | None) -> tuple:
    """A hashable fingerprint of one parameter binding (names, types, values)."""
    if not params:
        return ()
    return tuple(
        (name, type(value).__name__, repr(value))
        for name, value in sorted(params.items(), key=lambda kv: kv[0])
    )


@dataclass
class CachedPlan:
    """One exact entry: everything :meth:`Database.execute` needs pre-done."""

    query: LogicalQuery
    plan: PlanNode
    scia: SciaResult | None
    epoch: int
    #: Fragment signatures of the cached plan (``observe.feedback``); used
    #: to proactively invalidate entries whose fragments earn a bad Q-error
    #: record after the entry was stored.  Empty when feedback is disabled.
    signatures: frozenset[str] = frozenset()
    #: Feedback-repository epoch at store time: only records absorbed
    #: *after* this can poison the entry.
    feedback_epoch: int = 0


@dataclass
class CachedScenarios:
    """One parametric entry: a reusable scenario set for a statement."""

    parametric: "ParametricPlan"
    epoch: int


@dataclass
class PlanCacheStats:
    """Hit/miss/invalidation counters, exposed on profiles and in tests."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    stores: int = 0
    #: Invalidations caused by the feedback repository recording a bad
    #: Q-error for one of the entry's fragments (a subset of
    #: ``invalidations``).
    feedback_invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "PlanCacheStats":
        """An immutable copy for profiles/reports."""
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            evictions=self.evictions,
            stores=self.stores,
            feedback_invalidations=self.feedback_invalidations,
        )


class PlanCache:
    """LRU map of prepared-query entries with statistics-epoch invalidation.

    The cache is shared by every session of a concurrent server, so lookup,
    store and clear serialize on one re-entrant lock: the LRU ``OrderedDict``
    and the stat counters are mutated under it, and the epoch check inside
    :meth:`lookup` is atomic with the entry fetch — a concurrent stats-epoch
    bump can race the *caller* (which re-checks the epoch it passed in), but
    can never corrupt LRU order or hand back a half-evicted entry.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[tuple, CachedPlan | CachedScenarios]" = OrderedDict()
        self.stats = PlanCacheStats()
        self._metrics = metrics
        self._lock = threading.RLock()

    def _bump(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"plan_cache.{name}").inc(amount)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @staticmethod
    def exact_key(
        normalized_sql: str,
        param_signature: tuple,
        mode_value: str,
        scope: str = "",
    ) -> tuple:
        """Key for a fully bound statement.

        ``scope`` is the session scope: statements that touch session-local
        tables (temp tables created through a :class:`~repro.engine.session
        .Session`) are keyed under that session's id so one session's plan —
        whose bound schema and statistics describe *its* temp table — is
        never served to another session with a same-named table.  Global
        statements use the empty scope and share entries across sessions.
        """
        return (
            "exact",
            scope,
            normalized_sql,
            param_signature,
            mode_value,
        )

    @staticmethod
    def parametric_key(masked_sql: str, scope: str = "") -> tuple:
        """Key for a parametric scenario set (mode/value independent)."""
        return ("parametric", scope, masked_sql)

    def lookup(
        self,
        key: tuple,
        epoch: int,
        feedback: "FeedbackRepository | None" = None,
    ) -> "tuple[CachedPlan | CachedScenarios | None, str | None]":
        """``(entry, None)`` on a hit, ``(None, reason)`` on a miss.

        The reason is one of :data:`MISS_ABSENT` (nothing stored under
        ``key``), :data:`MISS_STALE_EPOCH` (the entry was optimized under
        another statistics epoch) or :data:`MISS_FEEDBACK` (with a feedback
        repository supplied: one of the entry's plan-fragment signatures
        earned a bad Q-error record after the entry was stored — the
        re-prepared plan then benefits from the feedback corrections).  The
        last two drop the entry and count as invalidations as well as
        misses; a hit refreshes the entry's LRU position.  The reason
        travels with the return value, not on the cache, which every
        session shares.
        """
        with self._lock:
            entry = self._entries.get(key)
            miss = None
            if entry is None:
                miss = MISS_ABSENT
            elif entry.epoch != epoch:
                miss = MISS_STALE_EPOCH
            elif feedback is not None and getattr(entry, "signatures", None):
                poisoned = feedback.poisoned_since(entry.feedback_epoch)
                if poisoned and not poisoned.isdisjoint(entry.signatures):
                    miss = MISS_FEEDBACK
            if miss is None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._bump("hits")
                return entry, None
            self.stats.misses += 1
            self._bump("misses")
            if miss != MISS_ABSENT:
                del self._entries[key]
                self.stats.invalidations += 1
                self._bump("invalidations")
            if miss == MISS_FEEDBACK:
                self.stats.feedback_invalidations += 1
                self._bump("feedback_invalidations")
            return None, miss

    def store(self, key: tuple, entry: "CachedPlan | CachedScenarios") -> None:
        """Insert (or replace) an entry, evicting the LRU tail if needed.
        A cache of capacity 0 stores nothing."""
        if not self.capacity:
            return
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            self.stats.stores += 1
            self._bump("stores")
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self._bump("evictions")

    def drop_scope(self, scope: str) -> int:
        """Drop every entry keyed under ``scope``; returns the count dropped.

        Called when a session closes so its temp-table plans do not linger
        in the LRU (they can never hit again — the scope id is unique).
        """
        with self._lock:
            doomed = [key for key in self._entries if key[1] == scope]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
