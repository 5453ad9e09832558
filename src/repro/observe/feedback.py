"""Persistent estimate-feedback repository: cross-query learning from Q-error.

The paper's loop — collect statistics, detect estimate inaccuracy,
re-optimize — is *within* one query; PR 5's ``explain_analyze`` computes
per-node Q-error and throws it away when the query ends.  This module keeps
it.  At query end the engine absorbs one :class:`FeedbackRecord` per
distinct plan fragment that completed (estimate snapshot taken at plan
adoption vs. the collector-observed actual cardinality), keyed by a
*normalized fragment signature* so the knowledge transfers across plan
shapes, executions, and processes:

* **signature scheme** — a fragment's canonical text is structural, never
  node-id based: ``scan(table)``, ``filter(scan(t), [sorted predicate
  SQL])``, commutative ``join({sorted inputs}, [sorted keys], [residual])``,
  ``agg(input, [group cols])`` and so on.  Aliases are rewritten to their
  base-table names, adjacent filters are flattened, index-scan bounds
  render as ordinary filter predicates, and nested joins flatten into one
  ``join`` over the whole logical relation set — so a seq-scan-plus-filter
  and an index scan of the same predicate share one record, as do build
  and probe orientations and *every join order* of one logical result
  (cardinality is a property of the logical expression, not the physical
  shape; per-shape records would make the optimizer serially "explore"
  untried orders whose estimates stay optimistic).  Bound constants render
  as literals, which makes records deliberately per-parameter-value.
  After a mid-query plan switch the remainder plan scans a ``__temp_N``
  materialization; absorption resolves those temps back to the subtree
  they materialized (via the outcome's switch events) and renders the
  fragment as if the switch never cut the plan — the fragments *above* a
  switch point are precisely the ones the optimizer misjudged, and
  skipping them would re-trigger the same switch every execution.
  Join fragments with no exact record fall back to :class:`EdgeRecord`
  per-predicate selectivity ratios (LEO-style), whose product
  extrapolates — clamped — to join orders never executed.
* **consumers** — the estimator applies a bounded, recency-decayed
  correction to fragments whose histogram estimate disagrees with the
  recorded observation by at least the Q-error threshold; the plan cache
  invalidates entries whose fragments earned a bad record *after* the entry
  was stored; SCIA and the re-optimization triggers treat
  historically-misestimated fragments as high risk.
* **zero perturbation** — recording happens after the simulated cost clock
  stops and only *reads* runtime state, so the first execution with an
  empty store is byte-identical to running with feedback disabled.  Only
  *subsequent* optimizations see the records — changing future plans is the
  feature, not a leak.

The store is JSON-on-disk (atomic tmp-file + rename), epoch-versioned (the
repository epoch advances once per absorbed query; the catalog's statistics
epoch stamps each record for confidence decay), and thread-safe behind one
lock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..plans.physical import (
    BlockNLJoinNode,
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexNLJoinNode,
    IndexScanNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
    StatsCollectorNode,
)
from .analyze import q_error

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..executor.dispatcher import DispatchResult
    from ..executor.runtime import RuntimeContext
    from .metrics import MetricsRegistry

__all__ = [
    "EdgeRecord",
    "FeedbackRecord",
    "FeedbackRepository",
    "fragment_signature",
    "fragment_text",
    "plan_signatures",
]

#: On-disk document version (bumped on incompatible schema changes; loads
#: of unknown versions are ignored rather than crashing the engine).
STORE_VERSION = 1

#: When one query yields several observations of the same fragment (a
#: collector wrapping a join, the join itself, a zone-mapped scan under
#: both), the most trustworthy source wins.
_SOURCE_PRIORITY = {"collector": 3, "zone-map": 2, "execution": 1, "re-opt": 0}

#: Operators that pass their input's cardinality through unchanged; they
#: share the child's fragment identity instead of minting their own.
_TRANSPARENT = (StatsCollectorNode, ProjectNode, SortNode)


# ----------------------------------------------------------------------
# Fragment signatures
# ----------------------------------------------------------------------


#: ``temp.alias__col`` references in remainder plans de-mangle back to the
#: ``alias.col`` the cut subtree used (see ``core.remainder.temp_column_name``),
#: so predicates over a switch's temp table normalize identically to the
#: unswitched rendering.
_TEMP_COLUMN = re.compile(r"\b__temp_\d+\.([A-Za-z0-9_]+?)__")


def _alias_rewrites(
    node: PlanNode,
    temp_sources: Mapping[str, PlanNode] | None = None,
    _seen: set[str] | None = None,
) -> list[tuple[str, str]]:
    """(alias, table) pairs for every base relation under ``node`` whose
    alias differs from the table name.  Scans of a resolvable temp table
    contribute the aliases of the subtree the temp materialized."""
    rewrites: dict[str, str] = {}
    seen = _seen if _seen is not None else set()

    def merge_temp(name: str) -> None:
        if temp_sources and name in temp_sources and name not in seen:
            seen.add(name)
            rewrites.update(
                _alias_rewrites(temp_sources[name], temp_sources, seen)
            )

    for sub in node.walk():
        if isinstance(sub, (SeqScanNode, IndexScanNode)):
            if sub.alias != sub.table_name:
                rewrites[sub.alias] = sub.table_name
            merge_temp(sub.table_name)
        elif isinstance(sub, IndexNLJoinNode):
            if sub.inner_alias != sub.inner_table:
                rewrites[sub.inner_alias] = sub.inner_table
            merge_temp(sub.inner_table)
    return sorted(rewrites.items())


def _normalizer(
    node: PlanNode, temp_sources: Mapping[str, PlanNode] | None = None
):
    """A function rewriting ``alias.column`` to ``table.column`` for every
    alias in this subtree (de-mangling temp-table column names first).
    Self-joins alias one table twice; both collapse to the same name, so
    their fragments share records — a deliberate coarsening (the fragments
    are statistically interchangeable)."""
    rewrites = _alias_rewrites(node, temp_sources)
    patterns = [
        (re.compile(rf"\b{re.escape(alias)}\."), f"{table}.")
        for alias, table in rewrites
    ]

    def normalize(text: str) -> str:
        text = _TEMP_COLUMN.sub(r"\1.", text)
        for pattern, replacement in patterns:
            text = pattern.sub(replacement, text)
        return text

    return normalize


def _filter_parts(text: str) -> tuple[str, list[str]]:
    """Split our own ``filter(base, [p; q])`` rendering back into (base,
    predicates) so stacked filters flatten into one canonical conjunction."""
    if text.startswith("filter(") and text.endswith("])"):
        base, __, preds = text[len("filter(") : -2].rpartition(", [")
        if base:
            return base, [p for p in preds.split("; ") if p]
    return text, []


def _filter_text(base: str, predicates: Iterable[str]) -> str:
    inner_base, existing = _filter_parts(base)
    merged = sorted(set(existing) | set(predicates))
    if not merged:
        return inner_base
    return f"filter({inner_base}, [{'; '.join(merged)}])"


def _join_key_text(left: str, right: str) -> str:
    a, b = sorted((left, right))
    return f"{a} = {b}"


_JOIN_TYPES = (HashJoinNode, IndexNLJoinNode, BlockNLJoinNode)


def _unwrap_transparent(node: PlanNode) -> PlanNode:
    while isinstance(node, _TRANSPARENT):
        node = node.children[0]
    return node


def _join_components(
    node: PlanNode,
    memo: dict[int, str],
    temp_sources: Mapping[str, PlanNode] | None = None,
) -> tuple[list[str], list[str], list[str]]:
    """(input texts, join-key texts, residual texts) of the *flattened*
    join tree rooted at ``node``.

    Nested joins contribute their own inputs and predicates instead of
    appearing as opaque inputs, so every join order over one logical set
    of relations renders identically — the observed cardinality of
    ``(A ⋈ B) ⋈ C`` is the cardinality of ``(A ⋈ C) ⋈ B``, and keying
    records by the logical result (rather than one physical shape) is what
    lets a correction reach *every* candidate order the optimizer weighs.
    Without it the optimizer serially "explores": corrected fragments look
    expensive while any untried order keeps its optimistic estimate.
    """
    normalize = _normalizer(node, temp_sources)
    inputs: list[str] = []
    keys: list[str] = []
    residual: list[str] = []

    def absorb_input(child: PlanNode) -> None:
        unwrapped = _unwrap_transparent(child)
        if isinstance(unwrapped, SeqScanNode) and temp_sources:
            source = temp_sources.get(unwrapped.table_name)
            if source is not None:
                # The temp holds a materialized subtree; flatten through it
                # as if the switch never cut the plan.
                absorb_input(source)
                return
        if isinstance(unwrapped, _JOIN_TYPES):
            sub = _join_components(unwrapped, memo, temp_sources)
            inputs.extend(sub[0])
            keys.extend(sub[1])
            residual.extend(sub[2])
        else:
            inputs.append(fragment_text(child, memo, temp_sources))

    if isinstance(node, HashJoinNode):
        absorb_input(node.build)
        absorb_input(node.probe)
        keys.extend(
            _join_key_text(normalize(b), normalize(p)) for b, p in node.key_pairs
        )
        residual.extend(normalize(p.sql()) for p in node.residual)
    elif isinstance(node, IndexNLJoinNode):
        absorb_input(node.outer)
        inputs.append(f"scan({node.inner_table})")
        keys.append(
            _join_key_text(
                normalize(node.outer_column),
                f"{node.inner_table}.{node.inner_column}",
            )
        )
        residual.extend(normalize(p.sql()) for p in node.residual)
    else:  # BlockNLJoinNode
        for child in node.children:
            absorb_input(child)
        residual.extend(normalize(p.sql()) for p in node.predicates)
    return inputs, keys, residual


def fragment_text(
    node: PlanNode,
    memo: dict[int, str] | None = None,
    temp_sources: Mapping[str, PlanNode] | None = None,
) -> str:
    """Canonical, structural text of the plan fragment rooted at ``node``.

    Independent of node ids, join orientation, filter stacking, access path
    (index vs. scan-plus-filter) and table aliases — two fragments with the
    same text compute the same relation, so observed cardinality transfers
    between them.  ``temp_sources`` (``temp name -> materialized subtree``)
    lets a post-switch remainder plan render as if the switch never
    happened: a scan of the temp is the fragment it materialized.
    """
    if memo is None:
        memo = {}
    cached = memo.get(node.node_id)
    if cached is not None:
        return cached
    normalize = _normalizer(node, temp_sources)
    if isinstance(node, SeqScanNode):
        source = temp_sources.get(node.table_name) if temp_sources else None
        if source is not None:
            text = fragment_text(source, memo, temp_sources)
        else:
            text = f"scan({node.table_name})"
    elif isinstance(node, IndexScanNode):
        preds = sorted(normalize(p.sql()) for p in node.bound_predicates)
        text = _filter_text(f"scan({node.table_name})", preds)
    elif isinstance(node, FilterNode):
        preds = [normalize(p.sql()) for p in node.predicates]
        text = _filter_text(fragment_text(node.child, memo, temp_sources), preds)
    elif isinstance(node, _TRANSPARENT):
        text = fragment_text(node.children[0], memo, temp_sources)
    elif isinstance(node, _JOIN_TYPES):
        inputs, keys, residual = _join_components(node, memo, temp_sources)
        # Inputs are a multiset (a self-join repeats one text); predicates
        # dedupe (one conjunct, however many times plans restate it).
        text = (
            f"join({{{' & '.join(sorted(inputs))}}}, "
            f"[{'; '.join(sorted(set(keys)))}], "
            f"[{'; '.join(sorted(set(residual)))}])"
        )
    elif isinstance(node, HashAggregateNode):
        groups = sorted(normalize(col) for col in node.group_by)
        text = (
            f"agg({fragment_text(node.child, memo, temp_sources)}, "
            f"[{', '.join(groups)}])"
        )
    elif isinstance(node, DistinctNode):
        text = f"distinct({fragment_text(node.child, memo, temp_sources)})"
    elif isinstance(node, LimitNode):
        text = f"limit({fragment_text(node.child, memo, temp_sources)}, {node.limit})"
    else:  # pragma: no cover - future operators degrade gracefully
        inputs = " & ".join(fragment_text(c, memo, temp_sources) for c in node.children)
        text = f"{node.label.lower()}({inputs})"
    memo[node.node_id] = text
    return text


def join_edge_key(
    node: PlanNode, temp_sources: Mapping[str, PlanNode] | None = None
) -> str | None:
    """Join-order-independent key for the predicate set one join node
    applies (its equi-join keys plus residuals, normalized and sorted).
    ``None`` for operators edge feedback cannot attribute — an index
    nested-loop folds the inner access into the operator, so its
    selectivity is not separable from the lookup."""
    if not isinstance(node, (HashJoinNode, BlockNLJoinNode)):
        return None
    normalize = _normalizer(node, temp_sources)
    if isinstance(node, HashJoinNode):
        parts = sorted(
            _join_key_text(normalize(b), normalize(p)) for b, p in node.key_pairs
        )
        parts += sorted(normalize(p.sql()) for p in node.residual)
    else:
        parts = sorted(normalize(p.sql()) for p in node.predicates)
    return "; ".join(parts) if parts else None


def _temp_tainted(
    plan: PlanNode, resolved: Iterable[str] = ()
) -> frozenset[int]:
    """Node ids whose fragment reads an *unresolvable* ``__temp_*`` table.
    Temp names are recycled query to query (each query's manager counts
    from zero), so a record keyed on one would silently describe another
    query's data — absorption skips them.  Temps in ``resolved`` map back
    to the subtree they materialized (this query's own plan switches) and
    are clean."""
    tainted: set[int] = set()
    known = frozenset(resolved)

    def unresolvable(name: str) -> bool:
        return name.startswith("__temp_") and name not in known

    def visit(node: PlanNode) -> bool:
        hit = False
        for child in node.children:
            if visit(child):
                hit = True
        if isinstance(node, (SeqScanNode, IndexScanNode)):
            hit = hit or unresolvable(node.table_name)
        elif isinstance(node, IndexNLJoinNode):
            hit = hit or unresolvable(node.inner_table)
        if hit:
            tainted.add(node.node_id)
        return hit

    visit(plan)
    return frozenset(tainted)


def fragment_signature(
    node: PlanNode,
    memo: dict[int, str] | None = None,
    temp_sources: Mapping[str, PlanNode] | None = None,
) -> str:
    """Stable short digest of :func:`fragment_text`."""
    text = fragment_text(node, memo, temp_sources)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def plan_signatures(plan: PlanNode) -> dict[int, str]:
    """``node_id -> fragment signature`` for every node of ``plan``."""
    memo: dict[int, str] = {}
    return {node.node_id: fragment_signature(node, memo) for node in plan.walk()}


# ----------------------------------------------------------------------
# Records and the repository
# ----------------------------------------------------------------------


@dataclass
class FeedbackRecord:
    """One fragment's latest estimate-vs-actual observation.

    ``est_rows``/``q_error`` describe the estimate *as planned* at the last
    execution (corrections included, so a learning optimizer's records show
    its Q-error falling); ``observed_rows`` is the ground truth corrections
    are computed from.  ``epoch`` is the repository epoch of the last
    update (drives plan-cache invalidation), ``stats_epoch`` the catalog
    statistics epoch (drives confidence decay).
    """

    signature: str
    fragment: str
    est_rows: float
    observed_rows: float
    q_error: float
    source: str
    count: int = 1
    epoch: int = 0
    stats_epoch: int = 0
    hits: int = 0
    corrections: int = 0


@dataclass
class EdgeRecord:
    """Observed-vs-estimated *selectivity* adjustment for one join edge.

    Fragment records are exact but only cover logical subsets the engine
    has executed; any untried join order keeps its optimistic histogram
    estimate, so a purely per-fragment store makes the optimizer serially
    "explore" unknown orders (each pass picks a fresh untried shape whose
    estimate nobody has falsified yet — the classic cardinality-feedback
    oscillation).  Edge records close that gap the way LEO does: at absorb
    time the join's selectivity error is isolated from its inputs' errors
    (``(obs_join / obs_l·obs_r) / (est_join / est_l·est_r)``) and keyed by
    the normalized join-predicate set, which is join-order independent.
    Annotation applies the factor to any join fragment *without* an exact
    record, so every candidate order the optimizer weighs sees the learned
    selectivity and the known-best plan wins immediately.
    """

    key: str
    factor: float
    epoch: int = 0
    stats_epoch: int = 0
    count: int = 1


class FeedbackRepository:
    """Thread-safe, optionally JSON-backed store of feedback records."""

    def __init__(
        self,
        path: str = "",
        *,
        q_error_threshold: float = 2.0,
        decay: float = 0.9,
        max_correction: float = 100.0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.path = path
        self.q_error_threshold = float(q_error_threshold)
        self.decay = float(decay)
        self.max_correction = float(max_correction)
        self._metrics = metrics
        self._records: dict[str, FeedbackRecord] = {}
        self._edges: dict[str, EdgeRecord] = {}
        #: Repository epoch: advances once per absorbed query.  Plan-cache
        #: entries remember the epoch they were stored at; only records
        #: updated *later* can invalidate them.
        self.epoch = 0
        self.queries_absorbed = 0
        self._lock = threading.RLock()
        if path and os.path.exists(path):
            self.load()

    # -- metrics ---------------------------------------------------------

    def _bump(self, name: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"feedback.{name}").inc(amount)

    # -- core accessors --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def lookup(self, signature: str) -> FeedbackRecord | None:
        with self._lock:
            return self._records.get(signature)

    def confidence(self, record: FeedbackRecord, stats_epoch: int) -> float:
        """Trust in a record: full when observed at the current statistics
        epoch, decaying by :attr:`decay` per epoch the catalog has churned
        since.  Repetition does not add trust — an observed cardinality is
        exact for its fragment, only staleness erodes it."""
        age = max(0, int(stats_epoch) - record.stats_epoch)
        return self.decay**age

    def corrected_rows(
        self,
        signature: str,
        est_rows: float,
        stats_epoch: int,
        edge_key: str | None = None,
    ) -> tuple[float, FeedbackRecord] | None:
        """Bounded feedback correction for one fragment's estimate.

        Returns ``(corrected_rows, record)`` when a record disagrees with
        the incoming histogram estimate by at least the Q-error threshold,
        else None (close-enough estimates are left untouched so feedback
        never perturbs already-good plans).  The correction interpolates
        geometrically from the estimate toward the observation by the
        record's confidence: ``est * (observed/est) ** confidence``.  The
        observation itself is the bound — an exact record never moves an
        estimate *past* what was actually measured, so ``max_correction``
        only clamps the :class:`EdgeRecord` fallback below, which
        extrapolates to fragments that were never directly observed.

        ``edge_key`` (join fragments only) enables the :class:`EdgeRecord`
        fallback: fragments with no exact record but a learned selectivity
        adjustment for their predicate set get the multiplicative factor
        instead, so untried join orders cannot hide behind optimistic
        histograms.
        """
        with self._lock:
            record = self._records.get(signature)
            self._bump("lookups")
            if record is None:
                if edge_key is None:
                    return None
                return self._edge_corrected(edge_key, est_rows, stats_epoch)
            record.hits += 1
            self._bump("hits")
            self._bump(f"fragment.{signature}.hits")
            est = max(float(est_rows), 1.0)
            observed = max(float(record.observed_rows), 1.0)
            if q_error(est, observed) < self.q_error_threshold:
                return None
            factor = observed / est
            weight = self.confidence(record, stats_epoch)
            corrected = est * factor**weight
            if abs(corrected - est) < 1e-9:
                return None
            record.corrections += 1
            self._bump("corrections")
            self._bump(f"fragment.{signature}.corrections")
            return corrected, record

    def _edge_corrected(
        self, edge_key: str, est_rows: float, stats_epoch: int
    ) -> tuple[float, FeedbackRecord] | None:
        """Selectivity-adjustment fallback (caller holds the lock)."""
        edge = self._edges.get(edge_key)
        if edge is None or edge.factor <= 0:
            return None
        spread = max(edge.factor, 1.0 / edge.factor)
        if spread < self.q_error_threshold:
            return None
        factor = min(
            max(edge.factor, 1.0 / self.max_correction), self.max_correction
        )
        age = max(0, int(stats_epoch) - edge.stats_epoch)
        corrected = max(float(est_rows), 1.0) * factor ** (self.decay**age)
        if abs(corrected - max(float(est_rows), 1.0)) < 1e-9:
            return None
        edge.count += 1
        self._bump("edge_corrections")
        # A synthetic record so consumers (EXPLAIN ANALYZE annotation)
        # render the provenance; it never enters ``_records``.
        return corrected, FeedbackRecord(
            signature=f"edge:{edge_key}",
            fragment=f"edge[{edge_key}]",
            est_rows=float(est_rows),
            observed_rows=corrected,
            q_error=spread,
            source="edge",
            epoch=edge.epoch,
            stats_epoch=edge.stats_epoch,
        )

    def risky(self, signature: str) -> bool:
        """Whether the fragment's last observation was a bad estimate."""
        record = self.lookup(signature)
        return record is not None and record.q_error >= self.q_error_threshold

    def count_collectors_armed(self, amount: int) -> None:
        """Metrics hook: SCIA promoted ``amount`` candidate statistics to
        HIGH potential because their collection point was historically
        misestimated."""
        self._bump("collectors_armed", amount)

    def risk_score(self, signature: str, stats_epoch: int) -> float:
        """0..1 misestimation risk for a fragment: 0 with no bad record,
        approaching 1 as the recorded Q-error reaches the correction bound,
        scaled by the record's decayed confidence."""
        record = self.lookup(signature)
        if record is None or record.q_error < self.q_error_threshold:
            return 0.0
        severity = min(
            1.0, math.log(record.q_error) / math.log(self.max_correction)
        )
        return severity * self.confidence(record, stats_epoch)

    def poisoned_since(self, epoch: int) -> frozenset[str]:
        """Signatures whose record turned bad (Q-error at or above the
        threshold) after repository epoch ``epoch`` — the plan cache evicts
        entries whose fragments appear here."""
        with self._lock:
            return frozenset(
                sig
                for sig, record in self._records.items()
                if record.epoch > epoch
                and record.q_error >= self.q_error_threshold
            )

    # -- population ------------------------------------------------------

    def absorb_execution(
        self,
        outcome: "DispatchResult",
        ctx: "RuntimeContext",
        stats_epoch: int,
    ) -> dict:
        """Record estimate-vs-actual for every fragment that completed.

        Runs after the simulated cost clock has stopped and only reads
        runtime state (``actual_rows`` is set exclusively for fully drained
        nodes, so LIMIT-truncated inputs are never recorded with partial
        counts).  Returns a summary dict used by the slow-query log.
        """
        observations: dict[str, tuple[int, float, float, str, str]] = {}
        edge_observations: dict[str, tuple[int, float]] = {}
        estimates = ctx.estimate_snapshots or {}

        def snapshot_rows(target: PlanNode) -> float:
            snapshot = estimates.get(target.node_id)
            if snapshot:
                return float(snapshot.get("rows", target.est.rows))
            return float(target.est.rows)

        # Each plan switch materialized one subtree into a temp table; map
        # the temp back to that subtree so post-switch remainder plans
        # render (and learn) as if the plan had never been cut.  Node ids
        # are process-global, so one memo serves every plan in the history.
        temp_sources: dict[str, PlanNode] = {}
        for event, plan in zip(outcome.switch_events, outcome.plan_history):
            cut = plan.find(event.directive.cut_node_id)
            if cut is not None:
                temp_sources[event.directive.temp_table.name] = cut
        memo: dict[int, str] = {}
        total = len(outcome.plan_history)
        for index, plan in enumerate(outcome.plan_history):
            abandoned = index < total - 1
            tainted = _temp_tainted(plan, resolved=temp_sources)
            for node in plan.walk():
                if node.node_id in tainted:
                    continue
                actual = ctx.actual_rows.get(node.node_id)
                if actual is None:
                    continue
                snapshot = estimates.get(node.node_id)
                est = (
                    snapshot.get("rows", node.est.rows)
                    if snapshot
                    else node.est.rows
                )
                if isinstance(node, StatsCollectorNode) and node.node_id in ctx.observed:
                    source = "collector"
                elif node.node_id in ctx.columnar.by_scan:
                    source = "zone-map"
                elif abandoned:
                    source = "re-opt"
                else:
                    source = "execution"
                signature = fragment_signature(node, memo, temp_sources)
                priority = _SOURCE_PRIORITY[source]
                current = observations.get(signature)
                if current is not None and current[0] >= priority:
                    continue
                observations[signature] = (
                    priority,
                    float(est),
                    float(actual),
                    source,
                    memo[node.node_id],
                )
                # Isolate this join's *selectivity* error from its inputs'
                # cardinality errors: both sides' observed and as-planned
                # rows are known, so the ratio of observed to estimated
                # selectivity is attributable to the predicate set alone.
                edge_key = join_edge_key(node, temp_sources)
                if edge_key is None:
                    continue
                left = _unwrap_transparent(node.children[0])
                right = _unwrap_transparent(node.children[1])
                obs_l = ctx.actual_rows.get(left.node_id)
                obs_r = ctx.actual_rows.get(right.node_id)
                if obs_l is None or obs_r is None:
                    continue
                sel_obs = max(float(actual), 1.0) / max(
                    float(obs_l) * float(obs_r), 1.0
                )
                sel_est = max(float(est), 1.0) / max(
                    snapshot_rows(left) * snapshot_rows(right), 1.0
                )
                if sel_est <= 0:
                    continue
                edge_current = edge_observations.get(edge_key)
                if edge_current is not None and edge_current[0] >= priority:
                    continue
                edge_observations[edge_key] = (priority, sel_obs / sel_est)
        if not observations:
            return {
                "records": 0,
                "edges": 0,
                "worst_q_error": 1.0,
                "worst_fragment": "",
            }

        worst_q = 1.0
        worst_fragment = ""
        with self._lock:
            self.epoch += 1
            self.queries_absorbed += 1
            for signature, (__, est, actual, source, text) in observations.items():
                error = q_error(est, actual)
                if error > worst_q:
                    worst_q = error
                    worst_fragment = text
                record = self._records.get(signature)
                if record is None:
                    self._records[signature] = FeedbackRecord(
                        signature=signature,
                        fragment=text,
                        est_rows=est,
                        observed_rows=actual,
                        q_error=error,
                        source=source,
                        count=1,
                        epoch=self.epoch,
                        stats_epoch=int(stats_epoch),
                    )
                else:
                    record.est_rows = est
                    record.observed_rows = actual
                    record.q_error = error
                    record.source = source
                    record.count += 1
                    record.epoch = self.epoch
                    record.stats_epoch = int(stats_epoch)
            for edge_key, (__, factor) in edge_observations.items():
                edge = self._edges.get(edge_key)
                if edge is None:
                    self._edges[edge_key] = EdgeRecord(
                        key=edge_key,
                        factor=factor,
                        epoch=self.epoch,
                        stats_epoch=int(stats_epoch),
                    )
                else:
                    edge.factor = factor
                    edge.epoch = self.epoch
                    edge.stats_epoch = int(stats_epoch)
                    edge.count += 1
            self._bump("records", len(observations))
            self._bump("edges", len(edge_observations))
            self._bump("queries")
        if self.path:
            self.save()
        return {
            "records": len(observations),
            "edges": len(edge_observations),
            "worst_q_error": worst_q,
            "worst_fragment": worst_fragment,
        }

    # -- reporting -------------------------------------------------------

    def report(self) -> dict:
        """Plain-dict view of the repository, worst fragments first."""
        with self._lock:
            records = sorted(
                (asdict(record) for record in self._records.values()),
                key=lambda r: (-r["q_error"], r["fragment"]),
            )
            bad = sum(
                1 for r in records if r["q_error"] >= self.q_error_threshold
            )
            return {
                "enabled": True,
                "path": self.path,
                "epoch": self.epoch,
                "queries_absorbed": self.queries_absorbed,
                "record_count": len(records),
                "bad_record_count": bad,
                "edge_count": len(self._edges),
                "q_error_threshold": self.q_error_threshold,
                "records": records,
                "edges": sorted(
                    (asdict(edge) for edge in self._edges.values()),
                    key=lambda e: e["key"],
                ),
            }

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Atomically persist the repository, merging with the file's
        current contents: records this process never touched are kept, and
        for touched signatures the freshest writer wins.  (Two processes
        that open one store path each save their own absorptions; the merge
        makes those writes additive.)"""
        if not self.path:
            return
        with self._lock:
            on_disk = self._read_store(self.path)
            merged: dict[str, FeedbackRecord] = dict(on_disk.get("records", {}))
            merged.update(self._records)
            merged_edges: dict[str, EdgeRecord] = dict(on_disk.get("edges", {}))
            merged_edges.update(self._edges)
            epoch = max(self.epoch, int(on_disk.get("epoch", 0)))
            document = {
                "version": STORE_VERSION,
                "epoch": epoch,
                "queries_absorbed": max(
                    self.queries_absorbed, int(on_disk.get("queries_absorbed", 0))
                ),
                "records": [asdict(record) for record in merged.values()],
                "edges": [asdict(edge) for edge in merged_edges.values()],
            }
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".feedback-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=1)
                    handle.write("\n")
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:  # pragma: no cover - best effort
                    pass
                raise

    def load(self) -> int:
        """Replace in-memory state with the store file; returns the number
        of records loaded (0 when the file is missing or unreadable)."""
        with self._lock:
            document = self._read_store(self.path)
            self._records = dict(document.get("records", {}))
            self._edges = dict(document.get("edges", {}))
            self.epoch = int(document.get("epoch", 0))
            self.queries_absorbed = int(document.get("queries_absorbed", 0))
            return len(self._records)

    @staticmethod
    def _read_store(path: str) -> dict:
        if not path or not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError, ValueError):
            return {}
        if not isinstance(document, dict) or document.get("version") != STORE_VERSION:
            return {}
        records: dict[str, FeedbackRecord] = {}
        for raw in document.get("records", ()):
            if not isinstance(raw, Mapping):
                continue
            try:
                record = FeedbackRecord(**dict(raw))
            except TypeError:
                continue
            records[record.signature] = record
        edges: dict[str, EdgeRecord] = {}
        for raw in document.get("edges", ()):
            if not isinstance(raw, Mapping):
                continue
            try:
                edge = EdgeRecord(**dict(raw))
            except TypeError:
                continue
            edges[edge.key] = edge
        return {
            "epoch": document.get("epoch", 0),
            "queries_absorbed": document.get("queries_absorbed", 0),
            "records": records,
            "edges": edges,
        }
