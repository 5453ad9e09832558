"""Engine-wide configuration objects.

Three frozen dataclasses describe everything that is tunable:

* :class:`CostParameters` — the simulated cost clock.  The paper measured
  wall-clock seconds on a 4-node Paradise cluster; we charge deterministic
  cost units per page I/O and per tuple of CPU work instead, which preserves
  the *relative* behaviour the paper evaluates while making every experiment
  reproducible (see DESIGN.md section 3).
* :class:`ReoptimizationParameters` — the knobs of the Dynamic
  Re-Optimization algorithm itself: ``mu`` (maximum acceptable statistics
  collection overhead, paper section 2.5), ``theta1`` and ``theta2`` (the
  re-optimization gating heuristics, paper Equations 1 and 2).
* :class:`EngineConfig` — composition of the above plus engine-level knobs
  such as the per-query memory budget and the buffer-pool size.

All parameters carry the paper's published defaults (``mu = 0.05``,
``theta1 = 0.05``, ``theta2 = 0.2``, 8 MB query memory for the running
example, 4 KB pages).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

#: Bytes per simulated disk page.  TPC-D-era systems (and Paradise) used 4 KB
#: or 8 KB pages; 4 KB keeps page counts meaningful at small scale factors.
PAGE_SIZE_BYTES = 4096


def _default_execution_mode() -> str:
    """Execution-mode default, overridable via ``REPRO_EXECUTION_MODE``.

    Lets CI run the whole test suite under the ``row`` interpreter
    without touching any call site.
    """
    return os.environ.get("REPRO_EXECUTION_MODE", "batch")


def _default_zone_map_cost() -> str:
    """Zone-map cost accounting default (``REPRO_ZONE_MAP_COST``)."""
    return os.environ.get("REPRO_ZONE_MAP_COST", "charge")


def _default_tracing() -> bool:
    """Query-tracing default (``REPRO_TRACE``): *off* unless explicitly
    enabled — tracing is the one observability knob that allocates per-span
    state, so it is opt-in."""
    return os.environ.get("REPRO_TRACE", "") not in ("", "0", "false", "False")


def _default_server_mode() -> bool:
    """Server-mode default (``REPRO_SERVER``): *off* unless enabled — when
    on, every :meth:`Database.execute` is routed through the embedded query
    server's admission controller and memory broker, so CI can run the whole
    suite under concurrency governance without touching any call site."""
    return os.environ.get("REPRO_SERVER", "") not in ("", "0", "false", "False")


def _default_max_sessions() -> int:
    """Concurrent-statement cap default (``REPRO_MAX_SESSIONS``)."""
    try:
        return int(os.environ.get("REPRO_MAX_SESSIONS", "4"))
    except ValueError:
        return 4


def _default_admission_queue_size() -> int:
    """Admission-queue bound default (``REPRO_ADMISSION_QUEUE``)."""
    try:
        return int(os.environ.get("REPRO_ADMISSION_QUEUE", "64"))
    except ValueError:
        return 64


def _default_session_memory_policy() -> str:
    """Broker policy default (``REPRO_SESSION_MEMORY``)."""
    return os.environ.get("REPRO_SESSION_MEMORY", "fair")


def _default_server_worker_mode() -> str:
    """Statement-execution placement default (``REPRO_SERVER_WORKER_MODE``)."""
    return os.environ.get("REPRO_SERVER_WORKER_MODE", "thread")


def _default_feedback() -> bool:
    """Feedback-repository default (``REPRO_FEEDBACK``): *off* unless
    enabled — feedback deliberately changes future plans (that is its
    job), so unlike the purely observational knobs it is opt-in."""
    return os.environ.get("REPRO_FEEDBACK", "") not in ("", "0", "false", "False")


def _default_feedback_path() -> str:
    """Feedback-store location default (``REPRO_FEEDBACK_PATH``); empty
    string keeps the repository in memory only."""
    return os.environ.get("REPRO_FEEDBACK_PATH", "")


def _default_slow_query_s() -> float:
    """Slow-query threshold default (``REPRO_SLOW_QUERY``); 0 disables."""
    try:
        return float(os.environ.get("REPRO_SLOW_QUERY", "0") or 0.0)
    except ValueError:
        return 0.0


def _default_slow_query_path() -> str:
    """Slow-query log destination default (``REPRO_SLOW_QUERY_PATH``);
    empty string writes to stderr."""
    return os.environ.get("REPRO_SLOW_QUERY_PATH", "")


@dataclass(frozen=True)
class CostParameters:
    """Unit costs for the simulated execution clock.

    The ratios follow classical textbook cost models (a random page I/O is a
    few times a sequential one; per-tuple CPU work is two to three orders of
    magnitude cheaper than a page I/O), so plan choices made against this
    model match the choices a disk-based 1998 optimizer would make.
    """

    seq_page_read: float = 1.0
    rand_page_read: float = 4.0
    page_write: float = 1.5
    cpu_per_tuple: float = 0.002
    cpu_per_compare: float = 0.0005
    cpu_hash_build: float = 0.003
    cpu_hash_probe: float = 0.002
    cpu_per_aggregate: float = 0.002
    #: CPU charged per tuple examined by a statistics collector for the
    #: always-on statistics (cardinality, tuple size, min/max) — the paper
    #: treats these as negligible, hence well below ``cpu_per_tuple``.
    cpu_stats_per_tuple: float = 0.0001
    #: Extra per-tuple CPU when a collector also maintains a reservoir sample
    #: (histogram) or a distinct-count sketch for one attribute.
    cpu_stats_per_statistic: float = 0.0015
    #: Conversion factor used by optimizer calibration: how many cost units a
    #: real second of optimizer wall time corresponds to.  The paper calibrates
    #: T_opt,estimated from star-join optimizations (section 2.4).
    cost_units_per_second: float = 2000.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any unit cost is non-positive."""
        for name, value in vars(self).items():
            if value <= 0:
                raise ConfigError(f"cost parameter {name!r} must be positive, got {value}")


@dataclass(frozen=True)
class ReoptimizationParameters:
    """Parameters of the Dynamic Re-Optimization algorithm (paper sections 2.4/2.5)."""

    #: Maximum acceptable statistics-collection overhead as a fraction of the
    #: optimizer's estimated query execution time (paper: 0.05).
    mu: float = 0.05
    #: Equation 1 gate: do not re-optimize unless
    #: ``T_opt,estimated / T_cur_plan,improved <= theta1`` (paper: 0.05).
    theta1: float = 0.05
    #: Equation 2 gate: re-optimize only if the improved estimate exceeds the
    #: optimizer estimate by more than this relative amount (paper: 0.2).
    theta2: float = 0.2

    def validate(self) -> None:
        """Raise :class:`ConfigError` for out-of-range parameters."""
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu must be in [0, 1], got {self.mu}")
        if self.theta1 < 0:
            raise ConfigError(f"theta1 must be non-negative, got {self.theta1}")
        if self.theta2 < 0:
            raise ConfigError(f"theta2 must be non-negative, got {self.theta2}")


@dataclass(frozen=True)
class EngineConfig:
    """Top-level configuration for a :class:`repro.engine.Database` instance."""

    cost: CostParameters = field(default_factory=CostParameters)
    reopt: ReoptimizationParameters = field(default_factory=ReoptimizationParameters)
    #: Simulated page size in bytes.
    page_size: int = PAGE_SIZE_BYTES
    #: Buffer-pool capacity in pages (the paper used a 32 MB pool per node).
    buffer_pool_pages: int = 1024
    #: Workspace memory budget per query, in pages (8 MB at 4 KB pages matches
    #: the paper's running example in section 2.3).
    query_memory_pages: int = 2048
    #: Fudge factor for hash-table memory overhead (classical value ~1.2).
    hash_fudge_factor: float = 1.2
    #: Reservoir-sample capacity used by statistics collectors: one database
    #: page worth of attribute values, as in the paper's implementation.
    reservoir_sample_size: int = 512
    #: Number of buckets built for run-time histograms.
    runtime_histogram_buckets: int = 32
    #: Paper section 2.3 extension: "If ... the operators in the database
    #: system have been implemented in such a manner that they can respond
    #: to changes in memory allocation in mid-execution, our algorithm can
    #: be extended to take advantage of this."  When True, a hash join's
    #: grant stays adjustable until its build phase *finishes* (the spill
    #: decision point), so a re-allocation triggered by the collector on its
    #: own build input still reaches it.  Paradise did not support this;
    #: the default False reproduces the paper's baseline behaviour.
    responsive_hash_joins: bool = False
    #: Tuple-at-a-time (``"row"``) or vectorized (``"batch"``) execution.
    #: Both paths produce identical rows, cost-clock charges and observed
    #: statistics (under the default ``zone_map_cost_mode="charge"``); the
    #: batch path amortises Python interpretation overhead over
    #: ``batch_size`` tuples — running every leaf pipeline that qualifies
    #: as NumPy kernels over per-page-group column arrays, its own choice
    #: per pipeline — and is the default.
    execution_mode: str = field(default_factory=_default_execution_mode)
    #: Rows per batch on the batch execution path.  Operators may yield
    #: slightly larger batches (scans round up to page boundaries).
    batch_size: int = 1024
    #: How zone-map-skipped page groups are accounted on the simulated
    #: clock.  ``"charge"`` (default) replays the skipped groups' page
    #: charges, keeping CostBreakdown/buffer statistics byte-identical to
    #: the row path — the wall-clock win comes from never materialising or
    #: filtering the rows, and re-optimization decisions stay
    #: mode-invariant.  ``"free"`` charges zero buffer-pool page reads for
    #: skipped groups: the simulated I/O savings become visible in
    #: profiles, at the price of cost/buffer parity with the other modes.
    zone_map_cost_mode: str = field(default_factory=_default_zone_map_cost)
    #: Distinct-value budget for dictionary-encoding a string column in the
    #: column store; columns exceeding it overflow to plain encoding.
    columnar_dictionary_max: int = 256
    #: Whether :meth:`Database.execute` serves repeated statements from the
    #: statistics-epoch plan cache.  Disabling forces cold preparation on
    #: every call; results and simulated-cost profiles are identical either
    #: way (only wall-clock latency differs).
    plan_cache_enabled: bool = True
    #: Capacity of the plan cache (exact + parametric entries combined).
    plan_cache_size: int = 128
    #: Route every :meth:`Database.execute` through the embedded query
    #: server (admission control + memory broker) as if it arrived on a
    #: session.  Uncontended single-threaded execution is byte-identical to
    #: direct execution — the broker grants the full per-query budget when
    #: nothing competes for it — so the whole test suite can run with the
    #: server enabled.
    server_mode: bool = field(default_factory=_default_server_mode)
    #: Statements allowed to execute concurrently (the admission
    #: controller's active-slot count).  Arrivals beyond this park in the
    #: admission queue.
    max_sessions: int = field(default_factory=_default_max_sessions)
    #: Bound on statements parked waiting for admission; arrivals past the
    #: bound are rejected with :class:`~repro.errors.AdmissionError`
    #: instead of waiting (overload sheds load rather than queueing
    #: without limit).
    admission_queue_size: int = field(default_factory=_default_admission_queue_size)
    #: How the global memory broker divides :attr:`server_memory_pages`
    #: across concurrently admitted statements.  ``"fair"`` guarantees each
    #: statement its :func:`MemoryManager.split_grant` share, grants up to
    #: the full request from free pages, re-grants freed pages to running
    #: statements mid-query and reclaims unpromised headroom when a new
    #: arrival needs its guarantee; ``"static"`` always grants exactly the
    #: share (no mid-query traffic, fully deterministic under concurrency).
    session_memory_policy: str = field(default_factory=_default_session_memory_policy)
    #: Total workspace pages the broker arbitrates across sessions.  0 (the
    #: default) means ``max_sessions * query_memory_pages`` — every
    #: statement can hold its full per-query budget simultaneously, so
    #: concurrency alone never changes memory grants (and therefore never
    #: changes simulated costs).  Set it lower to create real cross-query
    #: memory pressure.
    server_memory_pages: int = 0
    #: Where admitted statements execute: ``"thread"`` runs them inline on
    #: the submitting session's thread (shared memory, mid-query broker
    #: re-grants reach the running query); ``"fork"`` runs each statement in
    #: a forked child process (true multi-core throughput; the lease is
    #: fixed at admission).  Falls back to ``"thread"`` with a warning where
    #: ``fork`` is unavailable.
    server_worker_mode: str = field(default_factory=_default_server_worker_mode)
    #: Seconds a statement may wait for admission + memory before the
    #: server gives up with :class:`~repro.errors.AdmissionError` (guards
    #: tests and CI against deadlock-shaped bugs).
    admission_timeout_s: float = 120.0
    #: Span-based query tracing (:mod:`repro.observe`).  Purely
    #: observational: the tracer reads the simulated clock but never
    #: charges it, so rows/costs/statistics are byte-identical with tracing
    #: on or off.  When enabled the trace rides on ``profile.trace``.
    tracing: bool = field(default_factory=_default_tracing)
    #: Persistent estimate-feedback repository (:mod:`repro.observe.feedback`).
    #: When on, every query's estimate-vs-actual records are absorbed at
    #: query end and *future* optimizations consult them: the estimator
    #: applies bounded cardinality corrections, the plan cache invalidates
    #: entries with newly recorded bad Q-error, and SCIA/triggers treat
    #: historically-misestimated fragments as high risk.  Recording itself
    #: is zero-perturbation (pure reads after the cost clock stops); only
    #: *subsequent* queries plan differently — which is the point.
    feedback_enabled: bool = field(default_factory=_default_feedback)
    #: JSON file backing the feedback repository; empty = memory-only (the
    #: repository dies with the Database instance).
    feedback_path: str = field(default_factory=_default_feedback_path)
    #: A fragment's recorded Q-error must reach this bound before feedback
    #: acts on it (correction, cache invalidation, risk arming).  Matches
    #: ``observe.analyze.Q_ERROR_BAD``: below it the histogram estimate is
    #: considered fine and is left untouched.
    feedback_q_error_threshold: float = 2.0
    #: Per-statistics-epoch confidence decay for feedback records.  A record
    #: observed at catalog stats epoch E is applied at epoch E+k with weight
    #: ``feedback_decay ** k`` — fresh observations override the histogram
    #: fully, stale ones fade back toward it as ANALYZE/loads churn the data.
    feedback_decay: float = 0.9
    #: Bound on how far a feedback correction may move an estimate, as a
    #: multiplicative factor (paper-style damping: a single wild observation
    #: cannot swing an estimate by more than this either way).
    feedback_max_correction: float = 100.0
    #: Wall-clock seconds (compile + execute) above which a statement is
    #: written to the slow-query log as one structured JSON line.  0 (the
    #: default) disables the log.
    slow_query_s: float = field(default_factory=_default_slow_query_s)
    #: Slow-query log destination (appended); empty string logs to stderr.
    slow_query_path: str = field(default_factory=_default_slow_query_path)
    #: Deterministic seed for sampling/sketches inside the engine.
    seed: int = 0x5EED

    def validate(self) -> None:
        """Validate the whole configuration tree."""
        self.cost.validate()
        self.reopt.validate()
        if self.page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {self.page_size}")
        if self.buffer_pool_pages <= 0:
            raise ConfigError(f"buffer_pool_pages must be positive, got {self.buffer_pool_pages}")
        if self.query_memory_pages <= 0:
            raise ConfigError(f"query_memory_pages must be positive, got {self.query_memory_pages}")
        if self.hash_fudge_factor < 1.0:
            raise ConfigError(f"hash_fudge_factor must be >= 1.0, got {self.hash_fudge_factor}")
        if self.reservoir_sample_size <= 0:
            raise ConfigError(f"reservoir_sample_size must be positive, got {self.reservoir_sample_size}")
        if self.runtime_histogram_buckets <= 0:
            raise ConfigError(f"runtime_histogram_buckets must be positive, got {self.runtime_histogram_buckets}")
        if self.execution_mode not in ("row", "batch"):
            raise ConfigError(
                f"execution_mode must be 'row' or 'batch', got {self.execution_mode!r}"
            )
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.zone_map_cost_mode not in ("charge", "free"):
            raise ConfigError(
                "zone_map_cost_mode must be 'charge' or 'free', "
                f"got {self.zone_map_cost_mode!r}"
            )
        if self.columnar_dictionary_max <= 0:
            raise ConfigError(
                "columnar_dictionary_max must be positive, "
                f"got {self.columnar_dictionary_max}"
            )
        if self.max_sessions <= 0:
            raise ConfigError(
                f"max_sessions must be positive, got {self.max_sessions}"
            )
        if self.admission_queue_size < 0:
            raise ConfigError(
                "admission_queue_size must be non-negative, "
                f"got {self.admission_queue_size}"
            )
        if self.session_memory_policy not in ("fair", "static"):
            raise ConfigError(
                "session_memory_policy must be 'fair' or 'static', "
                f"got {self.session_memory_policy!r}"
            )
        if self.server_memory_pages < 0:
            raise ConfigError(
                "server_memory_pages must be non-negative, "
                f"got {self.server_memory_pages}"
            )
        if self.server_worker_mode not in ("thread", "fork"):
            raise ConfigError(
                "server_worker_mode must be 'thread' or 'fork', "
                f"got {self.server_worker_mode!r}"
            )
        if self.admission_timeout_s <= 0:
            raise ConfigError(
                "admission_timeout_s must be positive, "
                f"got {self.admission_timeout_s}"
            )
        for flag in ("tracing", "server_mode", "feedback_enabled"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigError(
                    f"{flag} must be a bool, got {getattr(self, flag)!r}"
                )
        if self.plan_cache_size <= 0:
            raise ConfigError(
                f"plan_cache_size must be positive, got {self.plan_cache_size}"
            )
        if self.feedback_q_error_threshold < 1.0:
            raise ConfigError(
                "feedback_q_error_threshold must be >= 1.0 (Q-error is), "
                f"got {self.feedback_q_error_threshold}"
            )
        if not 0.0 < self.feedback_decay <= 1.0:
            raise ConfigError(
                f"feedback_decay must be in (0, 1], got {self.feedback_decay}"
            )
        if self.feedback_max_correction < 1.0:
            raise ConfigError(
                "feedback_max_correction must be >= 1.0, "
                f"got {self.feedback_max_correction}"
            )
        if self.slow_query_s < 0:
            raise ConfigError(
                f"slow_query_s must be non-negative, got {self.slow_query_s}"
            )

    @property
    def resolved_server_memory_pages(self) -> int:
        """The broker's total pool: explicit, or one full budget per slot."""
        if self.server_memory_pages:
            return self.server_memory_pages
        return self.max_sessions * self.query_memory_pages

    def with_updates(self, **changes: Any) -> "EngineConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        updated = replace(self, **changes)
        updated.validate()
        return updated
