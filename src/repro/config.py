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
from typing import Any, Callable, ClassVar

from .errors import ConfigError

#: Bytes per simulated disk page.  TPC-D-era systems (and Paradise) used 4 KB
#: or 8 KB pages; 4 KB keeps page counts meaningful at small scale factors.
PAGE_SIZE_BYTES = 4096


#: Spellings :func:`_env_flag` accepts, compared case-insensitively.
_FLAG_VALUES = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _environ(name: str) -> str | None:
    """``os.environ[name]`` stripped, or ``None`` when unset or empty."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _env_flag(name: str) -> Callable[[], bool]:
    """Default factory for an opt-in flag read from ``name``: off unless
    set to ``1``/``true``/``yes``/``on`` (``0``/``false``/``no``/``off``
    keep it off); any other value raises :class:`ConfigError`."""

    def read() -> bool:
        raw = _environ(name)
        if raw is None:
            return False
        try:
            return _FLAG_VALUES[raw.lower()]
        except KeyError:
            raise ConfigError(
                f"{name}={raw!r} is not a flag: use 1/0, true/false, yes/no "
                "or on/off"
            ) from None

    return read


def _env_number(name: str, default: int | float) -> Callable[[], int | float]:
    """Default factory for a number read from ``name`` (parsed as the
    default's type); a malformed value raises :class:`ConfigError`."""

    def read() -> int | float:
        raw = _environ(name)
        if raw is None:
            return default
        try:
            return type(default)(raw)
        except ValueError:
            raise ConfigError(
                f"{name}={raw!r} is not a valid {type(default).__name__}"
            ) from None

    return read


def _env_text(name: str) -> Callable[[], str]:
    """Default factory for a string read from ``name`` (empty if unset)."""
    return lambda: os.environ.get(name, "")


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
    """Top-level configuration for a :class:`repro.engine.Database` instance.

    Four fields take their default from an environment variable, for
    deployment: ``REPRO_TRACE`` (a flag), ``REPRO_MAX_SESSIONS``,
    ``REPRO_SLOW_QUERY`` (numbers) and ``REPRO_SLOW_QUERY_PATH`` (a path).

    Every statement's workspace budget is :attr:`query_memory_pages`.
    :meth:`Database.execute` runs inline; a statement reaches the query
    server (admission control and the memory broker) only through a
    :class:`~repro.engine.session.Session`.
    """

    #: Server statements always run on the session's thread (not settable).
    server_worker_mode: ClassVar[str] = "thread"
    #: :meth:`Database.execute` always runs inline; only sessions go
    #: through the server (not settable).
    server_mode: ClassVar[bool] = False
    #: Every statement runs on the batch executor (not settable); the row
    #: interpreter drives only LIMIT over a streaming subtree.
    execution_mode: ClassVar[str] = "batch"
    #: Every statement is planned from the catalog alone: observed
    #: statistics never carry over to a later statement (not settable).
    feedback_enabled: ClassVar[bool] = False

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
    #: Rows per executor batch.  Operators may yield
    #: slightly larger batches (scans round up to page boundaries).
    batch_size: int = 1024
    #: Distinct-value budget for dictionary-encoding a string column in the
    #: column store; columns exceeding it overflow to plain encoding.
    columnar_dictionary_max: int = 256
    #: Capacity of the statistics-epoch plan cache (exact + parametric
    #: entries combined).  0 disables it: every call prepares cold.  Results
    #: and simulated-cost profiles are identical either way (only wall-clock
    #: latency differs).
    plan_cache_size: int = 128
    #: Statements allowed to execute concurrently (the admission
    #: controller's active-slot count).  Arrivals beyond this park in the
    #: admission queue.
    max_sessions: int = field(default_factory=_env_number("REPRO_MAX_SESSIONS", 4))
    #: Total workspace pages the broker arbitrates across sessions.  0 (the
    #: default) means ``max_sessions * query_memory_pages`` — every
    #: statement can hold its full per-query budget simultaneously, so
    #: concurrency alone never changes memory grants (and therefore never
    #: changes simulated costs).  Set it lower to create real cross-query
    #: memory pressure.
    server_memory_pages: int = 0
    #: Span-based query tracing (:mod:`repro.observe`).  Purely
    #: observational: the tracer reads the simulated clock but never
    #: charges it, so rows/costs/statistics are byte-identical with tracing
    #: on or off.  When enabled the trace rides on ``profile.trace``.
    tracing: bool = field(default_factory=_env_flag("REPRO_TRACE"))
    #: Wall-clock seconds (compile + execute) above which a statement is
    #: written to the slow-query log as one structured JSON line.  0 (the
    #: default) disables the log.
    slow_query_s: float = field(default_factory=_env_number("REPRO_SLOW_QUERY", 0.0))
    #: Slow-query log destination (appended); empty string logs to stderr.
    slow_query_path: str = field(default_factory=_env_text("REPRO_SLOW_QUERY_PATH"))
    #: Deterministic seed for sampling/sketches inside the engine.
    seed: int = 0x5EED

    def validate(self) -> None:
        """Validate the whole configuration tree."""
        self.cost.validate()
        self.reopt.validate()
        for name in (
            "page_size",
            "buffer_pool_pages",
            "query_memory_pages",
            "reservoir_sample_size",
            "runtime_histogram_buckets",
            "batch_size",
            "columnar_dictionary_max",
            "max_sessions",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("plan_cache_size", "server_memory_pages", "slow_query_s"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        if self.hash_fudge_factor < 1.0:
            raise ConfigError(f"hash_fudge_factor must be >= 1.0, got {self.hash_fudge_factor}")
        if not isinstance(self.tracing, bool):
            raise ConfigError(f"tracing must be a bool, got {self.tracing!r}")

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
