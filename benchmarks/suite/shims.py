"""Boundary shims: the suite's only way of seeing inside a statement.

The engine is measured from outside — this package changes nothing under
``src/`` — so the traced pass wraps each layer's public callables at the
names their callers bind.  A module-level function (``parse``) is replaced
in *every* loaded ``repro`` module that imported it (``database.py`` and
``reoptimizer.py`` both hold their own reference); a method is replaced on
its class.  A target that no longer resolves raises :class:`MissingTarget`:
a refactor must not silently empty a column of the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Sequence

from .spans import SpanRecorder

#: ``(span name, defining module, attribute)``.  The span name's first
#: component is the layer the time is charged to (not always the defining
#: package: cloning a cached plan is plan-cache work, ANALYZE is statistics
#: work).  The ``engine.*.execute`` entries are the statement entry points.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sql.parser.parse", "repro.sql.parser", "parse"),
    ("sql.binder.bind", "repro.sql.binder", "bind"),
    ("sql.deparser.deparse", "repro.sql.deparser", "deparse"),
    ("optimizer.Optimizer.optimize", "repro.optimizer.optimizer", "Optimizer.optimize"),
    ("optimizer.JoinEnumerator.best_join_plan", "repro.optimizer.dp", "JoinEnumerator.best_join_plan"),
    ("optimizer.PlanAnnotator.annotate", "repro.optimizer.annotate", "PlanAnnotator.annotate"),
    ("core.scia.insert_collectors", "repro.core.scia", "insert_collectors"),
    ("core.DynamicReoptimizer.on_collector_complete", "repro.core.reoptimizer", "DynamicReoptimizer.on_collector_complete"),
    ("core.remainder.build_remainder", "repro.core.remainder", "build_remainder"),
    ("executor.MemoryManager.allocate", "repro.executor.memory", "MemoryManager.allocate"),
    ("executor.Dispatcher.run", "repro.executor.dispatcher", "Dispatcher.run"),
    ("engine.PlanCache.lookup", "repro.engine.plan_cache", "PlanCache.lookup"),
    ("engine.PlanCache.store", "repro.engine.plan_cache", "PlanCache.store"),
    ("engine.clone_plan", "repro.plans.physical", "clone_plan"),
    ("stats.Catalog.analyze", "repro.storage.catalog", "Catalog.analyze"),
    ("engine.Database.execute", "repro.engine.database", "Database.execute"),
    ("engine.PreparedStatement.execute", "repro.engine.prepared", "PreparedStatement.execute"),
    ("engine.Session.execute", "repro.engine.session", "Session.execute"),
)

#: Called thousands of times per plan: counted and timed, never spanned.
ESTIMATOR_TARGETS = (
    ("repro.stats.estimator", "Estimator.selectivity"),
    ("repro.stats.estimator", "Estimator.join"),
)

#: What set-up spends on loading, indexing and ANALYZE.
SETUP_TARGETS = {
    "load_rows": ("repro.engine.database", "Database.load_rows"),
    "create_index": ("repro.engine.database", "Database.create_index"),
    "analyze": ("repro.storage.catalog", "Catalog.analyze"),
}


class MissingTarget(LookupError):
    """A shim target no longer exists under the name the suite knows."""


class CallTimer:
    """Calls and cumulative seconds of one or more wrapped callables.

    Re-entrant calls (``selectivity`` recursing into AND/OR operands) are
    counted but only the outermost is timed.  State is per thread and summed
    on read, so concurrent clients never race on a counter.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[list] = []
        self._lock = threading.Lock()

    def _state(self) -> list:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = [0, 0.0, 0]  # calls, seconds, depth
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = self._state()
            state[0] += 1
            if state[2]:
                return fn(*args, **kwargs)
            state[2] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state[1] += perf_counter() - start
                state[2] = 0

        return timed

    @property
    def calls(self) -> int:
        return sum(state[0] for state in self._states)

    @property
    def seconds(self) -> float:
        return sum(state[1] for state in self._states)


def _span_wrapper(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return traced


def _replace(module_name: str, attribute: str, wrap: Callable[[Callable], Callable]):
    """Swap ``module.attribute`` for ``wrap(original)`` wherever it is bound;
    returns the ``(holder, name, original)`` triples needed to undo it."""
    try:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[member] if owner_name else getattr(owner, member)
    except (ImportError, AttributeError, KeyError) as exc:
        raise MissingTarget(f"{module_name}.{attribute}") from exc
    wrapper = wrap(original)
    if owner_name:
        holders = [owner]
    else:
        holders = [
            mod for name, mod in list(sys.modules.items())
            if name.startswith("repro") and mod is not None
            and mod.__dict__.get(member) is original
        ]
    for holder in holders:
        setattr(holder, member, wrapper)
    return [(holder, member, original) for holder in holders]


@contextmanager
def installed(
    replacements: Sequence[tuple[str, str, Callable[[Callable], Callable]]],
) -> Iterator[None]:
    """Install ``(module, attribute, wrap)`` replacements; undo on exit."""
    undo = []
    try:
        for module_name, attribute, wrap in replacements:
            undo.extend(_replace(module_name, attribute, wrap))
        yield
    finally:
        for holder, member, original in reversed(undo):
            setattr(holder, member, original)


def tracing(recorder: SpanRecorder, estimator: CallTimer, targets=None):
    """Context manager for the traced pass: span shims (``targets`` defaults
    to :data:`SPAN_TARGETS`) plus the estimator timer."""
    replacements = [
        (module, attribute, functools.partial(_span_wrapper, recorder, name))
        for name, module, attribute in (SPAN_TARGETS if targets is None else targets)
    ]
    replacements += [(module, attribute, estimator.wrap) for module, attribute in ESTIMATOR_TARGETS]
    return installed(replacements)


def timing_setup(timers: dict[str, CallTimer]):
    """Context manager for set-up: one :class:`CallTimer` per
    :data:`SETUP_TARGETS` key."""
    return installed(
        [(module, attribute, timers[key].wrap) for key, (module, attribute) in SETUP_TARGETS.items()]
    )
