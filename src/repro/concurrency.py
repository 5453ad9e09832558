"""Fork-safe lock bookkeeping for the engine's shared mutable state.

The concurrent query server (:mod:`repro.engine.server`) runs sessions on
threads, so the process-wide structures those threads share — the plan
cache, the catalog, metric counters, the compiled-predicate code cache,
lazily synced column stores — each carry a lock.  The server's ``fork``
worker mode ``fork()``s this process while those threads run.  A child
forked while another thread holds one of those locks would inherit it in
the *held* state and deadlock on first acquire.

:func:`fork_safe_lock` hands out ordinary ``threading`` locks but records
the owner/attribute pair in a weak registry; an ``os.register_at_fork``
hook replaces every registered lock with a fresh, unheld one in the child.
The child is single-threaded at that instant, so the data a stale lock was
guarding cannot be mid-mutation *by the child*; structures the parent was
mutating may be torn, which is why forked workers only ever read the
structures they were handed and never the shared caches.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any

__all__ = ["fork_safe_lock", "reinit_locks_after_fork"]

_RLOCK_TYPE = type(threading.RLock())

#: owner object -> tuple of attribute names holding registered locks.
_REGISTRY: "weakref.WeakKeyDictionary[Any, tuple[str, ...]]" = (
    weakref.WeakKeyDictionary()
)
_REGISTRY_LOCK = threading.Lock()


def fork_safe_lock(owner: Any, attr: str, reentrant: bool = True):
    """Create a lock, store it as ``owner.attr``, and register it for
    re-initialization in fork children.  Returns the lock."""
    lock = threading.RLock() if reentrant else threading.Lock()
    setattr(owner, attr, lock)
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(owner, ())
        if attr not in existing:
            _REGISTRY[owner] = existing + (attr,)
    return lock


def reinit_locks_after_fork() -> int:
    """Replace every registered lock with a fresh one; returns the count.

    Runs automatically in fork children via ``os.register_at_fork``; exposed
    so tests (and exotic spawn paths) can invoke it directly.
    """
    count = 0
    with _REGISTRY_LOCK:
        owners = list(_REGISTRY.items())
    for owner, attrs in owners:
        for attr in attrs:
            old = getattr(owner, attr, None)
            fresh = (
                threading.RLock()
                if old is None or isinstance(old, _RLOCK_TYPE)
                else threading.Lock()
            )
            setattr(owner, attr, fresh)
            count += 1
    return count


def _after_fork_in_child() -> None:  # pragma: no cover - runs in fork children
    # The registry lock itself may have been held by another parent thread
    # at fork time; replace it before touching the registry.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()
    reinit_locks_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_after_fork_in_child)
