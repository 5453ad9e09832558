"""Environment hygiene: one known engine configuration, one machine stamp.

Every number the suite prints is a statement about the *default*
``EngineConfig``.  Twenty-three ``REPRO_*`` variables can silently change
that default (a CI leg exporting ``REPRO_EXECUTION_MODE=columnar`` would
otherwise benchmark a different engine under the same metric names), so
:func:`prepare` removes them all before the engine is imported and refuses
to run if the defaults the run shape depends on are not the coded ones.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"

#: ``EngineConfig`` fields the run shape assumes, with their coded defaults.
EXPECTED_DEFAULTS = {
    "execution_mode": "batch",
    "server_mode": False,
    "server_worker_mode": "thread",
    "feedback_enabled": False,
    "tracing": False,
}


def pin_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED=0`` unless it
    already runs that way.

    The optimizer iterates over sets of alias strings, so with hash
    randomization on, tie-breaks between equal-cost plans — and with them
    Q8's simulated cost under ``OFF`` (224343 / 224834 / 225384 units at
    seed 7) — change from one interpreter launch to the next.  The
    simulated-cost metrics are only exact once the hash seed is pinned.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "benchmarks.suite", *sys.argv[1:]])


def load_manifest() -> dict:
    """``/BENCHMARK.json`` — the single source of metric names, units,
    directions, bounds, workload names and the default run length."""
    return json.loads(MANIFEST_PATH.read_text())


def prepare() -> list[str]:
    """Scrub ``REPRO_*``, put ``src/`` on the path, check the defaults.

    Returns the names of the variables that were removed.  Must run before
    any other module of this package imports ``repro``.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        from repro import EngineConfig
    except ImportError as exc:
        raise SystemExit(f"benchmarks.suite: no engine under {src} ({exc})") from exc

    config = EngineConfig()
    wrong = {
        name: getattr(config, name)
        for name, expected in EXPECTED_DEFAULTS.items()
        if getattr(config, name) != expected
    }
    if wrong:
        raise SystemExit(
            f"benchmarks.suite: EngineConfig defaults differ from the coded "
            f"ones the workloads assume: {wrong} (expected {EXPECTED_DEFAULTS})"
        )
    return removed


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
            # An exported checkout is no repository; never look above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO_ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(seed: int, removed_env: list[str]) -> dict:
    """Machine/commit stamp carried by every document the suite writes."""
    import numpy
    from repro.bench import available_cpus

    return {
        "cpu_count": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "removed_env": removed_env,
    }
