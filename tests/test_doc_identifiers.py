"""README.md and DESIGN.md name only identifiers that still resolve.

Every backticked ``REPRO_*`` variable must be read somewhere in ``src/``,
every backticked ``EngineConfig.<name>`` must be an attribute of the class,
and every backticked ``src/…``, ``tests/…`` or ``benchmarks/…`` path must
exist (globs and ``{a,b}`` alternatives expand; ``::test`` and ``:line``
suffixes are ignored).  Removed identifiers belong in CHANGES.md, not in the
documents that describe the system as it is.
"""

from __future__ import annotations

import dataclasses
import glob
import re
from pathlib import Path

import pytest

from repro import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "DESIGN.md")

_SPAN = re.compile(r"`([^`\n]+)`")
_ENV = re.compile(r"\bREPRO_[A-Z0-9_]+")
_CONFIG = re.compile(r"\bEngineConfig\.([A-Za-z_][A-Za-z0-9_]*)")
_PATH = re.compile(r"^(?:src|tests|benchmarks)/[^\s:]*")
_BRACES = re.compile(r"\{([^{}]*)\}")


def _spans(document: str) -> list[str]:
    return _SPAN.findall((ROOT / document).read_text())


def _variables_read_in_src() -> set[str]:
    read: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        read.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", path.read_text()))
    return read


def _expand(pattern: str) -> list[str]:
    """``a{,_b}.py`` -> ``a.py``, ``a_b.py`` (nested braces are not used)."""
    match = _BRACES.search(pattern)
    if match is None:
        return [pattern]
    head, tail = pattern[: match.start()], pattern[match.end():]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in _expand(head + option + tail)
    ]


def _resolves(path: str) -> bool:
    path = path.rstrip(".,;)")
    return all(
        glob.glob(str(ROOT / candidate), recursive=True)
        for candidate in _expand(path)
    )


@pytest.mark.parametrize("document", DOCUMENTS)
def test_repro_variables_are_read_in_src(document):
    read = _variables_read_in_src()
    named = {name for span in _spans(document) for name in _ENV.findall(span)}
    assert named - read == set()


@pytest.mark.parametrize("document", DOCUMENTS)
def test_engine_config_names_exist(document):
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    named = {name for span in _spans(document) for name in _CONFIG.findall(span)}
    assert {n for n in named if n not in fields and not hasattr(EngineConfig, n)} == set()


@pytest.mark.parametrize("document", DOCUMENTS)
def test_repository_paths_exist(document):
    paths = {
        match.group(0)
        for span in _spans(document)
        if (match := _PATH.match(span.strip())) is not None
    }
    assert sorted(p for p in paths if not _resolves(p)) == []


def test_checks_catch_a_dead_name():
    """The checks reject the identifiers the parallel executor and the
    fork statement workers left behind."""
    spans = _SPAN.findall(
        "`REPRO_WORKERS=2`, `REPRO_SERVER_WORKER_MODE=fork`, "
        "`EngineConfig.morsel_pages`, `EngineConfig.session_memory_policy`, "
        "`src/repro/executor/parallel.py`, `src/repro/concurrency.py`, "
        "`benchmarks/bench_parallel{,_joins}.py`"
    )
    named = {n for s in spans for n in _ENV.findall(s)}
    assert named == {"REPRO_WORKERS", "REPRO_SERVER_WORKER_MODE"}
    assert not named & _variables_read_in_src()
    assert {n for s in spans for n in _CONFIG.findall(s)} == {
        "morsel_pages", "session_memory_policy",
    }
    assert not hasattr(EngineConfig, "morsel_pages")
    assert not hasattr(EngineConfig, "session_memory_policy")
    assert not _resolves("src/repro/executor/parallel.py")
    assert not _resolves("src/repro/concurrency.py")
    assert not _resolves("benchmarks/bench_parallel{,_joins}.py")
    assert _resolves("benchmarks/bench_{server,prepared}.py")
