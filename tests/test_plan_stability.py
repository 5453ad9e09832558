"""Chosen plans must not depend on the interpreter's string-hash seed.

Join enumeration once iterated a ``frozenset`` of alias strings and broke
cost ties with the first-minimal candidate, so Q8's plan — and simulated
cost — changed from one interpreter launch to the next.  Every optimizer
change must keep this passing unchanged.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.hashseed

_SCRIPT = """
import json
from repro import DynamicMode
from repro.bench import ExperimentConfig, build_database
from repro.plans.printer import explain
from repro.workloads.tpcd import query_by_name

db = build_database(ExperimentConfig(scale_factor=0.01, memory_pages=192, seed=31))
plans = {}
for name in ("Q1", "Q3", "Q5", "Q6", "Q7", "Q8", "Q10"):
    for mode in (DynamicMode.OFF, DynamicMode.FULL):
        plan, __, __ = db.plan(query_by_name(name).sql, mode=mode)
        plans[f"{name}:{mode.value}"] = [explain(plan), repr(plan.est.total_cost)]
print(json.dumps(plans))
"""


def test_paper_query_plans_identical_under_every_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        runs.append(subprocess.Popen(
            [sys.executable, "-c", _SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    plans = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        plans.append(json.loads(out.splitlines()[-1]))
    assert len(plans[0]) == 14
    for other in plans[1:]:
        for kind, (text, cost) in plans[0].items():
            assert other[kind] == [text, cost], kind
