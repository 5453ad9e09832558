"""Command line: one workload in this interpreter, or the whole suite.

``python -m benchmarks.suite --workload W --seed N --seconds S --trace 0|1``
runs one workload here and ends its output with one JSON line (end-to-end
metrics for ``--trace 0``, per-layer metrics for ``--trace 1``).  Without
``--trace`` the command is the suite: every selected workload runs in a
fresh interpreter per pass, every metric is printed by name with unit,
direction and bound, and ``out/suite.json`` is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from . import env

#: Exactly reproducible for one seed: any difference between two runs of the
#: same code is a determinism bug, not noise.
EXACT_METRICS = ("sim_cost_geomean", "full_over_off_cost_max", "full_over_off_cost_geomean")


def _parse(argv, manifest: dict) -> argparse.Namespace:
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="length of the timed pass (whole rounds closest to it)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this interpreter: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.005, one round per pass, no warm-up: checks plumbing, not speed")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set this many times")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat: fail if two runs disagree beyond the bounds")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def _table(declared: list[dict], values: dict[str, float]) -> str:
    from repro.bench import render_table  # imports repro: only after env.prepare()

    return render_table(
        ["metric", "value", "unit", "better", "bound"],
        [
            [
                m["name"],
                f"{values[m['name']]:.6g}" if m["name"] in values else "MISSING",
                m["unit"],
                m["better"],
                f"{m['bound']:.0%}" if "bound" in m else "",
            ]
            for m in declared
        ],
    )


def _kinds_table(kinds: list[dict]) -> str:
    from repro.bench import render_table

    return render_table(
        ["kind", "n", "median_ms", "sim_cost", "switches", "reallocations"],
        [
            [
                row["kind"], str(row["n"]), f"{row['median_ms']:.2f}", f"{row['sim_cost']:.1f}",
                str(row["switches"]), str(row["reallocations"]),
            ]
            for row in kinds
        ],
    )


def _document_path(workload: str, traced: int):
    return env.OUT_DIR / f"{workload}.trace{traced}.json"


def run_one(args, manifest: dict, removed_env: list[str]) -> int:
    """Contract mode: one workload, one pass kind, result on the last line."""
    from . import runner, spans  # imports repro: only after env.prepare()

    traced = bool(args.trace)
    run = runner.run_workload(args.workload, args.seed, args.seconds, traced, args.smoke)
    section = "per_layer" if traced else "end_to_end"
    values = run.per_layer if traced else run.end_to_end
    if not run.missing:
        run.missing = [m["name"] for m in manifest[section] if m["name"] not in values]

    env.OUT_DIR.mkdir(exist_ok=True)
    document = {
        **env.stamp(args.seed, removed_env),
        "workload": run.workload, "smoke": args.smoke, "seconds": args.seconds,
        "operations": run.operations, "attempted": run.attempted,
        "failed": len(run.failures), "failures": run.failures[:20], "missing": run.missing,
        "failed_ops_ratio": len(run.failures) / run.attempted,
        "end_to_end": run.end_to_end, "per_layer": run.per_layer, "kinds": run.kinds,
    }
    _document_path(run.workload, args.trace).write_text(json.dumps(document, indent=2) + "\n")
    if traced:
        ordered = sorted(run.recorded, key=lambda s: (s.start, -s.end))
        spans.write_jsonl(ordered, env.OUT_DIR / f"{run.workload}.spans.jsonl")
        (env.OUT_DIR / f"{run.workload}.trace.json").write_text(json.dumps(spans.to_chrome(ordered)))

    print(f"== {run.workload}  seed={args.seed}  {section}  "
          f"(timed ops {run.operations['timed']}, traced ops {run.operations['traced']}, "
          f"failed_ops_ratio {document['failed_ops_ratio']:.4f})")
    print(_table(manifest[section], values))
    print(_kinds_table(run.kinds))
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    if run.missing:
        print(f"  MISSING (never observed): {', '.join(run.missing)}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in manifest[section]}
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if run.correct else 1


def _child(workload: str, traced: int, args) -> dict | None:
    """One pass of one workload in a fresh interpreter; its document, or
    ``None`` (after echoing its output) when it failed."""
    command = [
        sys.executable, "-m", "benchmarks.suite", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, cwd=env.REPO_ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"== {workload} --trace {traced} exited {done.returncode}\n{done.stdout}{done.stderr}")
        return None
    return json.loads(_document_path(workload, traced).read_text())


def run_set(args, manifest: dict, workloads: list[str]) -> dict[str, dict] | None:
    """Every workload once.  A traced run also carries end-to-end numbers
    (from its own, shorter, un-shimmed pass); smoke mode settles for those
    and skips the dedicated end-to-end run."""
    from repro.bench import available_cpus

    passes = (1,) if args.smoke else (0, 1)
    jobs = [(w, t) for w in workloads for t in passes]
    # Timings are meaningless in smoke mode, so children may share the CPUs.
    with ThreadPoolExecutor(max_workers=available_cpus() if args.smoke else 1) as pool:
        documents = list(pool.map(lambda job: _child(*job, args), jobs))
    if any(doc is None for doc in documents):
        return None
    results: dict[str, dict] = {}
    for (workload, traced), doc in zip(jobs, documents):
        entry = results.setdefault(workload, {"end_to_end": doc["end_to_end"], "kinds": doc["kinds"]})
        entry[f"operations_trace{traced}"] = doc["operations"]
        if traced:
            entry["per_layer"] = doc["per_layer"]
    for workload, entry in results.items():
        print(f"== {workload}  seed={args.seed}")
        print(_table(manifest["end_to_end"], entry["end_to_end"]))
        print(_table(manifest["per_layer"], entry["per_layer"]))
        print(_kinds_table(entry["kinds"]))
    return results


def check_repeats(manifest: dict, sets: list[dict[str, dict]]) -> bool:
    """Print each end-to-end metric's values across the repeated sets and
    whether they agree: within the bound, or exactly for simulated costs."""
    agreed = True
    first = sets[0]
    for workload in first:
        print(f"== repeatability  {workload}")
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            values = [s[workload]["end_to_end"][name] for s in sets]
            spread = max(abs(v / values[0] - 1) for v in values[1:])
            limit = 0.0 if name in EXACT_METRICS else metric["bound"]
            verdict = "ok" if spread <= limit else "DISAGREE"
            agreed &= spread <= limit
            shown = "  ".join(f"{v:.6g}" for v in values)
            print(f"  {name:<30}{shown}  diff {spread:.2%}  (limit {limit:.1%})  {verdict}")
    return agreed


def main(argv=None) -> int:
    removed_env = env.prepare()
    manifest = env.load_manifest()
    args = _parse(argv, manifest)
    if args.trace is not None:
        return run_one(args, manifest, removed_env)

    workloads = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    sets = []
    for _ in range(args.repeat):
        results = run_set(args, manifest, workloads)
        if results is None:
            return 1
        sets.append(results)
    env.OUT_DIR.mkdir(exist_ok=True)
    (env.OUT_DIR / "suite.json").write_text(json.dumps(
        {**env.stamp(args.seed, removed_env), "smoke": args.smoke, "seconds": args.seconds, "sets": sets},
        indent=2,
    ) + "\n")
    if args.check and len(sets) > 1 and not check_repeats(manifest, sets):
        return 1
    return 0
