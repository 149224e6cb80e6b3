"""Benchmark of the eds235 engine: correctness gate, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload session|jet --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample runs in a fresh interpreter
(``child.py``), one process at a time.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, taken from a run in which
``tracer.py`` wraps the engine's public functions.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
BUDGET_S = 170.0   # every run must end within 180 s

REQUIRED = ["BENCHMARK.json", "src/eds235/pipeline.py", "src/eds235/jet.py", "specs/flat.json",
            "specs/d6.json", "tests/fixtures/derivative_table.json"]

# (role, traced) per fresh interpreter, in run order.  An untraced run has
# two rounds, each a cold analysis followed by half of the warm seconds,
# with a set-up-only interpreter between them: set-up is sampled three
# times and cold twice.  Their times are scaled to a fixed host speed
# (speed.py).  A traced run does a fixed number of warm operations instead,
# so that its call counts repeat exactly for a given seed; a traced session
# run ends with the stage walk.
UNTRACED = [("round", False), ("setup", False), ("round", False)]
PLANS = {
    ("session", False): UNTRACED,
    ("jet", False): UNTRACED,
    ("session", True): [("cold", False), ("round", True), ("stages", True)],
    ("jet", True): [("cold", False), ("round", True)],
}
# Fewest warm operations per round.  Session rounds run whole blocks of 64
# verdicts, half of each kind, so an untraced run has at least 64 of each
# kind.  Jet rounds normalize at least two points, four in a run, with
# eight act calls: one normalize takes 3-5 s.
MIN_OPS = {("session", False): 64, ("jet", False): 2,
           ("session", True): 64, ("jet", True): 2}

# Kinds of warm operation that warm_per_s counts: every verdict on session;
# on jet only normalize, since the act there replays the pair it found.
THROUGHPUT = {"session": ("long", "short"), "jet": ("long",)}
KIND_NAMES = {"session": {"long": "embeddable verdict", "short": "failing verdict"},
              "jet": {"long": "normalize", "short": "act of the pair found"}}

# Rows of the per-stage table: label and the traced functions whose spans
# make up the stage, written "name" or "name(argument)".  A stage's time
# excludes the time of other stages nested inside it.
STAGES = [
    ("g2+sp6 models", {"liemodel.g2_model", "liemodel.sp6_model"}),
    ("level-1 table", {"geometry.reconstruct_level1"}),
    ("level-2 table", {"geometry.reconstruct_level2"}),
    ("V1", {"jet.stage_context(V1)"}),
    ("V2-V4", {"jet.stage_context(V2)", "jet.stage_context(V3)", "jet.stage_context(V4)"}),
    ("build_I1", {"pipeline.build_I1"}),
    ("cascade", {"pipeline.table_reductions"}),
    ("reduction_consequences", {"pipeline.reduction_consequences"}),
    ("build_I2", {"pipeline.build_I2"}),
    ("generic Frobenius", {"pipeline.generic_frobenius_residuals"}),
    ("extract_obstructions", {"pipeline.extract_obstructions"}),
    ("flat suite", {"examples.flat_model_suite"}),
    ("d6 suite", {"examples.d6_model_suite"}),
    ("linearized_tableau", {"jet.linearized_tableau"}),
    ("cartan_characters", {"tableau.cartan_characters"}),
    ("prolong", {"tableau.prolong"}),
]


def trace_path(workload: str, role: str, seed: int) -> Path:
    return OUT / f"trace-{workload}-{role}-{seed}.json"


class RunFailed(Exception):
    """A child could not finish; the run prints no result."""


def run_child(workload: str, role: str, traced: bool, seed: int, part: int,
              seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(CHILD), workload, role, "--seed", str(seed),
           "--part", str(part), "--ops", str(MIN_OPS[(workload, traced)])]
    if traced:
        cmd += ["--trace", str(trace_path(workload, role, seed))]
    else:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"no time left for {role}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} did not finish within the time budget") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{role} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{role} printed nothing")
    return json.loads(lines[-1])


def stage_table(spans: list) -> list:
    """(label, seconds) per stage, from one traced child's spans."""
    stage_of = {}
    for label, keys in STAGES:
        for key in keys:
            stage_of[key] = label
    labels = [stage_of.get(f"{s[0]}({s[1]})", stage_of.get(s[0])) for s in spans]
    # nearest enclosing stage span of each span; parents precede children
    enclosing: list = []
    for s in spans:
        p = s[4]
        enclosing.append(p if p is None or labels[p] else enclosing[p])
    total: dict = {}
    for i, s in enumerate(spans):
        if labels[i] is None:
            continue
        duration = s[3] - s[2]
        total[labels[i]] = total.get(labels[i], 0.0) + duration
        if enclosing[i] is not None:
            outer = labels[enclosing[i]]
            total[outer] = total.get(outer, 0.0) - duration
    return [(label, total[label]) for label, _ in STAGES if label in total]


def timed_values(workload: str, results: list, suffix: str) -> tuple:
    """The timed end-to-end metrics from the children's ``*{suffix}`` times,
    with the samples behind them."""
    setups = [r[f"setup{suffix}"] for r in results]
    cold = [r[f"cold{suffix}"] for r in results if f"cold{suffix}" in r]
    rounds = [r[f"latencies{suffix}"] for r in results if f"latencies{suffix}" in r]
    pooled = {kind: [x for r in rounds for x in r[kind]] for kind in ("long", "short")}
    counted = [x for kind in THROUGHPUT[workload] for x in pooled[kind]]
    values = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(cold),
        "warm_per_s": len(counted) / sum(counted),
        "warm_long_p50_ms": statistics.median(pooled["long"]) * 1000,
        "warm_short_p50_ms": statistics.median(pooled["short"]) * 1000,
    }
    return values, setups, cold, rounds, pooled, counted


def end_to_end(workload: str, results: list) -> dict:
    samples = [x for r in results for x in r["speed_samples_s"]]
    print(f"host speed: speed.reference_work took {statistics.median(samples) * 1000:.3f} ms "
          f"(median of {len(samples)} samples, quartiles "
          + ", ".join(f"{q * 1000:.3f}" for q in statistics.quantiles(samples, n=4)[::2])
          + f"); times below are scaled to {speed.NOMINAL_S * 1000:g} ms")
    values, setups, cold, rounds, pooled, counted = timed_values(workload, results, "_s")
    values["max_rss_mb"] = max(r["max_rss_mb"] for r in results)
    op = "verdict" if workload == "session" else "normalize"
    print(f"setup_s           {values['setup_s']:10.4f} s    median of {len(setups)} fresh "
          f"interpreters: {', '.join(f'{x:.3f}' for x in setups)}")
    print(f"cold_s            {values['cold_s']:10.4f} s    "
          + ("import, both suites, extract_obstructions" if workload == "session"
             else "set-up, linearized tableau, graded and generic Cartan tests")
          + f"; median of {', '.join(f'{x:.3f}' for x in cold)}")
    print(f"warm_per_s        {values['warm_per_s']:10.4f} 1/s  {op} calls per busy second, "
          f"n={len(counted)}; per round "
          + ", ".join(f"{len(x) / sum(x):.3f}" for x in
                      ([y for k in THROUGHPUT[workload] for y in r[k]] for r in rounds)))
    for kind in ("long", "short"):
        name = f"warm_{kind}_p50_ms"
        line = (f"{name:17s} {values[name]:10.4f} ms   median {KIND_NAMES[workload][kind]} "
                f"latency, n={len(pooled[kind])}; per round "
                + ", ".join(f"{statistics.median(r[kind]) * 1000:.1f}" for r in rounds))
        pct = int(100 - 1000 / len(pooled[kind]))  # highest with ten samples above
        if pct > 50:
            q = statistics.quantiles(pooled[kind], n=100)[pct - 1] * 1000
            line += f"; p{pct} {q:.1f} ms ({sum(x * 1000 > q for x in pooled[kind])} above)"
        print(line)
    if workload == "jet":
        tableau = [r["cold_s"] - r["setup_s"] for r in results if "cold_s" in r]
        print(f"tableau_s         {statistics.median(tableau):10.4f} s    cold_s without set-up")
    print(f"max_rss_mb        {values['max_rss_mb']:10.4f} MB   largest over the interpreters")
    wall = timed_values(workload, results, "_wall_s")[0]
    print("as measured, unscaled: "
          + ", ".join(f"{name} {value:.4f}" for name, value in wall.items()))
    return values


def per_layer(workload: str, seed: int, results: list, metrics: dict) -> dict:
    """Per-layer metrics, "<module>.<function>.calls" or ".self_s", summed
    over the traced interpreters of the workload (not the stage walk)."""
    work = [r for r in results if "stats" in r and r["role"] != "stages"]
    stats: dict = {}
    for r in work:
        for name, (calls, self_s) in r["stats"].items():
            entry = stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
    untraced = next(r["cold_wall_s"] for r in results if "stats" not in r)
    traced = next(r["cold_wall_s"] for r in work if "cold_wall_s" in r)
    values = {"scalar.arith.calls": sum(r["arith_calls"] for r in work),
              "trace.cold_s": traced, "trace.untraced_cold_s": untraced}
    for metric in metrics:
        if metric not in values:
            name, kind = metric.rsplit(".", 1)
            values[metric] = stats.get(name, [0, 0.0])[0 if kind == "calls" else 1]

    print(f"tracing overhead: traced cold_s {traced:.3f} s vs untraced {untraced:.3f} s "
          f"({(traced / untraced - 1) * 100:+.1f}%)")
    path = trace_path(workload, "stages" if workload == "session" else "round", seed)
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    print(f"per-stage table, cold, in dependency order ({path.relative_to(ROOT)}):")
    for label, seconds in stage_table(spans):
        print(f"  {label:24s} {seconds:8.3f} s")
    print("per-layer metrics:")
    for metric, unit in metrics.items():
        v = values[metric]
        print(f"  {metric:52s} {v:>14.4f} {unit}" if unit == "s"
              else f"  {metric:52s} {v:>14d} {unit}")
    for name, (calls, self_s) in sorted(stats.items()):
        if calls and f"{name}.self_s" not in metrics:
            print(f"  {name + '.self_s':52s} {self_s:>14.4f} s (printed only)")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["session", "jet"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an eds235 checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    OUT.mkdir(exist_ok=True)
    # compile once so that no sample pays for byte-compiling the engine
    compileall.compile_dir(str(ROOT / "src" / "eds235"), quiet=1)
    traced = bool(args.trace)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    plan = PLANS[(args.workload, traced)]
    rounds = sum(role == "round" for role, _ in plan)
    try:
        results = [run_child(args.workload, role, t, args.seed, part,
                             args.seconds / rounds, deadline)
                   for part, (role, t) in enumerate(plan)]
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for err in r["errors"]:
            print(f"FAILED ({r['role']}): {err}")
    print(f"correctness gate: {attempted - failed}/{attempted} operations correct, "
          f"failed_share {failed / attempted:.4f}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(args.workload, args.seed, results, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(args.workload, results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
