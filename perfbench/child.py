"""One sample of a perfbench workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD ROLE --seed N [--part K] [--seconds S]
                               [--ops N] [--trace PATH]

Every stage of the engine is ``lru_cache``d, so a second cold run in the
same process would only time cache hits; ``run.py`` therefore starts one
interpreter per sample and runs them one at a time.  WORKLOAD is
``session`` or ``jet``; ROLE is one of

- ``setup``: set-up only (session: import ``pipeline`` and ``examples``,
  which builds the sp6 model; jet: import ``jet`` and ``tableau`` and build
  the g2 and sp6 models);
- ``cold``: set-up and the cold analysis (session: both example suites and
  ``extract_obstructions``; jet: the linearized tableau and both Cartan
  tests);
- ``round``: the cold analysis, then warm operations for S busy seconds and
  at least N operations.  Each workload has a long and a short kind of warm
  operation, timed apart (session: verdicts on embeddable and on failing
  seeded specs, in whole blocks; jet: ``normalize`` on a seeded jet point,
  then ``act`` with the group pair it found, ACT_REPEATS times);
- ``stages``: every pipeline stage in dependency order, for the per-stage
  table of a traced session run.

Each role checks its outputs against known answers and prints one JSON
object as its last line of standard output.  Times are wall-clock seconds
from the start of this script; the correctness checks run outside them.
An untraced interpreter samples the host's speed throughout
(``speed.Sampler``) and reports each time twice: as measured, less the
sampler's own time (``*_wall_s``), and scaled to a fixed host speed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXPECTED_PARTITION = {"stage1": 6, "reduction_consequence": 205,
                      "final_conditions": 2, "unresolved": 3}
EXPECTED_GRADED = ((7, 4, 2, 1, 0), 25, 18)
EXPECTED_GENERIC = (22, 18)

# The paper's four stated conditions and the symbols each one involves.
# A spec that moves one of these symbols off a model that satisfies them
# cannot be embeddable, and the verdict has to name that condition.
CONDITIONS = {
    "A4_1p = -5*B4": ("A4_1p", "B4"),
    "A5_0_1p = 21*A5_1": ("A5_0_1p", "A5_1"),
    "A3_0 = 6*C2": ("A3_0", "C2"),
    "B3_1p = -3*C3": ("B3_1p", "C3"),
}
MODELS = ("flat", "d6")
# No source gives the share of embeddable specs a session sees; this is an
# assumed mix with as many embeddable as failing specs.  Only warm_per_s
# depends on it: the two kinds of verdict are timed apart.
EMBEDDABLE_PER_MODEL = 16
# One act takes about a tenth of a normalize; timing it more than once per
# point gives its median enough samples without more normalize calls.
ACT_REPEATS = 2


class Outcome:
    """Counts operations and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {detail}"[:300])


def _constant(rng: random.Random) -> str:
    """A nonzero element a + b*sqrt7 of Q(sqrt 7), as spec text."""
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if a or b:
            return f"({a})+({b})*sqrt7"


def verdict_block(rng: random.Random, models: dict) -> list:
    """One shuffled block of (spec JSON text, expected failing condition).

    For every condition symbol and both models the block holds one spec
    with that symbol shifted by a nonzero constant and one with it unbound;
    each model also appears unchanged EMBEDDABLE_PER_MODEL times, expected
    embeddable (condition None).  A fixed mix keeps the cost of a block
    the same from seed to seed.
    """
    block = []
    for model in MODELS:
        bindings = models[model]
        for condition, symbols in CONDITIONS.items():
            for sym in symbols:
                shifted = dict(bindings)
                shifted[sym] = f"({bindings[sym]})+{_constant(rng)}"
                unbound = dict(bindings)
                del unbound[sym]
                block.append((shifted, condition))
                block.append((unbound, condition))
        block += [(bindings, None)] * EMBEDDABLE_PER_MODEL
    rng.shuffle(block)
    return [(json.dumps({"bindings": b}), c) for b, c in block]


def _names(text: str) -> set:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def check_verdict(out: Outcome, verdict, condition) -> None:
    if condition is None:
        out.check("embeddable spec", verdict.embeddable and not verdict.failing,
                  f"failing={verdict.failing}")
        return
    symbols = set(CONDITIONS[condition])
    named = any(symbols <= _names(f) for f in verdict.failing)
    out.check(f"spec breaking {condition}", not verdict.embeddable and named,
              f"embeddable={verdict.embeddable} failing={verdict.failing}")


def session_setup():
    import eds235.examples  # noqa: F401
    import eds235.pipeline  # noqa: F401


def session_cold(out: Outcome) -> float:
    """The cold analysis; returns the time it ended."""
    from eds235 import examples, geometry, pipeline

    reports = examples.run_examples("all")
    partition = pipeline.extract_obstructions().partition()
    end = time.perf_counter()

    names = [r.name for r in reports]
    out.check("suites pass", names == ["flat", "d6"] and all(r.passed for r in reports),
              str([r.to_payload() for r in reports if not r.passed]))
    out.check("obstruction partition", partition == EXPECTED_PARTITION, str(partition))
    regen_dir = HERE / "out" / f"specs-{os.getpid()}"
    try:
        paths = examples.write_spec_files(regen_dir)
        for path in paths:
            pinned = (ROOT / "specs" / path.name).read_bytes()
            out.check(f"regenerated specs/{path.name}", path.read_bytes() == pinned,
                      "differs from the pinned file")
    finally:
        shutil.rmtree(regen_dir, ignore_errors=True)
    fixture = (ROOT / "tests" / "fixtures" / "derivative_table.json").read_text()
    out.check("level-2 derivative table",
              geometry.reconstruct_derivatives(depth=2).to_json() == fixture,
              "differs from tests/fixtures/derivative_table.json")
    return end


def session_stages(out: Outcome) -> None:
    from eds235 import examples, geometry, jet, liemodel, pipeline

    liemodel.g2_model()
    liemodel.sp6_model()
    geometry.reconstruct_level1()
    geometry.reconstruct_level2()
    for stage in jet.STAGE_ORDER:
        jet.stage_context(stage)
    pipeline.build_I1()
    pipeline.table_reductions()
    pipeline.reduction_consequences()
    pipeline.build_I2()
    pipeline.generic_frobenius_residuals()
    session_cold(out)


def verdict_stream(out: Outcome, rng: random.Random, seconds: float, ops: int) -> dict:
    """(start, end) of each verdict: "long" for embeddable specs, which
    substitute into every generic Frobenius residual, "short" for failing
    ones."""
    from eds235 import geometry, pipeline

    models = {m: json.loads((ROOT / "specs" / f"{m}.json").read_text())["bindings"]
              for m in MODELS}
    latencies = {"long": [], "short": []}
    busy = 0.0
    done = 0
    while busy < seconds or done < ops:
        for text, condition in verdict_block(rng, models):
            start = time.perf_counter()
            try:
                verdict = pipeline.embeddability_verdict(
                    geometry.CurvatureSpec.from_json(text))
            except Exception as exc:  # a raising verdict is a failed operation
                verdict = exc
            end = time.perf_counter()
            busy += end - start
            done += 1
            latencies["long" if condition is None else "short"].append((start, end))
            if isinstance(verdict, Exception):
                out.check("verdict", False, repr(verdict))
            else:
                check_verdict(out, verdict, condition)
    return latencies


def jet_setup():
    import eds235.jet  # noqa: F401
    import eds235.tableau  # noqa: F401
    from eds235.liemodel import g2_model, sp6_model

    g2_model()
    sp6_model()


def jet_cold(out: Outcome) -> float:
    """The cold analysis; returns the time it ended."""
    from eds235 import jet, tableau

    table = jet.linearized_tableau()
    graded = tableau.involutivity_test(table, flag="graded")
    generic = tableau.involutivity_test(table, flag="generic")
    end = time.perf_counter()

    got = (tuple(graded["characters"]), graded["required"], graded["actual"])
    out.check("graded Cartan test", got == EXPECTED_GRADED, str(graded))
    got = (generic["required"], generic["actual"])
    out.check("generic Cartan test", got == EXPECTED_GENERIC, str(generic))
    return end


def normalize_stream(out: Outcome, rng: random.Random, seconds: float, ops: int) -> dict:
    """(start, end) of each call: "long" for ``normalize`` on a seeded point,
    "short" for each ``act`` of the group pair it returns, which must give
    the normal form."""
    from eds235 import jet

    latencies = {"long": [], "short": []}
    while (sum(b - a for a, b in latencies["long"]) < seconds
           or len(latencies["long"]) < ops):
        point = jet.random_integrable(rng)
        start = time.perf_counter()
        try:
            n = jet.normalize(point)
        except Exception as exc:  # a raising normalize is a failed operation
            n = exc
        latencies["long"].append((start, time.perf_counter()))
        if isinstance(n, Exception):
            out.check("normalize", False, repr(n))
            continue
        for _ in range(ACT_REPEATS):
            start = time.perf_counter()
            try:
                reached = jet.act(point, n.g, n.h, project=True)
            except Exception as exc:  # a raising act is a failed operation
                reached = exc
            latencies["short"].append((start, time.perf_counter()))
            out.check("normalize reaches its normal form", reached == n.point,
                      f"{reached!r} for {point}")
    return latencies


SETUP = {"session": session_setup, "jet": jet_setup}
COLD = {"session": session_cold, "jet": jet_cold}
STREAM = {"session": verdict_stream, "jet": normalize_stream}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=["session", "jet"])
    parser.add_argument("role", choices=["setup", "cold", "round", "stages"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="index of this interpreter in its run; picks the warm inputs")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="warm operations run for at least this busy time")
    parser.add_argument("--ops", type=int, default=0,
                        help="and for at least this many operations")
    parser.add_argument("--trace", help="write spans here and report per-layer stats")
    args = parser.parse_args(argv)
    if args.role == "stages" and args.workload != "session":
        parser.error("only the session workload has a stage walk")

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracer as tracing

        # the jet workload never imports pipeline or examples
        modules = tracing.MODULES if args.workload == "session" else tracing.MODULES[:6]
        tracer = tracing.install(modules)

    sampler = None
    if tracer is None:
        sampler = speed.Sampler()
        sampler.start()

    out = Outcome()
    result = {"role": args.role}
    SETUP[args.workload]()
    regions = {"setup": (T0, time.perf_counter())}
    if args.role in ("cold", "round"):
        regions["cold"] = (T0, COLD[args.workload](out))
    latencies = {}
    if args.role == "round":
        rng = random.Random(f"{args.seed}:{args.part}")
        latencies = STREAM[args.workload](out, rng, args.seconds, args.ops)
    if args.role == "stages":
        session_stages(out)

    if sampler is not None:
        sampler.stop()
        wall, scaled = sampler.wall, sampler.scaled
        result["speed_samples_s"] = [d for _, d in sampler.samples]
    else:
        wall = scaled = lambda a, b: b - a
    for name, (a, b) in regions.items():
        result[f"{name}_s"] = scaled(a, b)
        result[f"{name}_wall_s"] = wall(a, b)
    if latencies:
        result["latencies_s"] = {k: [scaled(a, b) for a, b in v] for k, v in latencies.items()}
        result["latencies_wall_s"] = {k: [wall(a, b) for a, b in v]
                                      for k, v in latencies.items()}

    result["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=out.attempted, failed=out.failed, errors=out.errors)
    if tracer is not None:
        tracer.dump(args.trace)
        result["stats"] = tracer.stats
        result["arith_calls"] = tracer.arith_calls
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
