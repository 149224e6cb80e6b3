"""Worked models that exercise the embeddability pipeline end to end.

Two homogeneous models bound the machinery from opposite ends.  The flat
model has identically vanishing curvature: its negative graded algebra
maps into the target symbol algebra by an explicit filtered morphism, and
every obstruction in the pipeline vanishes for trivial reasons.  The
``d6`` model is a curved homogeneous example over the quadratic field
Q(sqrt 7) with a single nonvanishing curvature tower; every reduction
relation and both final scalar conditions hold with nontrivial values, so
it is embeddable without being flat.

Each suite returns an :class:`ExampleReport` whose checks are exact
(rational or quadratic-field arithmetic throughout, no tolerances).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .exterior import eliminate
from .geometry import (
    CURVATURE_SYMBOLS,
    CurvatureSpec,
    build_M_context,
    reconstruct_derivatives,
)
from .liemodel import (
    FilteredMap,
    check_filtered_morphism,
    g2_model,
    growth_vector,
    negative_part,
    sp6_model,
)
from .scalar import Scalar
from . import pipeline


# --------------------------------------------------------------------------
# the flat model: an explicit filtered morphism of negative parts
# --------------------------------------------------------------------------

# Images of the graded basis of the source nilpotent (coframe-dual basis of
# the rank-two distribution model) inside the target symbol algebra.  The
# map doubles the grading: degree -1 lands in degree <= -1, degree -2 in
# degree -1, degree -3 in degree -2, so it is filtration-preserving for the
# half-integer refiltration of the target.
FLAT_MAP_IMAGES = {
    "th1": {"vt12": "1/3"},
    "th2": {"vt11": "2/3"},
    "om0": {"vpi13": "1"},
    "om1p": {"vpi23p": "1", "et3_3p": "-2"},
    "om2p": {"vpi13p": "1"},
}


def flat_morphism() -> FilteredMap:
    """The flat embedding on the level of graded Lie algebras."""
    return FilteredMap(
        source=negative_part(g2_model()),
        target=sp6_model(),
        images={
            n: {k: Scalar.parse(v) for k, v in img.items()}
            for n, img in FLAT_MAP_IMAGES.items()
        },
    )


# --------------------------------------------------------------------------
# curvature specs for the two models
# --------------------------------------------------------------------------

D6_BASE = {"A3": "1", "C2": "1/7*sqrt7", "E": "9/14", "Et2": "9/14"}

# Coframe adaptation of the curved model: connection forms expressed in the
# base coframe on the six-dimensional total space (one residual vertical
# generator ze2 survives).
D6_COFRAME_ROWS = {
    "ga12": {},
    "ze1": {"om0": "-3/14*sqrt7", "ze2": "-1/2"},
    "ga21": {},
    "ga01": {"om2p": "6/7*sqrt7", "th2": "17/14"},
    "ga02": {"th1": "1/14"},
    "ga": {"om0": "-5/7"},
    "gam2": {"th1": "-17/49*sqrt7", "om1p": "17/14"},
    "gam1": {"th2": "1/7*sqrt7", "om2p": "37/14"},
}


def derivative_symbol_closure() -> list:
    """Every symbol the level-2 tables or the consequence map mention."""
    syms = set(CURVATURE_SYMBOLS)
    table = reconstruct_derivatives(depth=2)
    for sym, row in table.rules.items():
        syms.add(sym)
        for c in row.values():
            syms |= set(c.symbols())
    for sym, v in table.eliminations.items():
        syms.add(sym)
        syms |= set(v.symbols())
    _, full, _ = pipeline.reduction_consequences()
    for sym, v in full.items():
        syms.add(sym)
        syms |= set(v.symbols())
    for sym, v in pipeline.final_conditions().items():
        syms.add(sym)
        syms |= set(v.symbols())
    return sorted(syms)


def flat_spec() -> CurvatureSpec:
    """Every curvature and derivative symbol bound to zero."""
    zero = Scalar.zero()
    return CurvatureSpec({s: zero for s in derivative_symbol_closure()})


def d6_spec() -> CurvatureSpec:
    """The induced symbol assignment of the curved homogeneous model.

    Base curvatures take the model values; every derivative symbol the
    consequence map determines is evaluated at those values, and genuinely
    free derivative symbols vanish because all curvatures are constant on
    the model.  The assignment is iterated to a fixed point and checked
    against every consequence relation.
    """
    lam = {s: Scalar.zero() for s in derivative_symbol_closure()}
    lam.update({s: Scalar.parse(v) for s, v in D6_BASE.items()})
    _, full, _ = pipeline.reduction_consequences()
    for _ in range(8):
        changed = False
        for sym, v in full.items():
            nv = v.substitute(lam)
            if not nv.is_constant():
                raise pipeline.Inconsistent(
                    f"induced value of {sym} stays symbolic: {nv}"
                )
            if lam.get(sym) != nv:
                lam[sym] = nv
                changed = True
        if not changed:
            break
    else:
        raise pipeline.Inconsistent("induced assignment did not stabilize")
    return CurvatureSpec(lam)


def write_spec_files(directory) -> list:
    """Serialize both model specs as JSON files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, spec in (("flat", flat_spec()), ("d6", d6_spec())):
        path = directory / f"{name}.json"
        payload = {
            "bindings": {k: str(v) for k, v in sorted(spec.bindings.items())}
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        out.append(path)
    return out


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------

@dataclass
class ExampleCheck:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class ExampleReport:
    name: str
    checks: list = field(default_factory=list)

    def add(self, label: str, passed: bool, detail: str = ""):
        self.checks.append(ExampleCheck(label, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# --------------------------------------------------------------------------
# the suites
# --------------------------------------------------------------------------

def flat_model_suite() -> ExampleReport:
    """Checks for the flat model: algebra map plus trivial obstructions."""
    rep = ExampleReport("flat")

    gm = negative_part(g2_model())
    rep.add("source growth vector (2, 3, 5)",
            growth_vector(gm) == (2, 3, 5), str(growth_vector(gm)))

    fmap = flat_morphism()
    morph = check_filtered_morphism(fmap)
    rep.add("bracket homomorphism on all basis pairs",
            morph["is_hom"], str(morph["bracket_failures"]))
    rep.add("injective (rank 5)", morph["injective"], "")
    profile = morph["filtration_profile"]
    expected_profile = {"th1": -2, "th2": -2, "om0": -1, "om1p": -1,
                        "om2p": -1}
    rep.add("filtration profile doubles the grading",
            profile == expected_profile, str(profile))

    tgt = sp6_model()
    images = fmap.images
    br = tgt.bracket_coords(images["om1p"], images["om2p"])
    expected = {k: v * Scalar.rational(-2) for k, v in images["om0"].items()}
    rep.add("image bracket [f(e_1'), f(e_2')] doubles f(e_0)",
            br == expected, str({k: str(v) for k, v in br.items()}))

    verdict = pipeline.embeddability_verdict(flat_spec())
    rep.add("all reduction relations hold",
            verdict.reduction_relations_hold, str(verdict.failing))
    rep.add("both final scalar conditions vanish",
            verdict.condition_A41p.is_zero()
            and verdict.condition_A501p.is_zero(), "")
    rep.add("final ideal is Frobenius", verdict.frobenius, "")
    rep.add("verdict: embeddable", verdict.embeddable, "")
    return rep


def d6_model_suite() -> ExampleReport:
    """Checks for the curved homogeneous model over Q(sqrt 7)."""
    rep = ExampleReport("d6")
    spec = d6_spec()

    ident = {
        "A3_0": "6/7*sqrt7",
        "Dt3": "0",
        "E": "9/14",
        "Et2": "9/14",
    }
    ok = all(spec.bindings[k] == Scalar.parse(v) for k, v in ident.items())
    rep.add("induced derivative values (A3_0 = 6*C2, ...)", ok,
            str({k: str(spec.bindings[k]) for k in ident}))

    # The symbolic connection reduction, evaluated at the model curvature,
    # must be exactly the model's coframe adaptation.
    lam = spec.bindings
    rows_ok = True
    detail = []
    for gen, row in pipeline.theorem_rows().items():
        vals = {g: v.substitute(lam) for g, v in row.items()}
        got = {g: str(v) for g, v in vals.items() if not v.is_zero()}
        want = {g: str(Scalar.parse(c))
                for g, c in D6_COFRAME_ROWS[gen].items() if g != "ze2"}
        if got != want:
            rows_ok = False
            detail.append(f"{gen}: {got} != {want}")
    rep.add("reduction rows match the model coframe adaptation",
            rows_ok, "; ".join(detail))

    # The fully adapted coframe closes: d^2 = 0 for all six structure
    # equations of the reduced model.
    ctx = build_M_context(CurvatureSpec(
        {s: lam.get(s, Scalar.zero()) for s in CURVATURE_SYMBOLS}))
    replacements = {
        name: ctx.form(row) for name, row in D6_COFRAME_ROWS.items()
    }
    reduced, _ = eliminate(ctx, replacements, label="D6")
    closure = reduced.check_context()
    rep.add("adapted coframe structure equations close (d^2 = 0)",
            closure == {}, str(sorted(closure)))
    rep.add("six-dimensional total space",
            len(reduced.names()) == 6, str(reduced.names()))

    verdict = pipeline.embeddability_verdict(spec)
    rep.add("all reduction relations hold",
            verdict.reduction_relations_hold, str(verdict.failing))
    rep.add("both final scalar conditions vanish",
            verdict.condition_A41p.is_zero()
            and verdict.condition_A501p.is_zero(),
            f"{verdict.condition_A41p}, {verdict.condition_A501p}")
    rep.add("final ideal is Frobenius", verdict.frobenius, "")
    rep.add("verdict: embeddable", verdict.embeddable, "")
    rep.add("model is genuinely curved",
            not spec.bindings["A3"].is_zero(), str(spec.bindings["A3"]))
    return rep


def run_examples(which: str = "all") -> list:
    """Run one or both example suites; ``which`` is flat, d6 or all."""
    suites = {"flat": flat_model_suite, "d6": d6_model_suite}
    if which == "all":
        return [suites["flat"](), suites["d6"]()]
    if which not in suites:
        raise ValueError(f"unknown example {which!r}")
    return [suites[which]()]
