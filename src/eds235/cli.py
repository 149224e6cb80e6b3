"""Command-line front end: ``eds235 verdict|examples|obstructions``.

Each subcommand prints one JSON document on standard output:

    eds235 verdict SPEC.json        the embeddability verdict of a spec file
    eds235 examples [flat|d6|all]   the payloads of the example suites
    eds235 obstructions             the obstruction report of the generic spec

The exit code is 0 when the spec is embeddable or every suite passed, 1
when not, and 2 when the spec file cannot be read, is malformed, or
contradicts itself (a relation its bindings violate, cyclic bindings).
"""

from __future__ import annotations

import argparse
import json
import sys

from .examples import run_examples
from .geometry import CurvatureSpec, InconsistentSpec
from .pipeline import embeddability_verdict, extract_obstructions


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eds235",
        description="Isotropic embeddability of (2,3,5)-distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verdict = sub.add_parser("verdict", help="judge a curvature spec file")
    verdict.add_argument("spec", help="path of a JSON curvature spec")
    examples = sub.add_parser("examples", help="run the example suites")
    examples.add_argument("which", nargs="?", default="all",
                          choices=["flat", "d6", "all"])
    sub.add_parser("obstructions", help="print the obstruction report")
    return parser


def _print(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verdict":
        try:
            with open(args.spec, encoding="utf-8") as fh:
                spec = CurvatureSpec.from_json(fh.read())
        except (OSError, ValueError, InconsistentSpec) as exc:
            print(f"eds235: {args.spec}: {exc}", file=sys.stderr)
            return 2
        try:
            verdict = embeddability_verdict(spec)
        except InconsistentSpec as exc:
            print(f"eds235: {args.spec}: {exc}", file=sys.stderr)
            return 2
        _print(verdict.to_payload())
        return 0 if verdict.embeddable else 1
    if args.command == "examples":
        reports = run_examples(args.which)
        _print([r.to_payload() for r in reports])
        return 0 if all(r.passed for r in reports) else 1
    _print(extract_obstructions().to_payload())
    return 0


if __name__ == "__main__":
    sys.exit(main())
