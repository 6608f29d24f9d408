"""Command line interface.

Reports are JSON on stdout; diagnostics go to stderr.  Exit codes: 0 for
satisfiable / success, 1 for unsatisfiable / failed verification, 2 when a
bounded search ends without a finding or the verdict is unknown, 3 for input
errors, 4 for internal invariant violations and any other unexpected
failure.  Identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

# a subcommand imports the other modules it runs when it runs, so that a
# process compiles and loads only what its subcommand needs
from . import formats
from .errors import (
    CapExceededError,
    DisconnectedTemplateError,
    InputError,
    InternalInvariantError,
)
from .model import MODES, Instance, Template

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_VERDICT_EXITS = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT, "unknown": EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map usage errors onto the input-error exit
        raise InputError(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


def _emit(doc: dict) -> None:
    sys.stdout.write(formats.to_json(doc))


def _load_template(path: str) -> Template:
    return formats.parse_template(_read(path))


def _load_instance(path: str, template: Template) -> Instance:
    return formats.parse_instance(_read(path), template)


def _cmd_analyze(args) -> int:
    from . import analysis

    t = _load_template(args.template)
    report = analysis.analyze_template(t)
    _emit(
        {
            "analysis": {
                "distances": list(report.distances),
                "max_distance": report.max_distance,
                "connected": report.connected,
                "path_lengths": {str(q): l for q, l in sorted(report.path_lengths.items())},
                "stretch_bound": report.stretch_bound,
            }
        }
    )
    return EXIT_SAT


def _cmd_solve(args) -> int:
    from . import solver

    t = _load_template(args.template)
    inst = _load_instance(args.instance, t)
    trace = (lambda line: sys.stderr.write(line + "\n")) if args.trace else None
    verdict = solver.solve(inst, t, mode=args.mode, trace=trace)
    report: dict = {"verdict": verdict.status}
    if verdict.witness is not None:
        report["witness"] = list(verdict.witness)
    if verdict.reason is not None:
        report["reason"] = verdict.reason
    if args.stats and verdict.stats is not None:
        report["stats"] = verdict.stats.as_dict()
    _emit(report)
    return _VERDICT_EXITS[verdict.status]


def _cmd_verify(args) -> int:
    from .brute import verify_assignment

    t = _load_template(args.template)
    inst = _load_instance(args.instance, t)
    values = formats.parse_assignment(_read(args.assignment))
    ok, failing = verify_assignment(inst, t, values)
    if ok:
        _emit({"verdict": "sat", "witness": list(values)})
        return EXIT_SAT
    _emit({"verdict": "unsat", "failing_constraint": failing})
    return EXIT_UNSAT


def _cmd_poly(args) -> int:
    from . import polymorphism

    t = _load_template(args.template)
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    d_max = polymorphism.default_modulus_bound(t) if args.max_d is None else args.max_d
    found = polymorphism.find_modular_median(t, d_max)
    if found is None:
        _emit({"found": False, "max_modulus_checked": d_max})
        return EXIT_UNKNOWN
    for rel in t.relations:
        witness = polymorphism.random_preservation_trials(found, rel, trials=args.trials)
        if witness is not None:
            raise InternalInvariantError(
                f"windowed check accepted modulus {found} but randomized trials "
                f"found the violation {witness} on relation {rel.name}"
            )
    _emit(
        {
            "found": True,
            "modulus": found,
            "verified_window": polymorphism.verification_window(t, found),
            "randomized_trials": args.trials,
        }
    )
    return EXIT_SAT


def _cmd_endo_check(args) -> int:
    from . import analysis, endomorphism

    t = _load_template(args.template)
    spec = endomorphism.parse_map_spec(_read(args.spec).strip())
    check = endomorphism.is_endomorphism(spec, t)
    if not check.ok:
        _emit(
            {
                "endomorphism": False,
                "relation": check.relation,
                "source": list(check.source or ()),
                "image": list(check.image or ()),
            }
        )
        return EXIT_UNSAT
    classification = endomorphism.classify_endomorphism(spec, t)
    body: dict = {
        "kind": classification.kind,
        "direction": classification.direction,
        "minimal_stable": classification.minimal_stable,
        "stable_numbers": list(classification.stable_numbers_upto),
        "checked_upto": classification.checked_upto,
    }
    if classification.kind == endomorphism.FINITE_RANGE:
        try:
            body["generated_range_bound"] = 2 * (analysis.stretch_constant(t) + 1)
        except (InputError, DisconnectedTemplateError):
            body["generated_range_bound"] = None
    _emit({"endomorphism": True, "classification": body})
    return EXIT_SAT


def _cmd_endo_search(args) -> int:
    from . import endomorphism

    t = _load_template(args.template)
    drift_filter = None if args.drift is None else (int(args.drift),)
    spec = endomorphism.search_periodic_endomorphism(
        t,
        max_period=args.max_period,
        value_window=args.value_window,
        drift_filter=drift_filter,
    )
    if spec is None:
        _emit({"found": False})
        return EXIT_UNKNOWN
    _emit({"found": True, "spec": endomorphism.format_map_spec(spec)})
    return EXIT_SAT


def _cmd_endo_reduce(args) -> int:
    from . import endomorphism

    t = _load_template(args.template)
    reduced = endomorphism.reduce_template(t, args.q)
    doc = formats.template_to_dict(reduced)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(formats.to_json(doc))
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e.strerror}") from None
    else:
        _emit(doc)
    return EXIT_SAT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="distcsp", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="distance profile of a template")
    p.add_argument("template")
    p.set_defaults(run=_cmd_analyze)

    p = commands.add_parser("solve", help="decide an instance")
    p.add_argument("template")
    p.add_argument("instance")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--trace", action="store_true", help="log pair replacements to stderr")
    p.add_argument("--stats", action="store_true", help="include solver counters in the report")
    p.set_defaults(run=_cmd_solve)

    p = commands.add_parser("verify", help="check an assignment against an instance")
    p.add_argument("template")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.set_defaults(run=_cmd_verify)

    p = commands.add_parser("poly", help="search for a modular median the template is closed under")
    p.add_argument("template")
    p.add_argument("--max-d", type=int, default=None, help="largest modulus to try")
    p.add_argument("--trials", type=int, default=0, help="randomized confirmation trials")
    p.set_defaults(run=_cmd_poly)

    endo = commands.add_parser("endo", help="eventually periodic endomorphism tools")
    sub = endo.add_subparsers(dest="endo_command", required=True)

    p = sub.add_parser("check", help="verify and classify a map spec")
    p.add_argument("template")
    p.add_argument("--spec", required=True, help="file with 'p=...; values=...; drift=...'")
    p.set_defaults(run=_cmd_endo_check)

    p = sub.add_parser("search", help="bounded search for a nontrivial endomorphism")
    p.add_argument("template")
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--value-window", type=int, default=None)
    p.add_argument("--drift", choices=["+1", "-1", "0"], default=None)
    p.set_defaults(run=_cmd_endo_search)

    p = sub.add_parser("reduce", help="divide a template by a stable number")
    p.add_argument("template")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None, help="write the reduced template to a file")
    p.set_defaults(run=_cmd_endo_reduce)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except CapExceededError as e:
        sys.stderr.write(f"refused: {e}\n")
        return EXIT_UNKNOWN
    except InternalInvariantError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL
    except Exception as e:  # any other failure is a defect, never a verdict
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
