"""Command-line surface.

Subcommands mirror the library operations one-to-one: ``check``,
``normalize``, ``cutelim``, ``eta-expand``, ``inhabitants``, ``translate``,
``gen``, and ``suite``.  `main` builds one report per invocation, {command,
inputs (the subcommand's arguments as parsed), measurements, verdict,
details[]}, and emits it once.  A command fills its measurements, records
failures with `Report.fail` and returns the text that plain mode prints.
`main` is the one error boundary and alone sets the verdict and exit code:
0 ``pass``; 1 ``fail`` (a failure found, or a library error); 2 ``error``,
an input that cannot be read, decoded as UTF-8 or parsed; 3 ``error``, any
other exception.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from contextlib import contextmanager
from functools import cache

from .terms import term_size
from .typesys import bool_type, free_type_vars, subst_type, unit_type
from .derivation import IMALL2, LAM, CheckError, check, check_ok, dag_size, metrics
from .reduce import BudgetExceeded, normalize
from .cutelim import CutElimError, eliminate
from .inhabit import InhabitError, enumerate_inhabitants, eta_expand, maximal_value
from .translate import (
    GadgetError, GadgetLibrary, compression_report, translate_derivation,
)
from .families import gen_add, gen_applied, gen_ladd
from .frontend import (
    ParseError, load_derivation, load_term, parse_type,
    print_derivation, print_term, print_type,
)
from . import corpus as corpus_mod
from . import suites

EXIT_INPUT_ERROR = 2     # the input cannot be read, decoded or parsed
EXIT_INTERNAL_ERROR = 3  # any other exception: a defect of linadd

# The library's own errors: the command fails.  In `suite` one fails only its
# own suite, and the next suite runs.
LIBRARY_ERRORS = (ParseError, CheckError, BudgetExceeded, CutElimError,
                  InhabitError, GadgetError, corpus_mod.CorpusError)


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.measurements: dict = {}
        self.failed = False
        self.verdict = None  # set by `main` when the command ends
        self.details: list = []

    @contextmanager
    def timed(self, phase: str):
        """Record the block's wall time, also when it raises, in seconds as
        measurements["timings"][phase]."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.measurements.setdefault("timings", {})[phase] = (
                time.perf_counter() - t0)

    def fail(self, message: str):
        self.failed = True
        self.details.append(message)

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("command", "inputs", "measurements", "verdict", "details")}


def _emit(report: Report, args, text_lines=()):
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in (*text_lines, *report.details):
            print(line)
        # keep stdout clean for redirection; the verdict is diagnostic
        print("%s: %s" % (report.command, report.verdict), file=sys.stderr)


def _parse_type_arg(text: str):
    """A type literal in which the free type variables `B` and `bool` stand
    for the booleans and `unit` for the unit type, as `1` does."""
    a = parse_type(text)
    for name, b in (("B", bool_type()), ("bool", bool_type()), ("unit", unit_type())):
        if name in free_type_vars(a):
            a = subst_type(a, name, b)
    return a


def _natural(text: str) -> int:
    """A command-line integer that is at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a whole number" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("%d is negative" % n)
    return n


# -- subcommands --------------------------------------------------------------
# Each takes the parsed arguments and the report, and returns the lines that
# plain mode prints; under --json it leaves out text the report does not hold.

def cmd_check(args, report: Report):
    with report.timed("parse_s"):
        d = load_derivation(args.file)
    with report.timed("work_s"):
        bad = check(d, args.system)
    m = metrics(d)
    report.measurements.update(
        size=m.size, dag_size=dag_size(d), weight=m.weight,
        subject_size=term_size(d.conclusion.subject), violations=len(bad))
    for v in bad:
        report.fail(str(v))
    return ["checked %s: %d violations" % (args.file, len(bad))]


def cmd_normalize(args, report: Report):
    with report.timed("parse_s"):
        t = load_term(args.file)
    with report.timed("work_s"):
        res = normalize(t, strategy=args.strategy, budget=args.budget,
                        keep_trace=args.trace, seed=args.seed)
    report.measurements.update(
        input_size=term_size(t), normal_form_size=term_size(res.term),
        steps=res.steps)
    trace = [{"kind": r.kind, "path": list(r.path), "size_after": term_size(a)}
             for r, a in res.trace] if args.trace and res.trace else []
    if trace:
        report.measurements["trace"] = trace
    if args.json:
        return ()
    return [print_term(res.term)] + [
        ";; %s at %s -> size %d" % (s["kind"], "/".join(map(str, s["path"])) or "root",
                                    s["size_after"]) for s in trace]


def cmd_cutelim(args, report: Report):
    with report.timed("parse_s"):
        d = load_derivation(args.file)
    with report.timed("work_s"):
        out, trace = eliminate(d, budget=args.budget)
    m0, m1 = metrics(d), metrics(out)
    report.measurements.update(
        input_size=m0.size, output_size=m1.size, input_dag_size=dag_size(d),
        output_dag_size=dag_size(out), steps=trace.total_steps,
        rounds=trace.rounds, step_kinds=trace.counts())
    if args.trace:
        per_round: dict = {}
        for s in trace.steps:
            per_round.setdefault(s.round, {"steps": 0, "potential": s.potential})
            per_round[s.round]["steps"] += 1
            per_round[s.round]["potential"] = s.potential
        report.measurements["rounds_detail"] = [
            {"round": r, **v} for r, v in sorted(per_round.items())]
    return () if args.json else [print_derivation(out)]


def cmd_eta_expand(args, report: Report):
    with report.timed("parse_s"):
        d = load_derivation(args.file)
    with report.timed("work_s"):
        # eta_expand serves lam and imall2 derivations alike
        vs = check(d, LAM)
        if vs and check(d, IMALL2):
            raise CheckError(vs)
        out = eta_expand(d)
    report.measurements.update(
        input_size=metrics(d).size, output_size=metrics(out).size)
    return () if args.json else [print_derivation(out)]


def cmd_inhabitants(args, report: Report):
    a = _parse_type_arg(args.type)
    with report.timed("work_s"):
        found = enumerate_inhabitants(a)
    report.measurements["count"] = found.count
    report.details += [print_term(t) for t in found.terms()]
    return ["%d inhabitant(s) of %s" % (found.count, print_type(a))]


def cmd_translate(args, report: Report):
    with report.timed("parse_s"):
        d = load_derivation(args.file)
    with report.timed("work_s"):
        check_ok(d, LAM)
        out = translate_derivation(d, GadgetLibrary())
    report.measurements.update(compression_report(d, out))
    return () if args.json else [print_derivation(out)]


def cmd_gen(args, report: Report):
    a = _parse_type_arg(args.base)
    with report.timed("work_s"):
        if args.family == "add":
            term, d = gen_add(args.n, a)
            system = "imall2"
        else:
            term, d = gen_ladd(args.n, a)
            system = LAM
        if args.apply:
            mv = maximal_value(a)
            if mv is None:
                raise InhabitError("base type is uninhabited")
            d = gen_applied(d, mv[1])
            term = d.conclusion.subject
    bad = check(d, system)
    report.measurements.update(
        term_size=term_size(term), derivation_size=metrics(d).size,
        system=system)
    if bad:
        report.fail(str(bad[0]))
        return ()
    if args.json and not args.output:  # the report leaves the text out
        return ()
    text = print_derivation(d) if args.derivation else print_term(term)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        return ["wrote %s" % args.output]
    return [text]


def cmd_suite(args, report: Report):
    """One measurements[name] and one timings[name_s] per suite; a failure's
    detail starts with its suite's name."""
    names = list(suites.SUITES) if args.name == "all" else [args.name]
    corpus, gadgets = None, GadgetLibrary()
    for name in names:
        res = suites.SuiteResult()
        try:
            with report.timed(name + "_s"):
                if corpus is None and name in suites.CORPUS_SUITES:
                    corpus = corpus_mod.build_corpus(seed=args.seed)
                res = suites.SUITES[name](corpus, gadgets)
        except LIBRARY_ERRORS as e:
            res.fail("%s: %s" % (type(e).__name__, e))
        report.measurements[name] = res.measurements
        for message in res.failures:
            report.fail("%s: %s" % (name, message))
    return ()


# -- argument parsing ---------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` keeps no state in it, and
    building it costs more than most commands."""
    p = argparse.ArgumentParser(
        prog="linadd",
        description="Check, reduce, and translate linear-additive derivations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of plain text")

    sp = sub.add_parser("check", help="check a .lamd derivation file")
    sp.add_argument("file")
    sp.add_argument("--system", choices=("lam", "imall2", "imll2"),
                    default="lam")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("normalize", help="normalize a .lam term file")
    sp.add_argument("file")
    sp.add_argument("--strategy", choices=("leftmost", "rightmost", "random"),
                    default="leftmost")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_natural, default=None)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("cutelim", help="eliminate cuts from a derivation")
    sp.add_argument("file")
    sp.add_argument("--budget", type=_natural, default=None)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_cutelim)

    sp = sub.add_parser("eta-expand", help="eta-expand a cut-free derivation")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_eta_expand)

    sp = sub.add_parser("inhabitants",
                        help="enumerate the closed normal inhabitants of a type")
    sp.add_argument("type", help="a type literal, or the name unit/bool")
    common(sp)
    sp.set_defaults(fn=cmd_inhabitants)

    sp = sub.add_parser("translate",
                        help="translate a derivation into the multiplicative fragment")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_translate)

    sp = sub.add_parser("gen", help="generate a nesting-family member")
    sp.add_argument("family", choices=("add", "ladd"))
    sp.add_argument("-n", type=_natural, required=True)
    sp.add_argument("--base", default="unit",
                    help="base type (default: unit); in it B and bool name "
                    "the booleans, unit and 1 the unit type")
    sp.add_argument("--apply", action="store_true",
                    help="apply to the size-maximal base value")
    sp.add_argument("--derivation", action="store_true",
                    help="print the derivation instead of the term")
    sp.add_argument("-o", "--output", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("suite", help="run a verification suite")
    sp.add_argument("name", choices=tuple(suites.SUITES) + ("all",))
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_suite)

    return p


def _error(report: Report, args, message: str, code: int) -> int:
    """End the report with verdict error, emitted as JSON under --json."""
    report.verdict = "error"
    report.details.append(message)
    if args.json:
        _emit(report, args)
    print("error: %s" % message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.cmd, {k: v for k, v in sorted(vars(args).items())
                               if k not in ("cmd", "fn", "json")})
    lines = ()
    try:
        lines = args.fn(args, report)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        return _error(report, args, str(e), EXIT_INPUT_ERROR)
    except LIBRARY_ERRORS as e:
        report.fail(str(e))
    except Exception as e:  # the last boundary: report it, with its traceback
        traceback.print_exc()
        return _error(report, args, "internal error: %s: %s"
                      % (type(e).__name__, e), EXIT_INTERNAL_ERROR)
    report.verdict = "fail" if report.failed else "pass"
    _emit(report, args, lines)
    return int(report.failed)


if __name__ == "__main__":
    sys.exit(main())
