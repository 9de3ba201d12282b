"""The commuter command line.

Subcommands cover every engine: check and normalize for .cmt files, prove
for user equations, theorem1/theorem3 for the built-in drivers (theorem3
also proves theorem1_dual), finset and matrix for the two concrete models.

Exit codes: 0 success, 1 failed check or disproof, 2 budget exhausted,
3 usage or parse error.  A reader that closes stdout early ends the output,
not the run, and the exit code stays the run's own.

Output is plain text by default.  ``--format structured`` switches to
line-delimited JSON records; the first record is always a header carrying
the format version and the command name.  Color is applied only when
stdout is a terminal and NO_COLOR is unset.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

from .core import Diagram, boundaries, fmt_word
from .duality import prove_theorem
from .dsl import Document, load_document, parse_term, print_term
from .errors import BudgetError, CommuterError, NumericError, SearchExhausted
from .exchange import SwapClass
from .finset import FinSetObj, PowerS, TimesS, atom_strong_check, canonical_alpha
from .matrix import check_theorem1_numeric, check_theorem3_numeric
from .prover import ProofTrace, SearchBudget, prove_equal, rules_from_signature

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
_STATUS = {EXIT_OK: "ok", EXIT_FAILED: "failed", EXIT_BUDGET: "budget", EXIT_USAGE: "usage"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _closed_stdout_ends_output():
    """A reader that closes stdout early (``commuter theorem3 | head -1``)
    ends the output, not the run: stdout is pointed at the null device, so
    later writes and the interpreter's final flush are dropped instead of
    raising, and the run still exits with its own code."""
    try:
        yield
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(line: str) -> None:
    with _closed_stdout_ends_output():
        print(line)


@dataclass
class Output:
    structured: bool = False
    color: bool = False

    def header(self, command: str) -> None:
        if self.structured:
            self.emit({"record": "header", "version": FORMAT_VERSION, "command": command})

    def emit(self, record: dict) -> None:
        if self.structured:
            _print(json.dumps(record, sort_keys=True))

    def text(self, line: str = "") -> None:
        if not self.structured:
            _print(line)

    def mark(self, word: str, good: bool) -> str:
        if not self.color:
            return word
        code = "32" if good else "31"
        return f"\x1b[{code}m{word}\x1b[0m"

    def status(self, exit_code: int) -> int:
        self.emit({"record": "status", "status": _STATUS[exit_code], "exit": exit_code})
        return exit_code


def _print_trace(out: Output, label: str, trace: ProofTrace) -> None:
    steps = [
        {
            "rule": step.rule,
            "direction": step.direction,
            "start": step.match.start,
            "end": step.match.end,
            "whisker": step.match.whisker_left,
        }
        for step in trace.steps
    ]
    n = len(steps)
    out.text(f"{label}: {n} step{'s' if n != 1 else ''}")
    for k, s in enumerate(steps, start=1):
        out.text(
            f"  {k}. {s['rule']} {s['direction']} @ slices[{s['start']}..{s['end']}] "
            f"whisker {s['whisker']}"
        )
    out.emit(
        {
            "record": "trace",
            "goal": label,
            "input": fmt_word(trace.start.input),
            "steps": steps,
            "length": n,
        }
    )


def _residual_report(out: Output, command: str, report) -> int:
    label = " ".join(f"{k}={v}" for k, v in report.dims.items())
    seed_part = f" seed={report.seed}" if report.seed is not None else ""
    out.text(f"{command} dims {label}{seed_part} tolerance {report.tolerance:g}")
    width = max(map(len, report.residuals), default=0)
    for name, value in report.residuals.items():
        out.text(f"  {name:<{width}} {value:.3e}")
    verdict = "ok" if report.ok else "FAILED"
    out.text(f"  {out.mark(verdict, report.ok)}")
    out.emit(
        {
            "record": "report",
            "command": command,
            "dims": report.dims,
            "seed": report.seed,
            "residuals": report.residuals,
            "tolerance": report.tolerance,
            "ok": report.ok,
        }
    )
    return out.status(EXIT_OK if report.ok else EXIT_FAILED)


# ---------------------------------------------------------------- commands

def _load(path: str) -> Document:
    """Load a document; a path that cannot be read as UTF-8 text is a usage error."""
    try:
        return load_document(path)
    except (OSError, UnicodeDecodeError) as e:
        raise CommuterError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None


def cmd_check(args, out: Output) -> int:
    doc = _load(args.file)
    sig = doc.signature
    out.text(f"objects: {len(sig.objects)} ({' '.join(sig.objects)})")
    out.text(f"generators: {len(sig.morphisms)}")
    for gen in sig.morphisms.values():
        out.text(f"  {gen.name} : {fmt_word(gen.dom)} -> {fmt_word(gen.cod)}")
    out.text(f"diagrams: {len(doc.diagrams)}")
    for name, dia in doc.diagrams.items():
        src, dst = boundaries(dia)
        out.text(f"  {name} : {fmt_word(src)} -> {fmt_word(dst)} ({len(dia.slices)} slices)")
    out.text(f"rules: {len(sig.equations)}")
    for rule in sig.equations.values():
        src, dst = boundaries(rule.lhs)
        out.text(f"  {rule.name} : {fmt_word(src)} -> {fmt_word(dst)}")
    out.emit(
        {
            "record": "summary",
            "objects": list(sig.objects),
            "generators": len(sig.morphisms),
            "diagrams": len(doc.diagrams),
            "rules": len(sig.equations),
        }
    )
    return out.status(EXIT_OK)


def _load_terms(args) -> tuple[Document, Diagram, Diagram | None]:
    doc = _load(args.file)
    lhs = parse_term(args.lhs, doc)
    rhs = parse_term(args.rhs, doc) if getattr(args, "rhs", None) else None
    return doc, lhs, rhs


def cmd_normalize(args, out: Output) -> int:
    _, lhs, rhs = _load_terms(args)
    cls = SwapClass(lhs)  # one class for the canonical form and the comparison
    canon = cls.least()
    out.text(f"input:     {print_term(lhs)}")
    out.text(f"canonical: {print_term(canon.diagram)}")
    out.text(f"slices:    {canon.diagram}")
    out.emit(
        {
            "record": "normal_form",
            "input": print_term(lhs),
            "canonical": print_term(canon.diagram),
            "certificate": list(canon.certificate),
        }
    )
    if rhs is None:
        return out.status(EXIT_OK)
    equal = rhs in cls
    verdict = "equal" if equal else "not equal"
    out.text(f"comparison: {out.mark(verdict, equal)} (up to slice interchange)")
    out.emit({"record": "comparison", "equal": equal})
    return out.status(EXIT_OK if equal else EXIT_FAILED)


def cmd_prove(args, out: Output) -> int:
    doc, lhs, rhs = _load_terms(args)
    if boundaries(lhs) != boundaries(rhs):
        out.text("not equal: boundaries differ")
        out.emit({"record": "comparison", "equal": False, "reason": "boundaries"})
        return out.status(EXIT_FAILED)
    rules = rules_from_signature(doc.signature)
    budget = SearchBudget(max_depth_per_side=args.max_depth, max_nodes=args.max_nodes)
    try:
        trace = prove_equal(lhs, rhs, rules, budget)
    except SearchExhausted as e:
        out.text(f"budget exhausted: {e}")
        out.emit({"record": "budget", "stats": e.stats()})
        return out.status(EXIT_BUDGET)
    _print_trace(out, f"{args.lhs} = {args.rhs}", trace)
    return out.status(EXIT_OK)


def cmd_theorems(args, out: Output) -> int:
    for name in args.theorems:
        for label, trace in prove_theorem(name):
            _print_trace(out, label, trace)
    return out.status(EXIT_OK)


def cmd_finset_atom(args, out: Output) -> int:
    report = atom_strong_check(FinSetObj(args.d), args.max_j)
    out.text(f"atom check for |D| = {report.d_size}, scanning |J| = 0..{report.max_j}")
    for j, (ok, (dom, cod)) in enumerate(zip(report.bijective, report.sizes)):
        out.text(f"  |J| = {j}: {dom} -> {cod}  bijection: {'yes' if ok else 'no'}")
    out.text(f"  retract of 1: {'yes' if report.retract else 'no'}")
    ok = report.consistent
    first = "" if ok else f" (first failure at |J| = {report.failures()[0]})"
    out.text(f"  verdict: {out.mark('ok' if ok else 'FAILED', ok)}{first}")
    out.emit(
        {
            "record": "report",
            "command": "finset-atom",
            "d": report.d_size,
            "max_j": report.max_j,
            "bijective": list(report.bijective),
            "sizes": [list(s) for s in report.sizes],
            "retract": report.retract,
            "consistent": ok,
        }
    )
    return out.status(EXIT_OK if ok else EXIT_FAILED)


def cmd_finset_copower(args, out: Output) -> int:
    if args.power is not None:
        expr = PowerS(args.power)
        shown = f"power {args.power}"
    else:
        expr = TimesS(args.s)
        shown = f"times {args.s}"
    m = canonical_alpha(expr, args.j, FinSetObj(args.c))
    out.text(f"copower comparison for {shown}, j = {args.j}, |C| = {args.c}")
    out.text(f"  {m.dom.size} -> {m.cod.size}")
    out.text(f"  injective: {'yes' if m.is_injective else 'no'}")
    out.text(f"  surjective: {'yes' if m.is_surjective else 'no'}")
    ok = m.is_bijective
    out.text(f"  bijection: {out.mark('yes' if ok else 'no', ok)}")
    out.emit(
        {
            "record": "report",
            "command": "finset-copower",
            "functor": shown,
            "j": args.j,
            "c": args.c,
            "dom": m.dom.size,
            "cod": m.cod.size,
            "bijective": ok,
        }
    )
    return out.status(EXIT_OK if ok else EXIT_FAILED)


def _int_at_least(low: int, name: str):
    """An argparse type for integers >= low, reported as ``name`` when invalid."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError
        return value

    convert.__name__ = name  # argparse embeds the converter name in errors
    return convert


_positive_int = _int_at_least(1, "positive int")
_size = _int_at_least(0, "non-negative int")
_scan_bound = _int_at_least(2, "int >= 2")


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError
    return tuple(_positive_int(p) for p in parts)


_parse_dims.__name__ = "dims"  # argparse embeds the converter name in errors


def cmd_matrix(args, out: Output) -> int:
    return _residual_report(out, f"matrix-{args.matrix_command}", args.check(args))


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="commuter", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output style (structured = line-delimited JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("check", help="parse and type-check a .cmt file")
    p.add_argument("--file", required=True)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("normalize", help="canonical form of a term; compare two terms")
    p.add_argument("--file", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs")
    p.set_defaults(run=cmd_normalize)

    p = sub.add_parser("prove", help="search for an equational proof")
    p.add_argument("--file", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--max-depth", type=_positive_int, default=SearchBudget().max_depth_per_side)
    p.add_argument("--max-nodes", type=_positive_int, default=SearchBudget().max_nodes)
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("theorem1", help="inverse of a commutation map, both sides")
    p.set_defaults(run=cmd_theorems, theorems=("theorem1",))

    p = sub.add_parser("theorem3", help="co-variant composite plus the dualized inverse check")
    p.set_defaults(run=cmd_theorems, theorems=("theorem3", "theorem1_dual"))

    p = sub.add_parser("finset", help="finite-set model checks")
    fs = p.add_subparsers(dest="finset_command", required=True, metavar="check")
    q = fs.add_parser("atom", help="constants-map bijectivity scan over small J")
    q.add_argument("--d", type=_size, required=True)
    q.add_argument("--max-j", type=_scan_bound, default=4)
    q.set_defaults(run=cmd_finset_atom)
    q = fs.add_parser("copower", help="comparison map out of a copower")
    grp = q.add_mutually_exclusive_group(required=True)
    grp.add_argument("--s", type=_size, help="use the product functor S x -")
    grp.add_argument("--power", type=_size, help="use the power functor (-)^S")
    q.add_argument("--j", type=_size, required=True)
    q.add_argument("--c", type=_size, required=True)
    q.set_defaults(run=cmd_finset_copower)

    p = sub.add_parser("matrix", help="numeric model checks")
    mx = p.add_subparsers(dest="matrix_command", required=True, metavar="check")
    q = mx.add_parser("theorem1", help="random alpha, mate, inverse residuals")
    q.add_argument("--dims", type=_parse_dims, default=(2, 2), metavar="A,X")
    q.add_argument("--seed", type=int, default=42)
    q.set_defaults(run=cmd_matrix, check=lambda a: check_theorem1_numeric(*a.dims, a.seed))
    q = mx.add_parser("theorem3", help="flip instantiation, exact residuals")
    q.add_argument("--dims", type=_parse_dims, default=(2, 2), metavar="N,X")
    q.set_defaults(run=cmd_matrix, check=lambda a: check_theorem3_numeric(*a.dims))

    return parser


def main(argv: list[str] | None = None) -> int:
    code = _run(argv)
    with _closed_stdout_ends_output():
        sys.stdout.flush()
    return code


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    out = Output(
        structured=(args.format == "structured"),
        color=sys.stdout.isatty() and "NO_COLOR" not in os.environ,
    )
    out.header(args.command)
    try:
        return args.run(args, out)
    except (SearchExhausted, BudgetError) as e:
        print(f"commuter: budget exhausted: {e}", file=sys.stderr)
        return out.status(EXIT_BUDGET)
    except NumericError as e:
        print(f"commuter: numeric check failed: {e}", file=sys.stderr)
        return out.status(EXIT_FAILED)
    except CommuterError as e:
        print(f"commuter: {type(e).__name__}: {e}", file=sys.stderr)
        return out.status(EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
