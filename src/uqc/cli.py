"""Command-line front end.

Subcommands: check | repair | construct | epsilon | oracle.  Documents are
JSON (see :mod:`uqc.io`); exit code 0 means the analysis ran (whatever the
verdict), 2 flags a parse/validation problem or an output that cannot be
written (help and version text too), and 141 (128 + SIGPIPE, what a shell
reports for a writer killed by a closed pipe) means stdout was a pipe
whose reader had gone before the output was written, as in ``uqc check
set.json | true`` when ``true`` exits first; no traceback is printed then.
Stdout carries the verdict or report; the sets that ``repair`` and
``construct`` build go to ``--out`` alone.  Tolerances are resolved here
alone: the library defaults, then the input file's ``tolerances``
section, then the ``--tau-edge`` flag.

A command is a function ``_cmd_<name>(args, gen_set, tols)`` of the
parsed arguments, the set read from the input document (None for
``construct``, which reads none) and the resolved tolerances.  It reads,
writes and prints nothing, and raises only for a real error: it returns
its report document, a function of :mod:`uqc.output` that makes the
``--text`` form of the report there, and the generator-set document for
``--out`` (or None).  :func:`main` alone does the I/O, the same way for
every command: it reads the input and resolves the tolerances, writes
``--out`` (with the input's ``tolerances`` section, if it has one, as its
last key), then prints the report as JSON or, with ``--text``, loading
:mod:`uqc.output`, as text and flushes, and maps the exceptions to the
exit codes above.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, io
from .errors import InvalidInput
from .generators import RELATION_BOUND, TAU_RELATION, Algebra
from .generators import epsilon_bound, least_step_bound, step_bound, validate_tolerance
from .linalg import operator_norm
from .repair import SELECTION_RULES, BridgeStyle, minimal_pair, repair
from .universality import TAU_EDGE, check_universality, VerdictStatus

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141

# ||exp(t X) - I|| = 2 max_k |sin(t lambda_k / 2)| over the eigenphases
# lambda_k of a skew-Hermitian X, and max_k |lambda_k| = ||X||.  At
# t = 0.99 eps with eps = pi / (2 ||X||) the largest argument is 0.99 pi / 4,
# below pi / 2 where |sin| grows, so the distance of every nonzero generator
# is this constant, whatever X is
_DISTANCE_AT_099 = 2.0 * math.sin(0.99 * math.pi / 4)


#: the tolerances a run resolves, at their library defaults; the keys are
#: the names a document's ``tolerances`` section may hold
_TOLERANCE_DEFAULTS = {
    "tau_edge": TAU_EDGE,
    "tau_rel": TAU_RELATION,
    "relation_bound": RELATION_BOUND,
}


def _resolve_tolerances(overrides: dict, args) -> dict:
    """The run's tolerances by name, in the order of the module docstring;
    each value from the file or the flag is validated, naming its source."""
    tols = dict(_TOLERANCE_DEFAULTS)
    for key, value in overrides.items():
        if key not in _TOLERANCE_DEFAULTS:
            raise InvalidInput(f"tolerances: unknown key {key!r}")
        tols[key] = validate_tolerance(key, value, "input file tolerances")
    if getattr(args, "tau_edge", None) is not None:
        tols["tau_edge"] = validate_tolerance("tau_edge", args.tau_edge, "flag --tau-edge")
    return tols


# the commands call the oracle through these two names of this module,
# which bench/tracing.py wraps
def lie_closure(gen_set, tau_edge):
    """:func:`uqc.oracle.lie_closure`; the oracle module loads on the first
    call, so that only ``check --oracle`` and ``oracle`` build it."""
    from .oracle import lie_closure

    return lie_closure(gen_set, tau_edge=tau_edge)


def closure_block_partition(report):
    """:func:`uqc.oracle.closure_block_partition`, loaded as :func:`lie_closure` is."""
    from .oracle import closure_block_partition

    return closure_block_partition(report)


def _closure(gen_set, tols):
    """The closure report of ``gen_set`` and the partition it induces."""
    report = lie_closure(gen_set, tau_edge=tols["tau_edge"])
    return report, closure_block_partition(report)


def _verdict(gen_set, tols):
    """:func:`check_universality` of ``gen_set`` at the run's tolerances."""
    return check_universality(
        gen_set,
        tau_edge=tols["tau_edge"],
        relation_bound=tols["relation_bound"],
        tau_rel=tols["tau_rel"],
    )


def _oracle_section(gen_set, verdict, tols):
    report, partition = _closure(gen_set, tols)
    agrees = partition == verdict.components
    if verdict.status is VerdictStatus.UNIVERSAL:
        agrees = agrees and report.dimension == report.target_dimension
    return {
        "dimension": report.dimension,
        "target_dimension": report.target_dimension,
        "agrees": agrees,
    }


def _cmd_check(args, gen_set, tols):
    verdict = _verdict(gen_set, tols)
    eps = epsilon_bound(gen_set)
    oracle = _oracle_section(gen_set, verdict, tols) if args.oracle else None
    doc = io.verdict_to_document(verdict, epsilon_max=eps, oracle=oracle)
    return doc, lambda output: output.render_verdict_text(
        doc, output.render_graph_text(gen_set, tols["tau_edge"])), None


def _cmd_repair(args, gen_set, tols):
    plan = repair(gen_set, style=args.style, tau_edge=tols["tau_edge"], selection=args.selection)
    verdict = _verdict(plan.resulting_set, tols)
    # epsilon_bound(plan.resulting_set) without an SVD per bridge: every
    # bridge has operator norm exactly 1, so its bound is pi/2; a set whose
    # generators are all zero has bound +inf, null as in check
    eps = epsilon_bound(gen_set)
    if plan.bridges:
        eps = min(eps, math.pi / 2)
    doc = io.verdict_to_document(
        verdict, epsilon_max=eps, repair=io.repair_plan_to_document(plan)
    )
    out = io.generator_set_to_document(plan.resulting_set)
    return doc, lambda output: output.render_verdict_text(doc), out


def _cmd_construct(args, gen_set, tols):
    if args.dim < 1:
        raise InvalidInput(f"--dim must be >= 1, got {args.dim}")
    pair = minimal_pair(Algebra(args.algebra, args.dim), style=args.style)
    doc = {"out": args.out, "algebra": args.algebra, "dimension": args.dim,
           "generators": len(pair.generators)}
    return doc, lambda output: output.render_construct_text(doc), io.generator_set_to_document(pair)


def _cmd_epsilon(args, gen_set, tols):
    # one operator_norm per generator gives both its norm and its bound
    norms = [operator_norm(gen.matrix) for gen in gen_set.generators]
    eps = least_step_bound(norms)
    if math.isinf(eps):
        why = "every generator is zero"
        if any(norms):
            why = "every nonzero generator has a bound beyond float64"
        raise InvalidInput(f"epsilon bound undefined: {why}")
    per_gen = []
    for gen, nrm in zip(gen_set.generators, norms):
        b = step_bound(nrm)
        entry = {
            "label": gen.label,
            "operator_norm": nrm,
            "epsilon_max": None if math.isinf(b) else b,
        }
        if math.isfinite(b):
            entry["distance_at_0.99"] = _DISTANCE_AT_099
        per_gen.append(entry)
    doc = {"epsilon_max": eps, "generators": per_gen}
    return doc, lambda output: output.render_epsilon_text(doc), None


def _cmd_oracle(args, gen_set, tols):
    from .output import closure_report_to_document

    doc = closure_report_to_document(*_closure(gen_set, tols))
    return doc, lambda output: output.render_closure_text(doc), None


_STYLES = [style.value for style in BridgeStyle]


def _tau_edge_argument(p: argparse.ArgumentParser):
    p.add_argument(
        "--tau-edge",
        type=float,
        default=None,
        help=(
            "edge cutoff relative to each generator's largest entry, "
            f"0 < x < 1 (default {TAU_EDGE:g})"
        ),
    )


def _check_arguments(p: argparse.ArgumentParser):
    p.add_argument("input", help="path to a generator-set JSON document")
    p.add_argument("--oracle", action="store_true", help="also run the Lie-closure oracle")
    _tau_edge_argument(p)


def _repair_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("--style", choices=_STYLES, default="antisym")
    p.add_argument(
        "--selection",
        choices=SELECTION_RULES,
        default="smallest",
        help=(
            "bridge endpoint rule: smallest index inside the start component, "
            "or (paper-example) the largest inside; the mate is always the "
            "smallest index outside"
        ),
    )
    p.add_argument("--out", required=True, help="path for the repaired document")
    _tau_edge_argument(p)


def _construct_arguments(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--algebra", choices=["u", "su"], default="u")
    p.add_argument("--style", choices=_STYLES, default="antisym")
    p.add_argument("--out", required=True)


def _epsilon_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")


def _oracle_arguments(p: argparse.ArgumentParser):
    p.add_argument("input")
    _tau_edge_argument(p)


#: each subcommand, in the order of the help text: its help, the function
#: that adds its own arguments, and the function that runs it
_COMMANDS = {
    "check": ("universality verdict for an input document", _check_arguments, _cmd_check),
    "repair": (
        "bridge disconnected components, write the new set", _repair_arguments, _cmd_repair),
    "construct": (
        "write a minimal two-generator universal set", _construct_arguments, _cmd_construct),
    "epsilon": ("small-step bound per generator", _epsilon_arguments, _cmd_epsilon),
    "oracle": ("Lie-closure report only", _oracle_arguments, _cmd_oracle),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help and version text that stdout does
    not take raises OSError, which argparse drops; subparsers inherit it."""

    def _print_message(self, message, file=None):
        if file is sys.stderr:
            super()._print_message(message, file)
        else:
            file.write(message)
            file.flush()  # so that a full device fails here, not at interpreter exit


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqc",
        description=(
            "Decide whether exponentiating a set of skew-Hermitian generators "
            "yields a universal gate set for U(d) or SU(d), via the coupling-"
            "graph criterion; repair, construct, and cross-check with a "
            "Lie-closure oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        add_arguments(p)
        p.add_argument("--text", action="store_true", help="plain-text output instead of JSON")
        p.set_defaults(func=run)
    return parser


def _stdout_failed(exc: OSError) -> int:
    """The exit code of a write to stdout that failed with ``exc``."""
    # send what is still buffered to devnull so that the flush at
    # interpreter exit does not fail a second time (stdout may be None)
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass
    if isinstance(exc, BrokenPipeError):
        # the reader is gone
        return EXIT_BROKEN_PIPE
    print(f"error: cannot write standard output: {exc}", file=sys.stderr)
    return EXIT_INPUT


def main(argv=None) -> int:
    try:
        if sys.stdout is None:
            # fd 1 was closed when the interpreter started
            raise OSError("it is closed")
        # help and version text raise here if stdout does not take them
        args = build_parser().parse_args(argv)
    except OSError as exc:
        return _stdout_failed(exc)
    try:
        gen_set, overrides = io.load_input_document(args.input) if "input" in args else (None, {})
        tols = _resolve_tolerances(overrides, args)
        doc, text, out = args.func(args, gen_set, tols)
        if out is not None:
            if overrides:
                out["tolerances"] = overrides
            io.write_document(out, args.out)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.text:
            from . import output

            print(text(output))
        else:
            io.dump_json(doc, sys.stdout)
            sys.stdout.write("\n")
        # a short output sits in the buffer until here; flushed at
        # interpreter exit instead, a failed write would escape the handler
        sys.stdout.flush()
        return EXIT_OK
    except OSError as exc:
        return _stdout_failed(exc)
