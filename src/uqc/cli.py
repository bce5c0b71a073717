"""Command-line front end.

Subcommands: check | repair | construct | epsilon | oracle.  Documents are
JSON (see :mod:`uqc.io`); exit code 0 means the analysis ran (whatever the
verdict), 2 flags a parse/validation problem, 3 a numerical failure, and 141
(128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe)
means stdout was a pipe whose reader had gone before the output was
written, as in ``uqc check set.json | true`` when ``true`` exits first; no
traceback is printed then.  Stdout carries the verdict or report; the sets
that ``repair`` and ``construct`` build go to ``--out`` alone.  Tolerances
are resolved here alone: the library defaults, then the edge-threshold tier
that the environment variable UQC_TOLERANCE_PROFILE (strict | default |
loose) picks, then the input file's ``tolerances`` section, then the
``--tau-edge`` flag.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, io
from .errors import InvalidInput, NumericalFailure
from .generators import RELATION_BOUND, TAU_RELATION, Algebra, validate_tolerance
from .generators import epsilon_bound, least_step_bound, step_bound
from .linalg import operator_norm
from .oracle import TAU_CLOSURE_RANK, closure_block_partition, lie_closure
from .repair import SELECTION_RULES, BridgeStyle, minimal_pair, repair
from .universality import TAU_EDGE, check_universality, VerdictStatus

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
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
    "tau_rank": TAU_CLOSURE_RANK,
    "tau_rel": TAU_RELATION,
    "relation_bound": RELATION_BOUND,
}
#: UQC_TOLERANCE_PROFILE values and the edge threshold each selects
_PROFILE_TAU_EDGE = {"strict": 1e-13, "default": 1e-12, "loose": 1e-9}


def _resolve_tolerances(overrides: dict, args) -> dict:
    """The run's tolerances by name, in the order of the module docstring;
    each value from the file or the flag is validated, naming its source."""
    tols = dict(_TOLERANCE_DEFAULTS)
    profile = os.environ.get("UQC_TOLERANCE_PROFILE")
    if profile:
        if profile not in _PROFILE_TAU_EDGE:
            raise InvalidInput(
                f"unknown tolerance profile {profile!r}; "
                f"expected one of {sorted(_PROFILE_TAU_EDGE)}"
            )
        tols["tau_edge"] = _PROFILE_TAU_EDGE[profile]
    for key, value in overrides.items():
        if key not in _TOLERANCE_DEFAULTS:
            raise InvalidInput(f"tolerances: unknown key {key!r}")
        tols[key] = validate_tolerance(key, value, "input file tolerances")
    if getattr(args, "tau_edge", None) is not None:
        tols["tau_edge"] = validate_tolerance("tau_edge", args.tau_edge, "flag --tau-edge")
    return tols


def _oracle_section(gen_set, verdict, tols):
    report = lie_closure(gen_set, tau_rank=tols["tau_rank"])
    partition = closure_block_partition(report, tau_edge=tols["tau_edge"])
    agrees = partition == verdict.components
    if verdict.status is VerdictStatus.UNIVERSAL:
        agrees = agrees and report.dimension == report.target_dimension
    return {
        "dimension": report.dimension,
        "target_dimension": report.target_dimension,
        "agrees": agrees,
    }


def _print_json(doc: dict):
    io.dump_json(doc, sys.stdout)
    sys.stdout.write("\n")


def _emit(args, doc: dict, text: str):
    if args.text:
        print(text)
    else:
        _print_json(doc)


def _cmd_check(args) -> int:
    gen_set, overrides = io.load_input_document(args.input)
    tols = _resolve_tolerances(overrides, args)
    verdict = check_universality(
        gen_set,
        tau_edge=tols["tau_edge"],
        relation_bound=tols["relation_bound"],
        tau_rel=tols["tau_rel"],
    )
    try:
        eps = epsilon_bound(gen_set)
    except InvalidInput:
        eps = None
    oracle = _oracle_section(gen_set, verdict, tols) if args.oracle else None
    doc = io.verdict_to_document(verdict, epsilon_max=eps, oracle=oracle)
    graph_text = io.render_graph_text(gen_set, tols["tau_edge"]) if args.text else None
    _emit(args, doc, io.render_verdict_text(doc, graph_text))
    return EXIT_OK


def _cmd_repair(args) -> int:
    gen_set, overrides = io.load_input_document(args.input)
    tols = _resolve_tolerances(overrides, args)
    plan = repair(
        gen_set,
        style=BridgeStyle(args.style),
        tau_edge=tols["tau_edge"],
        selection=args.selection,
    )
    io.write_document(
        io.generator_set_to_document(plan.resulting_set, overrides or None),
        args.out,
    )
    verdict = check_universality(
        plan.resulting_set,
        tau_edge=tols["tau_edge"],
        relation_bound=tols["relation_bound"],
        tau_rel=tols["tau_rel"],
    )
    # epsilon_bound(plan.resulting_set) without an SVD per bridge: every
    # bridge has operator norm exactly 1, so its bound is pi/2; a set whose
    # generators are all zero has no bound, null as in check
    try:
        eps = epsilon_bound(gen_set)
    except InvalidInput:
        eps = math.inf
    if plan.bridges:
        eps = min(eps, math.pi / 2)
    doc = io.verdict_to_document(
        verdict, epsilon_max=eps, repair=io.repair_plan_to_document(plan)
    )
    _emit(args, doc, io.render_verdict_text(doc))
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.dim < 1:
        raise InvalidInput(f"--dim must be >= 1, got {args.dim}")
    gen_set = minimal_pair(Algebra(kind=args.algebra, dim=args.dim), style=args.style)
    io.write_document(io.generator_set_to_document(gen_set), args.out)
    n = len(gen_set.generators)
    doc = {"out": args.out, "algebra": args.algebra, "dimension": args.dim, "generators": n}
    _emit(args, doc, f"wrote {args.out}: {args.algebra}({args.dim}), {n} generator(s)")
    return EXIT_OK


def _cmd_epsilon(args) -> int:
    gen_set, overrides = io.load_input_document(args.input)
    # no tolerance enters the bound; they are resolved all the same, so that
    # a bad tolerances section or profile exits 2 here as in every command
    _resolve_tolerances(overrides, args)
    # one operator_norm per generator gives both its norm and its bound
    norms = [operator_norm(gen.matrix) for gen in gen_set.generators]
    eps = least_step_bound(norms)
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
    lines = [f"epsilon_max (set): {eps:.6g}"]
    for entry in per_gen:
        if entry["operator_norm"] == 0.0:
            lines.append(f"  {entry['label']}: zero generator, unconstrained")
        elif entry["epsilon_max"] is None:
            lines.append(f"  {entry['label']}: epsilon_max beyond float64, unconstrained")
        else:
            lines.append(
                f"  {entry['label']}: epsilon_max {entry['epsilon_max']:.6g}, "
                f"|exp(0.99 eps X) - I| = {entry['distance_at_0.99']:.6f} < sqrt(2)"
            )
    _emit(args, {"epsilon_max": eps, "generators": per_gen}, "\n".join(lines))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    gen_set, overrides = io.load_input_document(args.input)
    tols = _resolve_tolerances(overrides, args)
    report = lie_closure(gen_set, tau_rank=tols["tau_rank"])
    partition = closure_block_partition(report, tau_edge=tols["tau_edge"])
    doc = io.closure_report_to_document(report, partition)
    if args.text:
        comps = " ".join(
            "{" + ",".join(map(str, c)) + "}" for c in doc["closure_partition"]
        )
        print(
            f"closure dimension: {doc['dimension']} of {doc['target_dimension']}\n"
            f"rounds: {doc['rounds']}\n"
            f"closure residual: {doc['residual_max']:.3g}\n"
            f"closure partition: {comps}"
        )
    else:
        _print_json(doc)
    return EXIT_OK


_STYLES = [style.value for style in BridgeStyle]


def _add_format_flags(p: argparse.ArgumentParser):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="text", action="store_false", help="JSON output (default)"
    )
    fmt.add_argument("--text", dest="text", action="store_true", help="plain-text output")
    p.set_defaults(text=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("check", help="universality verdict for an input document")
    p.add_argument("input", help="path to a generator-set JSON document")
    p.add_argument("--oracle", action="store_true", help="also run the Lie-closure oracle")
    p.add_argument("--tau-edge", type=float, default=None, help="edge-detection threshold")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("repair", help="bridge disconnected components, write the new set")
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
    p.add_argument("--tau-edge", type=float, default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("construct", help="write a minimal two-generator universal set")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--algebra", choices=["u", "su"], default="u")
    p.add_argument("--style", choices=_STYLES, default="antisym")
    p.add_argument("--out", required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("epsilon", help="small-step bound per generator")
    p.add_argument("input")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("oracle", help="Lie-closure report only")
    p.add_argument("input")
    p.add_argument("--tau-edge", type=float, default=None)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a short output sits in the buffer until here; flushed at
        # interpreter exit instead, a closed pipe would escape the handler
        sys.stdout.flush()
        return code
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so that
        # the flush at interpreter exit does not fail a second time
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_BROKEN_PIPE

