"""Command-line front end.

Subcommands: bounds, construct, direct, verify, solve, export-code, table.
Exit codes: 0 success, 1 invalid input, 2 theorem or bound not applicable,
3 search budget exhausted.  Human-readable errors go to standard error.  An
output pipe that its reader closed ends the command with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from itertools import chain, islice

from . import bounds as bd
from .bounds import NotApplicableError
from .codes import deletion_channel_check, to_constant_weight, to_indel_code
from .construct import construct_optimal
from .core import DesignParams, structural_diagnostics, validate_packing
from .directing import direct_packing
from .io import DesignDocument, dumps_code, dumps_design, load_design, write_file
from .solve import OPTIMAL, SearchConfig, _exact

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_APPLICABLE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # name -> subparser, on the top-level parser

    def error(self, message):  # argparse would exit(2); keep 2 for "not applicable"
        raise ValueError(message)


def _add_t_lambda(sub) -> None:
    sub.add_argument("--t", type=int, default=2, help="tuple size (default 2)")
    sub.add_argument(
        "--lambda", dest="lam", type=int, default=1, help="max multiplicity (default 1)"
    )


def _add_params(sub) -> None:
    sub.add_argument("--v", type=int, required=True, help="number of points")
    sub.add_argument("--k", type=int, required=True, help="block size")
    _add_t_lambda(sub)


def _params(args) -> DesignParams:
    return DesignParams(args.v, args.k, args.t, args.lam)


def _is_stdout(path: str) -> bool:
    """Whether ``path`` is the regular file stdout writes to (``-o /dev/stdout > f``),
    which a second open would write from offset 0, under the summary printed after."""
    try:  # no such path, or a stdout without a descriptor
        out = os.fstat(sys.stdout.fileno())
        return stat.S_ISREG(out.st_mode) and os.path.samestat(os.stat(path), out)
    except (OSError, ValueError):
        return False


def _emit(args, text: str, summary: str) -> None:
    """Write ``text`` to the ``-o`` file and print the summary, or write it to stdout."""
    if args.output and not _is_stdout(args.output):
        write_file(args.output, text)
        print(f"{summary} -> {args.output}")
    else:
        sys.stdout.write(text)


def _text(value) -> str:
    """``str(value)``, also for an int past 4,300 digits or a dict holding one, which str refuses."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, dict):
            return "{" + ", ".join(f"{key!r}: {_text(x)}" for key, x in value.items()) + "}"
        from decimal import Decimal  # imported on first use, as few outputs are that long

        return str(Decimal(value))


def _print_tsv(header: tuple[str, ...], rows) -> None:
    """One tab-separated line per row under the header; None prints as an empty cell."""
    for row in chain((header,), rows):
        print("\t".join("" if cell is None else _text(cell) for cell in row))


def cmd_bounds(args) -> int:
    params = _params(args)
    reports = bd.bound_candidates(params, directed=args.directed)
    best = bd.least_bound(params, reports)
    rows: list[tuple[str, int | None, bool]] = []
    for rep in reports:
        name = rep.provenance
        if name == bd.VIA_UNDIRECTED:
            name = f"{name}({rep.detail['underlying']})"
        rows.append((name, rep.value, rep.exact))
        if name == bd.SECOND_JOHNSON and rep.detail["closed_form"] is not None:
            rows.append((f"{bd.SECOND_JOHNSON}(closed)", rep.detail["closed_form"], False))
    if args.tsv:
        tsv_rows = [
            (name, value, "exact" if exact else ("upper" if value is not None else "n/a"))
            for name, value, exact in rows
        ]
        tsv_rows.append(("best", best.value, best.provenance))
        _print_tsv(("provenance", "value", "kind"), tsv_rows)
    else:
        width = max(len(name) for name, _, _ in rows)
        for name, value, exact in rows:
            shown = "not applicable" if value is None else _text(value)
            mark = "  (exact)" if exact and value is not None else ""
            print(f"{name:<{width}}  {shown}{mark}")
        print(f"best: {_text(best.value)} via {best.provenance}")
    return EXIT_OK


def cmd_construct(args) -> int:
    params = _params(args)
    design, report = construct_optimal(params)
    text = dumps_design(DesignDocument(design, params.k, params.t, params.lam))
    _emit(args, text, f"constructed {len(design.blocks)} blocks via {report.provenance}")
    return EXIT_OK


def cmd_direct(args) -> int:
    doc = load_design(args.input)
    if doc.directed:
        raise ValueError("input design is already directed")
    directed = direct_packing(doc.design)
    text = dumps_design(DesignDocument(directed, doc.k, 2, 1))
    _emit(args, text, f"directed {len(directed.blocks)} blocks")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = load_design(args.input)
    params = DesignParams(doc.design.v, doc.k or doc.design.v, doc.t, doc.lam)  # a k is >= t >= 1
    report = validate_packing(doc.design, params)
    print(f"valid: {'yes' if report.valid else 'no'}")
    if report.worst_t_set is not None:
        print(
            f"worst t-set: {report.worst_t_set} multiplicity "
            f"{report.worst_multiplicity} (limit {params.lam})"
        )
        print(f"held by blocks: {', '.join(map(str, report.blocks))}")
    uniform = doc.k is not None and all(len(block) == doc.k for block in doc.design.blocks)
    if report.valid and not doc.directed and uniform and doc.design.blocks:
        for name, passed, witness in structural_diagnostics(doc.design, params):
            print(f"check {name}: {'pass' if passed else 'FAIL'} {_text(witness)}")
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_solve(args) -> int:
    """One search for both kinds of design, at any --t and --lambda; --directed orders the blocks."""
    config = SearchConfig(node_budget=args.budget)
    result = _exact(_params(args), args.directed, config)
    print(f"{'DPDN' if args.directed else 'PDN'} = {result.n} ({result.certificate})")
    return EXIT_OK if result.certificate == OPTIMAL else EXIT_BUDGET


def cmd_export_code(args) -> int:
    if args.check_deletions is not None and args.format != "indel":
        raise ValueError("--check-deletions applies to indel codes only")
    doc = load_design(args.input)
    params = doc.params
    if args.format == "cw":
        if doc.directed:
            raise ValueError("constant-weight export needs an unordered design")
        code = to_constant_weight(doc.design, params)
    else:
        if not doc.directed:
            raise ValueError("deletion-code export needs a directed design")
        code = to_indel_code(doc.design, params)
    # run the check before any output, so a rejected deletion count writes nothing
    s = args.check_deletions
    ok = None if s is None else deletion_channel_check(code, s)
    _emit(args, dumps_code(code), f"exported {len(code.words)} words")
    if ok is not None:
        print(f"deletion check (s={s}): {'pass' if ok else 'fail'}")
    return EXIT_INVALID if ok is False else EXIT_OK


def _table_rows(args):
    """One (v, k, value, kind, provenance) row per cell, computed as it is asked for."""
    for v in range(args.v_min, args.v_max + 1):
        for k in range(max(args.k_min, args.t), min(args.k_max, v) + 1):
            params = DesignParams(v, k, args.t, args.lam)
            # an exact window wins outright, even over a classical bound tied with it,
            # so the classical bounds are computed only where no window holds
            best = bd.exact_by_theorems(params) if args.t >= 2 else None
            if best is None or not best.exact:
                best = bd.best_upper_bound(params, include_exact=False)
            yield v, k, best.value, "exact" if best.exact else "upper", best.provenance


def cmd_table(args) -> int:
    rows = _table_rows(args)
    # the first cell checks --t and --lambda, so bad ones fail before any output
    rows = chain(list(islice(rows, 1)), rows)
    if args.tsv:
        _print_tsv(("v", "k", "value", "kind", "provenance"), rows)
    else:
        print(f"{'v':>3} {'k':>3} {'value':>6} {'kind':>6}  provenance")
        for v, k, value, kind, provenance in rows:
            print(f"{v:>3} {k:>3} {_text(value):>6} {kind:>6}  {provenance}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="packings", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands.choices

    sub = commands.add_parser("bounds", help="print every applicable bound")
    _add_params(sub)
    sub.add_argument("--directed", action="store_true")
    sub.add_argument("--tsv", action="store_true")
    sub.set_defaults(func=cmd_bounds)

    sub = commands.add_parser("construct", help="build an optimal design in the window regime")
    _add_params(sub)
    sub.add_argument("-o", "--output", help="write the design file here")
    sub.set_defaults(func=cmd_construct)

    sub = commands.add_parser("direct", help="order the blocks of a 2-fold packing")
    sub.add_argument("-i", "--input", required=True)
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_direct)

    sub = commands.add_parser("verify", help="validate a design file")
    sub.add_argument("-i", "--input", required=True)
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("solve", help="exact search for the packing number")
    _add_params(sub)
    sub.add_argument("--directed", action="store_true")
    sub.add_argument("--budget", type=int, default=None, help="node budget for the search")
    sub.set_defaults(func=cmd_solve)

    sub = commands.add_parser("export-code", help="export a design as a code")
    sub.add_argument("-i", "--input", required=True)
    sub.add_argument("--format", choices=("cw", "indel"), required=True)
    sub.add_argument("--check-deletions", type=int, default=None, metavar="S")
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_export_code)

    sub = commands.add_parser("table", help="best bound or exact value per cell")
    sub.add_argument("--v-min", type=int, required=True)
    sub.add_argument("--v-max", type=int, required=True)
    sub.add_argument("--k-min", type=int, required=True)
    sub.add_argument("--k-max", type=int, required=True)
    _add_t_lambda(sub)
    sub.add_argument("--tsv", action="store_true")
    sub.set_defaults(func=cmd_table)

    return parser


# parsing keeps no state between calls, so one parser serves the whole process
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the top-level parser would hand a known command's subparser all that follows
        # the command, so that subparser parses it alone, and argparse runs one pass
        command = _PARSER.commands.get(argv[0]) if argv else None
        args = _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])
        code = args.func(args)
        print(end="", flush=True)  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the rest of the output goes to devnull, so the last flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except (ValueError, OSError) as exc:  # every error class of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE if isinstance(exc, NotApplicableError) else EXIT_INVALID


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
