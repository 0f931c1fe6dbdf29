"""Command-line interface.

Subcommands: order, index, hom2, case, verify-table, reproduce-all.
Exit codes: 0 success/match, 1 mismatch, 2 input error, 3 resource
limit.  Every subcommand takes --json, which emits

    { "command": str, "items": [ {"id": str, "status": str, ...} ],
      "status": "match" | "mismatch" | "error", "elapsed_ms": int }

whose status follows the exit code: 0 match, 1 mismatch, 2 and 3 error,
with per-item fields order, index, pattern, orientable, genus,
boundary, surface filled in where they apply.  Output ordering is
deterministic: reproduce-all lists the orbifold cases then the families
by ascending n, and sweep audit items sort by pattern then conjugator.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .catalog import CaseReport, builtin_cases, run_case, verify_table
from .coset import EnumerationLimits, enumerate_cosets, group_order, table_to_tsv
from .errors import LimitExceeded, OrbisymError, at
from .presentation import load_presentation_with_aliases, read_file
from .surface import SurfaceType
from .words import parse_word
from .z2hom import parse_constraint, solve_hom_to_z2

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3

FAMILY_SWEEP = range(3, 51)


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbisym",
        description="Coset enumeration and classification of maximally "
                    "symmetric bordered surfaces in the 3-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, cosets: bool = False,
                   threads: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if cosets:
            p.add_argument("--max-cosets", type=int, default=None,
                           help="coset budget per enumeration")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; has no effect, since "
                                "a case is evaluated in one pass over one coset table")

    p = sub.add_parser("order", help="order of the presented group")
    p.add_argument("file", help="presentation file")
    add_common(p, cosets=True)

    p = sub.add_parser("index", help="coset count of a finitely generated subgroup")
    p.add_argument("file", help="presentation file")
    p.add_argument("--subgroup", default="",
                   help="comma-separated subgroup generator words")
    p.add_argument("--dump-table", metavar="PATH", default=None,
                   help="write the standardized coset table as TSV")
    add_common(p, cosets=True)

    p = sub.add_parser("hom2", help="solve for a homomorphism onto Z2")
    p.add_argument("file", help="presentation file")
    p.add_argument("--map", action="append", default=[], metavar="WORD=BIT",
                   help="constraint word=bit (repeatable)")
    add_common(p)

    p = sub.add_parser("case", help="run one catalog case against its expectations")
    p.add_argument("id", help="case id (see catalog)")
    p.add_argument("--n", type=int, default=None, help="family parameter")
    p.add_argument("--early-stop", action="store_true",
                   help="list only the first conjugator per moved element "
                        "(the sweep evaluates each moved element once either way)")
    add_common(p, cosets=True, threads=True)

    p = sub.add_parser("verify-table", help="recompute the classification table arithmetic")
    add_common(p)

    p = sub.add_parser("reproduce-all", help="run every catalog case")
    add_common(p, cosets=True, threads=True)
    return parser


def _limits(args: argparse.Namespace) -> EnumerationLimits | None:
    max_cosets = getattr(args, "max_cosets", None)
    if max_cosets is None:
        return None
    try:
        return EnumerationLimits(max_cosets=max_cosets)
    except ValueError as exc:
        raise at(f"--max-cosets {max_cosets}", exc) from None


def _emit(args: argparse.Namespace, code: int, items: list[dict],
          text_lines: list[str], started: float) -> None:
    """Print the run's report: the one place a JSON status is decided."""
    if args.json:
        report = {
            "command": args.command,
            "items": items,
            "status": ("match" if code == EXIT_OK else
                       "mismatch" if code == EXIT_MISMATCH else "error"),
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def _surface_names(surfaces) -> str:
    return " ".join(str(s) for s in surfaces) if surfaces else "(none)"


def _case_items(report: CaseReport) -> list[dict]:
    items: list[dict] = []
    for outcome in sorted(report.outcomes,
                          key=lambda o: (o.pattern, o.sweep_index, o.conjugator)):
        surface = SurfaceType(outcome.orientable, outcome.genus, outcome.boundary)
        item = {
            "id": report.case_id,
            "pattern": (f"{outcome.conjugator}:{outcome.pattern}"
                        if outcome.conjugator else outcome.pattern),
            "orientable": outcome.orientable,
            "genus": outcome.genus,
            "boundary": outcome.boundary,
            "surface": str(surface),
            "status": "match" if surface in report.expected_surfaces else "mismatch",
        }
        items.append(item)
    items.append(_summary_item(report.case_id, report))
    return items


def _summary_item(label: str, report: CaseReport) -> dict:
    """A case's summary: the last item of case, one item of reproduce-all."""
    item = {"id": label, "surface": _surface_names(report.computed_surfaces),
            "status": report.status}
    if report.computed_order is not None:
        item["order"] = report.computed_order
    return item


def _case_text(report: CaseReport) -> list[str]:
    lines = [f"case {report.case_id}: {report.status}"]
    if report.computed_order is not None:
        expected = f" (expected {report.expected_order})" if report.expected_order else ""
        lines.append(f"  order: {report.computed_order}{expected}")
    if report.kind == "dashed":
        lines.append(f"  conjugators: {report.admissible} admissible, "
                     f"{len(report.outcomes)} patterns evaluated")
    else:
        for outcome in report.outcomes:
            orient = "orientable" if outcome.orientable else "non-orientable"
            lines.append(f"  {outcome.pattern}: b={outcome.boundary} {orient} "
                         f"genus={outcome.genus}")
    lines.append(f"  surfaces: {_surface_names(report.computed_surfaces)} "
                 f"(expected {_surface_names(report.expected_surfaces)})")
    for note in report.detail:
        lines.append(f"  note: {note}")
    return lines


# A handler's result: exit code, JSON items and text lines, which main emits.
_Result = tuple[int, list[dict], list[str]]


def _cmd_order(args: argparse.Namespace) -> _Result:
    pres, _ = read_file(args.file, load_presentation_with_aliases)
    order = group_order(pres, _limits(args))
    items = [{"id": Path(args.file).stem, "order": order, "status": "match"}]
    return EXIT_OK, items, [f"order: {order}"]


def _cmd_index(args: argparse.Namespace) -> _Result:
    pres, aliases = read_file(args.file, load_presentation_with_aliases)
    words = []
    for item in filter(None, map(str.strip, args.subgroup.split(","))):
        try:
            words.append(parse_word(item, pres.generator_names, aliases))
        except (OrbisymError, ValueError) as exc:
            raise at(f"--subgroup item {item!r}", exc) from None
    table = enumerate_cosets(pres, words, _limits(args))
    if args.dump_table:
        try:
            Path(args.dump_table).write_text(table_to_tsv(table))
        except OSError as exc:
            raise OrbisymError(f"--dump-table {args.dump_table}: cannot write: {exc}") from None
    items = [{"id": Path(args.file).stem, "index": table.n_cosets, "status": "match"}]
    return EXIT_OK, items, [f"index: {table.n_cosets}"]


def _cmd_hom2(args: argparse.Namespace) -> _Result:
    pres, aliases = read_file(args.file, load_presentation_with_aliases)
    constraints = [parse_constraint(item, pres.generator_names, aliases, "--map")
                   for item in args.map]
    result = solve_hom_to_z2(pres, constraints)
    if result.solvable:
        assert result.assignment is not None
        witness = " ".join(f"h({name})={bit}" for name, bit
                           in zip(pres.generator_names, result.assignment))
        text = [f"solvable: {witness}"]
    else:
        text = ["unsolvable"]
    items = [{"id": Path(args.file).stem, "solvable": result.solvable,
              "status": "match"}]
    if result.assignment is not None:
        items[0]["witness"] = list(result.assignment)
    return EXIT_OK, items, text


def _cmd_case(args: argparse.Namespace) -> _Result:
    report = run_case(args.id, n=args.n, limits=_limits(args), early_stop=args.early_stop)
    return (EXIT_OK if report.matched else EXIT_MISMATCH,
            _case_items(report), _case_text(report))


def _cmd_verify_table(args: argparse.Namespace) -> _Result:
    results = verify_table()
    failures = [r for r in results if not r.passed]
    items = [{"id": r.name, "status": "match" if r.passed else "mismatch"}
             for r in results]
    text = [f"check {r.name}: FAILED {r.detail}" for r in failures]
    text.append(f"verify-table: {len(results)} checks, "
                f"{len(failures)} failed" if failures else
                f"verify-table: {len(results)} checks, all passed")
    return EXIT_MISMATCH if failures else EXIT_OK, items, text


def _reproduce_case_ids() -> list[tuple[str, int | None]]:
    """Every built-in case, each family once per n in FAMILY_SWEEP."""
    return [(entry.id, n) for entry in builtin_cases()
            for n in (FAMILY_SWEEP if entry.kind == "family" else (None,))]


def _cmd_reproduce_all(args: argparse.Namespace) -> _Result:
    items = []
    text = []
    all_match = True
    for case_id, n in _reproduce_case_ids():
        report = run_case(case_id, n=n, limits=_limits(args))
        label = case_id if n is None else f"{case_id} n={n}"
        all_match = all_match and report.matched
        items.append(_summary_item(label, report))
        text.append(f"{label}: {report.status} (order {report.computed_order}; "
                    f"surfaces {_surface_names(report.computed_surfaces)})")
        for note in report.detail:
            text.append(f"  note: {note}")
    text.append(f"overall: {'match' if all_match else 'mismatch'} ({len(items)} cases)")
    return EXIT_OK if all_match else EXIT_MISMATCH, items, text


_HANDLERS = {
    "order": _cmd_order,
    "index": _cmd_index,
    "hom2": _cmd_hom2,
    "case": _cmd_case,
    "verify-table": _cmd_verify_table,
    "reproduce-all": _cmd_reproduce_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, items, text_lines = _HANDLERS[args.command](args)
    except (OrbisymError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_LIMIT if isinstance(exc, LimitExceeded) else EXIT_INPUT
        items, text_lines = [], []
    _emit(args, code, items, text_lines, started)
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
