"""The classification table and the runnable case catalog.

``builtin_table`` returns every row of the classification of maximally
symmetric bordered surfaces in the 3-sphere by algebraic genus: 21
fixed rows, the perfect-square family, and the generic remainder.
``verify_table`` recomputes each row's arithmetic (surface invariants
against the row's algebraic genus, maximal order against the formula
class) and reports one check result per fact.
The surfaces of the square and generic rows are the closed forms in
``surface``; the families in ``scenario`` use them too.

``builtin_cases`` returns the four rows that come with printed
presentations and are therefore runnable end to end: the order-120
orbifold in both singular-set variants, and the two parametric
families.  The orbifold cases are human-readable case files in data/,
their only built-in copy; ``alpha-29`` is built from its table row.  An
optional directory of ``*.case`` files overrides any case by id; it is
ORBISYM_CATALOG, or ./catalog when that is unset or empty.  A file there
that does not parse fails only the lookup of the id its last ``case:``
line names; one that cannot be read declares no id.  Case files follow
the presentation file's line rule, and ``_key_values`` reads the key=value
items of a scenario line and the clauses of a pattern line.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .coset import EnumerationLimits, enumerate_cosets
from .errors import (
    InvalidParameter,
    OrbisymError,
    UnknownCase,
    WordSyntaxError,
    at,
)
from .presentation import Directive, directives, presentation_from, read_file
from .scenario import (
    AlwaysOrientable,
    BoundaryPattern,
    DashedArcScenario,
    EdgeScenario,
    FAMILIES,
    FAMILY_15E,
    FAMILY_19,
    PatternOutcome,
    Z2HomRule,
    closed_form_mismatches,
    evaluate_dashed_arc_scenario,
    evaluate_edge_scenario,
    family_scenario,
)
from .surface import (
    EXCEPTIONAL_ALPHA_CLASSES,
    GENERIC_LABEL,
    SQUARE_RULE_EXCLUDED_ROOTS,
    SQUARE_RULE_LABEL,
    SurfaceType,
    algebraic_genus,
    m_alpha,
    remaining_family_surfaces,
    square_family_surface,
    surface_from_str,
)
from .words import Word, parse_integer, parse_word
from .z2hom import Z2Constraint, parse_constraint

__all__ = [
    "TableRow",
    "builtin_table",
    "is_remaining_alpha",
    "CheckResult",
    "verify_table",
    "SQUARE_CHECK_ROOTS",
    "REMAINING_CHECK_RANGE",
    "CatalogEntry",
    "CaseReport",
    "parse_case_text",
    "catalog_search_dir",
    "builtin_cases",
    "find_case",
    "run_case",
    "CATALOG_ENV_VAR",
]

CATALOG_ENV_VAR = "ORBISYM_CATALOG"
DEFAULT_CATALOG_DIR = "catalog"

# Parametric ranges exercised by verify_table.
SQUARE_CHECK_ROOTS = range(2, 51)
REMAINING_CHECK_RANGE = range(2, 501)


@dataclass(frozen=True)
class TableRow:
    """One classification row: a fixed algebraic genus or a family."""

    kind: str  # "fixed" | "square" | "remaining"
    alpha: int | None
    m_label: str
    m_value: int | None
    surfaces: tuple[SurfaceType, ...]
    descriptor: str = ""


def _s(genus: int, boundary: int) -> SurfaceType:
    return SurfaceType(True, genus, boundary)


def _n(genus: int, boundary: int) -> SurfaceType:
    return SurfaceType(False, genus, boundary)


_FIXED_ROWS: tuple[tuple[int, str, int, tuple[SurfaceType, ...]], ...] = (
    (2, "12(a-1)", 12, (_s(0, 3), _s(1, 1))),
    (3, "12(a-1)", 24, (_s(0, 4), _n(1, 3))),
    (4, "12(a-1)", 36, (_s(1, 3),)),
    (5, "12(a-1)", 48, (_s(0, 6), _s(1, 4))),
    (9, "12(a-1)", 96, (_s(2, 6), _s(3, 4))),
    (11, "12(a-1)", 120, (_s(0, 12), _n(6, 6))),
    (25, "12(a-1)", 288, (_s(7, 12), _s(10, 6))),
    (97, "12(a-1)", 1152, (_s(37, 24),)),
    (121, "12(a-1)", 1440, (_s(43, 36), _s(55, 12))),
    (241, "12(a-1)", 2880, (_s(73, 96), _s(97, 48), _n(206, 36))),
    (7, "8(a-1)", 48, (_s(0, 8), _n(4, 4))),
    (49, "8(a-1)", 384, (_s(17, 16), _s(21, 8))),
    (16, "20(a-1)/3", 100, (_s(6, 5),)),
    (19, "20(a-1)/3", 120, (_s(0, 20), _n(14, 6))),
    (361, "20(a-1)/3", 2400, (_s(131, 100), _s(151, 60), _s(171, 20))),
    (21, "6(a-1)", 120, (_s(5, 12),)),
    (481, "6(a-1)", 2880, (_s(205, 72), _s(193, 96))),
    (41, "24(a-1)/5", 192, (_n(30, 12),)),
    (1681, "30(a-1)/7", 7200, (_n(1562, 120),)),
    (841, "4(sqrt(a)+1)^2", 3600, (_s(391, 60), _s(406, 30))),
    (29, "4(a+1)", 120, (_s(0, 30), _s(9, 12), _s(14, 2))),
)


def builtin_table() -> tuple[TableRow, ...]:
    """Every classification row, fixed rows first, then the two families."""
    rows = [TableRow("fixed", alpha, label, value, surfaces)
            for alpha, label, value, surfaces in _FIXED_ROWS]
    rows.append(TableRow("square", None, SQUARE_RULE_LABEL, None, (),
                         descriptor="a = k^2, k not in "
                                    f"{sorted(SQUARE_RULE_EXCLUDED_ROOTS)}"))
    rows.append(TableRow("remaining", None, GENERIC_LABEL, None, (),
                         descriptor="every other a >= 2"))
    return tuple(rows)


def is_remaining_alpha(alpha: int) -> bool:
    """True when no exceptional class or square family covers alpha."""
    for _, _, _, members in EXCEPTIONAL_ALPHA_CLASSES:
        if alpha in members:
            return False
    root = math.isqrt(alpha)
    if root * root == alpha and root not in SQUARE_RULE_EXCLUDED_ROOTS:
        return False
    return True


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _row_checks(alpha: int, surfaces: tuple[SurfaceType, ...],
                m_label: str | None, m_value: int | None) -> list[CheckResult]:
    """Each surface sits at alpha, and m_alpha gives the row's label and value."""
    checks = [CheckResult(f"a={alpha}:surface {s}", algebraic_genus(s) == alpha,
                          f"surface {s} has algebraic genus {algebraic_genus(s)}, "
                          f"row says {alpha}")
              for s in surfaces]
    computed = m_alpha(alpha)
    checks.append(CheckResult(f"a={alpha}:m-formula",
                              (computed.label, computed.value) == (m_label, m_value),
                              f"m_alpha gives {computed.label}={computed.value}, "
                              f"row says {m_label}={m_value}"))
    return checks


def verify_table(rows: tuple[TableRow, ...] | None = None) -> tuple[CheckResult, ...]:
    """Recompute every arithmetic fact the table asserts.

    Returns one CheckResult per fact; rows can be substituted to prove
    the checks actually bite.
    """
    if rows is None:
        rows = builtin_table()
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        results.append(CheckResult(name, passed, detail))

    classes_seen: dict[int, str] = {}
    for label, _, _, members in EXCEPTIONAL_ALPHA_CLASSES:
        for alpha in members:
            if alpha in classes_seen:
                check("exceptional-classes-disjoint", False,
                      f"a={alpha} in both {classes_seen[alpha]} and {label}")
            classes_seen[alpha] = label
    check("exceptional-classes-disjoint", len(classes_seen) ==
          sum(len(m) for _, _, _, m in EXCEPTIONAL_ALPHA_CLASSES))

    for row in rows:
        if row.kind == "fixed":
            assert row.alpha is not None
            results.extend(_row_checks(row.alpha, row.surfaces, row.m_label, row.m_value))
        elif row.kind == "square":
            for k in SQUARE_CHECK_ROOTS:
                if k in SQUARE_RULE_EXCLUDED_ROOTS:
                    continue
                alpha = k * k
                surface = square_family_surface(k)
                check(f"square k={k}:surface {surface}",
                      algebraic_genus(surface) == alpha,
                      f"algebraic genus {algebraic_genus(surface)}")
                check(f"square k={k}:m-formula",
                      m_alpha(alpha).value == 4 * (k + 1) ** 2,
                      f"m_alpha gives {m_alpha(alpha).value}")
        elif row.kind == "remaining":
            for alpha in REMAINING_CHECK_RANGE:
                if not is_remaining_alpha(alpha):
                    continue
                computed = m_alpha(alpha)
                check(f"remaining a={alpha}:m-formula",
                      (computed.label, computed.value) == (GENERIC_LABEL, 4 * (alpha + 1)),
                      f"m_alpha gives {computed.label}={computed.value}")
                bad = [s for s in remaining_family_surfaces(alpha)
                       if algebraic_genus(s) != alpha]
                check(f"remaining a={alpha}:surfaces", not bad,
                      f"inconsistent: {', '.join(map(str, bad))}")
        else:
            check(f"row kind {row.kind!r}", False, "unknown row kind")
    return tuple(results)


@dataclass(frozen=True)
class CatalogEntry:
    """A runnable or arithmetic-only catalog case."""

    id: str
    kind: str  # "edge" | "dashed" | "family" | "arithmetic"
    scenario: EdgeScenario | DashedArcScenario | None = None
    expected_order: int | None = None
    expected_surfaces: tuple[SurfaceType, ...] = ()
    alpha: int | None = None
    m_label: str | None = None
    m_value: int | None = None


# Commas and whitespace separate surface labels, except the comma inside
# a label's braces.
_SURFACE_SEP_RE = re.compile(r"[\s,]+(?![^{]*\})")
_EXPECT_RE = re.compile(r"expect\s+order=([0-9]+)\s+surfaces=(.+)$")
_PATTERN_RE = re.compile(r"pattern\s+([A-Za-z0-9_]+)\s*:\s*(.+)$")
# A hom(...) clause starts an item, anywhere on a scenario line.
_HOM_START_RE = re.compile(r"(?<!\S)hom\(")
# The directives each kind of case reads, None for a presentation line;
# only case: and pattern may repeat.
_KIND_READS = {
    "arithmetic": ("an arithmetic case", {"arithmetic_only:", "alpha:", "m:", "surfaces:"}),
    "edge": ("an edge case", {None, "arithmetic_only:", "scenario", "pattern", "expect"}),
    "dashed": ("a dashed case", {None, "arithmetic_only:", "scenario", "expect"}),
}
# A line whose keyword is none of these is a presentation line.
_DIRECTIVES = {"case:"}.union(*(reads for _, reads in _KIND_READS.values())) - {None}


def _parse_constraints(text: str, names: tuple[str, ...], aliases: dict[str, Word]) -> tuple[Z2Constraint, ...]:
    """The comma-separated WORD=BIT items of a hom(...) clause."""
    return tuple(parse_constraint(item.strip(), names, aliases, "hom(...)")
                 for item in text.split(","))


def _cut_hom_clause(body: str, what: str) -> tuple[str, str]:
    """(items, rest): the text inside body's one hom(...) clause, and body
    with the clause cut out; what names body in the error for a second
    clause.  The clause ends at the parenthesis that closes it, since a
    word's parentheses nest."""
    start = _HOM_START_RE.search(body)
    if not start:
        raise WordSyntaxError("dashed scenario needs a hom(...) clause")
    depth = 0
    for end in range(start.end() - 1, len(body)):
        depth += (body[end] == "(") - (body[end] == ")")
        if not depth:
            break
    else:
        raise WordSyntaxError("hom(...) clause has no closing parenthesis")
    rest = f"{body[:start.start()]} {body[end + 1:]}"
    if _HOM_START_RE.search(rest):
        raise WordSyntaxError(f"{what} gives hom(...) twice")
    return body[start.end():end], rest


def _key_values(items: list[str], keys: tuple[str, ...], what: str) -> dict[str, str]:
    """The key=value items of what by key: each of keys once, and no other."""
    fields: dict[str, str] = {}
    for item in items:
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep:
            raise WordSyntaxError(f"{what} item {item.strip()!r} needs key=value")
        if key in fields:
            raise WordSyntaxError(f"{what} gives {key}= twice")
        fields[key] = value
    missing = [f"{key}=" for key in keys if key not in fields]
    if missing:
        raise WordSyntaxError(f"{what} needs {' and '.join(missing)}")
    unknown = next((key for key in fields if key not in keys), None)
    if unknown is not None:
        raise WordSyntaxError(f"{what} takes no {unknown}=")
    return fields


def _parse_surfaces(text: str) -> tuple[SurfaceType, ...]:
    return tuple(map(surface_from_str, filter(None, _SURFACE_SEP_RE.split(text))))


def _declared_id(path: Path) -> str | None:
    """The id of the last 'case:' line of the file at path, bad bytes
    replaced; None when it cannot be read."""
    try:
        text = path.read_bytes().decode(errors="replace")
    except OSError:
        return None
    return {keyword: rest for _, _, keyword, rest in directives(text)}.get("case:")


def parse_case_text(text: str) -> CatalogEntry:
    """Parse one .case file; malformed lines raise an OrbisymError that
    names the line."""
    arithmetic = False
    alpha: int | None = None
    m_label: str | None = None
    m_value: int | None = None
    surfaces: tuple[SurfaceType, ...] = ()
    expected_order: int | None = None
    scenario_kind: str | None = None
    scenario_alpha: int | None = None
    dashed_spec: dict[str, str] | None = None
    pattern_lines: list[tuple[int, str]] = []
    pres_lines: list[Directive] = []
    case_id: str | None = None
    # directive -> (lineno, line) of its first line
    seen: dict[str | None, tuple[int, str]] = {}

    for lineno, line, keyword, rest in directives(text):
        directive = keyword if keyword in _DIRECTIVES else None
        if directive == "case:":
            case_id = rest
            continue
        try:
            if directive in seen and directive not in (None, "pattern"):
                raise WordSyntaxError(f"a second {directive} line, after line {seen[directive][0]}")
            seen.setdefault(directive, (lineno, line))
            if directive == "arithmetic_only:":
                value = rest.lower()
                if value not in ("true", "false"):
                    raise WordSyntaxError(f"arithmetic_only: must be true or false, got {value!r}")
                arithmetic = value == "true"
            elif directive == "alpha:":
                alpha = parse_integer(rest)
            elif directive == "m:":
                label, _, value = rest.rpartition("=")
                m_label, m_value = label.strip(), parse_integer(value)
            elif directive == "surfaces:":
                surfaces = _parse_surfaces(rest)
            elif directive == "expect":
                m = _EXPECT_RE.match(line)
                if not m:
                    raise WordSyntaxError(f"bad expect line: {line!r}")
                expected_order = parse_integer(m.group(1))
                surfaces = _parse_surfaces(m.group(2))
            elif directive == "scenario":
                parts = line.split(None, 2)
                if len(parts) < 3:
                    raise WordSyntaxError(f"bad scenario line: {line!r}")
                scenario_kind, body = parts[1], parts[2]
                if scenario_kind == "edge":
                    if "hom(" in body:
                        raise WordSyntaxError("an edge scenario takes no hom(...) clause")
                    kv = _key_values(body.split(), ("alpha",), "scenario line")
                elif scenario_kind == "dashed":
                    hom, rest = _cut_hom_clause(body, "scenario line")
                    kv = _key_values(rest.split(), ("alpha", "fixed", "arc"), "scenario line")
                    kv["hom"] = hom
                    dashed_spec = kv
                else:
                    raise WordSyntaxError(f"unknown scenario kind {scenario_kind!r}")
                scenario_alpha = parse_integer(kv["alpha"])
            elif directive == "pattern":
                pattern_lines.append((lineno, line))
            else:
                pres_lines.append((lineno, line, keyword, rest))
        except (OrbisymError, ValueError) as exc:
            raise at(f"line {lineno}", exc) from None

    if case_id is None:
        raise WordSyntaxError("case file needs a 'case:' line")
    kind = "arithmetic" if arithmetic else scenario_kind
    if kind in _KIND_READS:
        # A line its kind does not read is a typo or belongs to another
        # kind; an arithmetic case has no presentation.
        name, reads = _KIND_READS[kind]
        stray = min((first for d, first in seen.items() if d not in reads), default=None)
        if stray is not None:
            raise at(f"line {stray[0]}", WordSyntaxError(f"not a line of {name}: {stray[1]!r}"))
    if arithmetic:
        if alpha is None or m_label is None or m_value is None or not surfaces:
            raise WordSyntaxError("arithmetic case needs alpha:, m:, and surfaces: lines")
        return CatalogEntry(id=case_id, kind="arithmetic", alpha=alpha,
                            m_label=m_label, m_value=m_value,
                            expected_surfaces=surfaces)

    pres, aliases = presentation_from(pres_lines)
    names = pres.generator_names
    if scenario_kind == "edge":
        patterns = []
        for lineno, line in pattern_lines:
            try:
                patterns.append(_parse_pattern(line, names, aliases))
            except (OrbisymError, ValueError) as exc:
                raise at(f"line {lineno}", exc) from None
        if scenario_alpha is None or not patterns:
            raise WordSyntaxError("edge case needs a scenario line and pattern lines")
        scenario = EdgeScenario(pres, scenario_alpha, tuple(patterns))
        return CatalogEntry(id=case_id, kind="edge", scenario=scenario,
                            expected_order=expected_order, expected_surfaces=surfaces)
    if scenario_kind == "dashed":
        assert dashed_spec is not None and scenario_alpha is not None
        try:
            scenario = DashedArcScenario(
                pres, scenario_alpha,
                fixed_word=parse_word(dashed_spec["fixed"], names, aliases),
                arc_word=parse_word(dashed_spec["arc"], names, aliases),
                hom_constraints=_parse_constraints(dashed_spec["hom"], names, aliases))
        except (OrbisymError, ValueError) as exc:
            raise at(f"line {seen['scenario'][0]}", exc) from None
        return CatalogEntry(id=case_id, kind="dashed", scenario=scenario,
                            expected_order=expected_order, expected_surfaces=surfaces)
    raise WordSyntaxError("case file needs a scenario line or arithmetic_only: true")


def _parse_pattern(line: str, names: tuple[str, ...],
                   aliases: dict[str, Word]) -> BoundaryPattern:
    m = _PATTERN_RE.match(line)
    if not m:
        raise WordSyntaxError(f"bad pattern line: {line!r}")
    name, body = m.group(1), m.group(2)
    clauses = _key_values(body.split(";"), ("subgroup", "orient"), f"pattern {name!r}")
    words = tuple(parse_word(w.strip(), names, aliases)
                  for w in clauses["subgroup"].split(","))
    orient_text = clauses["orient"]
    rule: AlwaysOrientable | Z2HomRule
    if orient_text == "always":
        rule = AlwaysOrientable()
    else:
        if not orient_text.startswith("hom("):
            raise WordSyntaxError(f"bad orient clause {orient_text!r}")
        items, rest = _cut_hom_clause(orient_text, f"pattern {name!r}")
        if rest.strip():
            raise WordSyntaxError(f"bad orient clause {orient_text!r}")
        rule = Z2HomRule(_parse_constraints(items, names, aliases))
    return BoundaryPattern(name, words, rule)


# path -> ((mtime_ns, size), read): one entry per path, so a directory of
# any size is read once and a rewritten file replaces only its own entry
_reads: dict[Path, tuple[tuple[int, int], tuple[str | None, CatalogEntry | OrbisymError]]] = {}


def _read_case(path: Path, mtime_ns: int,
               size: int) -> tuple[str | None, CatalogEntry | OrbisymError]:
    """A case file's declared id, and its entry or the error reading or
    parsing it gave; read once while its mtime and size stay the same."""
    cached = _reads.get(path)
    if cached is not None and cached[0] == (mtime_ns, size):
        return cached[1]
    try:
        entry = read_file(path, parse_case_text)
        read = entry.id, entry
    except OrbisymError as exc:
        read = _declared_id(path), exc
    _reads[path] = (mtime_ns, size), read
    return read


def _entry(read: CatalogEntry | OrbisymError) -> CatalogEntry:
    """The entry of a read, or a fresh copy of its error raised."""
    if isinstance(read, OrbisymError):
        raise type(read)(*read.args) from None
    return read


@functools.cache
def _builtin_entries() -> dict[str, CatalogEntry]:
    """All compiled-in entries by id; the files in data/ are read once per
    process and keyed without a stat, since package data is read-only."""
    by_id = {}
    data = resources.files("orbisym").joinpath("data")
    for path in sorted(data.iterdir(), key=lambda e: e.name):
        if path.name.endswith(".case"):
            entry = _entry(_read_case(path, 0, 0)[1])
            by_id[entry.id] = entry
    # Algebraic genus 29 carries one surface beyond the generic pair; no
    # presentation is published for it, so its row is checked by arithmetic:
    # each surface must sit at a = 29, and m must come from 4(a+1).
    _, m_label, m_value, surfaces = next(row for row in _FIXED_ROWS if row[0] == 29)
    by_id["alpha-29"] = CatalogEntry("alpha-29", "arithmetic", alpha=29, m_label=m_label,
                                     m_value=m_value, expected_surfaces=surfaces)
    for family in (FAMILY_15E, FAMILY_19):
        by_id[family] = CatalogEntry(id=family, kind="family")
    return by_id


def builtin_cases() -> tuple[CatalogEntry, ...]:
    """The four runnable cases, compiled-in copies, in reproduce-all's order."""
    by_id = _builtin_entries()
    return (by_id["orbifold-28-edge"], by_id["orbifold-28-dashed"],
            by_id["15E"], by_id["19"])


def catalog_search_dir() -> Path:
    """Directory searched for *.case overrides; an empty setting is unset."""
    return Path(os.environ.get(CATALOG_ENV_VAR) or DEFAULT_CATALOG_DIR)


def find_case(case_id: str) -> CatalogEntry:
    """File entries in catalog_search_dir() override compiled-in entries by
    id; UnknownCase otherwise.

    A file that fails raises its error only when its last 'case:' line names
    case_id.
    """
    entries = dict(_builtin_entries())
    directory = catalog_search_dir()
    for path in sorted(directory.glob("*.case")) if directory.is_dir() else ():
        try:
            stat = path.stat()
        except OSError:  # a dangling link declares no id
            continue
        declared, read = _read_case(path, stat.st_mtime_ns, stat.st_size)
        if isinstance(read, CatalogEntry):
            entries[read.id] = read
        elif declared == case_id:
            _entry(read)  # raises the file's error
    if case_id not in entries:
        raise UnknownCase(f"no case {case_id!r}; known: {', '.join(sorted(entries))}")
    return entries[case_id]


@dataclass(frozen=True)
class CaseReport:
    """Outcome of run_case: expectations next to computed values."""

    case_id: str
    kind: str  # CatalogEntry.kind
    expected_order: int | None
    computed_order: int | None
    expected_surfaces: tuple[SurfaceType, ...]
    computed_surfaces: tuple[SurfaceType, ...]
    outcomes: tuple[PatternOutcome, ...]
    detail: tuple[str, ...]
    admissible: int = 0  # ScenarioResult.admissible of a dashed-arc sweep

    @property
    def status(self) -> str:
        """The verdict: mismatch exactly when a detail was recorded."""
        return "mismatch" if self.detail else "match"

    @property
    def matched(self) -> bool:
        return not self.detail


def _sorted_surfaces(surfaces) -> tuple[SurfaceType, ...]:
    return tuple(sorted(surfaces, key=lambda s: (not s.orientable, s.genus, s.boundary)))


def run_case(case_id: str, n: int | None = None,
             limits: EnumerationLimits | None = None,
             threads: int = 1, early_stop: bool = False) -> CaseReport:
    """Run a catalog case and compare against its expectations; each
    mismatch is one line of the report's detail.  threads has no effect:
    it is accepted only for existing callers."""
    entry = find_case(case_id)

    if entry.kind == "arithmetic":
        assert entry.alpha is not None
        detail = [c.detail for c in _row_checks(entry.alpha, entry.expected_surfaces,
                                                entry.m_label, entry.m_value)
                  if not c.passed]
        return CaseReport(case_id=entry.id, kind=entry.kind,
                          expected_order=None, computed_order=None,
                          expected_surfaces=_sorted_surfaces(entry.expected_surfaces),
                          computed_surfaces=(), outcomes=(), detail=tuple(detail))

    if entry.kind == "family":
        if n is None:
            raise InvalidParameter(f"case {entry.id!r} needs a family parameter n")
        scenario = family_scenario(entry.id, n)
        family = FAMILIES[entry.id]
        expected_order, expected_surfaces = family.order(n), family.surfaces(n)
    else:
        assert entry.scenario is not None
        scenario = entry.scenario
        expected_order, expected_surfaces = entry.expected_order, entry.expected_surfaces

    # One enumeration per case: the regular table gives the order, and every
    # index is read off it.
    regular = enumerate_cosets(scenario.presentation, (), limits)
    if entry.kind == "dashed":
        result = evaluate_dashed_arc_scenario(scenario, regular, early_stop)
    else:
        result = evaluate_edge_scenario(scenario, regular)
    detail = (closed_form_mismatches(entry.id, n, result.per_pattern)
              if entry.kind == "family" else [])
    computed, computed_order = result.surfaces, regular.n_cosets

    if expected_order is not None and computed_order != expected_order:
        detail.append(f"order {computed_order}, expected {expected_order}")
    if computed != set(expected_surfaces):
        detail.append(f"surfaces {sorted(map(str, computed))}, "
                      f"expected {sorted(map(str, expected_surfaces))}")
    return CaseReport(case_id=entry.id, kind=entry.kind,
                      expected_order=expected_order, computed_order=computed_order,
                      expected_surfaces=_sorted_surfaces(expected_surfaces),
                      computed_surfaces=_sorted_surfaces(computed),
                      outcomes=result.per_pattern, detail=tuple(detail),
                      admissible=result.admissible)
