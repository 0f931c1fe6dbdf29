"""Classification table, case files, and case execution."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbisym import (
    CatalogEntry,
    EnumerationLimits,
    InvalidParameter,
    LimitExceeded,
    MismatchError,
    OrbisymError,
    SurfaceType,
    TableRow,
    UnknownCase,
    WordSyntaxError,
    builtin_cases,
    builtin_table,
    find_case,
    group_order,
    run_case,
    verify_table,
)
from orbisym import catalog
from orbisym.catalog import is_remaining_alpha, parse_case_text
from orbisym.presentation import load_presentation_with_aliases
from orbisym.cli import main
from orbisym.scenario import FAMILY_19, evaluate_family
import orbisym.scenario as scenario_module
from orbisym.surface import remaining_family_surfaces, square_family_surface
from conftest import ARITHMETIC_CASE, DASHED_CASE, EDGE_CASE

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def catalog_dir(tmp_path, monkeypatch):
    """tmp_path, made the override directory through ORBISYM_CATALOG."""
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    return tmp_path


def S(g, b):
    return SurfaceType(orientable=True, genus=g, boundary=b)


def N(g, b):
    return SurfaceType(orientable=False, genus=g, boundary=b)


def test_builtin_table_shape():
    rows = builtin_table()
    assert len(rows) == 23
    assert [r.kind for r in rows].count("fixed") == 21
    assert rows[-2].kind == "square"
    assert rows[-1].kind == "remaining"
    by_alpha = {r.alpha: r for r in rows if r.kind == "fixed"}
    assert by_alpha[11].surfaces == (S(0, 12), N(6, 6))
    assert by_alpha[11].m_value == 120
    assert by_alpha[21].surfaces == (S(5, 12),)
    assert by_alpha[29].surfaces == (S(0, 30), S(9, 12), S(14, 2))
    assert by_alpha[1681].m_value == 7200
    assert by_alpha[841].m_label == "4(sqrt(a)+1)^2"


def test_verify_table_all_pass():
    results = verify_table()
    assert len(results) > 1000
    failures = [r for r in results if not r.passed]
    assert failures == []


def test_verify_table_catches_corrupted_surfaces():
    # S_{1,3} has algebraic genus 4, so filing it under a = 3 must trip
    bad_row = TableRow("fixed", 3, "12(a-1)", 24, (S(1, 3),))
    results = verify_table(rows=(bad_row,))
    failures = [r for r in results if not r.passed]
    assert len(failures) == 1
    assert "S_{1,3}" in failures[0].name


def test_verify_table_catches_corrupted_m_value():
    bad_row = TableRow("fixed", 3, "12(a-1)", 25, (S(0, 4), N(1, 3)))
    failures = [r for r in verify_table(rows=(bad_row,)) if not r.passed]
    assert len(failures) == 1
    assert "m-formula" in failures[0].name


def test_verify_table_unknown_kind():
    failures = [r for r in verify_table(rows=(TableRow("nope", None, "", None, ()),))
                if not r.passed]
    assert len(failures) == 1


def test_family_helpers():
    assert square_family_surface(6) == S(15, 7)
    assert remaining_family_surfaces(29) == (S(0, 30), S(14, 2))
    assert remaining_family_surfaces(30) == (S(0, 31), S(15, 1))
    assert is_remaining_alpha(29)
    assert is_remaining_alpha(43)
    assert not is_remaining_alpha(36)   # square
    assert not is_remaining_alpha(9)    # exceptional
    assert not is_remaining_alpha(1681)


def test_builtin_cases_order():
    cases = builtin_cases()
    assert [c.id for c in cases] == ["orbifold-28-edge", "orbifold-28-dashed", "15E", "19"]
    assert [c.kind for c in cases] == ["edge", "dashed", "family", "family"]
    edge = cases[0]
    assert edge.expected_order == 120
    assert set(edge.expected_surfaces) == {S(0, 12), N(6, 6)}
    dashed = cases[1]
    assert set(dashed.expected_surfaces) == {S(5, 12)}


def test_parse_arithmetic_case():
    entry = parse_case_text(ARITHMETIC_CASE)
    assert entry.kind == "arithmetic"
    assert entry.alpha == 29
    assert entry.m_label == "4(a+1)"
    assert entry.m_value == 120
    assert entry.expected_surfaces == (S(0, 30), S(9, 12), S(14, 2))


def test_parse_edge_case():
    entry = parse_case_text(EDGE_CASE)
    assert entry.kind == "edge"
    assert entry.expected_order == 6
    assert entry.scenario.alpha == 2
    assert len(entry.scenario.patterns) == 1


def test_parse_case_errors():
    with pytest.raises(WordSyntaxError):
        parse_case_text("generators: x\nrelators: x^2\n")
    with pytest.raises(WordSyntaxError):
        parse_case_text("case: a\narithmetic_only: true\nalpha: 3\n")
    with pytest.raises(WordSyntaxError):
        parse_case_text("case: a\ngenerators: x\nrelators: x^2\n"
                        "scenario warp alpha=2\n")
    with pytest.raises(WordSyntaxError):
        parse_case_text("case: a\ngenerators: x\nrelators: x^2\n"
                        "scenario edge alpha=2\n")
    with pytest.raises(WordSyntaxError):
        parse_case_text(EDGE_CASE.replace("expect order=6 surfaces=S_{1,1}",
                                          "expect order=six"))
    with pytest.raises(WordSyntaxError):
        parse_case_text(EDGE_CASE.replace(
            "pattern P1: subgroup = x, y ; orient = always",
            "pattern P1: subgroup = x, y"))
    # Every token of a surface list must be a whole surface label.
    for text, message in (
        (ARITHMETIC_CASE.replace("S_{9,12}", "S_{9.12}"),
         "line 5: not a surface label: 'S_{9.12}'"),
        (EDGE_CASE.replace("surfaces=S_{1,1}", "surfaces=S_{1,1},N_{6,6}x"),
         "line 6: not a surface label: 'N_{6,6}x'"),
        # g and b are ASCII integers
        (ARITHMETIC_CASE.replace("S_{9,12}", "S_{9,1_2}"),
         "line 5: not a surface label: 'S_{9,1_2}'"),
        (ARITHMETIC_CASE.replace("S_{9,12}", "S_{٩,12}"),
         "line 5: not a surface label: 'S_{٩,12}'"),
    ):
        with pytest.raises(WordSyntaxError) as exc:
            parse_case_text(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    (ARITHMETIC_CASE.replace("alpha: 29", "alpha: 2_9"), "line 3: not an integer: '2_9'"),
    (ARITHMETIC_CASE.replace("alpha: 29", "alpha: ٢٩"), "line 3: not an integer: '٢٩'"),
    (ARITHMETIC_CASE.replace("= 120", "= 1_20"), "line 4: not an integer: '1_20'"),
    (EDGE_CASE.replace("alpha=2", "alpha=0_2"), "line 4: not an integer: '0_2'"),
    (EDGE_CASE.replace("order=6", "order=٦"),
     "line 6: bad expect line: 'expect order=٦ surfaces=S_{1,1}'"),
], ids=["alpha-underscore", "alpha-arabic-indic", "m-underscore", "scenario-alpha-underscore",
        "expect-order-arabic-indic"])
def test_an_integer_in_a_case_file_is_ascii_digits(text, message):
    # int() would read '2_9' as 29, and \d matches any Unicode digit.
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == message


LONG = "7" * 5000


@pytest.mark.parametrize("text,lineno", [
    (ARITHMETIC_CASE.replace("alpha: 29", f"alpha: {LONG}"), 3),
    (ARITHMETIC_CASE.replace("= 120", f"= -{LONG}"), 4),
    (ARITHMETIC_CASE.replace("S_{9,12}", f"S_{{{LONG},12}}"), 5),
    (ARITHMETIC_CASE.replace("S_{9,12}", f"N_{{9,{LONG}}}"), 5),
    (EDGE_CASE.replace("alpha=2", f"alpha={LONG}"), 4),
    (EDGE_CASE.replace("order=6", f"order={LONG}"), 6),
    (EDGE_CASE.replace("S_{1,1}", f"S_{{1,{LONG}}}"), 6),
], ids=["alpha", "m", "surfaces-genus", "surfaces-boundary", "scenario-alpha",
        "expect-order", "expect-surface"])
def test_an_integer_in_a_case_file_has_at_most_18_digits(text, lineno):
    # the word parser's rule: int() refuses thousands of digits with a
    # hint at sys.set_int_max_str_digits, so they are never converted
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == f"line {lineno}: integer of 5000 digits is over the 18-digit limit"


def test_an_integer_of_18_digits_is_read():
    big = "9" * 18
    entry = parse_case_text(ARITHMETIC_CASE.replace("= 120", f"= {big}"))
    assert entry.m_value == int(big)
    with pytest.raises(WordSyntaxError, match="^line 4: integer of 19 digits is over"):
        parse_case_text(ARITHMETIC_CASE.replace("= 120", f"= 1{big}"))


@pytest.mark.parametrize("text,lineno,line", [
    (ARITHMETIC_CASE + "bogus line\n", 6, "bogus line"),
    (ARITHMETIC_CASE.replace("alpha: 29", "alpha_: 30"), 3, "alpha_: 30"),
    (ARITHMETIC_CASE.replace("case: little-row", "case: little-row\ngenerators: x"),
     2, "generators: x"),
    (ARITHMETIC_CASE + "pattern P1: subgroup = x ; orient = always\n", 6,
     "pattern P1: subgroup = x ; orient = always"),
    (ARITHMETIC_CASE + "scenario edge alpha=29\n", 6, "scenario edge alpha=29"),
    # an expect line would replace the surfaces: line
    (ARITHMETIC_CASE + "expect order=120 surfaces=S_{0,30}\n", 6,
     "expect order=120 surfaces=S_{0,30}"),
], ids=["stray-line", "misspelt-key", "presentation-line", "pattern-line", "scenario-line",
        "expect-line"])
def test_arithmetic_case_rejects_a_line_it_does_not_read(text, lineno, line):
    # An arithmetic case has no presentation, so a line the parser does
    # not know is a typo and must not be dropped.
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == f"line {lineno}: not a line of an arithmetic case: {line!r}"


@pytest.mark.parametrize("text,lineno,message", [
    (EDGE_CASE + "alpha: 2\n", 7, "not a line of an edge case: 'alpha: 2'"),
    (EDGE_CASE + "m: 4(a+1) = 12\n", 7, "not a line of an edge case: 'm: 4(a+1) = 12'"),
    # a surfaces: line after expect would replace the expected set
    (EDGE_CASE + "surfaces: S_{0,3}\n", 7, "not a line of an edge case: 'surfaces: S_{0,3}'"),
    # a dashed case would ignore its pattern lines
    (DASHED_CASE + "pattern P1: subgroup = x ; orient = always\n", 6,
     "not a line of a dashed case: 'pattern P1: subgroup = x ; orient = always'"),
    # the last scenario line would win
    (DASHED_CASE.replace("expect", "scenario dashed alpha=3 fixed=x arc=y hom(x=1)\nexpect"),
     5, "a second scenario line, after line 4"),
    (EDGE_CASE + "expect order=6 surfaces=S_{0,3}\n", 7, "a second expect line, after line 6"),
    # maybe would be read as false
    (ARITHMETIC_CASE.replace("true", "maybe"), 2,
     "arithmetic_only: must be true or false, got 'maybe'"),
], ids=["edge-alpha", "edge-m", "edge-surfaces", "dashed-pattern", "two-scenarios",
        "two-expects", "arithmetic-only-maybe"])
def test_a_case_rejects_a_line_of_another_kind_or_a_second_one(text, lineno, message):
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("text,missing", [
    (EDGE_CASE.replace("scenario edge alpha=2", "scenario edge beta=2"), "alpha="),
    (DASHED_CASE.replace(" alpha=2", ""), "alpha="),
    (DASHED_CASE.replace(" fixed=y", ""), "fixed="),
    (DASHED_CASE.replace(" arc=x", ""), "arc="),
])
def test_bad_case_file_names_file_and_line(catalog_dir, text, missing):
    parse_case_text(DASHED_CASE)  # intact, so only the edit breaks it
    path = catalog_dir / "broken.case"
    path.write_text(text)
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == f"line 4: scenario line needs {missing}"
    # A broken file in the search directory fails the lookup of the id
    # its case: line names, and the error says where it is; every other
    # id is still found.
    case_id = text.splitlines()[0].removeprefix("case: ")
    with pytest.raises(WordSyntaxError) as exc:
        find_case(case_id)
    assert str(exc.value).startswith(f"{path}: line 4: ")
    assert find_case("orbifold-28-edge").kind == "edge"


@pytest.mark.parametrize("text", [
    "generators: x\nrelators: x^2\n",
    "case: \n",
    ARITHMETIC_CASE + "bogus line\n",
], ids=["no-case-line", "empty-id", "other-id"])
def test_bad_case_file_blocks_no_other_id(catalog_dir, text):
    (catalog_dir / "stray.case").write_text(text)
    (catalog_dir / "alpha-29.case").write_text(
        ARITHMETIC_CASE.replace("case: little-row", "case: alpha-29"))
    assert find_case("orbifold-28-edge").kind == "edge"
    assert find_case("alpha-29").m_value == 120
    assert run_case("15E", n=3).matched
    with pytest.raises(UnknownCase):
        find_case("not-a-case")


@pytest.mark.parametrize("data,lineno,byte", [
    (b"case: x\n\xff\xfe\n", 2, "0xff"),
    (b"\xff\ncase: x\n", 1, "0xff"),
    (b"case: x\r\ngenerators: y\r\n\r\nrelators: y^2 \xe9\n", 4, "0xe9"),
])
def test_a_case_file_that_is_not_utf8_fails_only_its_own_id(catalog_dir, data, lineno, byte):
    path = catalog_dir / "bad.case"
    path.write_bytes(data)
    with pytest.raises(WordSyntaxError) as exc:
        find_case("x")
    assert str(exc.value) == f"{path}: line {lineno}: byte {byte} is not UTF-8"
    assert find_case("orbifold-28-edge").kind == "edge"
    assert run_case("15E", n=3).matched


def test_find_case_builtin_and_unknown():
    entry = find_case("orbifold-28-dashed")
    assert entry.kind == "dashed"
    with pytest.raises(UnknownCase) as exc:
        find_case("not-a-case")
    assert "orbifold-28-edge" in str(exc.value)
    assert "15E" in str(exc.value)


def test_an_empty_catalog_variable_is_unset(tmp_path, monkeypatch):
    # Path("") is the working directory; empty means the default ./catalog.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORBISYM_CATALOG", "")
    (tmp_path / "stray.case").write_text(EDGE_CASE.replace("case: tiny-edge",
                                                           "case: orbifold-28-edge")
                                         .replace("alpha=2", "alpha=two"))
    assert find_case("orbifold-28-edge").expected_order == 120
    (tmp_path / "catalog").mkdir()
    (tmp_path / "catalog" / "edge.case").write_text(EDGE_CASE)
    assert find_case("tiny-edge").expected_order == 6


def test_the_builtin_alpha_29_case_is_the_table_row():
    (row,) = [r for r in builtin_table() if r.alpha == 29]
    entry = catalog._builtin_entries()["alpha-29"]
    assert entry == CatalogEntry(id="alpha-29", kind="arithmetic", alpha=29,
                                 m_label=row.m_label, m_value=row.m_value,
                                 expected_surfaces=row.surfaces)
    assert entry.expected_surfaces == (S(0, 30), S(9, 12), S(14, 2))


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "bench" / "catalog").glob("*.case")),
                         ids=lambda path: path.name)
def test_a_bench_case_file_is_its_builtin_case(path):
    # The benchmark runs with its own pinned copies as overrides; each must
    # stand for the built-in case of its id, so read it and compare.
    entry = parse_case_text(path.read_text())
    assert entry == catalog._builtin_entries()[entry.id]


def test_find_case_file_overrides_builtin(catalog_dir, monkeypatch):
    text = ARITHMETIC_CASE.replace("case: little-row", "case: alpha-29")
    text = text.replace("m: 4(a+1) = 120", "m: 4(a+1) = 121")
    (catalog_dir / "override.case").write_text(text)
    entry = find_case("alpha-29")
    assert entry.m_value == 121
    monkeypatch.setenv("ORBISYM_CATALOG", str(catalog_dir / "missing"))
    builtin = find_case("alpha-29")
    assert builtin.m_value == 120


def test_case_files_are_parsed_once_until_rewritten(catalog_dir, monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_case_text(text)

    catalog._builtin_entries()  # the package data is parsed once per process
    monkeypatch.setattr(catalog, "parse_case_text", counting_parse)
    text = ARITHMETIC_CASE.replace("case: little-row", "case: alpha-29")
    path = catalog_dir / "override.case"
    path.write_text(text.replace("m: 4(a+1) = 120", "m: 4(a+1) = 121"))
    (catalog_dir / "edge.case").write_text(EDGE_CASE)
    for _ in range(5):
        assert find_case("alpha-29").m_value == 121
        assert run_case("orbifold-28-edge").matched
    assert len(calls) == 2
    # A rewritten file (new size, so a new key even within one mtime
    # tick) is parsed again on the next call.
    path.write_text(text.replace("m: 4(a+1) = 120", "m: 4(a+1) = 1210"))
    assert find_case("alpha-29").m_value == 1210
    assert len(calls) == 3
    # A broken rewrite is parsed once too, and fails every lookup of its
    # id; a repaired file (a new size again) is read again.
    path.write_text(text.replace("S_{9,12}", "S_{9.12}"))
    for _ in range(2):
        with pytest.raises(OrbisymError, match=rf"^{re.escape(str(path))}: line 5: "):
            find_case("alpha-29")
    assert len(calls) == 4
    path.write_text(text + "# repaired\n")
    assert find_case("alpha-29").m_value == 120
    assert len(calls) == 5


def test_a_large_case_directory_is_parsed_once(catalog_dir, monkeypatch):
    # find_case walks every override file in order on each call, so a
    # bounded cache smaller than the directory would evict each entry
    # before its reuse and parse every file on every lookup.
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_case_text(text)

    catalog._builtin_entries()
    monkeypatch.setattr(catalog, "parse_case_text", counting_parse)
    for k in range(70):
        (catalog_dir / f"row{k:02d}.case").write_text(
            ARITHMETIC_CASE.replace("case: little-row", f"case: row-{k}"))
    assert find_case("row-0").alpha == 29
    assert len(calls) == 70
    assert find_case("row-69").alpha == 29
    assert len(calls) == 70
    # a rewritten file (a new size) replaces its own entry and no other
    path = catalog_dir / "row33.case"
    path.write_text(path.read_text().replace("alpha: 29", "alpha: 29\n# rewritten"))
    for _ in range(2):
        assert find_case("row-33").alpha == 29
    assert len(calls) == 71


def test_an_unreadable_case_path_blocks_no_id(catalog_dir):
    # A dangling link and a directory named *.case cannot be read, so they
    # declare no id and every lookup goes on as without them.
    (catalog_dir / "dangling.case").symlink_to(catalog_dir / "missing.case")
    (catalog_dir / "dir.case").mkdir()
    assert find_case("orbifold-28-edge").kind == "edge"
    assert run_case("15E", n=3).matched
    for case_id in ("dangling", "dir", ""):
        with pytest.raises(UnknownCase):
            find_case(case_id)


def test_a_case_file_is_found_under_its_last_case_line(catalog_dir):
    path = catalog_dir / "two.case"
    text = ARITHMETIC_CASE.replace("case: little-row", "case: first\ncase: little-row")
    path.write_text(text)
    assert find_case("little-row").id == "little-row"
    with pytest.raises(UnknownCase):
        find_case("first")
    # Broken, it fails only the id of that last line.
    path.write_text(text + "bogus line\n")
    with pytest.raises(WordSyntaxError, match=rf"^{re.escape(str(path))}: line 7: "):
        find_case("little-row")
    with pytest.raises(UnknownCase):
        find_case("first")
    assert find_case("alpha-29").m_value == 120


@pytest.mark.parametrize("make,error", [
    (lambda path: path.write_text("case: bad\nrelators: x^2\n"), WordSyntaxError),
    (lambda path: path.mkdir(), OrbisymError),
], ids=["broken", "unreadable"])
def test_a_packaged_case_file_that_fails_raises_its_error(tmp_path, monkeypatch,
                                                          make, error):
    # Package data is not skipped like an override: its error is raised,
    # on every call, and names the file.
    path = tmp_path / "data" / "bad.case"
    path.parent.mkdir()
    make(path)
    monkeypatch.setattr(catalog, "resources", SimpleNamespace(files=lambda package: tmp_path))
    catalog._builtin_entries.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(error, match=re.escape(str(path))):
                find_case("orbifold-28-edge")
    finally:
        catalog._builtin_entries.cache_clear()


def test_run_edge_case():
    report = run_case("orbifold-28-edge")
    assert report.matched
    assert report.status == "match"
    assert report.computed_order == 120
    assert report.computed_surfaces == (S(0, 12), N(6, 6))
    assert len(report.outcomes) == 4


def test_run_arithmetic_case():
    report = run_case("alpha-29")
    assert report.matched
    assert report.computed_order is None
    assert report.outcomes == ()


def test_run_family_case():
    report = run_case("15E", n=7)
    assert report.matched
    assert report.computed_order == 14
    assert report.computed_surfaces == (S(0, 7), S(3, 1))
    report = run_case("19", n=4)
    assert report.matched
    assert report.computed_order == 16
    assert report.computed_surfaces == (S(3, 4),)


def test_run_family_case_reports_closed_form_mismatch(monkeypatch, capsys):
    # a wrong closed form must surface as a mismatch of the case, not an error
    spec = scenario_module.FAMILIES[FAMILY_19]

    def wrong(n):
        return tuple(SurfaceType(s.orientable, s.genus + 1, s.boundary)
                     for s in spec.surfaces(n))

    monkeypatch.setitem(scenario_module.FAMILIES, FAMILY_19, replace(spec, surfaces=wrong))
    with pytest.raises(MismatchError) as exc:
        evaluate_family(FAMILY_19, 4)
    report = run_case("19", n=4)
    assert report.status == "mismatch"
    assert str(exc.value) in report.detail
    assert report.computed_order == 16
    assert main(["case", "19", "--n", "4"]) == 1
    assert f"note: {exc.value}" in capsys.readouterr().out


def raises_limit(run):
    try:
        run()
    except LimitExceeded:
        return True
    return False


def limit_cases():
    for case_id in ("orbifold-28-edge", "orbifold-28-dashed"):
        pres = find_case(case_id).scenario.presentation
        for m in range(100, 261):
            yield case_id, None, pres, m
    for case_id in ("15E", "19"):
        for n in range(3, 13):
            pres = scenario_module.family_scenario(case_id, n).presentation
            for m in range(1, 3 * n * n + 1):
                yield case_id, n, pres, m


def test_run_case_hits_the_limit_exactly_when_group_order_does():
    # run_case enumerates only the regular table, so a cap that lets the
    # group order through lets the whole case through
    completed = overflowed = 0
    for case_id, n, pres, m in limit_cases():
        limits = EnumerationLimits(max_cosets=m)
        expected = raises_limit(lambda: group_order(pres, limits))
        assert raises_limit(lambda: run_case(case_id, n=n, limits=limits)) == expected, \
            (case_id, n, m)
        completed += not expected
        overflowed += expected
    assert completed and overflowed


def test_run_family_needs_n():
    with pytest.raises(InvalidParameter):
        run_case("15E")


def test_run_case_unknown():
    with pytest.raises(UnknownCase):
        run_case("missing-case")


def test_run_case_reports_mismatch(catalog_dir):
    # corrupt the expected order in a file override and watch it flagged
    base = (REPO_ROOT / "src/orbisym/data/orbifold-28-edge.case").read_text()
    (catalog_dir / "edge.case").write_text(base.replace("order=120", "order=121"))
    report = run_case("orbifold-28-edge")
    assert not report.matched
    assert report.status == "mismatch"
    assert report.computed_order == 120
    assert any("121" in d for d in report.detail)


def test_run_arithmetic_mismatch(catalog_dir):
    text = ARITHMETIC_CASE.replace("m: 4(a+1) = 120", "m: 4(a+1) = 124")
    (catalog_dir / "row.case").write_text(text)
    report = run_case("little-row")
    assert not report.matched
    assert any("124" in d for d in report.detail)


def test_builtin_entry_ids_match_case_ids():
    for entry in builtin_cases():
        assert isinstance(entry, CatalogEntry)
        assert find_case(entry.id).id == entry.id


def test_a_comment_ends_only_at_a_newline(catalog_dir):
    # U+0085 ends a line for str.splitlines, which read 'case: b' here.
    text = EDGE_CASE.replace("case: tiny-edge", "case: tiny-edge # was \x85case: b")
    assert parse_case_text(text) == parse_case_text(EDGE_CASE)
    (catalog_dir / "edge.case").write_bytes(text.encode())
    assert find_case("tiny-edge").id == "tiny-edge"
    with pytest.raises(UnknownCase):
        find_case("b")


@pytest.mark.parametrize("text,message", [
    (EDGE_CASE.replace("alpha=2", "alpha=2 beta=7"), "line 4: scenario line takes no beta="),
    (DASHED_CASE.replace("arc=x", "arc=x fixd=x arc=y"), "line 4: scenario line gives arc= twice"),
    # a missing key is named before an unknown one
    (DASHED_CASE.replace("arc=x", "arcs=x"), "line 4: scenario line needs arc="),
    (EDGE_CASE.replace("orient = always", "orient = always ; subgroup = x"),
     "line 5: pattern 'P1' gives subgroup= twice"),
    (EDGE_CASE.replace("orient = always", "orient = always ; colour = red"),
     "line 5: pattern 'P1' takes no colour="),
    (EDGE_CASE.replace("orient = always", "orient = always ; never"),
     "line 5: pattern 'P1' item 'never' needs key=value"),
    (EDGE_CASE.replace("subgroup = x, y ; orient = always", "subgroup = x, y"),
     "line 5: pattern 'P1' needs orient="),
    (EDGE_CASE.replace("alpha=2", "alpha=2 hom(x=1)"),
     "line 4: an edge scenario takes no hom(...) clause"),
    (EDGE_CASE.replace("orient = always", "orient = hom(x=1) hom(y=1)"),
     "line 5: pattern 'P1' gives hom(...) twice"),
    (EDGE_CASE.replace("orient = always", "orient = hom(x=1))"),
     "line 5: bad orient clause 'hom(x=1))'"),
    (EDGE_CASE.replace("orient = always", "orient = hom(x=1"),
     "line 5: hom(...) clause has no closing parenthesis"),
], ids=["unknown-scenario-key", "repeated-scenario-key", "missing-before-unknown",
        "repeated-clause", "unknown-clause", "clause-without-value", "missing-clause",
        "edge-hom-clause", "repeated-pattern-hom", "pattern-hom-extra-parenthesis",
        "unclosed-pattern-hom"])
def test_each_key_value_item_is_given_once_and_known(text, message):
    # Before, an unknown item was dropped and a repeated one overwrote the
    # first, so the dashed case ran with arc y and the pattern with <x>.
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == message


_DASHED_LINE = "scenario dashed alpha=2 fixed=y arc=x hom(y=1)"


@pytest.mark.parametrize("line", [
    "scenario dashed hom(y=1) alpha=2 fixed=y arc=x",
    "scenario dashed alpha=2 hom(y=1) fixed=y arc=x",
    "scenario dashed alpha=2 fixed=y arc=x hom(y=1)  ",
], ids=["first", "middle", "last"])
def test_a_dashed_hom_clause_stands_anywhere_on_its_line(line):
    # Before, the clause was found only at the end of the line, so the
    # first two ended as "dashed scenario needs a hom(...) clause".
    assert parse_case_text(DASHED_CASE.replace(_DASHED_LINE, line)) == \
        parse_case_text(DASHED_CASE)


@pytest.mark.parametrize("line,message", [
    (_DASHED_LINE + " hom(x=1)", "scenario line gives hom(...) twice"),
    ("scenario dashed hom(x=1) alpha=2 hom(y=1) fixed=y arc=x",
     "scenario line gives hom(...) twice"),
    ("scenario dashed alpha=2 fixed=y arc=x hom(y=1", "hom(...) clause has no closing parenthesis"),
    ("scenario dashed alpha=2 fixed=y arc=x", "dashed scenario needs a hom(...) clause"),
], ids=["twice-last", "twice-apart", "unclosed", "missing"])
def test_a_dashed_scenario_line_gives_one_closed_hom_clause(line, message):
    # Before, a second clause at the end tore the first: "hom(...) item
    # 'y=1) hom(x=1': unexpected character '=' at position 1".
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(DASHED_CASE.replace(_DASHED_LINE, line))
    assert str(exc.value) == f"line 4: {message}"


@pytest.mark.parametrize("text,message", [
    (EDGE_CASE.replace("scenario edge", "scenarios edge"),
     "line 4: unrecognized directive 'scenarios'"),
    (EDGE_CASE.replace("pattern P1", "patterns P1"), "line 5: unrecognized directive 'patterns'"),
    (EDGE_CASE.replace("expect order", "expected order"),
     "line 6: unrecognized directive 'expected'"),
], ids=["scenarios", "patterns", "expected"])
def test_a_case_keyword_is_a_whole_word(text, message):
    # Before, a prefix matched: each of these was read as its directive.
    with pytest.raises(WordSyntaxError) as exc:
        parse_case_text(text)
    assert str(exc.value) == message


# Every break str.splitlines knows besides \n, \r\n and \r, and \n, \r
# themselves left out of the comment text, since they do end a line.
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85  "
_COMMENT_TEXT = st.text(st.sampled_from(_OTHER_BREAKS + "#:=;, case: relators: x")
                        | st.characters(exclude_characters="\r\n"), max_size=30)
_FILES = [*sorted((REPO_ROOT / "src/orbisym/data").glob("*.case")),
          *sorted((REPO_ROOT / "tests/golden/inputs").glob("*.txt"))]


def _parse_file_text(path: Path, text: str):
    if path.suffix == ".case":
        return parse_case_text(text)
    return load_presentation_with_aliases(text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FILES), st.integers(min_value=0), _COMMENT_TEXT)
def test_a_comment_changes_no_parse(path, index, comment):
    text = path.read_text()
    lines = text.split("\n")
    index %= len(lines)
    lines[index] += " # " + comment
    assert _parse_file_text(path, "\n".join(lines)) == _parse_file_text(path, text)
