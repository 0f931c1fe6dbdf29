"""CLI subcommands, exit codes, and the JSON report shape."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from orbisym import presentation
from orbisym.cli import _build_parser, main
from conftest import ARITHMETIC_CASE, DASHED_CASE, EDGE_CASE, ORBIFOLD_28_TEXT, run_orbisym

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "items", "status", "elapsed_ms"],
    "properties": {
        "command": {"type": "string"},
        "status": {"enum": ["match", "mismatch", "error"]},
        "elapsed_ms": {"type": "integer", "minimum": 0},
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status"],
                "properties": {
                    "id": {"type": "string"},
                    "order": {"type": "integer", "minimum": 1},
                    "index": {"type": "integer", "minimum": 1},
                    "pattern": {"type": "string"},
                    "orientable": {"type": "boolean"},
                    "genus": {"type": "integer", "minimum": 0},
                    "boundary": {"type": "integer", "minimum": 1},
                    "surface": {"type": "string"},
                    "status": {"enum": ["match", "mismatch", "error"]},
                },
            },
        },
    },
}


# The JSON Schema keywords REPORT_SCHEMA uses, and its types other than
# "integer", which takes no bool.
SCHEMA_KEYWORDS = {"type", "enum", "minimum", "required", "properties", "items"}
SCHEMA_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def schema_errors(instance, schema, where="report"):
    """The ways instance breaks schema, as JSON Schema reads the keywords
    REPORT_SCHEMA uses; empty when it conforms.  Keys a schema does not
    name are allowed, as there."""
    assert set(schema) <= SCHEMA_KEYWORDS, f"unchecked keywords {set(schema) - SCHEMA_KEYWORDS}"
    kind = schema.get("type")
    if kind == "integer":
        conforms = type(instance) is int
    else:
        conforms = kind is None or isinstance(instance, SCHEMA_TYPES[kind])
    if not conforms:
        return [f"{where} is not of type {kind}"]
    errors = []
    if "enum" in schema and not any(type(value) is type(instance) and value == instance
                                    for value in schema["enum"]):
        errors.append(f"{where} is not one of {schema['enum']}")
    if "minimum" in schema and instance < schema["minimum"]:
        errors.append(f"{where} is below {schema['minimum']}")
    errors += [f"{where} has no {key}" for key in schema.get("required", ()) if key not in instance]
    for key, subschema in schema.get("properties", {}).items():
        if key in instance:
            errors += schema_errors(instance[key], subschema, f"{where}.{key}")
    if "items" in schema:
        for i, item in enumerate(instance):
            errors += schema_errors(item, schema["items"], f"{where}[{i}]")
    return errors


def validate_report(payload):
    errors = schema_errors(payload, REPORT_SCHEMA)
    assert not errors, "; ".join(errors)


@pytest.fixture()
def orbifold_file(tmp_path):
    path = tmp_path / "orbifold.txt"
    path.write_text(ORBIFOLD_28_TEXT)
    return str(path)


@pytest.fixture()
def free_group_file(tmp_path):
    path = tmp_path / "free.txt"
    path.write_text("generators: x\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    validate_report(payload)
    return code, payload


def test_order_text(capsys, orbifold_file):
    assert main(["order", orbifold_file]) == 0
    assert capsys.readouterr().out.strip() == "order: 120"


def test_order_json(capsys, orbifold_file):
    code, payload = run_json(capsys, ["order", orbifold_file])
    assert code == 0
    assert payload["command"] == "order"
    assert payload["status"] == "match"
    assert payload["items"][0]["order"] == 120


def test_index_with_subgroup(capsys, orbifold_file):
    assert main(["index", orbifold_file, "--subgroup", "x*y,x*y*x^-1"]) == 0
    assert capsys.readouterr().out.strip() == "index: 12"


def test_index_trivial_subgroup_is_order(capsys, orbifold_file):
    code, payload = run_json(capsys, ["index", orbifold_file])
    assert code == 0
    assert payload["items"][0]["index"] == 120


def test_index_dump_table(capsys, orbifold_file, tmp_path):
    out = tmp_path / "table.tsv"
    code = main(["index", orbifold_file, "--subgroup", "x*y,x*y*x^-1",
                 "--dump-table", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t")[0] == "coset"
    assert len(lines) == 13


def test_hom2_solvable(capsys, orbifold_file):
    code = main(["hom2", orbifold_file,
                 "--map", "x*y*z^-1*x^-1=1", "--map", "x*y*x^-1=1",
                 "--map", "x*y=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("solvable:")
    assert "h(y)=1" in out


def test_hom2_unsolvable(capsys, orbifold_file):
    code, payload = run_json(capsys, ["hom2", orbifold_file,
                                      "--map", "y=1", "--map", "x*z=1"])
    assert code == 0
    assert payload["items"][0]["solvable"] is False
    assert "witness" not in payload["items"][0]


def test_hom2_witness_in_json(capsys, orbifold_file):
    code, payload = run_json(capsys, ["hom2", orbifold_file,
                                      "--map", "x*y*z^-1*x^-1=1",
                                      "--map", "x*y*x^-1=1", "--map", "x*y=1"])
    assert code == 0
    assert payload["items"][0]["witness"] == [0, 1, 0]


# A BIT is exactly 0 or 1: not whatever int() reads as 1.
@pytest.mark.parametrize("item", ["xy", "x=", "x=2", "x=b", "x=0_1", "x=+1", "x=01", "x=１"])
def test_hom2_bad_map(capsys, orbifold_file, item):
    assert main(["hom2", orbifold_file, "--map", item]) == 2
    assert capsys.readouterr().err == \
        f"error: --map needs WORD=BIT with BIT 0 or 1, got {item!r}\n"


@pytest.mark.parametrize("argv,message", [
    (["hom2", "--map", "q=1"], "--map item 'q=1': unknown generator 'q'"),
    (["hom2", "--map", "x=1", "--map", "x**y=0"],
     "--map item 'x**y=0': unexpected '*' at position 2"),
    (["index", "--subgroup", "x**y"], "--subgroup item 'x**y': unexpected '*' at position 2"),
    (["index", "--subgroup", "x*y, q"], "--subgroup item 'q': unknown generator 'q'"),
    (["index", "--subgroup", "x^" + "7" * 5000], f"--subgroup item {'x^' + '7' * 5000!r}: "
     "integer of 5000 digits at position 2 is over the 18-digit limit"),
    (["hom2", "--map", "a=0_1"], "--map item 'a=0_1': unknown generator 'a'"),
    (["index", "--subgroup", "x", "--dump-table", "/nonexistent/t.tsv"],
     "--dump-table /nonexistent/t.tsv: cannot write: "
     "[Errno 2] No such file or directory: '/nonexistent/t.tsv'"),
], ids=["map-generator", "map-syntax", "subgroup-syntax", "subgroup-generator",
        "subgroup-long-exponent", "map-generator-and-bad-bit", "dump-table-unwritable"])
def test_a_bad_word_in_a_flag_names_the_flag_and_item(capsys, orbifold_file, argv, message):
    assert main([argv[0], orbifold_file, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_case_edge(capsys):
    assert main(["case", "orbifold-28-edge"]) == 0
    out = capsys.readouterr().out
    assert "case orbifold-28-edge: match" in out
    assert "S_{0,12}" in out and "N_{6,6}" in out


def test_case_family(capsys):
    code, payload = run_json(capsys, ["case", "15E", "--n", "30"])
    assert code == 0
    assert payload["status"] == "match"
    summary = payload["items"][-1]
    assert summary["order"] == 60
    assert "S_{0,30}" in summary["surface"]
    assert "S_{14,2}" in summary["surface"]


def test_case_family_missing_n(capsys):
    assert main(["case", "15E"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("family, n", [("15E", 2), ("19", 0)])
def test_case_family_n_too_small(capsys, family, n):
    assert main(["case", family, "--n", str(n)]) == 2
    assert f"family evaluation needs n >= 3, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, line", [
    ([], "conjugators: 48 admissible, 192 patterns evaluated"),
    (["--early-stop"], "conjugators: 8 admissible, 32 patterns evaluated"),
])
def test_case_dashed_text_counts(capsys, flags, line):
    assert main(["case", "orbifold-28-dashed", *flags]) == 0
    assert f"  {line}\n" in capsys.readouterr().out


def test_case_unknown(capsys):
    assert main(["case", "no-such-case"]) == 2
    assert "known" in capsys.readouterr().err


def test_case_dashed_json_items_sorted(capsys):
    code, payload = run_json(capsys, ["case", "orbifold-28-dashed",
                                      "--early-stop", "--threads", "2"])
    assert code == 0
    audit = payload["items"][:-1]
    names = [i["pattern"].split(":", 1)[1] for i in audit]
    assert names == sorted(names)
    assert all(i["surface"] == "S_{5,12}" for i in audit)
    assert payload["items"][-1]["order"] == 120


def test_case_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    base = (Path(__file__).resolve().parents[1]
            / "src/orbisym/data/orbifold-28-edge.case").read_text()
    (tmp_path / "edge.case").write_text(base.replace("order=120", "order=119"))
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", "orbifold-28-edge"]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out
    assert "119" in out


def test_bad_case_file_is_an_input_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "broken.case").write_text(
        "case: broken\ngenerators: x\nrelators: x^2\nscenario edge a=2\n")
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", "broken"]) == 2
    assert "broken.case: line 4: scenario line needs alpha=" in capsys.readouterr().err
    # It fails only the id its case: line names.
    assert main(["case", "orbifold-28-edge"]) == 0
    capsys.readouterr()
    # A malformed expected surface is an input error too, not a silently
    # shorter expected set and a mismatch.
    base = (Path(__file__).resolve().parents[1]
            / "src/orbisym/data/orbifold-28-edge.case").read_text()
    (tmp_path / "broken.case").write_text(base.replace("N_{6,6}", "N_{6.6}"))
    assert main(["case", "orbifold-28-edge"]) == 2
    assert capsys.readouterr().err.endswith(
        "broken.case: line 16: not a surface label: 'N_{6.6}'\n")


@pytest.mark.parametrize("item", ["y=2", "y=", "y", "y=b"])
@pytest.mark.parametrize("case_id,text,lineno", [
    ("tiny-dashed", DASHED_CASE.replace("hom(y=1)", "hom(ITEM)"), 4),
    ("tiny-edge", EDGE_CASE.replace("orient = always", "orient = hom(ITEM)"), 5),
], ids=["dashed-scenario", "edge-orient"])
def test_bad_hom_clause_is_an_input_error(capsys, tmp_path, monkeypatch, item,
                                          case_id, text, lineno):
    # The hom(...) clauses of a case file and hom2 --map share one WORD=BIT
    # parser, and its message names the clause and the item.
    path = tmp_path / "bad.case"
    path.write_text(text.replace("ITEM", item))
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", case_id]) == 2
    assert capsys.readouterr().err == (f"error: {path}: line {lineno}: hom(...) needs "
                                       f"WORD=BIT with BIT 0 or 1, got {item!r}\n")


@pytest.mark.parametrize("case_id,text,lineno", [
    ("tiny-dashed", DASHED_CASE.replace("hom(y=1)", "hom(y=1, q=1)"), 4),
    ("tiny-edge", EDGE_CASE.replace("orient = always", "orient = hom(y=1, q=1)"), 5),
], ids=["dashed-scenario", "edge-orient"])
def test_a_bad_word_in_a_hom_clause_names_the_clause_and_item(capsys, tmp_path, monkeypatch,
                                                              case_id, text, lineno):
    path = tmp_path / "bad.case"
    path.write_text(text)
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", case_id]) == 2
    assert capsys.readouterr().err == (f"error: {path}: line {lineno}: hom(...) item "
                                       "'q=1': unknown generator 'q'\n")


def test_a_value_error_in_a_presentation_line_names_the_file_and_line(capsys, tmp_path,
                                                                     monkeypatch):
    # Whatever ValueError a line's parse lets out is located like an OrbisymError.
    def parse_word(text, *args):
        if text == "y^3":
            raise ValueError("no y^3 today")
        return real_parse_word(text, *args)

    real_parse_word = presentation.parse_word
    monkeypatch.setattr(presentation, "parse_word", parse_word)
    path = tmp_path / "bad.txt"
    path.write_text("generators: x y\nrelators: x^2\nrelators: y^3\n")
    assert main(["order", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 3: no y^3 today\n"


def test_stray_line_in_arithmetic_case_is_an_input_error(capsys, tmp_path, monkeypatch):
    base = ARITHMETIC_CASE.replace("case: little-row", "case: alpha-29")
    (tmp_path / "alpha-29.case").write_text(base + "bogus line\n")
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", "alpha-29"]) == 2
    lineno = len(base.splitlines()) + 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'alpha-29.case'}: line {lineno}: "
        "not a line of an arithmetic case: 'bogus line'\n")


@pytest.mark.parametrize("text,case_id,dashed", [
    (DASHED_CASE, "tiny-dashed", True),
    (DASHED_CASE.replace("tiny-dashed", "orbifold-28-dashed-small"),
     "orbifold-28-dashed-small", True),
    (EDGE_CASE.replace("tiny-edge", "orbifold-28-dashed-edge"),
     "orbifold-28-dashed-edge", False),
], ids=["dashed", "dashed-with-orbifold-prefix", "edge-with-orbifold-prefix"])
def test_case_text_layout_follows_entry_kind(capsys, tmp_path, monkeypatch,
                                             text, case_id, dashed):
    # the layout depends on the kind of case, whatever its id says
    (tmp_path / "tiny.case").write_text(text)
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    main(["case", case_id])
    out = capsys.readouterr().out
    assert ("  conjugators: " in out) == dashed
    assert ("  loop: " in out or "  P1: " in out) != dashed


@pytest.mark.parametrize("relators,message", [
    ("x^3 q^2", "unknown generator 'q'"),
    ("x^3 y*y^-1", "relator freely reduces to the empty word"),
    pytest.param("x^3 y^" + "7" * 5000,
                 "integer of 5000 digits at position 2 is over the 18-digit limit",
                 id="long-exponent"),
])
@pytest.mark.parametrize("kind", ["presentation", "case"])
def test_presentation_errors_name_the_line(capsys, tmp_path, monkeypatch,
                                           relators, message, kind):
    if kind == "presentation":
        path = tmp_path / "bad.txt"
        path.write_text(f"generators: x y\nrelators: {relators}\n")
        argv, where = ["order", str(path)], f"{path}: line 2"
    else:
        path = tmp_path / "bad.case"
        path.write_text(EDGE_CASE.replace("relators: x^3 y^2 (x*y)^2",
                                          f"relators: {relators}"))
        monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
        argv, where = ["case", "tiny-edge"], f"{path}: line 3"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("old,new,lineno", [
    ("alpha=2", "alpha=" + "7" * 5000, 4),
    ("S_{1,1}", "S_{" + "7" * 5000 + ",1}", 6),
], ids=["scenario-alpha", "surface-genus"])
def test_a_long_case_file_integer_is_an_input_error(capsys, tmp_path, monkeypatch,
                                                    old, new, lineno):
    path = tmp_path / "long.case"
    path.write_text(EDGE_CASE.replace(old, new))
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", "tiny-edge"]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: line {lineno}: integer of 5000 digits is over the 18-digit limit\n"


@pytest.mark.parametrize("module", ["orbisym", "orbisym.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    path = tmp_path / "z7.txt"
    path.write_text("generators: x\nrelators: x^7\n")
    status, out, _ = run_orbisym(tmp_path, "order", str(path), "--json", module=module)
    assert status == 0, out
    assert json.loads(out)["items"][0]["order"] == 7


@pytest.mark.parametrize("relator,message", [
    ("x^2000000000", "line 2: word of 2000000000 letters at position 2 is over "
                     "the 1000000-letter limit"),
    ("(" * 3000 + "x" + ")" * 3000, "line 2: parentheses nested deeper than 100 "
                                    "at position 100"),
], ids=["power-2e9", "nested-3000"])
def test_oversized_words_are_input_errors(capsys, tmp_path, relator, message):
    path = tmp_path / "big.txt"
    path.write_text(f"generators: x y\nrelators: {relator} y^2\n")
    assert main(["order", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("data,message", [
    (b"generators: x y\nrelators: x^2\n\xff\xfe\n", "line 3: byte 0xff is not UTF-8"),
    (b"# two x\ngenerators: x x\nrelators: x^2\n", "line 2: generator 'x' declared twice"),
    (b"generators: x 1y\n", "line 1: invalid generator name '1y'"),
    # U+2028 and \f end no line, so the lines after them keep their numbers
    (b"generators: x y\n# was \xe2\x80\xa8 x\nrelators: x^2 \xff\n",
     "line 3: byte 0xff is not UTF-8"),
    (b"generators: x y\n\x0crelators: x^2 q\n", "line 2: unknown generator 'q'"),
], ids=["not-utf8", "duplicate-generator", "invalid-generator", "not-utf8-after-u2028",
        "form-feed"])
@pytest.mark.parametrize("command", [["order"], ["index", "--subgroup", "x"],
                                     ["hom2", "--map", "x=1"]])
def test_presentation_file_errors_name_the_file_and_line(capsys, tmp_path, data, message,
                                                         command):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert main([command[0], str(path), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["15E", "19"])
def test_case_family_n_past_the_letter_budget(capsys, family):
    assert main(["case", family, "--n", "99999999999"]) == 2
    assert capsys.readouterr().err == (
        f"error: family {family} needs n <= 1000000, got 99999999999\n")


def test_missing_file(capsys):
    assert main(["order", "/nonexistent/file.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_presentation_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("generators: x\nrelators: x^\n")
    assert main(["order", str(path)]) == 2


def test_limit_exit_code(capsys, free_group_file):
    assert main(["order", free_group_file, "--max-cosets", "500"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["order", "FILE"], ["index", "FILE", "--subgroup", "x"], ["case", "orbifold-28-edge"],
    ["reproduce-all"],
], ids=["order", "index", "case", "reproduce-all"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_a_max_cosets_below_1_names_the_flag_and_value(capsys, orbifold_file, argv, value):
    # Before, the message named neither: "error: max_cosets must be at least 1".
    argv = [orbifold_file if arg == "FILE" else arg for arg in argv]
    assert main([*argv, "--max-cosets", value]) == 2
    assert capsys.readouterr().err == \
        f"error: --max-cosets {value}: max_cosets must be at least 1\n"


def test_the_parser_is_built_once_and_keeps_no_state():
    parser = _build_parser()
    assert _build_parser() is parser
    # Each parse starts from the defaults: --map's list is not the last
    # parse's, and --max-cosets is unset again.
    assert parser.parse_args(["hom2", "f", "--map", "x=1"]).map == ["x=1"]
    assert parser.parse_args(["hom2", "f"]).map == []
    assert parser.parse_args(["order", "f", "--max-cosets", "5"]).max_cosets == 5
    assert parser.parse_args(["order", "f"]).max_cosets is None


def test_limit_json_status(capsys, free_group_file):
    code = main(["order", free_group_file, "--max-cosets", "500", "--json"])
    assert code == 3
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    validate_report(payload)
    assert payload["status"] == "error"
    assert payload["items"] == []


def test_verify_table(capsys):
    assert main(["verify-table"]) == 0
    assert "all passed" in capsys.readouterr().out


def test_verify_table_json(capsys):
    code, payload = run_json(capsys, ["verify-table"])
    assert code == 0
    assert payload["status"] == "match"
    assert len(payload["items"]) > 1000
    assert all(i["status"] == "match" for i in payload["items"])


def test_case_deterministic_output(capsys):
    _, first = run_json(capsys, ["case", "orbifold-28-dashed"])
    _, second = run_json(capsys, ["case", "orbifold-28-dashed"])
    assert first["items"] == second["items"]
    assert first["status"] == second["status"]


def test_reproduce_all(capsys):
    code, payload = run_json(capsys, ["reproduce-all", "--threads", "2"])
    assert code == 0
    assert payload["status"] == "match"
    labels = [i["id"] for i in payload["items"]]
    assert labels[0] == "orbifold-28-edge"
    assert labels[1] == "orbifold-28-dashed"
    assert "15E n=3" in labels and "19 n=50" in labels
    assert len(labels) == 2 + 48 + 48
    assert all(i["status"] == "match" for i in payload["items"])


def test_an_unreadable_case_path_blocks_no_command(capsys, tmp_path, monkeypatch):
    # ./catalog holds a dangling link and a directory named *.case: they
    # declare no id, so reproduce-all and every case run; a file that is
    # not UTF-8 fails only the id it declares, which reproduce-all never
    # looks up.
    (tmp_path / "catalog").mkdir()
    (tmp_path / "catalog" / "dangling.case").symlink_to(tmp_path / "missing.case")
    (tmp_path / "catalog" / "dir.case").mkdir()
    (tmp_path / "catalog" / "bad.case").write_bytes(b"case: x\n\xff\xfe\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ORBISYM_CATALOG", raising=False)
    code, payload = run_json(capsys, ["reproduce-all"])
    assert code == 0
    assert payload["status"] == "match" and len(payload["items"]) == 98
    assert main(["case", "orbifold-28-edge"]) == 0
    capsys.readouterr()
    assert main(["case", "x"]) == 2
    assert capsys.readouterr().err == (
        f"error: {Path('catalog/bad.case')}: line 2: byte 0xff is not UTF-8\n")


def test_reproduce_all_ignores_a_case_file_without_a_case_line(capsys, tmp_path,
                                                               monkeypatch):
    # reproduce-all runs only built-in ids, and a file that names none of
    # them cannot fail their lookups.
    (tmp_path / "stray.case").write_text("generators: x\nrelators: x^2\n")
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    code, payload = run_json(capsys, ["reproduce-all"])
    assert code == 0
    assert payload["status"] == "match" and len(payload["items"]) == 98


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85", "\f", "\v"])
def test_a_comment_runs_to_the_newline(capsys, tmp_path, brk):
    # str.splitlines would end the comment at brk and read 'relators: x'.
    path = tmp_path / "icosahedral.txt"
    path.write_bytes(f"generators: x y\nrelators: x^2 y^3 (x*y)^5\n"
                     f"# was {brk}relators: x\n".encode())
    assert main(["order", str(path)]) == 0
    assert capsys.readouterr().out == "order: 60\n"


@pytest.mark.parametrize("old,new,message", [
    ("arc=x", "arc=x fixd=x arc=y", "line 4: scenario line gives arc= twice"),
    ("arc=x", "arc=x beta=7", "line 4: scenario line takes no beta="),
    ("scenario dashed", "scenarios dashed", "line 4: unrecognized directive 'scenarios'"),
    ("hom(y=1)", "hom(y=1) hom(x=1)", "line 4: scenario line gives hom(...) twice"),
    ("dashed alpha=2 fixed=y arc=x hom(y=1)", "edge alpha=2 hom(x=1)",
     "line 4: an edge scenario takes no hom(...) clause"),
], ids=["repeated-arc", "unknown-key", "keyword-prefix", "repeated-hom", "edge-hom"])
def test_a_bad_scenario_line_is_a_located_input_error(capsys, tmp_path, monkeypatch,
                                                      old, new, message):
    path = tmp_path / "dashed.case"
    path.write_text(DASHED_CASE.replace(old, new))
    monkeypatch.setenv("ORBISYM_CATALOG", str(tmp_path))
    assert main(["case", "tiny-dashed"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


VALID_REPORT = {
    "command": "case", "status": "match", "elapsed_ms": 0,
    "items": [{"id": "P1", "status": "match", "order": 120, "index": 4, "pattern": "P1",
               "orientable": False, "genus": 0, "boundary": 1, "surface": "S_{0,1}",
               "visited": 3}],
}


DROP = object()


def _with(path, value):
    """VALID_REPORT with the key at path (item keys under "items") set to
    value, or removed when value is DROP."""
    report = json.loads(json.dumps(VALID_REPORT))
    target = report["items"][0] if path[0] == "items" and len(path) > 1 else report
    key = path[-1]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return report


VIOLATIONS = {
    "elapsed-bool": (("elapsed_ms",), True),
    "elapsed-negative": (("elapsed_ms",), -1),
    "elapsed-float": (("elapsed_ms",), 1.5),
    "elapsed-string": (("elapsed_ms",), "3"),
    "status-unknown": (("status",), "ok"),
    "command-number": (("command",), 5),
    "no-command": (("command",), DROP),
    "no-items": (("items",), DROP),
    "no-status": (("status",), DROP),
    "no-elapsed": (("elapsed_ms",), DROP),
    "items-object": (("items",), {}),
    "item-number": (("items",), [5]),
    "item-no-id": (("items", "id"), DROP),
    "item-no-status": (("items", "status"), DROP),
    "item-status-unknown": (("items", "status"), "fine"),
    "item-id-number": (("items", "id"), 3),
    "order-0": (("items", "order"), 0),
    "order-bool": (("items", "order"), True),
    "index-0": (("items", "index"), 0),
    "genus-negative": (("items", "genus"), -1),
    "genus-bool": (("items", "genus"), False),
    "boundary-0": (("items", "boundary"), 0),
    "orientable-int": (("items", "orientable"), 1),
    "surface-number": (("items", "surface"), 5),
    "pattern-null": (("items", "pattern"), None),
}


@pytest.mark.parametrize("violation", sorted(VIOLATIONS))
def test_the_schema_check_rejects_a_violating_report(violation):
    assert not schema_errors(VALID_REPORT, REPORT_SCHEMA)
    assert schema_errors(_with(*VIOLATIONS[violation]), REPORT_SCHEMA)


def test_the_schema_check_rejects_what_jsonschema_rejects():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(VALID_REPORT, REPORT_SCHEMA)
    for violation, (path, value) in VIOLATIONS.items():
        report = _with(path, value)
        assert schema_errors(report, REPORT_SCHEMA), violation
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)
