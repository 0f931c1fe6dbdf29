"""The CLI's output, byte for byte, against files written by an earlier build.

Each command in COMMANDS runs in process, once as text and once with
--json, from an empty directory so that no ./catalog file overrides a
built-in case.  The presentation-file commands read ``golden/inputs/``;
their reports name the file by its stem, so keep those names.  Its stdout must equal ``golden/<name>.txt`` or
``golden/<name>.json`` (the JSON report with its ``elapsed_ms`` line
removed, the one field that differs from run to run), and its exit code
and stderr must equal the entry for that name in ``golden/exits.json``.
The TSV that ``index --dump-table`` writes is pinned the same way, in
``golden/index-s5-a-dump-table.tsv``.
A change that means to alter the output rewrites the files with

    PYTHONPATH=src python tests/test_golden_cli.py

so that the difference shows in its diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from orbisym.catalog import CATALOG_ENV_VAR
from orbisym.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

COMMANDS = {
    "reproduce-all": ["reproduce-all"],
    "verify-table": ["verify-table"],
    "case-orbifold-28-edge": ["case", "orbifold-28-edge"],
    "case-orbifold-28-dashed": ["case", "orbifold-28-dashed"],
    "case-orbifold-28-dashed-early-stop": ["case", "orbifold-28-dashed", "--early-stop"],
    "case-alpha-29": ["case", "alpha-29"],
    **{f"case-15E-n{n}": ["case", "15E", "--n", str(n)] for n in (3, 7, 8, 50)},
    **{f"case-19-n{n}": ["case", "19", "--n", str(n)] for n in (3, 9, 50)},
    "case-19-n2": ["case", "19", "--n", "2"],
    "case-15E-n1000001": ["case", "15E", "--n", "1000001"],
    # (2,3,7) is infinite: under 2000 cosets it runs the lookahead and
    # compaction before it gives up with exit 3.
    "order-t237-cap-2000": ["order", str(INPUTS / "t237.txt"), "--max-cosets", "2000"],
    "order-s5": ["order", str(INPUTS / "s5.txt")],
    "index-s5-a": ["index", str(INPUTS / "s5.txt"), "--subgroup", "a"],
    "hom2-s5-a1": ["hom2", str(INPUTS / "s5.txt"), "--map", "a=1"],
    "hom2-s5-ab1": ["hom2", str(INPUTS / "s5.txt"), "--map", "a*b=1"],
}

# index on the S5 Coxeter presentation over <a>: 60 cosets, whose table
# --dump-table writes to the path that follows it.
DUMP_TABLE = ["index", str(INPUTS / "s5.txt"), "--subgroup", "a", "--dump-table"]
DUMP_TABLE_GOLDEN = GOLDEN / "index-s5-a-dump-table.tsv"

_ELAPSED = re.compile(r',\n  "elapsed_ms": \d+\n}')


def strip_elapsed(report: str) -> str:
    """A --json report without its elapsed_ms field, every other byte kept."""
    return _ELAPSED.sub("\n}", report)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def outputs(name: str) -> dict[str, tuple[int, str, str]]:
    """Per mode ("text", "json"): exit code, stdout as compared, stderr."""
    argv = COMMANDS[name]
    code, out, err = run(argv)
    json_code, json_out, json_err = run([*argv, "--json"])
    return {"text": (code, out, err), "json": (json_code, strip_elapsed(json_out), json_err)}


@pytest.fixture
def empty_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_is_unchanged(name, empty_cwd):
    exits = json.loads((GOLDEN / "exits.json").read_text())
    got = outputs(name)
    for mode, suffix in (("text", ".txt"), ("json", ".json")):
        code, out, err = got[mode]
        assert out == (GOLDEN / f"{name}{suffix}").read_text(), (name, mode)
        assert [code, err] == exits[name][mode], (name, mode)


def test_threads_change_no_report(empty_cwd):
    # --threads is accepted and has no effect.
    name = "case-orbifold-28-dashed-early-stop"
    code, out, err = run([*COMMANDS[name], "--threads", "2", "--json"])
    assert (code, strip_elapsed(out), err) == (0, (GOLDEN / f"{name}.json").read_text(), "")


def test_dump_table_is_unchanged(empty_cwd, tmp_path):
    out = tmp_path / "table.tsv"
    assert run([*DUMP_TABLE, str(out)]) == (0, "index: 60\n", "")
    assert out.read_bytes() == DUMP_TABLE_GOLDEN.read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    os.environ.pop(CATALOG_ENV_VAR, None)
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        for name in COMMANDS:
            got = outputs(name)
            for mode, suffix in (("text", ".txt"), ("json", ".json")):
                (GOLDEN / f"{name}{suffix}").write_text(got[mode][1])
            exits[name] = {mode: [code, err] for mode, (code, _, err) in got.items()}
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=2) + "\n")
    run([*DUMP_TABLE, str(DUMP_TABLE_GOLDEN)])


if __name__ == "__main__":
    regenerate()
