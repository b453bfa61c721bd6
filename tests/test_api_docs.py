"""``docs/api.md`` names only what the package exports.

Every CamelCase name in the API tables must resolve on the package its
row belongs to: the package in the section heading (``## Protocols
(`repro.core`)``), or the module in the row's first cell when that
cell is a bare module path (the Substrates rows, the
``repro.core.messages`` row).  A name spelled with its module path
(``repro.experiments.pool.WorkerPool``) resolves on that module.  The
command-line block must list exactly the subcommands the CLI defines,
and the rule table in ``docs/architecture.md`` exactly the lint rules.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.lint.rules import RULES_BY_CODE

API_MD = Path(__file__).resolve().parents[1] / "docs" / "api.md"

_HEADING = re.compile(r"^## .*\(`(repro[\w.]*)`\)\s*$")
_MODULE = re.compile(r"^repro(?:\.\w+)*$")
_SPAN = re.compile(r"`([^`]+)`")
# A capitalised identifier with at least one lowercase letter (so enum
# members such as RANDOM are skipped), optionally module-qualified.
_NAME = re.compile(
    r"(?<![\w.])((?:[a-z_]\w*\.)*)([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)"
)


def _table_rows():
    """``(line number, package, checked cell)`` for every table row."""
    package = None
    rows = []
    for number, line in enumerate(API_MD.read_text().splitlines(), 1):
        if line.startswith("## "):
            match = _HEADING.match(line)
            package = match.group(1) if match else None
            continue
        if not line.startswith("|") or set(line) <= set("|-: "):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("Name", "Package"):
            continue
        first = _SPAN.fullmatch(cells[0])
        if first and _MODULE.match(first.group(1)):
            rows.append((number, first.group(1), cells[1]))
        elif package is not None:
            rows.append((number, package, cells[0]))
    return rows


def _documented_names():
    """One ``pytest.param(line, module, name)`` per distinct name."""
    names = {}
    for number, package, cell in _table_rows():
        for span in _SPAN.findall(cell):
            for prefix, name in _NAME.findall(span):
                module = prefix.rstrip(".") if prefix else package
                names.setdefault((module, name), number)
    return [
        pytest.param(line, module, name, id=f"{module}.{name}")
        for (module, name), line in names.items()
    ]


def _subcommands(parser):
    action = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return action.choices


def _listed(block, prefix):
    listed = re.search(re.escape(prefix) + r"[^{]*\{(.*?)\}", block, re.S)
    assert listed is not None, prefix
    return {name.strip() for name in listed.group(1).split(",")}


def test_tables_are_parsed():
    modules = {param.values[1] for param in _documented_names()}
    assert {"repro", "repro.core", "repro.experiments",
            "repro.dsss", "repro.sim"} <= modules


@pytest.mark.parametrize("line,module,name", _documented_names())
def test_table_name_resolves(line, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"docs/api.md:{line}: {module} has no attribute {name}"
    )


def test_command_line_block_lists_every_subcommand():
    block = re.search(r"## Command line\s*```(.*?)```", API_MD.read_text(),
                      re.S)
    assert block is not None
    commands = _subcommands(build_parser())
    assert _listed(block.group(1), "python -m repro") == set(commands)
    assert _listed(block.group(1), "python -m repro campaign") == set(
        _subcommands(commands["campaign"])
    )


def test_architecture_rule_table_matches_the_rule_pack():
    text = (API_MD.parent / "architecture.md").read_text()
    section = text.split("### The rule pack", 1)[1].split("\n### ", 1)[0]
    codes = re.findall(r"^\| (JRS\d{3}) \|", section, re.M)
    assert codes == sorted(RULES_BY_CODE)
