"""Rules the sources under src/ keep, read from their syntax trees and the README.

Each test lists every offending line and passes when the list is empty.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


@pytest.fixture(scope="module")
def trees():
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_no_assert_statements(trees):
    # python -O strips assert statements, so a library check must raise instead
    bad = [f"{path}:{node.lineno}" for path, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, ast.Assert)]
    assert bad == []


def test_no_dataclasses(trees):
    # records are namedtuple subclasses: importing dataclasses costs the CLI's start-up inspect, ast and dis
    bad = [f"{path}:{node.lineno}" for path, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
           or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert bad == []


def test_lcg_stepping_only_in_rng(trees):
    # rng.Lcg owns the LCG step: no other module under src/ reads its constants MULT, INC or MASK
    names = {"MULT", "INC", "MASK"}
    bad = [f"{path}:{node.lineno}" for path, tree in trees.items() if path.name != "rng.py"
           for node in ast.walk(tree)
           if isinstance(node, ast.Name) and node.id in names or isinstance(node, ast.Attribute) and node.attr in names
           or isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)]
    assert bad == []


def test_every_cap_in_the_readme_caps_table(trees):
    # each module-level MAX_* constant under src/ has a row in the table, and each MAX_* a row names exists
    defined = set()
    for tree in trees.values():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            defined |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")}
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    named = {name for line in section.splitlines() if line.startswith("| `")
             for name in re.findall(r"`(MAX_\w+)`", line.split("|")[1])}
    assert defined
    assert [f"missing from the Caps table: {name}" for name in sorted(defined - named)] \
        + [f"the Caps table names no constant {name}" for name in sorted(named - defined)] == []


def test_no_unused_imports(trees):
    # a name an import binds must be read somewhere in its module; __future__ imports bind none
    bad = []
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                bad += [f"{path}:{node.lineno}: {name}" for alias in node.names
                        if (name := alias.asname or alias.name.split(".")[0]) not in used]
    assert bad == []


# Names src/ defines and does not read, and why they stay.
ALLOWED = {
    "build_holomorph": "bench/spans.py wraps it by name",
    "all_subgroups": "bench/spans.py wraps it by name",
    "verified_edges": "bench/spans.py reads it by name",
    "small_group_catalog": "ROADMAP item 1's census will call it",
}


def test_no_unread_names(trees):
    # a module-level name under src/ (a def, class or assignment) and a method of a module-level
    # class must be read somewhere in src/; a from-import or an attribute counts as a read.
    # Dunder names are not checked, nor methods named _x: those are hooks that code outside
    # src/ calls, as namedtuple's _replace calls CheckedRecord._make.
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    bad = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [(node.lineno, node.name)]
                if isinstance(node, ast.ClassDef):
                    names += [(m.lineno, m.name) for m in node.body
                              if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
                names = [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
            bad += [f"{path}:{line}: {name}" for line, name in names
                    if not name.startswith("__") and name not in read and name not in ALLOWED]
    assert bad == []
