"""Source hygiene: every module of the package uses every name it imports,
and the README's JSON and Turtle examples still match the code."""

import ast
import json
import re
from pathlib import Path

import pytest

from staxkit.annotate import emit_turtle, load_manifest
from staxkit.taxonomy import default_taxonomy, load_taxonomy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "staxkit"
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import, mapped to its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations, plus __all__."""
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    )
    assert not unused, f"{module.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_reported():
    tree = ast.parse(
        "from typing import Iterable, Sequence\n"
        "import os.path\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    os.path.join(x, 'Sequence')\n"
    )
    assert {n for n in imported_names(tree) if n not in used_names(tree)} == {"Sequence"}


def readme_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def readme_json_example(key: str) -> str:
    """The one JSON block of README.md whose top level has the given key."""
    found = [b for b in readme_blocks("json") if key in json.loads(b)]
    assert len(found) == 1, f"README.md has {len(found)} JSON examples with {key!r}"
    return found[0]


@pytest.mark.parametrize("index", range(len(readme_blocks("json"))))
def test_readme_json_block_parses(index):
    json.loads(readme_blocks("json")[index])


def test_readme_taxonomy_example_loads():
    taxonomy = load_taxonomy(readme_json_example("types"))
    assert taxonomy.ancestors("leafStream") == {"rootStream"}


def test_readme_manifest_example_loads_and_matches_its_turtle():
    manifest = load_manifest(readme_json_example("usages"), default_taxonomy())
    assert readme_blocks("turtle")[0] == emit_turtle(manifest)
