"""Source hygiene: every module of the package uses every name it imports,
every name it defines at module level is referenced somewhere, the package
resolves its public names lazily and a CLI call loads only the modules it
needs, and the README's JSON, Turtle and Python examples and CLI commands
still match the code."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

import staxkit
from staxkit.annotate import emit_turtle, load_manifest
from staxkit.cli import build_parser
from staxkit.taxonomy import default_taxonomy, load_taxonomy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "staxkit"
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(SRC.glob("*.py"))
# Where a module-level name of the package may be referenced.
SEARCHED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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


def annotation_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations."""
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: set[str] = set()
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """Names listed in the module's __all__: a literal list, or a call, as in
    the package's sorted(_SOURCES), whose names are the imported package's."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in (staxkit.__all__ if isinstance(node.value, ast.Call) else ast.literal_eval(node.value))
    }


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations, plus __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | annotation_names(tree) | exported_names(tree)


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


def module_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Names bound at module level, mapped to the statement that binds them."""
    definitions: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        definitions[name.id] = node
    return definitions


def loads(node: ast.AST) -> Counter:
    """How often each bare name is loaded under node."""
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def dead_names(modules: dict[str, ast.Module], searched: list[ast.Module]) -> list[str]:
    """Module-level names of modules (keyed by file name) that nothing references.

    A name counts as referenced when its own module loads it outside its
    definition or names it in a string annotation, or when any searched
    tree reads it as an attribute or imports it from that module.  A bare
    name of the same spelling elsewhere does not count.  Dunders and names
    listed in an __all__ are exempt.
    """
    attributes: set[str] = set()
    imported: set[tuple[str, str]] = set()  # (module's last dotted part, name)
    exempt: set[str] = set()
    for tree in searched:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                attributes.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module:
                imported.update((n.module.rpartition(".")[2], alias.name) for alias in n.names)
        exempt |= exported_names(tree)
    dead = []
    for module, tree in modules.items():
        local = loads(tree) + Counter(annotation_names(tree))
        for name, node in module_definitions(tree).items():
            if (
                not (name.startswith("__") and name.endswith("__"))
                and name not in exempt | attributes
                and (Path(module).stem, name) not in imported
                and local[name] == loads(node)[name]
            ):
                dead.append(f"{module}: {name}")
    return sorted(dead)


def test_every_module_level_name_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SEARCHED}
    dead = dead_names({p.name: trees[p] for p in MODULES}, list(trees.values()))
    assert not dead, f"module-level names referenced nowhere: {', '.join(dead)}"


def enclosing_functions(tree: ast.Module, is_use) -> list[str]:
    """The function around each node for which is_use holds, or '' for one
    at module level."""
    def visit(node: ast.AST, function: str) -> Iterator[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif is_use(node):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, ""))


def statement_match_users(tree: ast.Module) -> list[str]:
    """The function around each reference to _STATEMENT.match."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "match"
        and isinstance(node.value, ast.Name)
        and node.value.id == "_STATEMENT"
    ))


def test_one_function_matches_the_statement_pattern():
    # Every layout and parse_statement_line build statements in one loop.
    users = statement_match_users(ast.parse((SRC / "io.py").read_text(encoding="utf-8")))
    assert len(set(users)) == 1 and users[0], f"_STATEMENT.match is referenced in {users}"
    assert statement_match_users(ast.parse(
        "m = _STATEMENT.match\n"
        "def a(line): return _STATEMENT.match(line)\n"
        "def b(): return lambda line: _STATEMENT.match(line)\n"
    )) == ["", "a", "b"]


def report_builders(tree: ast.Module) -> list[str]:
    """The function around each call of ClassificationReport."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ClassificationReport"
    ))


def test_one_function_builds_the_classification_report():
    # Every framing is classified by one Classifier, whose report method builds the report.
    builders = report_builders(ast.parse((SRC / "classify.py").read_text(encoding="utf-8")))
    assert builders == ["report"], f"ClassificationReport is built in {builders}"
    assert report_builders(ast.parse(
        "r = ClassificationReport(1)\n"
        "def a(): return ClassificationReport(2), ClassificationReport._make([])\n"
    )) == ["", "a"]


def test_dead_name_is_reported():
    module = ast.parse(
        "__all__ = ['exported']\n"
        "ROOT = 'x'\n"
        "_HEX = set('0123456789abcdef')\n"
        "def exported(): return _helper()\n"
        "def _helper(): return _helper\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "def _annotated() -> 'Kind': ...\n"
        "class Kind: ...\n"
        "def _by_attribute(): ...\n"
        "def _by_import(): ...\n"
    )
    # a same-named global of another module is not a reference
    user = ast.parse(
        "import pkg.m\n"
        "from pkg.m import _by_import\n"
        "_HEX = set('0123456789')\n"
        "pkg.m._by_attribute(_HEX)\n"
    )
    assert dead_names({"m.py": module}, [module, user]) == [
        "m.py: ROOT", "m.py: _HEX", "m.py: _annotated", "m.py: _recursive",
    ]


def test_every_public_name_is_the_object_its_module_defines():
    defined_in: dict[str, list[str]] = {}
    for path in MODULES:
        for name in module_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined_in.setdefault(name, []).append(path.stem)
    for name in staxkit.__all__:
        (module,) = defined_in[name]
        assert getattr(staxkit, name) is getattr(importlib.import_module(f"staxkit.{module}"), name), name


def test_a_submodule_does_not_hide_the_function_of_its_name():
    module = importlib.import_module("staxkit.convert")
    assert staxkit.convert is module.convert


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(staxkit.__all__) <= set(dir(staxkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        staxkit.no_such_name


def modules_loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter holds after running code (no site, src on the path)."""
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


SUBCOMMAND_MODULES = {"staxkit.classify", "staxkit.annotate", "staxkit.convert"}


def test_importing_the_cli_loads_no_subcommand_module():
    loaded = modules_loaded_by("import staxkit.cli")
    assert "staxkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "decimal", *SUBCOMMAND_MODULES}


def test_taxonomy_path_loads_no_stream_module():
    loaded = modules_loaded_by(
        "from staxkit.cli import main\nmain(['taxonomy', 'path', 'graphStream', 'flatQuadStream'])"
    )
    assert "staxkit.taxonomy" in loaded
    assert not loaded & {"staxkit.io", "staxkit.model", *SUBCOMMAND_MODULES}


TWO_GRAPHS = (
    b"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n#---\n"
    b"<http://ex.org/t> <http://ex.org/p> <http://ex.org/o> .\n"
)
TIMESTAMP_MODULES = {"decimal", "_decimal", "numbers", "datetime", "_datetime"}


def stamped_datasets(path: Path, datatype: str, *stamps: str) -> Path:
    """Framed datasets, one per stamp: a named graph and its timestamp triple."""
    path.write_text("#---\n".join(
        f'<http://ex.org/g{i}> <http://www.w3.org/ns/prov#generatedAtTime> '
        f'"{stamp}"^^<http://www.w3.org/2001/XMLSchema#{datatype}> .\n'
        f"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> <http://ex.org/g{i}> .\n"
        for i, stamp in enumerate(stamps)
    ))
    return path


def cli_call(*argv: str) -> str:
    """Code that runs the CLI with argv and checks that it exits with 0."""
    return f"from staxkit.cli import main\nassert main({list(argv)!r}) == 0"


def test_classifying_graphs_loads_no_timestamp_module(tmp_path):
    data = tmp_path / "graphs.nt"
    data.write_bytes(TWO_GRAPHS)
    loaded = modules_loaded_by(cli_call("classify", "--input", str(data), "--framing", "framed-graphs", "--json"))
    assert "staxkit.classify" in loaded
    assert not loaded & TIMESTAMP_MODULES


def test_datetime_stamps_load_datetime_but_not_decimal(tmp_path):
    data = stamped_datasets(tmp_path / "data.nq", "dateTime", "2024-01-01T00:00:00Z", "2024-01-02T00:00:00Z")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"usages": [{"streamType": "timestampedNamedGraphStream"}]}))
    loaded = modules_loaded_by(cli_call(
        "validate", "--manifest", str(manifest), "--data", str(data), "--framing", "framed-datasets", "--json"
    ))
    assert {"staxkit.annotate", "datetime"} <= loaded
    assert not loaded & {"decimal", "_decimal", "numbers"}


def test_numeric_stamps_load_decimal_and_are_ordered(tmp_path):
    data = stamped_datasets(tmp_path / "data.nq", "integer", "2", "1")
    loaded = modules_loaded_by(
        "from staxkit.classify import classify_stream\n"
        "from staxkit.framing import Framing\n"
        f"report = classify_stream({str(data)!r}, Framing.FRAMED_DATASETS)\n"
        "violation = report.first_violation['timestampedNamedGraphStream']\n"
        "assert violation == (1, 'timestamp order violation'), violation"
    )
    assert "decimal" in loaded
    assert "datetime" not in loaded


def test_converting_graphs_to_quads_loads_no_classify_or_annotate_module(tmp_path):
    data = tmp_path / "graphs.nt"
    data.write_bytes(TWO_GRAPHS)
    loaded = modules_loaded_by(cli_call(
        "convert", "--input", str(data), "--from", "graphStream", "--to", "flatQuadStream",
        "--policy", "transitive", "--output", str(tmp_path / "out.nq"),
    ))
    assert "staxkit.convert" in loaded
    assert not loaded & {"json", "datetime", "decimal", "staxkit.classify", "staxkit.annotate"}


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


def readme_cli_commands() -> list[str]:
    """Each stax-kit command of README's sh blocks, continuation lines joined."""
    text = re.sub(r"\s*\\\n\s*", " ", "\n".join(readme_blocks("sh")))
    return [line for line in text.splitlines() if line.startswith("stax-kit ")]


def test_readme_shows_cli_commands():
    assert len(readme_cli_commands()) >= 10


@pytest.mark.parametrize("command", readme_cli_commands())
def test_readme_cli_command_parses(command):
    try:
        build_parser().parse_args(shlex.split(command, comments=True)[1:])
    except SystemExit:
        pytest.fail(f"the CLI rejects README's command: {command}")


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = readme_blocks("python")
    lines = [f"<http://ex.org/s{i}> <http://ex.org/p> <http://ex.org/o{i}> .\n" for i in range(2)]
    (tmp_path / "stream.nt").write_text("#---\n".join(lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(block, scope)
    assert scope["payload"] == "".join(lines).encode("utf-8")
    assert capsys.readouterr().out == "('subjectGraphStream',)\n"


def test_readme_taxonomy_example_loads():
    taxonomy = load_taxonomy(readme_json_example("types"))
    assert taxonomy.ancestors("leafStream") == {"rootStream"}


def test_readme_manifest_example_loads_and_matches_its_turtle():
    manifest = load_manifest(readme_json_example("usages"), default_taxonomy())
    assert readme_blocks("turtle")[0] == emit_turtle(manifest)
