"""Source hygiene: every module of the package uses every name it imports,
every name it defines at module level is referenced somewhere, the package
resolves its public names lazily and a CLI call loads only the modules it
needs, and the README's JSON, Turtle and Python examples and CLI commands
still match the code."""

import ast
import contextlib
import importlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import types
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from unittest import mock

import pytest

import staxkit
from staxkit.annotate import emit_turtle, load_manifest
from staxkit.cli import build_parser, main
from staxkit.errors import StaxError
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


# The public readers, and the private one that also opens the text mode.
_INPUT_NAMES = {"read_flat_stream", "read_grouped_stream", "_read_stream"}


def input_openers(tree: ast.Module) -> list[str]:
    """The function around each use of sys.stdin or of an io reader, an import included."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "stdin"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
        or isinstance(node, ast.Name) and node.id in _INPUT_NAMES
        or isinstance(node, ast.alias) and node.name in _INPUT_NAMES
    ))


def test_one_function_opens_the_input_of_every_data_subcommand():
    # classify, convert and validate --data read their input through one
    # function, in term mode or, for a re-framing, in text mode.
    openers = input_openers(ast.parse((SRC / "commands.py").read_text(encoding="utf-8")))
    assert len(set(openers)) == 1 and openers[0], f"the input is opened in {openers}"
    assert input_openers(ast.parse(
        "import sys\n"
        "from .io import read_flat_stream\n"
        "def a(): return sys.stdin.buffer\n"
        "def b(): return read_grouped_stream\n"
        "def c(): from .io import read_flat_stream\n"
        "def d(): return sys.stdout\n"
        "def e(): return _read_stream(path, framing, True)\n"
    )) == ["", "a", "b", "c", "e"]
    # In io, the public readers and the text mode reach _read_file through _read_stream.
    io_tree = ast.parse((SRC / "io.py").read_text(encoding="utf-8"))
    assert sorted(set(input_openers(io_tree))) == ["read_flat_stream", "read_grouped_stream"]
    assert sorted(enclosing_functions(io_tree, lambda node: isinstance(node, ast.Name) and node.id == "_read_file")) == [
        "_read_dir_stream", "_read_stream"]


def framing_users(tree: ast.Module) -> list[str]:
    """The function around each read of the frame delimiter or the flat chunk size."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in ("FRAME_DELIMITER", "_CHUNK_LINES")
        or isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("#---")
    ))


def output_writers(tree: ast.Module) -> list[str]:
    """The function around each use of sys.stdout.buffer or _write_to."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "buffer"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "stdout"
        or isinstance(node, ast.Name) and node.id == "_write_to"
    ))


def file_openers(tree: ast.Module) -> list[str]:
    """The function around each call of open()."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"))


def test_one_function_frames_every_output_and_one_writes_it():
    # Items become texts, one writer step frames them: it alone joins flat
    # lines a chunk at a time and puts '#---' between elements.
    writer = ast.parse((SRC / "writer.py").read_text(encoding="utf-8"))
    framers = framing_users(writer)
    assert len(set(framers)) == 1 and framers[0], f"the output is framed in {framers}"
    assert framing_users(ast.parse(
        "from .framing import FRAME_DELIMITER\n"
        "_CHUNK_LINES = 256\n"
        "def a(): return FRAME_DELIMITER + '\\n'\n"
        "def b(): return '#---\\n'\n"
        "def c(): return islice(lines, _CHUNK_LINES)\n"
    )) == ["a", "b", "c"]
    # Then one target writer, _write_to, writes a sink, a whole file or a
    # directory's members, for write_stream, convert and annotate alike: in
    # writer only _write_file and _write_members open a file, and only
    # write_stream calls it.  commands opens no file, and only _write_output
    # reaches standard output or the target writer.
    assert set(file_openers(writer)) == {"_write_file", "_write_members"}, f"files are opened in {file_openers(writer)}"
    assert output_writers(writer) == ["write_stream"]
    commands = ast.parse((SRC / "commands.py").read_text(encoding="utf-8"))
    assert file_openers(commands) == []
    writers = output_writers(commands)
    assert set(writers) == {"_write_output"}, f"the output is written in {writers}"
    assert output_writers(ast.parse(
        "import sys\n"
        "def a(): sys.stdout.buffer.write(b'')\n"
        "def b(): return _write_to(texts, framing, path)\n"
        "def c(): sys.stdout.write('')\n"
    )) == ["a", "b"]
    assert file_openers(ast.parse("def a(): open(p)\ndef b(): os.open(p)\ndef c(): f.open()\n")) == ["a"]


def stderr_writers(tree: ast.Module) -> list[str]:
    """The function around each use of sys.stderr."""
    return enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "stderr"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    ))


def value_returners(tree: ast.Module) -> list[str]:
    """The function around each return statement that gives a value."""
    return enclosing_functions(tree, lambda node: isinstance(node, ast.Return) and node.value is not None)


def test_handlers_raise_and_main_alone_prints_the_failure_line():
    # A subcommand handler returns nothing and fails by raising; main alone
    # turns the error into the exit code and the one stderr line, and
    # _write_output's notice names what it wrote to a file or a directory.
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8")) for name in ("cli.py", "commands.py")}
    handlers = [node.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert sorted(handlers) == ["_cmd_annotate", "_cmd_classify", "_cmd_convert", "_cmd_taxonomy", "_cmd_validate"]
    returners = [f for tree in trees.values() for f in value_returners(tree) if f.startswith("_cmd_")]
    assert not returners, f"handlers return a value: {returners}"
    assert stderr_writers(trees["cli.py"]) == ["main"]
    assert stderr_writers(trees["commands.py"]) == ["_write_output"]
    assert stderr_writers(ast.parse(
        "import sys\n"
        "def a(): print('x', file=sys.stderr)\n"
        "def b(): sys.stderr.write('x')\n"
        "def c(): print('x', file=sys.stdout)\n"
    )) == ["a", "b"]
    assert value_returners(ast.parse(
        "def a(): return\n"
        "def b(): return 0\n"
        "def c():\n    def d(): return None\n    return\n"
    )) == ["b", "d"]


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


SUBCOMMAND_MODULES = {"staxkit.classify", "staxkit.annotate", "staxkit.convert", "staxkit.commands"}


def raising_module(call) -> str:
    """The module whose code raises the StaxError that call raises."""
    try:
        call()
    except StaxError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        return tb.tb_frame.f_globals["__name__"]
    raise AssertionError("no StaxError raised")


def calling_module(module: types.ModuleType, name: str, call) -> str:
    """The module whose code calls module.name while call runs."""
    original = getattr(module, name)
    callers = []

    def record(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    with mock.patch.object(module, name, record), contextlib.redirect_stdout(io.StringIO()):
        call()
    return callers[0]


@pytest.fixture(scope="module")
def homes(tmp_path_factory) -> dict[str, str]:
    """The module that holds each part of the code a call may leave out,
    found from the code that runs, not from module names: the writer, the
    error locator and the data subcommands."""
    data = tmp_path_factory.mktemp("homes") / "graphs.nt"
    data.write_bytes(TWO_GRAPHS)
    bad_line = "<http://ex.org/s> <http://ex.org/p> x ."
    return {
        "writer": staxkit.write_stream.__module__,
        "locator": raising_module(lambda: staxkit.parse_statement_line(bad_line, "triples")),
        "commands": calling_module(
            importlib.import_module("staxkit.classify"), "classify_stream",
            lambda: main(["classify", "--input", str(data), "--framing", "framed-graphs"]),
        ),
    }


def test_importing_the_cli_loads_no_subcommand_module():
    loaded = modules_loaded_by("import staxkit.cli")
    assert "staxkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "decimal", *SUBCOMMAND_MODULES}


def test_taxonomy_path_loads_no_stream_module(homes):
    loaded = modules_loaded_by(
        "from staxkit.cli import main\nmain(['taxonomy', 'path', 'graphStream', 'flatQuadStream'])"
    )
    assert "staxkit.taxonomy" in loaded
    assert not loaded & {"staxkit.io", "staxkit.model", homes["commands"], *SUBCOMMAND_MODULES}


def test_both_process_entry_points_call_run():
    # [project.scripts] read line by line: Python 3.10 has no tomllib.
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n")[1]
    assert scripts.splitlines()[0] == 'stax-kit = "staxkit.cli:run"'
    cli = (SRC / "cli.py").read_text(encoding="utf-8")
    assert cli.endswith('\nif __name__ == "__main__":\n    run()\n')


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


def test_datetime_stamps_load_no_timestamp_module(tmp_path):
    data = stamped_datasets(tmp_path / "data.nq", "dateTime", "2024-01-01T00:00:00Z", "2024-01-02T00:00:00Z")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"usages": [{"streamType": "timestampedNamedGraphStream"}]}))
    loaded = modules_loaded_by(cli_call(
        "validate", "--manifest", str(manifest), "--data", str(data), "--framing", "framed-datasets", "--json"
    ))
    assert "staxkit.annotate" in loaded
    assert not loaded & TIMESTAMP_MODULES


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
    assert not loaded & {"json", "datetime", "decimal", "staxkit.convert", "staxkit.classify", "staxkit.annotate"}


def test_a_group_convert_loads_no_convert_module(tmp_path):
    # The reader ends each batch's element: no term reaches convert().
    data = tmp_path / "triples.nt"
    data.write_bytes(TWO_GRAPHS)
    loaded = modules_loaded_by(cli_call(
        "convert", "--input", str(data), "--from", "flatTripleStream", "--to", "datasetStream",
        "--policy", "transitive", "--batch-size", "2", "--output", "-",
    ))
    assert "staxkit.commands" in loaded
    assert "staxkit.convert" not in loaded


def sensor_datasets(path: Path, count: int = 3) -> Path:
    """Canonical framed datasets in the shape of the benchmark's validate
    corpus: a timestamp triple about the one named graph, then its readings."""
    xsd = "http://www.w3.org/2001/XMLSchema#"
    path.write_text("#---\n".join(
        f'<http://ex.org/obs/{i}> <http://www.w3.org/ns/prov#generatedAtTime> '
        f'"2024-01-01T00:00:0{i}Z"^^<{xsd}dateTime> .\n'
        + "".join(f'<http://ex.org/sensor/{k}> <http://ex.org/p/reading> "-{k}.5"^^<{xsd}decimal> '
                  f"<http://ex.org/obs/{i}> .\n" for k in range(3))
        for i in range(count)
    ))
    return path


SIX_FRAMINGS = ["flat-triples", "flat-quads", "framed-graphs", "dir-graphs", "framed-datasets", "dir-datasets"]
# The narrowest type each payload's canonical input conforms to.
CANONICAL_USAGE = {"triples": "flatTripleStream", "quads": "flatQuadStream",
                   "graphs": "subjectGraphStream", "datasets": "timestampedNamedGraphStream"}


def respelled(text: str) -> str:
    """Framed text's statements as valid lines that are not canonical but that
    the reader's text mode rebuilds from their tokens: a TAB after the
    subject, a comment with a '\\' and a CRLF line end, every IRI of each
    element's first two lines spelled with a \\u0068 escape (subject,
    predicate, object, datatype and graph label alike), and after each
    element's first line a statement about its subject with a \\u0041 escape
    in an explicit xsd:string literal, which changes no type the input
    conforms to."""
    elements = []
    for element in text.split("#---\n"):
        lines = [line.replace(" ", "\t", 1)[:-1] + " # c\\\r\n" for line in element.splitlines(True)]
        lines[:2] = [line.replace("<http", "<\\u0068ttp") for line in lines[:2]]
        note = (f'{element.split(" ", 1)[0]} <http://ex.org/note>'
                ' "\\u0041"^^<http://www.w3.org/2001/XMLSchema#string> .\n')
        elements.append("".join(lines[:1] + [note] + lines[1:]))
    return "#---\n".join(elements)


def canonical_input(framing: str, tmp_path: Path, respell: bool = False) -> tuple[Path, Path]:
    """Two graphs, or three sensor datasets, as canonical input in framing: a
    framed file, a directory of one member per element, or a flat file of the
    same statements; and a manifest of the narrowest type it conforms to.
    With respell, the statements are spelled as respelled spells them."""
    quads = framing.endswith(("quads", "datasets"))
    text = sensor_datasets(tmp_path / "datasets.nq").read_text() if quads else TWO_GRAPHS.decode()
    if respell:
        text = respelled(text)
    path = tmp_path / framing
    if framing.startswith("dir"):
        path.mkdir()
        for i, element in enumerate(text.split("#---\n")):
            (path / f"{i:05d}.{'nq' if quads else 'nt'}").write_text(element)
    else:
        path.write_text(text.replace("#---\n", "") if framing.startswith("flat") else text)
    manifest = tmp_path / f"{framing}.json"
    manifest.write_text(json.dumps({"usages": [{"streamType": CANONICAL_USAGE[framing.partition("-")[2]]}]}))
    return path, manifest


def test_valid_classify_and_validate_load_neither_the_writer_nor_the_locator(homes, tmp_path):
    # Every framing is read in the reader's text mode, which keeps or
    # rebuilds every line, canonical or not, and never imports the writer.
    for framing, respell in itertools.product(SIX_FRAMINGS, (False, True)):
        home = tmp_path / f"{framing}-{respell}"
        home.mkdir()
        data, manifest = canonical_input(framing, home, respell)
        for argv in (
            ("classify", "--input", str(data), "--framing", framing, "--json"),
            ("validate", "--manifest", str(manifest), "--data", str(data), "--framing", framing, "--json"),
        ):
            loaded = modules_loaded_by(cli_call(*argv))
            assert "staxkit.io" in loaded, argv
            assert not loaded & {homes["writer"], homes["locator"]}, argv


@pytest.mark.parametrize("framing", SIX_FRAMINGS)
def test_classifying_canonical_elements_matches_no_statement_line(framing, tmp_path, monkeypatch):
    # A canonical line is kept as read: of the statements, the statement
    # pattern reads at most a grouped dataset's timestamp lines, and never a
    # line in a named graph, in a graph element or in a flat stream.  A
    # '#---' line ends its element before the pattern is tried.
    import staxkit.io

    matched = []
    pattern = staxkit.io._STATEMENT

    class Counting:
        def match(self, line):
            matched.append(line)
            return pattern.match(line)

    monkeypatch.setattr(staxkit.io, "_STATEMENT", Counting())
    data, manifest = canonical_input(framing, tmp_path)
    stamps = []
    if framing.endswith("datasets"):
        stamps = [line for line in (tmp_path / "datasets.nq").read_text().splitlines(keepends=True)
                  if "generatedAtTime" in line]
    for argv in (
        ["classify", "--input", str(data), "--framing", framing, "--json"],
        ["validate", "--manifest", str(manifest), "--data", str(data), "--framing", framing, "--json"],
    ):
        matched.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert Counter(matched) <= Counter(stamps), argv


@pytest.mark.parametrize("framing", ["flat-quads", "framed-datasets", "dir-datasets"])
def test_classifying_canonical_quads_builds_no_term(framing, tmp_path, monkeypatch):
    # A canonical line is indexed under its graph label's token, and the
    # dataset check reads the label, the timestamp lines and the first stamp
    # as tokens: no IRI or blank node is looked up or built, and no Literal,
    # even with the intern table empty.
    import staxkit.classify
    import staxkit.io
    from staxkit.model import Literal

    built = []
    node, literal = staxkit.io._node, Literal.__new__
    for module in (staxkit.io, staxkit.classify):
        monkeypatch.setattr(module, "_node", lambda token: built.append(token) or node(token))
    monkeypatch.setattr(Literal, "__new__", lambda cls, *args: built.append(args) or literal(cls, *args))
    monkeypatch.setattr(staxkit.io, "_interned", {})
    data, manifest = canonical_input(framing, tmp_path)
    for argv in (
        ["classify", "--input", str(data), "--framing", framing, "--json"],
        ["validate", "--manifest", str(manifest), "--data", str(data), "--framing", framing, "--json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert built == [], argv


def test_convert_loads_the_writer_but_not_the_locator(homes, tmp_path):
    data = tmp_path / "graphs.nt"
    data.write_bytes(TWO_GRAPHS)
    loaded = modules_loaded_by(cli_call(
        "convert", "--input", str(data), "--from", "graphStream", "--to", "flatQuadStream",
        "--policy", "transitive", "--output", "-",
    ))
    assert homes["writer"] in loaded
    assert homes["locator"] not in loaded


def test_annotate_loads_the_writer_but_not_the_reader(homes, tmp_path):
    # The Turtle output serializes terms; the framing constants the reader
    # and the writer share must not bring the reader along.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"usages": [{"streamType": "graphStream"}]}))
    loaded = modules_loaded_by(cli_call("annotate", "--manifest", str(manifest)))
    assert homes["writer"] in loaded
    assert "staxkit.io" not in loaded


def test_the_module_entry_point_is_not_imported_a_second_time(homes, tmp_path):
    # Under `python -m` the CLI module runs as __main__; a package module
    # that imported staxkit.cli would compile and run it once more.
    data = tmp_path / "graphs.nt"
    data.write_bytes(TWO_GRAPHS)
    loaded = modules_loaded_by(
        "import runpy, sys\n"
        f"sys.argv[1:] = ['classify', '--input', {str(data)!r}, '--framing', 'framed-graphs']\n"
        "try:\n"
        "    runpy.run_module('staxkit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )
    assert homes["commands"] in loaded
    assert "staxkit.cli" not in loaded


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


def test_readme_names_every_public_name():
    # in inline code or a code block: a public name README never names is
    # either documented there or taken out of __all__
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`+([^`]+)`+", README))))
    assert [name for name in staxkit.__all__ if name not in named] == []


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
