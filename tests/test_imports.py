"""Every name a ``spdp`` module imports is one that the module reads, and
every public function, class and method it defines is one that the package
or the benchmark uses."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spdp"
# The package's __init__ imports only to re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in ``source`` reads."""
    tree = ast.parse(source)
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_a_leftover_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .serial import NO_TERMINATION, SerialModel\n"
              "def f(m: SerialModel) -> None:\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["NO_TERMINATION"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Public names that only tests call; each stays for the test named beside it.
TEST_ONLY_API = {
    "curate_test",                      # tests/test_acceptance.py::test_criterion_7_curation_pipeline
    "PredictionRecord.from_json_line",  # tests/test_fusion.py::test_prediction_record_json_round_trip
    "grad_check",                       # tests/test_acceptance.py::test_criterion_1_gradient_fidelity
    "SpdpModel.trainable_params",       # perfbench/tests/test_spans.py (ROADMAP item 1 deletes it)
}


def references(tree: ast.AST) -> Counter:
    """Each identifier, attribute, imported name and string constant in ``tree``."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def tensor_references(tree: ast.AST, inside: bool) -> Counter:
    """References that can only mean a ``spdp.tensor`` function: bare names
    ``inside`` tensor.py; elsewhere ``T.<name>`` / ``tensor.<name>`` and
    ``from .tensor import <name>``, so ``np.exp`` or a local ``sub`` is no caller."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if inside and isinstance(node, ast.Name):
            found[node.id] += 1
        elif (not inside and isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in ("T", "tensor")):
            found[node.attr] += 1
        elif not inside and isinstance(node, ast.ImportFrom) and node.module == "tensor":
            found.update(a.name for a in node.names)
    return found


def unused_definitions(modules: dict[str, ast.Module], bench: list[ast.Module]) -> list[str]:
    """Public top-level functions and classes, and public methods of those
    classes, that nothing in ``modules`` or ``bench`` names outside their own
    body. A top-level function of tensor.py counts only ``tensor_references``
    in ``modules``, and any reference in ``bench``."""
    total: Counter = Counter()
    tensor_total: Counter = Counter()
    for tree in bench:
        total += references(tree)
        tensor_total += references(tree)
    for name, tree in modules.items():
        total += references(tree)
        tensor_total += tensor_references(tree, inside=name == "tensor.py")
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if name == "tensor.py" and isinstance(node, ast.FunctionDef):
                if tensor_total[node.name] == tensor_references(node, inside=True)[node.name]:
                    unused.append(node.name)
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
            unused += [qual for qual, d in defs
                       if total[d.name] == references(d)[d.name]]
    return sorted(unused)


def test_the_check_finds_a_leftover_definition():
    box = ast.parse("class Box:\n"
                    "    def open(self):\n        return self.close()\n"
                    "    def close(self):\n        return self.open()\n"
                    "    def spare(self):\n        return self.spare()\n"
                    "def leftover(n):\n    return leftover(n - 1)\n"
                    "def make():\n    return Box()\n"
                    "def named():\n    return None\n")
    caller = ast.parse("from .box import make\n")
    bench = ast.parse("SPANS = ('named',)\n")
    assert unused_definitions({"box.py": box, "caller.py": caller}, [bench]) == [
        "Box.spare", "leftover"]


def test_the_check_counts_no_look_alike_as_a_tensor_function_caller():
    tensor = ast.parse("def exp(a):\n    return a\n"
                       "def log(a):\n    return a\n"
                       "def sub(a, b):\n    return a\n"
                       "def power(a, p):\n    return power(a, p - 1)\n"
                       "def gelu(a):\n    return tsum(a)\n"
                       "def tsum(a):\n    return a\n"
                       "def take(a):\n    return a\n")
    cli = ast.parse("import numpy as np\n"
                    "from . import tensor as T\n"
                    "from .tensor import log\n"
                    "def _run(parser, x):\n"
                    "    sub = parser.add_subparsers()\n"
                    "    return sub, np.exp(x), np.power(x, 2), log(x), T.gelu(x)\n")
    bench = ast.parse("TENSOR_FUNCS = ('take',)\n")
    assert unused_definitions({"tensor.py": tensor, "cli.py": cli}, [bench]) == [
        "exp", "power", "sub"]


def test_every_public_definition_has_a_caller():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((SRC.parent.parent / "perfbench").glob("*.py"))]
    assert unused_definitions(modules, bench) == sorted(TEST_ONLY_API)


# The exception types ``cli.main`` maps to an exit code: 1, 2 and 3.
EXIT_EXCEPTIONS = {"UsageError", "ValueError", "FloatingPointError"}
# (module, function, raised name) pairs that never reach ``main``, each with a
# comment saying why; an entry whose raise is gone fails
# ``test_every_allowlist_entry_names_a_raise_that_exists``.
RAISE_ALLOWLIST: set[tuple[str, str, str]] = set()


def raised_names(source: str) -> list[tuple[str, str]]:
    """(enclosing function, raised name) of each ``raise`` in ``source`` that
    names a type; a raise outside any function is under ``<module>``."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((where, ast.unparse(exc)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(source), "<module>")
    return found


def unmapped_exceptions(module: str, source: str) -> list[str]:
    """Each exception class ``source`` defines, and each ``raise`` that names a
    type, outside ``EXIT_EXCEPTIONS``; a bare re-raise passes."""
    found = [f"class {node.name}" for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ClassDef) and node.name not in EXIT_EXCEPTIONS
             and any(ast.unparse(b).endswith(("Error", "Exception")) for b in node.bases)]
    return found + [f"{where}: raise {name}" for where, name in raised_names(source)
                    if name not in EXIT_EXCEPTIONS
                    and (module, where, name) not in RAISE_ALLOWLIST]


def stale_allowlist_entries(allowlist: set[tuple[str, str, str]],
                            sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """Entries of ``allowlist`` whose module no longer raises that name in that function."""
    live = {(module, where, name) for module, source in sources.items()
            for where, name in raised_names(source)}
    return sorted(allowlist - live)


def test_the_check_finds_an_exception_type_with_no_exit_code():
    source = ("class DataError(Exception):\n    pass\n"
              "def load(path):\n"
              "    try:\n        return open(path)\n"
              "    except OSError:\n        raise\n"
              "    if not path:\n        raise DataError('no path')\n"
              "    raise ValueError(path)\n")
    assert unmapped_exceptions("box.py", source) == ["class DataError", "load: raise DataError"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_has_an_exit_code(path):
    assert unmapped_exceptions(path.name, path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_allowlist_entry_that_outlived_its_raise():
    source = ("import struct\n"
              "def load(blob):\n"
              "    try:\n        return struct.unpack('<I', blob)\n"
              "    except struct.error as err:\n        raise KeyError(blob) from err\n")
    allowlist = {("box.py", "load", "KeyError"), ("box.py", "load", "struct.error"),
                 ("box.py", "save", "KeyError"), ("gone.py", "load", "KeyError")}
    assert stale_allowlist_entries(allowlist, {"box.py": source}) == [
        ("box.py", "load", "struct.error"), ("box.py", "save", "KeyError"),
        ("gone.py", "load", "KeyError")]


def test_every_allowlist_entry_names_a_raise_that_exists():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert stale_allowlist_entries(RAISE_ALLOWLIST, sources) == []
