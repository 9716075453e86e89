"""An import guard: every name a module of the package or of these tests
imports is used in that module, and every private name that a module of
the package defines is named elsewhere in the package, so an edit that
orphans an import or a helper fails here.

The exceptions, in the package only, are names the benchmark looks up on a
module (see ``test_verify.BENCHMARK_HOOKS``) and the package's re-exports,
which must be exactly ``__all__``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import partition_evolve

from test_verify import BENCHMARK_HOOKS

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "partition_evolve"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
TEST_MODULES = sorted(path.stem for path in TESTS.glob("*.py"))

# The names the benchmark looks up on each module, which may stay unused.
_HOOKED = defaultdict(set)
for _path in BENCHMARK_HOOKS:
    _module, _, _name = _path.rpartition(".")
    _HOOKED[_module or "__init__"].add(_name)


def _tree(module, directory=PACKAGE):
    return ast.parse((directory / f"{module}.py").read_text(), module)


def _imported(tree):
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names)
    return names


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _all(tree):
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [target.id for target in node.targets
                     if isinstance(target, ast.Name)] == ["__all__"]):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = _tree(module)
    unused = _imported(tree) - _used(tree) - _all(tree)
    assert unused <= _HOOKED[module], sorted(unused - _HOOKED[module])


@pytest.mark.parametrize("module", TEST_MODULES)
def test_every_name_a_test_module_imports_is_used(module):
    tree = _tree(module, TESTS)
    unused = _imported(tree) - _used(tree)
    assert not unused, sorted(unused)


def test_the_package_reexports_exactly_its_all():
    tree = _tree("__init__")
    defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    assert _imported(tree) == _all(tree) - defined
    for name in partition_evolve.__all__:
        assert hasattr(partition_evolve, name), name


def _private_names(node):
    """The private names that a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        names = [name.id for target in targets for name in ast.walk(target)
                 if isinstance(name, ast.Name)]
    else:
        names = []
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _read(tree):
    """The names read in ``tree``, as names or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_named_elsewhere_in_the_package(module):
    # Elsewhere: in another module, or in another top-level statement of
    # its own, so that a helper that only calls itself is an orphan too.
    elsewhere = set().union(*(_read(_tree(other)) for other in MODULES
                              if other != module))
    body = _tree(module).body
    reads = [_read(node) for node in body]
    orphans = [name for i, node in enumerate(body)
               for name in _private_names(node)
               if name not in elsewhere
               and not any(name in read for read in reads[:i] + reads[i + 1:])]
    assert not orphans, orphans
