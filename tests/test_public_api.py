"""Every public name has a caller that is not a test.

A name that ``rkentropy`` exports must be read by the library itself, by the
benchmark (``perfbench/``), by ``tools/`` or by a README example: a use inside
the name's own definition, a re-export in ``__init__.py`` or a test does not
count.  Methods are out of scope, and a local variable that shares a
public name counts as a read of it.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import rkentropy

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for folder in ("src/rkentropy", "perfbench", "tools")
           for path in sorted((ROOT / folder).glob("*.py"))
           if path.name != "__init__.py" and not path.name.startswith("test_")]
PACKAGE_MODULES = {name for name, value in vars(rkentropy).items()
                   if isinstance(value, ModuleType)}
# ScalarDiffusion: no command, workload or other function builds it, but it
# is the conservative flux form of the paper's quasilinear theorem, one of the
# four families
EXEMPT = {"ScalarDiffusion"}


def _exports():
    return sorted(name for name, value in vars(rkentropy).items()
                  if not name.startswith("_") and not isinstance(value, ModuleType))


def _from_package(node):
    """Whether node is a ``from`` import out of the package."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").split(".")[0] == "rkentropy")


def _package_aliases(tree):
    """Names bound to rkentropy or one of its modules by the imports of a file."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "rkentropy"}
        elif _from_package(node):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name in PACKAGE_MODULES}
    return aliases


def _uses(tree):
    """(reader, name) for every name a file reads, or imports from the
    package, where reader is the top-level definition that reads it (None
    at module level): bare names, and attributes of the package's modules."""
    aliases = _package_aliases(tree)
    found = set()
    for stmt in tree.body:
        reader = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((reader, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add((reader, node.attr))
            elif _from_package(node):
                found |= {(reader, alias.name) for alias in node.names}
    return found


def _readme_examples():
    """The Python examples of the README."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_every_export_has_a_caller_outside_the_tests():
    uses = set().union(*(_uses(ast.parse(path.read_text())) for path in SOURCES))
    # a name's own definition does not reach it
    reached = {name for reader, name in uses if reader != name}
    reached |= set(re.findall(r"\w+", "\n".join(_readme_examples())))
    unreached = [name for name in _exports() if name not in reached]
    assert unreached == sorted(EXEMPT)


def test_readme_examples_run():
    # each example asserts its own results, so it cannot drift from the code
    examples = _readme_examples()
    assert examples
    for code in examples:
        exec(compile(code, "README.md", "exec"), {})
