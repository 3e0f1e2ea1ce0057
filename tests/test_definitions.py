"""Every module-level function and class of the package has a caller in the
package: another definition refers to it, or the package exports it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "driftscope"


def _references(node: ast.AST) -> Counter:
    """How often each name is used under ``node``, as a bare name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    exports = (alias.asname or alias.name for n in ast.walk(trees["__init__.py"])
               if isinstance(n, ast.ImportFrom) for alias in n.names)
    used.update(exports)
    callerless = [f"{module}:{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and used[node.name] == _references(node)[node.name]]
    assert callerless == []
