"""Every module-level function and class of the package has a caller in the
package: another definition refers to it, or the package exports it. Every
field of a config class has a setter."""

import argparse
import ast
from collections import Counter
from pathlib import Path

from driftscope import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "driftscope"

# module -> its config class, whose fields a run can set
CONFIGS = {"synth.py": "ScenarioConfig", "model.py": "ModelConfig", "alerts.py": "AlertRule",
           "evaluation.py": "MethodContext"}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    """How often each name is used under ``node``, as a bare name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _keywords(node: ast.AST) -> Counter:
    """How often each name is passed as a keyword argument under ``node``."""
    return Counter(n.arg for n in ast.walk(node) if isinstance(n, ast.keyword) and n.arg)


def test_every_definition_has_a_caller():
    trees = _trees()
    used = sum((_references(tree) for tree in trees.values()), Counter())
    exports = (alias.asname or alias.name for n in ast.walk(trees["__init__.py"])
               if isinstance(n, ast.ImportFrom) for alias in n.names)
    used.update(exports)
    callerless = [f"{module}:{node.name}"
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and used[node.name] == _references(node)[node.name]]
    assert callerless == []


def test_every_config_field_has_a_setter():
    # A field is set by a CLI flag whose dest is its name, or outside its own
    # class as a keyword argument or a field of cli._RULE_HOURS. A field that
    # nothing sets keeps its default: it is a constant.
    trees = _trees()
    keywords = sum((_keywords(tree) for tree in trees.values()), Counter())
    (commands,) = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    flagged = {a.dest for p in commands.choices.values() for a in p._actions}
    flagged.update(name for _, name in cli._RULE_HOURS)
    unset = []
    for module, name in CONFIGS.items():
        (node,) = (n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == name)
        own = _keywords(node)
        unset += [f"{name}.{n.target.id}" for n in node.body if isinstance(n, ast.AnnAssign)
                  and n.target.id not in flagged and keywords[n.target.id] == own[n.target.id]]
    assert unset == []
