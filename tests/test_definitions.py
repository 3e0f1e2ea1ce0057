"""Every module-level function and class of the package has a caller in the
package: another definition refers to it, or the package exports it. Every
field of a config class has a setter, and every defaulted parameter a call
that passes it."""

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


def _defaulted(tree: ast.Module):
    """(callee name, parameter name, position in a call) of each parameter
    with a default, for every function under ``tree``. A method's position
    skips ``self`` or ``cls``; ``__init__`` is called by its class's name."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        skip = int(id(node) in owner and bool(positional)
                   and positional[0].arg in ("self", "cls"))
        name = owner[id(node)] if node.name == "__init__" else node.name
        first = len(positional) - len(a.defaults)
        for i, p in enumerate(positional[first:], start=first):
            yield name, p.arg, i - skip
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield name, p.arg, None


def test_every_defaulted_parameter_is_passed():
    # A defaulted parameter that no call in src/, tests/ or scripts/ passes,
    # by keyword or by position, always holds its default: it is a constant.
    root = SRC.parents[1]
    passed = set()  # (callee name, keyword or position)
    for path in [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
                 *(root / "scripts").glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, kw.arg) for kw in call.keywords)
            passed.update((name, i) for i in range(len(call.args)))
    unpassed = [f"{module}:{func}({param}=)" for module, tree in _trees().items()
                for func, param, position in _defaulted(tree)
                if (func, param) not in passed and (func, position) not in passed]
    assert unpassed == []
