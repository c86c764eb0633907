"""No test-only surface in the package.

Every function and non-dunder method under `src/arrovian` must be
referenced by name somewhere in the package outside its own definition.
A name is matched, not resolved, so a method counts as referenced when
any attribute of that name is read.  The few names that only the README
or the benchmark (`perfbench`) reach are listed with their reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrovian"

ALLOWED = {
    "check_unanimity": "a span target of perfbench/spans.py",
    "find_dictator": "a span target of perfbench/spans.py",
    "frechet_verdict": "a span target of perfbench/spans.py, and the construct workload's Frechet step",
    "verdicts": "ExplicitSwf.verdicts, which perfbench/passrun.py reads to check construct's tables",
    "expand_to_explicit": "named in the README, and a construct step",
    "derive_rules": "named in the README, and a construct step",
    "swf_from_ultrafilter": "the converse of extraction, named in the README, and a construct step",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module) -> list[ast.FunctionDef]:
    """The module's functions and its classes' methods, dunders left out."""
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [node for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]
    return defs


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name or attribute the module reads, with its line."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((node.attr, node.lineno))
    return refs


def unreferenced() -> list[str]:
    """`module.name` of every definition that no package code outside it names, allowlist aside."""
    trees = _modules()
    refs = {module: _references(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            named = any(
                name == node.name and not (other == module and line in inside)
                for other, seen in refs.items()
                for name, line in seen
            )
            if not named and node.name not in ALLOWED:
                found.append(f"{module}.{node.name}")
    return found


def test_every_function_is_called_from_the_package():
    assert unreferenced() == []


def test_the_allowlist_names_only_definitions_the_package_has():
    assert set(ALLOWED) <= {node.name for tree in _modules().values() for node in _definitions(tree)}
