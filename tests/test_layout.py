"""Layout guards for the package source.

Code that only the tests call belongs in ``tests/oracles.py``, and code that
nothing calls belongs nowhere.  The check is by name: a public module-level
function of ``src/paratile`` must be referenced by some other code in the
package, in ``scripts/`` or in ``perfbench/``, or be exported through
``paratile.__all__``.
"""

import ast
import pathlib

import paratile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paratile"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _references(tree: ast.Module):
    """(name, enclosing top-level function or None) for every name use."""
    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for name in names(node):
            yield name, owner


def test_every_public_function_has_a_caller_outside_the_tests():
    used = set()
    for top in USERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text())
            # a function naming only itself (recursion) is not a use
            used.update(name for name, owner in _references(tree)
                        if name != owner)
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            if node.name in used or node.name in paratile.__all__:
                continue
            uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"public functions no code calls: {uncalled}"
